//! Threshold-style top-k processing over sorted posting lists (paper §6.2,
//! ref \[16\] — Fagin's family of optimal aggregation algorithms).
//!
//! Lists are read by *sorted access* in round-robin; every newly seen item
//! is fully scored by a caller-supplied exact-score function (*random
//! access*); processing stops as soon as the k-th best exact score reaches
//! the threshold — the best total score any unseen item could still attain,
//! namely the sum of the scores at the current sorted-access frontier. With
//! exact per-user lists the stored scores are the true scores; with
//! clustered lists they are upper bounds (Eq. 1), which keeps the threshold
//! admissible — clustered top-k never misses a true top-k item, it just
//! performs more exact computations.
//!
//! The candidate buffer is a k-bounded min-heap (the weakest of the current
//! best k sits at the top, so the stop test and evictions are O(log k)),
//! the threshold is maintained incrementally as frontier scores change
//! instead of being re-summed every round, and each list's frontier is the
//! score of its next *unread* entry — a tighter admissible bound than the
//! last-read score, so processing stops no later (and usually earlier) than
//! the classic formulation while returning the same top k.

use crate::posting::{build_item_companion, find_score_by_item, PostingList, PostingScan};
use socialscope_graph::{FxHashSet, NodeId};
use std::collections::BinaryHeap;

/// Result and cost counters of a top-k evaluation.
#[derive(Debug, Clone, Default)]
pub struct TopKResult {
    /// The top items with their exact scores, best first. Treat as
    /// read-only: editing entries in place leaves a big result's
    /// random-access companion stale (see [`Self::score_of`]).
    pub ranked: Vec<(NodeId, f64)>,
    /// Number of sorted accesses performed across all lists.
    pub sorted_accesses: usize,
    /// Number of candidates that were fully scored (random accesses).
    pub exact_computations: usize,
    /// Whether the threshold stop condition fired before the lists were
    /// exhausted (an indicator of pruning effectiveness).
    pub early_terminated: bool,
    /// Whether this result is the *defined degraded state* of a batch
    /// deadline expiry ([`crate::index::BatchOptions::deadline`]): the
    /// budget ran out before this user was served, so the result is empty
    /// with this flag set. Never set on a served result — a query is either
    /// answered exactly or flagged, never answered partially.
    pub deadline_expired: bool,
    /// `ranked` re-sorted in ascending item order, built by the top-k
    /// evaluators (for results big enough to bisect) so [`Self::score_of`]
    /// shares [`PostingList::score_of`]'s random-access lookup. Empty —
    /// with a linear fallback — for small, hand-assembled or deserialized
    /// results. Derived data: excluded from equality.
    by_item: Vec<(NodeId, f64)>,
}

/// Equality ignores the derived `by_item` companion, so evaluator-built and
/// hand-assembled results with the same public fields compare equal.
impl PartialEq for TopKResult {
    fn eq(&self, other: &Self) -> bool {
        self.ranked == other.ranked
            && self.sorted_accesses == other.sorted_accesses
            && self.exact_computations == other.exact_computations
            && self.early_terminated == other.early_terminated
            && self.deadline_expired == other.deadline_expired
    }
}

impl TopKResult {
    /// Assemble a result from a final ranking plus counters, building the
    /// random-access companion (crate-internal: used by the evaluators and
    /// the indexes' specialized query paths).
    pub(crate) fn from_parts(
        ranked: Vec<(NodeId, f64)>,
        sorted_accesses: usize,
        exact_computations: usize,
        early_terminated: bool,
    ) -> Self {
        TopKResult {
            ranked,
            sorted_accesses,
            exact_computations,
            early_terminated,
            deadline_expired: false,
            by_item: Vec::new(),
        }
        .reindexed()
    }

    /// The defined degraded result of a batch deadline expiry: empty
    /// ranking, zero counters, [`Self::deadline_expired`] set. This is
    /// exactly what every batch member past the budget receives.
    pub fn expired() -> Self {
        TopKResult { deadline_expired: true, ..TopKResult::default() }
    }

    /// Rebuild the random-access companion from `ranked`. Small results
    /// answer `score_of` by scanning `ranked` directly, so the companion —
    /// an allocation plus a sort on every query — is only built once a
    /// result is big enough for bisection to pay for it.
    fn reindexed(mut self) -> Self {
        const RESULT_INDEX_MIN: usize = 33;
        if self.ranked.len() >= RESULT_INDEX_MIN {
            self.by_item = build_item_companion(self.ranked.iter().copied());
        }
        self
    }

    /// The exact score of an item in the result, if ranked. Shares the
    /// random-access lookup [`PostingList::score_of`] uses; falls back to a
    /// scan when the result is small, deserialized or rebuilt by hand.
    /// Length-preserving in-place edits of `ranked` are NOT detected — a
    /// big result's companion keeps answering with the pre-edit scores, so
    /// treat `ranked` as read-only.
    pub fn score_of(&self, item: NodeId) -> Option<f64> {
        if self.by_item.len() == self.ranked.len() && !self.ranked.is_empty() {
            find_score_by_item(&self.by_item, item)
        } else {
            self.ranked.iter().find(|(i, _)| *i == item).map(|(_, s)| *s)
        }
    }

    /// Item ids in rank order, borrowed from the result.
    pub fn items(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ranked.iter().map(|(i, _)| *i)
    }
}

/// A candidate in the k-bounded buffer. `Ord` is inverted so the *weakest*
/// candidate — lowest score, largest item id on ties — surfaces at the top
/// of the (max-)heap, making it a min-heap over ranking strength.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: f64,
    item: NodeId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.score.total_cmp(&self.score).then_with(|| self.item.cmp(&other.item))
    }
}

/// The k-bounded min-heap of the best candidates seen so far. For the usual
/// small k it is a hand-rolled binary heap in a stack array — the query
/// then allocates nothing for candidate tracking; large k spills to a
/// `BinaryHeap` chosen per evaluation in [`Best::reset`]. Both orderings
/// are [`Candidate`]'s inverted `Ord`, so the root/peek is always the
/// current k-th best (the next eviction victim).
struct Best {
    buf: [Candidate; INLINE_BEST],
    len: usize,
    /// Whether the current evaluation's k exceeds the inline capacity.
    /// Dispatch goes through this flag, not through `spill`'s presence, so
    /// a heap grown by a large-k query stays allocated across small-k
    /// queries of the same batch and is reused when a large k returns.
    use_spill: bool,
    spill: Option<BinaryHeap<Candidate>>,
}

const INLINE_BEST: usize = 24;

impl Default for Best {
    fn default() -> Self {
        Best {
            buf: [Candidate { score: 0.0, item: NodeId(0) }; INLINE_BEST],
            len: 0,
            use_spill: false,
            spill: None,
        }
    }
}

impl Best {
    /// Prepare the buffer for a fresh evaluation at `k`. Reusing one `Best`
    /// across a batch skips re-initializing the inline array every query;
    /// only `len`, the spill choice and (for large k) the heap reset.
    fn reset(&mut self, k: usize) {
        self.len = 0;
        self.use_spill = k > INLINE_BEST;
        if self.use_spill {
            match &mut self.spill {
                Some(heap) => {
                    heap.clear();
                    heap.reserve(k + 1);
                }
                None => self.spill = Some(BinaryHeap::with_capacity(k + 1)),
            }
        }
    }

    fn heap(&self) -> &BinaryHeap<Candidate> {
        // lint: allow(no_panic, reason = "true invariant: reset() allocates the spill heap before any spill-mode accessor runs")
        self.spill.as_ref().expect("reset allocates the spill heap before use")
    }

    fn len(&self) -> usize {
        if self.use_spill {
            self.heap().len()
        } else {
            self.len
        }
    }

    /// The weakest of the current best candidates (the heap root).
    #[inline]
    fn weakest(&self) -> Option<Candidate> {
        if self.use_spill {
            self.heap().peek().copied()
        } else {
            (self.len > 0).then(|| self.buf[0])
        }
    }

    /// Offer a candidate to a buffer bounded at `k` entries: admitted
    /// outright while the buffer is filling, displacing the weakest when it
    /// beats them, dropped otherwise. Equivalent to push-then-evict-weakest
    /// but with no heap traffic for tail candidates.
    #[inline]
    fn offer(&mut self, k: usize, c: Candidate) {
        if self.use_spill {
            // lint: allow(no_panic, reason = "true invariant: reset() allocates the spill heap before any spill-mode accessor runs")
            let h = self.spill.as_mut().expect("reset allocates the spill heap before use");
            if h.len() < k {
                h.push(c);
            } else if let Some(mut root) = h.peek_mut() {
                if c < *root {
                    *root = c; // PeekMut sifts down on drop.
                }
            }
            return;
        }
        let (buf, len) = (&mut self.buf, &mut self.len);
        if *len < k {
            // Sift up from the new leaf.
            let mut i = *len;
            buf[i] = c;
            *len += 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if buf[parent] >= buf[i] {
                    break;
                }
                buf.swap(parent, i);
                i = parent;
            }
        } else if c < buf[0] {
            // Replace the root and sift down.
            buf[0] = c;
            let mut i = 0usize;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut biggest = i;
                if l < *len && buf[l] > buf[biggest] {
                    biggest = l;
                }
                if r < *len && buf[r] > buf[biggest] {
                    biggest = r;
                }
                if biggest == i {
                    break;
                }
                buf.swap(i, biggest);
                i = biggest;
            }
        }
    }

    /// Drain into the final ranking: descending score, ascending item on
    /// ties (exactly ascending `Candidate` order). Leaves the buffer empty
    /// — spill capacity included — ready for the next [`Self::reset`], so
    /// batch reuse amortizes the heap allocation even for large k.
    fn take_ranked(&mut self) -> Vec<(NodeId, f64)> {
        if self.use_spill {
            // lint: allow(no_panic, reason = "true invariant: reset() allocates the spill heap before any spill-mode accessor runs")
            let h = self.spill.as_mut().expect("reset allocates the spill heap before use");
            let mut candidates: Vec<Candidate> = h.drain().collect();
            candidates.sort_unstable();
            candidates.into_iter().map(|c| (c.item, c.score)).collect()
        } else {
            let slice = &mut self.buf[..self.len];
            slice.sort_unstable();
            let ranked = slice.iter().map(|c| (c.item, c.score)).collect();
            self.len = 0;
            ranked
        }
    }
}

/// Deduplication of candidate items across lists: a linear scan over a
/// stack-inline buffer until the candidate set grows past [`SEEN_SPILL`],
/// then a hash set. Top-k frontiers are usually tiny, so most queries pay
/// neither for hashing nor for a heap allocation.
struct Seen {
    buf: [NodeId; SEEN_SPILL],
    len: usize,
    spill: Option<FxHashSet<NodeId>>,
}

const SEEN_SPILL: usize = 48;

impl Default for Seen {
    fn default() -> Self {
        Seen::new()
    }
}

/// Reusable evaluation state for threshold top-k: the candidate heap and
/// the seen-set, reset (not reallocated) between queries. One scratch
/// serves any number of sequential evaluations — the batch query paths
/// thread a single instance through a whole user batch, so per-query setup
/// shrinks to two length resets.
#[derive(Default)]
pub(crate) struct TopKScratch {
    seen: Seen,
    best: Best,
    /// Decoded compressed companions of the current query's lists (see
    /// [`UnpackedViews`]); owned here so the arena rides the same scratch
    /// reuse as the heap and seen-set.
    pub(crate) unpacked: crate::posting::UnpackedViews,
}

impl Seen {
    fn new() -> Self {
        Seen { buf: [NodeId(0); SEEN_SPILL], len: 0, spill: None }
    }

    /// Forget every recorded item. A spilled hash set is kept allocated but
    /// cleared — the capacity it grew to serves the next query of the
    /// batch, which is the point of reusing the scratch.
    fn reset(&mut self) {
        self.len = 0;
        if let Some(set) = &mut self.spill {
            set.clear();
        }
    }

    /// Record an item; returns true the first time it is seen.
    #[inline]
    fn insert(&mut self, item: NodeId) -> bool {
        if let Some(set) = &mut self.spill {
            return set.insert(item);
        }
        if self.buf[..self.len].contains(&item) {
            return false;
        }
        if self.len < SEEN_SPILL {
            self.buf[self.len] = item;
            self.len += 1;
        } else {
            let mut set: FxHashSet<NodeId> = self.buf.iter().copied().collect();
            set.insert(item);
            self.spill = Some(set);
        }
        true
    }
}

/// Run threshold-style top-k over one sorted posting list per query keyword.
///
/// `exact` must return the true total score of an item for the querying
/// user (the sum over keywords of `score_k(i, u)` in the paper's model); it
/// is called exactly once per distinct candidate item.
pub fn top_k(lists: &[&PostingList], k: usize, mut exact: impl FnMut(NodeId) -> f64) -> TopKResult {
    top_k_hinted(lists, k, |item, _, _| exact(item))
}

/// [`top_k`] evaluated through a caller-supplied [`TopKScratch`], for batch
/// callers that amortize the evaluation state across many queries.
pub(crate) fn top_k_with(
    scratch: &mut TopKScratch,
    lists: &[&PostingList],
    k: usize,
    mut exact: impl FnMut(NodeId) -> f64,
) -> TopKResult {
    top_k_hinted_with(scratch, lists, k, |item, _, _| exact(item))
}

/// Like [`top_k`], but the scoring closure also receives the index of the
/// list the candidate surfaced from and its stored score there. Exact-list
/// callers use the hint to skip one of their per-list random accesses —
/// the discovering list's score is already in hand.
pub(crate) fn top_k_hinted(
    lists: &[&PostingList],
    k: usize,
    exact: impl FnMut(NodeId, usize, f64) -> f64,
) -> TopKResult {
    top_k_hinted_with(&mut TopKScratch::default(), lists, k, exact)
}

/// The hinted threshold kernel, evaluated through a caller-supplied
/// [`TopKScratch`]. Results — ranking and cost counters alike — are
/// identical whether the scratch is fresh or reused; reuse only removes
/// the per-query state initialization.
pub(crate) fn top_k_hinted_with(
    scratch: &mut TopKScratch,
    lists: &[&PostingList],
    k: usize,
    mut exact: impl FnMut(NodeId, usize, f64) -> f64,
) -> TopKResult {
    let mut result = TopKResult::default();
    if k == 0 || lists.is_empty() {
        return result;
    }
    let TopKScratch { seen, best, .. } = scratch;
    seen.reset();
    // When the lists hold fewer than k entries altogether, no candidate can
    // ever be evicted and the threshold stop cannot fire before exhaustion
    // (the buffer never fills); the bounded-buffer and threshold machinery
    // would be pure overhead. Scan the lists directly — counters come out
    // identical, every entry is sorted-accessed and every distinct item
    // scored, exactly as the round-robin would.
    let total: usize = lists.iter().map(|l| l.len()).sum();
    if total < k {
        let mut scored: Vec<(NodeId, f64)> = Vec::with_capacity(total);
        for (li, list) in lists.iter().enumerate() {
            for post in list.iter() {
                result.sorted_accesses += 1;
                if seen.insert(post.item) {
                    let score = exact(post.item, li, post.score);
                    result.exact_computations += 1;
                    scored.push((post.item, score));
                }
            }
        }
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        return TopKResult { ranked: scored, ..result }.reindexed();
    }
    // One cursor per list: a sequential scan of the list (layout-neutral —
    // a slice walk on raw lists, a streaming decode on compressed ones),
    // the one-ahead entry it will yield next, and that entry's score (this
    // list's contribution to the threshold). Queries rarely carry more than
    // a handful of keywords, so the cursors live on the stack unless the
    // query is unusually wide.
    struct Cursor<'a> {
        scan: PostingScan<'a>,
        next: Option<crate::posting::Posting>,
        frontier: f64,
    }
    const EMPTY_CURSOR: Cursor<'static> =
        Cursor { scan: PostingScan::empty(), next: None, frontier: 0.0 };
    const INLINE_CURSORS: usize = 8;
    let mut cursor_buf = [EMPTY_CURSOR; INLINE_CURSORS];
    let mut cursor_spill: Vec<Cursor<'_>> = Vec::new();
    let cursors: &mut [Cursor<'_>] = if lists.len() <= INLINE_CURSORS {
        &mut cursor_buf[..lists.len()]
    } else {
        cursor_spill.resize_with(lists.len(), || EMPTY_CURSOR);
        &mut cursor_spill
    };
    // Each list's frontier is the score of its next *unread* entry — the
    // tightest admissible bound on what this list can still contribute to a
    // never-seen item (anything unseen sits at or past that position; an
    // exhausted list contributes nothing). The seed used the last-*read*
    // score, a looser bound: this threshold is pointwise ≤ the seed's, so
    // the stop fires no later and the access counters never exceed it.
    for (cursor, list) in cursors.iter_mut().zip(lists) {
        cursor.scan = list.iter();
        cursor.next = cursor.scan.next();
        cursor.frontier = cursor.next.map(|p| p.score).unwrap_or(0.0);
    }
    let mut threshold: f64 = cursors.iter().map(|c| c.frontier).sum();
    best.reset(k);
    let mut sorted_accesses = 0usize;
    let mut exact_computations = 0usize;

    loop {
        let mut advanced = false;
        for (li, cur) in cursors.iter_mut().enumerate() {
            let Some(post) = cur.next else {
                threshold -= cur.frontier;
                cur.frontier = 0.0;
                continue;
            };
            cur.next = cur.scan.next();
            sorted_accesses += 1;
            let next = cur.next.map(|p| p.score).unwrap_or(0.0);
            threshold += next - cur.frontier;
            cur.frontier = next;
            advanced = true;
            if seen.insert(post.item) {
                let score = exact(post.item, li, post.score);
                exact_computations += 1;
                best.offer(k, Candidate { score, item: post.item });
            }
        }
        if best.len() >= k && best.weakest().is_some_and(|w| w.score >= threshold) {
            // Confirm against a freshly summed threshold before stopping,
            // so incremental floating-point drift can never cut a query
            // short.
            let fresh: f64 = cursors.iter().map(|c| c.frontier).sum();
            threshold = fresh;
            if best.weakest().is_some_and(|w| w.score >= fresh) {
                result.early_terminated = advanced;
                break;
            }
        }
        if !advanced {
            break;
        }
    }

    result.sorted_accesses = sorted_accesses;
    result.exact_computations = exact_computations;
    TopKResult { ranked: best.take_ranked(), ..result }.reindexed()
}

/// Exhaustive (no pruning) top-k used as a correctness oracle in tests and
/// as the naive baseline in benchmarks: scores every candidate item.
pub fn top_k_exhaustive(
    candidates: impl IntoIterator<Item = NodeId>,
    k: usize,
    mut exact: impl FnMut(NodeId) -> f64,
) -> TopKResult {
    let mut scored: Vec<(f64, NodeId)> = Vec::new();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    let mut exact_computations = 0usize;
    for item in candidates {
        if !seen.insert(item) {
            continue;
        }
        let s = exact(item);
        exact_computations += 1;
        scored.push((s, item));
    }
    scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let ranked = scored.into_iter().take(k).map(|(s, i)| (i, s)).collect();
    TopKResult { ranked, exact_computations, ..TopKResult::default() }.reindexed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(entries: &[(u64, f64)]) -> PostingList {
        PostingList::from_entries(entries.iter().map(|(i, s)| (NodeId(*i), *s)))
    }

    fn items_of(res: &TopKResult) -> Vec<NodeId> {
        res.items().collect()
    }

    #[test]
    fn finds_the_true_top_k_with_exact_lists() {
        // Two keyword lists; total score is the sum of the per-list scores.
        let l1 = list(&[(1, 3.0), (2, 2.0), (3, 1.0)]);
        let l2 = list(&[(2, 3.0), (4, 2.0), (1, 1.0)]);
        let exact = |i: NodeId| l1.score_of(i).unwrap_or(0.0) + l2.score_of(i).unwrap_or(0.0);
        let res = top_k(&[&l1, &l2], 2, exact);
        assert_eq!(items_of(&res), vec![NodeId(2), NodeId(1)]);
        assert_eq!(res.score_of(NodeId(2)), Some(5.0));
        assert_eq!(res.score_of(NodeId(1)), Some(4.0));
        assert_eq!(res.score_of(NodeId(7)), None);
    }

    #[test]
    fn early_termination_skips_tail_entries() {
        // A long tail of low-scoring items that should never be accessed.
        let mut head: Vec<(u64, f64)> = vec![(1, 10.0), (2, 9.0)];
        head.extend((10..200).map(|i| (i, 0.01)));
        let l1 = list(&head);
        let exact = |i: NodeId| l1.score_of(i).unwrap_or(0.0);
        let res = top_k(&[&l1], 2, exact);
        assert_eq!(items_of(&res), vec![NodeId(1), NodeId(2)]);
        assert!(res.early_terminated);
        assert!(res.sorted_accesses < 10, "accessed {}", res.sorted_accesses);
    }

    #[test]
    fn upper_bound_lists_never_miss_true_top_k() {
        // Stored scores are upper bounds of the exact scores.
        let bounds = list(&[(1, 5.0), (2, 5.0), (3, 5.0), (4, 1.0)]);
        // True scores differ from the bounds (but never exceed them).
        let exact = |i: NodeId| match i.raw() {
            1 => 1.0,
            2 => 4.0,
            3 => 2.0,
            4 => 1.0,
            _ => 0.0,
        };
        let res = top_k(&[&bounds], 2, exact);
        let oracle = top_k_exhaustive((1..=4).map(NodeId), 2, exact);
        assert_eq!(res.ranked, oracle.ranked);
    }

    #[test]
    fn handles_empty_lists_and_zero_k() {
        let empty = PostingList::new();
        let res = top_k(&[&empty], 3, |_| 1.0);
        assert!(res.ranked.is_empty());
        let res = top_k(&[], 3, |_| 1.0);
        assert!(res.ranked.is_empty());
        let l = list(&[(1, 1.0)]);
        let res = top_k(&[&l], 0, |_| 1.0);
        assert!(res.ranked.is_empty());
    }

    #[test]
    fn exhaustive_baseline_scores_every_candidate_once() {
        let res = top_k_exhaustive([1, 2, 3, 2, 1].into_iter().map(NodeId), 2, |i| i.raw() as f64);
        assert_eq!(res.exact_computations, 3);
        assert_eq!(items_of(&res), vec![NodeId(3), NodeId(2)]);
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let l = list(&[(5, 1.0), (3, 1.0), (9, 1.0)]);
        let res = top_k(&[&l], 2, |_| 1.0);
        assert_eq!(items_of(&res), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn score_of_falls_back_to_a_scan_on_hand_built_results() {
        let mut res = TopKResult::default();
        res.ranked.push((NodeId(4), 2.0));
        res.ranked.push((NodeId(1), 1.0));
        assert_eq!(res.score_of(NodeId(1)), Some(1.0));
        assert_eq!(res.score_of(NodeId(9)), None);
    }

    #[test]
    fn scratch_reuse_is_invisible_across_k_sizes() {
        // Enough entries to exercise both the inline buffer (k <= 24) and
        // the spill heap (k > 24), alternating so one scratch crosses the
        // boundary in both directions.
        let l1 = list(&(0..60).map(|i| (i, (60 - i) as f64)).collect::<Vec<_>>());
        let l2 = list(&(30..90).map(|i| (i, (90 - i) as f64)).collect::<Vec<_>>());
        let exact = |i: NodeId| l1.score_of(i).unwrap_or(0.0) + l2.score_of(i).unwrap_or(0.0);
        let mut scratch = TopKScratch::default();
        for &k in &[2usize, 30, 3, 40, 24, 25, 1] {
            let fresh = top_k(&[&l1, &l2], k, exact);
            let reused = top_k_with(&mut scratch, &[&l1, &l2], k, exact);
            assert_eq!(fresh, reused, "k = {k}");
        }
    }

    #[test]
    fn candidate_dedup_spills_to_a_hash_set() {
        let mut seen = Seen::new();
        for i in 0..(SEEN_SPILL as u64 * 2) {
            assert!(seen.insert(NodeId(i)));
            assert!(!seen.insert(NodeId(i)));
        }
        assert!(seen.spill.is_some());
        assert!(!seen.insert(NodeId(0)));
        assert!(seen.insert(NodeId(u64::MAX)));
    }
}
