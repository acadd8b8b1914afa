//! Posting lists: the building block of the §6.2 inverted indexes.
//!
//! A list stores the same `(item, score)` pairs in two access orders —
//! descending score for sorted access, ascending item for random access —
//! in one of two physical layouts selected by [`Layout`]:
//!
//! * [`Layout::Raw`] keeps both orders as plain vectors (the hot layout
//!   for small sites: zero decode cost, direct slices);
//! * [`Layout::Compressed`] varint-encodes both streams (`crate::varint`):
//!   the sorted-access stream as `varint(item), score` records consumed
//!   strictly sequentially by the top-k kernel, and the ascending-item
//!   companion as delta (gap) varints with a skip-pointer directory every
//!   `SKIP_EVERY` entries so [`PostingList::score_of`] stays
//!   O(log n + `SKIP_EVERY`).
//!
//! Both layouts answer every query identically; the compressed encoding is
//! canonical (a pure function of the logical entries), so incremental
//! maintenance re-encoding a touched list lands on exactly the bytes a
//! from-scratch rebuild would produce.

use crate::varint::{get_score, get_u64, put_score, put_u64};
use socialscope_graph::NodeId;

/// One entry of an inverted list: an item and its (exact or upper-bound)
/// score for the list's `(tag, user)` or `(tag, cluster)` key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The item.
    pub item: NodeId,
    /// The score stored for the item in this list.
    pub score: f64,
}

/// Size in bytes the paper assumes per index entry in its back-of-envelope
/// sizing (§6.2: "assuming 10 bytes per index entry").
pub const BYTES_PER_ENTRY: usize = 10;

/// Physical layout of the read-side index structures (posting lists, the
/// clustered bound-list pool, the refinement tagger arena).
///
/// Selected per index by the builders' `layout(..)` knob; when left unset
/// the builders choose by a size heuristic (small indexes stay [`Raw`],
/// production-scale ones compress — see
/// [`crate::index::COMPRESS_AUTO_MIN_ENTRIES`]). Query results, apply
/// semantics and cost counters are identical on both layouts; only the
/// bytes differ.
///
/// [`Raw`]: Layout::Raw
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Plain vectors: no decode cost, maximal memory.
    #[default]
    Raw,
    /// Varint delta-encoded streams with skip directories: a fraction of
    /// the bytes, sequential-decode sorted access, O(log n + block) random
    /// access.
    Compressed,
}

/// Skip-directory granularity of the compressed ascending-item companion:
/// one `(first item, byte offset)` pointer — and a fresh delta chain — per
/// this many entries, bounding a random access to a directory bisection
/// plus at most this many sequential decodes.
pub(crate) const SKIP_EVERY: usize = 32;

/// Below this length, [`find_score_by_item`] scans instead of bisecting:
/// a handful of contiguous pairs resolves faster linearly than through the
/// branchy binary-search loop.
pub(crate) const LINEAR_ACCESS_MAX: usize = 8;

/// Random-access lookup over `(item, score)` pairs held in ascending-item
/// order: O(log n) (with a linear fast path for tiny companions). Shared by
/// [`PostingList::score_of`] and [`crate::topk::TopKResult::score_of`] —
/// the random-access primitive threshold-style top-k relies on (paper
/// §6.2, ref \[16\]).
pub(crate) fn find_score_by_item(by_item: &[(NodeId, f64)], item: NodeId) -> Option<f64> {
    if by_item.len() <= LINEAR_ACCESS_MAX {
        // Branchless full scan: no data-dependent early exit to mispredict,
        // and the loop vectorizes.
        let mut score = 0.0;
        let mut hit = false;
        for &(i, s) in by_item {
            let eq = i == item;
            score += if eq { s } else { 0.0 };
            hit |= eq;
        }
        return hit.then_some(score);
    }
    by_item.binary_search_by_key(&item, |&(i, _)| i).ok().map(|pos| by_item[pos].1)
}

/// Build the ascending-item `(item, score)` companion of an entry sequence.
/// Duplicate items keep only their highest score — the entry a first-match
/// scan of the descending-score order would have returned.
pub(crate) fn build_item_companion(
    entries: impl Iterator<Item = (NodeId, f64)>,
) -> Vec<(NodeId, f64)> {
    let mut by_item: Vec<(NodeId, f64)> = entries.collect();
    by_item.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.total_cmp(&a.1)));
    by_item.dedup_by_key(|&mut (i, _)| i);
    by_item
}

/// The compressed physical form: both access orders as varint byte
/// streams, plus the companion's skip directory.
#[derive(Debug, Clone, Default)]
struct Packed {
    /// Entry count of the sorted-access stream.
    len: u32,
    /// Entry count of the ascending-item companion (≤ `len`: duplicate
    /// items are collapsed to their highest score).
    items: u32,
    /// Sorted-access stream: `varint(item), score` per entry, descending
    /// score order.
    entries: Vec<u8>,
    /// Ascending-item companion: blocks of `SKIP_EVERY` entries, each
    /// block an absolute `varint(item)` then gap varints, every item
    /// followed by its score.
    by_item: Vec<u8>,
    /// One `(first item, byte offset into `by_item`)` per block.
    skips: Vec<(NodeId, u32)>,
}

impl Packed {
    /// Canonically encode a list's two access orders.
    fn pack(entries: &[Posting], by_item: &[(NodeId, f64)]) -> Packed {
        let mut sorted = Vec::new();
        for p in entries {
            put_u64(&mut sorted, p.item.0);
            put_score(&mut sorted, p.score);
        }
        let mut companion = Vec::new();
        let mut skips = Vec::new();
        for (idx, &(item, score)) in by_item.iter().enumerate() {
            if idx % SKIP_EVERY == 0 {
                skips.push((item, companion.len() as u32));
                put_u64(&mut companion, item.0);
            } else {
                // Strictly ascending (the companion deduplicates items), so
                // the gap is ≥ 1 and never wraps.
                put_u64(&mut companion, item.0 - by_item[idx - 1].0 .0);
            }
            put_score(&mut companion, score);
        }
        Packed {
            len: entries.len() as u32,
            items: by_item.len() as u32,
            entries: sorted,
            by_item: companion,
            skips,
        }
    }

    /// Decode the sorted-access stream back to plain entries.
    fn unpack_entries(&self) -> Vec<Posting> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut pos = 0usize;
        for _ in 0..self.len {
            let item = NodeId(get_u64(&self.entries, &mut pos));
            let score = get_score(&self.entries, &mut pos);
            out.push(Posting { item, score });
        }
        out
    }

    /// Decode the ascending-item companion back to plain pairs.
    fn unpack_by_item(&self) -> Vec<(NodeId, f64)> {
        let mut out = Vec::with_capacity(self.items as usize);
        self.unpack_by_item_into(&mut out);
        out
    }

    /// Decode the ascending-item companion, appending to `out`.
    fn unpack_by_item_into(&self, out: &mut Vec<(NodeId, f64)>) {
        let mut pos = 0usize;
        let mut prev = 0u64;
        for idx in 0..self.items as usize {
            let raw = get_u64(&self.by_item, &mut pos);
            let item = if idx % SKIP_EVERY == 0 { raw } else { prev + raw };
            prev = item;
            let score = get_score(&self.by_item, &mut pos);
            out.push((NodeId(item), score));
        }
    }

    /// Random access: bisect the skip directory, then decode at most one
    /// block sequentially.
    fn score_of(&self, item: NodeId) -> Option<f64> {
        let block = self.skips.partition_point(|&(first, _)| first <= item);
        if block == 0 {
            return None;
        }
        let (_, offset) = self.skips[block - 1];
        let start = (block - 1) * SKIP_EVERY;
        let count = (self.items as usize - start).min(SKIP_EVERY);
        let mut pos = offset as usize;
        let mut prev = 0u64;
        for idx in 0..count {
            let raw = get_u64(&self.by_item, &mut pos);
            let current = if idx == 0 { raw } else { prev + raw };
            let score = get_score(&self.by_item, &mut pos);
            if current == item.0 {
                return Some(score);
            }
            if current > item.0 {
                return None;
            }
            prev = current;
        }
        None
    }
}

/// The raw (uncompressed) vectors behind a [`PostingList`].
#[derive(Debug, Clone, Default)]
struct RawList {
    /// Descending-score entries (sorted access).
    entries: Vec<Posting>,
    /// The entries re-sorted by ascending item id (random access).
    by_item: Vec<(NodeId, f64)>,
}

/// The physical representation behind a [`PostingList`].
///
/// Both populated variants are boxed so a list embedded in an index table
/// slot costs one pointer, not two inline vector headers — at production
/// scale the per-`(tag, user)` tables hold millions of mostly-short lists,
/// and the slot size is a first-order term of the index's footprint (it
/// also shrinks the stride of the row scans `find_tag` walks). The repr is
/// canonical: a list is `Empty` *iff* it has no entries (mutations that
/// drain a list normalize back to `Empty`), so the physical bytes stay a
/// pure function of logical content and requested [`Layout`], which the
/// maintained ≡ rebuilt byte-identity checks rely on.
#[derive(Debug, Clone)]
enum Repr {
    /// No entries (const-constructible — the state [`PostingList::new`]
    /// starts from, and what any emptied list returns to).
    Empty,
    /// Plain vectors in both access orders.
    Raw(Box<RawList>),
    /// Varint-encoded streams.
    Packed(Box<Packed>),
}

/// A posting list kept sorted by descending score, enabling sorted access
/// for top-k pruning (ref \[16\] of the paper), with a companion view of
/// the same `(item, score)` pairs in ascending-item order for O(log n)
/// *random* access by item — the other half of the threshold algorithm's
/// access model. The physical [`Layout`] (plain vectors or varint streams)
/// is invisible to every query: sorted access goes through the sequential
/// [`PostingScan`] cursor, random access through [`Self::score_of`].
///
/// Equality is *logical* — two lists are equal when their sorted-access
/// entry sequences are, regardless of layout.
#[derive(Debug, Clone)]
pub struct PostingList {
    repr: Repr,
}

impl Default for PostingList {
    fn default() -> Self {
        PostingList::new()
    }
}

impl PartialEq for PostingList {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// Insert into the raw representation, keeping both orders sorted: the
/// insertion point is binary-searched in the score-ordered entries and the
/// item-ordered companion — no re-sort.
fn raw_insert(entries: &mut Vec<Posting>, by_item: &mut Vec<(NodeId, f64)>, posting: Posting) {
    let pos = entries.partition_point(|p| PostingList::order(p, &posting).is_lt());
    entries.insert(pos, posting);
    // The companion holds one slot per item; re-inserting an item keeps
    // the highest score, mirroring what a first-match scan of the
    // descending-score entries would find.
    match by_item.binary_search_by_key(&posting.item, |&(i, _)| i) {
        Ok(found) => {
            if posting.score > by_item[found].1 {
                by_item[found].1 = posting.score;
            }
        }
        Err(gap) => by_item.insert(gap, (posting.item, posting.score)),
    }
}

/// Remove from the raw representation; see [`PostingList::remove`].
fn raw_remove(
    entries: &mut Vec<Posting>,
    by_item: &mut Vec<(NodeId, f64)>,
    item: NodeId,
) -> Option<f64> {
    let slot = by_item.binary_search_by_key(&item, |&(i, _)| i).ok()?;
    let (_, score) = by_item.remove(slot);
    let probe = Posting { item, score };
    // lint: allow(no_panic, reason = "true invariant: by_item and entries are dual views of the same postings, so the companion entry exists")
    let pos = entries
        .binary_search_by(|p| PostingList::order(p, &probe))
        .expect("companion entry exists in the sorted entries");
    entries.remove(pos);
    Some(score)
}

impl PostingList {
    /// An empty list (const, so it can back statics and stack buffers).
    pub const fn new() -> Self {
        PostingList { repr: Repr::Empty }
    }

    /// Build a list from unsorted `(item, score)` pairs (raw layout; use
    /// [`Self::set_layout`] to compress).
    pub fn from_entries<I: IntoIterator<Item = (NodeId, f64)>>(entries: I) -> Self {
        let mut entries: Vec<Posting> =
            entries.into_iter().map(|(item, score)| Posting { item, score }).collect();
        if entries.is_empty() {
            return PostingList::new();
        }
        entries.sort_unstable_by(Self::order);
        let by_item = build_item_companion(entries.iter().map(|p| (p.item, p.score)));
        PostingList { repr: Repr::Raw(Box::new(RawList { entries, by_item })) }
    }

    /// The sorted-access order: descending score, ties by ascending item id
    /// for determinism.
    fn order(a: &Posting, b: &Posting) -> std::cmp::Ordering {
        b.score.total_cmp(&a.score).then_with(|| a.item.cmp(&b.item))
    }

    /// The list's current physical layout. An empty list reports
    /// [`Layout::Raw`]: there is nothing to compress, and indexes prune
    /// emptied lists from their tables, so the case never reaches a query.
    pub fn layout(&self) -> Layout {
        match &self.repr {
            Repr::Empty | Repr::Raw(_) => Layout::Raw,
            Repr::Packed(_) => Layout::Compressed,
        }
    }

    /// Convert the list to `layout` in place (no-op when already there,
    /// and on an empty list — `Empty` *is* the canonical empty form of
    /// both layouts). Conversion is lossless and canonical: compressing,
    /// mutating and re-compressing lands on the same bytes as compressing
    /// the final state from scratch.
    pub fn set_layout(&mut self, layout: Layout) {
        match (&self.repr, layout) {
            (Repr::Raw(_), Layout::Compressed) => {
                let taken = std::mem::replace(&mut self.repr, Repr::Empty);
                if let Repr::Raw(raw) = taken {
                    self.repr = Repr::Packed(Box::new(Packed::pack(&raw.entries, &raw.by_item)));
                }
            }
            (Repr::Packed(_), Layout::Raw) => {
                let taken = std::mem::replace(&mut self.repr, Repr::Empty);
                if let Repr::Packed(packed) = taken {
                    self.repr = Repr::Raw(Box::new(RawList {
                        entries: packed.unpack_entries(),
                        by_item: packed.unpack_by_item(),
                    }));
                }
            }
            _ => {}
        }
    }

    /// Insert an entry, keeping the list sorted. On the raw layout both
    /// orders are patched by binary search; on the compressed layout the
    /// list is the touched run — it is decoded, patched and canonically
    /// re-encoded.
    pub fn insert(&mut self, item: NodeId, score: f64) {
        let posting = Posting { item, score };
        match &mut self.repr {
            Repr::Empty => {
                self.repr = Repr::Raw(Box::new(RawList {
                    entries: vec![posting],
                    by_item: vec![(item, score)],
                }));
            }
            Repr::Raw(raw) => raw_insert(&mut raw.entries, &mut raw.by_item, posting),
            Repr::Packed(_) => {
                self.set_layout(Layout::Raw);
                if let Repr::Raw(raw) = &mut self.repr {
                    raw_insert(&mut raw.entries, &mut raw.by_item, posting);
                }
                self.set_layout(Layout::Compressed);
            }
        }
    }

    /// Remove an item's entry, keeping the list sorted, and return the
    /// removed score. Lists built by the indexes hold each item at most
    /// once (the only callers of this method); on a hand-built list with
    /// duplicate items, the entry whose score the companion answers with
    /// (the highest) is the one removed. Compressed lists re-encode, as in
    /// [`Self::insert`].
    pub fn remove(&mut self, item: NodeId) -> Option<f64> {
        match &mut self.repr {
            Repr::Empty => None,
            Repr::Raw(raw) => {
                let removed = raw_remove(&mut raw.entries, &mut raw.by_item, item);
                if raw.entries.is_empty() {
                    self.repr = Repr::Empty;
                }
                removed
            }
            Repr::Packed(_) => {
                self.set_layout(Layout::Raw);
                let removed = match &mut self.repr {
                    Repr::Raw(raw) => {
                        let removed = raw_remove(&mut raw.entries, &mut raw.by_item, item);
                        if raw.entries.is_empty() {
                            self.repr = Repr::Empty;
                        }
                        removed
                    }
                    _ => None,
                };
                self.set_layout(Layout::Compressed);
                removed
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::Raw(raw) => raw.entries.len(),
            Repr::Packed(packed) => packed.len as usize,
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate entries in descending score order (sorted access). On the
    /// raw layout this walks the slice; on the compressed layout it decodes
    /// the stream sequentially — same entries, same order, either way.
    pub fn iter(&self) -> PostingScan<'_> {
        match &self.repr {
            Repr::Empty => PostingScan::empty(),
            Repr::Raw(raw) => {
                PostingScan { repr: ScanRepr::Slice { entries: &raw.entries, pos: 0 } }
            }
            Repr::Packed(packed) => PostingScan {
                repr: ScanRepr::Packed { bytes: &packed.entries, pos: 0, remaining: packed.len },
            },
        }
    }

    /// The entry at a sorted-access position. O(1) on the raw layout,
    /// O(pos) on the compressed one — every hot path scans sequentially via
    /// [`Self::iter`] instead.
    pub fn get(&self, pos: usize) -> Option<Posting> {
        match &self.repr {
            Repr::Empty => None,
            Repr::Raw(raw) => raw.entries.get(pos).copied(),
            Repr::Packed(_) => self.iter().nth(pos),
        }
    }

    /// The stored score of an item (random access): O(log n) via the
    /// item-ordered companion on the raw layout, a skip-directory bisection
    /// plus at most one block decode on the compressed one. If an item was
    /// inserted more than once, the highest of its scores is returned (the
    /// entry sorted access meets first).
    pub fn score_of(&self, item: NodeId) -> Option<f64> {
        match &self.repr {
            Repr::Empty => None,
            Repr::Raw(raw) => find_score_by_item(&raw.by_item, item),
            Repr::Packed(packed) => packed.score_of(item),
        }
    }

    /// Estimated size in bytes under the paper's 10-bytes-per-entry model.
    pub fn size_bytes(&self) -> usize {
        self.len() * BYTES_PER_ENTRY
    }

    /// Actual heap bytes of this list as `(sorted-access stream, random-
    /// access companion)` — the real memory-footprint counters behind
    /// [`crate::index::MemoryProfile`]. Deterministic: computed from
    /// lengths (and encoded byte counts), never from vector capacities, so
    /// maintained and rebuilt indexes report identical footprints.
    pub fn heap_bytes(&self) -> (usize, usize) {
        match &self.repr {
            Repr::Empty => (0, 0),
            Repr::Raw(raw) => (
                raw.entries.len() * std::mem::size_of::<Posting>(),
                raw.by_item.len() * std::mem::size_of::<(NodeId, f64)>(),
            ),
            Repr::Packed(packed) => (
                packed.entries.len(),
                packed.by_item.len() + packed.skips.len() * std::mem::size_of::<(NodeId, u32)>(),
            ),
        }
    }
}

impl FromIterator<(NodeId, f64)> for PostingList {
    fn from_iter<I: IntoIterator<Item = (NodeId, f64)>>(iter: I) -> Self {
        Self::from_entries(iter)
    }
}

/// A sequential sorted-access cursor over a [`PostingList`], yielding
/// entries by value in descending score order. The layout-neutral access
/// path of the top-k kernel and the merge scans: a slice walk on the raw
/// layout, a streaming varint decode on the compressed one.
#[derive(Debug, Clone)]
pub struct PostingScan<'a> {
    repr: ScanRepr<'a>,
}

#[derive(Debug, Clone)]
enum ScanRepr<'a> {
    Slice { entries: &'a [Posting], pos: usize },
    Packed { bytes: &'a [u8], pos: usize, remaining: u32 },
}

impl PostingScan<'_> {
    /// An exhausted cursor (const, so cursor arrays can be
    /// stack-initialized).
    pub(crate) const fn empty() -> PostingScan<'static> {
        PostingScan { repr: ScanRepr::Slice { entries: &[], pos: 0 } }
    }

    /// Entries not yet yielded.
    pub fn remaining(&self) -> usize {
        match &self.repr {
            ScanRepr::Slice { entries, pos } => entries.len() - pos,
            ScanRepr::Packed { remaining, .. } => *remaining as usize,
        }
    }
}

impl Iterator for PostingScan<'_> {
    type Item = Posting;

    #[inline]
    fn next(&mut self) -> Option<Posting> {
        match &mut self.repr {
            ScanRepr::Slice { entries, pos } => {
                let posting = entries.get(*pos).copied();
                if posting.is_some() {
                    *pos += 1;
                }
                posting
            }
            ScanRepr::Packed { bytes, pos, remaining } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let item = NodeId(get_u64(bytes, pos));
                let score = get_score(bytes, pos);
                Some(Posting { item, score })
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PostingScan<'_> {}

/// Companions longer than this stay on the skip-directory `score_of` path
/// instead of being materialized into an [`UnpackedViews`] arena: the
/// threshold algorithm usually stops long before it would probe enough
/// distinct candidates to amortize a full decode of a big list.
pub(crate) const UNPACK_PROBE_MAX: usize = 64;

/// Per-query scratch of decoded compressed companions. The threshold
/// algorithm random-accesses every list other than the discovering one
/// *once per distinct candidate*, so probing a compressed list through its
/// byte stream re-decodes the same varints candidate after candidate;
/// materializing each short companion once up front turns every subsequent
/// probe into the same binary search the raw layout does. The arena is
/// flat and reused across the queries of a batch — zero steady-state
/// allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnpackedViews {
    /// Decoded `(item, score)` pairs, ascending per span.
    flat: Vec<(NodeId, f64)>,
    /// One `(start, end)` span into `flat` per list; `start == u32::MAX`
    /// marks a list left on its own random-access path.
    spans: Vec<(u32, u32)>,
}

impl UnpackedViews {
    /// Rebuild the views for one query's gathered lists, decoding every
    /// compressed companion of at most [`UNPACK_PROBE_MAX`] entries.
    pub(crate) fn fill(&mut self, lists: &[&PostingList]) {
        self.flat.clear();
        self.spans.clear();
        for list in lists {
            match &list.repr {
                Repr::Packed(packed) if (packed.items as usize) <= UNPACK_PROBE_MAX => {
                    let start = self.flat.len() as u32;
                    packed.unpack_by_item_into(&mut self.flat);
                    self.spans.push((start, self.flat.len() as u32));
                }
                _ => self.spans.push((u32::MAX, u32::MAX)),
            }
        }
    }

    /// The decoded companion of list `li`, when one was materialized. The
    /// decoded pairs are bit-identical to what `score_of` would return, so
    /// probing either path yields the same scores.
    #[inline]
    pub(crate) fn view(&self, li: usize) -> Option<&[(NodeId, f64)]> {
        let (start, end) = *self.spans.get(li)?;
        if start == u32::MAX {
            return None;
        }
        Some(&self.flat[start as usize..end as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_slot_costs_one_pointer_plus_a_tag() {
        // Both populated variants are boxed precisely so the millions of
        // list slots the index tables hold stay two words each; an inline
        // variant regrowing past that silently re-inflates every table.
        assert!(std::mem::size_of::<PostingList>() <= 16);
        // Draining a list normalizes back to the canonical `Empty`, so
        // repr bytes stay a pure function of logical content.
        let mut list = PostingList::from_entries([(NodeId(4), 1.5)]);
        list.set_layout(Layout::Compressed);
        assert_eq!(list.remove(NodeId(4)), Some(1.5));
        assert_eq!(format!("{list:?}"), format!("{:?}", PostingList::new()));
        assert_eq!(list.layout(), Layout::Raw);
        assert_eq!(list.heap_bytes(), (0, 0));
    }

    #[test]
    fn lists_stay_sorted_by_descending_score() {
        let list =
            PostingList::from_entries([(NodeId(1), 0.2), (NodeId(2), 0.9), (NodeId(3), 0.5)]);
        let scores: Vec<f64> = list.iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.2]);
        assert_eq!(list.get(0).unwrap().item, NodeId(2));
    }

    #[test]
    fn ties_break_by_item_id_for_determinism() {
        let list = PostingList::from_entries([(NodeId(9), 1.0), (NodeId(3), 1.0)]);
        assert_eq!(list.get(0).unwrap().item, NodeId(3));
    }

    #[test]
    fn insert_keeps_order() {
        let mut list = PostingList::new();
        list.insert(NodeId(1), 0.1);
        list.insert(NodeId(2), 0.7);
        list.insert(NodeId(3), 0.4);
        assert_eq!(list.get(0).unwrap().item, NodeId(2));
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn insert_matches_from_entries_exactly() {
        let pairs = [
            (NodeId(5), 0.4),
            (NodeId(1), 0.9),
            (NodeId(7), 0.4),
            (NodeId(2), 0.4),
            (NodeId(9), 0.1),
        ];
        let built = PostingList::from_entries(pairs);
        let mut grown = PostingList::new();
        for (item, score) in pairs {
            grown.insert(item, score);
        }
        assert_eq!(built, grown);
        for (item, _) in pairs {
            assert_eq!(built.score_of(item), grown.score_of(item));
        }
    }

    #[test]
    fn random_access_and_size() {
        let list = PostingList::from_entries([(NodeId(1), 0.3), (NodeId(2), 0.6)]);
        assert_eq!(list.score_of(NodeId(1)), Some(0.3));
        assert_eq!(list.score_of(NodeId(5)), None);
        assert_eq!(list.size_bytes(), 2 * BYTES_PER_ENTRY);
    }

    #[test]
    fn duplicate_items_answer_with_their_highest_score() {
        let mut list = PostingList::from_entries([(NodeId(1), 2.0), (NodeId(2), 0.5)]);
        list.insert(NodeId(1), 3.0);
        list.insert(NodeId(1), 1.0);
        // Sorted access still sees every entry; random access answers with
        // the strongest, exactly as a scan of the entries would.
        assert_eq!(list.len(), 4);
        assert_eq!(list.score_of(NodeId(1)), Some(3.0));
        let dup = PostingList::from_entries([(NodeId(7), 1.0), (NodeId(7), 4.0)]);
        assert_eq!(dup.score_of(NodeId(7)), Some(4.0));
    }

    #[test]
    fn remove_undoes_insert_exactly() {
        let pairs = [(NodeId(5), 0.4), (NodeId(1), 0.9), (NodeId(7), 0.4), (NodeId(2), 0.4)];
        let baseline = PostingList::from_entries(pairs);
        let mut list = baseline.clone();
        list.insert(NodeId(3), 0.6);
        assert_eq!(list.remove(NodeId(3)), Some(0.6));
        assert_eq!(list, baseline);
        // Removing an absent item is a no-op.
        assert_eq!(list.remove(NodeId(3)), None);
        assert_eq!(list, baseline);
        // Removing every item empties the list.
        for (item, score) in pairs {
            assert_eq!(list.remove(item), Some(score));
        }
        assert!(list.is_empty());
        assert_eq!(list, PostingList::new());
    }

    #[test]
    fn random_access_finds_every_item_in_a_long_list() {
        let list = PostingList::from_entries((0..200).map(|i| (NodeId(i * 3), (i % 17) as f64)));
        for i in 0..200u64 {
            assert_eq!(list.score_of(NodeId(i * 3)), Some((i % 17) as f64), "item {i}");
            assert_eq!(list.score_of(NodeId(i * 3 + 1)), None);
        }
    }

    /// A layout round-trip is lossless: every access path answers
    /// identically on raw, compressed, and back.
    #[test]
    fn compressed_layout_round_trips_every_access_path() {
        let raw = PostingList::from_entries(
            (0..300u64).map(|i| (NodeId(i * 7 + (i % 3)), ((i * 13) % 23) as f64)),
        );
        let mut packed = raw.clone();
        packed.set_layout(Layout::Compressed);
        assert_eq!(packed.layout(), Layout::Compressed);
        assert_eq!(packed.len(), raw.len());
        assert_eq!(packed, raw, "logical equality is layout-blind");
        assert!(packed.iter().eq(raw.iter()), "sorted access diverged");
        for i in 0..2200u64 {
            assert_eq!(packed.score_of(NodeId(i)), raw.score_of(NodeId(i)), "item {i}");
        }
        assert_eq!(packed.get(0), raw.get(0));
        assert_eq!(packed.get(150), raw.get(150));
        let mut back = packed.clone();
        back.set_layout(Layout::Raw);
        assert_eq!(back.layout(), Layout::Raw);
        assert_eq!(back, raw);
    }

    /// Non-integral and adversarial scores survive compression bit-exactly.
    #[test]
    fn compressed_layout_is_lossless_for_arbitrary_scores() {
        let pairs = [
            (NodeId(1), 0.5),
            (NodeId(2), -3.25),
            (NodeId(3), 1e300),
            (NodeId(4), f64::MIN_POSITIVE),
            (NodeId(5), 7.0),
        ];
        let raw = PostingList::from_entries(pairs);
        let mut packed = raw.clone();
        packed.set_layout(Layout::Compressed);
        for (item, score) in pairs {
            assert_eq!(packed.score_of(item).map(f64::to_bits), Some(score.to_bits()));
        }
        assert!(packed.iter().map(|p| p.score.to_bits()).eq(raw.iter().map(|p| p.score.to_bits())));
    }

    /// Compression actually compresses: dense integral-count lists shrink
    /// severalfold against the raw vectors.
    #[test]
    fn compressed_layout_shrinks_dense_count_lists() {
        let raw = PostingList::from_entries((0..1000u64).map(|i| (NodeId(i), (i % 5 + 1) as f64)));
        let (raw_sorted, raw_companion) = raw.heap_bytes();
        let mut packed = raw.clone();
        packed.set_layout(Layout::Compressed);
        let (packed_sorted, packed_companion) = packed.heap_bytes();
        assert!(
            packed_sorted * 3 < raw_sorted,
            "sorted stream {packed_sorted} vs raw {raw_sorted}"
        );
        assert!(
            packed_companion * 3 < raw_companion,
            "companion {packed_companion} vs raw {raw_companion}"
        );
    }

    /// Mutating a compressed list re-encodes canonically: the bytes match a
    /// list compressed from the final state from scratch.
    #[test]
    fn compressed_mutation_is_canonical() {
        let pairs: Vec<(NodeId, f64)> =
            (0..120u64).map(|i| (NodeId(i * 2), (i % 9) as f64)).collect();
        let mut maintained = PostingList::from_entries(pairs.iter().copied());
        maintained.set_layout(Layout::Compressed);
        maintained.insert(NodeId(7), 4.0);
        maintained.remove(NodeId(100));
        maintained.insert(NodeId(555), 2.0);

        let mut from_scratch: Vec<(NodeId, f64)> =
            pairs.iter().copied().filter(|&(i, _)| i != NodeId(100)).collect();
        from_scratch.push((NodeId(7), 4.0));
        from_scratch.push((NodeId(555), 2.0));
        let mut rebuilt = PostingList::from_entries(from_scratch);
        rebuilt.set_layout(Layout::Compressed);

        assert_eq!(maintained, rebuilt);
        assert_eq!(maintained.heap_bytes(), rebuilt.heap_bytes(), "encodings diverged");
    }

    /// Empty and single-entry lists survive the layout knob.
    #[test]
    fn compressed_layout_handles_degenerate_lists() {
        let mut empty = PostingList::new();
        empty.set_layout(Layout::Compressed);
        assert!(empty.is_empty());
        assert_eq!(empty.score_of(NodeId(0)), None);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty, PostingList::new());

        let mut single = PostingList::from_entries([(NodeId(9), 3.0)]);
        single.set_layout(Layout::Compressed);
        assert_eq!(single.score_of(NodeId(9)), Some(3.0));
        assert_eq!(single.score_of(NodeId(8)), None);
        assert_eq!(single.iter().next(), Some(Posting { item: NodeId(9), score: 3.0 }));

        // An empty list is its own canonical form: it does not remember a
        // requested layout (there are no bytes to lay out), so growth from
        // empty lands on the raw layout and the owner re-compresses — the
        // index apply paths do exactly that via `set_layout(self.layout)`.
        let mut grown = PostingList::new();
        grown.set_layout(Layout::Compressed);
        grown.insert(NodeId(1), 1.0);
        assert_eq!(grown.layout(), Layout::Raw);
        grown.set_layout(Layout::Compressed);
        assert_eq!(grown.layout(), Layout::Compressed);
        assert_eq!(grown.score_of(NodeId(1)), Some(1.0));
    }
}
