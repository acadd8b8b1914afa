//! Inverted indexes for network-aware search (paper §6.2).
//!
//! * [`ExactIndex`] — one inverted list per `(tag, user)` pair holding exact
//!   scores `score_k(i, u)`. Fast at query time, enormous in space: the
//!   paper's back-of-envelope for a moderate site is ≈ 1 TB.
//! * [`ClusteredIndex`] — one list per `(tag, cluster)` holding score
//!   *upper bounds* over the cluster's members (Eq. 1). Much smaller, but
//!   exact scores must be recomputed at query time for the candidates the
//!   bounds surface. Recomputation goes through an embedded keyword-first
//!   [`RefinementIndex`] (`tag → item → taggers` on interned [`TagId`]s):
//!   each query pre-resolves its tags once — once per *batch* in the batch
//!   path — and every candidate then costs one integer-keyed probe plus one
//!   sorted merge intersection per tag, with no string hashing and no
//!   per-candidate allocation.
//!
//! Both intern tags through a [`TagInterner`] and key their lists on
//! `(TagId, …)`, so building clones each distinct tag once and lookups
//! hash two integers instead of a string (and allocate nothing — the
//! `to_lowercase()` normalization happens at intern time).
//!
//! Both expose the same query interface returning a
//! [`crate::topk::TopKResult`] with cost counters, which is what experiment
//! E5 sweeps across clustering strategies and thresholds θ.
//!
//! Builds and batch serving run on the execution layer
//! ([`socialscope_exec::Exec`]): `build` shards the site's tag-assignment
//! groups across scoped-thread workers and merges the partial accumulators
//! **in shard order**, so a parallel build is indistinguishable from a
//! sequential one (index stats, every list, every query answer — a
//! proptested invariant), and `query_batch` splits a batch by slot range
//! (exact) / cluster group (clustered) with one scratch arena per worker,
//! preserving the element-wise-identical-to-single-queries guarantee
//! verbatim. `Exec::sequential()` (or a computed shard count of 1) runs the
//! exact single-threaded code paths.

use crate::cluster::{ClusterId, PlannedJoins, UserClustering};
use crate::deadline::{Deadline, DEADLINE_CHECK_STRIDE};
use crate::events::TagEvent;
use crate::inline::InlineVec;
use crate::posting::{find_score_by_item, Layout, PostingList, BYTES_PER_ENTRY};
use crate::refinement::{RefinementIndex, RefinementSplice, ResolvedRefinement};
use crate::sitemodel::{count_intersection, SiteModel, SiteView};
use crate::tags::{PlannedTags, QueryTags, TagId, TagInterner};
use crate::topk::{top_k_hinted_with, top_k_with, TopKResult, TopKScratch};
use serde::{Deserialize, Serialize};
use socialscope_exec::Exec;
use socialscope_graph::{FxBuildHasher, FxHashMap, NodeId};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Space statistics of an index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Number of inverted lists.
    pub lists: usize,
    /// Total number of entries across all lists.
    pub entries: usize,
    /// Estimated size in bytes (10 bytes per entry, as in the paper).
    pub bytes: usize,
    /// *Measured* heap bytes of every component behind those entries —
    /// posting lists in both access orders, the refinement arena and its
    /// span maps, the slot tables — under the current [`Layout`]. Unlike
    /// the paper-model `bytes`, this is what the process actually holds;
    /// it is computed from lengths and encoded byte counts (never vector
    /// capacities), so delta-maintained and rebuilt indexes report
    /// identical footprints.
    pub heap_bytes: usize,
}

/// Real heap footprint of an index, broken down by component — the
/// counters behind E14's bytes/user reporting and the server's `/stats`
/// memory block. All length-based (see [`IndexStats::heap_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// The exact index's per-`(tag, user)` posting lists, both access
    /// orders (zero for a clustered index).
    pub postings_bytes: usize,
    /// The clustered index's dense bound-list pool, both access orders
    /// (zero for an exact index).
    pub pool_bytes: usize,
    /// The refinement tagger arena plus its per-tag span maps (zero for an
    /// exact index, which carries no refinement arena).
    pub refinement_bytes: usize,
    /// The slot/key tables: user → slot, `(tag, cluster)` → slot, and the
    /// row/pool vectors' own element storage.
    pub tables_bytes: usize,
}

impl MemoryProfile {
    /// Total heap bytes across all components.
    pub fn total(&self) -> usize {
        self.postings_bytes + self.pool_bytes + self.refinement_bytes + self.tables_bytes
    }
}

/// Entry count at or above which the builders' automatic layout choice
/// compresses ([`Layout::Compressed`]): small sites stay raw — decode cost
/// without memory pressure buys nothing — while production-scale indexes
/// compress. Either choice answers every query identically; override it
/// with the builders' `layout(..)` knob.
pub const COMPRESS_AUTO_MIN_ENTRIES: usize = 1 << 18;

/// The automatic layout choice for an index holding `entries` entries.
fn auto_layout(entries: usize) -> Layout {
    if entries >= COMPRESS_AUTO_MIN_ENTRIES {
        Layout::Compressed
    } else {
        Layout::Raw
    }
}

/// Per-slot overhead modeled for a hash table: key + value plus one control
/// byte, times *len* (never capacity — insertion history must not leak
/// into the reported footprint).
fn table_bytes<K, V>(len: usize) -> usize {
    len * (std::mem::size_of::<(K, V)>() + 1)
}

/// What one [`TagEvent`] batch application changed, returned by
/// [`ExactIndex::apply`] and [`ClusteredIndex::apply`]. An all-zero report
/// ([`Self::is_noop`]) means the batch was entirely redundant — duplicate
/// assigns, retracts of absent assignments — and the index (including the
/// clustered index's build stamp) is untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplyReport {
    /// Posting/bound-list entries inserted, updated or removed.
    pub changed_entries: usize,
    /// Refinement `(tag, item)` tagger groups replaced, added or dropped
    /// (always 0 for [`ExactIndex`], which carries no refinement arena).
    pub changed_groups: usize,
    /// Late joiners assigned to clusters by recluster-on-join (always 0
    /// for [`ExactIndex`]).
    pub cluster_joins: usize,
}

impl ApplyReport {
    /// Whether the batch changed nothing at all.
    pub fn is_noop(&self) -> bool {
        self.changed_entries == 0 && self.changed_groups == 0 && self.cluster_joins == 0
    }
}

/// Minimum tag-assignment groups per build shard: below this, accumulating
/// a group costs less than spawning a worker for it, so small sites build
/// on the caller's thread no matter the pool size.
const BUILD_MIN_GROUPS_PER_SHARD: usize = 32;

/// Minimum affected-score recomputations per delta-application shard:
/// each unit is one sorted-merge intersection (or one per cluster member),
/// so small batches recompute on the caller's thread.
const APPLY_MIN_UNITS_PER_SHARD: usize = 64;

/// Minimum batch members per serving shard: a member's evaluation is
/// microseconds of work, so a batch fans out only when every worker gets
/// enough members to amortize its spawn; smaller batches take the
/// sequential path (which is also the exact code the parallel workers run
/// per shard, so results are identical either way).
const SHARD_MIN_USERS: usize = 64;

/// Monotonic build identity: every built [`ClusteredIndex`] gets a fresh
/// non-zero stamp, which the cross-batch gather caches key on so a scratch
/// arena reused against a *different* index can never serve stale spans
/// (0 is reserved for default-constructed indexes, which never cache).
fn next_build_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Stack buffer for the per-keyword lists of one query: queries rarely carry
/// more than a handful of keywords, so gathering their lists should not
/// touch the heap.
const INLINE_KEYWORDS: usize = 8;

/// Lists at most this long answer random accesses by scanning their (cache-
/// warm) sorted entries; longer ones bisect the item-ordered companion.
const SCAN_ENTRIES_MAX: usize = 16;

/// Find a tag's list in a user's tag-sorted vector. Users rarely hold more
/// than a handful of tags, so a linear scan wins over bisection.
fn find_tag(by_tag: &[(TagId, PostingList)], tag: TagId) -> Option<&PostingList> {
    by_tag.iter().find(|(t, _)| *t == tag).map(|(_, l)| l)
}
static EMPTY_LIST: PostingList = PostingList::new();

/// The per-keyword posting lists of one query, inline for the usual small
/// keyword counts.
struct QueryLists<'a> {
    lists: InlineVec<&'a PostingList, INLINE_KEYWORDS>,
}

impl<'a> QueryLists<'a> {
    fn gather(found: impl Iterator<Item = &'a PostingList>) -> Self {
        let mut lists = QueryLists { lists: InlineVec::new(&EMPTY_LIST) };
        for list in found {
            lists.lists.push(list);
        }
        lists
    }

    fn as_slice(&self) -> &[&'a PostingList] {
        self.lists.as_slice()
    }
}

/// Accumulate the per-user exact scores of one `(item, tag)` assignment
/// group into `per_user` (cleared first): every user whose network contains
/// a tagger gains +1 per such tagger.
fn accumulate_per_user(
    site: &SiteModel,
    taggers: &[NodeId],
    per_user: &mut FxHashMap<NodeId, f64>,
) {
    per_user.clear();
    for &tagger in taggers {
        for &user in site.network_of(tagger) {
            *per_user.entry(user).or_default() += 1.0;
        }
    }
}

/// The tag-sorted posting lists of one user (the exact index's per-user
/// row).
type UserLists = Vec<(TagId, PostingList)>;

/// Reusable scratch arena for batch query evaluation: the slot-resolution
/// buffer that orders a batch by index layout, plus the top-k evaluation
/// state (candidate heap + seen set) threaded through every query of the
/// batch. One arena serves any number of `query_batch_with` calls — a
/// serving thread keeps one per worker and pays the setup allocations
/// once, not once per query.
#[derive(Default)]
pub struct BatchScratch {
    /// `(layout key, original batch position)` pairs, sorted so the batch
    /// walks the index in storage order.
    order: Vec<(u32, u32)>,
    /// Shared threshold-evaluation state.
    topk: TopKScratch,
    /// Cluster-span buffer for the clustered engine's per-user report.
    spans: Vec<ClusterId>,
    /// Cross-batch cache of gathered per-cluster bound-list spans (see
    /// [`GatherCache`]).
    gather: GatherCache,
}

/// Cross-batch cache of the clustered engine's per-cluster list gathers.
///
/// Gathering a cluster group's bound lists costs one hash probe per
/// `(tag, cluster)` pair; with refinement per-candidate cost gone, that
/// gather constant is what keeps clustered batch rows near 1×. Batches of a
/// serving loop frequently share a keyword set (hot queries), so the
/// scratch remembers, per cluster, the pool slots of its bound lists for
/// the *current* resolved keyword set: a later batch (or a later group of
/// the same batch) resolving to the same tags re-gathers each cluster with
/// one probe total instead of one per tag. The cache is keyed on the
/// index's build stamp plus the resolved [`TagId`] sequence and cleared
/// whenever either changes, so reusing one scratch across keyword sets —
/// or across *indexes* — stays exactly as correct as no cache at all.
#[derive(Default)]
struct GatherCache {
    /// Build stamp of the index the cached slots point into (0 = empty).
    stamp: u64,
    /// The resolved tag ids the slots were gathered for.
    tags: Vec<TagId>,
    /// `cluster → pool slots` of the cluster's present bound lists, in
    /// resolved-tag order.
    spans: FxHashMap<ClusterId, Vec<u32>>,
}

/// Per-worker scratch arenas for the parallel batch paths: worker `w` owns
/// slot `w` exclusively for the duration of a batch, and the slots persist
/// across batches — a serving loop pays each worker's arena allocations
/// once, exactly as [`BatchScratch`] promises for the sequential path. The
/// slot-0 arena doubles as the sequential scratch when a batch is too small
/// to fan out.
#[derive(Default)]
pub struct BatchScratchPool {
    /// The slot-resolution buffer shared by the whole batch (built before
    /// workers fan out, read-only while they run).
    order: Vec<(u32, u32)>,
    /// One evaluation arena per worker.
    workers: Vec<BatchScratch>,
}

impl BatchScratchPool {
    /// The slot-0 arena (grown on first use) — the sequential fallback.
    fn worker(&mut self) -> &mut BatchScratch {
        if self.workers.is_empty() {
            self.workers.push(BatchScratch::default());
        }
        &mut self.workers[0]
    }
}

/// Grow a worker-arena vector to at least `shards` slots (kept across
/// batches) and return exactly that many.
fn grow_workers(workers: &mut Vec<BatchScratch>, shards: usize) -> &mut [BatchScratch] {
    if workers.len() < shards {
        workers.resize_with(shards, BatchScratch::default);
    }
    &mut workers[..shards]
}

/// The caller-owned scratch state one batched query call runs through: a
/// single sequential arena, a per-worker pool, or none (a throwaway pool).
enum ScratchSlot<'a> {
    Single(&'a mut BatchScratch),
    Pool(&'a mut BatchScratchPool),
}

/// Options for one batched query call — the single entry point that
/// replaced the `query_batch` / `query_batch_with` / `query_batch_par` /
/// `query_batch_par_with` method matrix on both indexes.
///
/// Build with the fluent setters and pass (by value) to
/// [`ExactIndex::query_batch_opts`] or
/// [`ClusteredIndex::query_batch_opts`]; the defaults reproduce the old
/// `query_batch` exactly. Migration table:
///
/// | Old call | New call |
/// |---|---|
/// | `query_batch(users, kw, k)` | `query_batch_opts(users, kw, k, BatchOptions::new())` |
/// | `query_batch_with(&mut scratch, users, kw, k)` | `query_batch_opts(users, kw, k, BatchOptions::new().scratch(&mut scratch))` |
/// | `query_batch_par(&exec, users, kw, k)` | `query_batch_opts(users, kw, k, BatchOptions::new().exec(&exec))` |
/// | `query_batch_par_with(&exec, &mut pool, users, kw, k)` | `query_batch_opts(users, kw, k, BatchOptions::new().exec(&exec).scratch_pool(&mut pool))` |
///
/// (The clustered index's variants take the site model as their first
/// argument, before `users`, in both the old and the new shape.)
///
/// Every combination is element-wise identical to single
/// [`ExactIndex::query`] / [`ClusteredIndex::query`] calls — the options
/// choose *how* the batch is served (threads, scratch reuse), never what
/// it answers (a proptested invariant).
#[derive(Default)]
pub struct BatchOptions<'a> {
    /// The execution context sharded serving fans out on. `None` means
    /// [`Exec::auto`].
    exec: Option<Exec>,
    /// The scratch state to thread through the call. `None` means a
    /// throwaway per-call pool.
    scratch: Option<ScratchSlot<'a>>,
    /// Wall-clock budget for the whole batch. `None` means unbounded.
    deadline: Option<std::time::Duration>,
}

impl<'a> BatchOptions<'a> {
    /// Options with every default: [`Exec::auto`] threads, throwaway
    /// scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve the batch on a caller-chosen [`Exec`] (ignored when a single
    /// sequential scratch is also set — see [`Self::scratch`]).
    pub fn exec(mut self, exec: &Exec) -> Self {
        self.exec = Some(*exec);
        self
    }

    /// Thread the batch through one caller-owned sequential arena. This
    /// **forces the single-threaded path** — the sequential serving loop is
    /// the exact code each parallel worker runs per shard, so results are
    /// identical either way; set a [`Self::scratch_pool`] instead to reuse
    /// arenas *and* fan out.
    pub fn scratch(mut self, scratch: &'a mut BatchScratch) -> Self {
        self.scratch = Some(ScratchSlot::Single(scratch));
        self
    }

    /// Thread the batch through a caller-owned per-worker arena pool, so a
    /// serving loop pays each worker's allocations once across batches.
    pub fn scratch_pool(mut self, pool: &'a mut BatchScratchPool) -> Self {
        self.scratch = Some(ScratchSlot::Pool(pool));
        self
    }

    /// Give the batch a wall-clock budget. The serving loops check the
    /// clock cooperatively — per user on the exact path, per user within
    /// each cluster group on the clustered path — and once the budget is
    /// spent, every not-yet-served member gets the *defined degraded
    /// result*: empty, with [`TopKResult::deadline_expired`] (and, on the
    /// clustered path, [`ClusteredQueryReport::deadline_expired`]) set.
    /// Members served before expiry are byte-identical to the unbounded
    /// answer with the flag clear — a result is either exact or flagged,
    /// never silently truncated. Under a sequential serve the served
    /// members form a prefix of the batch in index-layout order; under a
    /// sharded serve each worker degrades its own suffix independently.
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Borrow these options for one call without giving them up: the
    /// returned options carry the same execution choice and a reborrow of
    /// the same scratch state. How a wrapper serves *two* batches (e.g.
    /// the clustered engine's main batch plus its exact-fallback
    /// sub-batch) through one caller-provided `BatchOptions`.
    pub fn reborrow(&mut self) -> BatchOptions<'_> {
        BatchOptions {
            exec: self.exec,
            scratch: match &mut self.scratch {
                Some(ScratchSlot::Single(scratch)) => Some(ScratchSlot::Single(scratch)),
                Some(ScratchSlot::Pool(pool)) => Some(ScratchSlot::Pool(pool)),
                None => None,
            },
            deadline: self.deadline,
        }
    }
}

/// Maximum number of per-user rows in the exact index, and of pooled bound
/// lists in the clustered index: layout keys are `u32` with
/// [`NO_SLOT`] (`u32::MAX`) reserved for "not indexed", so at most
/// `u32::MAX` rows/lists (slots `0 .. len` then stay below `NO_SLOT`).
/// Builds and applies validate against this bound *before* committing any
/// state and surface [`crate::ContentError::CapacityExceeded`] past it —
/// a pathological site degrades to an error, never a process abort.
const MAX_LAYOUT_SLOTS: u64 = NO_SLOT as u64;

/// Rebuild the user → slot table after the per-user row vector changed
/// membership (delta application added or removed rows). Callers validate
/// `users.len() <= MAX_LAYOUT_SLOTS` before building the rows, so the cast
/// cannot truncate or produce `NO_SLOT`.
fn rebuild_slots(users: &[(NodeId, UserLists)]) -> FxHashMap<NodeId, u32> {
    debug_assert!(users.len() as u64 <= MAX_LAYOUT_SLOTS);
    users.iter().enumerate().map(|(slot, (user, _))| (*user, slot as u32)).collect()
}

/// An [`ExactIndex`] apply planned by [`ExactIndex::plan_apply`] and
/// landed by [`ExactIndex::commit_apply`].
#[derive(Debug)]
pub struct ExactApplyPlan {
    /// Tags the batch interns, in id order.
    new_tags: Vec<String>,
    /// The entries that change, ascending by `(user, tag, item)`, each
    /// with its new score (0 = the entry goes).
    patch: Vec<(NodeId, TagId, NodeId, f64)>,
}

/// A clustered-index apply planned by [`ClusteredIndex::plan_apply`] and
/// landed by [`ClusteredIndex::commit_apply`].
#[derive(Debug)]
pub struct ClusteredApplyPlan {
    /// Tags the batch interns, in id order.
    new_tags: Vec<String>,
    /// Recluster-on-join placements, in placement order.
    joins: Vec<(NodeId, ClusterId)>,
    /// The refinement groups that change, encoded.
    splice: RefinementSplice,
    /// The bound entries that change, ascending by `(tag, cluster,
    /// item)`, each with its new bound (0 = the entry goes).
    patch: Vec<(TagId, ClusterId, NodeId, f64)>,
    report: ApplyReport,
}

/// The planned new value of one stored entry: `Some(new)` when it differs
/// from `stored` (0 removes), `None` when the entry stays as it is.
fn changed_score(stored: Option<f64>, new: f64) -> Option<f64> {
    let unchanged = if new > 0.0 { stored == Some(new) } else { stored.is_none() };
    (!unchanged).then_some(new)
}

/// Split a sorted patch into maximal runs sharing one list key.
fn key_runs<T, K: PartialEq>(patch: &[T], key: impl Fn(&T) -> K) -> impl Iterator<Item = &[T]> {
    let mut rest = patch;
    std::iter::from_fn(move || {
        let first = key(rest.first()?);
        let len = rest.iter().take_while(|entry| key(entry) == first).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Patch one posting list with planned `(item, new score)` entries (0
/// removes) in a single decode/encode round, whatever the layout: the
/// codec is canonical, so the bytes match patching entry by entry.
fn patch_list(
    list: &mut PostingList,
    entries: impl Iterator<Item = (NodeId, f64)>,
    layout: Layout,
) {
    list.set_layout(Layout::Raw);
    for (item, score) in entries {
        list.remove(item);
        if score > 0.0 {
            list.insert(item, score);
        }
    }
    // An emptied list is the canonical `Empty` of both layouts.
    list.set_layout(layout);
}

/// A list holding only planned entries (for a key with no list yet).
fn patched_new_list(entries: impl Iterator<Item = (NodeId, f64)>, layout: Layout) -> PostingList {
    let mut list = PostingList::new();
    patch_list(&mut list, entries, layout);
    list
}

/// Layout key marking a batch member with no row in the index (unknown
/// user / unclustered user): sorts after every real slot.
const NO_SLOT: u32 = u32::MAX;

/// Borrowed scratch pieces one clustered query evaluation threads through
/// [`ClusteredIndex::query_gathered`]: the top-k state plus the reusable
/// cluster-span sort-dedup buffer (the batch path refills one allocation
/// across the whole batch).
struct ClusterScratch<'a> {
    topk: &'a mut TopKScratch,
    spans: &'a mut Vec<ClusterId>,
}

/// One cluster group's evaluation inputs, gathered once and shared by
/// every seeker of the group: the cluster's upper-bound lists, the query's
/// pre-resolved refinement view, and whether the group is the unclustered
/// one (`cluster_of` → `None`).
struct GatheredQuery<'q, 'i> {
    lists: &'q QueryLists<'i>,
    resolved: &'q ResolvedRefinement<'i>,
    unclustered: bool,
}

/// The exact per-`(tag, user)` index. Lists are grouped user-first and
/// packed densely in ascending user-id order: a query resolves its user to
/// a slot once in the outer table, then each keyword scans the user's
/// small tag-sorted vector — one or two cache lines instead of a hash
/// probe per keyword — and batch queries walk the slots in layout order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExactIndex {
    tags: TagInterner,
    /// Maps a user to their slot in `users` — the single hash probe of a
    /// query.
    slots: FxHashMap<NodeId, u32>,
    /// Per-user rows, ascending by user id (the batch walk order).
    users: Vec<(NodeId, UserLists)>,
    /// The physical layout every posting list is kept in (new lists created
    /// by `apply` follow it).
    layout: Layout,
}

impl ExactIndex {
    /// Build the index from a site model: an entry `(k, u) → (i, s)` exists
    /// for every item `i` with non-zero score `s = score_k(i, u)`. Threads
    /// come from [`Exec::auto`] (the `SOCIALSCOPE_THREADS` override or the
    /// machine's parallelism); see [`Self::build_with`] for the sharding
    /// and determinism story.
    pub fn build(site: &SiteModel) -> Self {
        Self::build_with(&Exec::auto(), site)
    }

    /// [`Self::build`] on a caller-chosen [`Exec`].
    ///
    /// Each `(item, tag)` assignment group is accumulated exactly once into
    /// a reused per-user scratch map, then scattered into the per-
    /// `(tag, user)` lists — no per-pair probing of the site's cross
    /// product, and no tag cloning beyond the one interning. Under a
    /// multi-worker pool the group sequence is sharded contiguously: tags
    /// intern in a sequential pre-pass over the whole sequence (so the
    /// symbol table is the sequential build's, whatever the pool), each
    /// worker accumulates its own pre-sized partial maps, and the partials
    /// merge in shard order — `(user, tag, item)` leaves are disjoint
    /// across groups, so the merged accumulator and the final sorted
    /// layout are *identical* to the sequential build's for every thread
    /// count (a proptested invariant).
    ///
    /// # Panics
    ///
    /// On a site with more than `u32::MAX` distinct scoring users — see
    /// [`Self::try_build_with`] for the error-returning form.
    pub fn build_with(exec: &Exec, site: &SiteModel) -> Self {
        // lint: allow(no_panic, reason = "documented panicking convenience wrapper; serving paths use the adjacent try_ form and get a typed error")
        Self::try_build_with(exec, site).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`Self::build_with`], surfacing a pathological site as
    /// [`crate::ContentError::CapacityExceeded`] instead of panicking.
    /// The layout is chosen automatically by size (`auto_layout`); pin it
    /// with [`ExactIndexBuilder::layout`].
    pub fn try_build_with(exec: &Exec, site: &SiteModel) -> crate::Result<Self> {
        Self::try_build_with_layout(exec, site, None)
    }

    /// The build proper; `layout` pins the physical layout, `None` chooses
    /// by size. The layout conversion is a single deterministic pass over
    /// the merged lists, so sharded builds stay identical to sequential
    /// ones whatever the choice.
    fn try_build_with_layout(
        exec: &Exec,
        site: &SiteModel,
        layout: Option<Layout>,
    ) -> crate::Result<Self> {
        /// Build-time accumulator: user → tag → item → score.
        type ScoreAcc = FxHashMap<NodeId, FxHashMap<TagId, FxHashMap<NodeId, f64>>>;
        let mut tags = TagInterner::new();
        let groups: Vec<(NodeId, &str, &[NodeId])> = site.tag_assignments().collect();
        let group_tags: Vec<TagId> = groups.iter().map(|&(_, tag, _)| tags.intern(tag)).collect();
        let shards: Vec<ScoreAcc> =
            exec.run_sharded(groups.len(), BUILD_MIN_GROUPS_PER_SHARD, |_, range| {
                // Capacity hint scaled to this shard's share of the groups:
                // T concurrent shards each sized for the whole site would
                // multiply the sequential build's preallocation T-fold. One
                // shard (the sequential path) keeps the full-site hint.
                let mut lists: ScoreAcc = FxHashMap::with_capacity_and_hasher(
                    site.user_count() * range.len() / groups.len().max(1) + 1,
                    FxBuildHasher::default(),
                );
                let mut per_user: FxHashMap<NodeId, f64> =
                    FxHashMap::with_capacity_and_hasher(64, FxBuildHasher::default());
                for index in range {
                    let (item, _, taggers) = groups[index];
                    let tag = group_tags[index];
                    accumulate_per_user(site, taggers, &mut per_user);
                    for (&user, &score) in &per_user {
                        lists
                            .entry(user)
                            .or_insert_with(|| {
                                FxHashMap::with_capacity_and_hasher(8, FxBuildHasher::default())
                            })
                            .entry(tag)
                            .or_insert_with(|| {
                                FxHashMap::with_capacity_and_hasher(8, FxBuildHasher::default())
                            })
                            .insert(item, score);
                    }
                }
                lists
            });
        // Merge the partial accumulators in shard order. Every leaf
        // `(user, tag, item)` belongs to exactly one assignment group and
        // thus one shard, so the merge is a disjoint union.
        let mut shards = shards.into_iter();
        // lint: allow(no_panic, reason = "true invariant: try_run_sharded returns one result per chunk and chunking always yields at least one chunk")
        let mut lists = shards.next().expect("run_sharded yields at least one shard");
        for shard in shards {
            for (user, by_tag) in shard {
                match lists.entry(user) {
                    Entry::Vacant(slot) => {
                        slot.insert(by_tag);
                    }
                    Entry::Occupied(mut row) => {
                        for (tag, items) in by_tag {
                            match row.get_mut().entry(tag) {
                                Entry::Vacant(slot) => {
                                    slot.insert(items);
                                }
                                Entry::Occupied(mut list) => list.get_mut().extend(items),
                            }
                        }
                    }
                }
            }
        }
        let mut users: Vec<(NodeId, UserLists)> = lists
            .into_iter()
            .map(|(user, by_tag)| {
                let mut by_tag: UserLists = by_tag
                    .into_iter()
                    .map(|(tag, items)| (tag, PostingList::from_entries(items)))
                    .collect();
                by_tag.sort_unstable_by_key(|(tag, _)| *tag);
                (user, by_tag)
            })
            .collect();
        users.sort_unstable_by_key(|(user, _)| *user);
        if users.len() as u64 > MAX_LAYOUT_SLOTS {
            return Err(crate::ContentError::CapacityExceeded {
                what: "indexed users",
                limit: MAX_LAYOUT_SLOTS,
            });
        }
        let slots = rebuild_slots(&users);
        let mut index = ExactIndex { tags, slots, users, layout: Layout::Raw };
        let entries: usize =
            index.users.iter().flat_map(|(_, row)| row.iter()).map(|(_, l)| l.len()).sum();
        index.set_layout(layout.unwrap_or_else(|| auto_layout(entries)));
        Ok(index)
    }

    /// The physical layout the index's posting lists are kept in.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Convert every posting list to `layout` in place. Lossless and
    /// canonical — queries, counters and [`Self::stats`] entry counts are
    /// unchanged; only [`IndexStats::heap_bytes`] moves.
    pub fn set_layout(&mut self, layout: Layout) {
        self.layout = layout;
        for (_, row) in &mut self.users {
            for (_, list) in row {
                list.set_layout(layout);
            }
        }
    }

    /// The unified construction surface: configure and build through an
    /// [`ExactIndexBuilder`]. `ExactIndex::builder(&site).build()` is
    /// [`Self::build`]; add `.exec(&exec)` for [`Self::build_with`].
    pub fn builder(site: &SiteModel) -> ExactIndexBuilder<'_> {
        ExactIndexBuilder { site, exec: None, layout: None }
    }

    /// Apply a batch of [`TagEvent`]s to the live index, patching the
    /// affected posting lists in place. Threads come from [`Exec::auto`];
    /// see [`Self::apply_with`] for the contract and mechanics.
    pub fn apply(&mut self, site: &SiteModel, events: &[TagEvent]) -> ApplyReport {
        self.apply_with(&Exec::auto(), site, events)
    }

    /// [`Self::apply`] with an error channel: capacity overflows (and
    /// injected faults) surface as errors, and an `Err` return guarantees
    /// the index is byte-identical to its pre-call state (see
    /// [`Self::try_apply_with`]).
    pub fn try_apply(
        &mut self,
        site: &SiteModel,
        events: &[TagEvent],
    ) -> crate::Result<ApplyReport> {
        self.try_apply_with(&Exec::auto(), site, events)
    }

    /// [`Self::apply`] on a caller-chosen [`Exec`].
    ///
    /// **Contract:** `site` must already reflect the batch — call
    /// [`SiteModel::apply`] with the same events first. The index then
    /// converges to exactly the state [`Self::build`] would produce from
    /// that site (same stats, same list per `(tag, user)`, same answer to
    /// every query — a proptested invariant), without the rebuild.
    ///
    /// Mechanics: an event on `(tagger, item, tag)` can only move the
    /// stored score `score_k(item, u)` of users `u` with `tagger ∈
    /// network(u)` — and networks are stable under tag events — so the
    /// affected `(user, tag, item)` triples are enumerated and deduplicated
    /// up front, their new scores recomputed read-only in parallel shards,
    /// and the lists patched sequentially by binary search
    /// ([`PostingList::insert`] / [`PostingList::remove`]). Redundant
    /// events (duplicate assigns, retracts of nothing) recompute to the
    /// stored score and touch nothing, so replays are free and
    /// [`ApplyReport::is_noop`] reports them honestly.
    pub fn apply_with(
        &mut self,
        exec: &Exec,
        site: &SiteModel,
        events: &[TagEvent],
    ) -> ApplyReport {
        // lint: allow(no_panic, reason = "documented panicking convenience wrapper; serving paths use the adjacent try_ form and get a typed error")
        self.try_apply_with(exec, site, events).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`Self::apply_with`] with an error channel, **all-or-nothing per
    /// batch**: [`Self::plan_apply`] over `site` (which already reflects
    /// the batch, so the view has nothing pending), then
    /// [`Self::commit_apply`]. Every fallible step — capacity validation,
    /// or an injected fault at [`crate::faults::EXACT_APPLY_STAGE`] /
    /// [`crate::faults::EXACT_APPLY_COMMIT`] — belongs to the read-only
    /// plan, so an `Err` return leaves the index byte-identical to its
    /// pre-call state: same stats, same list per `(tag, user)`, same
    /// answer to every query.
    pub fn try_apply_with(
        &mut self,
        exec: &Exec,
        site: &SiteModel,
        events: &[TagEvent],
    ) -> crate::Result<ApplyReport> {
        let plan = self.plan_apply(exec, &site.view(), events)?;
        Ok(self.commit_apply(plan))
    }

    /// Plan a batch without touching the index: `site` answers as the
    /// model will *after* the batch (a [`SiteView`] over a planned
    /// [`crate::sitemodel::SiteDelta`], or [`SiteModel::view`] of a model
    /// that already took it). New event tags are recorded, not interned;
    /// the affected triples' scores are recomputed read-only in parallel
    /// shards and compared with the stored ones, so the plan holds
    /// exactly the entries that change; and the rows they add are
    /// validated against the slot bound. Fires
    /// [`crate::faults::EXACT_APPLY_STAGE`] once the affected triples are
    /// enumerated and [`crate::faults::EXACT_APPLY_COMMIT`] last.
    pub fn plan_apply(
        &self,
        exec: &Exec,
        site: &SiteView<'_>,
        events: &[TagEvent],
    ) -> crate::Result<ExactApplyPlan> {
        let mut tags = PlannedTags::new(&self.tags);
        let mut triples: Vec<(NodeId, TagId, NodeId)> = Vec::new();
        for event in events {
            let tag = tags.intern(event.tag())?;
            for &user in site.network_of(event.tagger()) {
                triples.push((user, tag, event.item()));
            }
        }
        triples.sort_unstable();
        triples.dedup();
        crate::faults::fire(crate::faults::EXACT_APPLY_STAGE)?;
        // Read-only recompute phase, sharded: each triple's new score is
        // one sorted-merge intersection against the post-batch site, kept
        // only where it differs from the stored score (0 = remove).
        let planned = &tags;
        let sharded: Vec<Vec<Option<f64>>> =
            exec.run_sharded(triples.len(), APPLY_MIN_UNITS_PER_SHARD, |_, range| {
                range
                    .map(|i| {
                        let (user, tag, item) = triples[i];
                        // lint: allow(no_panic, reason = "true invariant: the pre-shard walk interned every event tag into this table")
                        let name = planned.resolve(tag).expect("event tags interned above");
                        let taggers = site.taggers_of(item, name);
                        let score = count_intersection(site.network_of(user), taggers) as f64;
                        let stored = self.list_by_id(tag, user).and_then(|l| l.score_of(item));
                        changed_score(stored, score)
                    })
                    .collect()
            });
        let patch: Vec<(NodeId, TagId, NodeId, f64)> = triples
            .iter()
            .zip(sharded.into_iter().flatten())
            .filter_map(|(&(user, tag, item), score)| Some((user, tag, item, score?)))
            .collect();
        // Validate: the commit inserts one row per not-yet-indexed user
        // that gained a positive score; the layout must stay within the
        // slot bound. The patch is user-sorted, so new users group.
        let mut new_rows = 0u64;
        let mut last_new: Option<NodeId> = None;
        for &(user, _, _, score) in &patch {
            if score > 0.0 && last_new != Some(user) && !self.slots.contains_key(&user) {
                new_rows += 1;
                last_new = Some(user);
            }
        }
        if self.users.len() as u64 + new_rows > MAX_LAYOUT_SLOTS {
            return Err(crate::ContentError::CapacityExceeded {
                what: "indexed users",
                limit: MAX_LAYOUT_SLOTS,
            });
        }
        crate::faults::fire(crate::faults::EXACT_APPLY_COMMIT)?;
        Ok(ExactApplyPlan { new_tags: tags.into_names(), patch })
    }

    /// Land a plan made by [`Self::plan_apply`] against this very index
    /// (nothing may touch the index in between). Infallible and in place:
    /// the recorded tags are interned, each changed list is patched in
    /// one pass, and rows that appear or empty out are inserted or
    /// dropped — the slot table is rebuilt only then.
    pub fn commit_apply(&mut self, plan: ExactApplyPlan) -> ApplyReport {
        let ExactApplyPlan { new_tags, patch } = plan;
        self.tags.commit(new_tags);
        let mut membership_dirty = false;
        for run in key_runs(&patch, |&(user, tag, ..)| (user, tag)) {
            let (user, tag) = (run[0].0, run[0].1);
            let entries = run.iter().map(|&(_, _, item, score)| (item, score));
            match self.users.binary_search_by_key(&user, |(u, _)| *u) {
                Ok(pos) => {
                    let by_tag = &mut self.users[pos].1;
                    match by_tag.binary_search_by_key(&tag, |(t, _)| *t) {
                        Ok(at) => {
                            patch_list(&mut by_tag[at].1, entries, self.layout);
                            if by_tag[at].1.is_empty() {
                                by_tag.remove(at);
                                if by_tag.is_empty() {
                                    self.users.remove(pos);
                                    membership_dirty = true;
                                }
                            }
                        }
                        Err(at) => {
                            let list = patched_new_list(entries, self.layout);
                            if !list.is_empty() {
                                by_tag.insert(at, (tag, list));
                            }
                        }
                    }
                }
                Err(pos) => {
                    let list = patched_new_list(entries, self.layout);
                    if !list.is_empty() {
                        self.users.insert(pos, (user, vec![(tag, list)]));
                        membership_dirty = true;
                    }
                }
            }
        }
        if membership_dirty {
            self.slots = rebuild_slots(&self.users);
        }
        ApplyReport { changed_entries: patch.len(), ..ApplyReport::default() }
    }

    /// The tag symbol table the index is keyed on.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// The list for a `(tag, user)` pair, if any item scores above zero.
    /// Allocation-free when the probe tag is already lowercase.
    pub fn list(&self, tag: &str, user: NodeId) -> Option<&PostingList> {
        self.list_by_id(self.tags.get(tag)?, user)
    }

    /// The list for an interned `(tag, user)` pair.
    pub fn list_by_id(&self, tag: TagId, user: NodeId) -> Option<&PostingList> {
        find_tag(self.user_lists(user)?, tag)
    }

    /// The tag-sorted rows of one user, if indexed.
    fn user_lists(&self, user: NodeId) -> Option<&[(TagId, PostingList)]> {
        self.slots.get(&user).map(|&slot| self.users[slot as usize].1.as_slice())
    }

    /// Real heap footprint by component: the posting lists (both access
    /// orders, under the current [`Layout`]) and the slot tables. See
    /// [`MemoryProfile`].
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut postings = 0usize;
        let mut tables = table_bytes::<NodeId, u32>(self.slots.len())
            + self.users.len() * std::mem::size_of::<(NodeId, UserLists)>();
        for (_, row) in &self.users {
            tables += row.len() * std::mem::size_of::<(TagId, PostingList)>();
            for (_, list) in row {
                let (sorted, companion) = list.heap_bytes();
                postings += sorted + companion;
            }
        }
        MemoryProfile { postings_bytes: postings, tables_bytes: tables, ..MemoryProfile::default() }
    }

    /// Space statistics.
    pub fn stats(&self) -> IndexStats {
        let entries: usize =
            self.users.iter().flat_map(|(_, row)| row.iter()).map(|(_, l)| l.len()).sum();
        let lists: usize = self.users.iter().map(|(_, row)| row.len()).sum();
        IndexStats {
            lists,
            entries,
            bytes: entries * BYTES_PER_ENTRY,
            heap_bytes: self.memory_profile().total(),
        }
    }

    /// Top-k query for a user: merge the user's per-keyword lists; the
    /// stored scores are exact, so the total score of a candidate is the sum
    /// of its stored scores across the query's lists. Duplicate keywords
    /// (in any casing) count once — a query is a keyword set. A query whose
    /// keyword set is empty — or resolves to nothing, e.g. all-stopword text
    /// after workload tokenization — returns the defined empty result
    /// (empty ranking, zero counters) without touching the user table,
    /// identically in the single and batch paths.
    pub fn query(&self, user: NodeId, keywords: &[String], k: usize) -> TopKResult {
        let tag_ids = QueryTags::resolve(&self.tags, keywords);
        if tag_ids.as_slice().is_empty() {
            return TopKResult::default();
        }
        self.query_resolved(
            self.user_lists(user),
            tag_ids.as_slice(),
            k,
            &mut TopKScratch::default(),
        )
    }

    /// Evaluate one resolved query against one user's rows. Shared verbatim
    /// by [`Self::query`] and the batch path, so batch results are
    /// element-wise identical — ranking and counters — to single calls.
    fn query_resolved(
        &self,
        user_lists: Option<&[(TagId, PostingList)]>,
        tag_ids: &[TagId],
        k: usize,
        scratch: &mut TopKScratch,
    ) -> TopKResult {
        // One probe of the big user table happened in the caller; each
        // keyword now scans the user's small tag-sorted vector.
        let lists =
            QueryLists::gather(tag_ids.iter().filter_map(|&tag| find_tag(user_lists?, tag)));
        let lists = lists.as_slice();
        let total: usize = lists.iter().map(|l| l.len()).sum();
        if total < k {
            return Self::merge_scan(lists, total);
        }
        // The threshold algorithm probes every list other than the
        // discovering one once per distinct candidate; decode each short
        // compressed companion once up front so those probes binary-search
        // decoded pairs instead of re-walking the varint stream per
        // candidate (bit-identical scores either way). Taken out of the
        // scratch for the closure's lifetime, put back below.
        let mut views = std::mem::take(&mut scratch.unpacked);
        if lists.len() > 1 {
            views.fill(lists);
        }
        // Stored scores are exact, so a candidate's total is the sum of its
        // stored scores; the score in the discovering list arrives as the
        // sorted-access hint, leaving one random access per *other* list.
        // (Summation order puts the hinted score first — indistinguishable
        // for the integral count scores of the paper's model.)
        let exact = |item: NodeId, found_in: usize, stored: f64| {
            let mut total = stored;
            for (li, list) in lists.iter().enumerate() {
                if li != found_in {
                    if let Some(view) = views.view(li) {
                        if let Some(s) = find_score_by_item(view, item) {
                            total += s;
                        }
                    } else if list.layout() == Layout::Raw && list.len() <= SCAN_ENTRIES_MAX {
                        // Short raw list: scan the entries the sorted
                        // accesses just pulled through the cache, with no
                        // early exit to mispredict.
                        for p in list.iter() {
                            total += if p.item == item { p.score } else { 0.0 };
                        }
                    } else if let Some(s) = list.score_of(item) {
                        total += s;
                    }
                }
            }
            total
        };
        let result = top_k_hinted_with(scratch, lists, k, exact);
        scratch.unpacked = views;
        result
    }

    /// Top-k for a whole batch of users sharing one keyword set — the
    /// paper's network-aware scoring ranks the *same* keywords differently
    /// per seeker, which makes the multi-user batch the natural serving
    /// unit. Keywords resolve to [`TagId`]s once for the batch, evaluation
    /// state is reused across users, and users are visited in index-layout
    /// order so the user-first storage is walked cache-friendly. Results
    /// arrive in input order and each equals the corresponding
    /// [`Self::query`] call exactly, whatever the options: [`BatchOptions`]
    /// choose the threads ([`Exec::auto`] by default) and the scratch reuse
    /// (throwaway by default), never the answers. See [`BatchOptions`] for
    /// the migration table from the retired `query_batch` method matrix.
    pub fn query_batch_opts(
        &self,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<TopKResult> {
        let exec = opts.exec.unwrap_or_else(Exec::auto);
        let deadline = Deadline::new(opts.deadline);
        match opts.scratch {
            Some(ScratchSlot::Single(scratch)) => {
                self.serve_batch_seq(scratch, users, keywords, k, deadline)
            }
            Some(ScratchSlot::Pool(pool)) => {
                self.serve_batch_sharded(&exec, pool, users, keywords, k, deadline)
            }
            None => self.serve_batch_sharded(
                &exec,
                &mut BatchScratchPool::default(),
                users,
                keywords,
                k,
                deadline,
            ),
        }
    }

    /// Batched top-k with every default.
    #[deprecated(since = "0.1.0", note = "use `query_batch_opts` with `BatchOptions::new()`")]
    pub fn query_batch(&self, users: &[NodeId], keywords: &[String], k: usize) -> Vec<TopKResult> {
        self.query_batch_opts(users, keywords, k, BatchOptions::new())
    }

    /// Batched top-k through a caller-owned sequential arena.
    #[deprecated(
        since = "0.1.0",
        note = "use `query_batch_opts` with `BatchOptions::new().scratch(..)`"
    )]
    pub fn query_batch_with(
        &self,
        scratch: &mut BatchScratch,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<TopKResult> {
        self.serve_batch_seq(scratch, users, keywords, k, Deadline::unbounded())
    }

    /// Batched top-k on a caller-chosen [`Exec`].
    #[deprecated(
        since = "0.1.0",
        note = "use `query_batch_opts` with `BatchOptions::new().exec(..)`"
    )]
    pub fn query_batch_par(
        &self,
        exec: &Exec,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<TopKResult> {
        self.query_batch_opts(users, keywords, k, BatchOptions::new().exec(exec))
    }

    /// Batched top-k on a caller-chosen [`Exec`] through a caller-owned
    /// arena pool.
    #[deprecated(
        since = "0.1.0",
        note = "use `query_batch_opts` with `BatchOptions::new().exec(..).scratch_pool(..)`"
    )]
    pub fn query_batch_par_with(
        &self,
        exec: &Exec,
        pool: &mut BatchScratchPool,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<TopKResult> {
        self.serve_batch_sharded(exec, pool, users, keywords, k, Deadline::unbounded())
    }

    /// The single-threaded batch path: one scratch arena, users walked in
    /// slot order. Also the per-shard code of the sharded path.
    fn serve_batch_seq(
        &self,
        scratch: &mut BatchScratch,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        deadline: Deadline,
    ) -> Vec<TopKResult> {
        let tag_ids = QueryTags::resolve(&self.tags, keywords);
        let tag_ids = tag_ids.as_slice();
        let mut results: Vec<TopKResult> = Vec::with_capacity(users.len());
        // No keyword resolved to an indexed tag: every member's answer is
        // the same empty result a single query would produce, and the
        // whole batch is served without touching the per-user table — the
        // amortization a per-user loop structurally cannot have.
        if tag_ids.is_empty() {
            results.resize_with(users.len(), TopKResult::default);
            return results;
        }
        let BatchScratch { order, topk, .. } = scratch;
        order.clear();
        order.extend(users.iter().enumerate().map(|(position, user)| {
            (self.slots.get(user).copied().unwrap_or(NO_SLOT), position as u32)
        }));
        order.sort_unstable();
        results.resize_with(users.len(), TopKResult::default);
        self.serve_slots(order, tag_ids, k, topk, deadline, |position, result| {
            results[position as usize] = result;
        });
        results
    }

    /// The sharded batch path, through a caller-owned per-worker arena
    /// pool.
    ///
    /// The batch is resolved and laid out in index order exactly as the
    /// sequential path does, then split into contiguous **slot ranges**,
    /// one scoped-thread worker per range with its own [`BatchScratch`];
    /// every worker runs the same per-slot evaluation the sequential path
    /// runs and writes to output slots no other worker touches, so results
    /// stay element-wise identical to single [`Self::query`] calls — and to
    /// the sequential batch path — for every thread count (a proptested
    /// invariant). Batches too small to amortize worker spawns (fewer than
    /// 2 × 64 members) take the sequential path outright.
    fn serve_batch_sharded(
        &self,
        exec: &Exec,
        pool: &mut BatchScratchPool,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        deadline: Deadline,
    ) -> Vec<TopKResult> {
        let shards = exec.shard_count(users.len(), SHARD_MIN_USERS);
        if shards <= 1 {
            return self.serve_batch_seq(pool.worker(), users, keywords, k, deadline);
        }
        let tag_ids = QueryTags::resolve(&self.tags, keywords);
        let tag_ids = tag_ids.as_slice();
        let mut results: Vec<TopKResult> = Vec::with_capacity(users.len());
        if tag_ids.is_empty() {
            results.resize_with(users.len(), TopKResult::default);
            return results;
        }
        let BatchScratchPool { order, workers } = pool;
        order.clear();
        order.extend(users.iter().enumerate().map(|(position, user)| {
            (self.slots.get(user).copied().unwrap_or(NO_SLOT), position as u32)
        }));
        order.sort_unstable();
        let ranges = Exec::shard_ranges(order.len(), shards);
        let sharded: Vec<Vec<(u32, TopKResult)>> =
            exec.run_chunks_with(grow_workers(workers, shards), &ranges, |scratch, _, range| {
                let mut out: Vec<(u32, TopKResult)> = Vec::with_capacity(range.len());
                self.serve_slots(
                    &order[range],
                    tag_ids,
                    k,
                    &mut scratch.topk,
                    deadline,
                    |pos, result| {
                        out.push((pos, result));
                    },
                );
                out
            });
        results.resize_with(users.len(), TopKResult::default);
        for shard in sharded {
            for (position, result) in shard {
                results[position as usize] = result;
            }
        }
        results
    }

    /// Evaluate a layout-ordered run of `(slot, position)` pairs, handing
    /// each result to `sink(position, result)`. The single shared walk of
    /// both batch paths: the sequential path runs it over the whole order,
    /// each parallel worker over its contiguous slot range. The deadline is
    /// checked cooperatively before each [`DEADLINE_CHECK_STRIDE`]-member
    /// chunk — members serve in tens of nanoseconds, so a per-member check
    /// would cost more than the serving it guards; once it expires, every
    /// remaining member of this run gets the defined empty-with-flag
    /// result ([`TopKResult::deadline_expired`]).
    fn serve_slots(
        &self,
        order: &[(u32, u32)],
        tag_ids: &[TagId],
        k: usize,
        topk: &mut TopKScratch,
        mut deadline: Deadline,
        mut sink: impl FnMut(u32, TopKResult),
    ) {
        let mut expired = false;
        for chunk in order.chunks(DEADLINE_CHECK_STRIDE) {
            expired = expired || deadline.expired();
            if expired {
                for &(_, position) in chunk {
                    sink(position, TopKResult::expired());
                }
                continue;
            }
            for &(slot, position) in chunk {
                let rows = (slot != NO_SLOT).then(|| self.users[slot as usize].1.as_slice());
                sink(position, self.query_resolved(rows, tag_ids, k, topk));
            }
        }
    }

    /// Degenerate top-k where the lists hold fewer than k entries: every
    /// entry is sorted-accessed, no candidate can be evicted and the
    /// threshold can never fire early (the buffer never fills), so the
    /// per-item sums can be accumulated in one merge over the lists —
    /// counters and ranking come out exactly as threshold processing would
    /// produce, with zero random accesses.
    fn merge_scan(lists: &[&PostingList], total: usize) -> TopKResult {
        let mut items: Vec<(NodeId, f64)> = Vec::with_capacity(total);
        let mut sorted_accesses = 0usize;
        if let Some((first, rest)) = lists.split_first() {
            // Items within one list are distinct: the first list bulk-loads.
            items.extend(first.iter().map(|p| (p.item, p.score)));
            sorted_accesses += first.len();
            for list in rest {
                for p in list.iter() {
                    sorted_accesses += 1;
                    // Contributions arrive in list order, matching the
                    // order the per-candidate summation would add them in.
                    match items.iter_mut().find(|(i, _)| *i == p.item) {
                        Some((_, s)) => *s += p.score,
                        None => items.push((p.item, p.score)),
                    }
                }
            }
        }
        items.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let exact_computations = items.len();
        TopKResult::from_parts(items, sorted_accesses, exact_computations, false)
    }
}

/// The unified construction surface of [`ExactIndex`] (see
/// [`ExactIndex::builder`]): `ExactIndex::builder(&site).build()` builds on
/// [`Exec::auto`] threads; `.exec(&exec)` pins the execution context. The
/// built index is identical whatever the thread count (a proptested
/// invariant), so the builder options are purely about resources.
pub struct ExactIndexBuilder<'a> {
    site: &'a SiteModel,
    exec: Option<Exec>,
    layout: Option<Layout>,
}

impl ExactIndexBuilder<'_> {
    /// Build on a caller-chosen [`Exec`] instead of [`Exec::auto`].
    pub fn exec(mut self, exec: &Exec) -> Self {
        self.exec = Some(*exec);
        self
    }

    /// Pin the physical [`Layout`] instead of the automatic size choice
    /// (compress at [`COMPRESS_AUTO_MIN_ENTRIES`] entries and beyond).
    /// Purely physical: queries, counters and entry counts are identical
    /// either way.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Build the index.
    pub fn build(self) -> ExactIndex {
        // lint: allow(no_panic, reason = "documented panicking convenience wrapper; serving paths use the adjacent try_ form and get a typed error")
        self.try_build().unwrap_or_else(|error| panic!("{error}"))
    }

    /// Build the index, surfacing capacity overflow as an error instead of
    /// panicking ([`ExactIndex::try_build_with`]).
    pub fn try_build(self) -> crate::Result<ExactIndex> {
        ExactIndex::try_build_with_layout(
            &self.exec.unwrap_or_else(Exec::auto),
            self.site,
            self.layout,
        )
    }
}

/// The unified construction surface of [`ClusteredIndex`] (see
/// [`ClusteredIndex::builder`]): add `.clustering(...)` for the user
/// clustering the bound lists aggregate over (without it, every user is
/// unclustered — the default [`UserClustering`] — and the index stores no
/// bounds at all), and `.exec(&exec)` to pin the execution context.
pub struct ClusteredIndexBuilder<'a> {
    site: &'a SiteModel,
    exec: Option<Exec>,
    clustering: Option<UserClustering>,
    layout: Option<Layout>,
}

impl ClusteredIndexBuilder<'_> {
    /// Build on a caller-chosen [`Exec`] instead of [`Exec::auto`].
    pub fn exec(mut self, exec: &Exec) -> Self {
        self.exec = Some(*exec);
        self
    }

    /// The user clustering the `(tag, cluster)` bound lists aggregate over.
    pub fn clustering(mut self, clustering: UserClustering) -> Self {
        self.clustering = Some(clustering);
        self
    }

    /// Pin the physical [`Layout`] of the bound-list pool and refinement
    /// arena instead of the automatic size choice (compress at
    /// [`COMPRESS_AUTO_MIN_ENTRIES`] entries and beyond). Purely physical:
    /// queries, counters and entry counts are identical either way.
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Build the index.
    pub fn build(self) -> ClusteredIndex {
        // lint: allow(no_panic, reason = "documented panicking convenience wrapper; serving paths use the adjacent try_ form and get a typed error")
        self.try_build().unwrap_or_else(|error| panic!("{error}"))
    }

    /// Build the index, surfacing capacity overflow as an error instead of
    /// panicking ([`ClusteredIndex::try_build_with`]).
    pub fn try_build(self) -> crate::Result<ClusteredIndex> {
        ClusteredIndex::try_build_with_layout(
            &self.exec.unwrap_or_else(Exec::auto),
            self.site,
            self.clustering.unwrap_or_default(),
            self.layout,
        )
    }
}

/// The clustered index: one list per `(tag, cluster)` with score upper
/// bounds (Eq. 1), plus the keyword-first [`RefinementIndex`] the exact
/// per-candidate scores are recomputed from at query time. Lists live in a
/// dense pool behind a key → slot table, so the batch paths' gather caches
/// can remember compact `u32` slots instead of re-probing the table per
/// tag per cluster. A build lays the pool out in ascending
/// `(TagId, ClusterId)` key order (deterministic for every build thread
/// count); applies append new lists and refill an emptied list's slot
/// with the pool's last list, so slots are handles, not an order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusteredIndex {
    tags: TagInterner,
    /// `(tag, cluster)` → slot in `list_pool`.
    list_ids: FxHashMap<(TagId, ClusterId), u32>,
    /// The upper-bound lists, ascending by `(TagId, ClusterId)` key.
    list_pool: Vec<PostingList>,
    refinement: RefinementIndex,
    /// The physical layout of the bound-list pool and refinement arena
    /// (new lists created by `apply` follow it).
    layout: Layout,
    /// The clustering the index was built for.
    pub clustering: UserClustering,
    /// Build identity the scratch-level gather caches key on (see
    /// [`next_build_stamp`]). 0 — the default — disables caching for this
    /// index. Process-local by construction, so it must never be
    /// persisted: a deserialized stamp could collide with a live build's
    /// and let a reused scratch replay the wrong index's pool slots
    /// (`skip` keeps a future real serde backend honest; the current
    /// offline shim serializes nothing anyway).
    #[serde(skip)]
    stamp: u64,
}

/// Cost counters specific to clustered query processing, reported alongside
/// the top-k result.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusteredQueryReport {
    /// The top-k evaluation result and generic counters.
    pub result: TopKResult,
    /// How many distinct clusters the querying user's network members fall
    /// into — the fragmentation effect the paper attributes to
    /// behavior-based clustering.
    pub network_clusters_spanned: usize,
    /// Whether the seeker has no cluster (`cluster_of` → `None`): a user
    /// the site never saw, or one added after the clustering was built.
    /// The chosen semantic is **empty-with-flag**: such a user gets the
    /// defined empty ranking with zeroed counters — no upper-bound list
    /// exists to surface candidates from — and this flag set, identically
    /// in the single and batch paths, so callers can tell "no matches"
    /// from "not clustered yet, recluster or fall back to the exact
    /// index". `network_clusters_spanned` is still reported: the seeker's
    /// *network* may be clustered even when the seeker is not.
    pub unclustered: bool,
    /// Whether the batch's deadline budget
    /// ([`BatchOptions::deadline`]) expired before this member was
    /// served: the same empty-with-flag semantic as `unclustered`, with
    /// [`TopKResult::deadline_expired`] set on the embedded result too.
    /// Always `false` on the single-query path, which has no deadline.
    #[serde(default)]
    pub deadline_expired: bool,
}

impl ClusteredIndex {
    /// Build the clustered index for a given clustering: the bound stored
    /// for `(k, C, i)` is `max_{u ∈ C} score_k(i, u)`. The same pass feeds
    /// every `(tag, item)` tagger group into the keyword-first
    /// [`RefinementIndex`] under the same interned ids, so query-time
    /// refinement never touches tag strings. Threads come from
    /// [`Exec::auto`]; see [`Self::build_with`] for the sharding and
    /// determinism story.
    pub fn build(site: &SiteModel, clustering: UserClustering) -> Self {
        Self::build_with(&Exec::auto(), site, clustering)
    }

    /// [`Self::build`] on a caller-chosen [`Exec`].
    ///
    /// Under a multi-worker pool the tag-assignment group sequence is
    /// sharded contiguously exactly as in [`ExactIndex::build_with`]: tags
    /// intern in a sequential pre-pass, each worker accumulates its own
    /// partial bound maps *and* partial refinement arena over its run of
    /// groups, and the partials merge in shard order — bound leaves
    /// `(tag, cluster, item)` belong to exactly one group, and
    /// concatenating the partial refinement arenas in shard order
    /// reproduces the sequential arena byte for byte
    /// (`RefinementIndex::append`). The list pool is then laid out in
    /// ascending key order, so the built index is identical for every
    /// thread count (a proptested invariant).
    ///
    /// # Panics
    ///
    /// On a site/clustering with more than `u32::MAX` non-empty
    /// `(tag, cluster)` bound lists — see [`Self::try_build_with`] for the
    /// error-returning form.
    pub fn build_with(exec: &Exec, site: &SiteModel, clustering: UserClustering) -> Self {
        // lint: allow(no_panic, reason = "documented panicking convenience wrapper; serving paths use the adjacent try_ form and get a typed error")
        Self::try_build_with(exec, site, clustering).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`Self::build_with`], surfacing a pathological site as
    /// [`crate::ContentError::CapacityExceeded`] instead of panicking.
    /// The layout is chosen automatically by size (`auto_layout`); pin it
    /// with [`ClusteredIndexBuilder::layout`].
    pub fn try_build_with(
        exec: &Exec,
        site: &SiteModel,
        clustering: UserClustering,
    ) -> crate::Result<Self> {
        Self::try_build_with_layout(exec, site, clustering, None)
    }

    /// The build proper; `layout` pins the physical layout, `None` chooses
    /// by size (over bound entries + refinement entries together). The
    /// conversion is a single deterministic pass over the merged pool and
    /// arena, so sharded builds stay identical to sequential ones.
    fn try_build_with_layout(
        exec: &Exec,
        site: &SiteModel,
        clustering: UserClustering,
        layout: Option<Layout>,
    ) -> crate::Result<Self> {
        type BoundAcc = FxHashMap<(TagId, ClusterId), FxHashMap<NodeId, f64>>;
        let mut tags = TagInterner::new();
        let groups: Vec<(NodeId, &str, &[NodeId])> = site.tag_assignments().collect();
        let group_tags: Vec<TagId> = groups.iter().map(|&(_, tag, _)| tags.intern(tag)).collect();
        let shards: Vec<(BoundAcc, RefinementIndex)> =
            exec.run_sharded(groups.len(), BUILD_MIN_GROUPS_PER_SHARD, |_, range| {
                // Capacity hint scaled to this shard's share of the groups
                // (see the exact build); one shard keeps the full hint.
                let full_hint = clustering.cluster_count().saturating_mul(site.tag_count()) / 4;
                let mut bounds: BoundAcc = FxHashMap::with_capacity_and_hasher(
                    full_hint * range.len() / groups.len().max(1) + 16,
                    FxBuildHasher::default(),
                );
                let mut refinement = RefinementIndex::default();
                let mut per_user: FxHashMap<NodeId, f64> =
                    FxHashMap::with_capacity_and_hasher(64, FxBuildHasher::default());
                for index in range {
                    let (item, _, taggers) = groups[index];
                    let tag = group_tags[index];
                    refinement.insert(tag, item, taggers);
                    // Per-user scores for this (item, tag), then max per
                    // cluster.
                    accumulate_per_user(site, taggers, &mut per_user);
                    for (&user, &score) in &per_user {
                        let Some(cluster) = clustering.cluster_of(user) else {
                            continue;
                        };
                        let entry = bounds
                            .entry((tag, cluster))
                            .or_insert_with(|| {
                                FxHashMap::with_capacity_and_hasher(8, FxBuildHasher::default())
                            })
                            .entry(item)
                            .or_default();
                        if score > *entry {
                            *entry = score;
                        }
                    }
                }
                (bounds, refinement)
            });
        // Merge in shard order: bound leaves are a disjoint union, and the
        // refinement arenas concatenate into the sequential build's arena.
        let mut shards = shards.into_iter();
        // lint: allow(no_panic, reason = "true invariant: try_run_sharded returns one result per chunk and chunking always yields at least one chunk")
        let (mut bounds, mut refinement) =
            shards.next().expect("run_sharded yields at least one shard");
        for (shard_bounds, shard_refinement) in shards {
            for (key, items) in shard_bounds {
                match bounds.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(items);
                    }
                    Entry::Occupied(mut list) => list.get_mut().extend(items),
                }
            }
            refinement.append(shard_refinement);
        }
        // Deterministic pool layout: ascending (TagId, ClusterId) keys,
        // independent of accumulator iteration order and thread count.
        let mut keyed: Vec<((TagId, ClusterId), FxHashMap<NodeId, f64>)> =
            bounds.into_iter().collect();
        keyed.sort_unstable_by_key(|&(key, _)| key);
        if keyed.len() as u64 > MAX_LAYOUT_SLOTS {
            return Err(crate::ContentError::CapacityExceeded {
                what: "bound lists",
                limit: MAX_LAYOUT_SLOTS,
            });
        }
        let mut list_ids: FxHashMap<(TagId, ClusterId), u32> =
            FxHashMap::with_capacity_and_hasher(keyed.len(), FxBuildHasher::default());
        let mut list_pool: Vec<PostingList> = Vec::with_capacity(keyed.len());
        for (key, items) in keyed {
            // Validated against MAX_LAYOUT_SLOTS above: cannot truncate.
            let slot = list_pool.len() as u32;
            list_ids.insert(key, slot);
            list_pool.push(PostingList::from_entries(items));
        }
        let mut index = ClusteredIndex {
            tags,
            list_ids,
            list_pool,
            refinement,
            layout: Layout::Raw,
            clustering,
            stamp: next_build_stamp(),
        };
        let entries: usize = index.list_pool.iter().map(PostingList::len).sum();
        index.set_layout(
            layout.unwrap_or_else(|| auto_layout(entries + index.refinement.stats().entries)),
        );
        Ok(index)
    }

    /// The physical layout the bound-list pool and refinement arena are
    /// kept in.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Convert the bound-list pool and refinement arena to `layout` in
    /// place. Lossless and canonical — queries, counters and
    /// [`Self::stats`] entry counts are unchanged; only
    /// [`IndexStats::heap_bytes`] moves.
    pub fn set_layout(&mut self, layout: Layout) {
        self.layout = layout;
        for list in &mut self.list_pool {
            list.set_layout(layout);
        }
        self.refinement.set_layout(layout);
    }

    /// The unified construction surface: configure and build through a
    /// [`ClusteredIndexBuilder`].
    /// `ClusteredIndex::builder(&site).clustering(c).build()` is
    /// [`Self::build`]; add `.exec(&exec)` for [`Self::build_with`].
    pub fn builder(site: &SiteModel) -> ClusteredIndexBuilder<'_> {
        ClusteredIndexBuilder { site, exec: None, clustering: None, layout: None }
    }

    /// The index's build identity: a fresh non-zero stamp per build *and
    /// per effective [`Self::apply`]*, which the scratch-level gather
    /// caches key on (0 — a default-constructed index — disables caching).
    /// The stamp moving on every effective apply is what makes stale
    /// cached pool slots impossible after a delta: a warm scratch keyed on
    /// the old stamp re-gathers from scratch on its next batch.
    pub fn build_stamp(&self) -> u64 {
        self.stamp
    }

    /// Apply a batch of [`TagEvent`]s to the live index: recluster late
    /// joiners, splice the refinement arena, and patch the affected
    /// `(tag, cluster)` bound lists in place. Threads come from
    /// [`Exec::auto`]; see [`Self::apply_with`] for the contract and
    /// mechanics.
    pub fn apply(&mut self, site: &SiteModel, events: &[TagEvent]) -> ApplyReport {
        self.apply_with(&Exec::auto(), site, events)
    }

    /// [`Self::apply`] with an error channel: capacity overflows (and
    /// injected faults) surface as errors, and an `Err` return guarantees
    /// index, clustering and refinement are byte-identical to their
    /// pre-call state (see [`Self::try_apply_with`]).
    pub fn try_apply(
        &mut self,
        site: &SiteModel,
        events: &[TagEvent],
    ) -> crate::Result<ApplyReport> {
        self.try_apply_with(&Exec::auto(), site, events)
    }

    /// [`Self::apply`] on a caller-chosen [`Exec`].
    ///
    /// **Contract:** `site` must already reflect the batch — call
    /// [`SiteModel::apply`] with the same events first. The index then
    /// converges to exactly the state [`Self::build`] would produce from
    /// that site and the post-join clustering (same stats, same bound list
    /// per `(tag, cluster)`, same refinement groups, same answer to every
    /// query — a proptested invariant), without the rebuild.
    ///
    /// Four phases:
    ///
    /// 1. **Recluster-on-join.** Each event tagger without a cluster is
    ///    assigned by the greedy-leader predicate of the clustering's own
    ///    strategy ([`crate::cluster::strategy_named`]) against the current
    ///    cluster leaders — first match joins, no match founds a singleton.
    ///    Late joiners therefore answer their next query from their
    ///    cluster's bounds ([`ClusteredQueryReport::unclustered`] clears)
    ///    with no rebuild; a clustering whose strategy name is unknown
    ///    (e.g. the empty default) founds singletons.
    /// 2. **Refinement splice.** Each event's `(tag, item)` tagger group is
    ///    re-read from the site and spliced into the flat arena
    ///    (hole-free; unchanged groups keep their layout).
    /// 3. **Bound patch.** An event moves the bound of `(tag, C, item)`
    ///    only when `C` holds a network member of the tagger; a join can
    ///    additionally raise its new cluster's bounds for every item the
    ///    joiner scores on. Exactly those keys are enumerated,
    ///    deduplicated, recomputed read-only in parallel shards (max over
    ///    the cluster's members), and patched sequentially; a new list is
    ///    appended to the pool and an emptied one's slot is refilled with
    ///    the pool's last list.
    /// 4. **Stamp bump** — only if anything changed, so a redundant batch
    ///    is a true no-op and warm gather caches stay valid; any effective
    ///    change moves [`Self::build_stamp`] and invalidates them.
    pub fn apply_with(
        &mut self,
        exec: &Exec,
        site: &SiteModel,
        events: &[TagEvent],
    ) -> ApplyReport {
        // lint: allow(no_panic, reason = "documented panicking convenience wrapper; serving paths use the adjacent try_ form and get a typed error")
        self.try_apply_with(exec, site, events).unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`Self::apply_with`] with an error channel, **all-or-nothing per
    /// batch**: [`Self::plan_apply`] over `site` (which already reflects
    /// the batch, so the view has nothing pending), then
    /// [`Self::commit_apply`]. Every fallible step — capacity validation,
    /// or an injected fault at any of
    /// [`crate::faults::CLUSTERED_APPLY_PHASE1`] /
    /// [`crate::faults::CLUSTERED_APPLY_PHASE2`] /
    /// [`crate::faults::CLUSTERED_APPLY_PHASE3`] — belongs to the
    /// read-only plan, so an `Err` return leaves the index byte-identical
    /// to its pre-call state — bound lists, refinement groups, clustering,
    /// build stamp — and site + index + clustering can never be observed
    /// torn.
    pub fn try_apply_with(
        &mut self,
        exec: &Exec,
        site: &SiteModel,
        events: &[TagEvent],
    ) -> crate::Result<ApplyReport> {
        let plan = self.plan_apply(exec, &site.view(), events)?;
        Ok(self.commit_apply(plan))
    }

    /// Plan the first three phases of [`Self::apply_with`] without
    /// touching the index: `site` answers as the model will *after* the
    /// batch (a [`SiteView`] over a planned
    /// [`crate::sitemodel::SiteDelta`], or [`SiteModel::view`] of a model
    /// that already took it). New tags and recluster-on-join placements
    /// are recorded rather than applied to copies of the symbol table and
    /// the clustering; changed refinement groups are encoded; affected
    /// bounds are recomputed read-only and compared with the stored ones,
    /// so the plan holds exactly the entries that change; and every
    /// capacity bound is validated. Fires
    /// [`crate::faults::CLUSTERED_APPLY_PHASE1`] /
    /// [`crate::faults::CLUSTERED_APPLY_PHASE2`] /
    /// [`crate::faults::CLUSTERED_APPLY_PHASE3`] after the respective
    /// phase.
    pub fn plan_apply(
        &self,
        exec: &Exec,
        site: &SiteView<'_>,
        events: &[TagEvent],
    ) -> crate::Result<ClusteredApplyPlan> {
        let mut tags = PlannedTags::new(&self.tags);
        let event_tags =
            events.iter().map(|e| tags.intern(e.tag())).collect::<crate::Result<Vec<TagId>>>()?;
        // Phase 1: recluster-on-join.
        let mut joins = PlannedJoins::new(&self.clustering);
        for event in events {
            joins.place(site, event.tagger());
        }
        crate::faults::fire(crate::faults::CLUSTERED_APPLY_PHASE1)?;
        // Phase 2: refinement changes — only groups whose content moved.
        let mut group_changes: FxHashMap<(TagId, NodeId), Vec<NodeId>> = FxHashMap::default();
        for (event, &tag) in events.iter().zip(&event_tags) {
            let key = (tag, event.item());
            if group_changes.contains_key(&key) {
                continue;
            }
            let new = site.taggers_of(event.item(), event.tag());
            if self.refinement.taggers(tag, event.item()) != new {
                group_changes.insert(key, new.to_vec());
            }
        }
        let splice = self.refinement.plan_splice(group_changes)?;
        crate::faults::fire(crate::faults::CLUSTERED_APPLY_PHASE2)?;
        // Phase 3: affected bound keys — event effects through the
        // tagger's network members' clusters, join effects through the
        // joiner's own non-zero scores.
        let mut affected: Vec<(TagId, ClusterId, NodeId)> = Vec::new();
        for (event, &tag) in events.iter().zip(&event_tags) {
            for &member in site.network_of(event.tagger()) {
                if let Some(cluster) = joins.cluster_of(member) {
                    affected.push((tag, cluster, event.item()));
                }
            }
        }
        for &(user, cluster) in joins.placements() {
            for &friend in site.network_of(user) {
                for &item in site.items_of(friend) {
                    for (tag, taggers) in site.item_tags(item) {
                        if taggers.binary_search(&friend).is_ok() {
                            affected.push((tags.intern(tag)?, cluster, item));
                        }
                    }
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        // Read-only recompute, sharded: each affected bound is the max of
        // one sorted-merge intersection per cluster member, kept only
        // where it differs from the stored bound (0 = remove).
        let (planned, members) = (&tags, &joins);
        let sharded: Vec<Vec<Option<f64>>> =
            exec.run_sharded(affected.len(), APPLY_MIN_UNITS_PER_SHARD, |_, range| {
                range
                    .map(|i| {
                        let (tag, cluster, item) = affected[i];
                        // lint: allow(no_panic, reason = "true invariant: the pre-shard walk interned every affected tag into this table")
                        let name = planned.resolve(tag).expect("affected tags interned above");
                        let taggers = site.taggers_of(item, name);
                        let mut bound = 0.0f64;
                        for member in members.members(cluster) {
                            let score = count_intersection(site.network_of(member), taggers) as f64;
                            if score > bound {
                                bound = score;
                            }
                        }
                        let stored = self.list_by_id(tag, cluster).and_then(|l| l.score_of(item));
                        changed_score(stored, bound)
                    })
                    .collect()
            });
        let patch: Vec<(TagId, ClusterId, NodeId, f64)> = affected
            .iter()
            .zip(sharded.into_iter().flatten())
            .filter_map(|(&(tag, cluster, item), bound)| Some((tag, cluster, item, bound?)))
            .collect();
        // Validate: the commit pools one new list per absent
        // `(tag, cluster)` key that gained a positive bound; the layout
        // must stay within the slot bound. The patch is key-sorted, so new
        // keys group.
        let mut new_lists = 0u64;
        let mut last_new: Option<(TagId, ClusterId)> = None;
        for &(tag, cluster, _, bound) in &patch {
            if bound > 0.0
                && last_new != Some((tag, cluster))
                && !self.list_ids.contains_key(&(tag, cluster))
            {
                new_lists += 1;
                last_new = Some((tag, cluster));
            }
        }
        if self.list_pool.len() as u64 + new_lists > MAX_LAYOUT_SLOTS {
            return Err(crate::ContentError::CapacityExceeded {
                what: "bound lists",
                limit: MAX_LAYOUT_SLOTS,
            });
        }
        crate::faults::fire(crate::faults::CLUSTERED_APPLY_PHASE3)?;
        let joins = joins.placements().to_vec();
        let report = ApplyReport {
            changed_entries: patch.len(),
            changed_groups: splice.len(),
            cluster_joins: joins.len(),
        };
        Ok(ClusteredApplyPlan { new_tags: tags.into_names(), joins, splice, patch, report })
    }

    /// Land a plan made by [`Self::plan_apply`] against this very index
    /// (nothing may touch the index in between) — the commit of
    /// [`Self::apply_with`]'s phases 1–3 plus phase 4. Infallible and in
    /// place: the recorded tags and joins land, the refinement splice
    /// copies unchanged arena runs through, each changed bound list is
    /// patched in one pass, new lists are appended to the pool and
    /// emptied ones give their slots to the pool's last lists.
    pub fn commit_apply(&mut self, plan: ClusteredApplyPlan) -> ApplyReport {
        let ClusteredApplyPlan { new_tags, joins, splice, patch, report } = plan;
        self.tags.commit(new_tags);
        self.clustering.commit_joins(&joins);
        self.refinement.commit_splice(splice);
        let mut emptied: Vec<u32> = Vec::new();
        for run in key_runs(&patch, |&(tag, cluster, ..)| (tag, cluster)) {
            let key = (run[0].0, run[0].1);
            let entries = run.iter().map(|&(_, _, item, bound)| (item, bound));
            match self.list_ids.get(&key).copied() {
                Some(slot) => {
                    let list = &mut self.list_pool[slot as usize];
                    patch_list(list, entries, self.layout);
                    if list.is_empty() {
                        self.list_ids.remove(&key);
                        emptied.push(slot);
                    }
                }
                None => {
                    let list = patched_new_list(entries, self.layout);
                    if !list.is_empty() {
                        // Validated against MAX_LAYOUT_SLOTS by the plan:
                        // cannot truncate.
                        let slot = self.list_pool.len() as u32;
                        self.list_ids.insert(key, slot);
                        self.list_pool.push(list);
                    }
                }
            }
        }
        if !emptied.is_empty() {
            self.release_slots(emptied);
        }
        // Phase 4: the stamp moves only when something did.
        if !report.is_noop() {
            self.stamp = next_build_stamp();
        }
        report
    }

    /// Drop emptied lists (already gone from the key table) from the pool
    /// without moving any other list but the ones that fill the holes:
    /// each freed slot, highest first, takes the pool's current last list.
    /// The keys of the lists that can move are found in one pass over the
    /// key table — only ever run when a list empties.
    fn release_slots(&mut self, mut freed: Vec<u32>) {
        freed.sort_unstable_by(|a, b| b.cmp(a));
        let tail_from = self.list_pool.len() - freed.len();
        let mut tail_keys: FxHashMap<u32, (TagId, ClusterId)> = self
            .list_ids
            .iter()
            .filter(|&(_, &slot)| slot as usize >= tail_from)
            .map(|(&key, &slot)| (slot, key))
            .collect();
        for slot in freed {
            let last = (self.list_pool.len() - 1) as u32;
            self.list_pool.swap_remove(slot as usize);
            // A freed last slot just pops: its key is no longer in the table.
            if let Some(key) = tail_keys.remove(&last) {
                self.list_ids.insert(key, slot);
                tail_keys.insert(slot, key);
            }
        }
    }

    /// The tag symbol table the index is keyed on.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// The keyword-first `tag → item → taggers` refinement index exact
    /// scores are recomputed from.
    pub fn refinement(&self) -> &RefinementIndex {
        &self.refinement
    }

    /// The list for a `(tag, cluster)` pair. Allocation-free when the probe
    /// tag is already lowercase.
    pub fn list(&self, tag: &str, cluster: ClusterId) -> Option<&PostingList> {
        self.list_by_id(self.tags.get(tag)?, cluster)
    }

    /// The list for an interned `(tag, cluster)` pair.
    pub fn list_by_id(&self, tag: TagId, cluster: ClusterId) -> Option<&PostingList> {
        self.list_ids.get(&(tag, cluster)).map(|&slot| &self.list_pool[slot as usize])
    }

    /// Space statistics of the *upper-bound lists* alone — the quantity
    /// Eq. 1's space/exactness trade-off bounds against the exact index
    /// (clustered bound entries never exceed exact entries, a proptest
    /// invariant). The embedded refinement index is accounted separately:
    /// see [`Self::stats_with_refinement`].
    pub fn stats(&self) -> IndexStats {
        let entries: usize = self.list_pool.iter().map(PostingList::len).sum();
        let profile = self.memory_profile();
        IndexStats {
            lists: self.list_pool.len(),
            entries,
            bytes: entries * BYTES_PER_ENTRY,
            heap_bytes: profile.pool_bytes + profile.tables_bytes,
        }
    }

    /// Real heap footprint by component: the bound-list pool (both access
    /// orders, under the current [`Layout`]), the refinement arena with
    /// its span maps, and the key tables. See [`MemoryProfile`].
    pub fn memory_profile(&self) -> MemoryProfile {
        let mut pool = 0usize;
        for list in &self.list_pool {
            let (sorted, companion) = list.heap_bytes();
            pool += sorted + companion;
        }
        let tables = table_bytes::<(TagId, ClusterId), u32>(self.list_ids.len())
            + self.list_pool.len() * std::mem::size_of::<PostingList>();
        MemoryProfile {
            pool_bytes: pool,
            refinement_bytes: self.refinement.heap_bytes(),
            tables_bytes: tables,
            ..MemoryProfile::default()
        }
    }

    /// Space statistics of the full clustered deployment: the upper-bound
    /// lists *plus* the keyword-first refinement index. The refinement
    /// arena stores the same tagger groups the site model already holds —
    /// query-time refinement used to probe those at string-hashing cost —
    /// so this is storage *reoriented* for cheap random access, not new
    /// data; but it is what the clustered index actually occupies, and the
    /// honest number to weigh against [`ExactIndex::stats`].
    pub fn stats_with_refinement(&self) -> IndexStats {
        let bounds = self.stats();
        let refinement = self.refinement.stats();
        IndexStats {
            lists: bounds.lists + refinement.lists,
            entries: bounds.entries + refinement.entries,
            bytes: bounds.bytes + refinement.bytes,
            heap_bytes: bounds.heap_bytes + refinement.heap_bytes,
        }
    }

    /// Top-k query for a user. Candidate generation uses the upper-bound
    /// lists of the user's own cluster; exact scores are recomputed at
    /// query time (the processing overhead the clustering trade-off
    /// accepts) through the keyword-first [`RefinementIndex`], whose tags
    /// the query pre-resolves exactly once. Duplicate keywords (in any
    /// casing) count once — a query is a keyword set — and an empty or
    /// fully-unknown keyword set returns the defined empty result (empty
    /// ranking, zero counters). `site` must be the model the index was
    /// built from. An unclustered user gets the empty-with-flag semantic
    /// documented on [`ClusteredQueryReport::unclustered`].
    pub fn query(
        &self,
        site: &SiteModel,
        user: NodeId,
        keywords: &[String],
        k: usize,
    ) -> ClusteredQueryReport {
        let tag_ids = QueryTags::resolve(&self.tags, keywords);
        let resolved = self.refinement.resolve(tag_ids.as_slice());
        let cluster = self.clustering.cluster_of(user);
        let lists = self.gather_cluster_lists(cluster, tag_ids.as_slice());
        let (mut topk, mut spans) = (TopKScratch::default(), Vec::new());
        let scratch = ClusterScratch { topk: &mut topk, spans: &mut spans };
        let gathered =
            GatheredQuery { lists: &lists, resolved: &resolved, unclustered: cluster.is_none() };
        self.query_gathered(site, user, &gathered, k, scratch)
    }

    /// The upper-bound lists of one cluster for a resolved keyword set.
    fn gather_cluster_lists(
        &self,
        cluster: Option<ClusterId>,
        tag_ids: &[TagId],
    ) -> QueryLists<'_> {
        QueryLists::gather(
            tag_ids.iter().filter_map(|&tag| cluster.and_then(|c| self.list_by_id(tag, c))),
        )
    }

    /// Evaluate one user against one gathered cluster group. Shared by
    /// [`Self::query`] and the batch path, so batch results are
    /// element-wise identical to single calls. The gathered refinement view
    /// is resolved once per query (per batch in the batch path) —
    /// exact-score recomputation runs once per candidate, so per-query
    /// work must stay out of it: the closure handed to the top-k kernel
    /// closes over the pre-gathered per-tag maps and the seeker's frozen
    /// network slice, nothing else.
    fn query_gathered(
        &self,
        site: &SiteModel,
        user: NodeId,
        gathered: &GatheredQuery<'_, '_>,
        k: usize,
        scratch: ClusterScratch<'_>,
    ) -> ClusteredQueryReport {
        let ClusterScratch { topk, spans } = scratch;
        let network = site.network_of(user);
        let resolved = gathered.resolved;
        let result =
            top_k_with(topk, gathered.lists.as_slice(), k, |item| resolved.score(network, item));
        spans.clear();
        spans.extend(network.iter().filter_map(|v| self.clustering.cluster_of(*v)));
        spans.sort_unstable();
        spans.dedup();
        ClusteredQueryReport {
            result,
            network_clusters_spanned: spans.len(),
            unclustered: gathered.unclustered,
            deadline_expired: false,
        }
    }

    /// Top-k for a whole batch of users sharing one keyword set. Keywords
    /// resolve once and the refinement index's per-tag maps are
    /// pre-resolved once *for the whole batch*, users are grouped by
    /// cluster so each cluster's upper-bound lists are gathered a single
    /// time and walked while hot, and the evaluation scratch is reused
    /// across the batch. Results arrive in input order and each equals the
    /// corresponding [`Self::query`] call exactly — unclustered members
    /// included (empty-with-flag, see
    /// [`ClusteredQueryReport::unclustered`]). Threads come from
    /// [`Exec::auto`]; behaviour knobs (execution, scratch reuse) come
    /// through [`BatchOptions`], which carries the migration table from
    /// the retired `query_batch` method matrix.
    pub fn query_batch_opts(
        &self,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<ClusteredQueryReport> {
        let exec = opts.exec.unwrap_or_else(Exec::auto);
        let deadline = Deadline::new(opts.deadline);
        match opts.scratch {
            Some(ScratchSlot::Single(scratch)) => {
                self.serve_batch_seq(scratch, site, users, keywords, k, deadline)
            }
            Some(ScratchSlot::Pool(pool)) => {
                self.serve_batch_sharded(&exec, pool, site, users, keywords, k, deadline)
            }
            None => self.serve_batch_sharded(
                &exec,
                &mut BatchScratchPool::default(),
                site,
                users,
                keywords,
                k,
                deadline,
            ),
        }
    }

    /// Deprecated spelling of the default batch entry point.
    #[deprecated(since = "0.1.0", note = "use `query_batch_opts` with `BatchOptions::new()`")]
    pub fn query_batch(
        &self,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<ClusteredQueryReport> {
        self.query_batch_opts(site, users, keywords, k, BatchOptions::new())
    }

    /// Deprecated spelling of the sequential scratch-reusing batch path.
    #[deprecated(
        since = "0.1.0",
        note = "use `query_batch_opts` with `BatchOptions::new().scratch(..)`"
    )]
    pub fn query_batch_with(
        &self,
        scratch: &mut BatchScratch,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<ClusteredQueryReport> {
        self.serve_batch_seq(scratch, site, users, keywords, k, Deadline::unbounded())
    }

    /// Deprecated spelling of the multi-threaded batch path.
    #[deprecated(
        since = "0.1.0",
        note = "use `query_batch_opts` with `BatchOptions::new().exec(..)`"
    )]
    pub fn query_batch_par(
        &self,
        exec: &Exec,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<ClusteredQueryReport> {
        self.query_batch_opts(site, users, keywords, k, BatchOptions::new().exec(exec))
    }

    /// Deprecated spelling of the multi-threaded pool-reusing batch path.
    #[deprecated(
        since = "0.1.0",
        note = "use `query_batch_opts` with `BatchOptions::new().exec(..).scratch_pool(..)`"
    )]
    pub fn query_batch_par_with(
        &self,
        exec: &Exec,
        pool: &mut BatchScratchPool,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
    ) -> Vec<ClusteredQueryReport> {
        self.serve_batch_sharded(exec, pool, site, users, keywords, k, Deadline::unbounded())
    }

    /// The sequential batch path behind [`Self::query_batch_opts`]:
    /// a caller-owned [`BatchScratch`], no worker threads. Across calls
    /// the scratch additionally caches each cluster's gathered bound-list
    /// spans for the current resolved keyword set (the scratch's internal
    /// gather cache): a serving loop whose consecutive batches share a
    /// keyword set — the hot-query pattern — re-gathers every cluster with
    /// one probe instead of one per tag.
    fn serve_batch_seq(
        &self,
        scratch: &mut BatchScratch,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        deadline: Deadline,
    ) -> Vec<ClusteredQueryReport> {
        let tag_ids = QueryTags::resolve(&self.tags, keywords);
        let resolved = self.refinement.resolve(tag_ids.as_slice());
        // The order buffer leaves the scratch while the group walk borrows
        // the rest of it, and returns before the call ends.
        let mut order = std::mem::take(&mut scratch.order);
        self.cluster_order(&mut order, users);
        let mut results: Vec<ClusteredQueryReport> = Vec::with_capacity(users.len());
        results.resize_with(users.len(), ClusteredQueryReport::default);
        self.serve_cluster_groups(
            site,
            users,
            &order,
            tag_ids.as_slice(),
            &resolved,
            k,
            scratch,
            deadline,
            |position, report| results[position as usize] = report,
        );
        scratch.order = order;
        results
    }

    /// The sharded batch path behind [`Self::query_batch_opts`].
    ///
    /// The batch is resolved and cluster-grouped exactly as the sequential
    /// path does, then split into contiguous runs of whole **cluster
    /// groups** (a group's bound lists are gathered once, by one worker),
    /// one scoped-thread worker per run with its own [`BatchScratch`] —
    /// evaluation state *and* gather cache. Every worker runs the same
    /// group walk the sequential path runs and writes to output slots no
    /// other worker touches, so results stay element-wise identical to
    /// single [`Self::query`] calls — and to the sequential batch path —
    /// for every thread count (a proptested invariant). Batches too small
    /// to amortize worker spawns take the sequential path outright.
    #[allow(clippy::too_many_arguments)]
    fn serve_batch_sharded(
        &self,
        exec: &Exec,
        pool: &mut BatchScratchPool,
        site: &SiteModel,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        deadline: Deadline,
    ) -> Vec<ClusteredQueryReport> {
        let shards = exec.shard_count(users.len(), SHARD_MIN_USERS);
        if shards <= 1 {
            return self.serve_batch_seq(pool.worker(), site, users, keywords, k, deadline);
        }
        let tag_ids = QueryTags::resolve(&self.tags, keywords);
        let tag_ids = tag_ids.as_slice();
        let resolved = self.refinement.resolve(tag_ids);
        let BatchScratchPool { order, workers } = pool;
        self.cluster_order(order, users);
        let chunks = cluster_chunks(order, shards);
        let sharded: Vec<Vec<(u32, ClusteredQueryReport)>> = exec.run_chunks_with(
            grow_workers(workers, chunks.len()),
            &chunks,
            |scratch, _, range| {
                let mut out: Vec<(u32, ClusteredQueryReport)> = Vec::with_capacity(range.len());
                self.serve_cluster_groups(
                    site,
                    users,
                    &order[range],
                    tag_ids,
                    &resolved,
                    k,
                    scratch,
                    deadline,
                    |position, report| out.push((position, report)),
                );
                out
            },
        );
        let mut results: Vec<ClusteredQueryReport> = Vec::with_capacity(users.len());
        results.resize_with(users.len(), ClusteredQueryReport::default);
        for shard in sharded {
            for (position, report) in shard {
                results[position as usize] = report;
            }
        }
        results
    }

    /// Fill `order` with the batch's `(cluster key, position)` pairs,
    /// sorted so members of one cluster are contiguous (unclustered
    /// members last, under [`NO_SLOT`]).
    fn cluster_order(&self, order: &mut Vec<(u32, u32)>, users: &[NodeId]) {
        order.clear();
        order.extend(users.iter().enumerate().map(|(position, user)| {
            let cluster = self
                .clustering
                .cluster_of(*user)
                // NO_SLOT (u32::MAX) is reserved for "unclustered". A
                // cluster id past that bound cannot be keyed — `clustering`
                // is a public field, so build-time validation cannot rule
                // it out — and degrades to the documented unclustered
                // (empty-with-flag) semantic instead of aborting.
                .and_then(|c| u32::try_from(c.0).ok().filter(|&s| s != NO_SLOT))
                .unwrap_or(NO_SLOT);
            (cluster, position as u32)
        }));
        order.sort_unstable();
    }

    /// Gather one cluster's bound lists for a resolved keyword set through
    /// the scratch-level [`GatherCache`]: on a cache hit the per-tag table
    /// probes are skipped entirely — the cached pool slots replay the
    /// gather. Stale entries cannot survive: the cache is keyed on this
    /// index's build stamp and the exact resolved tag sequence.
    fn gather_cached<'i>(
        &'i self,
        cache: &mut GatherCache,
        cluster: ClusterId,
        tag_ids: &[TagId],
    ) -> QueryLists<'i> {
        // Stamp 0 means "no build identity" (default-constructed or
        // deserialized): such an index never caches, because two distinct
        // stamp-0 indexes would be indistinguishable to the cache.
        if self.stamp == 0 {
            return self.gather_cluster_lists(Some(cluster), tag_ids);
        }
        if cache.stamp != self.stamp || cache.tags != tag_ids {
            cache.stamp = self.stamp;
            cache.tags.clear();
            cache.tags.extend_from_slice(tag_ids);
            cache.spans.clear();
        }
        let slots = cache.spans.entry(cluster).or_insert_with(|| {
            tag_ids.iter().filter_map(|&tag| self.list_ids.get(&(tag, cluster)).copied()).collect()
        });
        QueryLists::gather(slots.iter().map(|&slot| &self.list_pool[slot as usize]))
    }

    /// Serve a cluster-ordered run of `(cluster key, position)` pairs: find
    /// each cluster group's extent, gather its bound lists once (through
    /// the scratch's cross-batch cache) and evaluate every member, handing
    /// each report to `sink(position, report)`. The single shared walk of
    /// both batch paths. The deadline is checked cooperatively before each
    /// [`DEADLINE_CHECK_STRIDE`]-member chunk of a group; once it expires,
    /// every remaining member of this run gets the defined empty-with-flag
    /// report ([`ClusteredQueryReport::deadline_expired`]) and remaining
    /// groups skip their gathers outright.
    #[allow(clippy::too_many_arguments)]
    fn serve_cluster_groups(
        &self,
        site: &SiteModel,
        users: &[NodeId],
        order: &[(u32, u32)],
        tag_ids: &[TagId],
        resolved: &ResolvedRefinement<'_>,
        k: usize,
        scratch: &mut BatchScratch,
        mut deadline: Deadline,
        mut sink: impl FnMut(u32, ClusteredQueryReport),
    ) {
        let BatchScratch { topk, spans, gather, .. } = scratch;
        let mut start = 0usize;
        let mut expired = false;
        while start < order.len() {
            let key = order[start].0;
            let end = start
                + order[start..].iter().position(|&(c, _)| c != key).unwrap_or(order.len() - start);
            if expired {
                for &(_, position) in &order[start..end] {
                    sink(position, Self::expired_report());
                }
                start = end;
                continue;
            }
            let cluster = (key != NO_SLOT).then_some(ClusterId(key as usize));
            let lists = match cluster {
                Some(cluster) => self.gather_cached(gather, cluster, tag_ids),
                // Unclustered members have no bound lists to gather.
                None => QueryLists::gather(std::iter::empty()),
            };
            let gathered =
                GatheredQuery { lists: &lists, resolved, unclustered: cluster.is_none() };
            for chunk in order[start..end].chunks(DEADLINE_CHECK_STRIDE) {
                expired = expired || deadline.expired();
                for &(_, position) in chunk {
                    if expired {
                        sink(position, Self::expired_report());
                        continue;
                    }
                    let user = users[position as usize];
                    let scratch = ClusterScratch { topk: &mut *topk, spans: &mut *spans };
                    sink(position, self.query_gathered(site, user, &gathered, k, scratch));
                }
            }
            start = end;
        }
    }

    /// The defined degraded report of a deadline expiry: empty, with both
    /// flags set (the embedded [`TopKResult::deadline_expired`] and the
    /// report-level [`ClusteredQueryReport::deadline_expired`]).
    fn expired_report() -> ClusteredQueryReport {
        ClusteredQueryReport {
            result: TopKResult::expired(),
            deadline_expired: true,
            ..ClusteredQueryReport::default()
        }
    }
}

/// Split a cluster-ordered batch into at most `shards` contiguous chunks
/// that never cut through a cluster group (each group's bound lists are
/// gathered by exactly one worker), targeting near-equal member counts.
fn cluster_chunks(order: &[(u32, u32)], shards: usize) -> Vec<std::ops::Range<usize>> {
    let mut chunks: Vec<std::ops::Range<usize>> = Vec::with_capacity(shards);
    let target = order.len().div_ceil(shards.max(1));
    let mut start = 0usize;
    let mut cursor = 0usize;
    while cursor < order.len() {
        // Advance to the end of the current cluster group.
        let key = order[cursor].0;
        cursor +=
            order[cursor..].iter().position(|&(c, _)| c != key).unwrap_or(order.len() - cursor);
        // Close the chunk once it reaches the target, unless it is the last
        // allowed chunk (which takes everything that remains).
        if cursor - start >= target && chunks.len() + 1 < shards {
            chunks.push(start..cursor);
            start = cursor;
        }
    }
    if start < order.len() {
        chunks.push(start..order.len());
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{BehaviorBasedClustering, ClusteringStrategy, NetworkBasedClustering};
    use crate::topk::top_k_exhaustive;
    use socialscope_graph::GraphBuilder;

    /// A small tagging site with two friend groups and overlapping tags.
    fn site() -> (SiteModel, Vec<NodeId>, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let users: Vec<NodeId> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
        let items: Vec<NodeId> =
            (0..5).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        // Group A: u0-u1-u2 clique.
        b.befriend(users[0], users[1]);
        b.befriend(users[1], users[2]);
        b.befriend(users[0], users[2]);
        // Group B: u3-u4-u5 clique.
        b.befriend(users[3], users[4]);
        b.befriend(users[4], users[5]);
        b.befriend(users[3], users[5]);
        // Tags: group A tags items 0-2 with "baseball"; group B tags 2-4
        // with "museum"; item 2 is shared.
        b.tag(users[1], items[0], &["baseball"]);
        b.tag(users[2], items[1], &["baseball", "stadium"]);
        b.tag(users[1], items[2], &["baseball"]);
        b.tag(users[4], items[2], &["museum"]);
        b.tag(users[5], items[3], &["museum"]);
        b.tag(users[4], items[4], &["museum", "history"]);
        (SiteModel::from_graph(&b.build()), users, items)
    }

    #[test]
    fn exact_index_scores_match_site_model() {
        let (site, users, items) = site();
        let index = ExactIndex::build(&site);
        // score_baseball(i0, u0): network(u0) = {u1, u2}; u1 tagged i0.
        let list = index.list("baseball", users[0]).unwrap();
        assert_eq!(list.score_of(items[0]), Some(1.0));
        assert_eq!(
            list.score_of(items[0]).unwrap(),
            site.keyword_score(items[0], users[0], "baseball")
        );
        // Every stored entry agrees with the model.
        for tag in site.tags() {
            for u in site.users() {
                if let Some(list) = index.list(tag, u) {
                    for p in list.iter() {
                        assert_eq!(p.score, site.keyword_score(p.item, u, tag));
                    }
                }
            }
        }
    }

    #[test]
    fn lookups_intern_and_normalize_tags() {
        let (site, users, _) = site();
        let index = ExactIndex::build(&site);
        // The interner holds each distinct stored tag exactly once.
        assert_eq!(index.tags().len(), site.tag_count());
        // Any casing of the probe resolves to the same interned list.
        let id = index.tags().get("BASEBALL").unwrap();
        assert_eq!(index.tags().resolve(id), Some("baseball"));
        assert_eq!(
            index.list("BaseBall", users[0]).map(PostingList::len),
            index.list_by_id(id, users[0]).map(PostingList::len)
        );
        assert!(index.list("nonexistent", users[0]).is_none());
    }

    #[test]
    fn exact_index_query_matches_exhaustive_oracle() {
        let (site, users, _) = site();
        let index = ExactIndex::build(&site);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        for &u in &users {
            let res = index.query(u, &keywords, 3);
            let oracle = top_k_exhaustive(site.items(), 3, |i| site.query_score(i, u, &keywords));
            // Every returned score is the true score of the returned item.
            for (item, score) in &res.ranked {
                assert_eq!(*score, site.query_score(*item, u, &keywords));
            }
            // The positive part of the ranking (ignoring zero-score padding
            // and tie order) matches the exhaustive oracle.
            let oracle_scores: Vec<f64> =
                oracle.ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect();
            let got_scores: Vec<f64> =
                res.ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect();
            assert_eq!(got_scores, oracle_scores, "user {u}");
        }
    }

    /// Freeing several pool slots at once fills each hole with the pool's
    /// last list, highest hole first — so a list moved into a hole near
    /// the tail can move again into a lower one — and every surviving key
    /// still finds its own list.
    #[test]
    fn released_slots_keep_every_key_on_its_list() {
        let (site, _, _) = site();
        let mut index = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let before: Vec<((TagId, ClusterId), PostingList)> = index
            .list_ids
            .iter()
            .map(|(&key, &slot)| (key, index.list_pool[slot as usize].clone()))
            .collect();
        let len = index.list_pool.len();
        assert!(len >= 4, "the fixture needs at least four lists, has {len}");
        let freed = [1u32, len as u32 - 2];
        let mut gone = Vec::new();
        for slot in freed {
            let key = *index.list_ids.iter().find(|&(_, &s)| s == slot).unwrap().0;
            index.list_ids.remove(&key);
            gone.push(key);
        }
        index.release_slots(freed.to_vec());
        assert_eq!(index.list_pool.len(), len - 2);
        let mut slots = std::collections::BTreeSet::new();
        for (key, list) in &before {
            if gone.contains(key) {
                assert!(!index.list_ids.contains_key(key));
                continue;
            }
            let slot = index.list_ids[key];
            assert_eq!(&index.list_pool[slot as usize], list, "key {key:?}");
            assert!(slots.insert(slot), "two keys share slot {slot}");
        }
    }

    #[test]
    fn clustered_index_is_smaller_and_bounds_are_admissible() {
        let (site, _, _) = site();
        let exact = ExactIndex::build(&site);
        let clustering = NetworkBasedClustering.cluster(&site, 0.3);
        let clustered = ClusteredIndex::build(&site, clustering);

        let es = exact.stats();
        let cs = clustered.stats();
        assert!(cs.entries <= es.entries, "clustered {cs:?} vs exact {es:?}");
        assert!(cs.lists <= es.lists);

        // Admissibility: every stored bound dominates the exact score of
        // every member of the cluster.
        for tag in site.tags() {
            for (cluster, members) in clustered.clustering.iter() {
                if let Some(list) = clustered.list(tag, cluster) {
                    for p in list.iter() {
                        for &u in members {
                            assert!(
                                p.score + 1e-9 >= site.keyword_score(p.item, u, tag),
                                "bound {} < exact for user {u}",
                                p.score
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clustered_query_returns_true_top_k() {
        let (site, users, _) = site();
        let clustering = NetworkBasedClustering.cluster(&site, 0.3);
        let clustered = ClusteredIndex::build(&site, clustering);
        let keywords = vec!["baseball".to_string()];
        for &u in &users {
            let report = clustered.query(&site, u, &keywords, 2);
            let oracle = top_k_exhaustive(site.items(), 2, |i| site.query_score(i, u, &keywords));
            let oracle_scores: Vec<f64> =
                oracle.ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect();
            let got_scores: Vec<f64> =
                report.result.ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect();
            assert_eq!(got_scores, oracle_scores, "user {u}");
        }
    }

    #[test]
    fn behavior_clustering_spans_more_network_clusters() {
        let (site, users, _) = site();
        let net = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.5));
        let beh = ClusteredIndex::build(&site, BehaviorBasedClustering.cluster(&site, 0.5));
        let keywords = vec!["baseball".to_string()];
        let net_span = net.query(&site, users[0], &keywords, 2).network_clusters_spanned;
        let beh_span = beh.query(&site, users[0], &keywords, 2).network_clusters_spanned;
        // u0's friends (u1, u2) share one network-based cluster but tag
        // different item sets, so they split across behaviour clusters.
        assert!(beh_span >= net_span);
    }

    #[test]
    fn stats_count_entries_and_bytes() {
        let (site, ..) = site();
        let index = ExactIndex::build(&site);
        let s = index.stats();
        assert!(s.entries > 0);
        assert_eq!(s.bytes, s.entries * BYTES_PER_ENTRY);
        assert!(s.lists > 0);
        // The measured footprint covers *every* heap component: the raw
        // layout stores each entry twice (16 B sorted access + 16 B
        // companion) plus slot tables, so it must exceed the paper model's
        // 10 B/entry, and it must equal the per-component profile exactly.
        let profile = index.memory_profile();
        assert_eq!(s.heap_bytes, profile.total());
        assert!(s.heap_bytes > s.bytes, "heap {} vs model {}", s.heap_bytes, s.bytes);
        assert!(profile.postings_bytes >= s.entries * 32);
        assert!(profile.tables_bytes > 0);
        assert_eq!(profile.pool_bytes, 0);
        assert_eq!(profile.refinement_bytes, 0);
    }

    /// The layout knob is purely physical: identical answers and counters
    /// on every query, strictly fewer heap bytes.
    #[test]
    fn compressed_indexes_answer_identically_and_shrink() {
        let (site, users, _) = site();
        let raw_exact = ExactIndex::builder(&site).layout(Layout::Raw).build();
        let packed_exact = ExactIndex::builder(&site).layout(Layout::Compressed).build();
        assert_eq!(raw_exact.layout(), Layout::Raw);
        assert_eq!(packed_exact.layout(), Layout::Compressed);
        let clustering = NetworkBasedClustering.cluster(&site, 0.3);
        let raw_clustered = ClusteredIndex::builder(&site)
            .clustering(clustering.clone())
            .layout(Layout::Raw)
            .build();
        let packed_clustered = ClusteredIndex::builder(&site)
            .clustering(clustering)
            .layout(Layout::Compressed)
            .build();
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        for &u in &users {
            for k in [1, 3, 10] {
                assert_eq!(raw_exact.query(u, &keywords, k), packed_exact.query(u, &keywords, k));
                assert_eq!(
                    raw_clustered.query(&site, u, &keywords, k),
                    packed_clustered.query(&site, u, &keywords, k)
                );
            }
        }
        // Same logical stats, smaller measured footprint.
        let (r, p) = (raw_exact.stats(), packed_exact.stats());
        assert_eq!((r.lists, r.entries, r.bytes), (p.lists, p.entries, p.bytes));
        assert!(p.heap_bytes < r.heap_bytes, "packed {} vs raw {}", p.heap_bytes, r.heap_bytes);
        let (rc, pc) =
            (raw_clustered.stats_with_refinement(), packed_clustered.stats_with_refinement());
        assert_eq!((rc.lists, rc.entries, rc.bytes), (pc.lists, pc.entries, pc.bytes));
        assert!(pc.heap_bytes < rc.heap_bytes);
    }

    #[test]
    fn clustered_stats_account_for_the_refinement_index() {
        let (site, ..) = site();
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let bounds = clustered.stats();
        let refinement = clustered.refinement().stats();
        let total = clustered.stats_with_refinement();
        // The refinement arena holds exactly the site's tagger references,
        // one list per (tag, item) group.
        let tagger_refs: usize = site.tag_assignments().map(|(_, _, t)| t.len()).sum();
        let groups = site.tag_assignments().count();
        assert_eq!(refinement.entries, tagger_refs);
        assert_eq!(refinement.lists, groups);
        assert_eq!(refinement.bytes, tagger_refs * BYTES_PER_ENTRY);
        assert_eq!(total.entries, bounds.entries + refinement.entries);
        assert_eq!(total.lists, bounds.lists + refinement.lists);
        assert_eq!(total.bytes, bounds.bytes + refinement.bytes);
    }

    #[test]
    fn unknown_user_or_tag_queries_are_empty() {
        let (site, ..) = site();
        let index = ExactIndex::build(&site);
        let res = index.query(NodeId(9999), &["baseball".to_string()], 3);
        assert!(res.ranked.is_empty());
        let res = index.query(NodeId(1), &["nonexistent".to_string()], 3);
        assert!(res.ranked.is_empty());
    }

    #[test]
    fn refinement_index_stores_the_site_tagger_groups() {
        let (site, _, _) = site();
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let refinement = clustered.refinement();
        let mut groups = 0usize;
        for (item, tag, taggers) in site.tag_assignments() {
            let id = clustered.tags().get(tag).expect("stored tag is interned");
            assert_eq!(refinement.taggers(id, item), taggers);
            groups += 1;
        }
        assert_eq!(refinement.group_count(), groups);
    }

    /// Empty keyword sets — literally empty, or all-unknown after workload
    /// tokenization dropped every token — get the *defined* empty result:
    /// empty ranking, zero counters, identical across single and batch
    /// paths of both engines.
    #[test]
    fn empty_keyword_sets_get_the_defined_empty_result() {
        let (site, users, _) = site();
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let empty: Vec<String> = Vec::new();
        let unknown = vec!["nonexistent".to_string(), "alsounknown".to_string()];
        for keywords in [&empty, &unknown] {
            for &u in &users {
                let res = exact.query(u, keywords, 3);
                assert_eq!(res, TopKResult::default());
                let report = clustered.query(&site, u, keywords, 3);
                assert_eq!(report.result, TopKResult::default());
                assert!(!report.unclustered, "every site user is clustered");
            }
            let batch = exact.query_batch_opts(&users, keywords, 3, BatchOptions::new());
            assert!(batch.iter().all(|r| r == &TopKResult::default()));
            let batch = clustered.query_batch_opts(&site, &users, keywords, 3, BatchOptions::new());
            for (got, &u) in batch.iter().zip(&users) {
                assert_eq!(got, &clustered.query(&site, u, keywords, 3));
            }
        }
    }

    /// One scratch arena reused across repeated batches, changing keyword
    /// sets and *different indexes* must stay exactly as correct as fresh
    /// scratches: the gather cache replays spans on repeats (the hot-query
    /// pattern) and is keyed on the index's build stamp plus the resolved
    /// tag sequence, so neither a keyword change nor an index change can
    /// serve stale gathers.
    #[test]
    fn gather_cache_survives_keyword_and_index_changes() {
        let (site, users, _) = site();
        let by_network = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let by_behavior = ClusteredIndex::build(&site, BehaviorBasedClustering.cluster(&site, 0.5));
        let queries: Vec<Vec<String>> = vec![
            vec!["baseball".to_string(), "museum".to_string()],
            vec!["museum".to_string()],
            vec!["baseball".to_string(), "museum".to_string()],
            vec!["stadium".to_string(), "history".to_string()],
        ];
        let mut scratch = BatchScratch::default();
        // Three rounds: the first fills caches, later rounds hit them (and
        // every keyword/index switch in between must invalidate cleanly).
        for round in 0..3 {
            for index in [&by_network, &by_behavior] {
                for keywords in &queries {
                    let opts = BatchOptions::new().scratch(&mut scratch);
                    let served = index.query_batch_opts(&site, &users, keywords, 2, opts);
                    for (got, &u) in served.iter().zip(&users) {
                        assert_eq!(
                            got,
                            &index.query(&site, u, keywords, 2),
                            "round {round} user {u} keywords {keywords:?}"
                        );
                    }
                }
            }
        }
    }

    /// A user added to the site *after* the clustering was built has no
    /// cluster: the documented semantic is an empty ranking with zeroed
    /// counters and `unclustered` set — identical in the single and batch
    /// paths — while `network_clusters_spanned` still reflects the user's
    /// (clustered) friends.
    #[test]
    fn unclustered_users_get_the_empty_with_flag_semantic() {
        // Build the clustering from the original six-user site…
        let (before, users, _) = site();
        let clustering = NetworkBasedClustering.cluster(&before, 0.3);
        // …then rebuild the graph with a late-joining user who befriends u1
        // and tags an item, and index the *new* site with the old
        // clustering (the "user added after clustering was built" case).
        let mut b = GraphBuilder::new();
        let rebuilt: Vec<NodeId> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
        let items: Vec<NodeId> =
            (0..5).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        b.befriend(rebuilt[0], rebuilt[1]);
        b.befriend(rebuilt[1], rebuilt[2]);
        b.befriend(rebuilt[0], rebuilt[2]);
        b.befriend(rebuilt[3], rebuilt[4]);
        b.befriend(rebuilt[4], rebuilt[5]);
        b.befriend(rebuilt[3], rebuilt[5]);
        b.tag(rebuilt[1], items[0], &["baseball"]);
        b.tag(rebuilt[2], items[1], &["baseball", "stadium"]);
        b.tag(rebuilt[1], items[2], &["baseball"]);
        b.tag(rebuilt[4], items[2], &["museum"]);
        b.tag(rebuilt[5], items[3], &["museum"]);
        b.tag(rebuilt[4], items[4], &["museum", "history"]);
        let late = b.add_user("late-joiner");
        b.befriend(late, rebuilt[1]);
        b.tag(late, items[0], &["baseball"]);
        let site = SiteModel::from_graph(&b.build());
        assert_eq!(rebuilt, users, "rebuilt ids must match the clustering's");
        assert!(clustering.cluster_of(late).is_none());

        let clustered = ClusteredIndex::build(&site, clustering);
        let keywords = vec!["baseball".to_string()];
        let report = clustered.query(&site, late, &keywords, 3);
        assert!(report.unclustered);
        assert!(report.result.ranked.is_empty());
        assert_eq!(report.result.sorted_accesses, 0);
        assert_eq!(report.result.exact_computations, 0);
        // The late joiner's friend u1 is clustered, so the span is visible.
        assert_eq!(report.network_clusters_spanned, 1);
        // Clustered members keep the flag unset, and the batch path agrees
        // element-wise with single queries for both kinds of member.
        let batch = vec![late, users[0], late, users[4]];
        let served = clustered.query_batch_opts(&site, &batch, &keywords, 3, BatchOptions::new());
        for (got, &u) in served.iter().zip(&batch) {
            assert_eq!(got, &clustered.query(&site, u, &keywords, 3));
            assert_eq!(got.unclustered, u == late);
        }
    }

    /// An already-expired budget degrades every batch member to the defined
    /// partial result — empty ranking, `deadline_expired` set — on both
    /// engines and at both thread counts, without panicking or serving
    /// garbage.
    #[test]
    fn an_expired_deadline_flags_every_batch_member() {
        let (site, users, _) = site();
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        for threads in [1usize, 4] {
            let exec = Exec::new(threads).unwrap();
            let opts = || BatchOptions::new().exec(&exec).deadline(std::time::Duration::ZERO);
            let served = exact.query_batch_opts(&users, &keywords, 3, opts());
            assert_eq!(served.len(), users.len());
            for res in &served {
                assert!(res.deadline_expired, "threads {threads}");
                assert!(res.ranked.is_empty());
                assert_eq!(res.sorted_accesses, 0);
            }
            let served = clustered.query_batch_opts(&site, &users, &keywords, 3, opts());
            assert_eq!(served.len(), users.len());
            for report in &served {
                assert!(report.deadline_expired, "threads {threads}");
                assert!(report.result.deadline_expired);
                assert!(report.result.ranked.is_empty());
            }
        }
    }

    /// A generous budget must be invisible: results are byte-identical to
    /// the unbounded batch and no `deadline_expired` flag is set.
    #[test]
    fn a_generous_deadline_changes_nothing() {
        let (site, users, _) = site();
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        let hour = std::time::Duration::from_secs(3600);
        for threads in [1usize, 4] {
            let exec = Exec::new(threads).unwrap();
            let unbounded = exact.query_batch_opts(&users, &keywords, 3, BatchOptions::new());
            let bounded = exact.query_batch_opts(
                &users,
                &keywords,
                3,
                BatchOptions::new().exec(&exec).deadline(hour),
            );
            assert_eq!(bounded, unbounded, "threads {threads}");
            assert!(bounded.iter().all(|r| !r.deadline_expired));
            let unbounded =
                clustered.query_batch_opts(&site, &users, &keywords, 3, BatchOptions::new());
            let bounded = clustered.query_batch_opts(
                &site,
                &users,
                &keywords,
                3,
                BatchOptions::new().exec(&exec).deadline(hour),
            );
            assert_eq!(bounded, unbounded, "threads {threads}");
            assert!(bounded.iter().all(|r| !r.deadline_expired));
        }
    }
}
