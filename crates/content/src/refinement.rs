//! Keyword-first refinement index for clustered query processing.
//!
//! The clustered index (§6.2, Eq. 1) surfaces candidates through score
//! *upper bounds* and must recompute the exact score `score_k(i, u)` per
//! candidate. Recomputing through [`crate::sitemodel::SiteModel`]'s
//! item-first `taggers(i, k)` orientation hashes the keyword *string* for
//! every candidate — the dominant cost of the clustered row in the E8
//! sweep. [`RefinementIndex`] stores the same tagger groups in a
//! keyword-first orientation, `tag → item → taggers`, keyed on interned
//! [`TagId`]s: a query resolves its tags to per-tag item maps **once**
//! ([`RefinementIndex::resolve`]), and each candidate's exact score is then
//! a handful of integer-keyed probes plus merge intersections of sorted id
//! runs — zero string hashing and zero allocation per candidate.
//!
//! This is the cheap random access the threshold-algorithm lineage (Fagin
//! et al.) assumes; clustering violated it, and this orientation restores
//! it without giving up the clustered index's space savings.
//!
//! The arena itself has two physical layouts ([`crate::posting::Layout`]):
//! raw (`Vec<NodeId>`, zero decode cost) and compressed (each group's
//! ascending tagger run varint delta-encoded independently — first id
//! absolute, the rest gaps — so the hot merge-intersection of
//! [`ResolvedRefinement::score`] stays a sequential decode and every
//! group's byte size is a pure function of its contents, independent of
//! arena order: delta-maintained and rebuilt compressed arenas occupy
//! identical bytes). Groups longer than `SKIP_EVERY` carry a per-block
//! skip header (the block's last tagger plus its payload byte length), so
//! an intersection against a small seeker network hops over blocks that
//! cannot match without decoding them — the Zipf-head `(tag, item)` groups
//! of a large site are exactly the ones a query's refinement probes most.

use crate::index::IndexStats;
use crate::inline::InlineVec;
use crate::posting::{Layout, BYTES_PER_ENTRY, SKIP_EVERY};
use crate::sitemodel::count_intersection;
use crate::tags::TagId;
use crate::varint::{get_u64, put_u64};
use serde::{Deserialize, Serialize};
use socialscope_graph::{FxHashMap, NodeId};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Location of one `(tag, item)` tagger group inside the shared arena:
/// `start` is an element index into the raw arena or a byte offset into the
/// compressed one; `len` is always the tagger *count*.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Span {
    start: u32,
    len: u32,
}

/// The arena's physical form (see [`Layout`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum ArenaRepr {
    /// Flat tagger ids; each group a contiguous ascending run.
    Raw(Vec<NodeId>),
    /// Per-group varint delta encodings, concatenated; `len` is the total
    /// logical tagger-reference count (what [`ArenaRepr::Raw`] would hold).
    Packed {
        /// The concatenated group encodings.
        bytes: Vec<u8>,
        /// Total tagger references across all groups.
        len: usize,
    },
}

impl Default for ArenaRepr {
    fn default() -> Self {
        ArenaRepr::Raw(Vec::new())
    }
}

/// Append one group's ascending tagger run. Canonical — a pure function of
/// the run. Two forms, selected by the group's *length* (part of the span,
/// so decoders know which to expect):
///
/// * `len <= SKIP_EVERY`: a flat gap stream — first id absolute, the rest
///   gaps from the previous id;
/// * `len > SKIP_EVERY`: blocks of up to `SKIP_EVERY` ids, each prefixed
///   by a skip header — `varint(block_last - prev_block_last)` then
///   `varint(payload_byte_len)` — over the same continuous gap stream, so a
///   sequential decode just steps past the headers while an intersection
///   can hop over whole blocks whose last id falls below its next probe.
fn encode_group(out: &mut Vec<u8>, taggers: &[NodeId]) {
    let mut prev = 0u64;
    if taggers.len() <= SKIP_EVERY {
        for (idx, &tagger) in taggers.iter().enumerate() {
            put_u64(out, if idx == 0 { tagger.0 } else { tagger.0 - prev });
            prev = tagger.0;
        }
        return;
    }
    let mut first = true;
    let mut prev_last = 0u64;
    let mut payload = Vec::new();
    for block in taggers.chunks(SKIP_EVERY) {
        payload.clear();
        for &tagger in block {
            put_u64(&mut payload, if first { tagger.0 } else { tagger.0 - prev });
            first = false;
            prev = tagger.0;
        }
        // `prev` is now the block's last id; ascending runs keep the header
        // delta non-negative.
        put_u64(out, prev - prev_last);
        put_u64(out, payload.len() as u64);
        out.extend_from_slice(&payload);
        prev_last = prev;
    }
}

/// Decode one group encoded by [`encode_group`].
fn decode_group(bytes: &[u8], span: Span) -> Vec<NodeId> {
    let len = span.len as usize;
    let mut out = Vec::with_capacity(len);
    let mut pos = span.start as usize;
    let mut prev = 0u64;
    if len <= SKIP_EVERY {
        for idx in 0..len {
            let raw = get_u64(bytes, &mut pos);
            prev = if idx == 0 { raw } else { prev + raw };
            out.push(NodeId(prev));
        }
        return out;
    }
    let mut first = true;
    let mut remaining = len;
    while remaining > 0 {
        let _block_last = get_u64(bytes, &mut pos);
        let _payload_len = get_u64(bytes, &mut pos);
        for _ in 0..remaining.min(SKIP_EVERY) {
            let raw = get_u64(bytes, &mut pos);
            prev = if first { raw } else { prev + raw };
            first = false;
            out.push(NodeId(prev));
        }
        remaining -= remaining.min(SKIP_EVERY);
    }
    out
}

/// `|network ∩ group|` with the group decoded on the fly — the compressed
/// counterpart of [`count_intersection`], zero allocation. On long groups
/// the skip headers let the scan jump whole blocks whose last id is below
/// the next undecided network member; a seeker's network is typically tiny
/// next to a Zipf-head tagger group, so most blocks are never decoded.
fn count_packed_intersection(network: &[NodeId], bytes: &[u8], span: Span) -> usize {
    let len = span.len as usize;
    let mut pos = span.start as usize;
    let mut prev = 0u64;
    let mut ni = 0usize;
    let mut count = 0usize;
    if len <= SKIP_EVERY {
        for idx in 0..len {
            let raw = get_u64(bytes, &mut pos);
            prev = if idx == 0 { raw } else { prev + raw };
            while ni < network.len() && network[ni].0 < prev {
                ni += 1;
            }
            if ni == network.len() {
                break;
            }
            if network[ni].0 == prev {
                count += 1;
                ni += 1;
            }
        }
        return count;
    }
    let mut first = true;
    let mut prev_last = 0u64;
    let mut remaining = len;
    while remaining > 0 && ni < network.len() {
        let block_last = prev_last + get_u64(bytes, &mut pos);
        let payload_len = get_u64(bytes, &mut pos) as usize;
        let in_block = remaining.min(SKIP_EVERY);
        if network[ni].0 > block_last {
            // Nothing in this block can match: hop the payload, and let the
            // next block's first gap resolve against this block's last id.
            pos += payload_len;
            prev = block_last;
            first = false;
        } else {
            for _ in 0..in_block {
                let raw = get_u64(bytes, &mut pos);
                prev = if first { raw } else { prev + raw };
                first = false;
                while ni < network.len() && network[ni].0 < prev {
                    ni += 1;
                }
                if ni == network.len() {
                    break;
                }
                if network[ni].0 == prev {
                    count += 1;
                    ni += 1;
                }
            }
        }
        prev_last = block_last;
        remaining -= in_block;
    }
    count
}

/// The keyword-first `tag → item → taggers` orientation of a site's tag
/// assignments. Tagger groups live in one flat arena (raw or compressed,
/// see [`Layout`]), with a per-tag integer-keyed map from item to its
/// group's span.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RefinementIndex {
    /// The arena of tagger ids, in one of the two physical layouts.
    arena: ArenaRepr,
    /// `tag → (item → span)`, indexed densely by [`TagId`].
    by_tag: Vec<FxHashMap<NodeId, Span>>,
}

/// The shared empty per-tag map unknown tags resolve to.
fn empty_map() -> &'static FxHashMap<NodeId, Span> {
    static EMPTY: OnceLock<FxHashMap<NodeId, Span>> = OnceLock::new();
    EMPTY.get_or_init(FxHashMap::default)
}

/// One planned group change of a [`RefinementSplice`].
#[derive(Debug)]
struct GroupEdit {
    tag: TagId,
    item: NodeId,
    /// Where the group sits now; `None` for a group the splice creates.
    old: Option<Span>,
    /// Arena units the old group occupies (0 for a new group).
    old_size: usize,
    /// The group's new tagger run; empty when it disappears.
    taggers: Vec<NodeId>,
    /// The new run's encoding within the splice payload.
    payload: std::ops::Range<usize>,
}

/// New group encodings, in the arena's layout.
#[derive(Debug)]
enum Payload {
    Raw(Vec<NodeId>),
    Packed(Vec<u8>),
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Raw(taggers) => taggers.len(),
            Payload::Packed(bytes) => bytes.len(),
        }
    }
}

/// A refinement splice planned by [`RefinementIndex::plan_splice`] and
/// landed by [`RefinementIndex::commit_splice`].
#[derive(Debug)]
pub(crate) struct RefinementSplice {
    /// Changes to existing groups in arena order, then new groups by key.
    edits: Vec<GroupEdit>,
    payload: Payload,
    /// Arena length after the splice, in arena units.
    units: usize,
    /// Tagger references after the splice.
    refs: usize,
}

impl RefinementSplice {
    /// Number of groups the splice replaces, adds or drops.
    pub(crate) fn len(&self) -> usize {
        self.edits.len()
    }
}

/// Rebuild an arena from `old` and a sorted edit list: unchanged runs
/// between edited groups are copied through, each edited group's old run
/// is replaced by its new encoding from `new`, and new groups follow the
/// copied tail. Returns each edit's new start.
fn splice_runs<T: Copy>(
    old: &mut Vec<T>,
    edits: &[GroupEdit],
    new: &[T],
    units: usize,
) -> Vec<usize> {
    let mut out: Vec<T> = Vec::with_capacity(units);
    let mut starts = Vec::with_capacity(edits.len());
    let mut cursor = 0usize;
    for edit in edits {
        // An existing group ends the unchanged run before it; the first
        // new group ends the tail (later ones find nothing left to copy).
        let until = edit.old.map_or(old.len(), |span| span.start as usize);
        out.extend_from_slice(&old[cursor..until]);
        cursor = until + edit.old_size;
        starts.push(out.len());
        out.extend_from_slice(&new[edit.payload.clone()]);
    }
    if cursor < old.len() {
        out.extend_from_slice(&old[cursor..]);
    }
    *old = out;
    starts
}

/// Stack capacity of [`ResolvedRefinement`]: queries rarely carry more than
/// a handful of keywords, so resolving one should not touch the heap.
const INLINE_RESOLVED: usize = 8;

impl RefinementIndex {
    /// The arena's current physical layout.
    pub fn layout(&self) -> Layout {
        match &self.arena {
            ArenaRepr::Raw(_) => Layout::Raw,
            ArenaRepr::Packed { .. } => Layout::Compressed,
        }
    }

    /// Convert the arena to `layout` in place (no-op when already there).
    /// Groups keep their relative arena order; spans are rewritten between
    /// element-index and byte-offset forms. Lossless and canonical per
    /// group, so conversion commutes with [`Self::splice`] byte-for-byte.
    pub(crate) fn set_layout(&mut self, layout: Layout) {
        if self.layout() == layout {
            return;
        }
        // Groups in arena order, so the relative layout survives the trip.
        let mut groups: Vec<(u32, TagId, NodeId, u32)> = Vec::new();
        for (slot, by_item) in self.by_tag.iter().enumerate() {
            for (&item, span) in by_item {
                groups.push((span.start, TagId(slot as u32), item, span.len));
            }
        }
        groups.sort_unstable_by_key(|&(start, ..)| start);
        match std::mem::take(&mut self.arena) {
            ArenaRepr::Raw(taggers) => {
                let mut bytes = Vec::new();
                for (start, tag, item, len) in groups {
                    // lint: allow(no_panic, reason = "true invariant: u32 arena spans are the documented design envelope; a site with 2^32 tagger references cannot be built at all")
                    let new_start =
                        u32::try_from(bytes.len()).expect("fewer than 2^32 arena bytes");
                    encode_group(&mut bytes, &taggers[start as usize..][..len as usize]);
                    self.by_tag[tag.0 as usize].insert(item, Span { start: new_start, len });
                }
                self.arena = ArenaRepr::Packed { bytes, len: taggers.len() };
            }
            ArenaRepr::Packed { bytes, len } => {
                let mut taggers: Vec<NodeId> = Vec::with_capacity(len);
                for (start, tag, item, count) in groups {
                    // lint: allow(no_panic, reason = "true invariant: u32 arena spans are the documented design envelope; a site with 2^32 tagger references cannot be built at all")
                    let new_start =
                        u32::try_from(taggers.len()).expect("fewer than 2^32 tagger references");
                    taggers.extend(decode_group(&bytes, Span { start, len: count }));
                    self.by_tag[tag.0 as usize].insert(item, Span { start: new_start, len: count });
                }
                self.arena = ArenaRepr::Raw(taggers);
            }
        }
    }

    /// Record one `(tag, item)` tagger group. `taggers` must be ascending
    /// (the site model's frozen order) and each `(tag, item)` pair must be
    /// inserted at most once — both hold for
    /// [`crate::sitemodel::SiteModel::tag_assignments`], the only feed.
    /// Mutations patch the raw form (a compressed arena converts first and
    /// the caller re-compresses once at the end of the build; the codec is
    /// canonical, so the round trip is exact).
    pub(crate) fn insert(&mut self, tag: TagId, item: NodeId, taggers: &[NodeId]) {
        self.set_layout(Layout::Raw);
        let ArenaRepr::Raw(arena) = &mut self.arena else {
            return;
        };
        // lint: allow(no_panic, reason = "true invariant: u32 arena spans are the documented design envelope; a site with 2^32 tagger references cannot be built at all")
        let start = u32::try_from(arena.len()).expect("fewer than 2^32 tagger references");
        // lint: allow(no_panic, reason = "true invariant: u32 arena spans are the documented design envelope; a site with 2^32 tagger references cannot be built at all")
        let len = u32::try_from(taggers.len()).expect("fewer than 2^32 taggers per group");
        arena.extend_from_slice(taggers);
        let slot = tag.0 as usize;
        if self.by_tag.len() <= slot {
            self.by_tag.resize_with(slot + 1, FxHashMap::default);
        }
        self.by_tag[slot].insert(item, Span { start, len });
    }

    /// Splice another index's groups in after this one's, preserving both
    /// insertion orders: the arenas concatenate (spans of the appended index
    /// shift by this one's arena length) and the per-tag maps merge. The
    /// sharded clustered build accumulates one partial index per worker
    /// over a contiguous run of `tag_assignments` groups and appends them
    /// **in shard order**, which reproduces the sequential build's arena
    /// byte for byte — the `(tag, item)` disjointness contract of
    /// [`Self::insert`] extends across the appended indexes.
    pub(crate) fn append(&mut self, mut other: RefinementIndex) {
        other.set_layout(Layout::Raw);
        let ArenaRepr::Raw(other_taggers) = other.arena else {
            return;
        };
        self.set_layout(Layout::Raw);
        let ArenaRepr::Raw(arena) = &mut self.arena else {
            return;
        };
        // lint: allow(no_panic, reason = "true invariant: u32 arena spans are the documented design envelope; a site with 2^32 tagger references cannot be built at all")
        let base = u32::try_from(arena.len()).expect("fewer than 2^32 tagger references");
        arena.extend_from_slice(&other_taggers);
        if self.by_tag.len() < other.by_tag.len() {
            self.by_tag.resize_with(other.by_tag.len(), FxHashMap::default);
        }
        for (slot, by_item) in other.by_tag.into_iter().enumerate() {
            for (item, span) in by_item {
                // lint: allow(no_panic, reason = "true invariant: u32 arena spans are the documented design envelope; a site with 2^32 tagger references cannot be built at all")
                let start =
                    base.checked_add(span.start).expect("fewer than 2^32 tagger references");
                self.by_tag[slot].insert(item, Span { start, len: span.len });
            }
        }
    }

    /// Plan a batch of group changes without touching the index: each
    /// `(tag, item)` key maps to the group's *new* tagger run (ascending;
    /// empty = the group disappears). Surviving groups keep their relative
    /// arena order (changed ones are replaced in place), emptied groups
    /// drop out and brand-new groups append at the end in ascending
    /// `(tag, item)` order, so the arena stays hole-free and every group
    /// answers [`Self::taggers`] exactly as a from-scratch rebuild would.
    /// New runs are encoded here, in the arena's layout — per group and
    /// canonically, so a compressed arena keeps the bytes a compressed
    /// rebuild would hold — and an arena that would outgrow its `u32`
    /// spans is a capacity error. [`Self::commit_splice`] lands the plan.
    pub(crate) fn plan_splice(
        &self,
        changes: FxHashMap<(TagId, NodeId), Vec<NodeId>>,
    ) -> crate::Result<RefinementSplice> {
        let mut edits: Vec<GroupEdit> = changes
            .into_iter()
            .filter_map(|((tag, item), taggers)| {
                let old = self.span(tag, item);
                let old_size = old.map_or(0, |span| self.span_size(span));
                (old.is_some() || !taggers.is_empty()).then_some(GroupEdit {
                    tag,
                    item,
                    old,
                    old_size,
                    taggers,
                    payload: 0..0,
                })
            })
            .collect();
        // Existing groups in arena order, then new ones by key.
        edits.sort_unstable_by_key(|e| {
            (e.old.is_none(), e.old.map_or(0, |s| s.start), e.tag, e.item)
        });
        let (mut units, mut refs) = (self.arena_units(), self.entry_count());
        let mut payload = match self.arena {
            ArenaRepr::Raw(_) => Payload::Raw(Vec::new()),
            ArenaRepr::Packed { .. } => Payload::Packed(Vec::new()),
        };
        for edit in &mut edits {
            let from = payload.len();
            match &mut payload {
                Payload::Raw(taggers) => taggers.extend_from_slice(&edit.taggers),
                Payload::Packed(bytes) => encode_group(bytes, &edit.taggers),
            }
            edit.payload = from..payload.len();
            units = units - edit.old_size + edit.payload.len();
            refs = refs - edit.old.map_or(0, |span| span.len as usize) + edit.taggers.len();
        }
        if units > u32::MAX as usize {
            return Err(crate::ContentError::CapacityExceeded {
                what: "refinement arena units",
                limit: u64::from(u32::MAX),
            });
        }
        Ok(RefinementSplice { edits, payload, units, refs })
    }

    /// Land a [`RefinementSplice`] planned against this very index:
    /// unchanged runs of the arena are copied through as they are, only
    /// the planned groups' encodings are written, and the spans after
    /// each size change shift by the accumulated difference. Nothing is
    /// decoded.
    pub(crate) fn commit_splice(&mut self, splice: RefinementSplice) {
        let RefinementSplice { edits, payload, units, refs } = splice;
        if edits.is_empty() {
            return;
        }
        let starts = match (&mut self.arena, &payload) {
            (ArenaRepr::Raw(arena), Payload::Raw(new)) => splice_runs(arena, &edits, new, units),
            (ArenaRepr::Packed { bytes, len }, Payload::Packed(new)) => {
                *len = refs;
                splice_runs(bytes, &edits, new, units)
            }
            // A plan is always made in the arena's own layout.
            _ => return,
        };
        // Running size change after each edited group, by old start.
        let mut shifts: Vec<(u32, i64)> = Vec::new();
        let mut total = 0i64;
        for edit in edits.iter().filter(|e| e.old.is_some()) {
            total += edit.payload.len() as i64 - edit.old_size as i64;
            shifts.push((edit.old.map_or(0, |s| s.start), total));
        }
        if let Some(&(first, _)) = shifts.first() {
            for span in self.by_tag.iter_mut().flat_map(|by_item| by_item.values_mut()) {
                if span.start > first {
                    let before = shifts.partition_point(|&(start, _)| start < span.start);
                    span.start = (i64::from(span.start) + shifts[before - 1].1) as u32;
                }
            }
        }
        for (edit, start) in edits.into_iter().zip(starts) {
            let slot = edit.tag.0 as usize;
            if edit.taggers.is_empty() {
                if let Some(by_item) = self.by_tag.get_mut(slot) {
                    by_item.remove(&edit.item);
                }
                continue;
            }
            if self.by_tag.len() <= slot {
                self.by_tag.resize_with(slot + 1, FxHashMap::default);
            }
            // The plan bounded the arena by `u32` units and every tagger
            // takes at least one unit, so start and count both fit.
            let span = Span { start: start as u32, len: edit.taggers.len() as u32 };
            self.by_tag[slot].insert(edit.item, span);
        }
    }

    /// [`Self::plan_splice`] then [`Self::commit_splice`].
    #[cfg(test)]
    pub(crate) fn splice(&mut self, changes: &FxHashMap<(TagId, NodeId), Vec<NodeId>>) {
        let splice = self.plan_splice(changes.clone()).expect("test arenas fit u32 spans");
        self.commit_splice(splice);
    }

    /// The span of one group, if stored.
    fn span(&self, tag: TagId, item: NodeId) -> Option<Span> {
        self.by_tag.get(tag.0 as usize).and_then(|by_item| by_item.get(&item)).copied()
    }

    /// How many arena units — ids raw, bytes compressed — one group
    /// occupies: its count raw; compressed, a walk over its varints that
    /// steps over whole blocks on long groups.
    fn span_size(&self, span: Span) -> usize {
        let ArenaRepr::Packed { bytes, .. } = &self.arena else {
            return span.len as usize;
        };
        let (start, len) = (span.start as usize, span.len as usize);
        let mut pos = start;
        if len <= SKIP_EVERY {
            for _ in 0..len {
                get_u64(bytes, &mut pos);
            }
        } else {
            for _ in 0..len.div_ceil(SKIP_EVERY) {
                get_u64(bytes, &mut pos);
                pos += get_u64(bytes, &mut pos) as usize;
            }
        }
        pos - start
    }

    /// The arena's length in its own units (ids raw, bytes compressed).
    fn arena_units(&self) -> usize {
        match &self.arena {
            ArenaRepr::Raw(taggers) => taggers.len(),
            ArenaRepr::Packed { bytes, .. } => bytes.len(),
        }
    }

    /// `taggers(i, k)` for an interned tag, ascending. Empty for unknown
    /// tags or untagged items. Borrowed straight out of a raw arena;
    /// decoded (one short allocation) out of a compressed one — the hot
    /// query path never calls this, it streams through
    /// [`ResolvedRefinement::score`] instead.
    pub fn taggers(&self, tag: TagId, item: NodeId) -> Cow<'_, [NodeId]> {
        let Some(span) =
            self.by_tag.get(tag.0 as usize).and_then(|by_item| by_item.get(&item)).copied()
        else {
            return Cow::Borrowed(&[]);
        };
        match &self.arena {
            ArenaRepr::Raw(taggers) => {
                Cow::Borrowed(&taggers[span.start as usize..][..span.len as usize])
            }
            ArenaRepr::Packed { bytes, .. } => Cow::Owned(decode_group(bytes, span)),
        }
    }

    /// Number of `(tag, item)` groups stored.
    pub fn group_count(&self) -> usize {
        self.by_tag.iter().map(FxHashMap::len).sum()
    }

    /// Total tagger references across all groups (the logical arena
    /// length, whatever the layout).
    fn entry_count(&self) -> usize {
        match &self.arena {
            ArenaRepr::Raw(taggers) => taggers.len(),
            ArenaRepr::Packed { len, .. } => *len,
        }
    }

    /// Actual heap bytes of the arena and its span maps — the refinement
    /// component of [`crate::index::MemoryProfile`]. Length-based (never
    /// capacity-based), so maintained and rebuilt indexes report identical
    /// footprints; and per-group compressed encodings are order-
    /// independent, so the compressed byte count is too.
    pub(crate) fn heap_bytes(&self) -> usize {
        let arena = match &self.arena {
            ArenaRepr::Raw(taggers) => taggers.len() * std::mem::size_of::<NodeId>(),
            ArenaRepr::Packed { bytes, .. } => bytes.len(),
        };
        let maps: usize =
            self.by_tag.iter().map(|m| m.len() * (std::mem::size_of::<(NodeId, Span)>() + 1)).sum();
        arena + maps + self.by_tag.len() * std::mem::size_of::<FxHashMap<NodeId, Span>>()
    }

    /// Space statistics under the paper's 10-bytes-per-entry model: one
    /// list per `(tag, item)` group, one entry per tagger reference. This
    /// is the storage the clustered deployment carries *instead of*
    /// probing the site model's item-first tagger maps at query time — the
    /// honest space accounting reports it next to the bound lists (see
    /// [`crate::index::ClusteredIndex::stats_with_refinement`]).
    pub fn stats(&self) -> IndexStats {
        let entries = self.entry_count();
        IndexStats {
            lists: self.group_count(),
            entries,
            bytes: entries * BYTES_PER_ENTRY,
            heap_bytes: self.heap_bytes(),
        }
    }

    /// Pre-resolve one query's tags to their per-tag item maps — once per
    /// query (once per *batch* in the batch paths), so per-candidate exact
    /// scoring does no per-query work at all. `tags` must already be
    /// deduplicated ([`crate::tags::QueryTags`] resolution guarantees it);
    /// tags the index has never seen contribute nothing, exactly like an
    /// unknown keyword in [`crate::sitemodel::SiteModel::query_score`].
    pub fn resolve(&self, tags: &[TagId]) -> ResolvedRefinement<'_> {
        let mut resolved =
            ResolvedRefinement { arena: &self.arena, maps: InlineVec::new(empty_map()) };
        for &tag in tags {
            if let Some(by_item) = self.by_tag.get(tag.0 as usize) {
                resolved.maps.push(by_item);
            }
        }
        resolved
    }
}

/// One query's pre-resolved view of a [`RefinementIndex`]: the per-tag item
/// maps of the query's (deduplicated) tags, gathered once. Inline for up to
/// eight tags.
#[derive(Debug)]
pub struct ResolvedRefinement<'a> {
    arena: &'a ArenaRepr,
    maps: InlineVec<&'a FxHashMap<NodeId, Span>, INLINE_RESOLVED>,
}

impl ResolvedRefinement<'_> {
    fn maps(&self) -> &[&FxHashMap<NodeId, Span>] {
        self.maps.as_slice()
    }

    /// Whether no query tag resolved to any stored tagger group (the
    /// defined-empty case: every score is 0).
    pub fn is_empty(&self) -> bool {
        self.maps().is_empty()
    }

    /// The exact score `Σ_k |network ∩ taggers(i, k)|` of one candidate
    /// item for a seeker with the given (ascending) network — the paper's
    /// exposition choice `f = count`, `g = sum`, element-wise equal to
    /// [`crate::sitemodel::SiteModel::query_score`] on the site the index
    /// was built from. Per candidate: one integer-keyed probe and one merge
    /// intersection per query tag — streamed straight off the compressed
    /// arena when packed; no strings, no allocation, either layout.
    pub fn score(&self, network: &[NodeId], item: NodeId) -> f64 {
        let mut total = 0usize;
        for by_item in self.maps() {
            if let Some(&span) = by_item.get(&item) {
                total += match self.arena {
                    ArenaRepr::Raw(taggers) => count_intersection(
                        network,
                        &taggers[span.start as usize..][..span.len as usize],
                    ),
                    ArenaRepr::Packed { bytes, .. } => {
                        count_packed_intersection(network, bytes, span)
                    }
                };
            }
        }
        total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::TagInterner;

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    /// Two tags over two items with interleaved tagger groups.
    fn index() -> (RefinementIndex, TagId, TagId) {
        let mut tags = TagInterner::new();
        let baseball = tags.intern("baseball");
        let museum = tags.intern("museum");
        let mut index = RefinementIndex::default();
        index.insert(baseball, NodeId(100), &ids(&[1, 2, 5]));
        index.insert(museum, NodeId(100), &ids(&[2]));
        index.insert(baseball, NodeId(101), &ids(&[3]));
        (index, baseball, museum)
    }

    #[test]
    fn taggers_come_back_per_tag_and_item() {
        let (index, baseball, museum) = index();
        assert_eq!(index.taggers(baseball, NodeId(100)), ids(&[1, 2, 5]));
        assert_eq!(index.taggers(museum, NodeId(100)), ids(&[2]));
        assert_eq!(index.taggers(baseball, NodeId(101)), ids(&[3]));
        assert!(index.taggers(museum, NodeId(101)).is_empty());
        assert!(index.taggers(TagId(99), NodeId(100)).is_empty());
        assert_eq!(index.group_count(), 3);
    }

    #[test]
    fn resolved_scores_sum_intersections_per_tag() {
        let (index, baseball, museum) = index();
        let resolved = index.resolve(&[baseball, museum]);
        // network {2, 5}: baseball taggers of i100 contribute 2, museum 1.
        assert_eq!(resolved.score(&ids(&[2, 5]), NodeId(100)), 3.0);
        assert_eq!(resolved.score(&ids(&[2, 5]), NodeId(101)), 0.0);
        assert_eq!(resolved.score(&ids(&[3]), NodeId(101)), 1.0);
        assert_eq!(resolved.score(&[], NodeId(100)), 0.0);
    }

    #[test]
    fn unknown_tags_resolve_to_nothing() {
        let (index, baseball, _) = index();
        let resolved = index.resolve(&[TagId(7)]);
        assert!(resolved.is_empty());
        assert_eq!(resolved.score(&ids(&[1, 2, 5]), NodeId(100)), 0.0);
        let resolved = index.resolve(&[baseball, TagId(7)]);
        assert!(!resolved.is_empty());
        assert_eq!(resolved.score(&ids(&[1, 9]), NodeId(100)), 1.0);
    }

    #[test]
    fn append_reproduces_a_single_pass_build() {
        let mut tags = TagInterner::new();
        let baseball = tags.intern("baseball");
        let museum = tags.intern("museum");
        // The group sequence a sequential build would insert in order.
        let groups: Vec<(TagId, NodeId, Vec<NodeId>)> = vec![
            (baseball, NodeId(100), ids(&[1, 2, 5])),
            (museum, NodeId(100), ids(&[2])),
            (baseball, NodeId(101), ids(&[3])),
            (museum, NodeId(102), ids(&[1, 4])),
        ];
        let mut sequential = RefinementIndex::default();
        for (tag, item, taggers) in &groups {
            sequential.insert(*tag, *item, taggers);
        }
        // Two partial indexes over contiguous runs, appended in shard order.
        let mut merged = RefinementIndex::default();
        let mut tail = RefinementIndex::default();
        for (tag, item, taggers) in &groups[..2] {
            merged.insert(*tag, *item, taggers);
        }
        for (tag, item, taggers) in &groups[2..] {
            tail.insert(*tag, *item, taggers);
        }
        merged.append(tail);
        assert_eq!(merged.group_count(), sequential.group_count());
        assert_eq!(merged.stats(), sequential.stats());
        for (tag, item, taggers) in &groups {
            assert_eq!(merged.taggers(*tag, *item), taggers.as_slice());
            assert_eq!(
                merged.taggers(*tag, *item).as_ref(),
                sequential.taggers(*tag, *item).as_ref()
            );
        }
    }

    #[test]
    fn resolve_spills_past_the_inline_capacity() {
        let mut tags = TagInterner::new();
        let mut index = RefinementIndex::default();
        let tag_ids: Vec<TagId> = (0..2 * INLINE_RESOLVED)
            .map(|i| {
                let tag = tags.intern(&format!("tag{i}"));
                index.insert(tag, NodeId(500), &ids(&[i as u64]));
                tag
            })
            .collect();
        let resolved = index.resolve(&tag_ids);
        // The seeker knows every tagger, so each tag contributes exactly 1.
        let network: Vec<NodeId> = (0..2 * INLINE_RESOLVED as u64).map(NodeId).collect();
        assert_eq!(resolved.score(&network, NodeId(500)), (2 * INLINE_RESOLVED) as f64);
    }

    /// The compressed arena answers every access identically and survives
    /// the round trip.
    #[test]
    fn compressed_arena_round_trips_every_access_path() {
        let (mut index, baseball, museum) = index();
        let raw = index.clone();
        index.set_layout(Layout::Compressed);
        assert_eq!(index.layout(), Layout::Compressed);
        assert_eq!(index.group_count(), raw.group_count());
        assert_eq!(index.stats().entries, raw.stats().entries);
        for &(tag, item) in
            &[(baseball, NodeId(100)), (museum, NodeId(100)), (baseball, NodeId(101))]
        {
            assert_eq!(index.taggers(tag, item).as_ref(), raw.taggers(tag, item).as_ref());
        }
        let resolved = index.resolve(&[baseball, museum]);
        let raw_resolved = raw.resolve(&[baseball, museum]);
        for network in [ids(&[2, 5]), ids(&[1]), ids(&[]), ids(&[1, 2, 3, 4, 5, 9])] {
            for item in [NodeId(100), NodeId(101), NodeId(999)] {
                assert_eq!(
                    resolved.score(&network, item),
                    raw_resolved.score(&network, item),
                    "network {network:?} item {item}"
                );
            }
        }
        index.set_layout(Layout::Raw);
        assert_eq!(index.taggers(baseball, NodeId(100)).as_ref(), ids(&[1, 2, 5]).as_slice());
    }

    /// Splicing a compressed arena re-encodes canonically: the bytes match
    /// a from-scratch compressed build of the post-change state.
    #[test]
    fn compressed_splice_is_canonical() {
        let (mut maintained, baseball, museum) = index();
        maintained.set_layout(Layout::Compressed);
        let mut changes: FxHashMap<(TagId, NodeId), Vec<NodeId>> = FxHashMap::default();
        changes.insert((baseball, NodeId(100)), ids(&[1, 2, 5, 9]));
        changes.insert((museum, NodeId(100)), Vec::new());
        changes.insert((museum, NodeId(102)), ids(&[4, 7]));
        maintained.splice(&changes);
        assert_eq!(maintained.layout(), Layout::Compressed);

        let mut tags = TagInterner::new();
        let b2 = tags.intern("baseball");
        let m2 = tags.intern("museum");
        assert_eq!((b2, m2), (baseball, museum));
        let mut rebuilt = RefinementIndex::default();
        rebuilt.insert(baseball, NodeId(100), &ids(&[1, 2, 5, 9]));
        rebuilt.insert(baseball, NodeId(101), &ids(&[3]));
        rebuilt.insert(museum, NodeId(102), &ids(&[4, 7]));
        rebuilt.set_layout(Layout::Compressed);

        assert_eq!(maintained.group_count(), rebuilt.group_count());
        assert_eq!(maintained.stats(), rebuilt.stats(), "entries and heap bytes must agree");
        for &(tag, item) in &[
            (baseball, NodeId(100)),
            (baseball, NodeId(101)),
            (museum, NodeId(100)),
            (museum, NodeId(102)),
        ] {
            assert_eq!(
                maintained.taggers(tag, item).as_ref(),
                rebuilt.taggers(tag, item).as_ref(),
                "group ({tag:?}, {item})"
            );
        }
    }

    /// Groups longer than `SKIP_EVERY` take the block-skip form: they
    /// must round-trip, answer intersections identically to raw for
    /// networks that land in any block (or none), and splice canonically.
    #[test]
    fn block_skip_groups_match_raw_on_every_network() {
        let mut tags = TagInterner::new();
        let tag = tags.intern("popular");
        let other = tags.intern("niche");
        // One huge group (several blocks, irregular gaps), one exactly at
        // the flat/blocked boundary, one just past it, and a tiny one.
        // Strictly ascending with irregular gaps (steps of 3/6/6 repeating).
        let huge: Vec<NodeId> = (0..200u64).map(|t| NodeId(t * 5 + (t % 3))).collect();
        let edge: Vec<NodeId> = (0..SKIP_EVERY as u64).map(|t| NodeId(t * 7)).collect();
        let past: Vec<NodeId> = (0..SKIP_EVERY as u64 + 1).map(|t| NodeId(t * 7)).collect();
        let mut raw = RefinementIndex::default();
        raw.insert(tag, NodeId(1_000), &huge);
        raw.insert(tag, NodeId(1_001), &edge);
        raw.insert(other, NodeId(1_002), &past);
        raw.insert(other, NodeId(1_003), &ids(&[5]));
        let mut packed = raw.clone();
        packed.set_layout(Layout::Compressed);

        for (tag, item, expected) in [
            (tag, NodeId(1_000), &huge),
            (tag, NodeId(1_001), &edge),
            (other, NodeId(1_002), &past),
        ] {
            assert_eq!(packed.taggers(tag, item).as_ref(), expected.as_slice());
        }

        let raw_resolved = raw.resolve(&[tag, other]);
        let packed_resolved = packed.resolve(&[tag, other]);
        let networks: Vec<Vec<NodeId>> = vec![
            Vec::new(),
            ids(&[0]),                                     // first block only
            ids(&[995, 996, 997, 998]),                    // last block only (996 = max)
            ids(&[9_999]),                                 // beyond every block
            vec![huge[1], huge[60], huge[120], huge[199]], // sparse across blocks
            ids(&[2, 4, 8]),                               // misses between entries
            huge.clone(),                                  // every tagger
        ];
        for network in &networks {
            for item in [NodeId(1_000), NodeId(1_001), NodeId(1_002), NodeId(1_003)] {
                assert_eq!(
                    packed_resolved.score(network, item),
                    raw_resolved.score(network, item),
                    "network {network:?} item {item}"
                );
            }
        }

        // Splicing a blocked group re-encodes canonically.
        let mut grown = huge.clone();
        grown.push(NodeId(10_000));
        let mut changes: FxHashMap<(TagId, NodeId), Vec<NodeId>> = FxHashMap::default();
        changes.insert((tag, NodeId(1_000)), grown.clone());
        packed.splice(&changes);
        let mut rebuilt = raw.clone();
        let mut rebuild_changes: FxHashMap<(TagId, NodeId), Vec<NodeId>> = FxHashMap::default();
        rebuild_changes.insert((tag, NodeId(1_000)), grown.clone());
        rebuilt.splice(&rebuild_changes);
        rebuilt.set_layout(Layout::Compressed);
        assert_eq!(packed.stats(), rebuilt.stats(), "splice must stay canonical");
        assert_eq!(packed.taggers(tag, NodeId(1_000)).as_ref(), grown.as_slice());
    }

    /// The compressed arena is actually smaller on dense ascending runs.
    #[test]
    fn compressed_arena_shrinks() {
        let mut tags = TagInterner::new();
        let tag = tags.intern("popular");
        let mut index = RefinementIndex::default();
        for item in 0..50u64 {
            let taggers: Vec<NodeId> = (0..40).map(|t| NodeId(item * 100 + t)).collect();
            index.insert(tag, NodeId(10_000 + item), &taggers);
        }
        let raw_bytes = index.heap_bytes();
        index.set_layout(Layout::Compressed);
        let packed_bytes = index.heap_bytes();
        assert!(packed_bytes * 2 < raw_bytes, "compressed {packed_bytes} vs raw {raw_bytes}");
    }
}
