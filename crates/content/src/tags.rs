//! Tag interning for the §6.2 indexes.
//!
//! The inverted indexes key their lists on tags. Keying on `String` means
//! every list build clones the tag and every lookup hashes a string — and,
//! worse, normalizes it with `to_lowercase()`, an allocation on the hot
//! query path. [`TagInterner`] normalizes each distinct tag **once** at
//! intern time and hands out dense [`TagId`]s, so index keys hash as plain
//! integers and lookups allocate nothing when the probe string is already
//! lowercase (the common case: the graph layer lowercases stored tags).

use crate::inline::InlineVec;
use socialscope_graph::FxHashMap;
use std::borrow::Cow;

/// Interned identifier of a lowercase-normalized tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TagId(pub u32);

/// Normalize a raw tag for index lookup, borrowing when no rewriting is
/// needed. Only ASCII strings free of uppercase letters can be borrowed
/// verbatim; anything else goes through `to_lowercase()`.
pub(crate) fn normalize(tag: &str) -> Cow<'_, str> {
    if tag.is_ascii() && !tag.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Borrowed(tag)
    } else {
        Cow::Owned(tag.to_lowercase())
    }
}

/// A symbol table mapping lowercase-normalized tags to dense [`TagId`]s.
#[derive(Debug, Clone, Default)]
pub struct TagInterner {
    ids: FxHashMap<String, TagId>,
    names: Vec<String>,
}

impl TagInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a tag (normalizing to lowercase) and return its id. Interning
    /// the same tag twice — in any casing — yields the same id.
    pub fn intern(&mut self, tag: &str) -> TagId {
        let norm = normalize(tag);
        if let Some(&id) = self.ids.get(norm.as_ref()) {
            return id;
        }
        // lint: allow(no_panic, reason = "true invariant: u32 tag ids are the documented design envelope; 2^32 distinct tags exceeds any buildable site")
        let id = TagId(u32::try_from(self.names.len()).expect("fewer than 2^32 distinct tags"));
        let owned = norm.into_owned();
        self.names.push(owned.clone());
        self.ids.insert(owned, id);
        id
    }

    /// Append the names a [`PlannedTags`] over this very table recorded,
    /// giving each the id the plan handed out.
    pub(crate) fn commit(&mut self, names: Vec<String>) {
        for name in names {
            let id = TagId(self.names.len() as u32);
            self.names.push(name.clone());
            self.ids.insert(name, id);
        }
    }

    /// Look up a tag's id without interning it. Allocation-free when the
    /// probe string is already lowercase ASCII.
    pub fn get(&self, tag: &str) -> Option<TagId> {
        self.ids.get(normalize(tag).as_ref()).copied()
    }

    /// The normalized text of an interned tag.
    pub fn resolve(&self, id: TagId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of distinct tags interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no tag has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, tag)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names.iter().enumerate().map(|(i, name)| (TagId(i as u32), name.as_str()))
    }
}

/// Tags a planned apply interns, recorded against a read-only
/// [`TagInterner`] instead of a copy of it: ids continue the table's dense
/// numbering, and [`TagInterner::commit`] appends the recorded names in
/// the same order, so every planned id is the id the tag gets.
pub(crate) struct PlannedTags<'a> {
    base: &'a TagInterner,
    ids: FxHashMap<String, TagId>,
    names: Vec<String>,
}

impl<'a> PlannedTags<'a> {
    pub(crate) fn new(base: &'a TagInterner) -> Self {
        PlannedTags { base, ids: FxHashMap::default(), names: Vec::new() }
    }

    /// [`TagInterner::intern`] as the table will answer after the commit;
    /// a table that would outgrow `u32` ids is a capacity error.
    pub(crate) fn intern(&mut self, tag: &str) -> crate::Result<TagId> {
        let norm = normalize(tag);
        if let Some(id) = self.base.get(&norm).or_else(|| self.ids.get(norm.as_ref()).copied()) {
            return Ok(id);
        }
        let id = u32::try_from(self.base.len() + self.names.len()).map(TagId).map_err(|_| {
            crate::ContentError::CapacityExceeded {
                what: "distinct tags",
                limit: u64::from(u32::MAX),
            }
        })?;
        let owned = norm.into_owned();
        self.names.push(owned.clone());
        self.ids.insert(owned, id);
        Ok(id)
    }

    /// The normalized text of a known or planned tag.
    pub(crate) fn resolve(&self, id: TagId) -> Option<&str> {
        let index = (id.0 as usize).checked_sub(self.base.len());
        match index {
            None => self.base.resolve(id),
            Some(index) => self.names.get(index).map(String::as_str),
        }
    }

    /// The names to append, in id order.
    pub(crate) fn into_names(self) -> Vec<String> {
        self.names
    }
}

/// Stack capacity of [`QueryTags`]: queries rarely carry more than a
/// handful of keywords, so resolution should not touch the heap.
const INLINE_QUERY_TAGS: usize = 8;

/// The interned ids of one query's keywords, resolved against a
/// [`TagInterner`] exactly once: unknown keywords are dropped and
/// duplicates — in any casing — collapse onto their first occurrence, so a
/// query behaves as a keyword *set* (scoring a keyword twice would double
/// its contribution for every user). Resolving up front is what lets the
/// batch query paths amortize all string work across a whole user batch.
/// Inline for up to eight distinct keywords.
#[derive(Debug, Clone, Default)]
pub struct QueryTags {
    ids: InlineVec<TagId, INLINE_QUERY_TAGS>,
}

impl QueryTags {
    /// Resolve a query's keywords through an interner, in first-occurrence
    /// order with duplicates and unknown keywords removed.
    pub fn resolve(tags: &TagInterner, keywords: &[String]) -> Self {
        let mut query = QueryTags::default();
        for keyword in keywords {
            if let Some(id) = tags.get(keyword) {
                query.push_unique(id);
            }
        }
        query
    }

    fn push_unique(&mut self, id: TagId) {
        if !self.as_slice().contains(&id) {
            self.ids.push(id);
        }
    }

    /// The resolved ids, in first-occurrence order.
    pub fn as_slice(&self) -> &[TagId] {
        self.ids.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn query_tags_dedup_and_drop_unknown_keywords() {
        let mut t = TagInterner::new();
        t.intern("baseball");
        t.intern("museum");
        let q = QueryTags::resolve(&t, &kw(&["museum", "BASEBALL", "opera", "baseball", "Museum"]));
        assert_eq!(q.as_slice(), &[TagId(1), TagId(0)]);
        assert!(QueryTags::resolve(&t, &[]).as_slice().is_empty());
    }

    #[test]
    fn query_tags_spill_past_the_inline_capacity() {
        let mut t = TagInterner::new();
        let words: Vec<String> = (0..2 * INLINE_QUERY_TAGS).map(|i| format!("tag{i}")).collect();
        for w in &words {
            t.intern(w);
        }
        // Duplicate every keyword; the resolved set still holds each once.
        let doubled: Vec<String> = words.iter().chain(words.iter()).cloned().collect();
        let q = QueryTags::resolve(&t, &doubled);
        let want: Vec<TagId> = (0..2 * INLINE_QUERY_TAGS as u32).map(TagId).collect();
        assert_eq!(q.as_slice(), want.as_slice());
    }

    #[test]
    fn interning_is_idempotent_and_case_insensitive() {
        let mut t = TagInterner::new();
        let a = t.intern("Baseball");
        let b = t.intern("baseball");
        let c = t.intern("BASEBALL");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(t.len(), 1);
        assert_eq!(t.resolve(a), Some("baseball"));
    }

    #[test]
    fn distinct_tags_get_distinct_dense_ids() {
        let mut t = TagInterner::new();
        let a = t.intern("museum");
        let b = t.intern("stadium");
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(a, "museum"), (b, "stadium")]);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = TagInterner::new();
        t.intern("museum");
        assert_eq!(t.get("MUSEUM"), Some(TagId(0)));
        assert_eq!(t.get("opera"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn normalize_borrows_lowercase_ascii() {
        assert!(matches!(normalize("baseball"), Cow::Borrowed(_)));
        assert!(matches!(normalize("Baseball"), Cow::Owned(_)));
        assert!(matches!(normalize("café"), Cow::Owned(_)));
        assert_eq!(normalize("Straße").as_ref(), "straße");
    }
}
