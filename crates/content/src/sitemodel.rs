//! The site primitives of §6.2: `items(u)`, `network(u)`, `taggers(i, k)`
//! and the network-aware scoring model built on them.
//!
//! For a del.icio.us-style site where users connect with other users and tag
//! items, the paper defines the score of an item `i` for user `u` and
//! keyword `k` as `score_k(i, u) = f(network(u) ∩ taggers(i, k))` with `f`
//! a monotone function (count, for exposition), and the overall score of `i`
//! for query `Q_u = k1,…,kn` as a monotone aggregate `g` of the per-keyword
//! scores (sum, for exposition). [`SiteModel`] materializes those primitives
//! from a social content graph once and serves them to the inverted indexes,
//! the clustering strategies and the top-k processor.

use crate::events::TagEvent;
use crate::tags::normalize;
use socialscope_graph::{FxHashMap, HasAttrs, NodeId, SocialGraph};
use std::collections::{BTreeMap, BTreeSet};

/// Materialized view of a social content site used by network-aware search.
///
/// The per-user / per-item id sets of the scoring hot path (`network(u)`,
/// `taggers(i, k)`, `items(u)`) are frozen into sorted vectors at build
/// time: `score_k` then intersects two contiguous sorted runs instead of
/// walking two B-trees — the dominant cost of clustered query processing
/// and of the exhaustive baseline.
#[derive(Debug, Clone, Default)]
pub struct SiteModel {
    users: BTreeSet<NodeId>,
    items: BTreeSet<NodeId>,
    tags: BTreeSet<String>,
    /// `items(u)`: items tagged by `u`, in ascending id order.
    items_of: FxHashMap<NodeId, Vec<NodeId>>,
    /// `network(u)`: users connected to `u` (undirected over connect
    /// links), in ascending id order.
    network_of: FxHashMap<NodeId, Vec<NodeId>>,
    /// `taggers(i, k)`: users who tagged item `i` with tag `k` (ascending),
    /// keyed item-first so tag lookups can borrow the probe string.
    taggers_of: FxHashMap<NodeId, FxHashMap<String, Vec<NodeId>>>,
    /// `tags(u)`: tags used by `u` (for behavior statistics).
    tags_of: FxHashMap<NodeId, BTreeSet<String>>,
    /// Items carrying each tag (user-independent), for candidate generation.
    items_with_tag: BTreeMap<String, BTreeSet<NodeId>>,
}

/// Freeze a dedup set map into sorted-vector form.
fn freeze<K: std::hash::Hash + Eq>(
    sets: FxHashMap<K, BTreeSet<NodeId>>,
) -> FxHashMap<K, Vec<NodeId>> {
    sets.into_iter().map(|(k, set)| (k, set.into_iter().collect())).collect()
}

impl SiteModel {
    /// Build the model from a social content graph: users and items come
    /// from node types, `network(u)` from `connect` links, `items(u)` and
    /// `taggers(i, k)` from `tag` activity links.
    pub fn from_graph(graph: &SocialGraph) -> Self {
        let mut model = SiteModel::default();
        let mut items_of: FxHashMap<NodeId, BTreeSet<NodeId>> = FxHashMap::default();
        let mut network_of: FxHashMap<NodeId, BTreeSet<NodeId>> = FxHashMap::default();
        let mut taggers_of: FxHashMap<NodeId, FxHashMap<String, BTreeSet<NodeId>>> =
            FxHashMap::default();
        for node in graph.nodes() {
            if node.has_type("user") {
                model.users.insert(node.id);
            }
            if node.has_type("item") {
                model.items.insert(node.id);
            }
        }
        for link in graph.links() {
            if link.type_values().iter().any(|t| socialscope_graph::types::is_connection_type(t))
                && model.users.contains(&link.src)
                && model.users.contains(&link.tgt)
            {
                network_of.entry(link.src).or_default().insert(link.tgt);
                network_of.entry(link.tgt).or_default().insert(link.src);
            }
            if link.has_type("tag") {
                let user = link.src;
                let item = link.tgt;
                if !model.users.contains(&user) || !model.items.contains(&item) {
                    continue;
                }
                items_of.entry(user).or_default().insert(item);
                let tags = link.attrs.get("tags").map(|v| v.string_tokens()).unwrap_or_default();
                for tag in tags {
                    model.tags.insert(tag.clone());
                    taggers_of
                        .entry(item)
                        .or_default()
                        .entry(tag.clone())
                        .or_default()
                        .insert(user);
                    model.tags_of.entry(user).or_default().insert(tag.clone());
                    model.items_with_tag.entry(tag).or_default().insert(item);
                }
            }
        }
        model.items_of = freeze(items_of);
        model.network_of = freeze(network_of);
        model.taggers_of =
            taggers_of.into_iter().map(|(item, by_tag)| (item, freeze(by_tag))).collect();
        model
    }

    /// All users, in id order.
    pub fn users(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.users.iter().copied()
    }

    /// All items, in id order.
    pub fn items(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.items.iter().copied()
    }

    /// All distinct tags, in lexical order.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.tags.iter().map(String::as_str)
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }
    /// Number of items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }
    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// `items(u)`: the items tagged by a user, ascending.
    pub fn items_of(&self, user: NodeId) -> &[NodeId] {
        self.items_of.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `network(u)`: the users connected to a user, ascending.
    pub fn network_of(&self, user: NodeId) -> &[NodeId] {
        self.network_of.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `taggers(i, k)`: the users who tagged item `i` with tag `k`,
    /// ascending. Allocation-free when the probe tag is already lowercase.
    pub fn taggers_of(&self, item: NodeId, tag: &str) -> &[NodeId] {
        self.taggers_of
            .get(&item)
            .and_then(|by_tag| by_tag.get(normalize(tag).as_ref()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate every `(item, tag, taggers)` group once — the raw material
    /// the inverted-index builds accumulate over, without the
    /// items × tags cross-product probing `taggers_of` per pair costs.
    pub fn tag_assignments(&self) -> impl Iterator<Item = (NodeId, &str, &[NodeId])> {
        self.taggers_of.iter().flat_map(|(&item, by_tag)| {
            by_tag.iter().map(move |(tag, taggers)| (item, tag.as_str(), taggers.as_slice()))
        })
    }

    /// The tags carried by one item together with their tagger groups, in
    /// arbitrary order. This is the item-first view the clustered index's
    /// recluster-on-join path enumerates to fold a late joiner's non-zero
    /// scores into its new cluster's bounds.
    pub fn item_tags(&self, item: NodeId) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.taggers_of.get(&item).into_iter().flat_map(|by_tag| {
            by_tag.iter().map(|(tag, taggers)| (tag.as_str(), taggers.as_slice()))
        })
    }

    /// Apply a batch of tagging events in order, mutating the frozen
    /// primitives in place, and return how many events were *effective*
    /// (changed the site). Assigning an already-present `(tagger, item,
    /// tag)` triple and retracting an absent one are no-ops; an assign-only
    /// history applied here yields exactly the model
    /// [`Self::from_graph`] builds from the equivalent graph. Networks
    /// never change under tag events — connection links are a different
    /// activity — which is what lets the index delta paths treat
    /// `network(u)` as stable.
    ///
    /// Runs [`Self::plan_apply`] then [`Self::commit_apply`]. Every fallible
    /// step (here, the [`crate::faults::SITE_APPLY`] failpoint) belongs to
    /// the read-only plan, so an `Err` return guarantees the model is
    /// byte-identical to its pre-call state.
    pub fn try_apply(&mut self, events: &[TagEvent]) -> crate::Result<usize> {
        let delta = self.plan_apply(events)?;
        Ok(self.commit_apply(delta))
    }

    /// Plan a batch of tagging events without touching the model: replay
    /// them in order over a [`SiteDelta`] that holds the post-batch value
    /// of every key the batch touches — `taggers(i, k)` groups, `items(u)`
    /// runs, whether a tagger still uses a tag — and nothing else, so a
    /// plan costs O(events × touched run lengths), never O(site). Read the
    /// post-batch site through [`Self::view_with`]; land it with
    /// [`Self::commit_apply`]. Fires [`crate::faults::SITE_APPLY`] first.
    pub fn plan_apply(&self, events: &[TagEvent]) -> crate::Result<SiteDelta> {
        crate::faults::fire(crate::faults::SITE_APPLY)?;
        let mut delta = SiteDelta::default();
        for event in events {
            let tag = normalize(event.tag());
            let (tagger, item) = (event.tagger(), event.item());
            let listed = self.view_with(&delta).taggers_of(item, &tag).binary_search(&tagger);
            match (event, listed) {
                // Duplicate assignments and retractions of absent triples
                // change nothing and leave the delta untouched.
                (TagEvent::Assign { .. }, Ok(_)) | (TagEvent::Retract { .. }, Err(_)) => {}
                (TagEvent::Assign { .. }, Err(pos)) => {
                    delta.group_mut(self, item, &tag).insert(pos, tagger);
                    delta.users.insert(tagger);
                    delta.items.insert(item);
                    let items = delta.items_of_mut(self, tagger);
                    if let Err(pos) = items.binary_search(&item) {
                        items.insert(pos, item);
                    }
                    delta.uses_tag.insert((tagger, tag.into_owned()), true);
                    delta.effective += 1;
                }
                (TagEvent::Retract { .. }, Ok(pos)) => {
                    delta.group_mut(self, item, &tag).remove(pos);
                    // `items(u)` drops the item only once the tagger has no
                    // remaining tag on it.
                    let still_tags_item = self
                        .view_with(&delta)
                        .item_tags(item)
                        .any(|(_, taggers)| taggers.binary_search(&tagger).is_ok());
                    if !still_tags_item {
                        let items = delta.items_of_mut(self, tagger);
                        if let Ok(pos) = items.binary_search(&item) {
                            items.remove(pos);
                        }
                    }
                    // `tags(u)` drops the tag only once the tagger uses it
                    // on no item at all. Every item the tagger still tags
                    // with it is in `items(u)`, so scanning the tagger's
                    // own run answers that without visiting every item
                    // that carries the tag.
                    let view = self.view_with(&delta);
                    let still_uses_tag = view
                        .items_of(tagger)
                        .iter()
                        .any(|&i| view.taggers_of(i, &tag).binary_search(&tagger).is_ok());
                    delta.uses_tag.insert((tagger, tag.into_owned()), still_uses_tag);
                    delta.effective += 1;
                }
            }
        }
        Ok(delta)
    }

    /// Land a [`SiteDelta`] planned by [`Self::plan_apply`] against this
    /// very model, and return its effective event count. Infallible and
    /// in place: every touched key takes its planned post-batch value, and
    /// the derived `tags`, `tags(u)` and items-per-tag sets follow.
    pub fn commit_apply(&mut self, delta: SiteDelta) -> usize {
        let SiteDelta { groups, items_of, uses_tag, users, items, effective } = delta;
        self.users.extend(users);
        self.items.extend(items);
        for (item, by_tag) in groups {
            for (tag, taggers) in by_tag {
                if taggers.is_empty() {
                    if let Some(live) = self.taggers_of.get_mut(&item) {
                        live.remove(&tag);
                        if live.is_empty() {
                            self.taggers_of.remove(&item);
                        }
                    }
                    if let Some(items) = self.items_with_tag.get_mut(&tag) {
                        items.remove(&item);
                        if items.is_empty() {
                            self.items_with_tag.remove(&tag);
                            self.tags.remove(&tag);
                        }
                    }
                } else {
                    self.items_with_tag.entry(tag.clone()).or_default().insert(item);
                    self.tags.insert(tag.clone());
                    self.taggers_of.entry(item).or_default().insert(tag, taggers);
                }
            }
        }
        for (user, items) in items_of {
            if items.is_empty() {
                self.items_of.remove(&user);
            } else {
                self.items_of.insert(user, items);
            }
        }
        for ((user, tag), uses) in uses_tag {
            if uses {
                self.tags_of.entry(user).or_default().insert(tag);
            } else if let Some(tags) = self.tags_of.get_mut(&user) {
                tags.remove(&tag);
                if tags.is_empty() {
                    self.tags_of.remove(&user);
                }
            }
        }
        effective
    }

    /// The model as it stands, through the read surface index plans use
    /// (a [`SiteView`] with nothing pending).
    pub fn view(&self) -> SiteView<'_> {
        SiteView { base: self, delta: None }
    }

    /// The model as it will stand once `delta` — planned against this
    /// model by [`Self::plan_apply`] — commits.
    pub fn view_with<'a>(&'a self, delta: &'a SiteDelta) -> SiteView<'a> {
        SiteView { base: self, delta: Some(delta) }
    }

    /// Tags used by a user.
    pub fn tags_of(&self, user: NodeId) -> &BTreeSet<String> {
        static EMPTY: std::sync::OnceLock<BTreeSet<String>> = std::sync::OnceLock::new();
        self.tags_of.get(&user).unwrap_or_else(|| EMPTY.get_or_init(BTreeSet::new))
    }

    /// Items carrying a tag, independently of who asks.
    pub fn items_with_tag(&self, tag: &str) -> &BTreeSet<NodeId> {
        static EMPTY: std::sync::OnceLock<BTreeSet<NodeId>> = std::sync::OnceLock::new();
        self.items_with_tag
            .get(normalize(tag).as_ref())
            .unwrap_or_else(|| EMPTY.get_or_init(BTreeSet::new))
    }

    /// `score_k(i, u) = |network(u) ∩ taggers(i, k)|` — the paper's
    /// exposition choice `f = count`, computed by merging two sorted runs.
    pub fn keyword_score(&self, item: NodeId, user: NodeId, tag: &str) -> f64 {
        let network = self.network_of(user);
        let taggers = self.taggers_of(item, tag);
        count_intersection(network, taggers) as f64
    }

    /// `score(i, u) = Σ_j score_kj(i, u)` — the paper's exposition choice
    /// `g = sum`, taken over the *distinct* keywords of the query: a query
    /// is a keyword set, so repeating a keyword (in any casing) does not
    /// double its contribution. This matches the inverted indexes, which
    /// collapse duplicate keywords at `TagId` resolution.
    pub fn query_score(&self, item: NodeId, user: NodeId, keywords: &[String]) -> f64 {
        self.query_score_distinct(item, user, &distinct_keywords(keywords))
    }

    /// [`Self::query_score`] over keywords the caller has already
    /// deduplicated (e.g. via [`distinct_keywords`]). Top-k callers score
    /// many candidate items against one fixed keyword set — deduplicating
    /// once per query instead of once per candidate keeps the per-item
    /// scorer a bare sum.
    pub fn query_score_distinct(&self, item: NodeId, user: NodeId, keywords: &[&str]) -> f64 {
        keywords.iter().map(|k| self.keyword_score(item, user, k)).sum()
    }

    /// Jaccard similarity of two users' networks (Def. 11 predicate).
    pub fn network_jaccard(&self, a: NodeId, b: NodeId) -> f64 {
        jaccard(self.network_of(a), self.network_of(b))
    }

    /// Jaccard similarity of two users' tagged item sets (Def. 12 predicate).
    pub fn behavior_jaccard(&self, a: NodeId, b: NodeId) -> f64 {
        jaccard(self.items_of(a), self.items_of(b))
    }
}

/// What one event batch does to a [`SiteModel`], planned read-only by
/// [`SiteModel::plan_apply`]: the post-batch value of every touched key,
/// nothing else. Committed by [`SiteModel::commit_apply`]; read before
/// then through [`SiteModel::view_with`].
#[derive(Debug, Clone, Default)]
pub struct SiteDelta {
    /// Post-batch `taggers(i, k)` of every touched `(item, tag)`, keyed
    /// item-first like the model; an empty run means the group is gone.
    groups: FxHashMap<NodeId, FxHashMap<String, Vec<NodeId>>>,
    /// Post-batch `items(u)` of every touched tagger; empty means none.
    items_of: FxHashMap<NodeId, Vec<NodeId>>,
    /// Whether each touched `(tagger, tag)` pair is still in `tags(u)`.
    uses_tag: FxHashMap<(NodeId, String), bool>,
    /// Taggers and items of the effective assigns (the model's user and
    /// item sets only grow).
    users: BTreeSet<NodeId>,
    items: BTreeSet<NodeId>,
    /// Events that changed the site.
    effective: usize,
}

impl SiteDelta {
    /// How many of the planned events change the site.
    pub fn effective(&self) -> usize {
        self.effective
    }

    /// The touched group's post-batch run, seeded from `base` on first
    /// touch.
    fn group_mut(&mut self, base: &SiteModel, item: NodeId, tag: &str) -> &mut Vec<NodeId> {
        self.groups
            .entry(item)
            .or_default()
            .entry(tag.to_string())
            .or_insert_with(|| base.taggers_of(item, tag).to_vec())
    }

    /// The touched tagger's post-batch `items(u)`, seeded from `base` on
    /// first touch.
    fn items_of_mut(&mut self, base: &SiteModel, user: NodeId) -> &mut Vec<NodeId> {
        self.items_of.entry(user).or_insert_with(|| base.items_of(user).to_vec())
    }
}

/// A [`SiteModel`] seen through a pending [`SiteDelta`]: every read
/// answers as the model will once the delta commits, without the commit.
/// This is the read surface of the index plans and of the clustering
/// predicates recluster-on-join evaluates; with no delta
/// ([`SiteModel::view`]) it is the model itself.
#[derive(Debug, Clone, Copy)]
pub struct SiteView<'a> {
    base: &'a SiteModel,
    delta: Option<&'a SiteDelta>,
}

impl<'a> SiteView<'a> {
    /// `network(u)`, ascending — tag events never change networks.
    pub fn network_of(&self, user: NodeId) -> &'a [NodeId] {
        self.base.network_of(user)
    }

    /// `items(u)`, ascending.
    pub fn items_of(&self, user: NodeId) -> &'a [NodeId] {
        match self.delta.and_then(|d| d.items_of.get(&user)) {
            Some(items) => items,
            None => self.base.items_of(user),
        }
    }

    /// `taggers(i, k)`, ascending.
    pub fn taggers_of(&self, item: NodeId, tag: &str) -> &'a [NodeId] {
        let planned = self
            .delta
            .and_then(|d| d.groups.get(&item))
            .and_then(|by_tag| by_tag.get(normalize(tag).as_ref()));
        match planned {
            Some(taggers) => taggers,
            None => self.base.taggers_of(item, tag),
        }
    }

    /// The tags on one item with their tagger groups, in arbitrary order
    /// (see [`SiteModel::item_tags`]).
    pub fn item_tags(&self, item: NodeId) -> impl Iterator<Item = (&'a str, &'a [NodeId])> + 'a {
        let planned = self.delta.and_then(|d| d.groups.get(&item));
        self.base
            .item_tags(item)
            .filter(move |(tag, _)| !planned.is_some_and(|by_tag| by_tag.contains_key(*tag)))
            .chain(
                planned
                    .into_iter()
                    .flatten()
                    .filter(|(_, taggers)| !taggers.is_empty())
                    .map(|(tag, taggers)| (tag.as_str(), taggers.as_slice())),
            )
    }

    /// Jaccard similarity of two users' networks (Def. 11 predicate).
    pub fn network_jaccard(&self, a: NodeId, b: NodeId) -> f64 {
        jaccard(self.network_of(a), self.network_of(b))
    }

    /// Jaccard similarity of two users' tagged item sets (Def. 12
    /// predicate).
    pub fn behavior_jaccard(&self, a: NodeId, b: NodeId) -> f64 {
        jaccard(self.items_of(a), self.items_of(b))
    }
}

/// The distinct keywords of a query in first-occurrence order, comparing
/// case-insensitively exactly as [`SiteModel::query_score`] does. Borrowed
/// from the input, so deduplicating a query once up front costs two small
/// vectors, not a string clone per keyword. Each keyword is normalized
/// exactly once: the normalized forms accumulate alongside the output and
/// later keywords compare against them directly, instead of re-normalizing
/// every earlier keyword per comparison.
pub fn distinct_keywords(keywords: &[String]) -> Vec<&str> {
    let mut normed: Vec<std::borrow::Cow<'_, str>> = Vec::with_capacity(keywords.len());
    let mut distinct: Vec<&str> = Vec::with_capacity(keywords.len());
    for keyword in keywords {
        let norm = normalize(keyword);
        if !normed.contains(&norm) {
            distinct.push(keyword);
            normed.push(norm);
        }
    }
    distinct
}

/// Size of the intersection of two ascending id slices (two-pointer merge).
pub(crate) fn count_intersection(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity of two sorted id slices.
pub fn jaccard(a: &[NodeId], b: &[NodeId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = count_intersection(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// u0–u1–u2 chain of friendships; u1 and u2 tag item a with "baseball";
    /// u2 tags item b with "museum".
    fn model() -> (SiteModel, Vec<NodeId>, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let u0 = b.add_user("u0");
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let a = b.add_item("a", &["destination"]);
        let bb = b.add_item("b", &["destination"]);
        b.befriend(u0, u1);
        b.befriend(u1, u2);
        b.tag(u1, a, &["baseball"]);
        b.tag(u2, a, &["baseball", "stadium"]);
        b.tag(u2, bb, &["museum"]);
        let g = b.build();
        (SiteModel::from_graph(&g), vec![u0, u1, u2], vec![a, bb])
    }

    #[test]
    fn primitives_are_derived_from_the_graph() {
        let (m, users, items) = model();
        assert_eq!(m.user_count(), 3);
        assert_eq!(m.item_count(), 2);
        assert_eq!(m.tag_count(), 3);
        assert_eq!(m.network_of(users[1]).len(), 2);
        assert_eq!(m.items_of(users[2]).len(), 2);
        assert_eq!(m.taggers_of(items[0], "baseball").len(), 2);
        assert_eq!(m.taggers_of(items[0], "museum").len(), 0);
        assert!(m.tags_of(users[2]).contains("museum"));
        assert_eq!(m.items_with_tag("baseball").len(), 1);
    }

    #[test]
    fn keyword_score_counts_network_taggers() {
        let (m, users, items) = model();
        // u0's network is {u1}; u1 tagged item a with baseball -> score 1.
        assert_eq!(m.keyword_score(items[0], users[0], "baseball"), 1.0);
        // u1's network is {u0, u2}; only u2 tagged a with baseball -> 1.
        assert_eq!(m.keyword_score(items[0], users[1], "baseball"), 1.0);
        // u2's network is {u1}; u1 tagged a with baseball -> 1.
        assert_eq!(m.keyword_score(items[0], users[2], "baseball"), 1.0);
        // Nobody in u0's network tagged item b.
        assert_eq!(m.keyword_score(items[1], users[0], "museum"), 0.0);
    }

    #[test]
    fn query_score_sums_over_keywords() {
        let (m, users, items) = model();
        let q = vec!["baseball".to_string(), "stadium".to_string()];
        // u1's network: u0 (no tags), u2 (baseball + stadium on item a).
        assert_eq!(m.query_score(items[0], users[1], &q), 2.0);
        assert_eq!(m.query_score(items[1], users[1], &q), 0.0);
    }

    #[test]
    fn query_score_counts_duplicate_keywords_once() {
        let (m, users, items) = model();
        let q = vec!["baseball".to_string(), "stadium".to_string()];
        let dup = vec![
            "baseball".to_string(),
            "Stadium".to_string(),
            "BASEBALL".to_string(),
            "stadium".to_string(),
        ];
        assert_eq!(m.query_score(items[0], users[1], &dup), m.query_score(items[0], users[1], &q));
    }

    #[test]
    fn distinct_keywords_keeps_first_occurrences_case_insensitively() {
        let q: Vec<String> = ["Baseball", "BASEBALL", "baseball", "Museum", "baseBALL", "museum"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(distinct_keywords(&q), vec!["Baseball", "Museum"]);
        assert!(distinct_keywords(&[]).is_empty());
    }

    #[test]
    fn duplicate_heavy_queries_score_identically() {
        let (m, users, items) = model();
        let q = vec!["baseball".to_string(), "stadium".to_string()];
        // A pathologically duplicate-heavy query: every keyword repeated
        // many times in alternating casings.
        let mut heavy = Vec::new();
        for i in 0..50 {
            for word in &q {
                heavy.push(if i % 2 == 0 { word.to_uppercase() } else { word.clone() });
            }
        }
        for &u in &users {
            for &i in &items {
                assert_eq!(m.query_score(i, u, &heavy), m.query_score(i, u, &q));
            }
        }
    }

    #[test]
    fn jaccard_similarities() {
        let (m, users, _) = model();
        // networks: u0 {u1}, u1 {u0,u2}, u2 {u1} -> J(u0,u2) = 1.0.
        assert_eq!(m.network_jaccard(users[0], users[2]), 1.0);
        assert_eq!(m.network_jaccard(users[0], users[1]), 0.0);
        // items: u1 {a}, u2 {a,b} -> 1/2.
        assert_eq!(m.behavior_jaccard(users[1], users[2]), 0.5);
        // A user with no activity has Jaccard 0 with everyone.
        assert_eq!(m.behavior_jaccard(users[0], users[1]), 0.0);
    }

    #[test]
    fn tag_assignments_cover_every_tagger_group() {
        let (m, _, items) = model();
        let mut seen = std::collections::BTreeSet::new();
        for (item, tag, taggers) in m.tag_assignments() {
            assert!(!taggers.is_empty());
            assert_eq!(taggers, m.taggers_of(item, tag));
            seen.insert((item, tag.to_string()));
        }
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&(items[0], "baseball".to_string())));
        assert!(seen.contains(&(items[0], "stadium".to_string())));
        assert!(seen.contains(&(items[1], "museum".to_string())));
    }

    #[test]
    fn tag_lookups_normalize_case() {
        let (m, _, items) = model();
        assert_eq!(m.taggers_of(items[0], "BaseBall").len(), 2);
        assert_eq!(m.items_with_tag("MUSEUM").len(), 1);
    }

    #[test]
    fn missing_users_yield_empty_sets() {
        let (m, ..) = model();
        let ghost = NodeId(999);
        assert!(m.items_of(ghost).is_empty());
        assert!(m.network_of(ghost).is_empty());
        assert_eq!(m.keyword_score(NodeId(998), ghost, "x"), 0.0);
    }
}
