//! Random engine fixtures shared by the engine-level apply suites: a small
//! random site whose clustering was computed before two late users joined,
//! the clustered engine (with an exact fallback) and the exact engine over
//! it, and event batches that mix assigns and retracts by known users,
//! late joiners and taggers the graph never saw.

use proptest::prelude::*;
use socialscope_content::{
    BehaviorBasedClustering, ClusteredIndex, ClusteringStrategy, ExactIndex, HybridClustering,
    NetworkBasedClustering, SiteModel, TagEvent,
};
use socialscope_discovery::recommend::{ClusteredNetworkAwareSearch, NetworkAwareSearch};
use socialscope_graph::{GraphBuilder, NodeId, SocialGraph};

pub const TAGS: [&str; 4] = ["baseball", "museum", "family", "hiking"];

/// The three clustering strategies recluster-on-join can run.
pub const STRATEGIES: [&dyn ClusteringStrategy; 3] =
    [&NetworkBasedClustering, &BehaviorBasedClustering, &HybridClustering];

/// (users, items, friendship edges, tag actions) describing a random site.
pub type SiteInputs = (usize, usize, Vec<(usize, usize)>, Vec<(usize, usize, usize)>);

pub fn arb_site() -> impl Strategy<Value = SiteInputs> {
    (
        3usize..8,
        3usize..8,
        prop::collection::vec((0usize..8, 0usize..8), 1..25),
        prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..40),
    )
}

/// Raw event picks: (tagger, item, tag, kind); taggers past the site's
/// users are the late joiners, then strangers; an odd kind retracts.
pub fn arb_events() -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
    prop::collection::vec((0usize..14, 0usize..8, 0usize..4, 0usize..2), 0..24)
}

/// Everything one case runs against.
pub struct Fixture {
    pub clustered: ClusteredNetworkAwareSearch,
    pub exact: NetworkAwareSearch,
    pub events: Vec<TagEvent>,
}

/// Build the graph with `late` extra users befriended into the base
/// population (`with_late`), or without them.
fn graph(inputs: &SiteInputs, late: usize, with_late: bool) -> (SocialGraph, Vec<NodeId>) {
    let (users, items, friendships, tags) = inputs;
    let mut b = GraphBuilder::new();
    let mut user_ids: Vec<NodeId> = (0..*users).map(|i| b.add_user(&format!("u{i}"))).collect();
    let item_ids: Vec<NodeId> =
        (0..*items).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    for &(a, c) in friendships {
        let (a, c) = (a % users, c % users);
        if a != c {
            b.befriend(user_ids[a], user_ids[c]);
        }
    }
    for &(u, i, t) in tags {
        b.tag(user_ids[u % users], item_ids[i % items], &[TAGS[t % TAGS.len()]]);
    }
    if with_late {
        for l in 0..late {
            let id = b.add_user(&format!("late{l}"));
            b.befriend(id, user_ids[l % users]);
            user_ids.push(id);
        }
    }
    (b.build(), user_ids)
}

/// The engines for one case: the clustering comes from the site *before*
/// two late users joined, so their first events recluster them.
pub fn fixture(
    inputs: &SiteInputs,
    raw: &[(usize, usize, usize, usize)],
    strategy: &dyn ClusteringStrategy,
    theta: f64,
) -> Fixture {
    let (base, _) = graph(inputs, 2, false);
    let (full, user_ids) = graph(inputs, 2, true);
    let clustering = strategy.cluster(&SiteModel::from_graph(&base), theta);
    let site = SiteModel::from_graph(&full);
    let index = ClusteredIndex::build(&site, clustering);
    let fallback = ExactIndex::build(&site);
    let items: Vec<NodeId> = site.items().collect();
    let events = raw
        .iter()
        .map(|&(u, i, t, kind)| {
            // Past the known users: a tagger the graph never saw.
            let tagger = user_ids.get(u).copied().unwrap_or(NodeId(1_000_000 + u as u64));
            let (item, tag) = (items[i % items.len()], TAGS[t % TAGS.len()]);
            if kind == 0 {
                TagEvent::assign(tagger, item, tag)
            } else {
                TagEvent::retract(tagger, item, tag)
            }
        })
        .collect();
    Fixture {
        clustered: ClusteredNetworkAwareSearch::from_parts(site, index).with_fallback(fallback),
        exact: NetworkAwareSearch::build(&full),
        events,
    }
}

/// A `Debug` rendering with every clustered index's build stamp masked.
/// Stamps come from a process-wide counter — every effective apply draws
/// a fresh one — so two engines that reached the same state by separate
/// applies differ there and nowhere else.
pub fn without_stamps(debug: String) -> String {
    const FIELD: &str = "stamp: ";
    let mut out = String::with_capacity(debug.len());
    let mut rest = debug.as_str();
    while let Some(at) = rest.find(FIELD) {
        let (head, tail) = rest.split_at(at + FIELD.len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}
