//! Recommendation and group explanations (paper §7.2).
//!
//! An explanation depends on the strategy that produced a result:
//!
//! * content-based: `Expl(u, i) = { i' | ItemSim(i, i') > 0 ∧ i' ∈ Items(u) }`
//!   — the items the user rated that are similar to the recommended item,
//!   optionally weighted by `ItemSim(i, i') × rating(u, i')`;
//! * collaborative filtering: `Expl(u, i) = { u' | UserSim(u, u') > 0 ∧
//!   i ∈ Items(u') }` — the users similar (or connected) to `u` who endorsed
//!   the item;
//! * aggregate forms: "60% of your friends endorsed this item";
//! * group explanations: an aggregation of the member items' explanations.

use crate::grouping::ItemGroup;
use socialscope_discovery::recommend::item_cf::item_similarity;
use socialscope_graph::{HasAttrs, NodeId, SocialGraph};
use std::collections::BTreeSet;

/// One weighted element of an explanation (an item or a user).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationEntry {
    /// The explaining node (an item for content-based, a user for CF).
    pub node: NodeId,
    /// Its weight (`ItemSim × rating` or `UserSim × rating`).
    pub weight: f64,
}

/// An explanation of a recommended item (or of a group).
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The explained item, when item-level (None for group explanations).
    pub item: Option<NodeId>,
    /// The explaining nodes with weights, strongest first.
    pub entries: Vec<ExplanationEntry>,
    /// A rendered natural-language summary.
    pub summary: String,
}

/// Content-based explanation: the items the user has acted on that are
/// similar to the recommended item.
pub fn item_based_explanation(graph: &SocialGraph, user: NodeId, item: NodeId) -> Explanation {
    let mut entries: Vec<ExplanationEntry> = graph
        .out_links(user)
        .filter(|l| l.has_type("act"))
        .map(|l| (l.tgt, l.attrs.get_f64("rating").unwrap_or(1.0)))
        .filter(|(past, _)| *past != item)
        .map(|(past, rating)| ExplanationEntry {
            node: past,
            weight: item_similarity(graph, item, past) * rating,
        })
        .filter(|e| e.weight > 0.0)
        .collect();
    entries.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.node.cmp(&b.node)));
    let summary = match entries.len() {
        0 => "No similar item in your history".to_string(),
        n => format!("Similar to {n} item(s) you visited before"),
    };
    Explanation { item: Some(item), entries, summary }
}

/// Collaborative-filtering explanation: the users connected to (or similar
/// to) the asking user who endorsed the item.
pub fn user_based_explanation(graph: &SocialGraph, user: NodeId, item: NodeId) -> Explanation {
    // UserSim: 1.0 for direct connections, the `sim` attribute for derived
    // match links, 0 otherwise.
    let mut entries = Vec::new();
    let endorsers: BTreeSet<NodeId> =
        graph.in_links(item).filter(|l| l.has_type("act")).map(|l| l.src).collect();
    for &other in &endorsers {
        let mut sim: f64 = 0.0;
        for l in graph.links_between(user, other).chain(graph.links_between(other, user)) {
            if l.has_type("connect") {
                sim = sim.max(1.0);
            }
            if l.has_type("match") {
                sim = sim.max(l.attrs.get_f64("sim").unwrap_or(0.0));
            }
        }
        let rating = graph
            .links_between(other, item)
            .filter_map(|l| l.attrs.get_f64("rating"))
            .fold(1.0, f64::max);
        if sim > 0.0 {
            entries.push(ExplanationEntry { node: other, weight: sim * rating });
        }
    }
    entries.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.node.cmp(&b.node)));
    let summary = match entries.len() {
        0 => "Nobody you know endorsed this yet".to_string(),
        n => format!("{n} people you know endorsed this"),
    };
    Explanation { item: Some(item), entries, summary }
}

/// Aggregate explanation: "X% of your friends endorsed this item".
pub fn aggregate_explanation(graph: &SocialGraph, user: NodeId, item: NodeId) -> Explanation {
    let friends: BTreeSet<NodeId> = graph
        .links_of(user)
        .filter(|l| l.has_type("connect"))
        .map(|l| if l.src == user { l.tgt } else { l.src })
        .collect();
    let endorsers: BTreeSet<NodeId> =
        graph.in_links(item).filter(|l| l.has_type("act")).map(|l| l.src).collect();
    let endorsing_friends: Vec<NodeId> = friends.intersection(&endorsers).copied().collect();
    let percent = if friends.is_empty() {
        0.0
    } else {
        100.0 * endorsing_friends.len() as f64 / friends.len() as f64
    };
    Explanation {
        item: Some(item),
        entries: endorsing_friends
            .iter()
            .map(|&f| ExplanationEntry { node: f, weight: 1.0 })
            .collect(),
        summary: format!("{percent:.0}% of your friends endorsed this item"),
    }
}

/// Group explanation: aggregate the member items' user-based explanations
/// into one concise statement ("endorsed by N people you know, most often
/// …").
pub fn group_explanation(graph: &SocialGraph, user: NodeId, group: &ItemGroup) -> Explanation {
    let mut endorser_counts: std::collections::BTreeMap<NodeId, usize> = Default::default();
    for &item in &group.items {
        for entry in user_based_explanation(graph, user, item).entries {
            *endorser_counts.entry(entry.node).or_default() += 1;
        }
    }
    let mut entries: Vec<ExplanationEntry> = endorser_counts
        .into_iter()
        .map(|(node, count)| ExplanationEntry { node, weight: count as f64 })
        .collect();
    entries.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.node.cmp(&b.node)));
    let summary = if entries.is_empty() {
        format!("`{}`: no social endorsement", group.label)
    } else {
        format!("`{}`: endorsed by {} people you know", group.label, entries.len())
    };
    Explanation { item: None, entries, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// John rated Coors Field; friends Mary and Pete visited the museum;
    /// stranger visited the opera.
    fn site() -> (SocialGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let mary = b.add_user("Mary");
        let pete = b.add_user("Pete");
        let stranger = b.add_user("Stranger");
        let coors = b.add_item("Coors Field", &["destination"]);
        let museum = b.add_item("Ballpark Museum", &["destination"]);
        let opera = b.add_item("Opera", &["destination"]);
        b.befriend(john, mary);
        b.befriend(john, pete);
        b.rate(john, coors, 5.0);
        b.visit(mary, museum);
        b.visit(mary, coors);
        b.visit(pete, museum);
        b.visit(stranger, opera);
        (b.build(), john, coors, museum, opera)
    }

    #[test]
    fn item_based_explanation_lists_similar_history() {
        let (g, john, coors, museum, _) = site();
        let expl = item_based_explanation(&g, john, museum);
        // John's history contains Coors Field, which shares Mary with the
        // museum, so it explains the recommendation.
        assert_eq!(expl.entries.len(), 1);
        assert_eq!(expl.entries[0].node, coors);
        assert!(expl.entries[0].weight > 0.0);
        assert!(expl.summary.contains("1 item"));
    }

    #[test]
    fn user_based_explanation_lists_endorsing_connections() {
        let (g, john, _, museum, opera) = site();
        let expl = user_based_explanation(&g, john, museum);
        assert_eq!(expl.entries.len(), 2);
        assert!(expl.summary.contains("2 people"));
        let none = user_based_explanation(&g, john, opera);
        assert!(none.entries.is_empty());
        assert!(none.summary.contains("Nobody"));
    }

    #[test]
    fn aggregate_explanation_reports_percentages() {
        let (g, john, coors, museum, _) = site();
        let expl = aggregate_explanation(&g, john, museum);
        assert!(expl.summary.starts_with("100%"));
        let expl = aggregate_explanation(&g, john, coors);
        assert!(expl.summary.starts_with("50%"));
        // A user with no friends gets 0%.
        let loner_expl = aggregate_explanation(&g, NodeId(999), museum);
        assert!(loner_expl.summary.starts_with("0%"));
    }

    #[test]
    fn group_explanation_aggregates_member_items() {
        let (g, john, coors, museum, opera) = site();
        let group = ItemGroup { label: "baseball places".into(), items: vec![coors, museum] };
        let expl = group_explanation(&g, john, &group);
        assert_eq!(expl.entries.len(), 2);
        assert!(expl.summary.contains("baseball places"));
        let empty_group = ItemGroup { label: "nightlife".into(), items: vec![opera] };
        let expl = group_explanation(&g, john, &empty_group);
        assert!(expl.entries.is_empty());
        assert!(expl.summary.contains("no social endorsement"));
    }
}
