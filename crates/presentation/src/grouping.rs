//! Result grouping (paper §7.1).

use socialscope_graph::{HasAttrs, NodeId, SocialGraph};
use std::collections::{BTreeMap, BTreeSet};

/// A group of result items with a human-readable label.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemGroup {
    /// Display label (an attribute value, a topic label, or a social anchor).
    pub label: String,
    /// Items in the group.
    pub items: Vec<NodeId>,
}

impl ItemGroup {
    /// Number of items in the group.
    pub fn len(&self) -> usize {
        self.items.len()
    }
    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Which grouping mechanism to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupingStrategy {
    /// Social grouping (Def. 14) at a Jaccard threshold θ.
    Social {
        /// The threshold θ over shared taggers.
        theta: f64,
    },
    /// Topical grouping by derived `topic` nodes.
    Topical,
    /// Structural grouping by the values of an item attribute (faceting).
    Structural {
        /// Attribute to facet on (e.g. `type`, `city`).
        attribute: String,
    },
}

/// Users who tagged (or otherwise acted on) an item — the `taggers(i)` of
/// Def. 14.
fn taggers(graph: &SocialGraph, item: NodeId) -> BTreeSet<NodeId> {
    graph.in_links(item).filter(|l| l.has_type("act")).map(|l| l.src).collect()
}

fn jaccard(a: &BTreeSet<NodeId>, b: &BTreeSet<NodeId>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Social grouping (Def. 14): two items belong to the same group when the
/// sets of users who endorsed them overlap with Jaccard ≥ θ. Groups are
/// formed greedily with the first item of a group acting as its anchor; the
/// group label names the anchor item. Items endorsed by nobody fall into a
/// trailing "unendorsed" group.
pub fn social_grouping(graph: &SocialGraph, items: &[NodeId], theta: f64) -> Vec<ItemGroup> {
    let mut groups: Vec<(BTreeSet<NodeId>, ItemGroup)> = Vec::new();
    let mut unendorsed = ItemGroup { label: "unendorsed".to_string(), items: Vec::new() };
    for &item in items {
        let t = taggers(graph, item);
        if t.is_empty() {
            unendorsed.items.push(item);
            continue;
        }
        let mut placed = false;
        for (anchor_taggers, group) in groups.iter_mut() {
            if jaccard(anchor_taggers, &t) >= theta {
                group.items.push(item);
                placed = true;
                break;
            }
        }
        if !placed {
            let label = graph
                .node(item)
                .and_then(|n| n.name().map(|s| format!("endorsed like {s}")))
                .unwrap_or_else(|| format!("group {}", groups.len() + 1));
            groups.push((t, ItemGroup { label, items: vec![item] }));
        }
    }
    let mut out: Vec<ItemGroup> = groups.into_iter().map(|(_, g)| g).collect();
    if !unendorsed.is_empty() {
        out.push(unendorsed);
    }
    out
}

/// Topical grouping: group items by the `topic` nodes they `belong` to
/// (items attached to several topics appear in each; items without a topic
/// fall into "other topics").
pub fn topical_grouping(graph: &SocialGraph, items: &[NodeId]) -> Vec<ItemGroup> {
    let mut by_topic: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let mut untopical = Vec::new();
    for &item in items {
        let topics: Vec<NodeId> = graph
            .out_links(item)
            .filter(|l| l.has_type("belong"))
            .map(|l| l.tgt)
            .filter(|t| graph.node(*t).map(|n| n.has_type("topic")).unwrap_or(false))
            .collect();
        if topics.is_empty() {
            untopical.push(item);
        } else {
            for t in topics {
                by_topic.entry(t).or_default().push(item);
            }
        }
    }
    let mut out: Vec<ItemGroup> = by_topic
        .into_iter()
        .map(|(topic, items)| ItemGroup {
            label: graph
                .node(topic)
                .and_then(|n| n.attrs.get_str("label").map(str::to_string))
                .unwrap_or_else(|| topic.to_string()),
            items,
        })
        .collect();
    if !untopical.is_empty() {
        out.push(ItemGroup { label: "other topics".to_string(), items: untopical });
    }
    out
}

/// Structural (faceted) grouping: group items by each value of an attribute.
/// Multi-valued attributes place the item in every value's group.
pub fn structural_grouping(
    graph: &SocialGraph,
    items: &[NodeId],
    attribute: &str,
) -> Vec<ItemGroup> {
    let mut by_value: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
    let mut missing = Vec::new();
    for &item in items {
        let Some(node) = graph.node(item) else { continue };
        match node.attrs.get(attribute) {
            Some(value) if !value.is_empty() => {
                for scalar in value.iter() {
                    by_value.entry(scalar.as_text()).or_default().push(item);
                }
            }
            _ => missing.push(item),
        }
    }
    let mut out: Vec<ItemGroup> =
        by_value.into_iter().map(|(label, items)| ItemGroup { label, items }).collect();
    if !missing.is_empty() {
        out.push(ItemGroup { label: format!("no {attribute}"), items: missing });
    }
    out
}

/// Apply a grouping strategy.
pub fn group_items(
    graph: &SocialGraph,
    items: &[NodeId],
    strategy: &GroupingStrategy,
) -> Vec<ItemGroup> {
    match strategy {
        GroupingStrategy::Social { theta } => social_grouping(graph, items, *theta),
        GroupingStrategy::Topical => topical_grouping(graph, items),
        GroupingStrategy::Structural { attribute } => structural_grouping(graph, items, attribute),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// Alexia's field-trip scenario: history places endorsed by classmates,
    /// soccer places endorsed by team mates, plus an unendorsed item.
    fn site() -> (SocialGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let classmates: Vec<_> = (0..3).map(|i| b.add_user(&format!("class{i}"))).collect();
        let team: Vec<_> = (0..3).map(|i| b.add_user(&format!("team{i}"))).collect();
        let gettysburg = b.add_item_with_keywords("Gettysburg", &["destination"], &["history"]);
        let liberty = b.add_item_with_keywords("Liberty Bell", &["destination"], &["history"]);
        let stadium = b.add_item_with_keywords("Soccer Stadium", &["destination"], &["soccer"]);
        let obscure = b.add_item("Obscure Place", &["destination"]);
        for &c in &classmates {
            b.visit(c, gettysburg);
            b.visit(c, liberty);
        }
        for &t in &team {
            b.visit(t, stadium);
        }
        let topic_history = b.add_topic("american history");
        b.belongs_to(gettysburg, topic_history);
        b.belongs_to(liberty, topic_history);
        (b.build(), vec![gettysburg, liberty, stadium, obscure])
    }

    #[test]
    fn social_grouping_separates_endorser_communities() {
        let (g, items) = site();
        let groups = social_grouping(&g, &items, 0.5);
        // history group (classmates), soccer group (team), unendorsed group.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].items.len(), 2);
        assert_eq!(groups[1].items.len(), 1);
        assert_eq!(groups.last().unwrap().label, "unendorsed");
    }

    #[test]
    fn social_grouping_theta_zero_merges_endorsed_items() {
        let (g, items) = site();
        let groups = social_grouping(&g, &items, 0.0);
        // All endorsed items share one group (Jaccard >= 0 always holds).
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].items.len(), 3);
    }

    #[test]
    fn topical_grouping_uses_belong_links() {
        let (g, items) = site();
        let groups = topical_grouping(&g, &items);
        assert_eq!(groups.len(), 2);
        let history = groups.iter().find(|g| g.label == "american history").unwrap();
        assert_eq!(history.items.len(), 2);
        let other = groups.iter().find(|g| g.label == "other topics").unwrap();
        assert_eq!(other.items.len(), 2);
    }

    #[test]
    fn structural_grouping_facets_on_attribute_values() {
        let (g, items) = site();
        let groups = structural_grouping(&g, &items, "keywords");
        let labels: Vec<&str> = groups.iter().map(|g| g.label.as_str()).collect();
        assert!(labels.contains(&"history"));
        assert!(labels.contains(&"soccer"));
        assert!(labels.contains(&"no keywords"));
        // Faceting on type: every destination falls into the same groups.
        let by_type = structural_grouping(&g, &items, "type");
        assert!(by_type.iter().any(|g| g.label == "destination" && g.items.len() == 4));
    }

    #[test]
    fn group_items_dispatches_on_strategy() {
        let (g, items) = site();
        assert_eq!(
            group_items(&g, &items, &GroupingStrategy::Topical),
            topical_grouping(&g, &items)
        );
        assert_eq!(
            group_items(&g, &items, &GroupingStrategy::Social { theta: 0.5 }),
            social_grouping(&g, &items, 0.5)
        );
        assert_eq!(
            group_items(&g, &items, &GroupingStrategy::Structural { attribute: "type".into() }),
            structural_grouping(&g, &items, "type")
        );
    }

    #[test]
    fn grouping_covers_every_item_at_least_once() {
        let (g, items) = site();
        for strategy in [
            GroupingStrategy::Social { theta: 0.5 },
            GroupingStrategy::Topical,
            GroupingStrategy::Structural { attribute: "type".into() },
        ] {
            let groups = group_items(&g, &items, &strategy);
            for item in &items {
                assert!(
                    groups.iter().any(|g| g.items.contains(item)),
                    "{item} missing under {strategy:?}"
                );
            }
        }
    }
}
