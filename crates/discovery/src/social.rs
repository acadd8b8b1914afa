//! Social relevance (paper §2.1–2.2).
//!
//! Social relevance captures how appealing an item is to a *particular*
//! user, based on their own history, the activities of their connections,
//! and — when the user's own network is uninformative for the query, as in
//! Example 2 — the activities of topic experts.

use socialscope_content::SiteModel;
use socialscope_graph::{HasAttrs, NodeId, SocialGraph};
use std::collections::BTreeSet;

/// Social relevance scorer over a social content graph.
#[derive(Debug, Clone)]
pub struct SocialRelevance {
    site: SiteModel,
    /// Weight of the user's own past activity on the item (vs. network
    /// endorsements).
    pub own_history_weight: f64,
}

impl SocialRelevance {
    /// Build the scorer from a graph.
    pub fn from_graph(graph: &SocialGraph) -> Self {
        SocialRelevance { site: SiteModel::from_graph(graph), own_history_weight: 0.3 }
    }

    /// Borrow the underlying site model.
    pub fn site(&self) -> &SiteModel {
        &self.site
    }

    /// Users in `user`'s network who performed any activity on `item`,
    /// according to the activity links of the graph.
    pub fn endorsing_friends(
        &self,
        graph: &SocialGraph,
        user: NodeId,
        item: NodeId,
    ) -> BTreeSet<NodeId> {
        let network = self.site.network_of(user);
        graph
            .in_links(item)
            .filter(|l| l.has_type("act"))
            .map(|l| l.src)
            .filter(|u| network.contains(u))
            .collect()
    }

    /// Social relevance of an item for a user: the fraction of the user's
    /// network that endorsed (acted on) the item, plus a bonus when the user
    /// has interacted with it before. Returns 0 when the user has no
    /// network and no history with the item.
    pub fn score(&self, graph: &SocialGraph, user: NodeId, item: NodeId) -> f64 {
        let network = self.site.network_of(user);
        let endorsements = self.endorsing_friends(graph, user, item).len();
        let network_part =
            if network.is_empty() { 0.0 } else { endorsements as f64 / network.len() as f64 };
        let own = graph.links_between(user, item).any(|l| l.has_type("act"));
        let own_part = if own { 1.0 } else { 0.0 };
        (1.0 - self.own_history_weight) * network_part + self.own_history_weight * own_part
    }

    /// Expert-based social relevance (Example 2 fallback): the item's
    /// overall endorsement volume by the most active users on the query's
    /// topic, independent of the asking user's network. Experts are the
    /// users who tagged the most items carrying any of the query keywords
    /// as tags.
    pub fn expert_score(&self, graph: &SocialGraph, item: NodeId, keywords: &[String]) -> f64 {
        let experts = self.experts_for(keywords, 10);
        if experts.is_empty() {
            return 0.0;
        }
        let endorsers: BTreeSet<NodeId> =
            graph.in_links(item).filter(|l| l.has_type("act")).map(|l| l.src).collect();
        experts.iter().filter(|e| endorsers.contains(e)).count() as f64 / experts.len() as f64
    }

    /// The top-n users by tagging volume on the query keywords.
    pub fn experts_for(&self, keywords: &[String], n: usize) -> Vec<NodeId> {
        let mut counts: Vec<(usize, NodeId)> = self
            .site
            .users()
            .map(|u| {
                let c = keywords
                    .iter()
                    .filter(|k| self.site.tags_of(u).contains(&k.to_lowercase()))
                    .count();
                (c, u)
            })
            .filter(|(c, _)| *c > 0)
            .collect();
        counts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        counts.into_iter().take(n).map(|(_, u)| u).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// John has two friends; one visited Coors Field. A stranger visited the
    /// museum many times.
    fn site() -> (SocialGraph, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let mary = b.add_user("Mary");
        let pete = b.add_user("Pete");
        let expert = b.add_user("Expert");
        let coors = b.add_item("Coors Field", &["destination"]);
        let museum = b.add_item("B's Ballpark Museum", &["destination"]);
        b.befriend(john, mary);
        b.befriend(john, pete);
        b.visit(mary, coors);
        b.tag(expert, museum, &["baseball", "museum"]);
        b.tag(expert, coors, &["baseball"]);
        (b.build(), john, coors, museum)
    }

    #[test]
    fn network_endorsements_drive_social_score() {
        let (g, john, coors, museum) = site();
        let social = SocialRelevance::from_graph(&g);
        let coors_score = social.score(&g, john, coors);
        let museum_score = social.score(&g, john, museum);
        assert!(coors_score > museum_score);
        // Half of John's network endorsed Coors Field.
        assert!((coors_score - 0.7 * 0.5).abs() < 1e-9);
        assert_eq!(museum_score, 0.0);
        assert_eq!(social.endorsing_friends(&g, john, coors).len(), 1);
    }

    #[test]
    fn own_history_contributes() {
        let (mut g, john, coors, _) = site();
        let mut b = GraphBuilder::extending(std::mem::take(&mut g));
        b.visit(john, coors);
        let g = b.build();
        let social = SocialRelevance::from_graph(&g);
        let s = social.score(&g, john, coors);
        assert!((s - (0.7 * 0.5 + 0.3)).abs() < 1e-9);
    }

    #[test]
    fn expert_fallback_scores_items_without_network_signal() {
        let (g, _, coors, museum) = site();
        let social = SocialRelevance::from_graph(&g);
        let keywords = vec!["baseball".to_string()];
        let experts = social.experts_for(&keywords, 5);
        assert_eq!(experts.len(), 1);
        assert!(social.expert_score(&g, museum, &keywords) > 0.0);
        assert!(social.expert_score(&g, coors, &keywords) > 0.0);
        assert_eq!(social.expert_score(&g, coors, &["nonexistent".to_string()]), 0.0);
    }

    #[test]
    fn users_without_network_get_zero_network_part() {
        let (g, _, coors, _) = site();
        let social = SocialRelevance::from_graph(&g);
        let loner = NodeId(9999);
        assert_eq!(social.score(&g, loner, coors), 0.0);
    }
}
