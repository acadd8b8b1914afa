//! The Meaningful Social Graph (paper §3).
//!
//! The Information Discoverer's output is not a flat result list but a
//! social content *sub-graph* that is semantically and socially relevant to
//! the user and query: the relevant items, the connections and activities
//! that made them relevant (their social provenance), and the ranked scores.
//! The presentation layer consumes this structure to group, rank and explain.

use socialscope_graph::{NodeId, SocialGraph};

/// One ranked result within a meaningful social graph.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedItem {
    /// The item node.
    pub item: NodeId,
    /// Semantic relevance component.
    pub semantic: f64,
    /// Social relevance component.
    pub social: f64,
    /// Combined relevance used for ranking.
    pub combined: f64,
}

/// The semantically and socially relevant sub-graph for a user and query,
/// with the ranked items and the provenance needed for explanations.
#[derive(Debug, Clone, Default)]
pub struct MeaningfulSocialGraph {
    /// The querying user, when known.
    pub user: Option<NodeId>,
    /// The relevant sub-graph: items, endorsing users, the activity and
    /// connection links that connect them.
    pub graph: SocialGraph,
    /// Items ranked by combined relevance (best first).
    pub ranked: Vec<RankedItem>,
}

impl MeaningfulSocialGraph {
    /// The ranked item ids, best first.
    pub fn item_ids(&self) -> Vec<NodeId> {
        self.ranked.iter().map(|r| r.item).collect()
    }

    /// The combined score of an item, if ranked.
    pub fn score_of(&self, item: NodeId) -> Option<f64> {
        self.ranked.iter().find(|r| r.item == item).map(|r| r.combined)
    }

    /// Keep only the best `k` items (the graph is left untouched — it still
    /// carries the provenance of the trimmed items).
    pub fn truncate(&mut self, k: usize) {
        self.ranked.truncate(k);
    }

    /// Number of ranked items.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether no item was ranked.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_accessors() {
        let msg = MeaningfulSocialGraph {
            user: Some(NodeId(1)),
            graph: SocialGraph::new(),
            ranked: vec![
                RankedItem { item: NodeId(10), semantic: 0.9, social: 0.5, combined: 0.7 },
                RankedItem { item: NodeId(11), semantic: 0.2, social: 0.8, combined: 0.5 },
            ],
        };
        assert_eq!(msg.item_ids(), vec![NodeId(10), NodeId(11)]);
        assert_eq!(msg.score_of(NodeId(11)), Some(0.5));
        assert_eq!(msg.score_of(NodeId(99)), None);
        assert_eq!(msg.len(), 2);
        assert!(!msg.is_empty());
        let mut t = msg.clone();
        t.truncate(1);
        assert_eq!(t.len(), 1);
    }
}
