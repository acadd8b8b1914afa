//! Semantic relevance and its combination with social relevance.
//!
//! The paper's central observation (§2.2) is that discovery on social
//! content sites must *integrate* semantic relevance (how well an item
//! matches the query's content conditions) with social relevance (how
//! appealing the item is to this particular user given their profile,
//! connections and activities), rather than re-ranking one by the other as
//! personalized search does. The combination here is a convex mix controlled
//! by [`RelevanceWeights`], degrading gracefully to pure semantic relevance
//! for anonymous queries and to pure social relevance for empty queries.

use crate::query::UserQuery;
use socialscope_algebra::{Condition, Scoring, TfIdfScoring};
use socialscope_graph::{Node, SocialGraph};

/// The mixing weight between semantic and social relevance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelevanceWeights {
    /// Weight of semantic relevance; social relevance receives `1 - alpha`.
    pub alpha: f64,
}

impl Default for RelevanceWeights {
    fn default() -> Self {
        RelevanceWeights { alpha: 0.5 }
    }
}

impl RelevanceWeights {
    /// A weighting that considers only semantic relevance.
    pub fn semantic_only() -> Self {
        RelevanceWeights { alpha: 1.0 }
    }

    /// A weighting that considers only social relevance.
    pub fn social_only() -> Self {
        RelevanceWeights { alpha: 0.0 }
    }
}

/// Combine a semantic and a social score under the given weights, following
/// the paper's rules for degenerate queries: with no keywords the semantic
/// component is dropped; with no user the social component is dropped.
pub fn combined_score(
    weights: RelevanceWeights,
    query: &UserQuery,
    semantic: f64,
    social: f64,
) -> f64 {
    match (query.keywords.is_empty(), query.user.is_none()) {
        (true, true) => 0.0,
        (true, false) => social,
        (false, true) => semantic,
        (false, false) => weights.alpha * semantic + (1.0 - weights.alpha) * social,
    }
}

/// Semantic relevance of items against query keywords: tf–idf over the item
/// corpus of the social content graph (the "default scoring function" the
/// selection operators fall back to is the simpler keyword fraction; the
/// discoverer prefers the corpus-aware scorer).
#[derive(Debug, Clone)]
pub struct SemanticScorer {
    tfidf: TfIdfScoring,
}

impl SemanticScorer {
    /// Build corpus statistics from the graph.
    pub fn from_graph(graph: &SocialGraph) -> Self {
        SemanticScorer { tfidf: TfIdfScoring::from_graph(graph) }
    }

    /// Score a node against a query.
    pub fn score(&self, node: &Node, query: &UserQuery) -> f64 {
        if query.keywords.is_empty() {
            return 1.0;
        }
        let condition = Condition::keywords(query.keywords.iter().cloned());
        self.tfidf.score(&node.attrs, &condition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::{GraphBuilder, NodeId};

    #[test]
    fn combined_score_degrades_gracefully() {
        let w = RelevanceWeights::default();
        let full = UserQuery::keywords_for(NodeId(1), "baseball");
        let empty = UserQuery::empty_for(NodeId(1));
        let anon = UserQuery::anonymous("baseball");
        assert_eq!(combined_score(w, &full, 0.8, 0.4), 0.5 * 0.8 + 0.5 * 0.4);
        assert_eq!(combined_score(w, &empty, 0.8, 0.4), 0.4);
        assert_eq!(combined_score(w, &anon, 0.8, 0.4), 0.8);
        let nothing = UserQuery::default();
        assert_eq!(combined_score(w, &nothing, 0.8, 0.4), 0.0);
    }

    #[test]
    fn weights_extremes() {
        let q = UserQuery::keywords_for(NodeId(1), "baseball");
        assert_eq!(combined_score(RelevanceWeights::semantic_only(), &q, 0.9, 0.1), 0.9);
        assert_eq!(combined_score(RelevanceWeights::social_only(), &q, 0.9, 0.1), 0.1);
    }

    #[test]
    fn semantic_scorer_prefers_matching_items() {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let coors =
            b.add_item_with_keywords("Coors Field", &["destination"], &["baseball", "denver"]);
        let opera = b.add_item_with_keywords("Opera House", &["destination"], &["music"]);
        let g = b.build();
        let scorer = SemanticScorer::from_graph(&g);
        let q = UserQuery::keywords_for(john, "Denver baseball");
        let coors_score = scorer.score(g.node(coors).unwrap(), &q);
        let opera_score = scorer.score(g.node(opera).unwrap(), &q);
        assert!(coors_score > opera_score);
        assert_eq!(scorer.score(g.node(opera).unwrap(), &UserQuery::empty_for(john)), 1.0);
    }
}
