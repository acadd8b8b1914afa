//! The Content Analyzer (paper §3, §5): offline derivation of new nodes and
//! links from the raw social content graph.
//!
//! The paper names three kinds of analyses, all of which are implemented
//! here and all of which are *expressible over the same graph* the algebra
//! manipulates, which is the point of the uniform framework:
//!
//! * **topic derivation** ([`topics`]) — Latent Dirichlet Allocation over
//!   the tag corpus (ref \[8\]), with a deterministic co-occurrence fallback;
//!   produces `topic` nodes and `belong` links;
//! * **association-rule mining** ([`assoc`]) — frequent tag-set mining in
//!   the spirit of ref \[3\]; produces rules the presentation layer can use
//!   for related-topic suggestions;
//! * **user-similarity derivation** ([`similarity`]) — `match` links between
//!   users with similar activity, the input to collaborative filtering.

pub mod assoc;
pub mod similarity;
pub mod topics;

pub use assoc::{mine_association_rules, AssociationRule};
pub use similarity::derive_similarity_links;
pub use topics::{TopicModel, TopicModelConfig};

use socialscope_graph::SocialGraph;

/// What one full analysis pass added to the graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Topic nodes added.
    pub topics_added: usize,
    /// `belong` links added (item/user → topic).
    pub belong_links_added: usize,
    /// `match` (user-similarity) links added.
    pub match_links_added: usize,
    /// Association rules mined (not materialized in the graph).
    pub rules_mined: usize,
}

/// The Content Analyzer: bundles the offline analyses and applies them to a
/// social content graph, enriching it in place. Analyses can be triggered by
/// the system or by a Social Content Administrator (paper §3); here they are
/// explicit method calls.
#[derive(Debug, Clone)]
pub struct ContentAnalyzer {
    /// Topic model configuration.
    pub topics: TopicModelConfig,
    /// Jaccard threshold for user-similarity `match` links.
    pub similarity_threshold: f64,
    /// Minimum support (fraction of transactions) for association rules.
    pub min_support: f64,
    /// Minimum confidence for association rules.
    pub min_confidence: f64,
}

impl Default for ContentAnalyzer {
    fn default() -> Self {
        ContentAnalyzer {
            topics: TopicModelConfig::default(),
            similarity_threshold: 0.3,
            min_support: 0.05,
            min_confidence: 0.5,
        }
    }
}

impl ContentAnalyzer {
    /// Run every analysis and enrich the graph in place.
    pub fn analyze(&self, graph: &mut SocialGraph) -> AnalysisReport {
        let mut report = AnalysisReport::default();

        let topic_model = TopicModel::derive(graph, &self.topics);
        let (topics_added, belong_added) = topic_model.materialize(graph);
        report.topics_added = topics_added;
        report.belong_links_added = belong_added;

        report.match_links_added = derive_similarity_links(graph, self.similarity_threshold);

        let rules = mine_association_rules(graph, self.min_support, self.min_confidence);
        report.rules_mined = rules.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::{GraphBuilder, HasAttrs};

    fn travel_site() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let users: Vec<_> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
        let ballparks: Vec<_> =
            (0..3).map(|i| b.add_item(&format!("ballpark{i}"), &["destination"])).collect();
        let museums: Vec<_> =
            (0..3).map(|i| b.add_item(&format!("museum{i}"), &["destination"])).collect();
        for &u in &users[0..3] {
            for &i in &ballparks {
                b.tag(u, i, &["baseball", "stadium"]);
            }
        }
        for &u in &users[3..6] {
            for &i in &museums {
                b.tag(u, i, &["history", "museum"]);
            }
        }
        b.build()
    }

    #[test]
    fn full_analysis_enriches_the_graph() {
        let mut g = travel_site();
        let nodes_before = g.node_count();
        let links_before = g.link_count();
        let report = ContentAnalyzer::default().analyze(&mut g);
        assert!(report.topics_added >= 2);
        assert!(report.belong_links_added > 0);
        assert!(report.match_links_added > 0);
        assert!(report.rules_mined > 0);
        assert_eq!(g.node_count(), nodes_before + report.topics_added);
        assert_eq!(
            g.link_count(),
            links_before + report.belong_links_added + report.match_links_added
        );
        assert!(g.nodes_of_type("topic").count() >= 2);
        assert!(g.links_of_type("match").count() > 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn analysis_is_type_catalog_friendly() {
        let mut g = travel_site();
        ContentAnalyzer::default().analyze(&mut g);
        // Every derived link carries one of the catalog's basic categories.
        for l in g.links() {
            assert!(
                l.has_type("act")
                    || l.has_type("belong")
                    || l.has_type("match")
                    || l.has_type("connect"),
                "unexpected link types {:?}",
                l.type_values()
            );
        }
    }
}
