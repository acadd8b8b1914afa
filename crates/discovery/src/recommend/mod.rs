//! Recommendation strategies (paper §2, §5.4, §7.2).
//!
//! Four strategies are provided, matching the ones the paper's examples and
//! explanation section rely on:
//!
//! * [`algebra_cf`] — the user-based collaborative filtering of Example 5,
//!   expressed as a reusable algebra *plan* (and as a direct operator
//!   pipeline) so it can be optimized and benchmarked like any other
//!   discovery task;
//! * [`item_cf`] — an item-based baseline ("items similar to items you
//!   rated"), which is also what the content-based explanation of §7.2
//!   assumes;
//! * [`expert`] — the expert fallback of Example 2 for users whose own
//!   network carries no signal for the query;
//! * [`network_aware`] — §6.2's network-aware keyword search served from
//!   the content layer's exact inverted index via threshold top-k.

pub mod algebra_cf;
pub mod expert;
pub mod item_cf;
pub mod network_aware;

pub use algebra_cf::{collaborative_filtering, collaborative_filtering_plan, CfConfig};
pub use expert::expert_recommendations;
pub use item_cf::item_based_recommendations;
pub use network_aware::{ClusteredNetworkAwareSearch, NetworkAwareSearch};

#[cfg(test)]
mod batch_recommender_tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    #[test]
    fn both_engines_serve_through_the_trait_object_free_surface() {
        let mut b = GraphBuilder::new();
        let u0 = b.add_user("u0");
        let u1 = b.add_user("u1");
        let item = b.add_item("i0", &["destination"]);
        b.befriend(u0, u1);
        b.tag(u1, item, &["baseball"]);
        let graph = b.build();
        fn serve(engine: &impl BatchRecommender, seekers: &[NodeId]) -> Vec<Vec<Recommendation>> {
            engine.recommend_batch_opts(seekers, &["baseball".to_string()], 3, BatchOptions::new())
        }
        let exact = serve(&NetworkAwareSearch::build(&graph), &[u0, u1]);
        let clustered = serve(&ClusteredNetworkAwareSearch::build_default(&graph), &[u0, u1]);
        assert_eq!(exact[0][0].item, item);
        assert_eq!(exact.len(), clustered.len());
        for (e, c) in exact.iter().zip(&clustered) {
            assert_eq!(
                e.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>(),
                c.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>()
            );
        }
    }
}

use socialscope_content::BatchOptions;
use socialscope_graph::{NodeId, SocialGraph};

/// The one batch-serving surface the discovery layer consumes: any engine
/// that can answer a multi-seeker keyword request under [`BatchOptions`]
/// (threads, scratch reuse, deadline budget). Implemented by
/// [`NetworkAwareSearch`] (exact index) and
/// [`ClusteredNetworkAwareSearch`] (space-constrained clustered index,
/// optionally with an exact fallback), which makes the engine choice a
/// *value* rather than a method name — callers like
/// [`InformationDiscoverer::discover_opts`] take `&impl BatchRecommender`
/// and serve either deployment through one code path.
///
/// [`InformationDiscoverer::discover_opts`]: crate::discoverer::InformationDiscoverer::discover_opts
pub trait BatchRecommender {
    /// One recommendation list per seeker, in input order (positive
    /// scores only), served under the given [`BatchOptions`]. When the
    /// options carry an expired [`BatchOptions::deadline`], unserved
    /// seekers get the defined degraded answer: an empty list.
    fn recommend_batch_opts(
        &self,
        seekers: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<Recommendation>>;
}

/// A scored recommendation of an item to a user.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended item.
    pub item: NodeId,
    /// The recommendation score (strategy-specific scale).
    pub score: f64,
    /// The strategy that produced it.
    pub strategy: &'static str,
}

/// Recommend items for a user, preferring collaborative filtering and
/// falling back to expert endorsement when the user has no usable activity
/// overlap with anyone (Example 2's Selma case).
pub fn recommend_for_user(
    graph: &SocialGraph,
    user: NodeId,
    keywords: &[String],
    k: usize,
) -> Vec<Recommendation> {
    let cf = collaborative_filtering(graph, user, &CfConfig::default());
    if !cf.is_empty() {
        return cf.into_iter().take(k).collect();
    }
    expert_recommendations(graph, keywords, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    #[test]
    fn falls_back_to_experts_when_cf_has_nothing() {
        let mut b = GraphBuilder::new();
        let selma = b.add_user("Selma");
        let expert = b.add_user("Expert");
        let parc = b.add_item("Parc de la Ciutadella", &["destination"]);
        b.tag(expert, parc, &["family", "babies"]);
        let g = b.build();
        let recs = recommend_for_user(&g, selma, &["family".to_string()], 3);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].item, parc);
        assert_eq!(recs[0].strategy, "expert");
    }

    #[test]
    fn prefers_collaborative_filtering_when_available() {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let alice = b.add_user("Alice");
        let coors = b.add_item("Coors Field", &["destination"]);
        let museum = b.add_item("Museum", &["destination"]);
        b.visit(john, coors);
        b.visit(alice, coors);
        b.visit(alice, museum);
        let g = b.build();
        let recs = recommend_for_user(&g, john, &[], 3);
        assert!(!recs.is_empty());
        assert_eq!(recs[0].strategy, "algebra_cf");
        assert!(recs.iter().any(|r| r.item == museum));
    }
}
