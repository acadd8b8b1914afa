//! Hybrid clustering (paper Def. 13).

use super::ClusteringStrategy;
use crate::sitemodel::SiteView;
use socialscope_graph::NodeId;

/// Two users belong to the same hybrid cluster when the *members of their
/// networks* tag similarly: for all `v1 ∈ network(u1)` and
/// `v2 ∈ network(u2)`, `|items(v1) ∩ items(v2)| / |items(v1) ∪ items(v2)|
/// ≥ θ`.
///
/// The definition quantifies universally over network-member pairs; an empty
/// network on either side therefore never matches a non-empty one (there is
/// no evidence the networks tag alike), and two empty networks are treated
/// as not matching either. The paper leaves exploring this strategy to
/// future work; experiment E5 includes it in the θ sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridClustering;

impl ClusteringStrategy for HybridClustering {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn same_cluster_in(&self, site: &SiteView<'_>, a: NodeId, b: NodeId, theta: f64) -> bool {
        let na = site.network_of(a);
        let nb = site.network_of(b);
        if na.is_empty() || nb.is_empty() {
            return false;
        }
        for &v1 in na {
            for &v2 in nb {
                if site.behavior_jaccard(v1, v2) < theta {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sitemodel::SiteModel;
    use socialscope_graph::GraphBuilder;

    #[test]
    fn predicate_follows_definition_13() {
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let v1 = b.add_user("v1");
        let v2 = b.add_user("v2");
        let i = b.add_item("i", &["destination"]);
        let j = b.add_item("j", &["destination"]);
        b.befriend(u1, v1);
        b.befriend(u2, v2);
        // v1 and v2 tag the same items -> hybrid cluster at any θ ≤ 1.
        b.tag(v1, i, &["t"]);
        b.tag(v1, j, &["t"]);
        b.tag(v2, i, &["t"]);
        b.tag(v2, j, &["t"]);
        let site = SiteModel::from_graph(&b.build());
        assert!(HybridClustering.same_cluster(&site, u1, u2, 1.0));

        // Remove the overlap: v2 now tags a disjoint item set.
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let v1 = b.add_user("v1");
        let v2 = b.add_user("v2");
        let i = b.add_item("i", &["destination"]);
        let j = b.add_item("j", &["destination"]);
        b.befriend(u1, v1);
        b.befriend(u2, v2);
        b.tag(v1, i, &["t"]);
        b.tag(v2, j, &["t"]);
        let site = SiteModel::from_graph(&b.build());
        assert!(!HybridClustering.same_cluster(&site, u1, u2, 0.1));
    }

    #[test]
    fn empty_networks_do_not_match() {
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let v = b.add_user("v");
        b.befriend(u1, v);
        let site = SiteModel::from_graph(&b.build());
        assert!(!HybridClustering.same_cluster(&site, u1, u2, 0.0));
        assert!(!HybridClustering.same_cluster(&site, u2, u2, 0.0));
    }
}
