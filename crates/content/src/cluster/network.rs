//! Network-based clustering (paper Def. 11).

use super::ClusteringStrategy;
use crate::sitemodel::SiteView;
use socialscope_graph::NodeId;

/// Two users belong to the same cluster when their networks are similar:
/// `|network(u1) ∩ network(u2)| / |network(u1) ∪ network(u2)| ≥ θ`.
///
/// Since item scores depend on the asking user's network, users with
/// substantially overlapping networks see similar scores, so one shared
/// inverted list per cluster loses little precision. The paper (citing its
/// ref \[5\]) reports that this strategy saves the most space at a modest
/// query-time overhead — the shape experiment E5 re-measures.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkBasedClustering;

impl ClusteringStrategy for NetworkBasedClustering {
    fn name(&self) -> &'static str {
        "network"
    }

    fn same_cluster_in(&self, site: &SiteView<'_>, a: NodeId, b: NodeId, theta: f64) -> bool {
        site.network_jaccard(a, b) >= theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sitemodel::SiteModel;
    use socialscope_graph::GraphBuilder;

    #[test]
    fn predicate_follows_definition_11() {
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let v: Vec<_> = (0..4).map(|i| b.add_user(&format!("v{i}"))).collect();
        // network(u1) = {v0, v1, v2}, network(u2) = {v1, v2, v3} -> J = 2/4.
        b.befriend(u1, v[0]);
        b.befriend(u1, v[1]);
        b.befriend(u1, v[2]);
        b.befriend(u2, v[1]);
        b.befriend(u2, v[2]);
        b.befriend(u2, v[3]);
        let site = SiteModel::from_graph(&b.build());
        assert!(NetworkBasedClustering.same_cluster(&site, u1, u2, 0.5));
        assert!(!NetworkBasedClustering.same_cluster(&site, u1, u2, 0.6));
    }

    #[test]
    fn users_with_empty_networks_never_match_nonempty_ones() {
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let v = b.add_user("v");
        b.befriend(u1, v);
        let site = SiteModel::from_graph(&b.build());
        assert!(!NetworkBasedClustering.same_cluster(&site, u1, u2, 0.1));
    }
}
