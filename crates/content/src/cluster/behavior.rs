//! Behavior-based clustering (paper Def. 12).

use super::ClusteringStrategy;
use crate::sitemodel::SiteView;
use socialscope_graph::NodeId;

/// Two users belong to the same cluster when their tagging behaviour is
/// similar: `|items(u1) ∩ items(u2)| / |items(u1) ∪ items(u2)| ≥ θ`.
///
/// The paper motivates this as a fix for the failure mode of network-based
/// clustering where two users share most of their network yet the tagging
/// activity comes from the non-shared part: clustering by what users
/// actually tag keeps item scores close within a cluster at the price of a
/// larger index (a user's network members may spread over many clusters, so
/// more lists are touched at query time — but fewer exact scores must be
/// recomputed). Reference \[5\] reports better processing time at the expense
/// of space compared to network-based clustering; experiment E5 re-measures
/// the shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct BehaviorBasedClustering;

impl ClusteringStrategy for BehaviorBasedClustering {
    fn name(&self) -> &'static str {
        "behavior"
    }

    fn same_cluster_in(&self, site: &SiteView<'_>, a: NodeId, b: NodeId, theta: f64) -> bool {
        site.behavior_jaccard(a, b) >= theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sitemodel::SiteModel;
    use socialscope_graph::GraphBuilder;

    #[test]
    fn predicate_follows_definition_12() {
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let items: Vec<_> =
            (0..3).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        // items(u1) = {i0, i1}, items(u2) = {i1, i2} -> J = 1/3.
        b.tag(u1, items[0], &["t"]);
        b.tag(u1, items[1], &["t"]);
        b.tag(u2, items[1], &["t"]);
        b.tag(u2, items[2], &["t"]);
        let site = SiteModel::from_graph(&b.build());
        assert!(BehaviorBasedClustering.same_cluster(&site, u1, u2, 0.33));
        assert!(!BehaviorBasedClustering.same_cluster(&site, u1, u2, 0.34));
    }

    #[test]
    fn paper_scenario_network_clusters_behavior_separates() {
        // The §6.2 failure scenario: u1 and u2 share most of their network,
        // but the tagging comes from the non-shared part, so their behaviour
        // differs. Network-based clustering groups them; behavior-based does
        // not.
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let shared: Vec<_> = (0..5).map(|i| b.add_user(&format!("s{i}"))).collect();
        let extra = b.add_user("extra");
        let i1 = b.add_item("i1", &["destination"]);
        let i2 = b.add_item("i2", &["destination"]);
        for &s in &shared {
            b.befriend(u1, s);
            b.befriend(u2, s);
        }
        b.befriend(u1, extra);
        // Tagging: u1 follows `extra`'s taste (item i1), u2 tags item i2.
        b.tag(u1, i1, &["jazz"]);
        b.tag(u2, i2, &["metal"]);
        let site = SiteModel::from_graph(&b.build());

        use super::super::NetworkBasedClustering;
        assert!(NetworkBasedClustering.same_cluster(&site, u1, u2, 0.8));
        assert!(!BehaviorBasedClustering.same_cluster(&site, u1, u2, 0.1));
    }
}
