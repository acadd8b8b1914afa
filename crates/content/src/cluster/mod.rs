//! User clustering strategies (paper §6.2, Defs. 11–13).
//!
//! Storing one inverted list per `(tag, user)` pair is exact but blows up
//! the index (the paper's back-of-envelope: ≈ 1 TB for a moderate site).
//! The alternative is to cluster users and store one list per
//! `(tag, cluster)` with score *upper bounds* (Eq. 1), trading index space
//! for query-time exact-score computation. Three strategies are defined:
//!
//! * [`NetworkBasedClustering`] (Def. 11) — users cluster together when
//!   their networks are similar (Jaccard ≥ θ);
//! * [`BehaviorBasedClustering`] (Def. 12) — users cluster together when
//!   their tagged-item sets are similar;
//! * [`HybridClustering`] (Def. 13) — users cluster together when the
//!   members of their networks tag similarly.
//!
//! Clustering itself uses a deterministic greedy leader algorithm: users are
//! scanned in id order, joining the first existing cluster whose leader
//! satisfies the strategy's predicate at threshold θ, or founding a new
//! cluster otherwise. The experiments sweep θ to regenerate the space/time
//! trade-off the paper summarizes from ref \[5\].

mod behavior;
mod hybrid;
mod network;

pub use behavior::BehaviorBasedClustering;
pub use hybrid::HybridClustering;
pub use network::NetworkBasedClustering;

use crate::sitemodel::{SiteModel, SiteView};
use socialscope_graph::{FxHashMap, NodeId};

/// Identifier of a user cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(pub usize);

/// A complete clustering of a site's users.
#[derive(Debug, Clone, Default)]
pub struct UserClustering {
    /// Strategy that produced the clustering.
    pub strategy: String,
    /// Threshold θ used.
    pub theta: f64,
    assignment: FxHashMap<NodeId, ClusterId>,
    members: Vec<Vec<NodeId>>,
}

impl UserClustering {
    /// The cluster a user belongs to.
    pub fn cluster_of(&self, user: NodeId) -> Option<ClusterId> {
        self.assignment.get(&user).copied()
    }

    /// Members of a cluster, in id order.
    pub fn members(&self, cluster: ClusterId) -> &[NodeId] {
        self.members.get(cluster.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Number of clustered users.
    pub fn user_count(&self) -> usize {
        self.assignment.len()
    }

    /// Iterate `(cluster, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &[NodeId])> {
        self.members.iter().enumerate().map(|(i, m)| (ClusterId(i), m.as_slice()))
    }

    /// Average cluster size.
    pub fn avg_cluster_size(&self) -> f64 {
        if self.members.is_empty() {
            0.0
        } else {
            self.assignment.len() as f64 / self.members.len() as f64
        }
    }

    /// The cluster's leader: the member the greedy algorithm's pairwise
    /// predicate is evaluated against. Members are kept in ascending id
    /// order and the founding user of a cluster is the first user (in id
    /// order) the greedy scan could not place elsewhere, so the first
    /// member is the founder for clusterings produced by
    /// [`ClusteringStrategy::cluster`].
    pub fn leader(&self, cluster: ClusterId) -> Option<NodeId> {
        self.members(cluster).first().copied()
    }

    /// Add a late joiner to an existing cluster, keeping the member list in
    /// ascending id order. A user already assigned somewhere is left
    /// untouched (returns `false`); out-of-range clusters panic.
    pub fn join(&mut self, user: NodeId, cluster: ClusterId) -> bool {
        if self.assignment.contains_key(&user) {
            return false;
        }
        let members = &mut self.members[cluster.0];
        let pos = members.binary_search(&user).unwrap_err();
        members.insert(pos, user);
        self.assignment.insert(user, cluster);
        true
    }

    /// Found a new singleton cluster for a late joiner and return its id.
    /// A user already assigned somewhere keeps their cluster (which is
    /// returned instead).
    pub fn found(&mut self, user: NodeId) -> ClusterId {
        if let Some(&cluster) = self.assignment.get(&user) {
            return cluster;
        }
        let cluster = ClusterId(self.members.len());
        self.members.push(vec![user]);
        self.assignment.insert(user, cluster);
        cluster
    }
}

/// Recluster-on-join for one planned batch, recorded against a read-only
/// [`UserClustering`] instead of a copy of it: each late joiner is placed
/// by the greedy-leader rule exactly as [`UserClustering::join`] /
/// [`UserClustering::found`] would place it on the live clustering —
/// leaders and members include the batch's earlier joiners — and the
/// recorded joins land with [`UserClustering::commit_joins`].
pub(crate) struct PlannedJoins<'a> {
    base: &'a UserClustering,
    /// This batch's joiners per cluster, founders of new clusters included.
    joined: FxHashMap<ClusterId, Vec<NodeId>>,
    assigned: FxHashMap<NodeId, ClusterId>,
    founded: usize,
    joins: Vec<(NodeId, ClusterId)>,
}

impl<'a> PlannedJoins<'a> {
    pub(crate) fn new(base: &'a UserClustering) -> Self {
        PlannedJoins {
            base,
            joined: FxHashMap::default(),
            assigned: FxHashMap::default(),
            founded: 0,
            joins: Vec::new(),
        }
    }

    /// The cluster a user belongs to once the planned joins land.
    pub(crate) fn cluster_of(&self, user: NodeId) -> Option<ClusterId> {
        self.base.cluster_of(user).or_else(|| self.assigned.get(&user).copied())
    }

    /// Members of a cluster once the planned joins land, in no particular
    /// order.
    pub(crate) fn members(&self, cluster: ClusterId) -> impl Iterator<Item = NodeId> + '_ {
        let joined = self.joined.get(&cluster).into_iter().flatten();
        self.base.members(cluster).iter().chain(joined).copied()
    }

    /// The lowest-id member: [`UserClustering::leader`] after the joins.
    fn leader(&self, cluster: ClusterId) -> Option<NodeId> {
        let joined = self.joined.get(&cluster).and_then(|users| users.iter().min()).copied();
        match (self.base.leader(cluster), joined) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Place a tagger the clustering does not know yet: the first cluster
    /// (in id order) whose leader satisfies the clustering's own strategy
    /// predicate over `site`, or a new singleton when none does — or when
    /// the strategy name is unknown. Already clustered users are skipped.
    pub(crate) fn place(&mut self, site: &SiteView<'_>, user: NodeId) {
        if self.cluster_of(user).is_some() {
            return;
        }
        let count = self.base.cluster_count() + self.founded;
        let theta = self.base.theta;
        let nearest = strategy_named(&self.base.strategy).and_then(|s| {
            (0..count).map(ClusterId).find(|&c| {
                self.leader(c).is_some_and(|leader| s.same_cluster_in(site, user, leader, theta))
            })
        });
        let cluster = nearest.unwrap_or_else(|| {
            self.founded += 1;
            ClusterId(count)
        });
        self.joined.entry(cluster).or_default().push(user);
        self.assigned.insert(user, cluster);
        self.joins.push((user, cluster));
    }

    /// The recorded `(joiner, cluster)` placements, in placement order.
    pub(crate) fn placements(&self) -> &[(NodeId, ClusterId)] {
        &self.joins
    }
}

impl UserClustering {
    /// Land joins recorded by a [`PlannedJoins`] over this clustering, in
    /// order: a placement into an existing cluster joins it, one past the
    /// end founds the next singleton (which gets exactly that id).
    pub(crate) fn commit_joins(&mut self, joins: &[(NodeId, ClusterId)]) {
        for &(user, cluster) in joins {
            if cluster.0 < self.cluster_count() {
                self.join(user, cluster);
            } else {
                self.found(user);
            }
        }
    }
}

/// Look up one of the three built-in strategies by the name stored on a
/// [`UserClustering`] — how the live-maintenance path recovers the greedy
/// predicate for recluster-on-join long after the strategy object that
/// built the clustering is gone. Unknown names (including the empty
/// default) return `None`; joiners then found singleton clusters.
pub fn strategy_named(name: &str) -> Option<&'static dyn ClusteringStrategy> {
    match name {
        "network" => Some(&NetworkBasedClustering),
        "behavior" => Some(&BehaviorBasedClustering),
        "hybrid" => Some(&HybridClustering),
        _ => None,
    }
}

/// A user-clustering strategy: a pairwise predicate (evaluated between a
/// user and a cluster's leader) plus a name.
pub trait ClusteringStrategy {
    /// Human-readable strategy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// The paper's pairwise predicate at threshold θ: do `a` and `b` belong
    /// to the same cluster?
    fn same_cluster(&self, site: &SiteModel, a: NodeId, b: NodeId, theta: f64) -> bool {
        self.same_cluster_in(&site.view(), a, b, theta)
    }

    /// [`Self::same_cluster`] over a [`SiteView`] — how recluster-on-join
    /// evaluates late joiners against a site whose batch is planned but
    /// not yet committed.
    fn same_cluster_in(&self, site: &SiteView<'_>, a: NodeId, b: NodeId, theta: f64) -> bool;

    /// Run the greedy leader clustering over every user of the site.
    fn cluster(&self, site: &SiteModel, theta: f64) -> UserClustering {
        let mut clustering = UserClustering {
            strategy: self.name().to_string(),
            theta,
            ..UserClustering::default()
        };
        let view = site.view();
        let mut leaders: Vec<NodeId> = Vec::new();
        for user in site.users() {
            let mut assigned = None;
            for (idx, leader) in leaders.iter().enumerate() {
                if self.same_cluster_in(&view, user, *leader, theta) {
                    assigned = Some(ClusterId(idx));
                    break;
                }
            }
            let cluster = assigned.unwrap_or_else(|| {
                leaders.push(user);
                clustering.members.push(Vec::new());
                ClusterId(leaders.len() - 1)
            });
            clustering.assignment.insert(user, cluster);
            clustering.members[cluster.0].push(user);
        }
        clustering
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// Two tight friend groups with distinct tagging behaviour, plus a loner.
    pub(crate) fn two_communities() -> (SiteModel, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let users: Vec<NodeId> = (0..7).map(|i| b.add_user(&format!("u{i}"))).collect();
        let items: Vec<NodeId> =
            (0..4).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        // Community A: u0, u1, u2 all friends with hub u3; tag items 0, 1.
        for &u in &users[0..3] {
            b.befriend(u, users[3]);
            b.tag(u, items[0], &["baseball"]);
            b.tag(u, items[1], &["stadium"]);
        }
        // The hub itself tags item 0 (needed for the hybrid predicate, which
        // compares the tagging of network members).
        b.tag(users[3], items[0], &["baseball"]);
        // Community B: u4, u5 friends with hub u6; tag items 2, 3.
        for &u in &users[4..6] {
            b.befriend(u, users[6]);
            b.tag(u, items[2], &["museum"]);
            b.tag(u, items[3], &["history"]);
        }
        b.tag(users[6], items[2], &["museum"]);
        (SiteModel::from_graph(&b.build()), users)
    }

    #[test]
    fn clustering_partitions_all_users() {
        let (site, _) = two_communities();
        for strategy in [
            &NetworkBasedClustering as &dyn ClusteringStrategy,
            &BehaviorBasedClustering,
            &HybridClustering,
        ] {
            let clustering = strategy.cluster(&site, 0.5);
            assert_eq!(clustering.user_count(), site.user_count());
            let total: usize = clustering.iter().map(|(_, m)| m.len()).sum();
            assert_eq!(total, site.user_count());
            // Every user maps to a cluster that lists them as a member.
            for u in site.users() {
                let c = clustering.cluster_of(u).unwrap();
                assert!(clustering.members(c).contains(&u));
            }
        }
    }

    #[test]
    fn network_based_groups_users_with_same_friends() {
        let (site, users) = two_communities();
        let clustering = NetworkBasedClustering.cluster(&site, 0.9);
        // u0, u1, u2 all have network exactly {u3}: same cluster.
        let c0 = clustering.cluster_of(users[0]).unwrap();
        assert_eq!(clustering.cluster_of(users[1]), Some(c0));
        assert_eq!(clustering.cluster_of(users[2]), Some(c0));
        // u4, u5 have network {u6}: a different cluster.
        let c4 = clustering.cluster_of(users[4]).unwrap();
        assert_ne!(c0, c4);
        assert_eq!(clustering.cluster_of(users[5]), Some(c4));
    }

    #[test]
    fn behavior_based_groups_users_tagging_same_items() {
        let (site, users) = two_communities();
        let clustering = BehaviorBasedClustering.cluster(&site, 0.9);
        let c0 = clustering.cluster_of(users[0]).unwrap();
        assert_eq!(clustering.cluster_of(users[1]), Some(c0));
        let c4 = clustering.cluster_of(users[4]).unwrap();
        assert_ne!(c0, c4);
        // The hubs u3 and u6 tag nothing: they do not join the active
        // clusters at a high threshold.
        assert_ne!(clustering.cluster_of(users[3]), Some(c0));
    }

    #[test]
    fn theta_controls_cluster_granularity() {
        let (site, _) = two_communities();
        let loose = NetworkBasedClustering.cluster(&site, 0.01);
        let strict = NetworkBasedClustering.cluster(&site, 0.99);
        assert!(loose.cluster_count() <= strict.cluster_count());
        assert!(loose.avg_cluster_size() >= strict.avg_cluster_size());
    }

    #[test]
    fn hybrid_groups_users_whose_networks_tag_alike() {
        let (site, users) = two_communities();
        let clustering = HybridClustering.cluster(&site, 0.9);
        // u0/u1/u2 share a cluster: their networks are the singleton {u3}
        // and items(u3) is trivially similar to itself. Community B's hub
        // tags different items, so the communities stay separate.
        let c0 = clustering.cluster_of(users[0]).unwrap();
        assert_eq!(clustering.cluster_of(users[1]), Some(c0));
        let c4 = clustering.cluster_of(users[4]).unwrap();
        assert_ne!(c0, c4);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(NetworkBasedClustering.name(), "network");
        assert_eq!(BehaviorBasedClustering.name(), "behavior");
        assert_eq!(HybridClustering.name(), "hybrid");
    }
}
