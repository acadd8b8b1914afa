//! The Content Integrator (paper §3, §6): pulling social profiles and
//! connections from remote social sites into the local social content graph
//! over an OpenSocial-style API.
//!
//! Remote sites are simulated in-process, standing in for the remote
//! social sites the paper integrates: [`SimulatedRemoteSite`] models
//! availability, per-user permission
//! grants (the "given users' permission" clause of the Open Cartel model)
//! and request counting, which is all the integration experiments need.

use crate::error::ContentError;
use crate::Result;
use parking_lot::Mutex;
use socialscope_graph::{GraphBuilder, NodeId, SocialGraph, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A user profile as exposed by a remote social site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteProfile {
    /// The user's id in the shared (OpenID-style) id space.
    pub user: NodeId,
    /// Display name.
    pub name: String,
    /// Self-declared interests.
    pub interests: Vec<String>,
}

/// A remote social site reachable through an OpenSocial-style API.
pub trait RemoteSite {
    /// Site name (e.g. "facebook", "flickr").
    fn name(&self) -> &str;
    /// Fetch a user's profile.
    fn fetch_profile(&self, user: NodeId) -> Result<RemoteProfile>;
    /// Fetch a user's connections.
    fn fetch_connections(&self, user: NodeId) -> Result<BTreeSet<NodeId>>;
    /// Number of API requests served so far.
    fn request_count(&self) -> usize;
}

/// An in-process simulation of a remote social site.
#[derive(Debug, Default)]
pub struct SimulatedRemoteSite {
    name: String,
    profiles: BTreeMap<NodeId, RemoteProfile>,
    connections: BTreeMap<NodeId, BTreeSet<NodeId>>,
    permitted: BTreeSet<NodeId>,
    available: bool,
    requests: Mutex<usize>,
}

impl SimulatedRemoteSite {
    /// A new, available, empty remote site.
    pub fn new(name: impl Into<String>) -> Self {
        SimulatedRemoteSite { name: name.into(), available: true, ..SimulatedRemoteSite::default() }
    }

    /// Register a user with a profile; the user grants access by default.
    pub fn add_user(&mut self, user: NodeId, name: &str, interests: &[&str]) {
        self.profiles.insert(
            user,
            RemoteProfile {
                user,
                name: name.to_string(),
                interests: interests.iter().map(|s| s.to_string()).collect(),
            },
        );
        self.permitted.insert(user);
    }

    /// Record a (symmetric) connection between two registered users.
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        self.connections.entry(a).or_default().insert(b);
        self.connections.entry(b).or_default().insert(a);
    }

    /// Simulate an outage (or recovery).
    pub fn set_available(&mut self, available: bool) {
        self.available = available;
    }

    /// Revoke (or grant) a user's permission for content sites to read
    /// their social data.
    pub fn set_permission(&mut self, user: NodeId, granted: bool) {
        if granted {
            self.permitted.insert(user);
        } else {
            self.permitted.remove(&user);
        }
    }

    fn check(&self, user: NodeId) -> Result<()> {
        if !self.available {
            return Err(ContentError::RemoteUnavailable(self.name.clone()));
        }
        *self.requests.lock() += 1;
        if !self.profiles.contains_key(&user) {
            return Err(ContentError::UnknownUser(user));
        }
        if !self.permitted.contains(&user) {
            return Err(ContentError::PermissionDenied { site: self.name.clone(), user });
        }
        Ok(())
    }
}

impl RemoteSite for SimulatedRemoteSite {
    fn name(&self) -> &str {
        &self.name
    }

    fn fetch_profile(&self, user: NodeId) -> Result<RemoteProfile> {
        self.check(user)?;
        self.profiles.get(&user).cloned().ok_or(ContentError::UnknownUser(user))
    }

    fn fetch_connections(&self, user: NodeId) -> Result<BTreeSet<NodeId>> {
        self.check(user)?;
        Ok(self.connections.get(&user).cloned().unwrap_or_default())
    }

    fn request_count(&self) -> usize {
        *self.requests.lock()
    }
}

/// Summary of one integration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Profiles successfully imported or refreshed.
    pub profiles_imported: usize,
    /// Connection links imported.
    pub connections_imported: usize,
    /// Users skipped because of missing permission.
    pub permission_denied: usize,
    /// Users skipped because the remote site was unavailable.
    pub unavailable: usize,
}

/// Pulls remote social data into a local social content graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentIntegrator;

impl ContentIntegrator {
    /// Integrate the given users' profiles and connections from a remote
    /// site into the local graph. Existing nodes are enriched (attributes
    /// merged); friendship links are added for connections whose endpoints
    /// are (or become) locally known. Per-user failures are recorded in the
    /// report rather than aborting the pass.
    pub fn integrate_users(
        &self,
        graph: &mut SocialGraph,
        remote: &dyn RemoteSite,
        users: &[NodeId],
    ) -> SyncReport {
        let mut report = SyncReport::default();
        let mut builder = GraphBuilder::extending(std::mem::take(graph));
        for &user in users {
            match remote.fetch_profile(user) {
                Ok(profile) => {
                    let mut local = SocialGraph::new();
                    local.add_node(
                        socialscope_graph::Node::new(user, ["user"])
                            .with_attr("name", profile.name.as_str())
                            .with_attr(
                                "interests",
                                Value::multi(profile.interests.iter().map(String::as_str)),
                            )
                            .with_attr("source", remote.name()),
                    );
                    // Merge through the builder's graph.
                    let mut g = builder.build();
                    g.merge(&local);
                    builder = GraphBuilder::extending(g);
                    report.profiles_imported += 1;
                }
                Err(ContentError::PermissionDenied { .. }) => {
                    report.permission_denied += 1;
                    continue;
                }
                Err(ContentError::RemoteUnavailable(_)) => {
                    report.unavailable += 1;
                    continue;
                }
                Err(_) => continue,
            }
            if let Ok(connections) = remote.fetch_connections(user) {
                for other in connections {
                    let mut g = builder.build();
                    if !g.has_node(other) {
                        g.add_node(
                            socialscope_graph::Node::new(other, ["user"])
                                .with_attr("source", remote.name()),
                        );
                    }
                    builder = GraphBuilder::extending(g);
                    // Avoid duplicating an existing friendship in either
                    // direction.
                    let exists = builder
                        .graph()
                        .links_between(user, other)
                        .chain(builder.graph().links_between(other, user))
                        .any(|l| socialscope_graph::HasAttrs::has_type(l, "friend"));
                    if !exists {
                        builder.befriend(user, other);
                        report.connections_imported += 1;
                    }
                }
            }
        }
        *graph = builder.build();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::HasAttrs;

    fn remote_with_three_users() -> (SimulatedRemoteSite, Vec<NodeId>) {
        let mut remote = SimulatedRemoteSite::new("facebook");
        let ids = vec![NodeId(1001), NodeId(1002), NodeId(1003)];
        remote.add_user(ids[0], "John", &["baseball"]);
        remote.add_user(ids[1], "Selma", &["music"]);
        remote.add_user(ids[2], "Alexia", &["history"]);
        remote.connect(ids[0], ids[1]);
        remote.connect(ids[1], ids[2]);
        (remote, ids)
    }

    #[test]
    fn integration_imports_profiles_and_connections() {
        let (remote, ids) = remote_with_three_users();
        let mut graph = SocialGraph::new();
        let report = ContentIntegrator.integrate_users(&mut graph, &remote, &ids);
        assert_eq!(report.profiles_imported, 3);
        assert!(report.connections_imported >= 2);
        assert_eq!(report.permission_denied, 0);
        assert!(graph.has_node(ids[0]));
        let john = graph.node(ids[0]).unwrap();
        assert_eq!(john.name(), Some("John"));
        assert!(john.attrs.get_str("source").is_some());
        // Friendship links exist between connected users.
        assert!(graph
            .links()
            .any(|l| l.has_type("friend") && l.touches(ids[0]) && l.touches(ids[1])));
        graph.check_invariants().unwrap();
    }

    #[test]
    fn integration_is_idempotent_for_connections() {
        let (remote, ids) = remote_with_three_users();
        let mut graph = SocialGraph::new();
        ContentIntegrator.integrate_users(&mut graph, &remote, &ids);
        let links_before = graph.link_count();
        let report = ContentIntegrator.integrate_users(&mut graph, &remote, &ids);
        assert_eq!(graph.link_count(), links_before);
        assert_eq!(report.connections_imported, 0);
    }

    #[test]
    fn permission_revocation_is_reported_not_fatal() {
        let (mut remote, ids) = remote_with_three_users();
        remote.set_permission(ids[1], false);
        let mut graph = SocialGraph::new();
        let report = ContentIntegrator.integrate_users(&mut graph, &remote, &ids);
        assert_eq!(report.profiles_imported, 2);
        assert_eq!(report.permission_denied, 1);
        assert!(!graph.has_node(ids[1]) || graph.node(ids[1]).unwrap().name().is_none());
    }

    #[test]
    fn outage_is_reported_and_counted() {
        let (mut remote, ids) = remote_with_three_users();
        remote.set_available(false);
        let mut graph = SocialGraph::new();
        let report = ContentIntegrator.integrate_users(&mut graph, &remote, &ids);
        assert_eq!(report.profiles_imported, 0);
        assert_eq!(report.unavailable, 3);
        assert!(graph.is_empty());
        // Outage responses are not counted as served requests.
        assert_eq!(remote.request_count(), 0);
    }

    #[test]
    fn request_counting_tracks_api_usage() {
        let (remote, ids) = remote_with_three_users();
        let mut graph = SocialGraph::new();
        ContentIntegrator.integrate_users(&mut graph, &remote, &ids);
        // One profile + one connection fetch per user.
        assert_eq!(remote.request_count(), 6);
    }

    #[test]
    fn unknown_user_errors_cleanly() {
        let (remote, _) = remote_with_three_users();
        let err = remote.fetch_profile(NodeId(42)).unwrap_err();
        assert_eq!(err, ContentError::UnknownUser(NodeId(42)));
    }
}
