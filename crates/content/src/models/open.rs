//! The Open Cartel model (paper §6.1).

use super::{
    ControlLevel, ControlMatrix, Controls, DeploymentModel, InteractionPoint, JourneyMetrics,
    UserJourney,
};

/// The level of sophistication a content site operates at under the Open
/// Cartel model, as the paper enumerates: delegate everything to the social
/// site, manage activities locally, or additionally maintain a synchronized
/// local copy of the social graph (a "focused view on the underlying global
/// social graph").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenCartelSophistication {
    /// Delegate both activities and connections to the social site.
    DelegateAll,
    /// Manage activities locally, read the social graph from the social site
    /// on demand.
    ManageActivities,
    /// Manage activities locally and keep a synchronized local copy of the
    /// relevant part of the social graph.
    SyncSocialGraph,
}

/// Social sites keep the canonical profiles and connections; open standards
/// (OpenID / OpenSocial) let content sites retrieve them with user
/// permission and propagate locally created connections back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenCartelModel {
    /// The sophistication level of the participating content sites.
    pub sophistication: OpenCartelSophistication,
    /// How many activity events elapse between two synchronizations of a
    /// user's social data (only relevant for `SyncSocialGraph`).
    pub sync_every_events: usize,
}

impl Default for OpenCartelModel {
    fn default() -> Self {
        OpenCartelModel {
            sophistication: OpenCartelSophistication::SyncSocialGraph,
            sync_every_events: 10,
        }
    }
}

impl DeploymentModel for OpenCartelModel {
    fn name(&self) -> &'static str {
        "Open Cartel"
    }

    fn control_matrix(&self) -> ControlMatrix {
        ControlMatrix {
            user_interaction: InteractionPoint::ContentSite,
            duplicate_profiles: false,
            content_sites: Controls {
                content: ControlLevel::Full,
                social_graph: ControlLevel::Limited,
                activities: ControlLevel::Full,
            },
            social_sites: Controls {
                content: ControlLevel::None,
                social_graph: ControlLevel::Full,
                activities: ControlLevel::Limited,
            },
        }
    }

    fn simulate(&self, journey: &UserJourney) -> JourneyMetrics {
        let canonical_profiles = journey.users;
        let events_per_user = journey.activities_per_user * journey.content_sites;
        let (local_copies, sync_messages, cross_site_query_requests, can_analyze) = match self
            .sophistication
        {
            OpenCartelSophistication::DelegateAll => {
                // Everything is fetched on demand: every query asks the
                // social site for the network.
                let requests = journey.users * journey.content_sites * journey.queries_per_user;
                (0, 0, requests, false)
            }
            OpenCartelSophistication::ManageActivities => {
                // Activities are local; the social graph is still read
                // per query.
                let requests = journey.users * journey.content_sites * journey.queries_per_user;
                (0, 0, requests, false)
            }
            OpenCartelSophistication::SyncSocialGraph => {
                // Each content site keeps a focused local copy, refreshed
                // every `sync_every_events` activity events.
                let copies = journey.users * journey.content_sites;
                let syncs_per_user = (events_per_user / self.sync_every_events.max(1)).max(1) + 1;
                let sync_messages = journey.users * syncs_per_user * journey.content_sites;
                (copies, sync_messages, 0, true)
            }
        };
        JourneyMetrics {
            profiles_stored: canonical_profiles + local_copies,
            // Local copies are caches synchronized automatically, not
            // profiles the user maintains by hand; the per-user figure
            // counts only user-maintained records (Table 2: "multiple same
            // connections and profiles? no").
            profiles_per_user: canonical_profiles as f64 / journey.users.max(1) as f64,
            connections_stored: journey.users * journey.connections_per_user
                + local_copies * journey.connections_per_user,
            sync_messages,
            cross_site_query_requests,
            content_site_can_analyze_graph: can_analyze,
            requires_social_account: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sophistication_levels_trade_sync_for_query_requests() {
        let journey = UserJourney::default();
        let delegate = OpenCartelModel {
            sophistication: OpenCartelSophistication::DelegateAll,
            sync_every_events: 10,
        }
        .simulate(&journey);
        let sync = OpenCartelModel::default().simulate(&journey);
        assert!(delegate.cross_site_query_requests > 0);
        assert_eq!(delegate.sync_messages, 0);
        assert!(!delegate.content_site_can_analyze_graph);
        assert_eq!(sync.cross_site_query_requests, 0);
        assert!(sync.sync_messages > 0);
        assert!(sync.content_site_can_analyze_graph);
    }

    #[test]
    fn more_frequent_sync_costs_more_messages() {
        let journey = UserJourney::default();
        let frequent = OpenCartelModel { sync_every_events: 1, ..OpenCartelModel::default() }
            .simulate(&journey);
        let rare = OpenCartelModel { sync_every_events: 100, ..OpenCartelModel::default() }
            .simulate(&journey);
        assert!(frequent.sync_messages > rare.sync_messages);
    }
}
