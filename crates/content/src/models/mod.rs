//! The three content-management models of §6.1 and the Table 2 comparison.
//!
//! The paper compares how social content sites can manage the three data
//! categories (content, social profiles/connections, activities):
//!
//! * **Decentralized** — every content site solicits and stores its own
//!   profiles and connections;
//! * **Closed Cartel** — a dominant social site stores everything and
//!   content sites become applications inside it;
//! * **Open Cartel** — social sites keep the profiles/connections but open
//!   standards let content sites retrieve and integrate them.
//!
//! Each model is implemented as a [`DeploymentModel`]: it reports the
//! control matrix of the paper's Table 2 and simulates a scripted user
//! journey (sign-up, connect, tag, query) producing measurable consequences
//! — duplicated profiles, synchronization messages, cross-site requests and
//! whether the content site can run graph analysis locally. Experiment E2
//! prints both.

mod closed;
mod decentralized;
mod open;

pub use closed::ClosedCartelModel;
pub use decentralized::DecentralizedModel;
pub use open::{OpenCartelModel, OpenCartelSophistication};

/// Degree of control a party has over a data category (the cell values of
/// Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlLevel {
    /// Full control ("yes" in Table 2).
    Full,
    /// Limited control ("limited").
    Limited,
    /// No control ("no").
    None,
}

impl std::fmt::Display for ControlLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlLevel::Full => write!(f, "yes"),
            ControlLevel::Limited => write!(f, "limited"),
            ControlLevel::None => write!(f, "no"),
        }
    }
}

/// Which kind of site users primarily interact with under a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionPoint {
    /// Users interact with the content site(s).
    ContentSite,
    /// Users interact with the social site.
    SocialSite,
}

impl std::fmt::Display for InteractionPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InteractionPoint::ContentSite => write!(f, "content site"),
            InteractionPoint::SocialSite => write!(f, "social site"),
        }
    }
}

/// Control over the three data categories held by one party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Controls {
    /// Control over site content.
    pub content: ControlLevel,
    /// Control over the social graph (profiles + connections).
    pub social_graph: ControlLevel,
    /// Control over site-specific social activities.
    pub activities: ControlLevel,
}

/// The full Table 2 row set for one management model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlMatrix {
    /// Which site users interact with.
    pub user_interaction: InteractionPoint,
    /// Whether users must maintain the same connections and profiles at
    /// multiple sites.
    pub duplicate_profiles: bool,
    /// The content sites' control.
    pub content_sites: Controls,
    /// The social sites' control.
    pub social_sites: Controls,
}

/// A scripted user journey driving the simulation: every user signs up,
/// establishes connections, performs activities and issues queries, across a
/// number of independent content sites backed by one social site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserJourney {
    /// Number of users.
    pub users: usize,
    /// Connections each user establishes.
    pub connections_per_user: usize,
    /// Activities (tags/visits) each user performs per content site.
    pub activities_per_user: usize,
    /// Queries each user issues per content site.
    pub queries_per_user: usize,
    /// Number of content sites participating.
    pub content_sites: usize,
}

impl Default for UserJourney {
    fn default() -> Self {
        UserJourney {
            users: 1000,
            connections_per_user: 10,
            activities_per_user: 20,
            queries_per_user: 5,
            content_sites: 2,
        }
    }
}

/// Measured consequences of running a journey under a model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JourneyMetrics {
    /// Total profile records stored across all sites.
    pub profiles_stored: usize,
    /// Profile records per user (1 = no duplication).
    pub profiles_per_user: f64,
    /// Total connection records stored across all sites.
    pub connections_stored: usize,
    /// Synchronization messages exchanged between sites.
    pub sync_messages: usize,
    /// Requests content sites had to send to the social site at query time.
    pub cross_site_query_requests: usize,
    /// Whether a content site can run complex analysis over the social graph
    /// it can see (locally materialized graph).
    pub content_site_can_analyze_graph: bool,
    /// Whether users must have an account on the social site to use the
    /// content sites at all.
    pub requires_social_account: bool,
}

/// A content-management model: Table 2 row set plus a journey simulator.
pub trait DeploymentModel {
    /// Model name as used in the paper ("Decentralized Model", …).
    fn name(&self) -> &'static str;
    /// The Table 2 control matrix.
    fn control_matrix(&self) -> ControlMatrix;
    /// Simulate a user journey and report the measurable consequences.
    fn simulate(&self, journey: &UserJourney) -> JourneyMetrics;
}

/// All three models with their default configurations, in the paper's
/// column order.
pub fn all_models() -> Vec<Box<dyn DeploymentModel>> {
    vec![
        Box::new(DecentralizedModel),
        Box::new(ClosedCartelModel),
        Box::new(OpenCartelModel::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The literal Table 2 of the paper, encoded as expectations.
    #[test]
    fn control_matrices_reproduce_table_2() {
        let dec = DecentralizedModel.control_matrix();
        assert_eq!(dec.user_interaction, InteractionPoint::ContentSite);
        assert!(dec.duplicate_profiles);
        assert_eq!(dec.content_sites.content, ControlLevel::Full);
        assert_eq!(dec.content_sites.social_graph, ControlLevel::Full);
        assert_eq!(dec.content_sites.activities, ControlLevel::Full);
        assert_eq!(dec.social_sites.content, ControlLevel::None);
        assert_eq!(dec.social_sites.social_graph, ControlLevel::None);
        assert_eq!(dec.social_sites.activities, ControlLevel::None);

        let closed = ClosedCartelModel.control_matrix();
        assert_eq!(closed.user_interaction, InteractionPoint::SocialSite);
        assert!(!closed.duplicate_profiles);
        assert_eq!(closed.content_sites.content, ControlLevel::Limited);
        assert_eq!(closed.content_sites.social_graph, ControlLevel::None);
        assert_eq!(closed.content_sites.activities, ControlLevel::None);
        assert_eq!(closed.social_sites.content, ControlLevel::Limited);
        assert_eq!(closed.social_sites.social_graph, ControlLevel::Full);
        assert_eq!(closed.social_sites.activities, ControlLevel::Full);

        let open = OpenCartelModel::default().control_matrix();
        assert_eq!(open.user_interaction, InteractionPoint::ContentSite);
        assert!(!open.duplicate_profiles);
        assert_eq!(open.content_sites.content, ControlLevel::Full);
        assert_eq!(open.content_sites.social_graph, ControlLevel::Limited);
        assert_eq!(open.content_sites.activities, ControlLevel::Full);
        assert_eq!(open.social_sites.content, ControlLevel::None);
        assert_eq!(open.social_sites.social_graph, ControlLevel::Full);
        assert_eq!(open.social_sites.activities, ControlLevel::Limited);
    }

    #[test]
    fn journey_metrics_reflect_duplication_differences() {
        let journey = UserJourney { users: 100, content_sites: 3, ..UserJourney::default() };
        let dec = DecentralizedModel.simulate(&journey);
        let closed = ClosedCartelModel.simulate(&journey);
        let open = OpenCartelModel::default().simulate(&journey);

        // Decentralized: one profile per user per content site.
        assert_eq!(dec.profiles_per_user, 3.0);
        // Cartel models: a single canonical profile.
        assert_eq!(closed.profiles_per_user, 1.0);
        assert!(open.profiles_per_user >= 1.0 && open.profiles_per_user <= 2.0);
        // Only the decentralized and open models let content sites analyze a
        // locally materialized graph.
        assert!(dec.content_site_can_analyze_graph);
        assert!(!closed.content_site_can_analyze_graph);
        assert!(open.content_site_can_analyze_graph);
        // Only the closed cartel forces a social-site account.
        assert!(closed.requires_social_account);
        assert!(!dec.requires_social_account);
        assert!(!open.requires_social_account);
    }

    #[test]
    fn sync_costs_differ_between_models() {
        let journey = UserJourney::default();
        let dec = DecentralizedModel.simulate(&journey);
        let closed = ClosedCartelModel.simulate(&journey);
        let open = OpenCartelModel::default().simulate(&journey);
        // Decentralized sites never talk to each other.
        assert_eq!(dec.sync_messages, 0);
        // The closed cartel needs no sync (everything lives in one place)
        // but every content query is a cross-site request.
        assert_eq!(closed.sync_messages, 0);
        assert!(closed.cross_site_query_requests > 0);
        // The open cartel pays sync messages instead of per-query requests.
        assert!(open.sync_messages > 0);
        assert!(open.cross_site_query_requests < closed.cross_site_query_requests);
    }

    #[test]
    fn all_models_lists_three() {
        let models = all_models();
        assert_eq!(models.len(), 3);
        let names: Vec<_> = models.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"Decentralized"));
        assert!(names.contains(&"Closed Cartel"));
        assert!(names.contains(&"Open Cartel"));
    }

    #[test]
    fn control_level_display() {
        assert_eq!(ControlLevel::Full.to_string(), "yes");
        assert_eq!(ControlLevel::Limited.to_string(), "limited");
        assert_eq!(ControlLevel::None.to_string(), "no");
        assert_eq!(InteractionPoint::SocialSite.to_string(), "social site");
    }
}
