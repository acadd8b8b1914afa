//! The Activity Manager (paper §3 and §6.2, "Further Discussion").
//!
//! The Data Manager must decide when and how to refresh externally owned
//! parts of the social content graph; the Activity Manager helps "by
//! categorizing users based on their activities": a highly connected, highly
//! active user warrants more frequent synchronization of their network than
//! a dormant one.

use crate::sitemodel::SiteModel;
use socialscope_graph::{FxHashMap, NodeId};

/// Coarse activity category of a user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActivityLevel {
    /// Little or no recorded activity.
    Light,
    /// Moderate activity.
    Medium,
    /// Among the most active users of the site.
    Heavy,
}

/// A per-user refresh recommendation derived from activity levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshPlan {
    /// The user the plan applies to.
    pub user: NodeId,
    /// The user's activity category.
    pub level: ActivityLevel,
    /// Recommended number of activity events between refreshes of the
    /// user's remote social data (smaller = more frequent).
    pub refresh_every_events: usize,
}

/// Categorizes users by activity and produces refresh plans.
#[derive(Debug, Clone, Default)]
pub struct ActivityManager {
    levels: FxHashMap<NodeId, ActivityLevel>,
    /// Activity score used per user (items tagged + network size).
    scores: FxHashMap<NodeId, usize>,
}

impl ActivityManager {
    /// Categorize every user of a site. Users in the top quartile of the
    /// activity score are `Heavy`, the middle half `Medium`, the bottom
    /// quartile `Light`. The activity score combines tagging volume and
    /// connectivity, the two signals §6.2 names.
    pub fn categorize(site: &SiteModel) -> Self {
        let mut scores: Vec<(NodeId, usize)> =
            site.users().map(|u| (u, site.items_of(u).len() + site.network_of(u).len())).collect();
        scores.sort_by_key(|(u, s)| (*s, *u));
        let n = scores.len();
        let mut manager = ActivityManager::default();
        for (rank, (user, score)) in scores.iter().enumerate() {
            let level = if n == 0 {
                ActivityLevel::Light
            } else if rank * 4 >= n * 3 {
                ActivityLevel::Heavy
            } else if rank * 4 >= n {
                ActivityLevel::Medium
            } else {
                ActivityLevel::Light
            };
            manager.levels.insert(*user, level);
            manager.scores.insert(*user, *score);
        }
        manager
    }

    /// The activity level of a user (absent users are `Light`).
    pub fn level(&self, user: NodeId) -> ActivityLevel {
        self.levels.get(&user).copied().unwrap_or(ActivityLevel::Light)
    }

    /// The raw activity score of a user.
    pub fn score(&self, user: NodeId) -> usize {
        self.scores.get(&user).copied().unwrap_or(0)
    }

    /// Number of users per level.
    pub fn distribution(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for l in self.levels.values() {
            match l {
                ActivityLevel::Light => counts.0 += 1,
                ActivityLevel::Medium => counts.1 += 1,
                ActivityLevel::Heavy => counts.2 += 1,
            }
        }
        counts
    }

    /// Build a refresh plan for a user: heavy users are refreshed every
    /// event, medium users every 10, light users every 50.
    pub fn refresh_plan(&self, user: NodeId) -> RefreshPlan {
        let level = self.level(user);
        let refresh_every_events = match level {
            ActivityLevel::Heavy => 1,
            ActivityLevel::Medium => 10,
            ActivityLevel::Light => 50,
        };
        RefreshPlan { user, level, refresh_every_events }
    }

    /// Total synchronization messages needed for a batch of activity events
    /// if every user followed their plan and produced `events_per_user`
    /// events.
    pub fn sync_budget(&self, events_per_user: usize) -> usize {
        self.levels
            .keys()
            .map(|u| {
                let plan = self.refresh_plan(*u);
                events_per_user / plan.refresh_every_events.max(1)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    fn skewed_site() -> (SiteModel, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let users: Vec<NodeId> = (0..8).map(|i| b.add_user(&format!("u{i}"))).collect();
        let items: Vec<NodeId> =
            (0..10).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        // u0 is hyper-active: connected to everyone, tags everything.
        for &u in &users[1..] {
            b.befriend(users[0], u);
        }
        for &i in &items {
            b.tag(users[0], i, &["t"]);
        }
        // u1 is moderately active.
        b.tag(users[1], items[0], &["t"]);
        b.tag(users[1], items[1], &["t"]);
        // the rest do nothing beyond their single connection to u0.
        (SiteModel::from_graph(&b.build()), users)
    }

    #[test]
    fn heavy_users_are_in_the_top_quartile() {
        let (site, users) = skewed_site();
        let manager = ActivityManager::categorize(&site);
        assert_eq!(manager.level(users[0]), ActivityLevel::Heavy);
        assert!(manager.score(users[0]) > manager.score(users[2]));
        let (light, medium, heavy) = manager.distribution();
        assert_eq!(light + medium + heavy, site.user_count());
        assert!(heavy >= 1);
        assert!(light >= 1);
    }

    #[test]
    fn refresh_plans_follow_levels() {
        let (site, users) = skewed_site();
        let manager = ActivityManager::categorize(&site);
        let heavy_plan = manager.refresh_plan(users[0]);
        assert_eq!(heavy_plan.refresh_every_events, 1);
        let unknown_plan = manager.refresh_plan(NodeId(999));
        assert_eq!(unknown_plan.level, ActivityLevel::Light);
        assert_eq!(unknown_plan.refresh_every_events, 50);
    }

    #[test]
    fn sync_budget_scales_with_activity_mix() {
        let (site, _) = skewed_site();
        let manager = ActivityManager::categorize(&site);
        let low = manager.sync_budget(10);
        let high = manager.sync_budget(100);
        assert!(high > low);
        // A heavy user alone contributes events/1 messages.
        assert!(high >= 100);
    }

    #[test]
    fn empty_site_has_empty_distribution() {
        let manager = ActivityManager::categorize(&SiteModel::default());
        assert_eq!(manager.distribution(), (0, 0, 0));
        assert_eq!(manager.sync_budget(100), 0);
    }
}
