//! Configuration of the synthetic social content site.

/// Parameters of the synthetic Y!Travel-style site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteConfig {
    /// Number of users.
    pub users: usize,
    /// Number of travel items (destinations/attractions).
    pub items: usize,
    /// Number of cities items are contained in.
    pub cities: usize,
    /// Average number of friends per user (small-world lattice degree).
    pub avg_friends: usize,
    /// Watts–Strogatz rewiring probability.
    pub rewire_probability: f64,
    /// Average tagging actions per user.
    pub tags_per_user: usize,
    /// Average visits per user.
    pub visits_per_user: usize,
    /// Fraction of users who rate the items they visit.
    pub rating_fraction: f64,
    /// Zipf exponent governing item popularity (higher = more skew).
    pub zipf_exponent: f64,
    /// Zipf exponent governing *tag* popularity. `0.0` (the default) keeps
    /// the historical uniform tag draw — byte-identical generation for a
    /// fixed seed, which the pinned-counter regressions rely on; anything
    /// positive skews tag choice toward the head of the vocabulary, the
    /// shape real folksonomies show and the one the large-scale presets
    /// use so a few huge `(tag, user)` lists dominate the index.
    pub tag_zipf_exponent: f64,
    /// RNG seed (generation is deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            users: 500,
            items: 1000,
            cities: 20,
            avg_friends: 8,
            rewire_probability: 0.1,
            tags_per_user: 10,
            visits_per_user: 15,
            rating_fraction: 0.3,
            zipf_exponent: 1.0,
            tag_zipf_exponent: 0.0,
            seed: 7,
        }
    }
}

impl SiteConfig {
    /// A small configuration suited to unit tests.
    pub fn tiny() -> Self {
        SiteConfig {
            users: 40,
            items: 60,
            cities: 5,
            avg_friends: 4,
            tags_per_user: 5,
            visits_per_user: 6,
            ..SiteConfig::default()
        }
    }

    /// Scale the activity-related knobs by a factor (used for sweeps).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.users = ((self.users as f64) * factor).max(4.0) as usize;
        self.items = ((self.items as f64) * factor).max(4.0) as usize;
        self
    }

    /// The preset used by the scale experiments (E14), valid from test-sized
    /// sites up through 10^6 users. Items grow at half the user rate (a site
    /// accretes catalog slower than membership), cities grow with the
    /// catalog, and per-user activity *shrinks* slightly past 10^5 users —
    /// at a million users most accounts are casual, and without the taper a
    /// 10^6-user site would not build on a laptop-class machine. Tag choice
    /// is Zipf-skewed (exponent 0.9): the defining property of large
    /// folksonomies, and the regime where delta-compressed posting layouts
    /// pay off because the head tags own very dense lists.
    pub fn at_scale(users: usize) -> Self {
        let users = users.max(4);
        let casual = users > 100_000;
        SiteConfig {
            users,
            items: (users / 2).max(16),
            cities: (users / 2_000).clamp(5, 64),
            avg_friends: 8,
            tags_per_user: if casual { 6 } else { 10 },
            visits_per_user: if casual { 8 } else { 12 },
            tag_zipf_exponent: 0.9,
            ..SiteConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SiteConfig::default();
        assert!(c.users > 0 && c.items > 0);
        assert!(c.rewire_probability >= 0.0 && c.rewire_probability <= 1.0);
        let t = SiteConfig::tiny();
        assert!(t.users < c.users);
    }

    #[test]
    fn scaling_changes_population() {
        let c = SiteConfig::tiny().scaled(2.0);
        assert_eq!(c.users, 80);
        assert_eq!(c.items, 120);
        let small = SiteConfig::tiny().scaled(0.01);
        assert!(small.users >= 4);
    }

    #[test]
    fn scale_presets_cover_a_million_users_and_taper_activity() {
        let small = SiteConfig::at_scale(10_000);
        let large = SiteConfig::at_scale(1_000_000);
        assert_eq!(small.users, 10_000);
        assert_eq!(large.users, 1_000_000);
        assert_eq!(large.items, 500_000);
        // Per-user activity shrinks at scale; tag skew is always on.
        assert!(large.tags_per_user < small.tags_per_user);
        assert!(large.visits_per_user < small.visits_per_user);
        assert!(small.tag_zipf_exponent > 0.0 && large.tag_zipf_exponent > 0.0);
        // The default config stays on the historical uniform draw, which
        // keeps fixed-seed generation (and the pinned E8 counters) stable.
        assert_eq!(SiteConfig::default().tag_zipf_exponent, 0.0);
        assert!(SiteConfig::at_scale(0).users >= 4);
    }
}
