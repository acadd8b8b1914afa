//! Synthetic tag-event streams for the live-index experiments.
//!
//! The paper's maintenance story (§6.2) assumes tagging activity keeps
//! arriving after the indexes are built. This module generates such a
//! stream against an already-materialized [`SiteModel`]: Zipf-skewed
//! assignments (the same popularity skew as [`crate::generator`]) mixed
//! with retractions of assignments the site already holds, so replaying
//! the stream through `SiteModel::try_apply` + `*Index::try_apply_with`
//! exercises both growth and shrinkage of posting lists.

use crate::generator::ZipfSampler;
use crate::travel::ACTIVITY_TAGS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialscope_content::{SiteModel, TagEvent};
use socialscope_graph::NodeId;

/// Parameters of a synthetic tag-event stream.
#[derive(Debug, Clone)]
pub struct EventStreamConfig {
    /// Number of events to generate.
    pub events: usize,
    /// Fraction of events that retract an existing assignment (the rest
    /// are fresh Zipf-skewed assignments). Clamped to `[0, 1]`.
    pub retract_fraction: f64,
    /// Zipf exponent for the user/item popularity skew of assignments.
    pub zipf_exponent: f64,
    /// RNG seed; the stream is deterministic for a fixed seed and site.
    pub seed: u64,
}

impl Default for EventStreamConfig {
    fn default() -> Self {
        EventStreamConfig { events: 100, retract_fraction: 0.2, zipf_exponent: 1.1, seed: 42 }
    }
}

/// Generate a deterministic stream of tag events against `site`.
///
/// Assignments pick a Zipf-ranked user, a Zipf-ranked item, and an
/// activity tag; retractions are sampled (without replacement) from the
/// assignments `site` currently holds, so each retraction is effective
/// when the stream is replayed in order from `site`'s current state.
/// Returns an empty stream if the site has no users or no items.
pub fn generate_events(site: &SiteModel, config: &EventStreamConfig) -> Vec<TagEvent> {
    let users: Vec<NodeId> = site.users().collect();
    let items: Vec<NodeId> = site.items().collect();
    if users.is_empty() || items.is_empty() {
        return Vec::new();
    }

    // Existing (tagger, item, tag) triples, sorted so the stream does not
    // depend on hash-map iteration order.
    let mut existing: Vec<(NodeId, NodeId, String)> = site
        .tag_assignments()
        .flat_map(|(item, tag, taggers)| {
            taggers.iter().map(move |&tagger| (tagger, item, tag.to_string()))
        })
        .collect();
    existing.sort();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let retract_p = config.retract_fraction.clamp(0.0, 1.0);
    let user_ranks = ZipfSampler::new(users.len(), config.zipf_exponent);
    let item_ranks = ZipfSampler::new(items.len(), config.zipf_exponent);

    let mut events = Vec::with_capacity(config.events);
    for _ in 0..config.events {
        if !existing.is_empty() && rng.gen_bool(retract_p) {
            let idx = rng.gen_range(0..existing.len());
            let (tagger, item, tag) = existing.swap_remove(idx);
            events.push(TagEvent::retract(tagger, item, tag));
        } else {
            let tagger = users[user_ranks.sample(&mut rng)];
            let item = items[item_ranks.sample(&mut rng)];
            let tag = ACTIVITY_TAGS[rng.gen_range(0..ACTIVITY_TAGS.len())];
            events.push(TagEvent::assign(tagger, item, tag));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiteConfig;
    use crate::generator::generate_site;

    fn tiny_site() -> SiteModel {
        SiteModel::from_graph(&generate_site(&SiteConfig::tiny()).graph)
    }

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let site = tiny_site();
        let config = EventStreamConfig { events: 50, ..EventStreamConfig::default() };
        let a = generate_events(&site, &config);
        let b = generate_events(&site, &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let c = generate_events(&site, &EventStreamConfig { seed: 7, ..config });
        assert_ne!(a, c);
    }

    #[test]
    fn retract_fraction_is_honored_and_retracts_are_effective() {
        let site = tiny_site();
        let config = EventStreamConfig {
            events: 200,
            retract_fraction: 0.5,
            ..EventStreamConfig::default()
        };
        let events = generate_events(&site, &config);
        let retracts = events.iter().filter(|e| !e.is_assign()).count();
        assert!(retracts > 50, "expected roughly half retracts, got {retracts}");
        assert!(retracts < 150, "expected roughly half retracts, got {retracts}");

        // Replaying the stream must touch the site: every retract targets a
        // live assignment at the moment it is applied, and fresh assigns
        // add new ones.
        let mut live = site.clone();
        for event in &events {
            if !event.is_assign() {
                assert!(
                    live.taggers_of(event.item(), event.tag()).contains(&event.tagger()),
                    "retract of a missing assignment: {event:?}"
                );
            }
            live.try_apply(std::slice::from_ref(event)).unwrap();
        }
    }

    #[test]
    fn all_or_none_extremes() {
        let site = tiny_site();
        let assigns_only = generate_events(
            &site,
            &EventStreamConfig { events: 40, retract_fraction: 0.0, ..Default::default() },
        );
        assert!(assigns_only.iter().all(TagEvent::is_assign));

        let empty_site = SiteModel::default();
        assert!(generate_events(&empty_site, &EventStreamConfig::default()).is_empty());
    }
}
