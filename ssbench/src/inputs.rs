//! Everything a run feeds the program, derived from the workload seed: the
//! site, the query stream, the discovery batches and the apply batches
//! (including the late-joining taggers). Generation is deterministic per
//! seed and is never timed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialscope_content::{SiteModel, TagEvent};
use socialscope_graph::NodeId;
use socialscope_workload::travel::ACTIVITY_TAGS;
use socialscope_workload::{
    generate_events, generate_site, keywords_of, EventStreamConfig, GeneratedSite, QueryLogConfig,
    QueryLogGenerator, SiteConfig, ZipfSampler,
};

/// Users on the benchmark site (`SiteConfig::at_scale`).
pub const USERS: usize = 10_000;
/// Ranked items asked for by every query.
pub const K: usize = 10;
/// Distinct requests in the serving query stream (cycled).
const QUERY_POOL: usize = 4096;
/// Distinct discovery batches (cycled).
const BATCH_POOL: usize = 256;
/// Seekers per discovery batch.
pub const BATCH_SEEKERS: usize = 64;
/// Zipf exponent of activity-tag popularity in discovery keyword sets.
const TAG_SKEW: f64 = 1.0;
/// `generate_events` events in each apply batch.
const EVENTS_PER_APPLY: usize = 10;
/// Extra events per apply batch from taggers the site has never seen:
/// without them `generate_events` alone causes no cluster joins, and
/// recluster-on-join would go unexercised.
const LATE_JOINERS_PER_APPLY: usize = 2;

/// One single-seeker query.
#[derive(Debug, Clone)]
pub struct Query {
    pub seeker: NodeId,
    pub keywords: Vec<String>,
}

/// Seekers sharing one keyword set.
#[derive(Debug, Clone)]
pub struct Batch {
    pub keywords: Vec<String>,
    pub seekers: Vec<NodeId>,
}

/// Independent sub-seeds, so adding a stream never shifts another.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn site(seed: u64) -> GeneratedSite {
    generate_site(&SiteConfig { seed: sub_seed(seed, 1), ..SiteConfig::at_scale(USERS) })
}

/// The serving query stream: Table-1 query strings turned into probe
/// keywords, each from a seeker drawn uniformly over the site's users.
pub fn queries(seed: u64, users: &[NodeId]) -> Vec<Query> {
    let mut log = QueryLogGenerator::new(QueryLogConfig {
        queries: QUERY_POOL,
        seed: sub_seed(seed, 2),
        ..QueryLogConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    log.generate()
        .iter()
        .map(|text| Query {
            seeker: users[rng.gen_range(0..users.len())],
            keywords: keywords_of(text),
        })
        .collect()
}

/// Discovery batches: one or two activity tags drawn with Zipf skew, and
/// [`BATCH_SEEKERS`] seekers drawn uniformly over the site's users.
pub fn batches(seed: u64, users: &[NodeId]) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let tags = ZipfSampler::new(ACTIVITY_TAGS.len(), TAG_SKEW);
    (0..BATCH_POOL)
        .map(|_| {
            let mut keywords = vec![ACTIVITY_TAGS[tags.sample(&mut rng)].to_string()];
            if rng.gen_bool(0.5) {
                let second = ACTIVITY_TAGS[tags.sample(&mut rng)];
                if second != keywords[0] {
                    keywords.push(second.to_string());
                }
            }
            let seekers =
                (0..BATCH_SEEKERS).map(|_| users[rng.gen_range(0..users.len())]).collect();
            Batch { keywords, seekers }
        })
        .collect()
}

/// `count` apply batches against `site`: [`EVENTS_PER_APPLY`] events from
/// `generate_events` plus [`LATE_JOINERS_PER_APPLY`] assignments by
/// taggers whose ids lie above every node of the graph (`node_count`).
pub fn applies(seed: u64, site: &SiteModel, node_count: usize, count: usize) -> Vec<Vec<TagEvent>> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    let items: Vec<NodeId> = site.items().collect();
    let mut next_joiner = node_count as u64 + 1 + rng.gen_range(0..1_000_000u64);
    (0..count)
        .map(|j| {
            let mut events = generate_events(
                site,
                &EventStreamConfig {
                    events: EVENTS_PER_APPLY,
                    seed: sub_seed(seed, 100 + j as u64),
                    ..EventStreamConfig::default()
                },
            );
            for _ in 0..LATE_JOINERS_PER_APPLY {
                let item = items[rng.gen_range(0..items.len())];
                let tag = ACTIVITY_TAGS[rng.gen_range(0..ACTIVITY_TAGS.len())];
                events.push(TagEvent::assign(NodeId(next_joiner), item, tag));
                next_joiner += 1;
            }
            events
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
    }

    #[test]
    fn batches_are_deterministic_and_shaped() {
        let users: Vec<NodeId> = (0..50).map(NodeId).collect();
        let a = batches(3, &users);
        let b = batches(3, &users);
        assert_eq!(a.len(), BATCH_POOL);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.keywords, &x.seekers), (&y.keywords, &y.seekers));
            assert!(matches!(x.keywords.len(), 1 | 2));
            assert_eq!(x.seekers.len(), BATCH_SEEKERS);
        }
        assert_ne!(
            a.iter().map(|x| x.seekers.clone()).collect::<Vec<_>>(),
            batches(4, &users).iter().map(|x| x.seekers.clone()).collect::<Vec<_>>()
        );
    }
}
