//! Property-based tests for live index maintenance: applying a stream of
//! [`TagEvent`]s to an [`ExactIndex`] / [`ClusteredIndex`] must leave the
//! index *indistinguishable* from one rebuilt from scratch over the updated
//! site — same stats, same stored list per key, same refinement groups,
//! same answer (ranking, scores and cost counters) to every query — for
//! arbitrary event interleavings, chunkings and thread counts, with
//! recluster-on-join folding late taggers into the clustering as the
//! stream arrives.

use proptest::prelude::*;
use socialscope_content::{
    BatchOptions, BatchScratchPool, BehaviorBasedClustering, ClusteredIndex, ClusteringStrategy,
    ExactIndex, HybridClustering, Layout, NetworkBasedClustering, SiteModel, TagEvent,
};
use socialscope_exec::Exec;
use socialscope_graph::{GraphBuilder, NodeId, SocialGraph};
use std::collections::BTreeSet;

/// Thread counts every apply sweeps: sequential identity, smallest real
/// fan-out, and an odd over-subscription.
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

const TAGS: [&str; 4] = ["baseball", "museum", "family", "hiking"];

/// Build twin graphs for the late-joiner scenario: the *base* graph holds
/// the first `users` users (clusterings are computed from it), the *full*
/// graph additionally holds `late` users befriended into the base
/// population — node ids of the shared prefix match exactly. Returned
/// user ids cover the full graph (late users last).
#[allow(clippy::type_complexity)]
fn build_graphs(
    users: usize,
    late: usize,
    items: usize,
    friendships: &[(usize, usize)],
    tags: &[(usize, usize, usize)],
    late_friends: &[usize],
) -> (SocialGraph, SocialGraph, Vec<NodeId>, Vec<NodeId>) {
    let populate = |with_late: bool| -> (SocialGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let mut user_ids: Vec<NodeId> = (0..users).map(|i| b.add_user(&format!("u{i}"))).collect();
        let item_ids: Vec<NodeId> =
            (0..items).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        for &(a, c) in friendships {
            let (a, c) = (a % users, c % users);
            if a != c {
                b.befriend(user_ids[a], user_ids[c]);
            }
        }
        for &(u, i, t) in tags {
            b.tag(user_ids[u % users], item_ids[i % items], &[TAGS[t % TAGS.len()]]);
        }
        if with_late {
            for (l, &f) in (0..late).zip(late_friends.iter().cycle()) {
                let id = b.add_user(&format!("late{l}"));
                b.befriend(id, user_ids[f % users]);
                user_ids.push(id);
            }
        }
        (b.build(), user_ids, item_ids)
    };
    let (base, _, _) = populate(false);
    let (full, user_ids, item_ids) = populate(true);
    (base, full, user_ids, item_ids)
}

/// Turn raw proptest picks into a concrete event stream over real ids
/// (an even kind pick is an assign, odd a retract).
fn build_events(
    raw: &[(usize, usize, usize, usize)],
    user_ids: &[NodeId],
    item_ids: &[NodeId],
) -> Vec<TagEvent> {
    raw.iter()
        .map(|&(u, i, t, kind)| {
            let user = user_ids[u % user_ids.len()];
            let item = item_ids[i % item_ids.len()];
            let tag = TAGS[t % TAGS.len()];
            if kind % 2 == 0 {
                TagEvent::assign(user, item, tag)
            } else {
                TagEvent::retract(user, item, tag)
            }
        })
        .collect()
}

/// (users, items, friendship edges, tag actions) describing a random site.
type SiteInputs = (usize, usize, Vec<(usize, usize)>, Vec<(usize, usize, usize)>);

fn arb_inputs() -> impl Strategy<Value = SiteInputs> {
    (
        3usize..8,
        3usize..8,
        prop::collection::vec((0usize..8, 0usize..8), 1..25),
        prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..40),
    )
}

/// A random event stream plus how to chunk it into apply batches.
fn arb_stream() -> impl Strategy<Value = (Vec<(usize, usize, usize, usize)>, usize)> {
    (prop::collection::vec((0usize..12, 0usize..8, 0usize..4, 0usize..2), 0..32), 1usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Delta ≡ rebuild, exact engine.** Applying an arbitrary event
    /// stream — in arbitrary chunk sizes, at every thread count — leaves
    /// the maintained exact index with the same stats, the same posting
    /// list for every `(tag, user)` pair, and the same single-query and
    /// batch answers as an index rebuilt from scratch over the final site.
    #[test]
    fn exact_apply_matches_rebuild(
        (users, items, fr, tg) in arb_inputs(),
        (raw_events, chunk_len) in arb_stream(),
    ) {
        let (_, g, user_ids, item_ids) = build_graphs(users, 2, items, &fr, &tg, &[0, 1]);
        let events = build_events(&raw_events, &user_ids, &item_ids);
        let keywords: Vec<String> = TAGS[..3].iter().map(|t| t.to_string()).collect();
        for threads in THREAD_COUNTS {
            let exec = Exec::new(threads).unwrap();
            let mut site = SiteModel::from_graph(&g);
            let mut index = ExactIndex::builder(&site).exec(&exec).build();
            for chunk in events.chunks(chunk_len) {
                site.try_apply(chunk).unwrap();
                index.try_apply_with(&exec, &site, chunk).unwrap();
            }
            let rebuilt = ExactIndex::builder(&site).build();
            prop_assert_eq!(index.stats(), rebuilt.stats(), "stats at {} threads", threads);
            for tag in TAGS {
                for &u in &user_ids {
                    prop_assert_eq!(
                        index.list(tag, u), rebuilt.list(tag, u),
                        "list {} / {} at {} threads", tag, u, threads
                    );
                }
            }
            for &u in &user_ids {
                prop_assert_eq!(
                    index.query(u, &keywords, 3),
                    rebuilt.query(u, &keywords, 3),
                    "query sweep, user {} at {} threads", u, threads
                );
            }
            prop_assert_eq!(
                index.query_batch_opts(&user_ids, &keywords, 3, BatchOptions::new()),
                rebuilt.query_batch_opts(&user_ids, &keywords, 3, BatchOptions::new()),
                "batch sweep at {} threads", threads
            );
        }
    }

    /// **Delta ≡ rebuild, clustered engine, with recluster-on-join.** The
    /// clustering comes from a *base* site missing two late-joining users;
    /// the stream (which includes their taggings) is applied in chunks at
    /// every thread count. Afterwards every event tagger is clustered, and
    /// the maintained index matches — bound list for bound list,
    /// refinement group for refinement group, query for query — an index
    /// rebuilt from scratch over the final site and the post-join
    /// clustering.
    #[test]
    fn clustered_apply_matches_rebuild(
        (users, items, fr, tg) in arb_inputs(),
        (raw_events, chunk_len) in arb_stream(),
        theta in 0.1f64..0.9,
        strategy_pick in 0usize..3,
    ) {
        let (base_g, g, user_ids, item_ids) = build_graphs(users, 2, items, &fr, &tg, &[0, 1]);
        let base_site = SiteModel::from_graph(&base_g);
        let strategy: &dyn ClusteringStrategy = [
            &NetworkBasedClustering as &dyn ClusteringStrategy,
            &BehaviorBasedClustering,
            &HybridClustering,
        ][strategy_pick];
        let clustering = strategy.cluster(&base_site, theta);
        let events = build_events(&raw_events, &user_ids, &item_ids);
        let keywords: Vec<String> = TAGS[..3].iter().map(|t| t.to_string()).collect();
        for threads in THREAD_COUNTS {
            let exec = Exec::new(threads).unwrap();
            let mut site = SiteModel::from_graph(&g);
            let mut index = ClusteredIndex::builder(&site)
                .exec(&exec)
                .clustering(clustering.clone())
                .build();
            for chunk in events.chunks(chunk_len) {
                site.try_apply(chunk).unwrap();
                index.try_apply_with(&exec, &site, chunk).unwrap();
            }
            for event in &events {
                prop_assert!(
                    index.clustering.cluster_of(event.tagger()).is_some(),
                    "tagger {} still unclustered at {} threads", event.tagger(), threads
                );
            }
            let rebuilt = ClusteredIndex::build(&site, index.clustering.clone());
            prop_assert_eq!(index.stats(), rebuilt.stats(), "stats at {} threads", threads);
            prop_assert_eq!(
                index.stats_with_refinement(),
                rebuilt.stats_with_refinement(),
                "refinement stats at {} threads", threads
            );
            for tag in TAGS {
                for (cluster, _) in index.clustering.iter() {
                    prop_assert_eq!(
                        index.list(tag, cluster), rebuilt.list(tag, cluster),
                        "bound list {} / {:?} at {} threads", tag, cluster, threads
                    );
                }
            }
            for (item, tag, taggers) in site.tag_assignments() {
                let id = index.tags().get(tag).expect("live tag is interned");
                prop_assert_eq!(
                    index.refinement().taggers(id, item), taggers,
                    "refinement group {} / {} at {} threads", tag, item, threads
                );
            }
            prop_assert_eq!(
                index.refinement().group_count(),
                site.tag_assignments().count(),
                "refinement group count at {} threads", threads
            );
            for &u in &user_ids {
                prop_assert_eq!(
                    index.query(&site, u, &keywords, 3),
                    rebuilt.query(&site, u, &keywords, 3),
                    "query sweep, user {} at {} threads", u, threads
                );
            }
            prop_assert_eq!(
                index.query_batch_opts(&site, &user_ids, &keywords, 3, BatchOptions::new()),
                rebuilt.query_batch_opts(&site, &user_ids, &keywords, 3, BatchOptions::new()),
                "batch sweep at {} threads", threads
            );
        }
    }

    /// **Delta ≡ rebuild on compressed layouts.** The same contract as the
    /// raw properties with both engines built `Layout::Compressed`: chunked
    /// applies splice re-encoded runs into the packed arenas, and because
    /// every encoder is canonical the maintained index ends *byte-identical*
    /// — stats with heap bytes, posting list for posting list, refinement
    /// group for refinement group — to a compressed rebuild over the final
    /// site, and answers every query the same.
    #[test]
    fn compressed_apply_matches_compressed_rebuild(
        (users, items, fr, tg) in arb_inputs(),
        (raw_events, chunk_len) in arb_stream(),
        theta in 0.1f64..0.9,
    ) {
        let (base_g, g, user_ids, item_ids) = build_graphs(users, 2, items, &fr, &tg, &[0, 1]);
        let base_site = SiteModel::from_graph(&base_g);
        let clustering = NetworkBasedClustering.cluster(&base_site, theta);
        let events = build_events(&raw_events, &user_ids, &item_ids);
        let keywords: Vec<String> = TAGS[..3].iter().map(|t| t.to_string()).collect();
        let mut site = SiteModel::from_graph(&g);
        let mut exact = ExactIndex::builder(&site).layout(Layout::Compressed).build();
        let mut clustered = ClusteredIndex::builder(&site)
            .clustering(clustering)
            .layout(Layout::Compressed)
            .build();
        for chunk in events.chunks(chunk_len) {
            site.try_apply(chunk).unwrap();
            exact.try_apply_with(&Exec::auto(), &site, chunk).unwrap();
            clustered.try_apply_with(&Exec::auto(), &site, chunk).unwrap();
        }
        prop_assert_eq!(exact.layout(), Layout::Compressed, "apply abandoned the layout");
        prop_assert_eq!(clustered.layout(), Layout::Compressed, "apply abandoned the layout");
        let exact_rebuilt = ExactIndex::builder(&site).layout(Layout::Compressed).build();
        let clustered_rebuilt = ClusteredIndex::builder(&site)
            .clustering(clustered.clustering.clone())
            .layout(Layout::Compressed)
            .build();
        // `stats()` includes the measured heap bytes, so equality here is
        // the canonical-bytes check, not just a logical-entry count.
        prop_assert_eq!(exact.stats(), exact_rebuilt.stats(), "exact bytes diverged");
        prop_assert_eq!(
            clustered.stats_with_refinement(),
            clustered_rebuilt.stats_with_refinement(),
            "clustered bytes diverged"
        );
        for tag in TAGS {
            for &u in &user_ids {
                prop_assert_eq!(
                    exact.list(tag, u), exact_rebuilt.list(tag, u),
                    "packed list {} / {}", tag, u
                );
            }
            for (cluster, _) in clustered.clustering.iter() {
                prop_assert_eq!(
                    clustered.list(tag, cluster), clustered_rebuilt.list(tag, cluster),
                    "packed bound list {} / {:?}", tag, cluster
                );
            }
        }
        for &u in &user_ids {
            prop_assert_eq!(
                exact.query(u, &keywords, 3),
                exact_rebuilt.query(u, &keywords, 3),
                "exact query sweep, user {}", u
            );
            prop_assert_eq!(
                clustered.query(&site, u, &keywords, 3),
                clustered_rebuilt.query(&site, u, &keywords, 3),
                "clustered query sweep, user {}", u
            );
        }
        prop_assert_eq!(
            exact.query_batch_opts(&user_ids, &keywords, 3, BatchOptions::new()),
            exact_rebuilt.query_batch_opts(&user_ids, &keywords, 3, BatchOptions::new()),
            "exact batch sweep"
        );
    }

    /// **Redundant batches are true no-ops.** Re-assigning triples the site
    /// already holds (taggers all clustered) and retracting triples it
    /// never held reports a no-op and leaves the build stamp — and with it
    /// every warm gather cache — untouched. Same for the empty batch.
    #[test]
    fn redundant_batches_are_noops(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        picks in prop::collection::vec(0usize..16, 1..6),
    ) {
        let (_, g, user_ids, item_ids) = build_graphs(users, 0, items, &fr, &tg, &[]);
        let mut site = SiteModel::from_graph(&g);
        // Cluster the *full* site: every possible tagger already belongs
        // somewhere, so nothing in the batch can be an effective join.
        let clustering = NetworkBasedClustering.cluster(&site, theta);
        let mut exact = ExactIndex::builder(&site).build();
        let mut clustered =
            ClusteredIndex::builder(&site).clustering(clustering).build();
        let stamp = clustered.build_stamp();
        let existing: Vec<(NodeId, NodeId, String)> = site
            .tag_assignments()
            .map(|(item, tag, taggers)| (taggers[0], item, tag.to_string()))
            .collect();
        let mut events: Vec<TagEvent> = picks
            .iter()
            .map(|&p| {
                let (tagger, item, tag) = existing[p % existing.len()].clone();
                TagEvent::assign(tagger, item, tag)
            })
            .collect();
        events.push(TagEvent::retract(user_ids[0], item_ids[0], "neverassigned"));
        let exact_stats = exact.stats();
        let clustered_stats = clustered.stats_with_refinement();
        for batch in [&events[..], &[]] {
            prop_assert_eq!(site.try_apply(batch).unwrap(), 0, "site treated the batch as effective");
            prop_assert!(exact.try_apply_with(&Exec::auto(), &site, batch).unwrap().is_noop());
            let report = clustered.try_apply_with(&Exec::auto(), &site, batch).unwrap();
            prop_assert!(report.is_noop(), "clustered apply reported {:?}", report);
            prop_assert_eq!(clustered.build_stamp(), stamp, "stamp moved on a no-op");
        }
        prop_assert_eq!(exact.stats(), exact_stats);
        prop_assert_eq!(clustered.stats_with_refinement(), clustered_stats);
    }
}

/// A triple-set model of the tagging primitives: the site as the bare set
/// of `(tagger, item, tag)` assignments it holds, plus the users and items
/// it has seen. Every accessor of a [`SiteModel`] that tag events move is
/// a projection of this set.
struct TripleOracle {
    triples: BTreeSet<(NodeId, NodeId, String)>,
    users: BTreeSet<NodeId>,
    items: BTreeSet<NodeId>,
}

impl TripleOracle {
    fn of(site: &SiteModel) -> Self {
        let triples = site
            .tag_assignments()
            .flat_map(|(item, tag, taggers)| {
                taggers.iter().map(move |&tagger| (tagger, item, tag.to_string()))
            })
            .collect();
        TripleOracle { triples, users: site.users().collect(), items: site.items().collect() }
    }

    /// Apply a batch; returns how many events changed the triple set.
    fn apply(&mut self, events: &[TagEvent]) -> usize {
        let mut effective = 0;
        for event in events {
            let triple = (event.tagger(), event.item(), event.tag().to_lowercase());
            let changed = if event.is_assign() {
                self.users.insert(event.tagger());
                self.items.insert(event.item());
                self.triples.insert(triple)
            } else {
                self.triples.remove(&triple)
            };
            effective += usize::from(changed);
        }
        effective
    }

    fn taggers_of(&self, item: NodeId, tag: &str) -> Vec<NodeId> {
        let tag = tag.to_lowercase();
        self.triples.iter().filter(|(_, i, t)| *i == item && *t == tag).map(|t| t.0).collect()
    }

    fn items_of(&self, user: NodeId) -> Vec<NodeId> {
        let items: BTreeSet<NodeId> =
            self.triples.iter().filter(|(u, ..)| *u == user).map(|t| t.1).collect();
        items.into_iter().collect()
    }

    fn tags_of(&self, user: NodeId) -> BTreeSet<String> {
        self.triples.iter().filter(|(u, ..)| *u == user).map(|t| t.2.clone()).collect()
    }

    fn items_with_tag(&self, tag: &str) -> BTreeSet<NodeId> {
        self.triples.iter().filter(|(.., t)| t == tag).map(|t| t.1).collect()
    }

    fn tags(&self) -> Vec<String> {
        let tags: BTreeSet<String> = self.triples.iter().map(|t| t.2.clone()).collect();
        tags.into_iter().collect()
    }
}

/// One item's `(tag, taggers)` groups, sorted, whatever the iteration
/// order of the source.
fn sorted_groups<'a>(
    groups: impl Iterator<Item = (&'a str, &'a [NodeId])>,
) -> Vec<(String, Vec<NodeId>)> {
    let mut groups: Vec<(String, Vec<NodeId>)> =
        groups.map(|(tag, taggers)| (tag.to_string(), taggers.to_vec())).collect();
    groups.sort();
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **The planned view is the applied site.** For arbitrary batches —
    /// with duplicate assigns, retracts of absent triples, an assign and
    /// a retract of one triple in the same batch, in-graph late joiners
    /// and taggers the graph never saw — every read an index plan makes
    /// through [`SiteModel::view_with`] equals the same read on a clone
    /// that applied the batch one event at a time; once the delta
    /// commits, every accessor of the model equals the clone's and a
    /// triple-set oracle's.
    #[test]
    fn site_view_reads_match_the_applied_clone(
        (users, items, fr, tg) in arb_inputs(),
        (raw_events, _) in arb_stream(),
        replays in prop::collection::vec((0usize..32, 0usize..3), 0..6),
    ) {
        let (_, g, mut user_ids, item_ids) = build_graphs(users, 2, items, &fr, &tg, &[0, 1]);
        let mut events = build_events(&raw_events, &user_ids, &item_ids);
        // Taggers the graph never saw, one per replay pick.
        let strangers: Vec<NodeId> = (0..replays.len() as u64).map(|k| NodeId(1_000_000 + k)).collect();
        for (&(pick, how), &stranger) in replays.iter().zip(&strangers) {
            let item = item_ids[pick % item_ids.len()];
            let tag = TAGS[pick % TAGS.len()];
            let tagger = user_ids[pick % user_ids.len()];
            match how {
                // A duplicate assign, then the same triple retracted.
                0 => events.extend([
                    TagEvent::assign(tagger, item, tag),
                    TagEvent::assign(tagger, item, tag.to_uppercase()),
                    TagEvent::retract(tagger, item, tag),
                ]),
                // A retract of a triple nobody ever assigned.
                1 => events.push(TagEvent::retract(tagger, item, "neverassigned")),
                _ => events.push(TagEvent::assign(stranger, item, tag)),
            }
        }
        user_ids.extend(&strangers);
        let site = SiteModel::from_graph(&g);
        let mut applied = site.clone();
        let effective: usize =
            events.iter().map(|e| applied.try_apply(std::slice::from_ref(e)).unwrap()).sum();
        let mut oracle = TripleOracle::of(&site);
        prop_assert_eq!(oracle.apply(&events), effective);

        let delta = site.plan_apply(&events).unwrap();
        prop_assert_eq!(delta.effective(), effective);
        let view = site.view_with(&delta);
        let tags: Vec<&str> = TAGS.iter().copied().chain(["neverassigned", "MUSEUM"]).collect();
        for &u in &user_ids {
            prop_assert_eq!(view.network_of(u), applied.network_of(u));
            prop_assert_eq!(view.items_of(u), applied.items_of(u), "items_of {}", u);
            for &v in &user_ids {
                prop_assert_eq!(view.network_jaccard(u, v), applied.network_jaccard(u, v));
                prop_assert_eq!(view.behavior_jaccard(u, v), applied.behavior_jaccard(u, v));
            }
        }
        for &i in &item_ids {
            for &tag in &tags {
                prop_assert_eq!(view.taggers_of(i, tag), applied.taggers_of(i, tag));
            }
            prop_assert_eq!(
                sorted_groups(view.item_tags(i)),
                sorted_groups(applied.item_tags(i)),
                "item_tags {}", i
            );
        }

        let mut committed = site.clone();
        prop_assert_eq!(committed.commit_apply(delta), effective);
        prop_assert_eq!(committed.users().collect::<Vec<_>>(), applied.users().collect::<Vec<_>>());
        prop_assert_eq!(committed.users().collect::<BTreeSet<_>>(), oracle.users.clone());
        prop_assert_eq!(committed.items().collect::<Vec<_>>(), applied.items().collect::<Vec<_>>());
        prop_assert_eq!(committed.items().collect::<BTreeSet<_>>(), oracle.items.clone());
        prop_assert_eq!(committed.tags().collect::<Vec<_>>(), applied.tags().collect::<Vec<_>>());
        prop_assert_eq!(committed.tags().map(str::to_string).collect::<Vec<_>>(), oracle.tags());
        prop_assert_eq!(committed.user_count(), applied.user_count());
        prop_assert_eq!(committed.item_count(), applied.item_count());
        prop_assert_eq!(committed.tag_count(), applied.tag_count());
        let mut assignments: Vec<(NodeId, String, Vec<NodeId>)> = committed
            .tag_assignments()
            .map(|(i, t, taggers)| (i, t.to_string(), taggers.to_vec()))
            .collect();
        let mut want: Vec<(NodeId, String, Vec<NodeId>)> = applied
            .tag_assignments()
            .map(|(i, t, taggers)| (i, t.to_string(), taggers.to_vec()))
            .collect();
        assignments.sort();
        want.sort();
        prop_assert_eq!(assignments, want);
        for &u in &user_ids {
            prop_assert_eq!(committed.items_of(u), applied.items_of(u));
            prop_assert_eq!(committed.items_of(u), oracle.items_of(u).as_slice());
            prop_assert_eq!(committed.network_of(u), applied.network_of(u));
            prop_assert_eq!(committed.tags_of(u), applied.tags_of(u));
            prop_assert_eq!(committed.tags_of(u), &oracle.tags_of(u), "tags_of {}", u);
        }
        for &tag in &tags {
            prop_assert_eq!(committed.items_with_tag(tag), applied.items_with_tag(tag));
            prop_assert_eq!(
                committed.items_with_tag(tag),
                &oracle.items_with_tag(&tag.to_lowercase())
            );
        }
        for &i in &item_ids {
            for &tag in &tags {
                prop_assert_eq!(committed.taggers_of(i, tag), applied.taggers_of(i, tag));
                prop_assert_eq!(committed.taggers_of(i, tag), oracle.taggers_of(i, tag).as_slice());
            }
            prop_assert_eq!(
                sorted_groups(committed.item_tags(i)),
                sorted_groups(applied.item_tags(i))
            );
        }
    }
}

/// The two-clique fixture the in-crate index tests use, rebuilt here from
/// the public API: u0-u1-u2 and u3-u4-u5, five items, four tags.
fn two_cliques() -> (SiteModel, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let users: Vec<NodeId> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
    let items: Vec<NodeId> =
        (0..5).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    b.befriend(users[0], users[1]);
    b.befriend(users[1], users[2]);
    b.befriend(users[0], users[2]);
    b.befriend(users[3], users[4]);
    b.befriend(users[4], users[5]);
    b.befriend(users[3], users[5]);
    b.tag(users[1], items[0], &["baseball"]);
    b.tag(users[2], items[1], &["baseball", "stadium"]);
    b.tag(users[1], items[2], &["baseball"]);
    b.tag(users[4], items[2], &["museum"]);
    b.tag(users[5], items[3], &["museum"]);
    b.tag(users[4], items[4], &["museum", "history"]);
    (SiteModel::from_graph(&b.build()), users, items)
}

/// Regression: a scratch arena (worker 0 of one [`BatchScratchPool`] under
/// [`Exec::sequential`]) warmed on one batch must not serve stale gathered
/// spans after an apply. The apply introduces a brand-new
/// `(tag, cluster)` bound list — which re-lays-out the whole list pool, so
/// a cache replaying pre-apply pool slots would read the *wrong lists*,
/// not just stale scores. The build stamp moving on every effective apply
/// is the single invalidation authority that makes the second batch
/// re-gather.
#[test]
fn warm_scratch_reads_fresh_state_after_apply() {
    let (mut site, users, items) = two_cliques();
    let mut index = ClusteredIndex::builder(&site)
        .clustering(NetworkBasedClustering.cluster(&site, 0.3))
        .build();
    let keywords = vec!["baseball".to_string(), "museum".to_string()];
    let mut pool = BatchScratchPool::default();
    let warm = index.query_batch_opts(
        &site,
        &users,
        &keywords,
        2,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    );
    for (got, &u) in warm.iter().zip(&users) {
        assert_eq!(got, &index.query(&site, u, &keywords, 2), "warm-up diverged for {u}");
    }
    let stamp = index.build_stamp();
    // u4 (clique B) tags item 0 with "baseball": clique B's cluster gains
    // its first baseball bound list — a pool re-layout, the worst case for
    // a stale gather cache.
    let events = vec![TagEvent::assign(users[4], items[0], "baseball")];
    site.try_apply(&events).unwrap();
    let report = index.try_apply_with(&Exec::auto(), &site, &events).unwrap();
    assert!(!report.is_noop());
    assert_ne!(index.build_stamp(), stamp, "effective apply must move the stamp");
    let served = index.query_batch_opts(
        &site,
        &users,
        &keywords,
        2,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    );
    for (got, &u) in served.iter().zip(&users) {
        assert_eq!(got, &index.query(&site, u, &keywords, 2), "stale gather served for {u}");
    }
    let rebuilt = ClusteredIndex::build(&site, index.clustering.clone());
    for &u in &users {
        assert_eq!(index.query(&site, u, &keywords, 2), rebuilt.query(&site, u, &keywords, 2));
    }
}

/// A user who joins the site after the clustering was built starts
/// unclustered (the documented empty-with-flag semantic); their first tag
/// event reclusters them in place — the greedy-leader predicate against
/// current leaders — and their queries immediately answer from the
/// cluster's bounds, identically to a full rebuild, without one.
#[test]
fn late_joiner_is_clustered_by_their_first_event() {
    // Cluster the six-user site…
    let (before, users, _) = two_cliques();
    let clustering = NetworkBasedClustering.cluster(&before, 0.3);
    // …then regrow the graph with a seventh user befriending u1.
    let mut b = GraphBuilder::new();
    let rebuilt_users: Vec<NodeId> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
    let items: Vec<NodeId> =
        (0..5).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    b.befriend(rebuilt_users[0], rebuilt_users[1]);
    b.befriend(rebuilt_users[1], rebuilt_users[2]);
    b.befriend(rebuilt_users[0], rebuilt_users[2]);
    b.befriend(rebuilt_users[3], rebuilt_users[4]);
    b.befriend(rebuilt_users[4], rebuilt_users[5]);
    b.befriend(rebuilt_users[3], rebuilt_users[5]);
    b.tag(rebuilt_users[1], items[0], &["baseball"]);
    b.tag(rebuilt_users[2], items[1], &["baseball", "stadium"]);
    b.tag(rebuilt_users[1], items[2], &["baseball"]);
    b.tag(rebuilt_users[4], items[2], &["museum"]);
    b.tag(rebuilt_users[5], items[3], &["museum"]);
    b.tag(rebuilt_users[4], items[4], &["museum", "history"]);
    let late = b.add_user("late-joiner");
    b.befriend(late, rebuilt_users[1]);
    let mut site = SiteModel::from_graph(&b.build());
    assert_eq!(rebuilt_users, users, "rebuilt ids must match the clustering's");
    assert!(clustering.cluster_of(late).is_none());

    let mut index = ClusteredIndex::builder(&site).clustering(clustering).build();
    let keywords = vec!["baseball".to_string()];
    assert!(index.query(&site, late, &keywords, 3).unclustered);

    let events = vec![TagEvent::assign(late, items[3], "baseball")];
    site.try_apply(&events).unwrap();
    let report = index.try_apply_with(&Exec::auto(), &site, &events).unwrap();
    assert_eq!(report.cluster_joins, 1);
    // The joiner's network {u1} overlaps u0's {u1, u2} at Jaccard 1/2 ≥
    // 0.3: the greedy predicate folds them into clique A's cluster, not a
    // singleton.
    let joined = index.clustering.cluster_of(late).expect("first event clusters the joiner");
    assert_eq!(index.clustering.cluster_of(users[0]), Some(joined));

    let report = index.query(&site, late, &keywords, 3);
    assert!(!report.unclustered, "late joiner still answers as unclustered");
    let rebuilt = ClusteredIndex::build(&site, index.clustering.clone());
    for &u in users.iter().chain([&late]) {
        assert_eq!(
            index.query(&site, u, &keywords, 3),
            rebuilt.query(&site, u, &keywords, 3),
            "maintained and rebuilt diverge for {u}"
        );
    }
}
