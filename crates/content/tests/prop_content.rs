//! Property-based tests for the content-management layer: clustering
//! invariants, the admissibility of clustered top-k processing, and the
//! equivalence of the heap-based threshold top-k with both the exhaustive
//! oracle and the seed (sort-per-insert, loose-threshold) implementation.

use proptest::prelude::*;
use socialscope_content::tags::QueryTags;
use socialscope_content::topk::top_k_exhaustive;
use socialscope_content::{
    BatchOptions, BatchScratchPool, BehaviorBasedClustering, ClusteredIndex, ClusteringStrategy,
    ExactIndex, HybridClustering, Layout, NetworkBasedClustering, PostingList, SiteModel,
    TopKResult,
};
use socialscope_exec::Exec;
use socialscope_graph::{FxHashSet, GraphBuilder, NodeId, SocialGraph};
use std::collections::BTreeSet;

/// The thread counts every parallel-vs-sequential property sweeps: the
/// sequential identity case, the smallest real fan-out, and a deliberately
/// odd over-subscription (more workers than any test machine guarantees
/// cores, and a shard count that never divides the work evenly).
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// The seed implementation of threshold top-k, kept verbatim as the
/// reference the optimized engine must never exceed in accesses: sorted
/// access in round-robin, a re-sorted candidate buffer per insertion, and
/// the loose last-read-score threshold re-summed every round.
fn seed_top_k(
    lists: &[&PostingList],
    k: usize,
    mut exact: impl FnMut(NodeId) -> f64,
) -> (Vec<(NodeId, f64)>, usize, usize) {
    let (mut sorted_accesses, mut exact_computations) = (0usize, 0usize);
    if k == 0 || lists.is_empty() {
        return (Vec::new(), 0, 0);
    }
    let mut positions = vec![0usize; lists.len()];
    let mut frontier: Vec<f64> =
        lists.iter().map(|l| l.get(0).map(|p| p.score).unwrap_or(0.0)).collect();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    let mut best: Vec<(f64, NodeId)> = Vec::new();
    loop {
        let mut advanced = false;
        for (li, list) in lists.iter().enumerate() {
            let Some(post) = list.get(positions[li]) else {
                frontier[li] = 0.0;
                continue;
            };
            positions[li] += 1;
            sorted_accesses += 1;
            frontier[li] = post.score;
            advanced = true;
            if seen.insert(post.item) {
                let score = exact(post.item);
                exact_computations += 1;
                best.push((score, post.item));
                best.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
                if best.len() > k {
                    best.remove(0);
                }
            }
        }
        let threshold: f64 = frontier.iter().sum();
        if best.len() >= k && best[0].0 >= threshold {
            break;
        }
        if !advanced {
            break;
        }
    }
    best.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    (best.into_iter().map(|(s, i)| (i, s)).collect(), sorted_accesses, exact_computations)
}

/// Shared assertions for one evaluated query: the result's scores are
/// truthful, its positive part matches the exhaustive oracle, every item
/// strictly above the k-th best score is present, and the cost counters
/// never exceed the seed implementation's on the same lists.
fn assert_topk_equivalence(
    result: &TopKResult,
    oracle: &TopKResult,
    seed: &(Vec<(NodeId, f64)>, usize, usize),
    truth: impl Fn(NodeId) -> f64,
) {
    for &(item, score) in &result.ranked {
        prop_assert_eq!(score, truth(item), "untruthful score for {}", item);
    }
    let positive = |ranked: &[(NodeId, f64)]| -> Vec<f64> {
        ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect()
    };
    prop_assert_eq!(positive(&result.ranked), positive(&oracle.ranked), "score sequence");
    // Everything strictly above the boundary score must be found (ties at
    // the boundary may legitimately resolve to different item ids).
    let boundary = oracle.ranked.last().map(|(_, s)| *s).unwrap_or(0.0);
    let above = |ranked: &[(NodeId, f64)]| -> BTreeSet<NodeId> {
        ranked.iter().filter(|(_, s)| *s > boundary).map(|(i, _)| *i).collect()
    };
    prop_assert_eq!(above(&result.ranked), above(&oracle.ranked), "items above boundary");
    prop_assert!(
        result.sorted_accesses <= seed.1,
        "sorted accesses regressed: {} > seed {}",
        result.sorted_accesses,
        seed.1
    );
    prop_assert!(
        result.exact_computations <= seed.2,
        "exact computations regressed: {} > seed {}",
        result.exact_computations,
        seed.2
    );
    // The seed's own output obeys the same positive-part contract, so the
    // two engines agree wherever ties leave no latitude.
    prop_assert_eq!(positive(&seed.0), positive(&result.ranked), "seed vs heap scores");
}

const TAGS: [&str; 4] = ["baseball", "museum", "family", "hiking"];

/// Build a random tagging site from edge/tag descriptors.
fn build_site(
    users: usize,
    items: usize,
    friendships: &[(usize, usize)],
    tags: &[(usize, usize, usize)],
) -> (SocialGraph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let user_ids: Vec<NodeId> = (0..users).map(|i| b.add_user(&format!("u{i}"))).collect();
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
    (b.build(), user_ids)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every clustering strategy partitions all users: each user belongs to
    /// exactly one cluster, and the clusters cover everyone.
    #[test]
    fn clusterings_are_partitions((users, items, fr, tg) in arb_inputs(), theta in 0.0f64..1.0) {
        let (g, _) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        for strategy in [
            &NetworkBasedClustering as &dyn ClusteringStrategy,
            &BehaviorBasedClustering,
            &HybridClustering,
        ] {
            let clustering = strategy.cluster(&site, theta);
            prop_assert_eq!(clustering.user_count(), site.user_count());
            let mut seen = std::collections::BTreeSet::new();
            for (_, members) in clustering.iter() {
                for m in members {
                    prop_assert!(seen.insert(*m), "user {m} appears in two clusters");
                }
            }
            prop_assert_eq!(seen.len(), site.user_count());
        }
    }

    /// The exact index stores exactly the site model's scores.
    #[test]
    fn exact_index_agrees_with_site_model((users, items, fr, tg) in arb_inputs()) {
        let (g, _) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let index = ExactIndex::build(&site);
        for tag in site.tags() {
            for u in site.users() {
                if let Some(list) = index.list(tag, u) {
                    for p in list.iter() {
                        prop_assert_eq!(p.score, site.keyword_score(p.item, u, tag));
                        prop_assert!(p.score > 0.0);
                    }
                }
            }
        }
    }

    /// Clustered bounds dominate member scores, and the clustered index is
    /// never larger than the exact index.
    #[test]
    fn clustered_bounds_are_admissible(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
    ) {
        let (g, _) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, theta));
        prop_assert!(clustered.stats().entries <= exact.stats().entries);
        for tag in site.tags() {
            for (cluster, members) in clustered.clustering.iter() {
                if let Some(list) = clustered.list(tag, cluster) {
                    for p in list.iter() {
                        for &u in members {
                            prop_assert!(p.score + 1e-9 >= site.keyword_score(p.item, u, tag));
                        }
                    }
                }
            }
        }
    }

    /// Clustered top-k returns the same positive scores as the exhaustive
    /// oracle for every user and every single-keyword query: the upper
    /// bounds never cause a true top-k item to be missed.
    #[test]
    fn clustered_topk_never_misses(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 1usize..4,
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let clustered =
            ClusteredIndex::build(&site, BehaviorBasedClustering.cluster(&site, theta));
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string()];
        for &u in &user_ids {
            let report = clustered.query(&site, u, &keywords, k);
            let oracle = top_k_exhaustive(site.items(), k, |i| site.query_score(i, u, &keywords));
            let got: Vec<f64> = report
                .result
                .ranked
                .iter()
                .map(|(_, s)| *s)
                .filter(|s| *s > 0.0)
                .collect();
            let want: Vec<f64> = oracle
                .ranked
                .iter()
                .map(|(_, s)| *s)
                .filter(|s| *s > 0.0)
                .collect();
            prop_assert_eq!(got, want, "user {}", u);
        }
    }

    /// Heap-based top-k over *exact* lists: for every user and k, the full
    /// query path (interned lookups, hinted random access, merge fast
    /// path) returns the oracle's ranking with truthful scores, and its
    /// counters never exceed the seed implementation's on the same lists.
    #[test]
    fn heap_topk_matches_oracle_and_never_exceeds_seed_counters_exact(
        (users, items, fr, tg) in arb_inputs(),
        k in 1usize..6,
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let index = ExactIndex::build(&site);
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string(), TAGS[2].to_string()];
        for &u in &user_ids {
            let result = index.query(u, &keywords, k);
            let oracle = top_k_exhaustive(site.items(), k, |i| site.query_score(i, u, &keywords));
            let lists: Vec<&PostingList> =
                keywords.iter().filter_map(|kw| index.list(kw, u)).collect();
            let seed = seed_top_k(&lists, k, |item| {
                lists.iter().map(|l| l.score_of(item).unwrap_or(0.0)).sum()
            });
            assert_topk_equivalence(&result, &oracle, &seed, |i| {
                site.query_score(i, u, &keywords)
            });
        }
    }

    /// Heap-based top-k over *upper-bound* (clustered) lists: same oracle
    /// agreement and counter bounds, with exact scores recomputed from the
    /// site model as the clustered trade-off demands.
    #[test]
    fn heap_topk_matches_oracle_and_never_exceeds_seed_counters_bounds(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 1usize..6,
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let clustered =
            ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, theta));
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string()];
        for &u in &user_ids {
            let report = clustered.query(&site, u, &keywords, k);
            let oracle = top_k_exhaustive(site.items(), k, |i| site.query_score(i, u, &keywords));
            let cluster = clustered.clustering.cluster_of(u);
            let lists: Vec<&PostingList> = keywords
                .iter()
                .filter_map(|kw| cluster.and_then(|c| clustered.list(kw, c)))
                .collect();
            let seed = seed_top_k(&lists, k, |item| site.query_score(item, u, &keywords));
            assert_topk_equivalence(&report.result, &oracle, &seed, |i| {
                site.query_score(i, u, &keywords)
            });
        }
    }

    /// `query_batch` is element-wise identical — ranking, scores and cost
    /// counters — to a loop of single `query` calls, for both index
    /// engines, on batches that repeat users, shuffle order and include
    /// unknown ids, whether the scratch arena is fresh or reused.
    #[test]
    fn batch_queries_match_single_queries(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 0usize..6,
        picks in prop::collection::vec(0usize..10, 0..16),
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, theta));
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string(), TAGS[2].to_string()];
        // Map picks onto real users, with out-of-range picks becoming
        // unknown ids the index has never seen.
        let batch: Vec<NodeId> = picks
            .iter()
            .map(|&p| {
                if p < user_ids.len() { user_ids[p] } else { NodeId(10_000 + p as u64) }
            })
            .collect();
        let mut pool = BatchScratchPool::default();
        let fresh = exact.query_batch_opts(&batch, &keywords, k, BatchOptions::new());
        let reused = exact.query_batch_opts(
            &batch,
            &keywords,
            k,
            BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
        );
        prop_assert_eq!(fresh.len(), batch.len());
        for ((got, with), &u) in fresh.iter().zip(&reused).zip(&batch) {
            let single = exact.query(u, &keywords, k);
            prop_assert_eq!(got, &single, "exact batch diverged for user {}", u);
            prop_assert_eq!(with, &single, "exact reused-scratch batch diverged for user {}", u);
        }
        let fresh = clustered.query_batch_opts(&site, &batch, &keywords, k, BatchOptions::new());
        let reused = clustered.query_batch_opts(
            &site,
            &batch,
            &keywords,
            k,
            BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
        );
        prop_assert_eq!(fresh.len(), batch.len());
        for ((got, with), &u) in fresh.iter().zip(&reused).zip(&batch) {
            let single = clustered.query(&site, u, &keywords, k);
            prop_assert_eq!(got, &single, "clustered batch diverged for user {}", u);
            prop_assert_eq!(with, &single, "clustered reused-scratch batch diverged for user {}", u);
        }
    }

    /// Duplicating query keywords — in any mix of casings — changes
    /// nothing: a query is a keyword set, for the site model's scoring and
    /// for both index engines, single and batched.
    #[test]
    fn duplicate_keywords_do_not_change_scores(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 1usize..6,
        dup_pattern in prop::collection::vec(0usize..3, 1..8),
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, theta));
        let distinct = vec![TAGS[0].to_string(), TAGS[1].to_string(), TAGS[2].to_string()];
        // The duplicated query: the distinct keywords first (so resolution
        // order matches), then extra repeats in alternating casings.
        let mut dupped = distinct.clone();
        for (i, &d) in dup_pattern.iter().enumerate() {
            let word = &distinct[d];
            dupped.push(if i % 2 == 0 { word.to_uppercase() } else { word.clone() });
        }
        for &u in &user_ids {
            for item in site.items() {
                prop_assert_eq!(
                    site.query_score(item, u, &dupped),
                    site.query_score(item, u, &distinct)
                );
            }
            prop_assert_eq!(exact.query(u, &dupped, k), exact.query(u, &distinct, k));
            prop_assert_eq!(
                clustered.query(&site, u, &dupped, k),
                clustered.query(&site, u, &distinct, k)
            );
        }
        let batch: Vec<NodeId> = user_ids.clone();
        prop_assert_eq!(
            exact.query_batch_opts(&batch, &dupped, k, BatchOptions::new()),
            exact.query_batch_opts(&batch, &distinct, k, BatchOptions::new())
        );
        prop_assert_eq!(
            clustered.query_batch_opts(&site, &batch, &dupped, k, BatchOptions::new()),
            clustered.query_batch_opts(&site, &batch, &distinct, k, BatchOptions::new())
        );
    }

    /// The keyword-first refinement index agrees with the site model's
    /// oracle scoring for arbitrary sites, queries and casings: resolving
    /// a query's tags once and merge-intersecting the seeker's network
    /// against the pre-resolved tagger slices produces exactly
    /// `SiteModel::query_score` — duplicates, mixed casings and unknown
    /// keywords included — for every (item, user) pair.
    #[test]
    fn refinement_scores_match_the_site_model_oracle(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        picks in prop::collection::vec((0usize..6, 0usize..2), 0..8),
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let clustered = ClusteredIndex::build(&site, HybridClustering.cluster(&site, theta));
        // An arbitrary query: repeats allowed, arbitrary casing, and picks
        // past the tag vocabulary becoming unknown keywords.
        let keywords: Vec<String> = picks
            .iter()
            .map(|&(p, casing)| {
                let word = if p < TAGS.len() { TAGS[p] } else { "unknownword" };
                if casing == 1 { word.to_uppercase() } else { word.to_string() }
            })
            .collect();
        let tag_ids = QueryTags::resolve(clustered.tags(), &keywords);
        let resolved = clustered.refinement().resolve(tag_ids.as_slice());
        for &u in &user_ids {
            let network = site.network_of(u);
            for item in site.items() {
                prop_assert_eq!(
                    resolved.score(network, item),
                    site.query_score(item, u, &keywords),
                    "item {} user {}", item, u
                );
            }
        }
    }

    /// Parallel index builds are indistinguishable from sequential ones:
    /// for every thread count, both indexes report identical stats, every
    /// stored list is identical, and a full query sweep (every user, both
    /// engines) returns byte-identical rankings *and* cost counters.
    #[test]
    fn parallel_builds_match_sequential_builds(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 1usize..6,
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let sequential = Exec::sequential();
        let exact_seq = ExactIndex::builder(&site).exec(&sequential).build();
        let clustering = NetworkBasedClustering.cluster(&site, theta);
        let clustered_seq = ClusteredIndex::builder(&site).exec(&sequential).clustering(clustering.clone()).build();
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string(), TAGS[2].to_string()];
        for threads in THREAD_COUNTS {
            let exec = Exec::new(threads).unwrap();
            let exact = ExactIndex::builder(&site).exec(&exec).build();
            prop_assert_eq!(exact.stats(), exact_seq.stats(), "threads {}", threads);
            let clustered = ClusteredIndex::builder(&site).exec(&exec).clustering(clustering.clone()).build();
            prop_assert_eq!(clustered.stats(), clustered_seq.stats(), "threads {}", threads);
            prop_assert_eq!(
                clustered.stats_with_refinement(),
                clustered_seq.stats_with_refinement(),
                "threads {}", threads
            );
            for tag in site.tags() {
                for u in site.users() {
                    prop_assert_eq!(
                        exact.list(tag, u), exact_seq.list(tag, u),
                        "list {} / {} at {} threads", tag, u, threads
                    );
                }
                for (cluster, _) in clustered.clustering.iter() {
                    prop_assert_eq!(
                        clustered.list(tag, cluster), clustered_seq.list(tag, cluster),
                        "bound list {} / {:?} at {} threads", tag, cluster, threads
                    );
                }
            }
            for &u in &user_ids {
                prop_assert_eq!(
                    exact.query(u, &keywords, k),
                    exact_seq.query(u, &keywords, k),
                    "exact sweep, user {} at {} threads", u, threads
                );
                prop_assert_eq!(
                    clustered.query(&site, u, &keywords, k),
                    clustered_seq.query(&site, u, &keywords, k),
                    "clustered sweep, user {} at {} threads", u, threads
                );
            }
        }
    }

    /// The parallel batch paths are element-wise identical to the
    /// sequential batch path *and* to a loop of single `query` calls, for
    /// every thread count, on batches big enough to actually fan out
    /// (members cycle so the batch crosses the sharding floor), with
    /// repeats, shuffled order and unknown ids — whether the worker pool
    /// is fresh or reused across thread counts and engines.
    #[test]
    fn parallel_batches_match_sequential_and_single_queries(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 0usize..6,
        picks in prop::collection::vec(0usize..10, 1..12),
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let exact = ExactIndex::build(&site);
        let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, theta));
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string(), TAGS[2].to_string()];
        // Cycle the picked members out to 300 seekers so multi-worker pools
        // really shard (the fan-out floor is 64 members per worker).
        let batch: Vec<NodeId> = (0..300)
            .map(|i| {
                let p = picks[i % picks.len()] + i / picks.len();
                if p < user_ids.len() { user_ids[p % user_ids.len()] } else { NodeId(10_000 + p as u64) }
            })
            .collect();
        let mut pool = BatchScratchPool::default();
        let exact_seq = exact.query_batch_opts(&batch, &keywords, k, BatchOptions::new());
        let clustered_seq =
            clustered.query_batch_opts(&site, &batch, &keywords, k, BatchOptions::new());
        for ((got, report), &u) in exact_seq.iter().zip(&clustered_seq).zip(&batch) {
            prop_assert_eq!(got, &exact.query(u, &keywords, k), "exact single, user {}", u);
            prop_assert_eq!(
                report, &clustered.query(&site, u, &keywords, k),
                "clustered single, user {}", u
            );
        }
        for threads in THREAD_COUNTS {
            let exec = Exec::new(threads).unwrap();
            let par = exact.query_batch_opts(
                &batch, &keywords, k, BatchOptions::new().exec(&exec),
            );
            let par_pooled = exact.query_batch_opts(
                &batch, &keywords, k, BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
            );
            prop_assert_eq!(&par, &exact_seq, "exact at {} threads", threads);
            prop_assert_eq!(&par_pooled, &exact_seq, "exact (pool) at {} threads", threads);
            let par = clustered.query_batch_opts(
                &site, &batch, &keywords, k, BatchOptions::new().exec(&exec),
            );
            let par_pooled = clustered.query_batch_opts(
                &site, &batch, &keywords, k,
                BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
            );
            prop_assert_eq!(&par, &clustered_seq, "clustered at {} threads", threads);
            prop_assert_eq!(
                &par_pooled, &clustered_seq,
                "clustered (pool) at {} threads", threads
            );
        }
    }

    /// **Varint layout round trip.** For arbitrary posting entries —
    /// duplicate items, fractional / negative / huge scores, empty lists —
    /// flipping a list to [`Layout::Compressed`] preserves every
    /// observation (scan order, positional `get`, random-access
    /// `score_of`, length) bit-exactly, and flipping back to
    /// [`Layout::Raw`] restores a list equal to the original.
    #[test]
    fn posting_list_layout_round_trips(
        raw_entries in prop::collection::vec((0u64..500, 0u64..100, 0usize..4), 0..120),
    ) {
        // Score shapes sweep the codec's branches: small integral counts
        // (the one-byte fast path), fractional, negative, and huge values
        // (the tagged raw-f64 fallback).
        let entries: Vec<(u64, f64)> = raw_entries
            .iter()
            .map(|&(item, base, kind)| {
                let score = match kind {
                    0 => base as f64,
                    1 => base as f64 + 0.5,
                    2 => -(base as f64),
                    _ => base as f64 * 1e18,
                };
                (item, score)
            })
            .collect();
        let raw = PostingList::from_entries(entries.iter().map(|&(i, s)| (NodeId(i), s)));
        let mut packed = raw.clone();
        packed.set_layout(Layout::Compressed);
        prop_assert_eq!(packed.len(), raw.len());
        let raw_scan: Vec<_> = raw.iter().collect();
        let packed_scan: Vec<_> = packed.iter().collect();
        prop_assert_eq!(&packed_scan, &raw_scan, "sorted-access stream diverged");
        for (posting, score) in raw_scan.iter().zip(packed_scan.iter().map(|p| p.score)) {
            prop_assert_eq!(posting.score.to_bits(), score.to_bits(), "score lost bits");
        }
        for pos in 0..raw.len() {
            prop_assert_eq!(packed.get(pos), raw.get(pos), "positional access at {}", pos);
        }
        for probe in (0u64..500).step_by(7).chain(entries.iter().map(|&(i, _)| i)) {
            prop_assert_eq!(
                packed.score_of(NodeId(probe)),
                raw.score_of(NodeId(probe)),
                "score_of({})", probe
            );
        }
        packed.set_layout(Layout::Raw);
        prop_assert_eq!(&packed, &raw, "round trip back to raw diverged");
    }

    /// **Compressed ≡ raw, full sweep.** Raw- and compressed-layout builds
    /// of both engines answer every query identically — every user, single
    /// and batched, at 1 and 4 threads — and report the same logical stats
    /// while the compressed build claims no more heap.
    #[test]
    fn compressed_indexes_answer_identically_across_threads(
        (users, items, fr, tg) in arb_inputs(),
        theta in 0.1f64..0.9,
        k in 1usize..6,
    ) {
        let (g, user_ids) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let clustering = NetworkBasedClustering.cluster(&site, theta);
        let raw_exact = ExactIndex::builder(&site).layout(Layout::Raw).build();
        let raw_clustered = ClusteredIndex::builder(&site)
            .clustering(clustering.clone())
            .layout(Layout::Raw)
            .build();
        let packed_exact = ExactIndex::builder(&site).layout(Layout::Compressed).build();
        let packed_clustered = ClusteredIndex::builder(&site)
            .clustering(clustering)
            .layout(Layout::Compressed)
            .build();
        prop_assert_eq!(packed_exact.layout(), Layout::Compressed);
        prop_assert_eq!(packed_clustered.layout(), Layout::Compressed);
        prop_assert_eq!(packed_exact.stats().entries, raw_exact.stats().entries);
        prop_assert!(
            packed_exact.memory_profile().total() <= raw_exact.memory_profile().total(),
            "compressed exact grew: {} > {}",
            packed_exact.memory_profile().total(),
            raw_exact.memory_profile().total()
        );
        let keywords = vec![TAGS[0].to_string(), TAGS[1].to_string(), TAGS[2].to_string()];
        for &u in &user_ids {
            prop_assert_eq!(
                packed_exact.query(u, &keywords, k),
                raw_exact.query(u, &keywords, k),
                "exact single diverged for user {}", u
            );
            prop_assert_eq!(
                packed_clustered.query(&site, u, &keywords, k),
                raw_clustered.query(&site, u, &keywords, k),
                "clustered single diverged for user {}", u
            );
        }
        for threads in [1usize, 4] {
            let exec = Exec::new(threads).unwrap();
            prop_assert_eq!(
                packed_exact.query_batch_opts(
                    &user_ids, &keywords, k, BatchOptions::new().exec(&exec),
                ),
                raw_exact.query_batch_opts(
                    &user_ids, &keywords, k, BatchOptions::new().exec(&exec),
                ),
                "exact batch diverged at {} threads", threads
            );
            prop_assert_eq!(
                packed_clustered.query_batch_opts(
                    &site, &user_ids, &keywords, k, BatchOptions::new().exec(&exec),
                ),
                raw_clustered.query_batch_opts(
                    &site, &user_ids, &keywords, k, BatchOptions::new().exec(&exec),
                ),
                "clustered batch diverged at {} threads", threads
            );
        }
    }

    /// Tightening θ can only increase (or keep) the number of clusters.
    #[test]
    fn theta_monotonicity((users, items, fr, tg) in arb_inputs()) {
        let (g, _) = build_site(users, items, &fr, &tg);
        let site = SiteModel::from_graph(&g);
        let loose = NetworkBasedClustering.cluster(&site, 0.1);
        let strict = NetworkBasedClustering.cluster(&site, 0.9);
        prop_assert!(loose.cluster_count() <= strict.cluster_count());
    }
}
