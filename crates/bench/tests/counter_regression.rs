//! Fixed-seed counter regression: pins the `sorted_accesses` /
//! `exact_computations` totals of the canonical E8 workload (scale 200,
//! 20 probe users, the standard keywords, k ∈ {5, 20}) so a future change
//! to the query path cannot silently degrade pruning. The pinned values
//! are the current engine's — already below the seed implementation's
//! (286/252 and 315/280 exact-index; 513/444 and 558/477 clustered) —
//! so any regression past the seed, or any loss of the tightened-threshold
//! gains, fails loudly.
//!
//! The pins are also the proof that the clustered refinement-index
//! refactor (keyword-first `tag → item → taggers` exact-score
//! recomputation) changed only the *cost per exact computation*, never the
//! number of computations: the clustered counters here are byte-identical
//! to the pre-refactor values, i.e. they never exceed them.

use socialscope_bench::{site_at_scale, standard_keywords};
use socialscope_content::{
    BatchOptions, BatchScratchPool, ClusteredIndex, ClusteringStrategy, ExactIndex,
    NetworkBasedClustering, SiteModel,
};
use socialscope_exec::Exec;
use socialscope_graph::NodeId;

/// The pinned E8 counters of the canonical scale-200 workload (20 probe
/// users, standard keywords): `(engine, k, sorted_accesses,
/// exact_computations)`. Shared by the sequential pin and the 4-thread pin
/// — the execution layer must not move a single counter.
const PINNED_E8: [(&str, usize, usize, usize); 4] = [
    ("exact_index_ta", 5, 271, 237),
    ("clustered_index_ta", 5, 492, 423),
    ("exact_index_ta", 20, 315, 280),
    ("clustered_index_ta", 20, 558, 477),
];

/// Run the canonical E8 probe workload against a pair of indexes and
/// collect the counter rows in pin order.
fn observe_counters(
    model: &SiteModel,
    exact: &ExactIndex,
    clustered: &ClusteredIndex,
    users: &[NodeId],
    keywords: &[String],
) -> Vec<(&'static str, usize, usize, usize)> {
    let mut observed = Vec::new();
    for &k in &[5usize, 20] {
        let (mut sa, mut ec) = (0usize, 0usize);
        for &u in users {
            let r = exact.query(u, keywords, k);
            sa += r.sorted_accesses;
            ec += r.exact_computations;
        }
        observed.push(("exact_index_ta", k, sa, ec));
        let (mut sa, mut ec) = (0usize, 0usize);
        for &u in users {
            let r = clustered.query(model, u, keywords, k).result;
            sa += r.sorted_accesses;
            ec += r.exact_computations;
        }
        observed.push(("clustered_index_ta", k, sa, ec));
    }
    observed
}

#[test]
fn e8_counters_are_pinned_at_scale_200() {
    let site = site_at_scale(200);
    let model = SiteModel::from_graph(&site.graph);
    let keywords = standard_keywords();
    let exact = ExactIndex::build(&model);
    let clustered = ClusteredIndex::build(&model, NetworkBasedClustering.cluster(&model, 0.3));
    let users: Vec<_> = site.users.iter().copied().take(20).collect();

    let observed = observe_counters(&model, &exact, &clustered, &users, &keywords);
    assert_eq!(
        observed,
        PINNED_E8.to_vec(),
        "E8 counters moved; if pruning genuinely improved, update the pins \
         (and BENCH_topk.json) — never past the seed values in the module doc"
    );
}

/// The execution layer must be invisible in the counters: indexes *built
/// at 4 threads* serve the pinned E8 workload with byte-identical
/// `sorted_accesses` / `exact_computations`, and the 4-thread parallel
/// batch path reproduces the single-query results element-wise (counters
/// included) on a batch big enough to really fan out.
#[test]
fn e8_counters_are_unchanged_under_four_threads() {
    let site = site_at_scale(200);
    let model = SiteModel::from_graph(&site.graph);
    let keywords = standard_keywords();
    let exec = Exec::new(4).expect("positive thread count");
    let exact = ExactIndex::builder(&model).exec(&exec).build();
    let clustered = ClusteredIndex::builder(&model)
        .exec(&exec)
        .clustering(NetworkBasedClustering.cluster(&model, 0.3))
        .build();
    let users: Vec<_> = site.users.iter().copied().take(20).collect();

    let observed = observe_counters(&model, &exact, &clustered, &users, &keywords);
    assert_eq!(
        observed,
        PINNED_E8.to_vec(),
        "a 4-thread build changed the E8 counters; parallel builds must be \
         indistinguishable from sequential ones"
    );

    // The 4-thread batch path: cycle the probe users out to 256 seekers so
    // the batch crosses the fan-out floor, and require element-wise
    // identity with single queries.
    let batch: Vec<NodeId> = (0..256).map(|i| users[i % users.len()]).collect();
    let mut pool = BatchScratchPool::default();
    for &k in &[5usize, 20] {
        let served = exact.query_batch_opts(
            &batch,
            &keywords,
            k,
            BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
        );
        for (got, &u) in served.iter().zip(&batch) {
            assert_eq!(got, &exact.query(u, &keywords, k), "exact user {u} k {k}");
        }
        let served = clustered.query_batch_opts(
            &model,
            &batch,
            &keywords,
            k,
            BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
        );
        for (got, &u) in served.iter().zip(&batch) {
            assert_eq!(got, &clustered.query(&model, u, &keywords, k), "clustered user {u} k {k}");
        }
    }
}

/// At a realistic scale, the batch query paths must stay element-wise
/// identical to per-user loops — ranking, scores and cost counters — on a
/// batch that repeats users and contains ids the site never saw. The
/// property suite proves this on small random sites; this pins it on the
/// canonical generated workload where the counters actually prune.
#[test]
fn batch_queries_match_single_queries_at_scale_100() {
    let site = site_at_scale(100);
    let model = SiteModel::from_graph(&site.graph);
    let keywords = standard_keywords();
    let exact = ExactIndex::build(&model);
    let clustered = ClusteredIndex::build(&model, NetworkBasedClustering.cluster(&model, 0.3));

    // 48 seekers: the first 40 users cycled with repeats plus unknown ids.
    let mut batch: Vec<NodeId> = (0..44).map(|i| site.users[i % 40]).collect();
    batch.extend([NodeId(u64::MAX), NodeId(999_999), site.users[0], site.users[0]]);

    let mut pool = BatchScratchPool::default();
    for k in [1usize, 5, 20] {
        let results = exact.query_batch_opts(
            &batch,
            &keywords,
            k,
            BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
        );
        assert_eq!(results.len(), batch.len());
        for (got, &u) in results.iter().zip(&batch) {
            assert_eq!(got, &exact.query(u, &keywords, k), "exact user {u} k {k}");
        }
        let reports = clustered.query_batch_opts(
            &model,
            &batch,
            &keywords,
            k,
            BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
        );
        assert_eq!(reports.len(), batch.len());
        for (got, &u) in reports.iter().zip(&batch) {
            assert_eq!(got, &clustered.query(&model, u, &keywords, k), "clustered user {u} k {k}");
        }
    }

    // Unknown ids are unclustered seekers: the documented empty-with-flag
    // semantic must hold through the batch path at scale too.
    let reports = clustered.query_batch_opts(
        &model,
        &batch,
        &keywords,
        5,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    );
    for (got, &u) in reports.iter().zip(&batch) {
        assert_eq!(got.unclustered, !site.users.contains(&u));
        if got.unclustered {
            assert!(got.result.ranked.is_empty());
        }
    }

    // An all-stopword query tokenizes to an empty keyword set; both engines
    // must serve the defined empty result through the batch path, not skew
    // any counter.
    let empty = socialscope_workload::keywords_of("things to do");
    assert!(empty.is_empty());
    for res in exact.query_batch_opts(
        &batch,
        &empty,
        5,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    ) {
        assert!(res.ranked.is_empty());
        assert_eq!((res.sorted_accesses, res.exact_computations), (0, 0));
    }
    for (got, &u) in clustered
        .query_batch_opts(
            &model,
            &batch,
            &empty,
            5,
            BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
        )
        .iter()
        .zip(&batch)
    {
        assert_eq!(got, &clustered.query(&model, u, &empty, 5));
        assert!(got.result.ranked.is_empty());
    }
}
