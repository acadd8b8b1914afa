//! Network-aware keyword search as a recommendation path (paper §6.2).
//!
//! The discoverer's relevance scoring walks the graph per query; for
//! keyword-only workloads the content layer's inverted indexes answer the
//! same "what did my network tag with these keywords?" question in
//! microseconds. [`NetworkAwareSearch`] materializes the [`SiteModel`] and
//! the exact per-`(tag, user)` index once and serves threshold-style top-k
//! recommendations from it — query keywords are resolved through the
//! index's tag interner, so the hot path neither clones nor lowercases
//! strings. [`ClusteredNetworkAwareSearch`] is the space-constrained
//! sibling: it serves the same recommendations from the clustered
//! upper-bound index (orders of magnitude smaller), with exact scores
//! recomputed through the index's embedded keyword-first refinement index
//! — so the discovery layer picks up the string-hashing-free refinement
//! path without any code of its own.

use super::Recommendation;
use socialscope_content::{
    ApplyReport, BatchOptions, ClusteredIndex, ClusteredQueryReport, ClusteringStrategy,
    ExactIndex, MemoryProfile, NetworkBasedClustering, Result as ContentResult, SiteModel,
    TagEvent, TopKResult,
};
use socialscope_exec::Exec;
use socialscope_graph::{NodeId, SocialGraph};

/// A reusable network-aware keyword search engine: site model plus exact
/// inverted index, built once per graph snapshot.
#[derive(Debug, Clone, Default)]
pub struct NetworkAwareSearch {
    site: SiteModel,
    index: ExactIndex,
}

impl NetworkAwareSearch {
    /// Materialize the site primitives and the exact index from a graph
    /// (threads from [`Exec::auto`]).
    pub fn build(graph: &SocialGraph) -> Self {
        Self::build_with(&Exec::auto(), graph)
    }

    /// [`Self::build`] on a caller-chosen [`Exec`]: the index build shards
    /// across the pool's workers and is identical to a sequential build.
    pub fn build_with(exec: &Exec, graph: &SocialGraph) -> Self {
        let site = SiteModel::from_graph(graph);
        let index = ExactIndex::builder(&site).exec(exec).build();
        NetworkAwareSearch { site, index }
    }

    /// The underlying site model.
    pub fn site(&self) -> &SiteModel {
        &self.site
    }

    /// The underlying exact index.
    pub fn index(&self) -> &ExactIndex {
        &self.index
    }

    /// Raw top-k evaluation with cost counters, for callers that want the
    /// pruning telemetry alongside the ranking.
    pub fn query(&self, user: NodeId, keywords: &[String], k: usize) -> TopKResult {
        self.index.query(user, keywords, k)
    }

    /// Top-k items the user's network tagged with the query keywords, as
    /// recommendations (positive scores only).
    pub fn recommend(&self, user: NodeId, keywords: &[String], k: usize) -> Vec<Recommendation> {
        Self::to_recommendations(self.query(user, keywords, k))
    }

    /// Apply a batch of tagging events to the live engine on `exec`: the
    /// site model takes the batch and the exact index patches itself to
    /// exactly the state a from-scratch rebuild over the updated site
    /// would produce — every subsequent query (single or batch) answers
    /// from the fresh state.
    ///
    /// The whole engine apply is transactional. Plan, then commit: the
    /// site plans the batch as a delta ([`SiteModel::plan_apply`]), the
    /// index plans against the site as the delta will leave it, and only
    /// when both plans stand do the index and then the site commit in
    /// place — nothing is cloned, and the commits cannot fail. On any
    /// error — capacity exhaustion, or an injected fault under the
    /// `failpoints` test feature — *both* the site model and the index are
    /// left byte-identical to their pre-apply state; no query can ever see
    /// a site/index tear.
    pub fn try_apply_with(
        &mut self,
        exec: &Exec,
        events: &[TagEvent],
    ) -> ContentResult<ApplyReport> {
        let delta = self.site.plan_apply(events)?;
        let plan = self.index.plan_apply(exec, &self.site.view_with(&delta), events)?;
        let report = self.index.commit_apply(plan);
        self.site.commit_apply(delta);
        Ok(report)
    }

    /// Raw top-k for a batch of seekers sharing one keyword set: keywords
    /// resolve through the index's interner once, evaluation state is
    /// reused across the batch, and users are visited in index-layout
    /// order. Results arrive in input order, each identical to the
    /// corresponding [`Self::query`] call; [`BatchOptions`] chooses
    /// threads and scratch reuse.
    pub fn query_batch_opts(
        &self,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<TopKResult> {
        self.index.query_batch_opts(users, keywords, k, opts)
    }

    /// Batched [`Self::recommend`]: one recommendation list per seeker, in
    /// input order, served under the given [`BatchOptions`].
    pub fn recommend_batch_opts(
        &self,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<Recommendation>> {
        self.query_batch_opts(users, keywords, k, opts)
            .into_iter()
            .map(Self::to_recommendations)
            .collect()
    }

    fn to_recommendations(result: TopKResult) -> Vec<Recommendation> {
        result
            .ranked
            .into_iter()
            .filter(|(_, score)| *score > 0.0)
            .map(|(item, score)| Recommendation { item, score, strategy: "network-aware" })
            .collect()
    }
}

/// Network-aware keyword search served from the *clustered* upper-bound
/// index: the space-constrained deployment of §6.2. Rankings and scores
/// are identical to [`NetworkAwareSearch`]'s (clustered bounds never miss
/// a true top-k item); the trade is index space against per-candidate
/// exact-score refinement, which runs through the clustered index's
/// keyword-first refinement index — no tag-string hashing, no
/// per-candidate allocation.
#[derive(Debug, Clone, Default)]
pub struct ClusteredNetworkAwareSearch {
    site: SiteModel,
    index: ClusteredIndex,
    /// Opt-in exact index answering flagged (unclustered) seekers; `None`
    /// keeps the default empty-with-flag semantic.
    fallback: Option<ExactIndex>,
}

impl ClusteredNetworkAwareSearch {
    /// Materialize the site primitives, cluster the users with the given
    /// strategy at threshold θ, and build the clustered index (threads from
    /// [`Exec::auto`]).
    pub fn build(graph: &SocialGraph, strategy: &dyn ClusteringStrategy, theta: f64) -> Self {
        Self::build_with(&Exec::auto(), graph, strategy, theta)
    }

    /// [`Self::build`] on a caller-chosen [`Exec`]: the index build shards
    /// across the pool's workers and is identical to a sequential build.
    pub fn build_with(
        exec: &Exec,
        graph: &SocialGraph,
        strategy: &dyn ClusteringStrategy,
        theta: f64,
    ) -> Self {
        let site = SiteModel::from_graph(graph);
        let index = ClusteredIndex::builder(&site)
            .exec(exec)
            .clustering(strategy.cluster(&site, theta))
            .build();
        ClusteredNetworkAwareSearch { site, index, fallback: None }
    }

    /// [`Self::build`] with the paper's default network-based clustering
    /// (Def. 11) at θ = 0.3.
    pub fn build_default(graph: &SocialGraph) -> Self {
        Self::build(graph, &NetworkBasedClustering, 0.3)
    }

    /// Assemble an engine from an already-materialized site model and
    /// clustered index — the deployment shape where clustering and index
    /// builds happen offline, so the index's clustering may be *stale*
    /// relative to the site (late-joining users come back flagged
    /// `unclustered`; pair with [`Self::with_fallback`] to answer them).
    /// `index` must have been built from `site`.
    pub fn from_parts(site: SiteModel, index: ClusteredIndex) -> Self {
        ClusteredNetworkAwareSearch { site, index, fallback: None }
    }

    /// Opt into answering flagged (unclustered) seekers from an exact
    /// index instead of the default empty-with-flag semantic: a production
    /// deployment that can afford the exact index's space next to the
    /// clustered one gets real answers for late-joining users until the
    /// next recluster. `fallback` must be built from the same site this
    /// engine serves ([`ExactIndex::build`] over [`Self::site`]).
    /// Fallback-served reports keep
    /// [`ClusteredQueryReport::unclustered`] set — the flag reports
    /// clustering state, and callers still want to know a recluster is due
    /// — while `result` carries the exact index's answer, identically in
    /// the single and batch paths.
    pub fn with_fallback(mut self, fallback: ExactIndex) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// [`Self::with_fallback`] building the exact index from this engine's
    /// own site model (threads from [`Exec::auto`]).
    pub fn with_exact_fallback(self) -> Self {
        let fallback = ExactIndex::build(&self.site);
        self.with_fallback(fallback)
    }

    /// The underlying site model.
    pub fn site(&self) -> &SiteModel {
        &self.site
    }

    /// The underlying clustered index.
    pub fn index(&self) -> &ClusteredIndex {
        &self.index
    }

    /// The opt-in exact fallback index, if configured.
    pub fn fallback(&self) -> Option<&ExactIndex> {
        self.fallback.as_ref()
    }

    /// The engine's measured heap footprint: the clustered index's profile
    /// plus — when configured — the exact fallback's, summed component by
    /// component. This is what the server's `/stats` memory block reports.
    pub fn memory_profile(&self) -> MemoryProfile {
        let index = self.index.memory_profile();
        let fallback = self.fallback.as_ref().map(|f| f.memory_profile()).unwrap_or_default();
        MemoryProfile {
            postings_bytes: index.postings_bytes + fallback.postings_bytes,
            pool_bytes: index.pool_bytes + fallback.pool_bytes,
            refinement_bytes: index.refinement_bytes + fallback.refinement_bytes,
            tables_bytes: index.tables_bytes + fallback.tables_bytes,
        }
    }

    /// Raw clustered top-k evaluation with cost counters and the
    /// unclustered flag (empty-with-flag semantic for users the clustering
    /// never saw — unless a [`Self::with_fallback`] index answers them).
    pub fn query(&self, user: NodeId, keywords: &[String], k: usize) -> ClusteredQueryReport {
        let mut report = self.index.query(&self.site, user, keywords, k);
        if report.unclustered {
            if let Some(exact) = &self.fallback {
                report.result = exact.query(user, keywords, k);
            }
        }
        report
    }

    /// Top-k items the user's network tagged with the query keywords, as
    /// recommendations (positive scores only).
    pub fn recommend(&self, user: NodeId, keywords: &[String], k: usize) -> Vec<Recommendation> {
        Self::to_recommendations(self.query(user, keywords, k))
    }

    /// Apply a batch of tagging events to the live engine on `exec`: the
    /// site model takes the batch, and the clustered index patches its
    /// bound lists and refinement groups in place — reclustering
    /// late-joining taggers onto their nearest existing cluster as it
    /// goes, so their next query answers from real bounds instead of the
    /// empty-with-flag semantic — and a configured [`Self::with_fallback`]
    /// exact index is kept in lockstep. The returned report is the
    /// clustered index's.
    ///
    /// The whole engine apply is transactional. Plan, then commit: the
    /// site plans the batch as a delta ([`SiteModel::plan_apply`]), the
    /// fallback and the clustered index plan against the site as the delta
    /// will leave it, and only when all three plans stand do the fallback,
    /// the index and last the site commit in place — nothing is cloned,
    /// and the commits cannot fail. On any error — capacity exhaustion, or
    /// an injected fault under the `failpoints` test feature — the site
    /// model, the clustered index *and* the fallback exact index are all
    /// left byte-identical to their pre-apply state; no query can ever see
    /// a site/index/fallback tear.
    pub fn try_apply_with(
        &mut self,
        exec: &Exec,
        events: &[TagEvent],
    ) -> ContentResult<ApplyReport> {
        let delta = self.site.plan_apply(events)?;
        let site = self.site.view_with(&delta);
        let fallback = self
            .fallback
            .as_ref()
            .map(|exact| exact.plan_apply(exec, &site, events))
            .transpose()?;
        let plan = self.index.plan_apply(exec, &site, events)?;
        if let (Some(exact), Some(plan)) = (self.fallback.as_mut(), fallback) {
            exact.commit_apply(plan);
        }
        let report = self.index.commit_apply(plan);
        self.site.commit_apply(delta);
        Ok(report)
    }

    /// Raw clustered top-k for a batch of seekers sharing one keyword set;
    /// results arrive in input order, each identical to the corresponding
    /// [`Self::query`] call (fallback-served unclustered members
    /// included). [`BatchOptions`] chooses threads and scratch reuse; the
    /// fallback sub-batch runs under the *same* options — same `Exec`,
    /// same pool — so a sequential `Exec` never spawns threads and a
    /// pinned pool is reused, not reallocated.
    pub fn query_batch_opts(
        &self,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        mut opts: BatchOptions<'_>,
    ) -> Vec<ClusteredQueryReport> {
        let mut reports =
            self.index.query_batch_opts(&self.site, users, keywords, k, opts.reborrow());
        self.apply_fallback(&mut reports, users, |exact, seekers| {
            exact.query_batch_opts(seekers, keywords, k, opts)
        });
        reports
    }

    /// Re-answer every flagged (unclustered) report from the fallback
    /// exact index, when one is configured. `serve` runs the flagged
    /// sub-batch through the exact engine on the *caller's* execution
    /// choice — same `Exec`, same pool as the surrounding call, so a
    /// sequential `Exec` never spawns threads and a pinned pool is reused,
    /// not reallocated. The exact batch paths' element-wise
    /// identity to single queries keeps this wrapper's single/batch
    /// identity intact.
    fn apply_fallback(
        &self,
        reports: &mut [ClusteredQueryReport],
        users: &[NodeId],
        serve: impl FnOnce(&ExactIndex, &[NodeId]) -> Vec<TopKResult>,
    ) {
        let Some(exact) = &self.fallback else {
            return;
        };
        let flagged: Vec<usize> = reports
            .iter()
            .enumerate()
            .filter(|(_, report)| report.unclustered)
            .map(|(position, _)| position)
            .collect();
        if flagged.is_empty() {
            return;
        }
        let seekers: Vec<NodeId> = flagged.iter().map(|&position| users[position]).collect();
        let answers = serve(exact, &seekers);
        for (position, answer) in flagged.into_iter().zip(answers) {
            reports[position].result = answer;
        }
    }

    /// Batched [`Self::recommend`]: one recommendation list per seeker, in
    /// input order, served under the given [`BatchOptions`].
    pub fn recommend_batch_opts(
        &self,
        users: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<Recommendation>> {
        self.query_batch_opts(users, keywords, k, opts)
            .into_iter()
            .map(Self::to_recommendations)
            .collect()
    }

    fn to_recommendations(report: ClusteredQueryReport) -> Vec<Recommendation> {
        report
            .result
            .ranked
            .into_iter()
            .filter(|(_, score)| *score > 0.0)
            .map(|(item, score)| Recommendation {
                item,
                score,
                strategy: "network-aware-clustered",
            })
            .collect()
    }
}

impl super::BatchRecommender for NetworkAwareSearch {
    fn recommend_batch_opts(
        &self,
        seekers: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<Recommendation>> {
        NetworkAwareSearch::recommend_batch_opts(self, seekers, keywords, k, opts)
    }
}

impl super::BatchRecommender for ClusteredNetworkAwareSearch {
    fn recommend_batch_opts(
        &self,
        seekers: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<Recommendation>> {
        ClusteredNetworkAwareSearch::recommend_batch_opts(self, seekers, keywords, k, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_content::topk::top_k_exhaustive;
    use socialscope_content::BatchScratchPool;
    use socialscope_graph::GraphBuilder;

    /// Two friends tag different items; a stranger tags a third.
    fn site() -> (SocialGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let users: Vec<NodeId> = (0..4).map(|i| b.add_user(&format!("u{i}"))).collect();
        let items: Vec<NodeId> =
            (0..3).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        b.befriend(users[0], users[1]);
        b.befriend(users[0], users[2]);
        b.tag(users[1], items[0], &["baseball"]);
        b.tag(users[2], items[0], &["baseball"]);
        b.tag(users[1], items[1], &["museum"]);
        b.tag(users[3], items[2], &["baseball", "museum"]);
        (b.build(), users, items)
    }

    #[test]
    fn recommendations_come_from_the_network_not_strangers() {
        let (graph, users, items) = site();
        let search = NetworkAwareSearch::build(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        let recs = search.recommend(users[0], &keywords, 3);
        // Both friends tagged i0 with baseball (score 2), one friend tagged
        // i1 with museum (score 1); the stranger's i2 never appears.
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].item, items[0]);
        assert_eq!(recs[0].score, 2.0);
        assert_eq!(recs[1].item, items[1]);
        assert!(recs.iter().all(|r| r.strategy == "network-aware"));
        assert!(recs.iter().all(|r| r.item != items[2]));
    }

    #[test]
    fn ranking_matches_the_exhaustive_oracle() {
        let (graph, users, _) = site();
        let search = NetworkAwareSearch::build(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        for &u in &users {
            let res = search.query(u, &keywords, 3);
            let oracle = top_k_exhaustive(search.site().items(), 3, |i| {
                search.site().query_score(i, u, &keywords)
            });
            let got: Vec<f64> = res.ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect();
            let want: Vec<f64> =
                oracle.ranked.iter().map(|(_, s)| *s).filter(|s| *s > 0.0).collect();
            assert_eq!(got, want, "user {u}");
        }
    }

    #[test]
    fn users_without_network_get_no_recommendations() {
        let (graph, users, _) = site();
        let search = NetworkAwareSearch::build(&graph);
        let recs = search.recommend(users[3], &["baseball".to_string()], 3);
        assert!(recs.is_empty());
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let (graph, users, _) = site();
        let search = NetworkAwareSearch::build(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        // A batch with repeats and an unknown user, in arbitrary order.
        let batch = vec![users[2], users[0], NodeId(9999), users[0], users[3], users[1]];
        let mut pool = BatchScratchPool::default();
        for k in [0usize, 1, 3] {
            let results = search.query_batch_opts(&batch, &keywords, k, BatchOptions::new());
            let reused = search.query_batch_opts(
                &batch,
                &keywords,
                k,
                BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
            );
            assert_eq!(results.len(), batch.len());
            for ((res, with), &u) in results.iter().zip(&reused).zip(&batch) {
                let single = search.query(u, &keywords, k);
                assert_eq!(res, &single, "user {u} k {k}");
                assert_eq!(with, &single, "user {u} k {k} (reused scratch)");
            }
        }
    }

    #[test]
    fn clustered_search_agrees_with_exact_search() {
        let (graph, users, _) = site();
        let exact = NetworkAwareSearch::build(&graph);
        let clustered = ClusteredNetworkAwareSearch::build_default(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        for &u in &users {
            let from_exact = exact.recommend(u, &keywords, 3);
            let from_clustered = clustered.recommend(u, &keywords, 3);
            let pairs = |recs: &[Recommendation]| -> Vec<(NodeId, f64)> {
                recs.iter().map(|r| (r.item, r.score)).collect()
            };
            assert_eq!(pairs(&from_exact), pairs(&from_clustered), "user {u}");
            assert!(from_clustered.iter().all(|r| r.strategy == "network-aware-clustered"));
            assert!(!clustered.query(u, &keywords, 3).unclustered);
        }
        // A user the site never saw is unclustered: empty-with-flag.
        let ghost = clustered.query(NodeId(9999), &keywords, 3);
        assert!(ghost.unclustered);
        assert!(ghost.result.ranked.is_empty());
    }

    #[test]
    fn clustered_batch_queries_match_single_queries() {
        let (graph, users, _) = site();
        let search = ClusteredNetworkAwareSearch::build_default(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        let batch = vec![users[2], NodeId(9999), users[0], users[0], users[3]];
        let mut pool = BatchScratchPool::default();
        for k in [0usize, 1, 3] {
            let results = search.query_batch_opts(&batch, &keywords, k, BatchOptions::new());
            let reused = search.query_batch_opts(
                &batch,
                &keywords,
                k,
                BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
            );
            assert_eq!(results.len(), batch.len());
            for ((got, with), &u) in results.iter().zip(&reused).zip(&batch) {
                let single = search.query(u, &keywords, k);
                assert_eq!(got, &single, "user {u} k {k}");
                assert_eq!(with, &single, "user {u} k {k} (reused scratch)");
            }
        }
        let recs = search.recommend_batch_opts(&batch, &keywords, 3, BatchOptions::new());
        for (rec, &u) in recs.iter().zip(&batch) {
            assert_eq!(rec, &search.recommend(u, &keywords, 3));
        }
    }

    /// A site whose clustering predates a late-joining user: the late
    /// joiner befriends u1 and tags an item, but the clustering (and the
    /// clustered index's bound lists) never saw them.
    fn stale_clustered_engine() -> (ClusteredNetworkAwareSearch, Vec<NodeId>, NodeId) {
        use socialscope_content::{ClusteredIndex, NetworkBasedClustering};
        let (graph, users, _items) = site();
        let before = SiteModel::from_graph(&graph);
        let clustering = NetworkBasedClustering.cluster(&before, 0.3);
        // Rebuild the same graph with one extra, late-joining user.
        let mut b = GraphBuilder::new();
        let rebuilt: Vec<NodeId> = (0..4).map(|i| b.add_user(&format!("u{i}"))).collect();
        let rebuilt_items: Vec<NodeId> =
            (0..3).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        b.befriend(rebuilt[0], rebuilt[1]);
        b.befriend(rebuilt[0], rebuilt[2]);
        b.tag(rebuilt[1], rebuilt_items[0], &["baseball"]);
        b.tag(rebuilt[2], rebuilt_items[0], &["baseball"]);
        b.tag(rebuilt[1], rebuilt_items[1], &["museum"]);
        b.tag(rebuilt[3], rebuilt_items[2], &["baseball", "museum"]);
        let late = b.add_user("late-joiner");
        b.befriend(late, rebuilt[1]);
        b.tag(late, rebuilt_items[0], &["baseball"]);
        assert_eq!(rebuilt, users, "rebuilt ids must match the clustering's");
        let site = SiteModel::from_graph(&b.build());
        assert!(clustering.cluster_of(late).is_none());
        let index = ClusteredIndex::build(&site, clustering);
        (ClusteredNetworkAwareSearch::from_parts(site, index), rebuilt, late)
    }

    #[test]
    fn fallback_answers_unclustered_seekers_from_the_exact_index() {
        let (engine, users, late) = stale_clustered_engine();
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        // Without a fallback: the documented empty-with-flag semantic.
        let report = engine.query(late, &keywords, 3);
        assert!(report.unclustered);
        assert!(report.result.ranked.is_empty());

        let exact = socialscope_content::ExactIndex::build(engine.site());
        let want = exact.query(late, &keywords, 3);
        assert!(!want.ranked.is_empty(), "the late joiner's network has matches");
        let engine = engine.with_fallback(exact);
        assert!(engine.fallback().is_some());

        // With the fallback: same flag, real answer, in the single path…
        let report = engine.query(late, &keywords, 3);
        assert!(report.unclustered, "the flag keeps reporting clustering state");
        assert_eq!(report.result, want);
        // …and element-wise identically in every batch path.
        let batch = vec![late, users[0], late, users[3], NodeId(9999)];
        let mut seq_pool = BatchScratchPool::default();
        let mut pool = BatchScratchPool::default();
        for k in [0usize, 1, 3] {
            let plain = engine.query_batch_opts(&batch, &keywords, k, BatchOptions::new());
            let with = engine.query_batch_opts(
                &batch,
                &keywords,
                k,
                BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut seq_pool),
            );
            for threads in [1usize, 2, 7] {
                let exec = Exec::new(threads).unwrap();
                let par =
                    engine.query_batch_opts(&batch, &keywords, k, BatchOptions::new().exec(&exec));
                let par_with = engine.query_batch_opts(
                    &batch,
                    &keywords,
                    k,
                    BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
                );
                for (((got, w), (p, pw)), &u) in
                    plain.iter().zip(&with).zip(par.iter().zip(&par_with)).zip(&batch)
                {
                    let single = engine.query(u, &keywords, k);
                    assert_eq!(got, &single, "user {u} k {k}");
                    assert_eq!(w, &single, "user {u} k {k} (scratch)");
                    assert_eq!(p, &single, "user {u} k {k} threads {threads}");
                    assert_eq!(pw, &single, "user {u} k {k} threads {threads} (pool)");
                }
            }
        }
        // Clustered members are untouched by the fallback, and a user the
        // site never saw still answers empty (the exact index has no row).
        assert!(!engine.query(users[0], &keywords, 3).unclustered);
        let ghost = engine.query(NodeId(9999), &keywords, 3);
        assert!(ghost.unclustered);
        assert!(ghost.result.ranked.is_empty());
    }

    #[test]
    fn parallel_batch_paths_match_the_sequential_engines() {
        let (graph, users, _) = site();
        let exact = NetworkAwareSearch::build(&graph);
        let clustered = ClusteredNetworkAwareSearch::build_default(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        // Big enough to cross the parallel paths' fan-out floor.
        let batch: Vec<NodeId> =
            (0..300).map(|i| users[i % users.len()]).chain([NodeId(9999)]).collect();
        let mut pool = BatchScratchPool::default();
        for threads in [1usize, 2, 7] {
            let exec = Exec::new(threads).unwrap();
            let par = exact.query_batch_opts(&batch, &keywords, 3, BatchOptions::new().exec(&exec));
            let par_with = exact.query_batch_opts(
                &batch,
                &keywords,
                3,
                BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
            );
            let sequential = exact.query_batch_opts(&batch, &keywords, 3, BatchOptions::new());
            assert_eq!(par, sequential, "exact threads {threads}");
            assert_eq!(par_with, sequential, "exact threads {threads} (pool)");
            let recs =
                exact.recommend_batch_opts(&batch, &keywords, 3, BatchOptions::new().exec(&exec));
            assert_eq!(recs, exact.recommend_batch_opts(&batch, &keywords, 3, BatchOptions::new()));

            let par =
                clustered.query_batch_opts(&batch, &keywords, 3, BatchOptions::new().exec(&exec));
            let par_with = clustered.query_batch_opts(
                &batch,
                &keywords,
                3,
                BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
            );
            let sequential = clustered.query_batch_opts(&batch, &keywords, 3, BatchOptions::new());
            assert_eq!(par, sequential, "clustered threads {threads}");
            assert_eq!(par_with, sequential, "clustered threads {threads} (pool)");
            let recs = clustered.recommend_batch_opts(
                &batch,
                &keywords,
                3,
                BatchOptions::new().exec(&exec),
            );
            assert_eq!(
                recs,
                clustered.recommend_batch_opts(&batch, &keywords, 3, BatchOptions::new())
            );
        }
    }

    #[test]
    fn batch_recommendations_match_single_recommendations() {
        let (graph, users, _) = site();
        let search = NetworkAwareSearch::build(&graph);
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        let batch: Vec<NodeId> = users.clone();
        let recs = search.recommend_batch_opts(&batch, &keywords, 3, BatchOptions::new());
        assert_eq!(recs.len(), batch.len());
        for (rec, &u) in recs.iter().zip(&batch) {
            let single = search.recommend(u, &keywords, 3);
            assert_eq!(rec.len(), single.len());
            for (a, b) in rec.iter().zip(&single) {
                assert_eq!((a.item, a.score, a.strategy), (b.item, b.score, b.strategy));
            }
        }
    }

    /// Engines stay live across applies: after interleaved event batches
    /// the exact and clustered engines (fallback included) answer every
    /// query — single, batch, recommendation — exactly like engines built
    /// from scratch over the updated graph state, and a late-joining
    /// tagger is folded into the clustering on the way.
    #[test]
    fn engines_stay_correct_across_applies() {
        let (engine, users, late) = stale_clustered_engine();
        let mut clustered = engine.with_exact_fallback();
        let mut exact = NetworkAwareSearch {
            site: clustered.site().clone(),
            index: ExactIndex::build(clustered.site()),
        };
        let keywords = vec!["baseball".to_string(), "museum".to_string()];
        assert!(clustered.query(late, &keywords, 3).unclustered);

        let batches = [
            vec![
                TagEvent::assign(late, clustered.site().items().next().unwrap(), "museum"),
                TagEvent::assign(users[3], clustered.site().items().next().unwrap(), "baseball"),
            ],
            vec![TagEvent::retract(users[1], clustered.site().items().nth(1).unwrap(), "museum")],
        ];
        for events in &batches {
            let report = clustered.try_apply_with(&Exec::auto(), events).unwrap();
            assert!(!report.is_noop());
            exact.try_apply_with(&Exec::auto(), events).unwrap();

            // Both engines now answer like engines rebuilt from the
            // current site state.
            let rebuilt_exact = ExactIndex::build(clustered.site());
            let rebuilt_clustered =
                ClusteredIndex::build(clustered.site(), clustered.index().clustering.clone());
            let batch: Vec<NodeId> = users.iter().copied().chain([late, NodeId(9999)]).collect();
            for &u in &batch {
                assert_eq!(
                    exact.query(u, &keywords, 3),
                    rebuilt_exact.query(u, &keywords, 3),
                    "exact engine diverged for {u}"
                );
                assert_eq!(
                    clustered.query(u, &keywords, 3).result.ranked,
                    rebuilt_clustered.query(clustered.site(), u, &keywords, 3).result.ranked,
                    "clustered engine diverged for {u}"
                );
            }
            let served = clustered.query_batch_opts(&batch, &keywords, 3, BatchOptions::new());
            for (got, &u) in served.iter().zip(&batch) {
                assert_eq!(got, &clustered.query(u, &keywords, 3), "batch diverged for {u}");
            }
        }
        // The late joiner's first event reclustered them: flag cleared,
        // answers served from real bounds, no rebuild anywhere.
        assert!(clustered.index().clustering.cluster_of(late).is_some());
        assert!(!clustered.query(late, &keywords, 3).unclustered);
    }
}
