//! Workspace smoke test: the facade's public surface must stay importable.
//!
//! Future refactors can move items between layer crates freely, but
//! `socialscope::prelude` is the documented entry point — if one of these
//! names stops resolving or changes its call shape, this test fails to
//! compile, which is the point.

use socialscope::prelude::*;

/// A tiny two-user site every assertion below can share.
fn tiny_site() -> (SocialGraph, NodeId, NodeId) {
    let mut b = GraphBuilder::new();
    let john = b.add_user_with_interests("John", &["baseball"]);
    let friend = b.add_user("Friend");
    let coors = b.add_item_with_keywords("Coors Field", &["destination"], &["denver", "baseball"]);
    b.befriend(john, friend);
    b.visit(friend, coors);
    b.tag(friend, coors, &["baseball"]);
    (b.build(), john, coors)
}

#[test]
fn prelude_exposes_graph_building() {
    let (graph, _, coors) = tiny_site();
    assert_eq!(graph.node_count(), 3);
    assert!(graph.has_node(coors));
    let _stats: GraphStats = GraphStats::compute(&graph);
}

#[test]
fn prelude_exposes_algebra_plans_and_optimizer() {
    let (graph, john, _) = tiny_site();

    // Operators are callable directly...
    let friends = link_select(&graph, &Condition::on_attr("type", "friend"), None);
    assert!(friends.link_count() > 0);

    // ...and through the plan/evaluator/optimizer entry points.
    let plan = PlanBuilder::base().link_select(Condition::on_attr("type", "friend")).build();
    let (optimized, _report) = Optimizer::new().optimize(&plan);
    let by_plan = Evaluator::new(&graph).evaluate(&optimized).expect("plan evaluates");
    assert_eq!(by_plan.link_count(), friends.link_count());

    let _ = john;
}

#[test]
fn prelude_exposes_discovery_and_topk() {
    let (graph, john, coors) = tiny_site();

    let msg = InformationDiscoverer::default()
        .discover(&graph, &UserQuery::keywords_for(john, "Denver baseball"));
    assert_eq!(msg.ranked[0].item, coors);

    // Top-k processing over the content layer's site model; tag lookups go
    // through the index's interner.
    let model = SiteModel::from_graph(&graph);
    let index = ExactIndex::build(&model);
    let result = index.query(john, &["baseball".to_string()], 1);
    assert_eq!(result.ranked.len(), 1);
    let id: TagId = index.tags().get("baseball").expect("tag interned");
    assert_eq!(index.tags().resolve(id), Some("baseball"));
    let _interner: &TagInterner = index.tags();

    // The discovery layer serves the same index as a recommender.
    let search = NetworkAwareSearch::build(&graph);
    let recs = search.recommend(john, &["baseball".to_string()], 1);
    assert_eq!(recs.len(), 1);

    // The execution layer: parallel builds and batch serving are
    // indistinguishable from sequential ones. Builds go through the
    // unified builder; batches through `BatchOptions`.
    let exec: Exec = Exec::new(2).expect("positive thread count");
    let parallel = ExactIndex::builder(&model).exec(&exec).build();
    assert_eq!(parallel.stats(), index.stats());
    let mut pool = BatchScratchPool::default();
    let batch = index.query_batch_opts(
        &[john],
        &["baseball".to_string()],
        1,
        BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
    );
    assert_eq!(batch[0], result);
    assert_eq!(recs[0].item, coors);
}

#[test]
fn prelude_exposes_batched_query_serving() {
    let (graph, john, coors) = tiny_site();
    let keywords = vec!["baseball".to_string()];

    // Content layer: batched top-k with a reusable scratch arena, results
    // element-wise identical to single queries.
    let model = SiteModel::from_graph(&graph);
    let index = ExactIndex::build(&model);
    let batch = vec![john, john, NodeId(4242)];
    let mut pool: BatchScratchPool = BatchScratchPool::default();
    let results = index.query_batch_opts(
        &batch,
        &keywords,
        2,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    );
    assert_eq!(results.len(), batch.len());
    for (res, &u) in results.iter().zip(&batch) {
        assert_eq!(res, &index.query(u, &keywords, 2));
    }

    // Discovery layer: the same batch surface on the recommender.
    let search = NetworkAwareSearch::build(&graph);
    let recs = search.recommend_batch_opts(&batch, &keywords, 2, BatchOptions::new());
    assert_eq!(recs.len(), batch.len());
    assert_eq!(recs[0][0].item, coors);
    assert!(recs[2].is_empty());
}

#[test]
fn prelude_exposes_live_index_maintenance() {
    let (graph, john, coors) = tiny_site();
    let keywords = vec!["baseball".to_string()];

    // Content layer: a tag event patches the live index in place, and the
    // patched index answers exactly like one rebuilt from the new site.
    let mut model = SiteModel::from_graph(&graph);
    let mut index = ExactIndex::builder(&model).build();
    let friend = model.network_of(john)[0];
    let events = vec![TagEvent::retract(friend, coors, "baseball")];
    model.try_apply(&events).expect("site apply");
    let report: ApplyReport =
        index.try_apply_with(&Exec::auto(), &model, &events).expect("index apply");
    assert!(!report.is_noop());
    assert_eq!(index.stats(), ExactIndex::builder(&model).build().stats());
    assert!(index.query(john, &keywords, 1).ranked.is_empty());

    // Discovery layer: one engine-level apply keeps the site and index in
    // lockstep.
    let mut search = NetworkAwareSearch::build(&graph);
    let assign = vec![TagEvent::assign(friend, coors, "rockies")];
    search.try_apply_with(&Exec::auto(), &assign).expect("engine apply");
    assert_eq!(search.recommend(john, &["rockies".to_string()], 1)[0].item, coors);

    // Workload layer: deterministic synthetic event streams for the
    // maintenance experiments.
    let site = generate_site(&SiteConfig { users: 10, items: 20, ..SiteConfig::default() });
    let stream_model = SiteModel::from_graph(&site.graph);
    let stream = generate_events(&stream_model, &EventStreamConfig::default());
    assert!(!stream.is_empty());
}

#[test]
fn prelude_exposes_presentation_and_workload() {
    let (graph, john, _) = tiny_site();
    let msg = InformationDiscoverer::default()
        .discover(&graph, &UserQuery::keywords_for(john, "baseball"));
    let organized =
        InformationOrganizer::default().organize(&graph, &msg, GroupingStrategy::Topical);
    assert!(!organized.groups.is_empty());

    let site = generate_site(&SiteConfig { users: 10, items: 20, ..SiteConfig::default() });
    assert!(site.graph.node_count() >= 30);
}
