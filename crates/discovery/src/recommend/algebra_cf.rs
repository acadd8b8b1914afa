//! Example 5: user-based collaborative filtering expressed in the algebra.
//!
//! The nine steps of the paper's Example 5 are packaged two ways:
//!
//! * [`collaborative_filtering`] runs the steps directly with the operator
//!   functions (what a production path would do);
//! * [`collaborative_filtering_plan`] builds the equivalent logical
//!   [`Plan`], which the optimizer can rewrite and the experiment harness
//!   can compare against the Figure 2 graph-pattern formulation
//!   ([`pattern_plan`]).

use crate::recommend::Recommendation;
use socialscope_algebra::compose::Side;
use socialscope_algebra::condition::Comparison;
use socialscope_algebra::prelude::*;
use socialscope_graph::{NodeId, SocialGraph, Value};
use std::sync::Arc;

/// Configuration of the collaborative-filtering pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfConfig {
    /// Similarity threshold above which another user joins the similarity
    /// network (the paper uses 0.5 in Example 5).
    pub similarity_threshold: f64,
    /// Which activity link type defines "has visited" (visit by default).
    pub activity: &'static str,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig { similarity_threshold: 0.1, activity: "visit" }
    }
}

/// Run Example 5 directly with the operator functions and return scored
/// recommendations (destinations the user has not necessarily visited,
/// scored by the average similarity of the endorsing users).
pub fn collaborative_filtering(
    graph: &SocialGraph,
    user: NodeId,
    config: &CfConfig,
) -> Vec<Recommendation> {
    let result = example5_pipeline(graph, user, config);
    let mut recs: Vec<Recommendation> = result
        .links()
        .filter(|l| l.src == user)
        .filter_map(|l| {
            l.attrs.get_f64("score").map(|score| Recommendation {
                item: l.tgt,
                score,
                strategy: "algebra_cf",
            })
        })
        .collect();
    // Do not recommend what the user already visited.
    let visited: Vec<NodeId> =
        graph.out_links(user).filter(|l| l.has_type(config.activity)).map(|l| l.tgt).collect();
    recs.retain(|r| !visited.contains(&r.item));
    recs.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
    recs
}

/// The nine algebraic steps of Example 5, returning the final graph `G7`
/// whose `user → destination` links carry the `score` attribute.
pub fn example5_pipeline(graph: &SocialGraph, user: NodeId, config: &CfConfig) -> SocialGraph {
    let user_id = user.raw() as i64;
    let act = config.activity;

    // Steps 1–2: the user and the destinations they have visited, with the
    // visited set collected into the `vst` node attribute.
    let user_node = node_select(graph, &Condition::on_attr("id", user_id), None);
    let g1 = link_select(
        &semi_join(graph, &user_node, DirectionalCondition::src_src()),
        &Condition::on_attr("type", act),
        None,
    );
    let g1p = node_aggregate(
        &g1,
        &Condition::on_attr("type", act),
        Direction::Src,
        "vst",
        &AggregateFn::CollectSet("tgt".into()),
    );

    // Steps 3–4: every other user and their visited destinations.
    let others = node_select(
        graph,
        &Condition::any().and_attr("type", "user").and_compare(
            "id",
            Comparison::NotEquals,
            user_id,
        ),
        None,
    );
    let g2 = link_select(
        &semi_join(graph, &others, DirectionalCondition::src_src()),
        &Condition::on_attr("type", act),
        None,
    );
    let g2p = node_aggregate(
        &g2,
        &Condition::on_attr("type", act),
        Direction::Src,
        "vst",
        &AggregateFn::CollectSet("tgt".into()),
    );

    // Step 5: compose on shared destinations; F computes Jaccard(vst, vst).
    let g3 = compose(
        &g1p,
        &g2p,
        DirectionalCondition::tgt_tgt(),
        &ComposeSpec::Chain(vec![
            ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("user_sim"))]),
            ComposeSpec::JaccardOfNodeSets { attr: "vst".into(), out: "sim".into() },
        ]),
    );

    // Step 6: collapse parallel links above the threshold into 'match' links.
    let g4 = link_aggregate_multi(
        &g3,
        &Condition::any().and_attr("type", "user_sim").and_compare(
            "sim",
            Comparison::Greater,
            config.similarity_threshold,
        ),
        &[
            ("type".to_string(), AggregateFn::ConstStr("match".into())),
            ("sim".to_string(), AggregateFn::First("sim".into())),
        ],
    );
    let g4_matches = link_select(&g4, &Condition::on_attr("type", "match"), None);

    // Step 7: users and the destinations they have visited.
    let destinations = node_select(graph, &Condition::on_attr("type", "destination"), None);
    let g5 = link_select(
        &semi_join(graph, &destinations, DirectionalCondition::tgt_src()),
        &Condition::on_attr("type", act),
        None,
    );

    // Step 8: compose the similarity network with those visits.
    let left = semi_join(&g4_matches, &g5, DirectionalCondition::tgt_src());
    let right = semi_join(&g5, &g4_matches, DirectionalCondition::src_tgt());
    let g6 = compose(
        &left,
        &right,
        DirectionalCondition::tgt_src(),
        &ComposeSpec::Chain(vec![
            ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("recommendation"))]),
            ComposeSpec::CopyLinkAttr {
                side: Side::Left,
                attr: "sim".into(),
                out: "sim_sc".into(),
            },
        ]),
    );

    // Step 9: average sim_sc per destination.
    link_aggregate(
        &g6,
        &Condition::on_attr("type", "recommendation"),
        "score",
        &AggregateFn::Avg("sim_sc".into()),
    )
}

/// Example 5 as a logical [`Plan`] (steps 7–9 applied to the *pre-derived*
/// similarity network): the plan assumes the Content Analyzer has already
/// materialized `match` links in the base graph and recommends destinations
/// reachable over match→visit, exactly the shape of Figure 2's pattern.
pub fn collaborative_filtering_plan(user: NodeId) -> Arc<Plan> {
    // Anchor on the user, keep their outgoing `match` links, then follow the
    // matched users' visits (steps 7–9 of Example 5).
    let user_sel = PlanBuilder::base().node_select(Condition::on_attr("id", user.raw() as i64));
    let user_matches = PlanBuilder::base()
        .semi_join(&user_sel, DirectionalCondition::src_src())
        .link_select(Condition::on_attr("type", "match"));

    let visits = PlanBuilder::base().link_select(Condition::on_attr("type", "visit"));
    let left = user_matches.clone().semi_join(&visits, DirectionalCondition::tgt_src());
    let right = visits.clone().semi_join(&user_matches, DirectionalCondition::src_tgt());
    left.compose(
        &right,
        DirectionalCondition::tgt_src(),
        ComposeSpec::Chain(vec![
            ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("recommendation"))]),
            ComposeSpec::CopyLinkAttr {
                side: Side::Left,
                attr: "sim".into(),
                out: "sim_sc".into(),
            },
        ]),
    )
    .link_agg(
        Condition::on_attr("type", "recommendation"),
        "score",
        AggregateFn::Avg("sim_sc".into()),
    )
    .build()
}

/// The Figure 2 formulation as a plan: a single pattern aggregation over the
/// base graph (which must already contain `match` links).
pub fn pattern_plan(user: NodeId) -> Arc<Plan> {
    PlanBuilder::base()
        .pattern_agg(
            GraphPattern::fig2_collaborative_filtering(user),
            "score",
            PathAggregate::AvgLinkAttr { step: 0, attr: "sim".into() },
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::similarity::derive_similarity_links;
    use socialscope_graph::GraphBuilder;
    use std::collections::BTreeMap;

    fn cf_site() -> (SocialGraph, NodeId, BTreeMap<&'static str, NodeId>) {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let alice = b.add_user("Alice");
        let bob = b.add_user("Bob");
        let coors = b.add_item("Coors Field", &["destination"]);
        let red_rocks = b.add_item("Red Rocks", &["destination"]);
        let museum = b.add_item("B's Ballpark Museum", &["destination"]);
        let zoo = b.add_item("Denver Zoo", &["destination"]);
        b.visit(john, coors);
        b.visit(john, red_rocks);
        b.visit(alice, coors);
        b.visit(alice, red_rocks);
        b.visit(alice, museum);
        b.visit(bob, coors);
        b.visit(bob, zoo);
        let mut items = BTreeMap::new();
        items.insert("coors", coors);
        items.insert("museum", museum);
        items.insert("zoo", zoo);
        (b.build(), john, items)
    }

    #[test]
    fn cf_recommends_unvisited_items_ranked_by_similarity() {
        let (g, john, items) = cf_site();
        let recs = collaborative_filtering(&g, john, &CfConfig::default());
        assert!(!recs.is_empty());
        // The museum (endorsed by the very similar Alice) outranks the zoo
        // (endorsed by the weakly similar Bob); already-visited items are
        // excluded.
        assert_eq!(recs[0].item, items["museum"]);
        assert!(recs.iter().all(|r| r.item != items["coors"]));
        let zoo = recs.iter().find(|r| r.item == items["zoo"]);
        if let Some(zoo) = zoo {
            assert!(recs[0].score > zoo.score);
        }
    }

    #[test]
    fn threshold_prunes_weak_neighbors() {
        let (g, john, items) = cf_site();
        let strict = collaborative_filtering(
            &g,
            john,
            &CfConfig { similarity_threshold: 0.5, ..CfConfig::default() },
        );
        assert!(strict.iter().all(|r| r.item != items["zoo"]));
    }

    #[test]
    fn plan_formulations_agree_with_direct_pipeline() {
        let (mut g, john, _) = cf_site();
        // Materialize match links so the plan-based formulations can run on
        // the base graph (the Content Analyzer's job).
        derive_similarity_links(&mut g, 0.1);

        let mut ev = Evaluator::new(&g);
        let step_plan = collaborative_filtering_plan(john);
        let fig2 = pattern_plan(john);
        let a = ev.evaluate(&step_plan).unwrap();
        let b = ev.evaluate(&fig2).unwrap();

        let extract = |g: &SocialGraph| -> BTreeMap<NodeId, i64> {
            g.links()
                .filter(|l| l.src == john)
                .filter_map(|l| l.attrs.get_f64("score").map(|s| (l.tgt, (s * 1e9) as i64)))
                .collect()
        };
        let scores_a = extract(&a);
        let scores_b = extract(&b);
        assert_eq!(scores_a, scores_b);
        assert!(!scores_a.is_empty());
    }

    #[test]
    fn user_without_activity_gets_no_cf_recommendations() {
        let (g, _, _) = cf_site();
        let loner = NodeId(999);
        assert!(collaborative_filtering(&g, loner, &CfConfig::default()).is_empty());
    }
}
