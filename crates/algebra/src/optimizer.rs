//! A small rule-based plan optimizer.
//!
//! The paper motivates the algebra partly by optimizability: because
//! discovery tasks are expressed as operator trees rather than ad-hoc code,
//! the system can rewrite them. This module implements the classic rewrites
//! that apply to the SocialScope operators:
//!
//! * **Selection fusion** — `σ_C1(σ_C2(X)) → σ_{C1 ∧ C2}(X)` for node and
//!   link selections (the outer scoring specification is kept).
//! * **Selection pushdown** — node selection distributes over Union,
//!   Intersection and (on the left input) Node-Driven Minus.
//! * **Set-operation simplification** — `X ∪ X → X`, `X ∩ X → X` when both
//!   sides are the *same shared sub-plan or structurally equal pure plans*.
//! * **Common-subexpression elimination (CSE)** — structurally equal
//!   sub-plans are rewritten to share one `Arc`, which the evaluator then
//!   evaluates only once.
//!
//! Rewrites never touch sub-plans containing `Custom` composition,
//! aggregation or path-aggregate functions: their behaviour cannot be
//! inspected, so merging or reordering them would be unsound.

use crate::plan::Plan;
use std::sync::Arc;

/// What the optimizer did to a plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizationReport {
    /// Human-readable names of rules that fired, in application order.
    pub rules_applied: Vec<String>,
    /// Operator count before optimization.
    pub size_before: usize,
    /// Operator count after optimization (counting shared subtrees once per
    /// occurrence, so CSE does not change this number — see `shared_after`).
    pub size_after: usize,
    /// Number of distinct operator nodes after CSE (shared subtrees counted
    /// once).
    pub distinct_after: usize,
}

/// The rule-based optimizer.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    max_passes: usize,
}

impl Optimizer {
    /// An optimizer with the default pass limit.
    pub fn new() -> Self {
        Optimizer { max_passes: 8 }
    }

    /// Optimize a plan, returning the rewritten plan and a report.
    pub fn optimize(&self, plan: &Arc<Plan>) -> (Arc<Plan>, OptimizationReport) {
        let max_passes = if self.max_passes == 0 { 8 } else { self.max_passes };
        let mut report =
            OptimizationReport { size_before: plan.size(), ..OptimizationReport::default() };
        let mut current = plan.clone();
        for _ in 0..max_passes {
            let mut changed = false;
            let fused = rewrite_bottom_up(&current, &mut |p| fuse_selections(p));
            if !Arc::ptr_eq(&fused, &current) && *fused != *current {
                report.rules_applied.push("fuse_selections".into());
                changed = true;
            }
            let pushed = rewrite_bottom_up(&fused, &mut |p| push_node_select(p));
            if *pushed != *fused {
                report.rules_applied.push("push_node_select".into());
                changed = true;
            }
            let simplified = rewrite_bottom_up(&pushed, &mut |p| simplify_setops(p));
            if *simplified != *pushed {
                report.rules_applied.push("simplify_setops".into());
                changed = true;
            }
            current = simplified;
            if !changed {
                break;
            }
        }
        // CSE as a final pass.
        let mut pool: Vec<Arc<Plan>> = Vec::new();
        let shared = cse(&current, &mut pool);
        if count_distinct(&shared) < count_distinct(&current) {
            report.rules_applied.push("cse".into());
        }
        current = shared;
        report.size_after = current.size();
        report.distinct_after = count_distinct(&current);
        (current, report)
    }
}

/// Apply a local rewrite bottom-up across the whole tree.
fn rewrite_bottom_up(
    plan: &Arc<Plan>,
    rule: &mut dyn FnMut(&Arc<Plan>) -> Option<Arc<Plan>>,
) -> Arc<Plan> {
    // First rebuild children.
    let rebuilt = match &**plan {
        Plan::Base => plan.clone(),
        Plan::NodeSelect { input, condition, scoring } => Arc::new(Plan::NodeSelect {
            input: rewrite_bottom_up(input, rule),
            condition: condition.clone(),
            scoring: scoring.clone(),
        }),
        Plan::LinkSelect { input, condition, scoring } => Arc::new(Plan::LinkSelect {
            input: rewrite_bottom_up(input, rule),
            condition: condition.clone(),
            scoring: scoring.clone(),
        }),
        Plan::Union { left, right } => Arc::new(Plan::Union {
            left: rewrite_bottom_up(left, rule),
            right: rewrite_bottom_up(right, rule),
        }),
        Plan::Intersect { left, right } => Arc::new(Plan::Intersect {
            left: rewrite_bottom_up(left, rule),
            right: rewrite_bottom_up(right, rule),
        }),
        Plan::Minus { left, right } => Arc::new(Plan::Minus {
            left: rewrite_bottom_up(left, rule),
            right: rewrite_bottom_up(right, rule),
        }),
        Plan::MinusLinkDriven { left, right } => Arc::new(Plan::MinusLinkDriven {
            left: rewrite_bottom_up(left, rule),
            right: rewrite_bottom_up(right, rule),
        }),
        Plan::Compose { left, right, delta, f } => Arc::new(Plan::Compose {
            left: rewrite_bottom_up(left, rule),
            right: rewrite_bottom_up(right, rule),
            delta: *delta,
            f: f.clone(),
        }),
        Plan::SemiJoin { left, right, delta } => Arc::new(Plan::SemiJoin {
            left: rewrite_bottom_up(left, rule),
            right: rewrite_bottom_up(right, rule),
            delta: *delta,
        }),
        Plan::NodeAgg { input, condition, direction, attr, agg } => Arc::new(Plan::NodeAgg {
            input: rewrite_bottom_up(input, rule),
            condition: condition.clone(),
            direction: *direction,
            attr: attr.clone(),
            agg: agg.clone(),
        }),
        Plan::LinkAgg { input, condition, aggs } => Arc::new(Plan::LinkAgg {
            input: rewrite_bottom_up(input, rule),
            condition: condition.clone(),
            aggs: aggs.clone(),
        }),
        Plan::PatternAgg { input, pattern, attr, agg } => Arc::new(Plan::PatternAgg {
            input: rewrite_bottom_up(input, rule),
            pattern: pattern.clone(),
            attr: attr.clone(),
            agg: agg.clone(),
        }),
    };
    // Then apply the rule at this node (repeatedly, in case it cascades).
    let mut node = rebuilt;
    while let Some(next) = rule(&node) {
        node = next;
    }
    node
}

/// `σ_C1(σ_C2(X)) → σ_{C2 ∧ C1}(X)` for selections of the same kind. The
/// outer scoring wins; fusion is skipped when the inner selection carries a
/// scoring spec the outer one would discard.
fn fuse_selections(plan: &Arc<Plan>) -> Option<Arc<Plan>> {
    match &**plan {
        Plan::NodeSelect { input, condition, scoring } => match &**input {
            Plan::NodeSelect {
                input: inner_input,
                condition: inner_cond,
                scoring: inner_scoring,
            } if inner_scoring.is_none() || scoring.is_none() => Some(Arc::new(Plan::NodeSelect {
                input: inner_input.clone(),
                condition: inner_cond.clone().and(condition),
                scoring: scoring.clone().or_else(|| inner_scoring.clone()),
            })),
            _ => None,
        },
        Plan::LinkSelect { input, condition, scoring } => match &**input {
            Plan::LinkSelect {
                input: inner_input,
                condition: inner_cond,
                scoring: inner_scoring,
            } if inner_scoring.is_none() || scoring.is_none() => Some(Arc::new(Plan::LinkSelect {
                input: inner_input.clone(),
                condition: inner_cond.clone().and(condition),
                scoring: scoring.clone().or_else(|| inner_scoring.clone()),
            })),
            _ => None,
        },
        _ => None,
    }
}

/// Push node selection through Union / Intersection / the left input of
/// Node-Driven Minus.
fn push_node_select(plan: &Arc<Plan>) -> Option<Arc<Plan>> {
    let Plan::NodeSelect { input, condition, scoring } = &**plan else {
        return None;
    };
    match &**input {
        Plan::Union { left, right } => Some(Arc::new(Plan::Union {
            left: Arc::new(Plan::NodeSelect {
                input: left.clone(),
                condition: condition.clone(),
                scoring: scoring.clone(),
            }),
            right: Arc::new(Plan::NodeSelect {
                input: right.clone(),
                condition: condition.clone(),
                scoring: scoring.clone(),
            }),
        })),
        Plan::Intersect { left, right } => Some(Arc::new(Plan::Intersect {
            left: Arc::new(Plan::NodeSelect {
                input: left.clone(),
                condition: condition.clone(),
                scoring: scoring.clone(),
            }),
            right: Arc::new(Plan::NodeSelect {
                input: right.clone(),
                condition: condition.clone(),
                scoring: scoring.clone(),
            }),
        })),
        Plan::Minus { left, right } => Some(Arc::new(Plan::Minus {
            left: Arc::new(Plan::NodeSelect {
                input: left.clone(),
                condition: condition.clone(),
                scoring: scoring.clone(),
            }),
            right: right.clone(),
        })),
        _ => None,
    }
}

/// `X ∪ X → X` and `X ∩ X → X` for identical (shared or structurally equal)
/// inputs.
fn simplify_setops(plan: &Arc<Plan>) -> Option<Arc<Plan>> {
    match &**plan {
        Plan::Union { left, right } | Plan::Intersect { left, right } => {
            if Arc::ptr_eq(left, right) || **left == **right {
                Some(left.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Common-subexpression elimination: rewrite the tree so structurally equal
/// sub-plans share a single `Arc`.
fn cse(plan: &Arc<Plan>, pool: &mut Vec<Arc<Plan>>) -> Arc<Plan> {
    // Rebuild children first so nested duplicates collapse.
    let rebuilt: Arc<Plan> = match &**plan {
        Plan::Base => plan.clone(),
        Plan::NodeSelect { input, condition, scoring } => Arc::new(Plan::NodeSelect {
            input: cse(input, pool),
            condition: condition.clone(),
            scoring: scoring.clone(),
        }),
        Plan::LinkSelect { input, condition, scoring } => Arc::new(Plan::LinkSelect {
            input: cse(input, pool),
            condition: condition.clone(),
            scoring: scoring.clone(),
        }),
        Plan::Union { left, right } => {
            Arc::new(Plan::Union { left: cse(left, pool), right: cse(right, pool) })
        }
        Plan::Intersect { left, right } => {
            Arc::new(Plan::Intersect { left: cse(left, pool), right: cse(right, pool) })
        }
        Plan::Minus { left, right } => {
            Arc::new(Plan::Minus { left: cse(left, pool), right: cse(right, pool) })
        }
        Plan::MinusLinkDriven { left, right } => {
            Arc::new(Plan::MinusLinkDriven { left: cse(left, pool), right: cse(right, pool) })
        }
        Plan::Compose { left, right, delta, f } => Arc::new(Plan::Compose {
            left: cse(left, pool),
            right: cse(right, pool),
            delta: *delta,
            f: f.clone(),
        }),
        Plan::SemiJoin { left, right, delta } => Arc::new(Plan::SemiJoin {
            left: cse(left, pool),
            right: cse(right, pool),
            delta: *delta,
        }),
        Plan::NodeAgg { input, condition, direction, attr, agg } => Arc::new(Plan::NodeAgg {
            input: cse(input, pool),
            condition: condition.clone(),
            direction: *direction,
            attr: attr.clone(),
            agg: agg.clone(),
        }),
        Plan::LinkAgg { input, condition, aggs } => Arc::new(Plan::LinkAgg {
            input: cse(input, pool),
            condition: condition.clone(),
            aggs: aggs.clone(),
        }),
        Plan::PatternAgg { input, pattern, attr, agg } => Arc::new(Plan::PatternAgg {
            input: cse(input, pool),
            pattern: pattern.clone(),
            attr: attr.clone(),
            agg: agg.clone(),
        }),
    };
    // Structural-equality lookup. PartialEq treats Custom functions as never
    // equal, so plans containing them are never merged.
    if let Some(existing) = pool.iter().find(|p| ***p == *rebuilt) {
        existing.clone()
    } else {
        pool.push(rebuilt.clone());
        rebuilt
    }
}

/// Number of distinct operator nodes (shared subtrees counted once).
pub fn count_distinct(plan: &Arc<Plan>) -> usize {
    fn walk(plan: &Arc<Plan>, seen: &mut Vec<*const Plan>) {
        let ptr = Arc::as_ptr(plan);
        if seen.contains(&ptr) {
            return;
        }
        seen.push(ptr);
        for c in plan.children() {
            walk(c, seen);
        }
    }
    let mut seen = Vec::new();
    walk(plan, &mut seen);
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::eval::Evaluator;
    use crate::plan::{PlanBuilder, ScoringSpec};
    use socialscope_graph::GraphBuilder;

    fn site() -> socialscope_graph::SocialGraph {
        let mut b = GraphBuilder::new();
        let u1 = b.add_user("a");
        let u2 = b.add_user("b");
        let i1 = b.add_item_with_keywords("Coors Field", &["destination"], &["baseball"]);
        let i2 = b.add_item_with_keywords("Denver Zoo", &["destination"], &["animals"]);
        b.befriend(u1, u2);
        b.visit(u1, i1);
        b.visit(u2, i2);
        b.build()
    }

    #[test]
    fn selection_fusion_preserves_semantics() {
        let g = site();
        let plan = PlanBuilder::base()
            .node_select(Condition::on_attr("type", "destination"))
            .node_select(Condition::keywords(["baseball"]))
            .build();
        let (optimized, report) = Optimizer::new().optimize(&plan);
        assert!(report.rules_applied.contains(&"fuse_selections".to_string()));
        assert!(optimized.size() < plan.size());

        let mut ev = Evaluator::new(&g);
        let a = ev.evaluate(&plan).unwrap();
        let b = ev.evaluate(&optimized).unwrap();
        assert_eq!(a.node_id_set(), b.node_id_set());
    }

    #[test]
    fn fusion_does_not_drop_inner_scoring() {
        let plan = PlanBuilder::base()
            .node_select_scored(Condition::keywords(["baseball"]), ScoringSpec::TfIdf)
            .node_select_scored(
                Condition::on_attr("type", "destination"),
                ScoringSpec::Constant(0.5),
            )
            .build();
        let (optimized, _) = Optimizer::new().optimize(&plan);
        // Both selections carry scoring specs: fusion must not apply.
        assert_eq!(optimized.size(), plan.size());
    }

    #[test]
    fn pushdown_through_union() {
        let g = site();
        let left = PlanBuilder::base().link_select(Condition::on_attr("type", "visit"));
        let right = PlanBuilder::base().link_select(Condition::on_attr("type", "friend"));
        let plan = left.union(&right).node_select(Condition::on_attr("type", "user")).build();
        let (optimized, report) = Optimizer::new().optimize(&plan);
        assert!(report.rules_applied.contains(&"push_node_select".to_string()));
        let mut ev = Evaluator::new(&g);
        let a = ev.evaluate(&plan).unwrap();
        let b = ev.evaluate(&optimized).unwrap();
        assert_eq!(a.node_id_set(), b.node_id_set());
        assert_eq!(a.link_id_set(), b.link_id_set());
    }

    #[test]
    fn idempotent_union_simplifies() {
        let sub = PlanBuilder::base().link_select(Condition::on_attr("type", "visit"));
        let plan = sub.clone().union(&sub).build();
        let (optimized, report) = Optimizer::new().optimize(&plan);
        assert!(report.rules_applied.contains(&"simplify_setops".to_string()));
        assert!(optimized.size() < plan.size());
        assert_eq!(optimized.op_name(), "link_select");
    }

    #[test]
    fn cse_shares_structurally_equal_subplans() {
        let a = PlanBuilder::base().link_select(Condition::on_attr("type", "visit"));
        let b = PlanBuilder::base().link_select(Condition::on_attr("type", "visit"));
        // Different Arcs, same structure, combined under a semi-join (which
        // the set-op simplifier leaves alone).
        let plan = a.semi_join(&b, crate::compose::DirectionalCondition::tgt_src()).build();
        let before = count_distinct(&plan);
        let (optimized, report) = Optimizer::new().optimize(&plan);
        let after = count_distinct(&optimized);
        assert!(after < before, "CSE should share equal subtrees");
        assert!(report.rules_applied.contains(&"cse".to_string()));

        let g = site();
        let mut ev = Evaluator::new(&g);
        let (_, stats) = ev.evaluate_with_stats(&optimized).unwrap();
        assert!(stats.cache_hits >= 1);
    }

    #[test]
    fn optimizing_base_is_identity() {
        let plan = PlanBuilder::base().build();
        let (optimized, report) = Optimizer::new().optimize(&plan);
        assert_eq!(*optimized, *plan);
        assert_eq!(report.size_before, 1);
        assert_eq!(report.size_after, 1);
    }
}
