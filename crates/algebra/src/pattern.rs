//! Graph patterns and pattern-based aggregation (paper §5.4, Figure 2).
//!
//! The paper closes its algebra section by observing that multi-link
//! aggregations (e.g. "average the `sim_sc` of the match link over every
//! match→visit path from John to a destination") can either be expressed as
//! several composition + link-aggregation steps, or *more concisely* with a
//! graph pattern. Figure 2 shows the pattern used for collaborative
//! filtering: `($1) -[match]-> ($2) -[visit]-> ($3)` with `$1.id = 101` and
//! `$3.type = destination`. Comparing the two formulations is one of the
//! research questions the paper raises — and one of the experiments this
//! repository reproduces (experiment E3).

use crate::aggfn::AggregateFn;
use crate::condition::Condition;
use socialscope_graph::{FxHashMap, Link, LinkId, NodeId, SocialGraph, Value};
use std::sync::Arc;

/// One hop of a graph pattern: traverse a link satisfying `link_condition`
/// (forward = from the current node as source, backward = as target) and
/// land on a node satisfying `node_condition`.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternStep {
    /// Condition the traversed link must satisfy.
    pub link_condition: Condition,
    /// Whether the current node must be the source (`true`) or target
    /// (`false`) of the traversed link.
    pub forward: bool,
    /// Condition the reached node must satisfy (empty = any node).
    pub node_condition: Condition,
}

impl PatternStep {
    /// A forward hop over links satisfying `link_condition`, landing on any
    /// node.
    pub fn forward(link_condition: Condition) -> Self {
        PatternStep { link_condition, forward: true, node_condition: Condition::any() }
    }

    /// Constrain the node reached by this hop.
    pub fn to_node(mut self, node_condition: Condition) -> Self {
        self.node_condition = node_condition;
        self
    }

    /// Make the hop traverse links backwards (current node is the target).
    pub fn backward(mut self) -> Self {
        self.forward = false;
        self
    }
}

/// A linear graph pattern: a condition on the start node (`$1`) and a
/// sequence of hops. Figure 2's pattern has two hops.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphPattern {
    /// Condition on the start node.
    pub start: Condition,
    /// The hops, in order.
    pub steps: Vec<PatternStep>,
}

impl GraphPattern {
    /// A pattern starting from nodes satisfying `start`.
    pub fn starting_at(start: Condition) -> Self {
        GraphPattern { start, steps: Vec::new() }
    }

    /// Append a hop.
    pub fn then(mut self, step: PatternStep) -> Self {
        self.steps.push(step);
        self
    }

    /// The Figure 2 pattern: `(id = start) -[match]-> ($2) -[visit]->
    /// (type = destination)`.
    pub fn fig2_collaborative_filtering(start_user: NodeId) -> Self {
        GraphPattern::starting_at(Condition::on_attr("id", start_user.raw() as i64))
            .then(PatternStep::forward(Condition::on_attr("type", "match")))
            .then(
                PatternStep::forward(Condition::on_attr("type", "visit"))
                    .to_node(Condition::on_attr("type", "destination")),
            )
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pattern has no hops.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// One match of a pattern: the visited nodes (length = hops + 1) and the
/// traversed links (length = hops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMatch {
    /// Visited nodes, starting with the start node.
    pub nodes: Vec<NodeId>,
    /// Traversed links, one per hop.
    pub links: Vec<LinkId>,
}

impl PathMatch {
    /// The start node of the path.
    pub fn start(&self) -> NodeId {
        self.nodes[0]
    }
    /// The end node of the path.
    pub fn end(&self) -> NodeId {
        *self.nodes.last().expect("a path has at least one node")
    }
}

/// Find every match of a pattern in a graph.
///
/// Matching is a straightforward depth-first expansion; patterns in the
/// paper are short (two or three hops), so no join reordering is attempted.
pub fn find_paths(graph: &SocialGraph, pattern: &GraphPattern) -> Vec<PathMatch> {
    let mut result = Vec::new();
    let starts: Vec<NodeId> =
        graph.nodes().filter(|n| pattern.start.satisfied_by_node(n)).map(|n| n.id).collect();
    for start in starts {
        let mut partial = PathMatch { nodes: vec![start], links: Vec::new() };
        expand(graph, pattern, 0, &mut partial, &mut result);
    }
    // Deterministic output order.
    result.sort_by(|a, b| a.nodes.cmp(&b.nodes).then(a.links.cmp(&b.links)));
    result
}

fn expand(
    graph: &SocialGraph,
    pattern: &GraphPattern,
    depth: usize,
    partial: &mut PathMatch,
    out: &mut Vec<PathMatch>,
) {
    if depth == pattern.steps.len() {
        out.push(partial.clone());
        return;
    }
    let step = &pattern.steps[depth];
    let current = *partial.nodes.last().expect("non-empty path");
    let candidates: Vec<&Link> = if step.forward {
        graph.out_links(current).collect()
    } else {
        graph.in_links(current).collect()
    };
    for link in candidates {
        if !step.link_condition.satisfied_by_link(link) {
            continue;
        }
        let next = if step.forward { link.tgt } else { link.src };
        let Some(next_node) = graph.node(next) else {
            continue;
        };
        if !step.node_condition.satisfied_by_node(next_node) {
            continue;
        }
        partial.nodes.push(next);
        partial.links.push(link.id);
        expand(graph, pattern, depth + 1, partial, out);
        partial.nodes.pop();
        partial.links.pop();
    }
}

/// A user-supplied aggregation over a group of paths, for
/// [`PathAggregate::Custom`].
pub type CustomPathAggregate = Arc<dyn Fn(&[PathMatch], &SocialGraph) -> Value + Send + Sync>;

/// How to aggregate the set of paths sharing the same (start, end) pair into
/// the value stored on the new link created by pattern aggregation.
#[derive(Clone)]
pub enum PathAggregate {
    /// Average of a link attribute at a given hop over the paths — the
    /// Figure 2 use: average of `sim` on the `match` hop (hop 0).
    AvgLinkAttr {
        /// Which hop's link to read.
        step: usize,
        /// Which attribute to read.
        attr: String,
    },
    /// Sum of a link attribute at a given hop.
    SumLinkAttr {
        /// Which hop's link to read.
        step: usize,
        /// Which attribute to read.
        attr: String,
    },
    /// Maximum of a link attribute at a given hop.
    MaxLinkAttr {
        /// Which hop's link to read.
        step: usize,
        /// Which attribute to read.
        attr: String,
    },
    /// The number of matching paths.
    CountPaths,
    /// Delegate to an [`AggregateFn`] applied to the multiset of links at a
    /// given hop across the group's paths.
    StepAggregate {
        /// Which hop's links to collect.
        step: usize,
        /// The aggregate to apply.
        agg: AggregateFn,
    },
    /// A custom aggregation over the full group of paths.
    Custom(CustomPathAggregate),
}

impl std::fmt::Debug for PathAggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathAggregate::AvgLinkAttr { step, attr } => {
                write!(f, "AvgLinkAttr(step={step}, attr={attr})")
            }
            PathAggregate::SumLinkAttr { step, attr } => {
                write!(f, "SumLinkAttr(step={step}, attr={attr})")
            }
            PathAggregate::MaxLinkAttr { step, attr } => {
                write!(f, "MaxLinkAttr(step={step}, attr={attr})")
            }
            PathAggregate::CountPaths => write!(f, "CountPaths"),
            PathAggregate::StepAggregate { step, agg } => {
                write!(f, "StepAggregate(step={step}, agg={agg:?})")
            }
            PathAggregate::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl PartialEq for PathAggregate {
    fn eq(&self, other: &Self) -> bool {
        use PathAggregate::*;
        match (self, other) {
            (AvgLinkAttr { step: s1, attr: a1 }, AvgLinkAttr { step: s2, attr: a2 })
            | (SumLinkAttr { step: s1, attr: a1 }, SumLinkAttr { step: s2, attr: a2 })
            | (MaxLinkAttr { step: s1, attr: a1 }, MaxLinkAttr { step: s2, attr: a2 }) => {
                s1 == s2 && a1 == a2
            }
            (CountPaths, CountPaths) => true,
            (StepAggregate { step: s1, agg: g1 }, StepAggregate { step: s2, agg: g2 }) => {
                s1 == s2 && g1 == g2
            }
            _ => false,
        }
    }
}

impl PathAggregate {
    /// Evaluate over a group of paths sharing the same (start, end) pair.
    pub fn eval(&self, paths: &[PathMatch], graph: &SocialGraph) -> Value {
        let step_links = |step: usize| -> Vec<&Link> {
            paths
                .iter()
                .filter_map(|p| p.links.get(step))
                .filter_map(|id| graph.link(*id))
                .collect()
        };
        match self {
            PathAggregate::AvgLinkAttr { step, attr } => {
                AggregateFn::Avg(attr.clone()).eval(&step_links(*step))
            }
            PathAggregate::SumLinkAttr { step, attr } => {
                AggregateFn::Sum(attr.clone()).eval(&step_links(*step))
            }
            PathAggregate::MaxLinkAttr { step, attr } => {
                AggregateFn::Max(attr.clone()).eval(&step_links(*step))
            }
            PathAggregate::CountPaths => Value::single(paths.len() as i64),
            PathAggregate::StepAggregate { step, agg } => agg.eval(&step_links(*step)),
            PathAggregate::Custom(f) => f(paths, graph),
        }
    }
}

/// Pattern-based link aggregation `γL⟨GP,att,A⟩(G)` (paper §5.4).
///
/// Matches the pattern, groups the matching paths by (start, end) node pair,
/// and creates **one** new link per group from the start node to the end
/// node, carrying the attribute `att` computed by the path aggregate `A`.
/// The output graph contains exactly these new links and their endpoint
/// nodes, which is the part of the result downstream operators consume
/// (the multi-step formulation of Example 5 produces the same shape).
pub fn pattern_aggregate(
    graph: &SocialGraph,
    pattern: &GraphPattern,
    attr: &str,
    agg: &PathAggregate,
) -> SocialGraph {
    let paths = find_paths(graph, pattern);
    let mut groups: FxHashMap<(NodeId, NodeId), Vec<PathMatch>> = FxHashMap::default();
    for p in paths {
        groups.entry((p.start(), p.end())).or_default().push(p);
    }
    let mut out = SocialGraph::new();
    let mut group_list: Vec<_> = groups.into_iter().collect();
    group_list.sort_by_key(|((s, e), _)| (*s, *e));
    for ((start, end), group) in group_list {
        let (Some(s), Some(e)) = (graph.node(start), graph.node(end)) else {
            continue;
        };
        out.add_node(s.clone());
        out.add_node(e.clone());
        let mut link =
            Link::new(socialscope_graph::next_derived_link_id(), start, end, ["aggregated"]);
        link.attrs.set(attr, agg.eval(&group, graph));
        out.add_link(link).expect("endpoints inserted above");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::{GraphBuilder, HasAttrs};

    /// John matches Mary (sim .8) and Pete (sim .6); Mary visited Coors and
    /// the Zoo, Pete visited Coors.
    fn cf_site() -> (SocialGraph, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let mary = b.add_user("Mary");
        let pete = b.add_user("Pete");
        let coors = b.add_item("Coors Field", &["destination"]);
        let zoo = b.add_item("Denver Zoo", &["destination"]);
        b.matches(john, mary, 0.8);
        b.matches(john, pete, 0.6);
        b.visit(mary, coors);
        b.visit(mary, zoo);
        b.visit(pete, coors);
        (b.build(), john, coors, zoo)
    }

    #[test]
    fn find_paths_matches_fig2_pattern() {
        let (g, john, ..) = cf_site();
        let pattern = GraphPattern::fig2_collaborative_filtering(john);
        let paths = find_paths(&g, &pattern);
        // John -match-> Mary -visit-> Coors, John -match-> Mary -visit-> Zoo,
        // John -match-> Pete -visit-> Coors.
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.start() == john));
        assert!(paths.iter().all(|p| p.nodes.len() == 3 && p.links.len() == 2));
    }

    #[test]
    fn pattern_aggregate_average_of_match_sim() {
        let (g, john, coors, zoo) = cf_site();
        let pattern = GraphPattern::fig2_collaborative_filtering(john);
        let out = pattern_aggregate(
            &g,
            &pattern,
            "score",
            &PathAggregate::AvgLinkAttr { step: 0, attr: "sim".into() },
        );
        // One aggregated link per destination reachable from John.
        assert_eq!(out.link_count(), 2);
        let coors_link = out.links().find(|l| l.tgt == coors).unwrap();
        let zoo_link = out.links().find(|l| l.tgt == zoo).unwrap();
        // Coors is endorsed by Mary (.8) and Pete (.6) -> 0.7; Zoo by Mary -> 0.8.
        assert!((coors_link.attrs.get_f64("score").unwrap() - 0.7).abs() < 1e-9);
        assert!((zoo_link.attrs.get_f64("score").unwrap() - 0.8).abs() < 1e-9);
        assert!(coors_link.has_type("aggregated"));
    }

    #[test]
    fn pattern_aggregate_count_paths() {
        let (g, john, coors, _) = cf_site();
        let pattern = GraphPattern::fig2_collaborative_filtering(john);
        let out = pattern_aggregate(&g, &pattern, "endorsements", &PathAggregate::CountPaths);
        let coors_link = out.links().find(|l| l.tgt == coors).unwrap();
        assert_eq!(coors_link.attrs.get_f64("endorsements"), Some(2.0));
    }

    #[test]
    fn backward_steps_traverse_incoming_links() {
        let (g, _, coors, _) = cf_site();
        // From a destination, walk back to the users who visited it.
        let pattern = GraphPattern::starting_at(Condition::on_attr("id", coors.raw() as i64))
            .then(PatternStep::forward(Condition::on_attr("type", "visit")).backward());
        let paths = find_paths(&g, &pattern);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn empty_pattern_matches_start_nodes_only() {
        let (g, john, ..) = cf_site();
        let pattern = GraphPattern::starting_at(Condition::on_attr("id", john.raw() as i64));
        let paths = find_paths(&g, &pattern);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![john]);
        assert!(pattern.is_empty());
    }

    #[test]
    fn no_match_yields_empty_output() {
        let (g, ..) = cf_site();
        let pattern = GraphPattern::starting_at(Condition::on_attr("type", "group"))
            .then(PatternStep::forward(Condition::on_attr("type", "visit")));
        let out = pattern_aggregate(&g, &pattern, "x", &PathAggregate::CountPaths);
        assert!(out.is_empty());
    }

    #[test]
    fn step_aggregate_delegates_to_aggregate_fn() {
        let (g, john, coors, _) = cf_site();
        let pattern = GraphPattern::fig2_collaborative_filtering(john);
        let out = pattern_aggregate(
            &g,
            &pattern,
            "max_sim",
            &PathAggregate::StepAggregate { step: 0, agg: AggregateFn::Max("sim".into()) },
        );
        let coors_link = out.links().find(|l| l.tgt == coors).unwrap();
        assert_eq!(coors_link.attrs.get_f64("max_sim"), Some(0.8));
    }

    #[test]
    fn path_aggregate_equality() {
        assert_eq!(PathAggregate::CountPaths, PathAggregate::CountPaths);
        assert_eq!(
            PathAggregate::AvgLinkAttr { step: 0, attr: "sim".into() },
            PathAggregate::AvgLinkAttr { step: 0, attr: "sim".into() }
        );
        assert_ne!(
            PathAggregate::AvgLinkAttr { step: 0, attr: "sim".into() },
            PathAggregate::AvgLinkAttr { step: 1, attr: "sim".into() }
        );
        let c = PathAggregate::Custom(Arc::new(|_, _| Value::empty()));
        assert_ne!(c.clone(), c);
    }
}
