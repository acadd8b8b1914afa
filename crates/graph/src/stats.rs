//! Descriptive statistics of social content graphs.
//!
//! Used by the workload generator to validate that synthetic sites have the
//! degree skew and small-world structure the experiments assume, and by the
//! experiment harness to report the shape of generated data.

use crate::attrs::HasAttrs;
use crate::graph::SocialGraph;
use crate::hash::FxHashMap;
use crate::id::NodeId;
use crate::types;
use std::collections::BTreeMap;

/// Summary statistics of a social content graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total number of nodes.
    pub nodes: usize,
    /// Total number of links.
    pub links: usize,
    /// Node counts per type value.
    pub node_type_histogram: BTreeMap<String, usize>,
    /// Link counts per type value.
    pub link_type_histogram: BTreeMap<String, usize>,
    /// Average total degree over all nodes.
    pub avg_degree: f64,
    /// Maximum total degree over all nodes.
    pub max_degree: usize,
    /// Average local clustering coefficient of the friendship network
    /// (undirected, over `connect` links).
    pub network_clustering_coefficient: f64,
}

impl GraphStats {
    /// Compute statistics for a graph.
    pub fn compute(graph: &SocialGraph) -> Self {
        let mut node_hist: BTreeMap<String, usize> = BTreeMap::new();
        for n in graph.nodes() {
            for t in n.type_values() {
                *node_hist.entry(t).or_default() += 1;
            }
        }
        let mut link_hist: BTreeMap<String, usize> = BTreeMap::new();
        for l in graph.links() {
            for t in l.type_values() {
                *link_hist.entry(t).or_default() += 1;
            }
        }
        let degrees: Vec<usize> = graph.nodes().map(|n| graph.degree(n.id)).collect();
        let avg_degree = if degrees.is_empty() {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / degrees.len() as f64
        };
        let max_degree = degrees.iter().copied().max().unwrap_or(0);

        GraphStats {
            nodes: graph.node_count(),
            links: graph.link_count(),
            node_type_histogram: node_hist,
            link_type_histogram: link_hist,
            avg_degree,
            max_degree,
            network_clustering_coefficient: network_clustering_coefficient(graph),
        }
    }
}

/// Average local clustering coefficient of the (undirected) connection
/// network — the classic small-world statistic of Watts & Strogatz, which the
/// paper cites as the model of the social graphs underlying these sites.
pub fn network_clustering_coefficient(graph: &SocialGraph) -> f64 {
    // Undirected adjacency over connection links.
    let mut adj: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for l in graph.links() {
        if l.type_values().iter().any(|t| types::is_connection_type(t)) {
            adj.entry(l.src).or_default().push(l.tgt);
            adj.entry(l.tgt).or_default().push(l.src);
        }
    }
    if adj.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for (node, neigh) in &adj {
        let mut uniq: Vec<NodeId> = neigh.clone();
        uniq.sort_unstable();
        uniq.dedup();
        uniq.retain(|n| n != node);
        let k = uniq.len();
        if k < 2 {
            continue;
        }
        let mut closed = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                if adj.get(&uniq[i]).is_some_and(|ns| ns.contains(&uniq[j])) {
                    closed += 1;
                }
            }
        }
        total += 2.0 * closed as f64 / (k as f64 * (k as f64 - 1.0));
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Degree distribution of the graph: `degree -> number of nodes`.
pub fn degree_distribution(graph: &SocialGraph) -> BTreeMap<usize, usize> {
    let mut dist = BTreeMap::new();
    for n in graph.nodes() {
        *dist.entry(graph.degree(n.id)).or_default() += 1;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_site() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_user("a");
        let bb = b.add_user("b");
        let c = b.add_user("c");
        let d = b.add_user("d");
        let item = b.add_item("x", &["city"]);
        b.befriend(a, bb);
        b.befriend(bb, c);
        b.befriend(a, c);
        b.befriend(c, d);
        b.tag(a, item, &["t"]);
        b.build()
    }

    #[test]
    fn histograms_and_degrees() {
        let s = GraphStats::compute(&triangle_site());
        assert_eq!(s.nodes, 5);
        assert_eq!(s.links, 5);
        assert_eq!(s.node_type_histogram["user"], 4);
        assert_eq!(s.node_type_histogram["item"], 1);
        assert_eq!(s.link_type_histogram["friend"], 4);
        assert!(s.avg_degree > 0.0);
        assert!(s.max_degree >= 3);
    }

    #[test]
    fn clustering_coefficient_of_triangle_plus_tail() {
        let g = triangle_site();
        let cc = network_clustering_coefficient(&g);
        // a and b sit on a closed triangle (cc = 1); c has 3 neighbors with
        // 1 closed pair (cc = 1/3); d has a single neighbor (not counted).
        let expected = (1.0 + 1.0 + 1.0 / 3.0) / 3.0;
        assert!((cc - expected).abs() < 1e-9, "cc = {cc}");
    }

    #[test]
    fn empty_graph_has_zero_clustering() {
        assert_eq!(network_clustering_coefficient(&SocialGraph::new()), 0.0);
        let s = GraphStats::compute(&SocialGraph::new());
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn degree_distribution_sums_to_node_count() {
        let g = triangle_site();
        let dist = degree_distribution(&g);
        let total: usize = dist.values().sum();
        assert_eq!(total, g.node_count());
    }
}
