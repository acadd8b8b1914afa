//! The in-memory social content graph.

use crate::attrs::HasAttrs;
use crate::error::GraphError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::id::{IdGen, LinkId, NodeId};
use crate::link::Link;
use crate::node::Node;
use crate::Result;
use std::collections::BTreeSet;

/// An instance of a social content site: nodes, links, and adjacency
/// indexes (paper §4).
///
/// * Nodes and links are keyed by id; algebra operators match elements by id,
///   so every graph derived from the same site shares its id space.
/// * A graph may be a *null graph* — nodes without links — which is exactly
///   what Node Selection produces (paper Def. 1).
/// * Links always have both endpoints present: inserting a link whose
///   endpoints are missing is an error, and operators that select links
///   (Link Selection, Semi-Join, Composition) always output the sub-graph
///   *induced* by the selected links.
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    nodes: FxHashMap<NodeId, Node>,
    links: FxHashMap<LinkId, Link>,
    out: FxHashMap<NodeId, Vec<LinkId>>,
    inc: FxHashMap<NodeId, Vec<LinkId>>,
}

impl SocialGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// True when the graph has neither nodes nor links.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }

    /// True when the graph has nodes but no links (a *null graph*).
    pub fn is_null_graph(&self) -> bool {
        self.links.is_empty()
    }

    // --- nodes ------------------------------------------------------------

    /// Insert a node. If a node with the same id exists it is consolidated
    /// (attributes unioned, max score kept).
    pub fn add_node(&mut self, node: Node) {
        match self.nodes.get_mut(&node.id) {
            Some(existing) => existing.consolidate(&node),
            None => {
                self.nodes.insert(node.id, node);
            }
        }
    }

    /// Insert a node, replacing any existing node with the same id.
    pub fn replace_node(&mut self, node: Node) {
        self.nodes.insert(node.id, node);
    }

    /// Fetch a node by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Fetch a node mutably by id.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// Whether a node with the given id is present.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Iterate all nodes (unordered).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Iterate all nodes mutably (unordered).
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.values_mut()
    }

    /// All node ids, sorted (deterministic order for tests and experiments).
    pub fn node_ids_sorted(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// All node ids as a set.
    pub fn node_id_set(&self) -> FxHashSet<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Nodes carrying the given type value.
    pub fn nodes_of_type<'a>(&'a self, ty: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        self.nodes.values().filter(move |n| n.has_type(ty))
    }

    // --- links ------------------------------------------------------------

    /// Insert a link. Both endpoints must already be present. If a link with
    /// the same id exists with the same endpoints it is consolidated;
    /// differing endpoints are an error.
    pub fn add_link(&mut self, link: Link) -> Result<()> {
        if !self.nodes.contains_key(&link.src) {
            return Err(GraphError::MissingNode(link.src));
        }
        if !self.nodes.contains_key(&link.tgt) {
            return Err(GraphError::MissingNode(link.tgt));
        }
        match self.links.get_mut(&link.id) {
            Some(existing) => {
                if existing.src != link.src || existing.tgt != link.tgt {
                    return Err(GraphError::ConflictingLink {
                        id: link.id,
                        reason: "existing link has different endpoints".into(),
                    });
                }
                existing.consolidate(&link);
            }
            None => {
                self.out.entry(link.src).or_default().push(link.id);
                self.inc.entry(link.tgt).or_default().push(link.id);
                self.links.insert(link.id, link);
            }
        }
        Ok(())
    }

    /// Insert a link, inserting stub nodes for missing endpoints first.
    ///
    /// The stubs carry no attributes beyond an empty `type`; callers that
    /// know the real nodes should add them explicitly.
    pub fn add_link_with_endpoints(&mut self, link: Link, src: &Node, tgt: &Node) -> Result<()> {
        if !self.has_node(link.src) {
            self.add_node(src.clone());
        }
        if !self.has_node(link.tgt) {
            self.add_node(tgt.clone());
        }
        self.add_link(link)
    }

    /// Fetch a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(&id)
    }

    /// Fetch a link mutably by id.
    pub fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        self.links.get_mut(&id)
    }

    /// Whether a link with the given id is present.
    pub fn has_link(&self, id: LinkId) -> bool {
        self.links.contains_key(&id)
    }

    /// Iterate all links (unordered).
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.values()
    }

    /// Iterate all links mutably (unordered).
    pub fn links_mut(&mut self) -> impl Iterator<Item = &mut Link> {
        self.links.values_mut()
    }

    /// All link ids, sorted.
    pub fn link_ids_sorted(&self) -> Vec<LinkId> {
        let mut ids: Vec<LinkId> = self.links.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// All link ids as a set.
    pub fn link_id_set(&self) -> FxHashSet<LinkId> {
        self.links.keys().copied().collect()
    }

    /// Links carrying the given type value.
    pub fn links_of_type<'a>(&'a self, ty: &'a str) -> impl Iterator<Item = &'a Link> + 'a {
        self.links.values().filter(move |l| l.has_type(ty))
    }

    // --- adjacency ---------------------------------------------------------

    /// Outgoing links of a node.
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = &Link> {
        self.out.get(&node).into_iter().flatten().filter_map(|id| self.links.get(id))
    }

    /// Incoming links of a node.
    pub fn in_links(&self, node: NodeId) -> impl Iterator<Item = &Link> {
        self.inc.get(&node).into_iter().flatten().filter_map(|id| self.links.get(id))
    }

    /// All links touching a node (outgoing then incoming).
    pub fn links_of(&self, node: NodeId) -> impl Iterator<Item = &Link> {
        self.out_links(node).chain(self.in_links(node))
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out.get(&node).map_or(0, Vec::len)
    }

    /// In-degree of a node.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.inc.get(&node).map_or(0, Vec::len)
    }

    /// Total degree of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node) + self.in_degree(node)
    }

    /// Neighbors reachable via outgoing links.
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(node).map(|l| l.tgt)
    }

    /// Neighbors reachable via incoming links.
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_links(node).map(|l| l.src)
    }

    /// All neighbors (both directions, may contain duplicates).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_neighbors(node).chain(self.in_neighbors(node))
    }

    /// Undirected neighbor set restricted to links of the given type.
    pub fn neighbors_via(&self, node: NodeId, link_type: &str) -> BTreeSet<NodeId> {
        let mut set = BTreeSet::new();
        for l in self.links_of(node) {
            if l.has_type(link_type) {
                set.insert(if l.src == node { l.tgt } else { l.src });
            }
        }
        set
    }

    /// Links between a specific source and target node.
    pub fn links_between(&self, src: NodeId, tgt: NodeId) -> impl Iterator<Item = &Link> {
        self.out_links(src).filter(move |l| l.tgt == tgt)
    }

    // --- removal -----------------------------------------------------------

    /// Remove a link.
    pub fn remove_link(&mut self, id: LinkId) -> Option<Link> {
        let link = self.links.remove(&id)?;
        if let Some(v) = self.out.get_mut(&link.src) {
            v.retain(|l| *l != id);
        }
        if let Some(v) = self.inc.get_mut(&link.tgt) {
            v.retain(|l| *l != id);
        }
        Some(link)
    }

    /// Remove a node and every link touching it.
    pub fn remove_node(&mut self, id: NodeId) -> Option<Node> {
        let node = self.nodes.remove(&id)?;
        let touching: Vec<LinkId> =
            self.links.values().filter(|l| l.touches(id)).map(|l| l.id).collect();
        for lid in touching {
            self.remove_link(lid);
        }
        self.out.remove(&id);
        self.inc.remove(&id);
        Some(node)
    }

    /// Keep only nodes satisfying the predicate; links touching removed nodes
    /// are removed too.
    pub fn retain_nodes(&mut self, mut pred: impl FnMut(&Node) -> bool) {
        let remove: Vec<NodeId> = self.nodes.values().filter(|n| !pred(n)).map(|n| n.id).collect();
        for id in remove {
            self.remove_node(id);
        }
    }

    /// Keep only links satisfying the predicate (nodes are untouched).
    pub fn retain_links(&mut self, mut pred: impl FnMut(&Link) -> bool) {
        let remove: Vec<LinkId> = self.links.values().filter(|l| !pred(l)).map(|l| l.id).collect();
        for id in remove {
            self.remove_link(id);
        }
    }

    // --- derived graphs -----------------------------------------------------

    /// The null graph containing only the given nodes of this graph
    /// (used by Node Selection).
    pub fn null_graph_of<I: IntoIterator<Item = NodeId>>(&self, ids: I) -> SocialGraph {
        let mut g = SocialGraph::new();
        for id in ids {
            if let Some(n) = self.nodes.get(&id) {
                g.add_node(n.clone());
            }
        }
        g
    }

    /// The sub-graph *induced by* the given links of this graph: the links
    /// plus their endpoint nodes (used by Link Selection and Semi-Join).
    pub fn induced_by_links<I: IntoIterator<Item = LinkId>>(&self, ids: I) -> SocialGraph {
        let mut g = SocialGraph::new();
        for id in ids {
            if let Some(l) = self.links.get(&id) {
                if let (Some(s), Some(t)) = (self.nodes.get(&l.src), self.nodes.get(&l.tgt)) {
                    g.add_node(s.clone());
                    g.add_node(t.clone());
                    g.add_link(l.clone()).expect("endpoints were just inserted");
                }
            }
        }
        g
    }

    /// The sub-graph of this graph induced by the given node set: those nodes
    /// plus every link with *both* endpoints in the set.
    pub fn induced_by_nodes<I: IntoIterator<Item = NodeId>>(&self, ids: I) -> SocialGraph {
        let keep: FxHashSet<NodeId> = ids.into_iter().collect();
        let mut g = SocialGraph::new();
        for id in &keep {
            if let Some(n) = self.nodes.get(id) {
                g.add_node(n.clone());
            }
        }
        for l in self.links.values() {
            if keep.contains(&l.src) && keep.contains(&l.tgt) {
                g.add_link(l.clone()).expect("endpoints inserted above");
            }
        }
        g
    }

    /// Merge another graph into this one, consolidating nodes and links that
    /// share ids.
    pub fn merge(&mut self, other: &SocialGraph) {
        for n in other.nodes() {
            self.add_node(n.clone());
        }
        for l in other.links() {
            // Endpoints are guaranteed present because other is well-formed
            // and we just merged all of its nodes.
            self.add_link(l.clone()).expect("merged endpoints present");
        }
    }

    /// Highest node and link ids present (0 when empty); used to seed
    /// [`IdGen::starting_after`] so derived links never collide.
    pub fn max_ids(&self) -> (u64, u64) {
        let n = self.nodes.keys().map(|i| i.0).max().unwrap_or(0);
        let l = self.links.keys().map(|i| i.0).max().unwrap_or(0);
        (n, l)
    }

    /// An [`IdGen`] that will never collide with ids already in this graph.
    pub fn id_gen(&self) -> IdGen {
        let (n, l) = self.max_ids();
        IdGen::starting_after(n, l)
    }

    /// Check internal invariants (every link's endpoints exist, adjacency
    /// indexes agree with the link store). Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<()> {
        for l in self.links.values() {
            if !self.nodes.contains_key(&l.src) {
                return Err(GraphError::MissingNode(l.src));
            }
            if !self.nodes.contains_key(&l.tgt) {
                return Err(GraphError::MissingNode(l.tgt));
            }
            let out_ok = self.out.get(&l.src).is_some_and(|v| v.contains(&l.id));
            let in_ok = self.inc.get(&l.tgt).is_some_and(|v| v.contains(&l.id));
            if !out_ok || !in_ok {
                return Err(GraphError::Invariant(format!(
                    "adjacency index out of sync for {}",
                    l.id
                )));
            }
        }
        for (nid, lids) in self.out.iter().chain(self.inc.iter()) {
            for lid in lids {
                if !self.links.contains_key(lid) {
                    return Err(GraphError::Invariant(format!(
                        "adjacency of {nid} references removed link {lid}"
                    )));
                }
            }
        }
        Ok(())
    }
}

impl PartialEq for SocialGraph {
    /// Two graphs are equal when they contain the same node ids and link ids
    /// with equal attributes and scores (iteration order is irrelevant).
    fn eq(&self, other: &Self) -> bool {
        if self.node_count() != other.node_count() || self.link_count() != other.link_count() {
            return false;
        }
        self.nodes.iter().all(|(id, n)| other.nodes.get(id) == Some(n))
            && self.links.iter().all(|(id, l)| other.links.get(id) == Some(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn user(id: u64, name: &str) -> Node {
        Node::new(NodeId(id), ["user"]).with_attr("name", name)
    }
    fn item(id: u64, name: &str) -> Node {
        Node::new(NodeId(id), ["item"]).with_attr("name", name)
    }

    fn small_graph() -> SocialGraph {
        let mut g = SocialGraph::new();
        g.add_node(user(1, "John"));
        g.add_node(user(2, "Mary"));
        g.add_node(item(10, "Denver"));
        g.add_node(item(11, "Coors Field"));
        g.add_link(Link::new(LinkId(100), NodeId(1), NodeId(2), ["connect", "friend"])).unwrap();
        g.add_link(
            Link::new(LinkId(101), NodeId(1), NodeId(10), ["act", "tag"])
                .with_attr("tags", Value::parse_list("rockies baseball")),
        )
        .unwrap();
        g.add_link(Link::new(LinkId(102), NodeId(2), NodeId(11), ["act", "visit"])).unwrap();
        g
    }

    #[test]
    fn counts_and_lookup() {
        let g = small_graph();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.link_count(), 3);
        assert!(g.has_node(NodeId(1)));
        assert!(!g.has_node(NodeId(99)));
        assert_eq!(g.node(NodeId(10)).unwrap().name(), Some("Denver"));
        assert!(g.has_link(LinkId(101)));
        g.check_invariants().unwrap();
    }

    #[test]
    fn add_link_requires_endpoints() {
        let mut g = SocialGraph::new();
        g.add_node(user(1, "John"));
        let err = g.add_link(Link::new(LinkId(1), NodeId(1), NodeId(2), ["friend"])).unwrap_err();
        assert_eq!(err, GraphError::MissingNode(NodeId(2)));
    }

    #[test]
    fn add_link_conflicting_endpoints_rejected() {
        let mut g = small_graph();
        let err = g.add_link(Link::new(LinkId(100), NodeId(2), NodeId(1), ["friend"])).unwrap_err();
        assert!(matches!(err, GraphError::ConflictingLink { .. }));
    }

    #[test]
    fn duplicate_node_is_consolidated() {
        let mut g = small_graph();
        g.add_node(Node::new(NodeId(1), ["traveler"]).with_attr("interests", "baseball"));
        let n = g.node(NodeId(1)).unwrap();
        assert!(n.has_type("user"));
        assert!(n.has_type("traveler"));
        assert_eq!(n.name(), Some("John"));
    }

    #[test]
    fn adjacency_and_degrees() {
        let g = small_graph();
        assert_eq!(g.out_degree(NodeId(1)), 2);
        assert_eq!(g.in_degree(NodeId(1)), 0);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.in_degree(NodeId(10)), 1);
        let neigh: Vec<NodeId> = g.out_neighbors(NodeId(1)).collect();
        assert!(neigh.contains(&NodeId(2)));
        assert!(neigh.contains(&NodeId(10)));
    }

    #[test]
    fn neighbors_via_type() {
        let g = small_graph();
        let friends = g.neighbors_via(NodeId(1), "friend");
        assert_eq!(friends.len(), 1);
        assert!(friends.contains(&NodeId(2)));
        let tagged = g.neighbors_via(NodeId(1), "tag");
        assert!(tagged.contains(&NodeId(10)));
    }

    #[test]
    fn remove_node_cascades_to_links() {
        let mut g = small_graph();
        g.remove_node(NodeId(1));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 1); // only Mary -> Coors Field remains
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_link_keeps_nodes() {
        let mut g = small_graph();
        g.remove_link(LinkId(100));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn induced_by_links_brings_endpoints() {
        let g = small_graph();
        let sub = g.induced_by_links([LinkId(101)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.link_count(), 1);
        assert!(sub.has_node(NodeId(1)));
        assert!(sub.has_node(NodeId(10)));
    }

    #[test]
    fn induced_by_nodes_requires_both_endpoints() {
        let g = small_graph();
        let sub = g.induced_by_nodes([NodeId(1), NodeId(2)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.link_count(), 1); // only the friendship link survives
        let sub2 = g.induced_by_nodes([NodeId(1), NodeId(11)]);
        assert_eq!(sub2.link_count(), 0);
    }

    #[test]
    fn null_graph_of_nodes() {
        let g = small_graph();
        let null = g.null_graph_of([NodeId(1), NodeId(10), NodeId(999)]);
        assert_eq!(null.node_count(), 2);
        assert!(null.is_null_graph());
    }

    #[test]
    fn merge_consolidates() {
        let mut a = small_graph();
        let mut b = SocialGraph::new();
        b.add_node(user(1, "John").with_attr("interests", "baseball"));
        b.add_node(item(12, "B's Ballpark Museum"));
        b.add_link(Link::new(LinkId(200), NodeId(1), NodeId(12), ["act", "visit"])).unwrap();
        a.merge(&b);
        assert_eq!(a.node_count(), 5);
        assert_eq!(a.link_count(), 4);
        assert!(a.node(NodeId(1)).unwrap().attrs.contains("interests"));
        a.check_invariants().unwrap();
    }

    #[test]
    fn equality_ignores_order() {
        let a = small_graph();
        let b = small_graph();
        assert_eq!(a, b);
        let mut c = small_graph();
        c.remove_link(LinkId(102));
        assert_ne!(a, c);
    }

    #[test]
    fn max_ids_and_id_gen() {
        let g = small_graph();
        assert_eq!(g.max_ids(), (11, 102));
        let mut gen = g.id_gen();
        assert_eq!(gen.node_id(), NodeId(12));
        assert_eq!(gen.link_id(), LinkId(103));
    }

    #[test]
    fn retain_links_filters() {
        let mut g = small_graph();
        g.retain_links(|l| l.has_type("act"));
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn nodes_of_type_iterates() {
        let g = small_graph();
        assert_eq!(g.nodes_of_type("user").count(), 2);
        assert_eq!(g.nodes_of_type("item").count(), 2);
        assert_eq!(g.links_of_type("act").count(), 2);
    }
}
