//! Node and link identifiers.
//!
//! Every node and link in a social content graph carries a unique id
//! (paper §4). Operators in the algebra match nodes and links *by id*,
//! which is why graph isomorphism never arises: two graphs derived from the
//! same site share the id space of that site.

use std::fmt;

/// Identifier of a node in a social content graph.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u64);

/// Identifier of a link in a social content graph.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinkId(pub u64);

impl NodeId {
    /// Raw numeric value of the id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl LinkId {
    /// Raw numeric value of the id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

impl From<u64> for LinkId {
    fn from(v: u64) -> Self {
        LinkId(v)
    }
}

/// Monotonic id allocator shared by [`crate::GraphBuilder`] and by algebra
/// operators that create new links (composition, link aggregation, pattern
/// aggregation).
///
/// Ids allocated by different `IdGen`s starting at different offsets never
/// collide as long as the offsets are chosen from disjoint ranges; the
/// algebra uses [`IdGen::starting_after`] seeded with the maximum id present
/// in its input graphs.
#[derive(Debug, Clone, Default)]
pub struct IdGen {
    next_node: u64,
    next_link: u64,
}

impl IdGen {
    /// A generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator whose first allocated ids are strictly greater than the
    /// given maxima.
    pub fn starting_after(max_node: u64, max_link: u64) -> Self {
        IdGen { next_node: max_node + 1, next_link: max_link + 1 }
    }

    /// Allocate a fresh node id.
    pub fn node_id(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        id
    }

    /// Allocate a fresh link id.
    pub fn link_id(&mut self) -> LinkId {
        let id = LinkId(self.next_link);
        self.next_link += 1;
        id
    }

    /// The next node id that would be allocated (without allocating it).
    pub fn peek_node(&self) -> NodeId {
        NodeId(self.next_node)
    }

    /// The next link id that would be allocated (without allocating it).
    pub fn peek_link(&self) -> LinkId {
        LinkId(self.next_link)
    }
}

/// Base of the id range reserved for *derived* links — links created by
/// algebra operators (composition, link aggregation, pattern aggregation)
/// rather than stored in a site. Site link ids are expected to stay below
/// this value (2^48 links is far beyond any realistic site), so derived
/// links never collide with stored links, and a process-wide counter keeps
/// independent derivations from colliding with each other.
pub const DERIVED_LINK_ID_BASE: u64 = 1 << 48;

static NEXT_DERIVED_LINK_ID: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(DERIVED_LINK_ID_BASE);

/// Allocate a fresh link id from the reserved derived-link range.
pub fn next_derived_link_id() -> LinkId {
    LinkId(NEXT_DERIVED_LINK_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
}

/// Whether a link id belongs to the derived-link range.
pub fn is_derived_link_id(id: LinkId) -> bool {
    id.0 >= DERIVED_LINK_ID_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_link_ids_are_fresh_and_flagged() {
        let a = next_derived_link_id();
        let b = next_derived_link_id();
        assert_ne!(a, b);
        assert!(is_derived_link_id(a));
        assert!(!is_derived_link_id(LinkId(42)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(LinkId(9).to_string(), "l9");
    }

    #[test]
    fn idgen_is_monotonic() {
        let mut g = IdGen::new();
        let a = g.node_id();
        let b = g.node_id();
        assert!(b > a);
        let l1 = g.link_id();
        let l2 = g.link_id();
        assert!(l2 > l1);
    }

    #[test]
    fn idgen_starting_after_skips_existing() {
        let mut g = IdGen::starting_after(100, 200);
        assert_eq!(g.node_id(), NodeId(101));
        assert_eq!(g.link_id(), LinkId(201));
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5).raw(), 5);
        assert_eq!(LinkId(6).raw(), 6);
    }
}
