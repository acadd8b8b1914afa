//! Nodes of the social content graph.

use crate::attrs::{AttrMap, HasAttrs};
use crate::id::NodeId;
use crate::types::TYPE_ATTR;
use crate::value::Value;
use std::fmt;

/// A node: a physical or abstract entity — a user, an item (destination,
/// article, URL, photo), a derived topic, or a group (paper §4).
///
/// A node carries a unique [`NodeId`], a schema-less [`AttrMap`] with the
/// mandatory multi-valued `type` attribute, and an optional relevance score
/// attached by a scoring function during selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique node identifier within the social content site.
    pub id: NodeId,
    /// Structural attributes (always include `type`).
    pub attrs: AttrMap,
    /// Relevance score attached by a scoring function, if any.
    pub score: Option<f64>,
}

impl Node {
    /// Create a node with the given id and type values.
    pub fn new<I, S>(id: NodeId, types: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut attrs = AttrMap::new();
        attrs.set(TYPE_ATTR, Value::multi(types.into_iter().map(|s| s.into().to_lowercase())));
        Node { id, attrs, score: None }
    }

    /// Builder-style attribute setter.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.attrs.set(name, value);
        self
    }

    /// Builder-style score setter.
    pub fn with_score(mut self, score: f64) -> Self {
        self.score = Some(score);
        self
    }

    /// Add a type value to the node's `type` attribute.
    pub fn add_type(&mut self, ty: &str) {
        self.attrs.add(TYPE_ATTR, ty.to_lowercase());
    }

    /// Convenience: the node's `name` attribute, when present.
    pub fn name(&self) -> Option<&str> {
        self.attrs.get_str("name")
    }

    /// Merge another node (with the same id) into this one: attributes are
    /// unioned and the higher score wins. This is the consolidation rule
    /// applied by set operators.
    pub fn consolidate(&mut self, other: &Node) {
        debug_assert_eq!(self.id, other.id, "consolidate requires matching ids");
        self.attrs.merge(&other.attrs);
        self.score = match (self.score, other.score) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl HasAttrs for Node {
    fn attrs(&self) -> &AttrMap {
        &self.attrs
    }
    fn attrs_mut(&mut self) -> &mut AttrMap {
        &mut self.attrs
    }
    fn score(&self) -> Option<f64> {
        self.score
    }
    fn set_score(&mut self, score: f64) {
        self.score = Some(score);
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id, self.attrs)?;
        if let Some(s) = self.score {
            write!(f, " score={s:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_gets_lowercased_types() {
        let n = Node::new(NodeId(1), ["User", "Traveler"]);
        assert!(n.has_type("user"));
        assert!(n.has_type("traveler"));
        assert!(!n.has_type("item"));
    }

    #[test]
    fn with_attr_and_name() {
        let n = Node::new(NodeId(2), ["item", "city"]).with_attr("name", "Denver");
        assert_eq!(n.name(), Some("Denver"));
        assert!(n.has_type("city"));
    }

    #[test]
    fn add_type_evolves_node() {
        let mut n = Node::new(NodeId(3), ["user"]);
        n.add_type("expert");
        assert!(n.has_type("expert"));
        assert!(n.has_type("user"));
    }

    #[test]
    fn consolidate_merges_attrs_and_takes_max_score() {
        let mut a =
            Node::new(NodeId(4), ["user"]).with_attr("interests", "baseball").with_score(0.3);
        let b = Node::new(NodeId(4), ["traveler"]).with_attr("interests", "skiing").with_score(0.7);
        a.consolidate(&b);
        assert!(a.has_type("user"));
        assert!(a.has_type("traveler"));
        assert_eq!(a.attrs.get("interests").unwrap().len(), 2);
        assert_eq!(a.score, Some(0.7));
    }

    #[test]
    fn consolidate_keeps_present_score_when_other_missing() {
        let mut a = Node::new(NodeId(5), ["user"]).with_score(0.4);
        let b = Node::new(NodeId(5), ["user"]);
        a.consolidate(&b);
        assert_eq!(a.score, Some(0.4));
    }

    #[test]
    fn display_includes_score() {
        let n = Node::new(NodeId(6), ["user"]).with_score(0.5);
        assert!(n.to_string().contains("score=0.5000"));
    }
}
