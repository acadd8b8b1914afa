//! Links of the social content graph, and link directions.

use crate::attrs::{AttrMap, HasAttrs};
use crate::id::{LinkId, NodeId};
use crate::types::TYPE_ATTR;
use crate::value::Value;
use std::fmt;

/// Which endpoint of a link a directional condition refers to
/// (`d = src | tgt`, paper §5.3–5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The source endpoint of the link.
    Src,
    /// The target endpoint of the link.
    Tgt,
}

impl Direction {
    /// The opposite direction (written `δ d̄` in the paper).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Src => Direction::Tgt,
            Direction::Tgt => Direction::Src,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Src => write!(f, "src"),
            Direction::Tgt => write!(f, "tgt"),
        }
    }
}

/// A link: a connection or activity between two entities (paper §4), e.g.
/// a friendship, a tagging action with its tags and date, a visit, a derived
/// `match` similarity link, or a `belong` topic-membership link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Unique link identifier within the social content site.
    pub id: LinkId,
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub tgt: NodeId,
    /// Structural attributes (always include `type`).
    pub attrs: AttrMap,
    /// Relevance score attached by a scoring function, if any.
    pub score: Option<f64>,
}

impl Link {
    /// Create a link with the given id, endpoints and type values.
    pub fn new<I, S>(id: LinkId, src: NodeId, tgt: NodeId, types: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut attrs = AttrMap::new();
        attrs.set(TYPE_ATTR, Value::multi(types.into_iter().map(|s| s.into().to_lowercase())));
        Link { id, src, tgt, attrs, score: None }
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

    /// The endpoint selected by a direction: `endpoint(Src) = src`,
    /// `endpoint(Tgt) = tgt`. This is the `ℓ.δd` notation of the paper.
    #[inline]
    pub fn endpoint(&self, d: Direction) -> NodeId {
        match d {
            Direction::Src => self.src,
            Direction::Tgt => self.tgt,
        }
    }

    /// The endpoint opposite to the given direction (`ℓ.δd̄`).
    #[inline]
    pub fn other_endpoint(&self, d: Direction) -> NodeId {
        self.endpoint(d.opposite())
    }

    /// Whether the link touches the given node at either endpoint.
    pub fn touches(&self, node: NodeId) -> bool {
        self.src == node || self.tgt == node
    }

    /// Merge another link (same id) into this one: attributes are unioned and
    /// the higher score wins. Endpoints must agree.
    pub fn consolidate(&mut self, other: &Link) {
        debug_assert_eq!(self.id, other.id, "consolidate requires matching ids");
        debug_assert_eq!(self.src, other.src);
        debug_assert_eq!(self.tgt, other.tgt);
        self.attrs.merge(&other.attrs);
        self.score = match (self.score, other.score) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl HasAttrs for Link {
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

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}->{} {}", self.id, self.src, self.tgt, self.attrs)?;
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
    fn direction_opposite() {
        assert_eq!(Direction::Src.opposite(), Direction::Tgt);
        assert_eq!(Direction::Tgt.opposite(), Direction::Src);
        assert_eq!(Direction::Src.to_string(), "src");
    }

    #[test]
    fn endpoints_by_direction() {
        let l = Link::new(LinkId(1), NodeId(10), NodeId(20), ["act", "tag"]);
        assert_eq!(l.endpoint(Direction::Src), NodeId(10));
        assert_eq!(l.endpoint(Direction::Tgt), NodeId(20));
        assert_eq!(l.other_endpoint(Direction::Src), NodeId(20));
        assert!(l.touches(NodeId(10)));
        assert!(!l.touches(NodeId(30)));
    }

    #[test]
    fn link_types_from_paper_example() {
        // l12 = {id=12; type='act, tag'; date='2008-8-2'; tags='rockies baseball'}
        let l = Link::new(LinkId(12), NodeId(1), NodeId(2), ["act", "tag"])
            .with_attr("date", "2008-8-2")
            .with_attr("tags", Value::parse_list("rockies baseball"));
        assert!(l.has_type("act"));
        assert!(l.has_type("tag"));
        assert_eq!(l.attrs.get("tags").unwrap().len(), 2);
    }

    #[test]
    fn consolidate_links() {
        let mut a = Link::new(LinkId(3), NodeId(1), NodeId(2), ["friend"]).with_score(0.2);
        let b = Link::new(LinkId(3), NodeId(1), NodeId(2), ["contact"]).with_score(0.9);
        a.consolidate(&b);
        assert!(a.has_type("friend"));
        assert!(a.has_type("contact"));
        assert_eq!(a.score, Some(0.9));
    }
}
