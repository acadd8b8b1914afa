//! The query model (paper §4).
//!
//! Users interact with SocialScope by specifying a (possibly empty) query on
//! content and structure. Structural predicates are interpreted in the usual
//! Boolean sense and define the *scope* of the discovery; content keywords
//! feed semantic relevance; the querying user's identity feeds social
//! relevance. When the structural predicates are absent only semantic and
//! social relevance apply; when the whole query is empty only social
//! relevance applies.

use socialscope_algebra::{Condition, StructuralCondition};
use socialscope_graph::{NodeId, Value};

/// A user query against a social content site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserQuery {
    /// The user asking (anonymous queries carry `None` and receive no social
    /// relevance).
    pub user: Option<NodeId>,
    /// Free-text keywords.
    pub keywords: Vec<String>,
    /// Structural predicates constraining the scope (e.g. `type=destination`).
    pub structural: Vec<StructuralCondition>,
}

impl UserQuery {
    /// An empty query for a user (pure recommendation: social relevance
    /// only).
    pub fn empty_for(user: NodeId) -> Self {
        UserQuery { user: Some(user), ..UserQuery::default() }
    }

    /// A keyword query for a user, e.g. "Denver attractions".
    pub fn keywords_for(user: NodeId, text: &str) -> Self {
        UserQuery { user: Some(user), keywords: tokenize(text), structural: Vec::new() }
    }

    /// An anonymous keyword query (no social relevance).
    pub fn anonymous(text: &str) -> Self {
        UserQuery { user: None, keywords: tokenize(text), structural: Vec::new() }
    }

    /// Builder: add a structural predicate `attr = value`.
    pub fn with_structural(mut self, attr: &str, value: impl Into<Value>) -> Self {
        self.structural.push(StructuralCondition::equals(attr, value));
        self
    }

    /// Whether the query is completely empty (social relevance only).
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty() && self.structural.is_empty()
    }

    /// Whether the query carries structural predicates.
    pub fn has_structure(&self) -> bool {
        !self.structural.is_empty()
    }

    /// The algebra condition for the query's *scope*: structural predicates
    /// plus keywords (the keywords also drive scoring).
    pub fn scope_condition(&self) -> Condition {
        Condition { structural: self.structural.clone(), keywords: self.keywords.clone() }
    }

    /// The raw query text, re-joined.
    pub fn text(&self) -> String {
        self.keywords.join(" ")
    }
}

/// Lowercase whitespace tokenization used across the discovery layer.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split_whitespace()
        .map(|t| t.trim_matches(|c: char| !c.is_alphanumeric()).to_lowercase())
        .filter(|t| !t.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_normalizes_text() {
        assert_eq!(tokenize("Denver attractions!"), vec!["denver", "attractions"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("Things-to-do"), vec!["things-to-do"]);
    }

    #[test]
    fn query_constructors() {
        let q = UserQuery::keywords_for(NodeId(1), "Barcelona family trip with babies");
        assert_eq!(q.user, Some(NodeId(1)));
        assert_eq!(q.keywords.len(), 5);
        assert!(!q.is_empty());
        assert!(!q.has_structure());

        let empty = UserQuery::empty_for(NodeId(2));
        assert!(empty.is_empty());

        let anon = UserQuery::anonymous("American history");
        assert!(anon.user.is_none());
    }

    #[test]
    fn scope_condition_includes_structure_and_keywords() {
        let q = UserQuery::keywords_for(NodeId(1), "Denver attractions")
            .with_structural("type", "destination");
        let c = q.scope_condition();
        assert_eq!(c.structural.len(), 1);
        assert_eq!(c.keywords, vec!["denver", "attractions"]);
        assert!(q.has_structure());
        assert_eq!(q.text(), "denver attractions");
    }
}
