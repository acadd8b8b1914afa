//! Selection conditions (paper §5.1).
//!
//! A condition `C` consists of a list of *structural conditions* (e.g.
//! `{type='city', rating ≥ 0.5}`) and a set of *keywords* (e.g.
//! `"Denver attraction"`). A node (or link) satisfies a structural condition
//! `att = v1,…,vk` when its value set for `att` is a superset of
//! `{v1,…,vk}`; numeric comparisons (`≥`, `≤`, `>`, `<`, `≠`) are also
//! supported, as used in the paper's examples (`rating ≥ 0.5`, `id ≠ 101`,
//! `sim > 0.5`).

use socialscope_graph::{AttrMap, HasAttrs, Link, Node, Value};

/// Comparison operator of a structural condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// Multi-valued superset equality (the paper's default `att = v1,…,vk`).
    Equals,
    /// Numeric inequality `att ≠ v` (e.g. `id ≠ 101`).
    NotEquals,
    /// Numeric `att ≥ v`.
    GreaterOrEqual,
    /// Numeric `att > v`.
    Greater,
    /// Numeric `att ≤ v`.
    LessOrEqual,
    /// Numeric `att < v`.
    Less,
}

/// A single structural condition over an attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralCondition {
    /// Attribute name; the pseudo-attribute `id` refers to the element id.
    pub attr: String,
    /// Comparison operator.
    pub cmp: Comparison,
    /// Required value(s).
    pub value: Value,
}

impl StructuralCondition {
    /// Superset-equality condition `attr = value(s)`.
    pub fn equals(attr: impl Into<String>, value: impl Into<Value>) -> Self {
        StructuralCondition { attr: attr.into(), cmp: Comparison::Equals, value: value.into() }
    }

    /// Numeric comparison condition.
    pub fn compare(attr: impl Into<String>, cmp: Comparison, value: impl Into<Value>) -> Self {
        StructuralCondition { attr: attr.into(), cmp, value: value.into() }
    }

    /// Evaluate the condition against an attribute map, with the element id
    /// supplied separately so that conditions such as `id = 101` and
    /// `id ≠ 101` from the paper's examples work even though `id` is not a
    /// stored attribute.
    pub fn eval(&self, attrs: &AttrMap, element_id: u64) -> bool {
        if self.attr == "id" {
            let required = match self.value.as_f64() {
                Some(v) => v,
                None => return false,
            };
            return compare_f64(element_id as f64, self.cmp, required);
        }
        match self.cmp {
            Comparison::Equals => attrs.satisfies_equals(&self.attr, &self.value),
            _ => {
                let actual = match attrs.get_f64(&self.attr) {
                    Some(v) => v,
                    None => return false,
                };
                let required = match self.value.as_f64() {
                    Some(v) => v,
                    None => return false,
                };
                compare_f64(actual, self.cmp, required)
            }
        }
    }
}

fn compare_f64(actual: f64, cmp: Comparison, required: f64) -> bool {
    match cmp {
        Comparison::Equals => actual == required,
        Comparison::NotEquals => actual != required,
        Comparison::GreaterOrEqual => actual >= required,
        Comparison::Greater => actual > required,
        Comparison::LessOrEqual => actual <= required,
        Comparison::Less => actual < required,
    }
}

/// A full selection condition: structural conditions plus keywords.
///
/// * All structural conditions must be satisfied (Boolean semantics,
///   paper §4).
/// * When keywords are present, the element must match at least one keyword
///   in its attribute text; the *degree* of the match is what the scoring
///   function turns into a relevance score.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Condition {
    /// Structural predicates, all of which must hold.
    pub structural: Vec<StructuralCondition>,
    /// Free-text keywords used for semantic relevance.
    pub keywords: Vec<String>,
}

impl Condition {
    /// The empty condition (matches everything).
    pub fn any() -> Self {
        Condition::default()
    }

    /// A condition with a single superset-equality structural predicate.
    pub fn on_attr(attr: impl Into<String>, value: impl Into<Value>) -> Self {
        Condition {
            structural: vec![StructuralCondition::equals(attr, value)],
            keywords: Vec::new(),
        }
    }

    /// A condition with the given keywords only.
    pub fn keywords<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Condition {
            structural: Vec::new(),
            keywords: words.into_iter().map(|w| w.into().to_lowercase()).collect(),
        }
    }

    /// Builder: add a superset-equality structural predicate.
    pub fn and_attr(mut self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.structural.push(StructuralCondition::equals(attr, value));
        self
    }

    /// Builder: add a comparison structural predicate.
    pub fn and_compare(
        mut self,
        attr: impl Into<String>,
        cmp: Comparison,
        value: impl Into<Value>,
    ) -> Self {
        self.structural.push(StructuralCondition::compare(attr, cmp, value));
        self
    }

    /// Builder: add keywords.
    pub fn and_keywords<I, S>(mut self, words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.keywords.extend(words.into_iter().map(|w| w.into().to_lowercase()));
        self
    }

    /// Conjunction of two conditions (used by the optimizer's
    /// selection-fusion rule).
    pub fn and(mut self, other: &Condition) -> Condition {
        self.structural.extend(other.structural.iter().cloned());
        for k in &other.keywords {
            if !self.keywords.contains(k) {
                self.keywords.push(k.clone());
            }
        }
        self
    }

    /// Whether the condition has neither structural predicates nor keywords.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty() && self.keywords.is_empty()
    }

    /// Core satisfaction check against an attribute map + element id.
    pub fn satisfied_by_attrs(&self, attrs: &AttrMap, element_id: u64) -> bool {
        if !self.structural.iter().all(|c| c.eval(attrs, element_id)) {
            return false;
        }
        if self.keywords.is_empty() {
            return true;
        }
        let tokens = attrs.all_tokens();
        self.keywords.iter().any(|k| tokens.iter().any(|t| t == k || t.contains(k.as_str())))
    }

    /// Number of keywords present in the element's attribute text (used by
    /// the default scoring function).
    pub fn keyword_matches(&self, attrs: &AttrMap) -> usize {
        if self.keywords.is_empty() {
            return 0;
        }
        let tokens = attrs.all_tokens();
        self.keywords
            .iter()
            .filter(|k| tokens.iter().any(|t| t == *k || t.contains(k.as_str())))
            .count()
    }

    /// Satisfaction for a node.
    pub fn satisfied_by_node(&self, node: &Node) -> bool {
        self.satisfied_by_attrs(node.attrs(), node.id.raw())
    }

    /// Satisfaction for a link.
    pub fn satisfied_by_link(&self, link: &Link) -> bool {
        self.satisfied_by_attrs(link.attrs(), link.id.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::{LinkId, NodeId};

    fn denver() -> Node {
        Node::new(NodeId(2), ["item", "city"])
            .with_attr("name", "Denver")
            .with_attr("keywords", Value::multi(["skiing", "baseball"]))
            .with_attr("rating", 0.8)
    }

    #[test]
    fn structural_equality_superset() {
        let n = denver();
        assert!(Condition::on_attr("type", "city").satisfied_by_node(&n));
        assert!(Condition::on_attr("type", Value::multi(["item", "city"])).satisfied_by_node(&n));
        assert!(!Condition::on_attr("type", "user").satisfied_by_node(&n));
    }

    #[test]
    fn numeric_comparisons() {
        let n = denver();
        let c = Condition::any().and_compare("rating", Comparison::GreaterOrEqual, 0.5);
        assert!(c.satisfied_by_node(&n));
        let c = Condition::any().and_compare("rating", Comparison::Greater, 0.9);
        assert!(!c.satisfied_by_node(&n));
        let c = Condition::any().and_compare("missing", Comparison::Greater, 0.0);
        assert!(!c.satisfied_by_node(&n));
    }

    #[test]
    fn id_pseudo_attribute() {
        let n = denver();
        assert!(Condition::on_attr("id", 2i64).satisfied_by_node(&n));
        assert!(!Condition::on_attr("id", 3i64).satisfied_by_node(&n));
        let ne = Condition::any().and_compare("id", Comparison::NotEquals, 2i64);
        assert!(!ne.satisfied_by_node(&n));
        let ne = Condition::any().and_compare("id", Comparison::NotEquals, 7i64);
        assert!(ne.satisfied_by_node(&n));
    }

    #[test]
    fn keyword_soft_matching() {
        let n = denver();
        let c = Condition::keywords(["denver", "attraction"]);
        assert!(c.satisfied_by_node(&n));
        assert_eq!(c.keyword_matches(n.attrs()), 1);
        let c = Condition::keywords(["paris"]);
        assert!(!c.satisfied_by_node(&n));
    }

    #[test]
    fn combined_structural_and_keywords() {
        let n = denver();
        let c = Condition::on_attr("type", "city").and_keywords(["baseball"]);
        assert!(c.satisfied_by_node(&n));
        let c = Condition::on_attr("type", "user").and_keywords(["baseball"]);
        assert!(!c.satisfied_by_node(&n));
    }

    #[test]
    fn conjunction_of_conditions() {
        let a = Condition::on_attr("type", "city");
        let b = Condition::keywords(["skiing"]).and_attr("rating", 0.8);
        let c = a.and(&b);
        assert_eq!(c.structural.len(), 2);
        assert_eq!(c.keywords.len(), 1);
        assert!(c.satisfied_by_node(&denver()));
    }

    #[test]
    fn link_conditions() {
        let l = Link::new(LinkId(12), NodeId(1), NodeId(2), ["act", "tag"])
            .with_attr("tags", Value::parse_list("rockies baseball"));
        assert!(Condition::on_attr("type", "tag").satisfied_by_link(&l));
        assert!(Condition::on_attr("tags", "rockies").satisfied_by_link(&l));
        assert!(!Condition::on_attr("type", "friend").satisfied_by_link(&l));
        assert!(Condition::on_attr("id", 12i64).satisfied_by_link(&l));
    }

    #[test]
    fn empty_condition_matches_everything() {
        assert!(Condition::any().satisfied_by_node(&denver()));
        assert!(Condition::any().is_empty());
    }
}
