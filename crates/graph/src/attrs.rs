//! Structural attributes: ordered attribute → multi-value maps shared by
//! nodes and links, plus the [`HasAttrs`] trait through which the algebra
//! treats both uniformly.

use crate::value::{Scalar, Value};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered map from attribute name to (multi-)value.
///
/// A `BTreeMap` keeps iteration deterministic, which matters both for
/// reproducible experiments and for stable test expectations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttrMap {
    map: BTreeMap<String, Value>,
}

impl AttrMap {
    /// An empty attribute map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fetch an attribute's value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.map.get(name)
    }

    /// Fetch an attribute's value mutably, creating it empty when absent.
    pub fn entry(&mut self, name: &str) -> &mut Value {
        self.map.entry(name.to_string()).or_default()
    }

    /// Whether an attribute is present.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Set (replace) an attribute's value.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.map.insert(name.into(), value.into());
    }

    /// Add a scalar to a (possibly absent) attribute, preserving existing
    /// values (set semantics).
    pub fn add(&mut self, name: impl Into<String>, scalar: impl Into<Scalar>) {
        self.map.entry(name.into()).or_default().push(scalar);
    }

    /// Remove an attribute, returning its value when present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.map.remove(name)
    }

    /// Iterate `(name, value)` pairs in attribute-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Attribute names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Merge another attribute map into this one: values of shared
    /// attributes are unioned, new attributes are inserted. This is the
    /// consolidation rule used when set operators meet the same id twice
    /// (paper Def. 3).
    pub fn merge(&mut self, other: &AttrMap) {
        for (k, v) in &other.map {
            match self.map.get_mut(k) {
                Some(existing) => existing.merge(v),
                None => {
                    self.map.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Superset-semantics satisfaction of a single structural condition
    /// `att = v1,…,vk` (paper §5.1): the stored value set for `att` must be
    /// a superset of `{v1,…,vk}`.
    pub fn satisfies_equals(&self, attr: &str, required: &Value) -> bool {
        match self.map.get(attr) {
            Some(have) => have.is_superset_of(required),
            None => false,
        }
    }

    /// Full text of all attribute values (whitespace joined), used by default
    /// keyword scoring functions.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for (i, (_, v)) in self.map.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&v.text());
        }
        out
    }

    /// Lowercased tokens of every string-valued scalar across all attributes.
    pub fn all_tokens(&self) -> Vec<String> {
        let mut toks = Vec::new();
        for v in self.map.values() {
            for s in v.iter() {
                if let Some(text) = s.as_str() {
                    for t in text.split_whitespace() {
                        toks.push(t.to_lowercase());
                    }
                }
            }
        }
        toks
    }

    /// Convenience: get the first scalar of an attribute as a string.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Convenience: get the first scalar of an attribute as a float.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }
}

impl fmt::Display for AttrMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for AttrMap {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = AttrMap::new();
        for (k, v) in iter {
            m.set(k, v);
        }
        m
    }
}

/// Uniform access to the attributes and score of a graph element. Both
/// [`crate::Node`] and [`crate::Link`] implement this, which lets the algebra
/// express conditions and scoring once for both selection operators.
pub trait HasAttrs {
    /// Borrow the structural attributes.
    fn attrs(&self) -> &AttrMap;
    /// Borrow the structural attributes mutably.
    fn attrs_mut(&mut self) -> &mut AttrMap;
    /// Relevance score attached by a scoring function, if any.
    fn score(&self) -> Option<f64>;
    /// Attach a relevance score.
    fn set_score(&mut self, score: f64);

    /// The values of the mandatory `type` attribute, lowercased.
    fn type_values(&self) -> Vec<String> {
        self.attrs().get(crate::types::TYPE_ATTR).map(|v| v.string_tokens()).unwrap_or_default()
    }

    /// Whether the element carries the given type value.
    fn has_type(&self, ty: &str) -> bool {
        self.type_values().iter().any(|t| t == &ty.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut a = AttrMap::new();
        a.set("name", "Denver");
        a.set("rating", 0.8);
        assert_eq!(a.get_str("name"), Some("Denver"));
        assert_eq!(a.get_f64("rating"), Some(0.8));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn satisfies_equals_superset() {
        let mut a = AttrMap::new();
        a.set("type", Value::multi(["item", "city"]));
        assert!(a.satisfies_equals("type", &Value::single("city")));
        assert!(a.satisfies_equals("type", &Value::multi(["item", "city"])));
        assert!(!a.satisfies_equals("type", &Value::single("user")));
        assert!(!a.satisfies_equals("missing", &Value::single("x")));
    }

    #[test]
    fn merge_unions_attribute_values() {
        let mut a = AttrMap::new();
        a.set("tags", Value::multi(["a", "b"]));
        a.set("name", "x");
        let mut b = AttrMap::new();
        b.set("tags", Value::multi(["b", "c"]));
        b.set("extra", 1i64);
        a.merge(&b);
        assert_eq!(a.get("tags").unwrap().len(), 3);
        assert_eq!(a.get_str("name"), Some("x"));
        assert!(a.contains("extra"));
    }

    #[test]
    fn full_text_and_tokens() {
        let mut a = AttrMap::new();
        a.set("name", "Coors Field");
        a.set("keywords", Value::multi(["baseball", "stadium"]));
        let text = a.full_text();
        assert!(text.contains("Coors Field"));
        assert!(text.contains("baseball"));
        let toks = a.all_tokens();
        assert!(toks.contains(&"coors".to_string()));
        assert!(toks.contains(&"stadium".to_string()));
    }

    #[test]
    fn from_iterator_builds_map() {
        let a: AttrMap = [("name", "John"), ("type", "user")].into_iter().collect();
        assert_eq!(a.get_str("name"), Some("John"));
        assert_eq!(a.get_str("type"), Some("user"));
    }

    #[test]
    fn add_appends_scalars() {
        let mut a = AttrMap::new();
        a.add("tags", "x");
        a.add("tags", "y");
        a.add("tags", "x");
        assert_eq!(a.get("tags").unwrap().len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let mut a = AttrMap::new();
        a.set("id", 1i64);
        a.set("type", Value::multi(["user", "traveler"]));
        let s = a.to_string();
        assert!(s.contains("type=user, traveler"));
    }
}
