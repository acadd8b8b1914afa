//! Attribute values.
//!
//! SocialScope adopts a flexible, schema-less typing system where an
//! attribute may hold *multiple* values (paper §4): `type = "user, traveler"`,
//! `tags = "rockies baseball"`. A [`Value`] is therefore an ordered multi-set
//! of [`Scalar`]s; satisfaction of a structural condition `att = v1,…,vk`
//! checks that the node's (or link's) value set is a *superset* of
//! `{v1,…,vk}` (paper Def. 1).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single scalar attribute value.
///
/// Floats are wrapped with total ordering (`f64::total_cmp`) so scalars can
/// live in ordered sets and be compared deterministically.
#[derive(Debug, Clone)]
pub enum Scalar {
    /// A string value (the most common case: names, tags, keywords).
    Str(String),
    /// A signed integer value.
    Int(i64),
    /// A floating point value (scores, ratings, similarities).
    Float(f64),
    /// A boolean flag.
    Bool(bool),
}

impl Scalar {
    /// String form used for keyword matching and display.
    pub fn as_text(&self) -> String {
        match self {
            Scalar::Str(s) => s.clone(),
            Scalar::Int(i) => i.to_string(),
            Scalar::Float(f) => format!("{f}"),
            Scalar::Bool(b) => b.to_string(),
        }
    }

    /// Numeric view of the scalar, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(*i as f64),
            Scalar::Float(f) => Some(*f),
            Scalar::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Scalar::Str(s) => s.parse::<f64>().ok(),
        }
    }

    /// String view of the scalar, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    fn discriminant(&self) -> u8 {
        match self {
            Scalar::Str(_) => 0,
            Scalar::Int(_) => 1,
            Scalar::Float(_) => 2,
            Scalar::Bool(_) => 3,
        }
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Scalar::Str(a), Scalar::Str(b)) => a == b,
            (Scalar::Int(a), Scalar::Int(b)) => a == b,
            (Scalar::Bool(a), Scalar::Bool(b)) => a == b,
            (Scalar::Float(a), Scalar::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            // Cross-type numeric equality: `Int(3)` equals `Float(3.0)`.
            (Scalar::Int(a), Scalar::Float(b)) | (Scalar::Float(b), Scalar::Int(a)) => {
                (*a as f64).total_cmp(b) == Ordering::Equal
            }
            _ => false,
        }
    }
}

impl Eq for Scalar {}

impl PartialOrd for Scalar {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scalar {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Scalar::Str(a), Scalar::Str(b)) => a.cmp(b),
            (Scalar::Int(a), Scalar::Int(b)) => a.cmp(b),
            (Scalar::Bool(a), Scalar::Bool(b)) => a.cmp(b),
            (Scalar::Float(a), Scalar::Float(b)) => a.total_cmp(b),
            (Scalar::Int(a), Scalar::Float(b)) => (*a as f64).total_cmp(b),
            (Scalar::Float(a), Scalar::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.discriminant().cmp(&other.discriminant()),
        }
    }
}

impl Hash for Scalar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Scalar::Str(s) => {
                0u8.hash(state);
                s.hash(state);
            }
            Scalar::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Scalar::Float(f) => {
                // Hash via bits of the canonical representation so that
                // Int(3) and Float(3.0) — which compare equal — hash equal.
                if f.fract() == 0.0 && f.is_finite() && f.abs() < i64::MAX as f64 {
                    1u8.hash(state);
                    (*f as i64).hash(state);
                } else {
                    2u8.hash(state);
                    f.to_bits().hash(state);
                }
            }
            Scalar::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_text())
    }
}

impl From<&str> for Scalar {
    fn from(s: &str) -> Self {
        Scalar::Str(s.to_string())
    }
}
impl From<String> for Scalar {
    fn from(s: String) -> Self {
        Scalar::Str(s)
    }
}
impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::Int(v)
    }
}
impl From<u64> for Scalar {
    fn from(v: u64) -> Self {
        Scalar::Int(v as i64)
    }
}
impl From<i32> for Scalar {
    fn from(v: i32) -> Self {
        Scalar::Int(v as i64)
    }
}
impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::Float(v)
    }
}
impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

/// A multi-valued attribute value: an ordered list of scalars with set
/// semantics for condition satisfaction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Value {
    values: Vec<Scalar>,
}

impl Value {
    /// The empty value (no scalars).
    pub fn empty() -> Self {
        Value { values: Vec::new() }
    }

    /// A single-scalar value.
    pub fn single(s: impl Into<Scalar>) -> Self {
        Value { values: vec![s.into()] }
    }

    /// A multi-scalar value built from an iterator.
    pub fn multi<I, S>(vals: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Scalar>,
    {
        Value { values: vals.into_iter().map(Into::into).collect() }
    }

    /// Parse a comma/whitespace separated string into a multi-valued string
    /// value, mirroring the paper's notation `type=‘user, traveler’`.
    pub fn parse_list(s: &str) -> Self {
        Value {
            values: s
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|t| !t.is_empty())
                .map(|t| Scalar::Str(t.to_string()))
                .collect(),
        }
    }

    /// Number of scalars held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no scalars are held.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate the scalars.
    pub fn iter(&self) -> impl Iterator<Item = &Scalar> {
        self.values.iter()
    }

    /// Append a scalar (duplicates are kept out: a value behaves as a set).
    pub fn push(&mut self, s: impl Into<Scalar>) {
        let s = s.into();
        if !self.values.contains(&s) {
            self.values.push(s);
        }
    }

    /// Merge another value into this one (set union, order-preserving).
    pub fn merge(&mut self, other: &Value) {
        for s in &other.values {
            if !self.values.contains(s) {
                self.values.push(s.clone());
            }
        }
    }

    /// Whether this value contains the given scalar.
    pub fn contains(&self, s: &Scalar) -> bool {
        self.values.contains(s)
    }

    /// Superset check used by structural-condition satisfaction (Def. 1):
    /// every scalar of `required` must appear in this value.
    pub fn is_superset_of(&self, required: &Value) -> bool {
        required.values.iter().all(|s| self.values.contains(s))
    }

    /// First scalar, if any.
    pub fn first(&self) -> Option<&Scalar> {
        self.values.first()
    }

    /// First scalar as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        self.values.first().and_then(Scalar::as_str)
    }

    /// First scalar as a float, if convertible.
    pub fn as_f64(&self) -> Option<f64> {
        self.values.first().and_then(Scalar::as_f64)
    }

    /// All scalars rendered as a whitespace-joined text (for keyword search).
    pub fn text(&self) -> String {
        self.values.iter().map(Scalar::as_text).collect::<Vec<_>>().join(" ")
    }

    /// All string scalars, lowercased, as owned tokens.
    pub fn string_tokens(&self) -> Vec<String> {
        self.values.iter().filter_map(Scalar::as_str).map(|s| s.to_lowercase()).collect()
    }

    /// Consume into the underlying scalar list.
    pub fn into_scalars(self) -> Vec<Scalar> {
        self.values
    }

    /// Borrow the underlying scalar list.
    pub fn scalars(&self) -> &[Scalar] {
        &self.values
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(Scalar::as_text).collect();
        write!(f, "{}", parts.join(", "))
    }
}

impl<T: Into<Scalar>> From<T> for Value {
    fn from(v: T) -> Self {
        Value::single(v)
    }
}

impl From<Vec<&str>> for Value {
    fn from(v: Vec<&str>) -> Self {
        Value::multi(v)
    }
}

impl From<&[&str]> for Value {
    fn from(v: &[&str]) -> Self {
        Value::multi(v.iter().copied())
    }
}

impl FromIterator<Scalar> for Value {
    fn from_iter<I: IntoIterator<Item = Scalar>>(iter: I) -> Self {
        let mut v = Value::empty();
        for s in iter {
            v.push(s);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_numeric_cross_type_equality() {
        assert_eq!(Scalar::Int(3), Scalar::Float(3.0));
        assert_ne!(Scalar::Int(3), Scalar::Float(3.5));
        assert_ne!(Scalar::Str("3".into()), Scalar::Int(3));
    }

    #[test]
    fn scalar_ordering_is_total() {
        let mut v =
            vec![Scalar::from(2.5), Scalar::from(1i64), Scalar::from("abc"), Scalar::from(true)];
        v.sort();
        // Sorting must not panic and must be deterministic.
        let v2 = {
            let mut w = v.clone();
            w.sort();
            w
        };
        assert_eq!(v, v2);
    }

    #[test]
    fn parse_list_splits_commas_and_spaces() {
        let v = Value::parse_list("user, traveler");
        assert_eq!(v.len(), 2);
        assert!(v.contains(&Scalar::from("user")));
        assert!(v.contains(&Scalar::from("traveler")));

        let tags = Value::parse_list("rockies baseball");
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn superset_semantics() {
        let have = Value::multi(["user", "traveler", "expert"]);
        let need = Value::multi(["user", "expert"]);
        assert!(have.is_superset_of(&need));
        assert!(!need.is_superset_of(&have));
        assert!(have.is_superset_of(&Value::empty()));
    }

    #[test]
    fn push_deduplicates() {
        let mut v = Value::empty();
        v.push("a");
        v.push("a");
        v.push("b");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn merge_unions_values() {
        let mut a = Value::multi(["x", "y"]);
        let b = Value::multi(["y", "z"]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn text_and_tokens() {
        let v = Value::multi(["Rockies", "Baseball"]);
        assert_eq!(v.text(), "Rockies Baseball");
        assert_eq!(v.string_tokens(), vec!["rockies", "baseball"]);
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::single(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::single(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::single("0.25").as_f64(), Some(0.25));
        assert_eq!(Value::single("abc").as_f64(), None);
    }
}
