//! Aggregation functions: the classes SAF and NAF (paper Defs. 7 and 8).
//!
//! * **SAF** (set aggregate functions) map a set of links to a *set of
//!   scalars* by extracting an attribute from every link — e.g. the set of
//!   all distinct tags a user has assigned.
//! * **NAF** (numerical aggregate functions) are built from arithmetic, the
//!   constants 0 and 1, summation and product over a collection, and
//!   composition — `COUNT(X) = Σ_{x∈X} 1(x)` is the paper's own example.
//!
//! [`NafExpr`] implements the NAF grammar literally as an expression tree;
//! [`AggregateFn`] packages both classes (plus convenience built-ins such as
//! `Min`/`Max`/`Avg`, the constant-string assignment used by Example 5
//! step 6, and escape hatches for custom functions) behind a single type
//! used by the aggregation operators.
//!
//! Both classes may refer to the pseudo-attributes `src` and `tgt`, which
//! evaluate to the numeric id of the link's endpoint. That is how
//! Example 5's "collect the set of destinations a user has visited" is
//! expressed: a SAF over the `tgt` pseudo-attribute of `visit` links.

use socialscope_graph::{Link, Scalar, Value};
use std::sync::Arc;

/// Read an attribute (or the `src`/`tgt` pseudo-attributes) of a link as a
/// numeric value, defaulting to 0 when absent or non-numeric.
fn link_attr_f64(link: &Link, attr: &str) -> f64 {
    match attr {
        "src" => link.src.raw() as f64,
        "tgt" => link.tgt.raw() as f64,
        _ => link.attrs.get_f64(attr).unwrap_or(0.0),
    }
}

/// Read an attribute (or pseudo-attribute) of a link as a full value.
fn link_attr_value(link: &Link, attr: &str) -> Option<Value> {
    match attr {
        "src" => Some(Value::single(link.src.raw() as i64)),
        "tgt" => Some(Value::single(link.tgt.raw() as i64)),
        _ => link.attrs.get(attr).cloned(),
    }
}

/// A numerical aggregate function in the class NAF (Def. 8), expressed as a
/// small expression tree evaluated over a collection of links.
///
/// `SumOver` and `ProdOver` iterate the collection and evaluate their body
/// once per link; inside the body, [`NafExpr::Attr`] refers to the current
/// link's attribute. At the top level, `Attr` refers to the first link of
/// the collection (the "retain the value from any of the input links"
/// convention of Example 5 step 6 — well defined because all links in the
/// group carry the same value in that use).
#[derive(Debug, Clone, PartialEq)]
pub enum NafExpr {
    /// A constant.
    Const(f64),
    /// The constant function 1 (maps every element to 1).
    One,
    /// The constant function 0.
    Zero,
    /// The value of a link attribute (`src`/`tgt` are pseudo-attributes).
    Attr(String),
    /// Addition.
    Add(Box<NafExpr>, Box<NafExpr>),
    /// Subtraction.
    Sub(Box<NafExpr>, Box<NafExpr>),
    /// Multiplication.
    Mul(Box<NafExpr>, Box<NafExpr>),
    /// Division (yields 0 when the divisor is 0, keeping evaluation total).
    Div(Box<NafExpr>, Box<NafExpr>),
    /// Summation over the collection of the per-link body.
    SumOver(Box<NafExpr>),
    /// Product over the collection of the per-link body.
    ProdOver(Box<NafExpr>),
}

impl NafExpr {
    /// `COUNT(X) = Σ_{x∈X} 1(x)` — the paper's construction.
    pub fn count() -> Self {
        NafExpr::SumOver(Box::new(NafExpr::One))
    }

    /// Sum of an attribute over the collection.
    pub fn sum(attr: impl Into<String>) -> Self {
        NafExpr::SumOver(Box::new(NafExpr::Attr(attr.into())))
    }

    /// Average of an attribute over the collection (`Σ attr / Σ 1`).
    pub fn avg(attr: impl Into<String>) -> Self {
        NafExpr::Div(Box::new(NafExpr::sum(attr)), Box::new(NafExpr::count()))
    }

    /// Evaluate the expression for a single link (per-element context).
    pub fn eval_link(&self, link: &Link) -> f64 {
        match self {
            NafExpr::Const(c) => *c,
            NafExpr::One => 1.0,
            NafExpr::Zero => 0.0,
            NafExpr::Attr(a) => link_attr_f64(link, a),
            NafExpr::Add(a, b) => a.eval_link(link) + b.eval_link(link),
            NafExpr::Sub(a, b) => a.eval_link(link) - b.eval_link(link),
            NafExpr::Mul(a, b) => a.eval_link(link) * b.eval_link(link),
            NafExpr::Div(a, b) => {
                let d = b.eval_link(link);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval_link(link) / d
                }
            }
            // A nested SumOver/ProdOver in per-element context degenerates to
            // its body evaluated on the single element.
            NafExpr::SumOver(body) | NafExpr::ProdOver(body) => body.eval_link(link),
        }
    }

    /// Evaluate the expression over a collection of links.
    pub fn eval(&self, links: &[&Link]) -> f64 {
        match self {
            NafExpr::Const(c) => *c,
            NafExpr::One => 1.0,
            NafExpr::Zero => 0.0,
            NafExpr::Attr(a) => links.first().map(|l| link_attr_f64(l, a)).unwrap_or(0.0),
            NafExpr::Add(a, b) => a.eval(links) + b.eval(links),
            NafExpr::Sub(a, b) => a.eval(links) - b.eval(links),
            NafExpr::Mul(a, b) => a.eval(links) * b.eval(links),
            NafExpr::Div(a, b) => {
                let d = b.eval(links);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(links) / d
                }
            }
            NafExpr::SumOver(body) => links.iter().map(|l| body.eval_link(l)).sum(),
            NafExpr::ProdOver(body) => links.iter().map(|l| body.eval_link(l)).product(),
        }
    }
}

/// A user-supplied aggregation over a group of links, for
/// [`AggregateFn::Custom`].
pub type CustomAggFn = Arc<dyn Fn(&[&Link]) -> Value + Send + Sync>;

/// An aggregation function usable by Node and Link Aggregation: a member of
/// `AF = SAF ∪ NAF`, plus pragmatic built-ins.
#[derive(Clone)]
pub enum AggregateFn {
    /// SAF: collect the distinct values of `attr` across all links of the
    /// group into a set-valued attribute. `src`/`tgt` pseudo-attributes
    /// collect endpoint ids.
    CollectSet(String),
    /// NAF `COUNT`.
    Count,
    /// NAF sum of a numeric attribute.
    Sum(String),
    /// NAF average of a numeric attribute.
    Avg(String),
    /// Minimum of a numeric attribute (expressible in NAF per the paper; a
    /// direct built-in here).
    Min(String),
    /// Maximum of a numeric attribute.
    Max(String),
    /// Assign a constant string (Example 5 step 6 assigns `'match'`).
    ConstStr(String),
    /// Retain the value of `attr` from the first link of the group
    /// ("from any of the input links" — well defined when all agree).
    First(String),
    /// An arbitrary NAF expression.
    Naf(NafExpr),
    /// A custom aggregation over the group of links.
    Custom(CustomAggFn),
}

impl std::fmt::Debug for AggregateFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateFn::CollectSet(a) => write!(f, "CollectSet({a})"),
            AggregateFn::Count => write!(f, "Count"),
            AggregateFn::Sum(a) => write!(f, "Sum({a})"),
            AggregateFn::Avg(a) => write!(f, "Avg({a})"),
            AggregateFn::Min(a) => write!(f, "Min({a})"),
            AggregateFn::Max(a) => write!(f, "Max({a})"),
            AggregateFn::ConstStr(s) => write!(f, "ConstStr({s})"),
            AggregateFn::First(a) => write!(f, "First({a})"),
            AggregateFn::Naf(e) => write!(f, "Naf({e:?})"),
            AggregateFn::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl PartialEq for AggregateFn {
    fn eq(&self, other: &Self) -> bool {
        use AggregateFn::*;
        match (self, other) {
            (CollectSet(a), CollectSet(b))
            | (Sum(a), Sum(b))
            | (Avg(a), Avg(b))
            | (Min(a), Min(b))
            | (Max(a), Max(b))
            | (ConstStr(a), ConstStr(b))
            | (First(a), First(b)) => a == b,
            (Count, Count) => true,
            (Naf(a), Naf(b)) => a == b,
            // Custom functions are never considered equal: the optimizer must
            // not merge subtrees whose behaviour it cannot inspect.
            _ => false,
        }
    }
}

impl AggregateFn {
    /// Evaluate the aggregation over a group of links.
    pub fn eval(&self, links: &[&Link]) -> Value {
        match self {
            AggregateFn::CollectSet(attr) => {
                let mut out = Value::empty();
                for l in links {
                    if let Some(v) = link_attr_value(l, attr) {
                        for s in v.iter() {
                            out.push(s.clone());
                        }
                    }
                }
                out
            }
            AggregateFn::Count => Value::single(links.len() as i64),
            AggregateFn::Sum(attr) => {
                Value::single(links.iter().map(|l| link_attr_f64(l, attr)).sum::<f64>())
            }
            AggregateFn::Avg(attr) => {
                if links.is_empty() {
                    Value::single(0.0)
                } else {
                    let sum: f64 = links.iter().map(|l| link_attr_f64(l, attr)).sum();
                    Value::single(sum / links.len() as f64)
                }
            }
            AggregateFn::Min(attr) => Value::single(
                links.iter().map(|l| link_attr_f64(l, attr)).fold(f64::INFINITY, f64::min),
            ),
            AggregateFn::Max(attr) => Value::single(
                links.iter().map(|l| link_attr_f64(l, attr)).fold(f64::NEG_INFINITY, f64::max),
            ),
            AggregateFn::ConstStr(s) => Value::single(s.as_str()),
            AggregateFn::First(attr) => {
                links.first().and_then(|l| link_attr_value(l, attr)).unwrap_or_else(Value::empty)
            }
            AggregateFn::Naf(expr) => Value::single(expr.eval(links)),
            AggregateFn::Custom(f) => f(links),
        }
    }
}

/// Convert a collected set value into sorted scalar text tokens (testing and
/// explanation helper).
pub fn value_as_sorted_texts(v: &Value) -> Vec<String> {
    let mut out: Vec<String> = v.iter().map(Scalar::as_text).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::{LinkId, NodeId};

    fn tag_link(id: u64, src: u64, tgt: u64, tags: &[&str], weight: f64) -> Link {
        Link::new(LinkId(id), NodeId(src), NodeId(tgt), ["act", "tag"])
            .with_attr("tags", Value::multi(tags.iter().copied()))
            .with_attr("weight", weight)
    }

    fn group() -> Vec<Link> {
        vec![
            tag_link(1, 10, 100, &["baseball", "rockies"], 0.5),
            tag_link(2, 10, 101, &["baseball"], 1.5),
            tag_link(3, 10, 102, &["museum"], 2.0),
        ]
    }

    #[test]
    fn collect_set_gathers_distinct_values() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        let v = AggregateFn::CollectSet("tags".into()).eval(&refs);
        assert_eq!(value_as_sorted_texts(&v), vec!["baseball", "museum", "rockies"]);
    }

    #[test]
    fn collect_set_of_targets_pseudo_attribute() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        let v = AggregateFn::CollectSet("tgt".into()).eval(&refs);
        assert_eq!(v.len(), 3);
        assert!(v.contains(&Scalar::Int(100)));
    }

    #[test]
    fn count_sum_avg_min_max() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        assert_eq!(AggregateFn::Count.eval(&refs).as_f64(), Some(3.0));
        assert_eq!(AggregateFn::Sum("weight".into()).eval(&refs).as_f64(), Some(4.0));
        assert!(
            (AggregateFn::Avg("weight".into()).eval(&refs).as_f64().unwrap() - 4.0 / 3.0).abs()
                < 1e-9
        );
        assert_eq!(AggregateFn::Min("weight".into()).eval(&refs).as_f64(), Some(0.5));
        assert_eq!(AggregateFn::Max("weight".into()).eval(&refs).as_f64(), Some(2.0));
    }

    #[test]
    fn const_str_and_first() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        assert_eq!(AggregateFn::ConstStr("match".into()).eval(&refs).as_str(), Some("match"));
        assert_eq!(AggregateFn::First("weight".into()).eval(&refs).as_f64(), Some(0.5));
        assert!(AggregateFn::First("missing".into()).eval(&refs).is_empty());
    }

    #[test]
    fn naf_count_matches_paper_construction() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        assert_eq!(NafExpr::count().eval(&refs), 3.0);
        assert_eq!(NafExpr::sum("weight").eval(&refs), 4.0);
        assert!((NafExpr::avg("weight").eval(&refs) - 4.0 / 3.0).abs() < 1e-9);
        // Product over the collection.
        assert_eq!(
            NafExpr::ProdOver(Box::new(NafExpr::Attr("weight".into()))).eval(&refs),
            0.5 * 1.5 * 2.0
        );
    }

    #[test]
    fn naf_is_closed_under_composition() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        // (sum(weight) - count) * 2  — arbitrary composition of NAF parts.
        let expr = NafExpr::Mul(
            Box::new(NafExpr::Sub(Box::new(NafExpr::sum("weight")), Box::new(NafExpr::count()))),
            Box::new(NafExpr::Const(2.0)),
        );
        assert_eq!(expr.eval(&refs), (4.0 - 3.0) * 2.0);
    }

    #[test]
    fn naf_division_by_zero_is_total() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        let expr = NafExpr::Div(Box::new(NafExpr::One), Box::new(NafExpr::Zero));
        assert_eq!(expr.eval(&refs), 0.0);
        assert_eq!(NafExpr::avg("weight").eval(&[]), 0.0);
    }

    #[test]
    fn custom_aggregate() {
        let links = group();
        let refs: Vec<&Link> = links.iter().collect();
        let f = AggregateFn::Custom(Arc::new(|ls: &[&Link]| {
            Value::single(ls.iter().filter(|l| l.attrs.get("tags").is_some()).count() as i64)
        }));
        assert_eq!(f.eval(&refs).as_f64(), Some(3.0));
    }

    #[test]
    fn aggregate_fn_equality_never_merges_custom() {
        assert_eq!(AggregateFn::Count, AggregateFn::Count);
        assert_eq!(AggregateFn::Sum("w".into()), AggregateFn::Sum("w".into()));
        assert_ne!(AggregateFn::Sum("w".into()), AggregateFn::Sum("x".into()));
        let c1 = AggregateFn::Custom(Arc::new(|_| Value::empty()));
        let c2 = AggregateFn::Custom(Arc::new(|_| Value::empty()));
        assert_ne!(c1, c2);
    }
}
