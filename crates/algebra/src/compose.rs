//! The Composition operator (paper Def. 5) and composition functions
//! (the class `CF`).
//!
//! `G1 ⊙⟨δ,F⟩ G2` joins links of the two input graphs whose designated
//! endpoints match (`ℓ1.δd1 = ℓ2.δd2`) and produces a *new* link for every
//! qualifying pair, running from the *other* endpoint of `ℓ1`
//! (`u = ℓ1.δd̄1`) to the other endpoint of `ℓ2` (`v = ℓ2.δd̄2`). The
//! composition function `F` combines attributes of the two input links (and,
//! per the paper, possibly of their endpoint nodes) into the attributes of
//! the new link.

use socialscope_graph::{AttrMap, Direction, FxHashMap, Link, Node, NodeId, SocialGraph, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The directional condition `δ = (d1, d2)` of Composition and Semi-Join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectionalCondition {
    /// Which endpoint of the left-hand link participates in the match.
    pub left: Direction,
    /// Which endpoint of the right-hand link participates in the match.
    pub right: Direction,
}

impl DirectionalCondition {
    /// Build a directional condition.
    pub fn new(left: Direction, right: Direction) -> Self {
        DirectionalCondition { left, right }
    }

    /// `(src, src)`.
    pub fn src_src() -> Self {
        Self::new(Direction::Src, Direction::Src)
    }
    /// `(src, tgt)`.
    pub fn src_tgt() -> Self {
        Self::new(Direction::Src, Direction::Tgt)
    }
    /// `(tgt, src)`.
    pub fn tgt_src() -> Self {
        Self::new(Direction::Tgt, Direction::Src)
    }
    /// `(tgt, tgt)`.
    pub fn tgt_tgt() -> Self {
        Self::new(Direction::Tgt, Direction::Tgt)
    }
}

/// Everything a composition function may look at for one qualifying pair of
/// links: the two links, the endpoint nodes of the output link, and the
/// shared (matched) node id.
#[derive(Debug, Clone, Copy)]
pub struct ComposeContext<'a> {
    /// The link from `G1`.
    pub left_link: &'a Link,
    /// The link from `G2`.
    pub right_link: &'a Link,
    /// The node the output link starts from (`ℓ1.δd̄1`, taken from `G1`).
    pub out_src: &'a Node,
    /// The node the output link points to (`ℓ2.δd̄2`, taken from `G2`).
    pub out_tgt: &'a Node,
    /// The matched node id (`ℓ1.δd1 = ℓ2.δd2`).
    pub shared: NodeId,
}

/// A composition function in the class `CF`: consumes the attributes of two
/// input links (and their endpoint nodes) and produces uniquely named
/// attributes for the output link.
pub trait ComposeFn: Send + Sync {
    /// Produce the output link's attributes for one qualifying pair.
    fn compose(&self, ctx: &ComposeContext<'_>) -> AttrMap;

    /// Short name used in plan explanations.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Which side of the composition an attribute is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The `G1` link.
    Left,
    /// The `G2` link.
    Right,
}

/// Declarative, serializable composition functions covering the uses in the
/// paper (constant attributes such as `type='user_friend_item'`, Jaccard
/// similarity between endpoint-node set attributes as in Example 5 step 5,
/// and copying attributes across as in Example 5 step 8). `Chain` combines
/// several into one; `Custom` escapes to an arbitrary closure.
#[derive(Clone)]
pub enum ComposeSpec {
    /// Set constant attributes on every output link.
    ConstAttrs(Vec<(String, Value)>),
    /// Compute the Jaccard similarity between the `attr` set attribute of
    /// the output link's source node and target node, storing it in `out`.
    JaccardOfNodeSets {
        /// Node attribute holding the sets to compare.
        attr: String,
        /// Output attribute to store the similarity in.
        out: String,
    },
    /// Copy a link attribute from one side to the output under a new name.
    CopyLinkAttr {
        /// Which input link to read from.
        side: Side,
        /// Attribute to read.
        attr: String,
        /// Output attribute name.
        out: String,
    },
    /// Apply several specs in order, merging their outputs.
    Chain(Vec<ComposeSpec>),
    /// An arbitrary user-supplied composition function.
    Custom(Arc<dyn ComposeFn>),
}

impl PartialEq for ComposeSpec {
    fn eq(&self, other: &Self) -> bool {
        use ComposeSpec::*;
        match (self, other) {
            (ConstAttrs(a), ConstAttrs(b)) => a == b,
            (JaccardOfNodeSets { attr: a1, out: o1 }, JaccardOfNodeSets { attr: a2, out: o2 }) => {
                a1 == a2 && o1 == o2
            }
            (
                CopyLinkAttr { side: s1, attr: a1, out: o1 },
                CopyLinkAttr { side: s2, attr: a2, out: o2 },
            ) => s1 == s2 && a1 == a2 && o1 == o2,
            (Chain(a), Chain(b)) => a == b,
            // Custom functions are never equal: rewrites must not merge them.
            _ => false,
        }
    }
}

impl std::fmt::Debug for ComposeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeSpec::ConstAttrs(attrs) => f.debug_tuple("ConstAttrs").field(attrs).finish(),
            ComposeSpec::JaccardOfNodeSets { attr, out } => {
                f.debug_struct("JaccardOfNodeSets").field("attr", attr).field("out", out).finish()
            }
            ComposeSpec::CopyLinkAttr { side, attr, out } => f
                .debug_struct("CopyLinkAttr")
                .field("side", side)
                .field("attr", attr)
                .field("out", out)
                .finish(),
            ComposeSpec::Chain(specs) => f.debug_tuple("Chain").field(specs).finish(),
            ComposeSpec::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// Jaccard similarity of two string-token sets.
pub fn jaccard<S: AsRef<str> + Ord>(a: &BTreeSet<S>, b: &BTreeSet<S>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.iter().filter(|x| b.iter().any(|y| y.as_ref() == x.as_ref())).count();
    let uni = a.len() + b.len() - inter;
    inter as f64 / uni as f64
}

fn value_token_set(v: Option<&Value>) -> BTreeSet<String> {
    v.map(|v| v.iter().map(|s| s.as_text()).collect()).unwrap_or_default()
}

impl ComposeFn for ComposeSpec {
    fn compose(&self, ctx: &ComposeContext<'_>) -> AttrMap {
        let mut out = AttrMap::new();
        match self {
            ComposeSpec::ConstAttrs(attrs) => {
                for (k, v) in attrs {
                    out.set(k.clone(), v.clone());
                }
            }
            ComposeSpec::JaccardOfNodeSets { attr, out: dest } => {
                let a = value_token_set(ctx.out_src.attrs.get(attr));
                let b = value_token_set(ctx.out_tgt.attrs.get(attr));
                out.set(dest.clone(), jaccard(&a, &b));
            }
            ComposeSpec::CopyLinkAttr { side, attr, out: dest } => {
                let link = match side {
                    Side::Left => ctx.left_link,
                    Side::Right => ctx.right_link,
                };
                if let Some(v) = link.attrs.get(attr) {
                    out.set(dest.clone(), v.clone());
                }
            }
            ComposeSpec::Chain(specs) => {
                for s in specs {
                    out.merge(&s.compose(ctx));
                }
            }
            ComposeSpec::Custom(f) => return f.compose(ctx),
        }
        out
    }

    fn name(&self) -> &'static str {
        match self {
            ComposeSpec::ConstAttrs(_) => "const_attrs",
            ComposeSpec::JaccardOfNodeSets { .. } => "jaccard_of_node_sets",
            ComposeSpec::CopyLinkAttr { .. } => "copy_link_attr",
            ComposeSpec::Chain(_) => "chain",
            ComposeSpec::Custom(_) => "custom",
        }
    }
}

/// Composition `G1 ⊙⟨δ,F⟩ G2` (Def. 5).
///
/// For every pair `(ℓ1, ℓ2)` with `ℓ1 ∈ links(G1)`, `ℓ2 ∈ links(G2)` and
/// `ℓ1.δd1 = ℓ2.δd2`, the output contains the nodes `u = ℓ1.δd̄1`,
/// `v = ℓ2.δd̄2` and a new link `u → v` whose attributes are `F(ℓ1, ℓ2)`.
/// When `F` does not set a `type`, the output link is typed `composed`.
pub fn compose(
    g1: &SocialGraph,
    g2: &SocialGraph,
    delta: DirectionalCondition,
    f: &dyn ComposeFn,
) -> SocialGraph {
    // Index the right-hand links by their matching endpoint.
    let mut right_index: FxHashMap<NodeId, Vec<&Link>> = FxHashMap::default();
    for l in g2.links() {
        right_index.entry(l.endpoint(delta.right)).or_default().push(l);
    }

    let mut out = SocialGraph::new();
    for l1 in g1.links() {
        let shared = l1.endpoint(delta.left);
        let Some(rights) = right_index.get(&shared) else {
            continue;
        };
        let u_id = l1.other_endpoint(delta.left);
        let Some(u) = g1.node(u_id) else { continue };
        for l2 in rights {
            let v_id = l2.other_endpoint(delta.right);
            let Some(v) = g2.node(v_id) else { continue };
            let ctx =
                ComposeContext { left_link: l1, right_link: l2, out_src: u, out_tgt: v, shared };
            let attrs = f.compose(&ctx);
            out.add_node(u.clone());
            out.add_node(v.clone());
            let mut link =
                Link::new(socialscope_graph::next_derived_link_id(), u_id, v_id, ["composed"]);
            for (k, v) in attrs.iter() {
                link.attrs.set(k, v.clone());
            }
            out.add_link(link).expect("endpoints inserted above");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::select::link_select;
    use socialscope_graph::{GraphBuilder, HasAttrs};

    /// John and Mary both visited Coors Field; Pete visited the Zoo.
    fn visits_site() -> (SocialGraph, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let mary = b.add_user("Mary");
        let pete = b.add_user("Pete");
        let coors = b.add_item("Coors Field", &["destination"]);
        let zoo = b.add_item("Denver Zoo", &["destination"]);
        b.visit(john, coors);
        b.visit(mary, coors);
        b.visit(pete, zoo);
        b.visit(john, zoo);
        (b.build(), john, mary, pete)
    }

    #[test]
    fn compose_tgt_tgt_creates_user_user_links() {
        let (g, john, mary, _) = visits_site();
        // Left: John's visits; right: everyone else's visits.
        let john_visits = g.induced_by_links(
            g.out_links(john).filter(|l| l.has_type("visit")).map(|l| l.id).collect::<Vec<_>>(),
        );
        let others = g.induced_by_links(
            g.links()
                .filter(|l| l.has_type("visit") && l.src != john)
                .map(|l| l.id)
                .collect::<Vec<_>>(),
        );
        let composed = compose(
            &john_visits,
            &others,
            DirectionalCondition::tgt_tgt(),
            &ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("co_visit"))]),
        );
        // John co-visited Coors Field with Mary and the Zoo with Pete ->
        // one composed link per co-visitor.
        assert_eq!(composed.link_count(), 2);
        assert!(composed.links().all(|l| l.src == john));
        assert!(composed.links().any(|l| l.tgt == mary));
        assert!(composed.links().all(|l| l.has_type("co_visit")));
    }

    #[test]
    fn compose_jaccard_of_node_sets() {
        let (mut g, john, mary, pete) = visits_site();
        // Attach the `vst` set attribute the way Example 5 does with node
        // aggregation; here we set it by hand to isolate the composition.
        g.node_mut(john).unwrap().attrs.set("vst", Value::multi(["coors", "zoo"]));
        g.node_mut(mary).unwrap().attrs.set("vst", Value::multi(["coors"]));
        g.node_mut(pete).unwrap().attrs.set("vst", Value::multi(["zoo"]));

        let john_visits = g.induced_by_links(g.out_links(john).map(|l| l.id).collect::<Vec<_>>());
        let other_visits = g.induced_by_links(
            g.links().filter(|l| l.src != john).map(|l| l.id).collect::<Vec<_>>(),
        );
        let spec = ComposeSpec::Chain(vec![
            ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("sim_candidate"))]),
            ComposeSpec::JaccardOfNodeSets { attr: "vst".into(), out: "sim".into() },
        ]);
        let composed = compose(&john_visits, &other_visits, DirectionalCondition::tgt_tgt(), &spec);
        // John-Mary share Coors (sim 1/2), John-Pete share Zoo (sim 1/2).
        assert_eq!(composed.link_count(), 2);
        for l in composed.links() {
            assert_eq!(l.attrs.get_f64("sim"), Some(0.5));
            assert!(l.has_type("sim_candidate"));
        }
    }

    #[test]
    fn compose_copy_link_attr() {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let mary = b.add_user("Mary");
        let coors = b.add_item("Coors Field", &["destination"]);
        b.matches(john, mary, 0.8);
        b.visit(mary, coors);
        let g = b.build();

        let matches = link_select(&g, &Condition::on_attr("type", "match"), None);
        let visits = link_select(&g, &Condition::on_attr("type", "visit"), None);
        // (tgt, src): match link's target (Mary) joins visit link's source.
        let spec = ComposeSpec::Chain(vec![
            ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("recommendation"))]),
            ComposeSpec::CopyLinkAttr {
                side: Side::Left,
                attr: "sim".into(),
                out: "sim_sc".into(),
            },
        ]);
        let rec = compose(&matches, &visits, DirectionalCondition::tgt_src(), &spec);
        assert_eq!(rec.link_count(), 1);
        let l = rec.links().next().unwrap();
        assert_eq!(l.src, john);
        assert_eq!(l.tgt, coors);
        assert_eq!(l.attrs.get_f64("sim_sc"), Some(0.8));
    }

    #[test]
    fn compose_with_no_matches_is_empty() {
        let (g, john, ..) = visits_site();
        let john_visits = g.induced_by_links(g.out_links(john).map(|l| l.id).collect::<Vec<_>>());
        let empty = SocialGraph::new();
        let out = compose(
            &john_visits,
            &empty,
            DirectionalCondition::tgt_tgt(),
            &ComposeSpec::ConstAttrs(vec![]),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn composed_link_ids_do_not_collide_with_inputs() {
        let (g, john, ..) = visits_site();
        let john_visits = g.induced_by_links(g.out_links(john).map(|l| l.id).collect::<Vec<_>>());
        let all_visits = link_select(&g, &Condition::on_attr("type", "visit"), None);
        let out = compose(
            &john_visits,
            &all_visits,
            DirectionalCondition::tgt_tgt(),
            &ComposeSpec::ConstAttrs(vec![("type".into(), Value::single("x"))]),
        );
        for l in out.links() {
            assert!(!g.has_link(l.id), "composed link id collides with site id");
        }
    }

    #[test]
    fn jaccard_edge_cases() {
        let a: BTreeSet<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let b: BTreeSet<String> = ["b", "c"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
        let empty: BTreeSet<String> = BTreeSet::new();
        assert_eq!(jaccard(&empty, &empty), 0.0);
        assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn delta_constructors() {
        assert_eq!(
            DirectionalCondition::src_src(),
            DirectionalCondition::new(Direction::Src, Direction::Src)
        );
        assert_eq!(DirectionalCondition::tgt_src().left, Direction::Tgt);
        assert_eq!(DirectionalCondition::src_tgt().right, Direction::Tgt);
    }
}
