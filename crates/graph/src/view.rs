//! Overlay views of a social content graph.
//!
//! The paper (§4) notes it is "sometimes convenient to view the social
//! content graph as an overlay of sub-graphs": the *activity graph* (users'
//! activities on items), the *network graph* (social connections), and the
//! *topical graph* (links from users or items to derived topics/groups).

use crate::attrs::HasAttrs;
use crate::graph::SocialGraph;
use crate::link::Link;
use crate::types;

/// Which overlay of the social content graph to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverlayKind {
    /// Users' activities on items (`act` links: tag, review, click, visit, …).
    Activity,
    /// Social connections between users (`connect` links: friend, contact, …).
    Network,
    /// Links to derived semantic groups or topics (`belong` / `match`).
    Topical,
}

fn link_in_overlay(link: &Link, kind: OverlayKind) -> bool {
    let matches_category = |pred: fn(&str) -> bool| link.type_values().iter().any(|t| pred(t));
    match kind {
        OverlayKind::Activity => matches_category(types::is_activity_type),
        OverlayKind::Network => matches_category(types::is_connection_type),
        OverlayKind::Topical => matches_category(types::is_topical_type),
    }
}

/// Extract an overlay view: the sub-graph induced by the links of the given
/// category.
pub fn overlay(graph: &SocialGraph, kind: OverlayKind) -> SocialGraph {
    let ids = graph.links().filter(|l| link_in_overlay(l, kind)).map(|l| l.id).collect::<Vec<_>>();
    graph.induced_by_links(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn site() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let john = b.add_user("John");
        let mary = b.add_user("Mary");
        let denver = b.add_item("Denver", &["city"]);
        let topic = b.add_topic("baseball");
        b.befriend(john, mary);
        b.tag(john, denver, &["rockies"]);
        b.visit(mary, denver);
        b.belongs_to(denver, topic);
        b.matches(john, mary, 0.6);
        b.build()
    }

    #[test]
    fn activity_overlay_keeps_only_activities() {
        let g = site();
        let act = overlay(&g, OverlayKind::Activity);
        assert_eq!(act.link_count(), 2);
        assert!(act.links().all(|l| l.has_type("act")));
    }

    #[test]
    fn network_overlay_keeps_connections() {
        let g = site();
        let net = overlay(&g, OverlayKind::Network);
        assert_eq!(net.link_count(), 1);
        assert_eq!(net.node_count(), 2);
        assert!(net.links().all(|l| l.has_type("friend")));
    }

    #[test]
    fn topical_overlay_keeps_belong_and_match() {
        let g = site();
        let top = overlay(&g, OverlayKind::Topical);
        assert_eq!(top.link_count(), 2);
    }

    #[test]
    fn overlays_partition_this_site_links() {
        let g = site();
        let total = overlay(&g, OverlayKind::Activity).link_count()
            + overlay(&g, OverlayKind::Network).link_count()
            + overlay(&g, OverlayKind::Topical).link_count();
        assert_eq!(total, g.link_count());
    }
}
