//! The evolving type catalog (paper §4).
//!
//! SocialScope maintains "an evolving catalog of basic types, including
//! `user`, `item`, `topic`, `group` for nodes and `connect` (e.g. friend),
//! `act` (e.g. tag, review, click, …), `match`, `belong` for links". The
//! constants below are those basic types plus the concrete sub-types that
//! appear in the paper's examples; [`TypeCatalog`] tracks the catalog as
//! content analysis derives new types at runtime.

use std::collections::{BTreeMap, BTreeSet};

/// Name of the mandatory type attribute carried by every node and link.
pub const TYPE_ATTR: &str = "type";

// --- basic node types ---------------------------------------------------

/// Node type: a user of the social content site.
pub const NODE_USER: &str = "user";
/// Node type: a content item (destination, article, URL, photo, …).
pub const NODE_ITEM: &str = "item";
/// Node type: a derived semantic topic.
pub const NODE_TOPIC: &str = "topic";
/// Node type: a group of users or items.
pub const NODE_GROUP: &str = "group";

// --- basic link categories ----------------------------------------------

/// Link category: explicit social connections between users.
pub const LINK_CONNECT: &str = "connect";
/// Link category: user activities on items (tag, review, click, visit, …).
pub const LINK_ACT: &str = "act";
/// Link category: derived similarity between users or items.
pub const LINK_MATCH: &str = "match";
/// Link category: membership of a user/item in a topic or group.
pub const LINK_BELONG: &str = "belong";

// --- common concrete sub-types used throughout the paper's examples ------

/// Connection sub-type: friendship.
pub const LINK_FRIEND: &str = "friend";
/// Connection sub-type: instant-messenger contact.
pub const LINK_CONTACT: &str = "contact";
/// Activity sub-type: tagging an item with keywords.
pub const LINK_TAG: &str = "tag";
/// Activity sub-type: reviewing an item.
pub const LINK_REVIEW: &str = "review";
/// Activity sub-type: clicking / browsing an item.
pub const LINK_CLICK: &str = "click";
/// Activity sub-type: visiting a destination.
pub const LINK_VISIT: &str = "visit";
/// Activity sub-type: rating an item.
pub const LINK_RATING: &str = "rating";
/// Derived link produced when composing friendship and activity links
/// (Example 5, step 5/6 of the paper).
pub const LINK_USER_FRIEND_ITEM: &str = "user_friend_item";

/// Which of the two element kinds a registered type applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TypeKind {
    /// A node type.
    Node,
    /// A link type.
    Link,
}

/// The evolving catalog of node and link types.
///
/// The catalog starts with the paper's basic types and records, for link
/// types, the *category* they refine (`connect`, `act`, `match`, `belong`).
/// Content analysis (e.g. topic derivation) registers new types at runtime.
#[derive(Debug, Clone)]
pub struct TypeCatalog {
    node_types: BTreeSet<String>,
    link_types: BTreeMap<String, String>,
}

impl Default for TypeCatalog {
    fn default() -> Self {
        Self::with_basic_types()
    }
}

impl TypeCatalog {
    /// An empty catalog (no registered types).
    pub fn empty() -> Self {
        TypeCatalog { node_types: BTreeSet::new(), link_types: BTreeMap::new() }
    }

    /// The catalog pre-populated with the paper's basic types.
    pub fn with_basic_types() -> Self {
        let mut c = Self::empty();
        for t in [NODE_USER, NODE_ITEM, NODE_TOPIC, NODE_GROUP] {
            c.register_node_type(t);
        }
        for (t, cat) in [
            (LINK_FRIEND, LINK_CONNECT),
            (LINK_CONTACT, LINK_CONNECT),
            (LINK_TAG, LINK_ACT),
            (LINK_REVIEW, LINK_ACT),
            (LINK_CLICK, LINK_ACT),
            (LINK_VISIT, LINK_ACT),
            (LINK_RATING, LINK_ACT),
            (LINK_MATCH, LINK_MATCH),
            (LINK_BELONG, LINK_BELONG),
            (LINK_CONNECT, LINK_CONNECT),
            (LINK_ACT, LINK_ACT),
        ] {
            c.register_link_type(t, cat);
        }
        c
    }

    /// Register a node type (idempotent). Returns `true` when newly added.
    pub fn register_node_type(&mut self, ty: &str) -> bool {
        self.node_types.insert(ty.to_lowercase())
    }

    /// Register a link type under a category (idempotent).
    /// Returns `true` when newly added.
    pub fn register_link_type(&mut self, ty: &str, category: &str) -> bool {
        self.link_types.insert(ty.to_lowercase(), category.to_lowercase()).is_none()
    }

    /// Whether the node type is known.
    pub fn has_node_type(&self, ty: &str) -> bool {
        self.node_types.contains(&ty.to_lowercase())
    }

    /// Whether the link type is known.
    pub fn has_link_type(&self, ty: &str) -> bool {
        self.link_types.contains_key(&ty.to_lowercase())
    }

    /// The category (`connect` / `act` / `match` / `belong`) a link type
    /// refines, if registered.
    pub fn link_category(&self, ty: &str) -> Option<&str> {
        self.link_types.get(&ty.to_lowercase()).map(String::as_str)
    }

    /// All registered node types, in order.
    pub fn node_types(&self) -> impl Iterator<Item = &str> {
        self.node_types.iter().map(String::as_str)
    }

    /// All registered link types with their categories, in order.
    pub fn link_types(&self) -> impl Iterator<Item = (&str, &str)> {
        self.link_types.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of registered node types.
    pub fn node_type_count(&self) -> usize {
        self.node_types.len()
    }

    /// Number of registered link types.
    pub fn link_type_count(&self) -> usize {
        self.link_types.len()
    }
}

/// Whether a concrete link type string belongs to the activity category by
/// the default convention (used by overlay views when no catalog is given).
pub fn is_activity_type(ty: &str) -> bool {
    matches!(
        ty.to_lowercase().as_str(),
        LINK_ACT | LINK_TAG | LINK_REVIEW | LINK_CLICK | LINK_VISIT | LINK_RATING
    )
}

/// Whether a concrete link type string belongs to the connection category by
/// the default convention.
pub fn is_connection_type(ty: &str) -> bool {
    matches!(ty.to_lowercase().as_str(), LINK_CONNECT | LINK_FRIEND | LINK_CONTACT)
}

/// Whether a concrete link type string belongs to the topical category
/// (derived `belong`/`match` links) by the default convention.
pub fn is_topical_type(ty: &str) -> bool {
    matches!(ty.to_lowercase().as_str(), LINK_BELONG | LINK_MATCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_catalog_contains_paper_types() {
        let c = TypeCatalog::with_basic_types();
        assert!(c.has_node_type("user"));
        assert!(c.has_node_type("topic"));
        assert!(c.has_link_type("friend"));
        assert_eq!(c.link_category("friend"), Some("connect"));
        assert_eq!(c.link_category("tag"), Some("act"));
        assert_eq!(c.link_category("belong"), Some("belong"));
    }

    #[test]
    fn catalog_evolves() {
        let mut c = TypeCatalog::with_basic_types();
        assert!(!c.has_node_type("destination"));
        assert!(c.register_node_type("destination"));
        assert!(!c.register_node_type("destination"));
        assert!(c.has_node_type("Destination"));

        assert!(c.register_link_type("user_friend_item", "act"));
        assert_eq!(c.link_category("user_friend_item"), Some("act"));
    }

    #[test]
    fn category_helpers() {
        assert!(is_activity_type("tag"));
        assert!(is_activity_type("VISIT"));
        assert!(!is_activity_type("friend"));
        assert!(is_connection_type("friend"));
        assert!(is_topical_type("belong"));
        assert!(is_topical_type("match"));
        assert!(!is_topical_type("tag"));
    }

    #[test]
    fn counts() {
        let c = TypeCatalog::with_basic_types();
        assert_eq!(c.node_type_count(), 4);
        assert!(c.link_type_count() >= 9);
        assert_eq!(TypeCatalog::empty().node_type_count(), 0);
    }
}
