//! Tagging events: the unit of live index maintenance.
//!
//! The paper models a social content site as a continuous stream of social
//! activity — users keep tagging (and un-tagging) items after any index
//! snapshot is built. A [`TagEvent`] is one such action. Batches of events
//! drive the whole delta path: [`crate::sitemodel::SiteModel::try_apply`]
//! updates the frozen site primitives in place, and
//! [`crate::index::ExactIndex::try_apply_with`] /
//! [`crate::index::ClusteredIndex::try_apply_with`] then patch the inverted
//! indexes to exactly the state a from-scratch rebuild would produce —
//! without the rebuild.

use socialscope_graph::NodeId;

/// One tagging action on the site: a user assigning a tag to an item, or
/// retracting a previous assignment.
///
/// Events are idempotent at application time: assigning a `(tagger, item,
/// tag)` triple that is already present, or retracting one that is absent,
/// is a no-op everywhere in the delta path (site model and indexes alike),
/// so replaying a batch — or interleaving duplicates into one — cannot
/// drift the maintained state away from a rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagEvent {
    /// A user tagged an item.
    Assign {
        /// The user performing the tagging.
        tagger: NodeId,
        /// The item being tagged.
        item: NodeId,
        /// The tag text (normalized to lowercase at application time).
        tag: String,
    },
    /// A user removed their tag from an item.
    Retract {
        /// The user retracting their assignment.
        tagger: NodeId,
        /// The item the tag is removed from.
        item: NodeId,
        /// The tag text (normalized to lowercase at application time).
        tag: String,
    },
}

impl TagEvent {
    /// Build an [`TagEvent::Assign`] event.
    pub fn assign(tagger: NodeId, item: NodeId, tag: impl Into<String>) -> Self {
        TagEvent::Assign { tagger, item, tag: tag.into() }
    }

    /// Build a [`TagEvent::Retract`] event.
    pub fn retract(tagger: NodeId, item: NodeId, tag: impl Into<String>) -> Self {
        TagEvent::Retract { tagger, item, tag: tag.into() }
    }

    /// The user performing the action.
    pub fn tagger(&self) -> NodeId {
        match self {
            TagEvent::Assign { tagger, .. } | TagEvent::Retract { tagger, .. } => *tagger,
        }
    }

    /// The item acted on.
    pub fn item(&self) -> NodeId {
        match self {
            TagEvent::Assign { item, .. } | TagEvent::Retract { item, .. } => *item,
        }
    }

    /// The raw tag text of the event (not yet normalized).
    pub fn tag(&self) -> &str {
        match self {
            TagEvent::Assign { tag, .. } | TagEvent::Retract { tag, .. } => tag.as_str(),
        }
    }

    /// Whether this is an [`TagEvent::Assign`] event.
    pub fn is_assign(&self) -> bool {
        matches!(self, TagEvent::Assign { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_both_variants() {
        let a = TagEvent::assign(NodeId(1), NodeId(2), "Baseball");
        let r = TagEvent::retract(NodeId(3), NodeId(4), "museum");
        assert!(a.is_assign());
        assert!(!r.is_assign());
        assert_eq!((a.tagger(), a.item(), a.tag()), (NodeId(1), NodeId(2), "Baseball"));
        assert_eq!((r.tagger(), r.item(), r.tag()), (NodeId(3), NodeId(4), "museum"));
    }
}
