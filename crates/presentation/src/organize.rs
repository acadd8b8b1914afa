//! Group meaningfulness, group selection, hierarchical exploration and
//! ranking (paper §7.1): the Information Organizer and Result Selector.

use crate::grouping::{group_items, GroupingStrategy, ItemGroup};
use socialscope_discovery::MeaningfulSocialGraph;
use socialscope_graph::SocialGraph;

/// The meaningfulness criteria of §7.1 for one grouping: number of groups,
/// average group quality (relevance of members) and group sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMeaningfulness {
    /// Number of groups produced.
    pub group_count: usize,
    /// Average over groups of the mean member relevance.
    pub avg_quality: f64,
    /// Average group size.
    pub avg_size: f64,
    /// Combined meaningfulness score (higher is better).
    pub score: f64,
}

/// A fully organized result presentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Presentation {
    /// The strategy used.
    pub strategy: GroupingStrategy,
    /// The selected groups (at most `max_groups`), each internally ranked.
    pub groups: Vec<ItemGroup>,
    /// The meaningfulness assessment of the full grouping.
    pub meaningfulness: GroupMeaningfulness,
}

/// The Information Organizer: turns a Meaningful Social Graph into grouped,
/// ranked presentations and decides which grouping is most meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct InformationOrganizer {
    /// Maximum number of groups that fit the screen.
    pub max_groups: usize,
    /// Social-grouping threshold θ.
    pub social_theta: f64,
}

impl Default for InformationOrganizer {
    fn default() -> Self {
        InformationOrganizer { max_groups: 5, social_theta: 0.5 }
    }
}

impl InformationOrganizer {
    /// Assess the meaningfulness of a grouping against the result relevance.
    pub fn assess(&self, msg: &MeaningfulSocialGraph, groups: &[ItemGroup]) -> GroupMeaningfulness {
        let group_count = groups.len();
        if group_count == 0 {
            return GroupMeaningfulness {
                group_count: 0,
                avg_quality: 0.0,
                avg_size: 0.0,
                score: 0.0,
            };
        }
        let mut qualities = Vec::new();
        let mut sizes = Vec::new();
        for g in groups {
            let scores: Vec<f64> = g.items.iter().filter_map(|i| msg.score_of(*i)).collect();
            let quality = if scores.is_empty() {
                0.0
            } else {
                scores.iter().sum::<f64>() / scores.len() as f64
            };
            qualities.push(quality);
            sizes.push(g.items.len() as f64);
        }
        let avg_quality = qualities.iter().sum::<f64>() / group_count as f64;
        let avg_size = sizes.iter().sum::<f64>() / group_count as f64;
        // Penalize groupings that exceed the screen budget; reward quality
        // and reasonably sized groups.
        let overflow_penalty = if group_count > self.max_groups {
            self.max_groups as f64 / group_count as f64
        } else {
            1.0
        };
        let score = avg_quality * avg_size.sqrt() * overflow_penalty;
        GroupMeaningfulness { group_count, avg_quality, avg_size, score }
    }

    /// Organize a result under one strategy: group, rank members within each
    /// group by relevance, rank groups by quality, and keep the groups that
    /// fit the screen.
    pub fn organize(
        &self,
        graph: &SocialGraph,
        msg: &MeaningfulSocialGraph,
        strategy: GroupingStrategy,
    ) -> Presentation {
        let items = msg.item_ids();
        let mut groups = group_items(graph, &items, &strategy);
        for g in &mut groups {
            g.items.sort_by(|a, b| {
                msg.score_of(*b)
                    .unwrap_or(0.0)
                    .total_cmp(&msg.score_of(*a).unwrap_or(0.0))
                    .then(a.cmp(b))
            });
        }
        let meaningfulness = self.assess(msg, &groups);
        groups.sort_by(|a, b| {
            let qa = group_quality(msg, a);
            let qb = group_quality(msg, b);
            qb.total_cmp(&qa).then(a.label.cmp(&b.label))
        });
        groups.truncate(self.max_groups);
        Presentation { strategy, groups, meaningfulness }
    }

    /// Organize under every standard strategy and return the presentations
    /// ordered by meaningfulness (most meaningful first) — the decision "which
    /// group is more relevant to the user" the paper assigns to the
    /// Information Organizer.
    pub fn best_presentation(
        &self,
        graph: &SocialGraph,
        msg: &MeaningfulSocialGraph,
        facet_attribute: &str,
    ) -> Vec<Presentation> {
        let mut all = vec![
            self.organize(graph, msg, GroupingStrategy::Social { theta: self.social_theta }),
            self.organize(graph, msg, GroupingStrategy::Topical),
            self.organize(
                graph,
                msg,
                GroupingStrategy::Structural { attribute: facet_attribute.to_string() },
            ),
        ];
        all.sort_by(|a, b| b.meaningfulness.score.total_cmp(&a.meaningfulness.score));
        all
    }

    /// Hierarchical zoom-in (paper §7.1): split one group into sub-groups by
    /// a secondary strategy, so a user can explore a group that interests
    /// them without widening the screen budget.
    pub fn zoom_in(
        &self,
        graph: &SocialGraph,
        group: &ItemGroup,
        strategy: &GroupingStrategy,
    ) -> Vec<ItemGroup> {
        group_items(graph, &group.items, strategy).into_iter().filter(|g| !g.is_empty()).collect()
    }
}

fn group_quality(msg: &MeaningfulSocialGraph, group: &ItemGroup) -> f64 {
    let scores: Vec<f64> = group.items.iter().filter_map(|i| msg.score_of(*i)).collect();
    if scores.is_empty() {
        0.0
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_discovery::{InformationDiscoverer, UserQuery};
    use socialscope_graph::{GraphBuilder, NodeId};

    /// Alexia's exploratory "American history" query.
    fn alexia_site() -> (SocialGraph, NodeId) {
        let mut b = GraphBuilder::new();
        let alexia = b.add_user("Alexia");
        let classmates: Vec<_> = (0..3).map(|i| b.add_user(&format!("class{i}"))).collect();
        let team: Vec<_> = (0..2).map(|i| b.add_user(&format!("team{i}"))).collect();
        for &c in &classmates {
            b.befriend(alexia, c);
        }
        for &t in &team {
            b.befriend(alexia, t);
        }
        let gettysburg = b.add_item_with_keywords(
            "Gettysburg",
            &["destination"],
            &["american", "history", "war"],
        );
        let liberty = b.add_item_with_keywords(
            "Liberty Bell",
            &["destination"],
            &["american", "history", "independence"],
        );
        let mount_vernon =
            b.add_item_with_keywords("Mount Vernon", &["destination"], &["american", "history"]);
        for &c in &classmates {
            b.visit(c, gettysburg);
            b.visit(c, liberty);
        }
        for &t in &team {
            b.visit(t, mount_vernon);
        }
        let topic = b.add_topic("independence war");
        b.belongs_to(gettysburg, topic);
        b.belongs_to(liberty, topic);
        (b.build(), alexia)
    }

    fn msg_for(g: &SocialGraph, user: NodeId) -> MeaningfulSocialGraph {
        InformationDiscoverer::default()
            .discover(g, &UserQuery::keywords_for(user, "american history"))
    }

    #[test]
    fn organize_groups_and_ranks_results() {
        let (g, alexia) = alexia_site();
        let msg = msg_for(&g, alexia);
        assert!(msg.len() >= 3);
        let organizer = InformationOrganizer::default();
        let p = organizer.organize(&g, &msg, GroupingStrategy::Social { theta: 0.5 });
        assert!(!p.groups.is_empty());
        assert!(p.groups.len() <= organizer.max_groups);
        // Within each group items are sorted by combined relevance.
        for group in &p.groups {
            let scores: Vec<f64> =
                group.items.iter().map(|i| msg.score_of(*i).unwrap_or(0.0)).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        }
        assert!(p.meaningfulness.score > 0.0);
    }

    #[test]
    fn best_presentation_orders_strategies_by_meaningfulness() {
        let (g, alexia) = alexia_site();
        let msg = msg_for(&g, alexia);
        let organizer = InformationOrganizer::default();
        let ranked = organizer.best_presentation(&g, &msg, "keywords");
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].meaningfulness.score >= ranked[1].meaningfulness.score);
        assert!(ranked[1].meaningfulness.score >= ranked[2].meaningfulness.score);
    }

    #[test]
    fn zoom_in_refines_a_group() {
        let (g, alexia) = alexia_site();
        let msg = msg_for(&g, alexia);
        let organizer = InformationOrganizer::default();
        let p = organizer.organize(&g, &msg, GroupingStrategy::Social { theta: 0.0 });
        let big = p.groups.iter().max_by_key(|g| g.items.len()).unwrap();
        let sub = organizer.zoom_in(
            &g,
            big,
            &GroupingStrategy::Structural { attribute: "keywords".into() },
        );
        assert!(!sub.is_empty());
        let covered: usize = sub.iter().map(|g| g.items.len()).sum();
        assert!(covered >= big.items.len());
    }

    #[test]
    fn empty_results_produce_empty_presentation() {
        let (g, _) = alexia_site();
        let msg = MeaningfulSocialGraph::default();
        let organizer = InformationOrganizer::default();
        let p = organizer.organize(&g, &msg, GroupingStrategy::Topical);
        assert!(p.groups.is_empty());
        assert_eq!(p.meaningfulness.score, 0.0);
    }

    #[test]
    fn max_groups_caps_the_presentation() {
        let (g, alexia) = alexia_site();
        let msg = msg_for(&g, alexia);
        let organizer = InformationOrganizer { max_groups: 1, social_theta: 0.9 };
        let p = organizer.organize(&g, &msg, GroupingStrategy::Social { theta: 0.9 });
        assert!(p.groups.len() <= 1);
    }
}
