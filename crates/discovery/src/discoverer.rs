//! The Information Discoverer (paper §3, §5).
//!
//! Parses the user query, computes semantic and social relevance, evaluates
//! the scope over the social content graph (via the algebra's selection
//! operators), and returns the Meaningful Social Graph.

use crate::msg::{MeaningfulSocialGraph, RankedItem};
use crate::query::{tokenize, UserQuery};
use crate::recommend::{BatchRecommender, Recommendation};
use crate::relevance::{combined_score, RelevanceWeights, SemanticScorer};
use crate::social::SocialRelevance;
use socialscope_algebra::prelude::*;
use socialscope_content::BatchOptions;
use socialscope_graph::{HasAttrs, NodeId, SocialGraph};

/// The Information Discoverer: configuration plus the discovery entry point.
#[derive(Debug, Clone)]
pub struct InformationDiscoverer {
    /// Mixing weights between semantic and social relevance.
    pub weights: RelevanceWeights,
    /// Maximum number of ranked items to return.
    pub limit: usize,
    /// Blend expert endorsement into the social component (Example 2): when
    /// the user's own connections provide no signal — or only signal that is
    /// irrelevant to the query, like Selma's musician friends — the topic
    /// experts' endorsements act as the social basis instead.
    pub expert_fallback: bool,
}

impl Default for InformationDiscoverer {
    fn default() -> Self {
        InformationDiscoverer {
            weights: RelevanceWeights::default(),
            limit: 20,
            expert_fallback: true,
        }
    }
}

impl InformationDiscoverer {
    /// Run discovery for a query over a social content graph.
    pub fn discover(&self, graph: &SocialGraph, query: &UserQuery) -> MeaningfulSocialGraph {
        // 1. Scope: items satisfying the structural predicates (and, softly,
        //    the keywords), via Node Selection.
        let mut scope_condition = query.scope_condition();
        // Discovery is about items; restrict the scope to item nodes unless
        // the query already constrains the type.
        if !scope_condition.structural.iter().any(|c| c.attr == "type") {
            scope_condition = scope_condition.and_attr("type", "item");
        }
        let candidates = node_select(graph, &scope_condition, None);

        // 2. Relevance components.
        let semantic_scorer = SemanticScorer::from_graph(graph);
        let social_scorer = SocialRelevance::from_graph(graph);

        let mut ranked: Vec<RankedItem> = Vec::new();
        for node in candidates.nodes() {
            let semantic = semantic_scorer.score(node, query);
            let social = match query.user {
                Some(u) => social_scorer.score(graph, u, node.id),
                None => 0.0,
            };
            let combined = combined_score(self.weights, query, semantic, social);
            ranked.push(RankedItem { item: node.id, semantic, social, combined });
        }

        // 3. Expert blending (Example 2): the user's own connections may
        //    carry no signal for this query (or only irrelevant signal, like
        //    Selma's musician friends); endorsements by the query's topic
        //    experts provide the social basis in that case. Taking the max
        //    keeps genuine network endorsements dominant when they exist.
        if self.expert_fallback && query.user.is_some() && !query.keywords.is_empty() {
            for r in &mut ranked {
                let expert = social_scorer.expert_score(graph, r.item, &query.keywords);
                if expert > r.social {
                    r.social = expert;
                    r.combined = combined_score(self.weights, query, r.semantic, expert);
                }
            }
        }

        ranked.sort_by(|a, b| b.combined.total_cmp(&a.combined).then_with(|| a.item.cmp(&b.item)));
        ranked.retain(|r| r.combined > 0.0);
        ranked.truncate(self.limit);

        // 4. Provenance sub-graph: the ranked items, the querying user, the
        //    activity links touching the items, and the user's connections.
        let graph_out = self.provenance(graph, query.user, &ranked);
        MeaningfulSocialGraph { user: query.user, graph: graph_out, ranked }
    }

    /// Route a keyword-only multi-seeker request through the content
    /// layer's batch engine instead of walking the graph once per seeker:
    /// the paper's network-aware scoring ranks the *same* keyword text
    /// differently per seeker, so serving the whole seeker set as one
    /// batch against a prebuilt engine amortizes keyword resolution and
    /// evaluation state across the set — and, through the execution
    /// layer's [`BatchOptions::exec`], shards the batch across workers.
    ///
    /// This is the *one* batched discovery surface, mirroring the engines'
    /// `query_batch_opts`: which engine serves it is the
    /// [`BatchRecommender`] value — [`crate::NetworkAwareSearch`] for the
    /// exact deployment, [`crate::ClusteredNetworkAwareSearch`] for the
    /// space-constrained one (flagged unclustered seekers answer empty
    /// unless the engine carries a
    /// [`crate::ClusteredNetworkAwareSearch::with_fallback`] index) — and how it
    /// runs is the [`BatchOptions`]: threads, scratch reuse, and, for
    /// latency-bounded serving, a [`BatchOptions::deadline`] budget. When
    /// the budget expires mid-batch the remaining seekers get the defined
    /// degraded answer (an empty recommendation list), matching the
    /// content layer's partial-results contract.
    ///
    /// Returns one recommendation list per seeker (at most
    /// [`Self::limit`] each, positive scores only), in input order,
    /// element-wise identical to per-seeker `recommend` calls on the same
    /// engine.
    ///
    /// Queries with structural predicates (or callers that need semantic
    /// relevance and provenance) still go through [`Self::discover`].
    pub fn discover_opts(
        &self,
        engine: &impl BatchRecommender,
        seekers: &[NodeId],
        text: &str,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<Recommendation>> {
        engine.recommend_batch_opts(seekers, &tokenize(text), self.limit, opts)
    }

    /// Build the provenance sub-graph of a ranked result set.
    fn provenance(
        &self,
        graph: &SocialGraph,
        user: Option<NodeId>,
        ranked: &[RankedItem],
    ) -> SocialGraph {
        let item_set: Vec<NodeId> = ranked.iter().map(|r| r.item).collect();
        let mut out = SocialGraph::new();
        for &item in &item_set {
            if let Some(n) = graph.node(item) {
                out.add_node(n.clone());
            }
        }
        if let Some(u) = user {
            if let Some(n) = graph.node(u) {
                out.add_node(n.clone());
            }
        }
        // Activity links into the items (social provenance) and the user's
        // connection links.
        for link in graph.links() {
            let touches_item = item_set.contains(&link.tgt);
            let is_activity = link.has_type("act") || link.has_type("belong");
            let is_user_connection =
                user.map(|u| link.touches(u) && link.has_type("connect")).unwrap_or(false);
            if (touches_item && is_activity) || is_user_connection {
                for end in [link.src, link.tgt] {
                    if !out.has_node(end) {
                        if let Some(n) = graph.node(end) {
                            out.add_node(n.clone());
                        }
                    }
                }
                let _ = out.add_link(link.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// Example 1's setup: John the baseball fan searches Denver attractions.
    fn johns_denver() -> (SocialGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let john = b.add_user_with_interests("John", &["baseball"]);
        let friend = b.add_user("Friend");
        let coors = b.add_item_with_keywords(
            "Coors Field",
            &["destination"],
            &["denver", "baseball", "attractions"],
        );
        let museum = b.add_item_with_keywords(
            "B's Ballpark Museum",
            &["destination"],
            &["denver", "baseball", "museum"],
        );
        let opera = b.add_item_with_keywords("Opera House", &["destination"], &["denver", "music"]);
        b.befriend(john, friend);
        b.visit(friend, coors);
        b.visit(friend, museum);
        b.tag(friend, museum, &["baseball"]);
        (b.build(), john, coors, museum, opera)
    }

    #[test]
    fn discovery_combines_semantic_and_social_relevance() {
        let (g, john, coors, museum, opera) = johns_denver();
        let discoverer = InformationDiscoverer::default();
        let msg = discoverer.discover(&g, &UserQuery::keywords_for(john, "Denver attractions"));
        // All Denver items are semantically relevant, but the socially
        // endorsed ones must come first.
        let ids = msg.item_ids();
        assert!(ids.contains(&coors));
        assert!(ids.contains(&museum));
        let opera_rank = ids.iter().position(|i| *i == opera);
        let coors_rank = ids.iter().position(|i| *i == coors).unwrap();
        if let Some(opera_rank) = opera_rank {
            assert!(coors_rank < opera_rank);
        }
        // Provenance contains the endorsing friend and the activity links.
        assert!(msg.graph.nodes_of_type("user").count() >= 2);
        assert!(msg.graph.links_of_type("act").count() >= 2);
    }

    #[test]
    fn anonymous_queries_are_pure_semantic() {
        let (g, _, _, _, opera) = johns_denver();
        let discoverer = InformationDiscoverer::default();
        let msg = discoverer.discover(&g, &UserQuery::anonymous("denver music"));
        assert_eq!(msg.ranked[0].item, opera);
        assert!(msg.ranked.iter().all(|r| r.social == 0.0));
    }

    #[test]
    fn empty_query_is_pure_recommendation() {
        let (g, john, coors, ..) = johns_denver();
        let discoverer = InformationDiscoverer::default();
        let msg = discoverer.discover(&g, &UserQuery::empty_for(john));
        // Only socially endorsed items appear.
        assert!(msg.item_ids().contains(&coors));
        assert!(msg.ranked.iter().all(|r| r.social > 0.0));
    }

    #[test]
    fn structural_predicates_narrow_the_scope() {
        let (g, john, ..) = johns_denver();
        let discoverer = InformationDiscoverer::default();
        let q = UserQuery::keywords_for(john, "denver").with_structural("type", "museum");
        let msg = discoverer.discover(&g, &q);
        assert!(msg.is_empty());
        let q = UserQuery::keywords_for(john, "denver").with_structural("type", "destination");
        let msg = discoverer.discover(&g, &q);
        assert!(!msg.is_empty());
    }

    #[test]
    fn discover_batch_routes_keyword_requests_through_the_batch_engines() {
        use crate::recommend::{ClusteredNetworkAwareSearch, NetworkAwareSearch};
        let mut b = GraphBuilder::new();
        let users: Vec<NodeId> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
        let items: Vec<NodeId> =
            (0..4).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
        b.befriend(users[0], users[1]);
        b.befriend(users[1], users[2]);
        b.befriend(users[3], users[4]);
        b.tag(users[1], items[0], &["baseball"]);
        b.tag(users[2], items[1], &["baseball", "museum"]);
        b.tag(users[4], items[2], &["museum"]);
        b.tag(users[5], items[3], &["baseball"]);
        let graph = b.build();
        let discoverer = InformationDiscoverer { limit: 3, ..InformationDiscoverer::default() };
        let exact = NetworkAwareSearch::build(&graph);
        let clustered = ClusteredNetworkAwareSearch::build_default(&graph);
        let seekers: Vec<NodeId> = users.iter().copied().chain([NodeId(9999)]).collect();
        let text = "Baseball museum";
        for threads in [1usize, 2, 7] {
            let exec = socialscope_exec::Exec::new(threads).unwrap();
            let opts = || BatchOptions::new().exec(&exec);
            let batched = discoverer.discover_opts(&exact, &seekers, text, opts());
            assert_eq!(batched.len(), seekers.len());
            for (recs, &u) in batched.iter().zip(&seekers) {
                assert_eq!(recs, &exact.recommend(u, &crate::query::tokenize(text), 3));
                assert!(recs.len() <= discoverer.limit);
            }
            let batched = discoverer.discover_opts(&clustered, &seekers, text, opts());
            for (recs, &u) in batched.iter().zip(&seekers) {
                assert_eq!(recs, &clustered.recommend(u, &crate::query::tokenize(text), 3));
            }
        }
        // The two engines agree with each other as well.
        let exec = socialscope_exec::Exec::sequential();
        assert_eq!(
            discoverer.discover_opts(&exact, &seekers, text, BatchOptions::new().exec(&exec)),
            discoverer
                .discover_opts(&clustered, &seekers, text, BatchOptions::new().exec(&exec))
                .into_iter()
                .map(|recs| recs
                    .into_iter()
                    .map(|r| Recommendation { strategy: "network-aware", ..r })
                    .collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn expert_fallback_applies_when_network_is_silent() {
        // Selma's case: no friend has relevant activity, but an expert has.
        let mut b = GraphBuilder::new();
        let selma = b.add_user("Selma");
        let musician = b.add_user("MusicianFriend");
        let expert = b.add_user("TravelExpert");
        let parc = b.add_item_with_keywords(
            "Parc de la Ciutadella",
            &["destination"],
            &["barcelona", "family", "babies"],
        );
        let bar = b.add_item_with_keywords("Jazz Bar", &["destination"], &["barcelona", "music"]);
        b.befriend(selma, musician);
        b.tag(expert, parc, &["family", "babies"]);
        let g = b.build();

        let msg = InformationDiscoverer::default()
            .discover(&g, &UserQuery::keywords_for(selma, "Barcelona family trip with babies"));
        assert_eq!(msg.ranked[0].item, parc);
        assert!(msg.ranked[0].social > 0.0, "expert endorsement should provide social signal");
        let bar_social = msg.score_of(bar);
        if let Some(bar_score) = bar_social {
            assert!(msg.ranked[0].combined > bar_score);
        }
    }
}
