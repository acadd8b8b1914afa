//! Property-based checks of the unified batched-discovery surface: on
//! random sites, seeker sets and query texts, `discover_opts` answers
//! identically over both engines whether the caller threads a warm
//! scratch pool through it or lets each call allocate its own.

use proptest::prelude::*;
use socialscope_content::{BatchOptions, BatchScratchPool};
use socialscope_discovery::{
    BatchRecommender, ClusteredNetworkAwareSearch, InformationDiscoverer, NetworkAwareSearch,
};
use socialscope_exec::Exec;
use socialscope_graph::{GraphBuilder, NodeId, SocialGraph};

const TAGS: [&str; 4] = ["baseball", "museum", "family", "hiking"];
const TEXTS: [&str; 4] =
    ["Baseball museum", "family hiking", "museum", "baseball family museum hiking"];

/// (users, items, friendship edges, tag actions, text choice) describing a
/// random site plus a query against it.
type Inputs = (usize, usize, Vec<(usize, usize)>, Vec<(usize, usize, usize)>, usize);

fn arb_inputs() -> impl Strategy<Value = Inputs> {
    (
        3usize..8,
        3usize..8,
        prop::collection::vec((0usize..8, 0usize..8), 1..20),
        prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..30),
        0usize..TEXTS.len(),
    )
}

fn build_site(
    users: usize,
    items: usize,
    friendships: &[(usize, usize)],
    tags: &[(usize, usize, usize)],
) -> (SocialGraph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let user_ids: Vec<NodeId> = (0..users).map(|i| b.add_user(&format!("u{i}"))).collect();
    let item_ids: Vec<NodeId> =
        (0..items).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    for &(a, c) in friendships {
        let (a, c) = (a % users, c % users);
        if a != c {
            b.befriend(user_ids[a], user_ids[c]);
        }
    }
    for &(u, i, t) in tags {
        b.tag(user_ids[u % users], item_ids[i % items], &[TAGS[t % TAGS.len()]]);
    }
    (b.build(), user_ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `discover_opts` is insensitive to scratch reuse: a warm
    /// [`BatchScratchPool`] carried across calls answers identically to
    /// throwaway scratch, through the generic [`BatchRecommender`]
    /// surface over both engines.
    #[test]
    fn discover_opts_is_scratch_insensitive((users, items, fr, tg, text_choice) in arb_inputs()) {
        let (graph, seekers) = build_site(users, items, &fr, &tg);
        let text = TEXTS[text_choice];
        let discoverer = InformationDiscoverer { limit: 4, ..InformationDiscoverer::default() };
        let exact = NetworkAwareSearch::build(&graph);
        let clustered = ClusteredNetworkAwareSearch::build_default(&graph).with_exact_fallback();
        let exec = Exec::new(2).unwrap();
        let mut pool = BatchScratchPool::default();
        let engines: [&dyn Engine; 2] = [&exact, &clustered];
        for engine in engines {
            let cold = engine.serve(&discoverer, &seekers, text, BatchOptions::new().exec(&exec));
            for _ in 0..2 {
                let warm = engine.serve(
                    &discoverer,
                    &seekers,
                    text,
                    BatchOptions::new().exec(&exec).scratch_pool(&mut pool),
                );
                prop_assert_eq!(&warm, &cold);
            }
        }
    }
}

/// Object-safe shim: the proptest iterates engines of two concrete types,
/// so route the generic `discover_opts` through a dyn-dispatched helper.
trait Engine {
    fn serve(
        &self,
        discoverer: &InformationDiscoverer,
        seekers: &[NodeId],
        text: &str,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<socialscope_discovery::Recommendation>>;
}

impl<T: BatchRecommender> Engine for T {
    fn serve(
        &self,
        discoverer: &InformationDiscoverer,
        seekers: &[NodeId],
        text: &str,
        opts: BatchOptions<'_>,
    ) -> Vec<Vec<socialscope_discovery::Recommendation>> {
        discoverer.discover_opts(self, seekers, text, opts)
    }
}
