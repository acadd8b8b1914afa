//! Engine-level fault-injection tests (compiled only with the
//! `failpoints` cargo feature): a fault anywhere inside an engine apply —
//! the site-model update, the index patch, or the fallback's lockstep
//! patch — must leave the *whole engine* (site model, index, fallback)
//! byte-identical to its pre-apply state, so no query can ever observe a
//! site/index tear; and a batch deadline expiring inside the content layer
//! must surface through the discoverer's batch entry points as the defined
//! degraded answer (an empty recommendation list), not as garbage.

#![cfg(feature = "failpoints")]

mod common;

use common::{arb_events, arb_site, fixture, without_stamps, STRATEGIES};
use proptest::prelude::*;
use socialscope_content::{faults, BatchOptions, TagEvent};
use socialscope_discovery::discoverer::InformationDiscoverer;
use socialscope_discovery::recommend::{ClusteredNetworkAwareSearch, NetworkAwareSearch};
use socialscope_exec::failpoints::{FailAction, FailScenario};
use socialscope_exec::Exec;
use socialscope_graph::{GraphBuilder, NodeId, SocialGraph};

/// Two friends tag different items; a stranger tags a third.
fn site() -> (SocialGraph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let users: Vec<NodeId> = (0..4).map(|i| b.add_user(&format!("u{i}"))).collect();
    let items: Vec<NodeId> =
        (0..3).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    b.befriend(users[0], users[1]);
    b.befriend(users[0], users[2]);
    b.tag(users[1], items[0], &["baseball"]);
    b.tag(users[2], items[0], &["baseball"]);
    b.tag(users[1], items[1], &["museum"]);
    b.tag(users[3], items[2], &["baseball", "museum"]);
    (b.build(), users, items)
}

#[test]
fn a_fault_anywhere_in_an_engine_apply_leaves_no_tear() {
    let scenario = FailScenario::setup();
    let (graph, users, items) = site();
    let exec = Exec::new(2).unwrap();
    let exact0 = NetworkAwareSearch::build(&graph);
    let clustered0 = ClusteredNetworkAwareSearch::build_default(&graph).with_exact_fallback();
    let events = vec![
        TagEvent::assign(users[3], items[0], "museum"),
        TagEvent::assign(users[0], items[2], "newtag"),
        TagEvent::retract(users[1], items[1], "museum"),
    ];
    let keywords = vec!["baseball".to_string(), "museum".to_string()];

    for &fp in faults::APPLY_SITES {
        scenario.arm(fp, FailAction::Fault { after: 0 });

        // Exact engine: only exact-path and site-model sites are on its
        // apply path; a fault at a clustered-only site passes through.
        let mut exact = exact0.clone();
        let before = format!("{exact:?}");
        let on_path = fp == faults::SITE_APPLY
            || fp == faults::EXACT_APPLY_STAGE
            || fp == faults::EXACT_APPLY_COMMIT;
        let outcome = exact.try_apply_with(&exec, &events);
        if on_path {
            outcome.unwrap_err();
            assert_eq!(format!("{exact:?}"), before, "fault at `{fp}` tore the exact engine");
        } else {
            outcome.unwrap();
        }

        // Clustered engine with a fallback: *every* registered apply site
        // is on its path (site model, fallback exact patch, clustered
        // index patch) — any fault must roll the whole trio back.
        let mut clustered = clustered0.clone();
        let before = format!("{clustered:?}");
        clustered.try_apply_with(&exec, &events).unwrap_err();
        assert_eq!(format!("{clustered:?}"), before, "fault at `{fp}` tore the clustered engine");

        // Rolled-back engines still answer exactly like the pristine one.
        for &u in &users {
            assert_eq!(clustered.query(u, &keywords, 3), clustered0.query(u, &keywords, 3));
        }

        // Disarmed, the same engine instances complete the batch and agree
        // with engines that applied it fault-free.
        scenario.disarm(fp);
        exact.try_apply_with(&exec, &events).unwrap();
        clustered.try_apply_with(&exec, &events).unwrap();
        let mut want_exact = exact0.clone();
        want_exact.try_apply_with(&exec, &events).unwrap();
        let mut want_clustered = clustered0.clone();
        want_clustered.try_apply_with(&exec, &events).unwrap();
        for &u in &users {
            assert_eq!(
                exact.query(u, &keywords, 3),
                want_exact.query(u, &keywords, 3),
                "retry past `{fp}` diverged (exact)"
            );
            assert_eq!(
                clustered.query(u, &keywords, 3),
                want_clustered.query(u, &keywords, 3),
                "retry past `{fp}` diverged (clustered)"
            );
        }
    }
}

#[test]
fn a_deadline_expiry_reaches_the_discoverer_as_empty_recommendations() {
    let scenario = FailScenario::setup();
    let (graph, users, _) = site();
    let discoverer = InformationDiscoverer { limit: 3, ..InformationDiscoverer::default() };
    let exact = NetworkAwareSearch::build(&graph);
    let clustered = ClusteredNetworkAwareSearch::build_default(&graph);
    let text = "Baseball museum";
    let hour = std::time::Duration::from_secs(3600);
    let exec = Exec::sequential();
    // Deadline checks are chunk-granular (one cooperative check per
    // 32-member run), so the batch must span more than one chunk for a
    // mid-batch expiry to leave a *strict* subset.
    let users: Vec<NodeId> = users.iter().cycle().take(40).copied().collect();
    let unbounded = discoverer.discover_opts(&exact, &users, text, BatchOptions::new().exec(&exec));

    // Expiry forced from the very first cooperative check: every seeker
    // gets the defined degraded answer — an empty recommendation list.
    scenario.arm(faults::DEADLINE, FailAction::Fault { after: 0 });
    let served = discoverer.discover_opts(
        &exact,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    assert_eq!(served.len(), users.len());
    assert!(served.iter().all(Vec::is_empty), "starved seekers must answer empty");
    let served = discoverer.discover_opts(
        &clustered,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    assert!(served.iter().all(Vec::is_empty), "starved seekers must answer empty (clustered)");
    // Expiry forced after the first check: a strict subset survives, and
    // every survivor is byte-identical to its unbounded answer.
    scenario.arm(faults::DEADLINE, FailAction::Fault { after: 1 });
    let served = discoverer.discover_opts(
        &exact,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    let survivors = served.iter().filter(|r| !r.is_empty()).count();
    assert!(survivors < users.len());
    for (got, want) in served.iter().zip(&unbounded) {
        assert!(got.is_empty() || got == want);
    }
    scenario.disarm(faults::DEADLINE);
    // Disarmed, the huge budget is invisible.
    let served = discoverer.discover_opts(
        &exact,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    assert_eq!(served, unbounded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rollback of the *whole engine* under arbitrary streams: for every
    /// registered apply site, every clustering strategy and late joiners
    /// in the batch, a fault leaves the clustered engine (site, index,
    /// clustering, fallback) and the exact engine `Debug`-identical to
    /// their pre-apply state, and the disarmed retry reaches exactly the
    /// state of engines that applied the batch fault-free.
    #[test]
    fn engine_faults_roll_back_for_arbitrary_streams(
        inputs in arb_site(),
        raw in arb_events(),
        strategy in 0usize..3,
        theta in 0.1f64..0.9,
        threads in 1usize..4,
    ) {
        let scenario = FailScenario::setup();
        let case = fixture(&inputs, &raw, STRATEGIES[strategy], theta);
        let exec = Exec::new(threads).unwrap();
        let mut want_clustered = case.clustered.clone();
        want_clustered.try_apply_with(&exec, &case.events).unwrap();
        let mut want_exact = case.exact.clone();
        want_exact.try_apply_with(&exec, &case.events).unwrap();
        let want_clustered = without_stamps(format!("{want_clustered:?}"));
        let want_exact = format!("{want_exact:?}");

        for &fp in faults::APPLY_SITES {
            scenario.arm(fp, FailAction::Fault { after: 0 });
            // Every registered site is on the clustered engine's path.
            let mut clustered = case.clustered.clone();
            let before = format!("{clustered:?}");
            prop_assert!(clustered.try_apply_with(&exec, &case.events).is_err());
            prop_assert_eq!(format!("{clustered:?}"), before, "fault at `{}` tore the engine", fp);
            // The exact engine runs the site and exact sites only.
            let mut exact = case.exact.clone();
            let before = format!("{exact:?}");
            let on_path = !fp.starts_with("content::clustered_apply::");
            prop_assert_eq!(exact.try_apply_with(&exec, &case.events).is_err(), on_path);
            if on_path {
                prop_assert_eq!(format!("{exact:?}"), before, "fault at `{}` tore the engine", fp);
            }
            scenario.disarm(fp);
            clustered.try_apply_with(&exec, &case.events).unwrap();
            prop_assert_eq!(
                without_stamps(format!("{clustered:?}")),
                want_clustered.clone(),
                "retry past `{}` diverged", fp
            );
            if on_path {
                exact.try_apply_with(&exec, &case.events).unwrap();
                prop_assert_eq!(format!("{exact:?}"), want_exact.clone(), "retry past `{}`", fp);
            }
        }
    }
}
