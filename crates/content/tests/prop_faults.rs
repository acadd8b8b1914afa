//! Fault-injection tests for the transactional apply and deadline
//! contracts (compiled only with the `failpoints` cargo feature).
//!
//! Two contracts are exercised deterministically, with no real clock and
//! no racy test closures:
//!
//! 1. **Rollback.** A fault injected at *any* registered apply-path site
//!    ([`faults::APPLY_SITES`]) makes the apply return
//!    [`ContentError::FaultInjected`] and leaves the component —
//!    site model, exact index or clustered index — byte-identical to its
//!    pre-apply state (checked through the `Debug` rendering, which covers
//!    every field including the build stamp). Disarming and re-applying
//!    then converges to exactly the rebuilt state, so a faulted apply is
//!    safely retryable.
//! 2. **Deadline degradation.** Arming [`faults::DEADLINE`] forces the
//!    cooperative deadline clock to report expiry from a chosen check
//!    onward: every batch member is then either byte-identical to the
//!    unbounded answer (flags clear) or the defined degraded result —
//!    empty, `deadline_expired` set — at every thread count.

#![cfg(feature = "failpoints")]

use proptest::prelude::*;
use socialscope_content::{
    faults, BatchOptions, BatchScratchPool, ClusteredIndex, ClusteringStrategy, ContentError,
    ExactIndex, Layout, NetworkBasedClustering, SiteModel, TagEvent, TopKResult,
};
use socialscope_exec::failpoints::{FailAction, FailScenario};
use socialscope_exec::Exec;
use socialscope_graph::{GraphBuilder, NodeId};

const TAGS: [&str; 4] = ["baseball", "museum", "family", "hiking"];

/// The two-clique fixture: u0-u1-u2 and u3-u4-u5, five items, four tags.
fn two_cliques() -> (SiteModel, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let users: Vec<NodeId> = (0..6).map(|i| b.add_user(&format!("u{i}"))).collect();
    let items: Vec<NodeId> =
        (0..5).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    b.befriend(users[0], users[1]);
    b.befriend(users[1], users[2]);
    b.befriend(users[0], users[2]);
    b.befriend(users[3], users[4]);
    b.befriend(users[4], users[5]);
    b.befriend(users[3], users[5]);
    b.tag(users[1], items[0], &["baseball"]);
    b.tag(users[2], items[1], &["baseball", "stadium"]);
    b.tag(users[1], items[2], &["baseball"]);
    b.tag(users[4], items[2], &["museum"]);
    b.tag(users[5], items[3], &["museum"]);
    b.tag(users[4], items[4], &["museum", "history"]);
    (SiteModel::from_graph(&b.build()), users, items)
}

/// Which component a failpoint site belongs to: faults at another
/// component's site must not perturb this component at all.
fn is_site_model_site(fp: &str) -> bool {
    fp == faults::SITE_APPLY
}
fn is_exact_site(fp: &str) -> bool {
    fp == faults::EXACT_APPLY_STAGE || fp == faults::EXACT_APPLY_COMMIT
}
fn is_clustered_site(fp: &str) -> bool {
    fp.starts_with("content::clustered_apply::")
}

/// Run one component's fallible apply and assert the rollback contract:
/// `Err(FaultInjected)` when `armed_here`, untouched state on error, and
/// plain success otherwise. `Debug` rendering is the byte-identity proxy —
/// it prints every field, build stamps included.
fn check_rollback<C: std::fmt::Debug>(
    component: &mut C,
    armed_here: bool,
    fp: &str,
    apply: impl FnOnce(&mut C) -> socialscope_content::Result<()>,
) {
    let before = format!("{component:?}");
    let outcome = apply(component);
    if armed_here {
        assert_eq!(
            outcome.unwrap_err(),
            ContentError::FaultInjected { site: fp.to_string() },
            "fault at `{fp}` surfaced wrong"
        );
        assert_eq!(format!("{component:?}"), before, "fault at `{fp}` left a partial apply");
    } else {
        outcome.unwrap_or_else(|e| panic!("unarmed component failed under `{fp}`: {e}"));
    }
}

#[test]
fn a_fault_at_every_registered_site_rolls_back_cleanly() {
    let scenario = FailScenario::setup();
    let (site0, users, items) = two_cliques();
    let exec = Exec::new(2).unwrap();
    let exact0 = ExactIndex::build(&site0);
    let clustered0 = ClusteredIndex::build(&site0, NetworkBasedClustering.cluster(&site0, 0.3));
    // New tag, new (tag, cluster) list, a retract and a redundant assign:
    // the batch drives every phase of both applies.
    let events = vec![
        TagEvent::assign(users[4], items[0], "baseball"),
        TagEvent::assign(users[0], items[3], "newtag"),
        TagEvent::retract(users[1], items[0], "baseball"),
        TagEvent::assign(users[1], items[2], "baseball"),
    ];
    let mut updated_site = site0.clone();
    updated_site.try_apply(&events).unwrap();
    let keywords: Vec<String> = TAGS[..2].iter().map(|t| t.to_string()).collect();

    for &fp in faults::APPLY_SITES {
        scenario.arm(fp, FailAction::Fault { after: 0 });

        let mut site = site0.clone();
        check_rollback(&mut site, is_site_model_site(fp), fp, |s| s.try_apply(&events).map(drop));
        let mut exact = exact0.clone();
        check_rollback(&mut exact, is_exact_site(fp), fp, |e| {
            e.try_apply_with(&exec, &updated_site, &events).map(drop)
        });
        let mut clustered = clustered0.clone();
        check_rollback(&mut clustered, is_clustered_site(fp), fp, |c| {
            c.try_apply_with(&exec, &updated_site, &events).map(drop)
        });

        // Disarmed, the same instances complete the very batch that just
        // faulted and converge to the rebuilt state: retry is safe.
        scenario.disarm(fp);
        site.try_apply(&events).unwrap();
        exact.try_apply_with(&exec, &site, &events).unwrap();
        clustered.try_apply_with(&exec, &site, &events).unwrap();
        let rebuilt_exact = ExactIndex::build(&site);
        let rebuilt_clustered = ClusteredIndex::build(&site, clustered.clustering.clone());
        assert_eq!(exact.stats(), rebuilt_exact.stats(), "after retry past `{fp}`");
        assert_eq!(
            clustered.stats_with_refinement(),
            rebuilt_clustered.stats_with_refinement(),
            "after retry past `{fp}`"
        );
        for &u in &users {
            assert_eq!(exact.query(u, &keywords, 3), rebuilt_exact.query(u, &keywords, 3));
            assert_eq!(
                clustered.query(&site, u, &keywords, 3),
                rebuilt_clustered.query(&site, u, &keywords, 3)
            );
        }
    }
}

/// Rollback on compressed layouts: a fault at any registered apply site
/// leaves the *packed* arenas byte-identical to their pre-apply state (the
/// `Debug` rendering covers the encoded bytes), the layout stays
/// [`Layout::Compressed`] through fault and retry, and the disarmed retry
/// converges to a compressed rebuild — stats, heap bytes and answers.
#[test]
fn a_fault_at_every_site_keeps_compressed_arenas_byte_identical() {
    let scenario = FailScenario::setup();
    let (site0, users, items) = two_cliques();
    let exec = Exec::new(2).unwrap();
    let exact0 = ExactIndex::builder(&site0).layout(Layout::Compressed).build();
    let clustered0 = ClusteredIndex::builder(&site0)
        .clustering(NetworkBasedClustering.cluster(&site0, 0.3))
        .layout(Layout::Compressed)
        .build();
    let events = vec![
        TagEvent::assign(users[4], items[0], "baseball"),
        TagEvent::assign(users[0], items[3], "newtag"),
        TagEvent::retract(users[1], items[0], "baseball"),
        TagEvent::assign(users[1], items[2], "baseball"),
    ];
    let mut updated_site = site0.clone();
    updated_site.try_apply(&events).unwrap();
    let keywords: Vec<String> = TAGS[..2].iter().map(|t| t.to_string()).collect();

    for &fp in faults::APPLY_SITES {
        scenario.arm(fp, FailAction::Fault { after: 0 });
        let mut exact = exact0.clone();
        check_rollback(&mut exact, is_exact_site(fp), fp, |e| {
            e.try_apply_with(&exec, &updated_site, &events).map(drop)
        });
        let mut clustered = clustered0.clone();
        check_rollback(&mut clustered, is_clustered_site(fp), fp, |c| {
            c.try_apply_with(&exec, &updated_site, &events).map(drop)
        });
        assert_eq!(exact.layout(), Layout::Compressed, "fault at `{fp}` dropped the layout");
        assert_eq!(clustered.layout(), Layout::Compressed, "fault at `{fp}` dropped the layout");

        scenario.disarm(fp);
        exact.try_apply_with(&exec, &updated_site, &events).unwrap();
        clustered.try_apply_with(&exec, &updated_site, &events).unwrap();
        let rebuilt_exact = ExactIndex::builder(&updated_site).layout(Layout::Compressed).build();
        let rebuilt_clustered = ClusteredIndex::builder(&updated_site)
            .clustering(clustered.clustering.clone())
            .layout(Layout::Compressed)
            .build();
        // Stats carry the measured heap bytes: canonical-encoding identity.
        assert_eq!(exact.stats(), rebuilt_exact.stats(), "after retry past `{fp}`");
        assert_eq!(
            clustered.stats_with_refinement(),
            rebuilt_clustered.stats_with_refinement(),
            "after retry past `{fp}`"
        );
        for &u in &users {
            assert_eq!(exact.query(u, &keywords, 3), rebuilt_exact.query(u, &keywords, 3));
            assert_eq!(
                clustered.query(&updated_site, u, &keywords, 3),
                rebuilt_clustered.query(&updated_site, u, &keywords, 3)
            );
        }
    }
}

/// Satellite contract: empty and no-op batches under injected faults.
/// A faulted apply — even one that would have been a no-op — must not
/// move the build stamp (the gather caches' single invalidation
/// authority), and a scratch arena (worker 0 of one [`BatchScratchPool`]
/// under [`Exec::sequential`]) warmed *before* the faulted apply must keep
/// serving correct answers afterwards: the rollback left
/// nothing for the warm cache to be stale against.
#[test]
fn faulted_and_noop_applies_never_move_stamps_or_invalidate_scratches() {
    let scenario = FailScenario::setup();
    let (mut site, users, items) = two_cliques();
    let exec = Exec::new(2).unwrap();
    let mut clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
    let keywords: Vec<String> = TAGS[..2].iter().map(|t| t.to_string()).collect();
    let mut pool = BatchScratchPool::default();
    let warm = clustered.query_batch_opts(
        &site,
        &users,
        &keywords,
        2,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    );
    let stamp = clustered.build_stamp();

    let effective = [TagEvent::assign(users[4], items[0], "baseball")];
    let redundant = [TagEvent::assign(users[1], items[0], "baseball")];
    for &fp in faults::APPLY_SITES {
        if !is_clustered_site(fp) {
            continue;
        }
        scenario.arm(fp, FailAction::Fault { after: 0 });
        for events in [&effective[..], &redundant[..], &[]] {
            clustered.try_apply_with(&exec, &site, events).unwrap_err();
            assert_eq!(clustered.build_stamp(), stamp, "faulted apply at `{fp}` moved the stamp");
        }
        scenario.disarm(fp);
    }
    // Disarmed no-op and empty batches are honest no-ops: stamp parked.
    for events in [&redundant[..], &[]] {
        assert_eq!(site.try_apply(events).unwrap(), 0);
        assert!(clustered.try_apply_with(&exec, &site, events).unwrap().is_noop());
        assert_eq!(clustered.build_stamp(), stamp, "no-op apply moved the stamp");
    }
    // The scratch warmed before all of the above is still valid — and
    // still a cache *hit*, since the stamp never moved.
    let served = clustered.query_batch_opts(
        &site,
        &users,
        &keywords,
        2,
        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool),
    );
    assert_eq!(served, warm);
    for (got, &u) in served.iter().zip(&users) {
        assert_eq!(got, &clustered.query(&site, u, &keywords, 2), "warm scratch diverged for {u}");
    }
}

/// Forced deadline expiry: every served member is byte-identical to the
/// unbounded answer with flags clear, every unserved member is the defined
/// degraded result — at thread counts 1 and 4, for expiry forced at every
/// possible check index.
#[test]
fn a_forced_deadline_expiry_serves_a_flagged_subset() {
    let scenario = FailScenario::setup();
    let (site, users, _) = two_cliques();
    let keywords: Vec<String> = TAGS[..2].iter().map(|t| t.to_string()).collect();
    let exact = ExactIndex::build(&site);
    let clustered = ClusteredIndex::build(&site, NetworkBasedClustering.cluster(&site, 0.3));
    let unbounded_exact = exact.query_batch_opts(&users, &keywords, 3, BatchOptions::new());
    let unbounded_clustered =
        clustered.query_batch_opts(&site, &users, &keywords, 3, BatchOptions::new());
    // The budget is huge: only the armed failpoint can force expiry, so
    // the test is deterministic regardless of machine speed.
    let hour = std::time::Duration::from_secs(3600);

    for threads in [1usize, 4] {
        let exec = Exec::new(threads).unwrap();
        // `after` sweeps "expire at the n-th cooperative check": 0 starves
        // everyone, a count past the total check count starves no one.
        for after in 0..=(2 * users.len() as u64 + 2) {
            scenario.arm(faults::DEADLINE, FailAction::Fault { after });
            let served = exact.query_batch_opts(
                &users,
                &keywords,
                3,
                BatchOptions::new().exec(&exec).deadline(hour),
            );
            assert_eq!(served.len(), users.len());
            let mut starved = 0usize;
            for (got, want) in served.iter().zip(&unbounded_exact) {
                if got.deadline_expired {
                    starved += 1;
                    assert_eq!(got, &TopKResult::expired());
                } else {
                    assert_eq!(got, want, "served member diverged (threads {threads})");
                }
            }
            if after == 0 {
                assert_eq!(starved, users.len(), "a pre-expired deadline must starve everyone");
            }

            scenario.arm(faults::DEADLINE, FailAction::Fault { after });
            let served = clustered.query_batch_opts(
                &site,
                &users,
                &keywords,
                3,
                BatchOptions::new().exec(&exec).deadline(hour),
            );
            for (got, want) in served.iter().zip(&unbounded_clustered) {
                if got.deadline_expired {
                    assert!(got.result.deadline_expired);
                    assert!(got.result.ranked.is_empty());
                    assert_eq!(got.result.sorted_accesses, 0);
                } else {
                    assert_eq!(got, want, "served member diverged (threads {threads})");
                }
            }
            scenario.disarm(faults::DEADLINE);
        }
        // Disarmed, the same huge budget is invisible.
        let served = exact.query_batch_opts(
            &users,
            &keywords,
            3,
            BatchOptions::new().exec(&exec).deadline(hour),
        );
        assert_eq!(served, unbounded_exact);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rollback under *arbitrary* event streams: whatever the batch, a
    /// fault at any registered site leaves the exact and clustered indexes
    /// byte-identical to their pre-apply state, and the disarmed retry
    /// converges to the rebuilt state.
    #[test]
    fn faulted_applies_roll_back_for_arbitrary_streams(
        raw in prop::collection::vec((0usize..8, 0usize..5, 0usize..4, 0usize..2), 0..16),
        threads in 1usize..5,
        site_pick in 0usize..6,
    ) {
        let scenario = FailScenario::setup();
        let (site0, users, items) = two_cliques();
        let exec = Exec::new(threads).unwrap();
        let exact0 = ExactIndex::build(&site0);
        let clustered0 =
            ClusteredIndex::build(&site0, NetworkBasedClustering.cluster(&site0, 0.3));
        let events: Vec<TagEvent> = raw
            .iter()
            .map(|&(u, i, t, kind)| {
                let (user, item) = (users[u % users.len()], items[i % items.len()]);
                let tag = TAGS[t % TAGS.len()];
                if kind == 0 {
                    TagEvent::assign(user, item, tag)
                } else {
                    TagEvent::retract(user, item, tag)
                }
            })
            .collect();
        let mut updated_site = site0.clone();
        updated_site.try_apply(&events).unwrap();
        let fp = faults::APPLY_SITES[site_pick % faults::APPLY_SITES.len()];

        scenario.arm(fp, FailAction::Fault { after: 0 });
        let mut exact = exact0.clone();
        let mut clustered = clustered0.clone();
        if is_exact_site(fp) {
            prop_assert!(exact.try_apply_with(&exec, &updated_site, &events).is_err());
            prop_assert_eq!(format!("{:?}", &exact), format!("{:?}", &exact0));
        }
        if is_clustered_site(fp) {
            prop_assert!(clustered.try_apply_with(&exec, &updated_site, &events).is_err());
            prop_assert_eq!(format!("{:?}", &clustered), format!("{:?}", &clustered0));
        }
        scenario.disarm(fp);
        exact.try_apply_with(&exec, &updated_site, &events).unwrap();
        clustered.try_apply_with(&exec, &updated_site, &events).unwrap();
        let rebuilt = ExactIndex::build(&updated_site);
        prop_assert_eq!(exact.stats(), rebuilt.stats());
        let keywords: Vec<String> = TAGS[..3].iter().map(|t| t.to_string()).collect();
        let rebuilt_clustered =
            ClusteredIndex::build(&updated_site, clustered.clustering.clone());
        for &u in &users {
            prop_assert_eq!(exact.query(u, &keywords, 3), rebuilt.query(u, &keywords, 3));
            prop_assert_eq!(
                clustered.query(&updated_site, u, &keywords, 3),
                rebuilt_clustered.query(&updated_site, u, &keywords, 3)
            );
        }
    }
}
