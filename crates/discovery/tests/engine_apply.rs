//! The engines' transactional apply — site, fallback and index planned
//! against the batch, then committed in place — must land every part in
//! exactly the state the step-by-step public path reaches: the site model
//! applying the batch first, then each index applying it over that site.

mod common;

use common::{arb_events, arb_site, fixture, without_stamps, STRATEGIES};
use proptest::prelude::*;
use socialscope_exec::Exec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunk by chunk, an arbitrary stream with late joiners applied
    /// through `ClusteredNetworkAwareSearch::try_apply_with` matches
    /// `SiteModel::try_apply`, then `ExactIndex::try_apply_with` on the
    /// fallback, then `ClusteredIndex::try_apply_with` on the index —
    /// same reports, `Debug`-equal site, fallback, index and clustering
    /// (build stamps aside) — for every clustering strategy; and
    /// `NetworkAwareSearch::try_apply_with` matches its two-step path.
    #[test]
    fn engine_apply_matches_the_step_by_step_path(
        inputs in arb_site(),
        raw in arb_events(),
        chunk_len in 1usize..8,
        strategy in 0usize..3,
        theta in 0.1f64..0.9,
        threads in 1usize..4,
    ) {
        let mut case = fixture(&inputs, &raw, STRATEGIES[strategy], theta);
        let exec = Exec::new(threads).unwrap();
        let mut site = case.clustered.site().clone();
        let mut index = case.clustered.index().clone();
        let mut fallback = case.clustered.fallback().cloned().unwrap();
        let mut exact_site = case.exact.site().clone();
        let mut exact_index = case.exact.index().clone();
        for chunk in case.events.chunks(chunk_len) {
            let report = case.clustered.try_apply_with(&exec, chunk).unwrap();
            site.try_apply(chunk).unwrap();
            fallback.try_apply_with(&exec, &site, chunk).unwrap();
            prop_assert_eq!(report, index.try_apply_with(&exec, &site, chunk).unwrap());
            prop_assert_eq!(format!("{:?}", case.clustered.site()), format!("{site:?}"));
            prop_assert_eq!(format!("{:?}", case.clustered.fallback()), format!("{:?}", Some(&fallback)));
            prop_assert_eq!(
                without_stamps(format!("{:?}", case.clustered.index())),
                without_stamps(format!("{index:?}"))
            );

            let report = case.exact.try_apply_with(&exec, chunk).unwrap();
            exact_site.try_apply(chunk).unwrap();
            prop_assert_eq!(report, exact_index.try_apply_with(&exec, &exact_site, chunk).unwrap());
            prop_assert_eq!(format!("{:?}", case.exact.site()), format!("{exact_site:?}"));
            prop_assert_eq!(format!("{:?}", case.exact.index()), format!("{exact_index:?}"));
        }
    }
}
