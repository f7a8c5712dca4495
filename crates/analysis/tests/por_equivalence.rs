//! Property test: invisibility partial-order reduction is an exact
//! reduction of the activation-set search.
//!
//! Random topologies, exit sets, and protocol variants are explored with
//! `por` off and on. The contract:
//!
//! * the pruned search is a pure function of each state, so its verdict
//!   is bit-identical at every thread count;
//! * pruning never adds states, so a complete unpruned search forces a
//!   complete pruned search with the identical stable-vector list and
//!   classification;
//! * under a small cap, the pruned search may legitimately finish where
//!   the unpruned one caps out, but a capped pruned search implies a
//!   capped unpruned search;
//! * the reduction composes with symmetry orbit collapse — the combined
//!   search still matches the plain search's verdict whenever the plain
//!   search completes.

use ibgp_analysis::{classify, explore, ExploreOptions};
use ibgp_proto::variants::ProtocolConfig;
use proptest::prelude::*;

mod common;
use common::{build_exits, build_topology};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn por_is_exact_and_jobs_deterministic(
        n in 2usize..=5,
        shape in 0u8..3,
        chain_costs in prop::collection::vec(1u64..10, 4),
        extra_links in prop::collection::vec((0u32..5, 0u32..5, 1u64..10), 0..4),
        n_exits in 1usize..=4,
        exit_raw in prop::collection::vec((1u32..3, 0u32..11, 0u32..5, 0u64..6), 4),
        variant in 0u8..3,
        // 0 = effectively uncapped; k > 0 caps the search after k states
        // so the capped-off / completed-on asymmetry is exercised too.
        cap_raw in 0usize..40,
    ) {
        let topo = build_topology(n, shape, &chain_costs, &extra_links);
        let exits = build_exits(n, n_exits, &exit_raw);
        let config = [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ][variant as usize];
        let max_states = if cap_raw == 0 { 200_000 } else { cap_raw };

        let opts = |por: bool, jobs: usize| {
            ExploreOptions::new()
                .max_states(max_states)
                .jobs(jobs)
                .por(por)
        };
        let off = explore(&topo, config, exits.clone(), opts(false, 1));
        let on = explore(&topo, config, exits.clone(), opts(true, 1));

        // The ample-set choice is a pure function of each state, so the
        // pruned search is as jobs-deterministic as the plain one.
        for jobs in [2usize, 8] {
            let par = explore(&topo, config, exits.clone(), opts(true, jobs));
            prop_assert_eq!(par.states, on.states, "jobs={}", jobs);
            prop_assert_eq!(par.complete, on.complete, "jobs={}", jobs);
            prop_assert_eq!(par.stop.state_cap(), on.stop.state_cap(), "jobs={}", jobs);
            prop_assert_eq!(&par.stable_vectors, &on.stable_vectors, "jobs={}", jobs);
            prop_assert_eq!(par.metrics.por_ample, on.metrics.por_ample, "jobs={}", jobs);
            prop_assert_eq!(par.metrics.por_full, on.metrics.por_full, "jobs={}", jobs);
        }

        // Pruning only removes redundant interleavings.
        prop_assert!(on.states <= off.states);
        if on.stop.state_cap().is_some() {
            prop_assert!(off.stop.state_cap().is_some(), "POR capped where the full search finished");
        }
        prop_assert_eq!(on.stop.memory_budget(), None);
        prop_assert_eq!(
            off.metrics.por_ample + off.metrics.por_full, 0,
            "the unpruned search must not consult the ample set"
        );

        if off.complete {
            prop_assert!(on.complete, "POR lost completeness");
            // Exactness: the identical reachable fixed-point set, hence
            // the identical (canonically sorted) stable-vector list and
            // the identical end-to-end classification.
            prop_assert_eq!(&on.stable_vectors, &off.stable_vectors);
            let (class_off, _) = classify(&topo, config, &exits, opts(false, 8));
            let (class_on, _) = classify(&topo, config, &exits, opts(true, 8));
            prop_assert_eq!(class_on, class_off);
        }
    }

    /// POR × symmetry: the two exact reductions compose, and the stack
    /// still agrees with the plain search whenever the latter completes.
    #[test]
    fn por_composes_with_symmetry(
        n in 2usize..=5,
        shape in 0u8..3,
        chain_costs in prop::collection::vec(1u64..10, 4),
        extra_links in prop::collection::vec((0u32..5, 0u32..5, 1u64..10), 0..4),
        n_exits in 1usize..=4,
        exit_raw in prop::collection::vec((1u32..3, 0u32..11, 0u32..5, 0u64..6), 4),
        variant in 0u8..3,
        cap_raw in 0usize..40,
    ) {
        let topo = build_topology(n, shape, &chain_costs, &extra_links);
        let exits = build_exits(n, n_exits, &exit_raw);
        let config = [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ][variant as usize];
        let max_states = if cap_raw == 0 { 200_000 } else { cap_raw };

        let opts = |por: bool, symmetry: bool, jobs: usize| {
            ExploreOptions::new()
                .max_states(max_states)
                .symmetry(symmetry)
                .jobs(jobs)
                .por(por)
        };
        let plain = explore(&topo, config, exits.clone(), opts(false, false, 1));
        let both = explore(&topo, config, exits.clone(), opts(true, true, 1));

        // Deterministic across thread counts, like every other mode.
        let both8 = explore(&topo, config, exits.clone(), opts(true, true, 8));
        prop_assert_eq!(both8.states, both.states);
        prop_assert_eq!(both8.complete, both.complete);
        prop_assert_eq!(both8.stop.state_cap(), both.stop.state_cap());
        prop_assert_eq!(&both8.stable_vectors, &both.stable_vectors);

        prop_assert!(both.states <= plain.states);
        if plain.complete {
            prop_assert!(both.complete);
            prop_assert_eq!(&both.stable_vectors, &plain.stable_vectors);
            let (class_plain, _) = classify(&topo, config, &exits, opts(false, false, 1));
            let (class_both, _) = classify(&topo, config, &exits, opts(true, true, 1));
            prop_assert_eq!(class_both, class_plain);
        }
    }

    /// POR × the byte budget: a memory-stopped pruned search records the
    /// budget as its stop reason, stays jobs-deterministic, and an
    /// unbounded rerun confirms the budget only truncated the search.
    #[test]
    fn por_composes_with_the_byte_budget(
        n in 2usize..=5,
        shape in 0u8..3,
        chain_costs in prop::collection::vec(1u64..10, 4),
        extra_links in prop::collection::vec((0u32..5, 0u32..5, 1u64..10), 0..4),
        n_exits in 1usize..=4,
        exit_raw in prop::collection::vec((1u32..3, 0u32..11, 0u32..5, 0u64..6), 4),
        variant in 0u8..3,
        budget in 64usize..4096,
    ) {
        let topo = build_topology(n, shape, &chain_costs, &extra_links);
        let exits = build_exits(n, n_exits, &exit_raw);
        let config = [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ][variant as usize];
        let opts = |jobs: usize| {
            ExploreOptions::new()
                .max_states(200_000)
                .max_bytes(budget)
                .jobs(jobs)
                .por(true)
        };
        let bounded = explore(&topo, config, exits.clone(), opts(1));
        prop_assert_eq!(bounded.complete, bounded.stop.memory_budget().is_none());
        if bounded.stop.memory_budget().is_some() {
            prop_assert_eq!(bounded.stop.memory_budget(), Some(budget));
        }
        for jobs in [2usize, 8] {
            let par = explore(&topo, config, exits.clone(), opts(jobs));
            prop_assert_eq!(par.states, bounded.states, "jobs={}", jobs);
            prop_assert_eq!(par.stop.memory_budget(), bounded.stop.memory_budget(), "jobs={}", jobs);
            prop_assert_eq!(par.complete, bounded.complete, "jobs={}", jobs);
            prop_assert_eq!(&par.stable_vectors, &bounded.stable_vectors, "jobs={}", jobs);
        }
        let unbounded = explore(&topo, config, exits.clone(),
            ExploreOptions::new().max_states(200_000).por(true));
        prop_assert!(bounded.states <= unbounded.states);
    }
}
