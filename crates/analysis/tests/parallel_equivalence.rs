//! Property test: the parallel sharded-frontier explorer is bit-identical
//! to the sequential search at every thread count.
//!
//! Random topologies (full mesh, one cluster, two clusters), random exit
//! sets, and all three protocol variants are explored at `jobs` ∈
//! {1, 2, 8}; every run must agree on the state count, completeness, the
//! cap verdict, and the (canonically sorted) stable-vector list. Small
//! caps are included so the mid-merge cap trip point is exercised too —
//! the capped prefix must be the same prefix at every thread count.

use ibgp_analysis::{explore, ExploreOptions};
use ibgp_proto::variants::ProtocolConfig;
use proptest::prelude::*;

mod common;
use common::{build_exits, build_topology};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn parallel_explore_is_bit_identical_to_sequential(
        n in 2usize..=5,
        shape in 0u8..3,
        chain_costs in prop::collection::vec(1u64..10, 4),
        extra_links in prop::collection::vec((0u32..5, 0u32..5, 1u64..10), 0..4),
        n_exits in 1usize..=4,
        exit_raw in prop::collection::vec((1u32..3, 0u32..11, 0u32..5, 0u64..6), 4),
        variant in 0u8..3,
        // 0 = effectively uncapped; k > 0 caps the search after k states
        // so the cap trip point itself is compared across thread counts.
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

        let opts = |jobs: usize| ExploreOptions::new().max_states(max_states).jobs(jobs);
        let sequential = explore(&topo, config, exits.clone(), opts(1));

        // The canonical ordering is part of the contract.
        let mut sorted = sequential.stable_vectors.clone();
        sorted.sort();
        prop_assert_eq!(&sorted, &sequential.stable_vectors);
        prop_assert_eq!(sequential.complete, sequential.stop.state_cap().is_none());

        for jobs in [2usize, 8] {
            let parallel = explore(&topo, config, exits.clone(), opts(jobs));
            prop_assert_eq!(parallel.states, sequential.states, "jobs={}", jobs);
            prop_assert_eq!(parallel.complete, sequential.complete, "jobs={}", jobs);
            prop_assert_eq!(parallel.stop.state_cap(), sequential.stop.state_cap(), "jobs={}", jobs);
            prop_assert_eq!(
                &parallel.stable_vectors, &sequential.stable_vectors,
                "jobs={}", jobs
            );
            // Engine-side counters are sums over the same work set, so
            // they are deterministic too.
            prop_assert_eq!(
                parallel.metrics.activations, sequential.metrics.activations,
                "jobs={}", jobs
            );
            prop_assert_eq!(
                parallel.metrics.messages, sequential.metrics.messages,
                "jobs={}", jobs
            );
            prop_assert_eq!(parallel.metrics.workers, jobs as u64);
        }
    }

    /// Orbit-collapsed search is an exact reduction: at every thread
    /// count it reaches the same verdict as the plain search, visiting a
    /// subset of its states (one representative per orbit).
    #[test]
    fn symmetry_equivalence(
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

        let opts = |jobs: usize, symmetry: bool| {
            ExploreOptions::new()
                .max_states(max_states)
                .jobs(jobs)
                .symmetry(symmetry)
        };
        let plain = explore(&topo, config, exits.clone(), opts(1, false));
        let sym = explore(&topo, config, exits.clone(), opts(1, true));

        // The symmetric search is deterministic across thread counts,
        // exactly like the plain one.
        let sym8 = explore(&topo, config, exits.clone(), opts(8, true));
        prop_assert_eq!(sym8.states, sym.states);
        prop_assert_eq!(sym8.complete, sym.complete);
        prop_assert_eq!(sym8.stop.state_cap(), sym.stop.state_cap());
        prop_assert_eq!(sym8.stop.memory_budget(), sym.stop.memory_budget());
        prop_assert_eq!(&sym8.stable_vectors, &sym.stable_vectors);

        // Orbit collapse can only shrink the visited set, so a capped
        // symmetric search implies a capped plain search.
        prop_assert!(sym.states <= plain.states);
        if sym.stop.state_cap().is_some() {
            prop_assert!(plain.stop.state_cap().is_some());
        }
        // No byte budget was set, so memory never stops either search.
        prop_assert_eq!(sym.stop.memory_budget(), None);
        prop_assert_eq!(plain.stop.memory_budget(), None);
        prop_assert!(sym.metrics.reduction_factor() >= 1.0);
        if sym.complete && plain.complete {
            // The representatives stand for exactly the plain state set.
            prop_assert_eq!(sym.metrics.orbit_states, plain.states as u64);
            prop_assert_eq!(&sym.stable_vectors, &plain.stable_vectors);
        }

        // A complete plain search forces a complete symmetric search,
        // and then the full classification verdicts must coincide.
        if plain.complete {
            prop_assert!(sym.complete);
            let (class_plain, _) =
                ibgp_analysis::classify(&topo, config, &exits, opts(1, false));
            let (class_sym, _) =
                ibgp_analysis::classify(&topo, config, &exits, opts(1, true));
            prop_assert_eq!(class_plain, class_sym);
        }
    }

    /// The digest-compaction memory bound is deterministic: the same
    /// budget stops the same search at the same point at every thread
    /// count, and an unbounded rerun confirms the budget only truncated
    /// (never corrupted) the search.
    #[test]
    fn memory_budget_is_deterministic_across_jobs(
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
                .jobs(jobs)
                .max_bytes(budget)
        };
        let bounded = explore(&topo, config, exits.clone(), opts(1));
        prop_assert_eq!(bounded.complete, bounded.stop.memory_budget().is_none());
        if bounded.stop.memory_budget().is_some() {
            prop_assert_eq!(bounded.stop.memory_budget(), Some(budget));
            prop_assert!(bounded.metrics.compactions >= 1);
        }
        for jobs in [2usize, 8] {
            let parallel = explore(&topo, config, exits.clone(), opts(jobs));
            prop_assert_eq!(parallel.states, bounded.states, "jobs={}", jobs);
            prop_assert_eq!(parallel.stop.memory_budget(), bounded.stop.memory_budget(), "jobs={}", jobs);
            prop_assert_eq!(parallel.complete, bounded.complete, "jobs={}", jobs);
            prop_assert_eq!(
                &parallel.stable_vectors, &bounded.stable_vectors,
                "jobs={}", jobs
            );
        }
        // Digest mode can only conflate states, never invent them.
        let unbounded = explore(&topo, config, exits.clone(),
            ExploreOptions::new().max_states(200_000).jobs(1));
        prop_assert!(bounded.states <= unbounded.states);
    }
}
