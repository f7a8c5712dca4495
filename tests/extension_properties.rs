//! Property tests for the extension conjectures the paper leaves open:
//! the `Choose_set` advertisement discipline converges — and converges
//! deterministically — beyond the two-level route-reflection model its
//! §7 proof covers: on arbitrary cluster *trees* and on arbitrary
//! (possibly cyclic) confederation sub-AS graphs.

use ibgp::confed::{random_confederation, ConfedEngine, ConfedMode, RandomConfedConfig};
use ibgp::hierarchy::{random_hierarchy, HierEngine, HierMode, RandomHierConfig};
use ibgp::sim::Engine;
use proptest::prelude::*;

fn hier_cfg() -> impl Strategy<Value = (RandomHierConfig, u64)> {
    (
        2usize..=10,
        1usize..=3,
        1usize..=6,
        1usize..=3,
        0u32..=10,
        any::<u64>(),
    )
        .prop_map(|(routers, depth, exits, ases, med, seed)| {
            (
                RandomHierConfig {
                    routers,
                    max_depth: depth,
                    exits,
                    neighbor_ases: ases,
                    max_med: med,
                    max_cost: 10,
                },
                seed,
            )
        })
}

fn confed_cfg() -> impl Strategy<Value = (RandomConfedConfig, u64)> {
    (
        1usize..=4,
        1usize..=3,
        0usize..=3,
        1usize..=6,
        1usize..=3,
        0u32..=10,
        any::<u64>(),
    )
        .prop_map(|(subs, per, extra, exits, ases, med, seed)| {
            (
                RandomConfedConfig {
                    sub_ases: subs,
                    routers_per_sub_as: per,
                    extra_confed_links: extra,
                    exits,
                    neighbor_ases: ases,
                    max_med: med,
                    max_cost: 10,
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Conjecture H: set advertisement converges on arbitrary hierarchies.
    #[test]
    fn hierarchy_set_advertisement_converges((cfg, seed) in hier_cfg()) {
        let (topo, exits) = random_hierarchy(cfg, seed);
        let mut eng = HierEngine::new(&topo, HierMode::SetAdvertisement, exits);
        let out = eng.run_round_robin(300_000);
        prop_assert!(out.converged(), "{out} at depth {}", topo.depth());
    }

    /// Conjecture C: set advertisement converges on arbitrary
    /// confederations, including cyclic sub-AS graphs.
    #[test]
    fn confed_set_advertisement_converges((cfg, seed) in confed_cfg()) {
        let (topo, exits) = random_confederation(cfg, seed);
        let mut eng = ConfedEngine::new(&topo, ConfedMode::SetAdvertisement, exits);
        let out = eng.run_round_robin(300_000);
        prop_assert!(out.converged(), "{out}");
    }
}

/// Determinism probe for the hierarchy engine: the fixed point reached
/// under round-robin equals the one reached after randomized single-step
/// orders (simulated by running from scratch with a rotated id space is
/// not possible here, so we compare against the full-activation sweep).
#[test]
fn hierarchy_fixed_point_is_schedule_insensitive() {
    for seed in 0..12u64 {
        let (topo, exits) = random_hierarchy(RandomHierConfig::default(), seed);
        let mut a = HierEngine::new(&topo, HierMode::SetAdvertisement, exits.clone());
        assert!(a.run_round_robin(300_000).converged(), "seed {seed}");

        // Full-sweep schedule: everyone at once, until stable.
        let mut b = HierEngine::new(&topo, HierMode::SetAdvertisement, exits);
        let all: Vec<_> = topo.routers().collect();
        for _ in 0..10_000 {
            if b.is_stable() {
                break;
            }
            b.step(&all);
        }
        assert!(b.is_stable(), "seed {seed}: sweep did not stabilize");
        assert_eq!(a.best_vector(), b.best_vector(), "seed {seed}");
    }
}

/// Same probe for confederations — with a twist discovered by this very
/// test: under *simultaneous* sweeps on cyclic sub-AS graphs, the strict
/// engine state need not reach a fixed point even though every router's
/// chosen route does. What oscillates is only bookkeeping: when a route
/// reaches a sub-AS along several AS_CONFED paths, equal-preference
/// copies with different `visited` lists can alternate forever in the
/// Adj-RIB while the selected exit never changes. The assertion below is
/// therefore at the *routing* level: the best-exit vector must become
/// constant and equal the round-robin fixed point.
#[test]
fn confed_routing_is_schedule_insensitive_even_when_metadata_churns() {
    for seed in 0..12u64 {
        let (topo, exits) = random_confederation(RandomConfedConfig::default(), seed);
        let mut a = ConfedEngine::new(&topo, ConfedMode::SetAdvertisement, exits.clone());
        assert!(a.run_round_robin(300_000).converged(), "seed {seed}");

        let mut b = ConfedEngine::new(&topo, ConfedMode::SetAdvertisement, exits);
        let all: Vec<_> = topo.routers().collect();
        // Let the sweep run well past routing convergence…
        for _ in 0..200 {
            b.step(&all);
        }
        // …then require the best vector to be constant across further
        // sweeps and equal to the round-robin fixed point.
        let settled = b.best_vector();
        for _ in 0..20 {
            b.step(&all);
            assert_eq!(b.best_vector(), settled, "seed {seed}: routing churned");
        }
        assert_eq!(a.best_vector(), settled, "seed {seed}: schedules disagree");
    }
}
