//! The §7 theorems as property tests: on *arbitrary* route-reflection
//! configurations, the modified protocol converges, to a unique fixed
//! point, with `GoodExits = S′` everywhere, loop-free forwarding, and
//! clean flushing. This is the paper's main result exercised as a
//! falsifiable property.

use ibgp::analysis::flush_report;
use ibgp::scenarios::random::{random_scenario, RandomConfig};
use ibgp::sim::{FixedDelay, RoundRobin};
use ibgp::theorems::verify_paper_theorems;
use ibgp::{Network, ProtocolConfig, ProtocolVariant};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = (RandomConfig, u64)> {
    (
        1usize..=4,   // clusters
        0usize..=3,   // clients per cluster
        1usize..=6,   // exits
        1usize..=3,   // neighbor ASes
        0u32..=10,    // max MED
        1u64..=10,    // max cost
        0usize..=4,   // extra links
        any::<u64>(), // seed
    )
        .prop_map(|(clusters, clients, exits, ases, med, cost, extra, seed)| {
            (
                RandomConfig {
                    clusters,
                    clients_per_cluster: clients,
                    exits,
                    neighbor_ases: ases,
                    max_med: med,
                    max_cost: cost,
                    extra_links: extra,
                },
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Theorem (§7): the modified protocol converges on every
    /// configuration, to the same fixed point under every fair schedule,
    /// with S′ advertised everywhere, loop-free, and flush-clean.
    #[test]
    fn modified_protocol_theorems_hold((cfg, seed) in arb_config()) {
        let scenario = random_scenario(cfg, seed);
        let network = Network::from_scenario(&scenario, ProtocolVariant::Modified);
        let report = verify_paper_theorems(&network, 3, 200_000);
        prop_assert!(report.all_hold(), "{report:?}");
    }

    /// The async engine agrees with the sync engine's fixed point for the
    /// modified protocol (the theorems don't depend on the engine).
    #[test]
    fn engines_agree_on_the_modified_fixed_point((cfg, seed) in arb_config()) {
        let scenario = random_scenario(cfg, seed);
        let network = Network::from_scenario(&scenario, ProtocolVariant::Modified);
        let sync = network.converge(200_000);
        prop_assert!(sync.converged());
        let (outcome, async_bests, _) =
            network.quiesce(Box::new(ibgp::sim::FixedDelay(2)), 0, 2_000_000);
        prop_assert!(outcome.quiescent(), "{outcome}");
        prop_assert_eq!(&sync.best_exits, &async_bests);
    }
}

/// The scale points of the experiments binary's E10/E11 rows (clusters,
/// clients per cluster, exits): 4, 9, 20 and 40 routers with up to 16
/// exits, beyond the 16 routers and 6 exits `arb_config` draws.
const SCALE_POINTS: [(usize, usize, usize); 4] = [(2, 1, 2), (3, 2, 4), (5, 3, 8), (8, 4, 16)];

fn scaled(point: (usize, usize, usize), seed: u64) -> Network {
    let (clusters, clients_per_cluster, exits) = point;
    let cfg = RandomConfig {
        clusters,
        clients_per_cluster,
        exits,
        neighbor_ases: 3,
        max_med: 10,
        max_cost: 10,
        extra_links: clusters,
    };
    Network::from_scenario(&random_scenario(cfg, seed), ProtocolVariant::Modified)
}

/// The §7 theorems on fixed instances at the scale points, each seed
/// checking one property up to the size it was pinned at.
#[test]
fn modified_protocol_theorems_hold_at_the_scale_points() {
    for point in SCALE_POINTS {
        // Convergence in both engines, up to 40 routers.
        let n = scaled(point, 3);
        assert!(n.converge(100_000).converged(), "{point:?} seed 3: sync");
        let (out, _, _) = n.quiesce(Box::new(FixedDelay(2)), 0, 1_000_000);
        assert!(out.quiescent(), "{point:?} seed 3: async {out}");
        // Loop-free forwarding (Lemmas 7.6/7.7), up to 40 routers.
        let loops = scaled(point, 23).forwarding_loops_after_convergence(100_000);
        assert!(loops.is_empty(), "{point:?} seed 23: {loops:?}");
    }
    for point in &SCALE_POINTS[..3] {
        // Determinism and the full theorem harness, up to 20 routers.
        let n = scaled(*point, 11);
        let report = verify_paper_theorems(&n, 4, 100_000);
        assert!(report.all_hold(), "{point:?} seed 11: {report:?}");
        assert!(
            n.determinism(6, 100_000).deterministic(),
            "{point:?} seed 11"
        );
        // Flushing a withdrawn exit (Lemma 7.2), up to 20 routers.
        let n = scaled(*point, 5);
        let victim = n.exits()[0].id();
        let report = flush_report(
            n.topology(),
            ProtocolConfig::MODIFIED,
            n.exits(),
            victim,
            &mut RoundRobin::new(),
            100_000,
        );
        assert!(report.flushed, "{point:?} seed 5: {report:?}");
    }
}
