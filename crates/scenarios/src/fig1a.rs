//! Figure 1(a): the canonical persistent MED oscillation (McPherson et
//! al. / Cisco field notice example).
//!
//! Two clusters: reflector **A** with clients `ca1`, `ca2`; reflector
//! **B** with client `cb1`. Three routes to `d`:
//!
//! * `r1` at `ca1`, via `AS1` (its MED is never compared with the others);
//! * `r2` at `ca2`, via `AS2`, MED 10;
//! * `r3` at `cb1`, via `AS2`, MED 5 — so whenever `r3` is visible it
//!   *hides* `r2` (same neighbor AS, lower MED).
//!
//! IGP geometry (A-side distances `r2 < r1 < r3`; B-side `r1 < r3`)
//! reproduces the paper's cycle:
//!
//! 1. A selects `r2` (lower IGP metric than `r1`); B selects `r3`.
//! 2. A receives `r3`: `r3` kills `r2` (MED), and `r1` beats `r3`
//!    (metric) — A selects `r1`.
//! 3. B receives `r1` and selects it (lower metric), withdrawing `r3`
//!    from A (a reflector may not re-advertise a non-client route to
//!    another reflector).
//! 4. With `r3` gone, `r2` is visible again and A selects `r2` — back to
//!    step 1. **No stable configuration exists.**
//!
//! Both the Walton et al. vector (which always re-advertises B's best
//! AS2 route `r3`) and the paper's modified protocol break the cycle here.

use crate::Scenario;
use ibgp_topology::TopologyBuilder;
use ibgp_types::{AsId, ExitPath, ExitPathRef, Med};
use std::sync::Arc;

/// Router indices, for readable assertions in tests.
pub mod nodes {
    use ibgp_types::RouterId;
    /// Route reflector A.
    pub const A: RouterId = RouterId(0);
    /// A's client holding `r1`.
    pub const CA1: RouterId = RouterId(1);
    /// A's client holding `r2`.
    pub const CA2: RouterId = RouterId(2);
    /// Route reflector B.
    pub const B: RouterId = RouterId(3);
    /// B's client holding `r3`.
    pub const CB1: RouterId = RouterId(4);
}

/// Exit-path ids.
pub mod routes {
    use ibgp_types::ExitPathId;
    /// Route through `AS1` at client `ca1`.
    pub const R1: ExitPathId = ExitPathId(1);
    /// Route through `AS2` (MED 10) at client `ca2`.
    pub const R2: ExitPathId = ExitPathId(2);
    /// Route through `AS2` (MED 5) at client `cb1`.
    pub const R3: ExitPathId = ExitPathId(3);
}

/// Build the Fig 1(a) scenario.
pub fn scenario() -> Scenario {
    let topology = TopologyBuilder::new(5)
        // A's cluster star plus the inter-reflector link; B's client is far.
        .link(nodes::A.raw(), nodes::CA1.raw(), 2)
        .link(nodes::A.raw(), nodes::CA2.raw(), 1)
        .link(nodes::A.raw(), nodes::B.raw(), 1)
        .link(nodes::B.raw(), nodes::CB1.raw(), 10)
        .cluster([nodes::A.raw()], [nodes::CA1.raw(), nodes::CA2.raw()])
        .cluster([nodes::B.raw()], [nodes::CB1.raw()])
        .build()
        .expect("fig1a topology is valid");

    let exits: Vec<ExitPathRef> = vec![
        Arc::new(
            ExitPath::builder(routes::R1)
                .via(AsId::new(1))
                .med(Med::new(0))
                .exit_point(nodes::CA1)
                .build_unchecked(),
        ),
        Arc::new(
            ExitPath::builder(routes::R2)
                .via(AsId::new(2))
                .med(Med::new(10))
                .exit_point(nodes::CA2)
                .build_unchecked(),
        ),
        Arc::new(
            ExitPath::builder(routes::R3)
                .via(AsId::new(2))
                .med(Med::new(5))
                .exit_point(nodes::CB1)
                .build_unchecked(),
        ),
    ];

    Scenario {
        name: "fig1a",
        description:
            "persistent MED-induced oscillation under standard I-BGP with route reflection",
        topology,
        exits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_analysis::{classify, ExploreOptions, OscillationClass};
    use ibgp_proto::variants::ProtocolConfig;
    use ibgp_sim::{Engine, RoundRobin, SyncEngine};

    const MAX_STATES: usize = 300_000;

    #[test]
    fn geometry_matches_the_narrative() {
        let s = scenario();
        let t = &s.topology;
        // A-side metrics: r2 < r1 < r3.
        let d = |u, v| t.igp_cost(u, v).raw();
        assert!(d(nodes::A, nodes::CA2) < d(nodes::A, nodes::CA1));
        assert!(d(nodes::A, nodes::CA1) < d(nodes::A, nodes::CB1));
        // B-side: r1 < r3.
        assert!(d(nodes::B, nodes::CA1) < d(nodes::B, nodes::CB1));
    }

    #[test]
    fn standard_protocol_oscillates_persistently() {
        let s = scenario();
        let (class, reach) = classify(
            &s.topology,
            ProtocolConfig::STANDARD,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Persistent, "reach: {reach:?}");
        assert!(reach.complete);
        assert!(reach.stable_vectors.is_empty());
    }

    #[test]
    fn standard_round_robin_run_detects_a_cycle() {
        let s = scenario();
        let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::STANDARD, s.exits());
        let outcome = eng.run(&mut RoundRobin::new(), 10_000);
        assert!(outcome.cycled(), "{outcome}");
    }

    #[test]
    fn walton_converges_here() {
        // The paper: "Walton et al. propose a modification ... which
        // thwarts the oscillation problem in this example."
        let s = scenario();
        let (class, reach) = classify(
            &s.topology,
            ProtocolConfig::WALTON,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Stable, "reach: {reach:?}");
        let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::WALTON, s.exits());
        let outcome = eng.run(&mut RoundRobin::new(), 10_000);
        assert!(outcome.converged(), "{outcome}");
    }

    #[test]
    fn modified_protocol_converges_and_a_selects_r1() {
        let s = scenario();
        let (class, reach) = classify(
            &s.topology,
            ProtocolConfig::MODIFIED,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Stable, "reach: {reach:?}");
        let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::MODIFIED, s.exits());
        let outcome = eng.run(&mut RoundRobin::new(), 10_000);
        assert!(outcome.converged(), "{outcome}");
        // S' = Choose_set(all) = {r1, r3}; A picks r1 (metric 2 vs 11).
        assert_eq!(eng.best_exit(nodes::A), Some(routes::R1));
        // B picks r1 too (metric 3 vs 10).
        assert_eq!(eng.best_exit(nodes::B), Some(routes::R1));
        // Clients keep their own E-BGP routes if those survive Choose_set;
        // ca2's r2 is MED-hidden, so ca2 also uses r1.
        assert_eq!(eng.best_exit(nodes::CA1), Some(routes::R1));
        assert_eq!(eng.best_exit(nodes::CA2), Some(routes::R1));
        assert_eq!(eng.best_exit(nodes::CB1), Some(routes::R3));
    }

    #[test]
    fn always_compare_med_also_stabilizes_this_example() {
        // One of the §1 workarounds: comparing MEDs across neighbor ASes
        // removes the hiding effect in this instance.
        use ibgp_proto::selection::SelectionPolicy;
        use ibgp_proto::ProtocolVariant;
        let s = scenario();
        let config = ibgp_proto::variants::ProtocolConfig {
            variant: ProtocolVariant::Standard,
            policy: SelectionPolicy::ALWAYS_COMPARE_MED,
        };
        let (class, _) = classify(
            &s.topology,
            config,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Stable);
    }
}
