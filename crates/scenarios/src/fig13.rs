//! Figure 13: persistent oscillation that the Walton et al. vector does
//! **not** eliminate (behavioural reconstruction).
//!
//! The paper's figure (4 clusters, "a modification of an example from
//! [9]") is not recoverable from the source text — the description
//! breaks off mid-sentence. This module reconstructs the figure's
//! *defining property* with a three-cluster **metric preference ring**:
//!
//! Reflectors `RR1..RR3`, each with one client (`c1..c3`) injecting one
//! route (`r1..r3`) — all through the **same** neighboring AS, equal
//! LOCAL-PREF, AS-PATH length, and MED. The IGP geometry is rotationally
//! asymmetric (complete bipartite reflector–client links):
//!
//! ```text
//!          c1   c2   c3
//!   RR1  [  2    1    3 ]     each reflector prefers the *next*
//!   RR2  [  3    2    1 ]     cluster's exit over its own, and its
//!   RR3  [  1    3    2 ]     own over the previous one's
//! ```
//!
//! Whoever's route reflector `RRi` *sees* the next route `r(i+1)`, it
//! adopts it — a foreign client route it cannot re-advertise to other
//! reflectors — thereby **hiding its own client's `ri`** from the mesh;
//! without `r(i+1)` it advertises `ri`. The visibility relations form an
//! odd cycle of negations (`adv(ri) = ¬adv(r(i+1))`), so **no stable
//! configuration exists**: exhaustive search proves both standard I-BGP
//! *and* the Walton et al. variant oscillate persistently (with a single
//! neighboring AS the per-AS vector cannot carry more information than
//! the classical best). The paper's modified protocol advertises all
//! three `Choose_set` survivors and converges to its unique fixed point.
//!
//! **Reconstruction divergence, documented:** the paper calls its Fig 13
//! oscillation *MED-induced*. Under our (faithful-to-§8) reading of the
//! Walton rule, a randomized search over thousands of MED-varied
//! route-reflection configurations found no MED-induced Walton-persistent
//! instance, and there is a structural reason: per-AS MED elimination
//! induces visibility constraints that are *monotone* after absorbing
//! victim negations into killer disjunctions, so the MED-hiding algebra
//! alone always admits a fixed point; only equal-MED metric rings (as
//! here) break Walton. See DESIGN.md §Fig 13 and EXPERIMENTS.md E6.

use crate::Scenario;
use ibgp_topology::TopologyBuilder;
use ibgp_types::{AsId, ExitPath, ExitPathId, ExitPathRef, Med, RouterId};
use std::sync::Arc;

/// Router indices.
pub mod nodes {
    use ibgp_types::RouterId;
    /// First reflector.
    pub const RR1: RouterId = RouterId(0);
    /// Second reflector.
    pub const RR2: RouterId = RouterId(1);
    /// Third reflector.
    pub const RR3: RouterId = RouterId(2);
    /// RR1's client (exit r1).
    pub const C1: RouterId = RouterId(3);
    /// RR2's client (exit r2).
    pub const C2: RouterId = RouterId(4);
    /// RR3's client (exit r3).
    pub const C3: RouterId = RouterId(5);
}

/// Exit-path ids.
pub mod routes {
    use ibgp_types::ExitPathId;
    /// Route injected at c1.
    pub const R1: ExitPathId = ExitPathId(1);
    /// Route injected at c2.
    pub const R2: ExitPathId = ExitPathId(2);
    /// Route injected at c3.
    pub const R3: ExitPathId = ExitPathId(3);
}

/// Build the Fig 13 scenario.
pub fn scenario() -> Scenario {
    let topology = TopologyBuilder::new(6)
        // Rotationally asymmetric bipartite costs; see module docs.
        .link(nodes::RR1.raw(), nodes::C1.raw(), 2)
        .link(nodes::RR1.raw(), nodes::C2.raw(), 1)
        .link(nodes::RR1.raw(), nodes::C3.raw(), 3)
        .link(nodes::RR2.raw(), nodes::C1.raw(), 3)
        .link(nodes::RR2.raw(), nodes::C2.raw(), 2)
        .link(nodes::RR2.raw(), nodes::C3.raw(), 1)
        .link(nodes::RR3.raw(), nodes::C1.raw(), 1)
        .link(nodes::RR3.raw(), nodes::C2.raw(), 3)
        .link(nodes::RR3.raw(), nodes::C3.raw(), 2)
        .cluster([nodes::RR1.raw()], [nodes::C1.raw()])
        .cluster([nodes::RR2.raw()], [nodes::C2.raw()])
        .cluster([nodes::RR3.raw()], [nodes::C3.raw()])
        .build()
        .expect("fig13 topology is valid");
    let mk = |id: ExitPathId, at: RouterId| -> ExitPathRef {
        Arc::new(
            ExitPath::builder(id)
                .via(AsId::new(1))
                .med(Med::new(0))
                .exit_point(at)
                .build_unchecked(),
        )
    };
    Scenario {
        name: "fig13",
        description: "persistent oscillation surviving the Walton et al. fix; the modified protocol converges (metric-ring reconstruction)",
        topology,
        exits: vec![
            mk(routes::R1, nodes::C1),
            mk(routes::R2, nodes::C2),
            mk(routes::R3, nodes::C3),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_analysis::{classify, explore, ExploreOptions, OscillationClass};
    use ibgp_proto::variants::ProtocolConfig;
    use ibgp_sim::{Engine, RoundRobin, SyncEngine};

    const MAX_STATES: usize = 500_000;

    #[test]
    fn the_preference_ring_geometry_holds() {
        let s = scenario();
        let d = |u, v| s.topology.igp_cost(u, v).raw();
        // Each reflector: next cluster's client < own client < previous.
        assert!(d(nodes::RR1, nodes::C2) < d(nodes::RR1, nodes::C1));
        assert!(d(nodes::RR1, nodes::C1) < d(nodes::RR1, nodes::C3));
        assert!(d(nodes::RR2, nodes::C3) < d(nodes::RR2, nodes::C2));
        assert!(d(nodes::RR2, nodes::C2) < d(nodes::RR2, nodes::C1));
        assert!(d(nodes::RR3, nodes::C1) < d(nodes::RR3, nodes::C3));
        assert!(d(nodes::RR3, nodes::C3) < d(nodes::RR3, nodes::C2));
    }

    #[test]
    fn walton_oscillates_persistently() {
        // The headline Fig 13 claim: the Walton et al. fix is not enough.
        let s = scenario();
        let (class, reach) = classify(
            &s.topology,
            ProtocolConfig::WALTON,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Persistent, "{reach:?}");
        assert!(reach.complete);
    }

    #[test]
    fn walton_search_is_identical_at_every_worker_count() {
        let s = scenario();
        let search = |jobs: usize| {
            let opts = ExploreOptions::new().max_states(MAX_STATES).jobs(jobs);
            explore(&s.topology, ProtocolConfig::WALTON, s.exits(), opts)
        };
        let sequential = search(1);
        for jobs in [2, 4, 8] {
            let parallel = search(jobs);
            assert_eq!(parallel.states, sequential.states, "jobs={jobs}");
            assert_eq!(parallel.complete, sequential.complete, "jobs={jobs}");
            assert_eq!(
                parallel.stable_vectors, sequential.stable_vectors,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn standard_oscillates_persistently_too() {
        let s = scenario();
        let (class, reach) = classify(
            &s.topology,
            ProtocolConfig::STANDARD,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Persistent, "{reach:?}");
    }

    #[test]
    fn walton_round_robin_run_provably_cycles() {
        let s = scenario();
        let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::WALTON, s.exits());
        let outcome = eng.run(&mut RoundRobin::new(), 100_000);
        assert!(outcome.cycled(), "{outcome}");
    }

    #[test]
    fn modified_protocol_converges_to_the_unique_fixed_point() {
        let s = scenario();
        let (class, reach) = classify(
            &s.topology,
            ProtocolConfig::MODIFIED,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(class, OscillationClass::Stable, "{reach:?}");
        assert_eq!(reach.stable_vectors.len(), 1);
        // With all three routes visible everywhere, each reflector takes
        // the nearest (its "next" cluster's) exit.
        let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::MODIFIED, s.exits());
        assert!(eng.run(&mut RoundRobin::new(), 10_000).converged());
        assert_eq!(eng.best_exit(nodes::RR1), Some(routes::R2));
        assert_eq!(eng.best_exit(nodes::RR2), Some(routes::R3));
        assert_eq!(eng.best_exit(nodes::RR3), Some(routes::R1));
    }

    #[test]
    fn single_neighbor_as_makes_walton_equal_standard() {
        // Cross-check of the §3 remark that with one neighboring AS the
        // Walton vector is the classical best: both protocols visit the
        // same reachable state count here.
        let s = scenario();
        let (_, rw) = classify(
            &s.topology,
            ProtocolConfig::WALTON,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        let (_, rs) = classify(
            &s.topology,
            ProtocolConfig::STANDARD,
            &s.exits,
            ExploreOptions::new().max_states(MAX_STATES),
        );
        assert_eq!(rw.states, rs.states);
    }
}
