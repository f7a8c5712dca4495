//! Classification by constraint solving (`--solver sat`).
//!
//! For the **standard** protocol the stable configurations are exactly
//! the fixed points of the `Choose_best` sweep, and `ibgp-solver`
//! enumerates those fixed points from a CNF encoding without visiting a
//! single reachable state. That answers most of the oscillation
//! taxonomy directly and *exactly*:
//!
//! * zero fixed points ⇒ [`OscillationClass::Persistent`] — and this
//!   verdict is stronger than the search's, since it rules out stable
//!   routings reachable or not;
//! * two or more ⇒ [`OscillationClass::Transient`] (multiple stable
//!   outcomes — *which* one materializes depends on timing);
//! * exactly one ⇒ stable unless the simultaneous-activation probe
//!   exhibits a live cycle around the unique fixed point, mirroring
//!   [`crate::classify`]'s probe step.
//!
//! What the encoding cannot see is reachability itself, so the one
//! asymmetry with search verdicts is deliberate: the solver's
//! multiplicity is *global* where the search's is *reachable*. The two
//! coincide whenever every fixed point is reachable from `config(0)` —
//! true for all committed specimens except the paper's Fig 3, whose
//! MED-0 solution only E-BGP injection timing can reach: there the
//! search reports a unique reachable fixed point (stable) while the
//! solver reports both (transient), matching the figure's
//! delay-driven-oscillation story. The golden suite pins both sides.
//! Non-standard variants (Walton, modified) advertise sets, not single
//! exits — the encoding does not apply and callers fall back to search.

use crate::oscillation::OscillationClass;
use crate::reachability::{ExploreOptions, Reachability};
use ibgp_proto::variants::{ProtocolConfig, ProtocolVariant};
use ibgp_sim::{AllAtOnce, Engine, Metrics, SyncEngine};
use ibgp_solver::encode::enumerate_stable;
use ibgp_topology::Topology;
use ibgp_types::{ExitPathRef, SearchBudget, VerdictOrigin};
use std::time::Instant;

/// Classify by enumerating the fixed points of `Choose_best` with the
/// constraint solver instead of exploring reachable states.
///
/// Returns `None` when the encoding does not apply: any variant other
/// than [`ProtocolVariant::Standard`], or loop prevention on (the CNF
/// encodes the §4 `Transfer` predicate, not the message-level
/// ORIGINATOR_ID / CLUSTER_LIST mechanics). The caller then falls back
/// to reachability search. The options' `max_states` caps the solver's
/// branching decisions and the deadline is honored; `max_bytes`,
/// symmetry, POR, and the jobs knob have no solver-side meaning and are
/// ignored.
pub fn classify_sat(
    topo: &Topology,
    config: ProtocolConfig,
    exits: &[ExitPathRef],
    options: &ExploreOptions,
) -> Option<(OscillationClass, Reachability)> {
    if config.variant != ProtocolVariant::Standard {
        return None;
    }
    if options.loop_prevention {
        return None;
    }
    let started = Instant::now();
    let mut budget = SearchBudget::states(options.max_states);
    if let Some(deadline) = options.deadline {
        budget = budget.deadline(deadline);
    }
    let report = enumerate_stable(topo, config.policy, exits, &budget);
    let mut reach = Reachability {
        states: 0,
        complete: report.complete,
        stable_vectors: report.fixed_points,
        stop: report.stop,
        metrics: Metrics::default(),
        origin: VerdictOrigin::Solver,
    };
    let mut class = OscillationClass::from_evidence(&reach);
    if class == OscillationClass::Stable {
        // Unique fixed point: probe the simultaneous schedule for a live
        // cycle, exactly as the search-based classifier does.
        let probe_budget = 4 * options.max_states as u64 + 16;
        let mut engine = SyncEngine::new(topo, config, exits.to_vec());
        if engine.run(&mut AllAtOnce, probe_budget).cycled() {
            class = OscillationClass::Transient;
        }
    }
    reach.metrics.elapsed_nanos = started.elapsed().as_nanos() as u64;
    Some((class, reach))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_topology::TopologyBuilder;
    use ibgp_types::{AsId, ExitPath, ExitPathId, Med, RouterId, SolverMode, StopReason};
    use std::sync::Arc;

    fn exit(id: u32, next_as: u32, med: u32, exit_point: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(next_as))
                .med(Med::new(med))
                .exit_point(RouterId::new(exit_point))
                .build_unchecked(),
        )
    }

    fn disagree() -> (Topology, Vec<ExitPathRef>) {
        let topo = TopologyBuilder::new(4)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .cluster([0], [2])
            .cluster([1], [3])
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 2), exit(2, 1, 0, 3)];
        (topo, exits)
    }

    #[test]
    fn non_standard_variants_decline() {
        let (topo, exits) = disagree();
        let opts = ExploreOptions::new();
        assert!(classify_sat(&topo, ProtocolConfig::MODIFIED, &exits, &opts).is_none());
        assert!(classify_sat(&topo, ProtocolConfig::WALTON, &exits, &opts).is_none());
    }

    /// Loop prevention changes route propagation in ways the CNF does
    /// not model, so the solver declines and `classify` resolves the
    /// request via search — with an honest `Search` origin.
    #[test]
    fn loop_prevention_declines_and_falls_back_to_search() {
        let (topo, exits) = disagree();
        let opts = ExploreOptions::new()
            .max_states(100_000)
            .solver(SolverMode::Sat)
            .loop_prevention(true);
        assert!(classify_sat(&topo, ProtocolConfig::STANDARD, &exits, &opts).is_none());
        let (_, reach) = crate::classify(&topo, ProtocolConfig::STANDARD, &exits, opts);
        assert_eq!(reach.origin, VerdictOrigin::Search);
    }

    #[test]
    fn solver_and_search_agree_on_the_disagree_gadget() {
        let (topo, exits) = disagree();
        let opts = ExploreOptions::new().max_states(100_000);
        let (sat_class, sat_reach) =
            classify_sat(&topo, ProtocolConfig::STANDARD, &exits, &opts).unwrap();
        let (search_class, search_reach) =
            crate::classify(&topo, ProtocolConfig::STANDARD, &exits, opts);
        assert_eq!(sat_class, search_class);
        assert_eq!(sat_reach.stable_vectors, search_reach.stable_vectors);
        assert_eq!(sat_reach.origin, VerdictOrigin::Solver);
        assert_eq!(search_reach.origin, VerdictOrigin::Search);
        assert_eq!(sat_reach.states, 0, "no reachable state is ever visited");
        assert!(sat_reach.complete);
    }

    #[test]
    fn unique_fixed_point_still_runs_the_cycle_probe() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0)];
        let opts = ExploreOptions::new().max_states(10_000);
        let (class, reach) = classify_sat(&topo, ProtocolConfig::STANDARD, &exits, &opts).unwrap();
        assert_eq!(class, OscillationClass::Stable);
        assert_eq!(reach.stable_vectors.len(), 1);
    }

    #[test]
    fn classify_dispatches_on_the_solver_option() {
        let (topo, exits) = disagree();
        let opts = ExploreOptions::new()
            .max_states(100_000)
            .solver(SolverMode::Sat);
        let (class, reach) = crate::classify(&topo, ProtocolConfig::STANDARD, &exits, opts);
        assert_eq!(class, OscillationClass::Transient);
        assert_eq!(reach.origin, VerdictOrigin::Solver);
        // Non-standard variants fall back to search transparently.
        let opts = ExploreOptions::new()
            .max_states(100_000)
            .solver(SolverMode::Sat);
        let (class, reach) = crate::classify(&topo, ProtocolConfig::MODIFIED, &exits, opts);
        assert_eq!(class, OscillationClass::Stable);
        assert_eq!(reach.origin, VerdictOrigin::Search);
    }

    #[test]
    fn expired_deadline_is_unknown() {
        let (topo, exits) = disagree();
        let opts = ExploreOptions::new()
            .max_states(100_000)
            .deadline(Instant::now() - std::time::Duration::from_secs(1));
        let (class, reach) = classify_sat(&topo, ProtocolConfig::STANDARD, &exits, &opts).unwrap();
        assert_eq!(class, OscillationClass::Unknown);
        assert_eq!(reach.stop, StopReason::Deadline);
        assert!(!reach.complete);
    }
}
