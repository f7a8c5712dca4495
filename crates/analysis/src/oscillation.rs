//! Oscillation classification (§1's taxonomy).
//!
//! The paper distinguishes **persistent** route oscillations — no stable
//! routing configuration is reachable, so some routers exchange updates
//! forever under every fair schedule — from **transient** ones, where
//! stable configurations exist but particular message orderings or delays
//! keep the system churning (Fig 2, Fig 3). This module derives the class
//! from reachability evidence plus a simultaneous-activation probe.

use crate::reachability::{explore, ExploreOptions, Reachability};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_sim::{AllAtOnce, Engine, SyncEngine};
use ibgp_topology::Topology;
use ibgp_types::ExitPathRef;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a configuration behaves under the given protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OscillationClass {
    /// No stable configuration is reachable: persistent oscillation
    /// (proven by complete exhaustive search).
    Persistent,
    /// Stable configurations exist, but oscillation or outcome divergence
    /// is possible depending on timing: either a simultaneous-activation
    /// schedule provably cycles, or multiple distinct stable outcomes are
    /// reachable.
    Transient,
    /// Exactly one stable configuration is reachable and the probe
    /// schedules converge to it.
    Stable,
    /// The exploration hit its state cap; no verdict.
    Unknown,
}

impl OscillationClass {
    /// The class the search evidence alone supports: unknown when the
    /// search was truncated, persistent with no reachable stable vector,
    /// transient with several, stable with exactly one. [`classify`]
    /// additionally probes a unique stable outcome for a live cycle on
    /// reflection topologies; confederation and hierarchy verdicts are
    /// this class as is.
    pub fn from_evidence(reach: &Reachability) -> OscillationClass {
        if !reach.complete {
            OscillationClass::Unknown
        } else if reach.stable_vectors.is_empty() {
            OscillationClass::Persistent
        } else if reach.stable_vectors.len() > 1 {
            OscillationClass::Transient
        } else {
            OscillationClass::Stable
        }
    }
}

impl fmt::Display for OscillationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OscillationClass::Persistent => "persistent oscillation",
            OscillationClass::Transient => "transient oscillation possible",
            OscillationClass::Stable => "stable",
            OscillationClass::Unknown => "unknown (inconclusive search)",
        };
        f.write_str(s)
    }
}

/// Classify a scenario under a protocol configuration.
///
/// Runs the exhaustive reachability search under the given options, then
/// probes the all-at-once schedule for provable cycles. With
/// [`ExploreOptions::solver`] set to [`ibgp_types::SolverMode::Sat`] the
/// search is replaced by the constraint solver (see [`crate::solver`]),
/// falling back to search for variants the encoding does not cover.
pub fn classify(
    topo: &Topology,
    config: ProtocolConfig,
    exits: &[ExitPathRef],
    options: ExploreOptions,
) -> (OscillationClass, Reachability) {
    if options.solver == ibgp_types::SolverMode::Sat {
        if let Some(result) = crate::solver::classify_sat(topo, config, exits, &options) {
            return result;
        }
    }
    let probe_budget = 4 * options.max_states as u64 + 16;
    let loop_prevention = options.loop_prevention;
    let reach = explore(topo, config, exits.to_vec(), options);
    let class = OscillationClass::from_evidence(&reach);
    if class != OscillationClass::Stable {
        return (class, reach);
    }
    // Unique stable outcome; still check the simultaneous schedule for a
    // provable cycle (a unique fixed point can coexist with a live cycle).
    let mut engine = SyncEngine::new(topo, config, exits.to_vec());
    engine.set_loop_prevention(loop_prevention);
    let outcome = engine.run(&mut AllAtOnce, probe_budget);
    if outcome.cycled() {
        (OscillationClass::Transient, reach)
    } else {
        (OscillationClass::Stable, reach)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_topology::TopologyBuilder;
    use ibgp_types::{AsId, ExitPath, ExitPathId, Med, RouterId};
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

    #[test]
    fn trivial_scenario_is_stable() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0)];
        let opts = ExploreOptions::new().max_states(10_000);
        let (class, reach) = classify(&topo, ProtocolConfig::STANDARD, &exits, opts);
        assert_eq!(class, OscillationClass::Stable);
        assert!(reach.can_converge());
    }

    #[test]
    fn disagree_is_transient_under_standard_and_stable_under_modified() {
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
        let opts = ExploreOptions::new().max_states(100_000);
        let (class, _) = classify(&topo, ProtocolConfig::STANDARD, &exits, opts.clone());
        assert_eq!(class, OscillationClass::Transient);
        let (class, _) = classify(&topo, ProtocolConfig::MODIFIED, &exits, opts);
        assert_eq!(class, OscillationClass::Stable);
    }

    #[test]
    fn capped_search_is_unknown() {
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
        let opts = ExploreOptions::new().max_states(2);
        let (class, reach) = classify(&topo, ProtocolConfig::STANDARD, &exits, opts);
        assert_eq!(class, OscillationClass::Unknown);
        // The class says only that the search was inconclusive; the
        // specific reason lives in the stop reason, not the class.
        assert_eq!(class.to_string(), "unknown (inconclusive search)");
        assert_eq!(
            reach.stop,
            ibgp_types::StopReason::StateCap(2),
            "the cap that stopped the search"
        );
    }
}
