//! Exhaustive reachability over activation nondeterminism for the
//! confederation engine: the shared level-synchronous explorer of
//! `ibgp-analysis`, driven through the engine's one-sweep shape.

use crate::engine::{ConfedEngine, ConfedMode};
use crate::topology::ConfedTopology;
use ibgp_analysis::{explore_sweep, ExploreOptions, Reachability};
use ibgp_types::ExitPathRef;

/// Explore every configuration reachable from the initial state under
/// singleton and full-set activations.
///
/// The options' state cap, byte budget, deadline, and worker count all
/// apply (see [`explore_sweep`]). A bare `usize` is a state cap explored
/// in-thread.
pub fn explore_confed(
    topo: &ConfedTopology,
    mode: ConfedMode,
    exits: Vec<ExitPathRef>,
    options: impl Into<ExploreOptions>,
) -> Reachability {
    explore_sweep(ConfedEngine::new(topo, mode, exits), options.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SubAsId;
    use ibgp_topology::PhysicalGraph;
    use ibgp_types::{AsId, ExitPath, ExitPathId, IgpCost, Med, RouterId, StopReason};
    use std::sync::Arc;

    fn r(i: u32) -> RouterId {
        RouterId::new(i)
    }

    #[test]
    fn trivial_confederation_converges() {
        let mut g = PhysicalGraph::new(2);
        g.add_link(r(0), r(1), IgpCost::new(1)).unwrap();
        let topo =
            ConfedTopology::new(g, vec![SubAsId(0), SubAsId(1)], vec![(r(0), r(1))]).unwrap();
        let exit = Arc::new(
            ExitPath::builder(ExitPathId::new(1))
                .via(AsId::new(1))
                .med(Med::new(0))
                .exit_point(r(0))
                .build_unchecked(),
        );
        let reach = explore_confed(&topo, ConfedMode::SingleBest, vec![exit], 10_000);
        assert!(reach.complete);
        assert_eq!(
            reach.stop,
            StopReason::Complete,
            "complete searches report no budget stop"
        );
        assert!(reach.can_converge());
        assert_eq!(reach.stable_vectors.len(), 1);
        assert!(!reach.persistent_oscillation());
        assert_eq!(reach.metrics.workers, 1, "a bare cap explores in-thread");
        assert_eq!(reach.metrics.states_visited as usize, reach.states);
    }

    #[test]
    fn cap_reports_incomplete() {
        let mut g = PhysicalGraph::new(2);
        g.add_link(r(0), r(1), IgpCost::new(1)).unwrap();
        let topo =
            ConfedTopology::new(g, vec![SubAsId(0), SubAsId(1)], vec![(r(0), r(1))]).unwrap();
        let exit = Arc::new(
            ExitPath::builder(ExitPathId::new(1))
                .via(AsId::new(1))
                .exit_point(r(0))
                .build_unchecked(),
        );
        let reach = explore_confed(&topo, ConfedMode::SingleBest, vec![exit.clone()], 1);
        assert!(!reach.complete);
        assert_eq!(
            reach.stop,
            StopReason::StateCap(1),
            "capped searches name the cap that hit"
        );
        assert!(!reach.persistent_oscillation());

        // An already-expired deadline stops before any expansion, and the
        // stop reason says so rather than blaming a cap.
        let options = ExploreOptions::new().deadline(std::time::Instant::now());
        let reach = explore_confed(&topo, ConfedMode::SingleBest, vec![exit], options);
        assert!(!reach.complete);
        assert_eq!(reach.stop, StopReason::Deadline);
        assert_eq!(reach.states, 1, "only the initial state was visited");
    }
}
