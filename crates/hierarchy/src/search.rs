//! Exhaustive reachability for the hierarchy engine: the shared
//! level-synchronous explorer of `ibgp-analysis`, driven through the
//! engine's one-sweep shape.

use crate::engine::{HierEngine, HierMode};
use crate::topology::HierTopology;
use ibgp_analysis::{explore_sweep, ExploreOptions, Reachability};
use ibgp_types::ExitPathRef;

/// Explore all configurations reachable under singleton + full-set
/// activations.
///
/// The options' state cap, byte budget, deadline, and worker count all
/// apply (see [`explore_sweep`]). A bare `usize` is a state cap explored
/// in-thread.
pub fn explore_hier(
    topo: &HierTopology,
    mode: HierMode,
    exits: Vec<ExitPathRef>,
    options: impl Into<ExploreOptions>,
) -> Reachability {
    explore_sweep(HierEngine::new(topo, mode, exits), options.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterSpec;
    use ibgp_topology::PhysicalGraph;
    use ibgp_types::{AsId, ExitPath, ExitPathId, IgpCost, Med, RouterId, StopReason};
    use std::sync::Arc;

    #[test]
    fn trivial_hierarchy_converges() {
        let r = RouterId::new;
        let mut g = PhysicalGraph::new(2);
        g.add_link(r(0), r(1), IgpCost::new(1)).unwrap();
        let topo = crate::topology::HierTopology::new(g, vec![ClusterSpec::flat(0, [1])]).unwrap();
        let exit = Arc::new(
            ExitPath::builder(ExitPathId::new(1))
                .via(AsId::new(1))
                .med(Med::new(0))
                .exit_point(r(1))
                .build_unchecked(),
        );
        let reach = explore_hier(&topo, HierMode::SingleBest, vec![exit.clone()], 10_000);
        assert!(reach.complete);
        assert_eq!(
            reach.stop,
            StopReason::Complete,
            "complete searches report no budget stop"
        );
        assert_eq!(reach.stable_vectors.len(), 1);
        assert!(!reach.persistent_oscillation());

        // An already-expired deadline stops before any expansion.
        let options = ExploreOptions::new().deadline(std::time::Instant::now());
        let reach = explore_hier(&topo, HierMode::SingleBest, vec![exit], options);
        assert!(!reach.complete);
        assert_eq!(reach.stop, StopReason::Deadline);
        assert_eq!(reach.states, 1, "only the initial state was visited");
    }
}
