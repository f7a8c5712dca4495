//! Regression tests for parallel rate accounting.
//!
//! A multi-worker search must report its throughput off the
//! *coordinator's* wall clock. The historical failure mode this guards
//! against: folding per-worker metrics into the aggregate sums each
//! worker's own elapsed time, so an 8-worker search reports up to 8× the
//! real wall time and a rate deflated by the same factor.

use ibgp_analysis::{explore, ExploreOptions};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_topology::TopologyBuilder;
use ibgp_types::{AsId, ExitPath, ExitPathId, ExitPathRef, Med, RouterId};
use std::sync::Arc;
use std::time::Instant;

fn exit(id: u32, exit_point: u32) -> ExitPathRef {
    Arc::new(
        ExitPath::builder(ExitPathId::new(id))
            .via(AsId::new(1))
            .med(Med::new(0))
            .exit_point(RouterId::new(exit_point))
            .build_unchecked(),
    )
}

/// A 5-router two-cluster instance with a few thousand reachable states —
/// enough work that a summed-worker-time bug would be unmissable.
fn instance() -> (ibgp_topology::Topology, Vec<ExitPathRef>) {
    let topo = TopologyBuilder::new(5)
        .link(0, 2, 10)
        .link(0, 3, 1)
        .link(1, 3, 10)
        .link(1, 2, 1)
        .link(2, 4, 2)
        .link(3, 4, 3)
        .cluster([0], [2, 4])
        .cluster([1], [3])
        .build()
        .unwrap();
    let exits = vec![exit(1, 2), exit(2, 3), exit(3, 4)];
    (topo, exits)
}

/// A jobs=8 search must never report a rate computed from summed worker
/// time: its `elapsed_nanos` is bounded by externally observed wall
/// clock (one worker's share of which is far below 8× wall), and the
/// reported rate is exactly `states / elapsed`.
#[test]
fn parallel_rate_is_wall_clock_not_summed_worker_time() {
    let (topo, exits) = instance();
    let started = Instant::now();
    let r = explore(
        &topo,
        ProtocolConfig::STANDARD,
        exits,
        ExploreOptions::new().max_states(500_000).jobs(8),
    );
    let external_wall = started.elapsed().as_nanos() as u64;

    assert_eq!(r.metrics.workers, 8);
    assert!(r.metrics.handoffs > 0, "pool path must hand batches off");
    assert!(
        r.states > 100,
        "instance must be big enough to be probative"
    );
    // The coordinator's own clock can only read *less* than the clock
    // wrapped around the whole call. Summed worker time on a search this
    // size would exceed the external wall clock many times over.
    assert!(
        r.metrics.elapsed_nanos <= external_wall,
        "reported {} ns but the whole call took {} ns: elapsed must be \
         coordinator wall clock, not a sum over workers",
        r.metrics.elapsed_nanos,
        external_wall
    );
    assert!(r.metrics.elapsed_nanos > 0);
    // And the advertised rate is defined off that same wall clock.
    let expected = r.metrics.states_visited as f64 / (r.metrics.elapsed_nanos as f64 / 1e9);
    assert!(
        (r.metrics.states_per_sec() - expected).abs() < 1e-9,
        "states_per_sec must be states / coordinator-elapsed"
    );
}

/// The same instance at jobs ∈ {1, 2, 8} reports the same work totals —
/// engine counters are sums over a deterministic work set, and none of
/// them secretly scale with the worker count.
#[test]
fn work_totals_do_not_scale_with_worker_count() {
    let (topo, exits) = instance();
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            explore(
                &topo,
                ProtocolConfig::STANDARD,
                exits.clone(),
                ExploreOptions::new().max_states(500_000).jobs(jobs),
            )
        })
        .collect();
    for (r, jobs) in runs.iter().zip([1u64, 2, 8]) {
        assert_eq!(r.metrics.workers, jobs);
        assert_eq!(r.states, runs[0].states, "jobs={jobs}");
        assert_eq!(
            r.metrics.activations, runs[0].metrics.activations,
            "jobs={jobs}"
        );
        assert_eq!(r.metrics.messages, runs[0].metrics.messages, "jobs={jobs}");
        assert_eq!(
            r.metrics.best_changes, runs[0].metrics.best_changes,
            "jobs={jobs}"
        );
    }
}

/// The coordinator's wall clock splits into waiting for chunk
/// expansions and merging them: both are spent on every search, and
/// together they never exceed the search's own elapsed time — at one
/// worker (in-thread expansion) and at eight (pool expansion) alike.
#[test]
fn expand_and_merge_split_the_coordinator_wall_clock() {
    let (topo, exits) = instance();
    for jobs in [1usize, 8] {
        let r = explore(
            &topo,
            ProtocolConfig::STANDARD,
            exits.clone(),
            ExploreOptions::new().max_states(500_000).jobs(jobs),
        );
        let m = r.metrics;
        assert!(m.expand_nanos > 0, "jobs={jobs}: expansion time recorded");
        assert!(m.merge_nanos > 0, "jobs={jobs}: merge time recorded");
        assert!(
            m.expand_nanos + m.merge_nanos <= m.elapsed_nanos,
            "jobs={jobs}: expand {} + merge {} ns exceed elapsed {} ns",
            m.expand_nanos,
            m.merge_nanos,
            m.elapsed_nanos
        );
    }
}
