//! Capped-search evidence for the §5 gadget.
//!
//! `corpus/specimens/npc-1var.ibgp` is the one committed specimen whose
//! plain search hits the state cap, and at both caps pinned here the cap
//! fires partway through a BFS level that spans several merge chunks.
//! The search must stop at exactly the same state, with the same
//! evidence, at every worker count: the capped prefix is the canonical
//! (frontier index, branch index) prefix whatever the chunking or
//! scheduling.

use ibgp_hunt::{classify_spec, parse, HuntOptions, Verdict};
use ibgp_types::{ExitPathId, StopReason};
use std::path::PathBuf;

fn npc_1var() -> ibgp_hunt::ScenarioSpec {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/specimens/npc-1var.ibgp");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("unreadable {}: {e}", path.display()));
    parse(&text).expect("npc-1var parses")
}

fn classify(cap: usize, jobs: usize) -> Verdict {
    let opts = HuntOptions {
        max_states: cap,
        jobs,
        ..HuntOptions::default()
    };
    classify_spec(&npc_1var(), &opts).expect("npc-1var classifies")
}

/// One pinned row: the cap, and the frontier depth and peak queue the
/// capped search reports.
fn assert_evidence(cap: usize, depth: u64, peak_queue: u64) {
    let stable: Vec<Option<ExitPathId>> = [1, 1, 1, 1, 2, 1, 1, 3, 4, 5]
        .iter()
        .map(|&id| Some(ExitPathId::new(id)))
        .collect();
    for jobs in [1usize, 2, 8] {
        let v = classify(cap, jobs);
        let label = format!("cap {cap}, jobs {jobs}");
        assert_eq!(v.states, cap + 1, "{label}: states");
        assert!(!v.complete, "{label}: must be capped");
        assert_eq!(v.stop, StopReason::StateCap(cap), "{label}: stop");
        assert_eq!(v.stable_vectors, vec![stable.clone()], "{label}: stable");
        let m = v.metrics.expect("searches report metrics");
        assert_eq!(m.frontier_depth, depth, "{label}: frontier depth");
        assert_eq!(m.peak_queue, peak_queue, "{label}: peak queue");
        assert_eq!(m.workers, jobs as u64, "{label}: workers");
    }
}

#[test]
fn npc_1var_capped_at_50k_is_pinned_at_every_worker_count() {
    assert_evidence(50_000, 7, 15_164);
}

#[test]
fn npc_1var_capped_at_200k_is_pinned_at_every_worker_count() {
    assert_evidence(200_000, 9, 86_855);
}
