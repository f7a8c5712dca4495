//! Capped-search evidence for the §5 gadget.
//!
//! `corpus/specimens/npc-1var.ibgp` is the one committed specimen whose
//! plain search hits the state cap, and at both caps pinned here the cap
//! fires partway through a BFS level that spans several merge chunks.
//! The search must stop at exactly the same state, with the same
//! evidence, at every worker count: the capped prefix is the canonical
//! (frontier index, branch index) prefix whatever the chunking or
//! scheduling.
//!
//! The engine counters are pinned too. Activations, best changes,
//! messages and paths advertised count every branch of every expanded
//! state, including the branches the explorer accounts without building
//! (a singleton that leaves its router unchanged, and the full set when
//! it repeats the one enabled router's singleton). The visited-set bytes
//! fix the per-key accounting the `--max-bytes` stop points rest on.

use ibgp_analysis::OscillationClass;
use ibgp_hunt::{classify_spec, parse, HuntOptions, Verdict};
use ibgp_sim::Metrics;
use ibgp_types::{ExitPathId, StopReason};
use std::path::PathBuf;

fn npc_1var() -> ibgp_hunt::ScenarioSpec {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/specimens/npc-1var.ibgp");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("unreadable {}: {e}", path.display()));
    parse(&text).expect("npc-1var parses")
}

fn classify(opts: HuntOptions) -> Verdict {
    classify_spec(&npc_1var(), &opts).expect("npc-1var classifies")
}

/// The gadget's one reachable stable vector.
fn stable() -> Vec<Option<ExitPathId>> {
    [1, 1, 1, 1, 2, 1, 1, 3, 4, 5]
        .iter()
        .map(|&id| Some(ExitPathId::new(id)))
        .collect()
}

/// The engine work a search reports: activations, best changes,
/// messages, paths advertised, and the peak accounted visited bytes.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    activations: u64,
    best_changes: u64,
    messages: u64,
    paths_advertised: u64,
    visited_bytes: u64,
}

impl From<&Metrics> for Work {
    fn from(m: &Metrics) -> Self {
        Work {
            activations: m.activations,
            best_changes: m.best_changes,
            messages: m.messages,
            paths_advertised: m.paths_advertised,
            visited_bytes: m.visited_bytes,
        }
    }
}

/// One pinned row: the cap, the frontier depth and peak queue the
/// capped search reports, and the engine work of the expanded chunks.
fn assert_evidence(cap: usize, depth: u64, peak_queue: u64, work: Work) {
    for jobs in [1usize, 2, 8] {
        let v = classify(HuntOptions {
            max_states: cap,
            jobs,
            ..HuntOptions::default()
        });
        let label = format!("cap {cap}, jobs {jobs}");
        assert_eq!(v.states, cap + 1, "{label}: states");
        assert!(!v.complete, "{label}: must be capped");
        assert_eq!(v.stop, StopReason::StateCap(cap), "{label}: stop");
        assert_eq!(v.stable_vectors, vec![stable()], "{label}: stable");
        let m = v.metrics.expect("searches report metrics");
        assert_eq!(m.frontier_depth, depth, "{label}: frontier depth");
        assert_eq!(m.peak_queue, peak_queue, "{label}: peak queue");
        assert_eq!(m.workers, jobs as u64, "{label}: workers");
        assert_eq!(Work::from(&m), work, "{label}: engine work");
    }
}

#[test]
fn npc_1var_capped_at_50k_is_pinned_at_every_worker_count() {
    assert_evidence(
        50_000,
        7,
        15_164,
        Work {
            activations: 395_780,
            best_changes: 112_142,
            messages: 269_586,
            paths_advertised: 177_180,
            visited_bytes: 9_600_192,
        },
    );
}

#[test]
fn npc_1var_capped_at_200k_is_pinned_at_every_worker_count() {
    assert_evidence(
        200_000,
        9,
        86_855,
        Work {
            activations: 1_798_340,
            best_changes: 427_014,
            messages: 1_055_512,
            paths_advertised: 691_624,
            visited_bytes: 38_400_192,
        },
    );
}

/// Under partial-order reduction the gadget's search completes below the
/// default cap. The ample and full expansion counts and the engine work
/// pin which branches were taken, built or accounted.
#[test]
fn npc_1var_under_por_is_pinned_at_every_worker_count() {
    for jobs in [1usize, 2, 8] {
        let v = classify(HuntOptions {
            jobs,
            por: true,
            ..HuntOptions::default()
        });
        let label = format!("por, jobs {jobs}");
        assert_eq!(v.class, OscillationClass::Transient, "{label}: class");
        assert_eq!(v.states, 10_975, "{label}: states");
        assert!(v.complete, "{label}: must complete");
        assert_eq!(v.stop, StopReason::Complete, "{label}: stop");
        assert_eq!(v.stable_vectors, vec![stable()], "{label}: stable");
        let m = v.metrics.expect("searches report metrics");
        assert_eq!(m.frontier_depth, 23, "{label}: frontier depth");
        assert_eq!(m.peak_queue, 1_342, "{label}: peak queue");
        assert_eq!(m.por_ample, 7_465, "{label}: ample expansions");
        assert_eq!(m.por_full, 3_509, "{label}: full expansions");
        assert_eq!(
            Work::from(&m),
            Work {
                activations: 91_330,
                best_changes: 28_495,
                messages: 65_884,
                paths_advertised: 49_444,
                visited_bytes: 2_107_200,
            },
            "{label}: engine work"
        );
    }
}
