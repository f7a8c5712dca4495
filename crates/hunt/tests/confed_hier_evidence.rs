//! Pinned confederation and hierarchy evidence.
//!
//! Confederation and hierarchy specs classify through the same
//! level-synchronous explorer as reflection specs. These pins were
//! recorded from the dedicated breadth-first searches that explorer
//! replaced, and hold it to their evidence exactly: the class, the
//! number of distinct states, the stop reason (including the state at
//! which a cap fires), and the set of stable best-exit vectors. The
//! level-by-level merge visits states in the FIFO queue's order, so
//! nothing here may move.
//!
//! Inputs: the E13 confederation and E14 depth-three hierarchy
//! oscillators under both advertisement modes, and a slice of the
//! generated `confed`/`hierarchy` families (seed 7) with their
//! persistent, transient, and capped cases.
//!
//! The same slice then holds the explorer to its own contract on these
//! engines: bit-identical results at every worker count (frontier depth,
//! peak queue and visited bytes included), and a byte budget that stops
//! the search at the same point whatever the count. Round-robin runs of
//! the same engines are pinned too, outcome and final best vector.

use ibgp_analysis::{ExploreOptions, OscillationClass, Reachability};
use ibgp_confed::{explore_confed, scenarios::confed_fig1a, ConfedEngine, ConfedMode};
use ibgp_hierarchy::{explore_hier, scenarios::deep_fig1a, Engine, HierEngine, HierMode};
use ibgp_hunt::spec::{Built, ScenarioSpec};
use ibgp_hunt::{classify_spec, generate_spec, Family, HuntOptions};
use ibgp_types::{ExitPathId, StopReason};

/// Sorted stable vectors, one string per vector: each router's best
/// exit id, or `-` for none.
fn render(vectors: &[Vec<Option<ExitPathId>>]) -> Vec<String> {
    let mut rows: Vec<String> = vectors
        .iter()
        .map(|v| {
            v.iter()
                .map(|b| b.map_or_else(|| "-".to_string(), |p| p.raw().to_string()))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    rows.sort();
    rows
}

/// The pinned generated specimens (seed 7), one per line: family,
/// index, state cap, class, states, stop token, frontier depth, peak
/// queue, peak visited bytes, and the sorted stable vectors (`|`
/// between vectors, `,` between routers, `-` for no route, `none` for
/// no stable vector). Hierarchy #0, #10 and #30 are the family's three
/// largest complete searches in this slice.
const PINS: &str = "\
confed     0 200000 stable      19 complete  5    6    4464 3,3,1
confed     1 200000 stable      19 complete  5    6    4416 1,1,3
confed     2 200000 stable      29 complete  5   12    8364 1,1,1,3
confed     3 200000 stable      49 complete  6   14   15356 1,3,1,3
confed     4 200000 stable      46 complete  6   14   12456 1,3,3,3,3
confed     5 200000 stable       7 complete  2    3    1108 3,1
confed     6 200000 stable      41 complete  6   12   12320 1,1,1,3
confed     7 200000 stable       8 complete  3    3    1424 1,3
confed     8 200000 stable     603 complete 12  147  227036 3,1,1,1,3
confed     9 200000 stable     113 complete  8   30   41172 1,1,1,1,3
confed    10 200000 stable      19 complete  5    6    4464 1,3,1
confed    11 200000 stable      41 complete  6   12   11948 1,1,1,3
confed    12 200000 stable     176 complete  8   56   62332 1,1,3,1
confed    13 200000 stable      12 complete  3    6    2204 3,3,1
confed    14 200000 stable      17 complete  3    7    3716 3,3,1
confed    15 200000 stable       7 complete  2    3    1108 3,1
confed    16 200000 stable     172 complete 11   38   61068 1,1,1,3,3
confed    17 200000 stable      39 complete  8   10   12388 1,1,3,1
confed    18 200000 stable      29 complete  5   12    8028 3,1,1,1
confed    19 200000 stable      14 complete  4    5    2720 3,1,3
confed    20 200000 persistent 154 complete 11   29   43812 none
confed    21 200000 stable      19 complete  5    6    4692 3,1,1
confed    22 200000 stable       7 complete  2    3    1296 1,1
confed    23 200000 stable       7 complete  2    3    1192 3,1
confed    24 200000 stable      28 complete  5   12    6568 1,3,1,1
hierarchy  0 200000 stable   15437 complete 18 2432 6842996 3,4,4,4,3,4,4,3
hierarchy  1 200000 transient  160 complete 10   39   45172 1,1,3,1,1,1|3,3,3,3,3,1
hierarchy  3 200000 stable     190 complete 10   33   55616 3,3,3,3,3,1,3
hierarchy  4 200000 stable      76 complete 11   16   22452 1,1,3,1,1
hierarchy  5 200000 stable      92 complete 11   17   24756 1,1,1,3,1,1
hierarchy  7 200000 stable      92 complete  9   20   24148 1,1,1,1,3,1
hierarchy  8 200000 stable      76 complete 11   16   22452 3,3,3,3,1
hierarchy 10 200000 stable    6421 complete 20  701 2272848 4,4,4,4,4,4,4,4
hierarchy 13 200000 stable      43 complete 10    8   10188 3,3,3,3,1
hierarchy 15 200000 stable      98 complete 11   15   26476 3,3,3,3,3,1
hierarchy 16 200000 transient  930 complete 17  108  287988 1,1,1,2,1,1,3|3,1,1,2,3,3,3
hierarchy 17 200000 stable      76 complete 11   16   22452 3,3,3,1,1
hierarchy 30 200000 stable    7036 complete 19  804 2879488 1,3,1,1,1,3,1,1
hierarchy 36 200000 transient  111 complete  9   27   31984 1,1,1,1,3,3,3|3,3,3,1,3,3,3
hierarchy  2    500 unknown    501 cap:500   6  138  150180 3,3,3,3,3,1,3
confed     8    100 unknown    101 cap:100   3   56   28504 none
";

/// One parsed line of [`PINS`].
struct Pin {
    family: Family,
    index: u64,
    max_states: usize,
    class: OscillationClass,
    states: usize,
    stop: StopReason,
    frontier_depth: u64,
    peak_queue: u64,
    visited_bytes: u64,
    stable: Vec<String>,
}

fn pins() -> Vec<Pin> {
    PINS.lines()
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let class = match f[3] {
                "persistent" => OscillationClass::Persistent,
                "transient" => OscillationClass::Transient,
                "stable" => OscillationClass::Stable,
                "unknown" => OscillationClass::Unknown,
                other => panic!("unknown class `{other}`"),
            };
            let stable = match f[9] {
                "none" => Vec::new(),
                vs => vs.split('|').map(|v| v.replace(',', " ")).collect(),
            };
            Pin {
                family: Family::parse_list(f[0]).expect("known family")[0],
                index: f[1].parse().expect("index"),
                max_states: f[2].parse().expect("cap"),
                class,
                states: f[4].parse().expect("states"),
                stop: StopReason::from_token(f[5]).expect("stop token"),
                frontier_depth: f[6].parse().expect("depth"),
                peak_queue: f[7].parse().expect("peak queue"),
                visited_bytes: f[8].parse().expect("visited bytes"),
                stable,
            }
        })
        .collect()
}

#[test]
fn e13_confederation_evidence_is_pinned() {
    let (topo, exits) = confed_fig1a();
    let single = explore_confed(&topo, ConfedMode::SingleBest, exits.clone(), 300_000);
    assert_eq!(
        OscillationClass::from_evidence(&single),
        OscillationClass::Persistent
    );
    assert_eq!(single.states, 338);
    assert_eq!(single.stop, StopReason::Complete);
    assert!(single.stable_vectors.is_empty());

    let set = explore_confed(&topo, ConfedMode::SetAdvertisement, exits, 300_000);
    assert_eq!(
        OscillationClass::from_evidence(&set),
        OscillationClass::Stable
    );
    assert_eq!(set.states, 320);
    assert_eq!(set.stop, StopReason::Complete);
    assert_eq!(render(&set.stable_vectors), ["1 1 1 1 3"]);
}

#[test]
fn e14_hierarchy_evidence_is_pinned() {
    let (topo, exits) = deep_fig1a();
    let single = explore_hier(&topo, HierMode::SingleBest, exits.clone(), 500_000);
    assert_eq!(
        OscillationClass::from_evidence(&single),
        OscillationClass::Persistent
    );
    assert_eq!(single.states, 553);
    assert_eq!(single.stop, StopReason::Complete);
    assert!(single.stable_vectors.is_empty());

    let set = explore_hier(&topo, HierMode::SetAdvertisement, exits, 500_000);
    assert_eq!(
        OscillationClass::from_evidence(&set),
        OscillationClass::Stable
    );
    assert_eq!(set.states, 652);
    assert_eq!(set.stop, StopReason::Complete);
    assert_eq!(render(&set.stable_vectors), ["1 1 1 1 3 3"]);
}

/// Sweep searches report the same engine counters as flat ones: every
/// planned state costs one memo lookup per router, split between hits
/// and misses however the workers' memos fall, and the activation and
/// best-change counts are a pure function of the expanded states. Those
/// two are pinned: they count every branch of every expanded state,
/// the ones the explorer accounts without building included.
fn check_accounting(
    label: &str,
    routers: usize,
    (activations, best_changes): (u64, u64),
    explore: impl Fn(ExploreOptions) -> Reachability,
) {
    let base = explore(ExploreOptions::new().max_states(500_000).jobs(1));
    assert!(base.complete, "{label}");
    assert_eq!(
        base.metrics.activations, activations,
        "{label}: activations"
    );
    assert_eq!(
        base.metrics.best_changes, best_changes,
        "{label}: best changes"
    );
    for jobs in [1, 2, 8] {
        let r = explore(ExploreOptions::new().max_states(500_000).jobs(jobs));
        let m = &r.metrics;
        let label = format!("{label} at jobs {jobs}");
        assert_eq!(
            m.cache_hits + m.cache_misses,
            (routers * r.states) as u64,
            "{label}: one lookup per router per planned state"
        );
        assert!(m.cache_hits > 0, "{label}: the memo answers repeats");
        assert!(m.activations > 0, "{label}");
        assert_eq!(m.activations, base.metrics.activations, "{label}");
        assert_eq!(m.best_changes, base.metrics.best_changes, "{label}");
        assert_eq!(m.messages, 0, "{label}: no per-session send model");
        assert_eq!(m.paths_advertised, 0, "{label}");
    }
}

#[test]
fn sweep_searches_account_their_plans_at_every_worker_count() {
    let (topo, exits) = confed_fig1a();
    for (mode, work) in [
        (ConfedMode::SingleBest, (3_380, 874)),
        (ConfedMode::SetAdvertisement, (3_190, 702)),
    ] {
        check_accounting(&format!("E13 {mode}"), 5, work, |o| {
            explore_confed(&topo, mode, exits.clone(), o)
        });
    }
    let (topo, exits) = deep_fig1a();
    for (mode, work) in [
        (HierMode::SingleBest, (6_636, 1_416)),
        (HierMode::SetAdvertisement, (7_812, 1_364)),
    ] {
        check_accounting(&format!("E14 {mode}"), 6, work, |o| {
            explore_hier(&topo, mode, exits.clone(), o)
        });
    }
}

/// One router's best exit per entry, `-` for none, comma-separated.
fn render_vector(v: &[Option<ExitPathId>]) -> String {
    v.iter()
        .map(|b| b.map_or_else(|| "-".to_string(), |p| p.raw().to_string()))
        .collect::<Vec<_>>()
        .join(",")
}

/// `Engine::step` drives the round-robin runner, so its outcome and the
/// best vector it stops at are pinned too: the E13/E14 oscillators in
/// both modes, and the three largest seed-7 hierarchy specimens.
#[test]
fn round_robin_runs_are_pinned() {
    let (topo, exits) = confed_fig1a();
    for (mode, outcome, best) in [
        (
            ConfedMode::SingleBest,
            "cycle of period 10 entered at step 10",
            "2,1,2,3,3",
        ),
        (
            ConfedMode::SetAdvertisement,
            "converged after 17 steps",
            "1,1,1,1,3",
        ),
    ] {
        let mut eng = ConfedEngine::new(&topo, mode, exits.clone());
        let out = eng.run_round_robin(300_000);
        assert_eq!(out.to_string(), outcome, "E13 {mode}");
        assert_eq!(render_vector(&eng.best_vector()), best, "E13 {mode}");
    }

    let (topo, exits) = deep_fig1a();
    for (mode, outcome, best) in [
        (
            HierMode::SingleBest,
            "cycle of period 12 entered at step 17",
            "2,1,2,3,3,3",
        ),
        (
            HierMode::SetAdvertisement,
            "converged after 25 steps",
            "1,1,1,1,3,3",
        ),
    ] {
        let mut eng = HierEngine::new(&topo, mode, exits.clone());
        let out = eng.run_round_robin(300_000);
        assert_eq!(out.to_string(), outcome, "E14 {mode}");
        assert_eq!(render_vector(&eng.best_vector()), best, "E14 {mode}");
    }

    for (index, outcome, best) in [
        (0, "converged after 24 steps", "3,4,4,4,3,4,4,3"),
        (10, "converged after 26 steps", "4,4,4,4,4,4,4,4"),
        (30, "converged after 26 steps", "1,3,1,1,1,3,1,1"),
    ] {
        let spec = generate_spec(Family::Hierarchy, 7, index);
        let Built::Hierarchy {
            topology,
            mode,
            exits,
        } = spec.build().expect("generated specs build")
        else {
            unreachable!("hierarchy family specs build hierarchies")
        };
        let mut eng = HierEngine::new(&topology, mode, exits);
        let out = eng.run_round_robin(300_000);
        assert_eq!(out.to_string(), outcome, "hierarchy #{index}");
        assert_eq!(
            render_vector(&eng.best_vector()),
            best,
            "hierarchy #{index}"
        );
    }
}

#[test]
fn generated_specimen_evidence_is_pinned() {
    for p in pins() {
        let spec = generate_spec(p.family, 7, p.index);
        let label = format!("{} #{} (cap {})", p.family, p.index, p.max_states);
        let v = classify_spec(&spec, &HuntOptions::new().max_states(p.max_states))
            .expect("generated specs build");
        assert_eq!(v.class, p.class, "{label}: class");
        assert_eq!(v.states, p.states, "{label}: states");
        assert_eq!(v.stop, p.stop, "{label}: stop");
        assert_eq!(
            render(&v.stable_vectors),
            p.stable,
            "{label}: stable vectors"
        );
    }
}

/// Explore a confederation or hierarchy spec directly.
fn explore(spec: &ScenarioSpec, options: ExploreOptions) -> Reachability {
    match spec.build().expect("generated specs build") {
        Built::Confed {
            topology,
            mode,
            exits,
        } => explore_confed(&topology, mode, exits, options),
        Built::Hierarchy {
            topology,
            mode,
            exits,
        } => explore_hier(&topology, mode, exits, options),
        Built::Reflection { .. } => unreachable!("only confed and hierarchy specs are pinned"),
    }
}

/// Everything about a search that must not depend on the worker count:
/// the evidence and the search's deterministic gauges.
fn assert_same_search(a: &Reachability, b: &Reachability, label: &str) {
    assert_eq!(a.states, b.states, "{label}: states");
    assert_eq!(a.complete, b.complete, "{label}: complete");
    assert_eq!(a.stop, b.stop, "{label}: stop");
    assert_eq!(
        a.stable_vectors, b.stable_vectors,
        "{label}: stable vectors"
    );
    let (m, n) = (&a.metrics, &b.metrics);
    assert_eq!(
        m.states_visited, n.states_visited,
        "{label}: states visited"
    );
    assert_eq!(m.frontier_depth, n.frontier_depth, "{label}: depth");
    assert_eq!(m.peak_queue, n.peak_queue, "{label}: peak queue");
    assert_eq!(m.visited_bytes, n.visited_bytes, "{label}: visited bytes");
    assert_eq!(m.compactions, n.compactions, "{label}: compactions");
    assert_eq!(
        m.digest_collisions, n.digest_collisions,
        "{label}: collisions"
    );
}

#[test]
fn pinned_specimens_are_identical_at_every_worker_count() {
    for p in pins() {
        let spec = generate_spec(p.family, 7, p.index);
        let options = ExploreOptions::new().max_states(p.max_states);
        let base = explore(&spec, options.clone().jobs(1));
        let label = format!("{} #{}", p.family, p.index);
        assert_eq!(base.states, p.states, "{label}: states");
        assert_eq!(
            base.metrics.frontier_depth, p.frontier_depth,
            "{label}: depth"
        );
        assert_eq!(base.metrics.peak_queue, p.peak_queue, "{label}: peak queue");
        assert_eq!(
            base.metrics.visited_bytes, p.visited_bytes,
            "{label}: visited bytes"
        );
        for jobs in [2, 8] {
            let label = format!("{} #{} at jobs {jobs}", p.family, p.index);
            let par = explore(&spec, options.clone().jobs(jobs));
            assert_same_search(&base, &par, &label);
            assert_eq!(par.metrics.workers, jobs as u64, "{label}");
            assert!(par.metrics.handoffs > 0, "{label}: the pool took work");
        }
    }
}

#[test]
fn a_tiny_byte_budget_stops_every_pinned_specimen_identically() {
    const BUDGET: usize = 64;
    for p in pins() {
        let spec = generate_spec(p.family, 7, p.index);
        let options = ExploreOptions::new()
            .max_states(p.max_states)
            .max_bytes(BUDGET);
        let base = explore(&spec, options.clone().jobs(1));
        let label = format!("{} #{}", p.family, p.index);
        assert_eq!(base.stop, StopReason::MemoryBudget(BUDGET), "{label}");
        assert!(!base.complete, "{label}");
        assert_eq!(base.metrics.compactions, 1, "{label}");
        for jobs in [2, 8] {
            let par = explore(&spec, options.clone().jobs(jobs));
            assert_same_search(&base, &par, &format!("{label} at jobs {jobs}"));
        }
    }
}
