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
//! engines: bit-identical results at every worker count, and a byte
//! budget that stops the search at the same point whatever the count.

use ibgp_analysis::{ExploreOptions, OscillationClass, Reachability};
use ibgp_confed::{explore_confed, scenarios::confed_fig1a, ConfedMode};
use ibgp_hierarchy::{explore_hier, scenarios::deep_fig1a, HierMode};
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
/// index, state cap, class, states, stop token, and the sorted stable
/// vectors (`|` between vectors, `,` between routers, `-` for no route,
/// `none` for no stable vector).
const PINS: &str = "\
confed     0 200000 stable      19 complete 3,3,1
confed     1 200000 stable      19 complete 1,1,3
confed     2 200000 stable      29 complete 1,1,1,3
confed     3 200000 stable      49 complete 1,3,1,3
confed     4 200000 stable      46 complete 1,3,3,3,3
confed     5 200000 stable       7 complete 3,1
confed     6 200000 stable      41 complete 1,1,1,3
confed     7 200000 stable       8 complete 1,3
confed     8 200000 stable     603 complete 3,1,1,1,3
confed     9 200000 stable     113 complete 1,1,1,1,3
confed    10 200000 stable      19 complete 1,3,1
confed    11 200000 stable      41 complete 1,1,1,3
confed    12 200000 stable     176 complete 1,1,3,1
confed    13 200000 stable      12 complete 3,3,1
confed    14 200000 stable      17 complete 3,3,1
confed    15 200000 stable       7 complete 3,1
confed    16 200000 stable     172 complete 1,1,1,3,3
confed    17 200000 stable      39 complete 1,1,3,1
confed    18 200000 stable      29 complete 3,1,1,1
confed    19 200000 stable      14 complete 3,1,3
confed    20 200000 persistent 154 complete none
confed    21 200000 stable      19 complete 3,1,1
confed    22 200000 stable       7 complete 1,1
confed    23 200000 stable       7 complete 3,1
confed    24 200000 stable      28 complete 1,3,1,1
hierarchy  1 200000 transient  160 complete 1,1,3,1,1,1|3,3,3,3,3,1
hierarchy  3 200000 stable     190 complete 3,3,3,3,3,1,3
hierarchy  4 200000 stable      76 complete 1,1,3,1,1
hierarchy  5 200000 stable      92 complete 1,1,1,3,1,1
hierarchy  7 200000 stable      92 complete 1,1,1,1,3,1
hierarchy  8 200000 stable      76 complete 3,3,3,3,1
hierarchy 13 200000 stable      43 complete 3,3,3,3,1
hierarchy 15 200000 stable      98 complete 3,3,3,3,3,1
hierarchy 16 200000 transient  930 complete 1,1,1,2,1,1,3|3,1,1,2,3,3,3
hierarchy 17 200000 stable      76 complete 3,3,3,1,1
hierarchy 36 200000 transient  111 complete 1,1,1,1,3,3,3|3,3,3,1,3,3,3
hierarchy  2    500 unknown    501 cap:500  3,3,3,3,3,1,3
confed     8    100 unknown    101 cap:100  none
";

/// One parsed line of [`PINS`].
struct Pin {
    family: Family,
    index: u64,
    max_states: usize,
    class: OscillationClass,
    states: usize,
    stop: StopReason,
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
            let stable = match f[6] {
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
        assert_eq!(base.states, p.states, "{} #{}", p.family, p.index);
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
