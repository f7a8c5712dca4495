//! Pinned loop-prevention evidence.
//!
//! Searches under `--loop-prevention` carry each advertised route's
//! ORIGINATOR_ID/CLUSTER_LIST state in their configurations. These pins
//! hold those searches to their evidence exactly: the class, the number
//! of distinct states, the stop reason, the frontier depth and peak
//! queue, the engine counters (activations, best changes, messages and
//! paths advertised), and the sorted stable best-exit vectors. The
//! level-by-level merge visits states in canonical (frontier index,
//! branch index) order, so a state encoding that is a bijection of the
//! configurations moves none of them.
//!
//! Inputs: `corpus/specimens/lp-flip.ibgp`, the smallest filed verdict
//! flip; the benchmark's campaign-7 `lp` slice (the first 24 reflection
//! specimens with at least seven routers, and multi-reflector #0–#4);
//! and npc-1var capped partway through a level.

use ibgp_analysis::OscillationClass;
use ibgp_hunt::{classify_spec, generate_spec, load_spec, Family, HuntOptions, Verdict};
use std::path::PathBuf;

/// Campaign seed of the pinned slice.
const CAMPAIGN: u64 = 7;

/// The pinned slice, one specimen per line: family, index, class,
/// states, stop token, frontier depth, peak queue, activations, best
/// changes, messages, paths advertised, and the sorted stable vectors
/// (`|` between vectors, `,` between routers, `-` for no route).
const SLICE: &str = "\
reflection       0 stable     7810 complete 17 1222 124944  37652  30936  21858 1,1,3,1,1,1,1,1
reflection       2 stable    14232 complete 17 2086 227696  66536  51946  21660 4,4,4,4,4,4,4,4
reflection       7 stable     1082 complete 12  205  17296   4460   2298   1708 3,3,3,3,3,3,3,1
reflection       8 stable      443 complete 11   94   7072   1668   1026    942 1,1,1,3,3,3,3,3
reflection       9 stable      280 complete 10   47   3906   1066    704    540 3,3,3,3,1,3,3
reflection      12 transient   579 complete  9  159   9232   2496   2996   2092 1,3,3,1,1,1,1,1|3,3,3,3,3,3,3,1
reflection      13 stable      582 complete 11   93   9296   2720   1668   1376 3,3,3,3,3,3,3,1
reflection      16 stable      405 complete 12   68   5656   1150    888    698 1,1,1,3,3,1,1
reflection      17 stable      405 complete 12   68   5656   1426    888    698 1,1,1,1,1,3,1
reflection      19 stable      704 complete 12  108  11248   3112   1434   1142 1,1,1,1,1,3,1,1
reflection      22 stable     9042 complete 17 1389 144656  42904  30748  16820 3,1,3,3,3,3,3,3
reflection      25 stable      704 complete 12  108  11248   3112   1434   1142 3,3,3,3,1,3,3,3
reflection      26 stable      816 complete 13  141  13040   3800   1572   1204 3,3,3,1,3,3,3,3
reflection      29 stable      164 complete  8   39   2282    560    380    344 3,3,1,1,1,1,1
reflection      33 stable      992 complete 14  151  15856   4236   2412   1960 1,1,1,3,3,1,1,1
reflection      36 stable     5684 complete 16  935  90928  27214  21800  14968 3,3,3,3,3,3,3,1
reflection      37 stable      732 complete 11  133  11696   3316   1560   1148 1,1,1,1,3,1,1,1
reflection      39 stable      400 complete 12   62   5586   1576    898    538 4,4,4,4,4,4,4
reflection      41 stable      144 complete  8   39   2002    468    360    324 3,3,1,1,3,3,3
reflection      42 stable      144 complete  8   39   2002    468    360    324 1,1,3,3,3,3,3
reflection      43 stable      732 complete 11  133  11696   3316   1560   1148 1,1,1,1,3,1,1,1
reflection      44 stable      164 complete  8   39   2282    560    380    344 3,3,1,1,3,3,3
reflection      45 transient   554 complete  9  147   8832   2746   2944   2008 1,1,1,1,3,1,1,1|3,1,3,3,3,3,3,3
reflection      46 stable     1208 complete 13  218  19312   5130   2318   1794 3,3,3,3,3,3,1,3
multi-reflector  0 stable     9343 complete 17 1389 130788  37582  61764  49164 1,3,1,3,1,1,4
multi-reflector  1 transient  1438 complete 11  315  17220   3668   5544   2872 1,1,3,1,1,2|3,3,3,3,1,3
multi-reflector  2 stable       99 complete  8   28    980    182    296    238 1,3,1,3,3
multi-reflector  3 transient  4885 complete 14  980  78128  17336  12776   7678 3,3,3,3,3,1,3,3
multi-reflector  4 stable    49323 complete 20 6486 690508 194516 411510 244778 3,3,1,1,3,3,3
";

fn corpus(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus/specimens")
        .join(name)
}

fn options(max_states: usize, jobs: usize) -> HuntOptions {
    HuntOptions::new()
        .max_states(max_states)
        .jobs(jobs)
        .loop_prevention(true)
}

fn class_token(class: OscillationClass) -> &'static str {
    match class {
        OscillationClass::Persistent => "persistent",
        OscillationClass::Transient => "transient",
        OscillationClass::Stable => "stable",
        OscillationClass::Unknown => "unknown",
    }
}

/// A verdict's evidence in the column layout of [`SLICE`], from the
/// class on.
fn evidence(v: &Verdict) -> Vec<String> {
    let m = v.metrics.expect("searches report metrics");
    let mut vectors: Vec<String> = v
        .stable_vectors
        .iter()
        .map(|sv| {
            sv.iter()
                .map(|b| b.map_or_else(|| "-".to_string(), |p| p.raw().to_string()))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    vectors.sort();
    let stable = if vectors.is_empty() {
        "none".to_string()
    } else {
        vectors.join("|")
    };
    let mut row = vec![
        class_token(v.class).to_string(),
        v.states.to_string(),
        v.stop.token(),
    ];
    row.extend(
        [
            m.frontier_depth,
            m.peak_queue,
            m.activations,
            m.best_changes,
            m.messages,
            m.paths_advertised,
        ]
        .map(|n| n.to_string()),
    );
    row.push(stable);
    row
}

fn tokens(pinned: &str) -> Vec<String> {
    pinned.split_whitespace().map(str::to_string).collect()
}

#[test]
fn lp_flip_is_pinned_at_every_worker_count() {
    let spec = load_spec(&corpus("lp-flip.ibgp")).expect("lp-flip loads");
    let want = tokens("transient 90 complete 6 28 880 162 208 168 3,3,3,1,1");
    for jobs in [1, 2, 8] {
        let v = classify_spec(&spec, &options(500_000, jobs)).expect("lp-flip classifies");
        assert_eq!(evidence(&v), want, "lp-flip at jobs {jobs}");
        assert_eq!(v.metrics.map(|m| m.workers), Some(jobs as u64));
    }
    // The paper's Transfer relation reaches one fixed point: the flip.
    let off = classify_spec(&spec, &options(500_000, 1).loop_prevention(false))
        .expect("lp-flip classifies");
    assert_eq!(
        evidence(&off),
        tokens("stable 62 complete 6 16 610 148 214 178 3,3,3,1,1")
    );
}

/// The slice is the benchmark's: the first reflection specimens with at
/// least seven routers, then multi-reflector #0–#4.
#[test]
fn campaign_7_lp_slice_is_pinned() {
    let pins: Vec<(Family, u64, Vec<String>)> = SLICE
        .lines()
        .map(|line| {
            let f = tokens(line);
            let family = Family::parse_list(&f[0]).expect("known family")[0];
            (family, f[1].parse().expect("index"), f[2..].to_vec())
        })
        .collect();
    let reflection: Vec<u64> = (0..)
        .filter(|&i| generate_spec(Family::Reflection, CAMPAIGN, i).routers >= 7)
        .take(24)
        .collect();
    let pinned: Vec<u64> = pins
        .iter()
        .filter(|p| p.0 == Family::Reflection)
        .map(|p| p.1)
        .collect();
    assert_eq!(pinned, reflection, "the slice's reflection specimens");
    for (family, index, want) in pins {
        let spec = generate_spec(family, CAMPAIGN, index);
        let v = classify_spec(&spec, &options(500_000, 1)).expect("generated specs build");
        assert_eq!(evidence(&v), want, "{family} #{index}");
    }
}

/// A capped search stops at the same state with the same evidence at
/// every worker count: the cap fires partway through a level.
#[test]
fn capped_lp_search_is_pinned_at_every_worker_count() {
    let spec = load_spec(&corpus("npc-1var.ibgp")).expect("npc-1var loads");
    let want = tokens("unknown 5001 cap:5000 5 1632 44200 16132 36726 25900 1,1,1,1,2,1,1,3,4,5");
    for jobs in [1, 2, 8] {
        let v = classify_spec(&spec, &options(5_000, jobs)).expect("npc-1var classifies");
        assert_eq!(evidence(&v), want, "npc-1var capped at jobs {jobs}");
    }
}
