//! Golden re-classification under partial-order reduction.
//!
//! Every committed `.ibgp` specimen — paper figures and seeded
//! specimens — must classify to an equivalent verdict with `--por` on as
//! off, at `--jobs` 1 and 8, with `--symmetry` off and on:
//!
//! * when the unpruned search completes, the pruned one must report the
//!   identical class and byte-identical stable-vector list, complete,
//!   and never visit more states;
//! * when the unpruned search caps out (the `npc-1var` §5 gadget), the
//!   pruned search may legitimately *resolve* it — pruning only removes
//!   redundant interleavings, so it can complete strictly more searches
//!   under the same cap — but an incomplete pruned search must still be
//!   Unknown.
//!
//! POR's ample-set choice is a pure function of each state, so pruned
//! verdicts must additionally be bit-identical across worker counts.
//!
//! The seed-5 family slice (`common::family_slice`) holds to the same
//! class and stable vectors whenever its plain search completes, and
//! POR never loses completeness there.

mod common;

use common::{corpus_specs, family_slice};
use ibgp_analysis::OscillationClass;
use ibgp_hunt::{classify_spec, HuntOptions, Verdict};

fn opts(por: bool, symmetry: bool, jobs: usize) -> HuntOptions {
    HuntOptions {
        por,
        symmetry,
        jobs,
        ..HuntOptions::default()
    }
}

/// The exactness contract between an unpruned and a pruned verdict.
fn assert_equivalent(name: &str, tag: &str, off: &Verdict, on: &Verdict) {
    if off.complete {
        assert_eq!(on.class, off.class, "{name} [{tag}]: class drifted");
        assert_eq!(
            on.stable_vectors, off.stable_vectors,
            "{name} [{tag}]: stable vectors drifted"
        );
        assert!(on.complete, "{name} [{tag}]: POR lost completeness");
        assert_eq!(on.stop.state_cap(), None, "{name} [{tag}]");
        assert_eq!(on.stop.memory_budget(), None, "{name} [{tag}]");
        assert!(
            on.states <= off.states,
            "{name} [{tag}]: pruning added states ({} > {})",
            on.states,
            off.states
        );
    } else if !on.complete {
        assert_eq!(
            on.class,
            OscillationClass::Unknown,
            "{name} [{tag}]: an incomplete pruned search cannot classify"
        );
    }
    // (off capped, on complete: pruning resolved the instance — legal.)
}

/// The fields that must be bit-identical across worker counts: everything
/// except wall-clock-flavored metrics.
fn determinism_key(v: &Verdict) -> impl PartialEq + std::fmt::Debug {
    (
        v.class,
        v.states,
        v.complete,
        v.stop.state_cap(),
        v.stop.memory_budget(),
        v.stable_vectors.clone(),
        v.metrics.as_ref().map(|m| (m.por_ample, m.por_full)),
    )
}

#[test]
fn every_committed_specimen_is_por_equivalent() {
    for sub in ["paper", "specimens"] {
        for (name, spec) in corpus_specs(sub) {
            for symmetry in [false, true] {
                let on1 = classify_spec(&spec, &opts(true, symmetry, 1))
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let on8 = classify_spec(&spec, &opts(true, symmetry, 8))
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    determinism_key(&on1),
                    determinism_key(&on8),
                    "{name} (symmetry={symmetry}): POR verdict depends on --jobs"
                );
                // The unpruned baseline; `npc-1var` is the one expensive
                // capped search, so run it at one worker count only (the
                // unpruned path's jobs-independence is pinned by the
                // analysis crate's parallel equivalence suite).
                let off_jobs: &[usize] = if name == "npc-1var" { &[8] } else { &[1, 8] };
                for &jobs in off_jobs {
                    let off = classify_spec(&spec, &opts(false, symmetry, jobs))
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    let tag = format!("symmetry={symmetry} jobs={jobs}");
                    assert_equivalent(&name, &tag, &off, &on8);
                }
            }
        }
    }
}

#[test]
fn the_family_slice_is_por_equivalent() {
    for (name, spec) in family_slice() {
        let off =
            classify_spec(&spec, &opts(false, false, 0)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let on =
            classify_spec(&spec, &opts(true, false, 0)).unwrap_or_else(|e| panic!("{name}: {e}"));
        if off.complete {
            assert_eq!(on.class, off.class, "{name}: class drifted");
            assert_eq!(
                on.stable_vectors, off.stable_vectors,
                "{name}: stable vectors drifted"
            );
            assert!(on.complete, "{name}: POR lost completeness");
        }
    }
}

#[test]
fn npc_1var_completes_only_under_por() {
    let (_, spec) = corpus_specs("specimens")
        .into_iter()
        .find(|(n, _)| n == "npc-1var")
        .expect("npc-1var specimen is committed");

    // Without the reduction the default 200k cap is not enough.
    let off = classify_spec(&spec, &opts(false, false, 8)).unwrap();
    assert!(off.is_inconclusive(), "got {:?}", off.class);
    assert_eq!(off.stop.state_cap(), Some(200_000));

    // With it, the search finishes with room to spare and a verdict.
    let on = classify_spec(&spec, &opts(true, false, 8)).unwrap();
    assert!(
        on.complete,
        "POR must crack the gadget under the default cap"
    );
    assert_eq!(on.class, OscillationClass::Transient);
    assert!(
        on.states < 50_000,
        "expected an order-of-magnitude reduction, got {} states",
        on.states
    );
    let m = on.metrics.expect("instrumented path");
    assert!(m.por_ample > 0, "ample branches must actually fire");
}
