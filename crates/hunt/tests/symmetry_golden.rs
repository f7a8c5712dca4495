//! Golden re-classification under symmetry reduction.
//!
//! Every committed `.ibgp` specimen — the paper figures under
//! `corpus/paper/` and the seeded specimens under `corpus/specimens/` —
//! must classify to *exactly* the same verdict with orbit pruning on as
//! off: class, completeness, cap/memory status, and the byte-identical
//! stable-vector list. The paper figures additionally pin their known
//! classes, so a symmetry bug cannot hide behind a matching-but-wrong
//! pair of verdicts.
//!
//! The seed-5 family slice (`common::family_slice`) holds to the same
//! class, stable vectors and completeness.
//!
//! Negative controls ride along: the hash-compaction mode must finish
//! every paper figure with zero observable digest collisions (64-bit
//! digests over searches this size), reporting the identical class.

mod common;

use common::{corpus_specs, family_slice};
use ibgp_analysis::OscillationClass;
use ibgp_hunt::{classify_spec, HuntOptions};

fn opts(symmetry: bool) -> HuntOptions {
    HuntOptions {
        symmetry,
        ..HuntOptions::default()
    }
}

const PAPER_EXPECTED: [(&str, OscillationClass); 7] = [
    ("fig1a", OscillationClass::Persistent),
    ("fig1b", OscillationClass::Stable),
    ("fig2", OscillationClass::Transient),
    ("fig3", OscillationClass::Stable),
    ("fig12", OscillationClass::Stable),
    ("fig13", OscillationClass::Persistent),
    ("fig14", OscillationClass::Stable),
];

#[test]
fn every_committed_specimen_classifies_identically_under_symmetry() {
    for sub in ["paper", "specimens"] {
        for (name, spec) in corpus_specs(sub) {
            let plain = classify_spec(&spec, &opts(false))
                .unwrap_or_else(|e| panic!("{name}: plain classify failed: {e}"));
            let sym = classify_spec(&spec, &opts(true))
                .unwrap_or_else(|e| panic!("{name}: symmetric classify failed: {e}"));
            assert_eq!(sym.class, plain.class, "{name}: class drifted");
            assert_eq!(sym.complete, plain.complete, "{name}: completeness drifted");
            assert_eq!(
                sym.stop.state_cap(),
                plain.stop.state_cap(),
                "{name}: cap status drifted"
            );
            assert_eq!(
                sym.stop.memory_budget(),
                plain.stop.memory_budget(),
                "{name}: memory status drifted"
            );
            assert_eq!(
                sym.stable_vectors, plain.stable_vectors,
                "{name}: stable vectors drifted"
            );
            assert!(sym.states <= plain.states, "{name}: pruning added states");
            if let (Some(ms), Some(mp)) = (&sym.metrics, &plain.metrics) {
                assert_eq!(
                    ms.orbit_states, mp.states_visited,
                    "{name}: representatives must stand for the plain state set"
                );
            }
        }
    }
}

#[test]
fn the_family_slice_classifies_identically_under_symmetry() {
    for (name, spec) in family_slice() {
        let plain = classify_spec(&spec, &opts(false))
            .unwrap_or_else(|e| panic!("{name}: plain classify failed: {e}"));
        let sym = classify_spec(&spec, &opts(true))
            .unwrap_or_else(|e| panic!("{name}: symmetric classify failed: {e}"));
        assert_eq!(sym.class, plain.class, "{name}: class drifted");
        assert_eq!(
            sym.stable_vectors, plain.stable_vectors,
            "{name}: stable vectors drifted"
        );
        assert_eq!(sym.complete, plain.complete, "{name}: completeness drifted");
    }
}

#[test]
fn paper_figures_keep_their_known_classes_under_symmetry() {
    let dir_names: Vec<String> = corpus_specs("paper")
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    let mut expected: Vec<&str> = PAPER_EXPECTED.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    assert_eq!(dir_names, expected, "PAPER_EXPECTED table out of date");
    for (name, spec) in corpus_specs("paper") {
        let want = PAPER_EXPECTED.iter().find(|(n, _)| *n == name).unwrap().1;
        let sym = classify_spec(&spec, &opts(true)).unwrap();
        assert_eq!(sym.class, want, "{name} under symmetry");
        assert!(sym.complete, "{name}: symmetric search must complete");
    }
}

#[test]
fn paper_figures_have_no_digest_collisions_under_compaction() {
    // A budget far below any figure's exact-key footprint forces digest
    // compaction, yet is roomy enough (in 16-byte digest entries) for
    // every figure's full search to finish.
    let bounded = HuntOptions {
        max_bytes: Some(64 * 1024),
        ..HuntOptions::default()
    };
    for (name, spec) in corpus_specs("paper") {
        let plain = classify_spec(&spec, &HuntOptions::default()).unwrap();
        let v = classify_spec(&spec, &bounded).unwrap();
        assert_eq!(v.class, plain.class, "{name}: compaction changed the class");
        assert_eq!(
            v.stop.memory_budget(),
            None,
            "{name}: budget should suffice"
        );
        let m = v
            .metrics
            .unwrap_or_else(|| panic!("{name}: instrumented path expected"));
        assert_eq!(
            m.digest_collisions, 0,
            "{name}: observable digest collision"
        );
    }
}
