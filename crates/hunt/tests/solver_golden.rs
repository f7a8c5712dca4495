//! Golden re-classification through the constraint-solver backend.
//!
//! Every committed `.ibgp` specimen — paper figures and seeded
//! specimens — is reflection + standard protocol, so `--solver sat`
//! applies to all of them. The contract against the search baseline
//! (run with `--por`, which completes every committed specimen):
//!
//! * the solver verdict is complete, visits zero reachable states, and
//!   carries the exact global stable-routing count;
//! * the class agrees with the completed search's class, and the global
//!   fixed-point set equals the reachable stable-vector set — on every
//!   committed specimen **except `fig3`**, the one place where the two
//!   taxonomies genuinely part ways: Fig 3's MED-0 solution is a fixed
//!   point only E-BGP injection *timing* can reach, invisible to the §4
//!   all-routes-upfront search, so the search reports a unique reachable
//!   fixed point (stable) while the solver reports both global ones
//!   (transient — which is the paper's own description of the figure);
//! * `npc-1var` is the headline: the plain search caps out at 200 000
//!   states and brute-force enumeration would need 6^10 ≈ 60.5 million
//!   candidates, but the solver proves "exactly one stable routing,
//!   transient oscillation" without visiting a single state.
//!
//! The seed-5 family slice (`common::family_slice`) mixes kinds. The
//! solver takes its reflection specs under the standard protocol, and
//! every stable vector of a complete plain search is among the solver's
//! global fixed points; it declines the rest, whose verdict is the
//! search's own (`origin=search`).

mod common;

use common::{corpus_specs, family_slice};
use ibgp_analysis::OscillationClass;
use ibgp_hunt::{classify_spec, HuntOptions, SpecKind};
use ibgp_proto::ProtocolVariant;
use ibgp_types::{SolverMode, VerdictOrigin};

fn opts(solver: SolverMode, por: bool) -> HuntOptions {
    HuntOptions {
        solver,
        por,
        ..HuntOptions::default()
    }
}

#[test]
fn every_committed_specimen_agrees_with_the_search_baseline() {
    for sub in ["paper", "specimens"] {
        for (name, spec) in corpus_specs(sub) {
            let sat = classify_spec(&spec, &opts(SolverMode::Sat, false))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(sat.origin, VerdictOrigin::Solver, "{name}: wrong backend");
            assert!(sat.complete, "{name}: solver failed to enumerate");
            assert_eq!(sat.states, 0, "{name}: the solver explored states");
            assert_eq!(
                sat.stable_count,
                Some(sat.stable_vectors.len()),
                "{name}: a complete enumeration must certify its count"
            );
            assert!(sat.metrics.is_none(), "{name}: no search to instrument");

            // The search baseline, with POR so `npc-1var` completes too.
            let search = classify_spec(&spec, &opts(SolverMode::Search, true))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(search.origin, VerdictOrigin::Search, "{name}");
            assert!(search.complete, "{name}: baseline search capped out");
            assert_eq!(search.stable_count, None, "{name}: search never certifies");
            if name == "fig3" {
                // The documented asymmetry: the MED-0 fixed point exists
                // but is unreachable without E-BGP injection timing.
                assert_eq!(search.class, OscillationClass::Stable, "{name}");
                assert_eq!(sat.class, OscillationClass::Transient, "{name}");
                assert_eq!(search.stable_vectors.len(), 1, "{name}");
                assert_eq!(sat.stable_vectors.len(), 2, "{name}");
                assert!(
                    search
                        .stable_vectors
                        .iter()
                        .all(|v| sat.stable_vectors.contains(v)),
                    "{name}: the reachable fixed point must be among the global ones"
                );
            } else {
                assert_eq!(
                    sat.class, search.class,
                    "{name}: class drifted across backends"
                );
                assert_eq!(
                    sat.stable_vectors, search.stable_vectors,
                    "{name}: every stable routing here is reachable"
                );
            }
        }
    }
}

#[test]
fn the_family_slice_keeps_the_solver_contract() {
    for (name, spec) in family_slice() {
        let search = classify_spec(&spec, &opts(SolverMode::Search, false))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let sat = classify_spec(&spec, &opts(SolverMode::Sat, false))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let encodable = matches!(
            &spec.kind,
            SpecKind::Reflection(r) if r.variant == ProtocolVariant::Standard
        );
        if encodable {
            assert_eq!(sat.origin, VerdictOrigin::Solver, "{name}: wrong backend");
            if search.complete {
                assert!(
                    search
                        .stable_vectors
                        .iter()
                        .all(|v| sat.stable_vectors.contains(v)),
                    "{name}: the search found a stable vector the solver missed"
                );
            }
        } else {
            assert_eq!(sat.origin, VerdictOrigin::Search, "{name}: origin=search");
            assert_eq!(
                (sat.class, sat.states, &sat.stable_vectors),
                (search.class, search.states, &search.stable_vectors),
                "{name}: a declined spec must get the search verdict"
            );
        }
    }
}

#[test]
fn npc_1var_is_exactly_counted_without_search() {
    let (_, spec) = corpus_specs("specimens")
        .into_iter()
        .find(|(n, _)| n == "npc-1var")
        .expect("npc-1var specimen is committed");

    // The plain search drowns in interleavings under the default cap...
    let search = classify_spec(&spec, &opts(SolverMode::Search, false)).unwrap();
    assert!(search.is_inconclusive(), "got {:?}", search.class);
    assert_eq!(search.stop.state_cap(), Some(200_000));

    // ...while the solver proves the exact global count: one stable
    // routing (the satisfying assignment of J = (x0)), plus a live
    // cycle around it, hence transient.
    let sat = classify_spec(&spec, &opts(SolverMode::Sat, false)).unwrap();
    assert!(sat.complete);
    assert_eq!(sat.class, OscillationClass::Transient);
    assert_eq!(sat.stable_count, Some(1));
    assert_eq!(sat.states, 0);
    assert_eq!(sat.origin, VerdictOrigin::Solver);

    // The verdict says so in its own words.
    let rendered = sat.render(&spec.name);
    assert!(
        rendered.contains("1 stable routing(s) in total, reachable or not"),
        "unexpected rendering:\n{rendered}"
    );
}
