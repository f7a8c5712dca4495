//! Integration: the §5 reduction's defining equivalence
//! `J satisfiable ⟺ SR_J can stabilize`, checked against DPLL over a
//! corpus of formulas including hand-built unsatisfiable ones.

use ibgp::npc::{check_equivalence, reduce, solve, Clause, Formula, Lit};
use ibgp::proto::variants::ProtocolConfig;
use ibgp::sim::{Engine, RandomFair, SyncEngine};

#[test]
fn random_corpus_agrees_with_dpll() {
    for seed in 0..12 {
        let formula = Formula::random(seed, 3, 5);
        let report = check_equivalence(&formula, 300_000);
        assert!(report.ok(), "seed {seed} ({formula}): {report:?}");
    }
}

#[test]
fn bigger_satisfiable_formulas_stabilize() {
    for seed in 100..106 {
        let formula = Formula::random(seed, 5, 8);
        if solve(&formula).is_some() {
            let report = check_equivalence(&formula, 500_000);
            assert!(report.ok(), "seed {seed} ({formula}): {report:?}");
        }
    }
}

#[test]
fn pigeonhole_style_unsat_has_no_stable_configuration() {
    // (x0∨x1)(x0∨¬x1)(¬x0∨x1)(¬x0∨¬x1)
    let formula = Formula::new(
        2,
        vec![
            Clause(vec![Lit::pos(0), Lit::pos(1)]),
            Clause(vec![Lit::pos(0), Lit::neg(1)]),
            Clause(vec![Lit::neg(0), Lit::pos(1)]),
            Clause(vec![Lit::neg(0), Lit::neg(1)]),
        ],
    )
    .unwrap();
    assert!(solve(&formula).is_none());
    let report = check_equivalence(&formula, 300_000);
    assert!(report.ok(), "{report:?}");
    assert_eq!(report.schedules_tried, 4);
}

#[test]
fn unsat_reduction_cycles_under_unbiased_fair_schedules_too() {
    // Not just the orientation-driving schedules: random fair activation
    // over the whole unsat instance must never stabilize.
    let formula = Formula::new(
        1,
        vec![Clause(vec![Lit::pos(0)]), Clause(vec![Lit::neg(0)])],
    )
    .unwrap();
    let sr = reduce(&formula);
    for seed in 0..5 {
        let mut engine = SyncEngine::new(&sr.topology, ProtocolConfig::STANDARD, sr.exits.clone());
        let outcome = engine.run(&mut RandomFair::new(seed), 30_000);
        assert!(
            !outcome.converged(),
            "seed {seed}: unsat instance stabilized: {outcome}"
        );
    }
}

#[test]
fn reduction_size_is_linear_in_formula_size() {
    for (seed, v, c) in [
        (1, 3usize, 3usize),
        (1, 6, 12),
        (1, 10, 30),
        (42, 3, 4),
        (42, 6, 10),
        (42, 12, 24),
        (42, 24, 48),
    ] {
        let formula = Formula::random(seed, v, c);
        let sr = reduce(&formula);
        assert_eq!(sr.node_count(), 1 + 4 * v + 5 * c);
        assert_eq!(sr.exits.len(), 2 * v + 3 * c);
        assert!(sr.topology.physical().is_connected());
    }
}
