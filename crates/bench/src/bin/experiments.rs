//! Regenerate every table and figure claim of the paper.
//!
//! Prints a Markdown verdict table (the source of EXPERIMENTS.md) and
//! writes `experiments_output.json` to the working directory; exits 1 if
//! any row diverges.
//!
//! Run with `cargo run --release -p ibgp-bench --bin experiments`.

use ibgp::npc::{check_equivalence, Formula};
use ibgp::proto::variants::ProtocolConfig;
use ibgp::scenarios::random::{random_scenario, RandomConfig};
use ibgp::scenarios::{fig13, fig14, fig1a, fig1b, fig2, fig3};
use ibgp::sim::{Engine, RoundRobin, SeededJitter, SyncEngine};
use ibgp::theorems::verify_paper_theorems;
use ibgp::{
    render_table, ExperimentRow, ExploreOptions, MedMode, Network, OscillationClass,
    ProtocolVariant, RuleOrder, Scenario, SelectionPolicy,
};

const MAX_STATES: usize = 500_000;
const MAX_STEPS: u64 = 100_000;

/// Protocol variants swept by the overhead row.
const VARIANTS: [ProtocolVariant; 3] = [
    ProtocolVariant::Standard,
    ProtocolVariant::Walton,
    ProtocolVariant::Modified,
];

/// The random-configuration sizes of the scaling rows
/// (clusters, clients-per-cluster, exits).
const SCALE_POINTS: [(usize, usize, usize); 4] = [(2, 1, 2), (3, 2, 4), (5, 3, 8), (8, 4, 16)];

/// A random scenario at one scale point.
fn scaled_scenario(point: (usize, usize, usize), seed: u64) -> Scenario {
    let (clusters, clients, exits) = point;
    random_scenario(
        RandomConfig {
            clusters,
            clients_per_cluster: clients,
            exits,
            neighbor_ases: 3,
            max_med: 10,
            max_cost: 10,
            extra_links: clusters,
        },
        seed,
    )
}

/// Human label for a scale point.
fn scale_label(point: (usize, usize, usize)) -> String {
    let n = point.0 * (1 + point.1);
    format!("{}r/{}x", n, point.2)
}

fn classify_of(net: &Network) -> OscillationClass {
    net.classify(ExploreOptions::new().max_states(MAX_STATES)).0
}

fn e1_fig1a() -> Vec<ExperimentRow> {
    let s = fig1a::scenario();
    let std = classify_of(&Network::from_scenario(&s, ProtocolVariant::Standard));
    let wal = classify_of(&Network::from_scenario(&s, ProtocolVariant::Walton));
    let modi = classify_of(&Network::from_scenario(&s, ProtocolVariant::Modified));
    let cycle = {
        let n = Network::from_scenario(&s, ProtocolVariant::Standard);
        n.converge(MAX_STEPS).outcome
    };
    vec![
        ExperimentRow::new(
            "E1",
            "Fig 1(a)",
            "standard I-BGP+RR oscillates persistently (no stable solution)",
            format!("exhaustive search: {std}; round-robin run: {cycle}"),
            std == OscillationClass::Persistent && cycle.cycled(),
        ),
        ExperimentRow::new(
            "E1",
            "Fig 1(a)",
            "Walton et al. converges on this example",
            format!("exhaustive search: {wal}"),
            wal == OscillationClass::Stable,
        ),
        ExperimentRow::new(
            "E1",
            "Fig 1(a)",
            "modified protocol converges",
            format!("exhaustive search: {modi}"),
            modi == OscillationClass::Stable,
        ),
    ]
}

fn e2_fig1b() -> Vec<ExperimentRow> {
    let s = fig1b::scenario();
    let paper_order = Network::from_scenario(&s, ProtocolVariant::Standard);
    let rfc_order = paper_order.with_config(ProtocolConfig {
        variant: ProtocolVariant::Standard,
        policy: SelectionPolicy::RFC1771,
    });
    let med_blind = paper_order.with_config(ProtocolConfig {
        variant: ProtocolVariant::Standard,
        policy: SelectionPolicy {
            med_mode: MedMode::Ignore,
            rule_order: RuleOrder::MinCostFirst,
        },
    });
    let a = classify_of(&paper_order);
    let b = classify_of(&rfc_order);
    let c = classify_of(&med_blind);
    vec![
        ExperimentRow::new(
            "E2",
            "Fig 1(b)",
            "converges under the paper's rule ordering (E-BGP preferred before IGP metric)",
            format!("{a}"),
            a == OscillationClass::Stable,
        ),
        ExperimentRow::new(
            "E2",
            "Fig 1(b)",
            "diverges under the RFC 1771/[11] ordering, even fully meshed",
            format!("{b}"),
            b == OscillationClass::Persistent,
        ),
        ExperimentRow::new(
            "E2",
            "Fig 1(b)",
            "the divergence is MED-induced (gone when MEDs are ignored)",
            format!("{c}"),
            c == OscillationClass::Stable,
        ),
    ]
}

fn e3_fig2() -> Vec<ExperimentRow> {
    let s = fig2::scenario();
    let std_net = Network::from_scenario(&s, ProtocolVariant::Standard);
    let (std_class, reach) = std_net.classify(ExploreOptions::new().max_states(MAX_STATES));
    let stable_count = reach.stable_vectors.len();
    let wal_class = classify_of(&Network::from_scenario(&s, ProtocolVariant::Walton));
    let modi = Network::from_scenario(&s, ProtocolVariant::Modified);
    let det = modi.determinism(12, MAX_STEPS);
    vec![
        ExperimentRow::new(
            "E3",
            "Fig 2",
            "two stable routing configurations exist; oscillation or either outcome, by ordering",
            format!("{stable_count} reachable stable solutions; classification: {std_class}"),
            stable_count == 2 && std_class == OscillationClass::Transient,
        ),
        ExperimentRow::new(
            "E3",
            "Fig 2",
            "Walton et al. behaves exactly like classical I-BGP here (single neighbor AS)",
            format!("{wal_class}"),
            wal_class == OscillationClass::Transient,
        ),
        ExperimentRow::new(
            "E3",
            "Fig 2",
            "modified protocol always converges to the same configuration",
            format!(
                "{} schedules, {} distinct outcomes",
                det.converged_runs + det.unconverged_runs,
                det.distinct_outcomes.len()
            ),
            det.deterministic(),
        ),
    ]
}

fn e4_fig3() -> Vec<ExperimentRow> {
    use ibgp::scenarios::fig3::{routes, run_table1, symmetric_delay};
    let (outcome_std, flips) = run_table1(ProtocolConfig::STANDARD, symmetric_delay(), 2, 5_000);
    let (outcome_mod, _) = run_table1(ProtocolConfig::MODIFIED, symmetric_delay(), 2, 50_000);
    // Outcome dependence on injection timing.
    let s = fig3::scenario();
    let all_at_once = Network::from_scenario(&s, ProtocolVariant::Standard).converge(MAX_STEPS);
    let med1 = vec![Some(routes::R1), Some(routes::R3), Some(routes::R5)];
    vec![
        ExperimentRow::new(
            "E4",
            "Fig 3 + Table 1",
            "a delayed E-BGP injection plus symmetric update timing yields sustained route oscillation",
            format!("standard: {outcome_std} ({flips} flips)"),
            !outcome_std.quiescent() && flips > 200,
        ),
        ExperimentRow::new(
            "E4",
            "Fig 3 + Table 1",
            "the oscillation is transient: it needs the timing coincidence (injection order decides the fixed point)",
            format!(
                "all-routes-at-start converges to the MED-1 solution: {}",
                all_at_once.best_exits == med1
            ),
            all_at_once.best_exits == med1,
        ),
        ExperimentRow::new(
            "E4",
            "Fig 3 + Table 1",
            "the modified protocol is immune to the Table 1 schedule",
            format!("modified: {outcome_mod}"),
            outcome_mod.quiescent(),
        ),
    ]
}

fn e5_npc() -> Vec<ExperimentRow> {
    let mut all_ok = true;
    let mut sat_count = 0;
    let mut unsat_count = 0;
    // Hand-picked + random corpus.
    let mut formulas = vec![Formula::new(
        1,
        vec![
            ibgp::npc::Clause(vec![ibgp::npc::Lit::pos(0)]),
            ibgp::npc::Clause(vec![ibgp::npc::Lit::neg(0)]),
        ],
    )
    .unwrap()];
    for seed in 0..8 {
        formulas.push(Formula::random(seed, 3, 4));
    }
    for f in &formulas {
        let report = check_equivalence(f, 200_000);
        if report.satisfiable {
            sat_count += 1;
        } else {
            unsat_count += 1;
        }
        all_ok &= report.ok();
    }
    vec![ExperimentRow::new(
        "E5",
        "§5 / Figs 7-9",
        "J satisfiable ⟺ SR_J has a stable solution (reduction from 3-SAT)",
        format!(
            "{} formulas ({sat_count} sat, {unsat_count} unsat): routing verdicts all agree with DPLL",
            formulas.len()
        ),
        all_ok,
    )]
}

fn e6_fig13() -> Vec<ExperimentRow> {
    let s = fig13::scenario();
    let wal = classify_of(&Network::from_scenario(&s, ProtocolVariant::Walton));
    let std = classify_of(&Network::from_scenario(&s, ProtocolVariant::Standard));
    let modi = classify_of(&Network::from_scenario(&s, ProtocolVariant::Modified));
    vec![
        ExperimentRow::new(
            "E6",
            "Fig 13 (reconstruction)",
            "a persistent oscillation survives the Walton et al. fix",
            format!("walton: {wal}; standard: {std}"),
            wal == OscillationClass::Persistent,
        ),
        ExperimentRow::new(
            "E6",
            "Fig 13 (reconstruction)",
            "the modified protocol eliminates it",
            format!("modified: {modi}"),
            modi == OscillationClass::Stable,
        ),
    ]
}

fn e7_fig14() -> Vec<ExperimentRow> {
    let s = fig14::scenario();
    let std_loops = Network::from_scenario(&s, ProtocolVariant::Standard)
        .forwarding_loops_after_convergence(MAX_STEPS);
    let wal_loops = Network::from_scenario(&s, ProtocolVariant::Walton)
        .forwarding_loops_after_convergence(MAX_STEPS);
    let mod_loops = Network::from_scenario(&s, ProtocolVariant::Modified)
        .forwarding_loops_after_convergence(MAX_STEPS);
    vec![
        ExperimentRow::new(
            "E7",
            "Fig 14",
            "standard I-BGP reflection creates a client-client forwarding loop",
            format!("{} looping sources", std_loops.len()),
            !std_loops.is_empty(),
        ),
        ExperimentRow::new(
            "E7",
            "Fig 14",
            "Walton et al. does not repair the loop",
            format!("{} looping sources", wal_loops.len()),
            !wal_loops.is_empty(),
        ),
        ExperimentRow::new(
            "E7",
            "Fig 14",
            "the modified protocol removes the loop",
            format!("{} looping sources", mod_loops.len()),
            mod_loops.is_empty(),
        ),
    ]
}

fn e8_e9_e12_theorems() -> Vec<ExperimentRow> {
    let mut all = true;
    let mut tested = 0;
    for seed in 0..10 {
        let s = random_scenario(RandomConfig::default(), seed);
        let n = Network::from_scenario(&s, ProtocolVariant::Modified);
        let report = verify_paper_theorems(&n, 5, MAX_STEPS);
        all &= report.all_hold();
        tested += 1;
    }
    for s in ibgp::scenarios::all_scenarios() {
        let n = Network::from_scenario(&s, ProtocolVariant::Modified);
        let report = verify_paper_theorems(&n, 5, MAX_STEPS);
        all &= report.all_hold();
        tested += 1;
    }
    vec![ExperimentRow::new(
        "E8/E9/E12",
        "§7 theorems",
        "modified protocol: converges, unique fixed point S′ for every fair sequence, loop-free forwarding, withdrawn paths flush",
        format!("{tested} configurations (7 paper + 10 random) × 6 schedules: all four checks hold"),
        all,
    )]
}

fn e10_overhead() -> Vec<ExperimentRow> {
    let mut lines = Vec::new();
    let mut monotone_ok = true;
    for &point in &SCALE_POINTS {
        let s = scaled_scenario(point, 7);
        let mut per_variant = Vec::new();
        for v in VARIANTS {
            let n = Network::from_scenario(&s, v);
            let r = n.converge(MAX_STEPS);
            per_variant.push((v, r.metrics.paths_per_message()));
        }
        // standard ≤ walton ≤ modified in paths per message (the paper's
        // stated scalability cost of extra advertisement).
        let std = per_variant[0].1;
        let modi = per_variant[2].1;
        monotone_ok &= std <= modi + 1e-9;
        lines.push(format!(
            "{}: std {:.2}, walton {:.2}, modified {:.2}",
            scale_label(point),
            per_variant[0].1,
            per_variant[1].1,
            per_variant[2].1
        ));
    }
    vec![ExperimentRow::new(
        "E10",
        "§1/§10 discussion",
        "the modified protocol advertises more paths per update than standard I-BGP (its scalability cost)",
        lines.join("; "),
        monotone_ok,
    )]
}

fn e11_convergence_scale() -> Vec<ExperimentRow> {
    let mut lines = Vec::new();
    let mut all_converge = true;
    for &point in &SCALE_POINTS {
        let mut steps = Vec::new();
        for seed in 0..5 {
            let s = scaled_scenario(point, seed);
            let n = Network::from_scenario(&s, ProtocolVariant::Modified);
            let mut engine = SyncEngine::new(n.topology(), n.config(), n.exits().to_vec());
            let outcome = engine.run(&mut RoundRobin::new(), MAX_STEPS);
            match outcome {
                ibgp::SyncOutcome::Converged { steps: s } => steps.push(s),
                other => {
                    all_converge = false;
                    steps.push(u64::MAX);
                    eprintln!("unexpected: {other}");
                }
            }
        }
        let avg = steps.iter().sum::<u64>() as f64 / steps.len() as f64;
        lines.push(format!("{}: avg {avg:.0} steps", scale_label(point)));
    }
    vec![ExperimentRow::new(
        "E11",
        "§7 discussion",
        "modified-protocol convergence cost grows with network size but always terminates",
        lines.join("; "),
        all_converge,
    )]
}

fn transient_async_check() -> Vec<ExperimentRow> {
    // Fig 2 under the async engine: jittered timing decides the outcome.
    let s = fig2::scenario();
    let mut outcomes = std::collections::BTreeSet::new();
    for seed in 0..10u64 {
        let n = Network::from_scenario(&s, ProtocolVariant::Standard);
        let mut sim = n.async_sim(Box::new(SeededJitter::new(seed, 1, 9)));
        sim.set_mrai(16);
        sim.set_mrai_jitter(seed);
        sim.start();
        let out = sim.run(100_000);
        if out.quiescent() {
            outcomes.insert(sim.best_vector());
        }
    }
    vec![ExperimentRow::new(
        "E3b",
        "Fig 2 (async)",
        "message timing selects among the stable solutions",
        format!(
            "{} distinct quiescent outcomes across 10 delay seeds",
            outcomes.len()
        ),
        outcomes.len() >= 2,
    )]
}

fn e13_confederations() -> Vec<ExperimentRow> {
    use ibgp::confed::scenarios::confed_fig1a;
    use ibgp::confed::{explore_confed, ConfedMode};
    let (topo, exits) = confed_fig1a();
    let single = explore_confed(&topo, ConfedMode::SingleBest, exits.clone(), 300_000);
    let set = explore_confed(&topo, ConfedMode::SetAdvertisement, exits, 300_000);
    vec![
        ExperimentRow::new(
            "E13",
            "Confederations (extension)",
            "the Fig 1(a) MED oscillation also occurs in confederation configurations (field notice / abstract)",
            format!(
                "single-best: {} states, {} stable -> persistent={}",
                single.states,
                single.stable_vectors.len(),
                single.persistent_oscillation()
            ),
            single.persistent_oscillation(),
        ),
        ExperimentRow::new(
            "E13",
            "Confederations (extension)",
            "open question settled empirically: the paper's Choose_set advertisement also stabilizes this confederation instance",
            format!(
                "set-advertisement: {} stable solution(s), complete={}",
                set.stable_vectors.len(),
                set.complete
            ),
            set.complete && set.stable_vectors.len() == 1,
        ),
    ]
}

fn e14_hierarchy() -> Vec<ExperimentRow> {
    use ibgp::hierarchy::scenarios::deep_fig1a;
    use ibgp::hierarchy::{explore_hier, HierMode};
    let (topo, exits) = deep_fig1a();
    let single = explore_hier(&topo, HierMode::SingleBest, exits.clone(), 500_000);
    let set = explore_hier(&topo, HierMode::SetAdvertisement, exits, 500_000);
    vec![
        ExperimentRow::new(
            "E14",
            "Deep hierarchy (extension)",
            "the Fig 1(a) oscillation persists when the oscillating client hangs two reflection levels down (§2's 'arbitrarily deep hierarchy')",
            format!(
                "single-best: {} states, persistent={}",
                single.states,
                single.persistent_oscillation()
            ),
            single.persistent_oscillation(),
        ),
        ExperimentRow::new(
            "E14",
            "Deep hierarchy (extension)",
            "Choose_set advertisement stabilizes it at depth three as well",
            format!(
                "set-advertisement: {} stable solution(s), complete={}",
                set.stable_vectors.len(),
                set.complete
            ),
            set.complete && set.stable_vectors.len() == 1,
        ),
    ]
}

fn e15_adaptive() -> Vec<ExperimentRow> {
    use ibgp::sim::{AdaptivePolicy, FixedDelay};
    let policy = AdaptivePolicy {
        threshold: 8,
        window: 200,
    };
    // Fig 1(a): standard flaps forever; with the trigger it self-heals.
    let s = fig1a::scenario();
    let n = Network::from_scenario(&s, ProtocolVariant::Standard);
    let mut plain = n.async_sim(Box::new(FixedDelay(3)));
    plain.start();
    let plain_out = plain.run(20_000);
    let mut healed = n.async_sim(Box::new(FixedDelay(3)));
    healed.set_adaptive(policy);
    healed.start();
    let healed_out = healed.run(200_000);
    let upgraded = healed.upgraded_routers().len();
    // Fig 14 is quiet: nobody may upgrade.
    let quiet = Network::from_scenario(&fig14::scenario(), ProtocolVariant::Standard);
    let mut quiet_sim = quiet.async_sim(Box::new(FixedDelay(3)));
    quiet_sim.set_adaptive(policy);
    quiet_sim.start();
    let quiet_out = quiet_sim.run(100_000);
    let quiet_upgrades = quiet_sim.upgraded_routers().len();
    vec![
        ExperimentRow::new(
            "E15",
            "§10 trigger (extension)",
            "extra-path advertisement only when oscillation is detected: flapping regions self-heal",
            format!(
                "fig1a plain: {plain_out}; with detector: {healed_out}, {upgraded} router(s) upgraded"
            ),
            !plain_out.quiescent() && healed_out.quiescent() && upgraded > 0,
        ),
        ExperimentRow::new(
            "E15",
            "§10 trigger (extension)",
            "quiet configurations never pay the extra advertisement cost",
            format!("fig14 with detector: {quiet_out}, {quiet_upgrades} upgrades"),
            quiet_out.quiescent() && quiet_upgrades == 0,
        ),
    ]
}

fn e16_loop_prevention() -> Vec<ExperimentRow> {
    use ibgp::analysis::classify;
    use ibgp::hunt::{classify_spec, generate_spec, Family, HuntOptions, SpecKind};
    // Topologies per reflection-kind family, and their campaign seed.
    const PER_FAMILY: u64 = 334;
    const SEED: u64 = 20260809;

    // Paper figures: engine-level classification, loop prevention off
    // and then on.
    let figures = ibgp::scenarios::all_scenarios();
    let figure_flips = figures
        .iter()
        .filter(|s| {
            let class = |lp: bool| {
                let opts = ExploreOptions::new().loop_prevention(lp);
                classify(&s.topology, ProtocolConfig::STANDARD, &s.exits, opts).0
            };
            class(false) != class(true)
        })
        .count();

    // The reflection-kind families only: confed/hierarchy specs have no
    // reflection sessions to stamp.
    let opts = HuntOptions::default();
    let (mut flips, mut stable_to_transient) = ([0u64; 3], 0u64);
    let families = [Family::Reflection, Family::MultiReflector, Family::FullMesh];
    for (family, flipped) in families.into_iter().zip(&mut flips) {
        for index in 0..PER_FAMILY {
            let mut spec = generate_spec(family, SEED, index);
            let off = classify_spec(&spec, &opts).expect("generated specs classify");
            match &mut spec.kind {
                SpecKind::Reflection(r) => r.loop_prevention = true,
                _ => unreachable!("reflection-kind families only"),
            }
            let on = classify_spec(&spec, &opts).expect("generated specs classify");
            if off.class != on.class {
                *flipped += 1;
                if off.class == OscillationClass::Stable && on.class == OscillationClass::Transient
                {
                    stable_to_transient += 1;
                }
            }
        }
    }
    let total: u64 = flips.iter().sum();
    let tallies = families
        .iter()
        .zip(flips)
        .map(|(family, n)| format!("{} {n}/{PER_FAMILY}", family.keyword()))
        .collect::<Vec<_>>()
        .join(", ");
    vec![ExperimentRow::new(
        "E16",
        "RFC 4456 loop prevention (extension)",
        "message-level reflection mechanics change no paper figure's verdict; on random topologies they flip verdicts only where a cluster has several reflectors, and only stable→transient",
        format!(
            "{figure_flips}/{} figures change class; flips: {tallies}; {stable_to_transient}/{total} stable→transient",
            figures.len()
        ),
        figure_flips == 0 && flips[0] == 0 && flips[2] == 0 && stable_to_transient == total,
    )]
}

fn main() {
    let mut rows = Vec::new();
    eprintln!("running E1 (Fig 1a)…");
    rows.extend(e1_fig1a());
    eprintln!("running E2 (Fig 1b)…");
    rows.extend(e2_fig1b());
    eprintln!("running E3 (Fig 2)…");
    rows.extend(e3_fig2());
    rows.extend(transient_async_check());
    eprintln!("running E4 (Fig 3 / Table 1)…");
    rows.extend(e4_fig3());
    eprintln!("running E5 (NP-completeness)…");
    rows.extend(e5_npc());
    eprintln!("running E6 (Fig 13)…");
    rows.extend(e6_fig13());
    eprintln!("running E7 (Fig 14)…");
    rows.extend(e7_fig14());
    eprintln!("running E8/E9/E12 (§7 theorems)…");
    rows.extend(e8_e9_e12_theorems());
    eprintln!("running E13 (confederations)…");
    rows.extend(e13_confederations());
    eprintln!("running E14 (deep hierarchy)…");
    rows.extend(e14_hierarchy());
    eprintln!("running E15 (adaptive trigger)…");
    rows.extend(e15_adaptive());
    eprintln!("running E10 (overhead)…");
    rows.extend(e10_overhead());
    eprintln!("running E11 (convergence scale)…");
    rows.extend(e11_convergence_scale());
    eprintln!("running E16 (loop prevention)…");
    rows.extend(e16_loop_prevention());

    println!("{}", render_table(&rows));
    let failed = rows.iter().filter(|r| !r.pass).count();
    println!(
        "\n{} claims checked, {} reproduced, {} diverged",
        rows.len(),
        rows.len() - failed,
        failed
    );
    let json = serde_json::to_string_pretty(&rows).expect("serializable");
    std::fs::write("experiments_output.json", json).expect("writable cwd");
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points_grow() {
        let sizes: Vec<usize> = SCALE_POINTS.iter().map(|p| p.0 * (1 + p.1)).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(scale_label(SCALE_POINTS[0]), "4r/2x");
    }

    #[test]
    fn scaled_scenarios_build() {
        for (i, &p) in SCALE_POINTS.iter().enumerate() {
            let s = scaled_scenario(p, i as u64);
            assert!(s.topology.physical().is_connected());
            assert_eq!(s.exits.len(), p.2);
        }
    }
}
