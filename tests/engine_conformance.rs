//! [`Engine`] conformance suite: every synchronous engine in the
//! workspace — `SyncEngine` (two-level route reflection), `ConfedEngine`
//! (sub-AS confederations), and `HierEngine` (deep reflection
//! hierarchies) — must honor the same observable contract, checked here
//! by one generic battery run against all three:
//!
//! * lockstep determinism: identical activation scripts produce
//!   identical state keys, best vectors, and verdicts;
//! * `step` reports the **pre-step** fixed-point verdict and agrees with
//!   `is_stable`, whatever order its activation set lists routers in;
//! * `state_key` is pure and embeds the schedule phase;
//! * the default `run` converges on convergent configurations and leaves
//!   the engine at a genuine fixed point — invariant under any further
//!   activation.
//!
//! The two sweep engines are also held to their word rule: on every
//! state of the E13/E14 searches, the memoized `SweepPlanner` plan equals
//! a direct update of each router.

use ibgp::confed::scenarios::confed_fig1a;
use ibgp::confed::{random_confederation, ConfedEngine, ConfedMode, RandomConfedConfig};
use ibgp::hierarchy::scenarios::deep_fig1a;
use ibgp::hierarchy::{random_hierarchy, HierEngine, HierMode, RandomHierConfig};
use ibgp::proto::variants::ProtocolConfig;
use ibgp::scenarios::random::{random_scenario, RandomConfig};
use ibgp::sim::engine::spans;
use ibgp::sim::{AllAtOnce, Engine, RoundRobin, SweepEngine, SweepPlanner, SyncEngine};
use ibgp::RouterId;
use std::collections::{HashSet, VecDeque};

/// The generic battery. `fresh` must return a brand-new engine over the
/// same (convergent) configuration each call.
fn check_conformance<E: Engine>(label: &str, mut fresh: impl FnMut() -> E) {
    let mut a = fresh();
    let mut b = fresh();
    let n = a.router_count();
    assert!(n >= 1, "{label}: engine reports no routers");
    assert_eq!(a.best_vector().len(), n, "{label}: best-vector length");

    // state_key is pure and phase-tagged.
    assert!(
        a.state_key(3) == a.state_key(3),
        "{label}: state_key is not pure"
    );
    assert!(
        a.state_key(0) != a.state_key(1),
        "{label}: state_key ignores the schedule phase"
    );

    // Lockstep determinism through a mixed singleton/full-set script.
    for step in 0..40u64 {
        let phase = step % 7;
        assert!(
            a.state_key(phase) == b.state_key(phase),
            "{label}: state keys diverge at step {step}"
        );
        assert_eq!(
            a.best_vector(),
            b.best_vector(),
            "{label}: best vectors diverge at step {step}"
        );
        let pre_stable = a.is_stable();
        assert_eq!(
            pre_stable,
            b.is_stable(),
            "{label}: stability verdicts diverge at step {step}"
        );
        let set: Vec<RouterId> = if step % 3 == 0 {
            (0..n as u32).map(RouterId::new).collect()
        } else {
            vec![RouterId::new((step % n as u64) as u32)]
        };
        let va = a.step(&set);
        let vb = b.step(&set);
        assert_eq!(
            va, pre_stable,
            "{label}: step must report the pre-step fixed-point verdict (step {step})"
        );
        assert_eq!(vb, pre_stable, "{label}: step verdicts diverge at {step}");
    }

    // The default `run` reaches a genuine fixed point…
    let mut c = fresh();
    let out = c.run(&mut RoundRobin::new(), 300_000);
    assert!(
        out.converged(),
        "{label}: round-robin did not converge: {out}"
    );
    assert!(c.is_stable(), "{label}: converged but not stable");
    let settled = c.best_vector();
    let key = c.state_key(0);

    // …which is invariant under any further activation.
    let all: Vec<RouterId> = (0..n as u32).map(RouterId::new).collect();
    assert!(c.step(&all), "{label}: fixed point not reported by step");
    assert_eq!(c.best_vector(), settled, "{label}: fixed point moved");
    assert!(
        c.state_key(0) == key,
        "{label}: state key changed at a fixed point"
    );

    // A second run from scratch lands on the same configuration (the §7
    // determinism property all three convergent modes share).
    let mut d = fresh();
    assert!(d.run(&mut RoundRobin::new(), 300_000).converged());
    assert_eq!(d.best_vector(), settled, "{label}: runs disagree");
}

#[test]
fn sync_engine_conforms() {
    for seed in 0..6u64 {
        let s = random_scenario(RandomConfig::default(), seed);
        check_conformance("sync/modified", || {
            SyncEngine::new(&s.topology, ProtocolConfig::MODIFIED, s.exits())
        });
    }
}

#[test]
fn confed_engine_conforms() {
    for seed in 0..6u64 {
        let (topo, exits) = random_confederation(RandomConfedConfig::default(), seed);
        check_conformance("confed/set-advertisement", || {
            ConfedEngine::new(&topo, ConfedMode::SetAdvertisement, exits.clone())
        });
    }
}

#[test]
fn hier_engine_conforms() {
    for seed in 0..6u64 {
        let (topo, exits) = random_hierarchy(RandomHierConfig::default(), seed);
        check_conformance("hier/set-advertisement", || {
            HierEngine::new(&topo, HierMode::SetAdvertisement, exits.clone())
        });
    }
}

/// A step's activation set is a set: listing its members out of order,
/// or twice, steps every engine to the same configuration.
fn check_set_order<E: Engine>(label: &str, mut fresh: impl FnMut() -> E) {
    let (mut sorted, mut shuffled) = (fresh(), fresh());
    let n = sorted.router_count() as u32;
    for step in 0..12u32 {
        let set: Vec<RouterId> = (0..n)
            .filter(|u| (u + step) % 3 != 0)
            .map(RouterId::new)
            .collect();
        let mut listed: Vec<RouterId> = set.iter().rev().copied().collect();
        listed.extend(set.first());
        assert_eq!(
            sorted.step(&set),
            shuffled.step(&listed),
            "{label}: step {step}"
        );
        assert!(
            sorted.state_key(0) == shuffled.state_key(0),
            "{label}: configurations diverge at step {step}"
        );
    }
}

#[test]
fn activation_set_order_never_matters() {
    let s = ibgp::scenarios::fig2::scenario();
    check_set_order("sync/standard", || {
        SyncEngine::new(&s.topology, ProtocolConfig::STANDARD, s.exits())
    });
    let (topo, exits) = confed_fig1a();
    check_set_order("confed/single-best", || {
        ConfedEngine::new(&topo, ConfedMode::SingleBest, exits.clone())
    });
    let (topo, exits) = deep_fig1a();
    check_set_order("hier/single-best", || {
        HierEngine::new(&topo, HierMode::SingleBest, exits.clone())
    });
}

/// The default `run` must also detect provable cycles: the Fig 2
/// DISAGREE shape under standard I-BGP oscillates forever under the
/// all-at-once schedule, and cycle detection proves it.
#[test]
fn default_run_detects_cycles() {
    let s = ibgp::scenarios::fig2::scenario();
    let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::STANDARD, s.exits());
    let out = Engine::run(&mut eng, &mut AllAtOnce, 10_000);
    assert!(out.cycled(), "expected a provable cycle, got {out}");
}

/// Walk every state the explorer visits for `engine`'s configuration —
/// singleton and full-set activations, stable states not expanded — and
/// hold the memoized [`SweepPlanner`] to a direct, unmemoized `update`
/// of each router from its inputs' spans. Returns the number of
/// distinct states.
fn check_plans<E: SweepEngine>(engine: &E, label: &str) -> usize {
    let n = engine.routers();
    let all: Vec<RouterId> = (0..n as u32).map(RouterId::new).collect();
    let mut branches: Vec<Vec<RouterId>> = all.iter().map(|&u| vec![u]).collect();
    branches.push(all.clone());
    let mut planner = SweepPlanner::new(engine);
    let mut seen = HashSet::from([engine.words().to_vec()]);
    let mut queue = VecDeque::from([engine.words().to_vec()]);
    let (mut planned, mut direct, mut inputs) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(key) = queue.pop_front() {
        let stable = planner.plan(&key);
        let current: Vec<&[u32]> = spans::<E>(&key).collect();
        direct.clear();
        for &u in &all {
            inputs.clear();
            for v in engine.inputs(u) {
                inputs.extend_from_slice(current[v.index()]);
            }
            engine.update(u, &inputs, &mut direct);
        }
        planner.successor_into(&all, &mut planned);
        assert_eq!(planned, direct, "{label}: memoized plan vs direct update");
        assert_eq!(stable, direct == key, "{label}: fixed-point test");
        if stable {
            continue;
        }
        for branch in &branches {
            planner.successor_into(branch, &mut planned);
            if seen.insert(planned.clone()) {
                queue.push_back(planned.clone());
            }
        }
    }
    let m = planner.metrics();
    assert!(
        m.cache_hits > m.cache_misses,
        "{label}: the memo answers repeats"
    );
    seen.len()
}

/// The sweep planner's memoized plan equals a direct update of every
/// router on every state of the E13 and E14 searches, in both modes —
/// and the walk reaches exactly the explorer's state counts.
#[test]
fn sweep_planner_matches_direct_updates_on_every_e13_e14_state() {
    let (topo, exits) = confed_fig1a();
    for (mode, states) in [
        (ConfedMode::SingleBest, 338),
        (ConfedMode::SetAdvertisement, 320),
    ] {
        let engine = ConfedEngine::new(&topo, mode, exits.clone());
        assert_eq!(check_plans(&engine, &format!("E13 {mode}")), states);
    }
    let (topo, exits) = deep_fig1a();
    for (mode, states) in [
        (HierMode::SingleBest, 553),
        (HierMode::SetAdvertisement, 652),
    ] {
        let engine = HierEngine::new(&topo, mode, exits.clone());
        assert_eq!(check_plans(&engine, &format!("E14 {mode}")), states);
    }
}
