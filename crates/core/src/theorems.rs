//! The paper's §7 guarantees as executable checks.
//!
//! For a network running the **modified** protocol the paper proves:
//!
//! 1. **Convergence** — every fair activation sequence reaches a fixed
//!    point (no persistent or transient oscillation);
//! 2. **Uniqueness / determinism** — the fixed point is the same for
//!    every fair sequence, and every node's advertised set converges to
//!    `S′ = Choose_set(⋃ MyExits)` (Lemmas 7.4/7.5);
//! 3. **Loop freedom** — hop-by-hop forwarding on the converged state
//!    never loops (Lemmas 7.6/7.7);
//! 4. **Flush** — withdrawn exit paths disappear from every
//!    `PossibleExits` set (Lemma 7.2).
//!
//! [`verify_paper_theorems`] executes all four on a given topology/exit
//! set and reports each verdict; the property tests and the
//! `experiments` binary drive it over random configurations.

use crate::network::Network;
use ibgp_analysis::{flush_report, forwarding_loops};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_proto::{choose_set, ProtocolVariant};
use ibgp_sim::{Engine, RandomFair, RoundRobin, SyncEngine};
use ibgp_types::{ExitPathId, RouterId};
use serde::{Deserialize, Serialize};

/// Verdicts of the four §7 checks on one configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TheoremReport {
    /// Every tested fair schedule converged.
    pub converges: bool,
    /// All runs reached the same best-exit vector.
    pub unique_outcome: bool,
    /// Every node's advertised set equals `S′ = Choose_set(all exits)`
    /// after convergence (Lemma 7.4/7.5).
    pub good_exits_equal_s_prime: bool,
    /// No forwarding loops on the converged state (Lemma 7.6).
    pub loop_free: bool,
    /// A withdrawn exit path flushed from every node (Lemma 7.2);
    /// `None` when the configuration has no exits to withdraw.
    pub flush_ok: Option<bool>,
    /// Number of schedules exercised.
    pub schedules: usize,
}

impl TheoremReport {
    /// All checks passed.
    pub fn all_hold(&self) -> bool {
        self.converges
            && self.unique_outcome
            && self.good_exits_equal_s_prime
            && self.loop_free
            && self.flush_ok.unwrap_or(true)
    }
}

/// Execute the §7 checks on the network's topology and exits, forcing
/// the modified protocol (the theorems are about it).
pub fn verify_paper_theorems(network: &Network, seeds: u64, max_steps: u64) -> TheoremReport {
    let config = ProtocolConfig {
        variant: ProtocolVariant::Modified,
        policy: network.config().policy,
    };
    let network = network.with_config(config);
    let topo = network.topology();
    let exits = network.exits().to_vec();

    // S' = Choose_set over all injected exits.
    let s_prime: Vec<ExitPathId> = {
        let mut ids: Vec<ExitPathId> = choose_set(&exits, config.policy.med_mode)
            .iter()
            .map(|p| p.id())
            .collect();
        ids.sort();
        ids
    };

    let mut converges = true;
    let mut unique_outcome = true;
    let mut good_exits_ok = true;
    let mut loop_free = true;
    let mut reference: Option<Vec<Option<ExitPathId>>> = None;
    let mut schedules = 0;

    let mut run = |mut engine: SyncEngine, schedule: &mut dyn ibgp_sim::Activation| {
        schedules += 1;
        let outcome = engine.run(schedule, max_steps);
        if !outcome.converged() {
            converges = false;
            return;
        }
        let bv = engine.best_vector();
        match &reference {
            None => reference = Some(bv),
            Some(prev) => {
                if *prev != bv {
                    unique_outcome = false;
                }
            }
        }
        // Lemma 7.4/7.5: every node's GoodExits (advertised set under the
        // modified protocol) equals S'.
        for u in topo.routers() {
            let mut adv: Vec<ExitPathId> = engine.advertised(u).iter().map(|p| p.id()).collect();
            adv.sort();
            if adv != s_prime {
                good_exits_ok = false;
            }
        }
        // Lemma 7.6: loop-free forwarding.
        let best = |u: RouterId| engine.best_route(u).cloned();
        if !forwarding_loops(topo, &best).is_empty() {
            loop_free = false;
        }
    };

    run(
        SyncEngine::new(topo, config, exits.clone()),
        &mut RoundRobin::new(),
    );
    for seed in 0..seeds {
        run(
            SyncEngine::new(topo, config, exits.clone()),
            &mut RandomFair::new(seed),
        );
    }

    // Lemma 7.2: withdraw the first exit and require a full flush.
    let flush_ok = exits.first().map(|victim| {
        flush_report(
            topo,
            config,
            &exits,
            victim.id(),
            &mut RoundRobin::new(),
            max_steps,
        )
        .flushed
    });

    TheoremReport {
        converges,
        unique_outcome,
        good_exits_equal_s_prime: good_exits_ok,
        loop_free,
        flush_ok,
        schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_scenarios::{all_scenarios, random::random_scenario, random::RandomConfig};

    #[test]
    fn theorems_hold_on_every_paper_scenario() {
        for s in all_scenarios() {
            let n = Network::from_scenario(&s, ProtocolVariant::Modified);
            let report = verify_paper_theorems(&n, 6, 50_000);
            assert!(report.all_hold(), "{}: {report:?}", s.name);
        }
    }

    #[test]
    fn theorems_hold_on_random_configurations() {
        for seed in 0..8 {
            let s = random_scenario(RandomConfig::default(), seed);
            let n = Network::from_scenario(&s, ProtocolVariant::Modified);
            let report = verify_paper_theorems(&n, 4, 100_000);
            assert!(report.all_hold(), "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn standard_protocol_fails_the_uniqueness_check_on_fig2() {
        // Control experiment: running the *standard* protocol through the
        // same harness (by forging the config) must NOT satisfy the
        // uniqueness claim on Fig 2. We emulate by checking determinism
        // directly, since verify_paper_theorems always forces Modified.
        let s = ibgp_scenarios::fig2::scenario();
        let n = Network::from_scenario(&s, ProtocolVariant::Standard);
        assert!(!n.determinism(8, 10_000).deterministic());
    }

    #[test]
    fn report_aggregation() {
        let ok = TheoremReport {
            converges: true,
            unique_outcome: true,
            good_exits_equal_s_prime: true,
            loop_free: true,
            flush_ok: Some(true),
            schedules: 3,
        };
        assert!(ok.all_hold());
        let bad = TheoremReport {
            loop_free: false,
            ..ok.clone()
        };
        assert!(!bad.all_hold());
        let no_flush = TheoremReport {
            flush_ok: None,
            ..ok
        };
        assert!(no_flush.all_hold());
    }
}
