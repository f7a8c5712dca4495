//! Seeded random route-reflection configurations.
//!
//! Used by property tests (the §7 theorems must hold on *arbitrary*
//! configurations, not just the paper's figures) and by the scaling
//! rows of the `experiments` binary (E10/E11). Everything is
//! deterministic per seed.

use crate::Scenario;
use ibgp_topology::{Topology, TopologyBuilder};
use ibgp_types::{AsId, ExitPath, ExitPathId, ExitPathRef, IgpCost, Med, RouterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shape parameters for a random configuration.
#[derive(Debug, Clone, Copy)]
pub struct RandomConfig {
    /// Number of route-reflection clusters (each with one reflector).
    pub clusters: usize,
    /// Clients per cluster.
    pub clients_per_cluster: usize,
    /// Number of injected exit paths (placed at random routers).
    pub exits: usize,
    /// Number of distinct neighboring ASes MEDs are grouped by.
    pub neighbor_ases: usize,
    /// Maximum MED value (inclusive).
    pub max_med: u32,
    /// Maximum IGP link cost (inclusive, ≥ 1).
    pub max_cost: u64,
    /// Extra random physical links beyond the connecting tree.
    pub extra_links: usize,
}

impl Default for RandomConfig {
    fn default() -> Self {
        Self {
            clusters: 3,
            clients_per_cluster: 2,
            exits: 4,
            neighbor_ases: 2,
            max_med: 10,
            max_cost: 10,
            extra_links: 3,
        }
    }
}

/// Generate a random scenario. The physical graph is a random spanning
/// tree plus `extra_links` chords, so it is always connected; clusters
/// partition the routers; exit paths land on uniformly random routers
/// with uniform neighbor-AS and MED draws.
pub fn random_scenario(cfg: RandomConfig, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.clusters * (1 + cfg.clients_per_cluster);
    assert!(n >= 1, "need at least one router");

    let mut builder = TopologyBuilder::new(n);
    // Random spanning tree over a random permutation.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut present: Vec<(u32, u32)> = Vec::new();
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        let child = order[i];
        let cost = rng.gen_range(1..=cfg.max_cost);
        builder = builder.link(parent, child, cost);
        present.push((parent.min(child), parent.max(child)));
    }
    // Extra chords (skip duplicates).
    for _ in 0..cfg.extra_links {
        if n < 2 {
            break;
        }
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        let key = (u.min(v), u.max(v));
        if u == v || present.contains(&key) {
            continue;
        }
        present.push(key);
        builder = builder.link(u, v, rng.gen_range(1..=cfg.max_cost));
    }
    // Clusters: router `c * (1 + k)` is the reflector of cluster `c`.
    let stride = 1 + cfg.clients_per_cluster;
    for c in 0..cfg.clusters {
        let base = (c * stride) as u32;
        let clients: Vec<u32> = (1..=cfg.clients_per_cluster as u32)
            .map(|i| base + i)
            .collect();
        builder = builder.cluster([base], clients);
    }
    let topology = builder.build().expect("random topology is valid");

    let exits = random_exits(&topology, &cfg, &mut rng);
    Scenario {
        name: "random",
        description: "seeded random route-reflection configuration",
        topology,
        exits,
    }
}

fn random_exits(topo: &Topology, cfg: &RandomConfig, rng: &mut StdRng) -> Vec<ExitPathRef> {
    let n = topo.len();
    (0..cfg.exits)
        .map(|i| {
            let at = RouterId::new(rng.gen_range(0..n as u32));
            let next_as = AsId::new(1 + rng.gen_range(0..cfg.neighbor_ases as u32));
            let med = Med::new(rng.gen_range(0..=cfg.max_med));
            Arc::new(
                ExitPath::builder(ExitPathId::new(i as u32 + 1))
                    .via(next_as)
                    .med(med)
                    .exit_point(at)
                    .exit_cost(IgpCost::ZERO)
                    .build_unchecked(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_proto::variants::ProtocolConfig;
    use ibgp_sim::{Engine, RoundRobin, SyncEngine};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_scenario(RandomConfig::default(), 42);
        let b = random_scenario(RandomConfig::default(), 42);
        assert_eq!(a.topology.len(), b.topology.len());
        assert_eq!(
            a.topology.physical().links().collect::<Vec<_>>(),
            b.topology.physical().links().collect::<Vec<_>>()
        );
        assert_eq!(a.exits, b.exits);
        let c = random_scenario(RandomConfig::default(), 43);
        // Different seed almost surely differs somewhere.
        assert!(
            a.exits != c.exits
                || a.topology.physical().links().collect::<Vec<_>>()
                    != c.topology.physical().links().collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_scenarios_are_structurally_sound() {
        for seed in 0..20 {
            let s = random_scenario(RandomConfig::default(), seed);
            assert!(s.topology.physical().is_connected());
            assert_eq!(s.topology.len(), 9);
            for p in &s.exits {
                assert!(p.exit_point().index() < s.topology.len());
            }
        }
    }

    #[test]
    fn modified_protocol_converges_on_random_scenarios() {
        // A smoke-test instance of the §7 theorem; the full property test
        // lives in the workspace-level proptest suite.
        for seed in 0..10 {
            let s = random_scenario(RandomConfig::default(), seed);
            let mut eng = SyncEngine::new(&s.topology, ProtocolConfig::MODIFIED, s.exits());
            let outcome = eng.run(&mut RoundRobin::new(), 100_000);
            assert!(outcome.converged(), "seed {seed}: {outcome}");
        }
    }

    #[test]
    fn exit_count_and_bounds_are_respected() {
        let cfg = RandomConfig {
            exits: 7,
            max_med: 3,
            neighbor_ases: 2,
            ..RandomConfig::default()
        };
        let s = random_scenario(cfg, 7);
        assert_eq!(s.exits.len(), 7);
        for p in &s.exits {
            assert!(p.med().raw() <= 3);
            assert!(p.next_as().raw() >= 1 && p.next_as().raw() <= 2);
        }
    }
}
