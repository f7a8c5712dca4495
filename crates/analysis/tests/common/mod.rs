//! Shared random-instance generators for the equivalence suites, and
//! the reference search the explorer is held to.

#![allow(dead_code)] // each suite uses its own share of the helpers

use ibgp_proto::variants::ProtocolConfig;
use ibgp_sim::SyncEngine;
use ibgp_topology::{Topology, TopologyBuilder};
use ibgp_types::{AsId, ExitPath, ExitPathId, ExitPathRef, IgpCost, Med, RouterId};
use std::collections::HashSet;
use std::sync::Arc;

/// Connected topology over `n` routers: a chain plus deduplicated extra
/// links, under one of four I-BGP session shapes: full mesh (0), one
/// cluster (1), two clusters (2, from four routers), one cluster behind
/// two reflectors (3, from three routers).
pub fn build_topology(
    n: usize,
    shape: u8,
    chain_costs: &[u64],
    extra_links: &[(u32, u32, u64)],
) -> Topology {
    let mut b = TopologyBuilder::new(n);
    let mut seen: Vec<(u32, u32)> = Vec::new();
    for (i, &cost) in chain_costs.iter().take(n - 1).enumerate() {
        let (u, v) = (i as u32, i as u32 + 1);
        b = b.link(u, v, cost);
        seen.push((u, v));
    }
    for &(u, v, cost) in extra_links {
        let (u, v) = (u % n as u32, v % n as u32);
        let pair = (u.min(v), u.max(v));
        if u != v && !seen.contains(&pair) {
            seen.push(pair);
            b = b.link(pair.0, pair.1, cost);
        }
    }
    b = match shape {
        0 => b.full_mesh(),
        _ if shape == 2 && n >= 4 => {
            let evens: Vec<u32> = (2..n as u32).step_by(2).collect();
            let odds: Vec<u32> = (3..n as u32).step_by(2).collect();
            b.cluster([0], evens).cluster([1], odds)
        }
        _ if shape == 3 && n >= 3 => b.cluster([0, 1], 2..n as u32),
        _ => b.cluster([0], 1..n as u32),
    };
    b.build().expect("generated topology must validate")
}

/// Exit-path table from raw tuples, ids 1..=n_exits.
pub fn build_exits(n: usize, n_exits: usize, raw: &[(u32, u32, u32, u64)]) -> Vec<ExitPathRef> {
    raw.iter()
        .take(n_exits)
        .enumerate()
        .map(|(i, &(next_as, med, exit_point, exit_cost))| {
            Arc::new(
                ExitPath::builder(ExitPathId::new(i as u32 + 1))
                    .via(AsId::new(next_as))
                    .med(Med::new(med))
                    .exit_point(RouterId::new(exit_point % n as u32))
                    .exit_cost(IgpCost::new(exit_cost))
                    .build_unchecked(),
            )
        })
        .collect()
}

/// What [`reference_search`] found, in the terms the explorer reports.
#[derive(Debug, PartialEq, Eq)]
pub struct Reference {
    pub states: usize,
    /// The state cap stopped the search.
    pub capped: bool,
    /// Sorted.
    pub stable_vectors: Vec<Vec<Option<ExitPathId>>>,
    pub frontier_depth: u64,
    pub peak_queue: u64,
}

/// The search the explorer implements, written as plainly as it can be:
/// breadth-first over clones of an unmemoized `SyncEngine`. A frontier
/// state that is stable contributes its best vector; any other steps
/// every singleton and then the full set, in frontier-then-branch
/// order, keeping each successor whose `state_key(0)` is new. States
/// count from the initial one, and the search stops at the first state
/// past `max_states`.
pub fn reference_search(
    topo: &Topology,
    config: ProtocolConfig,
    exits: &[ExitPathRef],
    loop_prevention: bool,
    max_states: usize,
) -> Reference {
    let mut initial = SyncEngine::new(topo, config, exits.to_vec());
    initial.set_memoized(false);
    initial.set_loop_prevention(loop_prevention);
    let n = topo.len() as u32;
    let mut branches: Vec<Vec<RouterId>> = (0..n).map(|u| vec![RouterId::new(u)]).collect();
    branches.push((0..n).map(RouterId::new).collect());
    let mut visited = HashSet::from([initial.state_key(0)]);
    let mut found = Reference {
        states: 1,
        capped: false,
        stable_vectors: Vec::new(),
        frontier_depth: 0,
        peak_queue: 1,
    };
    let mut frontier = vec![initial];
    'levels: while !frontier.is_empty() {
        let mut next = Vec::new();
        for engine in &frontier {
            if engine.is_stable() {
                let bv = engine.best_vector();
                if !found.stable_vectors.contains(&bv) {
                    found.stable_vectors.push(bv);
                }
                continue;
            }
            for branch in &branches {
                let mut succ = engine.clone();
                succ.step(branch);
                if visited.insert(succ.state_key(0)) {
                    found.states += 1;
                    if found.states > max_states {
                        found.capped = true;
                        break 'levels;
                    }
                    next.push(succ);
                }
            }
        }
        if !next.is_empty() {
            found.frontier_depth += 1;
            found.peak_queue = found.peak_queue.max(next.len() as u64);
        }
        frontier = next;
    }
    found.stable_vectors.sort();
    found
}
