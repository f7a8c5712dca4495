//! The general-hierarchy pull engine.
//!
//! Provenance-based reflection (the RFC 4456 rule the paper's two-level
//! `Transfer` relation encodes): a router may offer a route
//!
//! * to **everyone** if it originated the route (E-BGP) or learned it
//!   over a `Down` session (from a client);
//! * only over **`Down` sessions** if it learned the route from a
//!   non-client (`Up` or `Peer`);
//! * never to the route's own exit point.
//!
//! Selection is the paper's `Choose_best`; advertisement is single-best
//! or the `Choose_set` survivor set ([`HierMode`]).

use crate::topology::{HierTopology, SessionKind};
use ibgp_proto::selection::choose_set;
use ibgp_proto::{choose_best, SelectionPolicy};
use ibgp_sim::{Engine, RoundRobin, SweepEngine, SyncOutcome};
use ibgp_types::{BgpId, ExitPathId, ExitPathRef, Route, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How a router came to know a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// Own E-BGP exit.
    Own,
    /// Learned from a client (over a `Down` session).
    FromClient,
    /// Learned from a reflector or ordinary peer.
    FromNonClient,
}

/// Advertisement discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HierMode {
    /// Single best route.
    #[default]
    SingleBest,
    /// The `Choose_set` survivor set (the paper's modification).
    SetAdvertisement,
}

impl fmt::Display for HierMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierMode::SingleBest => write!(f, "single-best"),
            HierMode::SetAdvertisement => write!(f, "set-advertisement"),
        }
    }
}

/// A held route: the exit path plus how we learned it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Held {
    path: ExitPathRef,
    provenance: Provenance,
    learned_from: BgpId,
}

/// One router's state: its own exits, candidates, best, and what it
/// advertises.
#[derive(Debug, Clone)]
pub struct NodeState {
    my_exits: Vec<ExitPathRef>,
    possible: BTreeMap<ExitPathId, Held>,
    best: Option<ExitPathId>,
    /// Advertised routes with their provenance (the receiver-side filter
    /// needs it).
    advertised: Vec<Held>,
}

/// The pull engine over a hierarchy.
#[derive(Clone)]
pub struct HierEngine<'a> {
    topo: &'a HierTopology,
    mode: HierMode,
    policy: SelectionPolicy,
    nodes: Vec<NodeState>,
    time: u64,
}

impl<'a> HierEngine<'a> {
    /// Create with injected exits (paper selection policy).
    pub fn new(topo: &'a HierTopology, mode: HierMode, exits: Vec<ExitPathRef>) -> Self {
        let n = topo.len();
        let mut nodes = vec![
            NodeState {
                my_exits: Vec::new(),
                possible: BTreeMap::new(),
                best: None,
                advertised: Vec::new(),
            };
            n
        ];
        for p in exits {
            assert!(p.exit_point().index() < n, "exit point out of range");
            nodes[p.exit_point().index()].my_exits.push(p);
        }
        for node in &mut nodes {
            node.my_exits.sort_by_key(|p| p.id());
            for p in &node.my_exits {
                node.possible.insert(
                    p.id(),
                    Held {
                        path: p.clone(),
                        provenance: Provenance::Own,
                        learned_from: p.next_hop().bgp_id(),
                    },
                );
            }
        }
        Self {
            topo,
            mode,
            policy: SelectionPolicy::PAPER,
            nodes,
            time: 0,
        }
    }

    /// Best exit at a router.
    pub fn best_exit(&self, u: RouterId) -> Option<ExitPathId> {
        self.nodes[u.index()].best
    }

    /// Steps applied.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// May `v` offer this held route to `u`?
    fn may_offer(&self, v: RouterId, u: RouterId, held: &Held) -> bool {
        let Some(kind) = self.topo.session(v, u) else {
            return false;
        };
        if held.path.exit_point() == u {
            return false; // never back to the origin
        }
        match held.provenance {
            Provenance::Own | Provenance::FromClient => true,
            Provenance::FromNonClient => kind == SessionKind::Down,
        }
    }

    fn compute_update(&self, u: RouterId) -> NodeState {
        let cur = &self.nodes[u.index()];
        let mut gathered: BTreeMap<ExitPathId, Held> = BTreeMap::new();
        for p in &cur.my_exits {
            gathered.insert(
                p.id(),
                Held {
                    path: p.clone(),
                    provenance: Provenance::Own,
                    learned_from: p.next_hop().bgp_id(),
                },
            );
        }
        for (v, kind_from_u) in self.topo.peers(u) {
            let sender = self.topo.bgp_id(v);
            let incoming_provenance = if kind_from_u == SessionKind::Down {
                Provenance::FromClient
            } else {
                Provenance::FromNonClient
            };
            for held in &self.nodes[v.index()].advertised {
                if !self.may_offer(v, u, held) {
                    continue;
                }
                let candidate = Held {
                    path: held.path.clone(),
                    provenance: incoming_provenance,
                    learned_from: sender,
                };
                gathered
                    .entry(candidate.path.id())
                    .and_modify(|prev| {
                        // Prefer Own, then client-learned, then the lowest
                        // announcing identifier — deterministic and
                        // never-worse for rule 6.
                        if (candidate.provenance, candidate.learned_from)
                            < (prev.provenance, prev.learned_from)
                        {
                            *prev = candidate.clone();
                        }
                    })
                    .or_insert(candidate);
            }
        }

        // Selection via the shared decision process.
        let routes: Vec<Route> = gathered
            .values()
            .map(|h| {
                Route::new(
                    h.path.clone(),
                    u,
                    self.topo.igp_cost(u, h.path.exit_point()),
                    h.learned_from,
                )
            })
            .collect();
        let best = choose_best(self.policy, &routes).map(|r| r.exit_id());

        let advertised: Vec<Held> = match self.mode {
            HierMode::SingleBest => best
                .map(|id| vec![gathered[&id].clone()])
                .unwrap_or_default(),
            HierMode::SetAdvertisement => {
                let paths: Vec<ExitPathRef> = gathered.values().map(|h| h.path.clone()).collect();
                choose_set(&paths, self.policy.med_mode)
                    .iter()
                    .map(|p| gathered[&p.id()].clone())
                    .collect()
            }
        };

        NodeState {
            my_exits: cur.my_exits.clone(),
            possible: gathered,
            best,
            advertised,
        }
    }

    /// Round-robin run until verdict.
    pub fn run_round_robin(&mut self, max_steps: u64) -> SyncOutcome {
        Engine::run(self, &mut RoundRobin::new(), max_steps)
    }
}

impl SweepEngine for HierEngine<'_> {
    type Node = NodeState;

    fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    fn update_all(&self) -> Vec<NodeState> {
        self.topo
            .routers()
            .map(|u| self.compute_update(u))
            .collect()
    }

    fn apply(&mut self, set: &[RouterId], updates: &[NodeState]) {
        for &u in set {
            self.nodes[u.index()] = updates[u.index()].clone();
        }
        self.time += 1;
    }

    /// Canonical encoding for dedup and cycle detection: the candidates
    /// and the advertisements as length-prefixed (id, provenance) lists
    /// around the best id.
    fn encode(node: &NodeState, out: &mut Vec<u32>) {
        let held = |h: &Held| [h.path.id().raw(), h.provenance as u32];
        out.push(node.possible.len() as u32);
        out.extend(node.possible.values().flat_map(held));
        match node.best {
            Some(id) => out.extend([1, id.raw()]),
            None => out.push(0),
        }
        out.push(node.advertised.len() as u32);
        out.extend(node.advertised.iter().flat_map(held));
    }

    fn best(node: &NodeState) -> Option<ExitPathId> {
        node.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, Member};
    use ibgp_topology::PhysicalGraph;
    use ibgp_types::{AsId, ExitPath, IgpCost, Med};
    use std::sync::Arc;

    fn r(i: u32) -> RouterId {
        RouterId::new(i)
    }

    fn exit(id: u32, next_as: u32, med: u32, at: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(next_as))
                .med(Med::new(med))
                .exit_point(r(at))
                .build_unchecked(),
        )
    }

    fn chain(n: usize) -> PhysicalGraph {
        let mut g = PhysicalGraph::new(n);
        for i in 1..n {
            g.add_link(r(i as u32 - 1), r(i as u32), IgpCost::new(1))
                .unwrap();
        }
        g
    }

    /// Three levels: 0 (top) -> 1 (mid reflector) -> 2 (leaf). Exit at
    /// the leaf must climb two levels and also descend to 3.
    #[test]
    fn routes_propagate_up_and_down_the_tree() {
        let spec = ClusterSpec {
            reflectors: vec![0],
            members: vec![
                Member::Cluster(ClusterSpec::flat(1, [2])),
                Member::Router(3),
            ],
        };
        let topo = crate::topology::HierTopology::new(chain(4), vec![spec]).unwrap();
        let mut eng = HierEngine::new(&topo, HierMode::SingleBest, vec![exit(1, 1, 0, 2)]);
        let out = eng.run_round_robin(200);
        assert!(out.converged(), "{out}");
        for u in 0..4 {
            assert_eq!(eng.best_exit(r(u)), Some(ExitPathId::new(1)), "router {u}");
        }
    }

    #[test]
    fn nonclient_routes_do_not_climb() {
        // Exit at leaf 3 (a direct client of the top reflector 0): the
        // mid reflector 1 learns it from ABOVE (non-client) and must not
        // offer it back up, only down to 2.
        let spec = ClusterSpec {
            reflectors: vec![0],
            members: vec![
                Member::Cluster(ClusterSpec::flat(1, [2])),
                Member::Router(3),
            ],
        };
        let topo = crate::topology::HierTopology::new(chain(4), vec![spec]).unwrap();
        let mut eng = HierEngine::new(&topo, HierMode::SingleBest, vec![exit(1, 1, 0, 3)]);
        let out = eng.run_round_robin(200);
        assert!(out.converged(), "{out}");
        assert_eq!(
            eng.best_exit(r(2)),
            Some(ExitPathId::new(1)),
            "reaches the leaf"
        );
        // Structural check of the offer rule itself.
        let held = Held {
            path: exit(9, 1, 0, 3),
            provenance: Provenance::FromNonClient,
            learned_from: ibgp_types::BgpId::new(0),
        };
        assert!(
            !eng.may_offer(r(1), r(0), &held),
            "non-client routes stay down"
        );
        assert!(eng.may_offer(r(1), r(2), &held));
    }

    #[test]
    fn never_offered_back_to_the_exit_point() {
        let spec = ClusterSpec::flat(0, [1]);
        let topo = crate::topology::HierTopology::new(chain(2), vec![spec]).unwrap();
        let eng = HierEngine::new(&topo, HierMode::SingleBest, vec![exit(1, 1, 0, 1)]);
        let held = Held {
            path: exit(1, 1, 0, 1),
            provenance: Provenance::FromClient,
            learned_from: ibgp_types::BgpId::new(1),
        };
        assert!(!eng.may_offer(r(0), r(1), &held));
    }

    /// Cross-model check: on a two-level hierarchy the general engine
    /// agrees with the paper-model two-level semantics on reachability of
    /// routes (client exits visible everywhere, reflector-to-reflector
    /// only for client-originated paths).
    #[test]
    fn two_level_behaviour_matches_the_paper_model() {
        // Two flat clusters {0;1} and {2;3}, exit at client 1.
        let topo = crate::topology::HierTopology::new(
            chain(4),
            vec![ClusterSpec::flat(0, [1]), ClusterSpec::flat(2, [3])],
        )
        .unwrap();
        let mut eng = HierEngine::new(&topo, HierMode::SingleBest, vec![exit(1, 1, 0, 1)]);
        assert!(eng.run_round_robin(200).converged());
        // The client exit crossed the top mesh and descended to client 3.
        assert_eq!(eng.best_exit(r(3)), Some(ExitPathId::new(1)));
    }
}
