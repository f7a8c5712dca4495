//! The general-hierarchy pull engine.
//!
//! Provenance-based reflection (the RFC 4456 rule the paper's two-level
//! `Transfer` relation encodes), through the same
//! [`ibgp_proto::may_offer`] the loop-prevention engines reflect by: a
//! router may offer a route
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
use ibgp_proto::{choose_best, may_offer, Provenance, SelectionPolicy};
use ibgp_sim::engine::spans;
use ibgp_sim::{Engine, RoundRobin, SweepEngine, SyncOutcome};
use ibgp_types::{BgpId, ExitPathId, ExitPathRef, Route, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

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

/// The provenance a span word encodes.
fn provenance(word: u32) -> Provenance {
    match word {
        0 => Provenance::Own,
        1 => Provenance::FromClient,
        2 => Provenance::FromNonClient,
        other => unreachable!("provenance word {other}"),
    }
}

/// A held route: the exit path plus how we learned it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Held {
    path: ExitPathRef,
    provenance: Provenance,
    learned_from: BgpId,
}

/// One router's state as an update builds it, before it is encoded.
struct NodeState {
    possible: BTreeMap<ExitPathId, Held>,
    best: Option<ExitPathId>,
    /// Advertised routes with their provenance (the receiver-side filter
    /// needs it).
    advertised: Vec<Held>,
}

impl NodeState {
    /// The router's span: the candidates and the advertisements as
    /// length-prefixed (id, provenance) lists around the best id (`0`
    /// for none, `1, id` otherwise).
    fn encode(&self, out: &mut Vec<u32>) {
        let held = |h: &Held| [h.path.id().raw(), h.provenance as u32];
        out.push(self.possible.len() as u32);
        out.extend(self.possible.values().flat_map(held));
        match self.best {
            Some(id) => out.extend([1, id.raw()]),
            None => out.push(0),
        }
        out.push(self.advertised.len() as u32);
        out.extend(self.advertised.iter().flat_map(held));
    }
}

/// Offset of the best-id flag in a span.
fn best_at(span: &[u32]) -> usize {
    1 + 2 * span[0] as usize
}

/// Offset of the advertisement count in a span.
fn advertised_at(span: &[u32]) -> usize {
    let at = best_at(span);
    at + if span[at] == 1 { 2 } else { 1 }
}

/// The (id, provenance) pairs a span advertises.
fn advertised(span: &[u32]) -> impl Iterator<Item = (u32, Provenance)> + '_ {
    let at = advertised_at(span);
    span[at + 1..at + 1 + 2 * span[at] as usize]
        .chunks_exact(2)
        .map(|pair| (pair[0], provenance(pair[1])))
}

/// The pull engine over a hierarchy. The configuration is held as words
/// (see [`SweepEngine`]): per router, its candidates and advertisements
/// as (id, provenance) pairs around its best id.
#[derive(Clone)]
pub struct HierEngine<'a> {
    topo: &'a HierTopology,
    mode: HierMode,
    policy: SelectionPolicy,
    /// Every injected exit path, sorted by id: the path an encoded id
    /// names.
    paths: Vec<ExitPathRef>,
    /// Each router's own exits, sorted by id.
    my_exits: Vec<Vec<ExitPathRef>>,
    /// Each router's peers, and the session kind to each from the
    /// router's view.
    peers: Vec<Vec<RouterId>>,
    kinds: Vec<Vec<SessionKind>>,
    words: Vec<u32>,
}

impl<'a> HierEngine<'a> {
    /// Create with injected exits (paper selection policy).
    ///
    /// # Panics
    ///
    /// Panics on an exit point out of range or a duplicate exit id.
    pub fn new(topo: &'a HierTopology, mode: HierMode, exits: Vec<ExitPathRef>) -> Self {
        let n = topo.len();
        let mut my_exits = vec![Vec::new(); n];
        for p in &exits {
            assert!(p.exit_point().index() < n, "exit point out of range");
            my_exits[p.exit_point().index()].push(p.clone());
        }
        for own in &mut my_exits {
            own.sort_by_key(|p: &ExitPathRef| p.id());
        }
        let mut paths = exits;
        paths.sort_by_key(|p| p.id());
        assert!(
            paths.windows(2).all(|w| w[0].id() != w[1].id()),
            "duplicate exit path id"
        );
        let (peers, kinds) = topo
            .routers()
            .map(|u| topo.peers(u).into_iter().unzip())
            .unzip();
        let mut engine = Self {
            topo,
            mode,
            policy: SelectionPolicy::PAPER,
            paths,
            my_exits,
            peers,
            kinds,
            words: Vec::new(),
        };
        for u in topo.routers() {
            NodeState {
                possible: engine.own(u),
                best: None,
                advertised: Vec::new(),
            }
            .encode(&mut engine.words);
        }
        engine
    }

    /// Best exit at a router.
    pub fn best_exit(&self, u: RouterId) -> Option<ExitPathId> {
        let span = spans::<Self>(&self.words).nth(u.index());
        Self::best(span.expect("router in range"))
    }

    /// The exit path an encoded id names.
    fn path(&self, id: u32) -> &ExitPathRef {
        let at = self
            .paths
            .binary_search_by_key(&id, |p| p.id().raw())
            .expect("encoded ids name injected exits");
        &self.paths[at]
    }

    /// `u`'s own exits, held as E-BGP routes.
    fn own(&self, u: RouterId) -> BTreeMap<ExitPathId, Held> {
        self.my_exits[u.index()]
            .iter()
            .map(|p| {
                let held = Held {
                    path: p.clone(),
                    provenance: Provenance::Own,
                    learned_from: p.next_hop().bgp_id(),
                };
                (p.id(), held)
            })
            .collect()
    }

    fn compute_update(&self, u: RouterId, inputs: &[u32]) -> NodeState {
        let mut gathered = self.own(u);
        let mut rest = inputs;
        for (&v, &kind_from_u) in self.peers[u.index()].iter().zip(&self.kinds[u.index()]) {
            let (span, tail) = rest.split_at(Self::span_len(rest));
            rest = tail;
            let sender = self.topo.bgp_id(v);
            let incoming_provenance = if kind_from_u == SessionKind::Down {
                Provenance::FromClient
            } else {
                Provenance::FromNonClient
            };
            // Sessions are symmetric: `v`'s view of this one is the flip.
            let kind_from_v = kind_from_u.flipped();
            for (id, provenance) in advertised(span) {
                let path = self.path(id);
                let to_client = kind_from_v == SessionKind::Down;
                if !may_offer(provenance, to_client, path.exit_point() == u) {
                    continue;
                }
                let candidate = Held {
                    path: path.clone(),
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
    fn routers(&self) -> usize {
        self.topo.len()
    }

    fn words(&self) -> &[u32] {
        &self.words
    }

    fn set_words(&mut self, words: Vec<u32>) {
        self.words = words;
    }

    fn inputs(&self, u: RouterId) -> &[RouterId] {
        &self.peers[u.index()]
    }

    /// Rebuild `u`'s candidates from its own exits and what each peer
    /// may offer it. A peer's span records each advertised route as (id,
    /// provenance) — all the offer rule reads, since the receiver
    /// re-stamps `learned_from` — so the spans determine the update.
    fn update(&self, u: RouterId, inputs: &[u32], out: &mut Vec<u32>) {
        self.compute_update(u, inputs).encode(out);
    }

    fn span_len(words: &[u32]) -> usize {
        let at = advertised_at(words);
        at + 1 + 2 * words[at] as usize
    }

    fn best(span: &[u32]) -> Option<ExitPathId> {
        let at = best_at(span);
        (span[at] == 1).then(|| ExitPathId::new(span[at + 1]))
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
        // Structural check of the offer rule itself, as the engine asks
        // it: `to_client` is a `Down` session from the sender.
        let path = exit(9, 1, 0, 3);
        let down_from_1 = |u: u32| topo.session(r(1), r(u)) == Some(SessionKind::Down);
        let to_exit_point = |u: u32| path.exit_point() == r(u);
        assert!(
            !may_offer(Provenance::FromNonClient, down_from_1(0), to_exit_point(0)),
            "non-client routes stay down"
        );
        assert!(may_offer(
            Provenance::FromNonClient,
            down_from_1(2),
            to_exit_point(2)
        ));
    }

    #[test]
    fn never_offered_back_to_the_exit_point() {
        let spec = ClusterSpec::flat(0, [1]);
        let topo = crate::topology::HierTopology::new(chain(2), vec![spec]).unwrap();
        let kind = topo.session(r(0), r(1)).expect("a session");
        let path = exit(1, 1, 0, 1);
        assert!(!may_offer(
            Provenance::FromClient,
            kind == SessionKind::Down,
            path.exit_point() == r(1)
        ));
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
