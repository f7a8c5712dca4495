//! The synchronous confederation engine — the §4 pull model transplanted
//! onto sub-AS semantics.
//!
//! When a router activates it rebuilds its candidate set from its own
//! E-BGP exits plus what each peer currently offers:
//!
//! * an **I-BGP peer** (same sub-AS) offers its advertised announcements
//!   *except* those it learned over I-BGP itself (the classic
//!   no-re-advertise rule — confederations replace reflection with
//!   sub-AS E-BGP, not with reflection inside the mesh);
//! * a **confed-E-BGP peer** offers all its advertised announcements,
//!   each extended with the sender's sub-AS; the receiver drops any
//!   announcement that already visited the receiver's sub-AS.
//!
//! Selection follows the paper's rule ordering with the confederation
//! tiers: LOCAL-PREF, AS-PATH length, per-neighbor-AS MED, then *true*
//! E-BGP routes first, then IGP metric over confed-external and internal
//! routes alike (next-hop-unchanged deployment), then `learnedFrom`.
//!
//! [`ConfedMode::SetAdvertisement`] is the extension experiment: the
//! paper's `Choose_set` discipline applied to confederations.

use crate::announcement::{Announcement, RouteSource};
use crate::topology::ConfedTopology;
use ibgp_proto::selection::{choose_set, MedMode};
use ibgp_sim::{Engine, RoundRobin, SweepEngine, SyncOutcome};
use ibgp_types::RouterId;
use ibgp_types::{ExitPathId, ExitPathRef, IgpCost};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Advertisement discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ConfedMode {
    /// Classic single-best advertisement.
    #[default]
    SingleBest,
    /// The paper's `Choose_set` survivor set (extension experiment).
    SetAdvertisement,
}

impl fmt::Display for ConfedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfedMode::SingleBest => write!(f, "single-best"),
            ConfedMode::SetAdvertisement => write!(f, "set-advertisement"),
        }
    }
}

/// One router's state: its own exits, candidates, best, and what it
/// advertises.
#[derive(Debug, Clone)]
pub struct NodeState {
    my_exits: Vec<ExitPathRef>,
    /// Candidate announcements, keyed by exit-path id.
    possible: BTreeMap<ExitPathId, Announcement>,
    best: Option<Announcement>,
    advertised: Vec<Announcement>,
}

/// The confederation pull engine.
#[derive(Clone)]
pub struct ConfedEngine<'a> {
    topo: &'a ConfedTopology,
    mode: ConfedMode,
    med_mode: MedMode,
    nodes: Vec<NodeState>,
    time: u64,
}

impl<'a> ConfedEngine<'a> {
    /// Create with the given injected exits (standard MED semantics).
    pub fn new(topo: &'a ConfedTopology, mode: ConfedMode, exits: Vec<ExitPathRef>) -> Self {
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
                node.possible.insert(p.id(), Announcement::own(p.clone()));
            }
        }
        Self {
            topo,
            mode,
            med_mode: MedMode::PerNeighborAs,
            nodes,
            time: 0,
        }
    }

    /// Override the MED comparison mode (default: per-neighbor-AS).
    pub fn set_med_mode(&mut self, mode: MedMode) {
        self.med_mode = mode;
    }

    /// The best announcement at a router.
    pub fn best(&self, u: RouterId) -> Option<&Announcement> {
        self.nodes[u.index()].best.as_ref()
    }

    /// The best exit id at a router.
    pub fn best_exit(&self, u: RouterId) -> Option<ExitPathId> {
        self.nodes[u.index()].best.as_ref().map(Announcement::id)
    }

    /// The current candidate announcements at `u`, in exit-path-id order.
    pub fn candidates(&self, u: RouterId) -> impl Iterator<Item = &Announcement> {
        self.nodes[u.index()].possible.values()
    }

    /// The currently advertised announcements at `u`.
    pub fn advertised(&self, u: RouterId) -> &[Announcement] {
        &self.nodes[u.index()].advertised
    }

    /// Steps applied so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Select the best announcement at `u` from candidates.
    fn select(
        &self,
        u: RouterId,
        candidates: &BTreeMap<ExitPathId, Announcement>,
    ) -> Option<Announcement> {
        if candidates.is_empty() {
            return None;
        }
        // Rules 1-3 operate on exit-path attributes.
        let paths: Vec<ExitPathRef> = candidates.values().map(|a| a.path.clone()).collect();
        let survivors = choose_set(&paths, self.med_mode);
        let mut pool: Vec<&Announcement> = survivors.iter().map(|p| &candidates[&p.id()]).collect();
        // Rule 4: true E-BGP routes first.
        if pool.iter().any(|a| a.source == RouteSource::Ebgp) {
            pool.retain(|a| a.source == RouteSource::Ebgp);
        }
        // Rules 4/5: minimum IGP metric (shared IGP, next-hop-unchanged).
        let metric =
            |a: &Announcement| -> IgpCost { a.metric(self.topo.igp_cost(u, a.path.exit_point())) };
        let best_metric = pool.iter().map(|a| metric(a)).min()?;
        pool.retain(|a| metric(a) == best_metric);
        // Deterministic fallback. This must break the tie on route-level
        // attributes only: `learned_from` is copy metadata and which copy of
        // an exit path a router retains depends on activation order, so a
        // tie-break that consults it can settle on different exits under
        // different (fair) schedules. Exit-path ids are unique, so id alone
        // is a total, schedule-insensitive order.
        pool.sort_by_key(|a| a.id());
        pool.first().map(|a| (*a).clone())
    }

    /// What `v` currently offers `u`.
    fn offers(&self, v: RouterId, u: RouterId) -> Vec<Announcement> {
        let same = self.topo.same_sub_as(v, u);
        let confed = self.topo.is_confed_link(v, u);
        if !same && !confed {
            return Vec::new();
        }
        let sender = self.topo.bgp_id(v);
        self.nodes[v.index()]
            .advertised
            .iter()
            .filter_map(|a| {
                if same {
                    // I-BGP: only non-I-BGP-learned routes are offered, and
                    // never a router's own exit back to it.
                    if a.source == RouteSource::Ibgp || a.path.exit_point() == u {
                        None
                    } else {
                        Some(a.within_sub_as(sender))
                    }
                } else {
                    let out = a.across_confed_link(self.topo.sub_as(v), sender);
                    out.admissible_in(self.topo.sub_as(u)).then_some(out)
                }
            })
            .collect()
    }

    fn compute_update(&self, u: RouterId) -> NodeState {
        let cur = &self.nodes[u.index()];
        let mut gathered: BTreeMap<ExitPathId, Announcement> = BTreeMap::new();
        for p in &cur.my_exits {
            gathered.insert(p.id(), Announcement::own(p.clone()));
        }
        for v in self.topo.peers(u) {
            for a in self.offers(v, u) {
                gathered
                    .entry(a.id())
                    .and_modify(|prev| {
                        // Keep the most preferred copy: lower source tier,
                        // then lower learnedFrom, then shorter visited.
                        let better = (a.source, a.learned_from, a.visited.len())
                            < (prev.source, prev.learned_from, prev.visited.len());
                        if better {
                            *prev = a.clone();
                        }
                    })
                    .or_insert(a);
            }
        }
        let best = self.select(u, &gathered);
        let advertised = match self.mode {
            ConfedMode::SingleBest => best.clone().into_iter().collect(),
            ConfedMode::SetAdvertisement => {
                let paths: Vec<ExitPathRef> = gathered.values().map(|a| a.path.clone()).collect();
                let survivors = choose_set(&paths, self.med_mode);
                survivors
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

    /// Run under round-robin singleton activations until a verdict.
    pub fn run_round_robin(&mut self, max_steps: u64) -> SyncOutcome {
        Engine::run(self, &mut RoundRobin::new(), max_steps)
    }
}

impl SweepEngine for ConfedEngine<'_> {
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

    /// Canonical encoding for dedup and cycle detection: each candidate
    /// as (id, visited sub-ASes, source), the best id, and each
    /// advertisement as (id, visited sub-ASes), every list
    /// length-prefixed.
    fn encode(node: &NodeState, out: &mut Vec<u32>) {
        let visited = |a: &Announcement, out: &mut Vec<u32>| {
            out.push(a.visited.len() as u32);
            out.extend(a.visited.iter().map(|s| s.0));
        };
        out.push(node.possible.len() as u32);
        for a in node.possible.values() {
            out.push(a.id().raw());
            visited(a, out);
            out.push(a.source as u32);
        }
        match &node.best {
            Some(a) => out.extend([1, a.id().raw()]),
            None => out.push(0),
        }
        out.push(node.advertised.len() as u32);
        for a in &node.advertised {
            out.push(a.id().raw());
            visited(a, out);
        }
    }

    fn best(node: &NodeState) -> Option<ExitPathId> {
        node.best.as_ref().map(Announcement::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SubAsId;
    use ibgp_topology::PhysicalGraph;
    use ibgp_types::{AsId, ExitPath, Med};
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

    /// Two sub-ASes in a line: {0,1} and {2}; confed link 1–2. The 0–1
    /// link costs 2 so that router 1 is strictly closer to router 2.
    fn line_confed() -> ConfedTopology {
        let mut g = PhysicalGraph::new(3);
        g.add_link(r(0), r(1), ibgp_types::IgpCost::new(2)).unwrap();
        g.add_link(r(1), r(2), ibgp_types::IgpCost::new(1)).unwrap();
        ConfedTopology::new(
            g,
            vec![SubAsId(0), SubAsId(0), SubAsId(1)],
            vec![(r(1), r(2))],
        )
        .unwrap()
    }

    #[test]
    fn single_exit_crosses_the_confederation() {
        let topo = line_confed();
        let mut eng = ConfedEngine::new(&topo, ConfedMode::SingleBest, vec![exit(1, 1, 0, 0)]);
        let out = eng.run_round_robin(100);
        assert!(out.converged(), "{out}");
        for u in 0..3 {
            assert_eq!(eng.best_exit(r(u)), Some(ExitPathId::new(1)), "router {u}");
        }
        // Router 2 received it across the confed link with sub-AS 0 listed.
        let a = eng.best(r(2)).unwrap();
        assert_eq!(a.visited, vec![SubAsId(0)]);
        assert_eq!(a.source, RouteSource::ConfedEbgp);
    }

    #[test]
    fn loop_prevention_blocks_reentry() {
        // Router 0's exit goes 0 -> 1 -> 2; router 2's best cannot be
        // advertised back into sub-AS 0.
        let topo = line_confed();
        let mut eng = ConfedEngine::new(&topo, ConfedMode::SingleBest, vec![exit(1, 1, 0, 0)]);
        eng.run_round_robin(100);
        // Offers from 2 to 1: the route already visited sub0 -> dropped.
        assert!(eng.offers(r(2), r(1)).is_empty());
    }

    #[test]
    fn ibgp_learned_routes_are_not_reannounced_within_the_mesh() {
        // Router 1 learns router 0's exit via I-BGP; it must not offer it
        // to other I-BGP members (here there are none besides 0 itself —
        // check the own-exit suppression too).
        let topo = line_confed();
        let mut eng = ConfedEngine::new(&topo, ConfedMode::SingleBest, vec![exit(1, 1, 0, 0)]);
        eng.run_round_robin(100);
        // 1 -> 0 over I-BGP: 1's best was learned over I-BGP -> nothing.
        assert!(eng.offers(r(1), r(0)).is_empty());
        // 1 -> 2 over the confed link: allowed (external behaviour).
        assert_eq!(eng.offers(r(1), r(2)).len(), 1);
    }

    #[test]
    fn ebgp_tier_beats_confed_routes() {
        // Router 2 has its own exit and also hears router 0's; it keeps
        // its own (rule 4) even though the metric is equal.
        let topo = line_confed();
        let mut eng = ConfedEngine::new(
            &topo,
            ConfedMode::SingleBest,
            vec![exit(1, 1, 0, 0), exit(2, 2, 0, 2)],
        );
        let out = eng.run_round_robin(200);
        assert!(out.converged(), "{out}");
        assert_eq!(eng.best_exit(r(2)), Some(ExitPathId::new(2)));
        // Router 1 picks by metric between the two learned routes:
        // distance 2 to exit 1's point, 1 to exit 2's point -> exit 2.
        assert_eq!(eng.best_exit(r(1)), Some(ExitPathId::new(2)));
        // Router 0 keeps its own E-BGP route (rule 4).
        assert_eq!(eng.best_exit(r(0)), Some(ExitPathId::new(1)));
    }

    #[test]
    fn med_hiding_works_across_sub_ases() {
        // Exit 1 (AS2, MED 5) in sub1 hides exit 2 (AS2, MED 10) in sub0
        // at any router that sees both.
        let topo = line_confed();
        let mut eng = ConfedEngine::new(
            &topo,
            ConfedMode::SingleBest,
            vec![exit(2, 2, 10, 0), exit(1, 2, 5, 2)],
        );
        let out = eng.run_round_robin(200);
        assert!(out.converged(), "{out}");
        // Router 1 sees both: MED hides exit 2, so it must use exit 1.
        assert_eq!(eng.best_exit(r(1)), Some(ExitPathId::new(1)));
        // Rule 3 runs *before* the E-BGP preference: once exit 1 reaches
        // router 0 it hides router 0's own exit 2, so even the exit's
        // owner routes via the remote sub-AS — the MED-hiding effect the
        // whole paper is about.
        assert_eq!(eng.best_exit(r(0)), Some(ExitPathId::new(1)));
    }
}
