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
use crate::topology::{ConfedTopology, SubAsId};
use ibgp_proto::selection::{choose_set, MedMode};
use ibgp_sim::engine::spans;
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

/// One router's state as an update builds it, before it is encoded.
struct NodeState {
    /// Candidate announcements, keyed by exit-path id.
    possible: BTreeMap<ExitPathId, Announcement>,
    best: Option<Announcement>,
    advertised: Vec<Announcement>,
}

impl NodeState {
    /// The router's span: each candidate as (id, visited sub-ASes,
    /// source), the best id (`0` for none, `1, id` otherwise), and each
    /// advertisement as (id, visited sub-ASes), every list
    /// length-prefixed.
    fn encode(&self, out: &mut Vec<u32>) {
        let visited = |a: &Announcement, out: &mut Vec<u32>| {
            out.push(a.visited.len() as u32);
            out.extend(a.visited.iter().map(|s| s.0));
        };
        out.push(self.possible.len() as u32);
        for a in self.possible.values() {
            out.push(a.id().raw());
            visited(a, out);
            out.push(a.source as u32);
        }
        match &self.best {
            Some(a) => out.extend([1, a.id().raw()]),
            None => out.push(0),
        }
        out.push(self.advertised.len() as u32);
        for a in &self.advertised {
            out.push(a.id().raw());
            visited(a, out);
        }
    }
}

/// Offset of the best-id flag in a span: past the candidate list, whose
/// entries are (id, visited length, visited..., source).
fn best_at(span: &[u32]) -> usize {
    let mut at = 1;
    for _ in 0..span[0] {
        at += 3 + span[at + 1] as usize;
    }
    at
}

/// Offset of the advertisement count in a span.
fn advertised_at(span: &[u32]) -> usize {
    let at = best_at(span);
    at + if span[at] == 0 { 1 } else { 2 }
}

/// One router's span, read back: its candidates as (id, visited,
/// source) and its advertisements as (id, visited).
struct Span<'w> {
    candidates: Vec<(u32, &'w [u32], RouteSource)>,
    advertised: Vec<(u32, &'w [u32])>,
}

impl<'w> Span<'w> {
    fn read(span: &'w [u32]) -> Self {
        let mut candidates = Vec::new();
        let mut at = 1;
        for _ in 0..span[0] {
            let (id, len) = (span[at], span[at + 1] as usize);
            let source = match span[at + 2 + len] {
                0 => RouteSource::Ebgp,
                1 => RouteSource::ConfedEbgp,
                2 => RouteSource::Ibgp,
                other => unreachable!("route source word {other}"),
            };
            candidates.push((id, &span[at + 2..at + 2 + len], source));
            at += 3 + len;
        }
        let mut advertised = Vec::new();
        let mut at = advertised_at(span);
        let count = span[at];
        at += 1;
        for _ in 0..count {
            let (id, len) = (span[at], span[at + 1] as usize);
            advertised.push((id, &span[at + 2..at + 2 + len]));
            at += 2 + len;
        }
        Self {
            candidates,
            advertised,
        }
    }
}

/// The confederation pull engine. The configuration is held as words
/// (see [`SweepEngine`]): per router, its candidates with their visited
/// sub-ASes and source, its best id, and its advertisements.
#[derive(Clone)]
pub struct ConfedEngine<'a> {
    topo: &'a ConfedTopology,
    mode: ConfedMode,
    med_mode: MedMode,
    /// Every injected exit path, sorted by id: the path an encoded id
    /// names.
    paths: Vec<ExitPathRef>,
    /// Each router's own exits, sorted by id.
    my_exits: Vec<Vec<ExitPathRef>>,
    /// Each router's BGP peers: its sub-AS mesh plus its confed links.
    peers: Vec<Vec<RouterId>>,
    words: Vec<u32>,
}

impl<'a> ConfedEngine<'a> {
    /// Create with the given injected exits (standard MED semantics).
    ///
    /// # Panics
    ///
    /// Panics on an exit point out of range or a duplicate exit id.
    pub fn new(topo: &'a ConfedTopology, mode: ConfedMode, exits: Vec<ExitPathRef>) -> Self {
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
        let mut engine = Self {
            topo,
            mode,
            med_mode: MedMode::PerNeighborAs,
            paths,
            my_exits,
            peers: topo.routers().map(|u| topo.peers(u)).collect(),
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

    /// Override the MED comparison mode (default: per-neighbor-AS).
    pub fn set_med_mode(&mut self, mode: MedMode) {
        self.med_mode = mode;
    }

    /// The best exit id at a router.
    pub fn best_exit(&self, u: RouterId) -> Option<ExitPathId> {
        Self::best(self.span(u))
    }

    /// `u`'s span in the current configuration.
    fn span(&self, u: RouterId) -> &[u32] {
        spans::<Self>(&self.words)
            .nth(u.index())
            .expect("router in range")
    }

    /// The exit path an encoded id names.
    fn path(&self, id: u32) -> &ExitPathRef {
        let at = self
            .paths
            .binary_search_by_key(&id, |p| p.id().raw())
            .expect("encoded ids name injected exits");
        &self.paths[at]
    }

    /// `u`'s own exits, as E-BGP announcements.
    fn own(&self, u: RouterId) -> BTreeMap<ExitPathId, Announcement> {
        self.my_exits[u.index()]
            .iter()
            .map(|p| (p.id(), Announcement::own(p.clone())))
            .collect()
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

    /// What `v`, a peer of `u`, offers `u`, read from `v`'s span: over
    /// I-BGP within their sub-AS, across a confed link otherwise.
    ///
    /// An advertisement is encoded as (id, visited): its `source` is that
    /// of `v`'s candidate with the same id (every advertised
    /// announcement is a clone of a candidate), and its `learned_from` is
    /// not encoded at all, because the receiver re-stamps it. The decoded
    /// announcement therefore carries the sender's own id there.
    fn offers(&self, v: RouterId, u: RouterId, span: &[u32]) -> Vec<Announcement> {
        let same = self.topo.same_sub_as(v, u);
        let sender = self.topo.bgp_id(v);
        let node = Span::read(span);
        node.advertised
            .iter()
            .filter_map(|&(id, visited)| {
                let source = node
                    .candidates
                    .iter()
                    .find(|c| c.0 == id)
                    .map(|c| c.2)
                    .expect("an advertisement is one of the sender's candidates");
                let a = Announcement {
                    path: self.path(id).clone(),
                    visited: visited.iter().map(|&s| SubAsId(s)).collect(),
                    source,
                    learned_from: sender,
                };
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

    fn compute_update(&self, u: RouterId, inputs: &[u32]) -> NodeState {
        let mut gathered = self.own(u);
        let mut rest = inputs;
        for &v in &self.peers[u.index()] {
            let (span, tail) = rest.split_at(Self::span_len(rest));
            rest = tail;
            for a in self.offers(v, u, span) {
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
    /// offers it (see `ConfedEngine::offers`): the peers' spans determine
    /// every attribute the offer rule and the selection read.
    fn update(&self, u: RouterId, inputs: &[u32], out: &mut Vec<u32>) {
        self.compute_update(u, inputs).encode(out);
    }

    fn span_len(words: &[u32]) -> usize {
        let mut at = advertised_at(words);
        let count = words[at];
        at += 1;
        for _ in 0..count {
            at += 2 + words[at + 1] as usize;
        }
        at
    }

    fn best(span: &[u32]) -> Option<ExitPathId> {
        let at = best_at(span);
        (span[at] != 0).then(|| ExitPathId::new(span[at + 1]))
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
        // Router 2 received it across the confed link with sub-AS 0 listed:
        // read its best candidate back from router 2's words.
        let node = Span::read(eng.span(r(2)));
        let &(_, visited, source) = node
            .candidates
            .iter()
            .find(|c| c.0 == 1)
            .expect("exit 1 is a candidate");
        assert_eq!(visited, [SubAsId(0).0]);
        assert_eq!(source, RouteSource::ConfedEbgp);
    }

    #[test]
    fn loop_prevention_blocks_reentry() {
        // Router 0's exit goes 0 -> 1 -> 2; router 2's best cannot be
        // advertised back into sub-AS 0.
        let topo = line_confed();
        let mut eng = ConfedEngine::new(&topo, ConfedMode::SingleBest, vec![exit(1, 1, 0, 0)]);
        eng.run_round_robin(100);
        // Offers from 2 to 1: the route already visited sub0 -> dropped.
        assert!(eng.offers(r(2), r(1), eng.span(r(2))).is_empty());
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
        assert!(eng.offers(r(1), r(0), eng.span(r(1))).is_empty());
        // 1 -> 2 over the confed link: allowed (external behaviour).
        assert_eq!(eng.offers(r(1), r(2), eng.span(r(1))).len(), 1);
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
