//! Loop prevention as a sweep rule.
//!
//! [`LpEngine`] is what the reachability search expands under loop
//! prevention: the message-level reflection mechanics of
//! [`SyncEngine::set_loop_prevention`] (ORIGINATOR_ID, CLUSTER_LIST,
//! SSLD, the reflect-to-whom matrix) stated as a [`SweepEngine`] rule, so
//! the search plans its states with the same memoized
//! [`SweepPlanner`](crate::SweepPlanner) as the confederation and
//! hierarchy engines. A router's span is its
//! [`NodeStateKey`](crate::signature::NodeStateKey) written as words:
//!
//! ```text
//! [ #possible, possible ids…, best id + 1 (0 = none),
//!   #advertised, (id, from + 1 (0 = own route), #cluster-list, cluster ids…)… ]
//! ```
//!
//! A router's update reads exactly its peers' advertised entries, each
//! with the attributes of the peer's stored copy, so its next span is a
//! pure function of their spans. The update is the one the simulation
//! engine runs (`sync::reflect_update`), and [`SweepEngine::sends`]
//! counts messages as [`SyncEngine::step`] does, so a search reports the
//! same counters either engine would.

use crate::engine::SweepEngine;
use crate::sync::{reflect_update, reflected_ids, NodeState, SyncEngine};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_proto::RrAttrs;
use ibgp_topology::Topology;
use ibgp_types::{ExitPathId, ExitPathRef, RouterId};

/// The loop-prevention update rule over words (see the module docs for
/// the span layout).
pub struct LpEngine<'a> {
    topo: &'a Topology,
    config: ProtocolConfig,
    /// Every injected exit path, sorted by id: the path an encoded id
    /// names.
    paths: Vec<ExitPathRef>,
    /// Each router's own exits, sorted by id.
    my_exits: Vec<Vec<ExitPathRef>>,
    /// `Topology::ibgp().peers(u)` per router.
    peers: Vec<Vec<RouterId>>,
    words: Vec<u32>,
}

/// Offset of the best word in a span.
fn best_at(span: &[u32]) -> usize {
    1 + span[0] as usize
}

/// The advertised entries at the start of `span`'s advertisement list:
/// (id, the peer the stored copy was learned from, its CLUSTER_LIST).
fn advertised(span: &[u32]) -> impl Iterator<Item = (u32, Option<RouterId>, &[u32])> {
    let at = best_at(span) + 1;
    let mut rest = &span[at + 1..];
    (0..span[at]).map(move |_| {
        let len = rest[2] as usize;
        let (entry, tail) = rest.split_at(3 + len);
        rest = tail;
        (
            entry[0],
            entry[1].checked_sub(1).map(RouterId::new),
            &entry[3..],
        )
    })
}

/// Append `row`'s span to `out`.
fn encode(row: &NodeState, out: &mut Vec<u32>) {
    out.push(row.possible.len() as u32);
    out.extend(row.possible.iter().map(|p| p.id().raw()));
    out.push(row.best.as_ref().map_or(0, |r| r.exit_id().raw() + 1));
    out.push(row.advertised.len() as u32);
    for p in &row.advertised {
        let a = &row.attrs[&p.id()];
        out.extend([
            p.id().raw(),
            a.from.map_or(0, |v| v.raw() + 1),
            a.cluster_list.len() as u32,
        ]);
        out.extend(a.cluster_list.iter().map(|c| c.raw()));
    }
}

impl<'a> LpEngine<'a> {
    /// The rule for `topo` under `config` with loop prevention, at
    /// `config(0)`: every router holds its own exits, has no best route,
    /// and advertises nothing.
    ///
    /// # Panics
    ///
    /// Panics on the scenario construction errors [`SyncEngine::new`]
    /// rejects: an exit point out of range, a duplicate or reserved exit
    /// id.
    pub fn new(topo: &'a Topology, config: ProtocolConfig, exits: Vec<ExitPathRef>) -> Self {
        let engine = SyncEngine::new(topo, config, exits);
        let my_exits: Vec<Vec<ExitPathRef>> = topo
            .routers()
            .map(|u| engine.my_exits(u).to_vec())
            .collect();
        let mut paths: Vec<ExitPathRef> = my_exits.iter().flatten().cloned().collect();
        paths.sort_by_key(|p| p.id());
        let mut words = Vec::new();
        for own in &my_exits {
            words.push(own.len() as u32);
            words.extend(own.iter().map(|p| p.id().raw()));
            words.extend([0, 0]);
        }
        Self {
            topo,
            config,
            paths,
            my_exits,
            peers: topo.routers().map(|u| topo.ibgp().peers(u)).collect(),
            words,
        }
    }

    /// The exit path an encoded id names.
    fn path(&self, id: u32) -> &ExitPathRef {
        let at = self
            .paths
            .binary_search_by_key(&id, |p| p.id().raw())
            .expect("encoded ids name injected exits");
        &self.paths[at]
    }

    /// The ids `u` offers peer `v` from the advertisement list of `span`.
    fn offered(&self, u: RouterId, v: RouterId, span: &[u32]) -> Vec<ExitPathId> {
        let entries = advertised(span).map(|(id, from, _)| (self.path(id), from));
        reflected_ids(self.topo, u, v, entries)
    }
}

impl SweepEngine for LpEngine<'_> {
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

    fn update(&self, u: RouterId, inputs: &[u32], out: &mut Vec<u32>) {
        let mut rest = inputs;
        let held: Vec<Vec<(ExitPathRef, RrAttrs)>> = self.peers[u.index()]
            .iter()
            .map(|_| {
                let (span, tail) = rest.split_at(Self::span_len(rest));
                rest = tail;
                advertised(span)
                    .map(|(id, from, list)| {
                        let cluster_list = list.iter().map(|&c| RouterId::new(c)).collect();
                        (self.path(id).clone(), RrAttrs { from, cluster_list })
                    })
                    .collect()
            })
            .collect();
        let row = reflect_update(
            self.topo,
            self.config,
            u,
            &self.my_exits[u.index()],
            &self.peers[u.index()],
            |i| held[i].iter().map(|(p, a)| (p, a)),
        );
        encode(&row, out);
    }

    fn span_len(words: &[u32]) -> usize {
        let at = best_at(words) + 1;
        let mut end = at + 1;
        for _ in 0..words[at] {
            end += 3 + words[end + 2] as usize;
        }
        end
    }

    fn best(span: &[u32]) -> Option<ExitPathId> {
        span[best_at(span)].checked_sub(1).map(ExitPathId::new)
    }

    /// Push-on-change, as [`SyncEngine::step`] counts it: when the
    /// advertised ids change, one message to every peer whose filtered
    /// view of them changed, carrying that whole view.
    fn sends(&self, u: RouterId, current: &[u32], next: &[u32]) -> (u64, u64) {
        let ids = |span| advertised(span).map(|(id, _, _)| id);
        if ids(current).eq(ids(next)) {
            return (0, 0);
        }
        let mut sent = (0, 0);
        for &v in &self.peers[u.index()] {
            let after = self.offered(u, v, next);
            if self.offered(u, v, current) != after {
                sent.0 += 1;
                sent.1 += after.len() as u64;
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Activation, RoundRobin};
    use crate::engine::spans;
    use ibgp_topology::TopologyBuilder;
    use ibgp_types::{AsId, ExitPath, Med};
    use std::sync::Arc;

    fn r(i: u32) -> RouterId {
        RouterId::new(i)
    }

    fn exit(id: u32, next_as: u32, med: u32, exit_point: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(next_as))
                .med(Med::new(med))
                .exit_point(r(exit_point))
                .build_unchecked(),
        )
    }

    /// A redundantly reflected cluster {0, 1 -> 2} next to {3 -> 4}: the
    /// shape where loop prevention differs from `Transfer`.
    fn redundant() -> (Topology, Vec<ExitPathRef>) {
        let topo = TopologyBuilder::new(5)
            .link(4, 0, 6)
            .link(4, 3, 6)
            .link(0, 1, 8)
            .link(0, 2, 4)
            .cluster([0, 1], [2])
            .cluster([3], [4])
            .build()
            .unwrap();
        let exits = vec![
            exit(1, 1, 5, 4),
            exit(2, 2, 4, 4),
            exit(3, 2, 2, 2),
            exit(4, 2, 5, 4),
        ];
        (topo, exits)
    }

    /// Every span of `words` is the simulation engine's node key written
    /// as words.
    fn assert_spans_encode(words: &[u32], sync: &SyncEngine, label: &str) {
        let key = sync.state_key(0);
        let spans: Vec<&[u32]> = spans::<LpEngine>(words).collect();
        assert_eq!(spans.len(), key.nodes.len(), "{label}");
        for (u, (span, node)) in spans.iter().zip(&key.nodes).enumerate() {
            let mut want = vec![node.possible.len() as u32];
            want.extend(node.possible.iter().map(|id| id.raw()));
            want.push(node.best.map_or(0, |id| id.raw() + 1));
            want.push(node.advertised.len() as u32);
            let mut rr = node.rr.iter();
            for id in &node.advertised {
                want.push(id.raw());
                let (from, len) = (*rr.next().unwrap(), *rr.next().unwrap());
                want.extend([from, len]);
                want.extend(rr.by_ref().take(len as usize));
            }
            assert_eq!(*span, &want[..], "{label}: router {u}");
        }
    }

    /// Stepped side by side, the rule and the simulation engine hold the
    /// same configuration, agree on stability, and count the same
    /// activations, best changes, messages and paths.
    #[test]
    fn steps_like_the_loop_prevention_engine() {
        let (topo, exits) = redundant();
        for config in [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ] {
            let lp = LpEngine::new(&topo, config, exits.clone());
            let mut sync = SyncEngine::new(&topo, config, exits.clone());
            sync.set_loop_prevention(true);
            let mut planner = crate::SweepPlanner::new(&lp);
            let mut schedule = RoundRobin::new();
            let (mut words, mut next) = (lp.words().to_vec(), Vec::new());
            for step in 0..30 {
                let label = format!("{config:?} step {step}");
                assert_spans_encode(&words, &sync, &label);
                let set = if step % 4 == 3 {
                    (0..5).map(r).collect()
                } else {
                    schedule.next_set(5)
                };
                assert_eq!(planner.plan(&words), sync.step(&set), "{label}");
                planner.successor_into(&set, &mut next);
                std::mem::swap(&mut words, &mut next);
                let (a, b) = (planner.metrics(), sync.metrics());
                assert_eq!(a.activations, b.activations, "{label}");
                assert_eq!(a.best_changes, b.best_changes, "{label}");
                assert_eq!(a.messages, b.messages, "{label}");
                assert_eq!(a.paths_advertised, b.paths_advertised, "{label}");
                let best: Vec<_> = spans::<LpEngine>(&words).map(LpEngine::best).collect();
                assert_eq!(best, sync.best_vector(), "{label}");
            }
            assert!(planner.metrics().messages > 0, "{config:?} sends something");
        }
    }
}
