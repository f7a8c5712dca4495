//! The synchronous activation-sequence engine — the paper's operational
//! model of I-BGP (§4), extended with the modified protocol of §6 and the
//! Walton baseline of §8.
//!
//! State per node `v` at time `t`:
//!
//! * `MyExits(v)` — the E-BGP routes `v` itself knows (mutable only via
//!   explicit inject/withdraw, modeling E-BGP churn);
//! * `PossibleExits(v, t)` — the exit paths `v` can currently choose from;
//! * `BestRoute(v, t)` — `best_v(route(PossibleExits(v, t), v))`;
//! * the advertised set — what `v` offers its peers, per protocol
//!   variant: `{exit(BestRoute)}` (standard), the per-neighbor-AS vector
//!   (Walton, reflectors only), or `GoodExits(v, t) =
//!   Choose_set(PossibleExits(v, t))` (modified).
//!
//! When a node activates it *pulls* from every peer the transfer-filtered
//! advertised set, rebuilds `PossibleExits` from scratch (union with
//! `MyExits` — withdrawal is implicit), recomputes its best route, and
//! refreshes its advertised set. Nodes activated in the same step all read
//! the pre-step state, so simultaneous activations model simultaneous
//! message exchange (this is what drives the Fig 2 oscillation).
//!
//! # The incremental engine
//!
//! Node updates are *memoized*: `u`'s post-activation state is a pure
//! function of `(u, MyExits(u), peers' advertised sets)` given the fixed
//! topology and protocol configuration, so the engine caches computed
//! updates keyed by that input signature and shares the resulting rows
//! behind [`Arc`]s. This makes two hot paths cheap:
//!
//! * **Stability folds into the step.** [`SyncEngine::step`] computes every
//!   node's update once per step (cache-hitting where inputs are
//!   unchanged), derives both the transition *and* the fixed-point check
//!   from that single pass, and returns whether the pre-step configuration
//!   was stable. [`SyncEngine::is_stable`] shares the same cache, so
//!   `run()`-style `is_stable` + `step` loops compute each update at most
//!   once per step.
//! * **Message accounting reuses per-state transfer sets.** Each state
//!   carries the transfer-filtered ids it offers every peer, computed once
//!   when the state is first built rather than twice per peer per step.
//!
//! The reachability search does not step this engine: it expands encoded
//! keys with [`crate::flat::FlatEngine`] (the paper's `Transfer`
//! relation) or with [`crate::lp::LpEngine`] under loop prevention. Both
//! compute a router's update with the same free functions this engine
//! does (`transfer_update`, `reflect_update`).
//!
//! Cache-key soundness: within one engine, exit-path ids uniquely identify
//! the paths (enforced at construction and on inject), and the cache is
//! flushed on `inject`/`withdraw`, where that binding could change. The
//! unmemoized reference path stays available through
//! [`SyncEngine::set_memoized`] and is exercised by the equivalence tests.

use crate::engine::Engine;
use crate::flat::{hash_words, FlatEngine, FlatKey, StateCodec};
use crate::metrics::Metrics;
use crate::signature::{NodeStateKey, StateKey};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_proto::{
    choose_best, choose_set, cluster_loop, reflect_allowed, route_at, stamp_cluster_list,
    transfer_set, walton_advertised_set, ProtocolVariant, RrAttrs,
};
use ibgp_topology::Topology;
use ibgp_types::{BgpId, ExitPathId, ExitPathRef, Route, RouterId};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

// The reachability explorer ships keys between worker threads and
// shares the topology behind `&`; keep the cross-thread contracts
// explicit so a future `Rc`/`Cell` in a row type fails to compile here
// rather than at a distant spawn site. (`SyncEngine` itself is `Send`
// but deliberately not `Sync` — the update memo uses `RefCell`.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<StateKey>();
    assert_send_sync::<FlatKey>();
    assert_send_sync::<StateCodec>();
    assert_send_sync::<Metrics>();
    assert_send::<SyncEngine<'_>>();
    assert_send::<FlatEngine<'_>>();
};

/// The result of a bounded sync-engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncOutcome {
    /// The configuration reached a stable state (a fixed point of the full
    /// activation step) after the given number of steps.
    Converged {
        /// Steps taken before stability held.
        steps: u64,
    },
    /// The execution revisited a `(state, phase)` pair: it is provably
    /// periodic and will oscillate forever under this schedule.
    Cycle {
        /// Step at which the repeated state was first seen.
        first_seen: u64,
        /// Cycle length in steps.
        period: u64,
    },
    /// The step budget ran out without stability or a provable cycle
    /// (possible under aperiodic schedules).
    Budget {
        /// Steps taken.
        steps: u64,
    },
}

impl SyncOutcome {
    /// True for [`SyncOutcome::Converged`].
    pub fn converged(&self) -> bool {
        matches!(self, SyncOutcome::Converged { .. })
    }

    /// True for [`SyncOutcome::Cycle`].
    pub fn cycled(&self) -> bool {
        matches!(self, SyncOutcome::Cycle { .. })
    }
}

impl fmt::Display for SyncOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncOutcome::Converged { steps } => write!(f, "converged after {steps} steps"),
            SyncOutcome::Cycle { first_seen, period } => {
                write!(f, "cycle of period {period} entered at step {first_seen}")
            }
            SyncOutcome::Budget { steps } => write!(f, "no decision within {steps} steps"),
        }
    }
}

/// One node's state — an immutable row shared behind an [`Arc`] between
/// the live configuration and the update memo.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    my_exits: Vec<ExitPathRef>,
    pub(crate) possible: Vec<ExitPathRef>,
    /// `learnedFrom` per possible exit path.
    learned: BTreeMap<ExitPathId, BgpId>,
    pub(crate) best: Option<Route>,
    pub(crate) advertised: Vec<ExitPathRef>,
    /// Transfer-filtered advertised ids offered to each I-BGP peer, in
    /// `Topology::ibgp().peers(u)` order — computed once per distinct
    /// state so message accounting needn't re-filter on every step.
    outgoing: Vec<Vec<ExitPathId>>,
    /// Reflection attributes per possible path (loop-prevention mode
    /// only; empty otherwise). Peers read the entries of *advertised*
    /// paths when gathering; the rest ride along for inspection.
    pub(crate) attrs: BTreeMap<ExitPathId, RrAttrs>,
}

impl NodeState {
    fn key(&self) -> NodeStateKey {
        // Attribute words for the advertised paths only: peers read
        // exactly (advertised set, its attributes), so keys of this
        // granularity determine all future transitions — differing
        // attributes on *unadvertised* paths cannot influence anyone.
        let mut rr = Vec::new();
        for p in &self.advertised {
            if let Some(a) = self.attrs.get(&p.id()) {
                rr.push(a.from.map_or(0, |v| v.raw() + 1));
                rr.push(a.cluster_list.len() as u32);
                rr.extend(a.cluster_list.iter().map(|c| c.raw()));
            }
        }
        NodeStateKey {
            possible: self.possible.iter().map(|p| p.id()).collect(),
            best: self.best.as_ref().map(Route::exit_id),
            advertised: self.advertised.iter().map(|p| p.id()).collect(),
            rr,
        }
    }

    /// Write this row's block under `codec` into `out` — how the flat
    /// engine stores a computed update.
    pub(crate) fn encode_into(&self, codec: &StateCodec, out: &mut [u32]) {
        codec.encode_node_into(
            self.possible.iter().map(|p| p.id()),
            self.best.as_ref().map(Route::exit_id),
            self.advertised.iter().map(|p| p.id()),
            out,
        );
    }
}

/// Memoized node updates: digest of the input signature → rows, with the
/// exact flat key kept to rule out collisions.
type UpdateMemo = HashMap<u64, Vec<(Box<[u32]>, Arc<NodeState>)>>;

/// The paper's synchronous simulator.
///
/// ```
/// use ibgp_sim::{Engine, RoundRobin, SyncEngine};
/// use ibgp_proto::variants::ProtocolConfig;
/// use ibgp_topology::TopologyBuilder;
/// use ibgp_types::*;
/// use std::sync::Arc;
///
/// let topo = TopologyBuilder::new(2).link(0, 1, 1).full_mesh().build()?;
/// let exit = Arc::new(ExitPath::builder(ExitPathId::new(1))
///     .via(AsId::new(1)).exit_point(RouterId::new(0)).build_unchecked());
/// let mut engine = SyncEngine::new(&topo, ProtocolConfig::MODIFIED, vec![exit]);
/// let outcome = engine.run(&mut RoundRobin::new(), 1_000);
/// assert!(outcome.converged());
/// assert_eq!(engine.best_exit(RouterId::new(1)), Some(ExitPathId::new(1)));
/// # Ok::<(), ibgp_topology::TopologyError>(())
/// ```
pub struct SyncEngine<'a> {
    topo: &'a Topology,
    config: ProtocolConfig,
    nodes: Vec<Arc<NodeState>>,
    time: u64,
    metrics: Metrics,
    memoized: bool,
    /// Message-level reflection mechanics (ORIGINATOR_ID / CLUSTER_LIST /
    /// SSLD) instead of the paper's `Transfer` relation. See
    /// [`SyncEngine::set_loop_prevention`].
    loop_prevention: bool,
    memo: RefCell<UpdateMemo>,
    /// Reused buffer for memo-key assembly, so the memoized lookup path
    /// allocates only on a miss.
    memo_scratch: RefCell<Vec<u32>>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
}

impl Clone for SyncEngine<'_> {
    fn clone(&self) -> Self {
        Self {
            topo: self.topo,
            config: self.config,
            nodes: self.nodes.clone(),
            time: self.time,
            metrics: self.metrics,
            memoized: self.memoized,
            loop_prevention: self.loop_prevention,
            memo: RefCell::new(self.memo.borrow().clone()),
            memo_scratch: RefCell::new(Vec::new()),
            cache_hits: self.cache_hits.clone(),
            cache_misses: self.cache_misses.clone(),
        }
    }
}

impl<'a> SyncEngine<'a> {
    /// Create an engine with the given injected exit paths distributed to
    /// their exit points. `config(0)`: `PossibleExits(u, 0) = MyExits(u)`,
    /// no best route, nothing advertised.
    ///
    /// # Panics
    ///
    /// Panics if an exit path's exit point is out of range or two paths
    /// share an id — scenario construction errors.
    pub fn new(topo: &'a Topology, config: ProtocolConfig, exits: Vec<ExitPathRef>) -> Self {
        let n = topo.len();
        let mut nodes: Vec<NodeState> = (0..n)
            .map(|i| NodeState {
                my_exits: Vec::new(),
                possible: Vec::new(),
                learned: BTreeMap::new(),
                best: None,
                advertised: Vec::new(),
                outgoing: vec![Vec::new(); topo.ibgp().peers(RouterId::new(i as u32)).len()],
                attrs: BTreeMap::new(),
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for p in exits {
            assert!(
                p.exit_point().index() < n,
                "exit point {} out of range",
                p.exit_point()
            );
            assert!(seen.insert(p.id()), "duplicate exit path id {}", p.id());
            assert!(
                p.id().raw() != u32::MAX,
                "exit path id {} is reserved",
                p.id()
            );
            nodes[p.exit_point().index()].my_exits.push(p);
        }
        for node in &mut nodes {
            node.my_exits.sort_by_key(|p| p.id());
            node.possible = node.my_exits.clone();
            for p in &node.possible {
                node.learned.insert(p.id(), p.next_hop().bgp_id());
            }
        }
        Self {
            topo,
            config,
            nodes: nodes.into_iter().map(Arc::new).collect(),
            time: 0,
            metrics: Metrics::default(),
            memoized: true,
            loop_prevention: false,
            memo: RefCell::new(HashMap::new()),
            memo_scratch: RefCell::new(Vec::new()),
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The protocol configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// Current simulated time (number of steps applied).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Run metrics so far, including update-cache hit/miss counters.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics;
        m.cache_hits = self.cache_hits.get();
        m.cache_misses = self.cache_misses.get();
        m
    }

    /// Enable or disable update memoization (on by default). Off is the
    /// naive reference path that recomputes every update from scratch,
    /// which the equivalence tests compare against. Disabling also drops
    /// the cache, so re-enabling starts cold.
    pub fn set_memoized(&mut self, on: bool) {
        self.memoized = on;
        if !on {
            self.memo.borrow_mut().clear();
        }
    }

    /// Whether message-level loop prevention is on.
    pub fn loop_prevention(&self) -> bool {
        self.loop_prevention
    }

    /// Switch between the paper's `Transfer` relation (off, the default)
    /// and message-level reflection mechanics (on): ORIGINATOR_ID
    /// (derivable — the originator of `p` is `exitPoint(p)`), SSLD,
    /// CLUSTER_LIST stamping with receive-side cluster-loop detection,
    /// and the reflect-to-whom matrix keyed on whom each copy was
    /// learned from (see [`ibgp_proto::reflection`]).
    ///
    /// The two modes' rows are not interchangeable, so flip this right
    /// after construction, before any step. Drops the update memo.
    ///
    /// # Panics
    ///
    /// Panics when enabling after steps were applied.
    pub fn set_loop_prevention(&mut self, on: bool) {
        if self.loop_prevention == on {
            return;
        }
        assert!(self.time == 0, "set_loop_prevention must precede stepping");
        self.loop_prevention = on;
        self.memo.borrow_mut().clear();
        for node in &mut self.nodes {
            let row = Arc::make_mut(node);
            row.attrs.clear();
            if on {
                // config(0): every possible path is an own E-BGP route.
                for p in &row.possible {
                    row.attrs.insert(p.id(), RrAttrs::own());
                }
            }
        }
    }

    /// `BestRoute(u, now)`.
    pub fn best_route(&self, u: RouterId) -> Option<&Route> {
        self.nodes[u.index()].best.as_ref()
    }

    /// The best route's exit-path id, if any.
    pub fn best_exit(&self, u: RouterId) -> Option<ExitPathId> {
        self.nodes[u.index()].best.as_ref().map(Route::exit_id)
    }

    /// `PossibleExits(u, now)`, sorted by id.
    pub fn possible_exits(&self, u: RouterId) -> &[ExitPathRef] {
        &self.nodes[u.index()].possible
    }

    /// The currently advertised set (for the modified protocol this is
    /// `GoodExits(u, now)`), sorted by id.
    pub fn advertised(&self, u: RouterId) -> &[ExitPathRef] {
        &self.nodes[u.index()].advertised
    }

    /// `MyExits(u)`.
    pub fn my_exits(&self, u: RouterId) -> &[ExitPathRef] {
        &self.nodes[u.index()].my_exits
    }

    /// The candidate routes `route(PossibleExits(u), u)` as the decision
    /// process sees them right now — for inspection and `explain`-style
    /// tooling.
    pub fn candidate_routes(&self, u: RouterId) -> Vec<Route> {
        let node = &self.nodes[u.index()];
        node.possible
            .iter()
            .map(|p| {
                let lf = node
                    .learned
                    .get(&p.id())
                    .copied()
                    .unwrap_or_else(|| p.next_hop().bgp_id());
                route_at(self.topo, u, p, lf)
            })
            .collect()
    }

    /// ORIGINATOR_ID of a possible path at `u`: the router that learned
    /// it over E-BGP. Derivable in any mode (`exitPoint(p)`); `None` if
    /// `u` does not currently know the path.
    pub fn originator(&self, u: RouterId, id: ExitPathId) -> Option<RouterId> {
        self.nodes[u.index()]
            .possible
            .iter()
            .find(|p| p.id() == id)
            .map(|p| p.exit_point())
    }

    /// The stored CLUSTER_LIST of a possible path at `u` (loop-prevention
    /// mode; `None` if the path is unknown there).
    pub fn cluster_list(&self, u: RouterId, id: ExitPathId) -> Option<&[RouterId]> {
        self.nodes[u.index()]
            .attrs
            .get(&id)
            .map(|a| &a.cluster_list[..])
    }

    /// The I-BGP peer `u`'s stored copy of a path was learned from
    /// (`Some(None)` = `u`'s own E-BGP route; `None` = unknown path or
    /// loop prevention off).
    pub fn rr_from(&self, u: RouterId, id: ExitPathId) -> Option<Option<RouterId>> {
        self.nodes[u.index()].attrs.get(&id).map(|a| a.from)
    }

    /// The send-filtered advertisement `v` currently offers peer `u`
    /// (empty when `u` is not a peer of `v`) — what conformance
    /// assertions on reflection targets check.
    pub fn outgoing_to(&self, v: RouterId, u: RouterId) -> Vec<ExitPathId> {
        let peers = self.topo.ibgp().peers(v);
        match peers.iter().position(|&w| w == u) {
            Some(i) => self.nodes[v.index()].outgoing[i].clone(),
            None => Vec::new(),
        }
    }

    /// Inject a new E-BGP route at its exit point (E-BGP churn). Takes
    /// effect on the exit point's next activation.
    pub fn inject(&mut self, p: ExitPathRef) {
        assert!(
            p.id().raw() != u32::MAX,
            "exit path id {} is reserved",
            p.id()
        );
        let node = Arc::make_mut(&mut self.nodes[p.exit_point().index()]);
        assert!(
            node.my_exits.iter().all(|q| q.id() != p.id()),
            "duplicate exit path id {}",
            p.id()
        );
        node.my_exits.push(p);
        node.my_exits.sort_by_key(|p| p.id());
        // The id → path binding may have changed; cached rows are stale.
        self.memo.borrow_mut().clear();
    }

    /// Withdraw an E-BGP route from `MyExits` (the Lemma 7.2 scenario:
    /// the path may linger in `PossibleExits` sets until flushed).
    /// Returns whether the path was present.
    pub fn withdraw(&mut self, id: ExitPathId) -> bool {
        // A path lives in exactly one node's MyExits (ids are unique), so
        // stop at the owning exit point instead of rescanning every node.
        for i in 0..self.nodes.len() {
            if let Some(pos) = self.nodes[i].my_exits.iter().position(|p| p.id() == id) {
                Arc::make_mut(&mut self.nodes[i]).my_exits.remove(pos);
                self.memo.borrow_mut().clear();
                return true;
            }
        }
        false
    }

    /// The memo key for `u`'s next update: `u` itself, `MyExits(u)`, and
    /// every peer's advertised set, flattened to raw ids with `u32::MAX`
    /// separators (reserved — asserted at construction/inject). Under
    /// loop prevention, each advertised id is followed by its reflection
    /// attributes (`from + 1`, cluster-list length, cluster ids) — fixed
    /// per-path structure, so the encoding stays injective. Together
    /// with the fixed topology and protocol configuration these inputs
    /// fully determine [`SyncEngine::compute_update`]'s output. Written
    /// into a reused buffer so the lookup path allocates only on a miss.
    fn memo_key_into(&self, u: RouterId, key: &mut Vec<u32>) {
        let node = &self.nodes[u.index()];
        key.push(u.raw());
        for p in &node.my_exits {
            key.push(p.id().raw());
        }
        for v in self.topo.ibgp().peers(u) {
            key.push(u32::MAX);
            let peer = &self.nodes[v.index()];
            for p in &peer.advertised {
                key.push(p.id().raw());
                if self.loop_prevention {
                    let a = peer.attrs.get(&p.id());
                    key.push(a.and_then(|a| a.from).map_or(0, |w| w.raw() + 1));
                    let list = a.map_or(&[][..], |a| &a.cluster_list[..]);
                    key.push(list.len() as u32);
                    key.extend(list.iter().map(|c| c.raw()));
                }
            }
        }
    }

    /// `u`'s post-activation state, memoized on the inputs it depends on.
    fn update_row(&self, u: RouterId) -> Arc<NodeState> {
        if !self.memoized {
            return Arc::new(self.compute_update(u));
        }
        let mut scratch = self.memo_scratch.borrow_mut();
        scratch.clear();
        self.memo_key_into(u, &mut scratch);
        let digest = hash_words(&scratch);
        if let Some(bucket) = self.memo.borrow().get(&digest) {
            if let Some((_, row)) = bucket.iter().find(|(k, _)| k[..] == scratch[..]) {
                self.cache_hits.set(self.cache_hits.get() + 1);
                return Arc::clone(row);
            }
        }
        self.cache_misses.set(self.cache_misses.get() + 1);
        let row = Arc::new(self.compute_update(u));
        self.memo
            .borrow_mut()
            .entry(digest)
            .or_default()
            .push((scratch[..].into(), Arc::clone(&row)));
        row
    }

    /// Compute node `u`'s post-activation state from the current global
    /// state, without applying it. This is the naive reference path; the
    /// engine normally goes through the memoized [`SyncEngine::update_row`].
    fn compute_update(&self, u: RouterId) -> NodeState {
        let peers = self.topo.ibgp().peers(u);
        let my_exits = &self.nodes[u.index()].my_exits;
        if self.loop_prevention {
            return reflect_update(self.topo, self.config, u, my_exits, &peers, |i| {
                let peer = &self.nodes[peers[i].index()];
                peer.advertised.iter().map(|p| (p, &peer.attrs[&p.id()]))
            });
        }
        transfer_update(self.topo, self.config, u, my_exits, &peers, |i| {
            &self.nodes[peers[i].index()].advertised[..]
        })
    }

    /// Apply one activation step: every node in `set` recomputes its state
    /// from the *pre-step* global state.
    ///
    /// Every node's update is computed once (through the memo), so the
    /// fixed-point check rides along for free: the return value is whether
    /// the **pre-step** configuration was stable, i.e. activating any set
    /// of nodes — not just `set` — would have changed nothing.
    pub fn step(&mut self, set: &[RouterId]) -> bool {
        let rows: Vec<Arc<NodeState>> = self.topo.routers().map(|u| self.update_row(u)).collect();
        let stable = rows
            .iter()
            .zip(&self.nodes)
            .all(|(new, old)| Arc::ptr_eq(new, old) || new.key() == old.key());
        for &u in set {
            let new = Arc::clone(&rows[u.index()]);
            let old = &self.nodes[u.index()];
            let best_changed =
                old.best.as_ref().map(Route::exit_id) != new.best.as_ref().map(Route::exit_id);
            if best_changed {
                self.metrics.best_changes += 1;
            }
            // Push-on-change message accounting: if the advertised set
            // changed, count one message per peer whose transfer-filtered
            // view changed. Both views were precomputed with their states.
            if !Arc::ptr_eq(old, &new) && old.advertised != new.advertised {
                for (before, after) in old.outgoing.iter().zip(&new.outgoing) {
                    if before != after {
                        self.metrics.messages += 1;
                        self.metrics.paths_advertised += after.len() as u64;
                    }
                }
            }
            self.metrics.activations += 1;
            self.nodes[u.index()] = new;
        }
        self.time += 1;
        stable
    }

    /// Whether the current configuration is a fixed point: activating
    /// every node would change nothing. A fixed point is stable under
    /// *any* activation sequence. Shares the update memo with
    /// [`SyncEngine::step`], so an `is_stable` + `step` pair computes each
    /// node's update at most once.
    pub fn is_stable(&self) -> bool {
        self.topo.routers().all(|u| {
            let new = self.update_row(u);
            let old = &self.nodes[u.index()];
            Arc::ptr_eq(&new, old) || new.key() == old.key()
        })
    }

    /// Canonical state key (for cycle detection), tagged with the
    /// schedule's phase.
    pub fn state_key(&self, phase: u64) -> StateKey {
        StateKey {
            nodes: self.nodes.iter().map(|n| n.key()).collect(),
            phase,
        }
    }

    /// The vector of best exit ids, indexed by router — the "routing
    /// configuration" two runs are compared on (determinism experiments).
    pub fn best_vector(&self) -> Vec<Option<ExitPathId>> {
        self.nodes
            .iter()
            .map(|s| s.best.as_ref().map(Route::exit_id))
            .collect()
    }
}

/// `u`'s post-activation row under the paper's `Transfer` relation (no
/// loop prevention): the gather over `MyExits(u)` and every I-BGP peer's
/// transfer-filtered advertised list — `advertised(i)` for `peers[i]`,
/// with `peers` in `Topology::ibgp().peers(u)` order — then the decision
/// process and the variant's advertisement discipline. A pure function
/// of those inputs, which is what makes both engines' update memos
/// sound.
pub(crate) fn transfer_update<'p>(
    topo: &Topology,
    config: ProtocolConfig,
    u: RouterId,
    my_exits: &[ExitPathRef],
    peers: &[RouterId],
    advertised: impl Fn(usize) -> &'p [ExitPathRef],
) -> NodeState {
    // Gather: own exits plus transfer-filtered peer advertisements,
    // tracking the minimum announcing BGP id per path.
    let mut gathered: BTreeMap<ExitPathId, (ExitPathRef, BgpId)> = BTreeMap::new();
    for p in my_exits {
        gathered.insert(p.id(), (p.clone(), p.next_hop().bgp_id()));
    }
    for (i, &v) in peers.iter().enumerate() {
        let sender = topo.bgp_id(v);
        for p in transfer_set(topo, v, u, advertised(i)) {
            gathered
                .entry(p.id())
                .and_modify(|(_, lf)| {
                    // Own exits keep their external learnedFrom; I-BGP
                    // announcements take the minimum announcing peer.
                    if p.exit_point() != u {
                        *lf = (*lf).min(sender);
                    }
                })
                .or_insert((p, sender));
        }
    }
    let possible: Vec<ExitPathRef> = gathered.values().map(|(p, _)| p.clone()).collect();
    let learned: BTreeMap<ExitPathId, BgpId> =
        gathered.iter().map(|(&id, &(_, lf))| (id, lf)).collect();
    let routes: Vec<Route> = possible
        .iter()
        .map(|p| route_at(topo, u, p, learned[&p.id()]))
        .collect();
    let best = choose_best(config.policy, &routes);
    let advertised = advertised_set(topo, config, u, &possible, &routes, best.as_ref());
    let outgoing = peers
        .iter()
        .map(|&v| {
            transfer_set(topo, u, v, &advertised)
                .iter()
                .map(|p| p.id())
                .collect()
        })
        .collect();
    NodeState {
        my_exits: my_exits.to_vec(),
        possible,
        learned,
        best,
        advertised,
        outgoing,
        attrs: BTreeMap::new(),
    }
}

/// `u`'s post-activation row under message-level loop prevention: the
/// gather applies the reflect-to-whom matrix plus SSLD on the send side
/// ([`reflect_allowed`]), stamps CLUSTER_LIST on the wire, and drops
/// cluster loops on the receive side; the stored attributes follow the
/// minimum-BGP-id announcing peer (the same winner `learnedFrom`
/// tracks). `advertised(i)` yields `peers[i]`'s advertised paths, each
/// with the attributes of that peer's stored copy. A pure function of
/// those inputs, like [`transfer_update`].
pub(crate) fn reflect_update<'p, I>(
    topo: &Topology,
    config: ProtocolConfig,
    u: RouterId,
    my_exits: &[ExitPathRef],
    peers: &[RouterId],
    advertised: impl Fn(usize) -> I,
) -> NodeState
where
    I: IntoIterator<Item = (&'p ExitPathRef, &'p RrAttrs)>,
{
    use std::collections::btree_map::Entry;
    let mut gathered: BTreeMap<ExitPathId, (ExitPathRef, BgpId, RrAttrs)> = BTreeMap::new();
    for p in my_exits {
        gathered.insert(p.id(), (p.clone(), p.next_hop().bgp_id(), RrAttrs::own()));
    }
    for (i, &v) in peers.iter().enumerate() {
        let sender = topo.bgp_id(v);
        for (p, stored) in advertised(i) {
            if !reflect_allowed(topo, v, u, p.exit_point(), stored.from) {
                continue;
            }
            let wire = stamp_cluster_list(v, p.exit_point(), &stored.cluster_list);
            if cluster_loop(u, &wire) {
                continue;
            }
            // SSLD already blocked exitPoint(p) = u, so every arrival is
            // a genuine I-BGP announcement: minimum announcing id wins,
            // and the stored attributes follow the winner.
            match gathered.entry(p.id()) {
                Entry::Occupied(mut e) => {
                    let (_, lf, a) = e.get_mut();
                    if sender < *lf {
                        *lf = sender;
                        *a = RrAttrs::learned(v, wire);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert((p.clone(), sender, RrAttrs::learned(v, wire)));
                }
            }
        }
    }
    let possible: Vec<ExitPathRef> = gathered.values().map(|(p, _, _)| p.clone()).collect();
    let learned: BTreeMap<ExitPathId, BgpId> =
        gathered.iter().map(|(&id, &(_, lf, _))| (id, lf)).collect();
    let attrs: BTreeMap<ExitPathId, RrAttrs> = gathered
        .into_iter()
        .map(|(id, (_, _, a))| (id, a))
        .collect();
    let routes: Vec<Route> = possible
        .iter()
        .map(|p| route_at(topo, u, p, learned[&p.id()]))
        .collect();
    let best = choose_best(config.policy, &routes);
    let advertised = advertised_set(topo, config, u, &possible, &routes, best.as_ref());
    // Send-side filtering only: the receive-side cluster-loop drop is the
    // *receiver's* decision, applied in its own gather.
    let outgoing = peers
        .iter()
        .map(|&v| {
            reflected_ids(
                topo,
                u,
                v,
                advertised.iter().map(|p| (p, attrs[&p.id()].from)),
            )
        })
        .collect();
    NodeState {
        my_exits: my_exits.to_vec(),
        possible,
        learned,
        best,
        advertised,
        outgoing,
        attrs,
    }
}

/// The ids of `advertised` — each path with the peer `u` learned its
/// copy from (`None` for its own route) — that `u` may send `v` under
/// loop prevention, in order.
pub(crate) fn reflected_ids<'p>(
    topo: &Topology,
    u: RouterId,
    v: RouterId,
    advertised: impl IntoIterator<Item = (&'p ExitPathRef, Option<RouterId>)>,
) -> Vec<ExitPathId> {
    advertised
        .into_iter()
        .filter(|&(p, from)| reflect_allowed(topo, u, v, p.exit_point(), from))
        .map(|(p, _)| p.id())
        .collect()
}

/// The advertisement discipline per protocol variant.
fn advertised_set(
    topo: &Topology,
    config: ProtocolConfig,
    u: RouterId,
    possible: &[ExitPathRef],
    routes: &[Route],
    best: Option<&Route>,
) -> Vec<ExitPathRef> {
    // Standard advertisement: exactly the best route's exit, if any.
    let best_singleton = || best.map(|r| vec![r.exit().clone()]).unwrap_or_default();
    match config.variant {
        ProtocolVariant::Standard => best_singleton(),
        ProtocolVariant::Walton => {
            if topo.ibgp().is_reflector(u) {
                walton_advertised_set(config.policy, routes)
            } else {
                best_singleton()
            }
        }
        ProtocolVariant::Modified => choose_set(possible, config.policy.med_mode),
    }
}

/// The unified engine surface ([`Engine::run`] — the bounded
/// run-to-verdict loop — comes from the trait's default implementation).
impl Engine for SyncEngine<'_> {
    type Key = StateKey;

    fn router_count(&self) -> usize {
        self.topo.len()
    }

    fn step(&mut self, set: &[RouterId]) -> bool {
        SyncEngine::step(self, set)
    }

    fn is_stable(&self) -> bool {
        SyncEngine::is_stable(self)
    }

    fn state_key(&self, phase: u64) -> StateKey {
        SyncEngine::state_key(self, phase)
    }

    fn best_vector(&self) -> Vec<Option<ExitPathId>> {
        SyncEngine::best_vector(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Activation, AllAtOnce, RoundRobin};
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

    /// Full mesh of 3, single exit at node 0: everyone should adopt it.
    #[test]
    fn single_exit_propagates_to_all() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged(), "{outcome}");
        for u in 0..3 {
            assert_eq!(eng.best_exit(r(u)), Some(ExitPathId::new(1)));
        }
        // Node 1's route is I-BGP with metric 1, learned from node 0.
        let route = eng.best_route(r(1)).unwrap();
        assert!(!route.is_ebgp());
        assert_eq!(route.learned_from(), topo.bgp_id(r(0)));
    }

    /// Route reflection: client learns an exit two clusters away.
    #[test]
    fn reflection_carries_routes_to_foreign_clients() {
        // Clusters {RR0; c1} and {RR2; c3}; exit at client 1.
        let topo = TopologyBuilder::new(4)
            .link(0, 1, 1)
            .link(0, 2, 1)
            .link(2, 3, 1)
            .cluster([0], [1])
            .cluster([2], [3])
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 1)]);
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged(), "{outcome}");
        // Path: client1 -> RR0 (case 1), RR0 -> RR2 (case 2), RR2 -> c3 (case 3).
        assert_eq!(eng.best_exit(r(3)), Some(ExitPathId::new(1)));
    }

    /// Two equal exits in a full mesh: nodes pick the nearer one; the
    /// outcome is a fixed point.
    #[test]
    fn igp_metric_splits_traffic() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 5)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0), exit(2, 2, 0, 1)];
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, exits);
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged());
        // Each prefers its own E-BGP route.
        assert_eq!(eng.best_exit(r(0)), Some(ExitPathId::new(1)));
        assert_eq!(eng.best_exit(r(1)), Some(ExitPathId::new(2)));
    }

    /// The paper's Fig 2 shape in miniature: two reflectors, each closer
    /// to the *other's* exit, same neighbor AS and MED. Under simultaneous
    /// activation the standard protocol oscillates (DISAGREE); under the
    /// modified protocol it converges.
    fn disagree_topo() -> Topology {
        // 0 and 1 are reflectors; physical path 0-2-1 where 2 is a client
        // used only as IGP transit... simpler: direct link with asymmetric
        // exit costs creating the "closer to the other's exit" geometry:
        // exit A at node 0 has exit cost 10, exit B at node 1 has exit
        // cost 10; IGP distance 0<->1 is 1. Then node 0 sees A at 10, B at
        // 11 — no. To make each prefer the other's exit: exit costs 10 and
        // the IGP link cheap won't do it. Use per-exit costs: A cost 10 at
        // node 0 (so remote B is 1+0=1 best), B cost 10 at node 1.
        TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap()
    }

    fn disagree_exits() -> Vec<ExitPathRef> {
        let a = Arc::new(
            ExitPath::builder(ExitPathId::new(1))
                .via(AsId::new(1))
                .exit_point(r(0))
                .exit_cost(ibgp_types::IgpCost::new(10))
                .build_unchecked(),
        );
        let b = Arc::new(
            ExitPath::builder(ExitPathId::new(2))
                .via(AsId::new(1))
                .exit_point(r(1))
                .exit_cost(ibgp_types::IgpCost::new(10))
                .build_unchecked(),
        );
        vec![a, b]
    }

    #[test]
    fn disagree_is_stable_here_because_ebgp_wins() {
        // Sanity check of the geometry: with the paper's rule order the
        // E-BGP preference pins each node to its own exit, so this
        // configuration converges even simultaneously. (The true Fig 2
        // oscillation needs reflectors without own exits; see the
        // scenarios crate.)
        let topo = disagree_topo();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, disagree_exits());
        let outcome = eng.run(&mut AllAtOnce, 50);
        assert!(outcome.converged(), "{outcome}");
    }

    /// Withdrawn paths are flushed (Lemma 7.2 dynamics).
    #[test]
    fn withdrawn_exit_paths_flush_out() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0), exit(2, 2, 5, 2)];
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::MODIFIED, exits);
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged());
        assert_eq!(eng.best_exit(r(1)), Some(ExitPathId::new(1)));
        // Withdraw p1; after re-running, nobody may still use or know it.
        assert!(eng.withdraw(ExitPathId::new(1)));
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged());
        for u in 0..3 {
            assert_eq!(eng.best_exit(r(u)), Some(ExitPathId::new(2)));
            assert!(eng
                .possible_exits(r(u))
                .iter()
                .all(|p| p.id() != ExitPathId::new(1)));
        }
        assert!(!eng.withdraw(ExitPathId::new(1)), "already gone");
    }

    /// Injection after convergence is picked up.
    #[test]
    fn injected_exit_paths_take_effect() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 9, 0)]);
        eng.run(&mut RoundRobin::new(), 50);
        // A better route (same AS, lower MED) appears at node 1.
        eng.inject(exit(2, 1, 0, 1));
        let outcome = eng.run(&mut RoundRobin::new(), 50);
        assert!(outcome.converged());
        assert_eq!(eng.best_exit(r(0)), Some(ExitPathId::new(2)));
        assert_eq!(eng.best_exit(r(1)), Some(ExitPathId::new(2)));
    }

    /// The modified protocol advertises the whole Choose_set survivor set.
    #[test]
    fn modified_advertises_good_exits() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        // Two exits at node 0 through different ASes: both survive rules
        // 1-3, so both are advertised under the modified protocol.
        let exits = vec![exit(1, 1, 0, 0), exit(2, 2, 0, 0)];
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::MODIFIED, exits);
        eng.run(&mut RoundRobin::new(), 50);
        assert_eq!(eng.advertised(r(0)).len(), 2);
        assert_eq!(eng.possible_exits(r(1)).len(), 2);

        // Standard protocol: only the single best is advertised.
        let exits = vec![exit(1, 1, 0, 0), exit(2, 2, 0, 0)];
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, exits);
        eng.run(&mut RoundRobin::new(), 50);
        assert_eq!(eng.advertised(r(0)).len(), 1);
        // Node 1 has no exits of its own and hears only node 0's best.
        assert_eq!(eng.possible_exits(r(1)).len(), 1);
    }

    /// Metrics count messages and best changes.
    #[test]
    fn metrics_accumulate() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        eng.run(&mut RoundRobin::new(), 100);
        let m = eng.metrics();
        assert!(m.activations > 0);
        assert!(m.messages >= 2, "node 0 must have announced to 2 peers");
        assert!(m.best_changes >= 3, "each node adopted a best route");
        assert!(m.paths_advertised >= m.messages);
    }

    /// The update memo fills up during a run and reports its hit rate;
    /// the naive path keeps the counters at zero.
    #[test]
    fn cache_counters_accumulate_only_when_memoized() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        eng.run(&mut RoundRobin::new(), 100);
        let m = eng.metrics();
        assert!(m.cache_misses > 0, "first computations must miss");
        assert!(m.cache_hits > 0, "replays must hit");
        assert!(m.cache_hit_rate() > 0.0);

        let mut naive = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        naive.set_memoized(false);
        naive.run(&mut RoundRobin::new(), 100);
        let m = naive.metrics();
        assert_eq!((m.cache_hits, m.cache_misses), (0, 0));
    }

    /// The memoized engine and the naive reference path agree, including
    /// across inject/withdraw churn (which flushes the memo).
    #[test]
    fn memoized_engine_matches_naive_reference() {
        let topo = TopologyBuilder::new(4)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .cluster([0], [2])
            .cluster([1], [3])
            .build()
            .unwrap();
        for config in [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ] {
            let exits = vec![exit(1, 1, 0, 2), exit(2, 1, 0, 3)];
            let mut fast = SyncEngine::new(&topo, config, exits.clone());
            let mut slow = SyncEngine::new(&topo, config, exits);
            slow.set_memoized(false);
            let mut sched_a = RoundRobin::new();
            let mut sched_b = RoundRobin::new();
            for _ in 0..40 {
                let set = sched_a.next_set(4);
                assert_eq!(set, sched_b.next_set(4));
                let sa = fast.step(&set);
                let sb = slow.step(&set);
                assert_eq!(sa, sb, "stability flags diverge");
                assert_eq!(fast.best_vector(), slow.best_vector());
                assert_eq!(fast.is_stable(), slow.is_stable());
            }
            fast.withdraw(ExitPathId::new(1));
            slow.withdraw(ExitPathId::new(1));
            let out_a = fast.run(&mut RoundRobin::new(), 200);
            let out_b = slow.run(&mut RoundRobin::new(), 200);
            assert_eq!(out_a, out_b);
            assert_eq!(fast.best_vector(), slow.best_vector());
        }
    }

    /// `step` reports whether the pre-step configuration was already a
    /// fixed point.
    #[test]
    fn step_reports_fixed_point() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        let all = [r(0), r(1)];
        assert!(!eng.step(&all), "config(0) is not a fixed point");
        while !eng.step(&all) {}
        assert!(eng.is_stable());
        assert!(eng.step(&all), "fixed points self-loop");
    }

    /// Regression: `run` trusts `Activation::phase` to be normalized, so a
    /// periodic schedule whose period differs from `n` still gets sound
    /// cycle detection (the engine used to mangle phases with `% n`).
    #[test]
    fn run_supports_schedules_with_period_not_equal_to_n() {
        /// Period-2 schedule over any n >= 3: {0}, then {1, 2}.
        struct AlternatingPairs {
            pos: u64,
        }
        impl Activation for AlternatingPairs {
            fn next_set(&mut self, _n: usize) -> Vec<RouterId> {
                let set = if self.pos == 0 {
                    vec![r(0)]
                } else {
                    vec![r(1), r(2)]
                };
                self.pos = (self.pos + 1) % 2;
                set
            }
            fn phase(&self) -> Option<u64> {
                Some(self.pos)
            }
        }
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        let outcome = eng.run(&mut AlternatingPairs { pos: 0 }, 100);
        assert!(outcome.converged(), "{outcome}");
        for u in 0..3 {
            assert_eq!(eng.best_exit(r(u)), Some(ExitPathId::new(1)));
        }
    }

    /// An empty system (no exits) is immediately stable.
    #[test]
    fn no_exits_is_trivially_stable() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![]);
        let outcome = eng.run(&mut RoundRobin::new(), 10);
        assert_eq!(outcome, SyncOutcome::Converged { steps: 0 });
        assert_eq!(eng.best_vector(), vec![None, None]);
    }

    #[test]
    #[should_panic(expected = "duplicate exit path id")]
    fn duplicate_exit_ids_panic() {
        let topo = TopologyBuilder::new(1).cluster([0], []).build().unwrap();
        let _ = SyncEngine::new(
            &topo,
            ProtocolConfig::STANDARD,
            vec![exit(1, 1, 0, 0), exit(1, 2, 0, 0)],
        );
    }

    /// Loop prevention changes nothing on a full mesh: only own E-BGP
    /// routes are ever sent, and they carry empty cluster lists.
    #[test]
    fn loop_prevention_is_inert_on_full_meshes() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0), exit(2, 2, 5, 2)];
        let mut plain = SyncEngine::new(&topo, ProtocolConfig::STANDARD, exits.clone());
        let mut lp = SyncEngine::new(&topo, ProtocolConfig::STANDARD, exits);
        lp.set_loop_prevention(true);
        assert!(lp.loop_prevention());
        let mut sched_a = RoundRobin::new();
        let mut sched_b = RoundRobin::new();
        for _ in 0..20 {
            let set = sched_a.next_set(3);
            assert_eq!(set, sched_b.next_set(3));
            plain.step(&set);
            lp.step(&set);
            assert_eq!(plain.best_vector(), lp.best_vector());
        }
        assert_eq!(plain.is_stable(), lp.is_stable());
        // Every stored copy records its announcing peer; own routes none.
        assert_eq!(lp.rr_from(r(0), ExitPathId::new(1)), Some(None));
        assert_eq!(lp.rr_from(r(1), ExitPathId::new(1)), Some(Some(r(0))));
        assert_eq!(lp.cluster_list(r(1), ExitPathId::new(1)), Some(&[][..]));
    }

    /// The cbgp `bgp_rr` shape (explicit sessions): a non-client route is
    /// reflected to clients only, and the stored attributes match what a
    /// real reflector would stamp.
    #[test]
    fn loop_prevention_reflects_per_the_matrix() {
        // 0—1 peers, 2—3 peers, 1—4 peers; 2 a client of 1. Exit at 0.
        let topo = TopologyBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .link(1, 4, 1)
            .peer(0, 1)
            .peer(2, 3)
            .peer(1, 4)
            .rr_client(1, 2)
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        eng.set_loop_prevention(true);
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged(), "{outcome}");
        let p1 = ExitPathId::new(1);
        // 0 (origin) and 1 (peer) and 2 (client of 1) know the route.
        assert_eq!(eng.best_exit(r(0)), Some(p1));
        assert_eq!(eng.best_exit(r(1)), Some(p1));
        assert_eq!(eng.best_exit(r(2)), Some(p1));
        // 1 must not reflect the non-client route to peer 4, and 2 (no
        // clients) must not re-advertise it to peer 3.
        assert_eq!(eng.best_exit(r(3)), None);
        assert_eq!(eng.best_exit(r(4)), None);
        assert_eq!(eng.outgoing_to(r(1), r(4)), vec![]);
        assert_eq!(eng.outgoing_to(r(2), r(3)), vec![]);
        // ORIGINATOR_ID and CLUSTER_LIST at the client.
        assert_eq!(eng.originator(r(2), p1), Some(r(0)));
        assert_eq!(eng.cluster_list(r(2), p1), Some(&[r(1)][..]));
        assert_eq!(eng.rr_from(r(2), p1), Some(Some(r(1))));
        // Without loop prevention, the partitionless Transfer relation is
        // not even defined for this graph — but the paper's relation on a
        // cluster encoding of the same intent would have let 3 learn it.
    }

    /// SSLD: a reflector never sends a route back to its originator,
    /// even when it learned the route from a third party.
    #[test]
    fn loop_prevention_ssld_blocks_the_originator() {
        // cbgp bgp_rr_originator_id_ssld shape: 0 client of both 1 and
        // 2; 1—2 peers. Exit at 0.
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(0, 2, 1)
            .link(1, 2, 1)
            .rr_client(1, 0)
            .rr_client(2, 0)
            .peer(1, 2)
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        eng.set_loop_prevention(true);
        let outcome = eng.run(&mut RoundRobin::new(), 100);
        assert!(outcome.converged(), "{outcome}");
        let p1 = ExitPathId::new(1);
        assert_eq!(eng.best_exit(r(1)), Some(p1));
        assert_eq!(eng.best_exit(r(2)), Some(p1));
        // Neither reflector offers the route back to its originator.
        assert_eq!(eng.outgoing_to(r(1), r(0)), vec![]);
        assert_eq!(eng.outgoing_to(r(2), r(0)), vec![]);
        // Both reflectors hear the route from client 0 directly (and
        // also via each other, stamped with a one-hop cluster list); the
        // lowest-BGP-id sender wins the stored copy, so each keeps the
        // direct client copy with an empty cluster list.
        assert_eq!(eng.rr_from(r(2), p1), Some(Some(r(0))));
        assert_eq!(eng.cluster_list(r(2), p1), Some(&[][..]));
    }

    /// Enabling loop prevention after stepping is a construction error,
    /// and so is keying a loop-prevention engine flat.
    #[test]
    #[should_panic(expected = "set_loop_prevention must precede stepping")]
    fn loop_prevention_after_steps_panics() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit(1, 1, 0, 0)]);
        eng.step(&[r(0)]);
        eng.set_loop_prevention(true);
    }

    #[test]
    #[should_panic(expected = "incompatible with the flat encoding")]
    fn codec_under_loop_prevention_panics() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0)];
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, exits.clone());
        eng.set_loop_prevention(true);
        let _ = FlatEngine::new(&eng, Arc::new(StateCodec::new(topo.len(), &exits)));
    }

    /// The flat engine's successor keys are the codec encoding of
    /// `state_key(0)` after the same step, and decode back to it.
    #[test]
    fn flat_key_matches_encoded_state_key() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0), exit(2, 2, 5, 2)];
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::MODIFIED, exits.clone());
        let codec = Arc::new(StateCodec::new(topo.len(), &exits));
        let mut flat = FlatEngine::new(&eng, Arc::clone(&codec));
        let all = [r(0), r(1), r(2)];
        let mut key = codec.encode_key(&eng.state_key(0));
        let mut next = vec![0u32; codec.key_words()];
        for _ in 0..6 {
            assert_eq!(codec.decode_key(&key), eng.state_key(0));
            flat.plan(key.words());
            flat.successor_into(&all, &mut next);
            eng.step(&all);
            key = FlatKey::new(next.clone().into_boxed_slice());
            assert_eq!(key, codec.encode_key(&eng.state_key(0)));
        }
    }

    /// The routers whose activation from `eng`'s state changes their own
    /// state but none of their `outgoing_to` views — the invisible moves
    /// the partial-order reduction may take as one ample branch.
    fn invisible_moves(eng: &SyncEngine) -> Option<Vec<RouterId>> {
        let before = eng.state_key(0);
        let ibgp = eng.topology().ibgp();
        let ample: Vec<RouterId> = eng
            .topology()
            .routers()
            .filter(|&u| {
                let mut moved = eng.clone();
                moved.step(&[u]);
                moved.state_key(0).nodes[u.index()] != before.nodes[u.index()]
                    && ibgp
                        .peers(u)
                        .into_iter()
                        .all(|v| moved.outgoing_to(u, v) == eng.outgoing_to(u, v))
            })
            .collect();
        (!ample.is_empty()).then_some(ample)
    }

    /// `FlatEngine::plan` + `successor_into` replicate `step` exactly:
    /// same successor keys, same stability verdict, best vector and
    /// ample set, same metrics deltas.
    #[test]
    fn branch_api_matches_step_semantics() {
        let topo = TopologyBuilder::new(4)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .cluster([0], [2])
            .cluster([1], [3])
            .build()
            .unwrap();
        for config in [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ] {
            let exits = vec![exit(1, 1, 0, 2), exit(2, 1, 0, 3)];
            let codec = Arc::new(StateCodec::new(topo.len(), &exits));
            let mut sync = SyncEngine::new(&topo, config, exits);
            let mut flat = FlatEngine::new(&sync, Arc::clone(&codec));

            // Walk a few frontier states; at each, compare every branch
            // against a stepped clone of the sync engine.
            let mut branches: Vec<Vec<RouterId>> = (0..4).map(|i| vec![r(i)]).collect();
            branches.push((0..4).map(r).collect());
            let mut key = codec.encode_key(&sync.state_key(0)).into_words();
            let mut succ = vec![0u32; codec.key_words()];
            for depth in 0..4 {
                let stable = flat.plan(&key);
                assert_eq!(stable, sync.is_stable(), "depth {depth}");
                assert_eq!(flat.best_vector(), sync.best_vector(), "depth {depth}");
                assert_eq!(flat.ample_set(), invisible_moves(&sync), "depth {depth}");
                for branch in &branches {
                    let mut stepped = sync.clone();
                    let m_flat = flat.metrics();
                    let m_sync = stepped.metrics();
                    flat.successor_into(branch, &mut succ);
                    stepped.step(branch);
                    assert_eq!(
                        codec.decode_key(&FlatKey::new(succ.clone().into_boxed_slice())),
                        stepped.state_key(0),
                        "branch {branch:?} at depth {depth}"
                    );
                    // Identical metrics deltas (cache counters aside —
                    // the two engines schedule memo lookups differently).
                    let d_flat = flat.metrics();
                    let d_sync = stepped.metrics();
                    assert_eq!(
                        d_flat.activations - m_flat.activations,
                        d_sync.activations - m_sync.activations
                    );
                    assert_eq!(
                        d_flat.messages - m_flat.messages,
                        d_sync.messages - m_sync.messages
                    );
                    assert_eq!(
                        d_flat.paths_advertised - m_flat.paths_advertised,
                        d_sync.paths_advertised - m_sync.paths_advertised
                    );
                    assert_eq!(
                        d_flat.best_changes - m_flat.best_changes,
                        d_sync.best_changes - m_sync.best_changes
                    );
                }
                // Descend along the full-set branch.
                flat.successor_into(&branches[4], &mut succ);
                key = succ.clone().into_boxed_slice();
                sync.step(&branches[4]);
            }
        }
    }
}
