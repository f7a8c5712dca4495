//! Level-synchronous parallel driver for the reachability search.
//!
//! The exploration of [`crate::reachability`] is a BFS over configurations
//! whose per-state work — restore a snapshot, test stability, derive the
//! `n + 1` branch successors, canonicalize each — is embarrassingly
//! parallel, while its *bookkeeping* (dedup, the state cap, stable-vector
//! collection) is order-sensitive. This module splits the two:
//!
//! * **Workers** expand whole BFS levels in parallel, in *batches* of
//!   frontier states. Each worker owns a private engine from the
//!   [`Scheme`] (a [`SyncEngine`] is `Send` but not `Sync` — its memo is
//!   a `RefCell`) and restores it per unit; sweep-engine frontier states
//!   are engines themselves and need none. A worker reports either the
//!   state's stable best-exit vector or its successor list, pre-filtered
//!   against the *frozen* visited set of earlier levels — a read-only,
//!   order-independent test.
//! * **The coordinator** merges each level's unit outcomes *sequentially
//!   in canonical order* (frontier index, then branch index): within-level
//!   dedup, state counting, the cap and byte-budget checks, and
//!   stable-vector collection all happen here, in exactly the order the
//!   single-threaded explorer would perform them.
//!
//! **No locks on the hot path.** The visited set is a plain (unlocked)
//! striped table owned behind an [`Arc`]. While a level runs, workers
//! hold shared clones of that `Arc` — shipped to them inside each work
//! batch and shipped back with the results — and only *read*. Between
//! levels every clone has been returned, so the coordinator reclaims
//! unique ownership ([`Arc::get_mut`]) and inserts sequentially. The only
//! synchronization anywhere is the message channels themselves (plus a
//! `Mutex` around the shared work-queue receiver, held just long enough
//! to pop a batch). Nothing ever blocks a worker mid-expansion.
//!
//! The skeleton knows no engine: the [`Scheme`] trait supplies the
//! per-worker engine, the frontier snapshot, and the state key. Three
//! schemes drive the same search skeleton:
//!
//! * [`FlatScheme`] (the default): states are [`FlatKey`]s — fixed-width
//!   `u32` blocks per router encoding (possible, advertised, best) as
//!   bitmasks over the injected exit-path table (see
//!   [`ibgp_sim::flat`]). The engine's [`SyncEngine::plan`] /
//!   [`SyncEngine::branch_key`] API derives every branch successor's key
//!   from one set of memoized update rows *without* restoring or stepping
//!   the engine per branch, and only materializes a full snapshot
//!   ([`SyncEngine::branch_snapshot`]) for successors that survive the
//!   visited pre-filter. Symmetry acts directly on the words via
//!   [`FlatAction`].
//! * [`LegacyScheme`] (`flat = false`): the original restore-step-rekey
//!   path over [`StateKey`]s, kept as the executable specification the
//!   equivalence suite drives the flat path against.
//! * [`SweepScheme`]: any [`SweepEngine`] — the confederation and
//!   hierarchy engines. The frontier holds engine clones; one
//!   `update_all` per state keys every branch successor by laying the
//!   current and updated per-router encodings end to end, and only the
//!   successors that survive the visited pre-filter are cloned. These
//!   engines have no automorphism action and no ample-set proof, so
//!   the sweep search declines symmetry and POR.
//!
//! The flat and legacy key spaces are bijective
//! (`StateCodec::{encode_key, decode_key}`), so both schemes visit the
//! same states in the same order and report identical `states`,
//! `complete`, `stable_vectors`, and cap points. Only encoding-internal
//! gauges (cache splits, digests, byte estimates) may differ.
//!
//! Determinism: a state's outcome is a pure function of its snapshot (the
//! pre-filter can only drop successors the merge would reject anyway), so
//! the merged per-level view is bit-identical for every `jobs` value,
//! including the in-thread `jobs = 1` path. Only the per-worker memo
//! split (cache hit/miss counts) varies with scheduling.
//!
//! **Symmetry reduction** ([`ExploreOptions::symmetry`]): each successor
//! key is canonicalized under the instance's automorphism group (see
//! [`crate::symmetry`]) *before* the visited-set probe, so orbit-mates
//! collapse to one representative. Stable vectors found at
//! representatives are expanded back through the group, which restores
//! exactly the plain search's stable-vector set. If any generated state
//! could have put an identifier-order tie-break in charge (the guard in
//! `crate::symmetry`), the whole search deterministically restarts with
//! symmetry off.
//!
//! **Partial-order reduction** ([`ExploreOptions::por`]): before
//! expanding a state's branches, each worker asks the engine for the
//! state's ample set — the enabled routers whose activation leaves every
//! transfer-filtered outgoing advertisement unchanged and therefore
//! commutes with every other transition (see `SyncEngine::ample_set` for
//! the exactness argument, including the structural discharge of the
//! cycle proviso). When the set is non-empty the state expands through
//! that one compound branch instead of all `n + 1`; otherwise it falls
//! back to full expansion. The choice is a pure function of the
//! snapshot, so verdicts stay bit-identical across `jobs`, and it is
//! automorphism-equivariant, so it composes with symmetry reduction
//! (and with the guard's symmetry-free restart, which keeps POR on).
//!
//! **Memory bounding** ([`ExploreOptions::max_bytes`]): the coordinator
//! accounts an estimated byte footprint for every inserted key. On the
//! first budget breach it compacts every shard from full keys to
//! digest-only hashes (64-bit, collision-counted while exact keys are
//! still around); if the digests alone breach the budget, the search
//! stops and reports "ran out of memory budget" instead of OOMing. Byte
//! estimates are per-encoding (`FlatKey`s are much smaller than
//! `StateKey`s), so a given budget caps the flat and legacy searches at
//! different points — but identically across `jobs` values within one
//! encoding.

use crate::reachability::{ExploreOptions, Reachability};
use crate::symmetry::{FlatAction, SymmetryGroup};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_sim::signature::StateKey;
use ibgp_sim::{FlatKey, Metrics, StateCodec, SweepEngine, SyncEngine, SyncSnapshot};
use ibgp_topology::Topology;
use ibgp_types::{ExitPathId, ExitPathRef, RouterId, StopReason};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of visited-set stripes. A fixed power of two keeps
/// digest-sharded occupancy balanced.
const SHARD_COUNT: usize = 64;

/// Accounted bytes per hash-map entry beyond the key payload (digest,
/// bucket bookkeeping). An estimate, like `approx_bytes`.
const ENTRY_OVERHEAD: usize = 48;

/// Accounted bytes per digest-only entry after compaction.
const DIGEST_ENTRY_BYTES: usize = 16;

/// Largest number of frontier states bundled into one worker handoff.
const MAX_BATCH: usize = 256;

/// What the visited set needs from a state key: a well-mixed 64-bit
/// digest for sharding/bucketing and a byte estimate for the memory
/// budget. Implemented by both encodings.
pub(crate) trait SearchKey: Eq + Send + Sync {
    fn digest(&self) -> u64;
    fn approx_bytes(&self) -> usize;
}

impl SearchKey for StateKey {
    fn digest(&self) -> u64 {
        StateKey::digest(self)
    }
    fn approx_bytes(&self) -> usize {
        StateKey::approx_bytes(self)
    }
}

impl SearchKey for FlatKey {
    fn digest(&self) -> u64 {
        FlatKey::digest(self)
    }
    fn approx_bytes(&self) -> usize {
        FlatKey::approx_bytes(self)
    }
}

/// One shard of the visited set: exact keys until a memory budget forces
/// digest-only compaction.
enum ShardStore<K> {
    /// Digest → colliding keys. Exact membership, collision-free.
    Exact(HashMap<u64, Vec<K>>),
    /// Digests only. A collision conflates two states (counted while the
    /// exact keys were still around; unobservable afterwards).
    Digest(HashSet<u64>),
}

/// What one insert did.
enum Inserted {
    /// The key was new; `bytes` is its accounted footprint and
    /// `collision` whether it shares a digest with a distinct key
    /// (observable in exact mode only).
    New { bytes: usize, collision: bool },
    /// Already present (or digest-conflated).
    Seen,
}

/// The visited set, striped by key digest. Deliberately lock-free: the
/// coordinator owns it mutably between levels (via [`Arc::get_mut`]);
/// workers only ever hold it behind a shared `Arc` and call [`Self::contains`].
struct Visited<K> {
    shards: Vec<ShardStore<K>>,
}

impl<K: SearchKey> Visited<K> {
    fn new() -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| ShardStore::Exact(HashMap::new()))
                .collect(),
        }
    }

    /// Read-only membership test (the workers' pre-filter).
    fn contains(&self, key: &K) -> bool {
        let digest = key.digest();
        match &self.shards[(digest % SHARD_COUNT as u64) as usize] {
            ShardStore::Exact(map) => map.get(&digest).is_some_and(|bucket| bucket.contains(key)),
            ShardStore::Digest(set) => set.contains(&digest),
        }
    }

    /// Insert if new (the coordinator's authoritative dedup).
    fn insert(&mut self, key: K) -> Inserted {
        let digest = key.digest();
        match &mut self.shards[(digest % SHARD_COUNT as u64) as usize] {
            ShardStore::Exact(map) => {
                let bucket = map.entry(digest).or_default();
                if bucket.contains(&key) {
                    Inserted::Seen
                } else {
                    let collision = !bucket.is_empty();
                    let bytes = key.approx_bytes() + if collision { 0 } else { ENTRY_OVERHEAD };
                    bucket.push(key);
                    Inserted::New { bytes, collision }
                }
            }
            ShardStore::Digest(set) => {
                if set.insert(digest) {
                    Inserted::New {
                        bytes: DIGEST_ENTRY_BYTES,
                        collision: false,
                    }
                } else {
                    Inserted::Seen
                }
            }
        }
    }

    /// Drop every exact key, keeping digests only. Returns the accounted
    /// footprint of the compacted set.
    fn compact(&mut self) -> usize {
        let mut total = 0usize;
        for shard in &mut self.shards {
            let digests: HashSet<u64> = match shard {
                ShardStore::Exact(map) => map.keys().copied().collect(),
                ShardStore::Digest(set) => std::mem::take(set),
            };
            total += digests.len() * DIGEST_ENTRY_BYTES;
            *shard = ShardStore::Digest(digests);
        }
        total
    }

    /// Most keys (or digests) held by any one shard (balance gauge).
    fn peak_shard(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| match s {
                ShardStore::Exact(map) => map.values().map(Vec::len).sum::<usize>(),
                ShardStore::Digest(set) => set.len(),
            })
            .max()
            .unwrap_or(0) as u64
    }
}

/// What one frontier state turned out to be.
enum UnitOutcome<K, T> {
    /// A fixed point, with its best-exit vector.
    Stable(Vec<Option<ExitPathId>>),
    /// Not stable: per branch successor not already visited in an earlier
    /// level, in branch order: its (canonical) key, raw snapshot, and
    /// orbit size (1 without symmetry).
    Expanded {
        fresh: Vec<(K, T, u64)>,
        /// A successor tripped the tie-soundness guard: the whole search
        /// must restart without symmetry.
        unsound: bool,
        /// The state was expanded through the single compound ample
        /// branch of the partial-order reduction (false for full
        /// expansion — including every expansion when POR is off).
        ample: bool,
    },
}

/// One search strategy: the engine that expands states, the frontier
/// snapshot, and the state key. Shared (`&self`) across worker threads;
/// all mutable engine state lives in the per-worker [`Scheme::Engine`].
trait Scheme: Sync {
    type Key: SearchKey;
    /// A worker's private expansion engine.
    type Engine;
    /// One frontier state.
    type Snapshot: Send;

    /// A fresh engine, ready to expand. Called once for the coordinator
    /// and once per worker.
    fn engine(&self) -> Self::Engine;

    /// Key, snapshot, and orbit size of the initial state, or `None` if
    /// it already trips the tie-soundness guard.
    fn initial(&self, engine: &mut Self::Engine) -> Option<(Self::Key, Self::Snapshot, u64)>;

    /// Expand one frontier state.
    fn expand_unit(
        &self,
        engine: &mut Self::Engine,
        snap: &Self::Snapshot,
        branches: &[Vec<RouterId>],
        visited: &Visited<Self::Key>,
    ) -> UnitOutcome<Self::Key, Self::Snapshot>;

    /// All images of a stable best-exit vector under the group (just the
    /// vector itself without symmetry).
    fn vector_orbit(&self, bv: &[Option<ExitPathId>]) -> Vec<Vec<Option<ExitPathId>>> {
        vec![bv.to_vec()]
    }

    /// The engine's own counters (cache hits, messages, ...), if it
    /// keeps any.
    fn metrics(&self, _engine: &Self::Engine) -> Metrics {
        Metrics::default()
    }
}

/// What every reflection-scheme engine is built from.
struct SyncSetup<'a> {
    topo: &'a Topology,
    config: ProtocolConfig,
    exits: &'a [ExitPathRef],
    memoized: bool,
    loop_prevention: bool,
}

impl<'a> SyncSetup<'a> {
    fn engine(&self) -> SyncEngine<'a> {
        let mut engine = SyncEngine::new(self.topo, self.config, self.exits.to_vec());
        engine.set_memoized(self.memoized);
        engine.set_loop_prevention(self.loop_prevention);
        engine
    }
}

/// The original restore-step-rekey path over [`StateKey`]s. Kept as the
/// executable specification that the equivalence tests drive [`FlatScheme`]
/// against.
struct LegacyScheme<'a> {
    setup: SyncSetup<'a>,
    group: Option<&'a SymmetryGroup>,
    por: bool,
}

impl<'a> Scheme for LegacyScheme<'a> {
    type Key = StateKey;
    type Engine = SyncEngine<'a>;
    type Snapshot = SyncSnapshot;

    fn engine(&self) -> SyncEngine<'a> {
        self.setup.engine()
    }

    fn initial(&self, engine: &mut SyncEngine) -> Option<(StateKey, SyncSnapshot, u64)> {
        let raw = engine.state_key(0);
        let (key, orbit) = match self.group {
            Some(g) => {
                if g.guard_trips(&raw) {
                    return None;
                }
                g.canonical(&raw)
            }
            None => (raw, 1),
        };
        Some((key, engine.snapshot(), orbit))
    }

    fn expand_unit(
        &self,
        engine: &mut SyncEngine,
        snap: &SyncSnapshot,
        branches: &[Vec<RouterId>],
        visited: &Visited<StateKey>,
    ) -> UnitOutcome<StateKey, SyncSnapshot> {
        engine.restore(snap);
        let plan = engine.plan();
        if plan.stable {
            return UnitOutcome::Stable(engine.best_vector());
        }
        // POR: one compound ample branch when the engine can prove the
        // commutation precondition, the full branch set otherwise. The
        // choice is a pure function of the snapshot, so verdicts stay
        // bit-identical at every `jobs` value.
        let ample = if self.por {
            engine.ample_set(&plan)
        } else {
            None
        };
        let reduced = ample.is_some();
        let ample_storage;
        let branches: &[Vec<RouterId>] = match ample {
            Some(set) => {
                ample_storage = [set];
                &ample_storage
            }
            None => branches,
        };
        let mut fresh = Vec::new();
        for branch in branches {
            engine.restore(snap);
            engine.step(branch);
            let raw = engine.state_key(0);
            let (key, orbit) = match self.group {
                Some(g) => {
                    if g.guard_trips(&raw) {
                        // The level is abandoned wholesale; no point
                        // finishing this unit.
                        return UnitOutcome::Expanded {
                            fresh: Vec::new(),
                            unsound: true,
                            ample: false,
                        };
                    }
                    g.canonical(&raw)
                }
                None => (raw, 1),
            };
            // Pre-filter against earlier levels only: the set is frozen
            // while the level runs, so this test is order-independent.
            // Within-level duplicates are the coordinator's job.
            if !visited.contains(&key) {
                fresh.push((key, engine.snapshot(), orbit));
            }
        }
        UnitOutcome::Expanded {
            fresh,
            unsound: false,
            ample: reduced,
        }
    }

    fn vector_orbit(&self, bv: &[Option<ExitPathId>]) -> Vec<Vec<Option<ExitPathId>>> {
        match self.group {
            Some(g) => g.vector_orbit(bv),
            None => vec![bv.to_vec()],
        }
    }

    fn metrics(&self, engine: &SyncEngine) -> Metrics {
        engine.metrics()
    }
}

/// The flat fixed-width encoding path. One [`SyncEngine::plan`] per
/// frontier state replaces the per-branch restore/step churn, and
/// [`SyncEngine::branch_snapshot`] only runs for successors that survive
/// the pre-filter.
struct FlatScheme<'a> {
    setup: SyncSetup<'a>,
    codec: Arc<StateCodec>,
    group: Option<&'a SymmetryGroup>,
    action: Option<FlatAction>,
    por: bool,
}

impl<'a> Scheme for FlatScheme<'a> {
    type Key = FlatKey;
    type Engine = SyncEngine<'a>;
    type Snapshot = SyncSnapshot;

    fn engine(&self) -> SyncEngine<'a> {
        let mut engine = self.setup.engine();
        engine.set_codec(Arc::clone(&self.codec));
        engine
    }

    fn initial(&self, engine: &mut SyncEngine) -> Option<(FlatKey, SyncSnapshot, u64)> {
        let raw = engine.flat_key();
        let (key, orbit) = match &self.action {
            Some(a) => {
                if a.guard_trips(&raw) {
                    return None;
                }
                a.canonical(&raw)
            }
            None => (raw, 1),
        };
        Some((key, engine.snapshot(), orbit))
    }

    fn expand_unit(
        &self,
        engine: &mut SyncEngine,
        snap: &SyncSnapshot,
        branches: &[Vec<RouterId>],
        visited: &Visited<FlatKey>,
    ) -> UnitOutcome<FlatKey, SyncSnapshot> {
        engine.restore(snap);
        let plan = engine.plan();
        if plan.stable {
            return UnitOutcome::Stable(engine.best_vector());
        }
        // POR branch choice: identical rule to the legacy scheme (the
        // equivalence suite holds the two encodings to the same reduced
        // state space).
        let ample = if self.por {
            engine.ample_set(&plan)
        } else {
            None
        };
        let reduced = ample.is_some();
        let ample_storage;
        let branches: &[Vec<RouterId>] = match ample {
            Some(set) => {
                ample_storage = [set];
                &ample_storage
            }
            None => branches,
        };
        let mut fresh = Vec::new();
        for branch in branches {
            let raw = engine.branch_key(&plan, branch);
            let (key, orbit) = match &self.action {
                Some(a) => {
                    if a.guard_trips(&raw) {
                        return UnitOutcome::Expanded {
                            fresh: Vec::new(),
                            unsound: true,
                            ample: false,
                        };
                    }
                    a.canonical(&raw)
                }
                None => (raw, 1),
            };
            if !visited.contains(&key) {
                fresh.push((key, engine.branch_snapshot(&plan, branch), orbit));
            }
        }
        UnitOutcome::Expanded {
            fresh,
            unsound: false,
            ample: reduced,
        }
    }

    fn vector_orbit(&self, bv: &[Option<ExitPathId>]) -> Vec<Vec<Option<ExitPathId>>> {
        match self.group {
            Some(g) => g.vector_orbit(bv),
            None => vec![bv.to_vec()],
        }
    }

    fn metrics(&self, engine: &SyncEngine) -> Metrics {
        engine.metrics()
    }
}

/// The search for any [`SweepEngine`]. Frontier states are engine
/// clones, so there is no separate expansion engine to restore.
struct SweepScheme<E> {
    initial: E,
}

/// Per-router encodings laid end to end, with the end offset of each
/// router's span.
struct RouterWords {
    words: Vec<u32>,
    ends: Vec<usize>,
}

impl RouterWords {
    fn of<E: SweepEngine>(nodes: &[E::Node]) -> Self {
        let mut words = Vec::new();
        let mut ends = Vec::with_capacity(nodes.len());
        for node in nodes {
            E::encode(node, &mut words);
            ends.push(words.len());
        }
        Self { words, ends }
    }

    fn router(&self, u: usize) -> &[u32] {
        let start = if u == 0 { 0 } else { self.ends[u - 1] };
        &self.words[start..self.ends[u]]
    }
}

/// The key of the successor that installs `updated` for the routers in
/// `branch` (ascending) and keeps `current` everywhere else.
fn branch_key(current: &RouterWords, updated: &RouterWords, branch: &[RouterId]) -> FlatKey {
    let mut words = Vec::with_capacity(current.words.len().max(updated.words.len()));
    let mut members = branch.iter().map(|r| r.index()).peekable();
    for u in 0..current.ends.len() {
        let source = if members.next_if_eq(&u).is_some() {
            updated
        } else {
            current
        };
        words.extend_from_slice(source.router(u));
    }
    FlatKey::new(words.into_boxed_slice())
}

impl<E: SweepEngine + Send + Sync> Scheme for SweepScheme<E> {
    type Key = FlatKey;
    type Engine = ();
    type Snapshot = E;

    fn engine(&self) {}

    fn initial(&self, _engine: &mut ()) -> Option<(FlatKey, E, u64)> {
        let words = RouterWords::of::<E>(self.initial.nodes()).words;
        Some((
            FlatKey::new(words.into_boxed_slice()),
            self.initial.clone(),
            1,
        ))
    }

    fn expand_unit(
        &self,
        _engine: &mut (),
        snap: &E,
        branches: &[Vec<RouterId>],
        visited: &Visited<FlatKey>,
    ) -> UnitOutcome<FlatKey, E> {
        // One sweep serves the fixed-point test and every branch.
        let updates = snap.update_all();
        let current = RouterWords::of::<E>(snap.nodes());
        let updated = RouterWords::of::<E>(&updates);
        // Self-delimiting encodings: equal concatenations mean every
        // router's update is a no-op.
        if current.words == updated.words {
            return UnitOutcome::Stable(snap.nodes().iter().map(E::best).collect());
        }
        let mut fresh = Vec::new();
        for branch in branches {
            let key = branch_key(&current, &updated, branch);
            if !visited.contains(&key) {
                let mut next = snap.clone();
                next.apply(branch, &updates);
                fresh.push((key, next, 1));
            }
        }
        UnitOutcome::Expanded {
            fresh,
            unsound: false,
            ample: false,
        }
    }
}

/// One worker handoff: a slice of the frontier plus a shared handle on
/// the frozen visited set (returned with the results so the coordinator
/// can reclaim unique ownership between levels).
struct Batch<K, T> {
    /// Index of `units[0]` within the level's frontier.
    base: usize,
    units: Vec<T>,
    visited: Arc<Visited<K>>,
}

/// Messages from workers to the coordinator.
enum WorkerMsg<K, T> {
    /// Outcomes of one batch, in unit order, plus the returned visited
    /// handle.
    Batch {
        base: usize,
        outcomes: Vec<UnitOutcome<K, T>>,
        visited: Arc<Visited<K>>,
    },
    /// Final engine counters, sent once when the worker shuts down.
    Done(Metrics),
}

/// Order-sensitive search bookkeeping, owned by the coordinator.
struct Progress {
    stable_vectors: Vec<Vec<Option<ExitPathId>>>,
    states: usize,
    /// Why the search ended ([`StopReason::Complete`] unless a budget
    /// actually stopped it — never inferred from incompleteness).
    stop: StopReason,
    /// The tie-soundness guard fired: discard everything and rerun
    /// without symmetry.
    unsound: bool,
    frontier_depth: u64,
    peak_queue: u64,
    /// Work units expanded (= handoffs when a pool is in use).
    units: u64,
    /// Sum of orbit sizes over visited representatives (= reachable
    /// states the representatives stand for).
    orbit_states: u64,
    /// Current and peak accounted visited-set footprint.
    bytes: usize,
    peak_bytes: usize,
    collisions: u64,
    compactions: u64,
    /// Frontier states expanded through the compound ample branch.
    por_ample: u64,
    /// Frontier states fully expanded (the POR conservative fallback;
    /// counts every expansion when POR is off).
    por_full: u64,
}

/// The limits and initial-state accounting a `drive` run starts from.
struct DriveStart {
    max_states: usize,
    max_bytes: Option<usize>,
    deadline: Option<Instant>,
    /// Accounted bytes of the initial state's visited entry.
    initial_bytes: usize,
    /// Orbit size of the initial state (1 without symmetry).
    initial_orbit: u64,
}

/// Reclaim unique ownership of the visited set between levels. Panics if
/// any worker still holds a clone — which would be a protocol bug, since
/// every batch handle is shipped back with its results.
fn owned<K: SearchKey>(v: &mut Arc<Visited<K>>) -> &mut Visited<K> {
    Arc::get_mut(v).expect("level over: all clones returned")
}

/// Run the level loop: expand each frontier via `expand`, then merge the
/// outcomes in canonical (frontier index, branch index) order. This merge
/// is the single place dedup, the state cap, the byte budget, and
/// stable-vector discovery happen, which is what makes the result
/// independent of how `expand` schedules the per-unit work.
///
/// `expand` reads the visited set through the shared `Arc`; it must have
/// dropped every clone by the time it returns, because the merge reclaims
/// unique ownership to insert.
fn drive<S: Scheme>(
    scheme: &S,
    mut frontier: Vec<S::Snapshot>,
    visited: &mut Arc<Visited<S::Key>>,
    start: DriveStart,
    mut expand: impl FnMut(
        Vec<S::Snapshot>,
        &Arc<Visited<S::Key>>,
    ) -> Vec<UnitOutcome<S::Key, S::Snapshot>>,
) -> Progress {
    let DriveStart {
        max_states,
        max_bytes,
        deadline,
        initial_bytes,
        initial_orbit,
    } = start;
    let mut p = Progress {
        stable_vectors: Vec::new(),
        states: 1,
        stop: StopReason::Complete,
        unsound: false,
        frontier_depth: 0,
        peak_queue: 1,
        units: 0,
        orbit_states: initial_orbit,
        bytes: initial_bytes,
        peak_bytes: initial_bytes,
        collisions: 0,
        compactions: 0,
        por_ample: 0,
        por_full: 0,
    };
    // A budget smaller than the initial state compacts (and possibly
    // stops) immediately — deterministic, like every later breach.
    if let Some(budget) = max_bytes {
        if p.bytes > budget {
            p.bytes = owned(visited).compact();
            p.compactions += 1;
            if p.bytes > budget {
                p.stop = StopReason::MemoryBudget(budget);
                return p;
            }
        }
    }
    let mut depth = 0u64;
    'levels: while !frontier.is_empty() {
        // Deadline check sits at the level boundary: every state of a
        // level either all expands or none does, which keeps the stop
        // point coarse but the visited prefix well-defined — and makes
        // an already-expired deadline stop before the first expansion,
        // deterministically.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            p.stop = StopReason::Deadline;
            break 'levels;
        }
        p.units += frontier.len() as u64;
        let outcomes = expand(std::mem::take(&mut frontier), visited);
        // Soundness scan first: whether any unit flagged is a pure
        // function of the (deterministic) level contents, so the restart
        // decision is schedule-independent.
        if outcomes
            .iter()
            .any(|o| matches!(o, UnitOutcome::Expanded { unsound: true, .. }))
        {
            p.unsound = true;
            break 'levels;
        }
        let mut next = Vec::new();
        for outcome in outcomes {
            match outcome {
                // Expand the representative's fixed point through the
                // group: the plain search would have found every image.
                UnitOutcome::Stable(bv) => {
                    for img in scheme.vector_orbit(&bv) {
                        if !p.stable_vectors.contains(&img) {
                            p.stable_vectors.push(img);
                        }
                    }
                }
                UnitOutcome::Expanded { fresh, ample, .. } => {
                    if ample {
                        p.por_ample += 1;
                    } else {
                        p.por_full += 1;
                    }
                    for (key, snap, orbit) in fresh {
                        match owned(visited).insert(key) {
                            Inserted::Seen => {}
                            Inserted::New { bytes, collision } => {
                                p.states += 1;
                                p.orbit_states += orbit;
                                if collision {
                                    p.collisions += 1;
                                }
                                p.bytes += bytes;
                                p.peak_bytes = p.peak_bytes.max(p.bytes);
                                if p.states > max_states {
                                    p.stop = StopReason::StateCap(max_states);
                                    break 'levels;
                                }
                                if let Some(budget) = max_bytes {
                                    if p.bytes > budget && p.compactions == 0 {
                                        p.bytes = owned(visited).compact();
                                        p.compactions = 1;
                                        p.peak_bytes = p.peak_bytes.max(p.bytes);
                                    }
                                    if p.bytes > budget {
                                        p.stop = StopReason::MemoryBudget(budget);
                                        break 'levels;
                                    }
                                }
                                next.push(snap);
                            }
                        }
                    }
                }
            }
        }
        if !next.is_empty() {
            depth += 1;
            p.frontier_depth = depth;
            p.peak_queue = p.peak_queue.max(next.len() as u64);
        }
        frontier = next;
    }
    p
}

/// A finished search: the merged bookkeeping, the summed engine
/// counters, and the visited set's peak shard occupancy.
struct Found {
    progress: Progress,
    engine_metrics: Metrics,
    peak_shard: u64,
}

/// Run one scheme's search to completion. Returns `None` when symmetry
/// must be abandoned (the initial state or a successor tripped the
/// tie-soundness guard), in which case the caller restarts plain.
fn run_search<S: Scheme>(
    scheme: &S,
    options: &ExploreOptions,
    jobs: usize,
    branches: &[Vec<RouterId>],
) -> Option<Found> {
    let mut visited = Arc::new(Visited::<S::Key>::new());
    let mut engine = scheme.engine();
    let (init_key, init_snapshot, init_orbit) = scheme.initial(&mut engine)?;
    let init_bytes = match Arc::get_mut(&mut visited)
        .expect("freshly created")
        .insert(init_key)
    {
        Inserted::New { bytes, .. } => bytes,
        Inserted::Seen => 0,
    };
    let frontier = vec![init_snapshot];
    let start = DriveStart {
        max_states: options.max_states,
        max_bytes: options.max_bytes,
        deadline: options.deadline,
        initial_bytes: init_bytes,
        initial_orbit: init_orbit,
    };

    let (progress, engine_metrics) = if jobs <= 1 {
        let p = drive(scheme, frontier, &mut visited, start, |units, visited| {
            units
                .iter()
                .map(|snap| scheme.expand_unit(&mut engine, snap, branches, visited))
                .collect()
        });
        (p, scheme.metrics(&engine))
    } else {
        std::thread::scope(|scope| {
            let (work_tx, work_rx) = mpsc::channel::<Batch<S::Key, S::Snapshot>>();
            let work_rx = Arc::new(Mutex::new(work_rx));
            let (res_tx, res_rx) = mpsc::channel::<WorkerMsg<S::Key, S::Snapshot>>();
            for _ in 0..jobs {
                let work_rx = Arc::clone(&work_rx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let mut engine = scheme.engine();
                    loop {
                        // Hold the receiver lock only for the handoff.
                        let batch = work_rx.lock().expect("work queue poisoned").recv();
                        let Ok(Batch {
                            base,
                            units,
                            visited,
                        }) = batch
                        else {
                            break; // work channel closed: shut down
                        };
                        let outcomes = units
                            .iter()
                            .map(|snap| scheme.expand_unit(&mut engine, snap, branches, &visited))
                            .collect();
                        // Ship the visited handle back with the results:
                        // once the coordinator has drained the level, it
                        // holds the only reference again.
                        if res_tx
                            .send(WorkerMsg::Batch {
                                base,
                                outcomes,
                                visited,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    let _ = res_tx.send(WorkerMsg::Done(scheme.metrics(&engine)));
                });
            }
            drop(res_tx);

            let p = drive(scheme, frontier, &mut visited, start, |units, visited| {
                let len = units.len();
                // Batches amortize the channel and queue-lock traffic;
                // several batches per worker keep the level balanced
                // when unit costs vary.
                let batch_size = len.div_ceil(jobs * 4).clamp(1, MAX_BATCH);
                let mut units = units.into_iter();
                let mut base = 0usize;
                while base < len {
                    let chunk: Vec<S::Snapshot> = units.by_ref().take(batch_size).collect();
                    let sent = chunk.len();
                    work_tx
                        .send(Batch {
                            base,
                            units: chunk,
                            visited: Arc::clone(visited),
                        })
                        .expect("worker pool died");
                    base += sent;
                }
                let mut outcomes: Vec<Option<UnitOutcome<S::Key, S::Snapshot>>> =
                    std::iter::repeat_with(|| None).take(len).collect();
                let mut received = 0usize;
                while received < len {
                    match res_rx.recv().expect("worker pool died") {
                        WorkerMsg::Batch {
                            base,
                            outcomes: batch,
                            visited,
                        } => {
                            // Drop the returned handle immediately so
                            // the post-level `Arc::get_mut` succeeds.
                            drop(visited);
                            received += batch.len();
                            for (i, out) in batch.into_iter().enumerate() {
                                outcomes[base + i] = Some(out);
                            }
                        }
                        WorkerMsg::Done(_) => {
                            unreachable!("workers outlive the work channel")
                        }
                    }
                }
                outcomes
                    .into_iter()
                    .map(|o| o.expect("every unit reports exactly once"))
                    .collect()
            });

            // Closing the work channel tells each worker to report its
            // counters and exit; the merge is a commutative sum, so the
            // arrival order does not matter.
            drop(work_tx);
            let mut merged = scheme.metrics(&engine);
            for msg in res_rx {
                if let WorkerMsg::Done(m) = msg {
                    merged.absorb_engine(&m);
                }
            }
            (p, merged)
        })
    };

    if progress.unsound {
        return None;
    }
    let peak_shard = visited.peak_shard();
    Some(Found {
        progress,
        engine_metrics,
        peak_shard,
    })
}

/// Branch choices: each singleton, plus the full activation set. Every
/// set lists its routers in ascending order.
fn branch_sets(n: usize) -> Vec<Vec<RouterId>> {
    let mut branches: Vec<Vec<RouterId>> = (0..n as u32).map(|i| vec![RouterId::new(i)]).collect();
    branches.push((0..n as u32).map(RouterId::new).collect());
    branches
}

/// The search driver behind [`crate::reachability::explore`].
pub(crate) fn search(
    topo: &Topology,
    config: ProtocolConfig,
    exits: Vec<ExitPathRef>,
    options: &ExploreOptions,
) -> Reachability {
    let started = Instant::now();
    if options.loop_prevention {
        // The reflection-attribute words live only in the legacy state
        // keys: the flat codec has no slots for them, the automorphism
        // action does not relabel them, and the ample-set proof ignores
        // them. Force the one scheme that carries them.
        let mut legacy = options.clone();
        legacy.flat = false;
        legacy.symmetry = false;
        legacy.por = false;
        return search_inner(topo, config, exits, &legacy, started);
    }
    search_inner(topo, config, exits, options, started)
}

/// The search behind [`crate::reachability::explore_sweep`].
/// Sweep engines have no automorphism action and no ample-set proof, so
/// the search declines symmetry and POR the way loop prevention does:
/// the verdict reports group order 0 and no ample expansions.
pub(crate) fn sweep_search<E: SweepEngine + Send + Sync>(
    initial: E,
    options: &ExploreOptions,
) -> Reachability {
    let started = Instant::now();
    let mut plain = options.clone();
    plain.symmetry = false;
    plain.por = false;
    let jobs = plain.effective_jobs();
    let branches = branch_sets(initial.nodes().len());
    let found = run_search(&SweepScheme { initial }, &plain, jobs, &branches)
        .expect("the guard only fires under symmetry");
    report(found, &plain, jobs, None, started)
}

/// Rerun with symmetry off after the tie-soundness guard fired (or the
/// initial state already trips it). The rerun's metrics report the
/// *effective* group — trivial — so the reduction factor is an honest
/// 1.0, and the wall clock covers both attempts.
fn fallback_without_symmetry(
    topo: &Topology,
    config: ProtocolConfig,
    exits: Vec<ExitPathRef>,
    options: &ExploreOptions,
    started: Instant,
) -> Reachability {
    let mut plain = options.clone();
    plain.symmetry = false;
    let mut r = search_inner(topo, config, exits, &plain, started);
    r.metrics.group_order = 1;
    r.metrics.orbit_states = r.metrics.states_visited;
    r
}

fn search_inner(
    topo: &Topology,
    config: ProtocolConfig,
    exits: Vec<ExitPathRef>,
    options: &ExploreOptions,
    started: Instant,
) -> Reachability {
    let jobs = options.effective_jobs();

    // The automorphism group is computed once per search; a trivial group
    // disables the canonicalization machinery but still reports its
    // order.
    let group_storage = options
        .symmetry
        .then(|| SymmetryGroup::compute(topo, config, &exits));
    let group = group_storage.as_ref().filter(|g| !g.is_trivial());
    let branches = branch_sets(topo.len());
    let setup = SyncSetup {
        topo,
        config,
        exits: &exits,
        memoized: options.memoized,
        loop_prevention: options.loop_prevention,
    };

    let found = if options.flat {
        let codec = Arc::new(StateCodec::new(topo.len(), &exits));
        let action = group.map(|g| FlatAction::new(g, &codec));
        let scheme = FlatScheme {
            setup,
            codec,
            group,
            action,
            por: options.por,
        };
        run_search(&scheme, options, jobs, &branches)
    } else {
        let scheme = LegacyScheme {
            setup,
            group,
            por: options.por,
        };
        run_search(&scheme, options, jobs, &branches)
    };

    match found {
        Some(found) => report(found, options, jobs, group_storage.as_ref(), started),
        None => fallback_without_symmetry(topo, config, exits, options, started),
    }
}

/// Lower a finished search to its [`Reachability`]: the search's gauges
/// on top of the engine counters, and the stable vectors in canonical
/// order. `group` is the automorphism group the search computed, if
/// symmetry was requested.
fn report(
    found: Found,
    options: &ExploreOptions,
    jobs: usize,
    group: Option<&SymmetryGroup>,
    started: Instant,
) -> Reachability {
    let Found {
        progress,
        engine_metrics,
        peak_shard,
    } = found;
    let mut metrics = engine_metrics;
    metrics.states_visited = progress.states as u64;
    metrics.elapsed_nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    metrics.frontier_depth = progress.frontier_depth;
    metrics.peak_queue = progress.peak_queue;
    metrics.workers = jobs as u64;
    metrics.handoffs = if jobs <= 1 { 0 } else { progress.units };
    metrics.peak_shard = peak_shard;
    metrics.group_order = group.map_or(0, SymmetryGroup::order);
    metrics.orbit_states = match group {
        Some(g) if !g.is_trivial() => progress.orbit_states,
        // Symmetry was requested but the group is trivial: every state is
        // its own orbit, for an honest reduction factor of 1.0.
        Some(_) => progress.states as u64,
        None => 0,
    };
    metrics.digest_collisions = progress.collisions;
    metrics.compactions = progress.compactions;
    metrics.visited_bytes = progress.peak_bytes as u64;
    if options.por {
        metrics.por_ample = progress.por_ample;
        metrics.por_full = progress.por_full;
    }

    // Canonical order: discovery order is already deterministic, but a
    // sorted vector makes equality checks independent of search history.
    let mut stable_vectors = progress.stable_vectors;
    stable_vectors.sort();

    Reachability {
        states: progress.states,
        complete: progress.stop.is_complete(),
        stable_vectors,
        stop: progress.stop,
        metrics,
        origin: ibgp_types::VerdictOrigin::Search,
    }
}
