//! Level-synchronous parallel driver for the reachability search.
//!
//! The exploration of [`crate::reachability`] is a BFS over configurations
//! whose per-state work — test stability, derive the `n + 1` branch
//! successors, canonicalize each — is embarrassingly parallel, while its
//! *bookkeeping* (dedup, the state cap, stable-vector collection) is
//! order-sensitive. This module splits the two:
//!
//! * **Chunks.** Each BFS level is a queue of chunk buffers, each holding
//!   at most [`CHUNK_LEN`] frontier keys back to back with their end
//!   offsets — a constant, never a function of `jobs`. A chunk is
//!   expanded against the visited set *as it stands at the chunk's
//!   start*, then merged before the next chunk starts. A search whose
//!   cap (or byte budget, or deadline) fires partway through a level
//!   stops expanding at that chunk, and no level's successors are ever
//!   held in memory all at once. Spent chunk buffers are reused for the
//!   next level's keys, so a search allocates per buffer, never per key.
//! * **Workers** expand a chunk in parallel, in *batches* of frontier
//!   states. Each worker owns a private engine from the [`Scheme`] and
//!   reports, per state, either its stable best-exit vector or how many
//!   fresh successors it wrote into the batch's one buffer: keys packed
//!   back to back, each with its digest (computed once), orbit size and,
//!   under symmetry, the raw successor. A successor is fresh if it
//!   survives two read-only, order-independent tests: the *frozen*
//!   visited set does not hold it, and no earlier successor of the same
//!   batch has equal words (duplicates are dropped on the worker, before
//!   they reach the merge). Branches whose successor is known without
//!   building it are accounted but not built: the singleton of a router
//!   that its plan leaves unchanged (the state itself, already visited),
//!   and the full set when exactly one router is enabled (that router's
//!   singleton, one branch earlier).
//! * **The coordinator** merges each chunk's batch buffers *sequentially
//!   in canonical order* (frontier index, then branch index): dedup,
//!   state counting, the cap and byte-budget checks, and stable-vector
//!   collection all happen here, in exactly the order the
//!   single-threaded whole-level explorer would perform them. The
//!   pre-filter, the batch dedup and the skipped branches can only drop
//!   successors the merge would reject anyway (the visited set only
//!   grows), so `states`, the stop reason, the stable vectors, the
//!   frontier depth and the peak queue are the same at every chunk
//!   length and every `jobs` value. The coordinator's wall clock splits
//!   into waiting for expansions ([`Metrics::expand_nanos`]) and merging
//!   ([`Metrics::merge_nanos`]).
//!
//! **No locks on the hot path.** The visited set and the chunk being
//! expanded sit in one plain (unlocked) [`Frozen`] owned behind an
//! [`Arc`]. While a chunk runs, workers hold shared clones of that `Arc`
//! — shipped to them inside each work batch and shipped back with the
//! results — and only *read*. Between chunks every clone has been
//! returned, so the coordinator reclaims unique ownership
//! ([`Arc::get_mut`]), inserts sequentially and swaps in the next chunk.
//! Batch buffers travel the same way: out empty with the batch, back
//! filled with its results, and into a pool once merged. The only
//! synchronization anywhere is the message channels themselves (plus a
//! `Mutex` around the shared work-queue receiver, held just long enough
//! to pop a batch). Nothing ever blocks a worker mid-expansion.
//!
//! **The visited set** is 64 stripes selected by key digest, each an
//! open-addressing table of `(digest, arena location)` slots that grows
//! on its own. Keys live in a word arena of fixed-size pages, each key
//! preceded by its length word, and are probed by `(digest, &[u32])`:
//! no allocation per key or per bucket, and no page is ever copied when
//! the set grows. Both schemes hand the set words: flat keys as they
//! are, sweep keys in their self-delimiting per-router encoding.
//!
//! The skeleton knows no engine: the [`Scheme`] trait supplies the
//! per-worker engine, the initial state, and the expansion of one
//! frontier key into a batch buffer. Two schemes drive the same search
//! skeleton:
//!
//! * [`FlatScheme`] (every reflection search without loop prevention):
//!   states are fixed-width `u32` blocks per router encoding (possible,
//!   advertised, best) as bitmasks over the injected exit-path table
//!   (see [`ibgp_sim::flat`]). A worker's [`FlatEngine`] plans every
//!   router's next block from a state's key (memoized on the router's
//!   peers' advertised masks) and writes each branch successor into a
//!   scratch buffer. Only successors that survive the pre-filter and the
//!   batch dedup are copied into the batch buffer, and the coordinator
//!   copies an admitted one into the next level's chunk buffer. Symmetry
//!   acts directly on the words via [`FlatAction`]: the frontier keeps
//!   the raw successor, the visited set its canonical image.
//! * [`SweepScheme`]: any [`SweepEngine`] — the confederation and
//!   hierarchy engines, and [`LpEngine`] for reflection searches under
//!   loop prevention — in the shape of [`FlatScheme`]. States are the
//!   engine's words, one self-delimiting span per router. A worker's
//!   [`SweepPlanner`] plans every router's next span from a state's key
//!   (memoized on the spans of the routers its update reads) and splices
//!   each branch successor from current and planned spans into a scratch
//!   buffer, which the batch buffer copies only if it is fresh. These
//!   engines have no automorphism action and no ample-set proof, so the
//!   sweep search declines symmetry and POR.
//!
//! Determinism: a state's outcome is a pure function of its key and the
//! visited set at its chunk's start, and which of its successors the
//! batch dedup drops only decides what the merge would have found
//! `Seen`, so the merged view is bit-identical for every `jobs` value,
//! including the in-thread `jobs = 1` path (whose dedup window is the
//! whole chunk). Only the per-worker memo split (cache hit/miss counts)
//! varies with scheduling. Engine counters count expanded states only,
//! skipped branches included: a capped search reports the work of the
//! chunks it expanded.
//!
//! **Symmetry reduction** ([`ExploreOptions::symmetry`]): each successor
//! key is canonicalized under the instance's automorphism group (see
//! [`crate::symmetry`]) *before* the visited-set probe, so orbit-mates
//! collapse to one representative. Stable vectors found at
//! representatives are expanded back through the group, which restores
//! exactly the plain search's stable-vector set. If any expanded state
//! could have put an identifier-order tie-break in charge (the guard in
//! `crate::symmetry`), the whole search deterministically restarts with
//! symmetry off. The guard sees the expanded chunks only, so a capped
//! search that stops before reaching a tripping state keeps its group.
//! A skipped branch repeats raw words the guard has already passed.
//!
//! **Partial-order reduction** ([`ExploreOptions::por`]): before
//! expanding a state's branches, each worker asks the engine for the
//! state's ample set — the enabled routers whose activation leaves every
//! transfer-filtered outgoing advertisement unchanged and therefore
//! commutes with every other transition (see [`FlatEngine::ample_set`]
//! for the exactness argument, including the structural discharge of the
//! cycle proviso). When the set is non-empty the state expands through
//! that one compound branch instead of all `n + 1`; otherwise it falls
//! back to full expansion. The choice is a pure function of the state,
//! so verdicts stay bit-identical across `jobs`, and it is
//! automorphism-equivariant, so it composes with symmetry reduction
//! (and with the guard's symmetry-free restart, which keeps POR on).
//! The ample branch is always built; only full expansions skip.
//!
//! **Memory bounding** ([`ExploreOptions::max_bytes`]): the coordinator
//! accounts an estimated byte footprint for every inserted key. On the
//! first budget breach it compacts every stripe from full keys to
//! digest-only entries (64-bit, collision-counted while exact keys are
//! still around); if the digests alone breach the budget, the search
//! stops and reports "ran out of memory budget" instead of OOMing. Byte
//! estimates are per encoding, so a given budget stops a search at the
//! same point at every `jobs` value.

use crate::reachability::{ExploreOptions, Reachability};
use crate::symmetry::{FlatAction, SymmetryGroup};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_sim::flat::hash_words;
use ibgp_sim::{
    FlatEngine, FlatKey, LpEngine, Metrics, StateCodec, SweepEngine, SweepPlanner, SyncEngine,
};
use ibgp_topology::Topology;
use ibgp_types::{ExitPathId, ExitPathRef, RouterId, StopReason};
use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of visited-set stripes. A fixed power of two keeps
/// digest-sharded occupancy balanced.
const SHARD_COUNT: usize = 64;

/// Accounted bytes per exact entry beyond the key payload (digest,
/// bucket bookkeeping). An estimate, like [`key_bytes`].
const ENTRY_OVERHEAD: usize = 48;

/// Accounted bytes per digest-only entry after compaction.
const DIGEST_ENTRY_BYTES: usize = 16;

/// Largest number of frontier states bundled into one worker handoff.
const MAX_BATCH: usize = 256;

/// Frontier states expanded, then merged, per chunk.
const CHUNK_LEN: usize = 4096;

/// Words per visited-set arena page (256 KiB). Pages never reallocate,
/// so the arena grows without copying the keys it already holds.
const PAGE_WORDS: usize = 1 << 16;

/// Slots a stripe starts with (a power of two).
const STRIPE_SLOTS: usize = 16;

/// Arena location of an empty slot.
const EMPTY: u64 = u64::MAX;

/// Arena location of every slot once compaction has dropped the keys.
const DIGEST_ONLY: u64 = 0;

/// Fibonacci-hashing multiplier (2^64 / golden ratio) spreading a
/// digest's stripe-internal bits over the slot index.
const SLOT_SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Accounted bytes of a visited key of `words` words: what a [`FlatKey`]
/// holding it takes, the struct plus the word payload. An estimate, the
/// same for every scheme and schedule.
fn key_bytes(words: usize) -> usize {
    std::mem::size_of::<FlatKey>() + words * std::mem::size_of::<u32>()
}

/// A key as the visited set sees it: a digest for striping and probing,
/// the words that decide equality, and the bytes the memory budget
/// charges for it.
struct Probe<'k> {
    digest: u64,
    words: &'k [u32],
    bytes: usize,
}

/// Key storage: fixed-size pages, each key stored as its length word
/// followed by its words. A location packs `page << 32 | offset`.
#[derive(Default)]
struct Arena {
    pages: Vec<Vec<u32>>,
}

impl Arena {
    fn push(&mut self, words: &[u32]) -> u64 {
        let need = words.len() + 1;
        if self
            .pages
            .last()
            .is_none_or(|page| page.capacity() - page.len() < need)
        {
            // A key longer than a page gets a page of its own size.
            self.pages.push(Vec::with_capacity(PAGE_WORDS.max(need)));
        }
        let index = self.pages.len() - 1;
        let page = &mut self.pages[index];
        let offset = page.len();
        page.push(u32::try_from(words.len()).expect("a key's length fits one word"));
        page.extend_from_slice(words);
        (index as u64) << 32 | offset as u64
    }

    fn get(&self, at: u64) -> &[u32] {
        let page = &self.pages[(at >> 32) as usize];
        let offset = (at & 0xffff_ffff) as usize;
        &page[offset + 1..offset + 1 + page[offset] as usize]
    }
}

#[derive(Clone, Copy)]
struct Slot {
    digest: u64,
    /// Arena location of the key, [`EMPTY`], or [`DIGEST_ONLY`].
    at: u64,
}

const VACANT: Slot = Slot {
    digest: 0,
    at: EMPTY,
};

/// One stripe: linear-probing slots, at most three quarters full,
/// doubled on its own when an insert would pass that. A batch buffer's
/// dedup index is a stripe too, locating its own keys.
struct Stripe {
    slots: Vec<Slot>,
    len: usize,
}

impl Stripe {
    fn new() -> Self {
        Self {
            slots: vec![VACANT; STRIPE_SLOTS],
            len: 0,
        }
    }

    /// Empty every slot, keeping the capacity.
    fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
    }

    fn home(&self, digest: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((digest / SHARD_COUNT as u64).wrapping_mul(SLOT_SPREAD) >> (64 - bits)) as usize
    }

    /// Walk `digest`'s probe sequence: `Ok` at the first slot with this
    /// digest whose location `same` accepts, otherwise `Err` with the
    /// vacant slot that ended the walk and whether a slot with this
    /// digest was passed on the way (a digest collision).
    fn probe(&self, digest: u64, mut same: impl FnMut(u64) -> bool) -> Result<(), (usize, bool)> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(digest);
        let mut collision = false;
        loop {
            let slot = self.slots[i];
            if slot.at == EMPTY {
                return Err((i, collision));
            }
            if slot.digest == digest {
                if same(slot.at) {
                    return Ok(());
                }
                collision = true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Fill `vacant` (from [`Stripe::probe`]) with `slot`, growing first
    /// if the stripe would pass three quarters full.
    fn place(&mut self, mut vacant: usize, slot: Slot) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = vec![VACANT; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            for moved in old.into_iter().filter(|s| s.at != EMPTY) {
                let Err((i, _)) = self.probe(moved.digest, |_| false) else {
                    unreachable!("a probe that accepts nothing ends at a vacant slot")
                };
                self.slots[i] = moved;
            }
            let Err((i, _)) = self.probe(slot.digest, |_| false) else {
                unreachable!("a probe that accepts nothing ends at a vacant slot")
            };
            vacant = i;
        }
        self.slots[vacant] = slot;
        self.len += 1;
    }
}

impl Default for Stripe {
    fn default() -> Self {
        Self::new()
    }
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
/// coordinator owns it mutably between chunks (via [`Arc::get_mut`]);
/// workers only ever hold it behind a shared `Arc` and call
/// [`Self::contains`].
struct Visited {
    stripes: Vec<Stripe>,
    arena: Arena,
    /// Exact keys were dropped: a digest match is membership.
    compacted: bool,
}

impl Visited {
    fn new() -> Self {
        Self {
            stripes: (0..SHARD_COUNT).map(|_| Stripe::new()).collect(),
            arena: Arena::default(),
            compacted: false,
        }
    }

    fn stripe(digest: u64) -> usize {
        (digest % SHARD_COUNT as u64) as usize
    }

    /// Read-only membership test (the workers' pre-filter).
    fn contains(&self, digest: u64, words: &[u32]) -> bool {
        self.stripes[Self::stripe(digest)]
            .probe(digest, |at| self.compacted || self.arena.get(at) == words)
            .is_ok()
    }

    /// Insert if new (the coordinator's authoritative dedup).
    fn insert(&mut self, key: &Probe) -> Inserted {
        let s = Self::stripe(key.digest);
        let probe = self.stripes[s].probe(key.digest, |at| {
            self.compacted || self.arena.get(at) == key.words
        });
        let Err((vacant, collision)) = probe else {
            return Inserted::Seen;
        };
        // A digest-only probe stops at the first equal digest, so a
        // collision is only ever observed while exact keys are stored.
        let (at, bytes) = if self.compacted {
            (DIGEST_ONLY, DIGEST_ENTRY_BYTES)
        } else {
            let overhead = if collision { 0 } else { ENTRY_OVERHEAD };
            (self.arena.push(key.words), key.bytes + overhead)
        };
        let digest = key.digest;
        self.stripes[s].place(vacant, Slot { digest, at });
        Inserted::New { bytes, collision }
    }

    /// Drop every exact key, keeping one digest-only entry per distinct
    /// digest. Returns the accounted footprint of the compacted set.
    fn compact(&mut self) -> usize {
        let mut total = 0usize;
        for stripe in &mut self.stripes {
            let old = std::mem::take(stripe);
            for slot in old.slots.into_iter().filter(|s| s.at != EMPTY) {
                if let Err((vacant, _)) = stripe.probe(slot.digest, |_| true) {
                    stripe.place(
                        vacant,
                        Slot {
                            digest: slot.digest,
                            at: DIGEST_ONLY,
                        },
                    );
                }
            }
            total += stripe.len * DIGEST_ENTRY_BYTES;
        }
        self.arena = Arena::default();
        self.compacted = true;
        total
    }

    /// Most keys (or digests) held by any one stripe (balance gauge).
    fn peak_shard(&self) -> u64 {
        self.stripes.iter().map(|s| s.len).max().unwrap_or(0) as u64
    }
}

/// Keys laid back to back, key `i` ending at `ends[i]`: a chunk of
/// frontier states, or the fresh successors of one batch. The end
/// offsets cover fixed-width flat keys and variable-length sweep keys
/// alike. Buffers are cleared and reused, never freed mid-search.
#[derive(Default)]
struct Packed {
    words: Vec<u32>,
    ends: Vec<usize>,
}

impl Packed {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[start..self.ends[i]]
    }

    fn push(&mut self, key: &[u32]) {
        self.words.extend_from_slice(key);
        self.ends.push(self.words.len());
    }

    fn clear(&mut self) {
        self.words.clear();
        self.ends.clear();
    }
}

/// What one frontier state turned out to be.
enum UnitOutcome {
    /// A fixed point, with its best-exit vector.
    Stable(Vec<Option<ExitPathId>>),
    /// Not stable: it wrote `fresh` successors into its batch buffer,
    /// after those of the batch's earlier units.
    Expanded {
        fresh: usize,
        /// The state was expanded through the single compound ample
        /// branch of the partial-order reduction (false for full
        /// expansion — including every expansion when POR is off).
        ample: bool,
    },
}

/// The tie-soundness guard tripped.
struct Unsound;

/// One batch's expansion, written by a worker and read by the merge:
/// each unit's outcome in unit order, and the fresh successors of all
/// its units in (unit, branch) order — the visited keys with their
/// digests and orbit sizes, and under symmetry the raw successors the
/// next frontier expands. A successor whose words equal an earlier fresh
/// one of the same batch never enters: the merge would find it `Seen`.
#[derive(Default)]
struct Expansion {
    outcomes: Vec<UnitOutcome>,
    /// A unit tripped the tie-soundness guard: the whole search must
    /// restart without symmetry, and the batch stopped there.
    unsound: bool,
    keys: Packed,
    digests: Vec<u64>,
    orbits: Vec<u64>,
    /// Empty without symmetry, where the key is the frontier state.
    raw: Packed,
    /// The batch dedup: each fresh key's index in `keys`, by digest.
    index: Stripe,
}

impl Expansion {
    fn clear(&mut self) {
        self.outcomes.clear();
        self.unsound = false;
        self.keys.clear();
        self.digests.clear();
        self.orbits.clear();
        self.raw.clear();
        self.index.clear();
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Add a successor that `visited` does not hold, unless an earlier
    /// one of this batch has the same words. Equality is exact: keys
    /// that only share a digest are both kept.
    fn push(&mut self, digest: u64, key: &[u32], raw: Option<&[u32]>, orbit: u64) {
        let keys = &self.keys;
        let Err((vacant, _)) = self.index.probe(digest, |at| keys.get(at as usize) == key) else {
            return;
        };
        let at = self.keys.len() as u64;
        self.index.place(vacant, Slot { digest, at });
        self.keys.push(key);
        self.digests.push(digest);
        self.orbits.push(orbit);
        if let Some(raw) = raw {
            self.raw.push(raw);
        }
    }

    /// Fresh successor `i` as the visited set probes it, and its orbit
    /// size.
    fn fresh(&self, i: usize) -> (Probe<'_>, u64) {
        let words = self.keys.get(i);
        let probe = Probe {
            digest: self.digests[i],
            words,
            bytes: key_bytes(words.len()),
        };
        (probe, self.orbits[i])
    }

    /// The words the next frontier expands for fresh successor `i`.
    fn frontier_key(&self, i: usize) -> &[u32] {
        if self.raw.len() == 0 {
            self.keys.get(i)
        } else {
            self.raw.get(i)
        }
    }
}

/// One search strategy: the engine that expands states and the visited
/// key. Shared (`&self`) across worker threads; all mutable engine
/// state lives in the per-worker [`Scheme::Engine`].
trait Scheme: Sync {
    /// A worker's private expansion engine.
    type Engine;

    /// A fresh engine, ready to expand. Called once for the coordinator
    /// and once per worker.
    fn engine(&self) -> Self::Engine;

    /// Write the initial state into `out` as its one fresh successor, or
    /// report that it already trips the tie-soundness guard.
    fn initial(&self, engine: &mut Self::Engine, out: &mut Expansion) -> Result<(), Unsound>;

    /// Expand one frontier state, writing its fresh successors into
    /// `out`.
    fn expand_unit(
        &self,
        engine: &mut Self::Engine,
        key: &[u32],
        branches: &[Vec<RouterId>],
        visited: &Visited,
        out: &mut Expansion,
    ) -> Result<UnitOutcome, Unsound>;

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

/// Whether branch `b` of [`branch_sets`] over `routers` routers needs
/// no successor built, because its successor is known: the singleton of
/// a router that is not `enabled` is the frontier state itself, which is
/// visited (under symmetry, its canonical image is) and whose raw words
/// the guard has passed; the full set when exactly one router is
/// enabled is that router's singleton, which comes one branch earlier.
/// The merge would find either one `Seen`. For one router the two
/// branches are the same set, and the singleton is the one built.
fn repeats(b: usize, routers: usize, enabled: impl Fn(RouterId) -> bool) -> bool {
    if b < routers {
        !enabled(RouterId::new(b as u32))
    } else {
        (0..routers as u32)
            .filter(|&u| enabled(RouterId::new(u)))
            .count()
            == 1
    }
}

/// The flat fixed-width encoding path: frontier states are key words,
/// expanded by a key-in, key-out [`FlatEngine`].
struct FlatScheme<'a> {
    topo: &'a Topology,
    config: ProtocolConfig,
    exits: &'a [ExitPathRef],
    codec: Arc<StateCodec>,
    group: Option<&'a SymmetryGroup>,
    action: Option<FlatAction>,
    por: bool,
}

/// A worker's flat engine plus the scratch buffers successors are built
/// in. A successor the pre-filter rejects never leaves them.
struct FlatWorker<'a> {
    engine: FlatEngine<'a>,
    succ: Vec<u32>,
    canon: Vec<u32>,
    image: Vec<u32>,
}

impl<'a> FlatScheme<'a> {
    /// The simulation engine at `config(0)`, which every worker's
    /// [`FlatEngine`] is built from.
    fn start(&self) -> SyncEngine<'a> {
        SyncEngine::new(self.topo, self.config, self.exits.to_vec())
    }

    /// Key the successor in `w.succ`: canonicalize it under the group,
    /// hash it once, and copy it into `out` unless `visited` (or `out`)
    /// already holds it.
    fn keep(
        &self,
        w: &mut FlatWorker,
        visited: Option<&Visited>,
        out: &mut Expansion,
    ) -> Result<(), Unsound> {
        let (words, raw, orbit) = match &self.action {
            None => (&w.succ, None, 1),
            Some(action) => {
                if action.guard_trips(&w.succ) {
                    return Err(Unsound);
                }
                let orbit = action.canonical_into(&w.succ, &mut w.canon, &mut w.image);
                (&w.canon, Some(w.succ.as_slice()), orbit)
            }
        };
        let digest = hash_words(words);
        if !visited.is_some_and(|v| v.contains(digest, words)) {
            out.push(digest, words, raw, orbit);
        }
        Ok(())
    }
}

impl<'a> Scheme for FlatScheme<'a> {
    type Engine = FlatWorker<'a>;

    fn engine(&self) -> FlatWorker<'a> {
        FlatWorker {
            engine: FlatEngine::new(&self.start(), Arc::clone(&self.codec)),
            succ: vec![0; self.codec.key_words()],
            canon: Vec::new(),
            image: Vec::new(),
        }
    }

    fn initial(&self, w: &mut FlatWorker<'a>, out: &mut Expansion) -> Result<(), Unsound> {
        let key = self.codec.encode_key(&self.start().state_key(0));
        w.succ.copy_from_slice(key.words());
        self.keep(w, None, out)
    }

    fn expand_unit(
        &self,
        w: &mut FlatWorker<'a>,
        key: &[u32],
        branches: &[Vec<RouterId>],
        visited: &Visited,
        out: &mut Expansion,
    ) -> Result<UnitOutcome, Unsound> {
        if w.engine.plan(key) {
            return Ok(UnitOutcome::Stable(w.engine.best_vector()));
        }
        let before = out.len();
        // POR: one compound ample branch when the engine can prove the
        // commutation precondition, the full branch set otherwise. The
        // choice is a pure function of the key, so verdicts stay
        // bit-identical at every `jobs` value.
        let ample = if self.por { w.engine.ample_set() } else { None };
        let reduced = ample.is_some();
        if let Some(set) = ample {
            w.engine.successor_into(&set, &mut w.succ);
            self.keep(w, Some(visited), out)?;
        } else {
            let routers = branches.len() - 1;
            for (b, branch) in branches.iter().enumerate() {
                if repeats(b, routers, |u| w.engine.enabled(u)) {
                    w.engine.account(branch);
                    continue;
                }
                w.engine.successor_into(branch, &mut w.succ);
                self.keep(w, Some(visited), out)?;
            }
        }
        Ok(UnitOutcome::Expanded {
            fresh: out.len() - before,
            ample: reduced,
        })
    }

    fn vector_orbit(&self, bv: &[Option<ExitPathId>]) -> Vec<Vec<Option<ExitPathId>>> {
        match self.group {
            Some(g) => g.vector_orbit(bv),
            None => vec![bv.to_vec()],
        }
    }

    fn metrics(&self, w: &FlatWorker) -> Metrics {
        w.engine.metrics()
    }
}

/// The search for any [`SweepEngine`]: frontier states are key words —
/// every router's span laid end to end — expanded by a key-in, key-out
/// [`SweepPlanner`] over the engine's update rule.
struct SweepScheme<'e, E> {
    engine: &'e E,
}

/// A worker's sweep planner plus the scratch buffer successors are
/// spliced in. A successor the pre-filter rejects never leaves it.
struct SweepWorker<'e, E> {
    planner: SweepPlanner<'e, E>,
    succ: Vec<u32>,
}

impl<'e, E: SweepEngine + Sync> Scheme for SweepScheme<'e, E> {
    type Engine = SweepWorker<'e, E>;

    fn engine(&self) -> SweepWorker<'e, E> {
        SweepWorker {
            planner: SweepPlanner::new(self.engine),
            succ: Vec::new(),
        }
    }

    fn initial(
        &self,
        _worker: &mut SweepWorker<'e, E>,
        out: &mut Expansion,
    ) -> Result<(), Unsound> {
        let words = self.engine.words();
        out.push(hash_words(words), words, None, 1);
        Ok(())
    }

    fn expand_unit(
        &self,
        w: &mut SweepWorker<'e, E>,
        key: &[u32],
        branches: &[Vec<RouterId>],
        visited: &Visited,
        out: &mut Expansion,
    ) -> Result<UnitOutcome, Unsound> {
        // One plan serves the fixed-point test and every branch.
        if w.planner.plan(key) {
            return Ok(UnitOutcome::Stable(w.planner.best_vector()));
        }
        let before = out.len();
        let routers = branches.len() - 1;
        for (b, branch) in branches.iter().enumerate() {
            if repeats(b, routers, |u| w.planner.enabled(u)) {
                w.planner.account(branch);
                continue;
            }
            w.planner.successor_into(branch, &mut w.succ);
            let digest = hash_words(&w.succ);
            if !visited.contains(digest, &w.succ) {
                out.push(digest, &w.succ, None, 1);
            }
        }
        Ok(UnitOutcome::Expanded {
            fresh: out.len() - before,
            ample: false,
        })
    }

    fn metrics(&self, w: &SweepWorker<'e, E>) -> Metrics {
        w.planner.metrics()
    }
}

/// What workers read while a chunk expands: the visited set as it stood
/// at the chunk's start, and the chunk's frontier keys. Shared behind an
/// [`Arc`] while the chunk runs, owned by the coordinator between chunks.
struct Frozen {
    visited: Visited,
    chunk: Packed,
}

/// One worker handoff: a range of the chunk's units, a shared handle on
/// the [`Frozen`] chunk and visited set, and an empty buffer to expand
/// into (the handle comes back with the filled buffer, so the
/// coordinator can reclaim unique ownership between chunks).
struct Batch {
    /// Position of this batch within the chunk.
    seq: usize,
    units: Range<usize>,
    frozen: Arc<Frozen>,
    out: Expansion,
}

/// Messages from workers to the coordinator.
enum WorkerMsg {
    /// One expanded batch, plus the returned shared handle.
    Batch {
        seq: usize,
        out: Expansion,
        frozen: Arc<Frozen>,
    },
    /// Final engine counters, sent once when the worker shuts down.
    Done(Metrics),
}

/// Expand the frontier states `units` of `frozen`'s chunk into `out`, in
/// unit order, stopping at a unit that trips the tie-soundness guard.
fn expand_batch<S: Scheme>(
    scheme: &S,
    engine: &mut S::Engine,
    frozen: &Frozen,
    units: Range<usize>,
    branches: &[Vec<RouterId>],
    out: &mut Expansion,
) {
    out.clear();
    for i in units {
        let key = frozen.chunk.get(i);
        match scheme.expand_unit(engine, key, branches, &frozen.visited, out) {
            Ok(outcome) => out.outcomes.push(outcome),
            Err(Unsound) => {
                out.unsound = true;
                return;
            }
        }
    }
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
    /// Coordinator wall clock waiting for chunk expansions, and merging
    /// them.
    expand_nanos: u64,
    merge_nanos: u64,
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

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Reclaim unique ownership of the visited set and the chunk between
/// chunks. Panics if any worker still holds a clone — which would be a
/// protocol bug, since every batch handle is shipped back with its
/// results.
fn owned(v: &mut Arc<Frozen>) -> &mut Frozen {
    Arc::get_mut(v).expect("chunk over: all clones returned")
}

/// The next BFS level as the merge builds it: chunk buffers of at most
/// `chunk_len` keys each, taken from the spent ones when there are any.
#[derive(Default)]
struct Level {
    chunks: Vec<Packed>,
    len: usize,
}

impl Level {
    fn push(&mut self, key: &[u32], chunk_len: usize, spare: &mut Vec<Packed>) {
        if self.chunks.last().is_none_or(|c| c.len() >= chunk_len) {
            self.chunks.push(spare.pop().unwrap_or_default());
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(key);
        self.len += 1;
    }
}

/// Merge one batch's outcomes in canonical (unit, branch) order: dedup
/// into the visited set, count states, check the cap and the byte
/// budget, collect stable vectors, and hand each admitted successor's
/// frontier words to `admit`. Returns whether a budget stopped the
/// search.
fn merge<S: Scheme>(
    scheme: &S,
    p: &mut Progress,
    visited: &mut Visited,
    batch: &Expansion,
    max_states: usize,
    max_bytes: Option<usize>,
    mut admit: impl FnMut(&[u32]),
) -> bool {
    let mut end = 0;
    for outcome in &batch.outcomes {
        match outcome {
            // Expand the representative's fixed point through the
            // group: the plain search would have found every image.
            UnitOutcome::Stable(bv) => {
                for img in scheme.vector_orbit(bv) {
                    if !p.stable_vectors.contains(&img) {
                        p.stable_vectors.push(img);
                    }
                }
            }
            UnitOutcome::Expanded { fresh, ample } => {
                if *ample {
                    p.por_ample += 1;
                } else {
                    p.por_full += 1;
                }
                let start = end;
                end += fresh;
                for i in start..end {
                    let (key, orbit) = batch.fresh(i);
                    let Inserted::New { bytes, collision } = visited.insert(&key) else {
                        continue;
                    };
                    p.states += 1;
                    p.orbit_states += orbit;
                    if collision {
                        p.collisions += 1;
                    }
                    p.bytes += bytes;
                    p.peak_bytes = p.peak_bytes.max(p.bytes);
                    if p.states > max_states {
                        p.stop = StopReason::StateCap(max_states);
                        return true;
                    }
                    if let Some(budget) = max_bytes {
                        if p.bytes > budget && p.compactions == 0 {
                            p.bytes = visited.compact();
                            p.compactions = 1;
                            p.peak_bytes = p.peak_bytes.max(p.bytes);
                        }
                        if p.bytes > budget {
                            p.stop = StopReason::MemoryBudget(budget);
                            return true;
                        }
                    }
                    admit(batch.frontier_key(i));
                }
            }
        }
    }
    false
}

/// Run the level loop: take each level chunk by chunk, expand a chunk
/// via `expand` into batch buffers (taken from the spent ones it is
/// handed, when there are any), then [`merge`] them in order before the
/// next chunk starts. The merge is the single place dedup, the state
/// cap, the byte budget, and stable-vector discovery happen, which is
/// what makes the result independent of how `expand` schedules the
/// per-unit work — and, because the pre-filter, the batch dedup and the
/// skipped branches only drop what the merge would reject, of
/// `chunk_len` and the batch boundaries too.
///
/// `expand` reads the chunk and the visited set through the shared
/// `Arc`; it must have dropped every clone by the time it returns,
/// because the merge reclaims unique ownership to insert.
fn drive<S: Scheme>(
    scheme: &S,
    first: Packed,
    frozen: &mut Arc<Frozen>,
    start: DriveStart,
    chunk_len: usize,
    mut expand: impl FnMut(&Arc<Frozen>, &mut Vec<Expansion>) -> Vec<Expansion>,
) -> Progress {
    assert!(chunk_len > 0, "chunks hold at least one state");
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
        expand_nanos: 0,
        merge_nanos: 0,
    };
    // A budget smaller than the initial state compacts (and possibly
    // stops) immediately — deterministic, like every later breach.
    if let Some(budget) = max_bytes {
        if p.bytes > budget {
            p.bytes = owned(frozen).visited.compact();
            p.compactions += 1;
            if p.bytes > budget {
                p.stop = StopReason::MemoryBudget(budget);
                return p;
            }
        }
    }
    let mut spare_chunks: Vec<Packed> = Vec::new();
    let mut spare_batches: Vec<Expansion> = Vec::new();
    let mut level = vec![first];
    let mut depth = 0u64;
    'levels: while !level.is_empty() {
        let mut next = Level::default();
        for chunk in level {
            // Deadline check before every chunk: the visited prefix is
            // always whole chunks in canonical order, and an
            // already-expired deadline stops before the first expansion,
            // deterministically.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                p.stop = StopReason::Deadline;
                break 'levels;
            }
            p.units += chunk.len() as u64;
            let mut spent = std::mem::replace(&mut owned(frozen).chunk, chunk);
            spent.clear();
            spare_chunks.push(spent);
            let expanding = Instant::now();
            let batches = expand(frozen, &mut spare_batches);
            let merging = Instant::now();
            p.expand_nanos += nanos(merging - expanding);
            // Soundness scan first: whether any unit tripped the guard is
            // a pure function of the (deterministic) chunk contents, so
            // the restart decision is schedule-independent.
            if batches.iter().any(|b| b.unsound) {
                p.unsound = true;
                break 'levels;
            }
            let visited = &mut owned(frozen).visited;
            let mut stopped = false;
            for batch in &batches {
                stopped = merge(
                    scheme,
                    &mut p,
                    visited,
                    batch,
                    max_states,
                    max_bytes,
                    |key| next.push(key, chunk_len, &mut spare_chunks),
                );
                if stopped {
                    break;
                }
            }
            spare_batches.extend(batches);
            p.merge_nanos += nanos(merging.elapsed());
            if stopped {
                break 'levels;
            }
        }
        if next.len > 0 {
            depth += 1;
            p.frontier_depth = depth;
            p.peak_queue = p.peak_queue.max(next.len as u64);
        }
        level = next.chunks;
    }
    p
}

/// A finished search: the merged bookkeeping, the summed engine
/// counters, and the visited set's peak stripe occupancy.
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
    chunk_len: usize,
) -> Option<Found> {
    let mut frozen = Arc::new(Frozen {
        visited: Visited::new(),
        chunk: Packed::default(),
    });
    let mut engine = scheme.engine();
    let mut init = Expansion::default();
    scheme.initial(&mut engine, &mut init).ok()?;
    let (key, initial_orbit) = init.fresh(0);
    let initial_bytes = match owned(&mut frozen).visited.insert(&key) {
        Inserted::New { bytes, .. } => bytes,
        Inserted::Seen => 0,
    };
    let mut first = Packed::default();
    first.push(init.frontier_key(0));
    let start = DriveStart {
        max_states: options.max_states,
        max_bytes: options.max_bytes,
        deadline: options.deadline,
        initial_bytes,
        initial_orbit,
    };

    let (progress, engine_metrics) = if jobs <= 1 {
        // In-thread: one buffer per chunk, so the batch dedup spans the
        // whole chunk.
        let p = drive(
            scheme,
            first,
            &mut frozen,
            start,
            chunk_len,
            |frozen, spare| {
                let mut out = spare.pop().unwrap_or_default();
                let units = 0..frozen.chunk.len();
                expand_batch(scheme, &mut engine, frozen, units, branches, &mut out);
                vec![out]
            },
        );
        (p, scheme.metrics(&engine))
    } else {
        std::thread::scope(|scope| {
            let (work_tx, work_rx) = mpsc::channel::<Batch>();
            let work_rx = Arc::new(Mutex::new(work_rx));
            let (res_tx, res_rx) = mpsc::channel::<WorkerMsg>();
            for _ in 0..jobs {
                let work_rx = Arc::clone(&work_rx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let mut engine = scheme.engine();
                    loop {
                        // Hold the receiver lock only for the handoff.
                        let batch = work_rx.lock().expect("work queue poisoned").recv();
                        let Ok(Batch {
                            seq,
                            units,
                            frozen,
                            mut out,
                        }) = batch
                        else {
                            break; // work channel closed: shut down
                        };
                        expand_batch(scheme, &mut engine, &frozen, units, branches, &mut out);
                        // Ship the shared handle back with the results:
                        // once the coordinator has drained the chunk, it
                        // holds the only reference again.
                        if res_tx.send(WorkerMsg::Batch { seq, out, frozen }).is_err() {
                            break;
                        }
                    }
                    let _ = res_tx.send(WorkerMsg::Done(scheme.metrics(&engine)));
                });
            }
            drop(res_tx);

            let p = drive(
                scheme,
                first,
                &mut frozen,
                start,
                chunk_len,
                |frozen, spare| {
                    let len = frozen.chunk.len();
                    // Batches amortize the channel and queue-lock
                    // traffic; several batches per worker keep the chunk
                    // balanced when unit costs vary.
                    let batch_size = len.div_ceil(jobs * 4).clamp(1, MAX_BATCH);
                    let count = len.div_ceil(batch_size);
                    for seq in 0..count {
                        work_tx
                            .send(Batch {
                                seq,
                                units: seq * batch_size..len.min((seq + 1) * batch_size),
                                frozen: Arc::clone(frozen),
                                out: spare.pop().unwrap_or_default(),
                            })
                            .expect("worker pool died");
                    }
                    let mut done: Vec<Option<Expansion>> =
                        std::iter::repeat_with(|| None).take(count).collect();
                    for _ in 0..count {
                        match res_rx.recv().expect("worker pool died") {
                            WorkerMsg::Batch { seq, out, frozen } => {
                                // Drop the returned handle immediately so
                                // the merge's `Arc::get_mut` succeeds.
                                drop(frozen);
                                done[seq] = Some(out);
                            }
                            WorkerMsg::Done(_) => {
                                unreachable!("workers outlive the work channel")
                            }
                        }
                    }
                    done.into_iter()
                        .map(|o| o.expect("every batch reports exactly once"))
                        .collect()
                },
            );

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
    let peak_shard = frozen.visited.peak_shard();
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
    search_chunked(topo, config, exits, options, CHUNK_LEN)
}

/// [`search`] at an explicit chunk length.
fn search_chunked(
    topo: &Topology,
    config: ProtocolConfig,
    exits: Vec<ExitPathRef>,
    options: &ExploreOptions,
    chunk_len: usize,
) -> Reachability {
    let started = Instant::now();
    if options.loop_prevention {
        // The reflection attributes live in the loop-prevention rule's
        // spans, which the flat codec has no slots for.
        let initial = LpEngine::new(topo, config, exits);
        return sweep_chunked(initial, options, started, chunk_len);
    }
    search_inner(topo, config, exits, options, started, chunk_len)
}

/// The search behind [`crate::reachability::explore_sweep`].
pub(crate) fn sweep_search<E: SweepEngine + Sync>(
    initial: E,
    options: &ExploreOptions,
) -> Reachability {
    sweep_chunked(initial, options, Instant::now(), CHUNK_LEN)
}

/// [`sweep_search`] at an explicit chunk length. Sweep engines have no
/// automorphism action and no ample-set proof, so the search declines
/// symmetry and POR: the verdict reports group order 0 and no ample
/// expansions.
fn sweep_chunked<E: SweepEngine + Sync>(
    initial: E,
    options: &ExploreOptions,
    started: Instant,
    chunk_len: usize,
) -> Reachability {
    let mut plain = options.clone();
    plain.symmetry = false;
    plain.por = false;
    let jobs = plain.effective_jobs();
    let branches = branch_sets(initial.routers());
    let scheme = SweepScheme { engine: &initial };
    let found = run_search(&scheme, &plain, jobs, &branches, chunk_len)
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
    chunk_len: usize,
) -> Reachability {
    let mut plain = options.clone();
    plain.symmetry = false;
    let mut r = search_inner(topo, config, exits, &plain, started, chunk_len);
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
    chunk_len: usize,
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
    let codec = Arc::new(StateCodec::new(topo.len(), &exits));
    let scheme = FlatScheme {
        topo,
        config,
        exits: &exits,
        action: group.map(|g| FlatAction::new(g, &codec)),
        codec,
        group,
        por: options.por,
    };
    let found = run_search(&scheme, options, jobs, &branches, chunk_len);

    match found {
        Some(found) => report(found, options, jobs, group_storage.as_ref(), started),
        None => fallback_without_symmetry(topo, config, exits, options, started, chunk_len),
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
    metrics.elapsed_nanos = nanos(started.elapsed());
    metrics.expand_nanos = progress.expand_nanos;
    metrics.merge_nanos = progress.merge_nanos;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_topology::TopologyBuilder;
    use ibgp_types::{AsId, ExitPath, Med};

    fn exit(id: u32, exit_point: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(1))
                .med(Med::new(0))
                .exit_point(RouterId::new(exit_point))
                .build_unchecked(),
        )
    }

    /// Five routers in two clusters: a few thousand reachable states, so
    /// every level past the first few spans many short chunks.
    fn two_clusters() -> (Topology, Vec<ExitPathRef>) {
        let topo = TopologyBuilder::new(5)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .link(2, 4, 2)
            .link(3, 4, 3)
            .cluster([0], [2, 4])
            .cluster([1], [3])
            .build()
            .unwrap();
        (topo, vec![exit(1, 2), exit(2, 3), exit(3, 4)])
    }

    /// Fig 13's rotation: three reflector/client clusters in a cost
    /// cycle — a group of order 3.
    fn rotation() -> (Topology, Vec<ExitPathRef>) {
        let costs = [[2u64, 1, 3], [3, 2, 1], [1, 3, 2]];
        let mut b = TopologyBuilder::new(6);
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                b = b.link(i as u32, 3 + j as u32, c);
            }
        }
        let topo = b
            .cluster([0], [3])
            .cluster([1], [4])
            .cluster([2], [5])
            .build()
            .unwrap();
        (topo, vec![exit(1, 3), exit(2, 4), exit(3, 5)])
    }

    /// One chunk per level: the whole-level merge of earlier versions.
    const WHOLE_LEVEL: usize = usize::MAX;

    fn assert_same_search(got: &Reachability, want: &Reachability, label: &str) {
        assert_eq!(got.states, want.states, "{label}: states");
        assert_eq!(got.stop, want.stop, "{label}: stop");
        assert_eq!(got.stable_vectors, want.stable_vectors, "{label}: stable");
        let (g, w) = (&got.metrics, &want.metrics);
        assert_eq!(g.frontier_depth, w.frontier_depth, "{label}: depth");
        assert_eq!(g.peak_queue, w.peak_queue, "{label}: peak queue");
        assert_eq!(g.group_order, w.group_order, "{label}: group order");
        assert_eq!(g.orbit_states, w.orbit_states, "{label}: orbit states");
        if want.complete {
            assert_eq!(g.activations, w.activations, "{label}: activations");
            assert_eq!(g.messages, w.messages, "{label}: messages");
            assert_eq!(
                g.paths_advertised, w.paths_advertised,
                "{label}: paths advertised"
            );
            assert_eq!(g.best_changes, w.best_changes, "{label}: best changes");
            assert_eq!(g.por_ample, w.por_ample, "{label}: ample expansions");
            assert_eq!(g.por_full, w.por_full, "{label}: full expansions");
        }
    }

    /// The chunk length is invisible in a search's evidence: states,
    /// stop, stable vectors, frontier depth and peak queue match the
    /// whole-level merge at chunk lengths 1, 2 and 3 — capped searches
    /// included, where the cap fires inside a level spanning many chunks
    /// — and complete searches do the same engine work too. Both schemes:
    /// flat (with and without POR) and the loop-prevention sweep rule.
    #[test]
    fn chunk_length_never_changes_the_search() {
        let (topo, exits) = two_clusters();
        for config in [
            ProtocolConfig::STANDARD,
            ProtocolConfig::WALTON,
            ProtocolConfig::MODIFIED,
        ] {
            for cap in [500_000, 9, 150] {
                for (lp, por) in [(false, false), (true, false), (false, true)] {
                    let opts = ExploreOptions::new()
                        .max_states(cap)
                        .loop_prevention(lp)
                        .por(por);
                    let whole = search_chunked(&topo, config, exits.clone(), &opts, WHOLE_LEVEL);
                    assert!(whole.metrics.peak_queue > 3, "levels span several chunks");
                    for chunk in [1, 2, 3] {
                        for jobs in [1, 2] {
                            let got = search_chunked(
                                &topo,
                                config,
                                exits.clone(),
                                &opts.clone().jobs(jobs),
                                chunk,
                            );
                            let label = format!(
                                "{config:?} cap {cap} lp {lp} por {por} chunk {chunk} jobs {jobs}"
                            );
                            assert_same_search(&got, &whole, &label);
                        }
                    }
                }
            }
        }
    }

    /// Complete symmetric searches keep the group and the orbit count at
    /// every chunk length.
    #[test]
    fn chunk_length_never_changes_a_symmetric_search() {
        let (topo, exits) = rotation();
        let opts = ExploreOptions::new().symmetry(true);
        let whole = search_chunked(
            &topo,
            ProtocolConfig::STANDARD,
            exits.clone(),
            &opts,
            WHOLE_LEVEL,
        );
        assert!(whole.complete);
        assert_eq!(whole.metrics.group_order, 3);
        assert!(whole.metrics.peak_queue > 3, "levels span several chunks");
        for chunk in [1, 2, 3] {
            let got = search_chunked(&topo, ProtocolConfig::STANDARD, exits.clone(), &opts, chunk);
            assert_same_search(&got, &whole, &format!("chunk {chunk}"));
        }
    }

    fn probe(digest: u64, words: &[u32]) -> Probe<'_> {
        Probe {
            digest,
            words,
            bytes: 100,
        }
    }

    /// Keys that share one digest keep exact membership; every key after
    /// the first under that digest is a counted collision, charged no
    /// entry overhead.
    #[test]
    fn constant_digest_keeps_exact_membership_and_counts_collisions() {
        let mut v = Visited::new();
        let keys: Vec<[u32; 2]> = (0..40).map(|i| [i, i * 7]).collect();
        for (i, k) in keys.iter().enumerate() {
            match v.insert(&probe(7, k)) {
                Inserted::New { bytes, collision } => {
                    assert_eq!(collision, i > 0, "key {i}");
                    assert_eq!(bytes, if i > 0 { 100 } else { 100 + ENTRY_OVERHEAD });
                }
                Inserted::Seen => panic!("key {i} is new"),
            }
        }
        for k in &keys {
            assert!(v.contains(7, k));
            assert!(matches!(v.insert(&probe(7, k)), Inserted::Seen));
        }
        assert!(!v.contains(7, &[99, 99]));
        assert!(
            !v.contains(8, &keys[0]),
            "a different digest is a different key"
        );
        assert_eq!(v.peak_shard(), 40, "one stripe holds every key");
    }

    /// Compaction keeps one digest-only entry per distinct digest,
    /// accounted at `DIGEST_ENTRY_BYTES` each; afterwards a digest match
    /// is membership.
    #[test]
    fn compaction_keeps_one_entry_per_digest() {
        let mut v = Visited::new();
        for (digest, words) in [(1, [1u32]), (1, [2]), (2, [3]), (65, [4]), (3, [5])] {
            assert!(matches!(
                v.insert(&probe(digest, &words)),
                Inserted::New { .. }
            ));
        }
        // Digests 1 and 65 share a stripe; 1 holds two keys.
        assert_eq!(v.peak_shard(), 3);
        assert_eq!(v.compact(), 4 * DIGEST_ENTRY_BYTES);
        assert_eq!(v.peak_shard(), 2);
        assert!(v.contains(1, &[42]), "digest-only: conflated");
        assert!(matches!(v.insert(&probe(2, &[77])), Inserted::Seen));
        match v.insert(&probe(4, &[6])) {
            Inserted::New { bytes, collision } => {
                assert_eq!(bytes, DIGEST_ENTRY_BYTES);
                assert!(!collision);
            }
            Inserted::Seen => panic!("digest 4 is new"),
        }
    }

    /// Variable-length keys stored back to back stay distinct: the
    /// length word keeps `[1,2]+[3]` from reading as `[1]+[2,3]` or as
    /// `[1,2,3]`.
    #[test]
    fn variable_length_keys_stay_distinct() {
        let mut v = Visited::new();
        for key in [&[1u32, 2][..], &[3]] {
            assert!(matches!(v.insert(&probe(5, key)), Inserted::New { .. }));
        }
        assert!(!v.contains(5, &[1, 2, 3]));
        assert!(!v.contains(5, &[1]));
        assert!(!v.contains(5, &[2, 3]));
        for key in [&[1u32][..], &[2, 3]] {
            assert!(matches!(v.insert(&probe(5, key)), Inserted::New { .. }));
        }
        for key in [&[1u32, 2][..], &[3], &[1], &[2, 3]] {
            assert!(v.contains(5, key));
        }
    }

    /// Keys spill across arena pages (and a key longer than a page gets
    /// one of its own) without losing membership; stripes grow on their
    /// own.
    #[test]
    fn keys_spanning_many_pages_stay_members() {
        let mut v = Visited::new();
        let keys: Vec<Vec<u32>> = (0..50_000u32).map(|i| vec![i, i ^ 0x55, 3]).collect();
        let long = vec![9u32; PAGE_WORDS + 10];
        for k in keys.iter().chain([&long]) {
            assert!(matches!(
                v.insert(&probe(hash_words(k), k)),
                Inserted::New { .. }
            ));
        }
        assert!(v.arena.pages.len() > 2);
        for k in keys.iter().chain([&long]) {
            assert!(v.contains(hash_words(k), k));
        }
        assert!(!v.contains(hash_words(&[1, 2, 3]), &[1, 2, 3]));
        let total: usize = v.stripes.iter().map(|s| s.len).sum();
        assert_eq!(total, keys.len() + 1);
    }

    /// Keys packed back to back stay distinct by their end offsets:
    /// `[1,2]+[3]` never reads as `[1]+[2,3]`, in a chunk buffer or in a
    /// batch buffer whose keys all share one digest.
    #[test]
    fn packed_buffers_keep_variable_length_keys_distinct() {
        let keys: [&[u32]; 4] = [&[1, 2], &[3], &[1], &[2, 3]];
        let mut chunk = Packed::default();
        let mut batch = Expansion::default();
        for key in keys {
            chunk.push(key);
            batch.push(5, key, None, 1);
        }
        assert_eq!(chunk.len(), 4);
        assert_eq!(batch.len(), 4, "equal digests, different words");
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(chunk.get(i), *key);
            assert_eq!(batch.frontier_key(i), *key);
            let (probe, orbit) = batch.fresh(i);
            assert_eq!(probe.words, *key);
            assert_eq!(probe.bytes, key_bytes(key.len()));
            assert_eq!(orbit, 1);
        }
    }

    /// A cleared buffer reused for shorter or fewer keys shows only what
    /// was written since, and the batch dedup forgets the earlier batch.
    #[test]
    fn recycled_buffers_never_show_a_stale_key() {
        let mut spare = Vec::new();
        let mut chunk = Packed::default();
        for i in 0..10u32 {
            chunk.push(&[i, i, i, i]);
        }
        chunk.clear();
        spare.push(chunk);
        let mut level = Level::default();
        level.push(&[7], 2, &mut spare);
        assert!(spare.is_empty(), "the spent buffer was reused");
        assert_eq!(level.chunks[0].len(), 1);
        assert_eq!(level.chunks[0].get(0), &[7]);
        assert_eq!(level.chunks[0].words, [7]);

        let mut batch = Expansion::default();
        batch.outcomes.push(UnitOutcome::Stable(Vec::new()));
        batch.unsound = true;
        batch.push(hash_words(&[1, 2, 3]), &[1, 2, 3], Some(&[3, 2, 1]), 3);
        batch.push(hash_words(&[4, 5, 6]), &[4, 5, 6], Some(&[6, 5, 4]), 3);
        batch.clear();
        assert!(batch.outcomes.is_empty() && !batch.unsound);
        assert_eq!(batch.len(), 0);
        batch.push(hash_words(&[4, 5]), &[4, 5], None, 1);
        batch.push(hash_words(&[1, 2, 3]), &[1, 2, 3], None, 1);
        assert_eq!(batch.len(), 2, "the cleared dedup index holds nothing");
        assert_eq!(batch.frontier_key(0), &[4, 5], "no stale raw words");
        assert_eq!(batch.frontier_key(1), &[1, 2, 3]);
        assert_eq!(batch.fresh(1).0.digest, hash_words(&[1, 2, 3]));
    }

    /// The batch dedup keeps the first occurrence of a key in (unit,
    /// branch) order — its raw words and orbit size too — exactly the
    /// successor the merge would have admitted.
    #[test]
    fn batch_dedup_keeps_the_first_occurrence() {
        let (a, b) = ([1u32, 1], [2u32, 2]);
        let mut batch = Expansion::default();
        batch.push(hash_words(&a), &a, Some(&[9, 1]), 3);
        batch.push(hash_words(&b), &b, Some(&[9, 2]), 1);
        batch.push(hash_words(&a), &a, Some(&[8, 1]), 3);
        batch.push(hash_words(&b), &b, Some(&[8, 2]), 1);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.fresh(0).0.words, a);
        assert_eq!(batch.frontier_key(0), &[9, 1]);
        assert_eq!(batch.fresh(0).1, 3);
        assert_eq!(batch.fresh(1).0.words, b);
        assert_eq!(batch.frontier_key(1), &[9, 2]);
    }

    /// Keys forced onto one digest are told apart by their words: the
    /// dedup drops only exact repeats, across the index's growth.
    #[test]
    fn batch_dedup_keeps_keys_that_share_a_digest() {
        let keys: Vec<[u32; 2]> = (0..40).map(|i| [i, i * 7]).collect();
        let mut batch = Expansion::default();
        for _ in 0..2 {
            for k in &keys {
                batch.push(7, k, None, 1);
            }
        }
        assert_eq!(batch.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(batch.fresh(i).0.words, k);
            assert_eq!(batch.fresh(i).0.digest, 7);
        }
    }

    /// Which branches are accounted instead of built: a singleton whose
    /// router is not enabled, and the full set when exactly one router
    /// is. With one router the singleton is built and the full set is
    /// not.
    #[test]
    fn redundant_branches_are_the_self_loops_and_a_lone_full_set() {
        let pattern = |enabled: &[bool]| -> Vec<bool> {
            let on = |u: RouterId| enabled[u.index()];
            (0..=enabled.len())
                .map(|b| repeats(b, enabled.len(), on))
                .collect()
        };
        assert_eq!(pattern(&[true]), [false, true]);
        assert_eq!(pattern(&[false, true]), [true, false, true]);
        assert_eq!(pattern(&[true, true]), [false, false, false]);
        assert_eq!(
            pattern(&[true, false, true, false]),
            [false, true, false, true, false]
        );
    }
}
