//! Flat, fixed-width state encoding for the reachability hot path.
//!
//! A configuration's [`StateKey`] — per router the possible set, the
//! best exit and the advertised set — packs into one fixed-width run of
//! `u32` words per state:
//!
//! ```text
//! [ router 0 | router 1 | ... ]         one fixed-width block per router
//! block = [ possible bitmask  : mask_words u32s ]
//!         [ advertised bitmask: mask_words u32s ]
//!         [ best exit index+1 : 1 u32 (0 = no best route) ]
//! ```
//!
//! Exit paths are numbered by a per-search [`StateCodec`] (ascending raw
//! id, so bit order equals the sorted-id order `StateKey` uses), which
//! also converts back to `StateKey` at the API boundary. Equality of
//! the words is exactly equality of the `StateKey`s they encode (at
//! phase 0, the only phase the explorer generates), so visited-set dedup
//! and orbit collapsing decide exactly as on `StateKey`s, by `memcmp`.
//! The explorer never boxes a state: it carries frontier states and
//! fresh successors as words in packed, recycled chunk and batch
//! buffers, hashes each successor once, and keeps its visited keys in a
//! paged word arena. [`FlatKey`] (the words plus their digest) is the
//! owned form at the API boundary. Loop prevention adds per-path
//! attributes the codec has no slots for; those searches run
//! [`crate::lp::LpEngine`] instead.
//!
//! [`FlatEngine`] steps these keys directly: key in, successor keys out,
//! with no engine state to copy and no shared rows. A router's next
//! block is a pure function of its peers' advertised masks (its
//! `MyExits` never change during a search), memoized on exactly those
//! words; everything else a search asks of a state — stability, each
//! branch successor, the best vector, the partial-order ample set, the
//! message counters — is derived from the current and planned blocks by
//! word and mask arithmetic. A router whose planned block equals its
//! current one is not [`FlatEngine::enabled`]: its singleton branch
//! leads back to the loaded key, so the explorer builds nothing for it
//! and only counts the activation ([`FlatEngine::account`], the same
//! counting [`FlatEngine::successor_into`] does).
//!
//! [`SweepPlanner`] is the same engine for the confederation, hierarchy
//! and loop-prevention rules ([`SweepEngine`]), whose states are
//! variable-length per-router spans: each router's next span is memoized
//! on its inputs' spans in the same router memo, and branch successors
//! are spliced from current and planned spans. It skips the same
//! branches the same way.
//!
//! The digest is a hand-rolled Fx-style multiply-xor hash (the workspace
//! deliberately adds no dependencies); it only feeds hash-map bucketing
//! and the digest-compacted visited set, never equality.

use crate::engine::{spans, SweepEngine};
use crate::metrics::Metrics;
use crate::signature::{NodeStateKey, StateKey};
use crate::sync::{transfer_update, SyncEngine};
use ibgp_proto::transfer_allowed;
use ibgp_proto::variants::ProtocolConfig;
use ibgp_topology::Topology;
use ibgp_types::{ExitPathId, ExitPathRef, RouterId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Multiplier from the Fx hash family (the golden-ratio-derived odd
/// constant used by rustc's FxHasher).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style multiply-xor hash over a word slice. Not cryptographic; used
/// for hash-map bucketing and digest-only visited sets.
pub fn hash_words(words: &[u32]) -> u64 {
    let mut h = words.len() as u64;
    for &w in words {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(FX_SEED);
    }
    h
}

/// Per-search table mapping exit-path ids to dense bit positions, plus
/// the derived block geometry. Construction fixes the id set for the
/// whole search (the explorer never injects mid-search).
#[derive(Debug)]
pub struct StateCodec {
    /// Sorted raw exit ids; the bit position of an exit is its index here.
    ids: Vec<u32>,
    routers: usize,
    mask_words: usize,
    node_words: usize,
}

impl StateCodec {
    /// Build the codec for `routers` routers and the given injected exit
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics on duplicate exit ids — scenario construction errors, the
    /// same contract `SyncEngine::new` enforces.
    pub fn new(routers: usize, exits: &[ExitPathRef]) -> Self {
        let mut ids: Vec<u32> = exits.iter().map(|p| p.id().raw()).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "duplicate exit path id"
        );
        let mask_words = ids.len().div_ceil(32);
        Self {
            ids,
            routers,
            mask_words,
            node_words: 2 * mask_words + 1,
        }
    }

    /// Number of distinct exit paths in the table.
    pub fn exit_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of routers per encoded state.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// `u32` words per per-router bitmask.
    pub fn mask_words(&self) -> usize {
        self.mask_words
    }

    /// `u32` words per router block.
    pub fn node_words(&self) -> usize {
        self.node_words
    }

    /// Total `u32` words per encoded state.
    pub fn key_words(&self) -> usize {
        self.routers * self.node_words
    }

    /// Dense bit position of an exit id, if the id is in the table.
    pub fn index_of(&self, id: ExitPathId) -> Option<usize> {
        self.ids.binary_search(&id.raw()).ok()
    }

    /// The exit id at a dense bit position.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn id_at(&self, index: usize) -> ExitPathId {
        ExitPathId::new(self.ids[index])
    }

    /// Encode one router's visible state into `out` (exactly
    /// [`StateCodec::node_words`] long, pre-zeroed or not — every word is
    /// written).
    ///
    /// # Panics
    ///
    /// Panics if an id is not in the codec table or `out` has the wrong
    /// length.
    pub fn encode_node_into(
        &self,
        possible: impl Iterator<Item = ExitPathId>,
        best: Option<ExitPathId>,
        advertised: impl Iterator<Item = ExitPathId>,
        out: &mut [u32],
    ) {
        assert_eq!(out.len(), self.node_words, "wrong node block length");
        out.fill(0);
        let slot = |codec: &Self, id: ExitPathId| {
            codec
                .index_of(id)
                .unwrap_or_else(|| panic!("exit path {id} not in the codec table"))
        };
        for id in possible {
            let e = slot(self, id);
            out[e / 32] |= 1 << (e % 32);
        }
        for id in advertised {
            let e = slot(self, id);
            out[self.mask_words + e / 32] |= 1 << (e % 32);
        }
        out[2 * self.mask_words] = match best {
            Some(id) => slot(self, id) as u32 + 1,
            None => 0,
        };
    }

    /// Encode a full [`StateKey`] (the explorer only generates phase 0;
    /// the phase is not represented).
    ///
    /// # Panics
    ///
    /// Panics if the key's router count disagrees with the codec.
    pub fn encode_key(&self, key: &StateKey) -> FlatKey {
        assert_eq!(key.nodes.len(), self.routers, "router count mismatch");
        let mut words = vec![0u32; self.key_words()];
        for (u, node) in key.nodes.iter().enumerate() {
            self.encode_node_into(
                node.possible.iter().copied(),
                node.best,
                node.advertised.iter().copied(),
                &mut words[u * self.node_words..(u + 1) * self.node_words],
            );
        }
        FlatKey::new(words.into_boxed_slice())
    }

    /// Decode back to the [`StateKey`] (phase 0). Bit order
    /// is ascending raw id, so the decoded id vectors come out sorted —
    /// exactly the `StateKey` invariant.
    ///
    /// # Panics
    ///
    /// Panics if the key's length disagrees with the codec geometry.
    pub fn decode_key(&self, flat: &FlatKey) -> StateKey {
        assert_eq!(flat.words.len(), self.key_words(), "key length mismatch");
        let nodes = flat
            .words
            .chunks_exact(self.node_words)
            .map(|block| {
                let best_slot = block[2 * self.mask_words];
                NodeStateKey {
                    possible: self.decode_mask(&block[..self.mask_words]),
                    best: (best_slot != 0).then(|| self.id_at(best_slot as usize - 1)),
                    advertised: self.decode_mask(&block[self.mask_words..2 * self.mask_words]),
                    // The flat encoding never carries reflection
                    // attributes: searches with loop prevention run the
                    // `LpEngine` sweep rule (`FlatEngine::new` rejects
                    // the combination).
                    rr: Vec::new(),
                }
            })
            .collect();
        StateKey { nodes, phase: 0 }
    }

    fn decode_mask(&self, mask: &[u32]) -> Vec<ExitPathId> {
        let mut ids = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ids.push(self.id_at(w * 32 + b));
            }
        }
        ids
    }
}

/// One encoded configuration: the packed words plus their digest,
/// computed once at construction and carried with the key.
#[derive(Debug, Clone)]
pub struct FlatKey {
    digest: u64,
    words: Box<[u32]>,
}

impl FlatKey {
    /// Wrap packed words, computing the digest.
    pub fn new(words: Box<[u32]>) -> Self {
        Self {
            digest: hash_words(&words),
            words,
        }
    }

    /// The precomputed 64-bit digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The packed words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Give up the digest and keep the packed words.
    pub fn into_words(self) -> Box<[u32]> {
        self.words
    }
}

impl PartialEq for FlatKey {
    fn eq(&self, other: &Self) -> bool {
        // The digest is a pure function of the words: a mismatch proves
        // inequality without touching the payload.
        self.digest == other.digest && self.words == other.words
    }
}

impl Eq for FlatKey {}

impl PartialOrd for FlatKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FlatKey {
    /// Lexicographic over the packed words — the total order
    /// symmetry-reduced searches pick orbit representatives with.
    fn cmp(&self, other: &Self) -> Ordering {
        self.words.cmp(&other.words)
    }
}

impl Hash for FlatKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digest.hash(state);
    }
}

/// Pass-through hasher for keys that already are Fx digests
/// ([`hash_words`]): hashing a mixed 64-bit digest again buys nothing.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("digest keys hash through write_u64")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// End of a [`RouterMemo`] digest chain.
const NO_ENTRY: u32 = u32::MAX;

/// Words of a [`RouterMemo`] entry before its key: the chain link, the
/// key length, the value length.
const ENTRY_HEADER: usize = 3;

/// One router's update memo: the words its update reads, mapped to its
/// next state words. Entries are packed back to back as
/// `[chain, key length, value length | key | value]`; `index` maps a
/// key's digest to its newest entry's offset and `chain` links it to the
/// previous entry sharing that digest. The length words keep keys and
/// values of any length apart, so one memo serves the fixed-width flat
/// blocks and the variable-length sweep spans alike.
#[derive(Clone, Default)]
struct RouterMemo {
    index: HashMap<u64, u32, BuildHasherDefault<DigestHasher>>,
    entries: Vec<u32>,
}

impl RouterMemo {
    fn find(&self, digest: u64, key: &[u32]) -> Option<&[u32]> {
        let mut at = *self.index.get(&digest)? as usize;
        loop {
            let header = &self.entries[at..at + ENTRY_HEADER];
            let (klen, vlen) = (header[1] as usize, header[2] as usize);
            let body = at + ENTRY_HEADER;
            if klen == key.len() && self.entries[body..body + klen] == *key {
                return Some(&self.entries[body + klen..body + klen + vlen]);
            }
            if header[0] == NO_ENTRY {
                return None;
            }
            at = header[0] as usize;
        }
    }

    fn insert(&mut self, digest: u64, key: &[u32], value: &[u32]) {
        let word = |n: usize| u32::try_from(n).expect("memo offsets and lengths fit one word");
        let at = word(self.entries.len());
        let chain = self.index.insert(digest, at).unwrap_or(NO_ENTRY);
        self.entries
            .extend([chain, word(key.len()), word(value.len())]);
        self.entries.extend_from_slice(key);
        self.entries.extend_from_slice(value);
    }
}

/// What activating one router from the loaded key does, derived from
/// its current and planned blocks (or spans).
#[derive(Clone, Copy, Default)]
struct Move {
    /// The planned block differs from the current one.
    enabled: bool,
    best_changed: bool,
    /// Peers whose filtered view of the advertised set changes (one
    /// message each), and the paths those messages carry.
    messages: u64,
    paths: u64,
}

/// Account activating `set` from a loaded key whose per-router moves are
/// `moves`, as [`SyncEngine::step`] would: per member one activation,
/// its best change, and its messages and paths. Both planners count
/// through here, for the branches they build and for the ones their
/// caller only accounts.
fn account(metrics: &mut Metrics, moves: &[Move], set: &[RouterId]) {
    for u in set {
        let mv = moves[u.index()];
        metrics.activations += 1;
        metrics.best_changes += u64::from(mv.best_changed);
        metrics.messages += mv.messages;
        metrics.paths_advertised += mv.paths;
    }
}

/// The fixed inputs of a flat search: topology, protocol, exit table,
/// sessions and send masks.
struct Model<'a> {
    topo: &'a Topology,
    config: ProtocolConfig,
    codec: Arc<StateCodec>,
    /// Exit paths by codec bit position.
    paths: Vec<ExitPathRef>,
    /// `MyExits(u)` per router.
    my_exits: Vec<Vec<ExitPathRef>>,
    /// `Topology::ibgp().peers(u)` per router.
    peers: Vec<Vec<RouterId>>,
    /// Per router, `mask_words` words per peer (in `peers` order): the
    /// exits the router may send that peer under `Transfer`.
    send: Vec<Vec<u32>>,
}

impl Model<'_> {
    /// Compute router `u`'s next block from `key` (a memo miss). Misses
    /// are rare once the memo is warm; keeping this out of line keeps
    /// [`FlatEngine::plan`]'s lookup loop small.
    #[cold]
    fn next_block(&self, u: usize, key: &[u32], out: &mut [u32]) {
        let (nw, mw) = (self.codec.node_words(), self.codec.mask_words());
        let advertised: Vec<Vec<ExitPathRef>> = self.peers[u]
            .iter()
            .map(|v| {
                let at = v.index() * nw + mw;
                self.decode(&key[at..at + mw])
            })
            .collect();
        transfer_update(
            self.topo,
            self.config,
            RouterId::new(u as u32),
            &self.my_exits[u],
            &self.peers[u],
            |i| advertised[i].as_slice(),
        )
        .encode_into(&self.codec, out);
    }

    /// The paths of a bitmask in ascending id order — exactly the sorted
    /// list the sync engine advertises.
    fn decode(&self, mask: &[u32]) -> Vec<ExitPathRef> {
        let mut paths = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                paths.push(self.paths[w * 32 + bits.trailing_zeros() as usize].clone());
                bits &= bits - 1;
            }
        }
        paths
    }
}

/// The key-in, key-out successor engine behind the default flat search.
///
/// [`FlatEngine::plan`] loads a key and plans every router's next block
/// (memoized on the router plus its peers' advertised masks); the
/// successor of any activation set, the best vector, and the ample set
/// then follow from the loaded and planned blocks without touching
/// route objects. The mask arithmetic is exact because advertised lists
/// are sorted by id — bit order — in every protocol variant, so equal
/// lists are equal masks and a transfer-filtered list is the advertised
/// mask under the per-peer send mask. Counters match
/// [`SyncEngine::step`] for the same activations.
///
/// Like [`SyncEngine`], one engine per worker: it is `Send` and owns its
/// memo and scratch buffers.
pub struct FlatEngine<'a> {
    model: Model<'a>,
    memo: Vec<RouterMemo>,
    /// The key loaded by the last [`FlatEngine::plan`], and every
    /// router's next block from it.
    current: Vec<u32>,
    planned: Vec<u32>,
    moves: Vec<Move>,
    /// Memo-key assembly buffer: router id, then the peers' masks.
    scratch: Vec<u32>,
    metrics: Metrics,
}

impl<'a> FlatEngine<'a> {
    /// An engine for `engine`'s topology, protocol and exit paths, keyed
    /// under `codec`.
    ///
    /// # Panics
    ///
    /// Panics if `engine` runs loop prevention (the flat encoding has no
    /// slots for reflection attributes; those searches run
    /// [`crate::lp::LpEngine`]) or if `codec` does not number exactly the
    /// engine's exit paths.
    pub fn new(engine: &SyncEngine<'a>, codec: Arc<StateCodec>) -> Self {
        assert!(
            !engine.loop_prevention(),
            "loop prevention is incompatible with the flat encoding"
        );
        let topo = engine.topology();
        let n = topo.len();
        assert_eq!(codec.routers(), n, "router count mismatch");
        let my_exits: Vec<Vec<ExitPathRef>> = topo
            .routers()
            .map(|u| engine.my_exits(u).to_vec())
            .collect();
        let mut paths: Vec<ExitPathRef> = my_exits.iter().flatten().cloned().collect();
        paths.sort_by_key(|p| p.id());
        assert!(
            paths.len() == codec.exit_count()
                && paths
                    .iter()
                    .enumerate()
                    .all(|(e, p)| codec.id_at(e) == p.id()),
            "codec does not number the engine's exit paths"
        );
        let peers: Vec<Vec<RouterId>> = topo.routers().map(|u| topo.ibgp().peers(u)).collect();
        let mw = codec.mask_words();
        let send = topo
            .routers()
            .map(|u| {
                let mut masks = vec![0u32; peers[u.index()].len() * mw];
                for (i, &v) in peers[u.index()].iter().enumerate() {
                    for (e, p) in paths.iter().enumerate() {
                        if transfer_allowed(topo, u, v, p.exit_point()) {
                            masks[i * mw + e / 32] |= 1 << (e % 32);
                        }
                    }
                }
                masks
            })
            .collect();
        Self {
            model: Model {
                topo,
                config: engine.config(),
                codec,
                paths,
                my_exits,
                peers,
                send,
            },
            memo: vec![RouterMemo::default(); n],
            current: Vec::new(),
            planned: Vec::new(),
            moves: vec![Move::default(); n],
            scratch: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Load `key` and plan every router's next block from it. Returns
    /// whether `key` is a fixed point — every planned block equals the
    /// current one, exactly [`SyncEngine::is_stable`] of the configuration
    /// it encodes.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not [`StateCodec::key_words`] long.
    pub fn plan(&mut self, key: &[u32]) -> bool {
        let model = &self.model;
        let (nw, mw) = (model.codec.node_words(), model.codec.mask_words());
        assert_eq!(key.len(), model.codec.key_words(), "key length mismatch");
        self.current.clear();
        self.current.extend_from_slice(key);
        self.planned.resize(key.len(), 0);
        for (u, out) in self.planned.chunks_exact_mut(nw).enumerate() {
            self.scratch.clear();
            self.scratch.push(u as u32);
            for v in &model.peers[u] {
                let at = v.index() * nw + mw;
                self.scratch.extend_from_slice(&key[at..at + mw]);
            }
            let digest = hash_words(&self.scratch);
            let masks = &self.scratch[1..];
            if let Some(block) = self.memo[u].find(digest, masks) {
                out.copy_from_slice(block);
                self.metrics.cache_hits += 1;
            } else {
                self.metrics.cache_misses += 1;
                model.next_block(u, key, out);
                self.memo[u].insert(digest, masks, out);
            }
        }
        for (u, mv) in self.moves.iter_mut().enumerate() {
            let cur = &key[u * nw..(u + 1) * nw];
            let new = &self.planned[u * nw..(u + 1) * nw];
            *mv = Move {
                enabled: cur != new,
                best_changed: cur[2 * mw] != new[2 * mw],
                messages: 0,
                paths: 0,
            };
            let (before, after) = (&cur[mw..2 * mw], &new[mw..2 * mw]);
            if before == after {
                continue;
            }
            // Push-on-change: one message per peer whose masked view of
            // the advertised set changed, carrying that whole view.
            for send in model.send[u].chunks_exact(mw) {
                let changed = (0..mw).any(|w| (before[w] ^ after[w]) & send[w] != 0);
                if changed {
                    mv.messages += 1;
                    mv.paths += (0..mw)
                        .map(|w| u64::from((after[w] & send[w]).count_ones()))
                        .sum::<u64>();
                }
            }
        }
        self.current == self.planned
    }

    /// Write into `out` the key that activating `set` (ascending router
    /// ids) from the loaded key produces, and account the activation as
    /// [`SyncEngine::step`] would: activations, best changes, messages,
    /// paths advertised.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not [`StateCodec::key_words`] long.
    pub fn successor_into(&mut self, set: &[RouterId], out: &mut [u32]) {
        let nw = self.model.codec.node_words();
        out.copy_from_slice(&self.current);
        for &u in set {
            let span = u.index() * nw..(u.index() + 1) * nw;
            out[span.clone()].copy_from_slice(&self.planned[span]);
        }
        account(&mut self.metrics, &self.moves, set);
    }

    /// Account activating `set` exactly as [`FlatEngine::successor_into`]
    /// does, without building the successor: for a branch the caller
    /// knows repeats a state it already has.
    pub fn account(&mut self, set: &[RouterId]) {
        account(&mut self.metrics, &self.moves, set);
    }

    /// Whether activating `u` changes its block: its planned block
    /// differs from the loaded one. The singleton branch of a router
    /// that is not enabled leads back to the loaded key.
    pub fn enabled(&self, u: RouterId) -> bool {
        self.moves[u.index()].enabled
    }

    /// The loaded key's best exit per router.
    pub fn best_vector(&self) -> Vec<Option<ExitPathId>> {
        let codec = &self.model.codec;
        self.current
            .chunks_exact(codec.node_words())
            .map(|block| match block[2 * codec.mask_words()] {
                0 => None,
                slot => Some(codec.id_at(slot as usize - 1)),
            })
            .collect()
    }

    /// The loaded key's ample set for exact partial-order reduction:
    /// every *enabled* router (planned block differs from its current
    /// one) whose activation changes none of its transfer-masked
    /// outgoing sets, in ascending id order. `None` when empty.
    ///
    /// A router's update is a pure function of its own `MyExits` and its
    /// I-BGP peers' transfer-filtered advertised sets (exactly the memo
    /// key [`FlatEngine::plan`] looks updates up by), so such an
    /// activation is *invisible*: it rewrites only the mover's private
    /// components (`possible`, `learnedFrom`, `best`) and no other
    /// router's next update can read the difference. Invisible
    /// activations therefore commute with every transition — other
    /// singletons *and* the full-set simultaneous exchange — and
    /// activating all of them at once reaches exactly the state any
    /// interleaving of them reaches.
    ///
    /// Exactness of pruning to this one compound branch (the ample step):
    ///
    /// * **Fixed points are preserved.** For any configuration `d`
    ///   reachable from the current state, the same activation sequence
    ///   from the ample successor reaches a state differing from `d` only
    ///   in not-yet-reapplied invisible rows with identical outgoing sets;
    ///   if `d` is a fixed point, activating those routers (each a real
    ///   singleton branch) lands exactly on `d`. So the set of reachable
    ///   stable best-exit vectors — the search's verdict evidence — is
    ///   unchanged.
    /// * **The cycle proviso (C3) is discharged structurally.** An
    ///   invisible activation changes no update input, so the plan is
    ///   unchanged across the ample step and every member of the ample set
    ///   becomes disabled in the successor: the successor's ample set is
    ///   empty and it expands fully. Ample edges can never chain, let
    ///   alone close a cycle, so no action is postponed forever and
    ///   persistent-oscillation detection stays sound.
    ///
    /// `None` means no enabled activation's invisibility can be proven,
    /// and the caller must expand every branch (the conservative
    /// fallback). Visible activations get no ample treatment at all: the
    /// full-set simultaneous branch is dependent on every visible mover,
    /// so no proper subset containing one is persistent.
    pub fn ample_set(&self) -> Option<Vec<RouterId>> {
        let ample: Vec<RouterId> = self
            .moves
            .iter()
            .enumerate()
            .filter(|(_, mv)| mv.enabled && mv.messages == 0)
            .map(|(u, _)| RouterId::new(u as u32))
            .collect();
        (!ample.is_empty()).then_some(ample)
    }

    /// Counters so far: the activation accounting plus the memo's
    /// hit/miss split.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }
}

/// The key-in, key-out successor engine behind the sweep search: what
/// [`FlatEngine`] is to the flat encoding, for any [`SweepEngine`] rule.
///
/// [`SweepPlanner::plan`] loads a key — every router's span laid end to
/// end — and plans every router's next span, memoized per router on its
/// inputs' spans laid end to end (self-delimiting spans make that key
/// unambiguous). Stability, the successor of any activation set, and the
/// best vector then follow by comparing and splicing the loaded and
/// planned spans. Counters: activations, best changes, and the messages
/// and paths the rule's [`SweepEngine::sends`] reports, counted per
/// activated router as [`FlatEngine::successor_into`] counts them, and
/// the memo's hit/miss split.
///
/// One planner per worker: it owns its memo and scratch buffers and only
/// reads the rule.
pub struct SweepPlanner<'e, E> {
    engine: &'e E,
    memo: Vec<RouterMemo>,
    /// The key loaded by the last [`SweepPlanner::plan`] and every
    /// router's next span from it, with the end offset of each router's
    /// span in either.
    current: Vec<u32>,
    current_ends: Vec<usize>,
    planned: Vec<u32>,
    planned_ends: Vec<usize>,
    /// Per router: what activating it from the loaded key does.
    moves: Vec<Move>,
    /// Memo-key assembly buffer: router id, then the inputs' spans.
    scratch: Vec<u32>,
    metrics: Metrics,
}

/// The span of router `u` in words whose span ends are `ends`.
fn span_at<'w>(words: &'w [u32], ends: &[usize], u: usize) -> &'w [u32] {
    let start = if u == 0 { 0 } else { ends[u - 1] };
    &words[start..ends[u]]
}

impl<'e, E: SweepEngine> SweepPlanner<'e, E> {
    /// A planner for `engine`'s update rule, with an empty memo.
    pub fn new(engine: &'e E) -> Self {
        let n = engine.routers();
        Self {
            engine,
            memo: vec![RouterMemo::default(); n],
            current: Vec::new(),
            current_ends: Vec::with_capacity(n),
            planned: Vec::new(),
            planned_ends: Vec::with_capacity(n),
            moves: vec![Move::default(); n],
            scratch: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Load `key` and plan every router's next span from it. Returns
    /// whether `key` is a fixed point: every planned span equals the
    /// current one.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not hold one span per router.
    pub fn plan(&mut self, key: &[u32]) -> bool {
        let n = self.engine.routers();
        self.current.clear();
        self.current.extend_from_slice(key);
        self.current_ends.clear();
        let mut end = 0;
        for span in spans::<E>(key) {
            end += span.len();
            self.current_ends.push(end);
        }
        assert_eq!(self.current_ends.len(), n, "one span per router");
        self.planned.clear();
        self.planned_ends.clear();
        for u in 0..n {
            let router = RouterId::new(u as u32);
            self.scratch.clear();
            self.scratch.push(u as u32);
            for v in self.engine.inputs(router) {
                let span = span_at(&self.current, &self.current_ends, v.index());
                self.scratch.extend_from_slice(span);
            }
            let digest = hash_words(&self.scratch);
            let inputs = &self.scratch[1..];
            let start = self.planned.len();
            if let Some(span) = self.memo[u].find(digest, inputs) {
                self.planned.extend_from_slice(span);
                self.metrics.cache_hits += 1;
            } else {
                self.metrics.cache_misses += 1;
                self.engine.update(router, inputs, &mut self.planned);
                self.memo[u].insert(digest, inputs, &self.planned[start..]);
            }
            self.planned_ends.push(self.planned.len());
            let (cur, new) = (
                span_at(&self.current, &self.current_ends, u),
                &self.planned[start..],
            );
            let enabled = cur != new;
            let (messages, paths) = if enabled {
                self.engine.sends(router, cur, new)
            } else {
                (0, 0)
            };
            self.moves[u] = Move {
                enabled,
                best_changed: E::best(cur) != E::best(new),
                messages,
                paths,
            };
        }
        self.current == self.planned
    }

    /// Write into `out` the key that activating `set` (ascending router
    /// ids) from the loaded key produces: the planned span of every
    /// member, the current span of every other router. Counts one
    /// activation per member, a best change per member whose planned
    /// span names a different best exit, and the messages and paths
    /// [`SweepEngine::sends`] reports for each member.
    pub fn successor_into(&mut self, set: &[RouterId], out: &mut Vec<u32>) {
        out.clear();
        let mut members = set.iter().map(|r| r.index()).peekable();
        for u in 0..self.current_ends.len() {
            if members.next_if_eq(&u).is_some() {
                out.extend_from_slice(span_at(&self.planned, &self.planned_ends, u));
            } else {
                out.extend_from_slice(span_at(&self.current, &self.current_ends, u));
            }
        }
        account(&mut self.metrics, &self.moves, set);
    }

    /// Account activating `set` exactly as
    /// [`SweepPlanner::successor_into`] does, without building the
    /// successor: for a branch the caller knows repeats a state it
    /// already has.
    pub fn account(&mut self, set: &[RouterId]) {
        account(&mut self.metrics, &self.moves, set);
    }

    /// Whether activating `u` changes its span: its planned span differs
    /// from the loaded one. The singleton branch of a router that is not
    /// enabled leads back to the loaded key.
    pub fn enabled(&self, u: RouterId) -> bool {
        self.moves[u.index()].enabled
    }

    /// The loaded key's best exit per router.
    pub fn best_vector(&self) -> Vec<Option<ExitPathId>> {
        (0..self.current_ends.len())
            .map(|u| E::best(span_at(&self.current, &self.current_ends, u)))
            .collect()
    }

    /// Counters so far: activations, best changes, messages, paths
    /// advertised, and the memo's hit/miss split.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_types::{AsId, ExitPath, RouterId};
    use std::sync::Arc;

    fn exit(id: u32, exit_point: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(1))
                .exit_point(RouterId::new(exit_point))
                .build_unchecked(),
        )
    }

    fn key(nodes: Vec<NodeStateKey>) -> StateKey {
        StateKey { nodes, phase: 0 }
    }

    fn node(possible: &[u32], best: Option<u32>, advertised: &[u32]) -> NodeStateKey {
        NodeStateKey {
            possible: possible.iter().map(|&i| ExitPathId::new(i)).collect(),
            best: best.map(ExitPathId::new),
            advertised: advertised.iter().map(|&i| ExitPathId::new(i)).collect(),
            rr: Vec::new(),
        }
    }

    #[test]
    fn round_trips_state_keys() {
        let codec = StateCodec::new(2, &[exit(3, 0), exit(7, 1), exit(9, 1)]);
        assert_eq!(codec.exit_count(), 3);
        assert_eq!(codec.mask_words(), 1);
        assert_eq!(codec.node_words(), 3);
        assert_eq!(codec.key_words(), 6);
        let k = key(vec![node(&[3, 9], Some(9), &[9]), node(&[], None, &[])]);
        let flat = codec.encode_key(&k);
        assert_eq!(codec.decode_key(&flat), k);
    }

    #[test]
    fn equality_matches_state_key_equality() {
        let codec = StateCodec::new(1, &[exit(1, 0), exit(2, 0)]);
        let a = codec.encode_key(&key(vec![node(&[1, 2], Some(1), &[1])]));
        let b = codec.encode_key(&key(vec![node(&[1, 2], Some(1), &[1])]));
        let c = codec.encode_key(&key(vec![node(&[1, 2], Some(2), &[2])]));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_lexicographic_over_words() {
        let codec = StateCodec::new(1, &[exit(1, 0), exit(2, 0)]);
        let lo = codec.encode_key(&key(vec![node(&[1], None, &[])]));
        let hi = codec.encode_key(&key(vec![node(&[2], None, &[])]));
        assert!(lo < hi, "bit 0 < bit 1");
        assert_eq!(lo.cmp(&lo), Ordering::Equal);
    }

    #[test]
    fn wide_exit_sets_span_mask_words() {
        let exits: Vec<ExitPathRef> = (0..40).map(|i| exit(i + 1, 0)).collect();
        let codec = StateCodec::new(1, &exits);
        assert_eq!(codec.mask_words(), 2);
        let all: Vec<u32> = (1..=40).collect();
        let k = key(vec![node(&all, Some(40), &[40])]);
        let flat = codec.encode_key(&k);
        assert_eq!(codec.decode_key(&flat), k);
    }

    #[test]
    fn empty_exit_table_still_encodes() {
        let codec = StateCodec::new(2, &[]);
        assert_eq!(codec.node_words(), 1);
        let k = key(vec![node(&[], None, &[]), node(&[], None, &[])]);
        assert_eq!(codec.decode_key(&codec.encode_key(&k)), k);
    }

    #[test]
    fn hash_words_is_stable_and_spreads() {
        assert_eq!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 3]));
        assert_ne!(hash_words(&[1, 2, 3]), hash_words(&[3, 2, 1]));
        assert_ne!(hash_words(&[]), hash_words(&[0]));
    }

    #[test]
    #[should_panic(expected = "duplicate exit path id")]
    fn duplicate_ids_panic() {
        let _ = StateCodec::new(1, &[exit(1, 0), exit(1, 0)]);
    }
}
