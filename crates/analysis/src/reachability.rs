//! Exhaustive exploration of reachable configurations.
//!
//! §5 of the paper proves that deciding whether an I-BGP configuration
//! *can* stabilize is NP-complete. On the instance sizes of the paper's
//! figures the question is nevertheless decidable by brute force: from
//! `config(0)`, explore every configuration reachable under the
//! nondeterministic choice of activation set, and look for fixed points.
//!
//! Branching: all singleton activations plus the full-set activation.
//! Singletons generate every interleaving of individual router steps; the
//! full set additionally captures the simultaneous-exchange states that
//! drive oscillations like Fig 2. (Intermediate subset sizes add no new
//! behaviours on the paper's examples and are omitted to keep the
//! branching factor at `n + 1`; the limitation is inherent to bounded
//! search of an NP-complete question and is documented in DESIGN.md.)
//!
//! The search itself is a level-synchronous BFS that can fan each level
//! out across a pool of worker threads (see `crate::parallel`); the
//! result is bit-identical for every [`ExploreOptions::jobs`] setting.
//! States are encoded keys, expanded by the paper's `Transfer` relation
//! (`ibgp_sim::FlatEngine`) or, under [`ExploreOptions::loop_prevention`],
//! by the message-level reflection rule (`ibgp_sim::LpEngine`); one
//! search serves both, and the confederation and hierarchy engines too
//! ([`explore_sweep`]).

use ibgp_proto::variants::ProtocolConfig;
use ibgp_sim::{Metrics, SweepEngine};
use ibgp_topology::Topology;
use ibgp_types::{ExitPathId, ExitPathRef, SolverMode, StopReason, VerdictOrigin};
use std::time::Instant;

/// Options for [`explore`], builder-style.
///
/// ```
/// use ibgp_analysis::ExploreOptions;
/// let opts = ExploreOptions::new().max_states(100_000).jobs(4);
/// ```
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    pub(crate) max_states: usize,
    pub(crate) jobs: usize,
    pub(crate) symmetry: bool,
    pub(crate) max_bytes: Option<usize>,
    pub(crate) por: bool,
    pub(crate) deadline: Option<Instant>,
    pub(crate) solver: SolverMode,
    pub(crate) loop_prevention: bool,
}

/// A bare state cap: the defaults with that cap, explored in-thread
/// (`jobs = 1`).
impl From<usize> for ExploreOptions {
    fn from(max_states: usize) -> Self {
        Self::new().max_states(max_states).jobs(1)
    }
}

/// Ceiling on auto-selected workers (`jobs = 0`). Search levels on the
/// paper's instances rarely feed more threads than this, and an
/// unbounded default would oversubscribe big machines for no speedup.
pub(crate) const MAX_AUTO_JOBS: usize = 8;

impl Default for ExploreOptions {
    /// 500 000-state cap, auto-sized worker pool, no symmetry reduction,
    /// unbounded memory.
    fn default() -> Self {
        Self {
            max_states: 500_000,
            jobs: 0,
            symmetry: false,
            max_bytes: None,
            por: false,
            deadline: None,
            solver: SolverMode::Search,
            loop_prevention: false,
        }
    }
}

impl ExploreOptions {
    /// The defaults: 500 000-state cap, auto-sized worker pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the search at this many distinct configurations.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Worker threads for the search. `1` explores in-thread; `0` (the
    /// default) means one worker per available hardware thread, capped
    /// at 8. The result is bit-identical for every value.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Collapse symmetric interleavings: canonicalize every visited state
    /// under the topology's automorphism group before the visited-set
    /// probe. Verdicts (stable / bistable / oscillating) are invariant
    /// under relabeling, so the classification is unchanged while the
    /// distinct-state count shrinks by up to the group order; the
    /// measured reduction lands in [`Metrics::reduction_factor`]. When
    /// an identifier-order tie-break could have discriminated between
    /// symmetric exits (see `symmetry` module docs), the search detects
    /// it and transparently restarts without the reduction, so the
    /// option is always safe to enable.
    pub fn symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Prune activation interleavings with exact partial-order reduction
    /// (ample/stubborn sets over the session-graph dependency structure).
    /// At each state the explorer asks the engine for an ample set — the
    /// enabled routers whose activation leaves every transfer-filtered
    /// outgoing advertisement unchanged, and which therefore commute
    /// with every other transition (see `FlatEngine::ample_set`) — and
    /// expands only that one compound branch instead of all `n + 1`.
    /// When no activation's commutation precondition can be proven the
    /// state falls back to full expansion, and the cycle proviso is
    /// discharged structurally (an ample step never chains into another),
    /// so the reduction is *exact*: verdict class, stable-vector set, and
    /// completeness match the unpruned search — only the distinct-state
    /// count shrinks (measured by [`Metrics::por_ample`] /
    /// [`Metrics::por_full`]). Composes with [`Self::symmetry`] (the
    /// ample set is automorphism-equivariant, and the dangerous-tie
    /// guard still restarts symmetry-free with POR intact),
    /// [`Self::max_bytes`], and every [`Self::jobs`] setting
    /// (bit-identical verdicts — the ample choice is a pure function of
    /// the state).
    pub fn por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Bound the visited set's estimated heap footprint. Above the
    /// budget the search compacts full state keys to digest-only hashes
    /// (collision counts land in [`Metrics::digest_collisions`]); if the
    /// digests alone exceed the budget, the search stops and reports
    /// "ran out of memory budget" ([`StopReason::MemoryBudget`]) instead
    /// of growing without bound.
    pub fn max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Stop the search once this wall-clock instant passes, reporting
    /// [`StopReason::Deadline`]. The deadline is checked before every
    /// chunk of frontier states the search expands, so the visited prefix
    /// is always whole chunks in canonical order and an already-expired
    /// deadline stops deterministically after visiting only the initial
    /// state. `None` (the default) means no deadline.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Choose the classification backend: [`SolverMode::Search`] (the
    /// default) explores reachable configurations; [`SolverMode::Sat`]
    /// encodes the `Choose_best` fixed-point condition as CNF and
    /// enumerates **all** stable routings with the constraint solver —
    /// exact stability/bistability verdicts and exact counts with no
    /// state enumeration. Only the standard protocol has the required
    /// fixed-point structure; other variants fall back to search (and
    /// [`crate::classify`] resolves the fallback transparently).
    pub fn solver(mut self, solver: SolverMode) -> Self {
        self.solver = solver;
        self
    }

    /// Run the message-level reflection mechanics: stamp ORIGINATOR_ID
    /// and CLUSTER_LIST on reflected routes, drop cluster loops on
    /// receipt, never reflect a route back to its originator (SSLD), and
    /// reflect per the standard matrix (client route → everyone,
    /// non-client route → clients only, own E-BGP route → everyone).
    /// Off (the default), propagation uses the paper's §4 `Transfer`
    /// predicate, so every existing verdict stays reproducible. On, the
    /// search expands `ibgp_sim::LpEngine`'s per-router spans, which
    /// carry each advertised route's attributes, and declines symmetry
    /// and partial-order reduction as every sweep search does (group
    /// order 0, no ample expansions); the constraint solver declines too
    /// — [`crate::classify`] falls back to search transparently.
    pub fn loop_prevention(mut self, loop_prevention: bool) -> Self {
        self.loop_prevention = loop_prevention;
        self
    }

    /// Resolve `jobs = 0` to the available hardware parallelism, capped
    /// at [`MAX_AUTO_JOBS`].
    pub(crate) fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_AUTO_JOBS))
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Result of a bounded reachability exploration.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// Number of distinct configurations visited.
    pub states: usize,
    /// Whether the whole reachable space was explored (false = the state
    /// cap was hit and absence results are inconclusive).
    pub complete: bool,
    /// Distinct stable routing configurations found, as best-exit
    /// vectors, in canonical (sorted) order.
    pub stable_vectors: Vec<Vec<Option<ExitPathId>>>,
    /// Why the search ended. [`StopReason::Complete`] iff [`Self::complete`];
    /// every other reason (state cap, byte budget, deadline) means the
    /// exploration was truncated and absence results are inconclusive.
    /// The reason always comes from the search itself, never inferred
    /// from incompleteness.
    pub stop: StopReason,
    /// Search observability: engine counters (incl. update-cache hits and
    /// misses) plus states visited, wall-clock time, frontier depth, peak
    /// frontier size, and the parallel gauges (workers, handoffs, peak
    /// shard occupancy).
    pub metrics: Metrics,
    /// Which backend produced this result. For [`VerdictOrigin::Search`]
    /// the stable vectors are the *reachable* fixed points and `states`
    /// counts visited configurations; for [`VerdictOrigin::Solver`] the
    /// stable vectors are **all** fixed points of the standard protocol,
    /// `states` is 0, and `metrics` carries only wall-clock time.
    pub origin: VerdictOrigin,
}

impl Reachability {
    /// Whether some activation sequence stabilizes the system (the §5
    /// decision question, answered affirmatively by a witness).
    pub fn can_converge(&self) -> bool {
        !self.stable_vectors.is_empty()
    }

    /// Whether the system provably has **no** reachable stable
    /// configuration — a persistent oscillation. Requires a complete
    /// exploration.
    pub fn persistent_oscillation(&self) -> bool {
        self.complete && self.stable_vectors.is_empty()
    }

    /// Whether the search was stopped by its state cap.
    pub fn capped(&self) -> bool {
        matches!(self.stop, StopReason::StateCap(_))
    }

    /// Whether the search was stopped by its memory budget.
    pub fn memory_exhausted(&self) -> bool {
        matches!(self.stop, StopReason::MemoryBudget(_))
    }
}

/// Explore every configuration reachable from `config(0)`.
///
/// ```
/// use ibgp_analysis::{explore, ExploreOptions};
/// use ibgp_proto::variants::ProtocolConfig;
/// use ibgp_topology::TopologyBuilder;
/// use ibgp_types::*;
/// use std::sync::Arc;
///
/// let topo = TopologyBuilder::new(2).link(0, 1, 1).full_mesh().build()?;
/// let exit = Arc::new(ExitPath::builder(ExitPathId::new(1))
///     .via(AsId::new(1)).exit_point(RouterId::new(0)).build_unchecked());
/// let reach = explore(
///     &topo,
///     ProtocolConfig::STANDARD,
///     vec![exit],
///     ExploreOptions::new().max_states(10_000),
/// );
/// assert!(reach.complete && reach.can_converge());
/// # Ok::<(), ibgp_topology::TopologyError>(())
/// ```
pub fn explore(
    topo: &Topology,
    config: ProtocolConfig,
    exits: Vec<ExitPathRef>,
    options: ExploreOptions,
) -> Reachability {
    crate::parallel::search(topo, config, exits, &options)
}

/// Explore every configuration reachable from `initial` for an engine
/// of the one-sweep shape — the confederation and hierarchy engines
/// (and `ibgp_sim::LpEngine`, which [`explore`] runs under loop
/// prevention).
///
/// The same level-synchronous search as [`explore`], so the state cap,
/// [`ExploreOptions::max_bytes`], [`ExploreOptions::deadline`], and
/// [`ExploreOptions::jobs`] apply, with bit-identical results at every
/// worker count. Symmetry and partial-order reduction are declined
/// (neither has a proof for these engines): the metrics report group
/// order 0 and no ample expansions. Loop prevention and the solver do
/// not apply.
pub fn explore_sweep<E>(initial: E, options: ExploreOptions) -> Reachability
where
    E: SweepEngine + Sync,
{
    crate::parallel::sweep_search(initial, &options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_topology::TopologyBuilder;
    use ibgp_types::{AsId, ExitPath, Med, RouterId};
    use std::sync::Arc;

    fn exit(id: u32, next_as: u32, med: u32, exit_point: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(next_as))
                .med(Med::new(med))
                .exit_point(RouterId::new(exit_point))
                .build_unchecked(),
        )
    }

    fn disagree() -> (Topology, Vec<ExitPathRef>) {
        let topo = TopologyBuilder::new(4)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .cluster([0], [2])
            .cluster([1], [3])
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 2), exit(2, 1, 0, 3)];
        (topo, exits)
    }

    #[test]
    fn trivial_system_converges() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let r = explore(
            &topo,
            ProtocolConfig::STANDARD,
            vec![exit(1, 1, 0, 0)],
            ExploreOptions::new().max_states(10_000),
        );
        assert!(r.complete);
        assert!(r.can_converge());
        assert!(!r.persistent_oscillation());
        assert!(!r.capped());
        assert_eq!(r.stable_vectors.len(), 1);
        assert_eq!(
            r.stable_vectors[0],
            vec![Some(ExitPathId::new(1)), Some(ExitPathId::new(1))]
        );
    }

    /// The DISAGREE gadget (see ibgp-sim tests) has exactly two stable
    /// solutions under the standard protocol, both reachable.
    #[test]
    fn disagree_has_two_reachable_stable_solutions() {
        let (topo, exits) = disagree();
        let opts = ExploreOptions::new().max_states(100_000);
        let r = explore(&topo, ProtocolConfig::STANDARD, exits.clone(), opts.clone());
        assert!(r.complete);
        assert_eq!(r.stable_vectors.len(), 2, "{:?}", r.stable_vectors);

        // The modified protocol has exactly one.
        let r = explore(&topo, ProtocolConfig::MODIFIED, exits, opts);
        assert!(r.complete);
        assert_eq!(r.stable_vectors.len(), 1, "{:?}", r.stable_vectors);
    }

    #[test]
    fn state_cap_reports_incomplete_and_carries_the_cap() {
        let (topo, exits) = disagree();
        let r = explore(
            &topo,
            ProtocolConfig::STANDARD,
            exits,
            ExploreOptions::new().max_states(3),
        );
        assert!(!r.complete);
        assert!(r.capped());
        assert_eq!(r.stop, StopReason::StateCap(3));
        assert!(
            !r.persistent_oscillation(),
            "incomplete search proves nothing"
        );
    }

    /// The exploration reports search observability and a warm cache.
    #[test]
    fn exploration_reports_its_metrics() {
        let (topo, exits) = disagree();
        let fast = explore(
            &topo,
            ProtocolConfig::STANDARD,
            exits,
            ExploreOptions::new().max_states(100_000).jobs(1),
        );
        let m = fast.metrics;
        assert_eq!(m.states_visited as usize, fast.states);
        assert!(m.cache_hits > 0, "replays must hit the memo");
        assert!(m.cache_hit_rate() > 0.5, "hit rate {}", m.cache_hit_rate());
        assert!(m.frontier_depth > 0);
        assert!(m.peak_queue > 0);
        assert!(m.elapsed_nanos > 0);
        assert!(m.states_per_sec() > 0.0);
        assert_eq!(m.workers, 1);
        assert_eq!(m.handoffs, 0, "in-thread path hands nothing off");
        assert!(m.peak_shard > 0);
    }

    #[test]
    fn empty_exit_set_is_immediately_stable() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let r = explore(
            &topo,
            ProtocolConfig::STANDARD,
            vec![],
            ExploreOptions::new().max_states(100),
        );
        assert!(r.complete);
        assert_eq!(r.states, 1);
        assert_eq!(r.stable_vectors, vec![vec![None, None]]);
    }

    /// The parallel pool reproduces the in-thread result exactly — the
    /// determinism contract the module doc promises. (The proptest in
    /// `tests/parallel_equivalence.rs` covers random instances; this is
    /// the cheap always-on check.)
    #[test]
    fn parallel_jobs_match_sequential_bit_for_bit() {
        let (topo, exits) = disagree();
        let base = explore(
            &topo,
            ProtocolConfig::STANDARD,
            exits.clone(),
            ExploreOptions::new().max_states(100_000).jobs(1),
        );
        for jobs in [2, 4] {
            let par = explore(
                &topo,
                ProtocolConfig::STANDARD,
                exits.clone(),
                ExploreOptions::new().max_states(100_000).jobs(jobs),
            );
            assert_eq!(par.states, base.states, "jobs={jobs}");
            assert_eq!(par.complete, base.complete, "jobs={jobs}");
            assert_eq!(par.stable_vectors, base.stable_vectors, "jobs={jobs}");
            assert_eq!(par.stop, base.stop, "jobs={jobs}");
            assert_eq!(par.metrics.workers, jobs as u64);
            assert!(par.metrics.handoffs > 0, "pool path must hand units off");
            // Engine-side counters are sums over the same deterministic
            // work set, so they match the sequential run too.
            assert_eq!(par.metrics.activations, base.metrics.activations);
            assert_eq!(par.metrics.messages, base.metrics.messages);
        }
    }

    /// `jobs = 0` resolves to the hardware thread count, sanely capped —
    /// never to a zero-worker (or thousand-worker) pool.
    #[test]
    fn auto_jobs_resolve_to_capped_hardware_parallelism() {
        let auto = ExploreOptions::new().effective_jobs();
        assert!(auto >= 1, "auto jobs must run at least one worker");
        assert!(auto <= MAX_AUTO_JOBS, "auto jobs capped at {MAX_AUTO_JOBS}");
        assert_eq!(ExploreOptions::new().jobs(3).effective_jobs(), 3);
        assert_eq!(ExploreOptions::default().jobs, 0, "the default is auto");
    }

    /// Cap determinism: the capped prefix is identical at every thread
    /// count, including which state trips the cap.
    #[test]
    fn capped_search_is_deterministic_across_jobs() {
        let (topo, exits) = disagree();
        for cap in [1, 3, 7, 20] {
            let base = explore(
                &topo,
                ProtocolConfig::STANDARD,
                exits.clone(),
                ExploreOptions::new().max_states(cap).jobs(1),
            );
            for jobs in [2, 8] {
                let par = explore(
                    &topo,
                    ProtocolConfig::STANDARD,
                    exits.clone(),
                    ExploreOptions::new().max_states(cap).jobs(jobs),
                );
                assert_eq!(par.states, base.states, "cap={cap} jobs={jobs}");
                assert_eq!(par.complete, base.complete, "cap={cap} jobs={jobs}");
                assert_eq!(par.stop, base.stop, "cap={cap} jobs={jobs}");
                assert_eq!(
                    par.stable_vectors, base.stable_vectors,
                    "cap={cap} jobs={jobs}"
                );
            }
        }
    }
}
