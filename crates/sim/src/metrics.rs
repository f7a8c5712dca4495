//! Simple counters shared by both engines.
//!
//! The overhead experiments (E10/E11) read these: how many activations or
//! messages a run took, how many exit paths crossed sessions (the
//! advertisement-volume cost the paper's §10 discusses), and how often
//! best routes churned. The incremental-engine fields report how well the
//! memoized update cache performed and, for reachability exploration, how
//! the search frontier behaved over time.

use serde::{Deserialize, Serialize};

/// Cumulative counters for one simulation run or exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Sync and sweep engines: node-activations performed. Async engine:
    /// events processed.
    pub activations: u64,
    /// Update messages (non-identical advertised sets) sent between peers.
    /// Always 0 for the confederation and hierarchy sweep engines, whose
    /// rules keep `SweepEngine::sends`' default: no per-session send
    /// model.
    pub messages: u64,
    /// Total exit paths carried in those messages — the advertisement
    /// volume that distinguishes standard (≤1 per message) from Walton
    /// (≤ m) and the modified protocol (≤ |S′|). Always 0 for the
    /// confederation and hierarchy engines, like `messages`.
    pub paths_advertised: u64,
    /// Times some node's best route changed.
    pub best_changes: u64,
    /// Memoized node-update cache hits (sync engine and the flat and
    /// sweep planners; 0 on the naive reference path).
    pub cache_hits: u64,
    /// Memoized node-update cache misses — each miss is one full update
    /// computation.
    pub cache_misses: u64,
    /// Reachability exploration: distinct configurations visited.
    pub states_visited: u64,
    /// Reachability exploration: wall-clock nanoseconds spent.
    pub elapsed_nanos: u64,
    /// Reachability exploration: the coordinator's wall-clock
    /// nanoseconds spent waiting for chunk expansions (in-thread at one
    /// worker, on the pool otherwise).
    #[serde(default)]
    pub expand_nanos: u64,
    /// Reachability exploration: the coordinator's wall-clock
    /// nanoseconds spent merging expanded chunks — dedup, the state cap,
    /// the byte budget, stable-vector collection. Serial at every worker
    /// count.
    #[serde(default)]
    pub merge_nanos: u64,
    /// Reachability exploration: deepest BFS frontier reached (activation
    /// steps from `config(0)`).
    pub frontier_depth: u64,
    /// Reachability exploration: peak BFS frontier length (states queued
    /// at one depth).
    pub peak_queue: u64,
    /// Parallel exploration: worker threads used (1 for the in-thread
    /// sequential path).
    pub workers: u64,
    /// Parallel exploration: work units handed off to the worker pool
    /// (0 for the in-thread sequential path).
    pub handoffs: u64,
    /// Parallel exploration: most state keys held by any one visited-set
    /// shard at the end of the search — a balance gauge for the sharded
    /// dedup structure.
    pub peak_shard: u64,
    /// Symmetry reduction: order of the instance's automorphism group
    /// (0 when symmetry reduction was not requested, 1 when the instance
    /// is asymmetric or the group enumeration overflowed its cap).
    pub group_order: u64,
    /// Symmetry reduction: total reachable states the visited orbit
    /// representatives stand for (sum of orbit sizes). Equals
    /// `states_visited` when the group is trivial; 0 when symmetry
    /// reduction was not requested.
    pub orbit_states: u64,
    /// Memory-bounded exploration: distinct state keys that hashed to an
    /// already-occupied 64-bit digest while the visited set still held
    /// exact keys. After digest compaction a collision is unobservable
    /// (it conflates two states), so this counts only the observable ones.
    pub digest_collisions: u64,
    /// Memory-bounded exploration: times the visited set was compacted
    /// from exact keys to digest-only hashes (0 or 1 per search).
    pub compactions: u64,
    /// Memory-bounded exploration: peak accounted byte footprint of the
    /// visited set (an estimate, not an allocator measurement).
    pub visited_bytes: u64,
    /// Partial-order reduction: frontier states expanded through the
    /// pruned compound ample branch (0 when POR was not requested).
    #[serde(default)]
    pub por_ample: u64,
    /// Partial-order reduction: frontier states that fell back to full
    /// branch expansion because no activation's invisibility could be
    /// proven (0 when POR was not requested).
    #[serde(default)]
    pub por_full: u64,
}

impl Metrics {
    /// Fold another engine's counters into this one. Engine-side counters
    /// (activations, messages, paths advertised, best changes, cache
    /// hits/misses) are summed — the merge is commutative and
    /// associative, so per-worker metrics can be combined in any arrival
    /// order. Search-side gauges (states visited, elapsed, expand and
    /// merge time, frontier depth, peak queue/shard, workers, handoffs)
    /// are owned by the search coordinator, not the workers, and are
    /// deliberately left untouched.
    pub fn absorb_engine(&mut self, other: &Metrics) {
        self.activations += other.activations;
        self.messages += other.messages;
        self.paths_advertised += other.paths_advertised;
        self.best_changes += other.best_changes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Fold the counters of one completed search into a campaign-level
    /// aggregate. Engine counters and cumulative search totals (states
    /// visited, wall-clock time, pool handoffs) are summed; the gauges
    /// (frontier depth, peak queue/shard, workers) keep the maximum seen
    /// across the campaign. Commutative and associative, so runs can be
    /// folded in any order.
    pub fn absorb_campaign(&mut self, other: &Metrics) {
        self.absorb_engine(other);
        self.states_visited += other.states_visited;
        self.elapsed_nanos += other.elapsed_nanos;
        self.expand_nanos += other.expand_nanos;
        self.merge_nanos += other.merge_nanos;
        self.handoffs += other.handoffs;
        self.orbit_states += other.orbit_states;
        self.digest_collisions += other.digest_collisions;
        self.compactions += other.compactions;
        self.por_ample += other.por_ample;
        self.por_full += other.por_full;
        self.frontier_depth = self.frontier_depth.max(other.frontier_depth);
        self.peak_queue = self.peak_queue.max(other.peak_queue);
        self.peak_shard = self.peak_shard.max(other.peak_shard);
        self.workers = self.workers.max(other.workers);
        self.group_order = self.group_order.max(other.group_order);
        self.visited_bytes = self.visited_bytes.max(other.visited_bytes);
    }

    /// Average paths per message, or 0.0 when no messages were sent.
    pub fn paths_per_message(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.paths_advertised as f64 / self.messages as f64
        }
    }

    /// Fraction of node-update computations answered from the memo, or
    /// 0.0 when no lookups happened (e.g. the naive reference path).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Distinct states visited per second of exploration wall-clock time,
    /// or 0.0 when no time was recorded.
    pub fn states_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.states_visited as f64 / (self.elapsed_nanos as f64 / 1e9)
        }
    }

    /// Symmetry reduction factor: reachable states per visited orbit
    /// representative (`orbit_states / states_visited`). 1.0 for an
    /// asymmetric instance, for a search without symmetry reduction, and
    /// for metrics that never ran a search.
    pub fn reduction_factor(&self) -> f64 {
        if self.states_visited == 0 || self.orbit_states == 0 {
            1.0
        } else {
            self.orbit_states as f64 / self.states_visited as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_per_message_handles_zero() {
        let m = Metrics::default();
        assert_eq!(m.paths_per_message(), 0.0);
        let m = Metrics {
            messages: 4,
            paths_advertised: 10,
            ..Metrics::default()
        };
        assert!((m.paths_per_message() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_rate_handles_zero_and_ratio() {
        assert_eq!(Metrics::default().cache_hit_rate(), 0.0);
        let m = Metrics {
            cache_hits: 3,
            cache_misses: 1,
            ..Metrics::default()
        };
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reduction_factor_handles_zero_and_ratio() {
        assert_eq!(Metrics::default().reduction_factor(), 1.0);
        let m = Metrics {
            states_visited: 100,
            orbit_states: 0,
            ..Metrics::default()
        };
        assert_eq!(m.reduction_factor(), 1.0);
        let m = Metrics {
            states_visited: 100,
            orbit_states: 300,
            ..Metrics::default()
        };
        assert!((m.reduction_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn campaign_absorb_sums_totals_and_maxes_gauges() {
        let mut a = Metrics {
            states_visited: 10,
            orbit_states: 30,
            group_order: 3,
            digest_collisions: 1,
            compactions: 1,
            visited_bytes: 500,
            ..Metrics::default()
        };
        let b = Metrics {
            states_visited: 5,
            orbit_states: 5,
            group_order: 1,
            digest_collisions: 0,
            compactions: 0,
            visited_bytes: 900,
            ..Metrics::default()
        };
        a.absorb_campaign(&b);
        assert_eq!(a.states_visited, 15);
        assert_eq!(a.orbit_states, 35);
        assert_eq!(a.digest_collisions, 1);
        assert_eq!(a.compactions, 1);
        assert_eq!(a.group_order, 3);
        assert_eq!(a.visited_bytes, 900);
    }

    /// Regression guard for the parallel explorer's rate accounting:
    /// folding per-worker engine counters must never sum worker-side
    /// `elapsed_nanos` (or any other coordinator-owned search gauge)
    /// into the aggregate — `states_per_sec()` is defined off the
    /// coordinator's wall clock alone, and a summed-worker-time elapsed
    /// would deflate it by the worker count.
    #[test]
    fn engine_absorb_never_sums_worker_wall_clock() {
        let mut coordinator = Metrics {
            states_visited: 1_000,
            elapsed_nanos: 500_000_000, // 0.5 s of coordinator wall clock
            expand_nanos: 300_000_000,
            merge_nanos: 150_000_000,
            workers: 8,
            handoffs: 42,
            frontier_depth: 9,
            peak_queue: 11,
            peak_shard: 13,
            ..Metrics::default()
        };
        let rate_before = coordinator.states_per_sec();
        for _ in 0..8 {
            let worker = Metrics {
                activations: 10,
                cache_hits: 5,
                cache_misses: 2,
                // A buggy merge would sum these into the aggregate.
                elapsed_nanos: 500_000_000,
                expand_nanos: 400_000_000,
                merge_nanos: 100_000_000,
                states_visited: 999,
                workers: 1,
                handoffs: 7,
                frontier_depth: 50,
                peak_queue: 50,
                peak_shard: 50,
                ..Metrics::default()
            };
            coordinator.absorb_engine(&worker);
        }
        assert_eq!(coordinator.elapsed_nanos, 500_000_000);
        assert_eq!(coordinator.expand_nanos, 300_000_000);
        assert_eq!(coordinator.merge_nanos, 150_000_000);
        assert_eq!(coordinator.states_visited, 1_000);
        assert_eq!(coordinator.workers, 8);
        assert_eq!(coordinator.handoffs, 42);
        assert_eq!(coordinator.frontier_depth, 9);
        assert_eq!(coordinator.peak_queue, 11);
        assert_eq!(coordinator.peak_shard, 13);
        assert_eq!(coordinator.activations, 80, "engine counters do sum");
        assert_eq!(coordinator.cache_hits, 40);
        assert!((coordinator.states_per_sec() - rate_before).abs() < 1e-12);
    }

    #[test]
    fn states_per_sec_handles_zero_and_rate() {
        assert_eq!(Metrics::default().states_per_sec(), 0.0);
        let m = Metrics {
            states_visited: 500,
            elapsed_nanos: 250_000_000,
            ..Metrics::default()
        };
        assert!((m.states_per_sec() - 2000.0).abs() < 1e-9);
    }
}
