//! The [`Engine`] trait — one surface over every synchronous pull engine
//! in the workspace.
//!
//! Three engines implement the paper's §4 activation-step semantics on
//! different session structures: [`crate::SyncEngine`] (the two-level
//! route-reflection model), `ibgp_confed::ConfedEngine` (sub-AS
//! confederations), and `ibgp_hierarchy::HierEngine` (arbitrarily deep
//! reflection hierarchies). They share the same observable contract —
//! step a set of routers against the pre-step state, test for fixed
//! points, expose a canonical state key for cycle detection, and report
//! the best-exit vector — so search drivers, conformance tests, and
//! schedule runners are written once against this trait.
//!
//! [`Engine::run`] has a default implementation: the bounded
//! run-to-verdict loop (stability / provable cycle / budget) that every
//! engine previously re-implemented by hand. Cycle detection follows the
//! [`Activation::phase`] contract: phases are used as-is and must already
//! be normalized to the schedule's period.
//!
//! The confederation and hierarchy engines share one more shape, the
//! [`SweepEngine`]: a step is one synchronous sweep of per-router
//! updates, of which the activated routers' results are installed. Such
//! an engine implements only the sweep and gets [`Engine`] from it.

use crate::activation::Activation;
use crate::sync::SyncOutcome;
use ibgp_types::{ExitPathId, RouterId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A synchronous activation-step engine over some I-BGP session
/// structure.
pub trait Engine {
    /// Canonical form of the engine's visible configuration, tagged with
    /// a schedule phase. Equal keys mean the executions are in
    /// indistinguishable states (and will behave identically under the
    /// same future activations), which is what makes cycle detection and
    /// reachability dedup sound.
    type Key: Eq + Hash + Clone;

    /// Number of routers being simulated.
    fn router_count(&self) -> usize;

    /// Apply one activation step: every router in `set` recomputes its
    /// state from the *pre-step* global state (simultaneous members model
    /// simultaneous message exchange). Returns whether the **pre-step**
    /// configuration was already a fixed point — i.e. activating any set
    /// of routers, not just `set`, would have changed nothing.
    fn step(&mut self, set: &[RouterId]) -> bool;

    /// Whether the current configuration is a fixed point: activating
    /// every router would change nothing. A fixed point is stable under
    /// *any* activation sequence.
    fn is_stable(&self) -> bool;

    /// The canonical state key, tagged with the schedule's phase.
    fn state_key(&self, phase: u64) -> Self::Key;

    /// The vector of best exit ids, indexed by router — the "routing
    /// configuration" two runs are compared on.
    fn best_vector(&self) -> Vec<Option<ExitPathId>>;

    /// Run under the given activation sequence until stability, a
    /// provable cycle, or the step budget.
    ///
    /// Cycle detection is sound only for periodic schedules (those
    /// reporting [`Activation::phase`]): revisiting a `(state, phase)`
    /// pair proves the execution is periodic. Keys are bucketed by a
    /// 64-bit digest and confirmed by exact comparison, so hash
    /// collisions cannot produce a false cycle.
    fn run(&mut self, schedule: &mut dyn Activation, max_steps: u64) -> SyncOutcome {
        let n = self.router_count();
        let mut seen: HashMap<u64, Vec<(Self::Key, u64)>> = HashMap::new();
        for step in 0..max_steps {
            if self.is_stable() {
                return SyncOutcome::Converged { steps: step };
            }
            if let Some(phase) = schedule.phase() {
                let key = self.state_key(phase);
                let digest = {
                    let mut h = DefaultHasher::new();
                    key.hash(&mut h);
                    h.finish()
                };
                let bucket = seen.entry(digest).or_default();
                if let Some((_, first)) = bucket.iter().find(|(k, _)| *k == key) {
                    return SyncOutcome::Cycle {
                        first_seen: *first,
                        period: step - *first,
                    };
                }
                bucket.push((key, step));
            }
            let set = schedule.next_set(n);
            self.step(&set);
        }
        if self.is_stable() {
            SyncOutcome::Converged { steps: max_steps }
        } else {
            SyncOutcome::Budget { steps: max_steps }
        }
    }
}

/// An engine whose step is one synchronous sweep: every router's next
/// state is computed from the pre-step configuration
/// ([`Self::update_all`]), and an activation installs the results of the
/// activated routers ([`Self::apply`]). One sweep therefore serves the
/// fixed-point test and every activation set at once, which is what lets
/// the reachability explorer key each branch successor without stepping
/// a copy of the engine per branch.
pub trait SweepEngine: Clone {
    /// One router's state.
    type Node;

    /// Every router's current state, indexed by router.
    fn nodes(&self) -> &[Self::Node];

    /// One full synchronous sweep: every router's recomputed state, read
    /// from the current configuration, indexed by router.
    fn update_all(&self) -> Vec<Self::Node>;

    /// Install the sweep's results for the routers in `set`.
    fn apply(&mut self, set: &[RouterId], updates: &[Self::Node]);

    /// Append one router's canonical state encoding to `out`. The
    /// encoding must be injective and self-delimiting, so that the
    /// per-router encodings laid end to end identify a configuration.
    fn encode(node: &Self::Node, out: &mut Vec<u32>);

    /// The router's best exit in this state.
    fn best(node: &Self::Node) -> Option<ExitPathId>;
}

/// The per-router encodings of `nodes`, laid end to end.
fn encode_all<E: SweepEngine>(nodes: &[E::Node]) -> Vec<u32> {
    let mut words = Vec::new();
    for node in nodes {
        E::encode(node, &mut words);
    }
    words
}

impl<E: SweepEngine> Engine for E {
    type Key = (Vec<u32>, u64);

    fn router_count(&self) -> usize {
        self.nodes().len()
    }

    fn step(&mut self, set: &[RouterId]) -> bool {
        let updates = self.update_all();
        let stable = encode_all::<E>(&updates) == encode_all::<E>(self.nodes());
        self.apply(set, &updates);
        stable
    }

    fn is_stable(&self) -> bool {
        encode_all::<E>(&self.update_all()) == encode_all::<E>(self.nodes())
    }

    fn state_key(&self, phase: u64) -> Self::Key {
        (encode_all::<E>(self.nodes()), phase)
    }

    fn best_vector(&self) -> Vec<Option<ExitPathId>> {
        self.nodes().iter().map(E::best).collect()
    }
}
