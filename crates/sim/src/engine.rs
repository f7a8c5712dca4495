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
//! The confederation and hierarchy engines, and the loop-prevention
//! search engine [`crate::lp::LpEngine`], share one more shape, the
//! [`SweepEngine`]: the configuration is a word string, one
//! self-delimiting span per router, and a step installs, for each
//! activated router, the span its update rule computes from its inputs'
//! spans. Such an engine states only that rule and gets [`Engine`] from
//! it, through the same [`SweepPlanner`] the reachability search expands
//! states with.

use crate::activation::Activation;
use crate::flat::SweepPlanner;
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

/// An engine whose step is one synchronous sweep of per-router updates,
/// stated as a rule over words.
///
/// The configuration is [`Self::words`]: every router's span laid end to
/// end, router 0 first. A span is the router's canonical state encoding,
/// injective and self-delimiting ([`Self::span_len`]), so equal words are
/// equal configurations. Router `u`'s next span is a pure function of
/// the spans of [`Self::inputs`]`(u)` ([`Self::update`]): its own exits
/// never change, and everything else it reads is in its peers' spans.
/// That is what lets a [`SweepPlanner`] memoize each router's update on
/// exactly those words, and key every branch successor of a sweep by
/// splicing current and planned spans, with no engine state to copy.
///
/// [`Engine`] comes from the same rule: a step plans every router from
/// the current words and installs the activated routers' planned spans.
pub trait SweepEngine {
    /// Number of routers.
    fn routers(&self) -> usize;

    /// The current configuration: every router's span, router 0 first.
    fn words(&self) -> &[u32];

    /// Install a configuration in the [`Self::words`] layout.
    fn set_words(&mut self, words: Vec<u32>);

    /// The routers whose spans `u`'s update reads, in the order
    /// [`Self::update`] takes them.
    fn inputs(&self, u: RouterId) -> &[RouterId];

    /// Append `u`'s next span to `out`, computed from `inputs`: the spans
    /// of [`Self::inputs`]`(u)`, laid end to end in that order.
    fn update(&self, u: RouterId, inputs: &[u32], out: &mut Vec<u32>);

    /// The length of the span at the start of `words`.
    fn span_len(words: &[u32]) -> usize;

    /// The best exit recorded in one router's span.
    fn best(span: &[u32]) -> Option<ExitPathId>;

    /// What `u` sends its peers when an activation replaces its span
    /// `current` with the different span `next`: (messages, paths
    /// advertised). The default, for rules without a per-session send
    /// model, sends nothing.
    fn sends(&self, _u: RouterId, _current: &[u32], _next: &[u32]) -> (u64, u64) {
        (0, 0)
    }
}

/// The per-router spans of `words`, router 0 first.
pub fn spans<E: SweepEngine>(mut words: &[u32]) -> impl Iterator<Item = &[u32]> {
    std::iter::from_fn(move || {
        if words.is_empty() {
            return None;
        }
        let (span, rest) = words.split_at(E::span_len(words));
        words = rest;
        Some(span)
    })
}

impl<E: SweepEngine> Engine for E {
    type Key = (Vec<u32>, u64);

    fn router_count(&self) -> usize {
        self.routers()
    }

    fn step(&mut self, set: &[RouterId]) -> bool {
        // The planner splices members in ascending order; a step's set
        // may list them in any order, and more than once.
        let mut members = set.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut planner = SweepPlanner::new(self);
        let stable = planner.plan(self.words());
        let mut next = Vec::new();
        planner.successor_into(&members, &mut next);
        self.set_words(next);
        stable
    }

    fn is_stable(&self) -> bool {
        SweepPlanner::new(self).plan(self.words())
    }

    fn state_key(&self, phase: u64) -> Self::Key {
        (self.words().to_vec(), phase)
    }

    fn best_vector(&self) -> Vec<Option<ExitPathId>> {
        spans::<E>(self.words()).map(E::best).collect()
    }
}
