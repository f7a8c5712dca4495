//! # ibgp-analysis
//!
//! Decision procedures over I-BGP-with-route-reflection configurations:
//!
//! * [`reachability`] — exhaustive breadth-first exploration of every
//!   configuration reachable from `config(0)` under nondeterministic
//!   activation choices. This decides the paper's STABLE I-BGP WITH ROUTE
//!   REFLECTION question (§5) — NP-complete in general, solved here by
//!   bounded search on the small instances the paper's figures use.
//! * [`stable`] — direct enumeration of *all* fixed points of the
//!   standard protocol (reachable or not), used to confirm claims like
//!   "Fig 2 has exactly two stable solutions".
//! * [`solver`] — the same fixed points found by constraint solving
//!   (`ibgp-solver`'s CNF encoding + DPLL) instead of `(|P|+1)^n`
//!   enumeration; backs the `--solver sat` classification mode.
//! * [`oscillation`] — classification of a scenario as persistently
//!   oscillating, transiently oscillation-prone, or deterministically
//!   stable, from the reachability evidence.
//! * [`forwarding`] — the "real route" packet walk of §7: hop-by-hop
//!   forwarding where every intermediate router consults its *own* best
//!   route; detects the routing loops of Fig 14 and verifies the
//!   loop-freedom lemmas 7.6/7.7.
//! * [`determinism`] — the §7 uniqueness theorem as an experiment: run
//!   many distinct fair activation sequences (and crash/restart
//!   schedules) and compare the fixed points reached.
//! * [`flush`] — Lemma 7.2 as an experiment: withdrawn exit paths are
//!   eventually flushed from every `PossibleExits` set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod flush;
pub mod forwarding;
pub mod oscillation;
mod parallel;
pub mod reachability;
pub mod solver;
pub mod stable;
mod symmetry;

pub use determinism::{determinism_report, DeterminismReport};
pub use flush::{flush_report, FlushReport};
pub use forwarding::{forward_from, forwarding_loops, lemma_7_6_violations, ForwardingResult};
pub use oscillation::{classify, OscillationClass};
pub use reachability::{explore, explore_sweep, ExploreOptions, Reachability};
pub use solver::classify_sat;
pub use stable::{enumerate_stable_standard, StableEnumeration};
