//! # ibgp-hierarchy
//!
//! Arbitrarily deep route-reflection hierarchies. §2 of the paper notes
//! that "each cluster itself can be partitioned into subclusters and so
//! on creating an arbitrarily deep hierarchy" before specializing its
//! model to two levels; this crate builds the general case:
//!
//! * [`topology`] — a cluster *tree*: top-level reflectors form a full
//!   mesh of ordinary I-BGP `Peer` sessions; each cluster's reflectors
//!   hold `Down` sessions to their clients, and a client may itself be a
//!   reflector of a deeper cluster.
//! * [`engine`] — a synchronous pull engine with the general
//!   (RFC 4456-style, provenance-based) reflection rule, which the
//!   paper's exit-point-based `Transfer` relation specializes to at two
//!   levels: routes learned from **clients** (or via E-BGP) are
//!   re-advertised to *all* sessions; routes learned from **non-clients**
//!   are re-advertised only *down*, to clients. A route is never offered
//!   to its own exit point.
//! * [`search`] — exhaustive reachability on `ibgp-analysis`'s explorer
//!   (the engine is an `ibgp_sim::SweepEngine`).
//! * [`scenarios`] — the Fig 1(a) oscillator pushed one level deeper
//!   (the oscillating client hangs under a second-level reflector):
//!   persistent under single-best advertisement at every depth, fixed by
//!   the `Choose_set` discipline at every depth.
//!
//! The crate's tests include a cross-model check: on two-level
//! hierarchies, this general engine and the paper-model engine of
//! `ibgp-sim` compute the same fixed points for the modified protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod random;
pub mod scenarios;
pub mod search;
pub mod topology;

pub use engine::{HierEngine, HierMode};
pub use ibgp_sim::{Engine, SyncOutcome};
pub use random::{random_hierarchy, RandomHierConfig};
pub use search::explore_hier;
pub use topology::{ClusterSpec, HierTopology, Member, SessionKind};
