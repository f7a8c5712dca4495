//! # ibgp-confed
//!
//! BGP **confederations** — the other mechanism (besides route
//! reflection) for avoiding the full I-BGP mesh, and the other
//! configuration class in which the Cisco field notice and McPherson et
//! al. observed persistent MED-induced oscillations. The paper's
//! positive results (§6/§7) cover route reflection only; this crate
//! builds the confederation substrate so the same questions can be asked
//! here:
//!
//! * [`topology`] — an AS partitioned into member sub-ASes: full I-BGP
//!   mesh within each sub-AS, explicit confed-E-BGP sessions between
//!   them, one shared IGP (next hops are carried *unchanged* across
//!   sub-AS boundaries, the standard deployment, so IGP metrics remain
//!   comparable everywhere).
//! * [`announcement`] — routes on the wire carry an
//!   `AS_CONFED_SEQUENCE`-style list of visited sub-ASes for loop
//!   prevention, and remember whether they arrived over I-BGP or
//!   confed-E-BGP (selection prefers true E-BGP routes first, then
//!   compares confed-external and internal routes by IGP metric).
//! * [`engine`] — a synchronous pull engine in the style of the paper's
//!   §4 model: within a sub-AS, a router re-announces its best route to
//!   its I-BGP mesh only if it did **not** learn it from an I-BGP peer;
//!   across a confed link the best route is always offered (external
//!   behaviour), extended once with its sender's sub-AS and dropped by
//!   receivers whose own sub-AS already appears in the list.
//! * [`search`] — exhaustive reachability over activation
//!   nondeterminism on `ibgp-analysis`'s explorer (the engine is an
//!   `ibgp_sim::SweepEngine`), so persistent oscillation is *proven*,
//!   not observed.
//! * [`scenarios`] — the confederation analog of Fig 1(a): the same
//!   MED-hiding cycle transplanted onto two sub-ASes, which this crate's
//!   tests prove persistent under single-best advertisement — and the
//!   extension experiment: the paper's `Choose_set` advertisement
//!   discipline, applied to confederations, stabilizes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod announcement;
pub mod engine;
pub mod random;
pub mod scenarios;
pub mod search;
pub mod topology;

pub use announcement::{Announcement, RouteSource};
pub use engine::{ConfedEngine, ConfedMode};
pub use ibgp_sim::{Engine, SyncOutcome};
pub use random::{random_confederation, RandomConfedConfig};
pub use search::explore_confed;
pub use topology::{ConfedTopology, SubAsId};
