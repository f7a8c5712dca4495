//! # ibgp-proto
//!
//! The protocol logic of *Route Oscillations in I-BGP with Route
//! Reflection* (SIGCOMM 2002):
//!
//! * [`selection`] — the six-rule BGP decision process (`Choose_best`,
//!   Fig 6) in the paper's rule ordering, the alternate RFC 1771 / Halabi
//!   ordering that Fig 1(b) shows to be divergent, the Cisco
//!   `always-compare-med` variant, and the paper's `Choose_set` (Fig 10):
//!   the prefix of the decision process that stops right after the MED
//!   rule and whose survivor set the modified protocol advertises.
//! * [`transfer`] — the `Transfer_{v→u}` announcement relation of §4
//!   (who may tell whom about which exit paths under route reflection).
//! * [`reflection`] — message-level ORIGINATOR_ID / CLUSTER_LIST / SSLD
//!   mechanics (RFC 4456), the realistic counterpart `Transfer`
//!   idealizes away, and the one provenance rule ([`may_offer`]) both
//!   the loop-prevention engines and the hierarchy engine reflect by.
//! * [`walton`] — the per-neighbor-AS advertisement vector of Walton et
//!   al., the baseline §8 shows to be insufficient.
//! * [`variants`] — [`ProtocolVariant`]: which advertisement discipline a
//!   simulation runs.
//! * [`levels`] — the `level_p(u)` stratification (Fig 11) used by the
//!   convergence proof and by our property tests of Lemmas 7.1–7.5.
//!
//! Everything here is pure: functions from typed inputs to typed outputs,
//! no engine state. The simulators in `ibgp-sim` drive these functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod levels;
pub mod reflection;
pub mod routes;
pub mod selection;
pub mod transfer;
pub mod variants;
pub mod walton;

pub use levels::level;
pub use reflection::{
    cluster_loop, may_offer, reflect_allowed, stamp_cluster_list, Provenance, RrAttrs,
};
pub use routes::{derive_learned_from, route_at};
pub use selection::{
    choose_best, choose_best_traced, choose_set, MedMode, RuleId, RuleOrder, SelectionPolicy,
    SelectionTrace,
};
pub use transfer::{transfer_allowed, transfer_set};
pub use variants::ProtocolVariant;
pub use walton::walton_advertised_set;
