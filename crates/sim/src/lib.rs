//! # ibgp-sim
//!
//! Two simulation engines for I-BGP with route reflection:
//!
//! * [`sync`] — the paper's operational model (§4): discrete time, fair
//!   activation sequences, and the pull semantics "whenever a router takes
//!   a step, it receives advertisements from each of its neighbors about
//!   their best routes [or advertised sets], then updates its own best
//!   route". Deterministic given an activation sequence; supports
//!   fixed-point (stability) checking and cycle detection. This engine is
//!   the ground truth for the paper's theorems.
//! * [`async_engine`] — an event-driven, message-level simulator with
//!   per-session FIFO delivery, controllable delays, E-BGP inject/withdraw
//!   churn, and router crash/restart. This is the engine that reproduces
//!   the *transient* oscillations of Fig 2/Fig 3 (Table 1), which depend
//!   on message timing that the synchronous model abstracts away.
//!
//! Both engines are deterministic: all randomness comes from seeded
//! generators supplied by the caller, so every experiment in this
//! repository replays bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod async_engine;
pub mod engine;
pub mod flat;
pub mod lp;
pub mod metrics;
pub mod multi;
pub mod signature;
pub mod sync;

pub use activation::{Activation, AllAtOnce, RandomFair, RandomSubsets, RoundRobin, Scripted};
pub use async_engine::{
    best_history, AdaptivePolicy, AsyncEvent, AsyncOutcome, AsyncSim, DelayModel, FixedDelay,
    FnDelay, SeededJitter, TraceEvent,
};
pub use engine::{Engine, SweepEngine};
pub use flat::{FlatEngine, FlatKey, StateCodec, SweepPlanner};
pub use lp::LpEngine;
pub use metrics::Metrics;
pub use multi::{aggregate, MultiPrefixSim, PrefixResult};
pub use sync::{SyncEngine, SyncOutcome};
