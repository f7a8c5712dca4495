//! # ibgp-serve
//!
//! Classification-as-a-service on top of [`ibgp_hunt::classify_spec`]:
//!
//! * [`store`] — the [`VerdictStore`]: verdicts keyed by the canonical
//!   structural signature, with an append-only fsynced log and
//!   budget-compatibility rules that prevent a small-budget inconclusive
//!   verdict from poisoning larger-budget requests.
//! * [`sched`] — the bounded [`Scheduler`]: N concurrent searches over a
//!   FIFO queue, per-request budgets, store consultation before every
//!   search, and in-flight dedup so isomorphic requests share one search.
//! * [`server`] — the `ibgp-cli serve` daemon: a hand-rolled
//!   line-delimited TCP protocol (request = budget header + `.ibgp` text,
//!   response = verdict + `cached:` flag).
//! * [`batch`] — `ibgp-cli batch`: classify a directory through the same
//!   scheduler and render a deterministic JSON report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod sched;
pub mod server;
pub mod store;

pub use batch::{report_json, run_batch, BatchEntry, BatchOutcome};
pub use sched::{Answer, JobResult, Request, Scheduler, Ticket};
pub use server::{parse_header, submit_text, Response, Server, MAX_REQUEST_BYTES};
pub use store::{
    class_from_keyword, class_keyword, vectors_from_token, vectors_token, Entry, StoredBudget,
    VerdictStore,
};
