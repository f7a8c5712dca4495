//! # ibgp-npc
//!
//! The §5 result of the paper: deciding whether an I-BGP-with-route-
//! reflection configuration *can* stabilize is NP-complete, by reduction
//! from 3-SAT. This crate implements the reduction constructively:
//!
//! * [`sat`] — 3-SAT formulas, random generation, assignment evaluation;
//! * [`dpll`] — a complete DPLL solver (unit propagation + pure literals)
//!   providing ground truth for the equivalence tests;
//! * [`reduction`] — `J ↦ SR_J`: variable gadgets (bistable DISAGREE
//!   pairs, Fig 7/8-style: exactly two stable orientations = truth
//!   values) and clause gadgets (Fig 1(a)-style MED oscillators with no
//!   stable state in isolation, Fig 9-style), wired so that a clause
//!   oscillator is *pacified* exactly when one of its literals' exit
//!   paths circulates — i.e. when the clause is satisfied;
//! * [`extract`] — reading a truth assignment back out of a stable
//!   routing configuration, and building the activation schedule that
//!   drives the system into the configuration induced by an assignment;
//! * [`verify`] — the mechanical equivalence check
//!   `J satisfiable ⟺ SR_J can stabilize`, exercised against DPLL over
//!   formula corpora in the tests and the `experiments` E5 row.
//!
//! The paper's Figures 7–9 are not fully recoverable from the source
//! text, so the gadget internals here are a documented reconstruction
//! (see DESIGN.md); the *defining properties* — gadget bistability,
//! clause instability in isolation, pacification by satisfied literals,
//! and the global sat ⟺ stable equivalence — are all verified
//! mechanically by this crate's tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dpll;
pub mod extract;
pub mod reduction;
pub mod sat;
pub mod verify;

pub use dpll::solve;
pub use extract::{assignment_from_best, schedule_for};
pub use reduction::{reduce, SrInstance};
pub use sat::{Clause, Formula, Lit, Var};
pub use verify::{check_equivalence, EquivalenceReport};
