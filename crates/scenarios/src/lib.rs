//! # ibgp-scenarios
//!
//! Every configuration the paper uses as evidence, rebuilt as a reusable
//! [`Scenario`]:
//!
//! | Module | Paper artifact | Claim |
//! |---|---|---|
//! | [`fig1a`] | Fig 1(a) | persistent MED oscillation under standard I-BGP+RR; Walton and the modified protocol converge |
//! | [`fig1b`] | Fig 1(b) | converges under the paper's rule order, diverges under the RFC 1771 order — even fully meshed |
//! | [`fig2`]  | Fig 2 | two stable solutions; ordering-dependent outcome; Walton no help (one neighbor AS); modified deterministic |
//! | [`fig3`]  | Fig 3 + Table 1 | message *delays* drive transient oscillation in a fully meshed system |
//! | [`fig12`] | Fig 12 | real route differs from the believed route (no loop — Lemma 7.6's allowed case) |
//! | [`fig13`] | Fig 13 | persistent oscillation that survives the Walton et al. fix; modified converges |
//! | [`fig14`] | Fig 14 | forwarding loop under standard & Walton; loop-free under modified |
//!
//! plus [`random`] — seeded generators of route-reflection topologies and
//! exit-path sets for property tests and the `experiments` rows.
//!
//! Where the source text does not fully specify a figure (Fig 3's artwork,
//! Fig 13's edge lists), the scenario is a documented reconstruction that
//! provably exhibits the figure's *defining behaviour*; the tests in each
//! module pin that behaviour down mechanically. See DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig1a;
pub mod fig1b;
pub mod fig2;
pub mod fig3;
pub mod random;

pub use catalog::{all_scenarios, by_name};

use ibgp_topology::Topology;
use ibgp_types::ExitPathRef;

/// A named, self-contained experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short identifier (e.g. `"fig1a"`).
    pub name: &'static str,
    /// What the scenario demonstrates.
    pub description: &'static str,
    /// The AS topology.
    pub topology: Topology,
    /// The injected E-BGP exit paths.
    pub exits: Vec<ExitPathRef>,
}

impl Scenario {
    /// The exit paths as a fresh vector (engines consume owned vectors).
    pub fn exits(&self) -> Vec<ExitPathRef> {
        self.exits.clone()
    }
}
