//! Verdict oracles. A verdict that fails one counts as failed; a run
//! never aborts on a mismatch.

use ibgp_analysis::OscillationClass;
use ibgp_hunt::{ScenarioSpec, SpecKind, Verdict};
use ibgp_proto::ProtocolVariant;
use std::fmt;

/// Family label of the committed loop-prevention flip specimen.
pub const LP_FLIP: &str = "lp-flip";
pub const LP_FLIP_PATH: &str = "corpus/specimens/lp-flip.ibgp";

/// Class counts of one family's specimens.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub stable: u32,
    pub transient: u32,
    pub persistent: u32,
    pub unknown: u32,
}

const fn t(stable: u32, transient: u32, persistent: u32, unknown: u32) -> Tally {
    Tally {
        stable,
        transient,
        persistent,
        unknown,
    }
}

impl Tally {
    pub fn add(&mut self, class: OscillationClass) {
        match class {
            OscillationClass::Stable => self.stable += 1,
            OscillationClass::Transient => self.transient += 1,
            OscillationClass::Persistent => self.persistent += 1,
            OscillationClass::Unknown => self.unknown += 1,
        }
    }

    /// The fewest specimens whose class must change to turn one tally
    /// into the other (at least 1 when they differ).
    pub fn distance(&self, other: &Tally) -> u64 {
        let l1 = self.stable.abs_diff(other.stable)
            + self.transient.abs_diff(other.transient)
            + self.persistent.abs_diff(other.persistent)
            + self.unknown.abs_diff(other.unknown);
        u64::from(l1.div_ceil(2))
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stable={} transient={} persistent={} unknown={}",
            self.stable, self.transient, self.persistent, self.unknown
        )
    }
}

type Pinned = &'static [(&'static str, Tally)];

/// Per-family class tallies of the `hunt` slice, pinned for the default
/// and the holdout campaign.
pub fn hunt_tallies(campaign: u64) -> Option<Pinned> {
    const DEFAULT: [(&str, Tally); 5] = [
        ("confed", t(39, 0, 1, 0)),
        ("hierarchy", t(37, 3, 0, 0)),
        ("mesh", t(40, 0, 0, 0)),
        ("multi-reflector", t(35, 5, 0, 0)),
        ("reflection", t(34, 6, 0, 0)),
    ];
    const HOLDOUT: [(&str, Tally); 5] = [
        ("confed", t(38, 1, 1, 0)),
        ("hierarchy", t(34, 6, 0, 0)),
        ("mesh", t(40, 0, 0, 0)),
        ("multi-reflector", t(35, 3, 2, 0)),
        ("reflection", t(32, 8, 0, 0)),
    ];
    match campaign {
        crate::DEFAULT_CAMPAIGN => Some(&DEFAULT),
        crate::HOLDOUT_CAMPAIGN => Some(&HOLDOUT),
        _ => None,
    }
}

/// Per-family class tallies of the `lp` slice (loop prevention on).
pub fn lp_tallies(campaign: u64) -> Option<Pinned> {
    const DEFAULT: [(&str, Tally); 3] = [
        (LP_FLIP, t(0, 1, 0, 0)),
        ("multi-reflector", t(3, 2, 0, 0)),
        ("reflection", t(22, 2, 0, 0)),
    ];
    const HOLDOUT: [(&str, Tally); 3] = [
        (LP_FLIP, t(0, 1, 0, 0)),
        ("multi-reflector", t(1, 4, 0, 0)),
        ("reflection", t(18, 6, 0, 0)),
    ];
    match campaign {
        crate::DEFAULT_CAMPAIGN => Some(&DEFAULT),
        crate::HOLDOUT_CAMPAIGN => Some(&HOLDOUT),
        _ => None,
    }
}

/// Whether the solver backend's fixed-point enumeration covers `spec`:
/// flat reflection under the standard protocol, without loop prevention.
pub fn solver_applies(spec: &ScenarioSpec) -> bool {
    matches!(&spec.kind, SpecKind::Reflection(r)
        if r.variant == ProtocolVariant::Standard && !r.loop_prevention)
}

/// The search's reachable fixed points are a subset of all fixed points,
/// so every stable vector the search found must be one the solver
/// enumerated, and no fixed point at all means persistent oscillation.
pub fn within_solver(search: &Verdict, sat: &Verdict) -> bool {
    if !search.complete || !sat.complete {
        return true;
    }
    search
        .stable_vectors
        .iter()
        .all(|v| sat.stable_vectors.contains(v))
        && (!sat.stable_vectors.is_empty() || search.class == OscillationClass::Persistent)
}

/// Loop prevention only adds reachability between co-reflectors, so a
/// verdict may flip only from stable to transient. The committed flip
/// specimen must give stable/62 plain and transient/90 under lp.
pub fn lp_consistent(family: &str, plain: &Verdict, lp: &Verdict) -> bool {
    if family == LP_FLIP {
        return plain.class == OscillationClass::Stable
            && plain.states == 62
            && lp.class == OscillationClass::Transient
            && lp.states == 90;
    }
    plain.class == lp.class
        || plain.class == OscillationClass::Unknown
        || lp.class == OscillationClass::Unknown
        || (plain.class == OscillationClass::Stable && lp.class == OscillationClass::Transient)
}

/// Whether two verdicts agree on everything but their timing metrics.
pub fn same(a: &Verdict, b: &Verdict) -> bool {
    a.class == b.class
        && a.states == b.states
        && a.complete == b.complete
        && a.stop == b.stop
        && a.stable_vectors == b.stable_vectors
        && a.origin == b.origin
        && a.stable_count == b.stable_count
}

/// Positions where two passes' verdicts disagree (or either failed).
pub fn mismatches(a: &[Option<Verdict>], b: &[Option<Verdict>]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => !same(x, y),
            _ => true,
        })
        .count() as u64
}
