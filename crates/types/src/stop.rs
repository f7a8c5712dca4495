//! Why a bounded search stopped, and the budgets that bound it.
//!
//! Every exhaustive search in the workspace (flat reflection,
//! confederation, hierarchy) is resource-bounded, and callers need to
//! know *why* a search ended to report an inconclusive verdict honestly.
//! Historically each result type carried a parallel pair of
//! `cap: Option<usize>` / `memory: Option<usize>` fields; [`StopReason`]
//! collapses them into one enum so a search has exactly one stop reason
//! and new reasons (deadlines) extend every consumer at once.
//!
//! [`SearchBudget`] is the matching request-side bundle for the
//! constraint solver: the state (decision) cap and the optional
//! wall-clock deadline a caller grants one enumeration. The explorer
//! takes the same limits, plus a byte budget, through its own options.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Why a bounded exhaustive search ended.
///
/// `Complete` is the only reason that yields a conclusive verdict; every
/// other variant means the reachable space was *not* fully explored and
/// absence results prove nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopReason {
    /// The whole reachable space was explored.
    Complete,
    /// The state cap was hit; carries the cap that stopped the search.
    StateCap(usize),
    /// The visited-set byte budget was exhausted (even after digest
    /// compaction); carries the budget in bytes.
    MemoryBudget(usize),
    /// The wall-clock deadline passed before the search finished.
    Deadline,
}

impl StopReason {
    /// Whether the search explored its whole reachable space.
    pub fn is_complete(&self) -> bool {
        matches!(self, StopReason::Complete)
    }

    /// The state cap that stopped the search, when one did. The shape of
    /// the pre-`StopReason` `cap` field, for callers migrating off it.
    pub fn state_cap(&self) -> Option<usize> {
        match self {
            StopReason::StateCap(n) => Some(*n),
            _ => None,
        }
    }

    /// The byte budget that stopped the search, when one did. The shape
    /// of the pre-`StopReason` `memory` field.
    pub fn memory_budget(&self) -> Option<usize> {
        match self {
            StopReason::MemoryBudget(n) => Some(*n),
            _ => None,
        }
    }

    /// The one user-facing hint line for an inconclusive search — the
    /// wording every front end (CLI verdict block, campaign summaries,
    /// the serve protocol) must share so it cannot drift. `None` for a
    /// complete search.
    pub fn hint(&self) -> Option<String> {
        match self {
            StopReason::Complete => None,
            StopReason::StateCap(n) => Some(format!(
                "inconclusive: state cap {n} reached (raise --max-states)"
            )),
            StopReason::MemoryBudget(n) => Some(format!(
                "inconclusive: memory budget {n} bytes exhausted (raise --max-bytes)"
            )),
            StopReason::Deadline => {
                Some("inconclusive: deadline exceeded (raise the deadline)".into())
            }
        }
    }

    /// Compact machine-readable token (`complete`, `cap:N`, `mem:N`,
    /// `deadline`) used by the verdict store log and the wire protocol.
    pub fn token(&self) -> String {
        match self {
            StopReason::Complete => "complete".into(),
            StopReason::StateCap(n) => format!("cap:{n}"),
            StopReason::MemoryBudget(n) => format!("mem:{n}"),
            StopReason::Deadline => "deadline".into(),
        }
    }

    /// Parse a [`Self::token`] back. `None` for unrecognized input.
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "complete" => Some(StopReason::Complete),
            "deadline" => Some(StopReason::Deadline),
            _ => {
                let (kind, n) = s.split_once(':')?;
                let n: usize = n.parse().ok()?;
                match kind {
                    "cap" => Some(StopReason::StateCap(n)),
                    "mem" => Some(StopReason::MemoryBudget(n)),
                    _ => None,
                }
            }
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Complete => f.write_str("complete"),
            StopReason::StateCap(n) => write!(f, "state cap {n} reached"),
            StopReason::MemoryBudget(n) => write!(f, "memory budget {n} bytes exhausted"),
            StopReason::Deadline => f.write_str("deadline exceeded"),
        }
    }
}

/// The resource budget one search request is granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Cap on distinct configurations visited.
    pub max_states: usize,
    /// Absolute wall-clock deadline; `None` for no deadline. Checked
    /// between expansions, so a deadline already in the past stops a
    /// search deterministically after visiting only the initial state.
    pub deadline: Option<Instant>,
}

impl SearchBudget {
    /// A no-deadline budget with the given state cap.
    pub fn states(max_states: usize) -> Self {
        Self {
            max_states,
            deadline: None,
        }
    }

    /// Replace the deadline.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accessors_match_variants() {
        assert!(StopReason::Complete.is_complete());
        assert_eq!(StopReason::Complete.state_cap(), None);
        assert_eq!(StopReason::StateCap(7).state_cap(), Some(7));
        assert_eq!(StopReason::StateCap(7).memory_budget(), None);
        assert_eq!(StopReason::MemoryBudget(64).memory_budget(), Some(64));
        assert!(!StopReason::Deadline.is_complete());
    }

    #[test]
    fn hints_exist_exactly_for_inconclusive_reasons() {
        assert_eq!(StopReason::Complete.hint(), None);
        assert_eq!(
            StopReason::StateCap(10).hint().unwrap(),
            "inconclusive: state cap 10 reached (raise --max-states)"
        );
        assert!(StopReason::MemoryBudget(64)
            .hint()
            .unwrap()
            .contains("64 bytes"));
        assert!(StopReason::Deadline.hint().unwrap().contains("deadline"));
    }

    #[test]
    fn tokens_round_trip() {
        for r in [
            StopReason::Complete,
            StopReason::StateCap(123),
            StopReason::MemoryBudget(1 << 20),
            StopReason::Deadline,
        ] {
            assert_eq!(StopReason::from_token(&r.token()), Some(r));
        }
        assert_eq!(StopReason::from_token("cap:x"), None);
        assert_eq!(StopReason::from_token("bogus"), None);
    }

    #[test]
    fn budget_expiry_is_about_the_deadline_only() {
        let b = SearchBudget::states(100);
        assert!(!b.expired());
        let past = Instant::now() - Duration::from_secs(1);
        assert!(b.deadline(past).expired());
        let future = Instant::now() + Duration::from_secs(3600);
        assert!(!SearchBudget::states(1).deadline(future).expired());
    }
}
