//! Configuration signatures for cycle detection.
//!
//! The sync engine's visible state — per node: the `PossibleExits` set,
//! the best route's exit, and the advertised set — is finite, so an
//! execution under a *periodic* activation sequence that revisits a
//! `(state, phase)` pair has entered a cycle: it will repeat forever.
//! Signatures are 64-bit hashes of the canonicalized state; the engine
//! additionally keeps the canonical form of visited states to rule out
//! hash collisions before declaring a cycle.

use ibgp_types::ExitPathId;

/// Canonical form of one node's visible state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeStateKey {
    /// Sorted ids of `PossibleExits(v, t)`.
    pub possible: Vec<ExitPathId>,
    /// The best route's exit-path id, if any.
    pub best: Option<ExitPathId>,
    /// Sorted ids of the currently advertised set.
    pub advertised: Vec<ExitPathId>,
    /// Reflection attributes of the advertised paths under loop
    /// prevention, flattened per advertised path as
    /// `[from + 1 (0 = own E-BGP route), cluster-list length, ids...]`.
    /// Empty with loop prevention off. Peers read exactly the advertised
    /// set plus these attributes, so this is the finest state the
    /// transition function can distinguish.
    pub rr: Vec<u32>,
}

/// Canonical form of a full configuration (plus activation phase).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateKey {
    /// Per-node states, indexed by router id.
    pub nodes: Vec<NodeStateKey>,
    /// Activation-sequence phase (periodic schedules only).
    pub phase: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(best: Option<u32>, phase: u64) -> StateKey {
        StateKey {
            nodes: vec![NodeStateKey {
                possible: vec![ExitPathId::new(1), ExitPathId::new(2)],
                best: best.map(ExitPathId::new),
                advertised: vec![ExitPathId::new(1)],
                rr: Vec::new(),
            }],
            phase,
        }
    }

    #[test]
    fn different_best_or_phase_changes_key() {
        assert_ne!(key(Some(1), 0), key(Some(2), 0));
        assert_ne!(key(Some(1), 0), key(Some(1), 1));
        assert_ne!(key(None, 0), key(Some(1), 0));
    }
}
