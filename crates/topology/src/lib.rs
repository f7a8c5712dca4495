//! # ibgp-topology
//!
//! The graph substrate of the paper's model (§4):
//!
//! * [`PhysicalGraph`] — `G_P = (V, E_P)`: routers of `AS0` and their
//!   physical links with positive IGP costs.
//! * [`SpfTable`] — the deterministic shortest-path function `SP(u, v)`:
//!   all-pairs Dijkstra with a fixed tie-breaking rule, so every simulator
//!   in the workspace sees the *same* selected shortest paths (the paper
//!   requires `SP` to be "chosen deterministically from one of the least
//!   cost paths").
//! * [`IbgpTopology`] — `G_I = (V, E_I)`: the I-BGP peering sessions
//!   induced by a partition of `V` into route-reflection clusters, each
//!   with reflector and client nodes, validated against the four structural
//!   constraints of §4.
//! * [`Topology`] — the bundle of both graphs plus per-router BGP
//!   identifiers, as consumed by `ibgp-proto` and the simulators.
//!
//! Fully meshed I-BGP is the special case where every router is a reflector
//! in a singleton cluster ([`IbgpTopology::full_mesh`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod canon;
pub mod error;
pub mod logical;
pub mod physical;
pub mod spf;
pub mod viz;

pub use builder::TopologyBuilder;
pub use error::TopologyError;
pub use logical::{Cluster, IbgpTopology, Role};
pub use physical::PhysicalGraph;
pub use spf::SpfTable;

use ibgp_types::{BgpId, IgpCost, RouterId};

/// Largest router count a scenario file may declare, in every text
/// format the workspace parses (`.ibgp` specs, `.conf` conformance
/// scenarios). Building and simulating a topology allocates per router
/// and per router pair (shortest paths), so an absurd count must fail as
/// a line-numbered parse error rather than abort the process on
/// allocation — the daemon parses untrusted request bodies.
pub const MAX_ROUTERS: usize = 1024;

/// A complete, validated `AS0` topology: physical graph, precomputed SPF,
/// logical session graph, and per-router BGP identifiers.
#[derive(Debug, Clone)]
pub struct Topology {
    physical: PhysicalGraph,
    spf: SpfTable,
    ibgp: IbgpTopology,
    bgp_ids: Vec<BgpId>,
}

impl Topology {
    /// Assemble and validate a topology. Prefer [`TopologyBuilder`] for
    /// construction in application code.
    ///
    /// `bgp_ids[i]` is the BGP identifier of router `i`; it must be unique.
    pub fn new(
        physical: PhysicalGraph,
        ibgp: IbgpTopology,
        bgp_ids: Vec<BgpId>,
    ) -> Result<Self, TopologyError> {
        if physical.len() != ibgp.len() {
            return Err(TopologyError::NodeCountMismatch {
                physical: physical.len(),
                logical: ibgp.len(),
            });
        }
        if bgp_ids.len() != physical.len() {
            return Err(TopologyError::NodeCountMismatch {
                physical: physical.len(),
                logical: bgp_ids.len(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for (i, id) in bgp_ids.iter().enumerate() {
            if !seen.insert(*id) {
                return Err(TopologyError::DuplicateBgpId {
                    node: RouterId::new(i as u32),
                    bgp_id: *id,
                });
            }
        }
        if !physical.is_connected() {
            return Err(TopologyError::Disconnected);
        }
        let spf = SpfTable::compute(&physical);
        Ok(Self {
            physical,
            spf,
            ibgp,
            bgp_ids,
        })
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.physical.len()
    }

    /// True when the topology has no routers (never, post-validation).
    pub fn is_empty(&self) -> bool {
        self.physical.is_empty()
    }

    /// All router ids, in index order.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.len() as u32).map(RouterId::new)
    }

    /// The physical graph.
    pub fn physical(&self) -> &PhysicalGraph {
        &self.physical
    }

    /// The precomputed all-pairs shortest paths.
    pub fn spf(&self) -> &SpfTable {
        &self.spf
    }

    /// The I-BGP session graph.
    pub fn ibgp(&self) -> &IbgpTopology {
        &self.ibgp
    }

    /// The BGP identifier of a router.
    pub fn bgp_id(&self, node: RouterId) -> BgpId {
        self.bgp_ids[node.index()]
    }

    /// `cost(SP(u, v))` — the IGP distance between two routers.
    pub fn igp_cost(&self, u: RouterId, v: RouterId) -> IgpCost {
        self.spf.cost(u, v)
    }
}
