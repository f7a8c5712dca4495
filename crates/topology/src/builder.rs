//! Fluent construction of validated [`Topology`] values.
//!
//! ```
//! use ibgp_topology::TopologyBuilder;
//! use ibgp_types::RouterId;
//!
//! // Two clusters: reflector 0 with clients 1,2; reflector 3 with client 4.
//! let topo = TopologyBuilder::new(5)
//!     .link(0, 1, 1)
//!     .link(0, 2, 1)
//!     .link(0, 3, 10)
//!     .link(3, 4, 1)
//!     .cluster([0], [1, 2])
//!     .cluster([3], [4])
//!     .build()
//!     .unwrap();
//! assert!(topo.ibgp().is_reflector(RouterId::new(0)));
//! ```

use crate::error::TopologyError;
use crate::logical::IbgpTopology;
use crate::physical::PhysicalGraph;
use crate::Topology;
use ibgp_types::{BgpId, IgpCost, RouterId};

/// Builder for [`Topology`]. Nodes are `0..n`; BGP identifiers default to
/// the router index.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    n: usize,
    links: Vec<(u32, u32, u64)>,
    clusters: Vec<(Vec<RouterId>, Vec<RouterId>)>,
    client_sessions: Vec<(RouterId, RouterId)>,
    explicit_peers: Vec<(RouterId, RouterId)>,
    explicit_clients: Vec<(RouterId, RouterId)>,
    bgp_ids: Vec<BgpId>,
    full_mesh: bool,
}

impl TopologyBuilder {
    /// Start a builder over `n` routers.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            links: Vec::new(),
            clusters: Vec::new(),
            client_sessions: Vec::new(),
            explicit_peers: Vec::new(),
            explicit_clients: Vec::new(),
            bgp_ids: (0..n as u32).map(BgpId::new).collect(),
            full_mesh: false,
        }
    }

    /// Add an undirected physical link with the given IGP cost.
    pub fn link(mut self, u: u32, v: u32, cost: u64) -> Self {
        self.links.push((u, v, cost));
        self
    }

    /// Declare a cluster from reflector ids and client ids.
    pub fn cluster(
        mut self,
        reflectors: impl IntoIterator<Item = u32>,
        clients: impl IntoIterator<Item = u32>,
    ) -> Self {
        self.clusters.push((
            reflectors.into_iter().map(RouterId::new).collect(),
            clients.into_iter().map(RouterId::new).collect(),
        ));
        self
    }

    /// Declare an intra-cluster client–client I-BGP session.
    pub fn client_session(mut self, u: u32, v: u32) -> Self {
        self.client_sessions
            .push((RouterId::new(u), RouterId::new(v)));
        self
    }

    /// Declare an explicit (undirected) I-BGP peering. Using this or
    /// [`Self::rr_client`] switches the logical graph to explicit mode
    /// ([`IbgpTopology::explicit`]); declared clusters are then ignored.
    pub fn peer(mut self, u: u32, v: u32) -> Self {
        self.explicit_peers
            .push((RouterId::new(u), RouterId::new(v)));
        self
    }

    /// Declare an explicit directed reflector→client edge (also a
    /// session). See [`Self::peer`].
    pub fn rr_client(mut self, rr: u32, client: u32) -> Self {
        self.explicit_clients
            .push((RouterId::new(rr), RouterId::new(client)));
        self
    }

    /// Use fully meshed I-BGP (ignores any declared clusters).
    pub fn full_mesh(mut self) -> Self {
        self.full_mesh = true;
        self
    }

    /// Override a router's BGP identifier (defaults to its index).
    pub fn bgp_id(mut self, node: u32, id: u32) -> Self {
        if let Some(slot) = self.bgp_ids.get_mut(node as usize) {
            *slot = BgpId::new(id);
        }
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Topology, TopologyError> {
        let mut physical = PhysicalGraph::new(self.n);
        for (u, v, cost) in self.links {
            physical.add_link(RouterId::new(u), RouterId::new(v), IgpCost::new(cost))?;
        }
        let ibgp = if !self.explicit_peers.is_empty() || !self.explicit_clients.is_empty() {
            IbgpTopology::explicit(self.n, self.explicit_peers, self.explicit_clients)?
        } else if self.full_mesh {
            IbgpTopology::full_mesh(self.n)
        } else {
            IbgpTopology::new(self.n, self.clusters, self.client_sessions)?
        };
        Topology::new(physical, ibgp, self.bgp_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_small_topology() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 2)
            .cluster([0], [1])
            .cluster([2], [])
            .build()
            .unwrap();
        assert_eq!(topo.len(), 3);
        assert_eq!(
            topo.igp_cost(RouterId::new(0), RouterId::new(2)),
            IgpCost::new(3)
        );
        assert_eq!(topo.bgp_id(RouterId::new(1)), BgpId::new(1));
    }

    #[test]
    fn full_mesh_overrides_clusters() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        assert!(topo.ibgp().is_session(RouterId::new(0), RouterId::new(1)));
        assert!(topo.ibgp().is_reflector(RouterId::new(1)));
    }

    #[test]
    fn disconnected_graphs_are_rejected() {
        let err = TopologyBuilder::new(2)
            .cluster([0], [])
            .cluster([1], [])
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::Disconnected);
    }

    #[test]
    fn duplicate_bgp_ids_are_rejected() {
        let err = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .bgp_id(1, 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::DuplicateBgpId { .. }));
    }

    #[test]
    fn custom_bgp_ids_are_respected() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .bgp_id(0, 100)
            .bgp_id(1, 50)
            .build()
            .unwrap();
        assert_eq!(topo.bgp_id(RouterId::new(0)), BgpId::new(100));
        assert_eq!(topo.bgp_id(RouterId::new(1)), BgpId::new(50));
    }

    #[test]
    fn single_router_topology_is_valid() {
        let topo = TopologyBuilder::new(1).cluster([0], []).build().unwrap();
        assert_eq!(topo.len(), 1);
        assert_eq!(
            topo.igp_cost(RouterId::new(0), RouterId::new(0)),
            IgpCost::ZERO
        );
    }
}
