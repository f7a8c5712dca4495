//! The logical graph `G_I = (V, E_I)` — I-BGP peering sessions under route
//! reflection (§2, §4).
//!
//! `V` is partitioned into clusters `C_1 … C_k`; each cluster has a
//! non-empty set of reflectors `R_i` and a (possibly empty) set of clients
//! `N_i = C_i \ R_i`. The edges of `E_I` are exactly:
//!
//! 1. every pair of reflectors (the top-level full mesh),
//! 2. every client to every reflector of its own cluster,
//! 3. *no* edge from a client to any node of a different cluster,
//! 4. optionally, arbitrary pairs of clients within the same cluster.
//!
//! Fully meshed I-BGP is the degenerate case of singleton reflector-only
//! clusters ([`IbgpTopology::full_mesh`]).

use crate::error::TopologyError;
use ibgp_types::{ClusterId, RouterId};
use serde::{Deserialize, Serialize};

/// The role of a node within its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// A route reflector of the given cluster (member of `R_i`).
    Reflector(ClusterId),
    /// A client of the given cluster (member of `N_i`).
    Client(ClusterId),
}

impl Role {
    /// The cluster this node belongs to.
    pub fn cluster(self) -> ClusterId {
        match self {
            Role::Reflector(c) | Role::Client(c) => c,
        }
    }

    /// True for reflectors.
    pub fn is_reflector(self) -> bool {
        matches!(self, Role::Reflector(_))
    }
}

/// One route-reflection cluster: reflectors plus clients.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    id: ClusterId,
    reflectors: Vec<RouterId>,
    clients: Vec<RouterId>,
}

impl Cluster {
    /// The cluster id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The reflectors `R_i` (non-empty).
    pub fn reflectors(&self) -> &[RouterId] {
        &self.reflectors
    }

    /// The clients `N_i`.
    pub fn clients(&self) -> &[RouterId] {
        &self.clients
    }

    /// All members `C_i = R_i ∪ N_i`.
    pub fn members(&self) -> impl Iterator<Item = RouterId> + '_ {
        self.reflectors.iter().chain(self.clients.iter()).copied()
    }
}

/// An explicit I-BGP session graph, overriding the partition-derived
/// `E_I` (see [`IbgpTopology::explicit`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ExplicitSessions {
    /// Undirected peer sessions, stored with `u < v`, sorted.
    peers: Vec<(RouterId, RouterId)>,
    /// Directed reflector→client edges, sorted.
    clients: Vec<(RouterId, RouterId)>,
}

/// The validated I-BGP session structure of an AS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IbgpTopology {
    clusters: Vec<Cluster>,
    /// Role of each node, indexed by router id.
    roles: Vec<Role>,
    /// Intra-cluster client–client sessions (constraint 4), stored with
    /// `u < v`.
    extra_client_sessions: Vec<(RouterId, RouterId)>,
    /// When set, the session graph is the explicit one and the cluster
    /// partition above is a synthetic singleton cover (see
    /// [`IbgpTopology::explicit`]).
    #[serde(default)]
    explicit: Option<ExplicitSessions>,
}

impl IbgpTopology {
    /// Build and validate the cluster structure over `n` routers.
    ///
    /// `clusters` is a list of `(reflectors, clients)` pairs;
    /// `client_sessions` the optional intra-cluster client peerings.
    pub fn new(
        n: usize,
        clusters: Vec<(Vec<RouterId>, Vec<RouterId>)>,
        client_sessions: Vec<(RouterId, RouterId)>,
    ) -> Result<Self, TopologyError> {
        let mut roles: Vec<Option<Role>> = vec![None; n];
        let mut built = Vec::with_capacity(clusters.len());
        for (idx, (reflectors, clients)) in clusters.into_iter().enumerate() {
            let cid = ClusterId::new(idx as u32);
            if reflectors.is_empty() {
                return Err(TopologyError::ClusterWithoutReflector(cid));
            }
            for &u in &reflectors {
                assign(&mut roles, u, Role::Reflector(cid), n)?;
            }
            for &u in &clients {
                assign(&mut roles, u, Role::Client(cid), n)?;
            }
            built.push(Cluster {
                id: cid,
                reflectors,
                clients,
            });
        }
        let mut resolved = Vec::with_capacity(n);
        for (i, role) in roles.into_iter().enumerate() {
            match role {
                Some(r) => resolved.push(r),
                None => return Err(TopologyError::NodeUnclustered(RouterId::new(i as u32))),
            }
        }
        let mut extra = Vec::with_capacity(client_sessions.len());
        for (u, v) in client_sessions {
            if u.index() >= n {
                return Err(TopologyError::NodeOutOfRange { node: u, len: n });
            }
            if v.index() >= n {
                return Err(TopologyError::NodeOutOfRange { node: v, len: n });
            }
            if u == v {
                return Err(TopologyError::SelfLoop(u));
            }
            let (ru, rv) = (resolved[u.index()], resolved[v.index()]);
            if ru.is_reflector() || rv.is_reflector() {
                return Err(TopologyError::ExtraSessionNotBetweenClients(u, v));
            }
            if ru.cluster() != rv.cluster() {
                return Err(TopologyError::CrossClusterClientSession(u, v));
            }
            let pair = if u < v { (u, v) } else { (v, u) };
            if !extra.contains(&pair) {
                extra.push(pair);
            }
        }
        extra.sort();
        Ok(Self {
            clusters: built,
            roles: resolved,
            extra_client_sessions: extra,
            explicit: None,
        })
    }

    /// Build an *explicit* session graph: `peers` are plain (undirected)
    /// I-BGP peerings, `clients` are directed reflector→client edges
    /// (which are also sessions). Nothing else is a session.
    ///
    /// The cluster partition (§2) can only express session graphs where
    /// the reflectors form a full mesh and every client peers with
    /// exactly its own cluster's reflectors. Real configurations — e.g.
    /// the cbgp validation topologies, where a router is a client of one
    /// neighbor and a plain peer of another — need the edge list itself.
    /// Routers are given synthetic singleton `Reflector` roles so the
    /// partition accessors stay total; role-based queries are not
    /// meaningful here, and [`Self::client_edge`] / [`Self::reflects`]
    /// are the authoritative reflection relations.
    pub fn explicit(
        n: usize,
        peers: Vec<(RouterId, RouterId)>,
        clients: Vec<(RouterId, RouterId)>,
    ) -> Result<Self, TopologyError> {
        let check = |u: RouterId, v: RouterId| -> Result<(), TopologyError> {
            for node in [u, v] {
                if node.index() >= n {
                    return Err(TopologyError::NodeOutOfRange { node, len: n });
                }
            }
            if u == v {
                return Err(TopologyError::SelfLoop(u));
            }
            Ok(())
        };
        let mut undirected = Vec::with_capacity(peers.len());
        for (u, v) in peers {
            check(u, v)?;
            let pair = if u < v { (u, v) } else { (v, u) };
            if !undirected.contains(&pair) {
                undirected.push(pair);
            }
        }
        undirected.sort();
        let mut directed = Vec::with_capacity(clients.len());
        for (v, u) in clients {
            check(v, u)?;
            if !directed.contains(&(v, u)) {
                directed.push((v, u));
            }
        }
        directed.sort();
        let mesh = Self::full_mesh(n);
        Ok(Self {
            explicit: Some(ExplicitSessions {
                peers: undirected,
                clients: directed,
            }),
            ..mesh
        })
    }

    /// Fully meshed I-BGP: every router a reflector in its own cluster.
    pub fn full_mesh(n: usize) -> Self {
        let clusters = (0..n)
            .map(|i| (ClusterId::new(i as u32), vec![RouterId::new(i as u32)]))
            .map(|(id, reflectors)| Cluster {
                id,
                reflectors,
                clients: Vec::new(),
            })
            .collect::<Vec<_>>();
        let roles = (0..n)
            .map(|i| Role::Reflector(ClusterId::new(i as u32)))
            .collect();
        Self {
            clusters,
            roles,
            extra_client_sessions: Vec::new(),
            explicit: None,
        }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True when no routers exist.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// The clusters, in id order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The role of a node.
    pub fn role(&self, u: RouterId) -> Role {
        self.roles[u.index()]
    }

    /// The cluster id of a node.
    pub fn cluster_of(&self, u: RouterId) -> ClusterId {
        self.roles[u.index()].cluster()
    }

    /// True for reflector nodes (members of `R`).
    pub fn is_reflector(&self, u: RouterId) -> bool {
        self.roles[u.index()].is_reflector()
    }

    /// True for client nodes (members of `N`).
    pub fn is_client(&self, u: RouterId) -> bool {
        !self.is_reflector(u)
    }

    /// Whether `u` and `v` are in the same cluster.
    pub fn same_cluster(&self, u: RouterId, v: RouterId) -> bool {
        self.cluster_of(u) == self.cluster_of(v)
    }

    /// Whether `uv ∈ E_I`: an I-BGP session exists between distinct `u`
    /// and `v`.
    pub fn is_session(&self, u: RouterId, v: RouterId) -> bool {
        if u == v {
            return false;
        }
        if let Some(ex) = &self.explicit {
            let pair = if u < v { (u, v) } else { (v, u) };
            return ex.peers.binary_search(&pair).is_ok()
                || ex.clients.binary_search(&(u, v)).is_ok()
                || ex.clients.binary_search(&(v, u)).is_ok();
        }
        match (self.roles[u.index()], self.roles[v.index()]) {
            // Constraint 1: reflector full mesh.
            (Role::Reflector(_), Role::Reflector(_)) => true,
            // Constraint 2: client <-> each reflector of its own cluster.
            (Role::Reflector(cr), Role::Client(cc)) | (Role::Client(cc), Role::Reflector(cr)) => {
                cr == cc
            }
            // Constraint 4: explicit intra-cluster client sessions.
            (Role::Client(_), Role::Client(_)) => {
                let pair = if u < v { (u, v) } else { (v, u) };
                self.extra_client_sessions.binary_search(&pair).is_ok()
            }
        }
    }

    /// The I-BGP peers of `u`, in ascending id order.
    pub fn peers(&self, u: RouterId) -> Vec<RouterId> {
        (0..self.len() as u32)
            .map(RouterId::new)
            .filter(|&v| self.is_session(u, v))
            .collect()
    }

    /// All sessions `(u, v)` with `u < v`.
    pub fn sessions(&self) -> Vec<(RouterId, RouterId)> {
        let n = self.len() as u32;
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let (u, v) = (RouterId::new(u), RouterId::new(v));
                if self.is_session(u, v) {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// All reflector nodes `R`, ascending.
    pub fn reflectors(&self) -> Vec<RouterId> {
        (0..self.len() as u32)
            .map(RouterId::new)
            .filter(|&u| self.is_reflector(u))
            .collect()
    }

    /// All client nodes `N`, ascending.
    pub fn clients(&self) -> Vec<RouterId> {
        (0..self.len() as u32)
            .map(RouterId::new)
            .filter(|&u| self.is_client(u))
            .collect()
    }

    /// Whether `u` is a *client of* `v` (a directed reflector→client
    /// edge): the relation the message-level reflection rules key on.
    ///
    /// In partition mode, `u` is a client of every reflector of its own
    /// cluster; declared client–client sessions are plain peerings. In
    /// explicit mode the directed edge list is authoritative.
    pub fn client_edge(&self, v: RouterId, u: RouterId) -> bool {
        if let Some(ex) = &self.explicit {
            return ex.clients.binary_search(&(v, u)).is_ok();
        }
        self.is_reflector(v) && self.is_client(u) && self.same_cluster(v, u)
    }

    /// Whether `v` acts as a route reflector — i.e. may re-advertise
    /// learned routes at all. In explicit mode: has at least one client
    /// edge; in partition mode: is a reflector.
    pub fn reflects(&self, v: RouterId) -> bool {
        if let Some(ex) = &self.explicit {
            return ex.clients.iter().any(|&(rr, _)| rr == v);
        }
        self.is_reflector(v)
    }

    /// The declared intra-cluster client–client sessions (constraint 4),
    /// as `(u, v)` pairs with `u < v`, sorted. Exporters (e.g. the
    /// `.ibgp` scenario format) need these separately from the sessions
    /// derived from cluster roles.
    pub fn client_sessions(&self) -> &[(RouterId, RouterId)] {
        &self.extra_client_sessions
    }
}

fn assign(
    roles: &mut [Option<Role>],
    u: RouterId,
    role: Role,
    n: usize,
) -> Result<(), TopologyError> {
    if u.index() >= n {
        return Err(TopologyError::NodeOutOfRange { node: u, len: n });
    }
    let slot = &mut roles[u.index()];
    if slot.is_some() {
        return Err(TopologyError::NodeInMultipleClusters(u));
    }
    *slot = Some(role);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RouterId {
        RouterId::new(i)
    }

    /// Two clusters: {RR0; clients 1,2} and {RR3; client 4}.
    fn sample() -> IbgpTopology {
        IbgpTopology::new(
            5,
            vec![(vec![r(0)], vec![r(1), r(2)]), (vec![r(3)], vec![r(4)])],
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn roles_and_clusters() {
        let t = sample();
        assert!(t.is_reflector(r(0)));
        assert!(t.is_client(r(1)));
        assert_eq!(t.cluster_of(r(4)), ClusterId::new(1));
        assert!(t.same_cluster(r(0), r(2)));
        assert!(!t.same_cluster(r(2), r(4)));
        assert_eq!(t.reflectors(), vec![r(0), r(3)]);
        assert_eq!(t.clients(), vec![r(1), r(2), r(4)]);
    }

    #[test]
    fn session_rules() {
        let t = sample();
        // Reflector mesh.
        assert!(t.is_session(r(0), r(3)));
        // Client to own reflector.
        assert!(t.is_session(r(1), r(0)));
        assert!(t.is_session(r(4), r(3)));
        // No client to foreign reflector or foreign client.
        assert!(!t.is_session(r(1), r(3)));
        assert!(!t.is_session(r(1), r(4)));
        // No intra-cluster client sessions unless declared.
        assert!(!t.is_session(r(1), r(2)));
        // Never self-sessions.
        assert!(!t.is_session(r(0), r(0)));
    }

    #[test]
    fn declared_client_sessions_work() {
        let t =
            IbgpTopology::new(3, vec![(vec![r(0)], vec![r(1), r(2)])], vec![(r(2), r(1))]).unwrap();
        assert!(t.is_session(r(1), r(2)));
        assert!(t.is_session(r(2), r(1)));
    }

    #[test]
    fn rejects_cross_cluster_client_sessions() {
        let err = IbgpTopology::new(
            4,
            vec![(vec![r(0)], vec![r(1)]), (vec![r(2)], vec![r(3)])],
            vec![(r(1), r(3))],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::CrossClusterClientSession(r(1), r(3)));
    }

    #[test]
    fn rejects_extra_sessions_touching_reflectors() {
        let err = IbgpTopology::new(3, vec![(vec![r(0)], vec![r(1), r(2)])], vec![(r(0), r(1))])
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::ExtraSessionNotBetweenClients(r(0), r(1))
        );
    }

    #[test]
    fn rejects_unclustered_and_duplicated_nodes() {
        let err = IbgpTopology::new(3, vec![(vec![r(0)], vec![r(1)])], vec![]).unwrap_err();
        assert_eq!(err, TopologyError::NodeUnclustered(r(2)));
        let err = IbgpTopology::new(
            2,
            vec![(vec![r(0)], vec![r(1)]), (vec![r(1)], vec![])],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, TopologyError::NodeInMultipleClusters(r(1)));
    }

    #[test]
    fn rejects_reflectorless_cluster() {
        let err = IbgpTopology::new(1, vec![(vec![], vec![r(0)])], vec![]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::ClusterWithoutReflector(ClusterId::new(0))
        );
    }

    #[test]
    fn full_mesh_has_all_pairs() {
        let t = IbgpTopology::full_mesh(4);
        assert_eq!(t.sessions().len(), 6);
        for u in 0..4 {
            assert!(t.is_reflector(r(u)));
        }
        assert!(t.is_session(r(0), r(3)));
    }

    #[test]
    fn peers_are_sorted_and_complete() {
        let t = sample();
        assert_eq!(t.peers(r(0)), vec![r(1), r(2), r(3)]);
        assert_eq!(t.peers(r(1)), vec![r(0)]);
        assert_eq!(t.peers(r(3)), vec![r(0), r(4)]);
    }

    #[test]
    fn sessions_count_matches_structure() {
        let t = sample();
        // RR mesh: (0,3). Clients: (0,1),(0,2),(3,4).
        assert_eq!(
            t.sessions(),
            vec![(r(0), r(1)), (r(0), r(2)), (r(0), r(3)), (r(3), r(4))]
        );
    }

    #[test]
    fn explicit_sessions_are_the_edge_list() {
        // cbgp's `bgp_rr` shape: 0—1 peers, 2—3 peers, 1—4 peers, 2 a
        // client of 1. No partition can express this graph.
        let t = IbgpTopology::explicit(
            5,
            vec![(r(0), r(1)), (r(2), r(3)), (r(1), r(4))],
            vec![(r(1), r(2))],
        )
        .unwrap();
        assert!(t.is_session(r(0), r(1)));
        assert!(t.is_session(r(1), r(2))); // client edge is a session
        assert!(t.is_session(r(2), r(1)));
        assert!(t.is_session(r(2), r(3)));
        assert!(!t.is_session(r(0), r(2)));
        assert!(!t.is_session(r(3), r(4)));
        assert!(!t.is_session(r(1), r(1)));
        assert!(t.client_edge(r(1), r(2)));
        assert!(!t.client_edge(r(2), r(1))); // directed
        assert!(!t.client_edge(r(0), r(1)));
        assert!(t.reflects(r(1)));
        assert!(!t.reflects(r(0)));
        assert_eq!(t.peers(r(1)), vec![r(0), r(2), r(4)]);
    }

    #[test]
    fn explicit_rejects_bad_edges() {
        assert_eq!(
            IbgpTopology::explicit(2, vec![(r(0), r(2))], vec![]).unwrap_err(),
            TopologyError::NodeOutOfRange { node: r(2), len: 2 }
        );
        assert_eq!(
            IbgpTopology::explicit(2, vec![], vec![(r(1), r(1))]).unwrap_err(),
            TopologyError::SelfLoop(r(1))
        );
    }

    #[test]
    fn partition_client_edges_follow_roles() {
        let t = sample();
        assert!(t.client_edge(r(0), r(1)));
        assert!(t.client_edge(r(0), r(2)));
        assert!(!t.client_edge(r(0), r(4))); // other cluster
        assert!(!t.client_edge(r(1), r(2))); // clients have no clients
        assert!(!t.client_edge(r(1), r(0))); // directed
        assert!(t.reflects(r(0)));
        assert!(!t.reflects(r(1)));
    }

    #[test]
    fn multi_reflector_cluster_sessions() {
        // One cluster with two reflectors and one client: client peers with
        // both reflectors; reflectors peer with each other.
        let t = IbgpTopology::new(3, vec![(vec![r(0), r(1)], vec![r(2)])], vec![]).unwrap();
        assert!(t.is_session(r(0), r(1)));
        assert!(t.is_session(r(2), r(0)));
        assert!(t.is_session(r(2), r(1)));
    }
}
