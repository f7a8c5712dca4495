//! Message-level reflection mechanics: ORIGINATOR_ID, CLUSTER_LIST,
//! SSLD, and the reflect-to-whom matrix (RFC 4456).
//!
//! The paper's `Transfer_{v→u}` relation ([`crate::transfer`]) is a
//! *global* predicate on `(v, u, exitPoint(p))`: it decides
//! admissibility from the cluster partition alone and idealizes away the
//! per-message loop-prevention state real reflectors carry. This module
//! supplies that state:
//!
//! * **ORIGINATOR_ID** — on the exit-path abstraction the originator of
//!   `p` *is* `exitPoint(p)` (the router that learned `p` over E-BGP),
//!   so the attribute needs no storage; it is derivable everywhere.
//! * **SSLD** (sender-side loop detection) — never send a route back to
//!   its originator: `exitPoint(p) ≠ u`.
//! * **CLUSTER_LIST** — each reflector prepends its cluster id when it
//!   reflects a learned route; a receiver drops any route whose wire
//!   cluster list already contains its own cluster id. Per cbgp's
//!   default, a router's cluster id is its router id, so the list is a
//!   `Vec<RouterId>`.
//! * **The reflect-to-whom matrix** — a route learned from a *client*
//!   (or over E-BGP) is reflected to everyone; a route learned from a
//!   *non-client* goes to clients only. Unlike `Transfer`, the matrix
//!   keys on *whom the copy was learned from*, not on where it exits,
//!   which is exactly what makes the two relations diverge on
//!   multi-reflector clusters and non-tree session graphs.
//!
//! [`may_offer`] states the matrix (with SSLD) once, over a route's
//! [`Provenance`]; [`reflect_allowed`] is the send-side gate that
//! applies it to a two-level session graph, [`stamp_cluster_list`] the
//! send-side stamping, and [`cluster_loop`] the receive-side drop test.
//! `ibgp-sim`'s loop-prevention engines wire them together; without loop
//! prevention they run the paper's `Transfer` relation unchanged. The
//! hierarchy engine of `ibgp-hierarchy` applies [`may_offer`] to its
//! `Up`/`Down`/`Peer` sessions.

use ibgp_topology::Topology;
use ibgp_types::RouterId;

/// The per-route reflection attributes a router stores alongside a
/// learned exit path.
///
/// `from` is the I-BGP peer the stored copy was learned from (`None`
/// when the route is the router's own E-BGP route); `cluster_list` is
/// the CLUSTER_LIST as received on the wire. ORIGINATOR_ID is not
/// stored: it is always `exitPoint(p)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RrAttrs {
    /// The announcing I-BGP peer (`None` = learned over E-BGP).
    pub from: Option<RouterId>,
    /// CLUSTER_LIST as received (nearest reflector first).
    pub cluster_list: Vec<RouterId>,
}

impl RrAttrs {
    /// Attributes of a router's own E-BGP route: no announcing peer, an
    /// empty cluster list.
    pub fn own() -> RrAttrs {
        RrAttrs::default()
    }

    /// Attributes as learned from I-BGP peer `from` with wire cluster
    /// list `cluster_list`.
    pub fn learned(from: RouterId, cluster_list: Vec<RouterId>) -> RrAttrs {
        RrAttrs {
            from: Some(from),
            cluster_list,
        }
    }
}

/// How a router came to hold a route: the one fact the reflect-to-whom
/// matrix reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Provenance {
    /// The router's own E-BGP route.
    Own,
    /// Learned from one of the router's clients.
    FromClient,
    /// Learned from a reflector or an ordinary peer.
    FromNonClient,
}

/// The reflect-to-whom matrix with SSLD: may a router offer a route it
/// holds with `provenance` to a peer that is its client (`to_client`)
/// or is the route's exit point (`to_exit_point`)?
///
/// * an own or client-learned route goes to everyone;
/// * a non-client-learned route goes to clients only;
/// * nothing goes back to the route's exit point (its originator).
pub fn may_offer(provenance: Provenance, to_client: bool, to_exit_point: bool) -> bool {
    if to_exit_point {
        return false;
    }
    match provenance {
        Provenance::Own | Provenance::FromClient => true,
        Provenance::FromNonClient => to_client,
    }
}

/// Whether `v` may send exit path `p` to `u` under message-level
/// reflection, given `exitPoint(p)` and the peer `v` learned its copy
/// from (`None` = `v`'s own E-BGP route).
///
/// `vu` must be an I-BGP session (and `v ≠ u`); then [`may_offer`]
/// decides, with `v`'s provenance of its copy:
/// * `exitPoint(p) = v` → [`Provenance::Own`];
/// * learned from one of `v`'s clients → [`Provenance::FromClient`];
/// * otherwise → [`Provenance::FromNonClient`].
///
/// A router with no clients holds no client-learned route and has no
/// client to send a non-client route to, so it re-advertises nothing it
/// learned: the classic I-BGP no-re-advertise rule.
pub fn reflect_allowed(
    topo: &Topology,
    v: RouterId,
    u: RouterId,
    exit_point: RouterId,
    learned_from: Option<RouterId>,
) -> bool {
    if v == u || !topo.ibgp().is_session(v, u) {
        return false;
    }
    let ibgp = topo.ibgp();
    let provenance = match learned_from {
        _ if exit_point == v => Provenance::Own,
        Some(w) if ibgp.client_edge(v, w) => Provenance::FromClient,
        _ => Provenance::FromNonClient,
    };
    may_offer(provenance, ibgp.client_edge(v, u), exit_point == u)
}

/// The CLUSTER_LIST `v` puts on the wire when sending a route whose
/// stored copy carries `stored` and exits at `exit_point`.
///
/// `v`'s own E-BGP routes carry an empty list; when reflecting a learned
/// route, `v` prepends its own cluster id (= its router id).
pub fn stamp_cluster_list(v: RouterId, exit_point: RouterId, stored: &[RouterId]) -> Vec<RouterId> {
    if exit_point == v {
        return Vec::new();
    }
    let mut wire = Vec::with_capacity(stored.len() + 1);
    wire.push(v);
    wire.extend_from_slice(stored);
    wire
}

/// Receive-side cluster-loop detection at `u`: drop the route if `u`'s
/// cluster id (= its router id) already appears in the wire CLUSTER_LIST.
pub fn cluster_loop(u: RouterId, wire: &[RouterId]) -> bool {
    wire.contains(&u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_topology::TopologyBuilder;

    fn r(i: u32) -> RouterId {
        RouterId::new(i)
    }

    /// Two clusters: {RR0; clients 1,2} and {RR3; client 4}.
    fn topo() -> Topology {
        TopologyBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .link(3, 4, 1)
            .cluster([0], [1, 2])
            .cluster([3], [4])
            .build()
            .unwrap()
    }

    #[test]
    fn own_ebgp_route_goes_to_everyone() {
        let t = topo();
        assert!(reflect_allowed(&t, r(0), r(1), r(0), None));
        assert!(reflect_allowed(&t, r(0), r(3), r(0), None));
        assert!(reflect_allowed(&t, r(1), r(0), r(1), None));
    }

    #[test]
    fn ssld_blocks_the_originator() {
        let t = topo();
        // RR0 must not send client 1's route back to client 1, no matter
        // where it was learned from.
        assert!(!reflect_allowed(&t, r(0), r(1), r(1), Some(r(1))));
        assert!(!reflect_allowed(&t, r(0), r(1), r(1), Some(r(3))));
    }

    #[test]
    fn client_route_is_reflected_everywhere() {
        let t = topo();
        // RR0 learned client 1's route from client 1: to RR3 and client 2.
        assert!(reflect_allowed(&t, r(0), r(3), r(1), Some(r(1))));
        assert!(reflect_allowed(&t, r(0), r(2), r(1), Some(r(1))));
    }

    #[test]
    fn non_client_route_goes_to_clients_only() {
        let t = topo();
        // RR0 learned RR3's route from RR3: clients yes, peers no.
        assert!(reflect_allowed(&t, r(0), r(1), r(3), Some(r(3))));
        assert!(!reflect_allowed(&t, r(0), r(3), r(3), Some(r(3))));
    }

    #[test]
    fn the_from_peer_decides_not_the_exit_point() {
        let t = topo();
        // Same exit point (client 1), but the copy was learned from RR3:
        // a non-client route, so clients only. Transfer_{v→u} would have
        // said yes here (case 2 keys on the exit point).
        assert!(!reflect_allowed(&t, r(0), r(3), r(1), Some(r(3))));
        assert!(reflect_allowed(&t, r(0), r(2), r(1), Some(r(3))));
    }

    #[test]
    fn clients_never_forward_learned_routes() {
        let t = topo();
        assert!(!reflect_allowed(&t, r(1), r(0), r(0), Some(r(0))));
        assert!(!reflect_allowed(&t, r(1), r(0), r(4), Some(r(0))));
    }

    #[test]
    fn no_session_no_send() {
        let t = topo();
        assert!(!reflect_allowed(&t, r(1), r(4), r(1), None));
        assert!(!reflect_allowed(&t, r(0), r(0), r(0), None));
    }

    #[test]
    fn full_mesh_sends_only_own_routes() {
        let t = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        assert!(reflect_allowed(&t, r(0), r(1), r(0), None));
        assert!(!reflect_allowed(&t, r(0), r(1), r(2), Some(r(2))));
    }

    #[test]
    fn stamping_prepends_the_reflector() {
        assert_eq!(stamp_cluster_list(r(0), r(0), &[]), Vec::<RouterId>::new());
        assert_eq!(stamp_cluster_list(r(0), r(1), &[]), vec![r(0)]);
        assert_eq!(stamp_cluster_list(r(3), r(1), &[r(0)]), vec![r(3), r(0)],);
    }

    #[test]
    fn cluster_loop_detects_own_id() {
        assert!(cluster_loop(r(0), &[r(3), r(0)]));
        assert!(!cluster_loop(r(1), &[r(3), r(0)]));
        assert!(!cluster_loop(r(1), &[]));
    }
}
