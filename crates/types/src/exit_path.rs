//! Exit paths — the paper's representation of injected E-BGP routes (§4).
//!
//! An exit path `p` stands for a BGP route `b_p` to destination `d` that
//! some border router of `AS0` (`exitPoint(p)`) learned over E-BGP. It
//! carries exactly the attributes the route selection procedure consults:
//! `localPref(p)`, `AS-Path(p)` (hence `AS-path-length(p)` and `nextAS(p)`),
//! `MED(p)`, `nextHop(p)`, and `exitCost(p)`.

use crate::as_path::AsPath;
use crate::attrs::{IgpCost, LocalPref, Med};
use crate::error::TypeError;
use crate::ids::{AsId, ExitPathId, RouterId};
use crate::next_hop::NextHop;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An E-BGP route injected into `AS0`, keyed by [`ExitPathId`].
///
/// Exit paths are compared **by identity** in the simulators (two distinct
/// announcements with identical attributes remain distinct routes); the
/// attribute accessors feed the selection procedures. Exit paths are
/// immutable once built — cheaply shareable via [`Arc`] in the engines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExitPath {
    id: ExitPathId,
    local_pref: LocalPref,
    as_path: AsPath,
    med: Med,
    next_hop: NextHop,
    exit_point: RouterId,
    exit_cost: IgpCost,
}

impl ExitPath {
    /// Start building an exit path with the given identity.
    pub fn builder(id: ExitPathId) -> ExitPathBuilder {
        ExitPathBuilder::new(id)
    }

    /// The unique identity of this announcement.
    pub fn id(&self) -> ExitPathId {
        self.id
    }

    /// `localPref(p)` — the degree of preference assigned on injection.
    pub fn local_pref(&self) -> LocalPref {
        self.local_pref
    }

    /// `AS-Path(p)`.
    pub fn as_path(&self) -> &AsPath {
        &self.as_path
    }

    /// `AS-path-length(p)`.
    pub fn as_path_length(&self) -> usize {
        self.as_path.len()
    }

    /// `nextAS(p)` — the neighboring AS this route was learned from. MED
    /// values are only comparable between exit paths with equal `nextAS`.
    pub fn next_as(&self) -> AsId {
        self.as_path.next_as()
    }

    /// `MED(p)`.
    pub fn med(&self) -> Med {
        self.med
    }

    /// `nextHop(p)` — the external peer address.
    pub fn next_hop(&self) -> NextHop {
        self.next_hop
    }

    /// `exitPoint(p)` — the router in `AS0` that learned this route via
    /// E-BGP. Uniquely determined by the NEXT-HOP (paper footnote 6).
    pub fn exit_point(&self) -> RouterId {
        self.exit_point
    }

    /// `exitCost(p)` — cost of the link from the exit point to the next hop
    /// (usually 0 in practice).
    pub fn exit_cost(&self) -> IgpCost {
        self.exit_cost
    }
}

impl fmt::Display for ExitPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} via {} ({}, {}, len{})",
            self.id,
            self.exit_point,
            self.next_as(),
            self.local_pref,
            self.med,
            self.as_path_length()
        )
    }
}

/// Builder for [`ExitPath`]. `id`, `exit_point`, and `next_as` (via
/// [`ExitPathBuilder::as_path`] or [`ExitPathBuilder::via`]) are required;
/// everything else has the conventional default (LOCAL-PREF 100, MED 0,
/// exit cost 0, synthetic next hop derived from the id).
#[derive(Debug, Clone)]
pub struct ExitPathBuilder {
    id: ExitPathId,
    local_pref: LocalPref,
    as_path: Option<AsPath>,
    med: Med,
    next_hop: Option<NextHop>,
    exit_point: Option<RouterId>,
    exit_cost: IgpCost,
}

impl ExitPathBuilder {
    fn new(id: ExitPathId) -> Self {
        Self {
            id,
            local_pref: LocalPref::DEFAULT,
            as_path: None,
            med: Med::ZERO,
            next_hop: None,
            exit_point: None,
            exit_cost: IgpCost::ZERO,
        }
    }

    /// Set `localPref(p)`.
    pub fn local_pref(mut self, lp: LocalPref) -> Self {
        self.local_pref = lp;
        self
    }

    /// Set the full AS-PATH.
    pub fn as_path(mut self, path: AsPath) -> Self {
        self.as_path = Some(path);
        self
    }

    /// Set a synthetic AS-PATH of length 1 through the given neighboring AS.
    /// Shorthand for the common case where only `nextAS` matters.
    pub fn via(mut self, next_as: AsId) -> Self {
        self.as_path = Some(AsPath::synthetic(next_as, 1));
        self
    }

    /// Set a synthetic AS-PATH of the given length through `next_as`.
    pub fn via_with_length(mut self, next_as: AsId, len: usize) -> Self {
        self.as_path = Some(AsPath::synthetic(next_as, len));
        self
    }

    /// Set `MED(p)`.
    pub fn med(mut self, med: Med) -> Self {
        self.med = med;
        self
    }

    /// Set `nextHop(p)` explicitly. When omitted, a synthetic next hop
    /// derived from the exit-path id is used (each announcement then has a
    /// distinct external peer, matching footnote 6's NEXT-HOP/exit-point
    /// correspondence).
    pub fn next_hop(mut self, nh: NextHop) -> Self {
        self.next_hop = Some(nh);
        self
    }

    /// Set `exitPoint(p)` — required.
    pub fn exit_point(mut self, node: RouterId) -> Self {
        self.exit_point = Some(node);
        self
    }

    /// Set `exitCost(p)`.
    pub fn exit_cost(mut self, cost: IgpCost) -> Self {
        self.exit_cost = cost;
        self
    }

    /// Finish, validating required fields.
    pub fn build(self) -> Result<ExitPath, TypeError> {
        let as_path = self
            .as_path
            .ok_or(TypeError::MissingField { field: "as_path" })?;
        let exit_point = self.exit_point.ok_or(TypeError::MissingField {
            field: "exit_point",
        })?;
        // The synthetic next hop wraps for ids near the top of the range
        // instead of overflowing.
        let next_hop = self
            .next_hop
            .unwrap_or_else(|| NextHop::synthetic(0x0A00_0000u32.wrapping_add(self.id.raw())));
        Ok(ExitPath {
            id: self.id,
            local_pref: self.local_pref,
            as_path,
            med: self.med,
            next_hop,
            exit_point,
            exit_cost: self.exit_cost,
        })
    }

    /// Finish, panicking on missing fields. For scenario construction code
    /// where the fields are statically known to be set.
    pub fn build_unchecked(self) -> ExitPath {
        self.build().expect("exit path builder misused")
    }
}

/// Shared, immutable handle to an exit path as passed around the engines.
pub type ExitPathRef = Arc<ExitPath>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExitPath {
        ExitPath::builder(ExitPathId::new(1))
            .via(AsId::new(10))
            .med(Med::new(5))
            .local_pref(LocalPref::new(200))
            .exit_point(RouterId::new(3))
            .exit_cost(IgpCost::new(1))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_attributes() {
        let p = sample();
        assert_eq!(p.id(), ExitPathId::new(1));
        assert_eq!(p.next_as(), AsId::new(10));
        assert_eq!(p.as_path_length(), 1);
        assert_eq!(p.med(), Med::new(5));
        assert_eq!(p.local_pref(), LocalPref::new(200));
        assert_eq!(p.exit_point(), RouterId::new(3));
        assert_eq!(p.exit_cost(), IgpCost::new(1));
    }

    #[test]
    fn missing_as_path_is_an_error() {
        let err = ExitPath::builder(ExitPathId::new(1))
            .exit_point(RouterId::new(0))
            .build()
            .unwrap_err();
        assert_eq!(err, TypeError::MissingField { field: "as_path" });
    }

    #[test]
    fn missing_exit_point_is_an_error() {
        let err = ExitPath::builder(ExitPathId::new(1))
            .via(AsId::new(1))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TypeError::MissingField {
                field: "exit_point"
            }
        );
    }

    #[test]
    fn default_next_hop_is_distinct_per_id() {
        let a = ExitPath::builder(ExitPathId::new(1))
            .via(AsId::new(1))
            .exit_point(RouterId::new(0))
            .build_unchecked();
        let b = ExitPath::builder(ExitPathId::new(2))
            .via(AsId::new(1))
            .exit_point(RouterId::new(0))
            .build_unchecked();
        assert_ne!(a.next_hop(), b.next_hop());
    }

    #[test]
    fn via_with_length_sets_as_path_length() {
        let p = ExitPath::builder(ExitPathId::new(1))
            .via_with_length(AsId::new(4), 3)
            .exit_point(RouterId::new(0))
            .build_unchecked();
        assert_eq!(p.as_path_length(), 3);
        assert_eq!(p.next_as(), AsId::new(4));
    }

    #[test]
    fn display_mentions_identity_and_exit() {
        let s = sample().to_string();
        assert!(s.contains("p1"), "{s}");
        assert!(s.contains("r3"), "{s}");
        assert!(s.contains("AS10"), "{s}");
    }

    #[test]
    fn serde_round_trip() {
        let p = sample();
        let json = serde_json::to_string(&p).unwrap();
        let back: ExitPath = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
