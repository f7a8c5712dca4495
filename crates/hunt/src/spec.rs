//! The plain-data scenario specification behind the `.ibgp` format.
//!
//! A [`ScenarioSpec`] is the *serializable* description of one experiment:
//! routers, physical links with IGP costs, one of three session-graph
//! kinds (route reflection, confederation, reflection hierarchy), the
//! protocol to classify under, and the injected exit paths. It is plain
//! old data — `Eq`, order-preserving, no interning — so the printer and
//! parser in [`crate::format`] can guarantee an exact round trip, and the
//! minimizer in [`crate::minimize`] can edit it structurally.
//!
//! [`ScenarioSpec::build`] validates and lowers a spec into the runnable
//! engine inputs ([`Built`]); every structural error of the underlying
//! topology crates surfaces as a [`SpecError`].

use ibgp_confed::{ConfedMode, ConfedTopology, SubAsId};
use ibgp_hierarchy::{ClusterSpec, HierMode, HierTopology, Member};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_proto::{ProtocolVariant, SelectionPolicy};
use ibgp_topology::{PhysicalGraph, Topology, TopologyBuilder, TopologyError};
use ibgp_types::{AsId, ExitPath, ExitPathId, ExitPathRef, IgpCost, LocalPref, Med, RouterId};
use std::fmt;
use std::sync::Arc;

/// One injected E-BGP exit path, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExitSpec {
    /// Exit-path identity (unique within the spec).
    pub id: u32,
    /// The exit-point router.
    pub at: u32,
    /// The neighboring AS the route was learned from (`nextAS`).
    pub next_as: u32,
    /// AS-path length (synthetic path through `next_as`).
    pub len: u32,
    /// MED value.
    pub med: u32,
    /// LOCAL-PREF (100 is the conventional default).
    pub pref: u32,
    /// Exit cost (cost of the exit-point → next-hop link).
    pub cost: u64,
}

impl ExitSpec {
    /// An exit with conventional defaults: path length 1, MED 0,
    /// LOCAL-PREF 100, exit cost 0.
    pub fn new(id: u32, at: u32, next_as: u32) -> Self {
        Self {
            id,
            at,
            next_as,
            len: 1,
            med: 0,
            pref: 100,
            cost: 0,
        }
    }

    /// Same exit with the given MED.
    pub fn med(mut self, med: u32) -> Self {
        self.med = med;
        self
    }

    fn to_exit_path(self) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(self.id))
                .via_with_length(AsId::new(self.next_as), self.len.max(1) as usize)
                .med(Med::new(self.med))
                .local_pref(LocalPref::new(self.pref))
                .exit_point(RouterId::new(self.at))
                .exit_cost(IgpCost::new(self.cost))
                .build_unchecked(),
        )
    }
}

/// Route-reflection session structure (the paper's §4 model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReflectionSpec {
    /// Fully meshed I-BGP (ignores `clusters`).
    pub full_mesh: bool,
    /// `(reflectors, clients)` per cluster, in declaration order.
    pub clusters: Vec<(Vec<u32>, Vec<u32>)>,
    /// Extra intra-cluster client–client sessions.
    pub client_sessions: Vec<(u32, u32)>,
    /// The protocol variant to classify under.
    pub variant: ProtocolVariant,
    /// Classify with the message-level reflection mechanics
    /// (ORIGINATOR_ID / CLUSTER_LIST stamping, cluster-loop drop, SSLD,
    /// and the reflect-to-whom matrix) instead of the paper's `Transfer`
    /// predicate. Serialized as a `loop-prevention` directive.
    pub loop_prevention: bool,
}

/// Confederation session structure (member sub-ASes + confed-E-BGP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfedSpec {
    /// Router members of each sub-AS, indexed by sub-AS id.
    pub sub_as: Vec<Vec<u32>>,
    /// Inter-sub-AS confed-E-BGP sessions.
    pub confed_links: Vec<(u32, u32)>,
    /// Advertisement mode.
    pub mode: ConfedMode,
}

/// Nested reflection hierarchy (cluster tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierSpec {
    /// The top-level cluster forest.
    pub top: Vec<ClusterSpec>,
    /// Advertisement mode.
    pub mode: HierMode,
}

/// The session-graph kind of a scenario. The kind picks the engine; every
/// kind is explored by the same search, under the same budgets and worker
/// count, and reports the same metrics. Only reflection specs get the
/// live-cycle probe, symmetry and partial-order reduction, the SAT
/// backend, and loop prevention; the other kinds decline them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecKind {
    /// Flat route reflection (or full mesh).
    Reflection(ReflectionSpec),
    /// Confederation of sub-ASes.
    Confed(ConfedSpec),
    /// Nested reflection hierarchy.
    Hierarchy(HierSpec),
}

impl SpecKind {
    /// The kind keyword used by the on-disk format.
    pub fn keyword(&self) -> &'static str {
        match self {
            SpecKind::Reflection(_) => "reflection",
            SpecKind::Confed(_) => "confed",
            SpecKind::Hierarchy(_) => "hierarchy",
        }
    }
}

/// A complete, serializable scenario description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Free-form identifier (no whitespace), e.g. `fig1a` or
    /// `hunt-confed-s42`.
    pub name: String,
    /// Number of routers (`0..n`).
    pub routers: usize,
    /// Undirected physical links `(u, v, igp_cost)`, in declaration order.
    pub links: Vec<(u32, u32, u64)>,
    /// The session structure and protocol.
    pub kind: SpecKind,
    /// The injected exit paths, in declaration order.
    pub exits: Vec<ExitSpec>,
}

/// A spec lowered into runnable engine inputs.
#[derive(Debug, Clone)]
pub enum Built {
    /// Flat route reflection: classified through the unified
    /// `ibgp_analysis::explore`/`classify` path.
    Reflection {
        /// The validated topology.
        topology: Topology,
        /// Variant + the paper's selection policy.
        config: ProtocolConfig,
        /// The exit paths.
        exits: Vec<ExitPathRef>,
    },
    /// Confederation: explored through `ibgp_confed::explore_confed`.
    Confed {
        /// The validated confederation.
        topology: ConfedTopology,
        /// Advertisement mode.
        mode: ConfedMode,
        /// The exit paths.
        exits: Vec<ExitPathRef>,
    },
    /// Hierarchy: explored through `ibgp_hierarchy::explore_hier`.
    Hierarchy {
        /// The validated cluster tree.
        topology: HierTopology,
        /// Advertisement mode.
        mode: HierMode,
        /// The exit paths.
        exits: Vec<ExitPathRef>,
    },
}

/// Errors validating or lowering a [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The underlying topology failed validation.
    Topology(TopologyError),
    /// An exit path's exit point is not a router of the topology.
    ExitOutOfRange {
        /// The offending exit id.
        id: u32,
        /// Its out-of-range exit point.
        at: u32,
    },
    /// Two exit paths share an id.
    DuplicateExitId(u32),
    /// The spec has no routers.
    NoRouters,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Topology(e) => write!(f, "topology error: {e}"),
            SpecError::ExitOutOfRange { id, at } => {
                write!(f, "exit p{id} has out-of-range exit point r{at}")
            }
            SpecError::DuplicateExitId(id) => write!(f, "duplicate exit id p{id}"),
            SpecError::NoRouters => write!(f, "scenario has no routers"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> Self {
        SpecError::Topology(e)
    }
}

impl ScenarioSpec {
    /// Validate this spec and lower it into runnable engine inputs.
    pub fn build(&self) -> Result<Built, SpecError> {
        if self.routers == 0 {
            return Err(SpecError::NoRouters);
        }
        let mut seen = std::collections::HashSet::new();
        for e in &self.exits {
            if e.at as usize >= self.routers {
                return Err(SpecError::ExitOutOfRange { id: e.id, at: e.at });
            }
            if !seen.insert(e.id) {
                return Err(SpecError::DuplicateExitId(e.id));
            }
        }
        let exits: Vec<ExitPathRef> = self.exits.iter().map(|e| e.to_exit_path()).collect();
        match &self.kind {
            SpecKind::Reflection(r) => {
                let mut b = TopologyBuilder::new(self.routers);
                for &(u, v, c) in &self.links {
                    b = b.link(u, v, c);
                }
                if r.full_mesh {
                    b = b.full_mesh();
                } else {
                    for (rs, cs) in &r.clusters {
                        b = b.cluster(rs.iter().copied(), cs.iter().copied());
                    }
                }
                for &(u, v) in &r.client_sessions {
                    b = b.client_session(u, v);
                }
                Ok(Built::Reflection {
                    topology: b.build()?,
                    config: ProtocolConfig {
                        variant: r.variant,
                        policy: SelectionPolicy::PAPER,
                    },
                    exits,
                })
            }
            SpecKind::Confed(c) => {
                let physical = self.physical()?;
                let mut member = vec![None; self.routers];
                for (sid, routers) in c.sub_as.iter().enumerate() {
                    for &u in routers {
                        if u as usize >= self.routers {
                            return Err(TopologyError::NodeOutOfRange {
                                node: RouterId::new(u),
                                len: self.routers,
                            }
                            .into());
                        }
                        if member[u as usize].is_some() {
                            return Err(
                                TopologyError::NodeInMultipleClusters(RouterId::new(u)).into()
                            );
                        }
                        member[u as usize] = Some(SubAsId(sid as u32));
                    }
                }
                let mut resolved = Vec::with_capacity(self.routers);
                for (i, m) in member.into_iter().enumerate() {
                    match m {
                        Some(s) => resolved.push(s),
                        None => {
                            return Err(
                                TopologyError::NodeUnclustered(RouterId::new(i as u32)).into()
                            )
                        }
                    }
                }
                let confed_links = c
                    .confed_links
                    .iter()
                    .map(|&(u, v)| (RouterId::new(u), RouterId::new(v)))
                    .collect();
                Ok(Built::Confed {
                    topology: ConfedTopology::new(physical, resolved, confed_links)?,
                    mode: c.mode,
                    exits,
                })
            }
            SpecKind::Hierarchy(h) => {
                let physical = self.physical()?;
                Ok(Built::Hierarchy {
                    topology: HierTopology::new(physical, h.top.clone())?,
                    mode: h.mode,
                    exits,
                })
            }
        }
    }

    fn physical(&self) -> Result<PhysicalGraph, SpecError> {
        let mut g = PhysicalGraph::new(self.routers);
        for &(u, v, c) in &self.links {
            g.add_link(RouterId::new(u), RouterId::new(v), IgpCost::new(c))?;
        }
        Ok(g)
    }

    /// The protocol label shown for this spec
    /// (`standard|walton|modified` for reflection, with a
    /// `+loop-prevention` suffix when the reflection mechanics are on;
    /// `single-best|set-advertisement` for confed and hierarchy). The
    /// on-disk format stores the bare variant plus a separate
    /// `loop-prevention` directive.
    pub fn protocol_label(&self) -> String {
        match &self.kind {
            SpecKind::Reflection(r) if r.loop_prevention => {
                format!("{}+loop-prevention", r.variant)
            }
            SpecKind::Reflection(r) => r.variant.to_string(),
            SpecKind::Confed(c) => c.mode.to_string(),
            SpecKind::Hierarchy(h) => h.mode.to_string(),
        }
    }

    /// Convert a catalog [`ibgp_scenarios::Scenario`] (a paper figure or
    /// a random reflection configuration) into a spec. The conversion is
    /// faithful for every scenario the catalog produces: synthetic
    /// AS paths, per-exit MED/LOCAL-PREF/exit-cost, cluster roles, extra
    /// client sessions, and full-mesh I-BGP all survive.
    pub fn from_scenario(s: &ibgp_scenarios::Scenario, variant: ProtocolVariant) -> ScenarioSpec {
        let topo = &s.topology;
        let ibgp = topo.ibgp();
        let links = topo
            .physical()
            .links()
            .map(|(u, v, c)| (u.raw(), v.raw(), c.raw()))
            .collect();
        // Full mesh iff every router is a reflector in a singleton cluster.
        let full_mesh = ibgp.clusters().len() == topo.len()
            && ibgp
                .clusters()
                .iter()
                .all(|c| c.reflectors().len() == 1 && c.clients().is_empty());
        let clusters = if full_mesh {
            Vec::new()
        } else {
            ibgp.clusters()
                .iter()
                .map(|c| {
                    (
                        c.reflectors().iter().map(|r| r.raw()).collect(),
                        c.clients().iter().map(|r| r.raw()).collect(),
                    )
                })
                .collect()
        };
        let client_sessions = ibgp
            .client_sessions()
            .iter()
            .map(|&(u, v)| (u.raw(), v.raw()))
            .collect();
        let exits = s
            .exits
            .iter()
            .map(|p| ExitSpec {
                id: p.id().raw(),
                at: p.exit_point().raw(),
                next_as: p.next_as().raw(),
                len: p.as_path_length() as u32,
                med: p.med().raw(),
                pref: p.local_pref().raw(),
                cost: p.exit_cost().raw(),
            })
            .collect();
        ScenarioSpec {
            name: s.name.to_string(),
            routers: topo.len(),
            links,
            kind: SpecKind::Reflection(ReflectionSpec {
                full_mesh,
                clusters,
                client_sessions,
                variant,
                loop_prevention: false,
            }),
            exits,
        }
    }
}

/// Count the routers mentioned by a hierarchy cluster tree (for editors
/// that need to walk it).
pub fn hier_members(spec: &ClusterSpec, out: &mut Vec<u32>) {
    out.extend(spec.reflectors.iter().copied());
    for m in &spec.members {
        match m {
            Member::Router(r) => out.push(*r),
            Member::Cluster(c) => hier_members(c, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disagree_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "disagree".into(),
            routers: 4,
            links: vec![(0, 2, 10), (0, 3, 1), (1, 3, 10), (1, 2, 1)],
            kind: SpecKind::Reflection(ReflectionSpec {
                full_mesh: false,
                clusters: vec![(vec![0], vec![2]), (vec![1], vec![3])],
                client_sessions: vec![],
                variant: ProtocolVariant::Standard,
                loop_prevention: false,
            }),
            exits: vec![ExitSpec::new(1, 2, 1), ExitSpec::new(2, 3, 1)],
        }
    }

    #[test]
    fn reflection_spec_builds() {
        let built = disagree_spec().build().unwrap();
        match built {
            Built::Reflection {
                topology, exits, ..
            } => {
                assert_eq!(topology.len(), 4);
                assert_eq!(exits.len(), 2);
                assert!(topology.ibgp().is_reflector(RouterId::new(0)));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn confed_spec_builds() {
        let spec = ScenarioSpec {
            name: "c".into(),
            routers: 4,
            links: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            kind: SpecKind::Confed(ConfedSpec {
                sub_as: vec![vec![0, 1], vec![2, 3]],
                confed_links: vec![(1, 2)],
                mode: ConfedMode::SingleBest,
            }),
            exits: vec![ExitSpec::new(1, 0, 1)],
        };
        match spec.build().unwrap() {
            Built::Confed { topology, .. } => {
                assert_eq!(topology.len(), 4);
                assert!(topology.is_confed_link(RouterId::new(1), RouterId::new(2)));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn hierarchy_spec_builds() {
        let spec = ScenarioSpec {
            name: "h".into(),
            routers: 4,
            links: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            kind: SpecKind::Hierarchy(HierSpec {
                top: vec![ClusterSpec {
                    reflectors: vec![0],
                    members: vec![
                        Member::Cluster(ClusterSpec::flat(1, [2])),
                        Member::Router(3),
                    ],
                }],
                mode: HierMode::SingleBest,
            }),
            exits: vec![ExitSpec::new(1, 2, 1)],
        };
        match spec.build().unwrap() {
            Built::Hierarchy { topology, .. } => assert_eq!(topology.depth(), 2),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn validation_errors_surface() {
        let mut s = disagree_spec();
        s.exits[1].at = 99;
        assert_eq!(
            s.build().unwrap_err(),
            SpecError::ExitOutOfRange { id: 2, at: 99 }
        );
        let mut s = disagree_spec();
        s.exits[1].id = 1;
        assert_eq!(s.build().unwrap_err(), SpecError::DuplicateExitId(1));
        let mut s = disagree_spec();
        s.links.clear();
        assert_eq!(
            s.build().unwrap_err(),
            SpecError::Topology(TopologyError::Disconnected)
        );
    }

    #[test]
    fn from_scenario_round_trips_fig1a_behaviour() {
        let fig = ibgp_scenarios::fig1a::scenario();
        let spec = ScenarioSpec::from_scenario(&fig, ProtocolVariant::Standard);
        assert_eq!(spec.routers, fig.topology.len());
        assert_eq!(spec.exits.len(), fig.exits.len());
        match spec.build().unwrap() {
            Built::Reflection {
                topology, exits, ..
            } => {
                // The rebuilt topology has the identical session graph and
                // IGP metric, and the rebuilt exits are attribute-identical.
                for u in fig.topology.routers() {
                    for v in fig.topology.routers() {
                        assert_eq!(
                            topology.ibgp().is_session(u, v),
                            fig.topology.ibgp().is_session(u, v)
                        );
                        assert_eq!(topology.igp_cost(u, v), fig.topology.igp_cost(u, v));
                    }
                }
                for (a, b) in exits.iter().zip(fig.exits.iter()) {
                    assert_eq!(a.id(), b.id());
                    assert_eq!(a.exit_point(), b.exit_point());
                    assert_eq!(a.next_as(), b.next_as());
                    assert_eq!(a.med(), b.med());
                    assert_eq!(a.local_pref(), b.local_pref());
                    assert_eq!(a.as_path_length(), b.as_path_length());
                    assert_eq!(a.exit_cost(), b.exit_cost());
                }
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn from_scenario_detects_full_mesh() {
        let fig = ibgp_scenarios::fig1b::scenario();
        let spec = ScenarioSpec::from_scenario(&fig, ProtocolVariant::Standard);
        match &spec.kind {
            SpecKind::Reflection(r) => assert!(r.full_mesh),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
