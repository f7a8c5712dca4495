//! Seeded random scenario generation for the hunting campaign.
//!
//! Each [`Family`] is a topology shape the paper implicates in
//! oscillation: full-mesh I-BGP (the §3 baseline that cannot persistently
//! oscillate but can disagree), flat reflection (§4), clusters with
//! redundant reflectors (fig 1a's shape), nested reflection hierarchies,
//! and confederations (§8). Draws are biased toward the known oscillation
//! ingredient — several exit paths from the *same* neighboring AS with
//! distinct MEDs, injected at topologically separated routers — so a
//! budget of a few hundred topologies reliably yields specimens.
//!
//! Generation is deterministic: `generate_spec(family, seed, index)`
//! derives a private RNG stream from `(seed, index, family)`, so a
//! campaign with a fixed seed and budget produces byte-identical specs
//! regardless of which other indices were generated around it.

use crate::spec::{ConfedSpec, ExitSpec, HierSpec, ReflectionSpec, ScenarioSpec, SpecKind};
use ibgp_confed::ConfedMode;
use ibgp_hierarchy::{ClusterSpec, HierMode, Member};
use ibgp_proto::ProtocolVariant;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A generated topology family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Fully meshed I-BGP.
    FullMesh,
    /// Flat route reflection, one reflector per cluster.
    Reflection,
    /// Flat route reflection with a redundantly reflected cluster.
    MultiReflector,
    /// Nested reflection hierarchy (depth 2).
    Hierarchy,
    /// Confederation of member sub-ASes.
    Confed,
}

/// Every family, in the order campaigns cycle through them.
pub const ALL_FAMILIES: [Family; 5] = [
    Family::Reflection,
    Family::MultiReflector,
    Family::Hierarchy,
    Family::Confed,
    Family::FullMesh,
];

impl Family {
    /// Stable keyword (CLI `--families` values and report labels).
    pub fn keyword(&self) -> &'static str {
        match self {
            Family::FullMesh => "mesh",
            Family::Reflection => "reflection",
            Family::MultiReflector => "multi-reflector",
            Family::Hierarchy => "hierarchy",
            Family::Confed => "confed",
        }
    }

    /// Parse a comma-separated family list (e.g. `reflection,confed`).
    pub fn parse_list(s: &str) -> Result<Vec<Family>, String> {
        s.split(',')
            .map(|t| t.trim())
            .filter(|t| !t.is_empty())
            .map(|t| {
                ALL_FAMILIES
                    .iter()
                    .copied()
                    .find(|f| f.keyword() == t)
                    .ok_or_else(|| {
                        format!(
                            "unknown family `{t}` (expected one of {})",
                            ALL_FAMILIES.map(|f| f.keyword()).join(", ")
                        )
                    })
            })
            .collect()
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

fn family_tag(f: Family) -> u64 {
    match f {
        Family::FullMesh => 1,
        Family::Reflection => 2,
        Family::MultiReflector => 3,
        Family::Hierarchy => 4,
        Family::Confed => 5,
    }
}

/// Random connected physical graph: spanning tree over a shuffled order
/// plus a few chords, costs in `1..=max_cost`.
fn connected_links(rng: &mut StdRng, n: usize, max_cost: u64) -> Vec<(u32, u32, u64)> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut links = Vec::new();
    let mut present: Vec<(u32, u32)> = Vec::new();
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        let child = order[i];
        links.push((parent, child, rng.gen_range(1..=max_cost)));
        present.push((parent.min(child), parent.max(child)));
    }
    let extra = rng.gen_range(0..=n / 2);
    for _ in 0..extra {
        if n < 2 {
            break;
        }
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        let key = (u.min(v), u.max(v));
        if u == v || present.contains(&key) {
            continue;
        }
        present.push(key);
        links.push((u, v, rng.gen_range(1..=max_cost)));
    }
    links
}

/// Exit paths biased toward the paper's oscillation gadget. `groups` are
/// topologically separated injection sites (cluster client lists, sub-AS
/// memberships, singletons for a mesh); the draw reproduces fig 1(a)'s
/// shape: one anchor group receives an exit from AS 1 *and* an exit from
/// AS 2 with a high MED, while a different group receives the AS 2 exit
/// with a low MED. MED is comparable only within an AS, which is exactly
/// what breaks total orderability across the groups. A fourth uniform
/// exit is mixed in occasionally.
fn gen_exits(rng: &mut StdRng, groups: &[Vec<u32>]) -> Vec<ExitSpec> {
    debug_assert!(groups.iter().all(|g| !g.is_empty()));
    let g0 = rng.gen_range(0..groups.len());
    let g1 = if groups.len() > 1 {
        let shift = rng.gen_range(1..groups.len());
        (g0 + shift) % groups.len()
    } else {
        g0
    };
    let pick = |rng: &mut StdRng, g: usize| groups[g][rng.gen_range(0..groups[g].len())];
    let med_low = rng.gen_range(0..=3u32);
    let med_high = med_low + 1 + rng.gen_range(0..=4u32);
    let a0 = pick(rng, g0);
    let a1 = pick(rng, g0);
    let b = pick(rng, g1);
    let mut exits = vec![
        ExitSpec::new(1, a0, 1).med(rng.gen_range(0..=5)),
        ExitSpec::new(2, a1, 2).med(med_high),
        ExitSpec::new(3, b, 2).med(med_low),
    ];
    if rng.gen_bool(0.25) {
        let g = rng.gen_range(0..groups.len());
        let at = pick(rng, g);
        let mut e = ExitSpec::new(4, at, rng.gen_range(1..=2u32)).med(rng.gen_range(0..=5));
        if rng.gen_bool(0.3) {
            e.len = 2;
        }
        if rng.gen_bool(0.3) {
            e.pref = if rng.gen_bool(0.5) { 90 } else { 110 };
        }
        exits.push(e);
    }
    exits
}

/// Generate the `index`-th spec of a seeded campaign for one family.
pub fn generate_spec(family: Family, seed: u64, index: u64) -> ScenarioSpec {
    let stream = seed
        ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ family_tag(family).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let mut rng = StdRng::seed_from_u64(stream);
    let name = format!("hunt-{}-s{seed}-i{index}", family.keyword());
    match family {
        Family::FullMesh => {
            let n = rng.gen_range(3..=6usize);
            let links = connected_links(&mut rng, n, 10);
            // In a mesh every router is its own injection site.
            let groups: Vec<Vec<u32>> = (0..n as u32).map(|r| vec![r]).collect();
            let exits = gen_exits(&mut rng, &groups);
            ScenarioSpec {
                name,
                routers: n,
                links,
                kind: SpecKind::Reflection(ReflectionSpec {
                    full_mesh: true,
                    clusters: vec![],
                    client_sessions: vec![],
                    variant: ProtocolVariant::Standard,
                    loop_prevention: false,
                }),
                exits,
            }
        }
        Family::Reflection | Family::MultiReflector => {
            let k = rng.gen_range(2..=3usize);
            // Cluster 0 gets two reflectors in the multi-reflector family
            // (fig 1a's redundancy), one otherwise.
            let reflectors_of = |c: usize| {
                if family == Family::MultiReflector && c == 0 {
                    2
                } else {
                    1
                }
            };
            // Budget clients so the total stays within 8 routers (the
            // exhaustive search is exponential in n); every cluster keeps
            // at least one client.
            let reflector_total: usize = (0..k).map(reflectors_of).sum();
            let mut remaining = 8 - reflector_total;
            let mut clients_of = Vec::with_capacity(k);
            for c in 0..k {
                let reserve = k - 1 - c;
                let pick = rng.gen_range(1..=2usize).min(remaining - reserve);
                clients_of.push(pick);
                remaining -= pick;
            }
            let n: usize = reflector_total + clients_of.iter().sum::<usize>();
            let mut next = 0u32;
            let mut clusters = Vec::with_capacity(k);
            let mut client_groups = Vec::with_capacity(k);
            for (c, &nc) in clients_of.iter().enumerate() {
                let rs: Vec<u32> = (0..reflectors_of(c))
                    .map(|_| {
                        let id = next;
                        next += 1;
                        id
                    })
                    .collect();
                let cs: Vec<u32> = (0..nc)
                    .map(|_| {
                        let id = next;
                        next += 1;
                        id
                    })
                    .collect();
                client_groups.push(cs.clone());
                clusters.push((rs, cs));
            }
            let links = connected_links(&mut rng, n, 10);
            // Occasional intra-cluster client-client session (constraint 4).
            let mut client_sessions = Vec::new();
            if rng.gen_bool(0.3) {
                if let Some((_, cs)) = clusters.iter().find(|(_, cs)| cs.len() >= 2) {
                    client_sessions.push((cs[0], cs[1]));
                }
            }
            // Each cluster's client set is one injection site: the MED
            // conflict must span clusters to hide behind the reflectors.
            let exits = gen_exits(&mut rng, &client_groups);
            ScenarioSpec {
                name,
                routers: n,
                links,
                kind: SpecKind::Reflection(ReflectionSpec {
                    full_mesh: false,
                    clusters,
                    client_sessions,
                    variant: ProtocolVariant::Standard,
                    loop_prevention: false,
                }),
                exits,
            }
        }
        Family::Hierarchy => {
            // Top cluster: reflector 0, two nested flat clusters, and
            // optionally one direct leaf client.
            let sub_clients: Vec<usize> = (0..2).map(|_| rng.gen_range(1..=2usize)).collect();
            let direct_leaf = rng.gen_bool(0.4);
            let n = 1 + 2 + sub_clients.iter().sum::<usize>() + usize::from(direct_leaf);
            let mut next = 1u32;
            let mut members = Vec::new();
            let mut client_groups = Vec::new();
            for &nc in &sub_clients {
                let reflector = next;
                next += 1;
                let cs: Vec<u32> = (0..nc)
                    .map(|_| {
                        let id = next;
                        next += 1;
                        id
                    })
                    .collect();
                client_groups.push(cs.clone());
                members.push(Member::Cluster(ClusterSpec::flat(reflector, cs)));
            }
            if direct_leaf {
                members.push(Member::Router(next));
                client_groups.push(vec![next]);
            }
            let links = connected_links(&mut rng, n, 10);
            let mode = if rng.gen_bool(0.5) {
                HierMode::SingleBest
            } else {
                HierMode::SetAdvertisement
            };
            // Sub-cluster client sets (and the direct leaf) are the
            // injection sites; the conflict must cross the hierarchy.
            let exits = gen_exits(&mut rng, &client_groups);
            ScenarioSpec {
                name,
                routers: n,
                links,
                kind: SpecKind::Hierarchy(HierSpec {
                    top: vec![ClusterSpec {
                        reflectors: vec![0],
                        members,
                    }],
                    mode,
                }),
                exits,
            }
        }
        Family::Confed => {
            let s = rng.gen_range(2..=3usize);
            let sizes: Vec<usize> = (0..s).map(|_| rng.gen_range(1..=2usize)).collect();
            let n: usize = sizes.iter().sum();
            let mut next = 0u32;
            let sub_as: Vec<Vec<u32>> = sizes
                .iter()
                .map(|&sz| {
                    (0..sz)
                        .map(|_| {
                            let id = next;
                            next += 1;
                            id
                        })
                        .collect()
                })
                .collect();
            // Chain adjacent sub-ASes through random border routers, plus
            // an occasional closing link for three-member confederations.
            let mut confed_links = Vec::new();
            for w in sub_as.windows(2) {
                let u = w[0][rng.gen_range(0..w[0].len())];
                let v = w[1][rng.gen_range(0..w[1].len())];
                confed_links.push((u, v));
            }
            if s == 3 && rng.gen_bool(0.4) {
                let first = &sub_as[0];
                let last = &sub_as[s - 1];
                confed_links.push((
                    first[rng.gen_range(0..first.len())],
                    last[rng.gen_range(0..last.len())],
                ));
            }
            let links = connected_links(&mut rng, n, 10);
            let mode = if rng.gen_bool(0.5) {
                ConfedMode::SingleBest
            } else {
                ConfedMode::SetAdvertisement
            };
            // Sub-AS memberships are the injection sites: the MED pair
            // must straddle a confederation boundary to matter.
            let exits = gen_exits(&mut rng, &sub_as);
            ScenarioSpec {
                name,
                routers: n,
                links,
                kind: SpecKind::Confed(ConfedSpec {
                    sub_as,
                    confed_links,
                    mode,
                }),
                exits,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_independent_of_neighbors() {
        for family in ALL_FAMILIES {
            let a = generate_spec(family, 42, 7);
            let b = generate_spec(family, 42, 7);
            assert_eq!(a, b, "{family}");
            let c = generate_spec(family, 42, 8);
            assert_ne!(a.name, c.name);
        }
    }

    #[test]
    fn generated_specs_build() {
        for family in ALL_FAMILIES {
            for index in 0..40u64 {
                let spec = generate_spec(family, 1, index);
                assert!(
                    spec.build().is_ok(),
                    "{family} index {index} failed to build:\n{spec:?}"
                );
                assert!(spec.routers <= 8, "{family} too large");
                assert!(spec.exits.len() >= 2);
            }
        }
    }

    #[test]
    fn exits_carry_the_cross_group_med_conflict() {
        for family in ALL_FAMILIES {
            for index in 0..10u64 {
                let spec = generate_spec(family, 3, index);
                // The gadget pair: two AS-2 exits with distinct MEDs, and
                // one AS-1 exit colocated with the high-MED one.
                assert_eq!(spec.exits[1].next_as, 2, "{family}");
                assert_eq!(spec.exits[2].next_as, 2, "{family}");
                assert_ne!(spec.exits[1].med, spec.exits[2].med, "{family}");
                assert_eq!(spec.exits[0].next_as, 1, "{family}");
            }
        }
    }

    #[test]
    fn family_list_parses() {
        assert_eq!(
            Family::parse_list("reflection, confed").unwrap(),
            vec![Family::Reflection, Family::Confed]
        );
        assert!(Family::parse_list("bogus").is_err());
    }
}
