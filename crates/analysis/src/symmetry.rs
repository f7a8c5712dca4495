//! The automorphism group a reachability search prunes its state space
//! with, and the tie-soundness guard that keeps the pruning exact.
//!
//! [`SymmetryGroup::compute`] asks `ibgp_topology::canon` for the router
//! permutations preserving everything the protocol dynamics observe of
//! the topology (SPF matrix, sessions, roles, clusters, plus a per-router
//! digest of injected exit attributes), then induces for each router
//! permutation `π` the matching exit-path bijection `σ`: an exit at
//! router `u` maps to the attribute-identical exit at `π(u)`, with
//! identical-attribute exits at one router matched in ascending-id order.
//! Candidates with no consistent `σ` are rejected, so every element of
//! the group acts on whole configurations: `(π, σ)` applied to a state
//! permutes the router blocks by `π` and renames every exit by `σ`.
//! [`FlatAction`] compiles the group to act directly on the search's
//! flat key words.
//!
//! **Soundness.** `config(0)` is invariant under every element, and one
//! activation step commutes with the group action — the selection rules
//! compare only quantities the verification preserves… except the two
//! *identifier-order* tie-breaks (smallest `learnedFrom` BGP id, smallest
//! exit id), which fire only when two distinct exits survive every
//! attribute rule. [`SymmetryGroup::compute`] therefore precomputes, per
//! router, the *dangerous pairs*: distinct exits tied on local-pref,
//! AS-path length, MED (under the active [`MedMode`]), E-BGP status at
//! the router, and IGP metric from the router. A reachable state in which
//! some router's `PossibleExits` contains a dangerous pair *might* put an
//! identifier-order rule in charge, so the search checks every generated
//! state with [`FlatAction::guard_trips`] and, on the first hit,
//! restarts without symmetry. Tie *occurrence* is itself defined by
//! preserved quantities, so checking orbit representatives covers every
//! orbit member; if no state trips the guard, no identifier-order rule
//! ever discriminated and the orbit-collapsed search is exact.

use ibgp_proto::variants::ProtocolConfig;
use ibgp_proto::MedMode;
use ibgp_sim::flat::StateCodec;
use ibgp_topology::{canon, Topology};
use ibgp_types::{ExitPathId, ExitPathRef, RouterId};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// One group element: a router permutation with its induced exit-path
/// bijection.
struct Element {
    /// Old router index → new router index.
    routers: Vec<u32>,
    /// Exit-id mapping, sorted by source id for binary search.
    exits: Vec<(ExitPathId, ExitPathId)>,
}

impl Element {
    fn map_exit(&self, p: ExitPathId) -> ExitPathId {
        match self.exits.binary_search_by_key(&p, |e| e.0) {
            Ok(i) => self.exits[i].1,
            Err(_) => p,
        }
    }

    fn apply_vector(&self, bv: &[Option<ExitPathId>]) -> Vec<Option<ExitPathId>> {
        let mut out = vec![None; bv.len()];
        for (u, b) in bv.iter().enumerate() {
            out[self.routers[u] as usize] = b.map(|p| self.map_exit(p));
        }
        out
    }
}

/// The automorphism group of one search instance, with its tie-soundness
/// guard. See the module docs for the exactness argument.
pub(crate) struct SymmetryGroup {
    /// Every element, identity included.
    elements: Vec<Element>,
    /// Per router: sorted exit-id pairs an identifier-order tie-break
    /// could be asked to separate.
    dangerous: Vec<Vec<(ExitPathId, ExitPathId)>>,
    has_danger: bool,
}

/// Digest of everything the attribute selection rules can read off an
/// exit path: local-pref, the full AS path, MED, exit cost. Identifiers —
/// the exit id, the exit point, and the next hop (whose BGP id enters the
/// dynamics only through the `learnedFrom` identifier-order tie-break) —
/// are deliberately excluded: they are relabeled by the group action, and
/// every rule that *orders* by them is covered by the dangerous-pair
/// guard.
fn attr_digest(p: &ExitPathRef) -> u64 {
    let mut h = DefaultHasher::new();
    p.local_pref().hash(&mut h);
    p.as_path().hash(&mut h);
    p.med().hash(&mut h);
    p.exit_cost().hash(&mut h);
    h.finish()
}

/// Full attribute equality backing the digests (collision safety).
fn attrs_equal(a: &ExitPathRef, b: &ExitPathRef) -> bool {
    a.local_pref() == b.local_pref()
        && a.as_path() == b.as_path()
        && a.med() == b.med()
        && a.exit_cost() == b.exit_cost()
}

/// Can the MED rule *fail* to separate `a` from `b` under this mode?
fn med_tied(mode: MedMode, a: &ExitPathRef, b: &ExitPathRef) -> bool {
    match mode {
        MedMode::Ignore => true,
        MedMode::AlwaysCompare => a.med() == b.med(),
        MedMode::PerNeighborAs => a.next_as() != b.next_as() || a.med() == b.med(),
    }
}

/// Is `(a, b)` a pair only an identifier-order rule could separate at
/// router `u`? Both rule orders interpose exactly the E-BGP preference
/// and the IGP metric between the attribute rules and the
/// identifier-order rules, so the condition is order-independent.
fn dangerous_at(
    topo: &Topology,
    config: &ProtocolConfig,
    u: RouterId,
    a: &ExitPathRef,
    b: &ExitPathRef,
) -> bool {
    let metric = |p: &ExitPathRef| {
        topo.igp_cost(u, p.exit_point())
            .saturating_add(p.exit_cost())
    };
    a.local_pref() == b.local_pref()
        && a.as_path_length() == b.as_path_length()
        && med_tied(config.policy.med_mode, a, b)
        && (a.exit_point() == u) == (b.exit_point() == u)
        && metric(a) == metric(b)
}

impl SymmetryGroup {
    /// Compute the group for one `(topology, protocol, exits)` instance.
    pub(crate) fn compute(topo: &Topology, config: ProtocolConfig, exits: &[ExitPathRef]) -> Self {
        let n = topo.len();

        // Router colors: the sorted multiset of exit-attribute digests
        // injected at the router.
        let colors: Vec<u64> = (0..n)
            .map(|u| {
                let mut attrs: Vec<u64> = exits
                    .iter()
                    .filter(|p| p.exit_point().index() == u)
                    .map(attr_digest)
                    .collect();
                attrs.sort_unstable();
                attrs.insert(0, canon::hash_str("exits"));
                canon::hash_parts(&attrs)
            })
            .collect();

        // Exits grouped by (router, attribute digest), ids ascending —
        // the matching blocks σ is induced from.
        let mut groups: BTreeMap<(u32, u64), Vec<&ExitPathRef>> = BTreeMap::new();
        for p in exits {
            groups
                .entry((p.exit_point().raw(), attr_digest(p)))
                .or_default()
                .push(p);
        }
        for members in groups.values_mut() {
            members.sort_by_key(|p| p.id());
        }

        let mut elements = Vec::new();
        'candidates: for perm in canon::automorphisms(topo, &colors) {
            let mut mapping: Vec<(ExitPathId, ExitPathId)> = Vec::with_capacity(exits.len());
            for ((router, digest), members) in &groups {
                let Some(targets) = groups.get(&(perm[*router as usize], *digest)) else {
                    continue 'candidates;
                };
                if targets.len() != members.len() {
                    continue 'candidates;
                }
                for (src, dst) in members.iter().zip(targets) {
                    if !attrs_equal(src, dst) {
                        continue 'candidates;
                    }
                    mapping.push((src.id(), dst.id()));
                }
            }
            mapping.sort_unstable();
            elements.push(Element {
                routers: perm,
                exits: mapping,
            });
        }
        debug_assert!(!elements.is_empty(), "identity always induces a σ");

        // The guard only matters when the group can actually relabel
        // something; a trivial group never needs it.
        let mut dangerous = vec![Vec::new(); n];
        if elements.len() > 1 {
            for (u, slot) in dangerous.iter_mut().enumerate() {
                let u = RouterId::new(u as u32);
                for (i, a) in exits.iter().enumerate() {
                    for b in exits.iter().skip(i + 1) {
                        if dangerous_at(topo, &config, u, a, b) {
                            let (lo, hi) = if a.id() < b.id() {
                                (a.id(), b.id())
                            } else {
                                (b.id(), a.id())
                            };
                            slot.push((lo, hi));
                        }
                    }
                }
            }
        }
        let has_danger = dangerous.iter().any(|d| !d.is_empty());
        Self {
            elements,
            dangerous,
            has_danger,
        }
    }

    /// Group order (≥ 1; the identity is always present).
    pub(crate) fn order(&self) -> u64 {
        self.elements.len() as u64
    }

    /// Whether the group is just the identity (no pruning possible).
    pub(crate) fn is_trivial(&self) -> bool {
        self.elements.len() <= 1
    }

    /// Every group image of a stable best-exit vector (duplicates
    /// included; callers dedup). Expanding each found fixed point through
    /// the group restores exactly the plain search's stable-vector set.
    pub(crate) fn vector_orbit(&self, bv: &[Option<ExitPathId>]) -> Vec<Vec<Option<ExitPathId>>> {
        self.elements.iter().map(|el| el.apply_vector(bv)).collect()
    }
}

/// The same group, compiled to act directly on flat key words
/// ([`ibgp_sim::FlatKey`]): per element a router-block permutation plus
/// an exit *bit-position* permutation, applied by remapping set bits —
/// no id lookups, no `Vec` churn.
///
/// Canonicalization picks the word-lexicographic minimum of the orbit.
/// Any fixed total order is sound: dedup is by orbit (two keys collapse
/// iff they are orbit-mates), orbit sizes are order-independent, and
/// stable vectors are found at raw states and expanded through the
/// whole group — so the search's observable output does not depend on
/// which representative is picked.
pub(crate) struct FlatAction {
    routers: usize,
    mask_words: usize,
    node_words: usize,
    /// Per element: router slot map (old index → new index) and exit
    /// bit-position map in codec index space.
    elements: Vec<(Vec<u32>, Vec<u32>)>,
    order: u64,
    /// Per router: dangerous pairs as (word, bit-mask) coordinates into
    /// the router's `possible` bitmask.
    dangerous: Vec<Vec<(usize, u32, usize, u32)>>,
    has_danger: bool,
}

impl FlatAction {
    /// Compile `group` against `codec`'s exit numbering.
    pub(crate) fn new(group: &SymmetryGroup, codec: &StateCodec) -> Self {
        let slot = |id: ExitPathId| {
            codec
                .index_of(id)
                .expect("group acts on injected exits only")
        };
        let elements = group
            .elements
            .iter()
            .map(|el| {
                let exits = (0..codec.exit_count())
                    .map(|e| slot(el.map_exit(codec.id_at(e))) as u32)
                    .collect();
                (el.routers.clone(), exits)
            })
            .collect();
        let dangerous = group
            .dangerous
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|&(a, b)| {
                        let (ea, eb) = (slot(a), slot(b));
                        (ea / 32, 1u32 << (ea % 32), eb / 32, 1u32 << (eb % 32))
                    })
                    .collect()
            })
            .collect();
        Self {
            routers: codec.routers(),
            mask_words: codec.mask_words(),
            node_words: codec.node_words(),
            elements,
            order: group.order(),
            dangerous,
            has_danger: group.has_danger,
        }
    }

    /// Apply one element's action to `src`, writing into `dst`.
    fn apply(&self, element: usize, src: &[u32], dst: &mut [u32]) {
        let (routers, exits) = &self.elements[element];
        dst.fill(0);
        for u in 0..self.routers {
            let block = &src[u * self.node_words..(u + 1) * self.node_words];
            let out = routers[u] as usize * self.node_words;
            // The two bitmask fields (possible, advertised) relabel bit
            // positions; the best slot relabels its index.
            for field in [0, self.mask_words] {
                for w in 0..self.mask_words {
                    let mut bits = block[field + w];
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let e = exits[w * 32 + b] as usize;
                        dst[out + field + e / 32] |= 1 << (e % 32);
                    }
                }
            }
            let best = block[2 * self.mask_words];
            dst[out + 2 * self.mask_words] = if best == 0 {
                0
            } else {
                exits[best as usize - 1] + 1
            };
        }
    }

    /// Write the word-lexicographically minimal image of `src` under the
    /// group into `best` (with `image` as scratch) and return the size of
    /// `src`'s orbit (by orbit–stabilizer, counted from the stabilizer
    /// while all images are computed anyway). Both buffers are the
    /// caller's, so a successor the visited set rejects is never copied
    /// out of them.
    pub(crate) fn canonical_into(
        &self,
        src: &[u32],
        best: &mut Vec<u32>,
        image: &mut Vec<u32>,
    ) -> u64 {
        image.resize(src.len(), 0);
        let mut stabilizer = 0u64;
        for element in 0..self.elements.len() {
            self.apply(element, src, image);
            if image[..] == *src {
                stabilizer += 1;
            }
            if element == 0 || image[..] < best[..] {
                best.clear();
                best.extend_from_slice(image);
            }
        }
        self.order / stabilizer.max(1)
    }

    /// Does any router's `possible` bitmask contain a dangerous pair —
    /// i.e. could an identifier-order tie-break have discriminated while
    /// producing or leaving this state?
    pub(crate) fn guard_trips(&self, words: &[u32]) -> bool {
        if !self.has_danger {
            return false;
        }
        (0..self.routers).any(|u| {
            let possible = &words[u * self.node_words..];
            self.dangerous[u]
                .iter()
                .any(|&(wa, ma, wb, mb)| possible[wa] & ma != 0 && possible[wb] & mb != 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_sim::signature::{NodeStateKey, StateKey};
    use ibgp_topology::TopologyBuilder;
    use ibgp_types::{AsId, ExitPath, Med};
    use std::sync::Arc;

    fn exit(id: u32, exit_point: u32) -> ExitPathRef {
        Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(1))
                .med(Med::new(0))
                .exit_point(RouterId::new(exit_point))
                .build_unchecked(),
        )
    }

    /// Fig 13's rotation: three reflector/client clusters arranged in a
    /// cost cycle, one identical-attribute exit per client.
    fn fig13_like() -> (Topology, Vec<ExitPathRef>) {
        let costs = [[2u64, 1, 3], [3, 2, 1], [1, 3, 2]];
        let mut b = TopologyBuilder::new(6);
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                b = b.link(i as u32, 3 + j as u32, c);
            }
        }
        let topo = b
            .cluster([0], [3])
            .cluster([1], [4])
            .cluster([2], [5])
            .build()
            .unwrap();
        let exits = vec![exit(1, 3), exit(2, 4), exit(3, 5)];
        (topo, exits)
    }

    #[test]
    fn fig13_rotation_is_found() {
        let (topo, exits) = fig13_like();
        let g = SymmetryGroup::compute(&topo, ProtocolConfig::STANDARD, &exits);
        assert_eq!(g.order(), 3, "the 3-cycle rotation group");
        assert!(!g.is_trivial());
        // The identical-attribute exits are tied everywhere but on
        // metric; at equal-metric routers they form dangerous pairs.
        assert!(g.has_danger);
    }

    #[test]
    fn asymmetric_instances_get_the_trivial_group() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 2)
            .full_mesh()
            .build()
            .unwrap();
        let g = SymmetryGroup::compute(&topo, ProtocolConfig::STANDARD, &[exit(1, 0), exit(2, 2)]);
        assert!(g.is_trivial());
        assert_eq!(g.order(), 1);
    }

    fn node(possible: &[u32], best: Option<u32>, advertised: &[u32]) -> NodeStateKey {
        let ids = |v: &[u32]| v.iter().map(|&i| ExitPathId::new(i)).collect();
        NodeStateKey {
            possible: ids(possible),
            best: best.map(ExitPathId::new),
            advertised: ids(advertised),
            rr: vec![],
        }
    }

    /// The fig13-like group, acting on flat keys, and `nodes` encoded.
    fn setup() -> (
        SymmetryGroup,
        FlatAction,
        impl Fn(Vec<NodeStateKey>) -> Vec<u32>,
    ) {
        let (topo, exits) = fig13_like();
        let g = SymmetryGroup::compute(&topo, ProtocolConfig::STANDARD, &exits);
        let codec = StateCodec::new(topo.len(), &exits);
        let action = FlatAction::new(&g, &codec);
        let encode = move |nodes| {
            codec
                .encode_key(&StateKey { nodes, phase: 0 })
                .into_words()
                .into_vec()
        };
        (g, action, encode)
    }

    /// Orbit sizes and orbit-mate collapse on three shapes of state:
    /// every image of a state under the group canonicalizes to one
    /// representative, itself an image, and the distinct images number
    /// the orbit size.
    #[test]
    fn canonical_collapses_orbits_and_counts_their_size() {
        let (_, action, encode) = setup();
        // One router's state, every other router empty.
        let only = |u: usize, state: NodeStateKey| {
            let mut nodes = vec![node(&[], None, &[]); 6];
            nodes[u] = state;
            nodes
        };
        let cases = [
            // Asymmetric: only client 3 holds exit 1 — orbit of 3.
            (only(3, node(&[1], Some(1), &[1])), 3),
            // Rotation-symmetric: every client holds its own exit —
            // orbit of 1 (fixed by the whole group).
            (
                vec![
                    node(&[1, 2, 3], Some(1), &[1]),
                    node(&[1, 2, 3], Some(2), &[2]),
                    node(&[1, 2, 3], Some(3), &[3]),
                    node(&[1], Some(1), &[1]),
                    node(&[2], Some(2), &[2]),
                    node(&[3], Some(3), &[3]),
                ],
                1,
            ),
            // A router holding two tied exits — orbit of 3.
            (only(0, node(&[1, 2], None, &[])), 3),
        ];
        let (mut canon, mut image) = (Vec::new(), Vec::new());
        for (nodes, orbit) in cases {
            let key = encode(nodes);
            assert_eq!(action.canonical_into(&key, &mut canon, &mut image), orbit);
            let representative = canon.clone();
            let mut mates = Vec::new();
            for e in 0..action.elements.len() {
                let mut mate = vec![0; key.len()];
                action.apply(e, &key, &mut mate);
                assert_eq!(action.canonical_into(&mate, &mut canon, &mut image), orbit);
                assert_eq!(canon, representative, "orbit-mates share a canonical form");
                mates.push(mate);
            }
            assert!(
                mates.contains(&representative),
                "the representative is a mate"
            );
            mates.sort();
            mates.dedup();
            assert_eq!(mates.len() as u64, orbit);
        }
    }

    #[test]
    fn guard_fires_only_on_co_occurring_dangerous_pairs() {
        let (g, action, encode) = setup();
        let mut nodes = vec![node(&[], None, &[]); 6];
        // Exits 2 and 3 at client 3 (router index 3): distances 1 and 3
        // differ, so the pair (2,3) is tied on metric only at routers
        // equidistant from both exit points. Compute from the dangerous
        // table instead of hand-deriving: the test asserts consistency
        // between the table and the guard.
        nodes[3] = node(&[2, 3], None, &[]);
        let expected = g.dangerous[3].contains(&(ExitPathId::new(2), ExitPathId::new(3)));
        assert_eq!(action.guard_trips(&encode(nodes.clone())), expected);
        // Exits 1 and 2 at reflector 0, which is nearer exit 2's client.
        nodes[0] = node(&[1, 2], None, &[]);
        let tied = g.dangerous[0].contains(&(ExitPathId::new(1), ExitPathId::new(2)));
        assert_eq!(action.guard_trips(&encode(nodes.clone())), expected || tied);
        // A single exit per router never trips the guard.
        nodes[0] = node(&[1], None, &[]);
        nodes[3] = node(&[2], None, &[]);
        assert!(!action.guard_trips(&encode(nodes)));
    }

    #[test]
    fn vector_orbit_covers_all_rotations() {
        let (topo, exits) = fig13_like();
        let g = SymmetryGroup::compute(&topo, ProtocolConfig::STANDARD, &exits);
        let bv = vec![
            Some(ExitPathId::new(1)),
            Some(ExitPathId::new(2)),
            Some(ExitPathId::new(3)),
            Some(ExitPathId::new(1)),
            Some(ExitPathId::new(2)),
            Some(ExitPathId::new(3)),
        ];
        let orbit = g.vector_orbit(&bv);
        assert_eq!(orbit.len(), 3);
        assert!(orbit.contains(&bv), "identity image present");
    }
}
