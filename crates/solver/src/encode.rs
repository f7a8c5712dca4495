//! The `Choose_best` fixed-point condition as CNF.
//!
//! For the **standard** protocol a configuration is fully determined by
//! the advertised-exit vector `a : V → P ∪ {∅}` and the stable
//! configurations are exactly the fixed points of the synchronous sweep
//! (see `ibgp-analysis::stable`). Instead of enumerating all
//! `(|P|+1)^n` vectors, this module encodes "router `u` selects exit
//! path `p`" as a boolean variable `X(u,p)` and emits clauses whose
//! models are *precisely* the fixed points — the DPLL enumerator in
//! [`crate::dpll`] then lists them without ever touching a reachable
//! state.
//!
//! # The encoding
//!
//! Candidate domains come first: `X(u,p)` exists only for `p` in the
//! **greatest** fixpoint of
//! `cand(u) = own(u) ∪ { p | ∃v≠u. p ∈ cand(v) ∧ Transfer_{v→u}(p) }`,
//! iterated downward from all paths. The greatest fixpoint (not the
//! least!) is what soundness requires: in any fixed point the support
//! sets `{v | a(v) = p}` are self-supporting — every non-own member is
//! fed by another member — and such cyclically-supported solutions are
//! admitted by the stability oracle, so they must stay in the domain.
//!
//! Per router `u` and candidate `p`, a ladder of defined variables then
//! mirrors the decision process rule by rule. Every attribute except
//! `learnedFrom` is a compile-time constant of `(u,p)` (LOCAL-PREF,
//! AS-path length, MED, E-BGP-ness, IGP metric via the SPF table), so
//! rules 1–5 reduce to constant pairwise comparisons:
//!
//! * `G(p)` — `p` is gathered at `u`: a unit clause for `u`'s own exits,
//!   otherwise `G(p) ⇔ ⋁ X(v,p)` over the allowed senders `v`.
//! * `A(p) ⇔ G(p) ∧ ⋀ ¬G(q)` over `q` strictly better under the
//!   (LOCAL-PREF desc, AS-path-length asc) lexicographic key — rules 1–2.
//! * `B(p) ⇔ A(p) ∧ ⋀ ¬A(q)` over `q` that MED-beat `p` under the
//!   policy's [`MedMode`] (same-`nextAS` group or global) — rule 3.
//! * `C(p) ⇔ B(p) ∧ ⋀ ¬B(q)` over `q` strictly better under the
//!   [`RuleOrder`]-dependent (E-BGP-ness, metric) key — rules 4–5.
//! * `D(p) ⇔ C(p) ∧ ⋀ ¬E(q,p)` — rule 6, the one dynamic comparison:
//!   `E(q,p)` holds when `q` survives rules 1–5 *and* `q`'s
//!   `learnedFrom` identifier is strictly below `p`'s. A dynamic path's
//!   `learnedFrom` is the minimum BGP identifier among its *active*
//!   senders, so `E` unrolls into per-sender witnesses ("`v` announces
//!   `q` and no sender of `p` with an identifier ≤ `v`'s is active").
//! * `X(p) ⇔ D(p) ∧ ⋀ ¬D(q)` over candidates `q` with a smaller exit-path
//!   id — rule 7, the deterministic fallback.
//!
//! The chain is definitional end to end (Tseitin equivalences), so every
//! auxiliary variable is forced by unit propagation once the `X`
//! variables are assigned; the enumerator branches on `X` only and each
//! model *is* an advertised-exit vector.

use crate::cnf::{Cnf, Lit, Var};
use crate::dpll::{self, EnumBudget, EnumStop};
use ibgp_proto::selection::{MedMode, SelectionPolicy};
use ibgp_proto::{route_at, transfer_allowed};
use ibgp_topology::Topology;
use ibgp_types::{
    AsId, BgpId, ExitPathId, ExitPathRef, IgpCost, LocalPref, Med, RouterId, SearchBudget,
    StopReason,
};

/// All fixed points of the standard protocol, found by constraint
/// solving. The solver-side analogue of a reachability result: carries
/// the same budget/stop honesty plus encoding and search statistics.
#[derive(Debug, Clone)]
pub struct StableReport {
    /// Distinct stable best-exit vectors (indexed by router), sorted.
    pub fixed_points: Vec<Vec<Option<ExitPathId>>>,
    /// Whether the enumeration exhausted the model space. Only a complete
    /// run proves absence (e.g. "no stable routing exists").
    pub complete: bool,
    /// Why the enumeration ended, in the workspace-wide vocabulary
    /// (decision cap ↦ [`StopReason::StateCap`]).
    pub stop: StopReason,
    /// CNF variables emitted.
    pub vars: usize,
    /// CNF clauses emitted.
    pub clauses: usize,
    /// DPLL branching decisions.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts hit.
    pub conflicts: u64,
}

/// Enumerate every stable configuration of the standard protocol by
/// encoding the fixed-point condition and running the all-solutions
/// DPLL, within `budget` (`max_states` caps branching decisions).
pub fn enumerate_stable(
    topo: &Topology,
    policy: SelectionPolicy,
    exits: &[ExitPathRef],
    budget: &SearchBudget,
) -> StableReport {
    let enc = Encoding::build(topo, policy, exits);
    let run = dpll::enumerate(
        &enc.cnf,
        &enc.branch,
        &EnumBudget {
            max_decisions: Some(budget.max_states as u64),
            max_models: None,
            deadline: budget.deadline,
        },
    );
    let (complete, stop) = match run.stop {
        EnumStop::Complete => (true, StopReason::Complete),
        EnumStop::Deadline => (false, StopReason::Deadline),
        // No model cap is set, so any other stop is the decision cap.
        EnumStop::DecisionCap | EnumStop::ModelCap => {
            (false, StopReason::StateCap(budget.max_states))
        }
    };
    let mut fixed_points: Vec<Vec<Option<ExitPathId>>> =
        run.models.iter().map(|m| enc.decode(m)).collect();
    fixed_points.sort();
    StableReport {
        fixed_points,
        complete,
        stop,
        vars: enc.cnf.num_vars(),
        clauses: enc.cnf.clauses().len(),
        decisions: run.decisions,
        propagations: run.propagations,
        conflicts: run.conflicts,
    }
}

/// The constant selection attributes of one `(router, path)` pair.
struct PathKey {
    /// `u == exitPoint(p)`: gathered unconditionally, E-BGP kind, and a
    /// constant `learnedFrom` (the external peer's identifier).
    own: bool,
    /// The constant `learnedFrom` for own paths; `None` for dynamic ones.
    lf: Option<BgpId>,
    lp: LocalPref,
    apl: usize,
    next_as: AsId,
    med: Med,
    metric: IgpCost,
}

impl PathKey {
    /// `q` strictly beats `p` under rules 1–2.
    fn better12(q: &PathKey, p: &PathKey) -> bool {
        q.lp > p.lp || (q.lp == p.lp && q.apl < p.apl)
    }

    /// `q` MED-eliminates `p` under rule 3.
    fn med_beats(mode: MedMode, q: &PathKey, p: &PathKey) -> bool {
        match mode {
            MedMode::PerNeighborAs => q.next_as == p.next_as && q.med < p.med,
            MedMode::AlwaysCompare => q.med < p.med,
            MedMode::Ignore => false,
        }
    }

    /// `q` strictly beats `p` under rules 4–5. Both orderings are a
    /// lexicographic key over (E-BGP-ness, metric); [`RuleOrder`]
    /// decides which component leads.
    fn beats45(policy: SelectionPolicy, q: &PathKey, p: &PathKey) -> bool {
        use ibgp_proto::selection::RuleOrder;
        let (qk, pk) = ((!q.own, q.metric), (!p.own, p.metric));
        match policy.rule_order {
            RuleOrder::PreferEbgp => qk < pk,
            RuleOrder::MinCostFirst => (qk.1, qk.0) < (pk.1, pk.0),
        }
    }
}

struct Encoding {
    cnf: Cnf,
    /// The selection variables, in (router, exit-id) order — the branch
    /// projection the enumerator decides on.
    branch: Vec<Var>,
    /// Per router, the candidate exit-path ids parallel to its slice of
    /// `branch`.
    layout: Vec<Vec<ExitPathId>>,
}

impl Encoding {
    fn build(topo: &Topology, policy: SelectionPolicy, exits: &[ExitPathRef]) -> Encoding {
        let n = topo.len();
        let m = exits.len();

        // Candidate domains: the greatest fixpoint of the transfer
        // closure, iterated downward from all paths everywhere.
        let mut cand = vec![vec![true; m]; n];
        loop {
            let mut changed = false;
            for ui in 0..n {
                let u = RouterId::new(ui as u32);
                for (pi, p) in exits.iter().enumerate() {
                    if !cand[ui][pi] || p.exit_point() == u {
                        continue;
                    }
                    let supported = (0..n).any(|vi| {
                        vi != ui
                            && cand[vi][pi]
                            && transfer_allowed(topo, RouterId::new(vi as u32), u, p.exit_point())
                    });
                    if !supported {
                        cand[ui][pi] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Candidate lists in exit-id order (the rule-7 tie-break order).
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|ui| {
                let mut l: Vec<usize> = (0..m).filter(|&pi| cand[ui][pi]).collect();
                l.sort_by_key(|&pi| exits[pi].id());
                l
            })
            .collect();

        // Selection variables first, so the branch projection is a dense
        // prefix of the variable space.
        let mut cnf = Cnf::new();
        let mut branch = Vec::new();
        let mut xvar: Vec<Vec<Option<Var>>> = vec![vec![None; m]; n];
        for ui in 0..n {
            for &pi in &lists[ui] {
                let v = cnf.fresh();
                xvar[ui][pi] = Some(v);
                branch.push(v);
            }
        }
        let x_of = |xvar: &[Vec<Option<Var>>], v: RouterId, pi: usize| -> Var {
            xvar[v.index()][pi].expect("sender must have the candidate")
        };

        for (ui, list) in lists.iter().enumerate() {
            let u = RouterId::new(ui as u32);
            let k = list.len();

            let keys: Vec<PathKey> = list
                .iter()
                .map(|&pi| {
                    let p = &exits[pi];
                    let own = p.exit_point() == u;
                    // Only constant attributes are read off this route;
                    // the learned-from argument is a placeholder.
                    let r = route_at(topo, u, p, topo.bgp_id(u));
                    PathKey {
                        own,
                        lf: own.then(|| p.next_hop().bgp_id()),
                        lp: r.local_pref(),
                        apl: r.as_path_length(),
                        next_as: r.next_as(),
                        med: r.med(),
                        metric: r.metric(),
                    }
                })
                .collect();

            // Allowed senders per candidate, in announcing-identifier
            // order (the order rule 6's minimum is taken over). Own paths
            // never arrive dynamically (no transfer case re-delivers a
            // router its own exit), matching the oracle's constant
            // learned-from for them.
            let sends: Vec<Vec<RouterId>> = list
                .iter()
                .enumerate()
                .map(|(i, &pi)| {
                    if keys[i].own {
                        return Vec::new();
                    }
                    let p = &exits[pi];
                    let mut s: Vec<RouterId> = (0..n)
                        .filter(|&vi| {
                            vi != ui
                                && xvar[vi][pi].is_some()
                                && transfer_allowed(
                                    topo,
                                    RouterId::new(vi as u32),
                                    u,
                                    p.exit_point(),
                                )
                        })
                        .map(|vi| RouterId::new(vi as u32))
                        .collect();
                    s.sort_by_key(|&v| topo.bgp_id(v));
                    debug_assert!(
                        !s.is_empty(),
                        "dynamic candidate with no sender survived gfp"
                    );
                    s
                })
                .collect();

            // G: gathered at u.
            let g: Vec<Var> = (0..k)
                .map(|i| {
                    let v = cnf.fresh();
                    if keys[i].own {
                        cnf.add(vec![Lit::pos(v)]);
                    } else {
                        let lits: Vec<Lit> = sends[i]
                            .iter()
                            .map(|&w| Lit::pos(x_of(&xvar, w, list[i])))
                            .collect();
                        cnf.define_or(v, &lits);
                    }
                    v
                })
                .collect();

            // A: survives rules 1–2.
            let a: Vec<Var> = (0..k)
                .map(|i| {
                    let v = cnf.fresh();
                    let mut conj = vec![Lit::pos(g[i])];
                    for j in 0..k {
                        if j != i && PathKey::better12(&keys[j], &keys[i]) {
                            conj.push(Lit::neg(g[j]));
                        }
                    }
                    cnf.define_and(v, &conj);
                    v
                })
                .collect();

            // B: survives rule 3 (aliases A when MEDs are ignored).
            let b = if policy.med_mode == MedMode::Ignore {
                a.clone()
            } else {
                (0..k)
                    .map(|i| {
                        let v = cnf.fresh();
                        let mut conj = vec![Lit::pos(a[i])];
                        for j in 0..k {
                            if j != i && PathKey::med_beats(policy.med_mode, &keys[j], &keys[i]) {
                                conj.push(Lit::neg(a[j]));
                            }
                        }
                        cnf.define_and(v, &conj);
                        v
                    })
                    .collect()
            };

            // C: survives rules 4–5.
            let c: Vec<Var> = (0..k)
                .map(|i| {
                    let v = cnf.fresh();
                    let mut conj = vec![Lit::pos(b[i])];
                    for j in 0..k {
                        if j != i && PathKey::beats45(policy, &keys[j], &keys[i]) {
                            conj.push(Lit::neg(b[j]));
                        }
                    }
                    cnf.define_and(v, &conj);
                    v
                })
                .collect();

            // D: survives rule 6. elim(q,p) ⇔ C(q) ∧ lf(q) < lf(p); the
            // comparison shape depends on which learned-froms are
            // constant. All guards may assume both paths are gathered
            // (C ⊆ G), so a dynamic path always has an active sender.
            let d: Vec<Var> = (0..k)
                .map(|i| {
                    let mut conj = vec![Lit::pos(c[i])];
                    for j in 0..k {
                        if j == i {
                            continue;
                        }
                        match (keys[j].lf, keys[i].lf) {
                            (Some(cq), Some(cp)) => {
                                if cq < cp {
                                    conj.push(Lit::neg(c[j]));
                                }
                            }
                            (Some(cq), None) => {
                                // lf(p) > cq ⇔ no sender of p at or below
                                // cq is active.
                                let ws: Vec<Lit> = sends[i]
                                    .iter()
                                    .filter(|&&w| topo.bgp_id(w) <= cq)
                                    .map(|&w| Lit::neg(x_of(&xvar, w, list[i])))
                                    .collect();
                                if ws.is_empty() {
                                    conj.push(Lit::neg(c[j]));
                                } else {
                                    let e = cnf.fresh();
                                    let mut lits = vec![Lit::pos(c[j])];
                                    lits.extend(ws);
                                    cnf.define_and(e, &lits);
                                    conj.push(Lit::neg(e));
                                }
                            }
                            (None, Some(cp)) => {
                                // lf(q) < cp ⇔ some sender of q strictly
                                // below cp is active.
                                let vs: Vec<Lit> = sends[j]
                                    .iter()
                                    .filter(|&&v| topo.bgp_id(v) < cp)
                                    .map(|&v| Lit::pos(x_of(&xvar, v, list[j])))
                                    .collect();
                                if !vs.is_empty() {
                                    let e = cnf.fresh();
                                    cnf.define_and_or(e, Lit::pos(c[j]), &vs);
                                    conj.push(Lit::neg(e));
                                }
                            }
                            (None, None) => {
                                // min over q's active senders < min over
                                // p's: witness a sender v of q with no
                                // sender of p at or below it active.
                                let ts: Vec<Lit> = sends[j]
                                    .iter()
                                    .map(|&v| {
                                        let vid = topo.bgp_id(v);
                                        let mut lits = vec![Lit::pos(x_of(&xvar, v, list[j]))];
                                        lits.extend(
                                            sends[i]
                                                .iter()
                                                .filter(|&&w| topo.bgp_id(w) <= vid)
                                                .map(|&w| Lit::neg(x_of(&xvar, w, list[i]))),
                                        );
                                        let t = cnf.fresh();
                                        cnf.define_and(t, &lits);
                                        Lit::pos(t)
                                    })
                                    .collect();
                                let e = cnf.fresh();
                                cnf.define_and_or(e, Lit::pos(c[j]), &ts);
                                conj.push(Lit::neg(e));
                            }
                        }
                    }
                    let v = cnf.fresh();
                    cnf.define_and(v, &conj);
                    v
                })
                .collect();

            // X: rule 7 — the first rule-6 survivor in exit-id order.
            for i in 0..k {
                let xi = x_of(&xvar, u, list[i]);
                let mut conj = vec![Lit::pos(d[i])];
                for &dj in d.iter().take(i) {
                    conj.push(Lit::neg(dj));
                }
                cnf.define_and(xi, &conj);
            }
            // Redundant pairwise at-most-one over the selections: implied
            // by the ladder, but gives propagation an early handle.
            for i in 0..k {
                for j in i + 1..k {
                    cnf.add(vec![
                        Lit::neg(x_of(&xvar, u, list[i])),
                        Lit::neg(x_of(&xvar, u, list[j])),
                    ]);
                }
            }
        }

        let layout = lists
            .iter()
            .map(|l| l.iter().map(|&pi| exits[pi].id()).collect())
            .collect();
        Encoding {
            cnf,
            branch,
            layout,
        }
    }

    /// Turn one projected model back into an advertised-exit vector.
    fn decode(&self, model: &[bool]) -> Vec<Option<ExitPathId>> {
        let mut out = Vec::with_capacity(self.layout.len());
        let mut cursor = 0;
        for ids in &self.layout {
            let mut sel = None;
            for &id in ids {
                if model[cursor] {
                    sel = Some(id);
                }
                cursor += 1;
            }
            out.push(sel);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibgp_proto::choose_best;
    use ibgp_topology::{Topology, TopologyBuilder};
    use ibgp_types::{ExitPath, Route};
    use std::collections::BTreeMap;

    /// An independent oracle: odometer over every advertised-exit vector,
    /// replaying the gathered-set fixed-point check against the real
    /// `choose_best`. (A from-scratch twin of the enumeration in
    /// `ibgp-analysis`, which this crate cannot depend on.)
    fn brute_force(
        topo: &Topology,
        policy: SelectionPolicy,
        exits: &[ExitPathRef],
    ) -> Vec<Vec<Option<ExitPathId>>> {
        let n = topo.len();
        let m = exits.len();
        let mut digits = vec![0usize; n];
        let mut found = Vec::new();
        'outer: loop {
            let advertised: Vec<Option<&ExitPathRef>> = digits
                .iter()
                .map(|&d| if d == 0 { None } else { Some(&exits[d - 1]) })
                .collect();
            let mut vector = Vec::with_capacity(n);
            let mut stable = true;
            for ui in 0..n {
                let u = RouterId::new(ui as u32);
                let mut gathered: BTreeMap<ExitPathId, (ExitPathRef, BgpId)> = BTreeMap::new();
                for p in exits.iter().filter(|p| p.exit_point() == u) {
                    gathered.insert(p.id(), (p.clone(), p.next_hop().bgp_id()));
                }
                for (vi, adv) in advertised.iter().enumerate() {
                    let v = RouterId::new(vi as u32);
                    if v == u {
                        continue;
                    }
                    if let Some(p) = *adv {
                        if transfer_allowed(topo, v, u, p.exit_point()) {
                            let sender = topo.bgp_id(v);
                            gathered
                                .entry(p.id())
                                .and_modify(|(_, lf)| {
                                    if p.exit_point() != u {
                                        *lf = (*lf).min(sender);
                                    }
                                })
                                .or_insert_with(|| (p.clone(), sender));
                        }
                    }
                }
                let routes: Vec<Route> = gathered
                    .values()
                    .map(|(p, lf)| route_at(topo, u, p, *lf))
                    .collect();
                let best = choose_best(policy, &routes).map(|r| r.exit_id());
                if best != advertised[ui].map(|p| p.id()) {
                    stable = false;
                    break;
                }
                vector.push(best);
            }
            if stable {
                found.push(vector);
            }
            let mut i = 0;
            loop {
                if i == n {
                    break 'outer;
                }
                digits[i] += 1;
                if digits[i] <= m {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
        }
        found.sort();
        found
    }

    fn assert_matches_brute_force(topo: &Topology, exits: &[ExitPathRef]) {
        for policy in [
            SelectionPolicy::PAPER,
            SelectionPolicy::RFC1771,
            SelectionPolicy::ALWAYS_COMPARE_MED,
            SelectionPolicy {
                med_mode: MedMode::Ignore,
                rule_order: Default::default(),
            },
        ] {
            let report = enumerate_stable(topo, policy, exits, &SearchBudget::states(1_000_000));
            assert!(report.complete, "{policy:?} hit a cap");
            assert_eq!(report.stop, StopReason::Complete);
            assert_eq!(
                report.fixed_points,
                brute_force(topo, policy, exits),
                "{policy:?}"
            );
        }
    }

    fn exit(id: u32, next_as: u32, med: u32, exit_point: u32) -> ExitPathRef {
        std::sync::Arc::new(
            ExitPath::builder(ExitPathId::new(id))
                .via(AsId::new(next_as))
                .med(Med::new(med))
                .exit_point(RouterId::new(exit_point))
                .build_unchecked(),
        )
    }

    #[test]
    fn single_exit_has_unique_fixed_point() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0)];
        let r = enumerate_stable(
            &topo,
            SelectionPolicy::PAPER,
            &exits,
            &SearchBudget::states(100_000),
        );
        assert!(r.complete);
        assert_eq!(
            r.fixed_points,
            vec![vec![Some(ExitPathId::new(1)), Some(ExitPathId::new(1))]]
        );
        assert_matches_brute_force(&topo, &exits);
    }

    #[test]
    fn no_exits_yields_the_empty_fixed_point() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let r = enumerate_stable(
            &topo,
            SelectionPolicy::PAPER,
            &[],
            &SearchBudget::states(100),
        );
        assert!(r.complete);
        assert_eq!(r.fixed_points, vec![vec![None, None]]);
    }

    /// The DISAGREE gadget: two clusters whose clients each prefer the
    /// other's exit — exactly two stable routings.
    #[test]
    fn disagree_gadget_has_exactly_two_fixed_points() {
        let topo = TopologyBuilder::new(4)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .cluster([0], [2])
            .cluster([1], [3])
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 2), exit(2, 1, 0, 3)];
        let r = enumerate_stable(
            &topo,
            SelectionPolicy::PAPER,
            &exits,
            &SearchBudget::states(1_000_000),
        );
        assert_eq!(r.fixed_points.len(), 2, "{:?}", r.fixed_points);
        assert_matches_brute_force(&topo, &exits);
    }

    /// MED's non-decomposability: same-AS exits with different MEDs at
    /// different routers, a third exit through another AS.
    #[test]
    fn med_interaction_matches_brute_force() {
        let topo = TopologyBuilder::new(5)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .link(2, 3, 1)
            .link(3, 4, 1)
            .cluster([0], [1, 2])
            .cluster([3], [4])
            .build()
            .unwrap();
        let exits = vec![exit(1, 7, 10, 1), exit(2, 7, 0, 4), exit(3, 9, 5, 2)];
        assert_matches_brute_force(&topo, &exits);
    }

    /// A full mesh with asymmetric costs and a local-pref override.
    #[test]
    fn full_mesh_with_local_pref_matches_brute_force() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 2)
            .link(1, 2, 3)
            .link(0, 2, 7)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![
            exit(1, 1, 0, 0),
            std::sync::Arc::new(
                ExitPath::builder(ExitPathId::new(2))
                    .via_with_length(AsId::new(2), 2)
                    .local_pref(LocalPref::new(200))
                    .exit_point(RouterId::new(2))
                    .exit_cost(IgpCost::new(1))
                    .build_unchecked(),
            ),
        ];
        assert_matches_brute_force(&topo, &exits);
    }

    /// Intra-cluster client sessions change visibility; exercise them.
    #[test]
    fn client_sessions_match_brute_force() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .cluster([0], [1, 2])
            .client_session(1, 2)
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 1), exit(2, 1, 0, 2), exit(3, 2, 0, 0)];
        assert_matches_brute_force(&topo, &exits);
    }

    #[test]
    fn decision_cap_reports_incomplete() {
        // The disagree gadget's reflector selections are mutually
        // dependent, so they genuinely need branching (a propagation-
        // forced instance would complete under any decision cap).
        let topo = TopologyBuilder::new(4)
            .link(0, 2, 10)
            .link(0, 3, 1)
            .link(1, 3, 10)
            .link(1, 2, 1)
            .cluster([0], [2])
            .cluster([1], [3])
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 2), exit(2, 1, 0, 3)];
        let r = enumerate_stable(
            &topo,
            SelectionPolicy::PAPER,
            &exits,
            &SearchBudget::states(1),
        );
        assert!(!r.complete);
        assert_eq!(r.stop, StopReason::StateCap(1));
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let topo = TopologyBuilder::new(3)
            .link(0, 1, 1)
            .link(1, 2, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0), exit(2, 1, 0, 1)];
        let budget = SearchBudget::states(1_000_000)
            .deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
        let r = enumerate_stable(&topo, SelectionPolicy::PAPER, &exits, &budget);
        assert!(!r.complete);
        assert_eq!(r.stop, StopReason::Deadline);
    }

    /// The report's accounting fields are populated.
    #[test]
    fn report_carries_encoding_statistics() {
        let topo = TopologyBuilder::new(2)
            .link(0, 1, 1)
            .full_mesh()
            .build()
            .unwrap();
        let exits = vec![exit(1, 1, 0, 0)];
        let r = enumerate_stable(
            &topo,
            SelectionPolicy::PAPER,
            &exits,
            &SearchBudget::states(100_000),
        );
        assert!(r.vars > 0);
        assert!(r.clauses > 0);
        assert!(r.propagations > 0);
    }
}
