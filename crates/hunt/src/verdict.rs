//! One classification path for every scenario kind.
//!
//! [`classify_spec`] lowers a [`ScenarioSpec`] and classifies it with the
//! engine matching its kind. All three kinds run on the one
//! level-synchronous explorer of `ibgp-analysis`, under the same options
//! and with the same `Metrics`: flat reflection specs through
//! `ibgp_analysis::classify` (which adds the all-at-once live-cycle
//! probe), confederation and hierarchy specs through `explore_confed` /
//! `explore_hier`, classified from the search evidence alone. The CLI's
//! `classify`, `run`, the campaign driver, and the minimizer all consume
//! the resulting [`Verdict`], so the "inconclusive: cap hit" reasoning
//! lives in exactly one place.

use crate::spec::{Built, ScenarioSpec, SpecError, SpecKind};
use ibgp_analysis::{ExploreOptions, OscillationClass, Reachability};
use ibgp_confed::explore_confed;
use ibgp_hierarchy::explore_hier;
use ibgp_sim::Metrics;
use ibgp_types::{ExitPathId, SolverMode, StopReason, VerdictOrigin};
use std::time::Instant;

/// Search knobs shared by every hunt entry point.
///
/// Every scenario kind runs on the same explorer, so `max_states`,
/// `max_bytes`, `deadline`, and `jobs` apply to all of them. The rest
/// are declined where they have no meaning, and the verdict shows it:
/// confederation and hierarchy searches report symmetry group order 0
/// and no ample expansions, a `Sat` solver request on them (or on a
/// non-standard variant) comes back with `origin = search`, and loop
/// prevention only exists for reflection specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HuntOptions {
    /// State cap per exploration.
    pub max_states: usize,
    /// Worker threads for the search (`0`, the default, means one per
    /// hardware thread, sanely capped). Verdicts are identical at every
    /// value.
    pub jobs: usize,
    /// Collapse automorphism orbits in the reflection search
    /// (confed/hierarchy searches decline it: group order 0).
    pub symmetry: bool,
    /// Visited-set byte budget; `None` for unbounded.
    pub max_bytes: Option<usize>,
    /// Prune each frontier state's branches to the invisible compound
    /// ample step in the reflection search (exact partial-order
    /// reduction; confed/hierarchy searches decline it: no ample
    /// expansions). Verdicts are unchanged — only the number of states
    /// visited shrinks.
    pub por: bool,
    /// Absolute wall-clock deadline for the search; `None` (the default)
    /// for no deadline, checked before every chunk of frontier states.
    pub deadline: Option<Instant>,
    /// Classification backend: reachability search (default) or the
    /// `ibgp-solver` constraint encoding (`Sat`), which enumerates *all*
    /// stable routings without visiting reachable states. Only the
    /// standard-protocol flat-reflection path supports the solver;
    /// other kinds and variants fall back to search.
    pub solver: SolverMode,
    /// Classify reflection specs under the message-level reflection
    /// mechanics (ORIGINATOR_ID / CLUSTER_LIST stamping, cluster-loop
    /// drop, SSLD, the reflect-to-whom matrix) instead of the paper's
    /// `Transfer` predicate. The search declines symmetry and POR, as
    /// every sweep search does; the solver declines and falls back to
    /// search. Confed/hierarchy specs have no reflection sessions to
    /// stamp.
    pub loop_prevention: bool,
}

impl Default for HuntOptions {
    fn default() -> Self {
        Self {
            max_states: 200_000,
            jobs: 0,
            symmetry: false,
            max_bytes: None,
            por: false,
            deadline: None,
            solver: SolverMode::Search,
            loop_prevention: false,
        }
    }
}

/// The one place hunt knobs lower to explorer knobs. Field-by-field
/// copies at call sites are exactly how new knobs historically got
/// dropped on one path; go through this impl instead.
impl From<&HuntOptions> for ExploreOptions {
    fn from(o: &HuntOptions) -> ExploreOptions {
        let mut opts = ExploreOptions::new()
            .max_states(o.max_states)
            .jobs(o.jobs)
            .symmetry(o.symmetry)
            .por(o.por)
            .solver(o.solver)
            .loop_prevention(o.loop_prevention);
        if let Some(b) = o.max_bytes {
            opts = opts.max_bytes(b);
        }
        if let Some(d) = o.deadline {
            opts = opts.deadline(d);
        }
        opts
    }
}

impl HuntOptions {
    /// Builder-style constructor matching the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the state cap.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Replace the worker count (`0` = auto).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enable or disable symmetry reduction.
    pub fn symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Replace the visited-set byte budget.
    pub fn max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Enable or disable partial-order reduction.
    pub fn por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Replace the wall-clock deadline.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Pick the classification backend (search, the default, or `Sat`).
    pub fn solver(mut self, solver: SolverMode) -> Self {
        self.solver = solver;
        self
    }

    /// Enable or disable the message-level reflection mechanics.
    pub fn loop_prevention(mut self, loop_prevention: bool) -> Self {
        self.loop_prevention = loop_prevention;
        self
    }
}

/// The outcome of classifying one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The oscillation class.
    pub class: OscillationClass,
    /// Distinct configurations the search visited.
    pub states: usize,
    /// Whether the reachable space was fully explored.
    pub complete: bool,
    /// Why the search ended — always from the search itself, never
    /// inferred from `complete`.
    pub stop: StopReason,
    /// Distinct stable best-exit vectors, canonical order.
    pub stable_vectors: Vec<Vec<Option<ExitPathId>>>,
    /// Search metrics, for every scenario kind. `None` when no search
    /// ran (the solver backend) and on verdicts read back from a store
    /// or the wire.
    pub metrics: Option<Metrics>,
    /// Which backend produced the evidence. `Search` verdicts count
    /// *reachable* states and reachable stable vectors; `Solver`
    /// verdicts enumerate *all* stable routings (reachable or not) and
    /// never visit a state (`states` is 0).
    pub origin: VerdictOrigin,
    /// Exact number of stable routings of the whole instance, reachable
    /// or not — `Some` only when a complete solver enumeration
    /// established it. Search verdicts leave this `None` (they count
    /// reachable fixed points only).
    pub stable_count: Option<usize>,
}

impl Verdict {
    /// Lower an explorer result and its class to a verdict — the one
    /// lowering for every scenario kind and backend.
    pub fn new(class: OscillationClass, reach: Reachability) -> Verdict {
        let solved = reach.origin == VerdictOrigin::Solver;
        Verdict {
            class,
            states: reach.states,
            complete: reach.complete,
            stop: reach.stop,
            stable_count: (solved && reach.complete).then_some(reach.stable_vectors.len()),
            stable_vectors: reach.stable_vectors,
            // The solver's Metrics carry only wall-clock; rendering
            // them as search throughput would be nonsense.
            metrics: (!solved).then_some(reach.metrics),
            origin: reach.origin,
        }
    }

    /// Whether this verdict is an oscillation-corpus keeper
    /// (proven persistent oscillation).
    pub fn is_oscillating(&self) -> bool {
        self.class == OscillationClass::Persistent
    }

    /// Whether this verdict is bistable-or-worse while still convergent:
    /// transient oscillation (multiple stable outcomes or a live cycle).
    pub fn is_bistable(&self) -> bool {
        self.class == OscillationClass::Transient
    }

    /// Whether the search gave no verdict (budget or deadline hit).
    pub fn is_inconclusive(&self) -> bool {
        self.class == OscillationClass::Unknown
    }

    /// The one-line "inconclusive: ..." hint for this verdict, `None`
    /// when the search completed. Every front end (CLI, campaign
    /// summaries, the serve protocol) must print this exact wording.
    pub fn stop_hint(&self) -> Option<String> {
        self.stop.hint()
    }

    /// Render the full human-readable verdict block: the class line, the
    /// inconclusive hint, search size/completeness, metrics when the
    /// search was instrumented, and the stable solutions. The single
    /// verdict-printing path shared by `ibgp-cli classify`/`run`, `batch`
    /// summaries, and anything else that reports a verdict — wording
    /// lives here exactly once.
    pub fn render(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{label}: {}", self.class);
        if let Some(hint) = self.stop_hint() {
            let _ = writeln!(out, "  {hint}");
        }
        if self.origin == VerdictOrigin::Solver {
            let _ = writeln!(
                out,
                "  {} stable routing(s) in total, reachable or not (complete solver enumeration: {})",
                self.stable_count.unwrap_or(self.stable_vectors.len()),
                self.complete
            );
        } else {
            let _ = writeln!(
                out,
                "  {} reachable configurations (complete search: {})",
                self.states, self.complete
            );
        }
        if let Some(m) = &self.metrics {
            let _ = writeln!(
                out,
                "  explored at {:.0} states/sec on {} worker(s) (frontier depth {}, peak queue {}; {:.3} s expanding, {:.3} s merging)",
                m.states_per_sec(),
                m.workers,
                m.frontier_depth,
                m.peak_queue,
                m.expand_nanos as f64 / 1e9,
                m.merge_nanos as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "  update cache: {:.1}% hit rate ({} hits / {} misses)",
                100.0 * m.cache_hit_rate(),
                m.cache_hits,
                m.cache_misses
            );
            if m.group_order > 0 {
                let _ = writeln!(
                    out,
                    "  symmetry: automorphism group of order {}, {:.2}x state reduction ({} orbit states)",
                    m.group_order,
                    m.reduction_factor(),
                    m.orbit_states
                );
            }
            if m.por_ample + m.por_full > 0 {
                let pruned = 100.0 * m.por_ample as f64 / (m.por_ample + m.por_full) as f64;
                let _ = writeln!(
                    out,
                    "  por: {} of {} expansions took the ample branch ({pruned:.1}% of the frontier pruned)",
                    m.por_ample,
                    m.por_ample + m.por_full
                );
            }
            if m.compactions > 0 {
                let _ = writeln!(
                    out,
                    "  memory: visited set compacted to digests {} time(s) ({} digest collision(s), peak {} bytes)",
                    m.compactions, m.digest_collisions, m.visited_bytes
                );
            }
        }
        let _ = writeln!(out, "  {} stable solution(s):", self.stable_vectors.len());
        for (i, sv) in self.stable_vectors.iter().enumerate() {
            let bests = sv
                .iter()
                .map(|b| b.map(|p| p.to_string()).unwrap_or_else(|| "-".into()))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "    #{}: {}", i + 1, bests);
        }
        out
    }
}

/// Classify a scenario spec: validate, lower, and run the exhaustive
/// search matching its kind.
///
/// This is *the* public classification entrypoint — the CLI verbs, the
/// campaign driver, the minimizer, the serve scheduler, and the facade's
/// `ibgp::classify` all route through it.
pub fn classify_spec(spec: &ScenarioSpec, opts: &HuntOptions) -> Result<Verdict, SpecError> {
    let explore = ExploreOptions::from(opts);
    let evidence =
        |reach: Reachability| Verdict::new(OscillationClass::from_evidence(&reach), reach);
    Ok(match spec.build()? {
        Built::Reflection {
            topology,
            config,
            exits,
        } => {
            // Loop prevention can come from the spec (a `loop-prevention`
            // directive) or the hunt knobs; either source turns it on.
            let lp = opts.loop_prevention
                || matches!(&spec.kind, SpecKind::Reflection(r) if r.loop_prevention);
            let explore = explore.loop_prevention(lp);
            let (class, reach) = ibgp_analysis::classify(&topology, config, &exits, explore);
            Verdict::new(class, reach)
        }
        Built::Confed {
            topology,
            mode,
            exits,
        } => evidence(explore_confed(&topology, mode, exits, explore)),
        Built::Hierarchy {
            topology,
            mode,
            exits,
        } => evidence(explore_hier(&topology, mode, exits, explore)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConfedSpec, ExitSpec, ReflectionSpec, SpecKind};
    use ibgp_confed::ConfedMode;
    use ibgp_proto::ProtocolVariant;

    fn disagree(variant: ProtocolVariant) -> ScenarioSpec {
        ScenarioSpec {
            name: "disagree".into(),
            routers: 4,
            links: vec![(0, 2, 10), (0, 3, 1), (1, 3, 10), (1, 2, 1)],
            kind: SpecKind::Reflection(ReflectionSpec {
                full_mesh: false,
                clusters: vec![(vec![0], vec![2]), (vec![1], vec![3])],
                client_sessions: vec![],
                variant,
                loop_prevention: false,
            }),
            exits: vec![ExitSpec::new(1, 2, 1), ExitSpec::new(2, 3, 1)],
        }
    }

    #[test]
    fn reflection_verdicts_follow_the_analysis_path() {
        let opts = HuntOptions::default();
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts).unwrap();
        assert_eq!(v.class, OscillationClass::Transient);
        assert!(v.is_bistable());
        assert_eq!(v.stable_vectors.len(), 2);
        assert!(v.metrics.is_some());
        let v = classify_spec(&disagree(ProtocolVariant::Modified), &opts).unwrap();
        assert_eq!(v.class, OscillationClass::Stable);
    }

    #[test]
    fn capped_search_is_inconclusive_with_cap_recorded() {
        let opts = HuntOptions {
            max_states: 2,
            ..HuntOptions::default()
        };
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts).unwrap();
        assert!(v.is_inconclusive());
        assert_eq!(v.stop, StopReason::StateCap(2));
        assert!(!v.complete);
    }

    #[test]
    fn confed_specs_classify_through_their_search() {
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
        let v = classify_spec(&spec, &HuntOptions::default()).unwrap();
        assert_eq!(v.class, OscillationClass::Stable);
        assert!(v.complete);
        let m = v.metrics.expect("confed searches report metrics");
        assert_eq!(m.states_visited as usize, v.states);
        assert_eq!(m.group_order, 0, "no symmetry was requested");
    }

    #[test]
    fn confed_capped_search_reports_the_cap_that_hit() {
        let spec = ScenarioSpec {
            name: "c".into(),
            routers: 4,
            links: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            kind: SpecKind::Confed(ConfedSpec {
                sub_as: vec![vec![0, 1], vec![2, 3]],
                confed_links: vec![(1, 2)],
                mode: ConfedMode::SingleBest,
            }),
            exits: vec![ExitSpec::new(1, 0, 1), ExitSpec::new(2, 3, 1)],
        };
        let opts = HuntOptions {
            max_states: 1,
            ..HuntOptions::default()
        };
        let v = classify_spec(&spec, &opts).unwrap();
        assert!(v.is_inconclusive());
        assert!(!v.complete);
        assert_eq!(
            v.stop,
            StopReason::StateCap(1),
            "the cap the search hit, from the search"
        );
    }

    /// A truncated search with no reachable stable vector.
    fn truncated(stop: StopReason) -> Reachability {
        Reachability {
            states: 10,
            complete: false,
            stable_vectors: vec![],
            stop,
            metrics: Metrics::default(),
            origin: VerdictOrigin::Search,
        }
    }

    #[test]
    fn verdicts_never_fabricate_a_cap() {
        // An incomplete search that stopped for some reason other than
        // the state cap (deadline here) must not be printed as capped.
        let reach = truncated(StopReason::Deadline);
        let v = Verdict::new(OscillationClass::from_evidence(&reach), reach);
        assert!(v.is_inconclusive());
        assert_eq!(v.stop, StopReason::Deadline);
        assert_eq!(
            v.stop_hint().unwrap(),
            "inconclusive: deadline exceeded (raise the deadline)"
        );
        // And a complete search carries no stop hint at all.
        let reach = Reachability {
            complete: true,
            stable_vectors: vec![vec![None]],
            ..truncated(StopReason::Complete)
        };
        let v = Verdict::new(OscillationClass::from_evidence(&reach), reach);
        assert_eq!(v.class, OscillationClass::Stable);
        assert_eq!(v.stop_hint(), None);
    }

    #[test]
    fn render_is_the_single_wording_source() {
        let v = Verdict::new(
            OscillationClass::Unknown,
            truncated(StopReason::StateCap(10)),
        );
        let text = v.render("x");
        assert!(text.starts_with("x: unknown (inconclusive search)\n"));
        assert!(text.contains("  inconclusive: state cap 10 reached (raise --max-states)\n"));
        assert!(text.contains("  10 reachable configurations (complete search: false)\n"));
        assert!(text.contains("  0 stable solution(s):\n"));
    }

    #[test]
    fn solver_verdicts_carry_origin_count_and_their_own_wording() {
        let opts = HuntOptions::new().solver(SolverMode::Sat);
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts).unwrap();
        assert_eq!(v.class, OscillationClass::Transient);
        assert_eq!(v.origin, VerdictOrigin::Solver);
        assert_eq!(v.stable_count, Some(2));
        assert_eq!(v.states, 0, "the solver never visits a state");
        assert!(v.complete);
        assert!(v.metrics.is_none(), "no search ran, so no search metrics");
        let text = v.render("disagree");
        assert!(text.contains(
            "  2 stable routing(s) in total, reachable or not (complete solver enumeration: true)\n"
        ));
        assert!(!text.contains("reachable configurations"));
        // Variants the encoding does not cover fall back to search and
        // say so via the origin.
        let v = classify_spec(&disagree(ProtocolVariant::Modified), &opts).unwrap();
        assert_eq!(v.origin, VerdictOrigin::Search);
        assert_eq!(v.stable_count, None);
        assert!(v.metrics.is_some());
    }

    #[test]
    fn option_conversions_carry_every_knob() {
        let opts = HuntOptions::new()
            .max_states(77_000)
            .jobs(3)
            .symmetry(true)
            .por(true)
            .solver(SolverMode::Search)
            .deadline(Instant::now() + std::time::Duration::from_secs(3600));
        // An hour-away deadline must not stop a tiny search, and the
        // worker count reaches the explorer.
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts).unwrap();
        assert_ne!(v.stop, StopReason::Deadline);
        assert_eq!(v.metrics.unwrap().workers, 3);
        // The byte budget reaches every kind's search.
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts.max_bytes(1)).unwrap();
        assert_eq!(v.stop, StopReason::MemoryBudget(1));
    }

    /// Loop prevention reaches the engine from either source (the spec
    /// directive or the hunt knob), and under `--solver sat` the solver
    /// declines honestly: the verdict's origin says `Search`.
    #[test]
    fn loop_prevention_classifies_and_overrides_the_solver() {
        // Per-cluster singleton reflectors with no redundancy: verdicts
        // match the Transfer-predicate path on this spec.
        let base = classify_spec(
            &disagree(ProtocolVariant::Standard),
            &HuntOptions::default(),
        )
        .unwrap();
        let opts = HuntOptions::new().loop_prevention(true);
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts).unwrap();
        assert_eq!(v.class, base.class);
        assert_eq!(v.stable_vectors, base.stable_vectors);

        let mut spec = disagree(ProtocolVariant::Standard);
        match &mut spec.kind {
            SpecKind::Reflection(r) => r.loop_prevention = true,
            _ => unreachable!(),
        }
        let v = classify_spec(&spec, &HuntOptions::default()).unwrap();
        assert_eq!(v.class, base.class);

        let opts = HuntOptions::new()
            .loop_prevention(true)
            .solver(SolverMode::Sat);
        let v = classify_spec(&disagree(ProtocolVariant::Standard), &opts).unwrap();
        assert_eq!(v.origin, VerdictOrigin::Search, "solver must decline");
        assert_eq!(v.stable_count, None);
    }

    #[test]
    fn build_errors_surface() {
        let mut bad = disagree(ProtocolVariant::Standard);
        bad.exits[0].at = 99;
        assert!(classify_spec(&bad, &HuntOptions::default()).is_err());
    }
}
