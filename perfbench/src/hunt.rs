//! The `hunt` and `lp` workloads: a pinned campaign slice of generated
//! specimens, each signatured and classified with `classify_spec` one
//! after another, as a hunting campaign does.
//!
//! `hunt` takes the first specimens of every family in `ALL_FAMILIES`
//! at CLI defaults. `lp` takes reflection and multi-reflector specimens
//! plus `corpus/specimens/lp-flip.ibgp`, all with loop prevention on.
//! The campaign seed fixes the specimens; the run seed fixes the order
//! they are submitted in.

use crate::layers::{self, Counters};
use crate::oracle::{self, Tally};
use crate::stats::{self, SplitMix};
use crate::trace::Tracer;
use crate::{Ctx, Run};
use ibgp_hunt::{
    classify_spec, generate_spec, signature, Family, HuntOptions, ScenarioSpec, Verdict,
    ALL_FAMILIES,
};
use ibgp_types::SolverMode;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Specimens per family in the `hunt` slice.
const HUNT_PER_FAMILY: u64 = 40;
/// Reflection specimens in the `lp` slice: the campaign's first ones
/// with at least `LP_MIN_ROUTERS` routers. Smaller ones finish in a few
/// milliseconds, where per-level worker hand-offs, not the state
/// encoding, set the time.
const LP_REFLECTION: usize = 24;
const LP_MIN_ROUTERS: usize = 7;
/// Multi-reflector specimens in the `lp` slice. Under loop prevention
/// these cost ~0.7 s each on average (up to 2.8 s), so the share is small.
const LP_MULTI: u64 = 5;
/// Set-up repetitions, all before the first pass, so that they start
/// from the same state on every seed. The reported set-up time is their
/// median.
const SETUP_REPS: usize = 30;
/// Worker threads of each search. The slices are many small searches,
/// and two workers hand off at every level of one. On a two-core machine
/// each hand-off then waits on whatever else the machine runs: with one
/// busy process beside it, `hunt` passes slowed by a fifth at two workers
/// and not at all at one. One worker searches in the calling thread.
const JOBS: usize = 1;
/// CLI default state cap.
const MAX_STATES: usize = 500_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hunt,
    Lp,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Hunt => "hunt",
            Mode::Lp => "lp",
        }
    }

    fn options(self) -> HuntOptions {
        HuntOptions::new()
            .max_states(MAX_STATES)
            .jobs(JOBS)
            .loop_prevention(self == Mode::Lp)
    }
}

struct Specimen {
    family: &'static str,
    spec: ScenarioSpec,
}

fn slice(mode: Mode, campaign: u64) -> Result<Vec<Specimen>, String> {
    let gen = |family: Family, n: u64| {
        (0..n).map(move |i| Specimen {
            family: family.keyword(),
            spec: generate_spec(family, campaign, i),
        })
    };
    Ok(match mode {
        Mode::Hunt => ALL_FAMILIES
            .iter()
            .flat_map(|&f| gen(f, HUNT_PER_FAMILY))
            .collect(),
        Mode::Lp => {
            let mut v: Vec<Specimen> = (0..)
                .map(|i| generate_spec(Family::Reflection, campaign, i))
                .filter(|spec| spec.routers >= LP_MIN_ROUTERS)
                .take(LP_REFLECTION)
                .map(|spec| Specimen {
                    family: Family::Reflection.keyword(),
                    spec,
                })
                .chain(gen(Family::MultiReflector, LP_MULTI))
                .collect();
            v.push(Specimen {
                family: oracle::LP_FLIP,
                spec: ibgp_hunt::load_spec(std::path::Path::new(oracle::LP_FLIP_PATH))
                    .map_err(|e| format!("cannot load {}: {e}", oracle::LP_FLIP_PATH))?,
            });
            v
        }
    })
}

/// One pass over the slice in `order`; returns the pass wall clock, the
/// per-specimen times (ms) and verdicts (indexed like the slice).
fn pass(
    tr: &Tracer,
    specimens: &[Specimen],
    order: &[usize],
    opts: &HuntOptions,
) -> (f64, Vec<f64>, Vec<Option<Verdict>>) {
    let mut times = Vec::with_capacity(order.len());
    let mut verdicts = vec![None; specimens.len()];
    let start = Instant::now();
    for &i in order {
        let spec = &specimens[i].spec;
        let t = Instant::now();
        let v = tr.span("hunt.specimen", None, i as u64, |root| {
            tr.span("signature", Some(root), i as u64, |_| {
                black_box(signature(spec))
            });
            tr.span("classify_spec", Some(root), i as u64, |_| {
                classify_spec(spec, opts).ok()
            })
        });
        times.push(t.elapsed().as_secs_f64() * 1e3);
        verdicts[i] = v;
    }
    (start.elapsed().as_secs_f64(), times, verdicts)
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Run, String> {
    let opts = mode.options();
    let mut out = Run::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        black_box(slice(mode, ctx.campaign)?);
        out.setup.push(t.elapsed().as_secs_f64());
    }
    let specimens = slice(mode, ctx.campaign)?;
    let mut order: Vec<usize> = (0..specimens.len()).collect();
    SplitMix::new(ctx.seed).shuffle(&mut order);
    out.per_pass = specimens.len();

    // Untimed oracle inputs: solver verdicts for the flat standard-protocol
    // specimens (hunt), plain verdicts for the loop-prevention ones (lp).
    let other: Vec<Option<Verdict>> = specimens
        .iter()
        .map(|s| match mode {
            Mode::Hunt if oracle::solver_applies(&s.spec) => {
                classify_spec(&s.spec, &opts.solver(SolverMode::Sat)).ok()
            }
            Mode::Hunt => None,
            Mode::Lp => classify_spec(&s.spec, &opts.loop_prevention(false)).ok(),
        })
        .collect();

    let untraced = Tracer::new(false);
    let traced = Tracer::new(ctx.trace);
    let mut reference: Option<Vec<Option<Verdict>>> = None;
    // Each specimen's times over the untraced passes, indexed like the
    // slice.
    let mut times_of: Vec<Vec<f64>> = vec![Vec::new(); specimens.len()];
    let (walls, traced_walls, kernel_s) = crate::repeat(ctx, |use_trace| {
        if use_trace {
            traced.clear();
        }
        let ((wall, times, verdicts), rss) = crate::with_peak_rss(|| {
            pass(
                if use_trace { &traced } else { &untraced },
                &specimens,
                &order,
                &opts,
            )
        });
        out.attempted += specimens.len() as u64;
        out.failed += match &reference {
            None => check(mode, ctx.campaign, &specimens, &verdicts, &other),
            Some(r) => oracle::mismatches(&verdicts, r),
        };
        reference.get_or_insert(verdicts);
        if !use_trace {
            out.rss.push(rss);
            for (&i, t) in order.iter().zip(times) {
                times_of[i].push(t);
            }
        }
        Ok(wall)
    })?;
    out.walls = walls;
    out.kernel_s = kernel_s;
    // A specimen's time to verdict is its median over the passes; the
    // percentiles are taken over specimens. A single slow repetition of
    // one of the few heaviest specimens would otherwise set the p99.
    out.verdicts = times_of.iter().map(|t| stats::median(t)).collect();
    out.latencies = out.verdicts.clone();
    if ctx.trace {
        out.layers = trace_layers(
            ctx,
            mode,
            &specimens,
            &order,
            &opts,
            &traced,
            &traced_walls,
            &out.walls,
        )?;
    }
    Ok(out)
}

/// Check the first pass: pinned class tallies per family (when the
/// campaign has them), the solver's fixed points as an upper bound on the
/// search's, and the loop-prevention flip rules. Returns the number of
/// specimens that failed a check.
fn check(
    mode: Mode,
    campaign: u64,
    specimens: &[Specimen],
    verdicts: &[Option<Verdict>],
    other: &[Option<Verdict>],
) -> u64 {
    let mut failed = 0u64;
    let mut tallies: BTreeMap<&str, Tally> = BTreeMap::new();
    for ((s, v), o) in specimens.iter().zip(verdicts).zip(other) {
        let Some(v) = v else {
            failed += 1;
            continue;
        };
        tallies.entry(s.family).or_default().add(v.class);
        let ok = match mode {
            Mode::Hunt => o.as_ref().is_none_or(|sat| oracle::within_solver(v, sat)),
            Mode::Lp => o
                .as_ref()
                .is_some_and(|plain| oracle::lp_consistent(s.family, plain, v)),
        };
        if !ok {
            eprintln!("{}: oracle mismatch on {}", mode.name(), s.spec.name);
            failed += 1;
        }
    }
    for (family, t) in &tallies {
        println!("{}: campaign {campaign} tally {family} {t}", mode.name());
    }
    let pinned = match mode {
        Mode::Hunt => oracle::hunt_tallies(campaign),
        Mode::Lp => oracle::lp_tallies(campaign),
    };
    if let Some(pinned) = pinned {
        for (family, want) in pinned {
            let got = tallies.get(family).copied().unwrap_or_default();
            if got != *want {
                eprintln!(
                    "{}: campaign {campaign} {family} tally {got}, pinned {want}",
                    mode.name()
                );
                failed += got.distance(want);
            }
        }
    }
    failed
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    ctx: &Ctx,
    mode: Mode,
    specimens: &[Specimen],
    order: &[usize],
    opts: &HuntOptions,
    traced: &Tracer,
    traced_walls: &[f64],
    walls: &[f64],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let replay = Tracer::new(true);
    let mut counters = Counters::default();
    for &i in order {
        layers::replay(&replay, i as u64, &specimens[i].spec, opts, &mut counters);
    }
    let spans = replay.spans();
    let mut m = BTreeMap::new();
    layers::chain_metrics(&spans, &counters, &mut m);
    if mode == Mode::Hunt {
        // `lp` spreads too far between runs to be a listed workload, so
        // the traced `hunt` run also measures the loop-prevention path:
        // lp-flip with loop prevention on. It sets the analysis.lp_*
        // metrics only.
        let flip = ibgp_hunt::load_spec(std::path::Path::new(oracle::LP_FLIP_PATH))
            .map_err(|e| format!("cannot load {}: {e}", oracle::LP_FLIP_PATH))?;
        let lp_replay = Tracer::new(true);
        let mut lp_counters = Counters::default();
        let lp_opts = opts.loop_prevention(true);
        layers::replay(&lp_replay, 0, &flip, &lp_opts, &mut lp_counters);
        let mut lp = BTreeMap::new();
        layers::chain_metrics(&lp_replay.spans(), &lp_counters, &mut lp);
        for name in ["analysis.lp_explore_s", "analysis.lp_states_per_s"] {
            m.insert(name, lp[name]);
        }
    }
    let mut all = traced.spans();
    all.extend(spans);
    layers::finish(ctx, mode.name(), &mut m, &all, traced_walls, walls)?;
    Ok(m)
}
