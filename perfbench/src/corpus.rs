//! The `corpus` workload: every specimen `corpus/goldens.json` names
//! through `ibgp_serve::run_batch`, over a fresh file-backed verdict
//! store with one scheduler worker and the CLI default state cap. The
//! report must match the goldens byte for byte. The run seed is unused:
//! the committed corpus is the input.
//!
//! The specimens are copied into the run's scratch directory first, so
//! files a hunt campaign leaves under `corpus/` (its default output
//! buckets there are not committed) are neither timed nor checked.

use crate::layers::{self, Counters};
use crate::trace::{self, Tracer};
use crate::{Ctx, Run, JOBS};
use ibgp_hunt::HuntOptions;
use ibgp_serve::{report_json, run_batch, BatchEntry, Request, Scheduler, VerdictStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const ROOT: &str = "corpus";
const GOLDENS: &str = "corpus/goldens.json";
/// The specimen whose capped search dominates the workload; the traced
/// run explores it on one and on two workers.
const NPC: &str = "specimens/npc-1var.ibgp";
const WORKERS: usize = 1;
/// Set-up repetitions before the window and before each pass.
const SETUP_REPS: usize = 10;
const MAX_STATES: usize = 500_000;

fn request() -> Request {
    Request::new(HuntOptions::new().max_states(MAX_STATES).jobs(JOBS))
}

/// Open a fresh store at `path` and start the scheduler over it.
fn start(tr: &Tracer, path: &Path) -> Result<Scheduler, String> {
    let _ = std::fs::remove_file(path);
    let store = tr
        .span("store.open", None, 0, |_| VerdictStore::open(path))
        .map_err(|e| format!("cannot open store {}: {e}", path.display()))?;
    Ok(tr.span("sched.start", None, 0, |_| Scheduler::new(store, WORKERS)))
}

/// The entry blocks of a batch report, one string per specimen.
fn blocks(report: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur: Option<String> = None;
    for line in report.lines() {
        if line == "    {" {
            cur = Some(String::new());
        } else if line.starts_with("    }") {
            out.extend(cur.take());
        } else if let Some(c) = cur.as_mut() {
            c.push_str(line);
            c.push('\n');
        }
    }
    out
}

/// Specimens whose report entry differs from the goldens.
fn mismatches(entries: &[BatchEntry], goldens: &str) -> u64 {
    let report = report_json(entries);
    if report == goldens {
        return 0;
    }
    let (got, want) = (blocks(&report), blocks(goldens));
    let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
    (differ + got.len().abs_diff(want.len())).max(1) as u64
}

/// The specimen names the goldens list, relative to `corpus/`.
fn golden_files(goldens: &str) -> Vec<&str> {
    goldens
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"file\": \""))
        .filter_map(|l| l.strip_suffix("\","))
        .collect()
}

/// Copy the specimens the goldens name into `<work>/corpus`, keeping
/// their relative names, and return that directory (untimed).
fn stage(ctx: &Ctx, goldens: &str) -> Result<PathBuf, String> {
    let root = ctx.work.join(ROOT);
    let files = golden_files(goldens);
    if files.is_empty() {
        return Err(format!("{GOLDENS} names no specimen"));
    }
    for name in files {
        let (from, to) = (Path::new(ROOT).join(name), root.join(name));
        std::fs::create_dir_all(to.parent().unwrap_or(&root))
            .and_then(|()| std::fs::copy(&from, &to))
            .map_err(|e| format!("cannot stage {}: {e}", from.display()))?;
    }
    Ok(root)
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let goldens =
        std::fs::read_to_string(GOLDENS).map_err(|e| format!("cannot read {GOLDENS}: {e}"))?;
    let expected = blocks(&goldens).len() as u64;
    let root = stage(ctx, &goldens)?;
    let mut out = Run {
        per_pass: expected as usize,
        ..Run::default()
    };
    let off = Tracer::new(false);
    let store_path = |n: usize| ctx.work.join(format!("corpus-{n}.log"));
    let sample_setup = |setup: &mut Vec<f64>| -> Result<(), String> {
        for n in 0..SETUP_REPS {
            let t = Instant::now();
            drop(start(&off, &store_path(n))?);
            setup.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    };
    sample_setup(&mut out.setup)?;

    let traced = Tracer::new(ctx.trace);
    let mut first: Option<ibgp_serve::BatchOutcome> = None;
    let (walls, traced_walls, kernel_s) = crate::repeat(ctx, |use_trace| {
        let tr = if use_trace { &traced } else { &off };
        if use_trace {
            traced.clear();
        }
        sample_setup(&mut out.setup)?;
        let t = Instant::now();
        let sched = start(tr, &store_path(0))?;
        out.setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (outcome, rss) = crate::with_peak_rss(|| {
            tr.span("serve.run_batch", None, 0, |_| {
                run_batch(&root, &sched, request())
            })
        });
        let wall = t.elapsed().as_secs_f64();
        drop(sched);
        out.attempted += expected;
        match outcome {
            Ok(o) => {
                out.failed += mismatches(&o.entries, &goldens);
                first.get_or_insert(o);
            }
            Err(e) => {
                eprintln!("corpus: {e}");
                out.failed += expected;
            }
        }
        if !use_trace {
            // The request on this workload is the whole batch.
            out.rss.push(rss);
            out.latencies.push(wall * 1e3);
            out.verdicts.push(wall * 1e3);
        }
        Ok(wall)
    })?;
    out.walls = walls;
    out.kernel_s = kernel_s;
    if ctx.trace {
        let outcome = first.ok_or("no batch completed; nothing to trace")?;
        let files = golden_files(&goldens);
        out.layers = trace_layers(
            ctx,
            &root,
            &files,
            &outcome,
            &traced,
            &traced_walls,
            &out.walls,
        )?;
    }
    Ok(out)
}

fn trace_layers(
    ctx: &Ctx,
    root: &Path,
    files: &[&str],
    outcome: &ibgp_serve::BatchOutcome,
    traced: &Tracer,
    traced_walls: &[f64],
    walls: &[f64],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let replay = Tracer::new(true);
    let opts = request().opts;
    let mut counters = Counters::default();
    let mut npc = None;
    for (i, name) in files.iter().enumerate() {
        let path = root.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let spec = replay
            .span("format.parse", None, i as u64, |_| ibgp_hunt::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        layers::replay(&replay, i as u64, &spec, &opts, &mut counters);
        if *name == NPC {
            npc = Some(spec);
        }
    }
    let mut m = BTreeMap::new();

    // Two-core speedup of the dominant search: explore npc-1var on one
    // worker and on two, outside the chain's spans.
    let npc = npc.ok_or_else(|| format!("{NPC} missing from the corpus"))?;
    if let ibgp_hunt::Built::Reflection {
        topology,
        config,
        exits,
    } = npc.build().map_err(|e| format!("{NPC}: {e}"))?
    {
        let secs = |jobs: usize| {
            let o: ibgp_analysis::ExploreOptions = (&opts.jobs(jobs)).into();
            let t = Instant::now();
            std::hint::black_box(ibgp_analysis::explore(&topology, config, exits.clone(), o));
            t.elapsed().as_secs_f64()
        };
        let (one, two) = (secs(1), secs(JOBS));
        println!("corpus: npc-1var explore {one:.3} s on 1 worker, {two:.3} s on {JOBS}");
        m.insert("analysis.jobs2_speedup", one / two);
    }

    // The store the batch wrote: open, insert every verdict, look each up.
    let store_path = ctx.work.join("corpus-replay.log");
    let mut store = replay
        .span("store.open", None, 0, |_| VerdictStore::open(&store_path))
        .map_err(|e| format!("cannot open {}: {e}", store_path.display()))?;
    let budget = ibgp_serve::StoredBudget::from(&opts);
    for (i, e) in outcome.entries.iter().enumerate() {
        replay
            .span("store.insert", None, i as u64, |_| {
                store.insert(&e.signature, &e.verdict, budget)
            })
            .map_err(|err| format!("store insert failed: {err}"))?;
    }
    for (i, e) in outcome.entries.iter().enumerate() {
        replay.span("store.lookup", None, i as u64, |_| {
            std::hint::black_box(store.lookup(&e.signature, &budget, opts.solver).is_some())
        });
    }
    let spans = replay.spans();
    layers::chain_metrics(&spans, &counters, &mut m);
    let requests = outcome.entries.len() as f64;
    m.insert("store.open_s", trace::total(&spans, "store.open"));
    m.insert("store.entries", store.len() as f64);
    m.insert("store.insert_s", trace::total(&spans, "store.insert"));
    m.insert("store.lookup_s", trace::total(&spans, "store.lookup"));
    m.insert("sched.requests", requests);
    m.insert("sched.hits", outcome.cache_hits as f64);
    m.insert("sched.hit_ratio", outcome.cache_hits as f64 / requests);
    m.insert("sched.searches_run", outcome.searches_run as f64);
    let mut all = traced.spans();
    all.extend(spans);
    layers::finish(ctx, "corpus", &mut m, &all, traced_walls, walls)?;
    Ok(m)
}
