//! The `serve` workload: an in-process `Server` on 127.0.0.1 over a
//! file-backed verdict store with one scheduler worker, driven by a
//! closed loop of two client threads calling `submit_text`, one request
//! per connection as the protocol requires.
//!
//! The request stream comes from the run seed: small generated
//! specimens (at most `MAX_ROUTERS` routers). About four in five requests
//! repeat an earlier text and are answered by signature; the rest are
//! first seen and cost a search plus an fsynced insert. One specimen in
//! five is requested with `solver=sat`. The store is pre-seeded untimed;
//! its replay on open is part of set-up.
//!
//! No record of daemon traffic exists, so the mix is assumed, not
//! measured. The 4-in-5 hit share is the benchmark's specification; the
//! solver share, the families, the size limit, the pre-seeded store and
//! the client count are choices of the benchmark (see README).

use crate::layers::{self, Counters};
use crate::stats::{self, SplitMix};
use crate::trace::{self, Span, Tracer};
use crate::{Ctx, Run, JOBS};
use ibgp_hunt::{
    classify_spec, generate_spec, print, signature, Built, Family, HuntOptions, ScenarioSpec,
    Verdict,
};
use ibgp_serve::{
    class_keyword, submit_text, Request, Response, Scheduler, Server, StoredBudget, VerdictStore,
};
use ibgp_types::SolverMode;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Assumed: the families that build as plain reflection topologies,
/// which the traced replay needs.
const FAMILIES: [Family; 3] = [Family::Reflection, Family::FullMesh, Family::MultiReflector];
/// Assumed: small enough that parse, signature, store and wire dominate.
const MAX_ROUTERS: usize = 5;
/// Requests per pass; at least 1,000 so ten samples lie beyond the p99.
const REQUESTS: usize = 1000;
/// First-seen specimens per pass: the specified one request in five.
/// One of them in five is asked with the solver, an assumed share.
const FRESH: usize = 200;
/// Assumed: specimens whose verdicts are in the pre-seeded store, in the
/// same one-in-five solver share.
const SEEDED_SEARCH: usize = 120;
const SEEDED_SAT: usize = 30;
/// One closed-loop client: the server's accept thread, its scheduler
/// worker and the search's two workers already fill two cores.
const CLIENTS: usize = 1;
const WORKERS: usize = 1;
const SETUP_REPS: usize = 30;

struct Specimen {
    spec: ScenarioSpec,
    text: String,
    sig: String,
    mode: SolverMode,
    expected: Verdict,
}

struct Stream {
    specimens: Vec<Specimen>,
    /// Specimen index per request, in submission order.
    requests: Vec<usize>,
    /// Whether the request is the specimen's first sight in a pass.
    fresh: Vec<bool>,
    /// The pre-seeded store log every pass starts from.
    seeded_log: PathBuf,
}

fn request(mode: SolverMode) -> Request {
    Request::new(HuntOptions::default().solver(mode))
}

/// Draw the specimens and the request order from the seed, compute every
/// expected verdict directly, and write the pre-seeded store (untimed).
fn stream(ctx: &Ctx) -> Result<Stream, String> {
    let mut seen = HashSet::new();
    let mut drawn = Vec::new();
    let want = SEEDED_SEARCH + SEEDED_SAT + FRESH;
    let mut i = 0u64;
    while drawn.len() < want {
        let spec = generate_spec(FAMILIES[(i % 3) as usize], ctx.seed, i / 3);
        i += 1;
        if spec.routers > MAX_ROUTERS {
            continue;
        }
        let sig = signature(&spec);
        if seen.insert(sig.clone()) {
            drawn.push((spec, sig));
        }
    }
    // Layout: seeded search, seeded sat, then the fresh specimens with
    // every fifth one asked with the solver.
    let seeded = SEEDED_SEARCH + SEEDED_SAT;
    let mut specimens = Vec::with_capacity(want);
    for (k, (spec, sig)) in drawn.into_iter().enumerate() {
        let sat = if k < seeded {
            k >= SEEDED_SEARCH
        } else {
            (k - seeded) % 5 == 4
        };
        let mode = if sat {
            SolverMode::Sat
        } else {
            SolverMode::Search
        };
        let expected = classify_spec(&spec, &request(mode).opts.jobs(JOBS))
            .map_err(|e| format!("{}: {e}", spec.name))?;
        specimens.push(Specimen {
            text: print(&spec),
            spec,
            sig,
            mode,
            expected,
        });
    }
    let seeded_log = ctx.work.join("serve-seeded.log");
    let mut store = VerdictStore::open(&seeded_log)
        .map_err(|e| format!("cannot open {}: {e}", seeded_log.display()))?;
    for s in &specimens[..seeded] {
        store
            .insert(
                &s.sig,
                &s.expected,
                StoredBudget::from(&request(s.mode).opts),
            )
            .map_err(|e| format!("cannot pre-seed the store: {e}"))?;
    }
    drop(store);

    let mut rng = SplitMix::new(ctx.seed);
    let mut marks: Vec<bool> = (0..REQUESTS).map(|r| r < FRESH).collect();
    rng.shuffle(&mut marks);
    let mut known: Vec<usize> = (0..seeded).collect();
    let mut next_fresh = seeded;
    let mut requests = Vec::with_capacity(REQUESTS);
    for &fresh in &marks {
        let k = if fresh {
            let k = next_fresh;
            next_fresh += 1;
            known.push(k);
            k
        } else {
            known[rng.below(known.len())]
        };
        requests.push(k);
    }
    Ok(Stream {
        specimens,
        requests,
        fresh: marks,
        seeded_log,
    })
}

/// A fresh copy of the pre-seeded log for one pass (untimed).
fn fresh_log(ctx: &Ctx, s: &Stream, name: &str) -> Result<PathBuf, String> {
    let path = ctx.work.join(name);
    std::fs::copy(&s.seeded_log, &path).map_err(|e| format!("cannot copy the store log: {e}"))?;
    Ok(path)
}

/// Timed set-up: replay the store, start the scheduler and the server.
fn start(log: &Path) -> Result<Server, String> {
    let store = VerdictStore::open(log).map_err(|e| format!("cannot open store: {e}"))?;
    let sched = Arc::new(Scheduler::new(store, WORKERS));
    Server::bind("127.0.0.1:0", sched).map_err(|e| format!("cannot bind: {e}"))
}

/// Whether a response carries the expected verdict.
fn matches(resp: &Response, want: &Verdict) -> bool {
    resp.is_ok()
        && resp.field("class") == Some(class_keyword(want.class))
        && resp.field("states") == Some(&want.states.to_string())
        && resp.field("stop") == Some(&want.stop.token())
        && resp.field("stable") == Some(&want.stable_vectors.len().to_string())
}

/// Run the request stream through `call` on `CLIENTS` closed-loop
/// threads; returns the wall clock and each request's (index, round trip
/// in ms, result).
fn closed_loop<R: Send>(n: usize, call: impl Fn(usize) -> R + Sync) -> (f64, Vec<(usize, f64, R)>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<(usize, f64, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        let t = Instant::now();
                        let r = call(i);
                        mine.push((i, t.elapsed().as_secs_f64() * 1e3, r));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    done.sort_by_key(|d| d.0);
    (wall, done)
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let s = stream(ctx)?;
    let mut out = Run {
        per_pass: REQUESTS,
        ..Run::default()
    };
    for n in 0..SETUP_REPS {
        let log = fresh_log(ctx, &s, &format!("serve-setup-{n}.log"))?;
        let t = Instant::now();
        let server = start(&log)?;
        out.setup.push(t.elapsed().as_secs_f64());
        drop(server);
    }
    let traced = Tracer::new(ctx.trace);
    let off = Tracer::new(false);
    let (walls, traced_walls, kernel_s) = crate::repeat(ctx, |use_trace| {
        let tr = if use_trace { &traced } else { &off };
        if use_trace {
            traced.clear();
        }
        // Set-up is timed before the window only: a start right after a
        // pass ran slower, and the share of such starts followed the
        // number of passes that fit the window.
        let log = fresh_log(ctx, &s, "serve-pass.log")?;
        let mut server = start(&log)?;
        let addr = server.local_addr();
        let ((wall, done), rss) = crate::with_peak_rss(|| {
            closed_loop(REQUESTS, |i| {
                let sp = &s.specimens[s.requests[i]];
                tr.span("client.round_trip", None, i as u64, |_| {
                    submit_text(addr, &sp.text, &request(sp.mode))
                })
            })
        });
        server.shutdown();
        drop(server);
        for (i, ms, resp) in &done {
            let sp = &s.specimens[s.requests[*i]];
            out.attempted += 1;
            let ok = match resp {
                Ok(r) => matches(r, &sp.expected),
                Err(_) => false,
            };
            if !ok {
                eprintln!("serve: request {i} ({}): {resp:?}", sp.spec.name);
                out.failed += 1;
            }
            if !use_trace {
                out.latencies.push(*ms);
                if s.fresh[*i] {
                    out.verdicts.push(*ms);
                }
            }
        }
        if !use_trace {
            out.rss.push(rss);
            let trips: Vec<f64> = done.iter().map(|d| d.1).collect();
            out.pass_p99.push(stats::quantile(&trips, 0.99));
        }
        Ok(wall)
    })?;
    out.walls = walls;
    out.kernel_s = kernel_s;
    if ctx.trace {
        out.layers = trace_layers(ctx, &s, &traced.spans(), &traced_walls, &out.walls)?;
    }
    Ok(out)
}

/// The server-side chain of every request, replayed by the benchmark in
/// stream order on one thread, and the tickets through an in-process
/// scheduler on the same closed loop.
fn trace_layers(
    ctx: &Ctx,
    s: &Stream,
    round_trips: &[Span],
    traced_walls: &[f64],
    walls: &[f64],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let replay = Tracer::new(true);
    let log = fresh_log(ctx, s, "serve-replay.log")?;
    let mut store = replay
        .span("store.open", None, 0, |_| VerdictStore::open(&log))
        .map_err(|e| format!("cannot open store: {e}"))?;
    let entries = store.len();
    let mut counters = Counters::default();
    for (i, &k) in s.requests.iter().enumerate() {
        let sp = &s.specimens[k];
        let req = i as u64;
        let budget = StoredBudget::from(&request(sp.mode).opts);
        replay.span("request", None, req, |root| -> Result<(), String> {
            let p = Some(root);
            let spec = replay
                .span("format.parse", p, req, |_| ibgp_hunt::parse(&sp.text))
                .map_err(|e| format!("{}: {e}", sp.spec.name))?;
            let sig = replay.span("signature", p, req, |_| signature(&spec));
            let hit = replay.span("store.lookup", p, req, |_| {
                store.lookup(&sig, &budget, sp.mode).is_some()
            });
            if hit {
                return Ok(());
            }
            let Built::Reflection {
                topology,
                config,
                exits,
            } = replay
                .span("spec.build", p, req, |_| spec.build())
                .map_err(|e| format!("{}: {e}", sp.spec.name))?
            else {
                return Err(format!("{} is not a reflection spec", sp.spec.name));
            };
            let opts = ibgp_analysis::ExploreOptions::from(&request(sp.mode).opts.jobs(JOBS));
            if sp.mode == SolverMode::Sat {
                replay.span("solver.classify_sat", p, req, |_| {
                    black_box(ibgp_analysis::classify_sat(
                        &topology, config, &exits, &opts,
                    ))
                });
            } else {
                layers::search(
                    &replay,
                    p,
                    req,
                    &topology,
                    config,
                    &exits,
                    opts,
                    false,
                    &mut counters,
                );
            }
            replay
                .span("store.insert", p, req, |_| {
                    store.insert(&sig, &sp.expected, budget)
                })
                .map_err(|e| format!("store insert failed: {e}"))?;
            Ok(())
        })?;
    }
    let spans = replay.spans();

    // Tickets: the same stream through an in-process scheduler, no wire.
    let sched_log = fresh_log(ctx, s, "serve-sched.log")?;
    let sched = Scheduler::new(
        VerdictStore::open(&sched_log).map_err(|e| format!("cannot open store: {e}"))?,
        WORKERS,
    );
    let specs: Vec<ScenarioSpec> = s.specimens.iter().map(|sp| sp.spec.clone()).collect();
    let tickets = Tracer::new(true);
    closed_loop(REQUESTS, |i| {
        let k = s.requests[i];
        tickets.span("sched.ticket", None, i as u64, |_| {
            black_box(
                sched
                    .submit(specs[k].clone(), request(s.specimens[k].mode))
                    .wait(),
            )
        })
    });
    let ticket_spans = tickets.spans();

    let mut m = BTreeMap::new();
    layers::chain_metrics(&spans, &counters, &mut m);
    let hits = sched.cache_hits();
    m.insert(
        "solver.classify_sat_s",
        trace::total(&spans, "solver.classify_sat"),
    );
    m.insert(
        "solver.calls",
        trace::count(&spans, "solver.classify_sat") as f64,
    );
    m.insert("store.open_s", trace::total(&spans, "store.open"));
    m.insert("store.entries", entries as f64);
    m.insert("store.lookup_s", trace::total(&spans, "store.lookup"));
    m.insert("store.insert_s", trace::total(&spans, "store.insert"));
    m.insert("sched.requests", REQUESTS as f64);
    m.insert("sched.hits", hits as f64);
    m.insert("sched.hit_ratio", hits as f64 / REQUESTS as f64);
    m.insert("sched.searches_run", sched.searches_run() as f64);
    let ticket_s = trace::total(&ticket_spans, "sched.ticket");
    m.insert("sched.ticket_s", ticket_s);
    m.insert(
        "server.overhead_s",
        trace::total(round_trips, "client.round_trip") - ticket_s,
    );
    let mut all = round_trips.to_vec();
    all.extend(spans);
    all.extend(ticket_spans);
    layers::finish(ctx, "serve", &mut m, &all, traced_walls, walls)?;
    Ok(m)
}
