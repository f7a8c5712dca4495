//! The per-layer replay: the call chain below `classify_spec`, made by
//! the benchmark itself on the workload's inputs so that each layer gets
//! its own span. parse → signature → `ScenarioSpec::build` →
//! `SpfTable::compute` → `explore` / `explore_confed` / `explore_hier` →
//! `ibgp_analysis::classify`. Counters come from the returned `Metrics`
//! and result types.

use crate::trace::{self, Span, Tracer};
use crate::{stats, Ctx};
use ibgp_analysis::ExploreOptions;
use ibgp_hunt::{signature, Built, HuntOptions, ScenarioSpec, SpecKind};
use ibgp_proto::variants::ProtocolConfig;
use ibgp_topology::{PhysicalGraph, SpfTable, Topology};
use ibgp_types::{ExitPathRef, IgpCost, RouterId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("format.parse_s", "s"),
    ("format.parse_calls", "count"),
    ("signature.busy_s", "s"),
    ("signature.calls", "count"),
    ("spec.build_s", "s"),
    ("spf.compute_s", "s"),
    ("analysis.explore_s", "s"),
    ("analysis.states", "count"),
    ("analysis.states_per_s", "1/s"),
    ("analysis.memo_hit_rate", "ratio"),
    ("analysis.memo_hits", "count"),
    ("analysis.memo_misses", "count"),
    ("analysis.peak_queue", "count"),
    ("analysis.handoffs", "count"),
    ("analysis.visited_bytes", "bytes"),
    ("analysis.probe_s", "s"),
    ("analysis.jobs2_speedup", "ratio"),
    ("analysis.lp_explore_s", "s"),
    ("analysis.lp_states_per_s", "1/s"),
    ("confed.explore_s", "s"),
    ("confed.states", "count"),
    ("hierarchy.explore_s", "s"),
    ("hierarchy.states", "count"),
    ("solver.classify_sat_s", "s"),
    ("solver.calls", "count"),
    ("store.open_s", "s"),
    ("store.entries", "count"),
    ("store.lookup_s", "s"),
    ("store.insert_s", "s"),
    ("sched.hit_ratio", "ratio"),
    ("sched.hits", "count"),
    ("sched.requests", "count"),
    ("sched.searches_run", "count"),
    ("sched.ticket_s", "s"),
    ("server.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("breakdown.top_share", "ratio"),
];

/// Counters the replay accumulates from returned search results.
#[derive(Debug, Default)]
pub struct Counters {
    states: u64,
    lp_states: u64,
    memo_hits: u64,
    memo_misses: u64,
    peak_queue: u64,
    handoffs: u64,
    visited_bytes: u64,
    confed_states: u64,
    hier_states: u64,
    probe_s: f64,
}

/// The physical graph of `spec`, rebuilt from its links so SPF can be
/// timed on its own for every scenario kind.
fn physical(spec: &ScenarioSpec) -> PhysicalGraph {
    let mut g = PhysicalGraph::new(spec.routers);
    for &(u, v, c) in &spec.links {
        g.add_link(RouterId::new(u), RouterId::new(v), IgpCost::new(c))
            .expect("links of a spec that built are valid");
    }
    g
}

/// Replay the layer chain for one specimen under `opts`, recording one
/// span per layer call under a `replay` root span.
pub fn replay(tr: &Tracer, req: u64, spec: &ScenarioSpec, opts: &HuntOptions, c: &mut Counters) {
    tr.span("replay", None, req, |root| {
        let p = Some(root);
        tr.span("signature", p, req, |_| black_box(signature(spec)));
        let built = tr
            .span("spec.build", p, req, |_| spec.build())
            .expect("workload specimens build");
        let g = physical(spec);
        tr.span("spf.compute", p, req, |_| black_box(SpfTable::compute(&g)));
        match built {
            Built::Reflection {
                topology,
                config,
                exits,
            } => {
                let lp = opts.loop_prevention
                    || matches!(&spec.kind, SpecKind::Reflection(r) if r.loop_prevention);
                let explore = ExploreOptions::from(opts).loop_prevention(lp);
                search(tr, p, req, &topology, config, &exits, explore, lp, c);
            }
            Built::Confed {
                topology,
                mode,
                exits,
            } => {
                let r = tr.span("confed.explore", p, req, |_| {
                    ibgp_confed::explore_confed(&topology, mode, exits, opts.max_states)
                });
                c.confed_states += r.states as u64;
            }
            Built::Hierarchy {
                topology,
                mode,
                exits,
            } => {
                let r = tr.span("hierarchy.explore", p, req, |_| {
                    ibgp_hierarchy::explore_hier(&topology, mode, exits, opts.max_states)
                });
                c.hier_states += r.states as u64;
            }
        }
    });
}

/// A flat-reflection search as two calls from outside: `explore` (its
/// own span) and then `classify`, whose time beyond the explore it runs
/// inside is the all-at-once probe.
#[allow(clippy::too_many_arguments)]
pub fn search(
    tr: &Tracer,
    parent: Option<u64>,
    req: u64,
    topology: &Topology,
    config: ProtocolConfig,
    exits: &[ExitPathRef],
    explore: ExploreOptions,
    lp: bool,
    c: &mut Counters,
) {
    let name = if lp {
        "analysis.lp_explore"
    } else {
        "analysis.explore"
    };
    let reach = tr.span(name, parent, req, |_| {
        ibgp_analysis::explore(topology, config, exits.to_vec(), explore.clone())
    });
    let m = &reach.metrics;
    if lp {
        c.lp_states += reach.states as u64;
    } else {
        c.states += reach.states as u64;
    }
    c.memo_hits += m.cache_hits;
    c.memo_misses += m.cache_misses;
    c.peak_queue = c.peak_queue.max(m.peak_queue);
    c.handoffs += m.handoffs;
    c.visited_bytes = c.visited_bytes.max(m.visited_bytes);
    let (wall, inner) = tr.span("analysis.classify", parent, req, |_| {
        let t = Instant::now();
        let (_, r) = ibgp_analysis::classify(topology, config, exits, explore);
        (
            t.elapsed().as_secs_f64(),
            r.metrics.elapsed_nanos as f64 / 1e9,
        )
    });
    c.probe_s += (wall - inner).max(0.0);
}

/// Per-layer metrics from the replay spans and counters.
pub fn chain_metrics(spans: &[Span], c: &Counters, out: &mut BTreeMap<&'static str, f64>) {
    let explore_s = trace::total(spans, "analysis.explore");
    let lp_explore_s = trace::total(spans, "analysis.lp_explore");
    let per_s = |n: u64, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
    let lookups = c.memo_hits + c.memo_misses;
    out.insert("format.parse_s", trace::total(spans, "format.parse"));
    out.insert(
        "format.parse_calls",
        trace::count(spans, "format.parse") as f64,
    );
    out.insert("signature.busy_s", trace::total(spans, "signature"));
    out.insert("signature.calls", trace::count(spans, "signature") as f64);
    out.insert("spec.build_s", trace::total(spans, "spec.build"));
    out.insert("spf.compute_s", trace::total(spans, "spf.compute"));
    out.insert("analysis.explore_s", explore_s);
    out.insert("analysis.states", (c.states + c.lp_states) as f64);
    out.insert("analysis.states_per_s", per_s(c.states, explore_s));
    out.insert(
        "analysis.memo_hit_rate",
        if lookups > 0 {
            c.memo_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    out.insert("analysis.memo_hits", c.memo_hits as f64);
    out.insert("analysis.memo_misses", c.memo_misses as f64);
    out.insert("analysis.peak_queue", c.peak_queue as f64);
    out.insert("analysis.handoffs", c.handoffs as f64);
    out.insert("analysis.visited_bytes", c.visited_bytes as f64);
    out.insert("analysis.probe_s", c.probe_s);
    out.insert("analysis.lp_explore_s", lp_explore_s);
    out.insert("analysis.lp_states_per_s", per_s(c.lp_states, lp_explore_s));
    out.insert("confed.explore_s", trace::total(spans, "confed.explore"));
    out.insert("confed.states", c.confed_states as f64);
    out.insert(
        "hierarchy.explore_s",
        trace::total(spans, "hierarchy.explore"),
    );
    out.insert("hierarchy.states", c.hier_states as f64);
}

/// The metrics every traced run ends with: the tracing overhead (median
/// traced pass over median untraced pass, minus 1), the span count and
/// the layer ranking. The spans go to
/// `.bench_out/trace-<workload>-seed<N>.jsonl`.
pub fn finish(
    ctx: &Ctx,
    workload: &str,
    m: &mut BTreeMap<&'static str, f64>,
    spans: &[Span],
    traced_walls: &[f64],
    walls: &[f64],
) -> Result<(), String> {
    m.insert(
        "trace.overhead_frac",
        stats::median(traced_walls) / stats::median(walls) - 1.0,
    );
    m.insert("trace.spans", spans.len() as f64);
    let top_share = breakdown(workload, m);
    m.insert("breakdown.top_share", top_share);
    let path = Path::new(".bench_out").join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
    trace::write_jsonl(spans, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{workload}: wrote {} spans to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

/// The layers whose spans have no children, so their busy time is their
/// self time. `analysis.probe_s` stands for `classify` minus the search
/// it runs inside; `server.overhead_s` for a round trip minus its ticket.
const LEAF_LAYERS: [&str; 14] = [
    "format.parse_s",
    "signature.busy_s",
    "spec.build_s",
    "spf.compute_s",
    "analysis.explore_s",
    "analysis.lp_explore_s",
    "analysis.probe_s",
    "confed.explore_s",
    "hierarchy.explore_s",
    "solver.classify_sat_s",
    "store.open_s",
    "store.lookup_s",
    "store.insert_s",
    "server.overhead_s",
];

/// Rank the layers by self time, print the ranking, and return the top
/// layer's share of the total.
fn breakdown(workload: &str, m: &BTreeMap<&'static str, f64>) -> f64 {
    let mut ranked: Vec<(&str, f64)> = LEAF_LAYERS
        .iter()
        .map(|&name| (name, m.get(name).copied().unwrap_or(0.0)))
        .filter(|&(_, secs)| secs > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = ranked.iter().map(|r| r.1).sum();
    let Some(&(top, secs)) = ranked.first() else {
        return 0.0;
    };
    println!("breakdown {workload}: layers by self time (total {total:.6} s)");
    for (name, secs) in &ranked {
        println!(
            "  {name:<24} {secs:>12.6} s  {:>6.2}%",
            100.0 * secs / total
        );
    }
    let share = secs / total;
    println!(
        "breakdown {workload}: top layer {top} with {:.1}% of self time",
        100.0 * share
    );
    share
}
