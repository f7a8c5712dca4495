//! Command implementations.

use crate::args::{parse_formula, Command, SearchArgs};
use ibgp::npc::{assignment_from_best, reduce, schedule_for, solve};
use ibgp::proto::variants::ProtocolConfig;
use ibgp::scenarios::{all_scenarios, by_name};
use ibgp::sim::{Engine, SyncEngine};
use ibgp::theorems::verify_paper_theorems;
use ibgp::{ExploreOptions, Network, ProtocolVariant, Scenario};
use ibgp_hunt::{HuntOptions, Verdict};
use std::path::Path;

/// Search-option conversions live here (not in `args`) so the parser
/// stays free of analysis-layer dependencies. `jobs = 0` is the parsed
/// "auto" default; both option types resolve it downstream. The one
/// lowering is `SearchArgs -> HuntOptions`; the explorer's options come
/// from hunt's own `From<&HuntOptions>` impl, so a new knob added there
/// reaches every verb without touching this file.
impl SearchArgs {
    fn hunt_options(&self) -> HuntOptions {
        let mut opts = HuntOptions::new()
            .max_states(self.max_states)
            .jobs(self.jobs)
            .symmetry(self.symmetry)
            .por(self.por)
            .solver(self.solver)
            .loop_prevention(self.loop_prevention);
        if let Some(b) = self.max_bytes {
            opts = opts.max_bytes(b);
        }
        if let Some(ms) = self.deadline_ms {
            opts = opts.deadline(std::time::Instant::now() + std::time::Duration::from_millis(ms));
        }
        opts
    }

    fn explore_options(&self) -> ExploreOptions {
        ExploreOptions::from(&self.hunt_options())
    }
}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::List => list(),
        Command::Classify {
            scenario,
            variant,
            search,
        } => {
            if is_spec_path(&scenario) {
                classify_file(&scenario, search)
            } else {
                classify(&scenario, variant, search)
            }
        }
        Command::Run {
            scenario,
            variant,
            steps,
            search,
        } => {
            if is_spec_path(&scenario) {
                classify_file(&scenario, search)
            } else {
                converge(&scenario, variant, steps)
            }
        }
        Command::Gallery { search } => gallery(search),
        Command::Dot { scenario } => dot(&scenario),
        Command::Theorems { scenario, steps } => theorems(&scenario, steps),
        Command::Sat { formula, steps } => sat(&formula, steps),
        Command::Explain {
            scenario,
            router,
            variant,
            steps,
        } => explain(&scenario, router, variant, steps),
        Command::Hunt {
            seed,
            budget,
            out,
            families,
            search,
        } => hunt(seed, budget, &out, families.as_deref(), search)?,
        Command::Minimize { file, out, search } => minimize_file(&file, out.as_deref(), search)?,
        Command::CorpusStats { dir } => corpus_stats(&dir)?,
        Command::Serve {
            addr,
            cache,
            workers,
            search,
        } => serve(&addr, cache.as_deref(), workers, search)?,
        Command::Batch {
            dir,
            out,
            cache,
            workers,
            search,
        } => batch(&dir, out.as_deref(), cache.as_deref(), workers, search)?,
        Command::Submit { file, addr, search } => submit(&file, &addr, search)?,
    }
    Ok(())
}

/// `serve`/`batch`/`submit` carry budgets per request, not one absolute
/// deadline computed at argv-parse time: keep the relative
/// `--deadline-ms` and apply it when each search starts.
fn scheduler_request(args: &SearchArgs) -> ibgp_serve::Request {
    let mut opts = args.hunt_options();
    opts.deadline = None;
    ibgp_serve::Request {
        opts,
        deadline_ms: args.deadline_ms,
    }
}

fn open_store(cache: Option<&str>) -> Result<ibgp_serve::VerdictStore, String> {
    match cache {
        Some(path) => ibgp_serve::VerdictStore::open(Path::new(path))
            .map_err(|e| format!("cannot open verdict store `{path}`: {e}")),
        None => Ok(ibgp_serve::VerdictStore::in_memory()),
    }
}

fn serve(
    addr: &str,
    cache: Option<&str>,
    workers: usize,
    search: SearchArgs,
) -> Result<(), String> {
    if search != SearchArgs::default() {
        eprintln!("note: `serve` ignores search flags — budgets arrive per request");
    }
    let store = open_store(cache)?;
    match cache {
        Some(path) => println!("verdict store: {} entries from {path}", store.len()),
        None => println!("verdict store: in-memory (no --cache)"),
    }
    let sched = std::sync::Arc::new(ibgp_serve::Scheduler::new(store, workers));
    let server =
        ibgp_serve::Server::bind(addr, sched).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    println!(
        "listening on {} ({} worker(s))",
        server.local_addr(),
        workers
    );
    // The daemon runs until killed; the accept loop owns the listener.
    loop {
        std::thread::park();
    }
}

fn batch(
    dir: &str,
    out: Option<&str>,
    cache: Option<&str>,
    workers: usize,
    search: SearchArgs,
) -> Result<(), String> {
    let store = open_store(cache)?;
    let sched = ibgp_serve::Scheduler::new(store, workers);
    let outcome = ibgp_serve::run_batch(Path::new(dir), &sched, scheduler_request(&search))?;
    for e in &outcome.entries {
        let how = if e.cached {
            "cache hit".to_string()
        } else {
            format!("{} states", e.verdict.states)
        };
        println!("{:<32} {} ({how})", e.file, e.verdict.class);
    }
    println!(
        "batch: {} specimen(s), {} search(es) run, {} cache hit(s)",
        outcome.entries.len(),
        outcome.searches_run,
        outcome.cache_hits
    );
    if let Some(dest) = out {
        let report = ibgp_serve::report_json(&outcome.entries);
        std::fs::write(dest, report).map_err(|e| format!("cannot write `{dest}`: {e}"))?;
        println!("wrote {dest}");
    }
    Ok(())
}

fn submit(file: &str, addr: &str, search: SearchArgs) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let request = scheduler_request(&search);
    let resp = ibgp_serve::submit_text(addr, &text, &request)
        .map_err(|e| format!("cannot reach daemon at `{addr}`: {e}"))?;
    if !resp.is_ok() {
        return Err(resp
            .status
            .strip_prefix("err ")
            .unwrap_or(&resp.status)
            .to_string());
    }
    let parse_field = |key: &str| -> Result<String, String> {
        resp.field(key)
            .map(str::to_string)
            .ok_or_else(|| format!("malformed response: missing `{key}`"))
    };
    let class = ibgp_serve::class_from_keyword(&parse_field("class")?)
        .ok_or("malformed response: bad class")?;
    let states: usize = parse_field("states")?
        .parse()
        .map_err(|_| "malformed response: bad states")?;
    let stop = ibgp::types::StopReason::from_token(&parse_field("stop")?)
        .ok_or("malformed response: bad stop token")?;
    // Daemons predating the solver backend omit `origin`; default search.
    let origin = resp
        .field("origin")
        .map(|t| ibgp::types::VerdictOrigin::from_token(t).ok_or("malformed response: bad origin"))
        .transpose()?
        .unwrap_or_default();
    let mut stable_vectors = Vec::new();
    for line in &resp.body {
        let Some(tok) = line.strip_prefix("vector ") else {
            continue;
        };
        let mut vs =
            ibgp_serve::vectors_from_token(tok).ok_or("malformed response: bad stable vector")?;
        stable_vectors.append(&mut vs);
    }
    let complete = stop.is_complete();
    let stable_count =
        (complete && origin == ibgp::types::VerdictOrigin::Solver).then_some(stable_vectors.len());
    let verdict = Verdict {
        class,
        states,
        complete,
        stop,
        stable_vectors,
        metrics: None,
        origin,
        stable_count,
    };
    print_verdict(&format!("{file} (via {addr})"), &verdict);
    println!("  cached: {}", parse_field("cached")?);
    Ok(())
}

/// Does a `classify`/`run` argument name an on-disk `.ibgp` specimen
/// rather than a catalog scenario? Anything with a path separator or the
/// `.ibgp` extension is treated as a file.
fn is_spec_path(arg: &str) -> bool {
    arg.ends_with(".ibgp") || arg.contains('/') || arg.contains(std::path::MAIN_SEPARATOR)
}

fn lookup(name: &str) -> Scenario {
    by_name(name).unwrap_or_else(|| {
        eprintln!("unknown scenario `{name}`; try `ibgp-cli list`");
        std::process::exit(2);
    })
}

fn list() {
    for s in all_scenarios() {
        println!(
            "{:<8} {:>2} routers, {} exits  {}",
            s.name,
            s.topology.len(),
            s.exits.len(),
            s.description
        );
    }
}

/// The single verdict-printing path shared by `classify` (catalog and
/// file), `run <file>`, and `batch`. All wording lives in
/// [`Verdict::render`] so front ends cannot drift.
fn print_verdict(label: &str, v: &Verdict) {
    print!("{}", v.render(label));
}

fn classify(name: &str, variant: ProtocolVariant, opts: SearchArgs) {
    let s = lookup(name);
    let n = Network::from_scenario(&s, variant);
    let (class, reach) = n.classify(opts.explore_options());
    print_verdict(
        &format!("{name} under {variant}"),
        &Verdict::new(class, reach),
    );
}

fn load_spec_or_die(path: &str) -> ibgp_hunt::ScenarioSpec {
    ibgp_hunt::load_spec(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot load `{path}`: {e}");
        std::process::exit(2);
    })
}

fn classify_file(path: &str, opts: SearchArgs) {
    let mut spec = load_spec_or_die(path);
    let opts = opts.hunt_options();
    // Fold `--loop-prevention` into the spec so the verdict label (which
    // shows `protocol_label`) reports the mechanics actually classified
    // under, whichever side turned them on.
    if opts.loop_prevention {
        if let ibgp_hunt::SpecKind::Reflection(r) = &mut spec.kind {
            r.loop_prevention = true;
        }
    }
    match ibgp_hunt::classify_spec(&spec, &opts) {
        Ok(verdict) => {
            let label = format!(
                "{} ({}, {})",
                spec.name,
                spec.kind.keyword(),
                spec.protocol_label()
            );
            print_verdict(&label, &verdict);
        }
        Err(e) => {
            eprintln!("invalid scenario `{path}`: {e}");
            std::process::exit(2);
        }
    }
}

fn hunt(
    seed: u64,
    budget: usize,
    out: &str,
    families: Option<&str>,
    opts: SearchArgs,
) -> Result<(), String> {
    let mut cfg = ibgp_hunt::CampaignConfig::new(seed, budget, out.into());
    if let Some(list) = families {
        cfg.families = ibgp_hunt::Family::parse_list(list)?;
        if cfg.families.is_empty() {
            return Err("--families selected no families".into());
        }
    }
    cfg.options = opts.hunt_options();
    let report = ibgp_hunt::run_campaign(&cfg).map_err(|e| e.to_string())?;
    println!(
        "hunt: seed {seed}, {} topologies into {out}/",
        report.generated
    );
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>5} {:>7} {:>5}",
        "family", "gen", "osc", "bi", "inc", "stable", "dup"
    );
    for y in &report.yields {
        println!(
            "{:<16} {:>5} {:>5} {:>5} {:>5} {:>7} {:>5}",
            y.family.keyword(),
            y.generated,
            y.oscillating,
            y.bistable,
            y.inconclusive,
            y.stable,
            y.duplicates
        );
    }
    println!(
        "filed {} new specimens ({} duplicates skipped), yield {:.1}%",
        report.filed,
        report.duplicates,
        100.0 * report.yield_rate()
    );
    // Rate off the campaign's own wall clock — never off summed
    // per-search (or per-worker) time, which would overstate it.
    let wall = report.elapsed.as_secs_f64();
    let rate = if wall > 0.0 {
        report.metrics.states_visited as f64 / wall
    } else {
        0.0
    };
    println!(
        "search totals: {} states visited in {:.2}s wall clock ({:.0} states/sec, max {} worker(s))",
        report.metrics.states_visited,
        wall,
        rate,
        report.metrics.workers.max(1)
    );
    Ok(())
}

fn minimize_file(path: &str, out: Option<&str>, opts: SearchArgs) -> Result<(), String> {
    let spec = load_spec_or_die(path);
    let opts = opts.hunt_options();
    let result = ibgp_hunt::minimize(&spec, &opts).map_err(|e| e.to_string())?;
    println!(
        "minimize {}: verdict `{}` preserved over {} reclassification(s)",
        spec.name, result.verdict.class, result.reclassifications
    );
    println!(
        "  removed {} router(s), {} session(s), {} exit(s): {} -> {} routers, {} -> {} exits",
        result.removed_routers,
        result.removed_sessions,
        result.removed_exits,
        spec.routers,
        result.spec.routers,
        spec.exits.len(),
        result.spec.exits.len()
    );
    let text = ibgp_hunt::print(&result.spec);
    match out {
        Some(dest) => {
            std::fs::write(dest, &text).map_err(|e| format!("cannot write `{dest}`: {e}"))?;
            println!("  wrote {dest}");
        }
        None => {
            println!("---");
            print!("{text}");
        }
    }
    Ok(())
}

fn corpus_stats(dir: &str) -> Result<(), String> {
    let stats =
        ibgp_hunt::stats(Path::new(dir)).map_err(|e| format!("cannot read `{dir}`: {e}"))?;
    print!("{stats}");
    Ok(())
}

fn converge(name: &str, variant: ProtocolVariant, steps: u64) {
    let s = lookup(name);
    let n = Network::from_scenario(&s, variant);
    let result = n.converge(steps);
    println!("{name} under {variant}: {}", result.outcome);
    println!(
        "  messages {}  paths advertised {}  best changes {}",
        result.metrics.messages, result.metrics.paths_advertised, result.metrics.best_changes
    );
    for (i, route) in result.best_routes.iter().enumerate() {
        match route {
            Some(r) => println!("  r{i}: {r}"),
            None => println!("  r{i}: (no route)"),
        }
    }
}

fn gallery(opts: SearchArgs) {
    println!(
        "{:<8} {:<9} {:>7} {:>7}  class",
        "scenario", "protocol", "states", "stable"
    );
    for s in all_scenarios() {
        for variant in [
            ProtocolVariant::Standard,
            ProtocolVariant::Walton,
            ProtocolVariant::Modified,
        ] {
            let (class, reach) =
                Network::from_scenario(&s, variant).classify(opts.explore_options());
            // Solver-origin rows count *all* stable routings (reachable
            // or not) — tag the provenance so the columns stay honest.
            let stable = if reach.origin == ibgp::types::VerdictOrigin::Solver {
                format!("{} (solver)", reach.stable_vectors.len())
            } else {
                reach.stable_vectors.len().to_string()
            };
            println!(
                "{:<8} {:<9} {:>7} {:>7}  {}",
                s.name,
                variant.to_string(),
                reach.states,
                stable,
                class
            );
        }
    }
}

fn dot(name: &str) {
    let s = lookup(name);
    let n = Network::from_scenario(&s, ProtocolVariant::Standard);
    print!("{}", n.to_dot());
}

fn theorems(name: &str, steps: u64) {
    let s = lookup(name);
    let n = Network::from_scenario(&s, ProtocolVariant::Modified);
    let report = verify_paper_theorems(&n, 6, steps);
    println!(
        "§7 checks on {name} (modified protocol, {} schedules):",
        report.schedules
    );
    println!("  converges under every schedule : {}", report.converges);
    println!(
        "  unique fixed point             : {}",
        report.unique_outcome
    );
    println!(
        "  GoodExits = S' everywhere      : {}",
        report.good_exits_equal_s_prime
    );
    println!("  forwarding loop-free           : {}", report.loop_free);
    match report.flush_ok {
        Some(ok) => println!("  withdrawn path flushes         : {ok}"),
        None => println!("  withdrawn path flushes         : (no exits to withdraw)"),
    }
    println!(
        "  => {}",
        if report.all_hold() {
            "ALL HOLD"
        } else {
            "VIOLATION"
        }
    );
}

fn sat(formula: &str, steps: u64) {
    let formula = match parse_formula(formula) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad formula: {e}");
            std::process::exit(2);
        }
    };
    println!("J = {formula}");
    let sr = reduce(&formula);
    println!(
        "SR_J: {} routers, {} exit paths",
        sr.node_count(),
        sr.exits.len()
    );
    match solve(&formula) {
        Some(assignment) => {
            println!("DPLL: satisfiable, e.g. {assignment:?}");
            let mut schedule = schedule_for(&sr, &assignment);
            let mut engine =
                SyncEngine::new(&sr.topology, ProtocolConfig::STANDARD, sr.exits.clone());
            let outcome = engine.run(&mut schedule, steps);
            println!("routing side: {outcome}");
            if let Some(read_back) = assignment_from_best(&sr, &engine.best_vector()) {
                println!(
                    "read back from the stable routing state: {read_back:?} (satisfies J: {})",
                    sr.formula.eval(&read_back)
                );
            }
        }
        None => {
            println!("DPLL: unsatisfiable — SR_J has no stable configuration");
        }
    }
}

fn explain(name: &str, router: u32, variant: ProtocolVariant, steps: u64) {
    use ibgp::proto::choose_best_traced;
    use ibgp::sim::RoundRobin;
    use ibgp::RouterId;
    let s = lookup(name);
    let u = RouterId::new(router);
    if u.index() >= s.topology.len() {
        eprintln!(
            "router {router} out of range (scenario has {} routers)",
            s.topology.len()
        );
        std::process::exit(2);
    }
    let n = Network::from_scenario(&s, variant);
    let mut engine = n.sync_engine();
    let outcome = engine.run(&mut RoundRobin::new(), steps);
    println!("{name} under {variant}: {outcome}");
    let candidates = engine.candidate_routes(u);
    println!("candidates at r{router} ({}):", candidates.len());
    for c in &candidates {
        println!("  {c}");
    }
    let (best, trace) = choose_best_traced(n.config().policy, &candidates);
    println!("decision: {}", trace);
    match (best, trace.deciding_rule()) {
        (Some(b), Some(rule)) => println!("winner: {} (decided by rule `{rule}`)", b.exit()),
        (Some(b), None) => println!("winner: {} (single candidate)", b.exit()),
        (None, _) => println!("no route"),
    }
}
