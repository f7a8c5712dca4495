//! The repository's benchmark: four named workloads over the
//! classification paths, timed end to end (tracing off) or per layer
//! (tracing on), with every verdict checked against an oracle.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corpus|hunt|lp|serve> --seed N --seconds N --trace <0|1> [--campaign N]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md` for what each workload and metric means.

mod calib;
mod corpus;
mod hunt;
mod layers;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Campaign seed of the pinned hunt and lp slices (`--campaign`).
pub const DEFAULT_CAMPAIGN: u64 = 7;
/// The holdout campaign seed: a claim measured on the default campaign
/// is confirmed on this one before it is accepted.
pub const HOLDOUT_CAMPAIGN: u64 = 11;
/// Worker threads of the deep `corpus` search: the machine the benchmark
/// was defined on has two cores. The server of `serve` resolves its own
/// count (auto), which is the same there.
pub const JOBS: usize = 2;

/// The end-to-end metrics every workload reports with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

pub struct Ctx {
    /// Drives the benchmark's own draws: submission order, request mix.
    pub seed: u64,
    /// Campaign seed of the generated specimen slices.
    pub campaign: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for verdict stores, removed at exit.
    pub work: PathBuf,
    /// The host-speed kernel. It first runs before the workload starts,
    /// which also brings the CPU up to speed before set-up is timed.
    pub calib: RefCell<calib::Calib>,
}

/// Run passes until the measuring window closes (at least one runs).
/// A traced run alternates untraced and traced passes, at least one of
/// each, so the difference between them is the tracing overhead.
/// `pass(traced)` returns the pass's wall clock. The host-speed kernel
/// runs after each pass. The walls of the untraced and of the traced
/// passes come back, with the kernel's mean time over the run.
pub fn repeat(
    ctx: &Ctx,
    mut pass: impl FnMut(bool) -> Result<f64, String>,
) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let (mut walls, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < ctx.seconds || (ctx.trace && traced.is_empty()) {
        let use_trace = ctx.trace && walls.len() > traced.len();
        let wall = pass(use_trace)?;
        ctx.calib.borrow_mut().after(wall);
        if use_trace {
            traced.push(wall);
        } else {
            walls.push(wall);
        }
    }
    Ok((walls, traced, ctx.calib.borrow().mean()))
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Set-up durations, seconds.
    pub setup: Vec<f64>,
    /// One entry per measured pass: its wall clock, seconds.
    pub walls: Vec<f64>,
    /// Per-request round trips, milliseconds.
    pub latencies: Vec<f64>,
    /// Each pass's p99 round trip, milliseconds, where a pass holds at
    /// least 1,000 requests; the run reports their median.
    pub pass_p99: Vec<f64>,
    /// Per-verdict times to verdict, milliseconds.
    pub verdicts: Vec<f64>,
    /// Peak resident memory of each measured pass, MiB.
    pub rss: Vec<f64>,
    /// Requests in one pass.
    pub per_pass: usize,
    /// Mean time of the host-speed kernel over the run, seconds.
    pub kernel_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    fn p99(&self) -> f64 {
        if self.pass_p99.is_empty() {
            stats::quantile(&self.latencies, 0.99)
        } else {
            stats::median(&self.pass_p99)
        }
    }

    /// The end-to-end metrics. With `host` set, every timing is scaled
    /// to the reference host speed: multiplied by the reference kernel
    /// time over this run's (`calib`). Without it they are as measured.
    fn end_to_end(&self, host: bool) -> BTreeMap<&'static str, f64> {
        let k = if host && self.kernel_s > 0.0 {
            calib::REFERENCE_S / self.kernel_s
        } else {
            1.0
        };
        let rates: Vec<f64> = self
            .walls
            .iter()
            .map(|w| self.per_pass as f64 / w)
            .collect();
        BTreeMap::from([
            ("setup_s", k * stats::median(&self.setup)),
            ("wall_s", k * stats::median(&self.walls)),
            ("verdict_p50_ms", k * stats::median(&self.verdicts)),
            ("requests_per_s", stats::median(&rates) / k),
            ("latency_p50_ms", k * stats::median(&self.latencies)),
            ("latency_p99_ms", k * self.p99()),
            ("peak_rss_mb", stats::median(&self.rss)),
        ])
    }
}

/// Run one measured pass: reset the process's resident-memory
/// high-water mark, run `f`, and return its result with the pass's peak
/// in MiB. Where the mark cannot be reset this is the process peak.
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let out = f();
    (out, peak_rss_mb())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    campaign: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        campaign: DEFAULT_CAMPAIGN,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--campaign" => args.campaign = num(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (corpus, hunt, lp or serve)".into());
    }
    Ok(args)
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<Run, String> {
    if !Path::new("corpus/goldens.json").is_file() {
        return Err("run from the repository root: corpus/goldens.json not found".into());
    }
    let work = PathBuf::from(".bench_out").join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        campaign: args.campaign,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.clone(),
        calib: RefCell::new(calib::Calib::new()),
    };
    let result = match args.workload.as_str() {
        "corpus" => corpus::run(&ctx),
        "hunt" => hunt::run(&ctx, hunt::Mode::Hunt),
        "lp" => hunt::run(&ctx, hunt::Mode::Lp),
        "serve" => serve::run(&ctx),
        other => Err(format!(
            "unknown workload `{other}` (corpus, hunt, lp or serve)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Stack of the thread the benchmark runs on.
const STACK_BYTES: usize = 64 << 20;

/// The benchmark runs on a thread of its own, not on the main thread. The
/// main thread's stack starts wherever the environment and the arguments
/// end, which address randomization and the caller's environment move
/// within a page; the set-up time of `hunt` split by process into ~0.18
/// and ~0.35 ms with that offset. A spawned thread's stack and heap start
/// page-aligned, so every run gets the same offsets.
fn main() -> ExitCode {
    std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(STACK_BYTES)
        .spawn(bench_main)
        .and_then(|t| t.join().map_err(|_| std::io::Error::other("benchmark thread panicked")))
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        })
}

fn bench_main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let walls: Vec<String> = run.walls.iter().map(|w| format!("{w:.4}")).collect();
    println!(
        "{}: {} untraced pass(es), wall_s each: {}",
        args.workload,
        run.walls.len(),
        walls.join(" ")
    );
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "{}: failed_frac {failed_frac} ({} failed of {} attempted)",
        args.workload, run.failed, run.attempted
    );
    println!(
        "{}: host-speed kernel {:.6} s mean, reference {} s",
        args.workload,
        run.kernel_s,
        calib::REFERENCE_S
    );
    let measured = run.end_to_end(false);
    let (values, names): (BTreeMap<&'static str, f64>, &[(&str, &str)]) = if args.trace {
        (run.layers.clone(), &layers::PER_LAYER)
    } else {
        (run.end_to_end(true), &END_TO_END)
    };
    if !args.trace {
        for (name, unit) in END_TO_END {
            println!(
                "{}: {name} as measured = {} {unit}",
                args.workload,
                measured.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    for (name, unit) in names {
        println!(
            "{}: {name} = {} {unit}",
            args.workload,
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
        json_metrics(&values, names)
    );
    ExitCode::SUCCESS
}
