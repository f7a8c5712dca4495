//! Hand-rolled argument parsing (the workspace deliberately uses no CLI
//! dependency).

use ibgp::{ProtocolVariant, SolverMode};

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage: ibgp-cli <command> [args]

commands:
  list                        scenarios in the catalog
  classify <scenario|file>    exhaustive oscillation analysis (catalog name or .ibgp file)
  run <scenario|file>         converge a catalog scenario, or classify a .ibgp file
  gallery                     every scenario x every protocol
  dot <scenario>              Graphviz of the topology
  theorems <scenario>         the paper's §7 checks (modified protocol)
  sat <formula>               3-SAT via the §5 routing reduction
  explain <scenario> <router> converge, then show the router's rule-by-rule decision
  hunt                        seeded oscillation-hunting campaign into a corpus dir
  minimize <file>             delta-debug a .ibgp specimen, preserving its verdict
  corpus stats [dir]          summarize a corpus directory (default ./corpus)
  serve                       classification daemon over a signature-keyed verdict store
  batch <dir>                 classify every .ibgp under a directory through the store
  submit <file>               send one .ibgp to a running `serve` daemon

options:
  --variant standard|walton|modified   protocol (default standard)
  --max-states N                       search cap (default 500000)
  --jobs N                             search worker threads, N >= 1
                                       (default: one per CPU, capped at 8)
  --symmetry                           collapse automorphism orbits during search
  --por                                partial-order reduction: prune provably
                                       commuting activation interleavings (exact)
  --max-bytes N                        visited-set byte budget (default unbounded)
  --deadline-ms N                      per-search wall-clock deadline in milliseconds
  --solver sat|search                  classification backend (default search);
                                       `sat` enumerates all stable routings by
                                       constraint solving, no reachable-state search
  --loop-prevention                    message-level reflection mechanics:
                                       ORIGINATOR_ID/CLUSTER_LIST stamping, cluster-loop
                                       drop, SSLD, the reflect-to-whom matrix (reflection
                                       specs only; the search declines symmetry/POR,
                                       and the sat solver falls back)
  --steps N                            step budget (default 100000)
  --seed N                             hunt: campaign seed (default 1)
  --budget N                           hunt: topologies to generate (default 100)
  --out PATH                           hunt: corpus dir (default ./corpus);
                                       minimize: output file; batch: report path
  --families a,b,...                   hunt: reflection,multi-reflector,hierarchy,confed,mesh
  --addr HOST:PORT                     serve/submit: daemon address (default 127.0.0.1:8642)
  --cache PATH                         serve/batch: verdict-store log (default: in-memory only)
  --workers N                          serve/batch: concurrent searches, N >= 1 (default 1)

formula syntax: clauses ';'-separated, literals ','-separated, negative
numbers negate, variables numbered from 1: \"1,2,-3;-1,3,2\"";

/// The search knobs every exploring verb shares (`classify`, `run`,
/// `gallery`, `hunt`, `minimize`), bundled so they travel together from
/// the parser to the search entry points and cannot drift apart
/// verb-by-verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchArgs {
    /// `--max-states N`.
    pub max_states: usize,
    /// `--jobs N` (N ≥ 1). `0` is the parser-internal "auto" sentinel:
    /// one worker per available CPU, capped in the analysis layer. The
    /// parser rejects an *explicit* `--jobs 0`.
    pub jobs: usize,
    /// `--symmetry`.
    pub symmetry: bool,
    /// `--por`.
    pub por: bool,
    /// `--max-bytes N`.
    pub max_bytes: Option<usize>,
    /// `--deadline-ms N` — per-search wall-clock budget, converted to an
    /// absolute deadline when the search starts.
    pub deadline_ms: Option<u64>,
    /// `--solver sat|search`.
    pub solver: SolverMode,
    /// `--loop-prevention`.
    pub loop_prevention: bool,
}

impl Default for SearchArgs {
    fn default() -> Self {
        Self {
            max_states: 500_000,
            jobs: 0,
            symmetry: false,
            por: false,
            max_bytes: None,
            deadline_ms: None,
            solver: SolverMode::Search,
            loop_prevention: false,
        }
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `list`
    List,
    /// `classify <scenario>`
    Classify {
        scenario: String,
        variant: ProtocolVariant,
        search: SearchArgs,
    },
    /// `run <scenario|file>`
    Run {
        scenario: String,
        variant: ProtocolVariant,
        steps: u64,
        search: SearchArgs,
    },
    /// `gallery`
    Gallery { search: SearchArgs },
    /// `dot <scenario>`
    Dot { scenario: String },
    /// `theorems <scenario>`
    Theorems { scenario: String, steps: u64 },
    /// `sat <formula>`
    Sat { formula: String, steps: u64 },
    /// `explain <scenario> <router>`
    Explain {
        scenario: String,
        router: u32,
        variant: ProtocolVariant,
        steps: u64,
    },
    /// `hunt`
    Hunt {
        seed: u64,
        budget: usize,
        out: String,
        families: Option<String>,
        search: SearchArgs,
    },
    /// `minimize <file>`
    Minimize {
        file: String,
        out: Option<String>,
        search: SearchArgs,
    },
    /// `corpus stats [dir]`
    CorpusStats { dir: String },
    /// `serve`
    Serve {
        addr: String,
        cache: Option<String>,
        workers: usize,
        search: SearchArgs,
    },
    /// `batch <dir>`
    Batch {
        dir: String,
        out: Option<String>,
        cache: Option<String>,
        workers: usize,
        search: SearchArgs,
    },
    /// `submit <file>`
    Submit {
        file: String,
        addr: String,
        search: SearchArgs,
    },
}

impl Command {
    /// The search knobs, for the verbs that run a reachability search.
    /// (Exercised by the verb × flag matrix test; the run path
    /// destructures variants directly.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn search_args(&self) -> Option<&SearchArgs> {
        match self {
            Command::Classify { search, .. }
            | Command::Run { search, .. }
            | Command::Gallery { search }
            | Command::Hunt { search, .. }
            | Command::Minimize { search, .. }
            | Command::Serve { search, .. }
            | Command::Batch { search, .. }
            | Command::Submit { search, .. } => Some(search),
            _ => None,
        }
    }
}

/// Parse an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or("missing command")?.as_str();

    // Split remaining args into positionals and --options.
    let rest: Vec<&String> = it.collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut variant = ProtocolVariant::Standard;
    let mut search = SearchArgs::default();
    let mut steps = 100_000u64;
    let mut seed = 1u64;
    let mut budget = 100usize;
    let mut out: Option<String> = None;
    let mut families: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut cache: Option<String> = None;
    let mut workers = 1usize;
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        match a {
            "--variant" => {
                i += 1;
                let v = rest.get(i).ok_or("--variant needs a value")?;
                variant = parse_variant(v)?;
            }
            "--max-states" => {
                i += 1;
                let v = rest.get(i).ok_or("--max-states needs a value")?;
                search.max_states = v
                    .parse()
                    .map_err(|_| format!("invalid --max-states value `{v}`"))?;
            }
            "--jobs" => {
                i += 1;
                let v = rest.get(i).ok_or("--jobs needs a value")?;
                search.jobs = v
                    .parse()
                    .map_err(|_| format!("invalid --jobs value `{v}`"))?;
                if search.jobs == 0 {
                    return Err("--jobs must be at least 1; omit --jobs for the default \
                         (one worker per CPU, capped at 8)"
                        .into());
                }
            }
            "--steps" => {
                i += 1;
                let v = rest.get(i).ok_or("--steps needs a value")?;
                steps = v
                    .parse()
                    .map_err(|_| format!("invalid --steps value `{v}`"))?;
            }
            "--seed" => {
                i += 1;
                let v = rest.get(i).ok_or("--seed needs a value")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value `{v}`"))?;
            }
            "--budget" => {
                i += 1;
                let v = rest.get(i).ok_or("--budget needs a value")?;
                budget = v
                    .parse()
                    .map_err(|_| format!("invalid --budget value `{v}`"))?;
            }
            "--symmetry" => {
                search.symmetry = true;
            }
            "--por" => {
                search.por = true;
            }
            "--max-bytes" => {
                i += 1;
                let v = rest.get(i).ok_or("--max-bytes needs a value")?;
                search.max_bytes = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --max-bytes value `{v}`"))?,
                );
            }
            "--deadline-ms" => {
                i += 1;
                let v = rest.get(i).ok_or("--deadline-ms needs a value")?;
                search.deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --deadline-ms value `{v}`"))?,
                );
            }
            "--solver" => {
                i += 1;
                let v = rest.get(i).ok_or("--solver needs a value")?;
                search.solver = v.parse()?;
            }
            "--loop-prevention" => {
                search.loop_prevention = true;
            }
            "--out" => {
                i += 1;
                let v = rest.get(i).ok_or("--out needs a value")?;
                out = Some(v.to_string());
            }
            "--addr" => {
                i += 1;
                let v = rest.get(i).ok_or("--addr needs a value")?;
                addr = Some(v.to_string());
            }
            "--cache" => {
                i += 1;
                let v = rest.get(i).ok_or("--cache needs a value")?;
                cache = Some(v.to_string());
            }
            "--workers" => {
                i += 1;
                let v = rest.get(i).ok_or("--workers needs a value")?;
                workers = v
                    .parse()
                    .map_err(|_| format!("invalid --workers value `{v}`"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--families" => {
                i += 1;
                let v = rest.get(i).ok_or("--families needs a value")?;
                families = Some(v.to_string());
            }
            _ if a.starts_with("--") => return Err(format!("unknown option `{a}`")),
            _ => positional.push(a),
        }
        i += 1;
    }

    let one_positional = |what: &str| -> Result<String, String> {
        match positional.as_slice() {
            [p] => Ok((*p).to_string()),
            [] => Err(format!("`{cmd}` needs a {what}")),
            _ => Err(format!("`{cmd}` takes exactly one {what}")),
        }
    };

    match cmd {
        "list" => Ok(Command::List),
        "classify" => Ok(Command::Classify {
            scenario: one_positional("scenario name")?,
            variant,
            search,
        }),
        "run" => Ok(Command::Run {
            scenario: one_positional("scenario name or .ibgp file")?,
            variant,
            steps,
            search,
        }),
        "gallery" => Ok(Command::Gallery { search }),
        "dot" => Ok(Command::Dot {
            scenario: one_positional("scenario name")?,
        }),
        "theorems" => Ok(Command::Theorems {
            scenario: one_positional("scenario name")?,
            steps,
        }),
        "sat" => Ok(Command::Sat {
            formula: one_positional("formula")?,
            steps,
        }),
        "explain" => match positional.as_slice() {
            [scenario, router] => Ok(Command::Explain {
                scenario: (*scenario).to_string(),
                router: router
                    .parse()
                    .map_err(|_| format!("invalid router id `{router}`"))?,
                variant,
                steps,
            }),
            _ => Err("`explain` needs a scenario name and a router id".into()),
        },
        "hunt" => {
            if !positional.is_empty() {
                return Err("`hunt` takes no positional arguments".into());
            }
            Ok(Command::Hunt {
                seed,
                budget,
                out: out.unwrap_or_else(|| "corpus".into()),
                families,
                search,
            })
        }
        "minimize" => Ok(Command::Minimize {
            file: one_positional(".ibgp file")?,
            out,
            search,
        }),
        "serve" => {
            if !positional.is_empty() {
                return Err("`serve` takes no positional arguments".into());
            }
            Ok(Command::Serve {
                addr: addr.unwrap_or_else(|| "127.0.0.1:8642".into()),
                cache,
                workers,
                search,
            })
        }
        "batch" => Ok(Command::Batch {
            dir: one_positional("directory")?,
            out,
            cache,
            workers,
            search,
        }),
        "submit" => Ok(Command::Submit {
            file: one_positional(".ibgp file")?,
            addr: addr.unwrap_or_else(|| "127.0.0.1:8642".into()),
            search,
        }),
        "corpus" => match positional.as_slice() {
            ["stats"] => Ok(Command::CorpusStats {
                dir: "corpus".into(),
            }),
            ["stats", dir] => Ok(Command::CorpusStats {
                dir: (*dir).to_string(),
            }),
            _ => Err("`corpus` supports `corpus stats [dir]`".into()),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse_variant(s: &str) -> Result<ProtocolVariant, String> {
    // The accepted spellings live on `ProtocolVariant`'s `FromStr`, shared
    // with the `.ibgp` scenario format so they cannot drift apart.
    s.parse()
}

/// Parse the clause syntax into a formula.
pub fn parse_formula(s: &str) -> Result<ibgp::npc::Formula, String> {
    use ibgp::npc::{Clause, Formula, Lit};
    let mut clauses = Vec::new();
    let mut max_var = 0u32;
    for (ci, chunk) in s.split(';').enumerate() {
        let chunk = chunk.trim();
        if chunk.is_empty() {
            return Err(format!("clause {} is empty", ci + 1));
        }
        let mut lits = Vec::new();
        for tok in chunk.split(',') {
            let v: i64 = tok
                .trim()
                .parse()
                .map_err(|_| format!("invalid literal `{tok}`"))?;
            if v == 0 {
                return Err("variables are numbered from 1".into());
            }
            let var = v.unsigned_abs() as u32 - 1;
            max_var = max_var.max(var + 1);
            lits.push(if v > 0 { Lit::pos(var) } else { Lit::neg(var) });
        }
        clauses.push(Clause(lits));
    }
    Formula::new(max_var as usize, clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_list_and_gallery() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(
            parse(&argv("gallery --max-states 100")).unwrap(),
            Command::Gallery {
                search: SearchArgs {
                    max_states: 100,
                    ..SearchArgs::default()
                },
            }
        );
    }

    #[test]
    fn parses_classify_with_options() {
        let cmd = parse(&argv(
            "classify fig1a --variant walton --max-states 42 --jobs 4 --symmetry --por --max-bytes 4096 --solver sat",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Classify {
                scenario: "fig1a".into(),
                variant: ProtocolVariant::Walton,
                search: SearchArgs {
                    max_states: 42,
                    jobs: 4,
                    symmetry: true,
                    por: true,
                    max_bytes: Some(4096),
                    deadline_ms: None,
                    solver: SolverMode::Sat,
                    loop_prevention: false,
                },
            }
        );
    }

    #[test]
    fn parses_run_defaults() {
        let cmd = parse(&argv("run fig2")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                scenario: "fig2".into(),
                variant: ProtocolVariant::Standard,
                steps: 100_000,
                search: SearchArgs::default(),
            }
        );
    }

    /// Every search verb accepts the whole search-flag matrix and lands
    /// it in one shared `SearchArgs` — no verb can silently drop a flag
    /// (the historical failure mode this guards: a verb plumbing
    /// `--max-states` but not `--jobs`, or vice versa).
    #[test]
    fn every_search_verb_accepts_the_full_flag_matrix() {
        let flags = "--jobs 3 --max-states 77 --symmetry --por --max-bytes 2048 --deadline-ms 500 \
                     --solver sat --loop-prevention";
        let expected = SearchArgs {
            max_states: 77,
            jobs: 3,
            symmetry: true,
            por: true,
            max_bytes: Some(2048),
            deadline_ms: Some(500),
            solver: SolverMode::Sat,
            loop_prevention: true,
        };
        for verb in [
            "classify fig1a",
            "run fig2",
            "gallery",
            "hunt",
            "minimize a.ibgp",
            "serve",
            "batch corpus",
            "submit a.ibgp",
        ] {
            let cmd = parse(&argv(&format!("{verb} {flags}")))
                .unwrap_or_else(|e| panic!("`{verb}` must accept the search flags: {e}"));
            assert_eq!(
                cmd.search_args(),
                Some(&expected),
                "`{verb}` dropped a search flag"
            );
            // Each flag also works alone on every verb.
            for flag in [
                "--jobs 3",
                "--max-states 77",
                "--symmetry",
                "--por",
                "--max-bytes 2048",
                "--deadline-ms 500",
                "--solver sat",
                "--solver search",
                "--loop-prevention",
            ] {
                assert!(
                    parse(&argv(&format!("{verb} {flag}"))).is_ok(),
                    "`{verb} {flag}` must parse"
                );
            }
        }
        // Non-search verbs report no search args.
        assert_eq!(parse(&argv("list")).unwrap().search_args(), None);
        assert_eq!(parse(&argv("dot fig1a")).unwrap().search_args(), None);
    }

    /// `--jobs 0` is rejected with guidance everywhere, not treated as an
    /// auto sentinel the way the library layer's `jobs = 0` default is.
    #[test]
    fn explicit_jobs_zero_is_rejected_on_every_verb() {
        for verb in [
            "classify fig1a",
            "run fig2",
            "gallery",
            "hunt",
            "minimize a.ibgp",
            "serve",
            "batch corpus",
            "submit a.ibgp",
        ] {
            let err = parse(&argv(&format!("{verb} --jobs 0"))).unwrap_err();
            assert!(
                err.contains("at least 1"),
                "`{verb} --jobs 0` must explain the minimum, got: {err}"
            );
        }
    }

    #[test]
    fn parses_serve_batch_and_submit() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8642".into(),
                cache: None,
                workers: 1,
                search: SearchArgs::default(),
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:9000 --cache /tmp/v.log --workers 4"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:9000".into(),
                cache: Some("/tmp/v.log".into()),
                workers: 4,
                search: SearchArgs::default(),
            }
        );
        assert!(parse(&argv("serve extra")).is_err());
        assert!(parse(&argv("serve --workers 0")).is_err());
        assert_eq!(
            parse(&argv("batch corpus --out report.json --cache /tmp/v.log")).unwrap(),
            Command::Batch {
                dir: "corpus".into(),
                out: Some("report.json".into()),
                cache: Some("/tmp/v.log".into()),
                workers: 1,
                search: SearchArgs::default(),
            }
        );
        assert!(parse(&argv("batch")).is_err());
        assert_eq!(
            parse(&argv("submit a.ibgp --addr 127.0.0.1:9000")).unwrap(),
            Command::Submit {
                file: "a.ibgp".into(),
                addr: "127.0.0.1:9000".into(),
                search: SearchArgs::default(),
            }
        );
        assert!(parse(&argv("submit")).is_err());
        assert!(parse(&argv("batch corpus --workers x")).is_err());
        assert!(parse(&argv("classify fig1a --deadline-ms abc")).is_err());
    }

    #[test]
    fn parses_hunt_minimize_and_corpus() {
        let cmd = parse(&argv(
            "hunt --seed 9 --budget 25 --out /tmp/c --families reflection,confed --jobs 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Hunt {
                seed: 9,
                budget: 25,
                out: "/tmp/c".into(),
                families: Some("reflection,confed".into()),
                search: SearchArgs {
                    jobs: 2,
                    ..SearchArgs::default()
                },
            }
        );
        assert_eq!(
            parse(&argv("hunt")).unwrap(),
            Command::Hunt {
                seed: 1,
                budget: 100,
                out: "corpus".into(),
                families: None,
                search: SearchArgs::default(),
            }
        );
        assert!(parse(&argv("hunt extra")).is_err());
        assert_eq!(
            parse(&argv("minimize a.ibgp --out b.ibgp --symmetry")).unwrap(),
            Command::Minimize {
                file: "a.ibgp".into(),
                out: Some("b.ibgp".into()),
                search: SearchArgs {
                    symmetry: true,
                    ..SearchArgs::default()
                },
            }
        );
        assert!(parse(&argv("minimize")).is_err());
        assert_eq!(
            parse(&argv("corpus stats")).unwrap(),
            Command::CorpusStats {
                dir: "corpus".into()
            }
        );
        assert_eq!(
            parse(&argv("corpus stats /tmp/c")).unwrap(),
            Command::CorpusStats {
                dir: "/tmp/c".into()
            }
        );
        assert!(parse(&argv("corpus")).is_err());
        assert!(parse(&argv("hunt --seed x")).is_err());
        assert!(parse(&argv("hunt --budget x")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("classify")).is_err());
        assert!(parse(&argv("classify a b")).is_err());
        assert!(parse(&argv("classify fig1a --variant nope")).is_err());
        assert!(parse(&argv("classify fig1a --max-states abc")).is_err());
        assert!(parse(&argv("classify fig1a --jobs abc")).is_err());
        assert!(parse(&argv("classify fig1a --mystery")).is_err());
        assert!(parse(&argv("classify fig1a --variant")).is_err());
        assert!(parse(&argv("classify fig1a --max-bytes abc")).is_err());
        assert!(parse(&argv("classify fig1a --max-bytes")).is_err());
        assert!(parse(&argv("classify fig1a --solver smt")).is_err());
        assert!(parse(&argv("classify fig1a --solver")).is_err());
    }

    #[test]
    fn parses_explain() {
        let cmd = parse(&argv("explain fig2 3 --variant modified")).unwrap();
        assert_eq!(
            cmd,
            Command::Explain {
                scenario: "fig2".into(),
                router: 3,
                variant: ProtocolVariant::Modified,
                steps: 100_000,
            }
        );
        assert!(parse(&argv("explain fig2")).is_err());
        assert!(parse(&argv("explain fig2 abc")).is_err());
    }

    #[test]
    fn parses_formulas() {
        let f = parse_formula("1,2,-3;-1,3,2").unwrap();
        assert_eq!(f.num_vars, 3);
        assert_eq!(f.clauses.len(), 2);
        assert_eq!(f.to_string(), "(x0 ∨ x1 ∨ ¬x2) ∧ (¬x0 ∨ x2 ∨ x1)");
        assert!(parse_formula("0").is_err());
        assert!(parse_formula("1,x").is_err());
        assert!(parse_formula("1;;2").is_err());
        // A variable and its negation in one clause is rejected upstream.
        assert!(parse_formula("1,-1").is_err());
    }
}
