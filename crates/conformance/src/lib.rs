//! A declarative conformance harness for the message-level reflection
//! mechanics (`--loop-prevention`): ORIGINATOR_ID, CLUSTER_LIST, SSLD
//! and the reflect-to-whom matrix.
//!
//! Each scenario is a plain-text data file — topology, I-BGP sessions,
//! injected E-BGP routes, and per-router expected-RIB assertions — and
//! one generic runner ([`run`]) executes all of them identically: build
//! the topology, simulate each injected route as its own prefix (one
//! [`SyncEngine`] per exit, loop prevention on) to a fixed point under
//! round-robin activation, then check every `expect` line. Porting a
//! scenario from another implementation (the committed battery comes
//! from cbgp's regression suite) means writing a data file, not a test
//! function.
//!
//! # Format
//!
//! Line-oriented, `#` comments, blank lines ignored:
//!
//! ```text
//! conformance 1
//! name bgp_rr
//! routers 5
//! link U V COST          # physical (IGP) edge
//! peer U V               # conventional I-BGP session
//! client RR C            # RR reflects for client C
//! exit P at R            # inject exit path P (its own prefix) at R
//! expect route R P       # R selects P at the fixed point
//! expect no-route R P    # R never learns P
//! expect originator R P O
//! expect cluster-list R P [ids...]   # stored CLUSTER_LIST, outermost first
//! expect rr-from R P self|F          # whom R's stored copy came from
//! expect never-sent V U P            # V's send filter excludes P toward U
//! ```
//!
//! Router ids are 0-based indices below `routers`, which is at most
//! [`MAX_ROUTERS`] (the `.ibgp` limit); exit-path ids are nonzero. Every
//! assertion names the exit path it constrains, so one file can cover
//! several prefixes (each still simulated in isolation).

use ibgp_proto::variants::ProtocolConfig;
use ibgp_sim::{Engine as _, RoundRobin, SyncEngine};
use ibgp_topology::{Topology, TopologyBuilder, MAX_ROUTERS};
use ibgp_types::{AsId, ExitPath, ExitPathId, ExitPathRef, RouterId};
use std::fmt;
use std::sync::Arc;

/// Steps each per-prefix simulation may take before the runner calls the
/// scenario broken. The battery's topologies converge in well under 20.
const MAX_STEPS: u64 = 10_000;

/// One expected-RIB assertion (an `expect` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `R` selects path `P` at the fixed point.
    Route(RouterId, ExitPathId),
    /// `R` never learns path `P`.
    NoRoute(RouterId, ExitPathId),
    /// ORIGINATOR_ID of `P` at `R`.
    Originator(RouterId, ExitPathId, RouterId),
    /// The stored CLUSTER_LIST of `P` at `R`, outermost stamp first.
    ClusterList(RouterId, ExitPathId, Vec<RouterId>),
    /// Whom `R`'s stored copy of `P` was learned from (`None` = own
    /// E-BGP route).
    RrFrom(RouterId, ExitPathId, Option<RouterId>),
    /// `V`'s send filter excludes `P` toward peer `U` (SSLD and the
    /// reflect-to-whom matrix are sender-side, so this is checkable at
    /// the fixed point).
    NeverSent(RouterId, RouterId, ExitPathId),
}

/// A parsed conformance scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (the `name` directive).
    pub name: String,
    /// Router count.
    pub routers: usize,
    /// Physical edges `(u, v, cost)`.
    pub links: Vec<(u32, u32, u64)>,
    /// Conventional I-BGP sessions.
    pub peers: Vec<(u32, u32)>,
    /// `(reflector, client)` session edges.
    pub clients: Vec<(u32, u32)>,
    /// Injected exit paths `(id, exit point)` — one prefix each.
    pub exits: Vec<(u32, u32)>,
    /// The assertions, in file order.
    pub expects: Vec<(usize, Expect)>,
}

/// A parse error, pinned to its line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str, ln: usize) -> Result<T, ParseError> {
    tok.parse()
        .map_err(|_| err(ln, format!("invalid {what} `{tok}`")))
}

/// Parse one scenario file.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());
    match lines.next() {
        Some((_, "conformance 1")) => {}
        Some((ln, other)) => {
            return Err(err(ln, format!("expected `conformance 1`, got `{other}`")))
        }
        None => return Err(err(1, "empty scenario")),
    }
    let mut name = None;
    let mut routers = None;
    let mut scenario = Scenario {
        name: String::new(),
        routers: 0,
        links: Vec::new(),
        peers: Vec::new(),
        clients: Vec::new(),
        exits: Vec::new(),
        expects: Vec::new(),
    };
    for (ln, line) in lines {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let want = |n: usize| -> Result<(), ParseError> {
            if toks.len() == n {
                Ok(())
            } else {
                Err(err(
                    ln,
                    format!(
                        "`{}` takes {} argument(s), got {}",
                        toks[0],
                        n - 1,
                        toks.len() - 1
                    ),
                ))
            }
        };
        // Router references are validated after the full file is read
        // (the `routers` line need not come first); exit ids here.
        match toks[0] {
            "name" => {
                want(2)?;
                if name.replace(toks[1].to_string()).is_some() {
                    return Err(err(ln, "duplicate `name`"));
                }
            }
            "routers" => {
                want(2)?;
                let n: usize = parse_num(toks[1], "router count", ln)?;
                if n == 0 {
                    return Err(err(ln, "`routers` must be at least 1"));
                }
                if n > MAX_ROUTERS {
                    let limit = format!("router count {n} exceeds the limit of {MAX_ROUTERS}");
                    return Err(err(ln, limit));
                }
                if routers.replace(n).is_some() {
                    return Err(err(ln, "duplicate `routers`"));
                }
            }
            "link" => {
                want(4)?;
                scenario.links.push((
                    parse_num(toks[1], "router id", ln)?,
                    parse_num(toks[2], "router id", ln)?,
                    parse_num(toks[3], "link cost", ln)?,
                ));
            }
            "peer" => {
                want(3)?;
                scenario.peers.push((
                    parse_num(toks[1], "router id", ln)?,
                    parse_num(toks[2], "router id", ln)?,
                ));
            }
            "client" => {
                want(3)?;
                scenario.clients.push((
                    parse_num(toks[1], "router id", ln)?,
                    parse_num(toks[2], "router id", ln)?,
                ));
            }
            "exit" => {
                want(4)?;
                if toks[2] != "at" {
                    return Err(err(ln, "expected `exit P at R`"));
                }
                let id: u32 = parse_num(toks[1], "exit path id", ln)?;
                if id == 0 || id == u32::MAX {
                    return Err(err(ln, format!("exit path id {id} is reserved")));
                }
                if scenario.exits.iter().any(|(e, _)| *e == id) {
                    return Err(err(ln, format!("duplicate exit path id {id}")));
                }
                scenario
                    .exits
                    .push((id, parse_num(toks[3], "router id", ln)?));
            }
            "expect" => {
                let e = parse_expect(&toks, ln)?;
                scenario.expects.push((ln, e));
            }
            other => return Err(err(ln, format!("unknown directive `{other}`"))),
        }
    }
    scenario.name = name.ok_or_else(|| err(1, "missing `name`"))?;
    scenario.routers = routers.ok_or_else(|| err(1, "missing `routers`"))?;
    if scenario.exits.is_empty() {
        return Err(err(1, "scenario injects no exit paths"));
    }
    if scenario.expects.is_empty() {
        return Err(err(1, "scenario asserts nothing"));
    }
    validate_refs(&scenario)?;
    Ok(scenario)
}

fn parse_expect(toks: &[&str], ln: usize) -> Result<Expect, ParseError> {
    let r = |tok: &str| -> Result<RouterId, ParseError> {
        Ok(RouterId::new(parse_num(tok, "router id", ln)?))
    };
    let p = |tok: &str| -> Result<ExitPathId, ParseError> {
        Ok(ExitPathId::new(parse_num(tok, "exit path id", ln)?))
    };
    let want = |n: usize| -> Result<(), ParseError> {
        if toks.len() == n {
            Ok(())
        } else {
            Err(err(
                ln,
                format!(
                    "`expect {}` takes {} argument(s), got {}",
                    toks[1],
                    n - 2,
                    toks.len() - 2
                ),
            ))
        }
    };
    if toks.len() < 2 {
        return Err(err(ln, "`expect` needs an assertion kind"));
    }
    match toks[1] {
        "route" => {
            want(4)?;
            Ok(Expect::Route(r(toks[2])?, p(toks[3])?))
        }
        "no-route" => {
            want(4)?;
            Ok(Expect::NoRoute(r(toks[2])?, p(toks[3])?))
        }
        "originator" => {
            want(5)?;
            Ok(Expect::Originator(r(toks[2])?, p(toks[3])?, r(toks[4])?))
        }
        "cluster-list" => {
            if toks.len() < 4 {
                return Err(err(ln, "`expect cluster-list` takes R P [ids...]"));
            }
            let ids = toks[4..].iter().map(|t| r(t)).collect::<Result<_, _>>()?;
            Ok(Expect::ClusterList(r(toks[2])?, p(toks[3])?, ids))
        }
        "rr-from" => {
            want(5)?;
            let from = if toks[4] == "self" {
                None
            } else {
                Some(r(toks[4])?)
            };
            Ok(Expect::RrFrom(r(toks[2])?, p(toks[3])?, from))
        }
        "never-sent" => {
            want(5)?;
            Ok(Expect::NeverSent(r(toks[2])?, r(toks[3])?, p(toks[4])?))
        }
        other => Err(err(ln, format!("unknown assertion `{other}`"))),
    }
}

/// Check every router / exit-path reference against the declared sets.
fn validate_refs(s: &Scenario) -> Result<(), ParseError> {
    let n = s.routers as u32;
    let in_range = |x: u32| x < n;
    let known_exit = |id: ExitPathId| s.exits.iter().any(|(e, _)| ExitPathId::new(*e) == id);
    for (u, v, _) in &s.links {
        if !in_range(*u) || !in_range(*v) {
            return Err(err(1, format!("link {u}-{v} references a router >= {n}")));
        }
    }
    for (u, v) in s.peers.iter().chain(s.clients.iter()) {
        if !in_range(*u) || !in_range(*v) {
            return Err(err(
                1,
                format!("session {u}-{v} references a router >= {n}"),
            ));
        }
    }
    for (id, at) in &s.exits {
        if !in_range(*at) {
            return Err(err(1, format!("exit {id} injected at router {at} >= {n}")));
        }
    }
    for (ln, e) in &s.expects {
        let (rs, path): (Vec<RouterId>, ExitPathId) = match e {
            Expect::Route(r, p) | Expect::NoRoute(r, p) => (vec![*r], *p),
            Expect::Originator(r, p, o) => (vec![*r, *o], *p),
            Expect::ClusterList(r, p, ids) => {
                let mut v = vec![*r];
                v.extend(ids);
                (v, *p)
            }
            Expect::RrFrom(r, p, f) => {
                let mut v = vec![*r];
                v.extend(f);
                (v, *p)
            }
            Expect::NeverSent(v, u, p) => (vec![*v, *u], *p),
        };
        for r in rs {
            if !in_range(r.raw()) {
                return Err(err(*ln, format!("router {r} out of range (>= {n})")));
            }
        }
        if !known_exit(path) {
            return Err(err(*ln, format!("exit path {path} is never injected")));
        }
    }
    Ok(())
}

/// One failed assertion: the line it came from plus what the simulation
/// actually produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// 1-based line of the violated `expect`.
    pub line: usize,
    /// The assertion.
    pub expect: Expect,
    /// Human-readable account of the observed state.
    pub observed: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {:?} failed — {}",
            self.line, self.expect, self.observed
        )
    }
}

/// The outcome of running one scenario: assertion counts plus every
/// failure (empty = conformant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Scenario name.
    pub name: String,
    /// Assertions checked.
    pub checked: usize,
    /// Assertions violated.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A scenario that cannot be executed at all (as opposed to one whose
/// assertions fail): bad topology or a prefix that never converges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError(pub String);

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RunError {}

fn build_topology(s: &Scenario) -> Result<Topology, RunError> {
    let mut b = TopologyBuilder::new(s.routers);
    for (u, v, cost) in &s.links {
        b = b.link(*u, *v, *cost);
    }
    for (u, v) in &s.peers {
        b = b.peer(*u, *v);
    }
    for (rr, c) in &s.clients {
        b = b.rr_client(*rr, *c);
    }
    b.build()
        .map_err(|e| RunError(format!("scenario `{}`: bad topology: {e}", s.name)))
}

fn exit_ref(id: u32, at: u32) -> ExitPathRef {
    Arc::new(
        ExitPath::builder(ExitPathId::new(id))
            .via(AsId::new(id))
            .exit_point(RouterId::new(at))
            .build_unchecked(),
    )
}

/// Run one scenario: each injected exit is its own prefix, simulated in
/// isolation with loop prevention on, round-robin to a fixed point; then
/// every assertion is checked against its prefix's engine.
pub fn run(s: &Scenario) -> Result<Report, RunError> {
    let topo = build_topology(s)?;
    let mut engines = Vec::new();
    for (id, at) in &s.exits {
        let mut eng = SyncEngine::new(&topo, ProtocolConfig::STANDARD, vec![exit_ref(*id, *at)]);
        eng.set_loop_prevention(true);
        let outcome = eng.run(&mut RoundRobin::new(), MAX_STEPS);
        if !outcome.converged() {
            return Err(RunError(format!(
                "scenario `{}`: prefix {id} did not converge in {MAX_STEPS} steps ({outcome})",
                s.name
            )));
        }
        engines.push((ExitPathId::new(*id), eng));
    }
    let engine = |p: ExitPathId| &engines.iter().find(|(id, _)| *id == p).unwrap().1;
    let mut failures = Vec::new();
    for (ln, e) in &s.expects {
        let observed = check(e, engine(expect_path(e)));
        if let Some(observed) = observed {
            failures.push(Failure {
                line: *ln,
                expect: e.clone(),
                observed,
            });
        }
    }
    Ok(Report {
        name: s.name.clone(),
        checked: s.expects.len(),
        failures,
    })
}

fn expect_path(e: &Expect) -> ExitPathId {
    match e {
        Expect::Route(_, p)
        | Expect::NoRoute(_, p)
        | Expect::Originator(_, p, _)
        | Expect::ClusterList(_, p, _)
        | Expect::RrFrom(_, p, _)
        | Expect::NeverSent(_, _, p) => *p,
    }
}

/// `None` = the assertion holds; `Some(observed)` = what the fixed point
/// actually looks like.
fn check(e: &Expect, eng: &SyncEngine<'_>) -> Option<String> {
    match e {
        Expect::Route(r, p) => {
            let best = eng.best_exit(*r);
            (best != Some(*p)).then(|| format!("best at {r} is {best:?}"))
        }
        Expect::NoRoute(r, p) => {
            let known = eng.possible_exits(*r).iter().any(|q| q.id() == *p);
            known.then(|| format!("{r} knows path {p} (best {:?})", eng.best_exit(*r)))
        }
        Expect::Originator(r, p, want) => {
            let got = eng.originator(*r, *p);
            (got != Some(*want)).then(|| format!("originator of {p} at {r} is {got:?}"))
        }
        Expect::ClusterList(r, p, want) => {
            let got = eng.cluster_list(*r, *p);
            (got != Some(&want[..])).then(|| format!("cluster list of {p} at {r} is {got:?}"))
        }
        Expect::RrFrom(r, p, want) => {
            let got = eng.rr_from(*r, *p);
            (got != Some(*want)).then(|| format!("{r}'s copy of {p} was learned from {got:?}"))
        }
        Expect::NeverSent(v, u, p) => {
            let sent = eng.outgoing_to(*v, *u);
            sent.contains(p)
                .then(|| format!("{v} advertises {sent:?} to {u} (must exclude {p})"))
        }
    }
}

/// Parse and run in one step — what the battery test and the CI smoke
/// job call per committed file.
pub fn run_file_text(text: &str) -> Result<Report, String> {
    let s = parse(text).map_err(|e| e.to_string())?;
    run(&s).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
conformance 1
name minimal
routers 2
link 0 1 1
peer 0 1
exit 1 at 0
expect route 0 1
expect route 1 1
expect originator 1 1 0
expect cluster-list 1 1
expect rr-from 1 1 0
expect never-sent 1 0 1
";

    #[test]
    fn minimal_scenario_parses_runs_and_passes() {
        let s = parse(MINIMAL).unwrap();
        assert_eq!(s.name, "minimal");
        assert_eq!(s.routers, 2);
        assert_eq!(s.exits, vec![(1, 0)]);
        let report = run(&s).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked, 6);
    }

    #[test]
    fn failures_carry_the_line_and_the_observed_state() {
        // Claim router 1 never hears the route; it does.
        let text = MINIMAL.replace("expect route 1 1", "expect no-route 1 1");
        let s = parse(&text).unwrap();
        let report = run(&s).unwrap();
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert_eq!(f.line, 8);
        assert_eq!(
            f.expect,
            Expect::NoRoute(RouterId::new(1), ExitPathId::new(1))
        );
        assert!(f.observed.contains("knows path"), "{}", f.observed);
        assert!(f.to_string().contains("line 8"), "{f}");
    }

    #[test]
    fn parser_rejects_malformed_files_with_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 1, "empty scenario"),
            ("ibgp 1\n", 1, "expected `conformance 1`"),
            ("conformance 1\nname a\nbogus 3\n", 3, "unknown directive"),
            ("conformance 1\nname a\nname b\n", 3, "duplicate `name`"),
            ("conformance 1\nrouters 0\n", 2, "at least 1"),
            (
                "conformance 1\nrouters 1025\n",
                2,
                "exceeds the limit of 1024",
            ),
            (
                "conformance 1\nname a\nrouters 2\nrouters 2\n",
                4,
                "duplicate `routers`",
            ),
            (
                "conformance 1\nname a\nrouters 2\nlink 0 1\n",
                4,
                "takes 3 argument(s)",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 by 0\n",
                4,
                "expected `exit P at R`",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 0 at 0\n",
                4,
                "reserved",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 at 0\nexit 1 at 1\n",
                5,
                "duplicate exit path id",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 at 0\nexpect teleport 0 1\n",
                5,
                "unknown assertion",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 at 0\nexpect route 0\n",
                5,
                "takes 2 argument(s)",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 at 0\nexpect route 9 1\n",
                5,
                "out of range",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 at 0\nexpect route 0 7\n",
                5,
                "never injected",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).expect_err(text);
            assert_eq!(e.line, *line, "{text:?} -> {e}");
            assert!(e.message.contains(needle), "{text:?} -> {e}");
        }
        // Structural omissions are reported even without a specific line.
        for (text, needle) in [
            (
                "conformance 1\nrouters 2\nexit 1 at 0\nexpect route 0 1\n",
                "missing `name`",
            ),
            (
                "conformance 1\nname a\nexit 1 at 0\nexpect route 0 1\n",
                "missing `routers`",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexpect route 0 1\n",
                "injects no exit paths",
            ),
            (
                "conformance 1\nname a\nrouters 2\nexit 1 at 0\n",
                "asserts nothing",
            ),
        ] {
            let e = parse(text).expect_err(text);
            assert!(e.message.contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# ported from somewhere\n\n{MINIMAL}\n# trailing\n");
        let shifted = parse(&text).unwrap();
        let plain = parse(MINIMAL).unwrap();
        // Identical up to the line numbers the comment shifts.
        let strip = |s: &Scenario| {
            let mut s = s.clone();
            for (ln, _) in &mut s.expects {
                *ln = 0;
            }
            s
        };
        assert_eq!(strip(&shifted), strip(&plain));
    }
}
