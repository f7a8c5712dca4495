//! The signature-keyed verdict store.
//!
//! Classification is expensive and verdicts are label-invariant, so the
//! store keys completed verdicts by the canonical structural signature
//! ([`ibgp_hunt::signature`]) — any isomorphic relabeling of a stored
//! specimen is answered without a search.
//!
//! ## Budget semantics (the cache-poisoning guard)
//!
//! A *complete* verdict is the answer to the classification question and
//! is served to every request. An *inconclusive* verdict only says "the
//! granted budget was not enough", so it is served only to requests whose
//! budget is no larger than the one the stored search ran under —
//! otherwise a capped small-budget search would poison answers for
//! callers who asked for (and would get) a bigger one. Deadline-stopped
//! verdicts are never stored at all: wall-clock expiry says nothing
//! reproducible about any budget.
//!
//! Entries also remember which backend produced them
//! ([`ibgp_types::VerdictOrigin`]). A *complete* verdict answers the same
//! question whichever backend proved it, so completeness trumps origin.
//! An *inconclusive* verdict is backend-specific evidence ("this budget
//! was not enough *for that backend*") and is served only to requests
//! asking for the same backend.
//!
//! ## Persistence
//!
//! The store is an append-only text log, one entry per line, fsynced on
//! every insert. On open the log is replayed through the same
//! strongest-entry-wins upgrade rule used at runtime, so a log carrying
//! both a capped probe and the later complete verdict resolves to the
//! complete one regardless of order.

use ibgp_analysis::OscillationClass;
use ibgp_hunt::Verdict;
use ibgp_types::{ExitPathId, SolverMode, StopReason, VerdictOrigin};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The budget a stored search ran under — the persistable subset of
/// [`ibgp_hunt::HuntOptions`] that bounds how much of the state space a
/// search could have seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBudget {
    /// State cap the search ran under.
    pub max_states: usize,
    /// Visited-set byte budget; `None` for unbounded.
    pub max_bytes: Option<usize>,
}

impl StoredBudget {
    /// Whether a search under `self` explored at least as much as a
    /// search under `req` could: `req.max_states` no larger, and the
    /// byte budget no looser (`None` = unbounded is the strongest).
    pub fn covers(&self, req: &StoredBudget) -> bool {
        req.max_states <= self.max_states
            && match (self.max_bytes, req.max_bytes) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(have), Some(want)) => want <= have,
            }
    }
}

impl From<&ibgp_hunt::HuntOptions> for StoredBudget {
    fn from(o: &ibgp_hunt::HuntOptions) -> Self {
        Self {
            max_states: o.max_states,
            max_bytes: o.max_bytes,
        }
    }
}

/// One stored verdict plus the budget that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The verdict (metrics are not persisted; reloaded entries carry
    /// `metrics: None`).
    pub verdict: Verdict,
    /// The budget the producing search ran under.
    pub budget: StoredBudget,
}

/// The [`VerdictOrigin`] a request under `mode` expects its evidence
/// from (search requests want search evidence, sat requests solver
/// evidence).
fn expected_origin(mode: SolverMode) -> VerdictOrigin {
    match mode {
        SolverMode::Search => VerdictOrigin::Search,
        SolverMode::Sat => VerdictOrigin::Solver,
    }
}

impl Entry {
    /// Whether this entry may answer a request under `req` asking for
    /// backend `mode` (see the module docs for the poisoning guard).
    /// Complete verdicts serve every request regardless of origin;
    /// inconclusive ones only same-backend requests with covered budgets.
    pub fn servable_for(&self, req: &StoredBudget, mode: SolverMode) -> bool {
        self.verdict.complete
            || (self.verdict.origin == expected_origin(mode) && self.budget.covers(req))
    }

    /// Whether this entry supersedes `old` under strongest-entry-wins:
    /// complete beats inconclusive, and among inconclusive entries the
    /// same-backend one whose budget covers the other's wins.
    fn supersedes(&self, old: &Entry) -> bool {
        if old.verdict.complete {
            return false;
        }
        self.verdict.complete
            || (self.verdict.origin == old.verdict.origin && self.budget.covers(&old.budget))
    }
}

/// Signature-keyed verdict store with an optional append-only log.
#[derive(Debug)]
pub struct VerdictStore {
    entries: HashMap<String, Entry>,
    log: Option<File>,
    path: Option<PathBuf>,
}

impl VerdictStore {
    /// A purely in-memory store (no persistence).
    pub fn in_memory() -> Self {
        Self {
            entries: HashMap::new(),
            log: None,
            path: None,
        }
    }

    /// Open (or create) a store backed by the log at `path`, replaying
    /// any existing entries. A malformed line fails the open, except a
    /// torn final line left by a crash mid-append: that one is truncated
    /// away with a warning.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut entries = HashMap::new();
        let bytes = if path.exists() {
            std::fs::read(path)?
        } else {
            Vec::new()
        };
        // Every insert appends its whole line, newline included, in one
        // fsynced write, so an unterminated final line is a torn append.
        // Even when it parses (a vector list or the `solver` tag cut
        // short) it is not the verdict that was written: drop it.
        let intact = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if intact < bytes.len() {
            eprintln!(
                "warning: {}: truncating a torn final line ({} bytes) left by an interrupted append",
                path.display(),
                bytes.len() - intact
            );
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(intact as u64)?;
        }
        for (ln, line) in bytes[..intact].split(|&b| b == b'\n').enumerate() {
            let line = std::str::from_utf8(line).ok();
            if line.is_some_and(|l| l.trim().is_empty()) {
                continue;
            }
            let (sig, entry) = line.and_then(parse_line).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}:{}: malformed verdict-store line",
                        path.display(),
                        ln + 1
                    ),
                )
            })?;
            apply(&mut entries, sig, entry);
        }
        let log = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            entries,
            log: Some(log),
            path: Some(path.to_path_buf()),
        })
    }

    /// The log path, when persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of distinct signatures stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The verdict for `sig` servable under `req` with backend `mode`,
    /// if any.
    pub fn lookup(&self, sig: &str, req: &StoredBudget, mode: SolverMode) -> Option<&Verdict> {
        let entry = self.entries.get(sig)?;
        entry.servable_for(req, mode).then_some(&entry.verdict)
    }

    /// Insert a verdict produced under `budget`. Returns `true` if the
    /// store changed. Deadline-stopped verdicts are rejected (never
    /// cacheable), and an entry never replaces a stronger one.
    pub fn insert(
        &mut self,
        sig: &str,
        verdict: &Verdict,
        budget: StoredBudget,
    ) -> io::Result<bool> {
        if verdict.stop == StopReason::Deadline {
            return Ok(false);
        }
        let mut verdict = verdict.clone();
        verdict.metrics = None;
        let entry = Entry { verdict, budget };
        match self.entries.get(sig) {
            Some(old) if !entry.supersedes(old) => return Ok(false),
            _ => {}
        }
        if let Some(log) = &mut self.log {
            let line = format_line(sig, &entry);
            log.write_all(line.as_bytes())?;
            log.flush()?;
            log.sync_data()?;
        }
        self.entries.insert(sig.to_string(), entry);
        Ok(true)
    }
}

fn apply(entries: &mut HashMap<String, Entry>, sig: String, entry: Entry) {
    match entries.get(&sig) {
        Some(old) if !entry.supersedes(old) => {}
        _ => {
            entries.insert(sig, entry);
        }
    }
}

/// The stable machine keyword for a class (`persistent` / `transient` /
/// `stable` / `unknown`), shared by the store log, the wire protocol,
/// and the batch report.
pub fn class_keyword(class: OscillationClass) -> &'static str {
    match class {
        OscillationClass::Persistent => "persistent",
        OscillationClass::Transient => "transient",
        OscillationClass::Stable => "stable",
        OscillationClass::Unknown => "unknown",
    }
}

/// Parse a [`class_keyword`] back.
pub fn class_from_keyword(s: &str) -> Option<OscillationClass> {
    match s {
        "persistent" => Some(OscillationClass::Persistent),
        "transient" => Some(OscillationClass::Transient),
        "stable" => Some(OscillationClass::Stable),
        "unknown" => Some(OscillationClass::Unknown),
        _ => None,
    }
}

/// Stable best-exit vectors as one log token: vectors `;`-separated,
/// entries `,`-separated, each `-` (no route) or the raw exit-path id;
/// `-` alone for an empty vector set.
pub fn vectors_token(vs: &[Vec<Option<ExitPathId>>]) -> String {
    if vs.is_empty() {
        return "-".into();
    }
    vs.iter()
        .map(|v| {
            v.iter()
                .map(|e| match e {
                    Some(p) => p.raw().to_string(),
                    None => "-".into(),
                })
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse a [`vectors_token`] back.
pub fn vectors_from_token(s: &str) -> Option<Vec<Vec<Option<ExitPathId>>>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(';')
        .map(|v| {
            v.split(',')
                .map(|e| {
                    if e == "-" {
                        Some(None)
                    } else {
                        e.parse::<u32>().ok().map(|n| Some(ExitPathId::new(n)))
                    }
                })
                .collect::<Option<Vec<_>>>()
        })
        .collect()
}

/// `v1 <sig> <max_states> <max_bytes|-> <class> <states> <stop> <vectors> [solver]\n`
///
/// The trailing `solver` token is present exactly when the verdict came
/// from the constraint solver; its absence means search, so logs written
/// before the solver backend existed replay unchanged.
fn format_line(sig: &str, e: &Entry) -> String {
    format!(
        "v1 {} {} {} {} {} {} {}{}\n",
        sig,
        e.budget.max_states,
        e.budget
            .max_bytes
            .map(|b| b.to_string())
            .unwrap_or_else(|| "-".into()),
        class_keyword(e.verdict.class),
        e.verdict.states,
        e.verdict.stop.token(),
        vectors_token(&e.verdict.stable_vectors),
        match e.verdict.origin {
            VerdictOrigin::Search => "",
            VerdictOrigin::Solver => " solver",
        },
    )
}

fn parse_line(line: &str) -> Option<(String, Entry)> {
    let mut t = line.split_whitespace();
    if t.next()? != "v1" {
        return None;
    }
    let sig = t.next()?.to_string();
    let max_states: usize = t.next()?.parse().ok()?;
    let max_bytes = match t.next()? {
        "-" => None,
        s => Some(s.parse().ok()?),
    };
    let class = class_from_keyword(t.next()?)?;
    let states: usize = t.next()?.parse().ok()?;
    let stop = StopReason::from_token(t.next()?)?;
    let stable_vectors = vectors_from_token(t.next()?)?;
    let origin = match t.next() {
        None => VerdictOrigin::Search,
        Some("solver") => VerdictOrigin::Solver,
        Some(_) => return None,
    };
    if t.next().is_some() {
        return None;
    }
    let complete = stop.is_complete();
    let stable_count =
        (complete && origin == VerdictOrigin::Solver).then_some(stable_vectors.len());
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
    Some((
        sig,
        Entry {
            verdict,
            budget: StoredBudget {
                max_states,
                max_bytes,
            },
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(class: OscillationClass, stop: StopReason) -> Verdict {
        Verdict {
            class,
            states: 42,
            complete: stop.is_complete(),
            stop,
            stable_vectors: vec![vec![Some(ExitPathId::new(1)), None]],
            metrics: None,
            origin: VerdictOrigin::Search,
            stable_count: None,
        }
    }

    fn solver_verdict(class: OscillationClass, stop: StopReason) -> Verdict {
        let complete = stop.is_complete();
        Verdict {
            class,
            states: 0,
            complete,
            stop,
            stable_vectors: vec![vec![Some(ExitPathId::new(1)), None]],
            metrics: None,
            origin: VerdictOrigin::Solver,
            stable_count: complete.then_some(1),
        }
    }

    fn b(max_states: usize) -> StoredBudget {
        StoredBudget {
            max_states,
            max_bytes: None,
        }
    }

    #[test]
    fn budget_cover_is_pointwise() {
        assert!(b(100).covers(&b(100)));
        assert!(b(100).covers(&b(50)));
        assert!(!b(100).covers(&b(200)));
        let bounded = StoredBudget {
            max_states: 100,
            max_bytes: Some(1024),
        };
        assert!(b(100).covers(&bounded), "unbounded memory covers bounded");
        assert!(
            !bounded.covers(&b(100)),
            "bounded memory cannot cover unbounded"
        );
        assert!(bounded.covers(&StoredBudget {
            max_states: 100,
            max_bytes: Some(512),
        }));
        assert!(!bounded.covers(&StoredBudget {
            max_states: 100,
            max_bytes: Some(2048),
        }));
    }

    #[test]
    fn complete_serves_everyone_inconclusive_only_smaller_budgets() {
        let mut store = VerdictStore::in_memory();
        let capped = verdict(OscillationClass::Unknown, StopReason::StateCap(10));
        assert!(store.insert("s", &capped, b(10)).unwrap());
        assert!(store.lookup("s", &b(10), SolverMode::Search).is_some());
        assert!(store.lookup("s", &b(5), SolverMode::Search).is_some());
        assert!(
            store.lookup("s", &b(100), SolverMode::Search).is_none(),
            "a capped verdict must not answer a larger-budget request"
        );
        let complete = verdict(OscillationClass::Stable, StopReason::Complete);
        assert!(store.insert("s", &complete, b(100)).unwrap());
        assert!(store
            .lookup("s", &b(1_000_000), SolverMode::Search)
            .is_some());
        // And the complete entry cannot be downgraded again.
        assert!(!store.insert("s", &capped, b(10)).unwrap());
        assert_eq!(
            store.lookup("s", &b(5), SolverMode::Search).unwrap().class,
            OscillationClass::Stable
        );
    }

    #[test]
    fn inconclusive_entries_serve_only_their_own_backend() {
        let mut store = VerdictStore::in_memory();
        let capped = verdict(OscillationClass::Unknown, StopReason::StateCap(10));
        assert!(store.insert("s", &capped, b(10)).unwrap());
        assert!(
            store.lookup("s", &b(5), SolverMode::Sat).is_none(),
            "inconclusive search evidence says nothing about a solver run"
        );
        // An inconclusive solver entry does not displace (same-sig)
        // inconclusive search evidence, and vice versa.
        let solver_capped = solver_verdict(OscillationClass::Unknown, StopReason::StateCap(10));
        assert!(!store.insert("s", &solver_capped, b(10)).unwrap());
        // A *complete* solver verdict serves every backend and wins.
        let solved = solver_verdict(OscillationClass::Transient, StopReason::Complete);
        assert!(store.insert("s", &solved, b(10)).unwrap());
        let v = store
            .lookup("s", &b(1_000_000), SolverMode::Search)
            .unwrap();
        assert_eq!(v.origin, VerdictOrigin::Solver);
        assert_eq!(v.stable_count, Some(1));
        assert!(store.lookup("s", &b(1_000_000), SolverMode::Sat).is_some());
    }

    #[test]
    fn deadline_stopped_verdicts_are_never_stored() {
        let mut store = VerdictStore::in_memory();
        let v = verdict(OscillationClass::Unknown, StopReason::Deadline);
        assert!(!store.insert("s", &v, b(10)).unwrap());
        assert!(store.is_empty());
    }

    #[test]
    fn log_lines_round_trip() {
        for stop in [
            StopReason::Complete,
            StopReason::StateCap(7),
            StopReason::MemoryBudget(4096),
        ] {
            let class = if stop.is_complete() {
                OscillationClass::Transient
            } else {
                OscillationClass::Unknown
            };
            let e = Entry {
                verdict: verdict(class, stop),
                budget: StoredBudget {
                    max_states: 99,
                    max_bytes: Some(1 << 20),
                },
            };
            let line = format_line("c:abc", &e);
            let (sig, back) = parse_line(line.trim_end()).unwrap();
            assert_eq!(sig, "c:abc");
            assert_eq!(back, e);
            // Solver-origin entries round-trip through the trailing token.
            let e = Entry {
                verdict: solver_verdict(class, stop),
                budget: StoredBudget {
                    max_states: 99,
                    max_bytes: None,
                },
            };
            let line = format_line("c:abc", &e);
            assert!(line.trim_end().ends_with(" solver"));
            let (_, back) = parse_line(line.trim_end()).unwrap();
            assert_eq!(back, e);
        }
        assert!(parse_line("v2 x 1 - stable 1 complete -").is_none());
        assert!(parse_line("v1 x notanumber - stable 1 complete -").is_none());
        assert!(parse_line("v1 x 1 - stable 1 complete - smt").is_none());
        assert!(parse_line("v1 x 1 - stable 1 complete - solver extra").is_none());
    }

    #[test]
    fn vectors_tokens_round_trip() {
        let vs = vec![
            vec![Some(ExitPathId::new(0)), None, Some(ExitPathId::new(3))],
            vec![None],
        ];
        assert_eq!(vectors_token(&vs), "0,-,3;-");
        assert_eq!(vectors_from_token("0,-,3;-").unwrap(), vs);
        assert_eq!(vectors_token(&[]), "-");
        assert_eq!(
            vectors_from_token("-").unwrap(),
            Vec::<Vec<Option<ExitPathId>>>::new()
        );
        assert!(vectors_from_token("0,x").is_none());
    }

    #[test]
    fn persistent_store_replays_strongest_entry() {
        let dir = std::env::temp_dir().join(format!("ibgp-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.log");
        {
            let mut store = VerdictStore::open(&path).unwrap();
            let capped = verdict(OscillationClass::Unknown, StopReason::StateCap(10));
            store.insert("s", &capped, b(10)).unwrap();
            let complete = verdict(OscillationClass::Stable, StopReason::Complete);
            store.insert("s", &complete, b(100)).unwrap();
        }
        let store = VerdictStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let v = store
            .lookup("s", &b(1_000_000), SolverMode::Search)
            .unwrap();
        assert_eq!(v.class, OscillationClass::Stable);
        assert!(v.complete);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
