//! The `.ibgp` on-disk scenario format: a stable, hand-rolled plain-text
//! encoding of [`ScenarioSpec`] with a deterministic printer and a
//! line-oriented parser that round-trip exactly: for every valid spec,
//! `parse(&print(&s)) == Ok(s)`.
//!
//! The format is deliberately independent of any serialization framework
//! so corpus files stay readable, diffable, and stable across refactors
//! of the in-memory types. Grammar (one directive per line, `#` starts a
//! comment, blank lines ignored):
//!
//! ```text
//! ibgp 1                          # format version, must be first
//! name fig1a                      # rest of line (no newlines)
//! kind reflection                 # reflection | confed | hierarchy
//! protocol standard               # standard|walton|modified (reflection)
//!                                 # single-best|set-advertisement (confed, hierarchy)
//! routers 5                       # at most MAX_ROUTERS
//! link U V COST                   # undirected physical link, repeated
//! loop-prevention                 # reflection only: message-level
//!                                 # ORIGINATOR_ID/CLUSTER_LIST/SSLD mechanics
//! mesh                            # reflection only: fully meshed I-BGP
//! cluster r R... c C...           # reflection: one line per cluster
//! session U V                     # reflection: extra client-client session
//! subas R...                      # confed: members of the next sub-AS id
//! clink U V                       # confed: confed-E-BGP session
//! hcluster ( r R... m M... )      # hierarchy: top-level cluster tree;
//!                                 # a member M is a router id or a nested ( ... ),
//!                                 # at most MAX_HCLUSTER_DEPTH levels deep
//! exit ID at R as A len L med M pref P cost C
//!                                 # ID below RESERVED_EXIT_ID, L at most MAX_PATH_LEN
//! ```
//!
//! Router BGP identifiers are always the router indices (no scenario in
//! the corpus overrides them); declaration order of links, clusters,
//! sessions, and exits is preserved verbatim.

use crate::spec::{ConfedSpec, ExitSpec, HierSpec, ReflectionSpec, ScenarioSpec, SpecKind};
use ibgp_confed::ConfedMode;
use ibgp_hierarchy::{ClusterSpec, HierMode, Member};
use ibgp_proto::ProtocolVariant;
use ibgp_topology::MAX_ROUTERS;
use std::fmt::Write as _;

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Deepest `hcluster` nesting the parser accepts: the tree is parsed
/// and walked recursively, so unbounded nesting would overflow the
/// stack of whichever thread reads it.
pub(crate) const MAX_HCLUSTER_DEPTH: usize = 64;

/// The exit id the parser refuses: the reflection engine's update memo
/// separates peers' advertised id lists with this word, so no exit may
/// carry it.
pub(crate) const RESERVED_EXIT_ID: u32 = u32::MAX;

/// Longest exit `len` (AS-PATH length) the parser accepts. The path is
/// built hop by hop, so an absurd length must fail as a parse error
/// rather than abort the process on allocation.
pub(crate) const MAX_PATH_LEN: u32 = 1024;

/// A parse failure, with the 1-based line it occurred on (0 for
/// end-of-input / document-level errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based source line (0 = document level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FormatError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError {
        line,
        message: message.into(),
    })
}

/// Print a spec in the canonical `.ibgp` encoding.
pub fn print(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ibgp {FORMAT_VERSION}");
    let _ = writeln!(out, "name {}", spec.name);
    let _ = writeln!(out, "kind {}", spec.kind.keyword());
    // The `protocol` line stores the bare variant; loop prevention is a
    // separate directive (so `protocol_label`'s display suffix never
    // leaks into the on-disk encoding).
    let protocol = match &spec.kind {
        SpecKind::Reflection(r) => r.variant.to_string(),
        SpecKind::Confed(c) => c.mode.to_string(),
        SpecKind::Hierarchy(h) => h.mode.to_string(),
    };
    let _ = writeln!(out, "protocol {protocol}");
    let _ = writeln!(out, "routers {}", spec.routers);
    for &(u, v, c) in &spec.links {
        let _ = writeln!(out, "link {u} {v} {c}");
    }
    match &spec.kind {
        SpecKind::Reflection(r) => {
            if r.loop_prevention {
                let _ = writeln!(out, "loop-prevention");
            }
            if r.full_mesh {
                let _ = writeln!(out, "mesh");
            } else {
                for (rs, cs) in &r.clusters {
                    let _ = write!(out, "cluster r");
                    for x in rs {
                        let _ = write!(out, " {x}");
                    }
                    let _ = write!(out, " c");
                    for x in cs {
                        let _ = write!(out, " {x}");
                    }
                    out.push('\n');
                }
            }
            for &(u, v) in &r.client_sessions {
                let _ = writeln!(out, "session {u} {v}");
            }
        }
        SpecKind::Confed(c) => {
            for members in &c.sub_as {
                let _ = write!(out, "subas");
                for x in members {
                    let _ = write!(out, " {x}");
                }
                out.push('\n');
            }
            for &(u, v) in &c.confed_links {
                let _ = writeln!(out, "clink {u} {v}");
            }
        }
        SpecKind::Hierarchy(h) => {
            for top in &h.top {
                let mut line = String::from("hcluster ");
                print_hcluster(top, &mut line);
                let _ = writeln!(out, "{line}");
            }
        }
    }
    for e in &spec.exits {
        let _ = writeln!(
            out,
            "exit {} at {} as {} len {} med {} pref {} cost {}",
            e.id, e.at, e.next_as, e.len, e.med, e.pref, e.cost
        );
    }
    out
}

fn print_hcluster(c: &ClusterSpec, out: &mut String) {
    out.push_str("( r");
    for r in &c.reflectors {
        let _ = write!(out, " {r}");
    }
    out.push_str(" m");
    for m in &c.members {
        match m {
            Member::Router(r) => {
                let _ = write!(out, " {r}");
            }
            Member::Cluster(sub) => {
                out.push(' ');
                print_hcluster(sub, out);
            }
        }
    }
    out.push_str(" )");
}

/// What a `kind` line declares, before its structure lines arrive.
enum PendingKind {
    Reflection,
    Confed,
    Hierarchy,
}

/// Parse the `.ibgp` encoding back into a [`ScenarioSpec`].
///
/// The parser is strict: unknown directives, missing required headers,
/// structure lines that contradict the declared `kind`, and malformed
/// numbers are all errors (with line numbers).
pub fn parse(input: &str) -> Result<ScenarioSpec, FormatError> {
    let mut name: Option<String> = None;
    let mut kind: Option<PendingKind> = None;
    let mut protocol: Option<String> = None;
    let mut routers: Option<usize> = None;
    let mut links: Vec<(u32, u32, u64)> = Vec::new();
    let mut full_mesh = false;
    let mut loop_prevention = false;
    let mut clusters: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut client_sessions: Vec<(u32, u32)> = Vec::new();
    let mut sub_as: Vec<Vec<u32>> = Vec::new();
    let mut confed_links: Vec<(u32, u32)> = Vec::new();
    let mut hclusters: Vec<ClusterSpec> = Vec::new();
    let mut exits: Vec<ExitSpec> = Vec::new();
    let mut saw_version = false;
    // Router references by source line, checked against `routers` once
    // the whole document is read (directive order is not significant, so
    // a reference may legally precede the `routers` line).
    let mut router_refs: Vec<(usize, u32)> = Vec::new();

    for (idx, raw_line) in input.lines().enumerate() {
        let ln = idx + 1;
        let line = match raw_line.find('#') {
            Some(p) => &raw_line[..p],
            None => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let directive = toks.next().expect("non-empty line has a token");
        if !saw_version {
            if directive != "ibgp" {
                return err(ln, "file must start with an `ibgp <version>` line");
            }
            let v: u32 = num(toks.next(), ln, "format version")?;
            if v != FORMAT_VERSION {
                return err(ln, format!("unsupported format version {v}"));
            }
            saw_version = true;
            continue;
        }
        match directive {
            "name" => {
                let rest = line["name".len()..].trim();
                if rest.is_empty() {
                    return err(ln, "`name` needs a value");
                }
                if name.replace(rest.to_string()).is_some() {
                    return err(ln, "duplicate `name` directive");
                }
            }
            "kind" => {
                if kind.is_some() {
                    return err(ln, "duplicate `kind` directive");
                }
                kind = Some(match toks.next() {
                    Some("reflection") => PendingKind::Reflection,
                    Some("confed") => PendingKind::Confed,
                    Some("hierarchy") => PendingKind::Hierarchy,
                    Some(other) => return err(ln, format!("unknown kind `{other}`")),
                    None => return err(ln, "`kind` needs a value"),
                });
            }
            "protocol" => match toks.next() {
                Some(p) => {
                    if protocol.replace(p.to_string()).is_some() {
                        return err(ln, "duplicate `protocol` directive");
                    }
                }
                None => return err(ln, "`protocol` needs a value"),
            },
            "routers" => {
                let count: usize = num(toks.next(), ln, "router count")?;
                if count > MAX_ROUTERS {
                    return err(
                        ln,
                        format!("router count {count} exceeds the limit of {MAX_ROUTERS}"),
                    );
                }
                if routers.replace(count).is_some() {
                    return err(ln, "duplicate `routers` directive");
                }
            }
            "link" => {
                let u = num(toks.next(), ln, "link endpoint")?;
                let v = num(toks.next(), ln, "link endpoint")?;
                let c = num(toks.next(), ln, "link cost")?;
                router_refs.push((ln, u));
                router_refs.push((ln, v));
                links.push((u, v, c));
            }
            "mesh" => {
                require_kind(&kind, "mesh", &PendingKind::Reflection, ln)?;
                if full_mesh {
                    return err(ln, "duplicate `mesh` directive");
                }
                full_mesh = true;
            }
            "loop-prevention" => {
                require_kind(&kind, "loop-prevention", &PendingKind::Reflection, ln)?;
                if loop_prevention {
                    return err(ln, "duplicate `loop-prevention` directive");
                }
                loop_prevention = true;
            }
            "cluster" => {
                require_kind(&kind, "cluster", &PendingKind::Reflection, ln)?;
                let (rs, cs) = parse_cluster_line(&mut toks, ln)?;
                router_refs.extend(rs.iter().chain(cs.iter()).map(|&x| (ln, x)));
                clusters.push((rs, cs));
            }
            "session" => {
                require_kind(&kind, "session", &PendingKind::Reflection, ln)?;
                let u = num(toks.next(), ln, "session endpoint")?;
                let v = num(toks.next(), ln, "session endpoint")?;
                router_refs.push((ln, u));
                router_refs.push((ln, v));
                client_sessions.push((u, v));
            }
            "subas" => {
                require_kind(&kind, "subas", &PendingKind::Confed, ln)?;
                let members: Result<Vec<u32>, _> = toks
                    .by_ref()
                    .map(|t| num(Some(t), ln, "sub-AS member"))
                    .collect();
                let members = members?;
                router_refs.extend(members.iter().map(|&x| (ln, x)));
                sub_as.push(members);
            }
            "clink" => {
                require_kind(&kind, "clink", &PendingKind::Confed, ln)?;
                let u = num(toks.next(), ln, "clink endpoint")?;
                let v = num(toks.next(), ln, "clink endpoint")?;
                router_refs.push((ln, u));
                router_refs.push((ln, v));
                confed_links.push((u, v));
            }
            "hcluster" => {
                require_kind(&kind, "hcluster", &PendingKind::Hierarchy, ln)?;
                let tokens: Vec<&str> = toks.by_ref().collect();
                let mut pos = 0;
                let c = parse_hcluster(&tokens, &mut pos, ln, 1)?;
                if pos != tokens.len() {
                    return err(ln, "trailing tokens after hierarchy cluster");
                }
                collect_hcluster_routers(&c, ln, &mut router_refs);
                hclusters.push(c);
            }
            "exit" => {
                let e = parse_exit_line(&mut toks, ln)?;
                router_refs.push((ln, e.at));
                exits.push(e);
            }
            other => return err(ln, format!("unknown directive `{other}`")),
        }
        if let Some(extra) = toks.next() {
            // `name` consumes the rest of the line itself; every other
            // directive must use all its tokens.
            if directive != "name" {
                return err(ln, format!("trailing token `{extra}`"));
            }
        }
    }

    if !saw_version {
        return err(0, "empty document (missing `ibgp <version>` line)");
    }
    let name = name.ok_or_else(|| missing("name"))?;
    let routers = routers.ok_or_else(|| missing("routers"))?;
    let protocol = protocol.ok_or_else(|| missing("protocol"))?;
    for (ln, r) in router_refs {
        if r as usize >= routers {
            return err(
                ln,
                format!("router id {r} out of range (declared `routers {routers}`)"),
            );
        }
    }
    let kind = match kind.ok_or_else(|| missing("kind"))? {
        PendingKind::Reflection => {
            if full_mesh && !clusters.is_empty() {
                return err(0, "`mesh` and `cluster` lines are mutually exclusive");
            }
            SpecKind::Reflection(ReflectionSpec {
                full_mesh,
                clusters,
                client_sessions,
                variant: protocol
                    .parse::<ProtocolVariant>()
                    .map_err(|e| FormatError {
                        line: 0,
                        message: e,
                    })?,
                loop_prevention,
            })
        }
        PendingKind::Confed => SpecKind::Confed(ConfedSpec {
            sub_as,
            confed_links,
            mode: parse_mode(&protocol)
                .map(|single| {
                    if single {
                        ConfedMode::SingleBest
                    } else {
                        ConfedMode::SetAdvertisement
                    }
                })
                .ok_or_else(|| bad_mode(&protocol))?,
        }),
        PendingKind::Hierarchy => SpecKind::Hierarchy(HierSpec {
            top: hclusters,
            mode: parse_mode(&protocol)
                .map(|single| {
                    if single {
                        HierMode::SingleBest
                    } else {
                        HierMode::SetAdvertisement
                    }
                })
                .ok_or_else(|| bad_mode(&protocol))?,
        }),
    };
    Ok(ScenarioSpec {
        name,
        routers,
        links,
        kind,
        exits,
    })
}

/// Every router id an `hcluster` tree references, attributed to its line.
fn collect_hcluster_routers(c: &ClusterSpec, ln: usize, out: &mut Vec<(usize, u32)>) {
    out.extend(c.reflectors.iter().map(|&r| (ln, r)));
    for m in &c.members {
        match m {
            Member::Router(r) => out.push((ln, *r)),
            Member::Cluster(sub) => collect_hcluster_routers(sub, ln, out),
        }
    }
}

fn missing(field: &str) -> FormatError {
    FormatError {
        line: 0,
        message: format!("missing `{field}` directive"),
    }
}

fn bad_mode(p: &str) -> FormatError {
    FormatError {
        line: 0,
        message: format!("unknown protocol `{p}` (expected single-best|set-advertisement)"),
    }
}

/// `Some(true)` for single-best, `Some(false)` for set-advertisement.
fn parse_mode(p: &str) -> Option<bool> {
    match p {
        "single-best" => Some(true),
        "set-advertisement" => Some(false),
        _ => None,
    }
}

fn require_kind(
    kind: &Option<PendingKind>,
    directive: &str,
    want: &PendingKind,
    ln: usize,
) -> Result<(), FormatError> {
    let ok = matches!(
        (kind, want),
        (Some(PendingKind::Reflection), PendingKind::Reflection)
            | (Some(PendingKind::Confed), PendingKind::Confed)
            | (Some(PendingKind::Hierarchy), PendingKind::Hierarchy)
    );
    if ok {
        Ok(())
    } else {
        err(
            ln,
            format!("`{directive}` requires a preceding matching `kind` line"),
        )
    }
}

fn num<T: std::str::FromStr>(tok: Option<&str>, ln: usize, what: &str) -> Result<T, FormatError> {
    match tok {
        Some(t) => t.parse().map_err(|_| FormatError {
            line: ln,
            message: format!("invalid {what} `{t}`"),
        }),
        None => err(ln, format!("missing {what}")),
    }
}

fn parse_cluster_line<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    ln: usize,
) -> Result<(Vec<u32>, Vec<u32>), FormatError> {
    match toks.next() {
        Some("r") => {}
        _ => return err(ln, "`cluster` line must start with `r`"),
    }
    let mut reflectors = Vec::new();
    let mut clients = Vec::new();
    let mut in_clients = false;
    for t in toks {
        if t == "c" {
            if in_clients {
                return err(ln, "duplicate `c` marker in cluster line");
            }
            in_clients = true;
        } else {
            let v = num(Some(t), ln, "cluster member")?;
            if in_clients {
                clients.push(v);
            } else {
                reflectors.push(v);
            }
        }
    }
    if !in_clients {
        return err(ln, "cluster line missing `c` marker");
    }
    Ok((reflectors, clients))
}

/// Parse one `( r ... m ... )` cluster at nesting `depth` (1 for a
/// top-level cluster).
fn parse_hcluster(
    tokens: &[&str],
    pos: &mut usize,
    ln: usize,
    depth: usize,
) -> Result<ClusterSpec, FormatError> {
    if tokens.get(*pos) != Some(&"(") {
        return err(ln, "expected `(` opening a hierarchy cluster");
    }
    if depth > MAX_HCLUSTER_DEPTH {
        return err(
            ln,
            format!("hierarchy clusters nested deeper than {MAX_HCLUSTER_DEPTH} levels"),
        );
    }
    *pos += 1;
    if tokens.get(*pos) != Some(&"r") {
        return err(ln, "expected `r` after `(`");
    }
    *pos += 1;
    let mut reflectors = Vec::new();
    while let Some(t) = tokens.get(*pos) {
        if *t == "m" {
            break;
        }
        reflectors.push(num(Some(t), ln, "reflector id")?);
        *pos += 1;
    }
    if tokens.get(*pos) != Some(&"m") {
        return err(ln, "expected `m` after reflector list");
    }
    *pos += 1;
    let mut members = Vec::new();
    loop {
        match tokens.get(*pos) {
            Some(&")") => {
                *pos += 1;
                return Ok(ClusterSpec {
                    reflectors,
                    members,
                });
            }
            Some(&"(") => {
                members.push(Member::Cluster(parse_hcluster(tokens, pos, ln, depth + 1)?))
            }
            Some(t) => {
                members.push(Member::Router(num(Some(t), ln, "member router id")?));
                *pos += 1;
            }
            None => return err(ln, "unterminated hierarchy cluster (missing `)`)"),
        }
    }
}

fn parse_exit_line<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    ln: usize,
) -> Result<ExitSpec, FormatError> {
    let id = num(toks.next(), ln, "exit id")?;
    if id == RESERVED_EXIT_ID {
        return err(ln, format!("exit id {id} is reserved"));
    }
    let mut e = ExitSpec::new(id, 0, 0);
    for (key, field) in [
        ("at", "exit point"),
        ("as", "neighbor AS"),
        ("len", "path length"),
        ("med", "MED"),
        ("pref", "LOCAL-PREF"),
        ("cost", "exit cost"),
    ] {
        match toks.next() {
            Some(k) if k == key => {}
            _ => return err(ln, format!("exit line missing `{key}` field")),
        }
        match key {
            "at" => e.at = num(toks.next(), ln, field)?,
            "as" => e.next_as = num(toks.next(), ln, field)?,
            "len" => e.len = num(toks.next(), ln, field)?,
            "med" => e.med = num(toks.next(), ln, field)?,
            "pref" => e.pref = num(toks.next(), ln, field)?,
            "cost" => e.cost = num(toks.next(), ln, field)?,
            _ => unreachable!(),
        }
    }
    if e.len > MAX_PATH_LEN {
        return err(
            ln,
            format!("path length {} exceeds the limit of {MAX_PATH_LEN}", e.len),
        );
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecKind;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "sample".into(),
            routers: 4,
            links: vec![(0, 2, 10), (0, 3, 1), (1, 3, 10), (1, 2, 1)],
            kind: SpecKind::Reflection(ReflectionSpec {
                full_mesh: false,
                clusters: vec![(vec![0], vec![2]), (vec![1], vec![3])],
                client_sessions: vec![(2, 3)],
                variant: ProtocolVariant::Standard,
                loop_prevention: false,
            }),
            exits: vec![
                ExitSpec::new(1, 2, 1).med(5),
                ExitSpec {
                    id: 2,
                    at: 3,
                    next_as: 2,
                    len: 3,
                    med: 0,
                    pref: 200,
                    cost: 4,
                },
            ],
        }
    }

    #[test]
    fn reflection_round_trip() {
        let s = sample();
        let text = print(&s);
        assert_eq!(parse(&text).unwrap(), s);
    }

    #[test]
    fn full_mesh_round_trip() {
        let mut s = sample();
        s.kind = SpecKind::Reflection(ReflectionSpec {
            full_mesh: true,
            clusters: vec![],
            client_sessions: vec![],
            variant: ProtocolVariant::Modified,
            loop_prevention: false,
        });
        let text = print(&s);
        assert!(text.contains("mesh\n"));
        assert_eq!(parse(&text).unwrap(), s);
    }

    #[test]
    fn confed_round_trip() {
        let s = ScenarioSpec {
            name: "confed-x".into(),
            routers: 5,
            links: vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)],
            kind: SpecKind::Confed(ConfedSpec {
                sub_as: vec![vec![0, 1], vec![2], vec![3, 4]],
                confed_links: vec![(1, 2), (2, 3)],
                mode: ConfedMode::SetAdvertisement,
            }),
            exits: vec![ExitSpec::new(1, 0, 1), ExitSpec::new(2, 4, 1)],
        };
        assert_eq!(parse(&print(&s)).unwrap(), s);
    }

    #[test]
    fn hierarchy_round_trip() {
        let s = ScenarioSpec {
            name: "hier-x".into(),
            routers: 5,
            links: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
            kind: SpecKind::Hierarchy(HierSpec {
                top: vec![
                    ClusterSpec {
                        reflectors: vec![0],
                        members: vec![
                            Member::Cluster(ClusterSpec::flat(1, [2])),
                            Member::Router(3),
                        ],
                    },
                    ClusterSpec::flat(4, []),
                ],
                mode: HierMode::SingleBest,
            }),
            exits: vec![ExitSpec::new(1, 2, 1)],
        };
        let text = print(&s);
        assert_eq!(parse(&text).unwrap(), s, "\n{text}");
    }

    /// `loop-prevention` round-trips as its own directive; the
    /// `protocol` line stays the bare variant even though the display
    /// label grows a suffix.
    #[test]
    fn loop_prevention_round_trip() {
        let mut s = sample();
        match &mut s.kind {
            SpecKind::Reflection(r) => r.loop_prevention = true,
            _ => unreachable!(),
        }
        let text = print(&s);
        assert!(text.contains("\nloop-prevention\n"), "{text}");
        assert!(text.contains("\nprotocol standard\n"), "{text}");
        assert_eq!(parse(&text).unwrap(), s);
        assert_eq!(s.protocol_label(), "standard+loop-prevention");
    }

    /// `loop-prevention` is a reflection-only directive.
    #[test]
    fn loop_prevention_requires_reflection_kind() {
        let e = parse("ibgp 1\nname x\nkind confed\nloop-prevention\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("matching `kind`"), "{e}");
        let e = parse("ibgp 1\nname x\nloop-prevention\n").unwrap_err();
        assert!(e.to_string().contains("matching `kind`"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = sample();
        let text = print(&s);
        let commented: String = text
            .lines()
            .map(|l| format!("{l}   # trailing comment\n\n"))
            .collect();
        let full = format!("# leading comment\n\n{commented}");
        // The version line must still come first among directives.
        let full = full.replacen("# leading comment\n\n", "", 1);
        let full = format!("# head\n\n{full}");
        assert_eq!(parse(&full).unwrap(), s);
    }

    /// A router count past the limit is a line-numbered parse error,
    /// not an allocation the process cannot survive.
    #[test]
    fn absurd_router_counts_are_rejected() {
        let head = "ibgp 1\nname x\nkind reflection\nprotocol standard\n";
        let e = parse(&format!("{head}routers 3000000000\n")).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
        let e = parse(&format!("{head}routers {}\n", MAX_ROUTERS + 1)).unwrap_err();
        assert_eq!(e.line, 5);
        let at_limit = parse(&format!("{head}routers {MAX_ROUTERS}\n")).unwrap();
        assert_eq!(at_limit.routers, MAX_ROUTERS);
    }

    /// `hcluster` nesting past the limit is a line-numbered parse error,
    /// not a stack overflow; nesting at the limit parses.
    #[test]
    fn deep_hcluster_nesting_is_rejected() {
        let nested = |depth: usize| {
            format!(
                "ibgp 1\nname x\nkind hierarchy\nprotocol single-best\nrouters 1\nhcluster {}{}\n",
                "( r 0 m ".repeat(depth),
                ") ".repeat(depth)
            )
        };
        let e = parse(&nested(200_000)).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.to_string().contains("nested deeper"), "{e}");
        let e = parse(&nested(MAX_HCLUSTER_DEPTH + 1)).unwrap_err();
        assert!(e.to_string().contains("nested deeper"), "{e}");
        let spec = parse(&nested(MAX_HCLUSTER_DEPTH));
        assert!(
            spec.as_ref()
                .err()
                .is_none_or(|e| !e.to_string().contains("nested deeper")),
            "{spec:?}"
        );
    }

    /// The reserved exit id and a path length past the limit are
    /// line-numbered parse errors, not a panic in the reflection engine
    /// or an allocation the process cannot survive; the largest allowed
    /// values parse.
    #[test]
    fn hostile_exit_fields_are_rejected() {
        let head = "ibgp 1\nname x\nkind reflection\nprotocol standard\nrouters 1\nmesh\n";
        let exit = |id: u32, len: u32| {
            format!("{head}exit {id} at 0 as 1 len {len} med 0 pref 100 cost 0\n")
        };
        let e = parse(&exit(RESERVED_EXIT_ID, 1)).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.to_string().contains("is reserved"), "{e}");
        let e = parse(&exit(1, u32::MAX)).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
        let e = parse(&exit(1, MAX_PATH_LEN + 1)).unwrap_err();
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
        let at_limit = parse(&exit(RESERVED_EXIT_ID - 1, MAX_PATH_LEN)).unwrap();
        assert_eq!(at_limit.exits[0].id, RESERVED_EXIT_ID - 1);
        assert_eq!(at_limit.exits[0].len, MAX_PATH_LEN);
        let v = crate::classify_spec(&at_limit, &crate::HuntOptions::new()).unwrap();
        assert!(v.complete, "the largest allowed values classify");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("bogus 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("ibgp 1\nname x\nkind reflection\nwat 3\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("wat"), "{e}");
        let e = parse("ibgp 2\n").unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
        let e = parse("ibgp 1\nname x\nkind confed\ncluster r 0 c\n").unwrap_err();
        assert!(e.to_string().contains("matching `kind`"), "{e}");
        let e = parse("ibgp 1\nname x\nkind reflection\nprotocol standard\n").unwrap_err();
        assert!(e.to_string().contains("routers"), "{e}");
        let e = parse("ibgp 1\nname x\nkind reflection\nprotocol nope\nrouters 1\n").unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
        let e = parse("ibgp 1\nlink 0 1 x\n").unwrap_err();
        assert!(e.to_string().contains("cost"), "{e}");
    }

    /// The strict-parser battery: every malformed document is rejected
    /// with the offending line, never silently accepted or papered over
    /// by last-one-wins semantics.
    #[test]
    fn strict_parser_rejects_duplicates_and_out_of_range_ids() {
        let head = "ibgp 1\nname x\nkind reflection\nprotocol standard\nrouters 2\n";
        let cases: &[(String, usize, &str)] = &[
            // Duplicate header directives.
            (format!("{head}name y\n"), 6, "duplicate `name`"),
            (format!("{head}kind reflection\n"), 6, "duplicate `kind`"),
            (format!("{head}protocol walton\n"), 6, "duplicate `protocol`"),
            (format!("{head}routers 3\n"), 6, "duplicate `routers`"),
            (format!("{head}mesh\nmesh\n"), 7, "duplicate `mesh`"),
            (
                format!("{head}loop-prevention\nloop-prevention\n"),
                7,
                "duplicate `loop-prevention`",
            ),
            // Out-of-range router references, per directive. The check
            // runs after the whole document is read, so it fires even
            // when the reference precedes the `routers` line.
            (format!("{head}link 0 2 1\n"), 6, "out of range"),
            (format!("{head}cluster r 0 c 5\n"), 6, "out of range"),
            (format!("{head}session 1 2\n"), 6, "out of range"),
            (
                format!("{head}exit 1 at 9 as 1 len 1 med 0 pref 100 cost 0\n"),
                6,
                "out of range",
            ),
            (
                "ibgp 1\nname x\nkind reflection\nlink 0 7 1\nprotocol standard\nrouters 2\n"
                    .to_string(),
                4,
                "out of range",
            ),
            (
                "ibgp 1\nname x\nkind confed\nprotocol single-best\nrouters 2\nsubas 0 4\n"
                    .to_string(),
                6,
                "out of range",
            ),
            (
                "ibgp 1\nname x\nkind confed\nprotocol single-best\nrouters 2\nclink 0 3\n"
                    .to_string(),
                6,
                "out of range",
            ),
            (
                "ibgp 1\nname x\nkind hierarchy\nprotocol single-best\nrouters 2\nhcluster ( r 0 m 6 )\n"
                    .to_string(),
                6,
                "out of range",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).expect_err(text);
            assert_eq!(e.line, *line, "{text:?} -> {e}");
            assert!(e.to_string().contains(needle), "{text:?} -> {e}");
        }
        // The error message names both the id and the declared bound.
        let e = parse(&format!("{head}link 0 2 1\n")).unwrap_err();
        assert!(e.to_string().contains("router id 2"), "{e}");
        assert!(e.to_string().contains("`routers 2`"), "{e}");
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let e = parse("ibgp 1\nname x\nkind reflection\nprotocol standard extra\n").unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        let e = parse("ibgp 1\nlink 0 1 2 3\n").unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
    }

    #[test]
    fn names_may_contain_spaces() {
        let mut s = sample();
        s.name = "two words".into();
        assert_eq!(parse(&print(&s)).unwrap(), s);
    }

    #[test]
    fn exit_line_is_strict_about_field_order() {
        let e =
            parse("ibgp 1\nname x\nkind reflection\nprotocol standard\nrouters 1\ncluster r 0 c\nexit 1 as 1 at 0 len 1 med 0 pref 100 cost 0\n")
                .unwrap_err();
        assert!(e.to_string().contains("`at`"), "{e}");
    }
}
