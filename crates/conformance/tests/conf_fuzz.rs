//! Hostile-input sweep over the `.conf` path.
//!
//! A conformance scenario is parsed and run from plain text, so every
//! input must end in `Ok` or `Err` and never in a panic or an abort.
//! This test mutates every committed scenario two ways — truncated after
//! each token, and with each token replaced by `0`, `4294967295`,
//! `4294967296`, `4294967297` or nothing — and runs each distinct result
//! through `run_file_text`. A router count past `u32::MAX` once wrapped
//! to a small count during reference checks and then aborted the
//! process allocating the topology; it is now a parse error.

use ibgp_conformance::run_file_text;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Replacement tokens: the smallest value, the largest `u32`, the two
/// smallest values past it, and deletion.
const SUBSTITUTES: [&str; 5] = ["0", "4294967295", "4294967296", "4294967297", ""];

fn scenario_files() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "conf"))
        .collect();
    paths.sort();
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("scenario file");
            (p.display().to_string(), text)
        })
        .collect();
    assert!(files.len() >= 3, "the committed battery is present");
    files
}

/// Byte ranges of the whitespace-separated tokens of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (c.is_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    spans
}

/// Every mutant of `text`: each truncation after a token, and each
/// token replaced by each substitute.
fn mutants(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (start, end) in token_spans(text) {
        out.push(text[..end].to_string());
        for sub in SUBSTITUTES {
            out.push(format!("{}{sub}{}", &text[..start], &text[end..]));
        }
    }
    out
}

#[test]
fn mutated_scenarios_never_panic() {
    let mut seen = HashSet::new();
    let mut panicked = Vec::new();
    let (mut inputs, mut ran) = (0, 0);
    for (path, text) in scenario_files() {
        for mutant in mutants(&text) {
            if !seen.insert(mutant.clone()) {
                continue;
            }
            inputs += 1;
            match catch_unwind(AssertUnwindSafe(|| run_file_text(&mutant))) {
                Ok(result) => ran += usize::from(result.is_ok()),
                Err(_) => panicked.push(format!("{path}:\n{mutant}")),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {inputs} inputs panicked; first:\n{}",
        panicked.len(),
        panicked[0]
    );
    // The sweep reaches past the parser: many mutants still run.
    assert!(inputs > 3_000, "{inputs} inputs");
    assert!(ran > inputs / 5, "{ran} of {inputs} ran");
}

/// The input that aborted the process before the router limit.
#[test]
fn a_wrapping_router_count_is_a_line_numbered_error() {
    let text = "conformance 1\nname wrap\nrouters 4294967297\nexit 1 at 0\nexpect route 0 1\n";
    let e = run_file_text(text).expect_err("over the limit");
    assert!(e.starts_with("line 3:"), "{e}");
    assert!(e.contains("exceeds the limit of 1024"), "{e}");
}
