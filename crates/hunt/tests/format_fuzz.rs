//! Hostile-input sweep over the `.ibgp` path.
//!
//! The daemon parses untrusted request bodies, so every input must end
//! in `Ok` or `Err` and never in a panic or an abort. This test mutates
//! every committed corpus file two ways — truncated after each token,
//! and with each token replaced by `0`, `4294967295`, `4294967296` or
//! nothing — and runs each distinct result through the whole request
//! path: parse, signature, build, and a small capped classification.

use ibgp_hunt::{classify_spec, parse, signature, HuntOptions};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Replacement tokens: the smallest value, the largest `u32`, the
/// smallest value past it, and deletion.
const SUBSTITUTES: [&str; 4] = ["0", "4294967295", "4294967296", ""];

/// State cap of the classification each parsed input gets: enough to
/// build every engine and expand a few levels, small enough to keep the
/// sweep to seconds in the debug profile.
const MAX_STATES: usize = 20;

fn corpus_files() -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files = Vec::new();
    for sub in ["paper", "specimens"] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(sub))
            .expect("corpus directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "ibgp"))
            .collect();
        paths.sort();
        for p in paths {
            let text = std::fs::read_to_string(&p).expect("corpus file");
            files.push((p.display().to_string(), text));
        }
    }
    assert!(files.len() >= 10, "the committed corpus is present");
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

/// The daemon's path for one request body; whether it parsed and
/// whether it built are returned for the coverage check.
fn run(text: &str) -> (bool, bool) {
    let Ok(spec) = parse(text) else {
        return (false, false);
    };
    let _ = signature(&spec);
    let built = classify_spec(&spec, &HuntOptions::new().max_states(MAX_STATES)).is_ok();
    (true, built)
}

#[test]
fn mutated_corpus_files_never_panic() {
    let mut seen = HashSet::new();
    let mut panicked = Vec::new();
    let (mut inputs, mut parsed, mut built) = (0, 0, 0);
    for (path, text) in corpus_files() {
        for mutant in mutants(&text) {
            if !seen.insert(mutant.clone()) {
                continue;
            }
            inputs += 1;
            match catch_unwind(AssertUnwindSafe(|| run(&mutant))) {
                Ok((p, b)) => {
                    parsed += usize::from(p);
                    built += usize::from(b);
                }
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
    // The sweep reaches past the parser: many mutants still classify.
    assert!(inputs > 3_000, "{inputs} inputs");
    assert!(parsed > inputs / 5, "{parsed} of {inputs} parsed");
    assert!(built > parsed / 2, "{built} of {parsed} classified");
}
