//! End-to-end tests of the compiled `ibgp-cli` binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ibgp-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_shows_all_scenarios() {
    let (stdout, _, ok) = run(&["list"]);
    assert!(ok);
    for name in ["fig1a", "fig1b", "fig2", "fig3", "fig12", "fig13", "fig14"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn classify_fig1a_reports_persistence() {
    let (stdout, _, ok) = run(&["classify", "fig1a"]);
    assert!(ok);
    assert!(stdout.contains("persistent oscillation"), "{stdout}");
    assert!(stdout.contains("0 stable solution(s)"), "{stdout}");
}

#[test]
fn classify_honors_variant_flag() {
    let (stdout, _, ok) = run(&["classify", "fig1a", "--variant", "modified"]);
    assert!(ok);
    assert!(stdout.contains("stable"), "{stdout}");
    assert!(!stdout.contains("persistent"), "{stdout}");
}

#[test]
fn run_prints_routes() {
    let (stdout, _, ok) = run(&["run", "fig14", "--variant", "modified"]);
    assert!(ok);
    assert!(stdout.contains("converged"), "{stdout}");
    assert!(stdout.contains("r0:"), "{stdout}");
}

#[test]
fn dot_emits_graphviz() {
    let (stdout, _, ok) = run(&["dot", "fig2"]);
    assert!(ok);
    assert!(stdout.starts_with("graph as0 {"), "{stdout}");
}

#[test]
fn theorems_all_hold_on_fig1a() {
    let (stdout, _, ok) = run(&["theorems", "fig1a"]);
    assert!(ok);
    assert!(stdout.contains("ALL HOLD"), "{stdout}");
}

#[test]
fn sat_decides_and_round_trips() {
    let (stdout, _, ok) = run(&["sat", "1,2;-1,2"]);
    assert!(ok);
    assert!(stdout.contains("satisfiable"), "{stdout}");
    assert!(stdout.contains("satisfies J: true"), "{stdout}");

    let (stdout, _, ok) = run(&["sat", "1;-1"]);
    assert!(ok);
    assert!(stdout.contains("unsatisfiable"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_help() {
    let (_, stderr, ok) = run(&["bogus-command"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("missing command"), "{stderr}");
}

#[test]
fn unknown_scenario_exits_nonzero() {
    let (_, stderr, ok) = run(&["classify", "nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
}

#[test]
fn explain_shows_the_decision_trace() {
    let (stdout, _, ok) = run(&["explain", "fig1a", "0", "--variant", "modified"]);
    assert!(ok);
    assert!(stdout.contains("candidates at r0"), "{stdout}");
    assert!(stdout.contains("-[min-metric]->"), "{stdout}");
    assert!(stdout.contains("winner:"), "{stdout}");
}

#[test]
fn explain_rejects_bad_router() {
    let (_, stderr, ok) = run(&["explain", "fig1a", "99"]);
    assert!(!ok);
    assert!(stderr.contains("out of range"), "{stderr}");
}

fn golden(name: &str) -> String {
    format!(
        "{}/../../corpus/paper/{name}.ibgp",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ibgp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn classify_accepts_a_spec_file() {
    let path = golden("fig1a");
    let (stdout, _, ok) = run(&["classify", &path]);
    assert!(ok);
    assert!(stdout.contains("persistent oscillation"), "{stdout}");
    assert!(stdout.contains("reflection"), "{stdout}");
}

#[test]
fn run_on_a_spec_file_shares_the_verdict_printer() {
    let fig1a = run(&["run", &golden("fig1a")]);
    assert!(fig1a.2);
    assert!(fig1a.0.contains("persistent oscillation"), "{}", fig1a.0);

    // The shared cap hint appears on inconclusive searches from both verbs.
    let capped_run = run(&["run", &golden("fig13"), "--max-states", "10"]);
    let capped_classify = run(&["classify", &golden("fig13"), "--max-states", "10"]);
    for (stdout, _, ok) in [&capped_run, &capped_classify] {
        assert!(*ok);
        assert!(
            stdout.contains("inconclusive: state cap 10 reached"),
            "{stdout}"
        );
    }
}

#[test]
fn hunt_minimize_and_corpus_stats_chain_end_to_end() {
    let out = temp_dir("hunt");
    let out_str = out.to_string_lossy().into_owned();
    let (stdout, _, ok) = run(&[
        "hunt", "--seed", "20260806", "--budget", "30", "--out", &out_str,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("filed 2 new specimens"), "{stdout}");

    // The corpus is on disk where stats can see it.
    let (stats, _, ok) = run(&["corpus", "stats", &out_str]);
    assert!(ok);
    assert!(stats.contains("specimens"), "{stats}");

    // Minimize one filed find (whichever bucket this seed filled); the
    // emitted spec must classify to the same verdict.
    let specimen = ["oscillating", "bistable"]
        .iter()
        .filter_map(|b| std::fs::read_dir(out.join(b)).ok())
        .flatten()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "ibgp"))
        .expect("at least one filed specimen");
    let minimized = out.join("minimized.ibgp");
    let (stdout, _, ok) = run(&[
        "minimize",
        &specimen.to_string_lossy(),
        "--out",
        &minimized.to_string_lossy(),
    ]);
    assert!(ok, "{stdout}");
    let (verdict, _, ok) = run(&["classify", &minimized.to_string_lossy()]);
    assert!(ok);
    assert!(verdict.contains("oscillation"), "{verdict}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn minimize_shrinks_a_padded_fig1a_spec() {
    use ibgp_hunt::spec::{ScenarioSpec, SpecKind};
    let text = std::fs::read_to_string(golden("fig1a")).unwrap();
    let mut spec: ScenarioSpec = ibgp_hunt::parse(&text).unwrap();
    let first = spec.routers as u32;
    spec.routers += 1;
    spec.links.push((0, first, 3));
    match &mut spec.kind {
        SpecKind::Reflection(r) => r.clusters[0].1.push(first),
        _ => unreachable!(),
    }
    let dir = temp_dir("minimize");
    std::fs::create_dir_all(&dir).unwrap();
    let padded = dir.join("padded.ibgp");
    std::fs::write(&padded, ibgp_hunt::print(&spec)).unwrap();
    let (stdout, _, ok) = run(&["minimize", &padded.to_string_lossy()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("removed 1 router(s)"), "{stdout}");
    assert!(stdout.contains("persistent oscillation"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn classify_with_por_keeps_the_verdict_and_reports_the_split() {
    let (stdout, _, ok) = run(&["classify", "fig1a", "--por"]);
    assert!(ok);
    assert!(stdout.contains("persistent oscillation"), "{stdout}");
    assert!(stdout.contains("por:"), "{stdout}");
    assert!(stdout.contains("ample branch"), "{stdout}");
}

#[test]
fn confed_specs_run_on_the_shared_explorer_with_jobs_and_max_bytes() {
    use ibgp_hunt::{generate_spec, Family};
    let dir = temp_dir("confedjobs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("confed.ibgp");
    std::fs::write(
        &path,
        ibgp_hunt::print(&generate_spec(Family::Confed, 7, 8)),
    )
    .unwrap();
    let path = path.to_string_lossy().into_owned();

    let classify = |jobs: &str| {
        let (stdout, stderr, ok) =
            run(&["classify", &path, "--jobs", jobs, "--max-bytes", "1048576"]);
        assert!(ok, "{stderr}");
        assert!(!stderr.contains("warning"), "{stderr}");
        stdout
    };
    let one = classify("1");
    let two = classify("2");
    assert!(two.contains(" on 2 worker(s) "), "{two}");
    assert!(
        two.contains("update cache:"),
        "metrics block missing:\n{two}"
    );
    // Everything but the throughput line (rate and worker count) and the
    // update-cache split is the same verdict. Each worker keeps its own
    // memo, so the hit/miss split varies with the worker count; the
    // total is fixed, one lookup per router per planned state.
    let verdict = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.contains("states/sec") && !l.contains("update cache:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(verdict(&one), verdict(&two));
    let lookups = |out: &str| -> u64 {
        let line = out
            .lines()
            .find(|l| l.contains("update cache:"))
            .expect("update cache line");
        let (_, counts) = line.split_once('(').expect("hit/miss counts");
        counts
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse::<u64>().ok())
            .sum()
    };
    assert_eq!(lookups(&one), lookups(&two), "{one}\n{two}");
    assert_eq!(lookups(&one), 603 * 5, "one plan per state, five routers");
    assert!(
        one.contains("603 reachable configurations (complete search: true)"),
        "{one}"
    );

    // A byte budget too small for the search stops it, explicitly.
    let (stdout, _, ok) = run(&["classify", &path, "--jobs", "2", "--max-bytes", "64"]);
    assert!(ok);
    assert!(
        stdout.contains("memory budget 64 bytes exhausted"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loop_prevention_labels_the_verdict_and_overrides_the_solver() {
    // The flag is folded into the spec before classification, so the
    // verdict line names the mechanics it was computed under.
    let (stdout, stderr, ok) = run(&["classify", &golden("fig1a"), "--loop-prevention"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("standard+loop-prevention"), "{stdout}");
    assert!(!stderr.contains("warning"), "{stderr}");

    // The SAT backend models plain reflection only; with loop prevention
    // on it must decline and the run falls back to the explicit search,
    // reporting the search origin (reachable-configuration count) rather
    // than pretending the solver answered.
    let (stdout, stderr, ok) = run(&[
        "classify",
        &golden("fig1a"),
        "--loop-prevention",
        "--solver",
        "sat",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("standard+loop-prevention"), "{stdout}");
    assert!(
        stdout.contains("reachable configuration"),
        "search origin missing from:\n{stdout}"
    );
    assert!(!stdout.contains("solver"), "{stdout}");
}

#[test]
fn bad_spec_file_reports_line_numbers() {
    let dir = temp_dir("badspec");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ibgp");
    std::fs::write(&bad, "ibgp 1\nrouters zero\n").unwrap();
    let (_, stderr, ok) = run(&["classify", &bad.to_string_lossy()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
