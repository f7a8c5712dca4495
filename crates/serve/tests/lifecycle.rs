//! Daemon lifecycle: the persisted store survives a restart, deadlines
//! stop deterministically without polluting the cache, the TCP
//! protocol reports miss-then-hit, and hostile request bodies get an
//! error without taking the daemon down.

use ibgp_hunt::HuntOptions;
use ibgp_serve::{submit_text, Request, Scheduler, Server, VerdictStore, MAX_REQUEST_BYTES};
use ibgp_types::StopReason;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

const FIG2: &str = "\
ibgp 1
name fig2
kind reflection
protocol standard
routers 4
link 0 2 10
link 0 3 1
link 1 2 1
link 1 3 10
cluster r 0 c 2
cluster r 1 c 3
exit 1 at 2 as 1 len 1 med 0 pref 100 cost 0
exit 2 at 3 as 1 len 1 med 0 pref 100 cost 0
";

fn spec() -> ibgp_hunt::ScenarioSpec {
    ibgp_hunt::parse(FIG2).expect("test spec parses")
}

fn request(max_states: usize) -> Request {
    Request::new(HuntOptions::new().max_states(max_states))
}

fn temp_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ibgp-lifecycle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("verdicts.log")
}

#[test]
fn restart_reloads_the_store_and_answers_without_searching() {
    let path = temp_log("restart");
    let first = {
        let sched = Scheduler::new(VerdictStore::open(&path).unwrap(), 1);
        let answer = sched
            .submit(spec(), request(10_000))
            .wait()
            .expect("classifies");
        assert!(!answer.cached);
        assert_eq!(sched.searches_run(), 1);
        answer
    };

    // A fresh scheduler over the same log — a daemon restart.
    let sched = Scheduler::new(VerdictStore::open(&path).unwrap(), 1);
    assert_eq!(sched.with_store(|s| s.len()), 1, "restart replays the log");
    let again = sched
        .submit(spec(), request(10_000))
        .wait()
        .expect("classifies");
    assert!(again.cached, "the reloaded store must answer directly");
    assert_eq!(again.verdict.class, first.verdict.class);
    assert_eq!(again.verdict.states, first.verdict.states);
    assert_eq!(again.verdict.stable_vectors, first.verdict.stable_vectors);
    assert_eq!(
        sched.searches_run(),
        0,
        "restart must not repeat the search"
    );
    assert_eq!(sched.cache_hits(), 1);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn expired_deadline_stops_deterministically_and_is_not_cached() {
    let sched = Scheduler::new(VerdictStore::in_memory(), 1);
    let mut req = request(10_000);
    req.deadline_ms = Some(0);

    let answer = sched.submit(spec(), req).wait().expect("classifies");
    assert_eq!(
        answer.verdict.stop,
        StopReason::Deadline,
        "an already-expired deadline must stop before expansion"
    );
    assert!(!answer.verdict.complete);
    assert_eq!(
        answer.verdict.states, 1,
        "deterministic: only the initial state is visited"
    );
    assert_eq!(
        sched.with_store(|s| s.len()),
        0,
        "deadline verdicts are not stored"
    );

    // The next deadline request searches again — nothing was cached.
    let again = sched.submit(spec(), req).wait().expect("classifies");
    assert!(!again.cached);
    assert_eq!(again.verdict.stop, StopReason::Deadline);
    assert_eq!(sched.searches_run(), 2);
}

#[test]
fn tcp_round_trip_reports_miss_then_hit() {
    let sched = Arc::new(Scheduler::new(VerdictStore::in_memory(), 1));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind");
    let addr = server.local_addr();

    let cold = submit_text(addr, FIG2, &request(10_000)).expect("first round trip");
    assert!(cold.is_ok(), "status: {}", cold.status);
    assert_eq!(cold.field("cached"), Some("false"));
    assert_eq!(cold.field("complete"), Some("true"));

    let warm = submit_text(addr, FIG2, &request(10_000)).expect("second round trip");
    assert!(warm.is_ok(), "status: {}", warm.status);
    assert_eq!(warm.field("cached"), Some("true"));
    assert_eq!(warm.field("class"), cold.field("class"));
    assert_eq!(warm.field("states"), cold.field("states"));
    assert_eq!(warm.field("stop"), cold.field("stop"));
    assert_eq!(
        warm.body, cold.body,
        "stable vectors agree across the cache"
    );

    assert_eq!(sched.searches_run(), 1);
    assert_eq!(sched.cache_hits(), 1);
}

#[test]
fn torn_final_line_is_truncated_and_the_store_keeps_serving() {
    let path = temp_log("torn");
    {
        let sched = Scheduler::new(VerdictStore::open(&path).unwrap(), 1);
        sched
            .submit(spec(), request(10_000))
            .wait()
            .expect("classifies");
    }
    // A crash mid-append: half of the next entry, no newline.
    let intact = std::fs::read_to_string(&path).unwrap();
    let torn = &intact[..intact.len() / 2];
    std::fs::write(&path, format!("{intact}{torn}")).unwrap();

    let other = ibgp_hunt::generate_spec(ibgp_hunt::Family::Confed, 7, 0);
    {
        let sched = Scheduler::new(VerdictStore::open(&path).expect("torn tail is dropped"), 1);
        assert_eq!(sched.with_store(|s| s.len()), 1);
        let again = sched
            .submit(spec(), request(10_000))
            .wait()
            .expect("classifies");
        assert!(again.cached, "the earlier entry still answers");
        let fresh = sched
            .submit(other.clone(), request(10_000))
            .wait()
            .expect("classifies");
        assert!(!fresh.cached);
        assert_eq!(sched.searches_run(), 1);
    }
    assert_eq!(
        std::fs::read_to_string(&path).unwrap().lines().count(),
        2,
        "the next insert starts on a line of its own"
    );

    // The insert after the truncation survives another restart.
    let sched = Scheduler::new(VerdictStore::open(&path).unwrap(), 1);
    assert_eq!(sched.with_store(|s| s.len()), 2);
    for s in [spec(), other] {
        let answer = sched.submit(s, request(10_000)).wait().expect("classifies");
        assert!(answer.cached);
    }
    assert_eq!(sched.searches_run(), 0);

    // A malformed line with more lines after it is not a torn append:
    // the open still fails.
    let good = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("{torn}\n{good}")).unwrap();
    assert!(VerdictStore::open(&path).is_err());
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// The liveness probe: `ping` answers `ok pong`.
fn ping(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream.write_all(b"ping\n").expect("send ping");
    let mut status = String::new();
    BufReader::new(stream)
        .read_line(&mut status)
        .expect("read pong");
    status.trim_end().to_string()
}

/// Inputs that used to abort the whole process — an allocation for
/// three billion routers, a stack overflow on deeply nested hierarchy
/// clusters — are parse errors: the client gets `err ...` and the
/// daemon keeps answering.
#[test]
fn hostile_specs_get_an_error_and_the_daemon_survives() {
    let sched = Arc::new(Scheduler::new(VerdictStore::in_memory(), 1));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind");
    let addr = server.local_addr();
    let huge = "ibgp 1\nname huge\nkind reflection\nprotocol standard\nrouters 3000000000\n";
    // 100,000 levels (1.0 MB) stays under the request cap, so the
    // parser's depth check is what answers.
    let deep = format!(
        "ibgp 1\nname deep\nkind hierarchy\nprotocol single-best\nrouters 1\nhcluster {}{}\n",
        "( r 0 m ".repeat(100_000),
        ") ".repeat(100_000)
    );
    for (label, text) in [("huge", huge.to_string()), ("deep", deep)] {
        let answer = submit_text(addr, &text, &request(10_000)).expect("round trip");
        assert!(
            answer.status.starts_with("err "),
            "{label}: status {}",
            answer.status
        );
        assert_eq!(ping(addr), "ok pong", "{label}: daemon still up");
    }
    assert_eq!(sched.searches_run(), 0, "nothing reached the scheduler");
}

/// A request that outgrows `MAX_REQUEST_BYTES` (here a body streamed
/// without `end`) is answered `err request too large` at the cap instead
/// of being buffered, and the daemon keeps answering.
#[test]
fn an_oversized_request_gets_an_error_and_the_daemon_survives() {
    let sched = Arc::new(Scheduler::new(VerdictStore::in_memory(), 1));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"classify\n").expect("send header");
    let chunk = "link 0 1 1\n".repeat(4096);
    let mut sent = 0;
    while sent < 4 * MAX_REQUEST_BYTES {
        // The daemon stops reading at the cap and closes after its
        // answer, so a write may fail from then on.
        if stream.write_all(chunk.as_bytes()).is_err() {
            break;
        }
        sent += chunk.len() as u64;
    }
    let mut status = String::new();
    BufReader::new(stream)
        .read_line(&mut status)
        .expect("read the answer");
    assert_eq!(status.trim_end(), "err request too large");
    assert_eq!(ping(addr), "ok pong", "daemon still up");
    assert_eq!(sched.searches_run(), 0, "nothing reached the scheduler");
}

/// A header or body that is not UTF-8 gets an `err` answer, not a
/// silently closed connection.
#[test]
fn invalid_utf8_gets_an_error() {
    let sched = Arc::new(Scheduler::new(VerdictStore::in_memory(), 1));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind");
    let addr = server.local_addr();
    for bytes in [
        &b"classify \xff\n"[..],
        &b"classify\nname \xc3\x28\nend\n"[..],
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("send request");
        let mut status = String::new();
        BufReader::new(stream)
            .read_line(&mut status)
            .expect("read the answer");
        assert_eq!(status.trim_end(), "err request is not UTF-8", "{bytes:?}");
    }
    assert_eq!(ping(addr), "ok pong", "daemon still up");
}

/// Hostile exit fields — the reserved exit id, an AS-PATH length of four
/// billion — are parse errors too: before the parser refused them, one
/// panicked the search and the other aborted the daemon on allocation.
#[test]
fn hostile_exit_fields_get_an_error_and_the_daemon_survives() {
    let sched = Arc::new(Scheduler::new(VerdictStore::in_memory(), 1));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&sched)).expect("bind");
    let addr = server.local_addr();
    let exit = "exit 1 at 2 as 1 len 1 ";
    assert!(FIG2.contains(exit), "the fixture's first exit line");
    for (label, replacement) in [
        ("reserved id", "exit 4294967295 at 2 as 1 len 1 "),
        ("huge len", "exit 1 at 2 as 1 len 4294967295 "),
    ] {
        let text = FIG2.replacen(exit, replacement, 1);
        let answer = submit_text(addr, &text, &request(10_000)).expect("round trip");
        assert!(
            answer.status.starts_with("err "),
            "{label}: status {}",
            answer.status
        );
        assert_eq!(ping(addr), "ok pong", "{label}: daemon still up");
    }
    assert_eq!(sched.searches_run(), 0, "nothing reached the scheduler");
}

/// Wait for a ticket on a helper thread, failing the test instead of
/// hanging it if the scheduler never answers.
fn wait_within(ticket: ibgp_serve::Ticket, label: &str) -> ibgp_serve::JobResult {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ticket.wait());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{label}: the ticket never resolved"))
}

/// A search that panics answers its ticket with an error, and neither
/// the worker nor the job outlives it: an ordinary spec still gets
/// searched on the single worker, and resubmitting the panicking spec
/// runs (and fails) again instead of riding a job that never finishes.
/// The spec is built in code, past the parser's reserved-id check. (The
/// ordinary spec is a confederation: an isomorphic one would answer the
/// resubmission from the store.)
#[test]
fn a_panicking_search_answers_err_and_keeps_the_worker() {
    let sched = Scheduler::new(VerdictStore::in_memory(), 1);
    let mut hostile = spec();
    hostile.exits[0].id = u32::MAX;
    let first = wait_within(sched.submit(hostile.clone(), request(10_000)), "first");
    let err = first.expect_err("the reflection engine refuses the reserved id");
    assert!(err.starts_with("search panicked: "), "{err}");
    assert!(err.contains("is reserved"), "{err}");

    let ordinary = ibgp_hunt::generate_spec(ibgp_hunt::Family::Confed, 7, 0);
    let ok = wait_within(sched.submit(ordinary, request(10_000)), "ordinary");
    assert!(!ok.expect("the worker survived").cached);

    let again = wait_within(sched.submit(hostile, request(10_000)), "resubmitted");
    assert!(again.is_err(), "{again:?}");
    assert_eq!(sched.searches_run(), 3, "the resubmission searched again");
    assert_eq!(
        sched.with_store(|s| s.len()),
        1,
        "only the ordinary verdict"
    );
}
