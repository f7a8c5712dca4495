//! The line-delimited TCP protocol and daemon.
//!
//! One request per connection:
//!
//! ```text
//! classify [max-states=N] [max-bytes=N] [deadline-ms=N] [symmetry=0|1] [por=0|1] [solver=sat|search] [loop-prevention=0|1]
//! <.ibgp text, verbatim>
//! end
//! ```
//!
//! Response:
//!
//! ```text
//! ok class=<keyword> states=<n> stop=<token> complete=<bool> cached=<bool> origin=<search|solver> stable=<k>
//! vector <entry> <entry> ...        (k lines; entries `-` or raw exit id)
//! end
//! ```
//!
//! or `err <message>` followed by `end`. A bare `ping` line answers
//! `ok pong` / `end` (liveness probe). The terminator is safe: `end` is
//! not a directive of the `.ibgp` format, so no valid spec contains it
//! as a line. A request longer than [`MAX_REQUEST_BYTES`], or one that
//! is not UTF-8, gets an `err` too.

use crate::sched::{Request, Scheduler};
use crate::store::{class_keyword, vectors_token};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The most bytes one request may send, header and body together. The
/// largest committed specimen is about 1 KiB, the hunt generators print
/// under 0.5 KiB, and the largest §5 reduction within the `.ibgp` router
/// cap prints 66,162 bytes, so this leaves 16x headroom while bounding
/// what one client can make the daemon buffer.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// A running daemon; dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sched: Arc<Scheduler>,
}

impl Server {
    /// Bind `addr` and serve `sched` until shutdown.
    pub fn bind(addr: impl ToSocketAddrs, sched: Arc<Scheduler>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let sched = Arc::clone(&sched);
                    std::thread::spawn(move || {
                        let _ = handle_connection(stream, &sched);
                    });
                }
            })
        };
        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            sched,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind this server.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Stop accepting connections and join the accept loop.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: TcpStream, sched: &Scheduler) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_REQUEST_BYTES);
    let mut writer = stream;
    let mut line = String::new();
    match read_request_line(&mut reader, &mut line)? {
        Ok(true) => {}
        Ok(false) => return Ok(()),
        Err(e) => return respond_err(&mut writer, e),
    }
    let header = line.trim_end();
    if header == "ping" {
        writer.write_all(b"ok pong\nend\n")?;
        return Ok(());
    }
    let request = match parse_header(header) {
        Ok(r) => r,
        Err(e) => return respond_err(&mut writer, &e),
    };
    let mut text = String::new();
    loop {
        match read_request_line(&mut reader, &mut line)? {
            Ok(true) => {}
            Ok(false) => return respond_err(&mut writer, "connection closed before `end`"),
            Err(e) => return respond_err(&mut writer, e),
        }
        if line.trim_end() == "end" {
            break;
        }
        text.push_str(&line);
    }
    let spec = match ibgp_hunt::parse(&text) {
        Ok(s) => s,
        Err(e) => return respond_err(&mut writer, &format!("invalid .ibgp: {e}")),
    };
    let ticket = sched.submit(spec, request);
    match ticket.wait() {
        Ok(answer) => {
            let v = &answer.verdict;
            writeln!(
                writer,
                "ok class={} states={} stop={} complete={} cached={} origin={} stable={}",
                class_keyword(v.class),
                v.states,
                v.stop.token(),
                v.complete,
                answer.cached,
                v.origin.token(),
                v.stable_vectors.len()
            )?;
            for sv in &v.stable_vectors {
                writeln!(writer, "vector {}", vectors_token(std::slice::from_ref(sv)))?;
            }
            writer.write_all(b"end\n")?;
            Ok(())
        }
        Err(e) => respond_err(&mut writer, &e),
    }
}

/// Read the next request line into `line`, replacing its contents:
/// `Ok(false)` at end of stream, `Err` with the reply for a request over
/// [`MAX_REQUEST_BYTES`] or a line that is not UTF-8.
fn read_request_line(
    reader: &mut io::Take<BufReader<TcpStream>>,
    line: &mut String,
) -> io::Result<Result<bool, &'static str>> {
    line.clear();
    match reader.read_line(line) {
        _ if reader.limit() == 0 && !line.ends_with('\n') => Ok(Err("request too large")),
        Ok(n) => Ok(Ok(n > 0)),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(Err("request is not UTF-8")),
        Err(e) => Err(e),
    }
}

fn respond_err(writer: &mut TcpStream, msg: &str) -> io::Result<()> {
    // Keep the message on one line so the framing survives.
    let msg = msg.replace('\n', " ");
    writeln!(writer, "err {msg}")?;
    writer.write_all(b"end\n")?;
    Ok(())
}

/// Parse the `classify key=value ...` request header into a [`Request`]
/// (defaults from [`ibgp_hunt::HuntOptions`] for omitted keys).
pub fn parse_header(line: &str) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    match toks.next() {
        Some("classify") => {}
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => return Err("empty request".into()),
    }
    let mut request = Request::new(ibgp_hunt::HuntOptions::default());
    for tok in toks {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("malformed option `{tok}` (want key=value)"))?;
        match key {
            "max-states" => {
                request.opts.max_states = value
                    .parse()
                    .map_err(|_| format!("invalid max-states `{value}`"))?;
            }
            "max-bytes" => {
                request.opts.max_bytes = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid max-bytes `{value}`"))?,
                );
            }
            "deadline-ms" => {
                request.deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid deadline-ms `{value}`"))?,
                );
            }
            "symmetry" => request.opts.symmetry = flag(key, value)?,
            "por" => request.opts.por = flag(key, value)?,
            "solver" => request.opts.solver = value.parse()?,
            "loop-prevention" => request.opts.loop_prevention = flag(key, value)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(request)
}

/// A boolean header value: `0` or `1`, nothing else.
fn flag(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("invalid {key} `{value}` (want 0 or 1)")),
    }
}

/// Client side of the protocol: send one `.ibgp` text to `addr` under
/// `request`, returning the raw response fields.
pub fn submit_text(
    addr: impl ToSocketAddrs,
    text: &str,
    request: &Request,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let mut header = String::from("classify");
    header.push_str(&format!(" max-states={}", request.opts.max_states));
    if let Some(b) = request.opts.max_bytes {
        header.push_str(&format!(" max-bytes={b}"));
    }
    if let Some(ms) = request.deadline_ms {
        header.push_str(&format!(" deadline-ms={ms}"));
    }
    if request.opts.symmetry {
        header.push_str(" symmetry=1");
    }
    if request.opts.por {
        header.push_str(" por=1");
    }
    if request.opts.solver != ibgp_types::SolverMode::Search {
        header.push_str(&format!(" solver={}", request.opts.solver.token()));
    }
    if request.opts.loop_prevention {
        header.push_str(" loop-prevention=1");
    }
    writeln!(stream, "{header}")?;
    stream.write_all(text.as_bytes())?;
    if !text.ends_with('\n') {
        stream.write_all(b"\n")?;
    }
    stream.write_all(b"end\n")?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    let mut body = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end().to_string();
        if line == "end" {
            break;
        }
        body.push(line);
    }
    Ok(Response {
        status: status.trim_end().to_string(),
        body,
    })
}

/// A raw protocol response: the `ok ...`/`err ...` status line plus the
/// body lines before `end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status line.
    pub status: String,
    /// Body lines (stable vectors on success).
    pub body: Vec<String>,
}

impl Response {
    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("ok ")
    }

    /// The value of `key=` in the status line, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_parse_and_reject() {
        let r = parse_header("classify max-states=77 max-bytes=2048 deadline-ms=500").unwrap();
        assert_eq!(r.opts.max_states, 77);
        assert_eq!(r.opts.max_bytes, Some(2048));
        assert_eq!(r.deadline_ms, Some(500));
        let r = parse_header("classify").unwrap();
        assert_eq!(
            r.opts.max_states,
            ibgp_hunt::HuntOptions::default().max_states
        );
        assert_eq!(r.opts.solver, ibgp_types::SolverMode::Search);
        let r = parse_header("classify solver=sat").unwrap();
        assert_eq!(r.opts.solver, ibgp_types::SolverMode::Sat);
        assert!(parse_header("classify solver=smt").is_err());
        let r = parse_header("classify loop-prevention=1").unwrap();
        assert!(r.opts.loop_prevention);
        let r = parse_header("classify loop-prevention=0").unwrap();
        assert!(!r.opts.loop_prevention);
        let r = parse_header("classify symmetry=1 por=1").unwrap();
        assert!(r.opts.symmetry && r.opts.por);
        for bad in [
            "classify symmetry=yes",
            "classify por=true",
            "classify loop-prevention=2",
            "classify symmetry=",
        ] {
            assert!(parse_header(bad).is_err(), "{bad}");
        }
        assert!(parse_header("classify max-states=x").is_err());
        assert!(parse_header("classify bogus=1").is_err());
        assert!(parse_header("destroy").is_err());
        assert!(parse_header("").is_err());
    }

    #[test]
    fn response_fields_parse() {
        let r = Response {
            status: "ok class=stable states=12 stop=complete complete=true cached=false \
                     origin=search stable=1"
                .into(),
            body: vec!["vector 1,-".into()],
        };
        assert!(r.is_ok());
        assert_eq!(r.field("class"), Some("stable"));
        assert_eq!(r.field("cached"), Some("false"));
        assert_eq!(r.field("origin"), Some("search"));
        assert_eq!(r.field("missing"), None);
    }
}
