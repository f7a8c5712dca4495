//! In-memory span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! repository's crates: name, start, end, the span that caused it, and a
//! request id shared by the spans of one specimen or request. They stay
//! in memory and are written out once, when the benchmark ends. A
//! disabled tracer runs the closure and records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span id to
    /// pass as the parent of nested spans (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                req,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }

    /// Forget every span recorded so far.
    pub fn clear(&self) {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clear();
    }
}

/// Total duration of the spans named `name`, in seconds.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Write the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |id| id + 1), 1);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span("x", None, 7, |id| t.span("y", Some(id), 7, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(count(&spans, "y"), 1);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
