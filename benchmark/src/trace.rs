//! In-memory spans for `--trace 1` runs.
//!
//! The benchmark opens a span around each of its own calls into a
//! layer of the program (one fit, one batch, one HTTP request, ...), and
//! records the phase spans `Fit::try_run_traced` emits (sampling, WAIC,
//! summary, diagnostics) as children of its fit span. Spans live in
//! memory while the workload runs and are written as JSONL once it ends,
//! so recording costs one clock read and one push per span. A disabled
//! tracer never reads the clock.

use srm_obs::json::Value;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one request or fit (the root span's id).
    pub trace: u64,
    /// `layer/operation` for the benchmark's own calls, e.g.
    /// `srm-core/fit`; the program's own name for a phase it spans,
    /// e.g. `sampling`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Collects spans for one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    nonce: u64,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span. `nonce`
    /// makes the run's trace ids distinct from other runs'.
    pub fn new(on: bool, nonce: u64) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            nonce,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span that starts a new trace.
    pub fn root(&self, name: &'static str) -> Span<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.open(id, None, id, name)
    }

    fn open(&self, id: u64, parent: Option<u64>, trace: u64, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            id,
            parent,
            trace,
            name,
            started: self.on.then(Instant::now),
        }
    }

    /// The 32-hex-digit form of a trace, as sent in `x-srm-trace-id`
    /// and echoed into the service's access log.
    pub fn trace_hex(&self, trace: u64) -> String {
        format!("{:016x}{trace:016x}", self.nonce)
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span. `self_ns` is the span's
    /// duration minus the time its child spans cover (children of one
    /// parent never overlap here: each call waits for the previous).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.dur_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &spans {
            let covered = child_ns.get(&span.id).copied().unwrap_or(0);
            let line = Value::obj(vec![
                ("id", Value::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("trace", Value::Str(self.trace_hex(span.trace))),
                ("name", Value::Str(span.name.to_owned())),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("dur_ns", Value::Num(span.dur_ns as f64)),
                (
                    "self_ns",
                    Value::Num(span.dur_ns.saturating_sub(covered) as f64),
                ),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

/// An open span; it ends when dropped or passed to [`Span::end`].
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    started: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Opens a span caused by this one, in the same trace.
    pub fn child(&self, name: &'static str) -> Span<'a> {
        let id = self.tracer.next.fetch_add(1, Ordering::Relaxed);
        self.tracer.open(id, Some(self.id), self.trace, name)
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Ends the span now; returns its duration in nanoseconds (0 when
    /// the tracer is off).
    pub fn end(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        let Some(started) = self.started.take() else {
            return 0;
        };
        let end = Instant::now();
        let as_ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: as_ns(started.duration_since(self.tracer.epoch)),
            dur_ns: as_ns(end.duration_since(started)),
        };
        let dur_ns = record.dur_ns;
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
        dur_ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false, 1);
        let root = tracer.root("a");
        root.child("b").end();
        root.end();
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn children_share_the_trace_and_point_at_their_parent() {
        let tracer = Tracer::new(true, 0xabc);
        let root = tracer.root("fit");
        let trace = root.trace();
        root.child("setup").end();
        root.child("sampling").end();
        root.end();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let fit = spans.iter().find(|s| s.name == "fit").unwrap();
        assert_eq!(fit.parent, None);
        for child in spans.iter().filter(|s| s.name != "fit") {
            assert_eq!(child.parent, Some(fit.id));
            assert_eq!(child.trace, trace);
            assert!(child.start_ns >= fit.start_ns);
        }
        assert_eq!(tracer.trace_hex(trace).len(), 32);
        assert_eq!(tracer.durations_ms("setup").len(), 1);
    }
}
