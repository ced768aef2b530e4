//! Crash/error flight recorder: one bounded ring of recent events for
//! the whole process, dumpable to disk when something goes wrong.
//!
//! The recorder answers "what was the system doing just before the
//! failure?" without paying for a full trace. Every thread records
//! into the same ring of the last N event lines behind one mutex, and
//! each line's `seq` is assigned under that lock, so the ring is in
//! capture order and its size never exceeds N however many threads
//! come and go. When disabled — the default — recording is a single
//! relaxed atomic load.
//!
//! Dumps (`flightrec-<ts>-<n>.jsonl` in the chosen directory, `n`
//! counting this process's dumps) are written on panic, on engine
//! failure, on SIGTERM drain, and on demand via
//! `POST /v1/debug/flightrec`. Dump I/O follows the workspace
//! degradation policy: a failed write bumps an error counter and the
//! process keeps serving.
//!
//! The recorder observes the run and never feeds anything back: it
//! has no access to the sampler's RNG, so draws are bit-identical
//! with the recorder on or off (property-tested at the workspace
//! level).

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::event::Event;
use crate::json::Value;
use crate::recorder::{Counter, Recorder};
use crate::sinks::JsonlSink;
use crate::trace_id::TraceId;

/// Default ring capacity, in events across every thread.
pub const DEFAULT_FLIGHTREC_CAPACITY: usize = 4096;

fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The captured lines, oldest first. `recorded` counts every capture
/// since boot, evicted ones included, and is the next line's `seq`.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Value>,
    recorded: u64,
}

/// Process-wide recorder state.
#[derive(Debug)]
struct Registry {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    ring: Mutex<Ring>,
    /// Dump attempts started; numbers each dump file.
    dump_seq: AtomicU64,
    dumps: Counter,
    dump_errors: Counter,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(DEFAULT_FLIGHTREC_CAPACITY),
        ring: Mutex::new(Ring::default()),
        dump_seq: AtomicU64::new(0),
        dumps: Counter::new(),
        dump_errors: Counter::new(),
    })
}

/// Turns the recorder on with the given ring capacity (events in
/// total, not per thread).
pub fn enable(capacity: usize) {
    let reg = registry();
    reg.capacity
        .store(capacity.clamp(1, 65_536), Ordering::Relaxed);
    reg.enabled.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. The ring keeps its contents (a dump after
/// disable still shows the run-up).
pub fn disable() {
    registry().enabled.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently capturing.
#[must_use]
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Empties the ring (tests and targeted debugging sessions).
pub fn clear() {
    lock_ignoring_poison(&registry().ring).events.clear();
}

/// Captures one event under the given trace id. A no-op when the
/// recorder is disabled.
pub fn record_event(event: &Event, trace_id: &str) {
    let reg = registry();
    if !reg.enabled.load(Ordering::Relaxed) {
        return;
    }
    let current = std::thread::current();
    let thread = current
        .name()
        .map_or_else(|| format!("{:?}", current.id()), str::to_owned);
    let capacity = reg.capacity.load(Ordering::Relaxed);
    let mut ring = lock_ignoring_poison(&reg.ring);
    let seq = ring.recorded;
    ring.recorded += 1;
    let line = event.to_line(
        trace_id,
        [
            ("seq", Value::Num(seq as f64)),
            ("thread", Value::Str(thread)),
        ],
    );
    while ring.events.len() >= capacity {
        ring.events.pop_front();
    }
    ring.events.push_back(line);
}

/// A [`Recorder`] that feeds a job's events into the flight recorder
/// under the job's trace id. Cheap to construct; tee one per job.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    trace_id: String,
}

impl FlightRecorder {
    /// A recorder tagging captures with `trace_id`.
    #[must_use]
    pub fn new(trace_id: TraceId) -> Self {
        Self {
            trace_id: trace_id.to_hex(),
        }
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        enabled()
    }

    fn sweep_stride(&self) -> usize {
        JsonlSink::DEFAULT_SWEEP_STRIDE
    }

    fn record(&self, event: &Event) {
        record_event(event, &self.trace_id);
    }
}

/// The ring's contents, in capture order.
#[must_use]
pub fn snapshot() -> Vec<Value> {
    lock_ignoring_poison(&registry().ring)
        .events
        .iter()
        .cloned()
        .collect()
}

/// Counters for `/metrics` and the debug endpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightRecStats {
    /// Whether capture is on.
    pub enabled: bool,
    /// Ring capacity, in events across every thread.
    pub capacity: usize,
    /// Events captured since boot (including since-evicted ones).
    pub recorded: u64,
    /// Dumps written successfully.
    pub dumps: u64,
    /// Dump attempts that failed (degraded, service continued).
    pub dump_errors: u64,
}

/// Current recorder statistics.
#[must_use]
pub fn stats() -> FlightRecStats {
    let reg = registry();
    FlightRecStats {
        enabled: enabled(),
        capacity: reg.capacity.load(Ordering::Relaxed),
        recorded: lock_ignoring_poison(&reg.ring).recorded,
        dumps: reg.dumps.get(),
        dump_errors: reg.dump_errors.get(),
    }
}

/// Writes every captured event to `dir/flightrec-<ts>-<n>.jsonl` in
/// capture order, preceded by one `flightrec-dump` line recording why
/// the dump happened. `n` numbers this process's dumps, so two dumps
/// in the same millisecond never share a file. Returns the path
/// written.
///
/// # Errors
///
/// Returns [`io::Error`] when the file cannot be created or written;
/// the error counter is bumped either way, so callers can treat the
/// result as advisory (degradation policy: log, count, keep serving).
pub fn dump_to_dir(dir: &Path, reason: &str) -> io::Result<PathBuf> {
    let reg = registry();
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let n = reg.dump_seq.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flightrec-{ts}-{n}.jsonl"));
    let events = snapshot();
    let write = (|| -> io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let header = Event::FlightRecDump {
            reason: reason.to_owned(),
            events: events.len() as u64,
        };
        let trace_id = crate::trace_id::process_trace_id().to_hex();
        writeln!(file, "{}", header.to_line(&trace_id, []).to_json())?;
        for event in &events {
            writeln!(file, "{}", event.to_json())?;
        }
        file.flush()
    })();
    match write {
        Ok(()) => {
            reg.dumps.incr();
            Ok(path)
        }
        Err(e) => {
            reg.dump_errors.incr();
            Err(e)
        }
    }
}

/// Installs a panic hook that dumps the ring to `dir` before
/// delegating to the previous hook. Idempotent in effect (each call
/// layers one more dump attempt; the server installs it once).
pub fn install_panic_hook(dir: PathBuf) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = dump_to_dir(&dir, "panic");
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring is process-global, so every assertion that spans
    /// enable/record/dump runs under this lock to keep tests from
    /// interleaving.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_ignoring_poison(&LOCK)
    }

    fn sample_event(sweep: usize) -> Event {
        Event::SweepEnd {
            chain: 0,
            sweep,
            total: 100,
            kept: sweep / 2,
        }
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _guard = test_lock();
        disable();
        clear();
        record_event(&sample_event(1), "aa");
        assert!(snapshot().is_empty());
    }

    #[test]
    fn ring_is_bounded_across_threads_and_ordered_by_seq() {
        let _guard = test_lock();
        enable(64);
        clear();
        // Short-lived threads, like a fit's scoped chain workers: the
        // ring's bound is a total, whatever the number of threads.
        std::thread::scope(|scope| {
            for _ in 0..100 {
                scope.spawn(|| {
                    for sweep in 0..10 {
                        record_event(&sample_event(sweep), "bb");
                    }
                });
            }
        });
        let events = snapshot();
        assert_eq!(events.len(), 64, "ring must keep only the last 64");
        let seqs: Vec<f64> = events
            .iter()
            .map(|e| e.get("seq").and_then(Value::as_f64).unwrap())
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "seq must strictly increase: {seqs:?}"
        );
        assert_eq!(seqs[63], (stats().recorded - 1) as f64, "newest kept");
        for event in &events {
            assert_eq!(event.get("trace_id").and_then(Value::as_str), Some("bb"));
            assert!(event.get("thread").is_some());
        }
        disable();
    }

    #[test]
    fn recorder_trait_tags_events_with_its_trace_id() {
        let _guard = test_lock();
        enable(8);
        clear();
        let rec = FlightRecorder::new(TraceId::from_u128(0xfeed));
        assert!(rec.enabled());
        rec.record(&sample_event(3));
        let events = snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("trace_id").and_then(Value::as_str),
            Some(TraceId::from_u128(0xfeed).to_hex().as_str())
        );
        disable();
        assert!(!rec.enabled());
    }

    #[test]
    fn dump_writes_header_plus_events_and_counts() {
        let _guard = test_lock();
        enable(8);
        clear();
        record_event(&sample_event(5), "cc");
        let dir = std::env::temp_dir().join(format!("srm_flightrec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let before = stats().dumps;
        let path = dump_to_dir(&dir, "unit-test").unwrap();
        assert_eq!(stats().dumps, before + 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let header = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("type").and_then(Value::as_str),
            Some("flightrec-dump")
        );
        assert_eq!(
            header.get("reason").and_then(Value::as_str),
            Some("unit-test")
        );
        assert_eq!(header.get("events").and_then(Value::as_f64), Some(1.0));
        let event = crate::json::parse(lines[1]).unwrap();
        assert_eq!(event.get("trace_id").and_then(Value::as_str), Some("cc"));
        disable();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn back_to_back_dumps_each_get_their_own_file() {
        let _guard = test_lock();
        enable(8);
        clear();
        record_event(&sample_event(1), "ee");
        let dir = std::env::temp_dir().join(format!("srm_flightrec_twins_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let before = stats().dumps;
        // Far faster than a millisecond apiece, so the timestamp alone
        // would name several of them alike.
        for _ in 0..10 {
            dump_to_dir(&dir, "unit-test").unwrap();
        }
        let files = std::fs::read_dir(&dir).unwrap().count() as u64;
        assert_eq!(files, 10);
        assert_eq!(stats().dumps - before, files);
        disable();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_into_an_unwritable_target_degrades_to_a_counted_error() {
        let _guard = test_lock();
        enable(8);
        clear();
        record_event(&sample_event(1), "dd");
        // A file where the directory should be: create() under it
        // fails on every platform, root or not.
        let blocker =
            std::env::temp_dir().join(format!("srm_flightrec_blk_{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let before = stats().dump_errors;
        assert!(dump_to_dir(&blocker, "unit-test").is_err());
        assert_eq!(stats().dump_errors, before + 1);
        disable();
        let _ = std::fs::remove_file(&blocker);
    }
}
