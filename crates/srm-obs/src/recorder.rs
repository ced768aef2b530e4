//! The [`Recorder`] trait and its composition/measurement primitives.
//!
//! Instrumented code holds a `&dyn Recorder` and asks it whether
//! anything is listening (`enabled()`, hoisted to a local `bool`
//! before hot loops so the disabled path costs one predictable
//! branch). Recorders never touch the sampler's RNG —
//! instrumentation cannot perturb a run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::Event;

/// A consumer of trace [`Event`]s.
///
/// Implementations must be `Send + Sync`: the multi-chain runner emits
/// from scoped worker threads.
pub trait Recorder: Send + Sync {
    /// Whether this recorder consumes events at all. Instrumented
    /// loops hoist this into a local and skip event construction
    /// entirely when it is `false`.
    fn enabled(&self) -> bool;

    /// Consumes one event.
    fn record(&self, event: &Event);
}

/// The do-nothing default recorder; `enabled()` is `false`, so
/// instrumented code never even constructs events for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// A shared no-op instance for default arguments.
pub static NOOP: NoopRecorder = NoopRecorder;

/// Fans events out to several recorders.
pub struct Tee {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for Tee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tee")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Tee {
    /// Builds a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        Self { sinks }
    }
}

impl Recorder for Tee {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.record(event);
            }
        }
    }
}

/// An RAII span timer: emits `PhaseStart` on creation and `PhaseEnd`
/// with the measured wall time on drop (or [`Span::end`]).
pub struct Span<'a> {
    recorder: &'a dyn Recorder,
    phase: &'static str,
    started: Instant,
    live: bool,
}

impl<'a> Span<'a> {
    /// Opens a span for `phase` on `recorder`.
    pub fn enter(recorder: &'a dyn Recorder, phase: &'static str) -> Self {
        if recorder.enabled() {
            recorder.record(&Event::PhaseStart { phase });
        }
        Self {
            recorder,
            phase,
            started: Instant::now(),
            live: true,
        }
    }

    /// Elapsed wall time since the span opened, in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Ends the span early, returning the elapsed milliseconds.
    pub fn end(mut self) -> f64 {
        self.finish();
        self.started.elapsed().as_secs_f64() * 1e3
    }

    fn finish(&mut self) {
        if self.live {
            self.live = false;
            if self.recorder.enabled() {
                self.recorder.record(&Event::PhaseEnd {
                    phase: self.phase,
                    wall_ms: self.elapsed_ms(),
                });
            }
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("phase", &self.phase).finish()
    }
}

/// A monotonic counter, safe to bump from worker threads.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `f64` observations.
///
/// Bucket upper bounds are fixed at construction; observations above
/// the last bound land in an implicit overflow bucket. Buckets are
/// **right-closed** (Prometheus `le` semantics): a value exactly equal
/// to a bound lands in the bucket that bound labels, so `observe(1.0)`
/// with bounds `[1.0, 10.0]` counts in the `le=1.0` bucket. Non-finite
/// observations (NaN, ±∞) count in the overflow bucket and are
/// excluded from the running sum. Recording is lock-free (atomic
/// bumps), so worker threads can share one instance.
#[derive(Debug)]
pub struct FixedHistogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_millis: AtomicU64,
}

impl FixedHistogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.to_vec(),
            buckets,
            sum_millis: AtomicU64::new(0),
        }
    }

    /// Exponential bounds `base·growth^k` for `k in 0..n`.
    pub fn exponential(base: f64, growth: f64, n: usize) -> Self {
        let bounds: Vec<f64> = (0..n).map(|k| base * growth.powi(k as i32)).collect();
        Self::new(&bounds)
    }

    /// Records one observation. Boundary values land in the bucket
    /// whose upper bound equals them (right-closed buckets); NaN and
    /// ±∞ land in the overflow bucket and do not contribute to the
    /// sum.
    pub fn observe(&self, value: f64) {
        if !value.is_finite() {
            self.buckets[self.bounds.len()].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // Track the sum in thousandths so `mean` stays available
        // without floating-point atomics.
        let scaled = (value * 1e3).clamp(0.0, u64::MAX as f64 / 2.0) as u64;
        self.sum_millis.fetch_add(scaled, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of the recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Sum of the recorded observations (thousandth-resolution, as
    /// tracked internally) — the `_sum` series of a Prometheus
    /// histogram exposition.
    pub fn sum(&self) -> f64 {
        self.sum_millis.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Snapshot of `(upper_bound, count)` pairs; the final entry uses
    /// `f64::INFINITY` for the overflow bucket.
    pub fn snapshot(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Capture {
        events: Mutex<Vec<Event>>,
    }

    impl Recorder for Capture {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&self, event: &Event) {
            self.events.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopRecorder.enabled());
        NoopRecorder.record(&Event::PhaseStart { phase: "x" }); // must not panic
    }

    #[test]
    fn span_emits_matched_phase_events() {
        let cap = Capture::default();
        {
            let _span = Span::enter(&cap, "sampling");
        }
        let events = cap.events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::PhaseStart { phase: "sampling" }));
        match &events[1] {
            Event::PhaseEnd { phase, wall_ms } => {
                assert_eq!(*phase, "sampling");
                assert!(*wall_ms >= 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn span_end_returns_elapsed_once() {
        let cap = Capture::default();
        let span = Span::enter(&cap, "waic");
        let ms = span.end();
        assert!(ms >= 0.0);
        assert_eq!(cap.events.lock().unwrap().len(), 2);
    }

    #[test]
    fn tee_fans_out() {
        let a = Arc::new(Capture::default());
        let b = Arc::new(Capture::default());
        let tee = Tee::new(vec![a.clone(), b.clone()]);
        assert!(tee.enabled());
        tee.record(&Event::PhaseStart { phase: "p" });
        assert_eq!(a.events.lock().unwrap().len(), 1);
        assert_eq!(b.events.lock().unwrap().len(), 1);
    }

    #[test]
    fn tee_of_disabled_sinks_is_disabled() {
        let tee = Tee::new(vec![Arc::new(NoopRecorder) as Arc<dyn Recorder>]);
        assert!(!tee.enabled());
    }

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = FixedHistogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 0.2] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0], (1.0, 2));
        assert_eq!(snap[1], (10.0, 1));
        assert_eq!(snap[2], (100.0, 1));
        assert_eq!(snap[3].1, 1);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 111.14).abs() < 0.01);
    }

    #[test]
    fn histogram_boundary_values_land_in_their_own_bucket() {
        // Right-closed buckets: a value equal to a bound belongs to
        // the bucket that bound labels (Prometheus `le` semantics).
        let h = FixedHistogram::new(&[1.0, 10.0, 100.0]);
        h.observe(1.0);
        h.observe(10.0);
        h.observe(100.0);
        let snap = h.snapshot();
        assert_eq!(snap[0], (1.0, 1));
        assert_eq!(snap[1], (10.0, 1));
        assert_eq!(snap[2], (100.0, 1));
        assert_eq!(snap[3].1, 0);
        // Just above a bound spills into the next bucket.
        h.observe(1.0000001);
        assert_eq!(h.snapshot()[1].1, 2);
    }

    #[test]
    fn histogram_routes_non_finite_to_overflow_without_poisoning_sum() {
        let h = FixedHistogram::new(&[1.0, 10.0]);
        h.observe(5.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        let snap = h.snapshot();
        assert_eq!(snap[0].1, 0);
        assert_eq!(snap[1].1, 1);
        assert_eq!(snap[2].1, 3, "non-finite values count as overflow");
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 5.0).abs() < 1e-9);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn exponential_bounds_grow_geometrically() {
        let h = FixedHistogram::exponential(1.0, 10.0, 3);
        let snap = h.snapshot();
        assert_eq!(snap[0].0, 1.0);
        assert_eq!(snap[1].0, 10.0);
        assert_eq!(snap[2].0, 100.0);
    }
}
