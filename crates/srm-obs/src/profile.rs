//! A dependency-free hierarchical span profiler.
//!
//! The [`Recorder`](crate::Recorder) layer answers *what happened*
//! (typed events, streamed); this module answers *where the time
//! went* (aggregates, collected). A [`Profiler`] is a shared sink of
//! per-phase statistics; code under measurement opens RAII
//! [`SpanGuard`]s (via [`span`]) named after the phase they time.
//! Spans nest — a span
//! opened while another is running becomes its child, and the
//! aggregate is keyed by the full `/`-joined path
//! (`chain/sweep/likelihood/suffstats`), so the report separates a
//! sufficient-statistics probe made during a likelihood evaluation
//! from one made directly by the sweep.
//!
//! ## The overhead contract
//!
//! * **Inert when uninstalled.** [`span`] consults one thread-local;
//!   with no profiler installed on the thread it returns an inert
//!   guard without reading the clock. Hot loops can therefore keep
//!   their spans unconditionally.
//! * **Lock-free when installed.** Each thread accumulates into
//!   thread-local arrays (interned by `(parent, name)`); the shared
//!   [`Profiler`] mutex is touched only when the [`InstallGuard`]
//!   drops and flushes the thread's totals.
//! * **Never perturbs the run.** The profiler reads clocks and
//!   counters only — it has no access to any RNG and no channel back
//!   into the sampler, so draws are bit-identical profiler on or off
//!   (asserted by the property suite).
//!
//! ## Installing
//!
//! A profiler is *installed* on a thread for a scope:
//!
//! ```
//! use std::sync::Arc;
//! use srm_obs::profile::{self, Profiler};
//!
//! let profiler = Arc::new(Profiler::new());
//! {
//!     let _guard = profile::install(Some(&profiler));
//!     let _outer = profile::span("sweep");
//!     {
//!         let _inner = profile::span("likelihood");
//!     }
//! } // guard drop flushes this thread's aggregates
//! let snapshot = profiler.snapshot();
//! let paths: Vec<&str> = snapshot.iter().map(|p| p.path.as_str()).collect();
//! assert_eq!(paths, ["sweep", "sweep/likelihood"]);
//! ```
//!
//! Worker pools install the same `Arc<Profiler>` on every worker;
//! cross-thread durations that cannot be expressed as a scope (queue
//! wait, say) go in directly via [`Profiler::record_ns`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Value;

/// Number of log₂ duration buckets per phase: bucket 0 holds 0 ns,
/// bucket `k ≥ 1` holds durations in `[2^(k−1), 2^k)` ns, and the
/// last bucket absorbs everything from `2^(HIST_BUCKETS−2)` ns
/// (≈ 1.07 s) up.
pub const HIST_BUCKETS: usize = 32;

/// Index of the log₂ bucket for a duration in nanoseconds.
///
/// `0 → 0`, `1 → 1`, `[2,4) → 2`, … each power of two starts a new
/// bucket until the terminal catch-all at `HIST_BUCKETS − 1`.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Per-phase running aggregate (one per `(parent, name)` node).
#[derive(Debug, Clone)]
struct Agg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    child_ns: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Agg {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            child_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Agg {
    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.child_ns = self.child_ns.saturating_add(other.child_ns);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// One phase's aggregate in a [`Profiler::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnapshot {
    /// `/`-joined span path, e.g. `chain/sweep/likelihood`.
    pub path: String,
    /// Spans recorded under this path.
    pub count: u64,
    /// Total wall time inside the span, nanoseconds (includes
    /// children).
    pub total_ns: u64,
    /// Total wall time minus time attributed to child spans,
    /// nanoseconds.
    pub self_ns: u64,
    /// Shortest single span, nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Log₂ duration histogram; see [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl PhaseSnapshot {
    /// Serialises to the JSON shape used inside the `profile` trace
    /// event (histogram buckets trimmed of trailing zeros).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let trimmed = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map_or(0, |i| i + 1);
        Value::obj(vec![
            ("path", Value::Str(self.path.clone())),
            ("count", Value::Num(self.count as f64)),
            ("total_ns", Value::Num(self.total_ns as f64)),
            ("self_ns", Value::Num(self.self_ns as f64)),
            ("min_ns", Value::Num(self.min_ns as f64)),
            ("max_ns", Value::Num(self.max_ns as f64)),
            (
                "buckets",
                Value::Arr(
                    self.buckets[..trimmed]
                        .iter()
                        .map(|&b| Value::Num(b as f64))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the shape written by [`PhaseSnapshot::to_value`];
    /// `None` when a field is missing or mistyped.
    #[must_use]
    pub fn from_value(value: &Value) -> Option<Self> {
        let num = |field: &str| value.get(field).and_then(Value::as_f64);
        let mut buckets = vec![0u64; HIST_BUCKETS];
        if let Some(arr) = value.get("buckets").and_then(Value::as_arr) {
            if arr.len() > HIST_BUCKETS {
                return None;
            }
            for (slot, v) in buckets.iter_mut().zip(arr) {
                *slot = v.as_f64()? as u64;
            }
        }
        Some(Self {
            path: value.get("path")?.as_str()?.to_owned(),
            count: num("count")? as u64,
            total_ns: num("total_ns")? as u64,
            self_ns: num("self_ns")? as u64,
            min_ns: num("min_ns")? as u64,
            max_ns: num("max_ns")? as u64,
            buckets,
        })
    }
}

/// A shared sink of per-phase timing aggregates.
///
/// Cheap to share (`Arc`), safe from any thread. See the module docs
/// for the install/span protocol.
#[derive(Debug, Default)]
pub struct Profiler {
    merged: Mutex<BTreeMap<String, Agg>>,
}

impl Profiler {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration directly under `path`, bypassing the
    /// thread-local span stack — for cross-thread phases (queue
    /// wait) where no single scope contains the interval. Takes the
    /// shared lock; not for per-sweep hot paths.
    pub fn record_ns(&self, path: &str, ns: u64) {
        lock_ignoring_poison(&self.merged)
            .entry(path.to_owned())
            .or_default()
            .observe(ns);
    }

    /// The current aggregates, sorted by path.
    #[must_use]
    pub fn snapshot(&self) -> Vec<PhaseSnapshot> {
        let merged = lock_ignoring_poison(&self.merged);
        merged
            .iter()
            .map(|(path, agg)| PhaseSnapshot {
                path: path.clone(),
                count: agg.count,
                total_ns: agg.total_ns,
                self_ns: agg.total_ns.saturating_sub(agg.child_ns),
                min_ns: if agg.count == 0 { 0 } else { agg.min_ns },
                max_ns: agg.max_ns,
                buckets: agg.buckets.to_vec(),
            })
            .collect()
    }

    fn absorb(&self, paths: Vec<(String, Agg)>) {
        let mut merged = lock_ignoring_poison(&self.merged);
        for (path, agg) in paths {
            merged.entry(path).or_default().merge(&agg);
        }
    }
}

fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One interned span node in a thread's local tree.
#[derive(Debug)]
struct Node {
    parent: usize,
    name: &'static str,
    agg: Agg,
}

/// Sentinel parent index for root spans.
const ROOT: usize = usize::MAX;

#[derive(Debug)]
struct ThreadState {
    profiler: Arc<Profiler>,
    nodes: Vec<Node>,
    index: HashMap<(usize, &'static str), usize>,
    stack: Vec<usize>,
}

impl ThreadState {
    fn flush_into_profiler(self) {
        let mut paths: Vec<(String, Agg)> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            if node.agg.count == 0 && node.agg.child_ns == 0 {
                continue;
            }
            let mut segments = vec![node.name];
            let mut cursor = node.parent;
            while cursor != ROOT {
                segments.push(self.nodes[cursor].name);
                cursor = self.nodes[cursor].parent;
            }
            segments.reverse();
            paths.push((segments.join("/"), node.agg.clone()));
        }
        self.profiler.absorb(paths);
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Installs `profiler` on the current thread for the guard's
/// lifetime; spans opened on this thread accumulate into it.
///
/// `None` (or a thread that already has a profiler installed — the
/// outer installation wins) yields an inert guard. Dropping the
/// guard flushes the thread's aggregates into the profiler.
#[must_use]
pub fn install(profiler: Option<&Arc<Profiler>>) -> InstallGuard {
    let Some(profiler) = profiler else {
        return InstallGuard { installed: false };
    };
    ACTIVE.with(|active| {
        let mut slot = active.borrow_mut();
        if slot.is_some() {
            return InstallGuard { installed: false };
        }
        *slot = Some(ThreadState {
            profiler: Arc::clone(profiler),
            nodes: Vec::new(),
            index: HashMap::new(),
            stack: Vec::new(),
        });
        InstallGuard { installed: true }
    })
}

/// The profiler currently installed on this thread, if any — lets
/// nested layers (the MCMC runner inside a serve job, say) hand the
/// same sink to worker threads of their own.
#[must_use]
pub fn current() -> Option<Arc<Profiler>> {
    ACTIVE.with(|active| {
        active
            .borrow()
            .as_ref()
            .map(|state| Arc::clone(&state.profiler))
    })
}

/// RAII handle for a thread-local profiler installation; see
/// [`install`].
#[derive(Debug)]
pub struct InstallGuard {
    installed: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        if let Some(state) = ACTIVE.with(|active| active.borrow_mut().take()) {
            state.flush_into_profiler();
        }
    }
}

/// Opens a phase span on the current thread; the phase ends when the
/// returned guard drops. Inert (no clock read) when no profiler is
/// installed. `name` becomes one segment of the aggregate's path.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    let node = ACTIVE.with(|active| {
        let mut slot = active.borrow_mut();
        let state = slot.as_mut()?;
        let parent = state.stack.last().copied().unwrap_or(ROOT);
        let node = match state.index.get(&(parent, name)) {
            Some(&node) => node,
            None => {
                let node = state.nodes.len();
                state.nodes.push(Node {
                    parent,
                    name,
                    agg: Agg::default(),
                });
                state.index.insert((parent, name), node);
                node
            }
        };
        state.stack.push(node);
        Some(node)
    });
    match node {
        Some(node) => SpanGuard {
            started: Some(Instant::now()),
            node,
        },
        None => SpanGuard {
            started: None,
            node: 0,
        },
    }
}

/// RAII guard returned by [`span`]; records the elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    started: Option<Instant>,
    node: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ACTIVE.with(|active| {
            let mut slot = active.borrow_mut();
            // The uninstall guard may have flushed already (a span
            // outliving its installation): drop the measurement.
            let Some(state) = slot.as_mut() else { return };
            if state.stack.last() == Some(&self.node) {
                state.stack.pop();
            }
            let parent = state.nodes[self.node].parent;
            state.nodes[self.node].agg.observe(ns);
            if parent != ROOT {
                state.nodes[parent].agg.child_ns =
                    state.nodes[parent].agg.child_ns.saturating_add(ns);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for k in 1..=30usize {
            let edge = 1u64 << k;
            assert_eq!(bucket_index(edge - 1), k, "below edge 2^{k}");
            assert_eq!(
                bucket_index(edge).min(HIST_BUCKETS - 1),
                (k + 1).min(HIST_BUCKETS - 1)
            );
        }
        // Everything from ~1.07 s up lands in the terminal bucket.
        assert_eq!(bucket_index(1 << 31), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_land_in_expected_buckets() {
        let mut agg = Agg::default();
        for ns in [0u64, 1, 2, 3, 1024, u64::MAX] {
            agg.observe(ns);
        }
        assert_eq!(agg.buckets[0], 1); // 0
        assert_eq!(agg.buckets[1], 1); // 1
        assert_eq!(agg.buckets[2], 2); // 2, 3
        assert_eq!(agg.buckets[11], 1); // 1024 = 2^10 → bucket 11
        assert_eq!(agg.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(agg.count, 6);
        assert_eq!(agg.min_ns, 0);
        assert_eq!(agg.max_ns, u64::MAX);
    }

    #[test]
    fn span_without_install_is_inert() {
        let guard = span("orphan");
        assert!(guard.started.is_none());
        drop(guard);
    }

    #[test]
    fn spans_nest_into_slash_joined_paths() {
        let profiler = Arc::new(Profiler::new());
        {
            let _guard = install(Some(&profiler));
            for _ in 0..3 {
                let _sweep = span("sweep");
                {
                    let _lik = span("likelihood");
                    let _probe = span("suffstats");
                }
                let _probe = span("suffstats");
            }
        }
        let snapshot = profiler.snapshot();
        let paths: Vec<&str> = snapshot.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "sweep",
                "sweep/likelihood",
                "sweep/likelihood/suffstats",
                "sweep/suffstats"
            ]
        );
        for phase in &snapshot {
            assert_eq!(phase.count, 3, "{}", phase.path);
            assert!(phase.min_ns <= phase.max_ns);
            assert_eq!(phase.buckets.iter().sum::<u64>(), 3);
        }
        // A parent's self time excludes its children.
        let sweep = &snapshot[0];
        let lik = &snapshot[1];
        assert!(sweep.self_ns <= sweep.total_ns);
        assert!(lik.total_ns <= sweep.total_ns);
    }

    #[test]
    fn same_phase_on_two_threads_merges() {
        let profiler = Arc::new(Profiler::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _guard = install(Some(&profiler));
                    for _ in 0..5 {
                        let _s = span("work");
                    }
                });
            }
        });
        let snapshot = profiler.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].path, "work");
        assert_eq!(snapshot[0].count, 10);
    }

    #[test]
    fn nested_install_is_inert_and_outer_wins() {
        let outer = Arc::new(Profiler::new());
        let inner = Arc::new(Profiler::new());
        {
            let _a = install(Some(&outer));
            {
                let _b = install(Some(&inner));
                let _s = span("phase");
            }
            // The inner guard must not have flushed or uninstalled.
            assert!(current().is_some());
            let _s = span("phase");
        }
        assert_eq!(outer.snapshot()[0].count, 2);
        assert!(inner.snapshot().is_empty());
    }

    #[test]
    fn record_ns_feeds_cross_thread_phases() {
        let profiler = Profiler::new();
        profiler.record_ns("queue-wait", 1_000);
        profiler.record_ns("queue-wait", 3_000);
        let snapshot = profiler.snapshot();
        assert_eq!(snapshot[0].path, "queue-wait");
        assert_eq!(snapshot[0].count, 2);
        assert_eq!(snapshot[0].total_ns, 4_000);
        assert_eq!(snapshot[0].min_ns, 1_000);
        assert_eq!(snapshot[0].max_ns, 3_000);
    }

    #[test]
    fn phase_snapshot_round_trips_through_json() {
        let profiler = Arc::new(Profiler::new());
        {
            let _guard = install(Some(&profiler));
            let _outer = span("fit");
            let _inner = span("serialize");
        }
        for phase in profiler.snapshot() {
            let value = phase.to_value();
            let parsed = PhaseSnapshot::from_value(&value).unwrap();
            assert_eq!(parsed, phase);
        }
    }

    #[test]
    fn current_returns_installed_profiler() {
        assert!(current().is_none());
        let profiler = Arc::new(Profiler::new());
        let _guard = install(Some(&profiler));
        assert!(Arc::ptr_eq(&current().unwrap(), &profiler));
    }
}
