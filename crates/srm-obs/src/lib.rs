//! # srm-obs — observability for the MCMC engine
//!
//! A zero-cost-when-disabled instrumentation layer: the sampler and
//! orchestration code hold a [`Recorder`] reference and emit typed
//! [`Event`]s; sinks decide what to do with them. The contract is:
//!
//! * **Zero cost when disabled.** [`NoopRecorder::enabled`] returns
//!   `false`; instrumented loops hoist that into a local bool and
//!   never construct an event. The disabled path adds one predictable
//!   branch per sweep.
//! * **Never perturbs the run.** Recorders have no access to the
//!   sampler's RNG and no way to feed data back; a traced run and an
//!   untraced run of the same seed are bit-identical.
//! * **Best-effort I/O.** A full disk or broken pipe degrades the
//!   trace, never the estimate.
//!
//! Building blocks:
//!
//! | item | role |
//! |------|------|
//! | [`Recorder`] / [`NoopRecorder`] / [`Tee`] | the consumer trait, its default and fan-out |
//! | [`Event`] | the typed event taxonomy (kebab-case `type` discriminators) |
//! | [`Span`], [`Counter`], [`FixedHistogram`] | span timers, monotonic counters, fixed-bucket histograms |
//! | [`JsonlSink`] | `--trace-out`: one JSON object per event |
//! | [`ProgressSink`] | `--progress`: human lines on stderr, per chain from its checkpoints |
//! | [`StatsCollector`] | aggregates events into manifest numbers |
//! | [`RunManifest`] | the `--metrics-out` document |
//! | [`ChainCheckpoint`] / [`aggregate`] | streaming `diagnostic-checkpoint` payloads and their cross-chain R̂/ESS aggregation |
//! | [`profile`] | hierarchical span profiler: per-phase count/total/min/max/histogram aggregates |
//! | [`trace_id`] | 128-bit request-correlation ids (schema v7 `trace_id` field) |
//! | [`flightrec`] | one bounded process-wide ring of recent events, dumped on panic/failure |
//! | [`json`] | dependency-free JSON writer + parser |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod event;
pub mod flightrec;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod recorder;
pub mod sinks;
pub mod stats;
pub mod trace_id;

pub use checkpoint::{
    aggregate, psrf_from_moments, AggregateDiagnostic, ChainCheckpoint, MomentSummary,
    ParamCheckpoint,
};
pub use event::{required_fields, Event, EVENT_KINDS, EVENT_SCHEMA_VERSION, SCHEMA_VERSION};
pub use flightrec::{FlightRecStats, FlightRecorder, DEFAULT_FLIGHTREC_CAPACITY};
pub use manifest::{
    build_info_value, dataset_hash, fnv1a64, fnv1a_hex, ManifestChain, RunManifest,
    MANIFEST_SCHEMA_VERSION,
};
pub use profile::{PhaseSnapshot, Profiler, HIST_BUCKETS};
pub use recorder::{Counter, FixedHistogram, NoopRecorder, Recorder, Span, Tee, NOOP};
pub use sinks::{JsonlSink, ProgressSink};
pub use stats::{DiagnosticStat, StatsCollector};
pub use trace_id::{boot_nonce, process_trace_id, TraceId, TRACE_HEADER};

/// Locks `mutex`, recovering the guard if a panicking holder poisoned
/// it. This is the workspace's recover-on-poison rule (DESIGN.md §8):
/// a panic contained on one thread must not turn every later lock of
/// shared observability or serving state into a second panic. Use it
/// only for state that every update leaves valid at every step, so
/// whatever a panicking holder left behind is still consistent.
pub fn lock_ignoring_poison<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
