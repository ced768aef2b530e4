//! The typed event taxonomy emitted by the instrumented engine.
//!
//! Every observable moment in a run maps to one [`Event`] variant.
//! Sinks receive events by reference and decide independently what to
//! do with them (format a progress line, append a JSONL record, bump a
//! counter). Serialisation lives here — `kind()` gives the stable
//! kebab-case discriminator written to the `"type"` field,
//! `to_value()` the full JSON payload, and `to_line()` the schema-v7
//! line (payload plus `trace_id` and the writer's stamps) — so every
//! sink shares a single formatting path.

use crate::checkpoint::ChainCheckpoint;
use crate::json::Value;
use crate::profile::PhaseSnapshot;

/// Version of the event taxonomy below. Bumped whenever a kind is
/// added, removed, or changes its required fields, so trace consumers
/// can detect schema drift. Version 1 was the PR 2 taxonomy; version 2
/// adds the `srm-serve` job lifecycle and cache events; version 3 adds
/// the streaming `diagnostic-checkpoint` kind; version 4 adds the
/// `profile` phase-time kind and the `wall_ms`/`ess_per_sec` fields
/// on `diagnostic-checkpoint`; version 5 adds the simulation-based
/// calibration kinds `sbc-cell-start` / `sbc-rep-done` /
/// `sbc-cell-done`; version 6 adds the multi-dataset batch kinds
/// `batch-start` / `batch-item-done` / `batch-done`; version 7 makes
/// `trace_id` a required field on every trace line (injected by the
/// sinks, not carried by the variants) and adds the request-
/// correlation kinds `access` / `flightrec-dump`.
pub const SCHEMA_VERSION: u64 = 7;

/// The event-taxonomy version. Since v7 this is an alias of the
/// workspace-wide [`SCHEMA_VERSION`] — the previously scattered
/// per-document constants all resolve here.
pub const EVENT_SCHEMA_VERSION: u64 = SCHEMA_VERSION;

/// Per-parameter accept statistics carried by [`Event::ChainDone`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptStat {
    /// Parameter name (e.g. `"zeta0"`).
    pub parameter: String,
    /// Kernel steps taken for this parameter.
    pub steps: u64,
    /// Steps on which the parameter actually moved.
    pub accepted: u64,
}

impl AcceptStat {
    /// Fraction of steps accepted (0 when no steps were taken).
    pub fn rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }
}

/// A structured, typed trace event.
///
/// Numeric context (chain index, sweep index) is carried inline so an
/// event is meaningful on its own line of a JSONL trace even when
/// chains interleave.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A top-level invocation began (one per CLI run).
    RunStart {
        /// CLI command (`fit`, `select`, `trend`, …).
        command: String,
        /// Detection-model identifier, if the run has one.
        model: String,
        /// Prior family (`poisson` / `negbinom`), if applicable.
        prior: String,
        /// Root RNG seed.
        seed: u64,
        /// FNV-1a hash of the dataset's daily counts, hex-encoded.
        dataset_hash: String,
    },
    /// A named phase (sampling, waic, summary, diagnostics, …) began.
    PhaseStart {
        /// Phase name.
        phase: &'static str,
    },
    /// A named phase finished.
    PhaseEnd {
        /// Phase name.
        phase: &'static str,
        /// Wall-clock duration in milliseconds.
        wall_ms: f64,
    },
    /// A chain's sweep loop began.
    ChainStart {
        /// Chain index.
        chain: usize,
        /// Total sweeps this chain will attempt (burn-in + kept·thin).
        sweeps: usize,
    },
    /// A sweep is about to run (emitted at the sink's stride).
    SweepStart {
        /// Chain index.
        chain: usize,
        /// Sweep index within the chain.
        sweep: usize,
        /// Total sweeps planned for the chain.
        total: usize,
    },
    /// A sweep completed (emitted at the sink's stride).
    SweepEnd {
        /// Chain index.
        chain: usize,
        /// Sweep index within the chain.
        sweep: usize,
        /// Total sweeps planned for the chain.
        total: usize,
        /// Post-thinning draws kept so far.
        kept: usize,
    },
    /// One Metropolis accept/reject decision (stride-sampled).
    Metropolis {
        /// Chain index.
        chain: usize,
        /// Sweep index.
        sweep: usize,
        /// Parameter the random-walk kernel updated.
        parameter: &'static str,
        /// Whether the proposal was accepted.
        accepted: bool,
    },
    /// A sweep failed with a recoverable fault (slice-expansion
    /// exhaustion, non-finite rate, injected fault, …).
    SweepFault {
        /// Chain index.
        chain: usize,
        /// Sweep index that faulted.
        sweep: usize,
        /// `SrmError::kind()` kebab-case label.
        kind: String,
        /// Human-readable error rendering.
        detail: String,
    },
    /// A faulted sweep is being retried from the pre-sweep state.
    Retry {
        /// Chain index.
        chain: usize,
        /// Sweep index being retried.
        sweep: usize,
        /// Retries consumed so far on this chain (including this one).
        retries: u64,
    },
    /// The deterministic fault-injection harness fired.
    FaultInjected {
        /// Chain index.
        chain: usize,
        /// Sweep index the fault was planted on.
        sweep: usize,
        /// Injected fault kind label.
        kind: String,
    },
    /// A chain panicked and was contained by the runner.
    ChainPanicked {
        /// Chain index.
        chain: usize,
        /// Panic payload rendering.
        detail: String,
    },
    /// A chain's sweep loop finished (successfully).
    ChainDone {
        /// Chain index.
        chain: usize,
        /// Retries the chain consumed.
        retries: u64,
        /// Per-parameter acceptance statistics.
        accept: Vec<AcceptStat>,
    },
    /// One entry of a fault-tolerant run's final report. Emitted once
    /// per surviving chain after the run is assembled, so counting
    /// these (plus `CellFailure`) reproduces the engine's own fault
    /// counters exactly.
    ChainReport {
        /// Chain index.
        chain: usize,
        /// Whether the chain recovered after a fault.
        recovered: bool,
        /// Retries consumed.
        retries: u64,
        /// First-fault kind label, if any fault occurred.
        fault: Option<String>,
        /// Wall-clock time the chain spent on its worker thread, in
        /// milliseconds.
        wall_ms: f64,
    },
    /// An experiment cell began.
    CellStart {
        /// Prior family label.
        prior: String,
        /// Detection-model name.
        model: String,
        /// Observation-point day.
        day: usize,
    },
    /// An experiment cell finished.
    CellEnd {
        /// Prior family label.
        prior: String,
        /// Detection-model name.
        model: String,
        /// Observation-point day.
        day: usize,
        /// Wall-clock duration in milliseconds.
        wall_ms: f64,
    },
    /// An experiment cell was abandoned with an error.
    CellFailure {
        /// Prior family label.
        prior: String,
        /// Detection-model name.
        model: String,
        /// Observation-point day.
        day: usize,
        /// `SrmError::kind()` label of the terminal error.
        kind: String,
    },
    /// A WAIC evaluation completed.
    Waic {
        /// Model the criterion was computed for.
        model: String,
        /// WAIC total (deviance scale).
        total: f64,
        /// Effective number of parameters.
        p_waic: f64,
        /// Posterior draws the estimate used.
        draws: usize,
    },
    /// Final convergence diagnostics for one parameter.
    Diagnostic {
        /// Parameter name.
        parameter: String,
        /// Potential scale reduction factor.
        psrf: f64,
        /// Geweke z-score.
        geweke_z: f64,
        /// Effective sample size.
        ess: f64,
    },
    /// A one-line CLI diagnostic (the same string printed to stderr).
    CliDiagnostic {
        /// Severity label (`error`, `warning`).
        level: &'static str,
        /// The diagnostic message.
        message: String,
    },
    /// A service job left the queue and began executing (or was
    /// answered directly from the fit cache).
    JobStart {
        /// Server-assigned job id.
        job_id: String,
        /// Job kind (`fit`, `select`, `predict`).
        kind: String,
        /// Content-addressed cache key of the job.
        cache_key: String,
    },
    /// A service job reached a terminal state.
    JobDone {
        /// Server-assigned job id.
        job_id: String,
        /// Terminal status (`done`, `failed`, `cancelled`).
        status: String,
        /// Whether the result was served from the fit cache.
        cached: bool,
        /// Wall-clock time from submission to the terminal state, ms.
        wall_ms: f64,
    },
    /// A job's cache key was found in the fit cache — the stored
    /// result is returned verbatim and no sampling happens.
    CacheHit {
        /// Content-addressed cache key that matched.
        cache_key: String,
    },
    /// A job's cache key was absent from the fit cache — the job runs
    /// the full pipeline and its result is stored under this key.
    CacheMiss {
        /// Content-addressed cache key that missed.
        cache_key: String,
    },
    /// A periodic streaming-diagnostics snapshot for one chain:
    /// per-parameter running moments, split halves, ESS/MCSE, and
    /// acceptance so far. Emitted every `checkpoint_every` sweeps
    /// (and once at chain end) when checkpoints are enabled.
    DiagnosticCheckpoint {
        /// The full per-chain checkpoint payload.
        checkpoint: ChainCheckpoint,
    },
    /// The run's phase-time profile — one aggregate snapshot of the
    /// span profiler, emitted once at the end of a `--profile` run.
    Profile {
        /// Per-phase aggregates, sorted by `/`-joined span path.
        phases: Vec<PhaseSnapshot>,
    },
    /// A simulation-based-calibration cell was scheduled.
    SbcCellStart {
        /// Prior family label.
        prior: String,
        /// Detection-model name.
        model: String,
        /// Replications this cell will run.
        reps: usize,
    },
    /// One SBC replication finished (successfully or not).
    SbcRepDone {
        /// Prior family label.
        prior: String,
        /// Detection-model name.
        model: String,
        /// Replication index within the cell.
        rep: usize,
        /// Rank of the true `N` in the thinned posterior, or the
        /// `num_ranks` sentinel when the inner fit failed.
        rank: usize,
        /// Number of distinct rank values (`M + 1`).
        num_ranks: usize,
    },
    /// A simulation-based-calibration cell was aggregated and gated.
    SbcCellDone {
        /// Prior family label.
        prior: String,
        /// Detection-model name.
        model: String,
        /// Replications attempted.
        reps: usize,
        /// Replications whose inner fit failed or degraded.
        failures: usize,
        /// Chi-square uniformity statistic of the `N` rank histogram.
        chi2: f64,
        /// Upper-tail p-value of `chi2`.
        p_value: f64,
        /// Whether the cell passed the uniformity gate.
        passed: bool,
        /// Wall-clock time the cell's replications took, ms.
        wall_ms: f64,
    },
    /// A multi-dataset batch began executing.
    BatchStart {
        /// Batch identifier (`batch-N` on the service, the master
        /// seed rendering on the CLI).
        batch_id: String,
        /// Number of items (datasets) in the batch.
        items: usize,
        /// Master seed the per-item seeds were split from.
        master_seed: u64,
    },
    /// One batch item reached a terminal state.
    BatchItemDone {
        /// Batch identifier.
        batch_id: String,
        /// Item index within the batch (submission order).
        item: usize,
        /// Item label (file stem, dataset name, or caller-supplied).
        label: String,
        /// Terminal status (`done`, `degraded`, `failed`).
        status: String,
        /// Whether the item was served from a cache (the in-batch
        /// duplicate-dataset cache or the service fit cache) without
        /// sampling.
        cached: bool,
        /// Wall-clock time attributed to the item, ms (0 for cached
        /// items).
        wall_ms: f64,
    },
    /// A multi-dataset batch finished.
    BatchDone {
        /// Batch identifier.
        batch_id: String,
        /// Number of items in the batch.
        items: usize,
        /// Items that ended `failed`.
        failed: usize,
        /// Items served from a cache without sampling.
        cache_hits: usize,
        /// Wall-clock time for the whole batch, ms.
        wall_ms: f64,
    },
    /// One HTTP request, as the structured access log records it. The
    /// request's trace id is injected by the sink (like every other
    /// line), so the variant carries only the request outcome.
    Access {
        /// Request method (`GET`, `POST`, …).
        method: String,
        /// Request path.
        path: String,
        /// Response status code.
        status: u16,
        /// Response body size in bytes.
        bytes: u64,
        /// Whether the request was answered from the fit cache.
        cache_hit: bool,
        /// Time the correlated work spent waiting on the job queue,
        /// ms (0 when nothing queued during this request).
        queue_wait_ms: f64,
        /// Time spent inside the engine (`fit` spans) attributable to
        /// this request, ms.
        engine_ms: f64,
        /// Time spent serialising responses/results, ms.
        serialize_ms: f64,
    },
    /// The flight recorder dumped its ring to disk. Written as the
    /// first line of every `flightrec-<ts>-<n>.jsonl` file.
    FlightRecDump {
        /// Why the dump happened (`panic`, `engine-failure`,
        /// `sigterm`, `on-demand`, …).
        reason: String,
        /// Events captured in the dump.
        events: u64,
    },
}

/// Every `kind()` label, for schema validation.
pub const EVENT_KINDS: &[&str] = &[
    "run-start",
    "phase-start",
    "phase-end",
    "chain-start",
    "sweep-start",
    "sweep-end",
    "metropolis",
    "sweep-fault",
    "retry",
    "fault-injected",
    "chain-panicked",
    "chain-done",
    "chain-report",
    "cell-start",
    "cell-end",
    "cell-failure",
    "waic",
    "diagnostic",
    "cli-diagnostic",
    "job-start",
    "job-done",
    "cache-hit",
    "cache-miss",
    "diagnostic-checkpoint",
    "profile",
    "sbc-cell-start",
    "sbc-rep-done",
    "sbc-cell-done",
    "batch-start",
    "batch-item-done",
    "batch-done",
    "access",
    "flightrec-dump",
];

impl Event {
    /// Stable kebab-case discriminator, written as the `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run-start",
            Event::PhaseStart { .. } => "phase-start",
            Event::PhaseEnd { .. } => "phase-end",
            Event::ChainStart { .. } => "chain-start",
            Event::SweepStart { .. } => "sweep-start",
            Event::SweepEnd { .. } => "sweep-end",
            Event::Metropolis { .. } => "metropolis",
            Event::SweepFault { .. } => "sweep-fault",
            Event::Retry { .. } => "retry",
            Event::FaultInjected { .. } => "fault-injected",
            Event::ChainPanicked { .. } => "chain-panicked",
            Event::ChainDone { .. } => "chain-done",
            Event::ChainReport { .. } => "chain-report",
            Event::CellStart { .. } => "cell-start",
            Event::CellEnd { .. } => "cell-end",
            Event::CellFailure { .. } => "cell-failure",
            Event::Waic { .. } => "waic",
            Event::Diagnostic { .. } => "diagnostic",
            Event::CliDiagnostic { .. } => "cli-diagnostic",
            Event::JobStart { .. } => "job-start",
            Event::JobDone { .. } => "job-done",
            Event::CacheHit { .. } => "cache-hit",
            Event::CacheMiss { .. } => "cache-miss",
            Event::DiagnosticCheckpoint { .. } => "diagnostic-checkpoint",
            Event::Profile { .. } => "profile",
            Event::SbcCellStart { .. } => "sbc-cell-start",
            Event::SbcRepDone { .. } => "sbc-rep-done",
            Event::SbcCellDone { .. } => "sbc-cell-done",
            Event::BatchStart { .. } => "batch-start",
            Event::BatchItemDone { .. } => "batch-item-done",
            Event::BatchDone { .. } => "batch-done",
            Event::Access { .. } => "access",
            Event::FlightRecDump { .. } => "flightrec-dump",
        }
    }

    /// The chain index this event concerns, if it is chain-scoped.
    pub fn chain(&self) -> Option<usize> {
        match self {
            Event::ChainStart { chain, .. }
            | Event::SweepStart { chain, .. }
            | Event::SweepEnd { chain, .. }
            | Event::Metropolis { chain, .. }
            | Event::SweepFault { chain, .. }
            | Event::Retry { chain, .. }
            | Event::FaultInjected { chain, .. }
            | Event::ChainPanicked { chain, .. }
            | Event::ChainDone { chain, .. }
            | Event::ChainReport { chain, .. } => Some(*chain),
            Event::DiagnosticCheckpoint { checkpoint } => Some(checkpoint.chain),
            _ => None,
        }
    }

    /// Full JSON payload, including the `"type"` discriminator.
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> =
            vec![("type".to_string(), Value::Str(self.kind().to_string()))];
        let mut push = |k: &str, v: Value| pairs.push((k.to_string(), v));
        match self {
            Event::RunStart {
                command,
                model,
                prior,
                seed,
                dataset_hash,
            } => {
                push("command", Value::Str(command.clone()));
                push("model", Value::Str(model.clone()));
                push("prior", Value::Str(prior.clone()));
                push("seed", Value::Num(*seed as f64));
                push("dataset_hash", Value::Str(dataset_hash.clone()));
            }
            Event::PhaseStart { phase } => push("phase", Value::Str(phase.to_string())),
            Event::PhaseEnd { phase, wall_ms } => {
                push("phase", Value::Str(phase.to_string()));
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::ChainStart { chain, sweeps } => {
                push("chain", Value::Num(*chain as f64));
                push("sweeps", Value::Num(*sweeps as f64));
            }
            Event::SweepStart {
                chain,
                sweep,
                total,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("sweep", Value::Num(*sweep as f64));
                push("total", Value::Num(*total as f64));
            }
            Event::SweepEnd {
                chain,
                sweep,
                total,
                kept,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("sweep", Value::Num(*sweep as f64));
                push("total", Value::Num(*total as f64));
                push("kept", Value::Num(*kept as f64));
            }
            Event::Metropolis {
                chain,
                sweep,
                parameter,
                accepted,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("sweep", Value::Num(*sweep as f64));
                push("parameter", Value::Str(parameter.to_string()));
                push("accepted", Value::Bool(*accepted));
            }
            Event::SweepFault {
                chain,
                sweep,
                kind,
                detail,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("sweep", Value::Num(*sweep as f64));
                push("kind", Value::Str(kind.clone()));
                push("detail", Value::Str(detail.clone()));
            }
            Event::Retry {
                chain,
                sweep,
                retries,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("sweep", Value::Num(*sweep as f64));
                push("retries", Value::Num(*retries as f64));
            }
            Event::FaultInjected { chain, sweep, kind } => {
                push("chain", Value::Num(*chain as f64));
                push("sweep", Value::Num(*sweep as f64));
                push("kind", Value::Str(kind.clone()));
            }
            Event::ChainPanicked { chain, detail } => {
                push("chain", Value::Num(*chain as f64));
                push("detail", Value::Str(detail.clone()));
            }
            Event::ChainDone {
                chain,
                retries,
                accept,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("retries", Value::Num(*retries as f64));
                push(
                    "accept",
                    Value::Arr(
                        accept
                            .iter()
                            .map(|a| {
                                Value::obj(vec![
                                    ("parameter", Value::Str(a.parameter.clone())),
                                    ("steps", Value::Num(a.steps as f64)),
                                    ("accepted", Value::Num(a.accepted as f64)),
                                    ("rate", Value::Num(a.rate())),
                                ])
                            })
                            .collect(),
                    ),
                );
            }
            Event::ChainReport {
                chain,
                recovered,
                retries,
                fault,
                wall_ms,
            } => {
                push("chain", Value::Num(*chain as f64));
                push("recovered", Value::Bool(*recovered));
                push("retries", Value::Num(*retries as f64));
                push(
                    "fault",
                    match fault {
                        Some(kind) => Value::Str(kind.clone()),
                        None => Value::Null,
                    },
                );
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::CellStart { prior, model, day } => {
                push("prior", Value::Str(prior.clone()));
                push("model", Value::Str(model.clone()));
                push("day", Value::Num(*day as f64));
            }
            Event::CellEnd {
                prior,
                model,
                day,
                wall_ms,
            } => {
                push("prior", Value::Str(prior.clone()));
                push("model", Value::Str(model.clone()));
                push("day", Value::Num(*day as f64));
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::CellFailure {
                prior,
                model,
                day,
                kind,
            } => {
                push("prior", Value::Str(prior.clone()));
                push("model", Value::Str(model.clone()));
                push("day", Value::Num(*day as f64));
                push("kind", Value::Str(kind.clone()));
            }
            Event::Waic {
                model,
                total,
                p_waic,
                draws,
            } => {
                push("model", Value::Str(model.clone()));
                push("total", Value::Num(*total));
                push("p_waic", Value::Num(*p_waic));
                push("draws", Value::Num(*draws as f64));
            }
            Event::Diagnostic {
                parameter,
                psrf,
                geweke_z,
                ess,
            } => {
                push("parameter", Value::Str(parameter.clone()));
                push("psrf", Value::Num(*psrf));
                push("geweke_z", Value::Num(*geweke_z));
                push("ess", Value::Num(*ess));
            }
            Event::CliDiagnostic { level, message } => {
                push("level", Value::Str(level.to_string()));
                push("message", Value::Str(message.clone()));
            }
            Event::JobStart {
                job_id,
                kind,
                cache_key,
            } => {
                push("job_id", Value::Str(job_id.clone()));
                push("kind", Value::Str(kind.clone()));
                push("cache_key", Value::Str(cache_key.clone()));
            }
            Event::JobDone {
                job_id,
                status,
                cached,
                wall_ms,
            } => {
                push("job_id", Value::Str(job_id.clone()));
                push("status", Value::Str(status.clone()));
                push("cached", Value::Bool(*cached));
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::CacheHit { cache_key } => {
                push("cache_key", Value::Str(cache_key.clone()));
            }
            Event::CacheMiss { cache_key } => {
                push("cache_key", Value::Str(cache_key.clone()));
            }
            Event::DiagnosticCheckpoint { checkpoint } => {
                push("chain", Value::Num(checkpoint.chain as f64));
                push("sweep", Value::Num(checkpoint.sweep as f64));
                push("kept", Value::Num(checkpoint.kept as f64));
                push("wall_ms", Value::Num(checkpoint.wall_ms));
                push(
                    "params",
                    Value::Arr(checkpoint.params.iter().map(|p| p.to_value()).collect()),
                );
                push(
                    "accept",
                    Value::Arr(
                        checkpoint
                            .accept
                            .iter()
                            .map(|a| {
                                Value::obj(vec![
                                    ("parameter", Value::Str(a.parameter.clone())),
                                    ("steps", Value::Num(a.steps as f64)),
                                    ("accepted", Value::Num(a.accepted as f64)),
                                    ("rate", Value::Num(a.rate())),
                                ])
                            })
                            .collect(),
                    ),
                );
            }
            Event::Profile { phases } => {
                push(
                    "phases",
                    Value::Arr(phases.iter().map(PhaseSnapshot::to_value).collect()),
                );
            }
            Event::SbcCellStart { prior, model, reps } => {
                push("prior", Value::Str(prior.clone()));
                push("model", Value::Str(model.clone()));
                push("reps", Value::Num(*reps as f64));
            }
            Event::SbcRepDone {
                prior,
                model,
                rep,
                rank,
                num_ranks,
            } => {
                push("prior", Value::Str(prior.clone()));
                push("model", Value::Str(model.clone()));
                push("rep", Value::Num(*rep as f64));
                push("rank", Value::Num(*rank as f64));
                push("num_ranks", Value::Num(*num_ranks as f64));
            }
            Event::SbcCellDone {
                prior,
                model,
                reps,
                failures,
                chi2,
                p_value,
                passed,
                wall_ms,
            } => {
                push("prior", Value::Str(prior.clone()));
                push("model", Value::Str(model.clone()));
                push("reps", Value::Num(*reps as f64));
                push("failures", Value::Num(*failures as f64));
                push("chi2", Value::Num(*chi2));
                push("p_value", Value::Num(*p_value));
                push("passed", Value::Bool(*passed));
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::BatchStart {
                batch_id,
                items,
                master_seed,
            } => {
                push("batch_id", Value::Str(batch_id.clone()));
                push("items", Value::Num(*items as f64));
                push("master_seed", Value::Num(*master_seed as f64));
            }
            Event::BatchItemDone {
                batch_id,
                item,
                label,
                status,
                cached,
                wall_ms,
            } => {
                push("batch_id", Value::Str(batch_id.clone()));
                push("item", Value::Num(*item as f64));
                push("label", Value::Str(label.clone()));
                push("status", Value::Str(status.clone()));
                push("cached", Value::Bool(*cached));
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::BatchDone {
                batch_id,
                items,
                failed,
                cache_hits,
                wall_ms,
            } => {
                push("batch_id", Value::Str(batch_id.clone()));
                push("items", Value::Num(*items as f64));
                push("failed", Value::Num(*failed as f64));
                push("cache_hits", Value::Num(*cache_hits as f64));
                push("wall_ms", Value::Num(*wall_ms));
            }
            Event::Access {
                method,
                path,
                status,
                bytes,
                cache_hit,
                queue_wait_ms,
                engine_ms,
                serialize_ms,
            } => {
                push("method", Value::Str(method.clone()));
                push("path", Value::Str(path.clone()));
                push("status", Value::Num(f64::from(*status)));
                push("bytes", Value::Num(*bytes as f64));
                push("cache_hit", Value::Bool(*cache_hit));
                push("queue_wait_ms", Value::Num(*queue_wait_ms));
                push("engine_ms", Value::Num(*engine_ms));
                push("serialize_ms", Value::Num(*serialize_ms));
            }
            Event::FlightRecDump { reason, events } => {
                push("reason", Value::Str(reason.clone()));
                push("events", Value::Num(*events as f64));
            }
        }
        Value::Obj(pairs)
    }

    /// One schema-v7 line as every writer emits it: `type`, then
    /// `trace_id`, then the writer's own `stamps` (a sink's `ms`, the
    /// flight recorder's `seq` and `thread`), then the payload.
    pub fn to_line<'a>(
        &self,
        trace_id: &str,
        stamps: impl IntoIterator<Item = (&'a str, Value)>,
    ) -> Value {
        let mut value = self.to_value();
        if let Value::Obj(pairs) = &mut value {
            let head = std::iter::once(("trace_id", Value::Str(trace_id.to_owned())))
                .chain(stamps)
                .map(|(key, v)| (key.to_owned(), v));
            pairs.splice(1..1, head);
        }
        value
    }
}

/// The non-`type` fields required for a given event kind, for schema
/// validation of JSONL traces.
pub fn required_fields(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "run-start" => &["command", "model", "prior", "seed", "dataset_hash"],
        "phase-start" => &["phase"],
        "phase-end" => &["phase", "wall_ms"],
        "chain-start" => &["chain", "sweeps"],
        "sweep-start" => &["chain", "sweep", "total"],
        "sweep-end" => &["chain", "sweep", "total", "kept"],
        "metropolis" => &["chain", "sweep", "parameter", "accepted"],
        "sweep-fault" => &["chain", "sweep", "kind", "detail"],
        "retry" => &["chain", "sweep", "retries"],
        "fault-injected" => &["chain", "sweep", "kind"],
        "chain-panicked" => &["chain", "detail"],
        "chain-done" => &["chain", "retries", "accept"],
        "chain-report" => &["chain", "recovered", "retries", "fault", "wall_ms"],
        "cell-start" => &["prior", "model", "day"],
        "cell-end" => &["prior", "model", "day", "wall_ms"],
        "cell-failure" => &["prior", "model", "day", "kind"],
        "waic" => &["model", "total", "p_waic", "draws"],
        "diagnostic" => &["parameter", "psrf", "geweke_z", "ess"],
        "cli-diagnostic" => &["level", "message"],
        "job-start" => &["job_id", "kind", "cache_key"],
        "job-done" => &["job_id", "status", "cached", "wall_ms"],
        "cache-hit" => &["cache_key"],
        "cache-miss" => &["cache_key"],
        "diagnostic-checkpoint" => &["chain", "sweep", "kept", "wall_ms", "params", "accept"],
        "profile" => &["phases"],
        "sbc-cell-start" => &["prior", "model", "reps"],
        "sbc-rep-done" => &["prior", "model", "rep", "rank", "num_ranks"],
        "sbc-cell-done" => &[
            "prior", "model", "reps", "failures", "chi2", "p_value", "passed", "wall_ms",
        ],
        "batch-start" => &["batch_id", "items", "master_seed"],
        "batch-item-done" => &["batch_id", "item", "label", "status", "cached", "wall_ms"],
        "batch-done" => &["batch_id", "items", "failed", "cache_hits", "wall_ms"],
        "access" => &["method", "path", "status", "bytes", "cache_hit"],
        "flightrec-dump" => &["reason", "events"],
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_registered_and_fields_complete() {
        let samples: Vec<Event> = vec![
            Event::RunStart {
                command: "fit".into(),
                model: "model2".into(),
                prior: "poisson".into(),
                seed: 7,
                dataset_hash: "deadbeef".into(),
            },
            Event::PhaseStart { phase: "sampling" },
            Event::PhaseEnd {
                phase: "sampling",
                wall_ms: 12.5,
            },
            Event::ChainStart {
                chain: 0,
                sweeps: 100,
            },
            Event::SweepStart {
                chain: 0,
                sweep: 0,
                total: 100,
            },
            Event::SweepEnd {
                chain: 0,
                sweep: 0,
                total: 100,
                kept: 0,
            },
            Event::Metropolis {
                chain: 1,
                sweep: 3,
                parameter: "zeta0",
                accepted: true,
            },
            Event::SweepFault {
                chain: 1,
                sweep: 9,
                kind: "slice-exhausted".into(),
                detail: "slice expansion exhausted".into(),
            },
            Event::Retry {
                chain: 1,
                sweep: 9,
                retries: 1,
            },
            Event::FaultInjected {
                chain: 1,
                sweep: 9,
                kind: "nan-rate".into(),
            },
            Event::ChainPanicked {
                chain: 2,
                detail: "boom".into(),
            },
            Event::ChainDone {
                chain: 0,
                retries: 0,
                accept: vec![AcceptStat {
                    parameter: "zeta0".into(),
                    steps: 10,
                    accepted: 4,
                }],
            },
            Event::ChainReport {
                chain: 0,
                recovered: true,
                retries: 1,
                fault: Some("panic".into()),
                wall_ms: 12.5,
            },
            Event::CellStart {
                prior: "poisson".into(),
                model: "model1".into(),
                day: 48,
            },
            Event::CellEnd {
                prior: "poisson".into(),
                model: "model1".into(),
                day: 48,
                wall_ms: 3.0,
            },
            Event::CellFailure {
                prior: "negbinom".into(),
                model: "model4".into(),
                day: 48,
                kind: "degenerate-posterior".into(),
            },
            Event::Waic {
                model: "model3".into(),
                total: 211.4,
                p_waic: 2.1,
                draws: 4000,
            },
            Event::Diagnostic {
                parameter: "residual".into(),
                psrf: 1.01,
                geweke_z: 0.3,
                ess: 950.0,
            },
            Event::CliDiagnostic {
                level: "error",
                message: "unknown flag".into(),
            },
            Event::JobStart {
                job_id: "j1".into(),
                kind: "fit".into(),
                cache_key: "0123456789abcdef".into(),
            },
            Event::JobDone {
                job_id: "j1".into(),
                status: "done".into(),
                cached: false,
                wall_ms: 80.5,
            },
            Event::CacheHit {
                cache_key: "0123456789abcdef".into(),
            },
            Event::CacheMiss {
                cache_key: "0123456789abcdef".into(),
            },
            Event::DiagnosticCheckpoint {
                checkpoint: ChainCheckpoint {
                    chain: 0,
                    sweep: 49,
                    kept: 25,
                    wall_ms: 120.0,
                    params: vec![crate::checkpoint::ParamCheckpoint {
                        parameter: "residual".into(),
                        moments: crate::checkpoint::MomentSummary {
                            count: 25,
                            mean: 4.2,
                            variance: 1.1,
                        },
                        half1: crate::checkpoint::MomentSummary {
                            count: 25,
                            mean: 4.2,
                            variance: 1.1,
                        },
                        half2: crate::checkpoint::MomentSummary::default(),
                        ess: 18.0,
                        mcse: 0.25,
                        ess_per_sec: 150.0,
                    }],
                    accept: vec![AcceptStat {
                        parameter: "zeta0".into(),
                        steps: 50,
                        accepted: 21,
                    }],
                },
            },
            Event::Profile {
                phases: vec![PhaseSnapshot {
                    path: "chain/sweep".into(),
                    count: 100,
                    total_ns: 5_000_000,
                    self_ns: 4_000_000,
                    min_ns: 40_000,
                    max_ns: 90_000,
                    buckets: vec![0; crate::profile::HIST_BUCKETS],
                }],
            },
            Event::SbcCellStart {
                prior: "poisson".into(),
                model: "model0".into(),
                reps: 64,
            },
            Event::SbcRepDone {
                prior: "poisson".into(),
                model: "model0".into(),
                rep: 5,
                rank: 311,
                num_ranks: 1000,
            },
            Event::SbcCellDone {
                prior: "negbinom".into(),
                model: "model3".into(),
                reps: 64,
                failures: 0,
                chi2: 7.2,
                p_value: 0.62,
                passed: true,
                wall_ms: 4200.0,
            },
            Event::BatchStart {
                batch_id: "batch-1".into(),
                items: 4,
                master_seed: 2024,
            },
            Event::BatchItemDone {
                batch_id: "batch-1".into(),
                item: 2,
                label: "musa_cc96".into(),
                status: "done".into(),
                cached: false,
                wall_ms: 310.0,
            },
            Event::BatchDone {
                batch_id: "batch-1".into(),
                items: 4,
                failed: 0,
                cache_hits: 1,
                wall_ms: 1250.0,
            },
            Event::Access {
                method: "POST".into(),
                path: "/v1/jobs".into(),
                status: 202,
                bytes: 96,
                cache_hit: false,
                queue_wait_ms: 0.4,
                engine_ms: 0.0,
                serialize_ms: 0.1,
            },
            Event::FlightRecDump {
                reason: "sigterm".into(),
                events: 128,
            },
        ];
        assert_eq!(samples.len(), EVENT_KINDS.len());
        for event in &samples {
            assert!(EVENT_KINDS.contains(&event.kind()), "{}", event.kind());
            let value = event.to_value();
            assert_eq!(
                value.get("type").and_then(|v| v.as_str()),
                Some(event.kind())
            );
            let required = required_fields(event.kind()).unwrap();
            for field in required {
                assert!(
                    value.get(field).is_some(),
                    "{} missing field {field}",
                    event.kind()
                );
            }
        }
    }

    #[test]
    fn chain_scope_is_reported() {
        let e = Event::Retry {
            chain: 3,
            sweep: 5,
            retries: 1,
        };
        assert_eq!(e.chain(), Some(3));
        let e = Event::PhaseStart { phase: "waic" };
        assert_eq!(e.chain(), None);
    }

    #[test]
    fn accept_stat_rate_handles_zero_steps() {
        let a = AcceptStat {
            parameter: "zeta0".into(),
            steps: 0,
            accepted: 0,
        };
        assert_eq!(a.rate(), 0.0);
        let a = AcceptStat {
            parameter: "zeta0".into(),
            steps: 8,
            accepted: 2,
        };
        assert!((a.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unknown_kind_has_no_schema() {
        assert!(required_fields("not-an-event").is_none());
    }

    #[test]
    fn diagnostic_checkpoint_round_trips_through_json() {
        let checkpoint = ChainCheckpoint {
            chain: 2,
            sweep: 99,
            kept: 50,
            wall_ms: 321.5,
            params: vec![crate::checkpoint::ParamCheckpoint {
                parameter: "lambda0".into(),
                moments: crate::checkpoint::MomentSummary {
                    count: 50,
                    mean: 0.5,
                    variance: 0.01,
                },
                half1: crate::checkpoint::MomentSummary {
                    count: 25,
                    mean: 0.49,
                    variance: 0.012,
                },
                half2: crate::checkpoint::MomentSummary {
                    count: 25,
                    mean: 0.51,
                    variance: 0.008,
                },
                ess: 31.5,
                mcse: 0.017,
                ess_per_sec: 98.0,
            }],
            accept: vec![AcceptStat {
                parameter: "zeta1".into(),
                steps: 100,
                accepted: 37,
            }],
        };
        let event = Event::DiagnosticCheckpoint {
            checkpoint: checkpoint.clone(),
        };
        let value = event.to_value();
        assert_eq!(event.chain(), Some(2));
        let text = value.to_json();
        let parsed = crate::json::parse(&text).unwrap();
        let back = ChainCheckpoint::from_value(&parsed).unwrap();
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn lines_put_type_then_trace_id_then_stamps_then_payload() {
        let retry = Event::Retry {
            chain: 1,
            sweep: 7,
            retries: 2,
        };
        let stamps = [("seq", Value::Num(3.0)), ("thread", Value::Str("w".into()))];
        assert_eq!(
            retry.to_line("beef", stamps).to_json(),
            r#"{"type":"retry","trace_id":"beef","seq":3,"thread":"w","chain":1,"sweep":7,"retries":2}"#
        );
        assert_eq!(
            retry.to_line("beef", []).to_json(),
            r#"{"type":"retry","trace_id":"beef","chain":1,"sweep":7,"retries":2}"#
        );
    }
}
