//! Service counters and the Prometheus text exposition (`/metrics`).
//!
//! Two layers feed the page: the server's own counters (requests,
//! submissions, completions, rejections, job wall-time histogram) and
//! the engine-level aggregates from the global [`StatsCollector`]
//! every job's recorder tees into (retries, contained panics, event
//! volume). Exposition format 0.0.4 — counters end in `_total`,
//! histograms emit `_bucket`/`_sum`/`_count`.

use std::fmt::Write as _;

use srm_obs::{
    aggregate, ChainCheckpoint, Counter, FixedHistogram, FlightRecStats, PhaseSnapshot,
    StatsCollector, EVENT_SCHEMA_VERSION, MANIFEST_SCHEMA_VERSION, SCHEMA_VERSION,
};

use crate::access_log::AccessLogStats;
use crate::cache::FitCache;
use crate::job::JobStore;
use crate::store::WalStats;

/// Mutable-through-&self counters for the HTTP and job layers.
#[derive(Debug)]
pub struct ServeMetrics {
    /// HTTP requests handled (any route, any status).
    pub http_requests: Counter,
    /// Jobs accepted onto the queue or served from cache.
    pub jobs_submitted: Counter,
    /// Jobs rejected with 429 (queue full).
    pub jobs_rejected: Counter,
    /// Jobs that finished with status `done` (cache hits included).
    pub jobs_done: Counter,
    /// Jobs that finished with status `failed`.
    pub jobs_failed: Counter,
    /// Jobs cancelled before completing.
    pub jobs_cancelled: Counter,
    /// Connections turned away with 503 because the accept queue was
    /// full.
    pub conns_rejected: Counter,
    /// Idle connections reaped (503) after waiting too long in the
    /// accept queue.
    pub conns_reaped: Counter,
    /// Wall-time distribution of executed (non-cached) jobs, ms.
    pub job_wall_ms: FixedHistogram,
    /// Batches accepted via `POST /v1/batches`.
    pub batches_submitted: Counter,
    /// Batch items accepted (across all batches).
    pub batch_items: Counter,
    /// Batch items served without fresh sampling (in-batch duplicate
    /// aliases plus fit-cache hits at submit).
    pub batch_cache_hits: Counter,
    /// Requests to the read-only `/v1/debug/*` endpoints.
    pub debug_requests: Counter,
}

/// Point-in-time gauge inputs for [`render_prometheus`], sampled by
/// the caller right before rendering.
#[derive(Debug, Clone, Default)]
pub struct GaugeSnapshot {
    /// Jobs waiting on the job queue.
    pub queue_depth: usize,
    /// Jobs currently being computed.
    pub jobs_running: u64,
    /// Connections waiting in the accept queue.
    pub conn_queue_depth: usize,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Merged phase-time profile from the server's always-on
    /// profiler (queue-wait, fit, serialize, wal-append, and the
    /// sampler phases underneath).
    pub phases: Vec<PhaseSnapshot>,
    /// Batches with at least one member job still pending.
    pub batches_active: u64,
    /// Access-log counters (`None` when no access log is configured).
    pub access_log: Option<AccessLogStats>,
    /// Flight-recorder counters (zero/disabled when never enabled).
    pub flightrec: FlightRecStats,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh counters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            http_requests: Counter::new(),
            jobs_submitted: Counter::new(),
            jobs_rejected: Counter::new(),
            jobs_done: Counter::new(),
            jobs_failed: Counter::new(),
            jobs_cancelled: Counter::new(),
            conns_rejected: Counter::new(),
            conns_reaped: Counter::new(),
            // Job wall times from 1 ms to ~100 s.
            job_wall_ms: FixedHistogram::exponential(1.0, 10.0, 6),
            batches_submitted: Counter::new(),
            batch_items: Counter::new(),
            batch_cache_hits: Counter::new(),
            debug_requests: Counter::new(),
        }
    }
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Escapes a Prometheus label value per exposition format 0.0.4:
/// backslash, double quote, and newline must be escaped; everything
/// else passes through verbatim.
#[must_use]
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Parses one sample line's label block, returning the position after
/// the closing `}` or an error describing the malformation.
fn check_label_block(line: &str, start: usize) -> Result<usize, String> {
    let bytes = line.as_bytes();
    let mut i = start + 1; // past '{'
    loop {
        // Label name.
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == name_start || i >= bytes.len() || bytes[i] != b'=' {
            return Err(format!("bad label name in `{line}`"));
        }
        i += 1;
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err(format!("label value must be quoted in `{line}`"));
        }
        i += 1;
        // Label value: only \\, \", \n escapes; no raw quote/backslash.
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated label value in `{line}`")),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\' | b'"' | b'n') => i += 2,
                    _ => return Err(format!("invalid escape in label value in `{line}`")),
                },
                Some(_) => i += 1,
            }
        }
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(i + 1),
            _ => return Err(format!("expected `,` or `}}` after label in `{line}`")),
        }
    }
}

/// Lints a Prometheus text exposition (format 0.0.4). Returns one
/// message per violation (empty = clean):
///
/// - every sample's metric family must be announced by exactly one
///   `# HELP` and one `# TYPE` line before its first sample;
/// - no duplicate families (a family's samples may not restart after
///   another family began);
/// - `counter` families must end in `_total`; histogram samples must
///   use the `_bucket`/`_sum`/`_count` suffixes;
/// - label blocks must parse, with only `\\`, `\"` and `\n` escapes
///   in values, and every sample needs a numeric value.
#[must_use]
pub fn lint_exposition(page: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut seen_samples: Vec<String> = Vec::new();
    let type_of = |typed: &[(String, String)], family: &str| {
        typed
            .iter()
            .find(|(f, _)| f == family)
            .map(|(_, t)| t.clone())
    };
    for line in page.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some(family) = rest.split_whitespace().next() else {
                violations.push(format!("HELP line without a family name: `{line}`"));
                continue;
            };
            if helped.iter().any(|f| f == family) {
                violations.push(format!("duplicate HELP for family `{family}`"));
            }
            helped.push(family.to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(family), Some(kind)) = (parts.next(), parts.next()) else {
                violations.push(format!("malformed TYPE line: `{line}`"));
                continue;
            };
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                violations.push(format!("unknown TYPE `{kind}` for family `{family}`"));
            }
            if kind == "counter" && !family.ends_with("_total") {
                violations.push(format!("counter family `{family}` must end in `_total`"));
            }
            if typed.iter().any(|(f, _)| f == family) {
                violations.push(format!("duplicate TYPE for family `{family}`"));
            }
            typed.push((family.to_owned(), kind.to_owned()));
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // A sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if name.is_empty() {
            violations.push(format!("sample without a metric name: `{line}`"));
            continue;
        }
        // Resolve the family: histogram samples carry a suffix.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| type_of(&typed, base) == Some("histogram".to_owned()))
            .unwrap_or(name)
            .to_owned();
        match type_of(&typed, &family) {
            None => violations.push(format!("sample `{name}` has no TYPE line")),
            Some(kind) => {
                if kind == "histogram" && family == name {
                    violations.push(format!(
                        "histogram family `{family}` sampled without _bucket/_sum/_count"
                    ));
                }
            }
        }
        if !helped.contains(&family) {
            violations.push(format!("sample `{name}` has no HELP line"));
        }
        // Families must be contiguous: once another family's samples
        // started, an earlier family may not emit more samples.
        match seen_samples.iter().position(|f| *f == family) {
            Some(at) if at + 1 != seen_samples.len() => {
                violations.push(format!("family `{family}` restarted after another family"));
            }
            Some(_) => {}
            None => seen_samples.push(family.clone()),
        }
        let after_labels = if line.as_bytes().get(name_end) == Some(&b'{') {
            match check_label_block(line, name_end) {
                Ok(end) => end,
                Err(v) => {
                    violations.push(v);
                    continue;
                }
            }
        } else {
            name_end
        };
        let value = line[after_labels..].trim();
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            violations.push(format!("non-numeric sample value `{value}` in `{line}`"));
        }
    }
    violations
}

fn histogram(out: &mut String, name: &str, help: &str, hist: &FixedHistogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, count) in hist.snapshot() {
        cumulative += count;
        let le = if bound.is_infinite() {
            "+Inf".to_owned()
        } else {
            format!("{bound}")
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_sum {}", hist.sum());
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

/// Per-running-job convergence gauges from the jobs' own stats
/// collectors: sweeps completed, whole-chain R̂, and total ESS per
/// parameter, labelled by (escaped) job id.
fn job_progress_gauges(out: &mut String, store: &JobStore) {
    let running = store.running_progress();
    let _ = writeln!(
        out,
        "# HELP srm_job_sweeps_completed Sweeps completed so far across a running job's chains."
    );
    let _ = writeln!(out, "# TYPE srm_job_sweeps_completed gauge");
    let _ = writeln!(
        out,
        "# HELP srm_job_rhat Whole-chain Gelman-Rubin R-hat at the latest checkpoint."
    );
    let _ = writeln!(out, "# TYPE srm_job_rhat gauge");
    let _ = writeln!(
        out,
        "# HELP srm_job_ess Total effective sample size at the latest checkpoint."
    );
    let _ = writeln!(out, "# TYPE srm_job_ess gauge");
    let _ = writeln!(
        out,
        "# HELP srm_job_ess_per_sec Effective samples per second of summed chain wall time at the latest checkpoint (below ESS per CPU-second when chains share a core)."
    );
    let _ = writeln!(out, "# TYPE srm_job_ess_per_sec gauge");
    for (id, stats) in &running {
        let job = escape_label(id);
        let _ = writeln!(
            out,
            "srm_job_sweeps_completed{{job=\"{job}\"}} {}",
            stats.sweeps_completed()
        );
        let latest = stats.latest_checkpoints();
        let refs: Vec<&ChainCheckpoint> = latest.iter().collect();
        for diag in aggregate(&refs) {
            let parameter = escape_label(&diag.parameter);
            if diag.rhat.is_finite() {
                let _ = writeln!(
                    out,
                    "srm_job_rhat{{job=\"{job}\",parameter=\"{parameter}\"}} {}",
                    diag.rhat
                );
            }
            if diag.ess.is_finite() {
                let _ = writeln!(
                    out,
                    "srm_job_ess{{job=\"{job}\",parameter=\"{parameter}\"}} {}",
                    diag.ess
                );
            }
            if diag.ess_per_sec > 0.0 {
                let _ = writeln!(
                    out,
                    "srm_job_ess_per_sec{{job=\"{job}\",parameter=\"{parameter}\"}} {}",
                    diag.ess_per_sec
                );
            }
        }
    }
}

/// Phase-time totals from the server's profiler, one series pair per
/// `/`-joined span path: cumulative seconds spent and entry count.
fn phase_series(out: &mut String, phases: &[PhaseSnapshot]) {
    let _ = writeln!(
        out,
        "# HELP srm_serve_phase_seconds_total Cumulative wall time inside each profiled phase."
    );
    let _ = writeln!(out, "# TYPE srm_serve_phase_seconds_total counter");
    let _ = writeln!(
        out,
        "# HELP srm_serve_phase_entries_total Times each profiled phase was entered."
    );
    let _ = writeln!(out, "# TYPE srm_serve_phase_entries_total counter");
    for phase in phases {
        let label = escape_label(&phase.path);
        let _ = writeln!(
            out,
            "srm_serve_phase_seconds_total{{phase=\"{label}\"}} {}",
            phase.total_ns as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "srm_serve_phase_entries_total{{phase=\"{label}\"}} {}",
            phase.count
        );
    }
}

/// Renders the `/metrics` page. `wal` is `None` when the server runs
/// without a state directory (no persistence series emitted).
#[must_use]
pub fn render_prometheus(
    metrics: &ServeMetrics,
    cache: &FitCache,
    stats: &StatsCollector,
    store: &JobStore,
    gauges: GaugeSnapshot,
    wal: Option<WalStats>,
) -> String {
    let GaugeSnapshot {
        queue_depth,
        jobs_running,
        conn_queue_depth,
        uptime_secs,
        phases,
        batches_active,
        access_log,
        flightrec,
    } = gauges;
    let mut out = String::new();
    // Build identity first: the same fields `/healthz` reports, as a
    // constant-1 gauge whose labels carry the values.
    let _ = writeln!(
        out,
        "# HELP srm_build_info Build identity (value is always 1; labels carry the fields)."
    );
    let _ = writeln!(out, "# TYPE srm_build_info gauge");
    let _ = writeln!(
        out,
        "srm_build_info{{version=\"{}\",schema=\"{SCHEMA_VERSION}\",manifest_schema=\"{MANIFEST_SCHEMA_VERSION}\",event_schema=\"{EVENT_SCHEMA_VERSION}\"}} 1",
        escape_label(env!("CARGO_PKG_VERSION")),
    );
    gauge(
        &mut out,
        "srm_serve_uptime_seconds",
        "Seconds since the server started.",
        uptime_secs,
    );
    counter(
        &mut out,
        "srm_serve_http_requests_total",
        "HTTP requests handled.",
        metrics.http_requests.get(),
    );
    counter(
        &mut out,
        "srm_serve_jobs_submitted_total",
        "Jobs accepted (queued or served from cache).",
        metrics.jobs_submitted.get(),
    );
    counter(
        &mut out,
        "srm_serve_jobs_rejected_total",
        "Jobs rejected with 429 because the queue was full.",
        metrics.jobs_rejected.get(),
    );
    counter(
        &mut out,
        "srm_serve_jobs_done_total",
        "Jobs completed successfully.",
        metrics.jobs_done.get(),
    );
    counter(
        &mut out,
        "srm_serve_jobs_failed_total",
        "Jobs that failed.",
        metrics.jobs_failed.get(),
    );
    counter(
        &mut out,
        "srm_serve_jobs_cancelled_total",
        "Jobs cancelled before completion.",
        metrics.jobs_cancelled.get(),
    );
    counter(
        &mut out,
        "srm_serve_cache_hits_total",
        "Fit-cache hits (results served without re-sampling).",
        cache.hits(),
    );
    counter(
        &mut out,
        "srm_serve_cache_misses_total",
        "Fit-cache misses.",
        cache.misses(),
    );
    counter(
        &mut out,
        "srm_store_evictions_total",
        "Fit-cache entries evicted under capacity pressure (LRU).",
        cache.evictions(),
    );
    counter(
        &mut out,
        "srm_serve_conns_rejected_total",
        "Connections rejected with 503 because the accept queue was full.",
        metrics.conns_rejected.get(),
    );
    counter(
        &mut out,
        "srm_serve_conns_reaped_total",
        "Stale connections reaped with 503 from the accept queue.",
        metrics.conns_reaped.get(),
    );
    gauge(
        &mut out,
        "srm_serve_conn_queue_depth",
        "Connections waiting in the accept queue.",
        conn_queue_depth as f64,
    );
    if let Some(wal) = wal {
        gauge(
            &mut out,
            "srm_wal_bytes",
            "Bytes currently in the write-ahead log.",
            wal.bytes as f64,
        );
        counter(
            &mut out,
            "srm_wal_records_total",
            "Records appended to the write-ahead log since boot.",
            wal.appended,
        );
        counter(
            &mut out,
            "srm_store_snapshots_total",
            "State snapshots written since boot.",
            wal.snapshots,
        );
        counter(
            &mut out,
            "srm_store_errors_total",
            "WAL appends or snapshots that failed (memory-only state).",
            wal.errors,
        );
    }
    gauge(
        &mut out,
        "srm_serve_cache_entries",
        "Results stored in the fit cache.",
        cache.len() as f64,
    );
    gauge(
        &mut out,
        "srm_serve_queue_depth",
        "Jobs waiting on the queue.",
        queue_depth as f64,
    );
    gauge(
        &mut out,
        "srm_serve_jobs_running",
        "Jobs currently being computed.",
        jobs_running as f64,
    );
    counter(
        &mut out,
        "srm_serve_batches_submitted_total",
        "Batches accepted via POST /v1/batches.",
        metrics.batches_submitted.get(),
    );
    counter(
        &mut out,
        "srm_serve_batch_items_total",
        "Batch items accepted across all batches.",
        metrics.batch_items.get(),
    );
    counter(
        &mut out,
        "srm_serve_batch_cache_hits_total",
        "Batch items served without fresh sampling (duplicates and cache hits).",
        metrics.batch_cache_hits.get(),
    );
    gauge(
        &mut out,
        "srm_serve_batches_active",
        "Batches with at least one member job still pending.",
        batches_active as f64,
    );
    counter(
        &mut out,
        "srm_serve_debug_requests_total",
        "Requests to the read-only /v1/debug endpoints.",
        metrics.debug_requests.get(),
    );
    if let Some(log) = access_log {
        counter(
            &mut out,
            "srm_serve_access_log_lines_total",
            "Access-log lines appended.",
            log.lines,
        );
        counter(
            &mut out,
            "srm_serve_access_log_errors_total",
            "Access-log appends or rotations that failed (degraded).",
            log.errors,
        );
        counter(
            &mut out,
            "srm_serve_access_log_rotations_total",
            "Access-log size rotations completed.",
            log.rotations,
        );
    }
    gauge(
        &mut out,
        "srm_flightrec_enabled",
        "Whether the flight recorder is capturing (1) or not (0).",
        if flightrec.enabled { 1.0 } else { 0.0 },
    );
    counter(
        &mut out,
        "srm_flightrec_recorded_total",
        "Events captured by the flight recorder since boot.",
        flightrec.recorded,
    );
    counter(
        &mut out,
        "srm_flightrec_dumps_total",
        "Flight-recorder dumps written successfully.",
        flightrec.dumps,
    );
    counter(
        &mut out,
        "srm_flightrec_dump_errors_total",
        "Flight-recorder dump attempts that failed (degraded).",
        flightrec.dump_errors,
    );
    let (queued, running, done, failed, cancelled) = store.counts();
    let _ = writeln!(
        out,
        "# HELP srm_serve_jobs_state Jobs in the store by lifecycle state."
    );
    let _ = writeln!(out, "# TYPE srm_serve_jobs_state gauge");
    for (state_label, count) in [
        ("queued", queued),
        ("running", running),
        ("done", done),
        ("failed", failed),
        ("cancelled", cancelled),
    ] {
        let _ = writeln!(
            out,
            "srm_serve_jobs_state{{state=\"{state_label}\"}} {count}"
        );
    }
    job_progress_gauges(&mut out, store);
    phase_series(&mut out, &phases);
    histogram(
        &mut out,
        "srm_serve_job_wall_ms",
        "Wall time of executed (non-cached) jobs, milliseconds.",
        &metrics.job_wall_ms,
    );
    counter(
        &mut out,
        "srm_serve_engine_retries_total",
        "Sweep retries across all jobs (from the engine's trace).",
        stats.retries_seen(),
    );
    counter(
        &mut out,
        "srm_serve_engine_panics_contained_total",
        "Chain panics contained across all jobs.",
        stats.panics_contained(),
    );
    counter(
        &mut out,
        "srm_serve_engine_events_total",
        "Trace events aggregated from all jobs.",
        stats.events_seen(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobRecord, JobStatus};
    use srm_obs::{AcceptStat, Event, MomentSummary, ParamCheckpoint, Recorder as _};
    use std::sync::Arc;

    fn checkpoint_event(chain: usize, sweep: usize) -> Event {
        Event::DiagnosticCheckpoint {
            checkpoint: ChainCheckpoint {
                chain,
                sweep,
                kept: sweep / 2 + 1,
                wall_ms: 500.0,
                params: vec![ParamCheckpoint {
                    parameter: "residual".into(),
                    moments: MomentSummary {
                        count: 20,
                        mean: 4.0 + chain as f64,
                        variance: 1.5,
                    },
                    half1: MomentSummary {
                        count: 10,
                        mean: 4.0,
                        variance: 1.4,
                    },
                    half2: MomentSummary {
                        count: 10,
                        mean: 4.1,
                        variance: 1.6,
                    },
                    ess: 12.0,
                    ess_per_sec: 24.0,
                    mcse: 0.35,
                }],
                accept: vec![AcceptStat {
                    parameter: "zeta0".into(),
                    steps: 40,
                    accepted: 17,
                }],
            },
        }
    }

    #[test]
    fn exposition_has_counters_gauges_and_histogram_series() {
        let metrics = ServeMetrics::new();
        metrics.http_requests.add(3);
        metrics.jobs_submitted.incr();
        metrics.job_wall_ms.observe(42.0);
        let cache = FitCache::new();
        let stats = StatsCollector::new();
        let store = JobStore::new();
        store.insert(JobRecord::new(
            "job-1".into(),
            JobKind::Fit,
            "k".into(),
            JobStatus::Queued,
        ));
        let page = render_prometheus(
            &metrics,
            &cache,
            &stats,
            &store,
            GaugeSnapshot {
                queue_depth: 2,
                jobs_running: 1,
                conn_queue_depth: 3,
                uptime_secs: 12.5,
                phases: vec![PhaseSnapshot {
                    path: "fit/chain".into(),
                    count: 4,
                    total_ns: 2_000_000_000,
                    self_ns: 2_000_000_000,
                    min_ns: 400_000_000,
                    max_ns: 600_000_000,
                    buckets: vec![0; srm_obs::HIST_BUCKETS],
                }],
                ..GaugeSnapshot::default()
            },
            None,
        );
        assert!(page.contains("srm_serve_http_requests_total 3"));
        assert!(page.contains("srm_serve_uptime_seconds 12.5"));
        assert!(page.contains(&format!(
            "srm_build_info{{version=\"{}\",schema=\"{SCHEMA_VERSION}\",manifest_schema=\"{MANIFEST_SCHEMA_VERSION}\",event_schema=\"{EVENT_SCHEMA_VERSION}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(page.contains("srm_serve_phase_seconds_total{phase=\"fit/chain\"} 2"));
        assert!(page.contains("srm_serve_phase_entries_total{phase=\"fit/chain\"} 4"));
        assert!(page.contains("srm_serve_jobs_submitted_total 1"));
        assert!(page.contains("srm_serve_queue_depth 2"));
        assert!(page.contains("srm_serve_jobs_running 1"));
        assert!(page.contains("srm_serve_conn_queue_depth 3"));
        assert!(page.contains("srm_store_evictions_total 0"));
        assert!(page.contains("srm_serve_conns_rejected_total 0"));
        assert!(page.contains("srm_serve_conns_reaped_total 0"));
        assert!(page.contains("srm_serve_batches_submitted_total 0"));
        assert!(page.contains("srm_serve_batch_items_total 0"));
        assert!(page.contains("srm_serve_batch_cache_hits_total 0"));
        assert!(page.contains("srm_serve_batches_active 0"));
        assert!(
            !page.contains("srm_wal_bytes"),
            "no WAL series without a state dir"
        );
        assert!(page.contains("srm_serve_jobs_state{state=\"queued\"} 1"));
        assert!(page.contains("srm_serve_jobs_state{state=\"done\"} 0"));
        assert!(page.contains("srm_serve_job_wall_ms_bucket{le=\"+Inf\"} 1"));
        assert!(page.contains("srm_serve_job_wall_ms_count 1"));
        assert!(page.contains("srm_serve_job_wall_ms_sum 42"));
        // Buckets are cumulative: the 100-bound bucket already counts
        // the 42 ms observation.
        assert!(page.contains("srm_serve_job_wall_ms_bucket{le=\"100\"} 1"));
        // Every HELP line pairs with a TYPE line.
        assert_eq!(
            page.matches("# HELP").count(),
            page.matches("# TYPE").count()
        );
    }

    #[test]
    fn exposition_lints_clean_with_debug_access_log_and_flightrec_series() {
        let metrics = ServeMetrics::new();
        metrics.debug_requests.incr();
        let page = render_prometheus(
            &metrics,
            &FitCache::new(),
            &StatsCollector::new(),
            &JobStore::new(),
            GaugeSnapshot {
                access_log: Some(crate::access_log::AccessLogStats {
                    lines: 9,
                    errors: 1,
                    rotations: 2,
                }),
                flightrec: srm_obs::FlightRecStats {
                    enabled: true,
                    capacity: 256,
                    recorded: 17,
                    dumps: 1,
                    dump_errors: 0,
                },
                phases: vec![PhaseSnapshot {
                    // Label escaping must survive the lint.
                    path: "fit\"odd\\phase\n".into(),
                    count: 1,
                    total_ns: 1,
                    self_ns: 1,
                    min_ns: 1,
                    max_ns: 1,
                    buckets: vec![0; srm_obs::HIST_BUCKETS],
                }],
                ..GaugeSnapshot::default()
            },
            Some(WalStats {
                bytes: 128,
                records: 4,
                appended: 4,
                snapshots: 1,
                errors: 0,
            }),
        );
        assert!(page.contains("srm_serve_debug_requests_total 1"));
        assert!(page.contains("srm_serve_access_log_lines_total 9"));
        assert!(page.contains("srm_serve_access_log_errors_total 1"));
        assert!(page.contains("srm_serve_access_log_rotations_total 2"));
        assert!(page.contains("srm_flightrec_enabled 1"));
        assert!(page.contains("srm_flightrec_recorded_total 17"));
        assert!(page.contains("srm_flightrec_dumps_total 1"));
        assert!(page.contains("srm_flightrec_dump_errors_total 0"));
        let violations = lint_exposition(&page);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn lint_flags_malformed_expositions() {
        // Sample without HELP/TYPE.
        let v = lint_exposition("orphan_metric 1\n");
        assert!(v.iter().any(|m| m.contains("no TYPE")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("no HELP")), "{v:?}");
        // Duplicate family announcement.
        let page = "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n\
                    # HELP a_total A again.\n# TYPE a_total counter\n";
        let v = lint_exposition(page);
        assert!(v.iter().any(|m| m.contains("duplicate HELP")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("duplicate TYPE")), "{v:?}");
        // Counter not ending in _total.
        let v = lint_exposition("# HELP a A.\n# TYPE a counter\na 1\n");
        assert!(
            v.iter().any(|m| m.contains("must end in `_total`")),
            "{v:?}"
        );
        // Interleaved families.
        let page = "# HELP a_total A.\n# TYPE a_total counter\na_total{k=\"1\"} 1\n\
                    # HELP b_total B.\n# TYPE b_total counter\nb_total 1\n\
                    a_total{k=\"2\"} 1\n";
        let v = lint_exposition(page);
        assert!(v.iter().any(|m| m.contains("restarted")), "{v:?}");
        // Raw quote inside a label value (unescaped).
        let page = "# HELP a_total A.\n# TYPE a_total counter\na_total{k=\"x\\qy\"} 1\n";
        let v = lint_exposition(page);
        assert!(v.iter().any(|m| m.contains("invalid escape")), "{v:?}");
        // Non-numeric value.
        let page = "# HELP g G.\n# TYPE g gauge\ng nope\n";
        let v = lint_exposition(page);
        assert!(v.iter().any(|m| m.contains("non-numeric")), "{v:?}");
    }

    #[test]
    fn running_jobs_expose_convergence_gauges() {
        let store = JobStore::new();
        let progress = Arc::new(StatsCollector::new());
        progress.record(&checkpoint_event(0, 49));
        progress.record(&checkpoint_event(1, 49));
        let mut record =
            JobRecord::new("job-7".into(), JobKind::Fit, "k".into(), JobStatus::Running);
        record.progress = Some(Arc::clone(&progress));
        store.insert(record);
        // A second running job with no progress attached is skipped.
        store.insert(JobRecord::new(
            "job-8".into(),
            JobKind::Fit,
            "k".into(),
            JobStatus::Running,
        ));

        let page = render_prometheus(
            &ServeMetrics::new(),
            &FitCache::new(),
            &StatsCollector::new(),
            &store,
            GaugeSnapshot {
                jobs_running: 2,
                ..GaugeSnapshot::default()
            },
            None,
        );
        assert!(page.contains("srm_serve_jobs_state{state=\"running\"} 2"));
        // Two chains at sweep 49 each → 100 sweeps completed.
        assert!(
            page.contains("srm_job_sweeps_completed{job=\"job-7\"} 100"),
            "{page}"
        );
        assert!(
            page.contains("srm_job_rhat{job=\"job-7\",parameter=\"residual\"}"),
            "{page}"
        );
        assert!(
            page.contains("srm_job_ess{job=\"job-7\",parameter=\"residual\"} 24"),
            "{page}"
        );
        // Two chains, 500 ms of sampling each: 24 ESS over one
        // CPU-second.
        assert!(
            page.contains("srm_job_ess_per_sec{job=\"job-7\",parameter=\"residual\"} 24"),
            "{page}"
        );
        assert!(!page.contains("job-8\"}"), "{page}");
    }

    #[test]
    fn wal_series_appear_when_a_state_dir_is_configured() {
        let page = render_prometheus(
            &ServeMetrics::new(),
            &FitCache::new(),
            &StatsCollector::new(),
            &JobStore::new(),
            GaugeSnapshot::default(),
            Some(WalStats {
                bytes: 88,
                records: 5,
                appended: 12,
                snapshots: 2,
                errors: 0,
            }),
        );
        assert!(page.contains("srm_wal_bytes 88"));
        assert!(page.contains("srm_wal_records_total 12"));
        assert!(page.contains("srm_store_snapshots_total 2"));
        assert!(page.contains("srm_store_errors_total 0"));
        assert_eq!(
            page.matches("# HELP").count(),
            page.matches("# TYPE").count()
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("line\nbreak"), "line\\nbreak");
    }
}
