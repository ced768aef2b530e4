//! What the two served workloads share: an in-process server with the
//! `srm serve` defaults (2 workers, queue 16, 8 handlers), its warm-up,
//! and the figures read back from its `/metrics` and `/v1/debug/*` pages
//! and its access log.

use crate::fit::{check_served, fit, Estimate};
use crate::http::request;
use crate::inputs::{job_body, FitSpec};
use crate::measure::median;
use crate::trace::Tracer;
use crate::workload::{repeat_setup, Layers};
use srm_obs::json::{parse, Value};
use srm_serve::{Server, ServerConfig, ServerState};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Parses a response body.
///
/// # Errors
///
/// The body is not JSON.
pub fn json(body: &str) -> Result<Value, String> {
    parse(body).map_err(|e| format!("response is not JSON ({e}): {body}"))
}

/// A string field of a document.
pub fn text<'v>(doc: &'v Value, key: &str) -> Option<&'v str> {
    doc.get(key).and_then(Value::as_str)
}

/// Starts a server and reports how long `Server::start` took, ms.
///
/// # Errors
///
/// The bind or state-directory failure.
fn boot(config: ServerConfig) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::start(config).map_err(|e| format!("Server::start: {e}"))?;
    Ok((server, started.elapsed().as_secs_f64() * 1e3))
}

/// Drains and joins a server, returning its final state.
fn stop(server: Server) -> Arc<ServerState> {
    server.request_shutdown();
    server.join()
}

/// A booted server, its warm-up, and its state directory if durable.
#[derive(Debug)]
pub struct Booted {
    /// The running server.
    pub server: Server,
    /// What warming its fit cache produced.
    pub warmed: Warmed,
    /// Its write-ahead-log directory, removed at tear-down.
    pub state_dir: Option<PathBuf>,
}

/// The outcome of repeated set-ups: each one's duration (seconds), each
/// boot time (ms), and the last server, kept for the timed phase.
#[derive(Debug)]
pub struct SetUp {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// `Server::start` time of each set-up, ms.
    pub boot_ms: Vec<f64>,
    /// The last set-up's server.
    pub booted: Booted,
}

/// Boots a server from `base` and warms every spec into its fit cache,
/// `reps` times, tearing down all but the last. A durable server gets a
/// fresh state directory `<state_dir>-<rep>` each time; a given access
/// log starts empty each time.
///
/// # Errors
///
/// A boot or warm-up failure.
pub fn set_up(
    reps: usize,
    base: &ServerConfig,
    state_dir: Option<&Path>,
    access_log: Option<&Path>,
    specs: &[FitSpec],
) -> Result<SetUp, String> {
    let mut boot_ms = Vec::new();
    let (setup_s, booted) = repeat_setup(
        reps,
        |rep| {
            let state_dir = state_dir.map(|p| PathBuf::from(format!("{}-{rep}", p.display())));
            if let Some(dir) = &state_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            if let Some(path) = access_log {
                let _ = std::fs::remove_file(path);
            }
            let (server, ms) = boot(ServerConfig {
                state_dir: state_dir.as_ref().map(|d| d.display().to_string()),
                access_log: access_log.map(|p| p.display().to_string()),
                ..base.clone()
            })?;
            boot_ms.push(ms);
            let booted = Booted {
                server,
                warmed: Warmed::default(),
                state_dir,
            };
            match warm(booted.server.addr(), specs) {
                Ok(warmed) => Ok(Booted { warmed, ..booted }),
                Err(e) => {
                    tear_down(booted);
                    Err(e)
                }
            }
        },
        |booted| {
            tear_down(booted);
        },
    )?;
    Ok(SetUp {
        setup_s,
        boot_ms,
        booted,
    })
}

/// Drains and joins a booted server, removes its state directory, and
/// returns its final state.
pub fn tear_down(booted: Booted) -> Arc<ServerState> {
    let state = stop(booted.server);
    if let Some(dir) = &booted.state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    state
}

/// Jobs the warm-up keeps on the queue at once (it holds 16).
const WARM_IN_FLIGHT: usize = 8;

/// What warming a server's fit cache produced.
#[derive(Debug, Clone, Default)]
pub struct Warmed {
    /// Job id per spec.
    pub ids: Vec<String>,
    /// `GET /v1/results/{id}` body per spec.
    pub results: Vec<String>,
    /// Engine wall time per job, ms.
    pub engine_ms: Vec<f64>,
    /// Status polls made while waiting.
    pub polls: u64,
}

/// Submits every spec as a fresh job, polls each to `done`, and fetches
/// its result, so the fit cache holds every spec afterwards.
///
/// # Errors
///
/// A request failure, a refused or failed job.
pub fn warm(addr: SocketAddr, specs: &[FitSpec]) -> Result<Warmed, String> {
    let mut warmed = Warmed::default();
    for chunk in specs.chunks(WARM_IN_FLIGHT) {
        let mut pending = Vec::new();
        for spec in chunk {
            let reply = request(addr, "POST", "/v1/jobs", &job_body(spec), None)?;
            if reply.status != 202 {
                return Err(format!("warm-up submit: {} {}", reply.status, reply.body));
            }
            let id = text(&json(&reply.body)?, "id")
                .ok_or("warm-up submit: no id")?
                .to_owned();
            warmed.ids.push(id.clone());
            pending.push(id);
        }
        while !pending.is_empty() {
            let mut still = Vec::new();
            for id in pending {
                let reply = request(addr, "GET", &format!("/v1/jobs/{id}"), "", None)?;
                warmed.polls += 1;
                let doc = json(&reply.body)?;
                match text(&doc, "status") {
                    Some("done") => warmed
                        .engine_ms
                        .push(doc.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0)),
                    Some("queued" | "running") => still.push(id),
                    other => return Err(format!("warm-up job {id} ended {other:?}")),
                }
            }
            pending = still;
        }
    }
    for id in &warmed.ids {
        let reply = request(addr, "GET", &format!("/v1/results/{id}"), "", None)?;
        if reply.status != 200 {
            return Err(format!("warm-up result {id}: {}", reply.status));
        }
        warmed.results.push(reply.body);
    }
    Ok(warmed)
}

/// Fits each spec in-process, checks the served result is bit-identical
/// to it (a mismatch or fit error goes to `problems`), and returns each
/// fit's residual ESS.
pub fn verify(specs: &[FitSpec], results: &[String], problems: &mut Vec<String>) -> Vec<f64> {
    specs
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (spec, body))| match fit(spec) {
            Ok(lone) => {
                if let Err(why) = json(body).and_then(|doc| check_served(&doc, &lone)) {
                    problems.push(format!("served result {i}: {why}"));
                }
                Estimate::of(&lone).ess
            }
            Err(e) => {
                problems.push(format!("in-process fit {i}: {e}"));
                0.0
            }
        })
        .collect()
}

/// Counters of a server that a phase moves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    hits: u64,
    misses: u64,
    rejected: u64,
    wal_appended: u64,
}

/// Reads the counters now from the server's `GET /metrics` page. The
/// WAL series exist only on a durable server; the others must be there.
///
/// # Errors
///
/// The request failed or a required series is missing.
pub fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let page = request(addr, "GET", "/metrics", "", None)?.body;
    let series = |name: &str| {
        page.lines()
            .find_map(|line| {
                line.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .parse::<f64>()
                    .ok()
            })
            .map(|v| v as u64)
    };
    let required = |name: &str| series(name).ok_or_else(|| format!("/metrics lacks {name}"));
    Ok(Counters {
        hits: required("srm_serve_cache_hits_total")?,
        misses: required("srm_serve_cache_misses_total")?,
        rejected: required("srm_serve_jobs_rejected_total")?
            + required("srm_serve_conns_rejected_total")?,
        wal_appended: series("srm_wal_records_total").unwrap_or(0),
    })
}

/// One phase of the server's span profiler: times entered, and the
/// total time spent inside it.
#[derive(Debug, Clone)]
pub struct Phase {
    path: String,
    count: u64,
    total_ns: u64,
}

/// Reads the server's profiler phases now from `GET /v1/debug/profile`.
///
/// # Errors
///
/// The request failed or the document has another shape.
pub fn profile(addr: SocketAddr) -> Result<Vec<Phase>, String> {
    let doc = json(&request(addr, "GET", "/v1/debug/profile", "", None)?.body)?;
    let phase = |p: &Value| {
        Some(Phase {
            path: text(p, "path")?.to_owned(),
            count: p.get("count")?.as_f64()? as u64,
            total_ns: p.get("total_ns")?.as_f64()? as u64,
        })
    };
    doc.get("phases")
        .and_then(Value::as_arr)
        .and_then(|phases| phases.iter().map(phase).collect())
        .ok_or_else(|| "/v1/debug/profile: no phases list".to_owned())
}

/// Reads the write-ahead log's size now from `GET /v1/debug/store`:
/// `(bytes after the header, records)`, or `None` on a server that keeps
/// no log.
///
/// # Errors
///
/// The request failed or the document has another shape.
pub fn wal_size(addr: SocketAddr) -> Result<Option<(u64, u64)>, String> {
    let doc = json(&request(addr, "GET", "/v1/debug/store", "", None)?.body)?;
    let Some(wal) = doc.get("wal") else {
        return Ok(None);
    };
    let num = |key: &str| {
        wal.get(key)
            .and_then(Value::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("/v1/debug/store: no wal.{key}"))
    };
    let header = srm_store::wal::WAL_MAGIC.len() as u64;
    Ok(Some((
        num("bytes")?.saturating_sub(header),
        num("records")?,
    )))
}

/// Mean duration of a server profiler phase between two reads, ms; 0
/// when the phase did not occur.
pub fn phase_mean_ms(before: &[Phase], after: &[Phase], path: &str) -> f64 {
    let find = |snap: &[Phase]| {
        snap.iter()
            .find(|p| p.path == path)
            .map_or((0, 0), |p| (p.count, p.total_ns))
    };
    let ((c0, t0), (c1, t1)) = (find(before), find(after));
    match c1.saturating_sub(c0) {
        0 => 0.0,
        n => t1.saturating_sub(t0) as f64 / n as f64 / 1e6,
    }
}

/// Server-side figures every served workload reports: the cache hit
/// ratio and rejections between two counter reads, the median boot
/// time, and the job-queue wait, WAIC and WAL-append means of the jobs
/// that ran after the `jobs_since` profiler snapshot (empty for every
/// job since boot).
pub fn server_layers(
    layers: &mut Layers,
    counters: (&Counters, &Counters),
    jobs_since: &[Phase],
    end: &[Phase],
    boot_ms: &[f64],
) {
    layers.set(
        "serve.job_queue_wait_ms_mean",
        phase_mean_ms(jobs_since, end, "queue-wait"),
    );
    layers.set(
        "serve.waic_ms_mean",
        phase_mean_ms(jobs_since, end, "fit/waic"),
    );
    let wal_us = phase_mean_ms(jobs_since, end, "wal-append") * 1e3;
    if wal_us > 0.0 {
        layers.set("store.wal_append_us_mean", wal_us);
    }
    let (c0, c1) = counters;
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    layers.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set("serve.rejected", (c1.rejected - c0.rejected) as f64);
    layers.set("serve.boot_ms", median(boot_ms));
}

/// WAL records appended between two counter reads.
pub fn wal_appended(before: &Counters, after: &Counters) -> u64 {
    after.wal_appended - before.wal_appended
}

/// One access-log line's breakdown of a request, ms.
#[derive(Debug, Clone, Copy)]
struct Access {
    queue_wait: f64,
    handle: f64,
    write: f64,
}

fn read_access_log(path: &Path) -> Result<HashMap<String, Access>, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("access log {}: {e}", path.display()))?;
    // Concurrent handlers can interleave their appends so that two
    // records share a line; access records are flat objects, so a `}{`
    // only ever marks such a seam.
    let raw = raw.replace("}{", "}\n{");
    let mut lines = HashMap::new();
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json(line)?;
        let num = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        if let Some(trace) = text(&doc, "trace_id") {
            lines.insert(
                trace.to_owned(),
                Access {
                    queue_wait: num("queue_wait_ms"),
                    handle: num("engine_ms"),
                    write: num("serialize_ms"),
                },
            );
        }
    }
    Ok(lines)
}

/// Span-name prefix of every traced HTTP request.
pub const HTTP_SPAN: &str = "srm-serve/";

/// Per-request HTTP figures: the access log's queue-wait, handle and
/// write times, and what the client waited beyond them (connect, the
/// accept loop's poll, transfer), matched to the client's spans by
/// trace id. The log is removed once read.
///
/// # Errors
///
/// The access log is unreadable or matches no request.
pub fn http_layers(layers: &mut Layers, tracer: &Tracer, access_log: &Path) -> Result<(), String> {
    let access = read_access_log(access_log)?;
    let _ = std::fs::remove_file(access_log);
    let (mut accept, mut queue, mut handle, mut write) = (vec![], vec![], vec![], vec![]);
    for span in tracer.spans() {
        if !span.name.starts_with(HTTP_SPAN) {
            continue;
        }
        if let Some(a) = access.get(&tracer.trace_hex(span.trace)) {
            accept.push(span.dur_ns as f64 / 1e6 - (a.queue_wait + a.handle + a.write));
            queue.push(a.queue_wait);
            handle.push(a.handle);
            write.push(a.write);
        }
    }
    if accept.is_empty() {
        return Err("no traced request appears in the access log".to_owned());
    }
    layers.set("serve.accept_wait_ms_p50", median(&accept));
    layers.set("serve.http_queue_wait_ms_p50", median(&queue));
    layers.set("serve.http_handle_ms_p50", median(&handle));
    layers.set("serve.http_write_ms_p50", median(&write));
    Ok(())
}
