//! `serve-fit`: fresh fits arriving on a schedule at a durable server.
//!
//! An open loop submits jobs at seeded Poisson arrival times (30/s):
//! 85% are fresh fleet-style fits (model1, Poisson prior, 2 chains ×
//! (200 + 800)), 15% resubmit a spec fitted during set-up and hit the
//! cache. The server logs every transition to its write-ahead log with
//! `wal_sync = always`. One thread submits on the schedule, retrying a
//! submission the full job queue refuses; one polls
//! outstanding jobs in submit order with `GET /v1/jobs/{id}`. Latency
//! runs from the scheduled arrival to the observed `done`, so every
//! blocking layer of the served path shows: submit, WAL fsync, job
//! queue, engine, polling.

use crate::fit::{check_served, fit};
use crate::http::request;
use crate::inputs::{arrival_schedule, derive, job_body, resubmissions, served_specs, FitSpec};
use crate::measure::{median, tail};
use crate::serve::{
    counters, http_layers, json, profile, server_layers, set_up, tear_down, text, verify,
    wal_appended, wal_size,
};
use crate::trace::Tracer;
use crate::workload::{
    breakdown_pass, end_to_end, finish_trace, probe_layers, profile_fits, timed_phase,
    trace_overhead_pct, Ctx, Layers, Outcome, Timed,
};
use srm_serve::{Server, ServerConfig};
use srm_store::SyncPolicy;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Goodput limit from scheduled arrival to observed `done`, ms.
const LIMIT_MS: f64 = 250.0;

/// Share of arrivals that resubmit a spec fitted during set-up.
const RESUBMIT_SHARE: f64 = 0.15;

/// How long outstanding jobs may take to finish after the last arrival.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// A submission the server refuses with 429 (job queue full) is sent
/// again after this pause, as a client honouring "retry later" would.
/// The job's latency still runs from its scheduled arrival, so an
/// overload shows as latency, and the refusals in `serve.rejected`. On a
/// shared host a slow spell of a second or two fills the 16-slot queue
/// at 30 jobs/s; without the retry the run would fail instead.
const RETRY_PAUSE: Duration = Duration::from_millis(20);

/// How long after its scheduled arrival a refused submission is retried
/// before it counts as failed.
const RETRY_LIMIT: Duration = Duration::from_secs(10);

/// Every this-many status polls, a traced run reads the WAL's size.
const WAL_READ_EVERY: u64 = 32;

/// Every this-many fresh jobs, one is refitted in-process and compared.
const VERIFY_EVERY: usize = 50;

/// Set-ups per untraced run: each boots a durable server and warms the
/// resubmission targets. A set-up mostly waits on fsync and the accept
/// poll, so single set-ups vary by a third; five steady the median.
const SETUP_REPS: usize = 5;

/// A durable server: every job transition is fsynced to its
/// write-ahead log.
fn config() -> ServerConfig {
    ServerConfig {
        wal_sync: SyncPolicy::Always,
        ..ServerConfig::default()
    }
}

/// A job the submitter handed to the poller.
struct Pending {
    due: Instant,
    id: String,
    fresh: usize,
}

/// What the open loop saw besides the tally.
#[derive(Default)]
struct Seen {
    /// `(fresh index, job id)` of every fresh job that finished.
    done: Vec<(usize, String)>,
    /// Engine wall time of each fresh job, ms.
    engine_ms: Vec<f64>,
    /// Status polls made.
    polls: u64,
    /// How late each submission went out, ms.
    late_ms: Vec<f64>,
    /// Jobs still outstanding when the last arrival was submitted.
    backlog_end: usize,
    /// Successful resubmissions per set-up spec.
    resubmitted: Vec<u64>,
    /// Last WAL size with records in it: `(bytes after the header,
    /// records)`.
    wal: Option<(u64, u64)>,
}

/// Submits on the schedule. Fresh jobs go to the poller; cache hits
/// finish on the spot.
#[allow(clippy::too_many_arguments)]
fn submitter(
    ctx: &Ctx,
    server: &Server,
    fresh: &[String],
    warm: &[String],
    outstanding: &AtomicUsize,
    to_poller: mpsc::Sender<Pending>,
    tracer: &Tracer,
    start: Instant,
) -> (Timed, Seen) {
    let (mut t, mut seen) = (Timed::default(), Seen::default());
    seen.resubmitted = vec![0; warm.len()];
    let schedule = arrival_schedule(ctx.seed, ctx.scale.arrival_rate, ctx.scale.seconds);
    let resubmit = resubmissions(ctx.seed, schedule.len(), RESUBMIT_SHARE);
    let (mut next_fresh, mut next_warm) = (0, 0);
    for (offset, &again) in schedule.iter().zip(&resubmit) {
        let due = start + Duration::from_secs_f64(*offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        seen.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        // Resubmissions cycle through the set-up specs, so each is
        // touched every few seconds and stays in the LRU fit cache.
        let (body, target) = if again {
            next_warm += 1;
            let w = (next_warm - 1) % warm.len();
            (&warm[w], Err(w))
        } else {
            next_fresh += 1;
            (&fresh[next_fresh - 1], Ok(next_fresh - 1))
        };
        let span = tracer.root("srm-serve/POST /v1/jobs");
        let trace = tracer.enabled().then(|| tracer.trace_hex(span.trace()));
        let reply = loop {
            let reply = request(server.addr(), "POST", "/v1/jobs", body, trace.as_deref());
            match &reply {
                Ok(r) if r.status == 429 && due.elapsed() < RETRY_LIMIT => {
                    std::thread::sleep(RETRY_PAUSE);
                }
                _ => break reply,
            }
        };
        span.end();
        let accepted = reply.and_then(|r| {
            let id = text(&json(&r.body)?, "id").map(str::to_owned);
            match (r.status, id) {
                (201 | 202, Some(id)) => Ok((r.status, id)),
                (status, _) => Err(format!("submit: status {status}: {}", r.body)),
            }
        });
        match (accepted, target) {
            (Ok((202, id)), Ok(fresh)) => {
                outstanding.fetch_add(1, Ordering::SeqCst);
                // The poller outlives every send; a failed send means
                // it died, which the join reports.
                let _ = to_poller.send(Pending { due, id, fresh });
            }
            (Ok((201, _)), Err(w)) => {
                let ms = due.elapsed().as_secs_f64() * 1e3;
                t.record(ms, 1, 0, 0.0, LIMIT_MS);
                seen.resubmitted[w] += 1;
            }
            (Ok((status, _)), _) => t.fail(1, format!("submit answered {status} unexpectedly")),
            (Err(why), _) => t.fail(1, why),
        }
    }
    seen.backlog_end = outstanding.load(Ordering::SeqCst);
    (t, seen)
}

/// Walks outstanding jobs in submit order until the submitter is done
/// and every job has finished (or the drain limit passed).
fn poller(
    server: &Server,
    outstanding: &AtomicUsize,
    from_submitter: mpsc::Receiver<Pending>,
    tracer: &Tracer,
) -> (Timed, Seen) {
    let (mut t, mut seen) = (Timed::default(), Seen::default());
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut closed_at: Option<Instant> = None;
    loop {
        loop {
            match from_submitter.try_recv() {
                Ok(job) => pending.push_back(job),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    closed_at.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        if pending.is_empty() {
            if closed_at.is_some() {
                break;
            }
            match from_submitter.recv_timeout(Duration::from_millis(20)) {
                Ok(job) => pending.push_back(job),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    closed_at.get_or_insert_with(Instant::now);
                }
            }
            continue;
        }
        if closed_at.is_some_and(|at| at.elapsed() > DRAIN_LIMIT) {
            t.fail(
                pending.len() as u64,
                "jobs still running at the drain limit".into(),
            );
            break;
        }
        // A snapshot empties the log now and then, so a traced run reads
        // its size every few polls and keeps the last read with records.
        if tracer.enabled() && seen.polls % WAL_READ_EVERY == 0 {
            if let Ok(Some(wal)) = wal_size(server.addr()) {
                seen.wal = Some(wal).filter(|&(_, records)| records > 0).or(seen.wal);
            }
        }
        // Jobs run in submit order, so polling the oldest until it is
        // done sees each job finish within one poll of the fact.
        let job = &pending[0];
        let span = tracer.root("srm-serve/GET /v1/jobs");
        let trace = tracer.enabled().then(|| tracer.trace_hex(span.trace()));
        let path = format!("/v1/jobs/{}", job.id);
        let reply = request(server.addr(), "GET", &path, "", trace.as_deref());
        span.end();
        seen.polls += 1;
        let status = reply.and_then(|r| match r.status {
            200 => json(&r.body),
            status => Err(format!("poll: status {status}")),
        });
        let finished = match status {
            Ok(doc) => match text(&doc, "status") {
                Some("queued" | "running") => false,
                Some("done") => {
                    let ms = job.due.elapsed().as_secs_f64() * 1e3;
                    t.record(ms, 1, 0, 0.0, LIMIT_MS);
                    let engine = doc.get("wall_ms").and_then(srm_obs::json::Value::as_f64);
                    seen.engine_ms.push(engine.unwrap_or(0.0));
                    seen.done.push((job.fresh, job.id.clone()));
                    true
                }
                other => {
                    t.fail(1, format!("job {} ended {other:?}", job.id));
                    true
                }
            },
            Err(why) => {
                t.fail(1, format!("job {}: {why}", job.id));
                true
            }
        };
        if finished {
            pending.pop_front();
            outstanding.fetch_sub(1, Ordering::SeqCst);
        }
    }
    (t, seen)
}

/// The timed open loop against a set-up server; `warm_ess` is the ESS
/// of each set-up spec's fit, which its resubmissions deliver.
fn phase(
    ctx: &Ctx,
    server: &Server,
    fresh_specs: &[FitSpec],
    warm_specs: &[FitSpec],
    warm_ess: &[f64],
    tracer: &Tracer,
) -> Result<(Timed, Seen), String> {
    let fresh: Vec<String> = fresh_specs.iter().map(job_body).collect();
    let warm: Vec<String> = warm_specs.iter().map(job_body).collect();
    let state = server.state();
    let diagnostics_before = state.stats.diagnostics().len();
    let (mut timed, seen) = timed_phase(|t| {
        let outstanding = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        let ((sent, mut seen), (polled, finished)) = std::thread::scope(|scope| {
            let submit = scope
                .spawn(|| submitter(ctx, server, &fresh, &warm, &outstanding, tx, tracer, start));
            let poll = scope.spawn(|| poller(server, &outstanding, rx, tracer));
            let joined = (submit.join(), poll.join());
            match joined {
                (Ok(s), Ok(p)) => Ok((s, p)),
                _ => Err("load generator thread panicked".to_owned()),
            }
        })?;
        t.merge(sent);
        t.merge(polled);
        seen.done = finished.done;
        seen.engine_ms = finished.engine_ms;
        seen.polls = finished.polls;
        seen.wal = finished.wal;
        Ok(seen)
    })?;
    // Each fresh fit emits one residual diagnostic into the server's
    // collector; a resubmission delivers its set-up fit's posterior.
    let fresh_ess: f64 = state.stats.diagnostics()[diagnostics_before..]
        .iter()
        .filter(|d| d.parameter == "residual")
        .map(|d| d.ess)
        .sum();
    let resubmitted_ess: f64 = seen
        .resubmitted
        .iter()
        .zip(warm_ess)
        .map(|(&n, e)| n as f64 * e)
        .sum();
    timed.ess = fresh_ess + resubmitted_ess;
    Ok((timed, seen))
}

/// Refits every [`VERIFY_EVERY`]th fresh job in-process and compares
/// it with the served result.
fn verify_fresh(server: &Server, fresh_specs: &[FitSpec], seen: &Seen, problems: &mut Vec<String>) {
    for (index, id) in seen.done.iter().filter(|(i, _)| i % VERIFY_EVERY == 0) {
        let served = request(server.addr(), "GET", &format!("/v1/results/{id}"), "", None)
            .and_then(|r| json(&r.body));
        let lone = fit(&fresh_specs[*index]).map_err(|e| e.to_string());
        if let Err(why) = served.and_then(|doc| lone.and_then(|l| check_served(&doc, &l))) {
            problems.push(format!("fresh job {index} ({id}): {why}"));
        }
    }
}

/// The specs a run submits: the set-up specs its resubmissions repeat,
/// and one fresh spec per arrival.
fn specs(ctx: &Ctx) -> (Vec<FitSpec>, Vec<FitSpec>) {
    let scale = &ctx.scale;
    let warm = served_specs(
        derive(ctx.seed, 7),
        derive(ctx.seed, 7),
        scale.warm_specs,
        scale.small_mcmc,
    );
    let arrivals = (scale.arrival_rate * scale.seconds).round() as usize;
    let fresh = served_specs(
        derive(ctx.seed, 8),
        derive(ctx.seed, 8),
        arrivals,
        scale.small_mcmc,
    );
    (warm, fresh)
}

/// Where this process's durable servers keep their state.
fn state_dir(ctx: &Ctx) -> PathBuf {
    ctx.out_dir
        .join(format!("serve-fit-{}", std::process::id()))
}

/// Boots a durable server with its access log on, runs the open loop
/// under `tracer`, and sets every served-layer metric. Returns the
/// tally, which counts no ESS, and the first set-up result document.
///
/// # Errors
///
/// A set-up failure, an unreadable access log, or an unreadable `/proc`.
fn traced_phase(
    ctx: &Ctx,
    warm_specs: &[FitSpec],
    fresh_specs: &[FitSpec],
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(Timed, String), String> {
    let log = ctx
        .out_dir
        .join(format!("serve-fit-{}.access.jsonl", std::process::id()));
    let setup = set_up(1, &config(), Some(&state_dir(ctx)), Some(&log), warm_specs)?;
    let booted = setup.booted;
    let addr = booted.server.addr();
    let no_ess = vec![0.0; warm_specs.len()];
    let measured = (|| {
        let (before, since) = (counters(addr)?, profile(addr)?);
        let (traced, seen) = phase(
            ctx,
            &booted.server,
            fresh_specs,
            warm_specs,
            &no_ess,
            tracer,
        )?;
        let (after, end) = (counters(addr)?, profile(addr)?);
        Ok::<_, String>(((before, after), (since, end), traced, seen))
    })();
    let doc = booted.warmed.results[0].clone();
    tear_down(booted);
    let ((before, after), (since, end), traced, seen) = measured?;
    http_layers(layers, tracer, &log)?;
    server_layers(layers, (&before, &after), &since, &end, &setup.boot_ms);
    layers.set("serve.engine_ms_p50", median(&seen.engine_ms));
    layers.set(
        "serve.polls_per_job",
        seen.polls as f64 / seen.done.len().max(1) as f64,
    );
    if let Some((bytes, records)) = seen.wal {
        let per_record = bytes as f64 / records as f64;
        let jobs = traced.ops.max(1) as f64;
        layers.set(
            "store.wal_bytes_per_job",
            per_record * wal_appended(&before, &after) as f64 / jobs,
        );
    }
    layers.set("loadgen.late_ms_tail", tail(&seen.late_ms).value);
    layers.set("loadgen.backlog_end", seen.backlog_end as f64);
    Ok((traced, doc))
}

/// Seconds of open loop in the probe other workloads' traced runs make.
const PROBE_SECONDS: f64 = 2.0;

/// The served-layer figures of a short traced open loop, for the traced
/// runs of the workloads that serve nothing or keep no WAL. Its spans
/// are not kept.
///
/// # Errors
///
/// As a traced run of this workload.
pub fn probe(ctx: &Ctx, layers: &mut Layers) -> Result<Timed, String> {
    let ctx = ctx.with_seconds(ctx.scale.seconds.min(PROBE_SECONDS));
    let (warm, fresh) = specs(&ctx);
    let tracer = Tracer::new(true, ctx.seed);
    let (timed, _) = traced_phase(&ctx, &warm, &fresh, &tracer, layers)?;
    Ok(timed)
}

/// Runs the workload. A traced run splits `--seconds` between an
/// untraced and a traced open loop.
///
/// # Errors
///
/// A set-up failure or an unreadable `/proc`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (ctx, reps) = if ctx.trace {
        (ctx.with_seconds(ctx.scale.seconds / 2.0), 1)
    } else {
        (ctx.clone(), SETUP_REPS.min(ctx.scale.setup_reps))
    };
    let ctx = &ctx;
    let (warm_specs, fresh_specs) = specs(ctx);
    let plain_setup = set_up(reps, &config(), Some(&state_dir(ctx)), None, &warm_specs)?;
    let booted = &plain_setup.booted;
    let mut out = Outcome::default();
    let warm_ess = verify(&warm_specs, &booted.warmed.results, &mut out.problems);
    let off = Tracer::new(false, 0);
    let plain = phase(
        ctx,
        &booted.server,
        &fresh_specs,
        &warm_specs,
        &warm_ess,
        &off,
    );
    if let Ok((_, seen)) = &plain {
        verify_fresh(&booted.server, &fresh_specs, seen, &mut out.problems);
    }
    tear_down(plain_setup.booted);
    let (plain, _) = plain?;
    out.absorb(&plain);
    if !ctx.trace {
        let (metrics, note) = end_to_end(&plain, &plain_setup.setup_s)?;
        out.metrics = metrics;
        out.notes.push(note);
        return Ok(out);
    }

    let mut layers = Layers::default();
    let tracer = Tracer::new(true, ctx.seed);
    let (traced, doc) = traced_phase(ctx, &warm_specs, &fresh_specs, &tracer, &mut layers)?;
    out.absorb(&traced);
    let pass = &fresh_specs[..ctx.scale.small_pass_fits.min(fresh_specs.len())];
    breakdown_pass(&mut layers, &tracer, pass, &mut out.problems)?;
    profile_fits(&mut layers, pass)?;
    let series: Vec<_> = pass.iter().map(|s| s.data.clone()).collect();
    probe_layers(
        &mut layers,
        &series,
        &json(&doc)?,
        ctx.seed,
        ctx.scale.probe_scale,
    );
    layers.set("trace_overhead_pct", trace_overhead_pct(&plain, &traced));
    finish_trace(ctx, "serve-fit", &tracer, layers, out)
}
