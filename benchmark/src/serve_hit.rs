//! `serve-hit`: cache hits over HTTP, no sampling at all.
//!
//! Two closed-loop clients, one connection per request, mix 3:1
//! `POST /v1/jobs` and `GET /v1/results/{id}` over specs warmed into
//! the fit cache during set-up, so every request is a hit: accept →
//! parse → route → cache → serialize. A sampler change must not move
//! this workload.

use crate::http::request;
use crate::inputs::{derive, job_body, served_specs, FitSpec};
use crate::measure::median;
use crate::serve::{
    counters, http_layers, json, profile, server_layers, set_up, tear_down, text, verify,
};
use crate::trace::Tracer;
use crate::workload::{
    breakdown_pass, end_to_end, finish_trace, probe_layers, profile_fits, timed_phase,
    trace_overhead_pct, Ctx, Layers, Outcome, Timed,
};
use srm_serve::ServerConfig;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Goodput limit on one request, ms.
const LIMIT_MS: f64 = 50.0;

/// Closed-loop clients, each with at most one open connection.
const CLIENTS: usize = 2;

/// Seed of the series the cached specs fit.
const CATALOGUE: u64 = 0x5EED_CA7A_1061;

/// Set-ups per untraced run: each boots a server and warms 32 fits.
const SETUP_REPS: usize = 3;

/// One client's closed loop: three cache-hit submissions, then a fetch
/// of the last submission's result, until the deadline. Each fetched
/// result counts `draws` towards the tally's ESS.
fn client(
    c: usize,
    addr: SocketAddr,
    (bodies, results): (&[String], &[String]),
    draws: f64,
    deadline: Instant,
    tracer: &Tracer,
) -> Timed {
    let mut t = Timed::default();
    // Clients walk the specs round-robin from opposite ends of the list,
    // so every cached result is served about equally often.
    let mut next = c * bodies.len() / CLIENTS;
    let mut last: Option<(String, usize)> = None;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let fetch = if k % 4 == 3 { last.take() } else { None };
        k += 1;
        let (name, method, path, body, spec) = match &fetch {
            Some((id, spec)) => (
                "srm-serve/GET /v1/results",
                "GET",
                format!("/v1/results/{id}"),
                "",
                *spec,
            ),
            None => {
                let spec = next % bodies.len();
                next += 1;
                (
                    "srm-serve/POST /v1/jobs",
                    "POST",
                    "/v1/jobs".to_owned(),
                    bodies[spec].as_str(),
                    spec,
                )
            }
        };
        let span = tracer.root(name);
        let trace = tracer.enabled().then(|| tracer.trace_hex(span.trace()));
        let reply = request(addr, method, &path, body, trace.as_deref());
        span.end();
        let outcome = reply.and_then(|r| match (fetch.is_some(), r.status) {
            (true, 200) if r.body == results[spec] => Ok(r.ms),
            (false, 201) => {
                let doc = json(&r.body)?;
                match (text(&doc, "id"), doc.get("cached")) {
                    (Some(id), Some(srm_obs::json::Value::Bool(true))) => {
                        last = Some((id.to_owned(), spec));
                        Ok(r.ms)
                    }
                    _ => Err(format!("submit was not a cache hit: {}", r.body)),
                }
            }
            (_, status) => Err(format!("{method} {path}: status {status}")),
        });
        let ess = if fetch.is_some() { draws } else { 0.0 };
        match outcome {
            Ok(ms) => t.record(ms, 1, 0, ess, LIMIT_MS),
            Err(why) => t.fail(1, why),
        }
    }
    t
}

/// The timed closed loop. No sampler runs in it, so the tally's ESS
/// counts each fetched result at its kept draw count (chains × samples),
/// the ESS of independent draws, rather than at the ESS its fit reached:
/// a sampler change then cannot move this workload's `ess_per_cpu_s`.
fn phase(
    ctx: &Ctx,
    addr: SocketAddr,
    specs: &[FitSpec],
    results: &[String],
    tracer: &Tracer,
) -> Result<Timed, String> {
    let bodies: Vec<String> = specs.iter().map(job_body).collect();
    let mcmc = &ctx.scale.small_mcmc;
    let draws = (mcmc.chains * mcmc.samples) as f64;
    let (timed, ()) = timed_phase(|t| {
        let deadline = Instant::now() + Duration::from_secs_f64(ctx.scale.seconds);
        let tallies: Vec<Timed> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let docs = (&bodies[..], results);
                    scope.spawn(move || client(c, addr, docs, draws, deadline, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_owned()))
                .collect::<Result<_, _>>()
        })?;
        for tally in tallies {
            t.merge(tally);
        }
        Ok(())
    })?;
    Ok(timed)
}

/// Runs the workload. A traced run splits `--seconds` between an
/// untraced and a traced closed loop.
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
    let scale = &ctx.scale;
    // A fixed catalogue of series, fitted at seed-dependent sampler
    // seeds: every run parses the same request bodies and writes result
    // documents of the same shape, whichever seed it was given.
    let specs = served_specs(
        CATALOGUE,
        derive(ctx.seed, 6),
        scale.hit_specs,
        scale.small_mcmc,
    );
    let config = ServerConfig::default();
    let plain_setup = set_up(reps, &config, None, None, &specs)?;
    let (server, warmed) = (&plain_setup.booted.server, &plain_setup.booted.warmed);
    let mut out = Outcome::default();
    // Every cached result must equal an in-process fit of its spec.
    verify(&specs, &warmed.results, &mut out.problems);
    let off = Tracer::new(false, 0);
    let plain = phase(ctx, server.addr(), &specs, &warmed.results, &off);
    tear_down(plain_setup.booted);
    let plain = plain?;
    out.absorb(&plain);
    if !ctx.trace {
        let (metrics, note) = end_to_end(&plain, &plain_setup.setup_s)?;
        out.metrics = metrics;
        out.notes.push(note);
        return Ok(out);
    }

    let log = ctx
        .out_dir
        .join(format!("serve-hit-{}.access.jsonl", std::process::id()));
    let traced_setup = set_up(1, &config, None, Some(&log), &specs)?;
    let (addr, warmed) = (
        traced_setup.booted.server.addr(),
        traced_setup.booted.warmed.clone(),
    );
    let tracer = Tracer::new(true, ctx.seed);
    let measured = (|| {
        let before = counters(addr)?;
        let traced = phase(ctx, addr, &specs, &warmed.results, &tracer)?;
        Ok::<_, String>((before, traced, counters(addr)?, profile(addr)?))
    })();
    tear_down(traced_setup.booted);
    let (before, traced, after, end) = measured?;
    out.absorb(&traced);

    let mut layers = Layers::default();
    http_layers(&mut layers, &tracer, &log)?;
    // No job runs in the timed phase: the job figures are the warm-up's.
    server_layers(
        &mut layers,
        (&before, &after),
        &[],
        &end,
        &traced_setup.boot_ms,
    );
    layers.set("serve.engine_ms_p50", median(&warmed.engine_ms));
    layers.set(
        "serve.polls_per_job",
        warmed.polls as f64 / warmed.ids.len().max(1) as f64,
    );
    let pass: Vec<FitSpec> = specs.iter().take(scale.small_pass_fits).cloned().collect();
    breakdown_pass(&mut layers, &tracer, &pass, &mut out.problems)?;
    profile_fits(&mut layers, &pass)?;
    let series: Vec<_> = pass.iter().map(|s| s.data.clone()).collect();
    let doc = json(&warmed.results[0])?;
    probe_layers(&mut layers, &series, &doc, ctx.seed, scale.probe_scale);
    layers.set("trace_overhead_pct", trace_overhead_pct(&plain, &traced));
    finish_trace(ctx, "serve-hit", &tracer, layers, out)
}
