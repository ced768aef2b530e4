//! End-to-end tests of the serving contract: bit-identical results
//! over HTTP, cache hits without re-sampling, and deterministic
//! backpressure with a graceful drain.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use srm_core::{Fit, FitConfig};
use srm_mcmc::runner::RunOptions;
use srm_mcmc::RetryPolicy;
use srm_obs::json::{parse, Value};
use srm_serve::{Gate, JobSpec, JobStatus, Server, ServerConfig};

/// One request over a fresh connection; returns (status, raw head,
/// body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: srm\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, payload) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_owned(), payload.to_owned())
}

fn submit(addr: SocketAddr, body: &str) -> (u16, Value) {
    let (status, _, payload) = http(addr, "POST", "/v1/jobs", body);
    (status, parse(&payload).expect("json response"))
}

fn wait_done(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, _, payload) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let doc = parse(&payload).expect("status json");
        match doc.get("status").and_then(Value::as_str) {
            Some("done") => return,
            Some("queued" | "running") => {}
            other => panic!("job {id} ended as {other:?}: {payload}"),
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
}

const FIT_JOB: &str = r#"{"kind":"fit","dataset":"musa_cc96","truncate":48,
    "model":"model0","prior":"poisson","chains":2,"samples":200,
    "burn_in":80,"seed":11}"#;

#[test]
fn http_fit_is_bit_identical_to_direct_fit() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let addr = server.addr();

    let (status, doc) = submit(addr, FIT_JOB);
    assert_eq!(status, 202, "{doc:?}");
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("id")
        .to_owned();
    wait_done(addr, &id);
    let (status, _, payload) = http(addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200);
    let result = parse(&payload).expect("result json");

    // The same spec through the library, bypassing HTTP entirely.
    let spec = JobSpec::from_json(&parse(FIT_JOB).expect("job json")).expect("spec");
    let direct = Fit::try_run(
        spec.prior,
        spec.model,
        &spec.data,
        &FitConfig {
            mcmc: spec.mcmc,
            ..FitConfig::default()
        },
        &RunOptions {
            retry: RetryPolicy::default(),
            ..RunOptions::none()
        },
    )
    .expect("direct fit");

    // JSON numbers round-trip through srm-obs' shortest formatting,
    // so equality here is bit-for-bit, not approximate.
    for (path, expected) in [
        (("residual", "mean"), direct.fit.residual.mean),
        (("residual", "median"), direct.fit.residual.median),
        (("residual", "sd"), direct.fit.residual.sd),
        (("waic", "total"), direct.fit.waic.total()),
        (("waic", "se"), direct.fit.waic.se()),
    ] {
        let got = result
            .get(path.0)
            .and_then(|v| v.get(path.1))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("missing {path:?}"));
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "{path:?}: {got} != {expected}"
        );
    }

    server.request_shutdown();
    let _ = server.join();
}

#[test]
fn repeat_submission_is_served_from_cache_without_sampling() {
    let trace_dir = std::env::temp_dir().join(format!("srm-serve-cache-{}", std::process::id()));
    let trace_dir_str = trace_dir.to_string_lossy().into_owned();
    let server = Server::start(ServerConfig {
        trace_dir: Some(trace_dir_str.clone()),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    let job = r#"{"kind":"fit","dataset":"short_campaign_25","model":"model0",
        "chains":1,"samples":150,"burn_in":60,"seed":4}"#;
    let (status, doc) = submit(addr, job);
    assert_eq!(status, 202, "{doc:?}");
    let first = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("id")
        .to_owned();
    wait_done(addr, &first);
    let (_, _, first_result) = http(addr, "GET", &format!("/v1/results/{first}"), "");

    // Identical job again — answered synchronously from the cache.
    let (status, doc) = submit(addr, job);
    assert_eq!(status, 201, "{doc:?}");
    assert_eq!(doc.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
    let second = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("id")
        .to_owned();
    let (status, _, second_result) = http(addr, "GET", &format!("/v1/results/{second}"), "");
    assert_eq!(status, 200);
    assert_eq!(
        first_result, second_result,
        "cached result must be verbatim"
    );

    // The trace files are the proof of (no) work: the first job
    // sampled (chain events, `job-done` not cached), the second ended
    // `cached` with nothing from the sampler. In a job trace only
    // `job-done` carries `cached`.
    let first_trace =
        std::fs::read_to_string(trace_dir.join(format!("{first}.trace.jsonl"))).expect("trace 1");
    assert!(first_trace.contains("\"cached\":false"), "{first_trace}");
    assert!(first_trace.contains("\"chain-start\""), "{first_trace}");
    let second_trace =
        std::fs::read_to_string(trace_dir.join(format!("{second}.trace.jsonl"))).expect("trace 2");
    assert!(second_trace.contains("\"cached\":true"), "{second_trace}");
    assert!(!second_trace.contains("\"chain-start\""), "{second_trace}");
    assert!(!second_trace.contains("\"sweep\""), "{second_trace}");

    // The first job also leaves a manifest with the build block.
    let manifest = std::fs::read_to_string(trace_dir.join(format!("{first}.manifest.json")))
        .expect("manifest");
    assert!(manifest.contains("\"serve:fit\""), "{manifest}");

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("srm_serve_cache_hits_total 1"),
        "{metrics}"
    );

    server.request_shutdown();
    let _ = server.join();
    let _ = std::fs::remove_dir_all(trace_dir);
}

#[test]
fn progress_endpoint_reports_monotone_sweep_counts() {
    // The paused gate parks the worker after it pops the job but
    // before it claims it, so the first progress poll deterministically
    // observes the queued state (zero sweeps, no checkpoints).
    let gate = Arc::new(Gate::new());
    gate.pause();
    let server = Server::start(ServerConfig {
        workers: 1,
        gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    let job = r#"{"kind":"fit","dataset":"musa_cc96","truncate":48,"model":"model0",
        "chains":2,"samples":2500,"burn_in":500,"seed":21}"#;
    let (status, doc) = submit(addr, job);
    assert_eq!(status, 202, "{doc:?}");
    let id = doc
        .get("id")
        .and_then(Value::as_str)
        .expect("id")
        .to_owned();

    let (status, _, payload) = http(addr, "GET", &format!("/v1/jobs/{id}/progress"), "");
    assert_eq!(status, 200, "{payload}");
    let doc = parse(&payload).expect("progress json");
    assert_eq!(
        doc.get("sweeps_completed").and_then(Value::as_f64),
        Some(0.0)
    );
    assert_eq!(
        doc.get("checkpoints_seen").and_then(Value::as_f64),
        Some(0.0)
    );

    // Unknown ids 404 on the progress sub-resource like everywhere.
    assert_eq!(http(addr, "GET", "/v1/jobs/job-999/progress", "").0, 404);

    gate.release();
    let mut observed = vec![0u64];
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, _, payload) = http(addr, "GET", &format!("/v1/jobs/{id}/progress"), "");
        let doc = parse(&payload).expect("progress json");
        let sweeps = doc
            .get("sweeps_completed")
            .and_then(Value::as_f64)
            .expect("sweeps_completed") as u64;
        assert!(
            sweeps >= *observed.last().expect("non-empty"),
            "sweep count went backwards: {observed:?} then {sweeps}"
        );
        observed.push(sweeps);
        if doc.get("status").and_then(Value::as_str) == Some("done") {
            // The final checkpoint lands on each chain's last sweep,
            // so the finished job reports every sweep completed.
            assert_eq!(sweeps, 2 * (500 + 2500), "{payload}");
            let chains = doc.get("chains").and_then(Value::as_arr).expect("chains");
            assert_eq!(chains.len(), 2, "{payload}");
            let agg = doc
                .get("aggregate")
                .and_then(Value::as_arr)
                .expect("aggregate");
            assert!(
                agg.iter()
                    .any(|d| d.get("parameter").and_then(Value::as_str) == Some("residual")),
                "{payload}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "job did not finish");
    }
    // The counter advanced from the queued zero to the final total.
    assert!(observed.iter().any(|&s| s > 0));

    server.request_shutdown();
    let _ = server.join();
}

#[test]
fn full_queue_gets_429_and_accepted_jobs_drain_on_shutdown() {
    // One worker held at the gate + capacity-one queue makes the
    // rejection deterministic: job A is in flight (paused), job B
    // fills the queue, job C must bounce.
    let gate = Arc::new(Gate::new());
    gate.pause();
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    let job = |seed: u32| {
        format!(
            r#"{{"kind":"fit","dataset":"short_campaign_25","chains":1,
                "samples":120,"burn_in":40,"seed":{seed}}}"#
        )
    };
    let (status, doc_a) = submit(addr, &job(1));
    assert_eq!(status, 202, "{doc_a:?}");
    // Wait for the worker to pop job A and park at the gate, so the
    // queue is observably empty before B and C go in.
    let parked = Instant::now() + Duration::from_secs(10);
    while !server.state().queue.is_empty() {
        assert!(Instant::now() < parked, "worker never picked up job A");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, doc_b) = submit(addr, &job(2));
    assert_eq!(status, 202, "{doc_b:?}");

    let (status, head, payload) = http(addr, "POST", "/v1/jobs", &job(3));
    assert_eq!(status, 429, "{payload}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(payload.contains("queue-full"), "{payload}");
    // The rejected job left nothing behind.
    assert_eq!(server.state().metrics.jobs_rejected.get(), 1);

    // Graceful shutdown with the gate still closed: the drain starts,
    // then the worker is released and must finish A and B.
    server.request_shutdown();
    gate.release();
    let state = server.join();

    let id_a = doc_a.get("id").and_then(Value::as_str).expect("id a");
    let id_b = doc_b.get("id").and_then(Value::as_str).expect("id b");
    for id in [id_a, id_b] {
        let record = state.store.get(id).expect("record");
        assert_eq!(record.status, JobStatus::Done, "{id} not drained");
        assert!(record.result.is_some(), "{id} has no result");
    }
    let (_queued, _running, done, failed, cancelled) = state.store.counts();
    assert_eq!((done, failed, cancelled), (2, 0, 0));
    assert!(state.queue.is_empty());
}

#[test]
fn batch_larger_than_the_queue_is_a_400_not_a_retry_forever_429() {
    // One worker parked at the gate with job A, job B waiting in a
    // two-slot queue: one slot is free.
    let gate = Arc::new(Gate::new());
    gate.pause();
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        gate: Some(Arc::clone(&gate)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();
    let job = |seed: u32| {
        format!(
            r#"{{"kind":"fit","dataset":"short_campaign_25","chains":1,
                "samples":120,"burn_in":40,"seed":{seed}}}"#
        )
    };
    assert_eq!(submit(addr, &job(1)).0, 202);
    let parked = Instant::now() + Duration::from_secs(10);
    while !server.state().queue.is_empty() {
        assert!(Instant::now() < parked, "worker never picked up job A");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(submit(addr, &job(2)).0, 202);
    let batch = |datasets: &[&str]| {
        let items: Vec<String> = datasets
            .iter()
            .map(|d| format!(r#"{{"dataset":"{d}"}}"#))
            .collect();
        format!(
            r#"{{"chains":1,"samples":120,"burn_in":40,"seed":5,"items":[{}]}}"#,
            items.join(",")
        )
    };

    // Two fresh items fit an empty queue, just not this one: retry.
    let (status, head, payload) = http(
        addr,
        "POST",
        "/v1/batches",
        &batch(&["short_campaign_25", "ntds_26"]),
    );
    assert_eq!(status, 429, "{payload}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(payload.contains("queue-full"), "{payload}");
    let rejected = server.state().metrics.jobs_rejected.get();
    assert_eq!(rejected, 2);

    // Three fresh items can never fit two slots: no retry will help.
    let (status, head, payload) = http(
        addr,
        "POST",
        "/v1/batches",
        &batch(&["short_campaign_25", "ntds_26", "tandem_20w"]),
    );
    assert_eq!(status, 400, "{payload}");
    assert!(!head.contains("Retry-After"), "{head}");
    assert!(payload.contains("batch-too-large"), "{payload}");
    assert!(
        payload.contains("batch needs 3 queue slots; the job queue holds 2"),
        "{payload}"
    );
    let state = server.state();
    assert_eq!(state.metrics.jobs_rejected.get(), rejected);
    assert_eq!(state.store.next_job_number(), 3, "a job was allocated");
    assert_eq!(
        state.batches.next_batch_number(),
        1,
        "a batch was allocated"
    );

    server.request_shutdown();
    gate.release();
    let _ = server.join();
}

#[test]
fn deeply_nested_body_is_a_400_not_a_crash() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let addr = server.addr();
    let (status, _, payload) = http(addr, "POST", "/v1/jobs", &"[".repeat(20_000));
    assert_eq!(status, 400, "{payload}");
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.request_shutdown();
    let _ = server.join();
}
