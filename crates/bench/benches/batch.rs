//! Benchmarks of the batch tier: the multi-dataset executor
//! (`srm-batch`) and the serve tier's `POST /v1/batches` round trip.
//!
//! - `batch_fit/items` — one executor pass over an 8-dataset fleet on
//!   the default pool; the cost a caller pays per `srm fit --batch`.
//! - `batch_fit/threads` — the same fleet on an explicit 4-thread
//!   pool; results are bit-identical (proven in tests), so this pair
//!   isolates the scheduling overhead, not the answer.
//! - `batch_http/end_to_end` — submit a 2-item batch over HTTP and
//!   poll its rollup to `done`, seed-bumped each iteration so the fit
//!   cache never short-circuits the measurement.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench setup

use srm_batch::{run_batch, BatchSpec};
use srm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srm_core::FitConfig;
use srm_data::BugCountData;
use srm_mcmc::runner::RunOptions;
use srm_mcmc::McmcConfig;
use srm_serve::{Server, ServerConfig};
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const ITEMS: usize = 8;

/// A small synthetic fleet: distinct decaying count series so no two
/// items coalesce in the duplicate cache.
fn fleet() -> Vec<(String, BugCountData)> {
    (0..ITEMS)
        .map(|i| {
            let counts: Vec<u64> = (0..12)
                .map(|d| ((ITEMS - i) as u64 * 3 + i as u64) / (d + 1) as u64)
                .collect();
            (format!("proj{i}"), BugCountData::new(counts).unwrap())
        })
        .collect()
}

fn spec(threads: usize) -> BatchSpec {
    BatchSpec {
        prior: srm_mcmc::PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        model: srm_model::DetectionModel::Constant,
        config: FitConfig {
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 40,
                samples: 120,
                thin: 1,
                seed: 7,
            },
            ..FitConfig::default()
        },
        options: RunOptions {
            threads,
            ..RunOptions::none()
        },
    }
}

fn bench_batch_fit(c: &mut Criterion) {
    let items = fleet();
    let mut group = c.benchmark_group("batch/fit");
    group.sample_size(10);
    for (label, threads) in [("items", 0usize), ("threads", 4)] {
        group.bench_with_input(BenchmarkId::new("batch_fit", label), &threads, |b, &t| {
            let s = spec(t);
            b.iter(|| {
                let report = run_batch(&s, &items, "bench").unwrap();
                assert_eq!(report.failed(), 0);
                black_box(report.items.len())
            });
        });
    }
    group.finish();
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: srm\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, payload)
}

/// Submits one 2-item batch and polls the rollup to `done`. The seed
/// changes every call, so every fit is fresh work, never a cache hit.
fn batch_round_trip(addr: SocketAddr, seed: u64) {
    let body = format!(
        r#"{{"model":"model0","chains":1,"samples":120,"burn_in":40,"seed":{seed},
            "items":[{{"label":"a","counts":[5,3,4,1,2,0,1]}},
                     {{"label":"b","counts":[4,4,2,2,1,1,0,1]}}]}}"#
    );
    let (status, payload) = http(addr, "POST", "/v1/batches", &body);
    assert_eq!(status, 202, "{payload}");
    let doc = srm_obs::json::parse(&payload).unwrap();
    if doc.get("status").unwrap().as_str() == Some("done") {
        return;
    }
    let id = doc.get("id").unwrap().as_str().unwrap().to_owned();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, payload) = http(addr, "GET", &format!("/v1/batches/{id}"), "");
        assert_eq!(status, 200, "{payload}");
        let doc = srm_obs::json::parse(&payload).unwrap();
        if doc.get("status").unwrap().as_str() == Some("done") {
            return;
        }
        assert!(Instant::now() < deadline, "batch {id} never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn bench_batch_http(c: &mut Criterion) {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut seed = 0u64;
    let mut group = c.benchmark_group("batch/http");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("batch_http", "end_to_end"),
        &(),
        |b, ()| {
            b.iter(|| {
                seed += 1;
                batch_round_trip(addr, seed);
            });
        },
    );
    group.finish();
    server.request_shutdown();
    let _ = server.join();
}

criterion_group!(benches, bench_batch_fit, bench_batch_http);
criterion_main!(benches);
