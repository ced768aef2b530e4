//! srm-serve — a long-running estimation service over the srm engine.
//!
//! The crate turns the one-shot CLI pipeline (fit / select / predict)
//! into a small HTTP service with an explicit operational contract:
//!
//! - **One engine.** Jobs run through the exact same traced entry
//!   points the CLI uses, so an HTTP fit is bit-identical to a
//!   same-seed `srm fit` run.
//! - **Bounded queue.** Submissions beyond [`queue::JobQueue`]'s
//!   capacity are rejected with `429 Too Many Requests` and a
//!   `Retry-After` header — backpressure is visible, not silent.
//! - **Content-addressed cache.** A job's [`job::JobSpec::cache_key`]
//!   hashes everything that determines the posterior bit-for-bit;
//!   repeat submissions are answered from [`cache::FitCache`] without
//!   re-sampling.
//! - **Graceful drain.** On SIGTERM/SIGINT (or
//!   [`server::Server::request_shutdown`]) the server stops accepting
//!   work, finishes every accepted job, then exits.
//! - **Observable.** Per-job JSONL traces and run manifests reuse the
//!   srm-obs sinks; `/metrics` exposes Prometheus counters and
//!   `/healthz` reports build info and job counts.
//!
//! The HTTP layer is dependency-free by design: a hand-rolled
//! HTTP/1.1 reader/writer over [`std::net::TcpListener`] — see
//! [`http`].
//!
//! # Endpoints
//!
//! | Method & path                   | Purpose                                  |
//! |---------------------------------|------------------------------------------|
//! | `POST /v1/jobs`                 | Submit a fit/select/predict job          |
//! | `GET /v1/jobs/{id}`             | Poll job status                          |
//! | `GET /v1/jobs/{id}/progress`    | Live convergence state (checkpoints, R̂) |
//! | `GET /v1/results/{id}`          | Fetch the result document                |
//! | `DELETE /v1/jobs/{id}`          | Cancel (cooperative at phase boundaries) |
//! | `POST /v1/batches`              | Fan one fit spec over many datasets      |
//! | `GET /v1/batches/{id}`          | Batch rollup with per-item status/results|
//! | `GET /healthz`                  | Liveness, build info, job counts         |
//! | `GET /metrics`                  | Prometheus text exposition               |

// `signal` needs one audited `unsafe` block to install a SIGTERM
// handler without adding a dependency, so `forbid` is one notch too
// strong for this crate; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access_log;
pub mod batch;
pub mod cache;
pub mod engine;
pub mod http;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod signal;
pub mod store;

pub use access_log::{AccessLog, AccessLogStats};
pub use batch::{
    parse_batch, BatchItemRef, BatchRecord, BatchRequest, BatchStore, MAX_BATCH_ITEMS,
};
pub use cache::FitCache;
pub use engine::{run_job, JobError, JobOutput, SERVE_CHECKPOINT_EVERY};
pub use job::{JobKind, JobRecord, JobSpec, JobStatus, JobStore};
pub use metrics::{escape_label, lint_exposition, render_prometheus, GaugeSnapshot, ServeMetrics};
pub use queue::{JobQueue, PushError, QueuedJob};
pub use server::{Gate, Server, ServerConfig, ServerState};
pub use store::{Persister, RecoveredState, WalStats};
