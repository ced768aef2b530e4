//! The HTTP server: accept loop, connection scheduler, routing,
//! worker pool, and the graceful-shutdown drain.
//!
//! One thread owns a non-blocking [`TcpListener`] and polls it
//! alongside the shutdown flag. Accepted connections go onto a
//! **bounded connection queue** serviced by a fixed pool of reusable
//! handler threads — when the queue is full the accept thread answers
//! 503 inline and moves on, and a connection that sat in the queue
//! longer than the reap threshold is answered 503 without being read.
//! Ten thousand slow pollers therefore cost at most `CONN_BACKLOG`
//! queue slots and `HTTP_HANDLERS` threads, never a thread apiece.
//! Each serviced connection gets read and write timeouts, so a
//! stalled client can delay only its own handler.
//!
//! The expensive work happens on the worker pool, which feeds off the
//! bounded [`JobQueue`]. With a `state_dir` configured, every job
//! transition is appended to the write-ahead log (see
//! [`crate::store`]) and boot replays it — completed results and
//! cache entries survive `kill -9`, and in-flight jobs are re-queued.
//! On shutdown the accept loop stops taking connections, the handler
//! pool drains, the job queue closes, the workers finish every job
//! that was already accepted, and a final snapshot is written — the
//! drain contract documented in DESIGN.md §11 and §13.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use srm_obs::json::{parse, Value};
use srm_obs::{
    aggregate, build_info_value, flightrec, lock_ignoring_poison, process_trace_id,
    ChainCheckpoint, Event, FlightRecorder, JsonlSink, Recorder, StatsCollector, Tee, TraceId,
    TRACE_HEADER,
};
use srm_store::SyncPolicy;

use crate::access_log::{AccessLog, DEFAULT_ACCESS_LOG_MAX_BYTES};
use crate::batch::{BatchItemRef, BatchRecord, BatchStore};
use crate::cache::FitCache;
use crate::engine::run_job;
use crate::http::{read_request, Request, Response};
use crate::job::{JobRecord, JobSpec, JobStatus, JobStore, JOB_HISTORY_LIMIT};
use crate::metrics::{render_prometheus, GaugeSnapshot, ServeMetrics};
use crate::queue::{JobQueue, PushError, QueuedJob};
use crate::signal;
use crate::store::{Persister, DEFAULT_SNAPSHOT_EVERY};

/// How often the accept loop re-checks the shutdown flag while idle.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Per-connection read timeout (slow or silent clients).
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-connection write timeout (clients that stop reading).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// A connection that waited longer than this in the accept queue is
/// reaped with 503 instead of being read — its client has either
/// timed out already or is part of a flood worth shedding.
const CONN_REAP_AFTER: Duration = Duration::from_secs(10);
/// Reusable connection-handler threads servicing the accept queue.
const HTTP_HANDLERS: usize = 8;
/// Accept-queue capacity; beyond it new connections are answered 503
/// inline.
const CONN_BACKLOG: usize = 256;
/// Value of the `Retry-After` header on 429 responses, seconds.
const RETRY_AFTER_SECS: &str = "1";

/// A test latch that holds workers at the top of job execution.
///
/// While paused, every worker blocks in [`Gate::wait_ready`] right
/// after popping a job — the queue stays drained of exactly one job
/// per worker and nothing else moves. Tests use this to fill the
/// queue deterministically and assert the 429 backpressure path
/// without racing the workers.
#[derive(Debug, Default)]
pub struct Gate {
    paused: Mutex<bool>,
    ready: Condvar,
}

impl Gate {
    /// A new, open gate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Holds workers at the gate until [`Gate::release`].
    pub fn pause(&self) {
        *lock_ignoring_poison(&self.paused) = true;
    }

    /// Opens the gate and wakes every waiting worker.
    pub fn release(&self) {
        *lock_ignoring_poison(&self.paused) = false;
        self.ready.notify_all();
    }

    /// Blocks while the gate is paused.
    pub fn wait_ready(&self) {
        let mut paused = lock_ignoring_poison(&self.paused);
        while *paused {
            paused = self
                .ready
                .wait(paused)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it get 429.
    pub queue_capacity: usize,
    /// Directory for per-job trace and manifest files (created if
    /// missing). `None` disables per-job files.
    pub trace_dir: Option<String>,
    /// State directory for the write-ahead log and snapshots.
    /// `None` disables persistence (memory-only, the pre-durability
    /// behaviour).
    pub state_dir: Option<String>,
    /// When WAL appends reach stable storage. [`SyncPolicy::Never`]
    /// survives SIGKILL (the kernel holds the bytes);
    /// [`SyncPolicy::Always`] also survives power loss.
    pub wal_sync: SyncPolicy,
    /// Whether the accept loop also honours the process-wide
    /// [`signal`] flag (SIGTERM/SIGINT). CLI servers set this; tests
    /// use [`Server::request_shutdown`] so parallel servers don't
    /// shut each other down.
    pub watch_signals: bool,
    /// Optional worker latch for deterministic backpressure tests.
    pub gate: Option<Arc<Gate>>,
    /// Structured JSONL access-log path; `None` disables the log.
    pub access_log: Option<String>,
    /// Turn on the process-global flight recorder (see
    /// [`srm_obs::flightrec`]) and tee every job's events into it.
    pub flight_recorder: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            trace_dir: None,
            state_dir: None,
            wal_sync: SyncPolicy::Never,
            watch_signals: false,
            gate: None,
            access_log: None,
            flight_recorder: false,
        }
    }
}

/// Shared state behind every server thread.
#[derive(Debug)]
pub struct ServerState {
    /// Every job the server has seen.
    pub store: JobStore,
    /// The bounded queue between the HTTP layer and the workers.
    pub queue: JobQueue,
    /// Content-addressed result cache.
    pub cache: FitCache,
    /// Batch registry: batch ids, member jobs, and the reverse index
    /// from job ids to batches awaiting them.
    pub batches: BatchStore,
    /// HTTP/job counters for `/metrics`.
    pub metrics: ServeMetrics,
    /// Engine-level aggregates teed from every job's recorder.
    pub stats: Arc<StatsCollector>,
    /// Request-lifecycle phase profiler (queue-wait, fit, serialize,
    /// wal-append) feeding the `/metrics` phase gauges.
    pub profiler: Arc<srm_obs::Profiler>,
    /// When the server started — `/metrics` uptime gauge.
    started: Instant,
    /// Structured per-request JSONL log; `None` when disabled.
    pub access_log: Option<AccessLog>,
    /// Where flight-recorder dumps land (state dir, else trace dir);
    /// `None` disables dumps.
    flightrec_dir: Option<std::path::PathBuf>,
    /// The WAL + snapshot layer; `None` without a `state_dir`.
    persister: Option<Persister>,
    /// Accepted connections (with their accept time) waiting for a
    /// handler thread; its capacity is `CONN_BACKLOG`.
    conns: JobQueue<(TcpStream, Instant)>,
    shutdown: AtomicBool,
    running: AtomicU64,
    trace_dir: Option<String>,
    watch_signals: bool,
    gate: Option<Arc<Gate>>,
}

impl ServerState {
    /// Whether shutdown has begun.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || (self.watch_signals && signal::requested())
    }

    /// Jobs currently executing on workers.
    #[must_use]
    pub fn jobs_running(&self) -> u64 {
        self.running.load(Ordering::SeqCst)
    }

    /// Seconds since the server booted.
    #[must_use]
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn trace_path(&self, id: &str) -> Option<String> {
        self.trace_dir
            .as_ref()
            .map(|dir| format!("{dir}/{id}.trace.jsonl"))
    }

    fn manifest_path(&self, id: &str) -> Option<String> {
        self.trace_dir
            .as_ref()
            .map(|dir| format!("{dir}/{id}.manifest.json"))
    }

    /// The persistence layer's counters, when a state dir is set.
    #[must_use]
    pub fn wal_stats(&self) -> Option<crate::store::WalStats> {
        self.persister.as_ref().map(Persister::stats)
    }

    /// Dumps the flight recorder into the configured dump directory.
    /// `None` when the recorder is off or no directory is configured;
    /// a failed write is already counted by the recorder (degradation
    /// policy: count, keep serving).
    pub fn dump_flightrec(&self, reason: &str) -> Option<std::path::PathBuf> {
        if !flightrec::enabled() {
            return None;
        }
        let dir = self.flightrec_dir.as_ref()?;
        flightrec::dump_to_dir(dir, reason).ok()
    }

    /// The tail of every terminal transition, called once after job
    /// `id` has become `status` (done, failed or cancelled): bumps the
    /// matching job counter, logs the terminal WAL op (snapshotting
    /// when the cadence is due) and counts the job off every batch
    /// waiting on it. A worker calls it after recording the job's
    /// `job-done` event.
    fn settle(&self, id: &str, status: JobStatus) {
        match status {
            JobStatus::Done => self.metrics.jobs_done.incr(),
            JobStatus::Failed => self.metrics.jobs_failed.incr(),
            JobStatus::Cancelled => self.metrics.jobs_cancelled.incr(),
            JobStatus::Queued | JobStatus::Running => return,
        }
        if let Some(persister) = &self.persister {
            if let Some(record) = self.store.get(id) {
                persister.record_terminal(&record);
                persister.maybe_snapshot(&self.store, &self.cache, &self.batches);
            }
        }
        self.batches.note_terminal(id);
    }
}

/// A running estimation service.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop, the connection
    /// handler pool, and the worker pool. With a `state_dir`, first
    /// recovers persisted state (snapshot + WAL replay), re-queues
    /// jobs that were in flight when the previous process died, and
    /// compacts the log.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the bind fails or the trace or
    /// state directory cannot be initialised.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        if let Some(dir) = &config.trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut recovered = crate::store::RecoveredState::default();
        let persister = match &config.state_dir {
            Some(dir) => {
                let (persister, state) = Persister::open(
                    std::path::Path::new(dir),
                    config.wal_sync,
                    DEFAULT_SNAPSHOT_EVERY,
                )?;
                recovered = state;
                Some(persister)
            }
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let store = JobStore::with_limit(JOB_HISTORY_LIMIT);
        let cache = FitCache::new();
        for record in recovered.jobs.drain(..) {
            store.insert(record);
        }
        store.set_next_id(recovered.next_id);
        for (key, result) in recovered.cache.drain(..) {
            cache.insert(&key, result);
        }
        // Rebuild the batch registry. A batch's `remaining` count is
        // runtime state: recompute it as the distinct member jobs that
        // are not terminal in the recovered store (in-flight jobs were
        // reset to queued above and will be re-queued below).
        let batches = BatchStore::with_limit(JOB_HISTORY_LIMIT);
        for wire in recovered.batches.drain(..) {
            let Some(record) = BatchRecord::from_wire(&wire) else {
                continue;
            };
            let mut pending: Vec<String> = Vec::new();
            for item in &record.items {
                if !pending.contains(&item.job_id)
                    && store
                        .get(&item.job_id)
                        .is_some_and(|r| !r.status.is_terminal())
                {
                    pending.push(item.job_id.clone());
                }
            }
            batches.insert(record, &pending);
        }
        batches.set_next_id(recovered.next_batch_id);

        let flightrec_dir = config
            .state_dir
            .clone()
            .or_else(|| config.trace_dir.clone())
            .map(std::path::PathBuf::from);
        if config.flight_recorder {
            flightrec::enable(srm_obs::DEFAULT_FLIGHTREC_CAPACITY);
            if let Some(dir) = &flightrec_dir {
                // One hook per process: every server sharing the
                // process also shares the global recorder.
                static PANIC_HOOK: std::sync::Once = std::sync::Once::new();
                let dir = dir.clone();
                PANIC_HOOK.call_once(move || flightrec::install_panic_hook(dir));
            }
        }

        let state = Arc::new(ServerState {
            store,
            queue: JobQueue::new(config.queue_capacity),
            cache,
            batches,
            metrics: ServeMetrics::new(),
            stats: Arc::new(StatsCollector::new()),
            profiler: Arc::new(srm_obs::Profiler::new()),
            started: Instant::now(),
            access_log: config
                .access_log
                .map(|path| AccessLog::new(path, DEFAULT_ACCESS_LOG_MAX_BYTES)),
            flightrec_dir,
            persister,
            conns: JobQueue::new(CONN_BACKLOG),
            shutdown: AtomicBool::new(false),
            running: AtomicU64::new(0),
            trace_dir: config.trace_dir,
            watch_signals: config.watch_signals,
            gate: config.gate,
        });

        // Re-queue work that was queued or running when the previous
        // process died. Deadlines restart from boot: the original
        // submit time died with the old process, and punishing a
        // recovered job for downtime it did not cause would make
        // recovery lossy.
        for (id, spec) in recovered.pending.drain(..) {
            let trace = open_trace(&state, &id, trace_id_of(&spec));
            let deadline = spec
                .timeout_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let _ = state.queue.requeue(QueuedJob {
                id,
                spec,
                deadline,
                trace,
                submitted: Instant::now(),
            });
        }
        // Boot-time compaction: fold the replayed WAL into a fresh
        // snapshot so the next crash replays a short log.
        if let Some(persister) = &state.persister {
            persister.snapshot_now(&state.store, &state.cache, &state.batches);
        }

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        let handlers = (0..HTTP_HANDLERS)
            .map(|_| {
                let handler_state = Arc::clone(&state);
                std::thread::spawn(move || handler_loop(&handler_state))
            })
            .collect();
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let worker_state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&worker_state))
            })
            .collect();
        Ok(Self {
            addr,
            state,
            accept: Some(accept),
            handlers,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for inspection by tests and the CLI.
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Begins graceful shutdown: stop accepting, drain the queue.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop, handler pool, and worker pool
    /// have drained (in that order), writes a final snapshot, and
    /// returns the final state for summary reporting.
    #[must_use]
    pub fn join(mut self) -> Arc<ServerState> {
        // The accept loop exits on shutdown and closes the conn
        // queue; the handlers drain what was already accepted.
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
        // Only then close the job queue: a submission a handler was
        // still writing is either on the queue (drained below) or was
        // rejected — never silently dropped.
        self.state.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(persister) = &self.state.persister {
            persister.snapshot_now(&self.state.store, &self.state.cache, &self.state.batches);
        }
        // Preserve the tail of the event stream across restarts: the
        // drain dump is what `srm trace grep` stitches into a timeline
        // when a SIGTERM interrupted an investigation.
        let _ = self.state.dump_flightrec("drain");
        Arc::clone(&self.state)
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        if state.shutting_down() {
            state.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err((_, (stream, _))) = state.conns.push((stream, Instant::now())) {
                    // Accept queue full: shed the connection with an
                    // inline best-effort 503 — cheaper than parsing
                    // its request, and the client learns to back off.
                    state.metrics.conns_rejected.incr();
                    shed_connection(stream, "overloaded", "accept queue is full; retry later");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Wake the handler pool; it drains already-accepted connections
    // (bounded by the timeouts) and exits.
    state.conns.close();
}

/// One reusable connection-handler thread: pops accepted connections,
/// reaps the ones that waited past the threshold, services the rest.
fn handler_loop(state: &Arc<ServerState>) {
    while let Some((stream, accepted_at)) = state.conns.pop() {
        let queue_wait = accepted_at.elapsed();
        if queue_wait > CONN_REAP_AFTER {
            state.metrics.conns_reaped.incr();
            shed_connection(stream, "overloaded", "connection waited too long; retry");
            continue;
        }
        handle_connection(state, stream, queue_wait);
    }
}

/// Writes a 503 without reading the request; used for load shedding,
/// where spending read-timeout seconds on the victim would defeat the
/// point.
fn shed_connection(mut stream: TcpStream, kind: &str, message: &str) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = Response::error(503, kind, message)
        .with_header("Connection", "close")
        .write_to(&mut stream);
}

/// Per-request correlation context threaded through [`route`]: the
/// minted trace id plus the flags the access log needs after the
/// handler returns.
struct RequestCtx {
    trace_id: TraceId,
    cache_hit: std::cell::Cell<bool>,
}

/// The request's trace id: the inbound `x-srm-trace-id` header when it
/// parses, else an id derived from the request's content hash (FNV-1a
/// over method, path, and body) and the per-boot nonce. Derivation is
/// deterministic — identical content in the same boot maps to the same
/// id — and never consumes sampler randomness.
fn mint_trace_id(request: &Request) -> TraceId {
    if let Some(id) = request.header(TRACE_HEADER).and_then(TraceId::parse) {
        return id;
    }
    let hash = srm_obs::fnv1a64([
        request.method.as_bytes(),
        b"\n",
        request.path.as_bytes(),
        b"\n",
        request.body.as_slice(),
    ]);
    TraceId::derive(hash, srm_obs::boot_nonce())
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream, queue_wait: Duration) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    state.metrics.http_requests.incr();
    let handle_started = Instant::now();
    let (response, method, path, trace_id, cache_hit) = match read_request(&mut stream) {
        Ok(request) => {
            let ctx = RequestCtx {
                trace_id: mint_trace_id(&request),
                cache_hit: std::cell::Cell::new(false),
            };
            let response = route(state, &request, &ctx);
            (
                response,
                request.method,
                request.path,
                ctx.trace_id,
                ctx.cache_hit.get(),
            )
        }
        Err(e) => (
            Response::error(400, "bad-request", &format!("malformed request: {e}")),
            "?".to_owned(),
            "?".to_owned(),
            process_trace_id(),
            false,
        ),
    };
    let trace_hex = trace_id.to_hex();
    // Echo the id so clients learn derived ids without grepping logs.
    let response = response.with_header(TRACE_HEADER, &trace_hex);
    let handle_ns = u64::try_from(handle_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let serialize_started = Instant::now();
    let _ = response.write_to(&mut stream);
    let serialize_ns = u64::try_from(serialize_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let queue_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
    state.profiler.record_ns("http/queue-wait", queue_ns);
    state.profiler.record_ns("http/handle", handle_ns);
    state.profiler.record_ns("http/serialize", serialize_ns);
    let access = Event::Access {
        method,
        path,
        status: response.status,
        bytes: response.body.len() as u64,
        cache_hit,
        queue_wait_ms: queue_ns as f64 / 1e6,
        engine_ms: handle_ns as f64 / 1e6,
        serialize_ms: serialize_ns as f64 / 1e6,
    };
    if let Some(log) = &state.access_log {
        log.log(&trace_hex, &access);
    }
    flightrec::record_event(&access, &trace_hex);
}

fn route(state: &Arc<ServerState>, request: &Request, ctx: &RequestCtx) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/v1/jobs") => submit_job(state, &request.body, ctx),
        ("POST", "/v1/batches") => submit_batch(state, &request.body, ctx),
        ("GET", "/healthz") => health(state),
        ("GET", "/v1/debug/profile") => debug_profile(state),
        ("GET", "/v1/debug/events") => debug_events(state),
        ("GET", "/v1/debug/queue") => debug_queue(state),
        ("GET", "/v1/debug/store") => debug_store(state),
        ("POST", "/v1/debug/flightrec") => debug_flightrec_dump(state),
        ("GET", "/metrics") => Response::text(
            200,
            render_prometheus(
                &state.metrics,
                &state.cache,
                &state.stats,
                &state.store,
                GaugeSnapshot {
                    queue_depth: state.queue.len(),
                    jobs_running: state.jobs_running(),
                    conn_queue_depth: state.conns.len(),
                    uptime_secs: state.uptime_secs(),
                    phases: state.profiler.snapshot(),
                    batches_active: state.batches.active(),
                    access_log: state.access_log.as_ref().map(AccessLog::stats),
                    flightrec: flightrec::stats(),
                },
                state.wal_stats(),
            ),
        ),
        (method, _) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if let Some(id) = rest.strip_suffix("/progress") {
                    if method == "GET" {
                        job_progress(state, id)
                    } else {
                        Response::error(405, "method-not-allowed", "use GET")
                    }
                } else {
                    match method {
                        "GET" => job_status(state, rest),
                        "DELETE" => cancel_job(state, rest),
                        _ => Response::error(405, "method-not-allowed", "use GET or DELETE"),
                    }
                }
            } else if let Some(id) = path.strip_prefix("/v1/results/") {
                if method == "GET" {
                    job_result(state, id)
                } else {
                    Response::error(405, "method-not-allowed", "use GET")
                }
            } else if let Some(id) = path.strip_prefix("/v1/batches/") {
                if method == "GET" {
                    batch_status(state, id)
                } else {
                    Response::error(405, "method-not-allowed", "use GET")
                }
            } else if matches!(path, "/v1/jobs" | "/v1/batches" | "/healthz" | "/metrics")
                || matches!(
                    path,
                    "/v1/debug/profile"
                        | "/v1/debug/events"
                        | "/v1/debug/queue"
                        | "/v1/debug/store"
                        | "/v1/debug/flightrec"
                )
            {
                Response::error(405, "method-not-allowed", "wrong method for this path")
            } else {
                Response::error(404, "not-found", &format!("no route for `{path}`"))
            }
        }
    }
}

fn health(state: &Arc<ServerState>) -> Response {
    let (queued, running, done, failed, cancelled) = state.store.counts();
    let status = if state.shutting_down() {
        "draining"
    } else {
        "ok"
    };
    Response::json(
        200,
        &Value::obj(vec![
            ("status", Value::Str(status.to_owned())),
            ("build", build_info_value()),
            (
                "jobs",
                Value::obj(vec![
                    ("queued", Value::Num(queued as f64)),
                    ("running", Value::Num(running as f64)),
                    ("done", Value::Num(done as f64)),
                    ("failed", Value::Num(failed as f64)),
                    ("cancelled", Value::Num(cancelled as f64)),
                ]),
            ),
            ("queue_depth", Value::Num(state.queue.len() as f64)),
            ("jobs_running", Value::Num(state.jobs_running() as f64)),
        ]),
    )
}

/// `GET /v1/debug/profile` — the live span-profiler state: per-phase
/// aggregates.
fn debug_profile(state: &Arc<ServerState>) -> Response {
    state.metrics.debug_requests.incr();
    let phases: Vec<Value> = state
        .profiler
        .snapshot()
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("path", Value::Str(p.path.clone())),
                ("count", Value::Num(p.count as f64)),
                ("total_ns", Value::Num(p.total_ns as f64)),
                ("self_ns", Value::Num(p.self_ns as f64)),
                ("min_ns", Value::Num(p.min_ns as f64)),
                ("max_ns", Value::Num(p.max_ns as f64)),
            ])
        })
        .collect();
    Response::json(200, &Value::obj(vec![("phases", Value::Arr(phases))]))
}

/// `GET /v1/debug/events` — the flight recorder's counters and the
/// ring's contents, in capture order.
fn debug_events(state: &Arc<ServerState>) -> Response {
    state.metrics.debug_requests.incr();
    let stats = flightrec::stats();
    Response::json(
        200,
        &Value::obj(vec![
            ("enabled", Value::Bool(stats.enabled)),
            ("capacity", Value::Num(stats.capacity as f64)),
            ("recorded", Value::Num(stats.recorded as f64)),
            ("dumps", Value::Num(stats.dumps as f64)),
            ("dump_errors", Value::Num(stats.dump_errors as f64)),
            ("events", Value::Arr(flightrec::snapshot())),
        ]),
    )
}

/// `GET /v1/debug/queue` — job-queue and connection-queue depths.
fn debug_queue(state: &Arc<ServerState>) -> Response {
    state.metrics.debug_requests.incr();
    Response::json(
        200,
        &Value::obj(vec![
            ("queue_depth", Value::Num(state.queue.len() as f64)),
            ("queue_capacity", Value::Num(state.queue.capacity() as f64)),
            ("jobs_running", Value::Num(state.jobs_running() as f64)),
            ("conn_queue_depth", Value::Num(state.conns.len() as f64)),
            ("conn_backlog", Value::Num(state.conns.capacity() as f64)),
            ("uptime_secs", Value::Num(state.uptime_secs())),
            ("draining", Value::Bool(state.shutting_down())),
        ]),
    )
}

/// `GET /v1/debug/store` — job counts, cache size, batch registry,
/// WAL/snapshot counters, and access-log health.
fn debug_store(state: &Arc<ServerState>) -> Response {
    state.metrics.debug_requests.incr();
    let (queued, running, done, failed, cancelled) = state.store.counts();
    let mut fields: Vec<(&str, Value)> = vec![
        (
            "jobs",
            Value::obj(vec![
                ("queued", Value::Num(queued as f64)),
                ("running", Value::Num(running as f64)),
                ("done", Value::Num(done as f64)),
                ("failed", Value::Num(failed as f64)),
                ("cancelled", Value::Num(cancelled as f64)),
            ]),
        ),
        ("cache_entries", Value::Num(state.cache.len() as f64)),
        ("batches_active", Value::Num(state.batches.active() as f64)),
    ];
    if let Some(wal) = state.wal_stats() {
        fields.push((
            "wal",
            Value::obj(vec![
                ("bytes", Value::Num(wal.bytes as f64)),
                ("records", Value::Num(wal.records as f64)),
                ("appended", Value::Num(wal.appended as f64)),
                ("snapshots", Value::Num(wal.snapshots as f64)),
                ("errors", Value::Num(wal.errors as f64)),
            ]),
        ));
    }
    if let Some(log) = &state.access_log {
        let stats = log.stats();
        fields.push((
            "access_log",
            Value::obj(vec![
                ("path", Value::Str(log.path().display().to_string())),
                ("lines", Value::Num(stats.lines as f64)),
                ("errors", Value::Num(stats.errors as f64)),
                ("rotations", Value::Num(stats.rotations as f64)),
            ]),
        ));
    }
    Response::json(200, &Value::obj(fields))
}

/// `POST /v1/debug/flightrec` — dump the flight recorder on demand.
fn debug_flightrec_dump(state: &Arc<ServerState>) -> Response {
    state.metrics.debug_requests.incr();
    match state.dump_flightrec("on-demand") {
        Some(path) => Response::json(
            200,
            &Value::obj(vec![("dumped", Value::Str(path.display().to_string()))]),
        ),
        None => Response::error(
            409,
            "flightrec-unavailable",
            "flight recorder is disabled, has no dump directory, or the dump failed",
        ),
    }
}

fn submit_job(state: &Arc<ServerState>, body: &[u8], ctx: &RequestCtx) -> Response {
    if state.shutting_down() {
        return Response::error(503, "shutting-down", "server is draining; retry elsewhere");
    }
    let text = String::from_utf8_lossy(body);
    let json = match parse(&text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "bad-json", &format!("body is not JSON: {e}")),
    };
    let mut spec = match JobSpec::from_json(&json) {
        Ok(s) => s,
        Err(message) => return Response::error(400, "bad-request", &message),
    };
    spec.trace_id = ctx.trace_id.to_hex();
    let cache_key = spec.cache_key();

    if let Some(result) = state.cache.lookup(&cache_key) {
        return serve_from_cache(state, &spec, &cache_key, result, ctx);
    }

    let job = admit_fresh(state, spec, &cache_key, ctx.trace_id);
    let id = job.id.clone();
    match state.queue.push(job) {
        Ok(()) => {
            state.metrics.jobs_submitted.incr();
            Response::json(
                202,
                &Value::obj(vec![
                    ("id", Value::Str(id)),
                    ("trace_id", Value::Str(ctx.trace_id.to_hex())),
                    ("status", Value::Str("queued".to_owned())),
                    ("cached", Value::Bool(false)),
                    ("cache_key", Value::Str(cache_key)),
                ]),
            )
        }
        Err((reject, _)) => {
            state.store.remove(&id);
            if let Some(persister) = &state.persister {
                persister.record_drop(&id);
            }
            if let Some(path) = state.trace_path(&id) {
                let _ = std::fs::remove_file(path);
            }
            match reject {
                PushError::Full => {
                    state.metrics.jobs_rejected.incr();
                    Response::error(429, "queue-full", "job queue is at capacity; retry later")
                        .with_header("Retry-After", RETRY_AFTER_SECS)
                }
                PushError::Closed => {
                    Response::error(503, "shutting-down", "server is draining; retry elsewhere")
                }
            }
        }
    }
}

/// Admits a job that needs sampling, up to the queue: allocates its
/// id, inserts the queued record, logs the WAL submit, opens its trace
/// with `job-start` and `cache-miss`, and builds the [`QueuedJob`].
/// The caller pushes or requeues it and owns the rollback.
fn admit_fresh(
    state: &Arc<ServerState>,
    spec: JobSpec,
    cache_key: &str,
    trace_id: TraceId,
) -> QueuedJob {
    let id = state.store.allocate_id();
    let record = JobRecord::new(id.clone(), spec.kind, cache_key.into(), JobStatus::Queued)
        .with_trace_id(&spec.trace_id);
    state.store.insert(record);
    if let Some(persister) = &state.persister {
        persister.record_submit(&id, &spec);
    }
    let trace = open_trace(state, &id, trace_id);
    let recorder = job_recorder(state, trace.as_ref(), trace_id, None);
    recorder.record(&Event::JobStart {
        job_id: id.clone(),
        kind: spec.kind.label().to_owned(),
        cache_key: cache_key.to_owned(),
    });
    recorder.record(&Event::CacheMiss {
        cache_key: cache_key.to_owned(),
    });
    let deadline = spec
        .timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    QueuedJob {
        id,
        spec,
        deadline,
        trace,
        submitted: Instant::now(),
    }
}

fn serve_from_cache(
    state: &Arc<ServerState>,
    spec: &JobSpec,
    cache_key: &str,
    result: Value,
    ctx: &RequestCtx,
) -> Response {
    ctx.cache_hit.set(true);
    let id = cache_served_job(state, spec, cache_key, result);
    Response::json(
        201,
        &Value::obj(vec![
            ("id", Value::Str(id)),
            ("trace_id", Value::Str(spec.trace_id.clone())),
            ("status", Value::Str("done".to_owned())),
            ("cached", Value::Bool(true)),
            ("cache_key", Value::Str(cache_key.to_owned())),
        ]),
    )
}

/// Allocates an already-done job record for a fit-cache hit and emits
/// its lifecycle events — the shared tail of [`serve_from_cache`] and
/// batch submission.
fn cache_served_job(
    state: &Arc<ServerState>,
    spec: &JobSpec,
    cache_key: &str,
    result: Value,
) -> String {
    let id = state.store.allocate_id();
    let mut record = JobRecord::new(id.clone(), spec.kind, cache_key.to_owned(), JobStatus::Done)
        .with_trace_id(&spec.trace_id);
    record.cached = true;
    record.result = Some(result);
    state.store.insert(record);
    state.metrics.jobs_submitted.incr();

    let trace = open_trace(state, &id, trace_id_of(spec));
    let recorder = job_recorder(state, trace.as_ref(), trace_id_of(spec), None);
    recorder.record(&Event::JobStart {
        job_id: id.clone(),
        kind: spec.kind.label().to_owned(),
        cache_key: cache_key.to_owned(),
    });
    recorder.record(&Event::CacheHit {
        cache_key: cache_key.to_owned(),
    });
    recorder.record(&Event::JobDone {
        job_id: id.clone(),
        status: "done".to_owned(),
        cached: true,
        wall_ms: 0.0,
    });
    if let Some(sink) = trace {
        let _ = sink.flush();
    }
    state.settle(&id, JobStatus::Done);
    id
}

/// The job's trace id, recovered from its spec; falls back to the
/// process id for specs persisted before trace correlation existed.
fn trace_id_of(spec: &JobSpec) -> TraceId {
    TraceId::parse(&spec.trace_id).unwrap_or_else(process_trace_id)
}

fn open_trace(state: &Arc<ServerState>, id: &str, trace_id: TraceId) -> Option<Arc<JsonlSink>> {
    let path = state.trace_path(id)?;
    JsonlSink::create(&path)
        .ok()
        .map(|sink| Arc::new(sink.with_trace_id(&trace_id.to_hex())))
}

/// Every sink a job's events go to: the server-wide collector, the
/// job's own collector while it runs, its JSONL trace, and the flight
/// recorder while capture is on.
fn job_recorder(
    state: &Arc<ServerState>,
    trace: Option<&Arc<JsonlSink>>,
    trace_id: TraceId,
    per_job: Option<&Arc<StatsCollector>>,
) -> Tee {
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![Arc::clone(&state.stats) as Arc<dyn Recorder>];
    if let Some(collector) = per_job {
        sinks.push(Arc::clone(collector) as Arc<dyn Recorder>);
    }
    if let Some(sink) = trace {
        sinks.push(Arc::clone(sink) as Arc<dyn Recorder>);
    }
    if flightrec::enabled() {
        sinks.push(Arc::new(FlightRecorder::new(trace_id)) as Arc<dyn Recorder>);
    }
    Tee::new(sinks)
}

fn job_status(state: &Arc<ServerState>, id: &str) -> Response {
    state.store.get(id).map_or_else(
        || Response::error(404, "not-found", &format!("unknown job `{id}`")),
        |record| Response::json(200, &record.status_value()),
    )
}

/// `GET /v1/jobs/{id}/progress` — the job's live convergence state:
/// sweeps completed, the latest per-chain checkpoint payloads, and
/// the cross-chain aggregate (R̂, split-R̂, ESS, MCSE). A queued job
/// (or a cache hit, which never samples) reports zero sweeps and
/// empty arrays; a finished job keeps reporting its final checkpoint.
fn job_progress(state: &Arc<ServerState>, id: &str) -> Response {
    let Some(record) = state.store.get(id) else {
        return Response::error(404, "not-found", &format!("unknown job `{id}`"));
    };
    let (sweeps, seen, chains, diagnostics) = match &record.progress {
        Some(stats) => {
            let latest = stats.latest_checkpoints();
            let refs: Vec<&ChainCheckpoint> = latest.iter().collect();
            let diagnostics = aggregate(&refs);
            (
                stats.sweeps_completed(),
                stats.checkpoints_seen(),
                latest,
                diagnostics,
            )
        }
        None => (0, 0, Vec::new(), Vec::new()),
    };
    let chain_values: Vec<Value> = chains
        .iter()
        .map(|c| {
            Value::obj(vec![
                ("chain", Value::Num(c.chain as f64)),
                ("sweep", Value::Num(c.sweep as f64)),
                ("kept", Value::Num(c.kept as f64)),
                ("wall_ms", Value::Num(c.wall_ms)),
                (
                    "params",
                    Value::Arr(c.params.iter().map(|p| p.to_value()).collect()),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        &Value::obj(vec![
            ("id", Value::Str(record.id.clone())),
            ("trace_id", Value::Str(record.trace_id.clone())),
            ("status", Value::Str(record.status.label().to_owned())),
            ("sweeps_completed", Value::Num(sweeps as f64)),
            ("checkpoints_seen", Value::Num(seen as f64)),
            ("chains", Value::Arr(chain_values)),
            (
                "aggregate",
                Value::Arr(diagnostics.iter().map(|d| d.to_value()).collect()),
            ),
        ]),
    )
}

fn job_result(state: &Arc<ServerState>, id: &str) -> Response {
    let Some(record) = state.store.get(id) else {
        return Response::error(404, "not-found", &format!("unknown job `{id}`"));
    };
    match record.status {
        JobStatus::Queued | JobStatus::Running => Response::json(202, &record.status_value()),
        JobStatus::Cancelled => Response::error(410, "cancelled", "job was cancelled"),
        JobStatus::Failed => {
            let (kind, message) = record
                .error
                .unwrap_or_else(|| ("unknown".to_owned(), "job failed".to_owned()));
            Response::error(500, &kind, &message)
        }
        JobStatus::Done => match record.result {
            Some(result) => Response::json(200, &result),
            None => Response::error(500, "missing-result", "done job has no stored result"),
        },
    }
}

fn cancel_job(state: &Arc<ServerState>, id: &str) -> Response {
    let outcome = state.store.with(id, |record| match record.status {
        JobStatus::Queued => {
            record.cancel_requested = true;
            record.status = JobStatus::Cancelled;
            (200, "cancelled")
        }
        JobStatus::Running => {
            record.cancel_requested = true;
            (202, "cancelling")
        }
        JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled => (409, "finished"),
    });
    match outcome {
        None => Response::error(404, "not-found", &format!("unknown job `{id}`")),
        Some((409, _)) => Response::error(
            409,
            "already-finished",
            "job already reached a terminal state",
        ),
        Some((status, label)) => {
            if status == 200 {
                state.settle(id, JobStatus::Cancelled);
            }
            Response::json(
                status,
                &Value::obj(vec![
                    ("id", Value::Str(id.to_owned())),
                    ("status", Value::Str(label.to_owned())),
                ]),
            )
        }
    }
}

/// What will become of one batch item, decided before anything is
/// allocated so admission can stay all-or-nothing.
enum ItemPlan {
    /// Same cache key as an earlier item of this batch: share its job.
    Alias(usize),
    /// Fit-cache hit: allocate an already-done job around the result.
    Cached(Value),
    /// Needs sampling: allocate a queued job.
    Fresh,
}

/// `POST /v1/batches` — fans one shared fit spec over N datasets.
///
/// Every item becomes an ordinary job (same submit path, cache, WAL,
/// and workers as `POST /v1/jobs`), so item results are byte-identical
/// to individually submitted jobs with the derived seeds. Admission is
/// all-or-nothing: the whole batch is rejected with 429 unless every
/// item that needs sampling fits on the job queue together, and with
/// 400 when those items outnumber the queue's whole capacity.
fn submit_batch(state: &Arc<ServerState>, body: &[u8], ctx: &RequestCtx) -> Response {
    if state.shutting_down() {
        return Response::error(503, "shutting-down", "server is draining; retry elsewhere");
    }
    let text = String::from_utf8_lossy(body);
    let json = match parse(&text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "bad-json", &format!("body is not JSON: {e}")),
    };
    let mut request = match crate::batch::parse_batch(&json) {
        Ok(r) => r,
        Err(message) => return Response::error(400, "bad-request", &message),
    };
    // Every item inherits the batch's trace id: one submission, one
    // correlation key across all member jobs. The id is excluded from
    // cache keys, so inheriting it never splits the fit cache.
    let batch_trace = ctx.trace_id.to_hex();
    for (_, spec) in &mut request.items {
        spec.trace_id = batch_trace.clone();
    }

    // Plan first, mutate second: classify every item without touching
    // the job store so a capacity rejection leaves no trace.
    let mut plans: Vec<ItemPlan> = Vec::with_capacity(request.items.len());
    let mut first_by_key: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for (index, (_, spec)) in request.items.iter().enumerate() {
        let key = spec.cache_key();
        if let Some(&first) = first_by_key.get(&key) {
            plans.push(ItemPlan::Alias(first));
            continue;
        }
        first_by_key.insert(key, index);
        match state.cache.lookup(&spec.cache_key()) {
            Some(result) => plans.push(ItemPlan::Cached(result)),
            None => plans.push(ItemPlan::Fresh),
        }
    }
    let fresh = plans
        .iter()
        .filter(|p| matches!(p, ItemPlan::Fresh))
        .count();
    let capacity = state.queue.capacity();
    if fresh > capacity {
        // No drain can ever make room: retrying would loop forever.
        return Response::error(
            400,
            "batch-too-large",
            &format!("batch needs {fresh} queue slots; the job queue holds {capacity}"),
        );
    }
    if state.queue.len() + fresh > capacity {
        state.metrics.jobs_rejected.add(fresh as u64);
        return Response::error(
            429,
            "queue-full",
            "job queue cannot take the whole batch; retry later",
        )
        .with_header("Retry-After", RETRY_AFTER_SECS);
    }

    let batch_id = state.batches.allocate_id();
    let mut items: Vec<BatchItemRef> = Vec::with_capacity(plans.len());
    let mut queued: Vec<QueuedJob> = Vec::new();
    let mut pending_ids: Vec<String> = Vec::new();
    let mut cache_hits = 0u64;
    for (plan, (label, spec)) in plans.into_iter().zip(request.items) {
        let seed = spec.mcmc.seed;
        match plan {
            ItemPlan::Alias(first) => {
                cache_hits += 1;
                let job_id = items[first].job_id.clone();
                items.push(BatchItemRef {
                    label,
                    job_id,
                    seed,
                    cached: true,
                });
            }
            ItemPlan::Cached(result) => {
                cache_hits += 1;
                let key = spec.cache_key();
                let job_id = cache_served_job(state, &spec, &key, result);
                items.push(BatchItemRef {
                    label,
                    job_id,
                    seed,
                    cached: true,
                });
            }
            ItemPlan::Fresh => {
                let key = spec.cache_key();
                let job = admit_fresh(state, spec, &key, ctx.trace_id);
                state.metrics.jobs_submitted.incr();
                let id = job.id.clone();
                queued.push(job);
                pending_ids.push(id.clone());
                items.push(BatchItemRef {
                    label,
                    job_id: id,
                    seed,
                    cached: false,
                });
            }
        }
    }

    let record = BatchRecord {
        id: batch_id.clone(),
        master_seed: request.master_seed,
        items,
        cache_hits,
        remaining: 0, // set by BatchStore::insert
    };
    // Register the batch BEFORE queueing its jobs so a fast worker's
    // terminal transition always finds it in the reverse index.
    state.batches.insert(record.clone(), &pending_ids);
    if let Some(persister) = &state.persister {
        persister.record_batch(&record);
    }
    state.metrics.batches_submitted.incr();
    state.metrics.batch_items.add(record.items.len() as u64);
    state.metrics.batch_cache_hits.add(cache_hits);
    if pending_ids.is_empty() {
        ctx.cache_hit.set(true);
    }

    for job in queued {
        let id = job.id.clone();
        // Capacity was pre-checked; requeue only fails once shutdown
        // closed the queue, in which case the job dies cancelled.
        if state.queue.requeue(job).is_err() {
            state.store.with(&id, |r| {
                r.status = JobStatus::Cancelled;
            });
            state.settle(&id, JobStatus::Cancelled);
        }
    }

    match state.batches.get(&batch_id) {
        Some(registered) => Response::json(202, &batch_rollup(state, &registered)),
        None => Response::error(500, "missing-batch", "batch vanished during submission"),
    }
}

/// `GET /v1/batches/{id}` — per-item status/results and the progress
/// rollup.
fn batch_status(state: &Arc<ServerState>, id: &str) -> Response {
    match state.batches.get(id) {
        Some(record) => Response::json(200, &batch_rollup(state, &record)),
        None => Response::error(404, "not-found", &format!("unknown batch `{id}`")),
    }
}

/// Renders a batch document: per-item status (with the result inlined
/// once the item's job is done) plus lifecycle counts.
fn batch_rollup(state: &Arc<ServerState>, record: &BatchRecord) -> Value {
    let mut counts = [0usize; 5]; // queued running done failed cancelled
    let items: Vec<Value> = record
        .items
        .iter()
        .map(|item| {
            let job = state.store.get(&item.job_id);
            let status = job.as_ref().map_or("unknown", |r| r.status.label());
            if let Some(r) = &job {
                counts[match r.status {
                    JobStatus::Queued => 0,
                    JobStatus::Running => 1,
                    JobStatus::Done => 2,
                    JobStatus::Failed => 3,
                    JobStatus::Cancelled => 4,
                }] += 1;
            }
            let mut fields: Vec<(&str, Value)> = vec![
                ("label", Value::Str(item.label.clone())),
                ("job", Value::Str(item.job_id.clone())),
                ("seed", Value::Num(item.seed as f64)),
                ("cached", Value::Bool(item.cached)),
                ("status", Value::Str(status.to_owned())),
            ];
            if let Some(r) = job {
                fields.push(("trace_id", Value::Str(r.trace_id.clone())));
                fields.push(("wall_ms", Value::Num(r.wall_ms)));
                if let Some(result) = r.result {
                    fields.push(("result", result));
                }
                if let Some((kind, message)) = r.error {
                    fields.push(("error_kind", Value::Str(kind)));
                    fields.push(("error_message", Value::Str(message)));
                }
            }
            Value::obj(fields)
        })
        .collect();
    let status = if record.remaining == 0 {
        "done"
    } else {
        "running"
    };
    // All member jobs inherit the submit request's trace id, so the
    // first item's record carries the batch-level correlation key.
    let batch_trace = record
        .items
        .first()
        .and_then(|item| state.store.get(&item.job_id))
        .map(|r| r.trace_id)
        .unwrap_or_default();
    Value::obj(vec![
        ("id", Value::Str(record.id.clone())),
        ("trace_id", Value::Str(batch_trace)),
        ("status", Value::Str(status.to_owned())),
        ("master_seed", Value::Num(record.master_seed as f64)),
        ("cache_hits", Value::Num(record.cache_hits as f64)),
        ("remaining", Value::Num(record.remaining as f64)),
        (
            "progress",
            Value::obj(vec![
                ("total", Value::Num(record.items.len() as f64)),
                ("queued", Value::Num(counts[0] as f64)),
                ("running", Value::Num(counts[1] as f64)),
                ("done", Value::Num(counts[2] as f64)),
                ("failed", Value::Num(counts[3] as f64)),
                ("cancelled", Value::Num(counts[4] as f64)),
            ]),
        ),
        ("items", Value::Arr(items)),
    ])
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        if let Some(gate) = &state.gate {
            gate.wait_ready();
        }
        execute(state, &job);
    }
}

fn execute(state: &Arc<ServerState>, job: &QueuedJob) {
    // Install the server profiler for the whole job lifecycle so the
    // fit span, the engine's serialize span, and the terminal WAL
    // append all land in the same profile; the engine
    // forwards it to its chain workers via `profile::current()`.
    let _profile_guard = srm_obs::profile::install(Some(&state.profiler));
    // Queue wait is a cross-thread interval (submit happened on a
    // handler thread), so it is recorded directly rather than spanned.
    state.profiler.record_ns(
        "queue-wait",
        u64::try_from(job.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    let per_job = Arc::new(StatsCollector::new());
    let recorder = job_recorder(
        state,
        job.trace.as_ref(),
        trace_id_of(&job.spec),
        Some(&per_job),
    );
    // Claim the job; a DELETE that landed while it was queued already
    // moved it to Cancelled and settled it, so just acknowledge.
    let claimed = state
        .store
        .with(&job.id, |record| {
            let claim = record.status != JobStatus::Cancelled;
            if claim {
                record.status = JobStatus::Running;
            }
            claim
        })
        .unwrap_or(false);
    if !claimed {
        finish(job, &recorder, "cancelled", 0.0);
        return;
    }
    if let Some(persister) = &state.persister {
        persister.record_claim(&job.id);
    }

    state.running.fetch_add(1, Ordering::SeqCst);
    // Attach the job's collector to its record so the progress
    // endpoint and the per-job /metrics gauges can read the streaming
    // checkpoints while the sampler runs.
    state.store.with(&job.id, |record| {
        record.progress = Some(Arc::clone(&per_job));
    });
    let started = Instant::now();
    let outcome = {
        let _fit_span = srm_obs::profile::span("fit");
        run_job(&job.spec, job.deadline, &recorder)
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    state.running.fetch_sub(1, Ordering::SeqCst);

    let cancel_requested = state.store.get(&job.id).is_some_and(|r| r.cancel_requested);
    if cancel_requested {
        // The result is discarded, not cached: the client asked for
        // the job to die and must not observe a partial success.
        state.store.with(&job.id, |record| {
            record.status = JobStatus::Cancelled;
            record.wall_ms = wall_ms;
        });
        finish(job, &recorder, "cancelled", wall_ms);
        state.settle(&job.id, JobStatus::Cancelled);
        return;
    }

    match outcome {
        Ok(output) => {
            state
                .cache
                .insert(&job.spec.cache_key(), output.result.clone());
            state.store.with(&job.id, |record| {
                record.status = JobStatus::Done;
                record.result = Some(output.result.clone());
                record.wall_ms = wall_ms;
            });
            state.metrics.job_wall_ms.observe(wall_ms);
            if let Some(path) = state.manifest_path(&job.id) {
                let mut manifest = output.manifest;
                manifest.fill_from_stats(&per_job, output.kept_draws);
                let _ = manifest.write(&path);
            }
            finish(job, &recorder, "done", wall_ms);
            state.settle(&job.id, JobStatus::Done);
        }
        Err(error) => {
            state.store.with(&job.id, |record| {
                record.status = JobStatus::Failed;
                record.error = Some((error.kind().to_owned(), error.to_string()));
                record.wall_ms = wall_ms;
            });
            // An engine failure is exactly the moment the recent event
            // history matters: capture it before the ring moves on.
            let _ = state.dump_flightrec("engine-failure");
            finish(job, &recorder, "failed", wall_ms);
            state.settle(&job.id, JobStatus::Failed);
        }
    }
}

fn finish(job: &QueuedJob, recorder: &Tee, status: &str, wall_ms: f64) {
    recorder.record(&Event::JobDone {
        job_id: job.id.clone(),
        status: status.to_owned(),
        cached: false,
        wall_ms,
    });
    if let Some(sink) = &job.trace {
        let _ = sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    pub(crate) fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let (status, _, payload) = http_with_headers(addr, method, path, &[], body);
        (status, payload)
    }

    /// Like [`http`] but sends extra request headers and returns the
    /// raw response head for header assertions.
    pub(crate) fn http_with_headers(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: srm\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            request.push_str(&format!("{name}: {value}\r\n"));
        }
        request.push_str("\r\n");
        request.push_str(body);
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let (head, payload) = raw
            .split_once("\r\n\r\n")
            .map(|(h, b)| (h.to_owned(), b.to_owned()))
            .unwrap_or_default();
        (status, head, payload)
    }

    fn header_value(head: &str, name: &str) -> Option<String> {
        head.lines().find_map(|line| {
            let (n, v) = line.split_once(':')?;
            (n.eq_ignore_ascii_case(name)).then(|| v.trim().to_owned())
        })
    }

    #[test]
    fn trace_header_is_honoured_end_to_end() {
        let dir = std::env::temp_dir().join(format!("srm_serve_trace_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig {
            trace_dir: Some(dir.join("traces").to_string_lossy().into_owned()),
            access_log: Some(dir.join("access.jsonl").to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let server = Server::start(config).unwrap();
        let pinned = "00112233445566778899aabbccddeeff";
        let (status, head, body) = http_with_headers(
            server.addr(),
            "POST",
            "/v1/jobs",
            &[(TRACE_HEADER, pinned)],
            r#"{"kind":"fit","dataset":"short_campaign_25","model":"model0",
                "chains":1,"samples":60,"burn_in":20,"seed":11}"#,
        );
        assert_eq!(status, 202, "{body}");
        assert_eq!(header_value(&head, TRACE_HEADER).as_deref(), Some(pinned));
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("trace_id").unwrap().as_str(), Some(pinned));
        let id = doc.get("id").unwrap().as_str().unwrap().to_owned();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, status_body) = http(server.addr(), "GET", &format!("/v1/jobs/{id}"), "");
            let status_doc = parse(&status_body).unwrap();
            // The poll itself carries no header, but the job's record
            // keeps the id it was submitted under.
            assert_eq!(status_doc.get("trace_id").unwrap().as_str(), Some(pinned));
            if status_doc.get("status").unwrap().as_str() == Some("done") {
                break;
            }
            assert_ne!(status_doc.get("status").unwrap().as_str(), Some("failed"));
            assert!(Instant::now() < deadline, "job did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (_, progress) = http(server.addr(), "GET", &format!("/v1/jobs/{id}/progress"), "");
        assert_eq!(
            parse(&progress).unwrap().get("trace_id").unwrap().as_str(),
            Some(pinned)
        );
        // Every line of the per-job trace carries the pinned id.
        let trace_text =
            std::fs::read_to_string(dir.join("traces").join(format!("{id}.trace.jsonl"))).unwrap();
        assert!(trace_text.lines().count() > 2);
        for line in trace_text.lines() {
            let value = parse(line).unwrap();
            assert_eq!(
                value.get("trace_id").unwrap().as_str(),
                Some(pinned),
                "{line}"
            );
        }
        let state = server.state();
        server.request_shutdown();
        let _ = server.join();
        // The access log wrote the submit line under the pinned id
        // (the line lands after the response, so read it post-drain).
        let log_text = std::fs::read_to_string(dir.join("access.jsonl")).unwrap();
        let submit_line = log_text
            .lines()
            .find(|l| l.contains("POST") && l.contains(pinned))
            .expect("no access-log line for the pinned submit");
        let value = parse(submit_line).unwrap();
        assert_eq!(value.get("type").unwrap().as_str(), Some("access"));
        assert_eq!(value.get("path").unwrap().as_str(), Some("/v1/jobs"));
        assert!(matches!(value.get("cache_hit"), Some(&Value::Bool(false))));
        assert!(state.access_log.as_ref().unwrap().stats().lines >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn derived_trace_ids_are_deterministic_per_request_content() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let (_, head1, _) = http_with_headers(server.addr(), "GET", "/healthz", &[], "");
        let (_, head2, _) = http_with_headers(server.addr(), "GET", "/healthz", &[], "");
        let (_, head3, _) = http_with_headers(server.addr(), "GET", "/metrics", &[], "");
        let id1 = header_value(&head1, TRACE_HEADER).unwrap();
        let id2 = header_value(&head2, TRACE_HEADER).unwrap();
        let id3 = header_value(&head3, TRACE_HEADER).unwrap();
        assert_eq!(id1.len(), 32);
        assert_eq!(id1, id2, "same content must derive the same id");
        assert_ne!(id1, id3, "different content must derive different ids");
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn debug_endpoints_expose_live_state() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let (status, body) = http(server.addr(), "GET", "/v1/debug/profile", "");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert!(doc.get("phases").is_some());
        let (status, body) = http(server.addr(), "GET", "/v1/debug/events", "");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert!(doc.get("recorded").is_some());
        assert!(doc.get("events").is_some());
        let (status, body) = http(server.addr(), "GET", "/v1/debug/queue", "");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("queue_capacity").unwrap().as_f64(), Some(16.0));
        assert!(matches!(doc.get("draining"), Some(&Value::Bool(false))));
        let (status, body) = http(server.addr(), "GET", "/v1/debug/store", "");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert!(doc.get("jobs").is_some());
        assert!(doc.get("cache_entries").is_some());
        assert_eq!(http(server.addr(), "GET", "/v1/debug/nope", "").0, 404);
        assert_eq!(http(server.addr(), "POST", "/v1/debug/queue", "").0, 405);
        let (_, page) = http(server.addr(), "GET", "/metrics", "");
        assert!(page.contains("srm_serve_debug_requests_total 4"), "{page}");
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn flight_recorder_captures_and_dumps_job_events() {
        let dir = std::env::temp_dir().join(format!("srm_serve_flightrec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig {
            trace_dir: Some(dir.to_string_lossy().into_owned()),
            flight_recorder: true,
            ..ServerConfig::default()
        };
        let server = Server::start(config).unwrap();
        let pinned = "feedfacecafebeef0000000000000042";
        let (status, _, body) = http_with_headers(
            server.addr(),
            "POST",
            "/v1/jobs",
            &[(TRACE_HEADER, pinned)],
            r#"{"kind":"fit","dataset":"short_campaign_25","model":"model0",
                "chains":1,"samples":60,"burn_in":20,"seed":12}"#,
        );
        assert_eq!(status, 202, "{body}");
        let id = parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, status_body) = http(server.addr(), "GET", &format!("/v1/jobs/{id}"), "");
            let label = parse(&status_body)
                .unwrap()
                .get("status")
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned();
            if label == "done" {
                break;
            }
            assert!(Instant::now() < deadline, "job did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (status, body) = http(server.addr(), "GET", "/v1/debug/events", "");
        assert_eq!(status, 200);
        assert!(body.contains(pinned), "recorder missed the job's events");
        let (status, body) = http(server.addr(), "POST", "/v1/debug/flightrec", "");
        assert_eq!(status, 200, "{body}");
        let dumped = parse(&body)
            .unwrap()
            .get("dumped")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let dump_text = std::fs::read_to_string(&dumped).unwrap();
        let header = parse(dump_text.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("type").unwrap().as_str(), Some("flightrec-dump"));
        assert_eq!(header.get("reason").unwrap().as_str(), Some("on-demand"));
        assert!(dump_text.contains(pinned));
        server.request_shutdown();
        let _ = server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_reports_build_and_counts() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let (status, body) = http(server.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert!(doc.get("build").unwrap().get("crate_version").is_some());
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn unknown_routes_and_methods_are_rejected() {
        let server = Server::start(ServerConfig::default()).unwrap();
        assert_eq!(http(server.addr(), "GET", "/nope", "").0, 404);
        assert_eq!(http(server.addr(), "PUT", "/healthz", "").0, 405);
        assert_eq!(http(server.addr(), "PATCH", "/v1/jobs/job-1", "").0, 405);
        assert_eq!(http(server.addr(), "GET", "/v1/jobs/job-9", "").0, 404);
        assert_eq!(http(server.addr(), "GET", "/v1/results/job-9", "").0, 404);
        assert_eq!(http(server.addr(), "DELETE", "/v1/jobs/job-9", "").0, 404);
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn bad_submissions_get_400() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let (status, body) = http(server.addr(), "POST", "/v1/jobs", "not json");
        assert_eq!(status, 400);
        assert!(body.contains("bad-json"));
        let (status, body) = http(server.addr(), "POST", "/v1/jobs", r#"{"kind":"fit"}"#);
        assert_eq!(status, 400);
        assert!(body.contains("missing data"));
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn submit_poll_and_fetch_a_fit_job() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let (status, body) = http(
            server.addr(),
            "POST",
            "/v1/jobs",
            r#"{"kind":"fit","dataset":"short_campaign_25","model":"model0",
                "chains":1,"samples":120,"burn_in":40,"seed":9}"#,
        );
        assert_eq!(status, 202);
        let id = parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, status_body) = http(server.addr(), "GET", &format!("/v1/jobs/{id}"), "");
            let label = parse(&status_body)
                .unwrap()
                .get("status")
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned();
            if label == "done" {
                break;
            }
            assert_ne!(label, "failed", "{status_body}");
            assert!(Instant::now() < deadline, "job did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (status, result) = http(server.addr(), "GET", &format!("/v1/results/{id}"), "");
        assert_eq!(status, 200);
        let doc = parse(&result).unwrap();
        assert!(doc
            .get("residual")
            .unwrap()
            .get("mean")
            .unwrap()
            .as_f64()
            .is_some());
        let (status, page) = http(server.addr(), "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(page.contains("srm_serve_jobs_done_total 1"));
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn cancel_of_queued_job_is_immediate() {
        // A paused gate keeps the single worker busy with nothing —
        // the submitted job stays queued until we cancel it.
        let gate = Arc::new(Gate::new());
        gate.pause();
        let server = Server::start(ServerConfig {
            workers: 1,
            gate: Some(Arc::clone(&gate)),
            ..ServerConfig::default()
        })
        .unwrap();
        let (status, body) = http(
            server.addr(),
            "POST",
            "/v1/jobs",
            r#"{"kind":"fit","dataset":"short_campaign_25","chains":1,"samples":100,"burn_in":40}"#,
        );
        assert_eq!(status, 202);
        let id = parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let (status, _) = http(server.addr(), "DELETE", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200);
        let (status, _) = http(server.addr(), "GET", &format!("/v1/results/{id}"), "");
        assert_eq!(status, 410);
        let (status, _) = http(server.addr(), "DELETE", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 409);
        gate.release();
        server.request_shutdown();
        let state = server.join();
        assert_eq!(state.metrics.jobs_cancelled.get(), 1);
    }

    #[test]
    fn a_job_cancelled_while_queued_is_logged_once_and_stays_cancelled() {
        let dir = std::env::temp_dir().join(format!("srm_serve_cancelwal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gate = Arc::new(Gate::new());
        gate.pause();
        let server = Server::start(ServerConfig {
            state_dir: Some(dir.to_string_lossy().into_owned()),
            workers: 1,
            gate: Some(Arc::clone(&gate)),
            ..ServerConfig::default()
        })
        .unwrap();
        let (status, body) = http(
            server.addr(),
            "POST",
            "/v1/jobs",
            r#"{"kind":"fit","dataset":"short_campaign_25","chains":1,"samples":100,"burn_in":40}"#,
        );
        assert_eq!(status, 202);
        let id = parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        assert_eq!(
            http(server.addr(), "DELETE", &format!("/v1/jobs/{id}"), "").0,
            200
        );
        gate.release();
        server.request_shutdown();
        let state = server.join();
        // One `submit` and one `cancel`: the worker that later pops the
        // cancelled job logs nothing more.
        assert_eq!(state.wal_stats().unwrap().appended, 2);

        let server = Server::start(ServerConfig {
            state_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        assert_eq!(
            http(server.addr(), "GET", &format!("/v1/results/{id}"), "").0,
            410
        );
        let (_, health) = http(server.addr(), "GET", "/healthz", "");
        let jobs = parse(&health).unwrap().get("jobs").unwrap().clone();
        assert_eq!(jobs.get("cancelled").unwrap().as_f64(), Some(1.0));
        assert_eq!(jobs.get("queued").unwrap().as_f64(), Some(0.0));
        server.request_shutdown();
        let _ = server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wait_batch_done(addr: SocketAddr, id: &str) -> Value {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, body) = http(addr, "GET", &format!("/v1/batches/{id}"), "");
            assert_eq!(status, 200, "{body}");
            let doc = parse(&body).unwrap();
            if doc.get("status").unwrap().as_str() == Some("done") {
                return doc;
            }
            assert!(Instant::now() < deadline, "batch did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn wait_job_result(addr: SocketAddr, id: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (status, result) = http(addr, "GET", &format!("/v1/results/{id}"), "");
            if status == 200 {
                return result;
            }
            assert_eq!(status, 202, "{result}");
            assert!(Instant::now() < deadline, "job did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    const BATCH_BODY: &str = r#"{"model":"model0","chains":1,"samples":120,"burn_in":40,"seed":7,
        "items":[{"label":"named","dataset":"short_campaign_25"},
                 {"label":"inline","counts":[5,3,4,1,2,0,1]}]}"#;

    #[test]
    fn batch_items_match_individually_submitted_jobs_byte_for_byte() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let (status, body) = http(server.addr(), "POST", "/v1/batches", BATCH_BODY);
        assert_eq!(status, 202, "{body}");
        let batch_id = parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let doc = wait_batch_done(server.addr(), &batch_id);
        let items = doc.get("items").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(items.len(), 2);
        assert_eq!(
            doc.get("progress").unwrap().get("done").unwrap().as_f64(),
            Some(2.0)
        );

        // Re-run each item as a lone job on a FRESH server (no shared
        // cache) with the batch's derived seed: results must be
        // byte-identical — the batch item IS that job.
        let lone = Server::start(ServerConfig::default()).unwrap();
        let singles = [
            r#"{"kind":"fit","dataset":"short_campaign_25","model":"model0","chains":1,"samples":120,"burn_in":40,"seed":SEED}"#,
            r#"{"kind":"fit","counts":[5,3,4,1,2,0,1],"model":"model0","chains":1,"samples":120,"burn_in":40,"seed":SEED}"#,
        ];
        for (item, template) in items.iter().zip(singles) {
            assert_eq!(item.get("status").unwrap().as_str(), Some("done"));
            let seed = item.get("seed").unwrap().as_f64().unwrap() as u64;
            let job_id = item.get("job").unwrap().as_str().unwrap();
            let batched = wait_job_result(server.addr(), job_id);
            // The rollup inlines the identical result document.
            assert_eq!(
                item.get("result").unwrap().to_json(),
                parse(&batched).unwrap().to_json()
            );
            let (status, submitted) = http(
                lone.addr(),
                "POST",
                "/v1/jobs",
                &template.replace("SEED", &seed.to_string()),
            );
            assert_eq!(status, 202, "{submitted}");
            let lone_id = parse(&submitted)
                .unwrap()
                .get("id")
                .unwrap()
                .as_str()
                .unwrap()
                .to_owned();
            assert_eq!(wait_job_result(lone.addr(), &lone_id), batched);
        }
        lone.request_shutdown();
        let _ = lone.join();
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn batch_duplicates_alias_and_resubmission_is_fully_cached() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let body = r#"{"model":"model0","chains":1,"samples":100,"burn_in":40,"seed":3,
            "items":[{"label":"a","counts":[4,2,1,0,1]},
                     {"label":"twin","counts":[4,2,1,0,1]},
                     {"label":"b","counts":[2,2,2,1]}]}"#;
        let (status, first) = http(server.addr(), "POST", "/v1/batches", body);
        assert_eq!(status, 202, "{first}");
        let first = parse(&first).unwrap();
        // The in-batch duplicate aliases item `a`'s job: same job id,
        // no extra sampling.
        assert_eq!(first.get("cache_hits").unwrap().as_f64(), Some(1.0));
        let items = first.get("items").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(
            items[0].get("job").unwrap().as_str(),
            items[1].get("job").unwrap().as_str()
        );
        assert_eq!(items[1].get("cached"), Some(&Value::Bool(true)));
        let batch_id = first.get("id").unwrap().as_str().unwrap().to_owned();
        let _ = wait_batch_done(server.addr(), &batch_id);
        let sampled_before = server.state().metrics.job_wall_ms.count();
        let events_before = server.state().stats.events_seen();

        // Resubmitting the identical batch answers entirely from the
        // fit cache: done at submit, zero new sampling.
        let (status, second) = http(server.addr(), "POST", "/v1/batches", body);
        assert_eq!(status, 202, "{second}");
        let second = parse(&second).unwrap();
        assert_eq!(second.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(second.get("cache_hits").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            server.state().metrics.job_wall_ms.count(),
            sampled_before,
            "cached batch must not execute any job"
        );
        // `srm_serve_engine_events_total` counts job events only: two
        // cache-served jobs × (job-start, cache-hit, job-done); the
        // in-batch alias adds none.
        assert_eq!(server.state().stats.events_seen(), events_before + 6);
        let (_, page) = http(server.addr(), "GET", "/metrics", "");
        assert!(page.contains("srm_serve_batches_submitted_total 2"));
        assert!(page.contains("srm_serve_batch_items_total 6"));
        assert!(page.contains("srm_serve_batch_cache_hits_total 4"));
        assert!(page.contains("srm_serve_batches_active 0"));
        server.request_shutdown();
        let _ = server.join();
    }

    #[test]
    fn restart_recovers_the_batch_registry() {
        let dir = std::env::temp_dir().join(format!("srm_serve_batchwal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig {
            state_dir: Some(dir.to_string_lossy().into_owned()),
            workers: 1,
            ..ServerConfig::default()
        };

        let server = Server::start(config()).unwrap();
        let (status, body) = http(server.addr(), "POST", "/v1/batches", BATCH_BODY);
        assert_eq!(status, 202, "{body}");
        let batch_id = parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let done = wait_batch_done(server.addr(), &batch_id);
        server.request_shutdown();
        let _ = server.join();

        // The registry, per-item job links, and results all survive a
        // process death; new batch ids keep counting upward.
        let server = Server::start(config()).unwrap();
        let recovered = wait_batch_done(server.addr(), &batch_id);
        assert_eq!(
            recovered.get("items").unwrap().to_json(),
            done.get("items").unwrap().to_json()
        );
        assert_eq!(server.state().batches.allocate_id(), "batch-2");
        server.request_shutdown();
        let _ = server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_results_and_serves_repeats_from_cache() {
        let dir = std::env::temp_dir().join(format!("srm_serve_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServerConfig {
            state_dir: Some(dir.to_string_lossy().into_owned()),
            workers: 1,
            ..ServerConfig::default()
        };
        let body = r#"{"kind":"fit","dataset":"short_campaign_25","model":"model0",
            "chains":1,"samples":120,"burn_in":40,"seed":9}"#;

        let server = Server::start(config()).unwrap();
        let (status, submitted) = http(server.addr(), "POST", "/v1/jobs", body);
        assert_eq!(status, 202);
        let id = parse(&submitted)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(60);
        let first = loop {
            let (status, result) = http(server.addr(), "GET", &format!("/v1/results/{id}"), "");
            if status == 200 {
                break result;
            }
            assert_eq!(status, 202, "{result}");
            assert!(Instant::now() < deadline, "job did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        };
        server.request_shutdown();
        let _ = server.join();

        // Same state dir, new process-lifetime: the finished job, its
        // byte-identical result, and the fit cache all come back.
        let server = Server::start(config()).unwrap();
        let (status, recovered) = http(server.addr(), "GET", &format!("/v1/results/{id}"), "");
        assert_eq!(status, 200);
        assert_eq!(recovered, first);
        let (status, repeat) = http(server.addr(), "POST", "/v1/jobs", body);
        assert_eq!(status, 201, "{repeat}");
        assert!(matches!(
            parse(&repeat).unwrap().get("cached"),
            Some(Value::Bool(true))
        ));
        server.request_shutdown();
        let _ = server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
