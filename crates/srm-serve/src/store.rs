//! Crash-durable persistence for the serve tier.
//!
//! This module layers job/cache semantics over the generic primitives
//! in the `srm-store` crate: every [`JobStore`] transition and every
//! fit-cache insert is appended to a checksummed write-ahead log, and
//! a full-state snapshot is written (atomically) every
//! `snapshot_every` appends, after which the log is truncated. Boot
//! calls [`Persister::open`], which loads the snapshot, replays the
//! log over it (tolerating a torn tail), and returns the recovered
//! state plus the jobs that were queued or running when the process
//! died — the server re-queues those and, because cache keys are
//! content-addressed and the sampler is seed-deterministic, they
//! re-fit to bit-identical results.
//!
//! ## Recovery invariants
//!
//! 1. **Store first, log second.** Callers mutate the in-memory store
//!    and then append the WAL op. A snapshot collects live store
//!    state *while holding the WAL lock*, so every transition is in
//!    the snapshot, in the log, or (harmlessly) in both.
//! 2. **Replay is idempotent and monotone.** Each op carries enough
//!    to be applied standalone, and a job's status only moves forward
//!    (queued → running → terminal); re-applying an op a snapshot
//!    already captured cannot rewind a record.
//! 3. **Torn tails lose at most the unsynced suffix.** A record
//!    either replays whole or not at all (checksummed framing); an
//!    interrupted snapshot is invisible (temp file + rename).

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use srm_obs::json::{parse, Value};
use srm_obs::{lock_ignoring_poison, Counter};
use srm_store::{crash_point, load_snapshot, read_records, write_snapshot, SyncPolicy, WalWriter};

use crate::batch::{BatchRecord, BatchStore};
use crate::job::{id_number, JobKind, JobRecord, JobSpec, JobStatus, JobStore};
use crate::FitCache;

/// WAL file name inside the state directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.srm";
/// WAL appends between a server's snapshots.
pub(crate) const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Forward-only ordering on statuses: replaying an op can never move
/// a record backwards through its lifecycle.
fn status_rank(status: JobStatus) -> u8 {
    match status {
        JobStatus::Queued => 0,
        JobStatus::Running => 1,
        JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled => 2,
    }
}

/// One job's state as rebuilt by replay.
#[derive(Debug)]
struct ReplayJob {
    record: JobRecord,
    spec: Option<Value>,
}

/// Everything [`Persister::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Every job record, terminal ones with their result/error. Jobs
    /// that were queued or running have been reset to queued.
    pub jobs: Vec<JobRecord>,
    /// `(id, spec)` for jobs to put back on the queue, in submission
    /// order.
    pub pending: Vec<(String, JobSpec)>,
    /// Cache entries in recency order (least recently used first).
    pub cache: Vec<(String, Value)>,
    /// The job number the next allocation must use.
    pub next_id: u64,
    /// Batch registry records in wire form, ascending batch order.
    /// The server rebuilds [`BatchRecord`]s from these and recomputes
    /// each batch's pending-job set against the recovered job store.
    pub batches: Vec<Value>,
    /// The batch number the next allocation must use.
    pub next_batch_id: u64,
}

/// Counters the metrics endpoint exports for the persistence layer.
#[derive(Debug, Clone, Copy)]
pub struct WalStats {
    /// Bytes currently in the log (header included).
    pub bytes: u64,
    /// Records currently in the log (drops to 0 after a snapshot).
    pub records: u64,
    /// Records appended since boot (monotone, for
    /// `srm_wal_records_total`).
    pub appended: u64,
    /// Snapshots written since boot.
    pub snapshots: u64,
    /// Appends or snapshots that failed (state kept in memory only).
    pub errors: u64,
}

/// The serve tier's write-ahead log + snapshot manager.
///
/// All appends and snapshots serialize on one internal lock; the hot
/// path holds it only for an in-memory `write_all` (plus an
/// `fdatasync` under `--wal-sync always`).
#[derive(Debug)]
pub struct Persister {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
    /// Wire specs of not-yet-terminal jobs, so snapshots can persist
    /// enough to re-queue them after a crash.
    pending_specs: Mutex<HashMap<String, Value>>,
    snapshot_every: u64,
    appends_since_snapshot: AtomicU64,
    appended: Counter,
    snapshots: Counter,
    errors: Counter,
}

impl Persister {
    /// Opens (or initialises) a state directory: loads the snapshot,
    /// replays the WAL over it, compacts (fresh snapshot + truncated
    /// log), and returns the recovered state.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the directory cannot be created or
    /// the WAL cannot be opened for writing. Corrupt snapshots and
    /// torn WAL tails are *not* errors — they degrade to whatever
    /// valid prefix was recoverable.
    pub fn open(
        dir: &Path,
        policy: SyncPolicy,
        snapshot_every: u64,
    ) -> io::Result<(Self, RecoveredState)> {
        std::fs::create_dir_all(dir)?;
        // Keyed by the `N` of `job-N` / `batch-N`, so both come out in
        // ascending order; a record under any other id is skipped.
        let mut jobs: BTreeMap<u64, ReplayJob> = BTreeMap::new();
        let mut cache: Vec<(String, Value)> = Vec::new();
        let mut batches: BTreeMap<u64, Value> = BTreeMap::new();
        let mut next_id: u64 = 1;
        let mut next_batch_id: u64 = 1;

        if let Some(payload) = load_snapshot(&dir.join(SNAPSHOT_FILE))? {
            if let Ok(doc) = parse(&String::from_utf8_lossy(&payload)) {
                apply_snapshot(
                    &doc,
                    &mut jobs,
                    &mut cache,
                    &mut batches,
                    &mut next_id,
                    &mut next_batch_id,
                );
            }
        }
        let (records, report) = read_records(&dir.join(WAL_FILE))?;
        for payload in &records {
            if let Ok(op) = parse(&String::from_utf8_lossy(payload)) {
                apply_op(&op, &mut jobs, &mut cache, &mut batches);
            }
        }
        let wal = WalWriter::open(&dir.join(WAL_FILE), policy, &report)?;

        let mut recovered = RecoveredState {
            cache,
            ..RecoveredState::default()
        };
        if let Some((&last, _)) = batches.last_key_value() {
            next_batch_id = next_batch_id.max(last + 1);
        }
        recovered.batches = batches.into_values().collect();
        recovered.next_batch_id = next_batch_id;
        let mut pending_specs: HashMap<String, Value> = HashMap::new();
        for (n, mut job) in jobs {
            next_id = next_id.max(n + 1);
            if !job.record.status.is_terminal() {
                match job
                    .spec
                    .take()
                    .map(|wire| (JobSpec::from_wire(&wire), wire))
                {
                    Some((Ok(spec), wire)) => {
                        job.record.status = JobStatus::Queued;
                        pending_specs.insert(job.record.id.clone(), wire);
                        recovered.pending.push((job.record.id.clone(), spec));
                    }
                    _ => {
                        // The spec was lost or no longer validates;
                        // surface that instead of silently dropping
                        // the job.
                        job.record.status = JobStatus::Failed;
                        job.record.error = Some((
                            "recovery".to_owned(),
                            "job spec could not be recovered from the state directory".to_owned(),
                        ));
                    }
                }
            }
            recovered.jobs.push(job.record);
        }
        recovered.next_id = next_id;

        let persister = Self {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            pending_specs: Mutex::new(pending_specs),
            snapshot_every: snapshot_every.max(1),
            appends_since_snapshot: AtomicU64::new(0),
            appended: Counter::new(),
            snapshots: Counter::new(),
            errors: Counter::new(),
        };
        Ok((persister, recovered))
    }

    /// The state directory this persister writes to.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn append(&self, op: Value) {
        let _span = srm_obs::profile::span("wal-append");
        let payload = op.to_json();
        let mut wal = lock_ignoring_poison(&self.wal);
        if let Err(e) = wal.append(payload.as_bytes()) {
            // Durability degrades, service continues: the op stays in
            // memory and the next successful snapshot re-captures it.
            self.errors.incr();
            eprintln!("srm-serve: WAL append failed: {e}");
        }
        drop(wal);
        self.appended.incr();
        self.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
    }

    /// Logs a job submission (the full wire spec).
    pub fn record_submit(&self, id: &str, spec: &JobSpec) {
        let wire = spec.to_wire();
        lock_ignoring_poison(&self.pending_specs).insert(id.to_owned(), wire.clone());
        self.append(Value::obj(vec![
            ("op", Value::Str("submit".to_owned())),
            ("id", Value::Str(id.to_owned())),
            ("spec", wire),
        ]));
    }

    /// Logs a worker claiming a job (queued → running).
    pub fn record_claim(&self, id: &str) {
        self.append(Value::obj(vec![
            ("op", Value::Str("claim".to_owned())),
            ("id", Value::Str(id.to_owned())),
        ]));
    }

    /// Logs a terminal transition, carrying the whole outcome so the
    /// op can rebuild the record standalone (cache-served jobs never
    /// had a `submit` op).
    pub fn record_terminal(&self, record: &JobRecord) {
        lock_ignoring_poison(&self.pending_specs).remove(&record.id);
        let op = match record.status {
            JobStatus::Done => "done",
            JobStatus::Failed => "fail",
            JobStatus::Cancelled => "cancel",
            JobStatus::Queued | JobStatus::Running => return,
        };
        let mut fields: Vec<(&str, Value)> = vec![
            ("op", Value::Str(op.to_owned())),
            ("id", Value::Str(record.id.clone())),
            ("kind", Value::Str(record.kind.label().to_owned())),
            ("key", Value::Str(record.cache_key.clone())),
            ("cached", Value::Bool(record.cached)),
            ("wall_ms", Value::Num(record.wall_ms)),
        ];
        if !record.trace_id.is_empty() {
            fields.push(("trace_id", Value::Str(record.trace_id.clone())));
        }
        if let Some(result) = &record.result {
            fields.push(("result", result.clone()));
        }
        if let Some((kind, message)) = &record.error {
            fields.push(("error_kind", Value::Str(kind.clone())));
            fields.push(("error_message", Value::Str(message.clone())));
        }
        self.append(Value::obj(fields));
    }

    /// Logs a batch registration (the full wire record). Batch
    /// membership never changes after submit, so one op per batch is
    /// the whole registry trail; item jobs persist through their own
    /// ops.
    pub fn record_batch(&self, record: &BatchRecord) {
        self.append(Value::obj(vec![
            ("op", Value::Str("batch".to_owned())),
            ("batch", record.to_wire()),
        ]));
    }

    /// Logs the removal of a record whose queue push was rejected
    /// after the id was allocated (429), so replay drops it too.
    pub fn record_drop(&self, id: &str) {
        lock_ignoring_poison(&self.pending_specs).remove(id);
        self.append(Value::obj(vec![
            ("op", Value::Str("drop".to_owned())),
            ("id", Value::Str(id.to_owned())),
        ]));
    }

    /// Writes a snapshot and truncates the log if `snapshot_every`
    /// appends have accumulated. Call after terminal transitions.
    pub fn maybe_snapshot(&self, store: &JobStore, cache: &FitCache, batches: &BatchStore) {
        if self.appends_since_snapshot.load(Ordering::Relaxed) >= self.snapshot_every {
            self.snapshot_now(store, cache, batches);
        }
    }

    /// Unconditionally snapshots live state and truncates the log.
    ///
    /// The WAL lock is held across collect + write + truncate: every
    /// transition that reached the store before collection is in the
    /// snapshot; any that had not yet appended lands in the fresh log
    /// and replays idempotently over the snapshot.
    pub fn snapshot_now(&self, store: &JobStore, cache: &FitCache, batches: &BatchStore) {
        let mut wal = lock_ignoring_poison(&self.wal);
        let doc = {
            let pending = lock_ignoring_poison(&self.pending_specs);
            snapshot_doc(store, cache, batches, &pending)
        };
        crash_point("snapshot-write");
        if let Err(e) = write_snapshot(&self.dir.join(SNAPSHOT_FILE), doc.to_json().as_bytes()) {
            self.errors.incr();
            eprintln!("srm-serve: snapshot write failed: {e}");
            return;
        }
        if let Err(e) = wal.reset() {
            self.errors.incr();
            eprintln!("srm-serve: WAL truncate failed: {e}");
            return;
        }
        drop(wal);
        self.appends_since_snapshot.store(0, Ordering::Relaxed);
        self.snapshots.incr();
    }

    /// Current log/snapshot counters for `/metrics`.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        let wal = lock_ignoring_poison(&self.wal);
        WalStats {
            bytes: wal.bytes(),
            records: wal.records(),
            appended: self.appended.get(),
            snapshots: self.snapshots.get(),
            errors: self.errors.get(),
        }
    }
}

/// Serialises the full live state.
fn snapshot_doc(
    store: &JobStore,
    cache: &FitCache,
    batches: &BatchStore,
    pending: &HashMap<String, Value>,
) -> Value {
    let jobs: Vec<Value> = store
        .all_records()
        .into_iter()
        .map(|record| {
            let mut fields: Vec<(&str, Value)> = vec![
                ("id", Value::Str(record.id.clone())),
                ("kind", Value::Str(record.kind.label().to_owned())),
                ("key", Value::Str(record.cache_key.clone())),
                ("status", Value::Str(record.status.label().to_owned())),
                ("cached", Value::Bool(record.cached)),
                ("wall_ms", Value::Num(record.wall_ms)),
            ];
            if !record.trace_id.is_empty() {
                fields.push(("trace_id", Value::Str(record.trace_id.clone())));
            }
            if let Some(spec) = pending.get(&record.id) {
                fields.push(("spec", spec.clone()));
            }
            if let Some(result) = &record.result {
                fields.push(("result", result.clone()));
            }
            if let Some((kind, message)) = &record.error {
                fields.push(("error_kind", Value::Str(kind.clone())));
                fields.push(("error_message", Value::Str(message.clone())));
            }
            Value::obj(fields)
        })
        .collect();
    let cache_entries: Vec<Value> = cache
        .entries()
        .into_iter()
        .map(|(key, result)| Value::obj(vec![("key", Value::Str(key)), ("result", result)]))
        .collect();
    let batch_entries: Vec<Value> = batches
        .all_records()
        .into_iter()
        .map(|record| record.to_wire())
        .collect();
    Value::obj(vec![
        ("version", Value::Num(1.0)),
        ("next_id", Value::Num(store.next_job_number() as f64)),
        (
            "next_batch_id",
            Value::Num(batches.next_batch_number() as f64),
        ),
        ("jobs", Value::Arr(jobs)),
        ("cache", Value::Arr(cache_entries)),
        ("batches", Value::Arr(batch_entries)),
    ])
}

/// Rebuilds a replay map from a snapshot document. Malformed entries
/// are skipped — a snapshot is a best-effort floor, the WAL replays
/// on top.
fn apply_snapshot(
    doc: &Value,
    jobs: &mut BTreeMap<u64, ReplayJob>,
    cache: &mut Vec<(String, Value)>,
    batches: &mut BTreeMap<u64, Value>,
    next_id: &mut u64,
    next_batch_id: &mut u64,
) {
    if let Some(n) = doc.get("next_id").and_then(Value::as_f64) {
        if n >= 1.0 {
            *next_id = n as u64;
        }
    }
    if let Some(n) = doc.get("next_batch_id").and_then(Value::as_f64) {
        if n >= 1.0 {
            *next_batch_id = n as u64;
        }
    }
    for entry in doc.get("jobs").and_then(Value::as_arr).unwrap_or(&[]) {
        let Some((n, job)) = replay_job_from(entry) else {
            continue;
        };
        jobs.insert(n, job);
    }
    for entry in doc.get("cache").and_then(Value::as_arr).unwrap_or(&[]) {
        let (Some(key), Some(result)) = (
            entry.get("key").and_then(Value::as_str),
            entry.get("result"),
        ) else {
            continue;
        };
        cache.push((key.to_owned(), result.clone()));
    }
    for entry in doc.get("batches").and_then(Value::as_arr).unwrap_or(&[]) {
        let Some(n) = batch_number_of(entry) else {
            continue;
        };
        batches.insert(n, entry.clone());
    }
}

/// The `N` of a batch wire record's `batch-N` id.
fn batch_number_of(wire: &Value) -> Option<u64> {
    id_number(wire.get("id")?.as_str()?, "batch-")
}

/// Builds a [`ReplayJob`], with its job number, from a snapshot job
/// entry or a terminal WAL op (both carry the same field names).
fn replay_job_from(entry: &Value) -> Option<(u64, ReplayJob)> {
    let id = entry.get("id").and_then(Value::as_str)?;
    let n = id_number(id, "job-")?;
    let kind = JobKind::parse(entry.get("kind").and_then(Value::as_str).unwrap_or(""))?;
    let key = entry.get("key").and_then(Value::as_str).unwrap_or("");
    let status = JobStatus::parse(entry.get("status").and_then(Value::as_str).unwrap_or(""))?;
    let mut record = JobRecord::new(id.to_owned(), kind, key.to_owned(), status);
    record.cached = entry.get("cached") == Some(&Value::Bool(true));
    record.wall_ms = entry.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
    if let Some(trace_id) = entry.get("trace_id").and_then(Value::as_str) {
        record.trace_id = trace_id.to_owned();
    }
    record.result = entry.get("result").cloned();
    if let Some(kind) = entry.get("error_kind").and_then(Value::as_str) {
        let message = entry
            .get("error_message")
            .and_then(Value::as_str)
            .unwrap_or("");
        record.error = Some((kind.to_owned(), message.to_owned()));
    }
    Some((
        n,
        ReplayJob {
            record,
            spec: entry.get("spec").cloned(),
        },
    ))
}

/// Applies one WAL op to the replay map. Ops are idempotent and
/// status-monotone, so replaying an op the snapshot already captured
/// is a no-op.
fn apply_op(
    op: &Value,
    jobs: &mut BTreeMap<u64, ReplayJob>,
    cache: &mut Vec<(String, Value)>,
    batches: &mut BTreeMap<u64, Value>,
) {
    let Some(name) = op.get("op").and_then(Value::as_str) else {
        return;
    };
    if name == "batch" {
        if let Some(wire) = op.get("batch") {
            if let Some(n) = batch_number_of(wire) {
                batches.insert(n, wire.clone());
            }
        }
        return;
    }
    let Some(id) = op.get("id").and_then(Value::as_str) else {
        return;
    };
    let Some(n) = id_number(id, "job-") else {
        return;
    };
    match name {
        "submit" => {
            let Some(spec_wire) = op.get("spec") else {
                return;
            };
            let Ok(spec) = JobSpec::from_wire(spec_wire) else {
                return;
            };
            jobs.entry(n).or_insert_with(|| ReplayJob {
                record: JobRecord::new(
                    id.to_owned(),
                    spec.kind,
                    spec.cache_key(),
                    JobStatus::Queued,
                )
                .with_trace_id(&spec.trace_id),
                spec: Some(spec_wire.clone()),
            });
        }
        "claim" => {
            if let Some(job) = jobs.get_mut(&n) {
                if status_rank(JobStatus::Running) >= status_rank(job.record.status) {
                    job.record.status = JobStatus::Running;
                }
            }
        }
        "done" | "fail" | "cancel" => {
            let status = match name {
                "done" => "done",
                "fail" => "failed",
                _ => "cancelled",
            };
            // Terminal ops carry the whole outcome; synthesise the
            // `status` field and reuse the snapshot-entry shape.
            let mut fields: Vec<(&str, Value)> = vec![("status", Value::Str(status.to_owned()))];
            for name in [
                "id",
                "kind",
                "key",
                "cached",
                "wall_ms",
                "trace_id",
                "result",
                "error_kind",
                "error_message",
            ] {
                if let Some(value) = op.get(name) {
                    fields.push((name, value.clone()));
                }
            }
            let Some((_, job)) = replay_job_from(&Value::obj(fields)) else {
                return;
            };
            if name == "done" && !job.record.cached {
                if let Some(result) = &job.record.result {
                    cache.retain(|(key, _)| key != &job.record.cache_key);
                    cache.push((job.record.cache_key.clone(), result.clone()));
                }
            }
            match jobs.get_mut(&n) {
                Some(existing) => {
                    if status_rank(job.record.status) >= status_rank(existing.record.status) {
                        existing.record = job.record;
                        existing.spec = None;
                    }
                }
                None => {
                    jobs.insert(n, job);
                }
            }
        }
        "drop" => {
            jobs.remove(&n);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::json::parse;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srm_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fit_spec(seed: u64) -> JobSpec {
        let body = parse(&format!(
            r#"{{"kind":"fit","dataset":"musa_cc96","chains":1,"samples":50,"burn_in":10,"seed":{seed}}}"#
        ))
        .unwrap();
        JobSpec::from_json(&body).unwrap()
    }

    fn done_record(id: &str, spec: &JobSpec, tag: f64) -> JobRecord {
        let mut record =
            JobRecord::new(id.to_owned(), spec.kind, spec.cache_key(), JobStatus::Done);
        record.result = Some(Value::obj(vec![("answer", Value::Num(tag))]));
        record.wall_ms = 12.5;
        record
    }

    #[test]
    fn submit_claim_done_replays_to_a_done_record_with_cache_entry() {
        let dir = temp_dir("lifecycle");
        let spec = fit_spec(7);
        {
            let (p, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            assert!(recovered.jobs.is_empty());
            assert_eq!(recovered.next_id, 1);
            p.record_submit("job-1", &spec);
            p.record_claim("job-1");
            p.record_terminal(&done_record("job-1", &spec, 42.0));
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        let job = &recovered.jobs[0];
        assert_eq!(job.status, JobStatus::Done);
        assert_eq!(job.wall_ms, 12.5);
        assert!(recovered.pending.is_empty());
        assert_eq!(recovered.cache.len(), 1);
        assert_eq!(recovered.cache[0].0, spec.cache_key());
        assert_eq!(recovered.next_id, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_flight_jobs_come_back_as_pending_with_equal_specs() {
        let dir = temp_dir("pending");
        let spec = fit_spec(11);
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            p.record_submit("job-1", &spec);
            p.record_claim("job-1"); // running when the process dies
            p.record_submit("job-2", &spec); // still queued
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.pending.len(), 2);
        assert_eq!(recovered.pending[0].0, "job-1");
        assert_eq!(recovered.pending[1].0, "job-2");
        for (_, recovered_spec) in &recovered.pending {
            assert_eq!(recovered_spec.cache_key(), spec.cache_key());
            assert_eq!(recovered_spec.to_wire().to_json(), spec.to_wire().to_json());
        }
        for job in &recovered.jobs {
            assert_eq!(job.status, JobStatus::Queued);
        }
        assert_eq!(recovered.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_the_log_and_preserves_state() {
        let dir = temp_dir("compact");
        let spec = fit_spec(13);
        let store = JobStore::new();
        let cache = FitCache::with_capacity(8);
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            store.set_next_id(3);
            let record = done_record("job-1", &spec, 1.0);
            cache.insert(
                &record.cache_key,
                Value::obj(vec![("answer", Value::Num(1.0))]),
            );
            store.insert(record.clone());
            p.record_submit("job-1", &spec);
            p.record_claim("job-1");
            p.record_terminal(&record);
            assert!(p.stats().records >= 3);
            p.snapshot_now(&store, &cache, &BatchStore::new());
            let stats = p.stats();
            assert_eq!(stats.records, 0, "log should be truncated");
            assert_eq!(stats.snapshots, 1);
            assert_eq!(stats.errors, 0);
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        assert_eq!(recovered.jobs[0].status, JobStatus::Done);
        assert_eq!(recovered.cache.len(), 1);
        assert_eq!(recovered.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaying_an_op_already_in_the_snapshot_is_idempotent() {
        let dir = temp_dir("idempotent");
        let spec = fit_spec(17);
        let store = JobStore::new();
        let cache = FitCache::with_capacity(8);
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            let record = done_record("job-1", &spec, 5.0);
            store.insert(record.clone());
            p.record_submit("job-1", &spec);
            p.record_terminal(&record);
            p.snapshot_now(&store, &cache, &BatchStore::new());
            // Crash between store mutation and snapshot can leave the
            // same terminal op in both snapshot and (fresh) WAL.
            p.record_terminal(&record);
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        assert_eq!(recovered.jobs[0].status, JobStatus::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_claim_replayed_after_a_terminal_op_does_not_rewind() {
        let dir = temp_dir("monotone");
        let spec = fit_spec(19);
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            p.record_submit("job-1", &spec);
            let mut record = done_record("job-1", &spec, 2.0);
            record.status = JobStatus::Cancelled;
            record.result = None;
            p.record_terminal(&record);
            // A duplicated claim op after the cancel (e.g. from an op
            // captured by both snapshot and log) must not resurrect
            // the job.
            p.record_claim("job-1");
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        assert_eq!(recovered.jobs[0].status, JobStatus::Cancelled);
        assert!(recovered.pending.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_ids_survive_replay_through_wal_and_snapshot() {
        let dir = temp_dir("traceid");
        let mut spec = fit_spec(37);
        spec.trace_id = "0123456789abcdef0123456789abcdef".into();
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            p.record_submit("job-1", &spec);
            let record =
                done_record("job-2", &spec, 9.0).with_trace_id("fedcba9876543210fedcba9876543210");
            p.record_submit("job-2", &spec);
            p.record_terminal(&record);
        }
        // WAL replay restores both the pending and the terminal ids.
        let store = JobStore::new();
        let cache = FitCache::with_capacity(8);
        {
            let (p, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            assert_eq!(recovered.jobs[0].trace_id, spec.trace_id);
            assert_eq!(
                recovered.jobs[1].trace_id,
                "fedcba9876543210fedcba9876543210"
            );
            assert_eq!(recovered.pending[0].1.trace_id, spec.trace_id);
            for job in recovered.jobs {
                store.insert(job);
            }
            // Compact: the ids must survive the snapshot path too.
            p.snapshot_now(&store, &cache, &BatchStore::new());
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.jobs[0].trace_id, spec.trace_id);
        assert_eq!(
            recovered.jobs[1].trace_id,
            "fedcba9876543210fedcba9876543210"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_submissions_leave_no_trace_after_replay() {
        let dir = temp_dir("drop");
        let spec = fit_spec(23);
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            p.record_submit("job-1", &spec);
            p.record_drop("job-1");
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert!(recovered.jobs.is_empty());
        assert!(recovered.pending.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_wal_tail_recovers_the_valid_prefix() {
        let dir = temp_dir("torn");
        let spec = fit_spec(29);
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            p.record_submit("job-1", &spec);
            p.record_terminal(&done_record("job-1", &spec, 3.0));
        }
        // Simulate a crash mid-append: garbage after the last record.
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        file.write_all(&[0x7f, 0x00, 0x01, 0x02]).unwrap();
        drop(file);
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        assert_eq!(recovered.jobs[0].status, JobStatus::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_ops_replay_through_log_and_snapshot() {
        use crate::batch::{BatchItemRef, BatchRecord, BatchStore};
        let dir = temp_dir("batch");
        let record = BatchRecord {
            id: "batch-3".to_owned(),
            master_seed: 42,
            items: vec![BatchItemRef {
                label: "a".to_owned(),
                job_id: "job-1".to_owned(),
                seed: 7,
                cached: false,
            }],
            cache_hits: 0,
            remaining: 1,
        };
        {
            let (p, _) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            p.record_batch(&record);
        }
        // Replayed from the WAL alone.
        let batches = BatchStore::new();
        {
            let (p, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
            assert_eq!(recovered.batches.len(), 1);
            assert_eq!(recovered.next_batch_id, 4);
            let back = BatchRecord::from_wire(&recovered.batches[0]).unwrap();
            assert_eq!(back.id, "batch-3");
            assert_eq!(back.items[0].job_id, "job-1");
            batches.insert(back, &[]);
            // Compact: the batch must survive via the snapshot too.
            p.snapshot_now(&JobStore::new(), &FitCache::with_capacity(4), &batches);
            assert_eq!(p.stats().records, 0);
        }
        let (_, recovered) = Persister::open(&dir, SyncPolicy::Never, 1_000).unwrap();
        assert_eq!(recovered.batches.len(), 1);
        assert_eq!(recovered.next_batch_id, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maybe_snapshot_honours_the_cadence() {
        let dir = temp_dir("cadence");
        let spec = fit_spec(31);
        let store = JobStore::new();
        let cache = FitCache::with_capacity(8);
        let (p, _) = Persister::open(&dir, SyncPolicy::Never, 3).unwrap();
        p.record_submit("job-1", &spec);
        p.maybe_snapshot(&store, &cache, &BatchStore::new());
        assert_eq!(p.stats().snapshots, 0, "below cadence: no snapshot");
        p.record_claim("job-1");
        p.record_terminal(&done_record("job-1", &spec, 1.0));
        p.maybe_snapshot(&store, &cache, &BatchStore::new());
        assert_eq!(p.stats().snapshots, 1, "cadence reached: snapshot");
        assert_eq!(p.stats().records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
