//! Job specifications, lifecycle states, and the in-memory job store.
//!
//! A job is one estimation request — `fit`, `select`, or `predict` —
//! parsed from the `POST /v1/jobs` JSON body into a [`JobSpec`]. The
//! spec's [`cache_key`](JobSpec::cache_key) is the content address
//! used by the fit cache: FNV-1a over every field that determines the
//! posterior bit-for-bit (dataset hash, model, prior family + limits,
//! MCMC shape, seed, horizon/θ_max), and nothing that does not
//! (thread count, timeout, and — for `select`, which sweeps all five
//! models — the request's irrelevant `model` field).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use srm_data::BugCountData;
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::McmcConfig;
use srm_model::DetectionModel;
use srm_obs::json::Value;
use srm_obs::{dataset_hash, fnv1a_hex, lock_ignoring_poison, StatsCollector};

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One model/prior fit with posterior summary and WAIC.
    Fit,
    /// WAIC comparison across all five detection models.
    Select,
    /// Reliability and expected detections over a future horizon.
    Predict,
}

impl JobKind {
    /// The wire label (`fit` / `select` / `predict`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Fit => "fit",
            Self::Select => "select",
            Self::Predict => "predict",
        }
    }

    /// Parses the wire label back into a kind.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "fit" => Some(Self::Fit),
            "select" => Some(Self::Select),
            "predict" => Some(Self::Predict),
            _ => None,
        }
    }
}

/// A fully validated job request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// Where the data came from (`dataset` name or `inline`).
    pub dataset_label: String,
    /// The bug-count data to fit.
    pub data: BugCountData,
    /// Detection model (ignored by `select`, which sweeps all five).
    pub model: DetectionModel,
    /// Prior on the initial bug content.
    pub prior: PriorSpec,
    /// MCMC run lengths and seed.
    pub mcmc: McmcConfig,
    /// Worker threads for parallel chains (0 = auto). Not part of the
    /// cache key: any value yields bit-identical results.
    pub threads: usize,
    /// Prediction horizon in days (`predict` only).
    pub horizon: usize,
    /// ζ-bound for `select` (mirrors the CLI's `--theta-max`).
    pub theta_max: f64,
    /// Cooperative timeout; checked at phase boundaries, not
    /// mid-sampling.
    pub timeout_ms: Option<u64>,
    /// Correlation id of the originating request (canonical 32-hex
    /// form; empty until the server mints or restores one). Never
    /// part of the cache key: correlation must not split the cache.
    pub trace_id: String,
}

fn num_field(body: &Value, name: &str) -> Result<Option<f64>, String> {
    match body.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("field `{name}` must be a number")),
    }
}

fn usize_field(body: &Value, name: &str, default: usize) -> Result<usize, String> {
    match num_field(body, name)? {
        None => Ok(default),
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(n as usize),
        Some(n) => Err(format!(
            "field `{name}` must be a non-negative integer, got {n}"
        )),
    }
}

impl JobSpec {
    /// Parses and validates a `POST /v1/jobs` body.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message on a missing/unknown `kind`,
    /// missing or malformed data, unknown model/prior, or run lengths
    /// the sampler cannot execute.
    pub fn from_json(body: &Value) -> Result<Self, String> {
        let kind_label = body
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing field `kind` (fit|select|predict)")?;
        let kind = JobKind::parse(kind_label)
            .ok_or_else(|| format!("unknown kind `{kind_label}` (fit|select|predict)"))?;

        let (dataset_label, data) = parse_data(body)?;

        let model_name = body
            .get("model")
            .and_then(Value::as_str)
            .unwrap_or("model1");
        let model = DetectionModel::ALL
            .into_iter()
            .find(|m| m.name() == model_name)
            .ok_or_else(|| format!("unknown model `{model_name}` (model0..model4)"))?;

        let prior = match body
            .get("prior")
            .and_then(Value::as_str)
            .unwrap_or("poisson")
        {
            "poisson" => PriorSpec::Poisson {
                lambda_max: num_field(body, "lambda_max")?.unwrap_or(2_000.0),
            },
            "negbinom" => PriorSpec::NegBinomial {
                alpha_max: num_field(body, "alpha_max")?.unwrap_or(100.0),
            },
            other => return Err(format!("unknown prior `{other}` (poisson|negbinom)")),
        };

        let mcmc = McmcConfig {
            chains: usize_field(body, "chains", 4)?,
            burn_in: usize_field(body, "burn_in", 1_000)?,
            samples: usize_field(body, "samples", 4_000)?,
            thin: usize_field(body, "thin", 1)?,
            seed: usize_field(body, "seed", 2_024)? as u64,
        };
        for (name, value) in [
            ("chains", mcmc.chains),
            ("samples", mcmc.samples),
            ("thin", mcmc.thin),
        ] {
            if value == 0 {
                return Err(format!("field `{name}` must be at least 1"));
            }
        }

        let horizon = usize_field(body, "horizon", 30)?;
        if kind == JobKind::Predict && horizon == 0 {
            return Err("field `horizon` must be at least 1".into());
        }
        let theta_max = num_field(body, "theta_max")?.unwrap_or(10.0);
        let timeout_ms = match usize_field(body, "timeout_ms", 0)? {
            0 => None,
            ms => Some(ms as u64),
        };

        Ok(Self {
            kind,
            dataset_label,
            data,
            model,
            prior,
            mcmc,
            threads: usize_field(body, "threads", 0)?,
            horizon,
            theta_max,
            timeout_ms,
            trace_id: String::new(),
        })
    }

    /// Serialises the spec for the write-ahead log and snapshots.
    ///
    /// The wire document is a valid `POST /v1/jobs` body (data always
    /// inline as `counts`, every default resolved) plus a
    /// `dataset_label` field so replay restores the original label
    /// instead of reporting `inline`. All numeric fields are bounded
    /// by `u32::MAX` at parse time, so the f64 JSON numbers round-trip
    /// exactly.
    #[must_use]
    pub fn to_wire(&self) -> Value {
        let mut fields: Vec<(&str, Value)> = vec![
            ("kind", Value::Str(self.kind.label().to_owned())),
            ("dataset_label", Value::Str(self.dataset_label.clone())),
            (
                "counts",
                Value::Arr(
                    self.data
                        .counts()
                        .iter()
                        .map(|&c| Value::Num(c as f64))
                        .collect(),
                ),
            ),
            ("model", Value::Str(self.model.name().to_owned())),
        ];
        match self.prior {
            PriorSpec::Poisson { lambda_max } => {
                fields.push(("prior", Value::Str("poisson".to_owned())));
                fields.push(("lambda_max", Value::Num(lambda_max)));
            }
            PriorSpec::NegBinomial { alpha_max } => {
                fields.push(("prior", Value::Str("negbinom".to_owned())));
                fields.push(("alpha_max", Value::Num(alpha_max)));
            }
        }
        fields.extend([
            ("chains", Value::Num(self.mcmc.chains as f64)),
            ("burn_in", Value::Num(self.mcmc.burn_in as f64)),
            ("samples", Value::Num(self.mcmc.samples as f64)),
            ("thin", Value::Num(self.mcmc.thin as f64)),
            ("seed", Value::Num(self.mcmc.seed as f64)),
            ("threads", Value::Num(self.threads as f64)),
            ("horizon", Value::Num(self.horizon as f64)),
            ("theta_max", Value::Num(self.theta_max)),
            (
                "timeout_ms",
                self.timeout_ms
                    .map_or(Value::Null, |ms| Value::Num(ms as f64)),
            ),
            ("trace_id", Value::Str(self.trace_id.clone())),
        ]);
        Value::obj(fields)
    }

    /// Rebuilds a spec from its [`to_wire`](JobSpec::to_wire) form,
    /// running the full request validation.
    ///
    /// # Errors
    ///
    /// Returns the same user-facing messages as
    /// [`from_json`](JobSpec::from_json) when the stored document no
    /// longer validates (e.g. hand-edited state files).
    pub fn from_wire(body: &Value) -> Result<Self, String> {
        let mut spec = Self::from_json(body)?;
        if let Some(label) = body.get("dataset_label").and_then(Value::as_str) {
            spec.dataset_label = label.to_owned();
        }
        // Absent in pre-v7 WAL frames; replay restores what was there
        // and leaves the id empty otherwise — either way the fields
        // never influence validation or the cache key.
        if let Some(trace_id) = body.get("trace_id").and_then(Value::as_str) {
            spec.trace_id = trace_id.to_owned();
        }
        Ok(spec)
    }

    /// The content address of this job's result: an FNV-1a digest of
    /// every input that determines the posterior bit-for-bit. Thread
    /// count and timeout are excluded on purpose — neither changes a
    /// single bit of the output. `select` additionally omits the model
    /// field: it sweeps all five models regardless of what the request
    /// happened to carry.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let prior_part = match self.prior {
            PriorSpec::Poisson { lambda_max } => format!("poisson:{lambda_max}"),
            PriorSpec::NegBinomial { alpha_max } => format!("negbinom:{alpha_max}"),
        };
        let mut canonical = format!(
            "kind={};data={};prior={};chains={};burn_in={};samples={};thin={};seed={}",
            self.kind.label(),
            dataset_hash(self.data.counts()),
            prior_part,
            self.mcmc.chains,
            self.mcmc.burn_in,
            self.mcmc.samples,
            self.mcmc.thin,
            self.mcmc.seed,
        );
        match self.kind {
            JobKind::Fit => canonical.push_str(&format!(";model={}", self.model.name())),
            JobKind::Select => canonical.push_str(&format!(";theta_max={}", self.theta_max)),
            JobKind::Predict => canonical.push_str(&format!(
                ";model={};horizon={}",
                self.model.name(),
                self.horizon
            )),
        }
        fnv1a_hex(canonical.as_bytes())
    }
}

fn parse_data(body: &Value) -> Result<(String, BugCountData), String> {
    match (body.get("dataset"), body.get("counts")) {
        (Some(_), Some(_)) => Err("`dataset` and `counts` are mutually exclusive".into()),
        (Some(name), None) => {
            let name = name
                .as_str()
                .ok_or("field `dataset` must be a string")?
                .to_owned();
            let data = srm_data::datasets::all_named()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, d)| d)
                .ok_or_else(|| {
                    let names: Vec<&str> = srm_data::datasets::all_named()
                        .into_iter()
                        .map(|(n, _)| n)
                        .collect();
                    format!("unknown dataset `{name}` (one of: {})", names.join(", "))
                })?;
            let data = match usize_field(body, "truncate", 0)? {
                0 => data,
                day => data
                    .truncated(day)
                    .map_err(|e| format!("bad `truncate`: {e}"))?,
            };
            Ok((name, data))
        }
        (None, Some(counts)) => {
            let items = counts.as_arr().ok_or("field `counts` must be an array")?;
            let mut daily = Vec::with_capacity(items.len());
            for item in items {
                // Same per-value bound as `usize_field`: u32::MAX per
                // day keeps the cumulative sum far from u64 overflow.
                match item.as_f64() {
                    Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => {
                        daily.push(n as u64);
                    }
                    _ => {
                        return Err(format!(
                            "`counts` entries must be non-negative integers <= {}",
                            u32::MAX
                        ))
                    }
                }
            }
            let data = BugCountData::new(daily).map_err(|e| format!("bad `counts`: {e}"))?;
            Ok(("inline".into(), data))
        }
        (None, None) => Err("missing data: provide `dataset` (a named dataset) or `counts`".into()),
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Being computed.
    Running,
    /// Finished; result available under `/v1/results/{id}`.
    Done,
    /// Failed; error kind/message recorded.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// The wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        }
    }

    /// Parses the wire label back into a status.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "queued" => Some(Self::Queued),
            "running" => Some(Self::Running),
            "done" => Some(Self::Done),
            "failed" => Some(Self::Failed),
            "cancelled" => Some(Self::Cancelled),
            _ => None,
        }
    }

    /// Whether the job can no longer change state (done, failed, or
    /// cancelled). Only terminal records are eligible for eviction.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Failed | Self::Cancelled)
    }
}

/// One job's record in the store.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (`job-N`).
    pub id: String,
    /// What the job computes.
    pub kind: JobKind,
    /// Content address of the result.
    pub cache_key: String,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Whether the result came from the cache without sampling.
    pub cached: bool,
    /// Set by `DELETE /v1/jobs/{id}`; honoured at phase boundaries.
    pub cancel_requested: bool,
    /// The result document, once done.
    pub result: Option<Value>,
    /// Failure `(kind, message)` using the engine's error taxonomy
    /// (plus the server-level `timeout`).
    pub error: Option<(String, String)>,
    /// Wall-clock milliseconds spent computing (0 for cache hits).
    pub wall_ms: f64,
    /// Correlation id of the submitting request (empty for records
    /// recovered from pre-v7 state).
    pub trace_id: String,
    /// The job's own stats collector, attached when a worker claims
    /// the job. It receives every engine event — including streaming
    /// `diagnostic-checkpoint`s — and backs
    /// `GET /v1/jobs/{id}/progress` and the per-job `/metrics` gauges.
    /// Kept after completion so the final checkpoint stays queryable.
    pub progress: Option<Arc<StatsCollector>>,
}

impl JobRecord {
    /// A fresh record in the given state.
    #[must_use]
    pub fn new(id: String, kind: JobKind, cache_key: String, status: JobStatus) -> Self {
        Self {
            id,
            kind,
            cache_key,
            status,
            cached: false,
            cancel_requested: false,
            result: None,
            error: None,
            wall_ms: 0.0,
            trace_id: String::new(),
            progress: None,
        }
    }

    /// Sets the correlation id (builder-style, used at submission).
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: &str) -> Self {
        self.trace_id = trace_id.to_owned();
        self
    }

    /// The `GET /v1/jobs/{id}` document.
    #[must_use]
    pub fn status_value(&self) -> Value {
        Value::obj(vec![
            ("id", Value::Str(self.id.clone())),
            ("trace_id", Value::Str(self.trace_id.clone())),
            ("kind", Value::Str(self.kind.label().to_owned())),
            ("status", Value::Str(self.status.label().to_owned())),
            ("cached", Value::Bool(self.cached)),
            ("cache_key", Value::Str(self.cache_key.clone())),
            ("wall_ms", Value::Num(self.wall_ms)),
            (
                "error",
                self.error.as_ref().map_or(Value::Null, |(kind, message)| {
                    Value::obj(vec![
                        ("kind", Value::Str(kind.clone())),
                        ("message", Value::Str(message.clone())),
                    ])
                }),
            ),
        ])
    }
}

/// The `N` of a canonical `{prefix}N` id (`job-7` with prefix `job-`
/// is 7); `None` for anything else, including `job-07` and `job-+7`,
/// which name no job the server minted.
pub(crate) fn id_number(id: &str, prefix: &str) -> Option<u64> {
    let digits = id.strip_prefix(prefix)?;
    if digits.starts_with(['+', '0']) {
        return None;
    }
    digits.parse().ok()
}

/// Records keyed by the `N` of their id, keeping at most `limit`
/// finished ones: the earliest to finish is evicted first, and a record
/// that has not finished is never evicted. The job store and the batch
/// registry share this retention policy.
#[derive(Debug)]
pub(crate) struct Registry<T> {
    /// Every retained record, keyed by the `N` of its id.
    pub(crate) records: BTreeMap<u64, T>,
    /// Numbers of the finished records, in the order they finished.
    finished: VecDeque<u64>,
    limit: usize,
}

impl<T> Registry<T> {
    pub(crate) fn new(limit: usize) -> Self {
        Self {
            records: BTreeMap::new(),
            finished: VecDeque::new(),
            limit: limit.max(1),
        }
    }

    /// Notes that record `n` has just finished, evicting the earliest
    /// finished records beyond the limit.
    pub(crate) fn finish(&mut self, n: u64) {
        self.finished.push_back(n);
        while self.finished.len() > self.limit {
            if let Some(oldest) = self.finished.pop_front() {
                self.records.remove(&oldest);
            }
        }
    }
}

/// Thread-safe registry of the jobs the server has seen: one lock
/// over every record, ordered by job number.
///
/// One lock is enough: a per-job call holds it for microseconds, while
/// each request that makes one costs hundreds of microseconds of CPU
/// (accept, parse, route, serialize).
///
/// Retention is bounded: at most the [`with_limit`](JobStore::with_limit)
/// count of terminal records ([`JobStatus::is_terminal`]) are kept, and
/// the earliest to finish is evicted first — a long-running server
/// holds a window of recent history instead of growing without bound,
/// and a job that has just finished is never the one evicted. Queued
/// and running records are never evicted. A record's status only moves
/// forward (queued → running → terminal).
#[derive(Debug)]
pub struct JobStore {
    jobs: Mutex<Registry<JobRecord>>,
    next_id: AtomicU64,
}

/// Terminal job records a server retains; the earliest finished are
/// evicted first, so a long-finished job id eventually answers 404.
pub(crate) const JOB_HISTORY_LIMIT: usize = 1_024;

impl Default for JobStore {
    fn default() -> Self {
        Self::new()
    }
}

impl JobStore {
    /// An empty store with unbounded retention (tests, embedders).
    #[must_use]
    pub fn new() -> Self {
        Self::with_limit(usize::MAX)
    }

    /// An empty store keeping at most `limit` terminal records.
    #[must_use]
    pub fn with_limit(limit: usize) -> Self {
        Self {
            jobs: Mutex::new(Registry::new(limit)),
            next_id: AtomicU64::new(0),
        }
    }

    /// Allocates the next job id (`job-1`, `job-2`, …).
    pub fn allocate_id(&self) -> String {
        format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Fast-forwards the id counter so the next allocation is
    /// `job-{n}` — called once at boot after replaying persisted
    /// state, so recovered ids are never re-issued.
    pub fn set_next_id(&self, next: u64) {
        self.next_id
            .fetch_max(next.saturating_sub(1), Ordering::Relaxed);
    }

    /// The number the next [`allocate_id`](JobStore::allocate_id)
    /// call will issue — persisted in snapshots so a restart never
    /// re-uses an id.
    #[must_use]
    pub fn next_job_number(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) + 1
    }

    /// Inserts (or replaces) a record, evicting the earliest-finished
    /// terminal records beyond the retention limit. A record whose id
    /// is not `job-N` is not stored.
    pub fn insert(&self, record: JobRecord) {
        let Some(n) = id_number(&record.id, "job-") else {
            return;
        };
        let terminal = record.status.is_terminal();
        let mut jobs = lock_ignoring_poison(&self.jobs);
        let was_terminal = jobs
            .records
            .insert(n, record)
            .is_some_and(|old| old.status.is_terminal());
        if terminal && !was_terminal {
            jobs.finish(n);
        }
    }

    /// Snapshot of one record.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<JobRecord> {
        let n = id_number(id, "job-")?;
        lock_ignoring_poison(&self.jobs).records.get(&n).cloned()
    }

    /// Removes a record (used when a push is rejected after the id was
    /// allocated, so 429'd submissions leave no trace in the store).
    pub fn remove(&self, id: &str) -> Option<JobRecord> {
        let n = id_number(id, "job-")?;
        lock_ignoring_poison(&self.jobs).records.remove(&n)
    }

    /// Runs `f` on a record under the store lock; `None` for unknown
    /// ids. A transition into a terminal state evicts as
    /// [`JobStore::insert`] does.
    pub fn with<R>(&self, id: &str, f: impl FnOnce(&mut JobRecord) -> R) -> Option<R> {
        let n = id_number(id, "job-")?;
        let mut jobs = lock_ignoring_poison(&self.jobs);
        let record = jobs.records.get_mut(&n)?;
        let was_terminal = record.status.is_terminal();
        let out = f(record);
        if record.status.is_terminal() && !was_terminal {
            jobs.finish(n);
        }
        Some(out)
    }

    /// Clones every record, in ascending job order — the snapshot
    /// writer's feed.
    #[must_use]
    pub fn all_records(&self) -> Vec<JobRecord> {
        lock_ignoring_poison(&self.jobs)
            .records
            .values()
            .cloned()
            .collect()
    }

    /// `(id, progress collector)` for every currently running job, in
    /// ascending job order — the deterministic feed for the per-job
    /// convergence gauges on `/metrics`.
    #[must_use]
    pub fn running_progress(&self) -> Vec<(String, Arc<StatsCollector>)> {
        lock_ignoring_poison(&self.jobs)
            .records
            .values()
            .filter(|r| r.status == JobStatus::Running)
            .filter_map(|r| r.progress.clone().map(|p| (r.id.clone(), p)))
            .collect()
    }

    /// Per-status job counts
    /// `(queued, running, done, failed, cancelled)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0, 0);
        for record in lock_ignoring_poison(&self.jobs).records.values() {
            match record.status {
                JobStatus::Queued => counts.0 += 1,
                JobStatus::Running => counts.1 += 1,
                JobStatus::Done => counts.2 += 1,
                JobStatus::Failed => counts.3 += 1,
                JobStatus::Cancelled => counts.4 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::json::parse;

    fn spec_from(json: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&parse(json).map_err(|e| e.to_string())?)
    }

    #[test]
    fn parses_a_full_fit_request() {
        let spec = spec_from(
            r#"{"kind":"fit","dataset":"musa_cc96","truncate":48,"model":"model2",
                "prior":"negbinom","alpha_max":50,"chains":2,"samples":500,
                "burn_in":200,"seed":7,"threads":2,"timeout_ms":60000}"#,
        )
        .unwrap();
        assert_eq!(spec.kind, JobKind::Fit);
        assert_eq!(spec.dataset_label, "musa_cc96");
        assert_eq!(spec.data.len(), 48);
        assert_eq!(spec.model.name(), "model2");
        assert!(matches!(spec.prior, PriorSpec::NegBinomial { alpha_max } if alpha_max == 50.0));
        assert_eq!(spec.mcmc.chains, 2);
        assert_eq!(spec.mcmc.seed, 7);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.timeout_ms, Some(60_000));
    }

    #[test]
    fn inline_counts_are_accepted() {
        let spec = spec_from(r#"{"kind":"fit","counts":[3,1,4,1,5]}"#).unwrap();
        assert_eq!(spec.dataset_label, "inline");
        assert_eq!(spec.data.counts(), &[3, 1, 4, 1, 5]);
    }

    #[test]
    fn rejects_bad_requests_with_messages() {
        for (json, needle) in [
            (r#"{"dataset":"musa_cc96"}"#, "missing field `kind`"),
            (r#"{"kind":"dance","dataset":"musa_cc96"}"#, "unknown kind"),
            (r#"{"kind":"fit"}"#, "missing data"),
            (r#"{"kind":"fit","dataset":"nope"}"#, "unknown dataset"),
            (
                r#"{"kind":"fit","dataset":"musa_cc96","model":"model9"}"#,
                "unknown model",
            ),
            (
                r#"{"kind":"fit","dataset":"musa_cc96","prior":"cauchy"}"#,
                "unknown prior",
            ),
            (
                r#"{"kind":"fit","dataset":"musa_cc96","chains":0}"#,
                "must be at least 1",
            ),
            (r#"{"kind":"fit","counts":[1,-2]}"#, "non-negative integers"),
            // Values this large would overflow the u64 cumulative sum
            // downstream; the per-entry bound rejects them up front.
            (
                r#"{"kind":"fit","counts":[1e19,1e19]}"#,
                "non-negative integers",
            ),
            (
                r#"{"kind":"fit","counts":[4294967296]}"#,
                "non-negative integers",
            ),
            (
                r#"{"kind":"predict","dataset":"musa_cc96","horizon":0}"#,
                "`horizon` must be at least 1",
            ),
        ] {
            let err = spec_from(json).unwrap_err();
            assert!(err.contains(needle), "`{json}` gave `{err}`");
        }
    }

    #[test]
    fn cache_key_ignores_threads_and_timeout() {
        let a = spec_from(r#"{"kind":"fit","dataset":"musa_cc96","threads":1}"#).unwrap();
        let b = spec_from(r#"{"kind":"fit","dataset":"musa_cc96","threads":4,"timeout_ms":5000}"#)
            .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn cache_key_ignores_the_trace_id_but_the_wire_preserves_it() {
        let mut a = spec_from(r#"{"kind":"fit","dataset":"musa_cc96"}"#).unwrap();
        let b = spec_from(r#"{"kind":"fit","dataset":"musa_cc96"}"#).unwrap();
        a.trace_id = "0123456789abcdef0123456789abcdef".into();
        assert_eq!(a.cache_key(), b.cache_key());
        let back = JobSpec::from_wire(&a.to_wire()).unwrap();
        assert_eq!(back.trace_id, a.trace_id);
        // Pre-v7 wire frames (no trace_id field) replay to empty.
        let legacy = spec_from(r#"{"kind":"fit","dataset":"musa_cc96"}"#).unwrap();
        assert_eq!(JobSpec::from_wire(&legacy.to_wire()).unwrap().trace_id, "");
    }

    #[test]
    fn cache_key_separates_everything_else() {
        let base = r#"{"kind":"fit","dataset":"musa_cc96"}"#;
        let variants = [
            r#"{"kind":"predict","dataset":"musa_cc96"}"#,
            r#"{"kind":"fit","dataset":"s_shaped_80"}"#,
            r#"{"kind":"fit","dataset":"musa_cc96","truncate":48}"#,
            r#"{"kind":"fit","dataset":"musa_cc96","model":"model3"}"#,
            r#"{"kind":"fit","dataset":"musa_cc96","prior":"negbinom"}"#,
            r#"{"kind":"fit","dataset":"musa_cc96","lambda_max":999}"#,
            r#"{"kind":"fit","dataset":"musa_cc96","chains":2}"#,
            r#"{"kind":"fit","dataset":"musa_cc96","seed":1}"#,
        ];
        let base_key = spec_from(base).unwrap().cache_key();
        for v in variants {
            assert_ne!(spec_from(v).unwrap().cache_key(), base_key, "{v}");
        }
    }

    #[test]
    fn select_key_ignores_the_irrelevant_model_field() {
        // `select` sweeps all five models, so the request's `model`
        // must not split the cache.
        let a = spec_from(r#"{"kind":"select","dataset":"musa_cc96","model":"model0"}"#).unwrap();
        let b = spec_from(r#"{"kind":"select","dataset":"musa_cc96","model":"model3"}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        // But fit and predict keys still depend on the model.
        let fit_a = spec_from(r#"{"kind":"fit","dataset":"musa_cc96","model":"model0"}"#).unwrap();
        let fit_b = spec_from(r#"{"kind":"fit","dataset":"musa_cc96","model":"model3"}"#).unwrap();
        assert_ne!(fit_a.cache_key(), fit_b.cache_key());
        let p_a =
            spec_from(r#"{"kind":"predict","dataset":"musa_cc96","model":"model0"}"#).unwrap();
        let p_b =
            spec_from(r#"{"kind":"predict","dataset":"musa_cc96","model":"model3"}"#).unwrap();
        assert_ne!(p_a.cache_key(), p_b.cache_key());
    }

    #[test]
    fn predict_horizon_is_in_the_key_but_not_fit_horizon() {
        let fit_a = spec_from(r#"{"kind":"fit","dataset":"musa_cc96","horizon":10}"#).unwrap();
        let fit_b = spec_from(r#"{"kind":"fit","dataset":"musa_cc96","horizon":20}"#).unwrap();
        assert_eq!(fit_a.cache_key(), fit_b.cache_key());
        let p_a = spec_from(r#"{"kind":"predict","dataset":"musa_cc96","horizon":10}"#).unwrap();
        let p_b = spec_from(r#"{"kind":"predict","dataset":"musa_cc96","horizon":20}"#).unwrap();
        assert_ne!(p_a.cache_key(), p_b.cache_key());
    }

    #[test]
    fn wire_round_trip_preserves_the_spec_and_its_cache_key() {
        for json in [
            r#"{"kind":"fit","dataset":"musa_cc96","truncate":48,"model":"model2",
                "prior":"negbinom","alpha_max":50,"chains":2,"samples":500,
                "burn_in":200,"seed":7,"threads":2,"timeout_ms":60000}"#,
            r#"{"kind":"select","counts":[3,1,4,1,5],"theta_max":12.5}"#,
            r#"{"kind":"predict","dataset":"s_shaped_80","horizon":45,"lambda_max":500}"#,
        ] {
            let spec = spec_from(json).unwrap();
            let back = JobSpec::from_wire(&spec.to_wire()).unwrap();
            assert_eq!(back.kind, spec.kind, "{json}");
            assert_eq!(back.dataset_label, spec.dataset_label, "{json}");
            assert_eq!(back.data.counts(), spec.data.counts(), "{json}");
            assert_eq!(back.model.name(), spec.model.name(), "{json}");
            assert_eq!(back.threads, spec.threads, "{json}");
            assert_eq!(back.horizon, spec.horizon, "{json}");
            assert_eq!(back.timeout_ms, spec.timeout_ms, "{json}");
            assert_eq!(back.mcmc.seed, spec.mcmc.seed, "{json}");
            assert_eq!(back.cache_key(), spec.cache_key(), "{json}");
            // And the wire form itself is stable under a round trip.
            assert_eq!(back.to_wire().to_json(), spec.to_wire().to_json(), "{json}");
        }
    }

    #[test]
    fn store_finds_every_minted_id_and_nothing_else() {
        let store = JobStore::new();
        for n in 1..=40 {
            let id = store.allocate_id();
            assert_eq!(id, format!("job-{n}"));
            let status = if n % 2 == 0 {
                JobStatus::Done
            } else {
                JobStatus::Queued
            };
            store.insert(JobRecord::new(id, JobKind::Fit, "k".into(), status));
        }
        assert_eq!(store.counts(), (20, 0, 20, 0, 0));
        for n in 1..=40 {
            assert!(store.get(&format!("job-{n}")).is_some());
        }
        // Only the `job-N` form the server mints names a job.
        for id in ["foo", "job-", "job-1x", "job-01", "job-+1", "batch-1"] {
            assert!(store.get(id).is_none(), "{id}");
        }
        let all = store.all_records();
        assert_eq!(all.len(), 40);
        assert_eq!(all[0].id, "job-1");
        assert_eq!(all[39].id, "job-40");
    }

    #[test]
    fn set_next_id_fast_forwards_but_never_rewinds() {
        let store = JobStore::new();
        store.set_next_id(5);
        assert_eq!(store.allocate_id(), "job-5");
        store.set_next_id(2);
        assert_eq!(store.allocate_id(), "job-6");
    }

    #[test]
    fn store_tracks_lifecycle_counts() {
        let store = JobStore::new();
        assert_eq!(store.allocate_id(), "job-1");
        assert_eq!(store.allocate_id(), "job-2");
        let mut record =
            JobRecord::new("job-1".into(), JobKind::Fit, "k".into(), JobStatus::Queued);
        store.insert(record.clone());
        record.id = "job-2".into();
        record.status = JobStatus::Done;
        store.insert(record);
        assert_eq!(store.counts(), (1, 0, 1, 0, 0));
        store.with("job-1", |r| r.status = JobStatus::Cancelled);
        assert_eq!(store.counts(), (0, 0, 1, 0, 1));
        assert!(store.get("job-9").is_none());
        let doc = store.get("job-2").unwrap().status_value();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
    }

    #[test]
    fn store_evicts_oldest_terminal_records_beyond_the_limit() {
        let store = JobStore::with_limit(2);
        // A live (queued) record older than everything terminal.
        store.insert(JobRecord::new(
            "job-1".into(),
            JobKind::Fit,
            "k".into(),
            JobStatus::Queued,
        ));
        for n in 2..=5 {
            store.insert(JobRecord::new(
                format!("job-{n}"),
                JobKind::Fit,
                "k".into(),
                JobStatus::Done,
            ));
        }
        // Only the two newest terminal records survive; the queued
        // record is never evicted, however old.
        assert!(store.get("job-1").is_some());
        assert!(store.get("job-2").is_none());
        assert!(store.get("job-3").is_none());
        assert!(store.get("job-4").is_some());
        assert!(store.get("job-5").is_some());

        // A transition into a terminal state also triggers eviction.
        store.with("job-1", |r| r.status = JobStatus::Cancelled);
        let remaining: Vec<bool> = (1..=5)
            .map(|n| store.get(&format!("job-{n}")).is_some())
            .collect();
        assert_eq!(remaining.iter().filter(|&&kept| kept).count(), 2);
        assert_eq!(store.counts().0, 0);
    }

    #[test]
    fn a_job_is_never_evicted_by_its_own_completion() {
        let store = JobStore::with_limit(2);
        store.insert(JobRecord::new(
            "job-1".into(),
            JobKind::Fit,
            "k".into(),
            JobStatus::Running,
        ));
        for n in 2..=4 {
            store.insert(JobRecord::new(
                format!("job-{n}"),
                JobKind::Fit,
                "k".into(),
                JobStatus::Done,
            ));
        }
        // `job-1` finishes after three newer jobs did: eviction goes by
        // completion order, so it evicts `job-3`, not `job-1` itself.
        store.with("job-1", |r| r.status = JobStatus::Done);
        assert!(store.get("job-1").is_some());
        assert!(store.get("job-2").is_none());
        assert!(store.get("job-3").is_none());
        assert!(store.get("job-4").is_some());
    }
}
