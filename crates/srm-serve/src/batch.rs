//! Multi-dataset batches over the job queue: `POST /v1/batches`
//! fans one shared fit specification out into N ordinary jobs.
//!
//! A batch is deliberately *not* a new execution engine on the
//! service — every item becomes a regular job that flows through the
//! same submit path, fit cache, worker pool, WAL, and result store as
//! `POST /v1/jobs`. That buys the batch contract for free:
//!
//! * **Byte-identical results** — item `i`'s result document is the
//!   one an individual `POST /v1/jobs` with the item's derived seed
//!   would produce, because it *is* that job.
//! * **Batch-aware caching** — items whose cache key matches an
//!   earlier item of the same batch alias that item's job (fit once
//!   per distinct dataset); items already in the fit cache are served
//!   without sampling. Both count toward
//!   [`BatchRecord::cache_hits`].
//! * **Durability** — item jobs persist through the existing WAL
//!   ops; only the batch registry (id → member jobs) needs its own
//!   `batch` op and snapshot section.
//!
//! Per-item seeds are derived with [`srm_batch::item_seed`] — the
//! same content-keyed split the CLI batch executor uses — so a batch
//! item, a `srm fit --batch` item, and a hand-submitted job with the
//! reported seed all sample the identical posterior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use srm_obs::json::Value;
use srm_obs::lock_ignoring_poison;

use crate::job::JobSpec;

/// Hard cap on items per batch: bounds parse-time memory and keeps
/// one request from monopolising the job store.
pub const MAX_BATCH_ITEMS: usize = 256;

/// One batch item's registry entry: which job computes it.
#[derive(Debug, Clone)]
pub struct BatchItemRef {
    /// Item label (from the request, or `item-N`).
    pub label: String,
    /// The job computing (or having computed) this item. Aliased
    /// items share a job id with an earlier item.
    pub job_id: String,
    /// The content-keyed seed derived for this item.
    pub seed: u64,
    /// Whether the item was served without fresh sampling at submit
    /// time (in-batch alias or fit-cache hit).
    pub cached: bool,
}

/// One batch's registry record.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Batch id (`batch-N`).
    pub id: String,
    /// The master seed items were split from.
    pub master_seed: u64,
    /// Member items, in submission order.
    pub items: Vec<BatchItemRef>,
    /// Items served without fresh sampling at submit time.
    pub cache_hits: u64,
    /// Jobs of this batch not yet terminal (distinct jobs, so an
    /// aliased duplicate never counts twice).
    pub remaining: usize,
    /// When the batch was registered (this process lifetime; restarts
    /// reset it, so recovered batches report wall time since boot).
    pub submitted: Instant,
}

impl BatchRecord {
    /// Serialises the record for the WAL and snapshots. `remaining`
    /// and `submitted` are runtime state — recovery recomputes them
    /// from the job store.
    #[must_use]
    pub fn to_wire(&self) -> Value {
        Value::obj(vec![
            ("id", Value::Str(self.id.clone())),
            ("master_seed", Value::Num(self.master_seed as f64)),
            (
                "items",
                Value::Arr(
                    self.items
                        .iter()
                        .map(|item| {
                            Value::obj(vec![
                                ("label", Value::Str(item.label.clone())),
                                ("job", Value::Str(item.job_id.clone())),
                                ("seed", Value::Num(item.seed as f64)),
                                ("cached", Value::Bool(item.cached)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache_hits", Value::Num(self.cache_hits as f64)),
        ])
    }

    /// Rebuilds a record from its wire form. `remaining` comes back
    /// as 0 — the server recomputes it against the recovered job
    /// store at boot.
    #[must_use]
    pub fn from_wire(wire: &Value) -> Option<Self> {
        let id = wire.get("id")?.as_str()?.to_owned();
        let master_seed = wire.get("master_seed")?.as_f64()? as u64;
        let mut items = Vec::new();
        for entry in wire.get("items")?.as_arr()? {
            items.push(BatchItemRef {
                label: entry.get("label")?.as_str()?.to_owned(),
                job_id: entry.get("job")?.as_str()?.to_owned(),
                seed: entry.get("seed")?.as_f64()? as u64,
                cached: matches!(entry.get("cached"), Some(Value::Bool(true))),
            });
        }
        let cache_hits = wire
            .get("cache_hits")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        Some(Self {
            id,
            master_seed,
            items,
            cache_hits,
            remaining: 0,
            submitted: Instant::now(),
        })
    }
}

/// A batch's progress after one job of it reached a terminal state.
#[derive(Debug, Clone)]
pub struct BatchProgress {
    /// The batch the job belongs to.
    pub batch_id: String,
    /// Item indices computed by that job (aliases share a job).
    pub item_indices: Vec<usize>,
    /// Distinct jobs of the batch still not terminal.
    pub remaining: usize,
    /// Wall-clock ms since the batch was registered.
    pub wall_ms: f64,
}

/// Numeric suffix of a `batch-N` id.
fn batch_number(id: &str) -> u64 {
    id.rsplit('-')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Thread-safe registry of batches plus the reverse index from job
/// ids to the batches awaiting them.
#[derive(Debug, Default)]
pub struct BatchStore {
    inner: Mutex<BatchInner>,
    next_id: AtomicU64,
}

#[derive(Debug, Default)]
struct BatchInner {
    records: HashMap<String, BatchRecord>,
    /// job id → batch ids still waiting on it.
    waiting: HashMap<String, Vec<String>>,
}

impl BatchStore {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next batch id (`batch-1`, `batch-2`, …).
    pub fn allocate_id(&self) -> String {
        format!("batch-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Fast-forwards the id counter past recovered ids.
    pub fn set_next_id(&self, next: u64) {
        self.next_id
            .fetch_max(next.saturating_sub(1), Ordering::Relaxed);
    }

    /// The number the next allocation will issue.
    #[must_use]
    pub fn next_batch_number(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) + 1
    }

    /// Registers a batch. `pending_jobs` are the distinct job ids the
    /// batch is still waiting on (its `remaining` count); terminal
    /// (cache-served) jobs must be excluded by the caller.
    pub fn insert(&self, mut record: BatchRecord, pending_jobs: &[String]) {
        self.set_next_id(batch_number(&record.id) + 1);
        record.remaining = pending_jobs.len();
        let mut inner = lock_ignoring_poison(&self.inner);
        for job in pending_jobs {
            inner
                .waiting
                .entry(job.clone())
                .or_default()
                .push(record.id.clone());
        }
        inner.records.insert(record.id.clone(), record);
    }

    /// Snapshot of one batch.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<BatchRecord> {
        lock_ignoring_poison(&self.inner).records.get(id).cloned()
    }

    /// Every record, in ascending batch order — the snapshot feed.
    #[must_use]
    pub fn all_records(&self) -> Vec<BatchRecord> {
        let mut records: Vec<BatchRecord> = lock_ignoring_poison(&self.inner)
            .records
            .values()
            .cloned()
            .collect();
        records.sort_by_key(|r| batch_number(&r.id));
        records
    }

    /// Number of batches with at least one job still pending.
    #[must_use]
    pub fn active(&self) -> u64 {
        lock_ignoring_poison(&self.inner)
            .records
            .values()
            .filter(|r| r.remaining > 0)
            .count() as u64
    }

    /// Records that `job_id` reached a terminal state, decrementing
    /// `remaining` on every batch waiting for it. Returns one
    /// [`BatchProgress`] per affected batch so the caller can emit
    /// `batch-item-done` / `batch-done` events.
    pub fn note_terminal(&self, job_id: &str) -> Vec<BatchProgress> {
        let mut inner = lock_ignoring_poison(&self.inner);
        let Some(batch_ids) = inner.waiting.remove(job_id) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(batch_ids.len());
        for batch_id in batch_ids {
            if let Some(record) = inner.records.get_mut(&batch_id) {
                record.remaining = record.remaining.saturating_sub(1);
                out.push(BatchProgress {
                    batch_id: batch_id.clone(),
                    item_indices: record
                        .items
                        .iter()
                        .enumerate()
                        .filter(|(_, item)| item.job_id == job_id)
                        .map(|(i, _)| i)
                        .collect(),
                    remaining: record.remaining,
                    wall_ms: record.submitted.elapsed().as_secs_f64() * 1_000.0,
                });
            }
        }
        out
    }
}

/// A parsed `POST /v1/batches` body: the master seed plus one fully
/// validated [`JobSpec`] per item, each already carrying its derived
/// content-keyed seed.
#[derive(Debug)]
pub struct BatchRequest {
    /// The master seed (the shared spec's `seed` field).
    pub master_seed: u64,
    /// `(label, spec)` per item, in request order.
    pub items: Vec<(String, JobSpec)>,
}

/// Parses and validates a batch submission.
///
/// The body is a regular job body (shared fields: `model`, `prior`,
/// `chains`, `seed` = master seed, …) plus an `items` array; each
/// item supplies its data (`dataset`/`counts`/`truncate`) and an
/// optional `label`, and may override any shared field except `seed`
/// — seeds are always derived from the master seed and the item's
/// data so that batch results are reproducible one item at a time.
///
/// # Errors
///
/// Returns a user-facing message when `items` is missing, empty, or
/// over [`MAX_BATCH_ITEMS`], and propagates per-item validation
/// errors prefixed with the item's position.
pub fn parse_batch(body: &Value) -> Result<BatchRequest, String> {
    let Some(shared) = body.as_obj() else {
        return Err("batch body must be a JSON object".into());
    };
    let items = body
        .get("items")
        .ok_or("missing field `items` (array of datasets)")?
        .as_arr()
        .ok_or("field `items` must be an array")?;
    if items.is_empty() {
        return Err("field `items` must not be empty".into());
    }
    if items.len() > MAX_BATCH_ITEMS {
        return Err(format!(
            "too many items: {} (max {MAX_BATCH_ITEMS})",
            items.len()
        ));
    }

    let mut out = Vec::with_capacity(items.len());
    let mut master_seed = None;
    for (index, item) in items.iter().enumerate() {
        let Some(overrides) = item.as_obj() else {
            return Err(format!("items[{index}] must be a JSON object"));
        };
        // Item fields override shared fields; `items` itself and any
        // attempt to pin a per-item seed are dropped (seeds are
        // derived, never client-chosen, so the batch stays
        // reproducible from the master seed alone).
        let mut merged: Vec<(&str, Value)> = shared
            .iter()
            .filter(|(k, _)| {
                k != "items"
                    && k != "label"
                    && (k == "seed" || !overrides.iter().any(|(ok, _)| ok == k))
            })
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        merged.extend(
            overrides
                .iter()
                .filter(|(k, _)| k != "label" && k != "seed")
                .map(|(k, v)| (k.as_str(), v.clone())),
        );
        // Item data fields replace the shared data source entirely:
        // an item with inline `counts` must not clash with a shared
        // `dataset` default.
        let item_has_data = overrides
            .iter()
            .any(|(k, _)| k == "dataset" || k == "counts");
        if item_has_data {
            merged.retain(|(k, v)| {
                let shared_data = (*k == "dataset" || *k == "counts" || *k == "truncate")
                    && !overrides.iter().any(|(ok, ov)| ok == k && ov == v);
                !shared_data
            });
        }
        // Batches fan a *fit* spec out by default; an explicit shared
        // or per-item `kind` still wins.
        if !merged.iter().any(|(k, _)| *k == "kind") {
            merged.push(("kind", Value::Str("fit".to_owned())));
        }
        let merged = Value::obj(merged);
        let mut spec = JobSpec::from_json(&merged).map_err(|e| format!("items[{index}]: {e}"))?;
        // The shared `seed` is the master; the item's own seed is
        // derived from it and the item's data content.
        let master = *master_seed.get_or_insert(spec.mcmc.seed);
        spec.mcmc.seed = srm_batch::item_seed(master, &spec.data);
        let label = overrides
            .iter()
            .find(|(k, _)| k == "label")
            .and_then(|(_, v)| v.as_str())
            .map_or_else(|| format!("item-{index}"), ToOwned::to_owned);
        out.push((label, spec));
    }
    Ok(BatchRequest {
        master_seed: master_seed.unwrap_or(2_024),
        items: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::json::parse;

    fn record(id: &str, jobs: &[(&str, &str)]) -> BatchRecord {
        BatchRecord {
            id: id.to_owned(),
            master_seed: 42,
            items: jobs
                .iter()
                .map(|(label, job)| BatchItemRef {
                    label: (*label).to_owned(),
                    job_id: (*job).to_owned(),
                    seed: 7,
                    cached: false,
                })
                .collect(),
            cache_hits: 0,
            remaining: 0,
            submitted: Instant::now(),
        }
    }

    #[test]
    fn ids_are_sequential_and_recovery_fast_forwards() {
        let store = BatchStore::new();
        assert_eq!(store.allocate_id(), "batch-1");
        store.insert(record("batch-7", &[]), &[]);
        assert_eq!(store.allocate_id(), "batch-8");
    }

    #[test]
    fn note_terminal_tracks_remaining_and_aliases() {
        let store = BatchStore::new();
        store.insert(
            record(
                "batch-1",
                &[("a", "job-1"), ("twin", "job-1"), ("b", "job-2")],
            ),
            &["job-1".to_owned(), "job-2".to_owned()],
        );
        assert_eq!(store.active(), 1);
        let progress = store.note_terminal("job-1");
        assert_eq!(progress.len(), 1);
        assert_eq!(progress[0].item_indices, vec![0, 1]);
        assert_eq!(progress[0].remaining, 1);
        assert_eq!(store.active(), 1);
        let progress = store.note_terminal("job-2");
        assert_eq!(progress[0].remaining, 0);
        assert_eq!(store.active(), 0);
        assert!(store.note_terminal("job-2").is_empty());
    }

    #[test]
    fn wire_round_trip_preserves_items() {
        let mut original = record("batch-3", &[("a", "job-1"), ("b", "job-4")]);
        original.cache_hits = 1;
        original.items[1].cached = true;
        let back = BatchRecord::from_wire(&original.to_wire()).unwrap();
        assert_eq!(back.id, original.id);
        assert_eq!(back.master_seed, original.master_seed);
        assert_eq!(back.cache_hits, 1);
        assert_eq!(back.items.len(), 2);
        assert_eq!(back.items[1].job_id, "job-4");
        assert!(back.items[1].cached);
    }

    #[test]
    fn parse_batch_derives_content_keyed_seeds() {
        let body = parse(
            r#"{"model":"model0","chains":1,"samples":100,"burn_in":40,"seed":42,
                "items":[{"label":"a","counts":[3,1,0,2]},
                         {"label":"twin","counts":[3,1,0,2]},
                         {"label":"b","counts":[1,1,4]}]}"#,
        )
        .unwrap();
        let request = parse_batch(&body).unwrap();
        assert_eq!(request.master_seed, 42);
        assert_eq!(request.items.len(), 3);
        let seeds: Vec<u64> = request.items.iter().map(|(_, s)| s.mcmc.seed).collect();
        assert_eq!(seeds[0], seeds[1], "identical data, identical seed");
        assert_ne!(seeds[0], seeds[2]);
        assert_eq!(seeds[0], srm_batch::item_seed(42, &request.items[0].1.data));
        assert_eq!(request.items[0].0, "a");
        assert_eq!(
            request.items[0].1.cache_key(),
            request.items[1].1.cache_key()
        );
    }

    #[test]
    fn parse_batch_rejects_bad_shapes() {
        let missing = parse(r#"{"model":"model0"}"#).unwrap();
        assert!(parse_batch(&missing).unwrap_err().contains("items"));
        let empty = parse(r#"{"items":[]}"#).unwrap();
        assert!(parse_batch(&empty).unwrap_err().contains("empty"));
        let bad_item = parse(r#"{"items":[{"label":"x"}]}"#).unwrap();
        assert!(parse_batch(&bad_item).unwrap_err().contains("items[0]"));
    }

    #[test]
    fn item_fields_override_shared_fields_but_never_seed() {
        let body = parse(
            r#"{"model":"model0","chains":2,"seed":9,"dataset":"musa_cc96",
                "items":[{"label":"x","counts":[1,2,3],"chains":1,"seed":555}]}"#,
        )
        .unwrap();
        let request = parse_batch(&body).unwrap();
        let (_, spec) = &request.items[0];
        assert_eq!(spec.mcmc.chains, 1, "item override wins");
        assert_eq!(spec.dataset_label, "inline", "item data replaces shared");
        assert_eq!(
            spec.mcmc.seed,
            srm_batch::item_seed(9, &spec.data),
            "client-pinned per-item seeds are ignored"
        );
    }
}
