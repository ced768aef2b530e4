//! Benchmarks of the serve tier's durable-store machinery: the job
//! store under concurrent status polls and at its retention limit,
//! and the WAL append path under both sync policies.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench setup

use srm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srm_serve::job::{JobRecord, JobStatus, JobStore};
use srm_serve::JobKind;
use srm_store::{ReplayReport, SyncPolicy, WalWriter};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

const JOBS: usize = 256;
const POLL_THREADS: usize = 4;
const POLLS_PER_THREAD: usize = 2_000;

/// Terminal records a server's job store retains.
const HISTORY_LIMIT: usize = 1_024;

fn populated_store() -> JobStore {
    let store = JobStore::with_limit(4 * JOBS);
    for _ in 0..JOBS {
        let id = store.allocate_id();
        store.insert(JobRecord::new(
            id,
            JobKind::Fit,
            "bench-key".into(),
            JobStatus::Queued,
        ));
    }
    store
}

/// Concurrent status polls against one hot writer: each reader
/// hammers `get` across the id range while the writer cycles jobs
/// between queued and running, all on the store's one lock. Ids are
/// pre-formatted so the measurement is lock traffic, not allocation.
fn poll_round(store: &JobStore, ids: &[String]) -> u64 {
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for reader in 0..POLL_THREADS {
            let served = &served;
            scope.spawn(move || {
                let mut found = 0u64;
                for i in 0..POLLS_PER_THREAD {
                    let id = &ids[(reader * 31 + i * 7) % ids.len()];
                    if store.get(id).is_some() {
                        found += 1;
                    }
                }
                served.fetch_add(found, Ordering::Relaxed);
            });
        }
        scope.spawn(|| {
            for i in 0..POLLS_PER_THREAD {
                store.with(&ids[i % ids.len()], |record| {
                    record.status = if record.status == JobStatus::Queued {
                        JobStatus::Running
                    } else {
                        JobStatus::Queued
                    };
                });
            }
        });
    });
    served.load(Ordering::Relaxed)
}

fn bench_store_poll(c: &mut Criterion) {
    let ids: Vec<String> = (1..=JOBS).map(|n| format!("job-{n}")).collect();
    let mut group = c.benchmark_group("serve/store_poll");
    group.sample_size(10);
    let store = populated_store();
    group.bench_with_input(
        BenchmarkId::new("store_poll", format!("readers{POLL_THREADS}")),
        &store,
        |b, s| {
            b.iter(|| black_box(poll_round(s, &ids)));
        },
    );
    group.finish();
}

/// One more done record into a store already holding its limit of
/// terminal records — what every fit-cache hit costs a busy server:
/// the insert evicts the earliest-finished record.
fn bench_store_insert(c: &mut Criterion) {
    let store = JobStore::with_limit(HISTORY_LIMIT);
    let done = |id: String| JobRecord::new(id, JobKind::Fit, "bench-key".into(), JobStatus::Done);
    for _ in 0..HISTORY_LIMIT {
        store.insert(done(store.allocate_id()));
    }
    let mut group = c.benchmark_group("serve/store_insert");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("store_insert", "at_limit"),
        &(),
        |b, ()| {
            b.iter(|| store.insert(black_box(done(store.allocate_id()))));
        },
    );
    group.finish();
    assert_eq!(store.counts().2, HISTORY_LIMIT);
}

/// Raw WAL append throughput for a typical terminal-op record, per
/// sync policy. `off` is the default serving configuration (records
/// survive SIGKILL); `always` pays an fdatasync per record and is the
/// power-loss-safe ceiling.
fn bench_wal_append(c: &mut Criterion) {
    let payload = br#"{"op":"done","id":"job-42","kind":"fit","key":"a1b2c3d4e5f6","cached":false,"wall_ms":123.456}"#;
    let mut group = c.benchmark_group("serve/wal_append");
    group.sample_size(10);
    for (label, policy) in [("off", SyncPolicy::Never), ("always", SyncPolicy::Always)] {
        let path =
            std::env::temp_dir().join(format!("srm_bench_wal_{label}_{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = WalWriter::open(&path, policy, &ReplayReport::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("wal_append", label), &(), |b, ()| {
            b.iter(|| {
                wal.append(black_box(payload)).unwrap();
                wal.bytes()
            });
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_store_poll,
    bench_store_insert,
    bench_wal_append
);
criterion_main!(benches);
