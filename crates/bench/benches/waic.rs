//! Benchmarks of WAIC accumulation (Eqs. (23)–(25)): the per-draw
//! streaming update on the day logs the replay feeds it, and the
//! finalisation.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench setup

use srm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srm_data::datasets;
use srm_model::{DayLogs, DayTables, DetectionModel};
use srm_select::waic::WaicAccumulator;
use std::hint::black_box;

/// The day logs of a flat `p = 0.05` schedule, as the replay fills
/// them for each stored draw.
fn day_logs(days: usize) -> Vec<DayLogs> {
    let mut logs = Vec::new();
    DayTables::new(days).fill_logs(DetectionModel::Constant, &[0.05], &mut logs);
    logs
}

fn bench_add_draw(c: &mut Criterion) {
    let mut group = c.benchmark_group("waic/add_draw");
    for day in [48usize, 96, 146] {
        let data = if day <= 96 {
            datasets::musa_cc96().truncated(day).unwrap()
        } else {
            datasets::musa_cc96().extended_with_zeros(day - 96)
        };
        let logs = day_logs(day);
        group.bench_with_input(BenchmarkId::from_parameter(day), &day, |b, _| {
            let mut acc = WaicAccumulator::new(&data);
            b.iter(|| {
                acc.add_draw(black_box(400), &logs);
            });
        });
    }
    group.finish();
}

fn bench_finish(c: &mut Criterion) {
    let data = datasets::musa_cc96();
    let logs = day_logs(96);
    let mut acc = WaicAccumulator::new(&data);
    for n in 0..10_000u64 {
        acc.add_draw(300 + n % 200, &logs);
    }
    c.bench_function("waic/finish_after_10k_draws", |b| {
        b.iter(|| black_box(acc.finish()));
    });
}

criterion_group!(benches, bench_add_draw, bench_finish);
criterion_main!(benches);
