//! Benchmarks of the parallel multi-chain runner: the Musa-T1 fit
//! (4 chains) at 1 worker thread versus 4, plus the sufficient-
//! statistics cache ablation. The acceptance bar for the threading
//! layer is a ≥2× wall-clock speedup at 4 chains / 4 threads; the
//! determinism contract (same seed ⇒ bit-identical draws at any
//! thread count) is enforced by the test suite, so these numbers
//! measure pure scheduling overhead.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench setup

use srm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srm_data::datasets;
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
use srm_mcmc::runner::{
    run_chains_fault_tolerant, run_chains_fault_tolerant_traced, McmcConfig, RunOptions,
};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::{Event, Recorder};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn musa_sampler() -> GibbsSampler {
    GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::PadgettSpurrier,
        ZetaBounds::default(),
        &datasets::musa_cc96(),
    )
}

fn run_fit(sampler: &GibbsSampler, threads: usize) -> f64 {
    let config = McmcConfig {
        chains: 4,
        burn_in: 200,
        samples: 300,
        thin: 1,
        seed: 4_242,
    };
    let run =
        run_chains_fault_tolerant(sampler, &config, &RunOptions::with_threads(threads)).unwrap();
    run.output.pooled("residual").iter().sum()
}

/// The headline number: a 4-chain Musa-T1 fit by worker count.
fn bench_fit_by_threads(c: &mut Criterion) {
    let sampler = musa_sampler();
    let mut group = c.benchmark_group("parallel/musa_fit_4_chains");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &sampler, |b, s| {
            b.iter(|| black_box(run_fit(s, threads)));
        });
    }
    group.finish();
}

/// Ablation: the per-day sufficient-statistics cache on and off for
/// the same serial run (cache wins scale with the ζ dimension).
fn bench_suffstats_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel/suffstats_cache");
    group.sample_size(10);
    for (label, cached) in [("cached", true), ("uncached", false)] {
        let sampler = musa_sampler().with_cached_stats(cached);
        group.bench_with_input(BenchmarkId::new("suffstats", label), &sampler, |b, s| {
            b.iter(|| black_box(run_fit(s, 1)));
        });
    }
    group.finish();
}

/// An enabled recorder that only counts events — the cheapest sink
/// that still forces the runner onto its instrumented path, so the
/// off/on delta isolates the streaming-accumulator cost itself.
#[derive(Debug, Default)]
struct CountingRecorder(AtomicU64);

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, _event: &Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Streaming-checkpoint overhead: the same traced 4-chain fit with
/// checkpoints off versus every 50 sweeps. The acceptance budget for
/// PR 5 is < 3% wall-clock overhead at the serve cadence (50).
fn bench_checkpoint_overhead(c: &mut Criterion) {
    let sampler = musa_sampler();
    let config = McmcConfig {
        chains: 4,
        burn_in: 200,
        samples: 300,
        thin: 1,
        seed: 4_242,
    };
    let mut group = c.benchmark_group("parallel/checkpoint_overhead");
    group.sample_size(10);
    for (label, every) in [("off", 0usize), ("every50", 50)] {
        let options = RunOptions {
            checkpoint_every: every,
            ..RunOptions::none()
        };
        group.bench_with_input(BenchmarkId::new("checkpoint", label), &sampler, |b, s| {
            b.iter(|| {
                let recorder = CountingRecorder::default();
                let run =
                    run_chains_fault_tolerant_traced(s, &config, &options, &recorder).unwrap();
                black_box(run.output.pooled("residual").iter().sum::<f64>())
            });
        });
    }
    group.finish();
}

/// Publishes ESS/sec telemetry and the profiler's phase-time
/// breakdown next to the raw `threads/N` medians in
/// `BENCH_mcmc.json`: one checkpointed, profiled run per thread
/// count, with ESS per second of summed chain wall time taken from the
/// final streaming checkpoints (the same figures the serve progress
/// API reports). When chains share a core, a waiting chain's clock
/// keeps running, so the figure is below ESS per CPU-second.
fn bench_ess_throughput(_c: &mut Criterion) {
    let sampler = musa_sampler();
    let config = McmcConfig {
        chains: 4,
        burn_in: 200,
        samples: 300,
        thin: 1,
        seed: 4_242,
    };
    println!("\n== parallel/ess_throughput (derived metrics)");
    for threads in [1usize, 2, 4] {
        let profiler = std::sync::Arc::new(srm_obs::Profiler::new());
        let stats = srm_obs::StatsCollector::new();
        let options = RunOptions {
            threads,
            checkpoint_every: 50,
            profiler: Some(std::sync::Arc::clone(&profiler)),
            ..RunOptions::none()
        };
        run_chains_fault_tolerant_traced(&sampler, &config, &options, &stats).unwrap();
        let latest = stats.latest_checkpoints();
        let refs: Vec<&srm_obs::ChainCheckpoint> = latest.iter().collect();
        let label = format!("threads/{threads}");
        if let Some(diag) = srm_obs::aggregate(&refs)
            .iter()
            .find(|d| d.parameter == "residual")
        {
            srm_bench::record_metric(&label, "ess_per_sec", diag.ess_per_sec);
            println!(
                "  {label:<40} {:>12.1} ESS/chain-wall-sec",
                diag.ess_per_sec
            );
        }
        for phase in profiler.snapshot() {
            srm_bench::record_phase_secs(&label, &phase.path, phase.total_ns as f64 / 1e9);
        }
    }
}

criterion_group!(
    benches,
    bench_fit_by_threads,
    bench_suffstats_cache,
    bench_checkpoint_overhead,
    bench_ess_throughput
);
criterion_main!(benches);
