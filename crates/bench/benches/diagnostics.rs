//! Benchmarks of the convergence diagnostics, plus the measured side
//! of **ablation-a** (DESIGN.md): effective sample size per sweep for
//! the collapsed versus naive Gibbs sweeps.

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench setup

use srm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srm_data::datasets;
use srm_mcmc::diagnostics::{effective_sample_size, geweke_z, psrf};
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec, SweepKind};
use srm_model::{DetectionModel, ZetaBounds};
use srm_rand::{Distribution, Normal, SplitMix64, Xoshiro256StarStar};
use std::hint::black_box;

fn synthetic_chain(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from(seed);
    Normal::standard().sample_n(&mut rng, n)
}

fn bench_psrf(c: &mut Criterion) {
    let chains: Vec<Vec<f64>> = (0..4).map(|i| synthetic_chain(100 + i, 10_000)).collect();
    let refs: Vec<&[f64]> = chains.iter().map(Vec::as_slice).collect();
    c.bench_function("diagnostics/psrf_4x10k", |b| {
        b.iter(|| black_box(psrf(&refs)));
    });
}

fn bench_geweke_and_ess(c: &mut Criterion) {
    let mut group = c.benchmark_group("diagnostics/single_chain");
    for n in [1_000usize, 10_000, 100_000] {
        let chain = synthetic_chain(200, n);
        group.bench_with_input(BenchmarkId::new("geweke", n), &chain, |b, ch| {
            b.iter(|| black_box(geweke_z(ch)));
        });
        group.bench_with_input(BenchmarkId::new("ess", n), &chain, |b, ch| {
            b.iter(|| black_box(effective_sample_size(ch)));
        });
    }
    group.finish();
}

/// Ablation-a, mixing side: ESS achieved by 2 000 sweeps of each
/// sweep kind. Reported as a benchmark so the collapsed-vs-naive
/// efficiency ratio regenerates together with the timing numbers.
fn bench_ess_per_sweep_ablation(c: &mut Criterion) {
    let data = datasets::musa_cc96();
    let mut group = c.benchmark_group("diagnostics/ablation_ess_per_2k_sweeps");
    group.sample_size(10);
    for (label, kind) in [
        ("collapsed", SweepKind::Collapsed),
        ("naive", SweepKind::Naive),
    ] {
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        )
        .with_sweep_kind(kind);
        group.bench_with_input(BenchmarkId::from_parameter(label), &sampler, |b, s| {
            b.iter(|| {
                let mut rng = Xoshiro256StarStar::seed_from(300);
                let chain = s.run_chain(&mut rng, 200, 2_000, 1);
                black_box(effective_sample_size(chain.draws("residual").unwrap()))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_psrf,
    bench_geweke_and_ess,
    bench_ess_per_sweep_ablation
);
criterion_main!(benches);
