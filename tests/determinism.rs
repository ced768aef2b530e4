//! Reproducibility: identical seeds must give bit-identical results
//! through every layer of the stack, and any worker count must match
//! the single-threaded runner.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::core::{Experiment, ExperimentConfig};
use srm::data::{datasets, ObservationPlan};
use srm::mcmc::runner::{run_chains, run_chains_fault_tolerant, McmcConfig, RunOptions};
use srm::prelude::*;

fn small_config(seed: u64) -> McmcConfig {
    McmcConfig {
        chains: 3,
        burn_in: 200,
        samples: 300,
        thin: 2,
        seed,
    }
}

#[test]
fn sampler_is_bit_reproducible() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = GibbsSampler::new(
        PriorSpec::NegBinomial { alpha_max: 80.0 },
        DetectionModel::Weibull,
        ZetaBounds::default(),
        &data,
    );
    let a = run_chains(&sampler, &small_config(555));
    let b = run_chains(&sampler, &small_config(555));
    assert_eq!(a, b);
    let c = run_chains(&sampler, &small_config(556));
    assert_ne!(a, c);
}

#[test]
fn parallel_equals_serial() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 1_500.0,
        },
        DetectionModel::LogLogistic,
        ZetaBounds::default(),
        &data,
    );
    let config = small_config(777);
    let ser = run_chains_fault_tolerant(&sampler, &config, &RunOptions::with_threads(1))
        .unwrap()
        .output;
    for threads in [2usize, 3] {
        let par = run_chains_fault_tolerant(&sampler, &config, &RunOptions::with_threads(threads))
            .unwrap()
            .output;
        assert_eq!(par, ser, "threads={threads}");
    }
    assert_eq!(run_chains(&sampler, &config), ser);
}

#[test]
fn experiment_reproducible_end_to_end() {
    let mut config = ExperimentConfig::smoke(888);
    config.models = vec![DetectionModel::Constant, DetectionModel::PadgettSpurrier];
    config.mcmc = McmcConfig {
        chains: 1,
        burn_in: 100,
        samples: 200,
        thin: 1,
        seed: 888,
    };
    let build = || {
        Experiment::new(datasets::musa_cc96(), config.clone())
            .with_plan(ObservationPlan::from_days(&[48, 96]))
            .run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.cells().len(), b.cells().len());
    for (ca, cb) in a.cells().iter().zip(b.cells()) {
        assert_eq!(ca.fit.residual, cb.fit.residual, "{:?}", ca.key);
        assert_eq!(ca.fit.waic, cb.fit.waic, "{:?}", ca.key);
    }
}

#[test]
fn waic_deterministic_via_replay() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::Constant,
        ZetaBounds::default(),
        &data,
    );
    let w1 = waic_for(&sampler, &small_config(999));
    let w2 = waic_for(&sampler, &small_config(999));
    assert_eq!(w1, w2);
    // The same criterion replayed from a single-threaded run's stored
    // draws.
    let run = run_chains_fault_tolerant(&sampler, &small_config(999), &RunOptions::with_threads(1))
        .unwrap();
    let replayed =
        srm::select::waic::waic_from_output(&sampler, &run.output, &srm::obs::NOOP).unwrap();
    assert_eq!(w1, replayed);
}
