//! Recovery and degradation tests for the fault-tolerant MCMC engine.
//!
//! These exercise the deterministic fault-injection harness: injected
//! faults must be recovered (or reported) identically run-to-run, and
//! fault-free runs must match the panicking entry points bit-for-bit —
//! the failure-path counterpart of `tests/determinism.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use srm::data::datasets;
use srm::mcmc::runner::{
    run_chains, run_chains_fault_tolerant, McmcConfig, McmcOutput, RunOptions,
};
use srm::mcmc::{FaultKind, FaultPlan, FaultPoint, RetryPolicy, SrmError};
use srm::prelude::*;

fn small_config(chains: usize, seed: u64) -> McmcConfig {
    McmcConfig {
        chains,
        burn_in: 150,
        samples: 200,
        thin: 1,
        seed,
    }
}

fn make_sampler(data: &BugCountData) -> GibbsSampler {
    GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::Constant,
        ZetaBounds::default(),
        data,
    )
}

/// Bitwise chain equality through the public accessors.
fn assert_chains_bit_identical(a: &McmcOutput, b: &McmcOutput) {
    assert_eq!(a.chains.len(), b.chains.len());
    for (ca, cb) in a.chains.iter().zip(&b.chains) {
        assert_eq!(ca.names(), cb.names());
        for name in ca.names() {
            let da = ca.draws(name).unwrap();
            let db = cb.draws(name).unwrap();
            assert_eq!(da.len(), db.len(), "{name}");
            for (x, y) in da.iter().zip(db) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}");
            }
        }
    }
}

#[test]
fn fault_free_tolerant_run_is_bit_identical_to_strict() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(3, 900);
    let strict = run_chains(&sampler, &config);
    // Retries enabled but nothing to recover from: the snapshot path
    // must not perturb the RNG stream.
    let options = RunOptions {
        retry: RetryPolicy::default(),
        fault_plan: FaultPlan::none(),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };
    let tolerant = run_chains_fault_tolerant(&sampler, &config, &options).unwrap();
    assert!(tolerant
        .reports
        .iter()
        .all(|r| r.recovered && r.retries == 0));
    assert_chains_bit_identical(&strict, &tolerant.output);
}

#[test]
fn single_panicked_chain_yields_partial_output_naming_it() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(4, 901);
    let options = RunOptions {
        retry: RetryPolicy::none(),
        fault_plan: FaultPlan::new(vec![FaultPoint {
            chain: 2,
            sweep: 10,
            kind: FaultKind::Panic,
        }]),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };
    let run = run_chains_fault_tolerant(&sampler, &config, &options).unwrap();

    // 3 of 4 chains survive and the report names the lost one.
    assert_eq!(run.output.chains.len(), 3);
    assert_eq!(run.reports.len(), 4);
    let lost: Vec<usize> = run
        .reports
        .iter()
        .filter(|r| !r.recovered)
        .map(|r| r.chain)
        .collect();
    assert_eq!(lost, vec![2]);
    let fault = run.reports[2].fault.as_ref().unwrap();
    assert_eq!(fault.kind(), "chain-panicked");
    assert!(fault.to_string().contains("injected fault"));

    // Posterior summaries still assemble from the survivors.
    let draws = run.output.pooled("residual");
    assert_eq!(draws.len(), 3 * 200);
    let summary = PosteriorSummary::from_draws(&draws);
    assert!(summary.mean.is_finite());
    assert_eq!(summary.nan_draws, 0);

    // The surviving chains match the corresponding streams of a
    // fault-free run (chain RNGs are independent splits).
    let strict = run_chains(&sampler, &config);
    for (survivor, stream) in run.output.chains.iter().zip([0usize, 1, 3]) {
        let expect = &strict.chains[stream];
        for name in survivor.names() {
            let a = survivor.draws(name).unwrap();
            let b = expect.draws(name).unwrap();
            assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[test]
fn same_seed_and_plan_reproduce_bit_identical_recovered_chains() {
    // Property over seeds: the whole degraded run — surviving chains,
    // retry counts, fault kinds — is a pure function of (seed, plan).
    let data = datasets::musa_cc96().truncated(30).unwrap();
    let sampler = make_sampler(&data);
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        let config = small_config(3, seed);
        let total_sweeps = config.burn_in + config.samples * config.thin;
        let options = RunOptions {
            retry: RetryPolicy { max_retries: 4 },
            fault_plan: FaultPlan::from_seed(seed, config.chains, total_sweeps, 2),
            threads: 0,
            checkpoint_every: 0,
            profiler: None,
        };
        let a = run_chains_fault_tolerant(&sampler, &config, &options).unwrap();
        let b = run_chains_fault_tolerant(&sampler, &config, &options).unwrap();
        assert_chains_bit_identical(&a.output, &b.output);
        assert_eq!(a.reports.len(), b.reports.len(), "seed {seed}");
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.chain, rb.chain);
            assert_eq!(ra.recovered, rb.recovered, "seed {seed}");
            assert_eq!(ra.retries, rb.retries, "seed {seed}");
            assert_eq!(
                ra.fault.as_ref().map(SrmError::kind),
                rb.fault.as_ref().map(SrmError::kind),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn forced_slice_exhaustion_retry_replays_the_unfaulted_sweep() {
    // The injected exhaustion fires before the sweep consumes any
    // randomness, so one retry replays the sweep exactly: the
    // recovered run is bit-identical to a run with no fault at all.
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(2, 902);
    let options = RunOptions {
        retry: RetryPolicy { max_retries: 1 },
        fault_plan: FaultPlan::new(vec![FaultPoint {
            chain: 0,
            sweep: 7,
            kind: FaultKind::SliceExhausted,
        }]),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };
    let recovered = run_chains_fault_tolerant(&sampler, &config, &options).unwrap();
    assert!(recovered.reports[0].recovered);
    assert_eq!(recovered.reports[0].retries, 1);
    assert_eq!(
        recovered.reports[0].fault.as_ref().map(SrmError::kind),
        Some("slice-exhausted")
    );
    let strict = run_chains(&sampler, &config);
    assert_chains_bit_identical(&strict, &recovered.output);
}

#[test]
fn nan_rate_fault_recovers_with_retries_and_is_lost_without() {
    let data = datasets::musa_cc96().truncated(40).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(2, 903);
    let plan = FaultPlan::new(vec![FaultPoint {
        chain: 1,
        sweep: 5,
        kind: FaultKind::NanRate,
    }]);

    let with_retry = RunOptions {
        retry: RetryPolicy { max_retries: 3 },
        fault_plan: plan.clone(),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };
    let run = run_chains_fault_tolerant(&sampler, &config, &with_retry).unwrap();
    assert_eq!(run.output.chains.len(), 2);
    assert!(run.reports[1].recovered);
    assert_eq!(run.reports[1].retries, 1);
    assert_eq!(
        run.reports[1].fault.as_ref().map(SrmError::kind),
        Some("non-finite-likelihood")
    );

    let without_retry = RunOptions {
        retry: RetryPolicy::none(),
        fault_plan: plan,
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };
    let degraded = run_chains_fault_tolerant(&sampler, &config, &without_retry).unwrap();
    assert_eq!(degraded.output.chains.len(), 1);
    assert!(!degraded.reports[1].recovered);
    assert_eq!(
        degraded.reports[1].fault.as_ref().map(SrmError::kind),
        Some("non-finite-likelihood")
    );
}

#[test]
fn zero_chains_is_a_typed_invalid_config() {
    let data = datasets::musa_cc96().truncated(20).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(0, 904);
    let err = run_chains_fault_tolerant(&sampler, &config, &RunOptions::none()).unwrap_err();
    assert!(matches!(err, SrmError::InvalidConfig { .. }));
}

#[test]
fn losing_every_chain_is_an_error_not_a_panic() {
    let data = datasets::musa_cc96().truncated(20).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(2, 905);
    let options = RunOptions {
        retry: RetryPolicy::none(),
        fault_plan: FaultPlan::new(vec![
            FaultPoint {
                chain: 0,
                sweep: 1,
                kind: FaultKind::Panic,
            },
            FaultPoint {
                chain: 1,
                sweep: 1,
                kind: FaultKind::Panic,
            },
        ]),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };
    let err = run_chains_fault_tolerant(&sampler, &config, &options).unwrap_err();
    assert!(matches!(err, SrmError::ChainPanicked { .. }));
}

#[test]
fn seeded_fault_plans_are_reproducible_and_in_range() {
    let plan_a = FaultPlan::from_seed(77, 4, 350, 6);
    let plan_b = FaultPlan::from_seed(77, 4, 350, 6);
    assert_eq!(plan_a, plan_b);
    assert_eq!(plan_a.points().len(), 6);
    for point in plan_a.points() {
        assert!(point.chain < 4);
        assert!(point.sweep < 350);
    }
    let plan_c = FaultPlan::from_seed(78, 4, 350, 6);
    assert_ne!(plan_a, plan_c, "plans must vary with the seed");
}

#[test]
fn injected_faults_report_identically_across_thread_counts() {
    // Satellite regression for the parallel runner: a seed-derived
    // fault plan must produce the same surviving chains, the same
    // ChainReports (kind, retries, recovery) and the same
    // fault counters whether the chains run on 1 worker or 4.
    let data = datasets::musa_cc96().truncated(30).unwrap();
    let sampler = make_sampler(&data);
    let config = small_config(4, 906);
    let total_sweeps = config.burn_in + config.samples * config.thin;
    let plan = FaultPlan::from_seed(906, config.chains, total_sweeps, 3);

    let run_with = |threads: usize| {
        let options = RunOptions {
            retry: RetryPolicy { max_retries: 2 },
            fault_plan: plan.clone(),
            threads,
            checkpoint_every: 0,
            profiler: None,
        };
        run_chains_fault_tolerant(&sampler, &config, &options).unwrap()
    };

    let serial = run_with(1);
    for threads in [2usize, 4] {
        let parallel = run_with(threads);
        assert_chains_bit_identical(&serial.output, &parallel.output);
        // Full structural equality of the reports: chain index, fault
        // payload, retry count, recovery flag.
        // Compared via Debug because an injected NonFiniteLikelihood
        // carries a NaN, and NaN != NaN under PartialEq.
        assert_eq!(
            format!("{:?}", serial.reports),
            format!("{:?}", parallel.reports),
            "threads {threads}"
        );
    }

    // The plan injects three faults, so the run is visibly degraded
    // or retried — the regression must exercise a non-trivial path.
    let touched = serial
        .reports
        .iter()
        .any(|r| r.fault.is_some() || r.retries > 0);
    assert!(touched, "fault plan did not touch any chain");
}
