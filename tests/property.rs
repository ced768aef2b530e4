//! Property-based tests of cross-crate invariants.
//!
//! The original suite used `proptest`; this build environment has no
//! crates.io access, so the same properties run under a hand-rolled
//! harness: every `#[test]` draws `CASES` random inputs from a seeded
//! [`SplitMix64`] stream, making each property deterministic and
//! shrink-free but otherwise equivalent in coverage.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use srm::data::BugCountData;
use srm::model::{nb_posterior, poisson_posterior, DetectionModel, GroupedLikelihood};
use srm::rand::{Rng, SplitMix64};

const CASES: usize = 128;

/// Uniform draw in `[lo, hi)`.
fn f64_in(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Uniform integer draw in `[lo, hi)`.
fn usize_in(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.next_below((hi - lo) as u64) as usize
}

/// Random count vector with entries in `[0, max_count)` and a length
/// in `[min_len, max_len)`.
fn counts(rng: &mut SplitMix64, min_len: usize, max_len: usize, max_count: u64) -> Vec<u64> {
    let len = usize_in(rng, min_len, max_len);
    (0..len).map(|_| rng.next_below(max_count)).collect()
}

/// One random detection model with parameters drawn from the same
/// boxes the proptest strategies used.
fn detection_model(rng: &mut SplitMix64) -> (DetectionModel, Vec<f64>) {
    match rng.next_below(5) {
        0 => (DetectionModel::Constant, vec![f64_in(rng, 0.01, 0.99)]),
        1 => (
            DetectionModel::PadgettSpurrier,
            vec![f64_in(rng, 0.01, 0.99), f64_in(rng, 0.01, 20.0)],
        ),
        2 => (
            DetectionModel::LogLogistic,
            vec![f64_in(rng, 0.01, 0.99), f64_in(rng, -5.0, 5.0)],
        ),
        3 => (DetectionModel::Pareto, vec![f64_in(rng, 0.01, 0.99)]),
        _ => (
            DetectionModel::Weibull,
            vec![f64_in(rng, 0.01, 0.99), f64_in(rng, 0.01, 0.99)],
        ),
    }
}

/// Every detection model yields probabilities strictly inside (0, 1)
/// on any day.
#[test]
fn detection_probabilities_in_open_unit_interval() {
    let mut rng = SplitMix64::seed_from(0x5EED_0001);
    for _ in 0..CASES {
        let (model, zeta) = detection_model(&mut rng);
        let day = 1 + rng.next_below(9_999);
        let p = model.prob(&zeta, day).unwrap();
        assert!(p > 0.0 && p < 1.0, "{model} day {day}: {p}");
    }
}

/// The joint likelihood factorises into the pointwise binomial terms
/// (Eq. (2) == product of Eq. (1)).
#[test]
fn likelihood_factorisation() {
    let mut rng = SplitMix64::seed_from(0x5EED_0002);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 40, 6)).unwrap();
        let (model, zeta) = detection_model(&mut rng);
        let extra = rng.next_below(200);
        let lik = GroupedLikelihood::new(&data);
        let n = data.total() + extra;
        let probs = model.probs(&zeta, data.len()).unwrap();
        let joint = lik.ln_likelihood(n, &probs);
        let pointwise: f64 = lik.ln_pointwise_all(n, &probs).iter().sum();
        assert!(
            (joint - pointwise).abs() < 1e-7 * joint.abs().max(1.0),
            "joint {joint} vs pointwise {pointwise}"
        );
    }
}

/// Proposition 1 against brute-force Bayes on random data and random
/// schedules.
#[test]
fn poisson_posterior_proposition() {
    let mut rng = SplitMix64::seed_from(0x5EED_0003);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 15, 4)).unwrap();
        let lambda0 = f64_in(&mut rng, 5.0, 80.0);
        let (model, zeta) = detection_model(&mut rng);
        let probs = model.probs(&zeta, data.len()).unwrap();
        let lik = GroupedLikelihood::new(&data);
        let s_k = data.total();
        let post = poisson_posterior(lambda0, &probs, &data);
        // Brute-force over residual r.
        let logs: Vec<f64> = (0..400u64)
            .map(|r| {
                let n = s_k + r;
                let prior = n as f64 * lambda0.ln() - lambda0 - srm::math::ln_factorial(n);
                prior + lik.ln_likelihood(n, &probs)
            })
            .collect();
        let z = srm::math::log_sum_exp(&logs);
        for r in [0u64, 1, 3, 10, 30] {
            let brute = (logs[r as usize] - z).exp();
            let analytic = post.ln_pmf(r).exp();
            assert!(
                (brute - analytic).abs() < 1e-6,
                "r = {r}: brute {brute} vs analytic {analytic}"
            );
        }
    }
}

/// Corrected Proposition 2 against brute-force Bayes.
#[test]
fn nb_posterior_proposition() {
    let mut rng = SplitMix64::seed_from(0x5EED_0004);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 12, 4)).unwrap();
        let alpha0 = f64_in(&mut rng, 0.5, 20.0);
        let beta0 = f64_in(&mut rng, 0.05, 0.95);
        let (model, zeta) = detection_model(&mut rng);
        let probs = model.probs(&zeta, data.len()).unwrap();
        let lik = GroupedLikelihood::new(&data);
        let s_k = data.total();
        let post = nb_posterior(alpha0, beta0, &probs, &data);
        let logs: Vec<f64> = (0..3_000u64)
            .map(|r| {
                let n = s_k + r;
                let prior = srm::math::special::ln_nb_coeff(alpha0, n)
                    + alpha0 * beta0.ln()
                    + n as f64 * (1.0 - beta0).ln();
                prior + lik.ln_likelihood(n, &probs)
            })
            .collect();
        let z = srm::math::log_sum_exp(&logs);
        for r in [0u64, 1, 5, 20] {
            let brute = (logs[r as usize] - z).exp();
            let analytic = post.ln_pmf(r).exp();
            assert!(
                (brute - analytic).abs() < 1e-5,
                "r = {r}: brute {brute} vs analytic {analytic}"
            );
        }
    }
}

/// Posterior summaries are order-consistent for any draw set.
#[test]
fn summary_orderings() {
    let mut rng = SplitMix64::seed_from(0x5EED_0005);
    for _ in 0..CASES {
        let len = usize_in(&mut rng, 1, 400);
        let draws: Vec<f64> = (0..len).map(|_| f64_in(&mut rng, -1e6, 1e6)).collect();
        let s = srm::mcmc::PosteriorSummary::from_draws(&draws);
        assert!(s.min <= s.q1 + 1e-9);
        assert!(s.q1 <= s.median + 1e-9);
        assert!(s.median <= s.q3 + 1e-9);
        assert!(s.q3 <= s.max + 1e-9);
        assert!(s.sd >= 0.0);
        assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        assert_eq!(s.nan_draws, 0);
    }
}

/// Virtual testing (zero-count extension) never increases the
/// analytic posterior mean, for any model and prior parameters.
#[test]
fn virtual_testing_monotone() {
    let mut rng = SplitMix64::seed_from(0x5EED_0006);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 3, 20, 5)).unwrap();
        let lambda0 = f64_in(&mut rng, 10.0, 200.0);
        let (model, zeta) = detection_model(&mut rng);
        let extra = usize_in(&mut rng, 1, 40);
        let extended = data.extended_with_zeros(extra);
        let probs_short = model.probs(&zeta, data.len()).unwrap();
        let probs_long = model.probs(&zeta, extended.len()).unwrap();
        let short = poisson_posterior(lambda0, &probs_short, &data).mean();
        let long = poisson_posterior(lambda0, &probs_long, &extended).mean();
        assert!(
            long <= short + 1e-9,
            "extension raised mean: {short} -> {long}"
        );
    }
}

/// CSV round-trips arbitrary datasets.
#[test]
fn csv_round_trip() {
    let mut rng = SplitMix64::seed_from(0x5EED_0007);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 40, 6)).unwrap();
        let mut buf = Vec::new();
        srm::data::csv::write_counts(&data, &mut buf).unwrap();
        let back = srm::data::csv::read_counts(buf.as_slice()).unwrap();
        assert_eq!(back, data);
    }
}

/// Poisson CDF/quantile are mutually inverse for any mean.
#[test]
fn poisson_quantile_inverts_cdf() {
    let mut rng = SplitMix64::seed_from(0x5EED_0008);
    for _ in 0..CASES {
        let mean = f64_in(&mut rng, 0.1, 500.0);
        let p = f64_in(&mut rng, 0.001, 0.999);
        let d = srm::rand::Poisson::new(mean).unwrap();
        let k = d.quantile(p);
        assert!(d.cdf(k) >= p);
        if k > 0 {
            assert!(d.cdf(k - 1) < p);
        }
    }
}

/// NB CDF/quantile are mutually inverse for any parameters.
#[test]
fn nb_quantile_inverts_cdf() {
    let mut rng = SplitMix64::seed_from(0x5EED_0009);
    for _ in 0..CASES {
        let r = f64_in(&mut rng, 0.2, 60.0);
        let beta = f64_in(&mut rng, 0.05, 0.95);
        let p = f64_in(&mut rng, 0.001, 0.999);
        let d = srm::rand::NegativeBinomial::new(r, beta).unwrap();
        let k = d.quantile(p);
        assert!(d.cdf(k) >= p - 1e-12);
        if k > 0 {
            assert!(d.cdf(k - 1) < p + 1e-12);
        }
    }
}

/// The reliability PGF is monotone in z and respects the endpoint
/// identities for both posterior families.
#[test]
fn pgf_monotone_and_bounded() {
    use srm::model::posterior::ResidualPosterior;
    use srm::model::reliability::pgf;
    let mut rng = SplitMix64::seed_from(0x5EED_000A);
    for _ in 0..CASES {
        let lambda = f64_in(&mut rng, 0.01, 200.0);
        let alpha = f64_in(&mut rng, 0.2, 50.0);
        let beta = f64_in(&mut rng, 0.05, 0.95);
        let z1 = rng.next_f64();
        let z2 = rng.next_f64();
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        for post in [
            ResidualPosterior::Poisson { lambda_k: lambda },
            ResidualPosterior::NegBinomial {
                alpha_k: alpha,
                beta_k: beta,
            },
        ] {
            let a = pgf(&post, lo);
            let b = pgf(&post, hi);
            assert!(a <= b + 1e-12);
            assert!((0.0..=1.0).contains(&a));
            assert!((pgf(&post, 1.0) - 1.0).abs() < 1e-9);
        }
    }
}

/// The forward filter agrees with Proposition 1 for arbitrary data,
/// schedules and Poisson priors.
#[test]
fn forward_filter_matches_proposition_one() {
    use srm::model::markov::{forward_filter, truncated_prior_pmf};
    let mut rng = SplitMix64::seed_from(0x5EED_000B);
    for _ in 0..CASES {
        let data = BugCountData::new(counts(&mut rng, 1, 8, 3)).unwrap();
        let lambda0 = f64_in(&mut rng, 2.0, 40.0);
        let mu = f64_in(&mut rng, 0.05, 0.6);
        let probs = vec![mu; data.len()];
        let prior = srm::model::BugPrior::poisson(lambda0).unwrap();
        let pmf = truncated_prior_pmf(&prior, 400);
        let filtered = forward_filter(&pmf, &probs, &data).unwrap();
        let analytic = poisson_posterior(lambda0, &probs, &data);
        assert!((filtered.mean() - analytic.mean()).abs() < 1e-6);
        for r in [0usize, 1, 5] {
            assert!((filtered.residual_pmf[r] - analytic.ln_pmf(r as u64).exp()).abs() < 1e-8);
        }
    }
}

/// Weekly aggregation preserves totals and shrinks length.
#[test]
fn aggregation_invariants() {
    let mut rng = SplitMix64::seed_from(0x5EED_000C);
    for _ in 0..CASES {
        let d = BugCountData::new(counts(&mut rng, 1, 120, 9)).unwrap();
        let width = usize_in(&mut rng, 1, 15);
        let agg = d.aggregated(width);
        assert_eq!(agg.total(), d.total());
        assert_eq!(agg.len(), d.len().div_ceil(width));
    }
}

/// The detection simulator conserves bugs for any schedule.
#[test]
fn simulator_conserves_bugs() {
    let mut rng = SplitMix64::seed_from(0x5EED_000D);
    for _ in 0..CASES {
        let n0 = rng.next_below(500);
        let (model, zeta) = detection_model(&mut rng);
        let horizon = usize_in(&mut rng, 1, 50);
        let seed = rng.next_below(1_000);
        let probs = model.probs(&zeta, horizon).unwrap();
        let project = srm::data::DetectionSimulator::new(n0, probs).run(seed);
        assert_eq!(project.data.total() + project.true_residual, n0);
        assert_eq!(project.data.len(), horizon);
    }
}

/// One random (prior, model) sampler pairing for the MCMC properties.
fn random_sampler(rng: &mut SplitMix64, data: &BugCountData) -> srm::mcmc::GibbsSampler {
    let prior = if rng.next_below(2) == 0 {
        srm::mcmc::PriorSpec::Poisson {
            lambda_max: f64_in(rng, 500.0, 4_000.0),
        }
    } else {
        srm::mcmc::PriorSpec::NegBinomial {
            alpha_max: f64_in(rng, 20.0, 200.0),
        }
    };
    let model = DetectionModel::ALL[rng.next_below(5) as usize];
    srm::mcmc::GibbsSampler::new(prior, model, srm::model::ZetaBounds::default(), data)
}

/// Any worker count is bit-identical to the single-threaded run for
/// any seed, prior/model pairing: chain `i` is a pure function of
/// `(seed, i)` regardless of scheduling.
#[test]
fn parallel_chains_bit_identical_to_serial() {
    use srm::mcmc::runner::{run_chains, run_chains_fault_tolerant, McmcConfig, RunOptions};
    let mut rng = SplitMix64::seed_from(0x5EED_000E);
    // MCMC is orders of magnitude costlier than the closed-form
    // properties above, so this property draws fewer cases.
    for _ in 0..6 {
        let data = BugCountData::new(counts(&mut rng, 10, 30, 6)).unwrap();
        if data.total() == 0 {
            continue;
        }
        let sampler = random_sampler(&mut rng, &data);
        let config = McmcConfig {
            chains: 3,
            burn_in: 60,
            samples: 80,
            thin: 1,
            seed: rng.next_below(1 << 40),
        };
        let serial = run_chains_fault_tolerant(&sampler, &config, &RunOptions::with_threads(1))
            .unwrap()
            .output;
        assert_eq!(run_chains(&sampler, &config), serial);
        for threads in [2usize, 4] {
            let run =
                run_chains_fault_tolerant(&sampler, &config, &RunOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(run.output.chains.len(), serial.chains.len());
            for (ca, cb) in serial.chains.iter().zip(&run.output.chains) {
                for name in ca.names() {
                    let da = ca.draws(name).unwrap();
                    let db = cb.draws(name).unwrap();
                    assert!(
                        da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "threads {threads}, param {name}"
                    );
                }
            }
        }
    }
}

/// The sufficient-statistics cache is exact: cached and uncached
/// sweeps agree to the bit (0 ULP) on random datasets, because the
/// memoised quantities are recomputed in the identical sequential
/// accumulation order.
#[test]
fn cached_sweeps_bit_identical_to_uncached() {
    use srm::mcmc::runner::{run_chains, McmcConfig};
    let mut rng = SplitMix64::seed_from(0x5EED_000F);
    for _ in 0..6 {
        let data = BugCountData::new(counts(&mut rng, 10, 30, 6)).unwrap();
        if data.total() == 0 {
            continue;
        }
        let cached = random_sampler(&mut rng, &data);
        let uncached = cached.clone().with_cached_stats(false);
        let config = McmcConfig {
            chains: 2,
            burn_in: 60,
            samples: 80,
            thin: 1,
            seed: rng.next_below(1 << 40),
        };
        let a = run_chains(&cached, &config);
        let b = run_chains(&uncached, &config);
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            for name in ca.names() {
                let da = ca.draws(name).unwrap();
                let db = cb.draws(name).unwrap();
                assert!(
                    da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "param {name}"
                );
            }
        }
    }
}
