//! End-to-end validation of the Gibbs sampler against brute-force
//! numerical posteriors.
//!
//! For the Poisson prior with the constant detection model, the
//! marginal posterior of the residual count has a semi-analytic form:
//! integrating `λ0` out of `Uniform(0, λ_max) × Poisson(N; λ0)` gives
//! `P(N+1, λ_max)` (regularised incomplete gamma), so
//!
//! ```text
//! p(R = r | x) ∝ P(s_k + r + 1, λ_max) · ∫_0^1 L(x | s_k + r, μ) dμ
//! ```
//!
//! which one-dimensional quadrature evaluates to machine precision.
//! The MCMC estimate must agree within Monte-Carlo error.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::data::datasets;
use srm::math::incgamma::{inc_gamma_p, ln_inc_gamma_p};
use srm::math::quadrature::integrate;
use srm::model::detection::OPEN_EPS;
use srm::model::GroupedLikelihood;
use srm::prelude::*;
use srm::rand::Xoshiro256StarStar;

/// Simulated project with a clearly identified posterior.
fn test_data() -> BugCountData {
    DetectionSimulator::new(200, vec![0.05; 60]).run(4242).data
}

/// Brute-force residual posterior by quadrature; returns unnormalised
/// log-masses for r = 0..len.
fn quadrature_posterior(data: &BugCountData, lambda_max: f64, max_r: u64) -> Vec<f64> {
    let lik = GroupedLikelihood::new(data);
    let k = data.len();
    let s_k = data.total();
    (0..=max_r)
        .map(|r| {
            let n = s_k + r;
            // Scan for the peak and the effective support of the
            // log-integrand over μ (the peak is narrow: seeding the
            // adaptive quadrature at {0, 0.5, 1} would miss it).
            let grid = 2_000;
            let ll = |mu: f64| lik.ln_likelihood(n, &vec![mu; k]);
            let mut shift = f64::NEG_INFINITY;
            for i in 1..grid {
                shift = shift.max(ll(i as f64 / grid as f64));
            }
            if shift == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            let mut lo = 1.0f64;
            let mut hi = 0.0f64;
            for i in 1..grid {
                let mu = i as f64 / grid as f64;
                if ll(mu) > shift - 45.0 {
                    lo = lo.min(mu);
                    hi = hi.max(mu);
                }
            }
            lo = (lo - 1.0 / grid as f64).max(1e-12);
            hi = (hi + 1.0 / grid as f64).min(1.0 - 1e-12);
            let integral = integrate(|mu| (ll(mu) - shift).exp(), lo, hi, 1e-12);
            shift + integral.ln() + inc_gamma_p(n as f64 + 1.0, lambda_max).ln()
        })
        .collect()
}

fn moments_from_log_masses(log_masses: &[f64]) -> (f64, f64) {
    let z = srm::math::log_sum_exp(log_masses);
    let mut mean = 0.0;
    let mut second = 0.0;
    for (r, &lm) in log_masses.iter().enumerate() {
        let p = (lm - z).exp();
        mean += r as f64 * p;
        second += (r as f64) * (r as f64) * p;
    }
    (mean, (second - mean * mean).sqrt())
}

fn gibbs_residual_moments(
    data: &BugCountData,
    kind: srm::mcmc::gibbs::SweepKind,
    seed: u64,
) -> (f64, f64) {
    let sampler = GibbsSampler::new(
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        DetectionModel::Constant,
        ZetaBounds::default(),
        data,
    )
    .with_sweep_kind(kind);
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let chain = sampler.run_chain(&mut rng, 1_000, 6_000, 1);
    let draws = chain.draws("residual").expect("column exists");
    let mean = draws.iter().sum::<f64>() / draws.len() as f64;
    let sd = (draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / draws.len() as f64).sqrt();
    (mean, sd)
}

#[test]
fn collapsed_gibbs_matches_quadrature_posterior() {
    let data = test_data();
    let exact = quadrature_posterior(&data, 2_000.0, 700);
    let (exact_mean, exact_sd) = moments_from_log_masses(&exact);
    let (mcmc_mean, mcmc_sd) =
        gibbs_residual_moments(&data, srm::mcmc::gibbs::SweepKind::Collapsed, 101);
    assert!(
        (mcmc_mean - exact_mean).abs() < 0.12 * exact_mean.max(10.0),
        "mean: mcmc {mcmc_mean} vs exact {exact_mean}"
    );
    assert!(
        (mcmc_sd - exact_sd).abs() < 0.25 * exact_sd.max(5.0),
        "sd: mcmc {mcmc_sd} vs exact {exact_sd}"
    );
}

#[test]
fn naive_gibbs_targets_the_same_posterior() {
    let data = test_data();
    let exact = quadrature_posterior(&data, 2_000.0, 700);
    let (exact_mean, _) = moments_from_log_masses(&exact);
    let (naive_mean, _) = gibbs_residual_moments(&data, srm::mcmc::gibbs::SweepKind::Naive, 102);
    // The naive sweep mixes far more slowly, so allow a wider band —
    // but it must still be in the neighbourhood of the true mean.
    assert!(
        (naive_mean - exact_mean).abs() < 0.35 * exact_mean.max(10.0),
        "mean: naive {naive_mean} vs exact {exact_mean}"
    );
}

#[test]
fn collapsed_and_naive_agree_for_nb_prior() {
    // No quadrature reference here (3 hyper-parameters); instead the
    // two sweeps — which share only the exact-N conditional — must
    // agree on the posterior they sample.
    let data = test_data();
    let run = |kind, seed| {
        let sampler = GibbsSampler::new(
            PriorSpec::NegBinomial { alpha_max: 60.0 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        )
        .with_sweep_kind(kind);
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let chain = sampler.run_chain(&mut rng, 1_500, 8_000, 1);
        let draws = chain.draws("residual").unwrap();
        draws.iter().sum::<f64>() / draws.len() as f64
    };
    let collapsed = run(srm::mcmc::gibbs::SweepKind::Collapsed, 103);
    let naive = run(srm::mcmc::gibbs::SweepKind::Naive, 104);
    assert!(
        (collapsed - naive).abs() < 0.3 * collapsed.max(10.0),
        "collapsed {collapsed} vs naive {naive}"
    );
}

#[test]
fn analytic_posterior_consistent_with_known_parameter_slice() {
    // Conditioning the Gibbs state on fixed (λ0, μ) is Prop. 1
    // exactly; verify the sampler's exact-N step through the public
    // analytic posterior on the same data.
    let data = test_data();
    let probs = vec![0.05; data.len()];
    let post = poisson_posterior(200.0, &probs, &data);
    // 200 · 0.95^60 ≈ 9.2 expected residual bugs.
    let expected = 200.0 * 0.95f64.powi(60);
    assert!((post.mean() - expected).abs() < 1e-9);
    // The p.m.f. must normalise.
    let total: f64 = (0..200).map(|r| post.ln_pmf(r).exp()).sum();
    assert!((total - 1.0).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// λ0-marginal quadrature goldens
// ---------------------------------------------------------------------------

/// `E[R | x]` for a one-parameter curve under the Poisson prior, by
/// quadrature over `μ` of the λ0-marginal posterior:
///
/// ```text
/// E[R | x] = ∫ p(μ | x) · (a/W) · P(a+1, λ_max W) / P(a, λ_max W) · Π q_i dμ
/// p(μ | x) ∝ exp(Σ x_i ln w_i − a ln W + ln P(a, λ_max W))
/// ```
///
/// with `w_i = p_i Π_{j<i} q_j`, `W = 1 − Π q_i` and `a = s_k + 1`
/// (`s_k + ½` under the Jeffreys hyper-prior). Unlike the Props 1–2
/// goldens, which pin `λ0`, this integrates the whole hierarchy. It
/// integrates in `u = logit μ` over the sampler's box
/// `(OPEN_EPS, 1 − OPEN_EPS)`, on the curve's public probabilities.
fn marginal_quadrature_mean(
    model: DetectionModel,
    data: &BugCountData,
    lambda_max: f64,
    shape: f64,
) -> f64 {
    let counts = data.counts();
    // (ln posterior density in u, E[R | μ]) at u.
    let at = |u: f64| {
        let mu = 1.0 / (1.0 + (-u).exp());
        let probs = model.probs(&[mu], data.len()).unwrap();
        let (mut sum_x_ln_w, mut ln_q) = (0.0, 0.0);
        for (&p, &x) in probs.iter().zip(counts) {
            if x > 0 {
                sum_x_ln_w += x as f64 * (p.ln() + ln_q);
            }
            ln_q += (-p).ln_1p();
        }
        let w = -ln_q.exp_m1();
        let ln_p = ln_inc_gamma_p(shape, lambda_max * w);
        let jacobian = mu.ln() + (1.0 - mu).ln();
        let ln_density = sum_x_ln_w - shape * w.ln() + ln_p + jacobian;
        let ratio = (ln_inc_gamma_p(shape + 1.0, lambda_max * w) - ln_p).exp();
        (ln_density, shape / w * ratio * ln_q.exp())
    };
    let logit = |p: f64| (p / (1.0 - p)).ln();
    let (lo, hi) = (logit(OPEN_EPS), logit(1.0 - OPEN_EPS));
    // Locate the peak and the support on a grid first: seeding the
    // adaptive rule at three points would miss a narrow posterior.
    let grid = 4_000;
    let step = (hi - lo) / grid as f64;
    let nodes: Vec<(f64, f64)> = (0..=grid)
        .map(|i| {
            let u = lo + step * i as f64;
            (u, at(u).0)
        })
        .collect();
    let peak = nodes.iter().map(|n| n.1).fold(f64::NEG_INFINITY, f64::max);
    let inside: Vec<f64> = nodes
        .iter()
        .filter(|n| n.1 > peak - 45.0)
        .map(|n| n.0)
        .collect();
    let a = (inside[0] - step).max(lo);
    let b = (inside[inside.len() - 1] + step).min(hi);
    let mass = integrate(|u| (at(u).0 - peak).exp(), a, b, 1e-11);
    let moment = integrate(
        |u| {
            let (ln_density, mean) = at(u);
            (ln_density - peak).exp() * mean
        },
        a,
        b,
        1e-9,
    );
    moment / mass
}

#[test]
fn collapsed_gibbs_matches_lambda0_marginal_quadrature() {
    use srm::mcmc::diagnostics::report;
    use srm::mcmc::gibbs::HyperPrior;

    let lambda_max = 2_000.0;
    let base = datasets::musa_cc96();
    let windows = [
        base.truncated(48).unwrap(),
        base.clone(),
        base.extended_with_zeros(50),
    ];
    // (curve, window, hyper-prior, quadrature golden)
    let cells = [
        (DetectionModel::Constant, 0, HyperPrior::Uniform, 725.29),
        (DetectionModel::Constant, 1, HyperPrior::Uniform, 1_188.91),
        (DetectionModel::Constant, 2, HyperPrior::Uniform, 45.33),
        (DetectionModel::Pareto, 0, HyperPrior::Uniform, 979.38),
        (DetectionModel::Pareto, 1, HyperPrior::Uniform, 1_521.75),
        (DetectionModel::Pareto, 2, HyperPrior::Uniform, 1_463.64),
        (DetectionModel::Constant, 1, HyperPrior::Jeffreys, 1_114.35),
    ];
    let config = McmcConfig {
        chains: 4,
        burn_in: 1_000,
        samples: 4_000,
        thin: 1,
        seed: 7,
    };
    for (model, window, hyper, golden) in cells {
        let data = &windows[window];
        let shape = data.total() as f64
            + match hyper {
                HyperPrior::Uniform => 1.0,
                HyperPrior::Jeffreys => 0.5,
            };
        let exact = marginal_quadrature_mean(model, data, lambda_max, shape);
        let at = format!("{model} {hyper:?} at {} days", data.len());
        assert!(
            (exact - golden).abs() < 0.01,
            "{at}: quadrature {exact} vs {golden}"
        );
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson { lambda_max },
            model,
            ZetaBounds::default(),
            data,
        )
        .with_hyper_prior(hyper);
        let out = run_chains(&sampler, &config);
        let chains = out.per_chain("residual").unwrap();
        let pooled = out.pooled("residual");
        let mean = pooled.iter().sum::<f64>() / pooled.len() as f64;
        let mcse = report(&chains).mcse;
        assert!(
            (mean - exact).abs() < 4.0 * mcse,
            "{at}: mcmc {mean} (MCSE {mcse}) vs quadrature {exact}"
        );
    }
}
