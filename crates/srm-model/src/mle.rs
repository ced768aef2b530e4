//! Maximum-likelihood baseline (the non-Bayesian comparator).
//!
//! Under the Poisson prior, marginalising `N` makes the daily counts
//! independent Poissons: `x_i ~ Poisson(λ0 w_i)` with
//! `w_i = p_i Π_{j<i} q_j` — the discrete NHPP-based SRM. Its MLE has
//! a closed-form profile in `λ0` (`λ̂0 = s_k / Σ w_i`), leaving a 1–2
//! dimensional search over `ζ` that Nelder–Mead handles. AIC/BIC are
//! valid here (the paper notes they are *not* valid for the Bayesian
//! fits, which is why it uses WAIC — we implement both sides so the
//! contrast is reproducible).

use crate::detection::{DetectionModel, ModelError, ZetaBounds};
use srm_data::BugCountData;
use srm_math::optim::{nelder_mead, NelderMeadConfig};
use srm_math::special::ln_factorial;

/// Result of a maximum-likelihood NHPP fit.
#[derive(Debug, Clone, PartialEq)]
pub struct MleFit {
    /// The detection model that was fitted.
    pub model: DetectionModel,
    /// Fitted detection parameters `ζ̂`.
    pub zeta: Vec<f64>,
    /// Fitted expected initial content `λ̂0`.
    pub lambda0: f64,
    /// Maximised log-likelihood.
    pub log_likelihood: f64,
    /// Akaike information criterion `2k − 2 ln L̂` (parameters:
    /// `|ζ| + 1` for `λ0`).
    pub aic: f64,
    /// Bayesian information criterion `k ln n − 2 ln L̂`.
    pub bic: f64,
    /// Whether the optimiser reported convergence.
    pub converged: bool,
}

/// The marginal (NHPP) log-likelihood for a given schedule, profiled
/// over `λ0`; returns `(profile λ0, log-likelihood)`.
fn profile_loglik(counts: &[u64], probs: &[f64]) -> (f64, f64) {
    let total: u64 = counts.iter().sum();
    let mut survival = 1.0;
    let mut weights = Vec::with_capacity(counts.len());
    for &p in &probs[..counts.len()] {
        weights.push(p * survival);
        survival *= 1.0 - p;
    }
    let weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 || total == 0 {
        // No detectability (or no data): λ̂0 → 0; define ll at limit.
        let ll = -counts.iter().map(|&x| ln_factorial(x)).sum::<f64>();
        return (0.0, if total == 0 { ll } else { f64::NEG_INFINITY });
    }
    let lambda0 = total as f64 / weight_sum;
    let mut ll = 0.0;
    for (&x, &w) in counts.iter().zip(&weights) {
        let mean = lambda0 * w;
        if mean <= 0.0 {
            if x > 0 {
                return (lambda0, f64::NEG_INFINITY);
            }
            continue;
        }
        ll += x as f64 * mean.ln() - mean - ln_factorial(x);
    }
    (lambda0, ll)
}

/// Fits the discrete NHPP model by maximum likelihood with a
/// multi-start Nelder–Mead search over `ζ`.
///
/// # Errors
///
/// Returns [`ModelError`] if every start fails to produce a finite
/// likelihood (cannot happen for valid data, but kept explicit).
pub fn fit_nhpp(
    data: &BugCountData,
    model: DetectionModel,
    limits: &ZetaBounds,
) -> Result<MleFit, ModelError> {
    let bounds = model.bounds(limits);
    let horizon = data.len();
    let counts = data.counts().to_vec();

    let objective = |zeta: &[f64]| -> f64 {
        if model.validate(zeta).is_err() {
            return f64::INFINITY;
        }
        let probs: Vec<f64> = (1..=horizon as u64)
            .map(|i| model.prob_unchecked(zeta, i))
            .collect();
        let (_, ll) = profile_loglik(&counts, &probs);
        -ll
    };

    // Multi-start grid: 3 points per dimension inside the box.
    let mut starts: Vec<Vec<f64>> = vec![vec![]];
    for &(lo, hi) in &bounds {
        let mut next = Vec::new();
        for s in &starts {
            for frac in [0.15, 0.5, 0.85] {
                let mut v = s.clone();
                v.push(lo + frac * (hi - lo));
                next.push(v);
            }
        }
        starts = next;
    }

    let config = NelderMeadConfig {
        max_evals: 5_000,
        ..NelderMeadConfig::default()
    };
    let mut best: Option<(Vec<f64>, f64, bool)> = None;
    for start in starts {
        let r = nelder_mead(objective, &start, Some(&bounds), &config);
        if r.fx.is_finite() {
            let better = best.as_ref().is_none_or(|(_, fx, _)| r.fx < *fx);
            if better {
                best = Some((r.x, r.fx, r.converged));
            }
        }
    }
    let (zeta, neg_ll, converged) = best.ok_or(ModelError::OutOfRange {
        name: "zeta",
        value: f64::NAN,
        constraint: "no feasible starting point",
    })?;

    let probs = model.probs(&zeta, horizon)?;
    let (lambda0, log_likelihood) = profile_loglik(&counts, &probs);
    debug_assert!((log_likelihood + neg_ll).abs() < 1e-6);
    let k = (model.dim() + 1) as f64;
    let n = data.len() as f64;
    Ok(MleFit {
        model,
        zeta,
        lambda0,
        log_likelihood,
        aic: 2.0 * k - 2.0 * log_likelihood,
        bic: k * n.ln() - 2.0 * log_likelihood,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;

    #[test]
    fn profile_lambda_matches_closed_form() {
        let counts = [3u64, 2, 1];
        let probs = [0.2, 0.2, 0.2];
        let (lambda0, ll) = profile_loglik(&counts, &probs);
        // w = [0.2, 0.16, 0.128], Σw = 0.488, λ̂0 = 6/0.488.
        assert!((lambda0 - 6.0 / 0.488).abs() < 1e-10);
        assert!(ll.is_finite());
        // Perturbing λ0 must not improve the likelihood.
        let ll_at = |l: f64| {
            let w = [0.2, 0.16, 0.128];
            counts
                .iter()
                .zip(&w)
                .map(|(&x, &wi)| {
                    let m = l * wi;
                    x as f64 * m.ln() - m - ln_factorial(x)
                })
                .sum::<f64>()
        };
        assert!(ll_at(lambda0) >= ll_at(lambda0 * 1.05) - 1e-12);
        assert!(ll_at(lambda0) >= ll_at(lambda0 * 0.95) - 1e-12);
    }

    #[test]
    fn recovers_simulated_constant_model() {
        let sim = srm_data::DetectionSimulator::new(300, vec![0.04; 80]);
        let project = sim.run(2024);
        let fit = fit_nhpp(
            &project.data,
            DetectionModel::Constant,
            &ZetaBounds::default(),
        )
        .unwrap();
        assert!((fit.zeta[0] - 0.04).abs() < 0.02, "mu = {}", fit.zeta[0]);
        assert!(
            (fit.lambda0 - 300.0).abs() < 90.0,
            "lambda0 = {}",
            fit.lambda0
        );
    }

    #[test]
    fn all_models_fit_musa_data() {
        let data = datasets::musa_cc96();
        let mut lls = Vec::new();
        for model in DetectionModel::ALL {
            let fit = fit_nhpp(&data, model, &ZetaBounds::default()).unwrap();
            assert!(fit.log_likelihood.is_finite(), "{model}");
            assert!(fit.lambda0 >= 136.0 * 0.5, "{model}: λ0 = {}", fit.lambda0);
            assert!(fit.aic > 0.0 && fit.bic > 0.0);
            lls.push((model, fit.log_likelihood, fit.aic));
        }
        // The heterogeneous models with a time-scale parameter
        // (model1, model2) must clearly beat the rest on this
        // dataset, mirroring the paper's WAIC ranking where model1
        // dominates and model2 trails it closely.
        let aic_of = |target: DetectionModel| lls.iter().find(|(m, _, _)| *m == target).unwrap().2;
        let hetero_best =
            aic_of(DetectionModel::PadgettSpurrier).min(aic_of(DetectionModel::LogLogistic));
        for loser in [
            DetectionModel::Constant,
            DetectionModel::Pareto,
            DetectionModel::Weibull,
        ] {
            assert!(
                aic_of(loser) > hetero_best + 10.0,
                "{loser} unexpectedly competitive"
            );
        }
    }

    #[test]
    fn aic_bic_ordering() {
        // BIC penalises harder than AIC once ln n > 2.
        let data = datasets::musa_cc96();
        let fit = fit_nhpp(&data, DetectionModel::Weibull, &ZetaBounds::default()).unwrap();
        assert!(fit.bic > fit.aic);
    }

    #[test]
    fn zero_data_profile_is_degenerate() {
        let (lambda0, ll) = profile_loglik(&[0, 0], &[0.3, 0.3]);
        assert_eq!(lambda0, 0.0);
        assert!(ll.is_finite());
    }
}
