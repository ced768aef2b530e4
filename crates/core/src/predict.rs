//! Release-readiness prediction derived from a finished [`Fit`]:
//! reliability over a future horizon and the expected number of
//! detections, evaluated at the plug-in posterior-mean parameters.
//!
//! This is the computation behind `srm predict`, factored out of the
//! CLI so the estimation service can run predict jobs through the
//! exact same code path.

use crate::fit::Fit;
use srm_data::BugCountData;
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::SrmError;
use srm_model::predictive::expected_future_detections;
use srm_model::reliability::reliability_curve;
use srm_model::{nb_posterior, poisson_posterior};

/// Reliability and expected detections over a future horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Horizon length in days.
    pub horizon: usize,
    /// Expected number of detections within the horizon.
    pub expected_detections: f64,
    /// `R(h) = P(no detection within h days)` for `h = 1..=horizon`.
    pub reliability: Vec<f64>,
}

/// Evaluates the plug-in predictive quantities of `fit` over the next
/// `horizon` days after the end of `data`.
///
/// The detection schedule is evaluated at the posterior-mean `ζ`, and
/// the residual-count posterior at the posterior-mean prior
/// hyperparameters — the paper's plug-in approximation, identical to
/// what `srm predict` reports.
///
/// # Errors
///
/// Returns [`SrmError::InvalidConfig`] when `horizon` is zero or the
/// posterior-mean parameters fall outside the model's domain (which
/// indicates a degenerate fit, such as a `λ_max` so small that the
/// posterior-mean `λ0` underflows to 0).
pub fn predict_from_fit(
    fit: &Fit,
    data: &BugCountData,
    horizon: usize,
) -> Result<Prediction, SrmError> {
    if horizon == 0 {
        return Err(SrmError::InvalidConfig {
            detail: "prediction horizon must be positive".into(),
        });
    }
    let mean_of = |name: &str| -> f64 {
        let d = fit.output.pooled(name);
        if d.is_empty() {
            f64::NAN
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    };
    let model = fit.model;
    let zeta: Vec<f64> = model.param_names().iter().map(|n| mean_of(n)).collect();
    let schedule = model
        .probs(&zeta, data.len())
        .map_err(|e| SrmError::InvalidConfig {
            detail: format!("fitted parameters invalid: {e}"),
        })?;
    let posterior = match fit.prior {
        PriorSpec::Poisson { .. } => {
            let lambda0 = mean_of("lambda0");
            if !(lambda0.is_finite() && lambda0 > 0.0) {
                return Err(SrmError::InvalidConfig {
                    detail: format!("fitted lambda0 must be finite and > 0, got {lambda0}"),
                });
            }
            poisson_posterior(lambda0, &schedule, data)
        }
        PriorSpec::NegBinomial { .. } => nb_posterior(
            mean_of("alpha0").max(1e-9),
            mean_of("beta0").clamp(1e-9, 1.0 - 1e-9),
            &schedule,
            data,
        ),
    };
    let future: Vec<f64> = ((data.len() + 1) as u64..=(data.len() + horizon) as u64)
        .map(|i| model.prob_unchecked(&zeta, i))
        .collect();
    Ok(Prediction {
        horizon,
        expected_detections: expected_future_detections(&posterior, &future, horizon),
        reliability: reliability_curve(&posterior, &future, horizon),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::FitConfig;
    use srm_data::datasets;
    use srm_mcmc::runner::McmcConfig;
    use srm_mcmc::Chain;
    use srm_model::DetectionModel;

    fn smoke_fit() -> (Fit, BugCountData) {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let config = FitConfig {
            mcmc: McmcConfig::smoke(71),
            ..FitConfig::default()
        };
        let fit = Fit::run(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            &data,
            &config,
        );
        (fit, data)
    }

    #[test]
    fn reliability_is_monotone_nonincreasing_in_horizon() {
        let (fit, data) = smoke_fit();
        let p = predict_from_fit(&fit, &data, 20).unwrap();
        assert_eq!(p.reliability.len(), 20);
        for w in p.reliability.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "reliability increased: {w:?}");
        }
        assert!(p.expected_detections >= 0.0);
        assert!((0.0..=1.0).contains(&p.reliability[0]));
    }

    #[test]
    fn zero_horizon_is_a_typed_error() {
        let (fit, data) = smoke_fit();
        let err = predict_from_fit(&fit, &data, 0).unwrap_err();
        assert!(matches!(err, SrmError::InvalidConfig { .. }));
    }

    #[test]
    fn vanishing_lambda0_is_a_typed_error() {
        // A fit whose λ0 draws are all 0: its posterior mean is outside
        // the Poisson prior's domain.
        let (mut fit, data) = smoke_fit();
        for chain in &mut fit.output.chains {
            let names: Vec<&str> = chain.names().iter().map(String::as_str).collect();
            let mut zeroed = Chain::new(&names);
            for row in 0..chain.len() {
                let values: Vec<f64> = names
                    .iter()
                    .map(|&name| match name {
                        "lambda0" => 0.0,
                        _ => chain.draws(name).unwrap()[row],
                    })
                    .collect();
                zeroed.push(&values);
            }
            *chain = zeroed;
        }
        let err = predict_from_fit(&fit, &data, 30).unwrap_err();
        assert!(matches!(err, SrmError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn prediction_is_deterministic_for_a_fixed_fit() {
        let (fit, data) = smoke_fit();
        let a = predict_from_fit(&fit, &data, 10).unwrap();
        let b = predict_from_fit(&fit, &data, 10).unwrap();
        assert_eq!(a, b);
    }
}
