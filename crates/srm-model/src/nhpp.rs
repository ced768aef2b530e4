//! Continuous-time correspondence: NHPP / NHMPP mean value functions.
//!
//! Marginalising `N` turns the discrete detection process into a
//! non-homogeneous (mixed) Poisson process whose mean value function
//! at day `i` is `m(i) = E[N] · (1 − Π_{j ≤ i} q_j)`. This module
//! exposes those curves for plotting (Fig. 1 overlays) and for
//! validating the simulator against theory.

use crate::detection::DetectionModel;
use crate::prior::BugPrior;

/// The expected cumulative detection curve `m(1), …, m(horizon)` of
/// the marginal process induced by `prior` and the detection model.
///
/// # Panics
///
/// Panics if `zeta` is invalid for `model`.
///
/// # Examples
///
/// ```
/// use srm_model::{BugPrior, DetectionModel};
/// use srm_model::nhpp::mean_value_curve;
///
/// let prior = BugPrior::poisson(100.0).unwrap();
/// let curve = mean_value_curve(&prior, DetectionModel::Constant, &[0.1], 50);
/// assert!(curve[49] > curve[0]);
/// assert!(curve[49] <= 100.0);
/// ```
#[must_use]
pub fn mean_value_curve(
    prior: &BugPrior,
    model: DetectionModel,
    zeta: &[f64],
    horizon: usize,
) -> Vec<f64> {
    let probs = match model.probs(zeta, horizon) {
        Ok(p) => p,
        Err(e) => panic!("mean_value_curve: {e:?}"),
    };
    let mean_n = prior.mean();
    let mut survival = 1.0;
    probs
        .iter()
        .map(|&p| {
            survival *= 1.0 - p;
            mean_n * (1.0 - survival)
        })
        .collect()
}

/// Expected residual bugs after `horizon` days,
/// `E[N] · Π_{j ≤ horizon} q_j`.
#[must_use]
pub fn expected_residual(
    prior: &BugPrior,
    model: DetectionModel,
    zeta: &[f64],
    horizon: usize,
) -> f64 {
    let curve = mean_value_curve(prior, model, zeta, horizon);
    prior.mean() - curve.last().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_and_bounded() {
        let prior = BugPrior::poisson(250.0).unwrap();
        for model in DetectionModel::ALL {
            let zeta: Vec<f64> = match model.dim() {
                1 => vec![0.5],
                _ => vec![0.5, 0.3],
            };
            let curve = mean_value_curve(&prior, model, &zeta, 120);
            for w in curve.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "{model}");
            }
            assert!(*curve.last().unwrap() <= 250.0 + 1e-9, "{model}");
        }
    }

    #[test]
    fn residual_plus_curve_is_total_mean() {
        let prior = BugPrior::poisson(80.0).unwrap();
        let model = DetectionModel::Constant;
        let curve = mean_value_curve(&prior, model, &[0.07], 40);
        let residual = expected_residual(&prior, model, &[0.07], 40);
        assert!((curve[39] + residual - 80.0).abs() < 1e-9);
        // Closed form for the constant model: 80 · 0.93^40.
        assert!((residual - 80.0 * 0.93f64.powi(40)).abs() < 1e-9);
    }

    #[test]
    fn simulation_tracks_mean_value_curve() {
        // Average many simulated projects; the empirical cumulative
        // curve must match m(i) for the constant model.
        let n0 = 400u64;
        let p = 0.06;
        let horizon = 30;
        let sim = srm_data::DetectionSimulator::new(n0, vec![p; horizon]);
        let reps = sim.replicate(9_000, 40);
        let prior = BugPrior::poisson(n0 as f64).unwrap();
        let theory = mean_value_curve(&prior, DetectionModel::Constant, &[p], horizon);
        for day in [5usize, 15, 30] {
            let avg: f64 = reps
                .iter()
                .map(|r| r.data.detected_by(day) as f64)
                .sum::<f64>()
                / reps.len() as f64;
            assert!(
                (avg - theory[day - 1]).abs() < 0.06 * theory[day - 1],
                "day {day}: avg {avg} vs theory {}",
                theory[day - 1]
            );
        }
    }
}
