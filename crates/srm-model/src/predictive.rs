//! Expected future detections under the residual-count posterior.
//!
//! Given the residual-count posterior after day `k` and detection
//! probabilities for the days that follow, each future day thins what
//! the earlier ones left: day `k + j` expects
//! `E[R] · p_{k+j} · Π_{1≤l<j} q_{k+l}` detections.

use crate::posterior::ResidualPosterior;

/// Expected cumulative number of *future* detections over the next
/// `horizon` days given the residual posterior and a probability
/// schedule for those days (sequential thinning).
///
/// # Panics
///
/// Panics if `future_probs` is shorter than `horizon`.
#[must_use]
pub fn expected_future_detections(
    posterior: &ResidualPosterior,
    future_probs: &[f64],
    horizon: usize,
) -> f64 {
    assert!(
        future_probs.len() >= horizon,
        "schedule shorter than horizon"
    );
    let mut survival = 1.0;
    let mut expected = 0.0;
    let residual_mean = posterior.mean();
    for &p in &future_probs[..horizon] {
        expected += residual_mean * survival * p;
        survival *= 1.0 - p;
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_math::approx_eq;

    #[test]
    fn expected_future_detections_saturates_at_residual_mean() {
        let post = ResidualPosterior::Poisson { lambda_k: 12.0 };
        let probs = vec![0.2; 200];
        let short = expected_future_detections(&post, &probs, 3);
        let long = expected_future_detections(&post, &probs, 200);
        assert!(short < long);
        assert!(long <= 12.0 + 1e-9);
        assert!(approx_eq(long, 12.0, 1e-6)); // (1−0.2)^200 ≈ 0
    }
}
