//! Univariate slice sampling (Neal 2003) on a bounded interval.
//!
//! The conditionals of `ζ` (and of `α0` in the NB case) have no
//! conjugate form; slice sampling needs no step-size tuning, leaves
//! the target invariant exactly, and degrades gracefully on the
//! plateau-shaped log-likelihoods these models produce.

use srm_rand::Rng;

/// Why a slice update could not produce a draw. Mapped onto
/// [`crate::fault::SrmError`] by the Gibbs sweep, which knows the
/// parameter name and sweep index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SliceError {
    /// `lo >= hi`: no interval to sample on.
    InvalidInterval {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// The starting point lies outside `[lo, hi]`.
    StartOutOfRange {
        /// The starting point.
        x0: f64,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// `ln_f(x0)` is −∞ or NaN: the chain sits on a zero-density
    /// point and the vertical step is undefined.
    InfeasibleStart {
        /// The starting point.
        x0: f64,
        /// The non-finite log-density observed there.
        ln_f0: f64,
    },
    /// Shrinkage collapsed the bracket to zero width without finding
    /// a point inside the slice (a pathologically discontinuous
    /// target).
    Exhausted,
}

/// Initial bracket width, as a fraction of the support length.
const WIDTH_FRACTION: f64 = 0.1;
/// Maximum stepping-out expansions on each side.
const MAX_STEP_OUT: usize = 16;
/// Maximum shrinkage iterations before giving up and returning the
/// current point (a formally valid, if wasteful, move).
const MAX_SHRINK: usize = 100;

/// Draws one slice-sampling update for a log-density `ln_f` restricted
/// to `(lo, hi)`, starting from `x0` (which must satisfy
/// `ln_f(x0) > -inf`).
///
/// Returns the new point; the chain `x0 → x` leaves the density
/// `exp(ln_f)` (restricted and renormalised on the interval)
/// invariant.
///
/// # Errors
///
/// Invalid intervals, infeasible starting points and exhausted
/// brackets come back as [`SliceError`] values; see its variants.
///
/// # Examples
///
/// ```
/// use srm_mcmc::slice::try_slice_sample;
/// use srm_rand::SplitMix64;
///
/// // Sample a truncated standard normal on (-1, 3).
/// let mut rng = SplitMix64::seed_from(1);
/// let mut x = 0.5;
/// for _ in 0..100 {
///     x = try_slice_sample(|v| -0.5 * v * v, x, -1.0, 3.0, &mut rng).unwrap();
///     assert!((-1.0..=3.0).contains(&x));
/// }
/// ```
pub fn try_slice_sample<F, R>(
    ln_f: F,
    x0: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Result<f64, SliceError>
where
    F: Fn(f64) -> f64,
    R: Rng + ?Sized,
{
    // Negated comparisons are deliberate throughout: a NaN bound or
    // NaN log-density must take the error path.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(lo < hi) {
        return Err(SliceError::InvalidInterval { lo, hi });
    }
    if !(lo..=hi).contains(&x0) {
        return Err(SliceError::StartOutOfRange { x0, lo, hi });
    }
    let f0 = ln_f(x0);
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be infeasible too
    if !(f0 > f64::NEG_INFINITY) {
        return Err(SliceError::InfeasibleStart { x0, ln_f0: f0 });
    }

    // Vertical step: ln u = ln f(x0) − Exp(1).
    let ln_u = f0 + rng.next_open_f64().ln();

    // Horizontal step: position a width-w bracket around x0, then
    // step out while the endpoints are still inside the slice.
    let w = (hi - lo) * WIDTH_FRACTION;
    let mut left = (x0 - w * rng.next_f64()).max(lo);
    let mut right = (left + w).min(hi);
    for _ in 0..MAX_STEP_OUT {
        if left <= lo || ln_f(left) <= ln_u {
            break;
        }
        left = (left - w).max(lo);
    }
    for _ in 0..MAX_STEP_OUT {
        if right >= hi || ln_f(right) <= ln_u {
            break;
        }
        right = (right + w).min(hi);
    }

    // Shrinkage: sample inside the bracket, shrink toward x0 on
    // rejection.
    for _ in 0..MAX_SHRINK {
        let x = left + (right - left) * rng.next_f64();
        if ln_f(x) > ln_u {
            return Ok(x);
        }
        if x < x0 {
            left = x;
        } else {
            right = x;
        }
        if (right - left) < 1e-300 {
            return Err(SliceError::Exhausted);
        }
    }
    Ok(x0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_rand::SplitMix64;

    fn run_chain<F: Fn(f64) -> f64>(
        ln_f: F,
        lo: f64,
        hi: f64,
        x0: f64,
        n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from(seed);
        let mut x = x0;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            x = try_slice_sample(&ln_f, x, lo, hi, &mut rng).unwrap();
            out.push(x);
        }
        out
    }

    #[test]
    fn samples_stay_in_support() {
        let draws = run_chain(|x| -x.abs(), -2.0, 5.0, 0.0, 5_000, 70);
        assert!(draws.iter().all(|&x| (-2.0..=5.0).contains(&x)));
    }

    #[test]
    fn recovers_truncated_normal_moments() {
        // Standard normal on (-10, 10): effectively untruncated.
        let draws = run_chain(|x| -0.5 * x * x, -10.0, 10.0, 1.0, 60_000, 71);
        let burn = &draws[5_000..];
        let mean: f64 = burn.iter().sum::<f64>() / burn.len() as f64;
        let var: f64 = burn.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / burn.len() as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn recovers_beta_distribution() {
        // Beta(3, 2) log-density on (0, 1).
        let ln_f = |x: f64| 2.0 * x.ln() + (1.0 - x).ln();
        let draws = run_chain(ln_f, 1e-12, 1.0 - 1e-12, 0.5, 60_000, 72);
        let burn = &draws[5_000..];
        let mean: f64 = burn.iter().sum::<f64>() / burn.len() as f64;
        assert!((mean - 0.6).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn handles_sharply_peaked_target() {
        // Near-delta at 0.25 — stepping out must still find the slice.
        let ln_f = |x: f64| -((x - 0.25) / 1e-4).powi(2);
        let draws = run_chain(ln_f, 0.0, 1.0, 0.25, 5_000, 73);
        let tail = &draws[500..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((mean - 0.25).abs() < 1e-3, "mean = {mean}");
    }

    #[test]
    fn uniform_target_mixes_over_whole_interval() {
        let draws = run_chain(|_| 0.0, 2.0, 4.0, 2.1, 20_000, 74);
        let mean: f64 = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean = {mean}");
        assert!(draws.iter().any(|&x| x < 2.2));
        assert!(draws.iter().any(|&x| x > 3.8));
    }

    #[test]
    fn try_variant_types_the_failures() {
        let mut rng = SplitMix64::seed_from(78);
        assert_eq!(
            try_slice_sample(|_| 0.0, 0.5, 1.0, 0.0, &mut rng),
            Err(SliceError::InvalidInterval { lo: 1.0, hi: 0.0 })
        );
        assert_eq!(
            try_slice_sample(|_| 0.0, 2.0, 0.0, 1.0, &mut rng),
            Err(SliceError::StartOutOfRange {
                x0: 2.0,
                lo: 0.0,
                hi: 1.0
            })
        );
        assert!(matches!(
            try_slice_sample(|_| f64::NEG_INFINITY, 0.5, 0.0, 1.0, &mut rng),
            Err(SliceError::InfeasibleStart { x0, ln_f0 })
                if x0 == 0.5 && ln_f0 == f64::NEG_INFINITY
        ));
        assert!(matches!(
            try_slice_sample(|_| f64::NAN, 0.5, 0.0, 1.0, &mut rng),
            Err(SliceError::InfeasibleStart { x0, ln_f0 })
                if x0 == 0.5 && ln_f0.is_nan()
        ));
    }

    #[test]
    fn bimodal_target_visits_both_modes() {
        // Overlapping modes: slice sampling (like any local sampler)
        // cannot tunnel through a near-zero valley, so keep the modes
        // close enough that the slice at moderate heights spans both.
        let ln_f = |x: f64| {
            let a = -((x + 1.0) / 0.8).powi(2);
            let b = -((x - 1.0) / 0.8).powi(2);
            srm_math::logsumexp::log_add_exp(a, b)
        };
        let draws = run_chain(ln_f, -5.0, 5.0, -1.0, 40_000, 77);
        let right = draws.iter().filter(|&&x| x > 0.0).count() as f64 / draws.len() as f64;
        assert!((right - 0.5).abs() < 0.1, "right fraction = {right}");
    }
}
