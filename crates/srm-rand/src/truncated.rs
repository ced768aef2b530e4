//! Truncated distributions.
//!
//! The Poisson-prior Gibbs sweep draws `λ0 | N ~ Gamma(N + 1, 1)`
//! *truncated to `(0, λ_max)`* (the uniform hyper-prior support).
//! Rejection from the untruncated gamma is used while the acceptance
//! region keeps reasonable mass; otherwise the draw falls back to
//! exact inverse-CDF sampling through the regularised incomplete
//! gamma, so the sampler never loops unboundedly when `λ_max` cuts
//! deep into the distribution's body. When the kept mass is too small
//! for a double, the inverse is taken in log space.

use crate::error::{require, DistributionError};
use crate::gamma::Gamma;
use crate::{Distribution, Rng};
use srm_math::incgamma::{inc_gamma_p, inv_inc_gamma_p, ln_inc_gamma_p};
use srm_math::special::ln_gamma;

/// Gamma distribution truncated to `(0, upper)`.
///
/// # Examples
///
/// ```
/// use srm_rand::{Distribution, SplitMix64, TruncatedGamma};
/// let tg = TruncatedGamma::new(5.0, 1.0, 3.0).unwrap();
/// let mut rng = SplitMix64::seed_from(12);
/// let x = tg.sample(&mut rng);
/// assert!(x > 0.0 && x <= 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGamma {
    inner: Gamma,
    upper: f64,
    /// `P(shape, upper/scale)` — the mass the truncation keeps.
    kept_mass: f64,
}

/// Below this kept mass the sampler switches from rejection to
/// inverse-CDF.
const REJECTION_MASS_FLOOR: f64 = 0.1;

/// Newton steps the log-space inverse may take; it converges in a
/// handful.
const MAX_NEWTON: usize = 100;

impl TruncatedGamma {
    /// Creates a gamma distribution truncated above at `upper`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `shape > 0`, `scale > 0` and
    /// `upper > 0`.
    pub fn new(shape: f64, scale: f64, upper: f64) -> Result<Self, DistributionError> {
        let inner = Gamma::new(shape, scale)?;
        require(
            upper.is_finite() && upper > 0.0,
            "upper",
            upper,
            "must be > 0",
        )?;
        let kept_mass = inc_gamma_p(shape, upper / scale);
        Ok(Self {
            inner,
            upper,
            kept_mass,
        })
    }

    /// The truncation point.
    #[must_use]
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// The untruncated base distribution.
    #[must_use]
    pub fn base(&self) -> &Gamma {
        &self.inner
    }

    /// Probability mass the base gamma places below `upper`.
    #[must_use]
    pub fn kept_mass(&self) -> f64 {
        self.kept_mass
    }

    /// Truncated CDF.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= self.upper {
            1.0
        } else {
            self.inner.cdf(x) / self.kept_mass
        }
    }

    /// The inverse CDF for a kept mass that is zero or subnormal:
    /// solves `ln P(a, x) = ln u + ln P(a, c)`, `c = upper/scale`, for
    /// `t = ln x` by Newton steps kept inside a bracket. On `(0, c)`
    /// the slope `d ln P / dt = x f(x) / P(a, x)` lies in `(0, a]`, so
    /// the start `t = ln c + (ln u)/a`, exact in the limit `c → 0`
    /// where `P(a, x) ∝ x^a`, is never below the root.
    fn inverse_in_log_space<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (a, ln_scale) = (self.inner.shape(), self.inner.scale().ln());
        let ln_u = rng.next_open_f64().ln();
        let ln_c = self.upper.ln() - ln_scale;
        let mut t = ln_c + ln_u / a;
        let c = ln_c.exp();
        if c > 0.0 {
            let (target, ln_gamma_a) = (ln_u + ln_inc_gamma_p(a, c), ln_gamma(a));
            let (mut lo, mut hi) = (f64::NEG_INFINITY, ln_c);
            for _ in 0..MAX_NEWTON {
                let x = t.exp();
                let ln_p = ln_inc_gamma_p(a, x);
                let excess = ln_p - target;
                if excess > 0.0 {
                    hi = t;
                } else {
                    lo = t;
                }
                let next = t - excess / (a * t - x - ln_gamma_a - ln_p).exp();
                if (next - t).abs() <= 1e-13 * t.abs().max(1.0) {
                    t = next;
                    break;
                }
                t = if next > lo && next < hi {
                    next
                } else if lo.is_finite() {
                    0.5 * (lo + hi)
                } else {
                    t - (hi - t).max(1.0)
                };
            }
        }
        (t + ln_scale).exp()
    }
}

impl Distribution for TruncatedGamma {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.kept_mass >= REJECTION_MASS_FLOOR {
            // Rejection: expected iterations = 1/kept_mass <= 10.
            loop {
                let x = self.inner.sample(rng);
                if x < self.upper {
                    return x;
                }
            }
        }
        // Inverse-CDF through the regularised incomplete gamma, in log
        // space when the kept mass is too small for a double.
        let x = if self.kept_mass < f64::MIN_POSITIVE {
            self.inverse_in_log_space(rng)
        } else {
            let u = rng.next_open_f64() * self.kept_mass;
            inv_inc_gamma_p(self.inner.shape(), u) * self.inner.scale()
        };
        // Guard the boundary against inverse round-off.
        x.min(self.upper * (1.0 - 1e-15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn rejects_bad_upper() {
        assert!(TruncatedGamma::new(2.0, 1.0, 0.0).is_err());
        assert!(TruncatedGamma::new(2.0, 1.0, -1.0).is_err());
        assert!(TruncatedGamma::new(-1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn samples_respect_truncation_rejection_path() {
        // upper well above the mean: high kept mass → rejection path.
        let tg = TruncatedGamma::new(3.0, 1.0, 10.0).unwrap();
        assert!(tg.kept_mass() > 0.9);
        let mut rng = SplitMix64::seed_from(53);
        for _ in 0..20_000 {
            let x = tg.sample(&mut rng);
            assert!(x > 0.0 && x < 10.0);
        }
    }

    #[test]
    fn samples_respect_truncation_inverse_path() {
        // upper deep in the lower tail: tiny kept mass → inverse CDF.
        let tg = TruncatedGamma::new(100.0, 1.0, 50.0).unwrap();
        assert!(tg.kept_mass() < REJECTION_MASS_FLOOR);
        let mut rng = SplitMix64::seed_from(54);
        for _ in 0..5_000 {
            let x = tg.sample(&mut rng);
            assert!(x > 0.0 && x <= 50.0, "x = {x}");
        }
    }

    #[test]
    fn an_underflowed_kept_mass_draws_in_log_space() {
        // P(137, 0.2) underflows a double, so the kept mass is 0 and an
        // inverse through P itself would return 0 on every draw.
        let (a, scale, upper) = (137.0, 1e4, 2_000.0);
        let tg = TruncatedGamma::new(a, scale, upper).unwrap();
        assert_eq!(tg.kept_mass(), 0.0);
        let mut rng = SplitMix64::seed_from(57);
        let n = 20_000;
        let draws = tg.sample_n(&mut rng, n);
        assert!(draws.iter().all(|&x| x > 0.0 && x < upper));
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        // Truncated-gamma mean a·scale·P(a+1, c)/P(a, c), in log space.
        let c = upper / scale;
        let analytic = a * scale * (ln_inc_gamma_p(a + 1.0, c) - ln_inc_gamma_p(a, c)).exp();
        let se = (var / n as f64).sqrt();
        assert!(
            (mean - analytic).abs() < 4.0 * se,
            "mean {mean} vs {analytic} (se {se})"
        );
        // Where P itself is representable, the log-space inverse and the
        // inverse through P take the same u to the same draw.
        let tg = TruncatedGamma::new(a, 1.0, 40.0).unwrap();
        assert!(tg.kept_mass() > f64::MIN_POSITIVE && tg.kept_mass() < REJECTION_MASS_FLOOR);
        let (mut rng_p, mut rng_ln) = (SplitMix64::seed_from(58), SplitMix64::seed_from(58));
        for _ in 0..500 {
            let (x, y) = (tg.sample(&mut rng_p), tg.inverse_in_log_space(&mut rng_ln));
            assert!((x - y).abs() <= 1e-10 * x, "{x} vs {y}");
        }
    }

    #[test]
    fn truncated_mean_below_untruncated() {
        let tg = TruncatedGamma::new(4.0, 2.0, 6.0).unwrap();
        let mut rng = SplitMix64::seed_from(55);
        let n = 100_000;
        let mean = tg.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!(mean < tg.base().mean());
        // Analytic truncated-gamma mean: kθ · P(k+1, u/θ) / P(k, u/θ).
        let analytic = 4.0 * 2.0 * inc_gamma_p(5.0, 3.0) / inc_gamma_p(4.0, 3.0);
        assert!(
            (mean - analytic).abs() < 0.02,
            "mean = {mean} vs {analytic}"
        );
    }

    #[test]
    fn cdf_normalised() {
        let tg = TruncatedGamma::new(2.0, 1.5, 4.0).unwrap();
        assert_eq!(tg.cdf(0.0), 0.0);
        assert_eq!(tg.cdf(4.0), 1.0);
        assert!(tg.cdf(2.0) > 0.0 && tg.cdf(2.0) < 1.0);
    }

    #[test]
    fn loose_truncation_matches_base_distribution() {
        // upper so large that the truncation is inert.
        let tg = TruncatedGamma::new(2.0, 1.0, 1e6).unwrap();
        let mut rng = SplitMix64::seed_from(56);
        let n = 100_000;
        let mean = tg.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.03);
    }
}
