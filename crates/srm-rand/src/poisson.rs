//! Poisson distribution.
//!
//! Sampling uses multiplicative inversion for small means and
//! Hörmann's PTRS transformed-rejection for large means, so draws stay
//! exact and O(1) even when the posterior residual mean is in the
//! thousands (model3's NB case reaches ~8 500).

use crate::error::{require, DistributionError};
use crate::{Distribution, Rng};
use srm_math::special::ln_factorial;

/// Poisson distribution with mean `λ > 0`.
///
/// This is the Prop. 1 posterior of the residual bug count under the
/// Poisson prior: `R ~ Poisson(λ0 Π q_i)`.
///
/// # Examples
///
/// ```
/// use srm_rand::{Distribution, Poisson, SplitMix64};
/// let p = Poisson::new(4.2).unwrap();
/// let mut rng = SplitMix64::seed_from(7);
/// let k = p.sample(&mut rng);
/// assert!(k < 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

/// Mean threshold above which PTRS replaces inversion.
const PTRS_THRESHOLD: f64 = 10.0;

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns an error unless `mean > 0` and finite. (A zero-mean
    /// Poisson is the degenerate point mass at 0; model code handles
    /// that case without constructing a sampler.)
    pub fn new(mean: f64) -> Result<Self, DistributionError> {
        require(mean.is_finite() && mean > 0.0, "mean", mean, "must be > 0")?;
        Ok(Self { mean })
    }

    /// The mean `λ` (also the variance).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The variance (equal to the mean).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.mean
    }

    /// Natural log of the p.m.f. at `k`.
    #[must_use]
    pub fn ln_pmf(&self, k: u64) -> f64 {
        k as f64 * self.mean.ln() - self.mean - ln_factorial(k)
    }

    /// CDF `P(X <= k)` via the incomplete-gamma identity
    /// `P(X <= k) = Q(k + 1, λ)`.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        srm_math::inc_gamma_q(k as f64 + 1.0, self.mean)
    }

    /// Smallest `k` with `P(X <= k) >= p` (bisection over the
    /// incomplete-gamma CDF, O(log) CDF evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1)`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1)");
        // Bracket using the normal approximation, then search by bisection.
        let guess = self.mean + srm_math::norm_quantile(p) * self.mean.sqrt();
        let mut hi = guess.max(1.0) as u64 + 2;
        while self.cdf(hi) < p {
            hi = hi * 2 + 1;
        }
        let mut lo = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cdf(mid) >= p {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Multiplicative inversion (Knuth), exact for small `λ`.
    fn sample_inversion<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let limit = (-self.mean).exp();
        let mut product = rng.next_open_f64();
        let mut count = 0u64;
        while product > limit {
            product *= rng.next_open_f64();
            count += 1;
        }
        count
    }

    /// Hörmann's PTRS (transformed rejection with squeeze), exact for
    /// `λ ≥ 10`.
    fn sample_ptrs<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mu = self.mean;
        let b = 0.931 + 2.53 * mu.sqrt();
        let a = -0.059 + 0.024_83 * b;
        let inv_alpha = 1.123_9 + 1.132_8 / (b - 3.4);
        let v_r = 0.927_7 - 3.622_4 / (b - 2.0);
        loop {
            let u = rng.next_f64() - 0.5;
            let v = rng.next_open_f64();
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + mu + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            let ln_accept = k * mu.ln() - mu - ln_factorial(k as u64);
            if (v * inv_alpha / (a / (us * us) + b)).ln() <= ln_accept {
                return k as u64;
            }
        }
    }
}

impl Distribution for Poisson {
    type Value = u64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean < PTRS_THRESHOLD {
            self.sample_inversion(rng)
        } else {
            self.sample_ptrs(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn empirical(mean: f64, seed: u64, n: usize) -> (f64, f64) {
        let p = Poisson::new(mean).unwrap();
        let mut rng = SplitMix64::seed_from(seed);
        let xs = p.sample_n(&mut rng, n);
        let m = xs.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let v = xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / n as f64;
        (m, v)
    }

    #[test]
    fn rejects_bad_mean() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
        assert!(Poisson::new(f64::INFINITY).is_err());
    }

    #[test]
    fn moments_small_mean() {
        let (m, v) = empirical(0.7, 26, 200_000);
        assert!((m - 0.7).abs() < 0.01, "mean = {m}");
        assert!((v - 0.7).abs() < 0.02, "var = {v}");
    }

    #[test]
    fn moments_medium_mean() {
        let (m, v) = empirical(8.0, 27, 200_000);
        assert!((m - 8.0).abs() < 0.05, "mean = {m}");
        assert!((v - 8.0).abs() < 0.2, "var = {v}");
    }

    #[test]
    fn moments_large_mean_ptrs() {
        let (m, v) = empirical(1_000.0, 28, 200_000);
        assert!((m - 1_000.0).abs() < 0.5, "mean = {m}");
        assert!((v - 1_000.0).abs() < 20.0, "var = {v}");
    }

    #[test]
    fn moments_at_threshold_boundary() {
        // Just below and just above the inversion/PTRS switch.
        let (m_lo, _) = empirical(9.9, 29, 100_000);
        let (m_hi, _) = empirical(10.1, 30, 100_000);
        assert!((m_lo - 9.9).abs() < 0.1);
        assert!((m_hi - 10.1).abs() < 0.1);
    }

    #[test]
    fn pmf_sums_to_one() {
        let p = Poisson::new(6.0).unwrap();
        let total: f64 = (0..200).map(|k| p.ln_pmf(k).exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_pmf_partial_sums() {
        let p = Poisson::new(4.3).unwrap();
        let mut acc = 0.0;
        for k in 0..25u64 {
            acc += p.ln_pmf(k).exp();
            assert!((p.cdf(k) - acc).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn quantile_is_cdf_inverse() {
        for &mean in &[0.5f64, 7.0, 300.0] {
            let d = Poisson::new(mean).unwrap();
            for &p in &[0.01, 0.25, 0.5, 0.9, 0.999] {
                let k = d.quantile(p);
                assert!(d.cdf(k) >= p, "mean {mean} p {p}");
                if k > 0 {
                    assert!(d.cdf(k - 1) < p, "mean {mean} p {p}");
                }
            }
        }
    }

    #[test]
    fn pmf_matches_empirical_frequencies() {
        let p = Poisson::new(3.0).unwrap();
        let mut rng = SplitMix64::seed_from(31);
        let n = 300_000;
        let mut hist = vec![0usize; 32];
        for x in p.sample_n(&mut rng, n) {
            if (x as usize) < hist.len() {
                hist[x as usize] += 1;
            }
        }
        for k in 0..12u64 {
            let expected = p.ln_pmf(k).exp();
            let observed = hist[k as usize] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.005,
                "k = {k}: obs {observed} vs exp {expected}"
            );
        }
    }

    #[test]
    fn ptrs_pmf_agreement_at_large_mean() {
        let p = Poisson::new(50.0).unwrap();
        let mut rng = SplitMix64::seed_from(32);
        let n = 300_000;
        let mut around_mean = 0usize;
        for x in p.sample_n(&mut rng, n) {
            if (43..=57).contains(&x) {
                around_mean += 1;
            }
        }
        // P(43 ≤ X ≤ 57) for Poisson(50).
        let expected: f64 = (43..=57).map(|k| p.ln_pmf(k).exp()).sum();
        let observed = around_mean as f64 / n as f64;
        assert!((observed - expected).abs() < 0.005);
    }
}
