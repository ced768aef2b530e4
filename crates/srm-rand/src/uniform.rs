//! The continuous uniform distribution over a real interval.

use crate::error::{require, DistributionError};
use crate::{Distribution, Rng};

/// Continuous uniform distribution on `[low, high)`.
///
/// This is the hyper-prior of every parameter in the paper's Gibbs
/// schemes (Eqs. (14)–(22)).
///
/// # Examples
///
/// ```
/// use srm_rand::{Distribution, SplitMix64, Uniform};
/// let u = Uniform::new(2.0, 5.0).unwrap();
/// let mut rng = SplitMix64::seed_from(1);
/// let x = u.sample(&mut rng);
/// assert!((2.0..5.0).contains(&x));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `low < high` and both are finite.
    pub fn new(low: f64, high: f64) -> Result<Self, DistributionError> {
        require(low.is_finite(), "low", low, "must be finite")?;
        require(high.is_finite(), "high", high, "must be finite")?;
        require(low < high, "low", low, "must be strictly below `high`")?;
        Ok(Self { low, high })
    }

    /// Mean `(low + high)/2`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }

    /// Variance `(high − low)²/12`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }
}

impl Distribution for Uniform {
    type Value = f64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.low + (self.high - self.low) * rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn rejects_bad_interval() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn samples_stay_in_range() {
        let u = Uniform::new(-3.0, 7.0).unwrap();
        let mut rng = SplitMix64::seed_from(5);
        for _ in 0..10_000 {
            let x = u.sample(&mut rng);
            assert!((-3.0..7.0).contains(&x));
        }
    }

    #[test]
    fn empirical_moments_match() {
        let u = Uniform::new(2.0, 10.0).unwrap();
        let mut rng = SplitMix64::seed_from(6);
        let n = 100_000;
        let xs = u.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - u.mean()).abs() < 0.05);
        assert!((var - u.variance()).abs() < 0.15);
    }
}
