//! Uniform distributions over real intervals and integer ranges.

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

    /// The standard uniform on `[0, 1)`.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            low: 0.0,
            high: 1.0,
        }
    }

    /// Lower bound.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.high
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

/// Discrete uniform distribution on the integers `low..=high`.
///
/// # Examples
///
/// ```
/// use srm_rand::{Distribution, SplitMix64, UniformInt};
/// let d = UniformInt::new(1, 6).unwrap();
/// let mut rng = SplitMix64::seed_from(2);
/// let roll = d.sample(&mut rng);
/// assert!((1..=6).contains(&roll));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UniformInt {
    low: i64,
    high: i64,
}

impl UniformInt {
    /// Creates a uniform distribution on `low..=high`.
    ///
    /// # Errors
    ///
    /// Returns an error if `low > high`.
    pub fn new(low: i64, high: i64) -> Result<Self, DistributionError> {
        require(low <= high, "low", low as f64, "must be <= `high`")?;
        Ok(Self { low, high })
    }

    /// Inclusive lower bound.
    #[must_use]
    pub fn low(&self) -> i64 {
        self.low
    }

    /// Inclusive upper bound.
    #[must_use]
    pub fn high(&self) -> i64 {
        self.high
    }
}

impl Distribution for UniformInt {
    type Value = i64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let span = (self.high - self.low) as u64 + 1;
        self.low + rng.next_below(span) as i64
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

    #[test]
    fn uniform_int_covers_all_values() {
        let d = UniformInt::new(-2, 2).unwrap();
        let mut rng = SplitMix64::seed_from(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(d.sample(&mut rng));
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn uniform_int_single_point() {
        let d = UniformInt::new(4, 4).unwrap();
        let mut rng = SplitMix64::seed_from(9);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 4);
        }
    }

    #[test]
    fn uniform_int_rejects_inverted() {
        assert!(UniformInt::new(3, 2).is_err());
    }
}
