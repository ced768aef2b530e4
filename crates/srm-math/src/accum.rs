//! Compensated summation and streaming moments.
//!
//! MCMC summaries average tens of thousands of draws; Neumaier
//! compensation keeps the accumulated error independent of chain
//! length, and Welford's algorithm gives single-pass, numerically
//! stable means and (co)variances for the convergence diagnostics.

/// Neumaier-compensated summation accumulator.
///
/// # Examples
///
/// ```
/// use srm_math::KahanSum;
/// let mut s = KahanSum::new();
/// for _ in 0..10 { s.add(0.1); }
/// assert!((s.sum() - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        for v in iter {
            acc.add(v);
        }
        acc
    }
}

impl Extend<f64> for KahanSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

/// Streaming mean/variance via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use srm_math::RunningMoments;
/// let m: RunningMoments = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n − 1`); 0 when fewer
    /// than two observations were seen.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (divides by `n`); 0 when empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_sd(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Merges another accumulator (parallel Welford / Chan's method).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
    }
}

impl FromIterator<f64> for RunningMoments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        for v in iter {
            acc.push(v);
        }
        acc
    }
}

impl Extend<f64> for RunningMoments {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn kahan_beats_naive_on_ill_conditioned_sum() {
        // 1 followed by many tiny terms that naive f64 summation drops.
        let mut naive = 1.0_f64;
        let mut kahan = KahanSum::new();
        kahan.add(1.0);
        let tiny = 1e-16;
        for _ in 0..10_000 {
            naive += tiny;
            kahan.add(tiny);
        }
        let exact = 1.0 + 10_000.0 * tiny;
        assert!((kahan.sum() - exact).abs() < (naive - exact).abs());
        assert!(approx_eq(kahan.sum(), exact, 1e-15));
    }

    #[test]
    fn kahan_handles_cancellation() {
        let mut s = KahanSum::new();
        s.add(1e100);
        s.add(1.0);
        s.add(-1e100);
        assert_eq!(s.sum(), 1.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.173).collect();
        let m: RunningMoments = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!(approx_eq(m.mean(), mean, 1e-12));
        assert!(approx_eq(m.sample_variance(), var, 1e-12));
    }

    #[test]
    fn welford_empty_and_single() {
        let m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.sample_variance(), 0.0);
        let m: RunningMoments = [5.0].into_iter().collect();
        assert_eq!(m.mean(), 5.0);
        assert_eq!(m.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..700).map(|i| (i as f64).cos() * 3.0).collect();
        let mut left: RunningMoments = a.iter().copied().collect();
        let right: RunningMoments = b.iter().copied().collect();
        left.merge(&right);
        let combined: RunningMoments = a.iter().chain(b.iter()).copied().collect();
        assert!(approx_eq(left.mean(), combined.mean(), 1e-12));
        assert!(approx_eq(
            left.sample_variance(),
            combined.sample_variance(),
            1e-10
        ));
        assert_eq!(left.count(), combined.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m: RunningMoments = [1.0, 2.0].into_iter().collect();
        let before = m;
        m.merge(&RunningMoments::new());
        assert_eq!(m, before);
        let mut empty = RunningMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
