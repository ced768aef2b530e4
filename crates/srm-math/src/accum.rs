//! Streaming moments.
//!
//! MCMC summaries average tens of thousands of draws; Welford's
//! algorithm gives single-pass, numerically stable means and
//! variances for the convergence diagnostics.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

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
}
