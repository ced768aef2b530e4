//! Posterior summaries: the statistics Tables II–V report, plus the
//! box-plot five-number summaries behind Figs. 2–3.

use srm_math::accum::RunningMoments;

/// Summary statistics of a set of posterior draws.
///
/// # Examples
///
/// ```
/// use srm_mcmc::PosteriorSummary;
///
/// let draws = [1.0, 2.0, 2.0, 3.0, 4.0];
/// let s = PosteriorSummary::from_draws(&draws);
/// assert_eq!(s.median, 2.0);
/// assert_eq!(s.mode, 2.0);
/// assert_eq!(s.nan_draws, 0);
/// assert!((s.mean - 2.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorSummary {
    /// Number of (non-NaN) draws summarised.
    pub count: usize,
    /// Number of NaN draws excluded from the summary. Non-zero values
    /// indicate an upstream numerical fault worth investigating.
    pub nan_draws: usize,
    /// Posterior mean.
    pub mean: f64,
    /// Posterior median (type-7 interpolated quantile).
    pub median: f64,
    /// Posterior mode. For integer-valued draws this is the most
    /// frequent value; for continuous draws a histogram mode.
    pub mode: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Minimum draw.
    pub min: f64,
    /// Maximum draw.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl PosteriorSummary {
    /// Summarises a slice of draws. NaN draws are excluded from every
    /// statistic and counted in [`PosteriorSummary::nan_draws`].
    ///
    /// # Panics
    ///
    /// Panics on empty input or when every draw is NaN (zero usable
    /// draws).
    #[must_use]
    pub fn from_draws(draws: &[f64]) -> Self {
        let nan_draws = draws.iter().filter(|d| d.is_nan()).count();
        let finite: Vec<f64> = draws.iter().copied().filter(|d| !d.is_nan()).collect();
        assert!(!finite.is_empty(), "cannot summarise zero draws");
        let mut sorted = finite.clone();
        sorted.sort_by(f64::total_cmp);
        let moments: RunningMoments = finite.iter().copied().collect();
        Self {
            count: finite.len(),
            nan_draws,
            mean: moments.mean(),
            median: quantile_sorted(&sorted, 0.5),
            mode: mode_of(&finite, &sorted),
            sd: moments.sample_sd(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// The interquartile range `q3 − q1`.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Tukey box-plot whiskers: the most extreme draws within
    /// `1.5 · IQR` of the quartiles. Returns `(lower, upper)`.
    #[must_use]
    pub fn whiskers(&self, draws: &[f64]) -> (f64, f64) {
        let lo_fence = self.q1 - 1.5 * self.iqr();
        let hi_fence = self.q3 + 1.5 * self.iqr();
        let mut lo = self.q1;
        let mut hi = self.q3;
        for &d in draws {
            if d >= lo_fence && d < lo {
                lo = d;
            }
            if d <= hi_fence && d > hi {
                hi = d;
            }
        }
        (lo, hi)
    }

    /// Equal-tailed credible interval at level `1 − alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1)`.
    #[must_use]
    pub fn credible_interval(draws: &[f64], alpha: f64) -> (f64, f64) {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha out of range");
        let mut sorted = draws.to_vec();
        sorted.sort_by(f64::total_cmp);
        (
            quantile_sorted(&sorted, alpha / 2.0),
            quantile_sorted(&sorted, 1.0 - alpha / 2.0),
        )
    }

    /// Highest-posterior-density interval at level `1 − alpha`: the
    /// shortest window containing the requested mass.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1)` or `draws` is empty.
    #[must_use]
    pub fn hpd_interval(draws: &[f64], alpha: f64) -> (f64, f64) {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha out of range");
        assert!(!draws.is_empty(), "empty draws");
        let mut sorted = draws.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let keep = (((1.0 - alpha) * n as f64).ceil() as usize).clamp(1, n);
        let mut best = (sorted[0], sorted[n - 1]);
        let mut best_width = f64::INFINITY;
        for start in 0..=(n - keep) {
            let width = sorted[start + keep - 1] - sorted[start];
            if width < best_width {
                best_width = width;
                best = (sorted[start], sorted[start + keep - 1]);
            }
        }
        best
    }
}

/// Type-7 (R default) quantile of pre-sorted data.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let h = (sorted.len() as f64 - 1.0) * p;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Mode estimation. Integer-valued draws (the residual counts from
/// the Gibbs sampler) get an exact most-frequent-value mode; general
/// draws fall back to the midpoint of the densest of ~√n histogram
/// bins.
fn mode_of(draws: &[f64], sorted: &[f64]) -> f64 {
    let all_integer = draws.iter().all(|&d| d.fract() == 0.0 && d.abs() < 1e15);
    if all_integer {
        // Runs over sorted values.
        let mut best_val = sorted[0];
        let mut best_run = 0usize;
        let mut run = 0usize;
        let mut current = sorted[0];
        for &v in sorted {
            if v == current {
                run += 1;
            } else {
                if run > best_run {
                    best_run = run;
                    best_val = current;
                }
                current = v;
                run = 1;
            }
        }
        if run > best_run {
            best_val = current;
        }
        return best_val;
    }
    let n = sorted.len();
    let bins = (n as f64).sqrt().ceil() as usize;
    let (min, max) = (sorted[0], sorted[n - 1]);
    if max <= min {
        return min;
    }
    let width = (max - min) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &v in sorted {
        let idx = (((v - min) / width) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    let best = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    min + (best as f64 + 0.5) * width
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary_textbook_case() {
        let draws = [7.0, 15.0, 36.0, 39.0, 40.0, 41.0];
        let s = PosteriorSummary::from_draws(&draws);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 41.0);
        assert_eq!(s.median, 37.5);
        assert!((s.q1 - 20.25).abs() < 1e-12);
        assert!((s.q3 - 39.75).abs() < 1e-12);
    }

    #[test]
    fn integer_mode_is_most_frequent() {
        let draws = [0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 7.0];
        assert_eq!(PosteriorSummary::from_draws(&draws).mode, 1.0);
    }

    #[test]
    fn continuous_mode_near_density_peak() {
        // Draws concentrated near 3.0 with a diffuse tail.
        let mut draws = Vec::new();
        for i in 0..900 {
            draws.push(3.0 + (i % 30) as f64 * 0.01);
        }
        for i in 0..100 {
            draws.push(10.0 + i as f64 * 0.3);
        }
        let s = PosteriorSummary::from_draws(&draws);
        assert!((s.mode - 3.1).abs() < 0.5, "mode = {}", s.mode);
    }

    #[test]
    fn single_draw_summary() {
        let s = PosteriorSummary::from_draws(&[4.0]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.iqr(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero draws")]
    fn empty_draws_panic() {
        let _ = PosteriorSummary::from_draws(&[]);
    }

    #[test]
    #[should_panic(expected = "zero draws")]
    fn all_nan_draws_panic() {
        let _ = PosteriorSummary::from_draws(&[f64::NAN, f64::NAN]);
    }

    #[test]
    fn nan_draws_counted_not_fatal() {
        let draws = [1.0, f64::NAN, 2.0, 2.0, f64::NAN, 3.0, 4.0];
        let s = PosteriorSummary::from_draws(&draws);
        assert_eq!(s.nan_draws, 2);
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.4).abs() < 1e-12);
    }

    #[test]
    fn whiskers_exclude_outliers() {
        let mut draws: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        draws.push(500.0); // far outlier
        let s = PosteriorSummary::from_draws(&draws);
        let (lo, hi) = s.whiskers(&draws);
        assert!(hi < 20.0, "hi = {hi}");
        assert!((lo - 0.0).abs() < 1e-12);
    }

    #[test]
    fn credible_interval_covers_mass() {
        let draws: Vec<f64> = (0..10_000).map(|i| i as f64 / 100.0).collect();
        let (lo, hi) = PosteriorSummary::credible_interval(&draws, 0.1);
        assert!((lo - 5.0).abs() < 0.2);
        assert!((hi - 95.0).abs() < 0.2);
    }

    #[test]
    fn hpd_is_no_wider_than_equal_tailed() {
        // Skewed draws: HPD should beat the equal-tailed interval.
        let draws: Vec<f64> = (0..5_000)
            .map(|i| {
                let u = (i as f64 + 0.5) / 5_000.0;
                -u.ln() // Exp(1) quantiles
            })
            .collect();
        let (clo, chi) = PosteriorSummary::credible_interval(&draws, 0.05);
        let (hlo, hhi) = PosteriorSummary::hpd_interval(&draws, 0.05);
        assert!(hhi - hlo <= chi - clo + 1e-9);
        assert!(hlo >= 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.5), 2.5);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 4.0);
    }
}
