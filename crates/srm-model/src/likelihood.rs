//! The grouped-data likelihood of Eq. (2) and its pointwise pieces.
//!
//! For initial content `N`, daily counts `x_1..x_k` with cumulative
//! sums `s_i`, and detection probabilities `p_i` (with `q_i = 1−p_i`):
//!
//! ```text
//! ln L(N, p) = ln Γ(N+1) − ln Γ(N−s_k+1) − Σ ln Γ(x_i+1)
//!            + Σ x_i ln p_i + Σ (N − s_i) ln q_i
//! ```
//!
//! The per-day factor `P(X_i = x_i | N − s_{i−1}, p_i)` is the
//! binomial p.m.f. of Eq. (1); WAIC treats those as the pointwise
//! predictive terms.

use crate::detection::DayLogs;
use srm_data::BugCountData;
use srm_math::special::{ln_binomial, ln_factorial, LnFactorialTable};

/// Precomputed sufficient statistics for evaluating Eq. (2) quickly
/// during MCMC: the samplers evaluate the likelihood thousands of
/// times against the same data with different `(N, ζ)`.
///
/// # Examples
///
/// ```
/// use srm_data::BugCountData;
/// use srm_model::{DetectionModel, GroupedLikelihood};
///
/// let data = BugCountData::new(vec![3, 1, 0, 2]).unwrap();
/// let lik = GroupedLikelihood::new(&data);
/// let probs = DetectionModel::Constant.probs(&[0.3], lik.horizon()).unwrap();
/// let ll = lik.ln_likelihood(10, &probs);
/// assert!(ll.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedLikelihood {
    counts: Vec<u64>,
    cumulative: Vec<u64>,
    total: u64,
    /// `Σ ln x_i!`, independent of parameters.
    ln_fact_counts: f64,
}

impl GroupedLikelihood {
    /// Builds the evaluator from grouped data.
    #[must_use]
    pub fn new(data: &BugCountData) -> Self {
        let ln_fact_counts = data.counts().iter().map(|&x| ln_factorial(x)).sum();
        Self {
            counts: data.counts().to_vec(),
            cumulative: data.cumulative().to_vec(),
            total: data.total(),
            ln_fact_counts,
        }
    }

    /// Number of testing days `k`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.counts.len()
    }

    /// Total detected bugs `s_k`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The daily counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Log-likelihood `ln P(x | N, p)` for an explicit probability
    /// schedule `probs` (length ≥ horizon; extra entries ignored).
    ///
    /// Returns `-inf` when `N < s_k` (impossible data).
    ///
    /// # Panics
    ///
    /// Panics if `probs` is shorter than the data horizon.
    #[must_use]
    pub fn ln_likelihood(&self, n: u64, probs: &[f64]) -> f64 {
        assert!(
            probs.len() >= self.counts.len(),
            "schedule shorter than data ({} < {})",
            probs.len(),
            self.counts.len()
        );
        if n < self.total {
            return f64::NEG_INFINITY;
        }
        let mut ll = ln_factorial(n) - ln_factorial(n - self.total) - self.ln_fact_counts;
        for ((&count, &p), &cum) in self.counts.iter().zip(probs).zip(&self.cumulative) {
            let q = 1.0 - p;
            let x = count as f64;
            let remaining_after = (n - cum) as f64;
            if p <= 0.0 {
                if count > 0 {
                    return f64::NEG_INFINITY;
                }
                continue; // x_i = 0 and p = 0 contributes factor 1
            }
            if q <= 0.0 {
                if remaining_after > 0.0 {
                    return f64::NEG_INFINITY;
                }
                ll += x * p.ln();
                continue;
            }
            ll += x * p.ln() + remaining_after * q.ln();
        }
        ll
    }

    /// The pointwise log term `ln P(X_i = x_i | N − s_{i−1}, p_i)`
    /// (Eq. (1)) for 1-based day `i` — the WAIC building block.
    ///
    /// Returns `-inf` for impossible configurations.
    ///
    /// # Panics
    ///
    /// Panics if `day` is 0 or beyond the horizon.
    #[must_use]
    pub fn ln_pointwise(&self, n: u64, probs: &[f64], day: usize) -> f64 {
        let Some((x, trials)) = self.day_trials(n, day) else {
            return f64::NEG_INFINITY;
        };
        let p = probs[day - 1];
        if p <= 0.0 {
            return if x == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if p >= 1.0 {
            return if x == trials { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_binomial(trials, x) + x as f64 * p.ln() + (trials - x) as f64 * (1.0 - p).ln()
    }

    /// The pointwise log term of 1-based day `day` from the day's logs
    /// (a [`DayLogs`] of [`crate::DayTables::pass`]), with `ln k!` read
    /// from `table`: for loops over many draws, which then take no lock
    /// per term. On a zero-count day the term is `trials · ln q_i`, and
    /// `ln p_i` is only computed on days with detections.
    ///
    /// Returns `-inf` for impossible configurations.
    ///
    /// # Panics
    ///
    /// Panics if `day` is 0 or beyond the horizon.
    #[must_use]
    pub fn ln_pointwise_term(
        &self,
        n: u64,
        day: usize,
        logs: DayLogs,
        table: &LnFactorialTable,
    ) -> f64 {
        let Some((x, trials)) = self.day_trials(n, day) else {
            return f64::NEG_INFINITY;
        };
        if x == 0 {
            return trials as f64 * logs.ln_q();
        }
        table.ln_binomial(trials, x) + x as f64 * logs.ln_p() + (trials - x) as f64 * logs.ln_q()
    }

    /// Day `day`'s count `x_i` and trials `N − s_{i−1}`, or `None` when
    /// `N` cannot have produced the counts up to that day.
    #[inline]
    fn day_trials(&self, n: u64, day: usize) -> Option<(u64, u64)> {
        assert!(
            day >= 1 && day <= self.counts.len(),
            "day {day} out of range"
        );
        let x = self.counts[day - 1];
        let s_prev = if day == 1 {
            0
        } else {
            self.cumulative[day - 2]
        };
        (n >= s_prev + x).then(|| (x, n - s_prev))
    }

    /// All pointwise log terms at once (one per day).
    #[must_use]
    pub fn ln_pointwise_all(&self, n: u64, probs: &[f64]) -> Vec<f64> {
        (1..=self.counts.len())
            .map(|day| self.ln_pointwise(n, probs, day))
            .collect()
    }

    /// `Π_{i ≤ k} q_i` — the survival factor of Props. 1–2, returned
    /// in log space for stability.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is shorter than the data horizon.
    #[must_use]
    pub fn ln_survival(&self, probs: &[f64]) -> f64 {
        assert!(probs.len() >= self.counts.len());
        probs[..self.counts.len()]
            .iter()
            .map(|&p| (1.0 - p).max(0.0).ln())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use srm_math::approx_eq;

    fn tiny() -> (GroupedLikelihood, Vec<f64>) {
        let data = BugCountData::new(vec![2, 1]).unwrap();
        (GroupedLikelihood::new(&data), vec![0.4, 0.25])
    }

    /// Brute-force Eq. (2) by multiplying the sequential binomials of
    /// Eq. (1) — an independent derivation path.
    fn brute_force_ll(n: u64, counts: &[u64], probs: &[f64]) -> f64 {
        let mut remaining = n;
        let mut ll = 0.0;
        for (i, &x) in counts.iter().enumerate() {
            if x > remaining {
                return f64::NEG_INFINITY;
            }
            let p = probs[i];
            ll += ln_binomial(remaining, x)
                + x as f64 * p.ln()
                + (remaining - x) as f64 * (1.0 - p).ln();
            remaining -= x;
        }
        ll
    }

    #[test]
    fn matches_sequential_binomial_factorisation() {
        let (lik, probs) = tiny();
        for n in 3..30u64 {
            let direct = lik.ln_likelihood(n, &probs);
            let seq = brute_force_ll(n, lik.counts(), &probs);
            assert!(approx_eq(direct, seq, 1e-10), "n = {n}: {direct} vs {seq}");
        }
    }

    #[test]
    fn matches_on_musa_data() {
        let data = srm_data::datasets::musa_cc96();
        let lik = GroupedLikelihood::new(&data);
        let probs = DetectionModel::PadgettSpurrier
            .probs(&[0.9, 0.05], data.len())
            .unwrap();
        for &n in &[136u64, 150, 300, 1000] {
            let direct = lik.ln_likelihood(n, &probs);
            let seq = brute_force_ll(n, data.counts(), &probs);
            assert!(approx_eq(direct, seq, 1e-8), "n = {n}");
        }
    }

    #[test]
    fn impossible_n_is_neg_inf() {
        let (lik, probs) = tiny();
        assert_eq!(lik.ln_likelihood(2, &probs), f64::NEG_INFINITY);
        assert!(lik.ln_likelihood(3, &probs).is_finite());
    }

    #[test]
    fn pointwise_terms_sum_to_joint() {
        let (lik, probs) = tiny();
        for n in 3..20u64 {
            let joint = lik.ln_likelihood(n, &probs);
            let sum: f64 = lik.ln_pointwise_all(n, &probs).iter().sum();
            assert!(approx_eq(joint, sum, 1e-10), "n = {n}");
        }
    }

    #[test]
    fn pointwise_probabilities_normalise() {
        // Σ_x P(X_2 = x | ·) over all feasible x must be 1.
        let data = BugCountData::new(vec![2, 0]).unwrap();
        let probs = [0.4, 0.25];
        let n = 10u64;
        let mut total = 0.0;
        for x2 in 0..=(n - 2) {
            let d = BugCountData::new(vec![2, x2]).unwrap();
            let l = GroupedLikelihood::new(&d);
            total += l.ln_pointwise(n, &probs, 2).exp();
        }
        assert!(approx_eq(total, 1.0, 1e-10), "total = {total}");
        let _ = data; // silence unused in non-test builds
    }

    #[test]
    fn certain_detection_edge_cases() {
        // p = 1 on day 1: all N bugs must be found that day.
        let data = BugCountData::new(vec![5]).unwrap();
        let lik = GroupedLikelihood::new(&data);
        assert_eq!(lik.ln_likelihood(5, &[1.0]), 0.0);
        assert_eq!(lik.ln_likelihood(6, &[1.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn zero_detection_edge_cases() {
        // p = 0: only zero counts are possible.
        let data = BugCountData::new(vec![0, 1]).unwrap();
        let lik = GroupedLikelihood::new(&data);
        assert_eq!(lik.ln_likelihood(5, &[0.0, 0.5]), {
            // day 1 contributes factor 1; day 2 is Binom(5, 0.5) at 1.
            ln_binomial(5, 1) + 1.0 * 0.5f64.ln() + 4.0 * 0.5f64.ln()
        });
        let data2 = BugCountData::new(vec![1]).unwrap();
        let lik2 = GroupedLikelihood::new(&data2);
        assert_eq!(lik2.ln_likelihood(5, &[0.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn survival_factor_is_log_product() {
        let (lik, probs) = tiny();
        let expected = (0.6f64).ln() + (0.75f64).ln();
        assert!(approx_eq(lik.ln_survival(&probs), expected, 1e-12));
    }

    #[test]
    #[should_panic(expected = "schedule shorter")]
    fn short_schedule_panics() {
        let (lik, _) = tiny();
        let _ = lik.ln_likelihood(5, &[0.5]);
    }

    #[test]
    fn likelihood_maximised_near_true_n_constant_model() {
        // With p known, the profile likelihood in N should peak near
        // the true initial content.
        let sim = srm_data::DetectionSimulator::new(200, vec![0.05; 60]);
        let project = sim.run(77);
        let lik = GroupedLikelihood::new(&project.data);
        let probs = vec![0.05; 60];
        let best_n = (project.data.total()..400)
            .max_by(|&a, &b| {
                lik.ln_likelihood(a, &probs)
                    .partial_cmp(&lik.ln_likelihood(b, &probs))
                    .unwrap()
            })
            .unwrap();
        assert!(
            (best_n as i64 - 200).unsigned_abs() < 40,
            "best_n = {best_n}"
        );
    }
}
