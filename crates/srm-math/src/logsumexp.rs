//! Numerically stable `log Σ exp` reductions.
//!
//! WAIC (Eq. (23)–(25) of the paper) needs `ln( mean_ω p(x_i | ω) )`
//! over thousands of MCMC draws whose log densities range over
//! hundreds of nats; naive exponentiation would under/overflow.

/// Stable `ln Σ_i exp(v_i)`.
///
/// Empty input returns `-inf` (the log of an empty sum). Inputs of
/// `-inf` are ignored (they contribute `exp(-inf) = 0`).
///
/// # Examples
///
/// ```
/// use srm_math::log_sum_exp;
/// let v = [1000.0, 1000.0];
/// assert!((log_sum_exp(&v) - (1000.0 + 2.0_f64.ln())).abs() < 1e-12);
/// assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
/// ```
#[must_use]
pub fn log_sum_exp(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if max.is_infinite() {
        return max;
    }
    let sum: f64 = values.iter().map(|&v| (v - max).exp()).sum();
    max + sum.ln()
}

/// Stable `ln( (1/n) Σ_i exp(v_i) )` — the log of the predictive mean
/// used by the WAIC learning-loss term.
///
/// # Panics
///
/// Panics on empty input: the mean of zero draws is undefined.
///
/// # Examples
///
/// ```
/// use srm_math::log_mean_exp;
/// let v = [0.0, 0.0, 0.0];
/// assert!(log_mean_exp(&v).abs() < 1e-12);
/// ```
#[must_use]
pub fn log_mean_exp(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "log_mean_exp of an empty slice");
    log_sum_exp(values) - (values.len() as f64).ln()
}

/// Stable `ln(1 + exp(x))` (softplus), used when mixing log
/// probabilities pairwise.
///
/// # Examples
///
/// ```
/// use srm_math::logsumexp::log1p_exp;
/// assert!((log1p_exp(0.0) - std::f64::consts::LN_2).abs() < 1e-15);
/// assert!((log1p_exp(-745.0)).abs() < 1e-300); // no underflow blow-up
/// assert!((log1p_exp(1000.0) - 1000.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn log1p_exp(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Stable `ln(exp(a) + exp(b))` for two values.
///
/// # Examples
///
/// ```
/// use srm_math::logsumexp::log_add_exp;
/// let v = log_add_exp(-1000.0, -1000.0);
/// assert!((v - (-1000.0 + 2.0_f64.ln())).abs() < 1e-12);
/// ```
#[must_use]
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + log1p_exp(lo - hi)
}

/// Streaming `log Σ exp` accumulator: feeds one log-value at a time
/// in O(1) memory, rescaling on a new maximum. WAIC uses one per
/// observation across tens of thousands of MCMC draws.
///
/// # Examples
///
/// ```
/// use srm_math::logsumexp::{log_sum_exp, StreamingLogSumExp};
/// let values = [-1000.0, -1001.0, -999.5];
/// let mut acc = StreamingLogSumExp::new();
/// for &v in &values { acc.add(v); }
/// assert!((acc.log_sum() - log_sum_exp(&values)).abs() < 1e-12);
/// assert_eq!(acc.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingLogSumExp {
    max: f64,
    scaled_sum: f64,
    count: u64,
}

impl Default for StreamingLogSumExp {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingLogSumExp {
    /// Creates an empty accumulator (`log_sum` = −∞).
    #[must_use]
    pub fn new() -> Self {
        Self {
            max: f64::NEG_INFINITY,
            scaled_sum: 0.0,
            count: 0,
        }
    }

    /// Feeds one log-value. `-inf` contributes zero mass but is
    /// counted toward [`StreamingLogSumExp::count`].
    pub fn add(&mut self, ln_value: f64) {
        self.count += 1;
        if ln_value == f64::NEG_INFINITY {
            return;
        }
        if ln_value <= self.max {
            self.scaled_sum += (ln_value - self.max).exp();
        } else {
            self.scaled_sum = if self.max == f64::NEG_INFINITY {
                1.0
            } else {
                self.scaled_sum * (self.max - ln_value).exp() + 1.0
            };
            self.max = ln_value;
        }
    }

    /// Number of values fed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `ln Σ exp(v_i)` over everything fed so far.
    #[must_use]
    pub fn log_sum(&self) -> f64 {
        if self.max == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            self.max + self.scaled_sum.ln()
        }
    }

    /// `ln( (1/n) Σ exp(v_i) )`.
    ///
    /// # Panics
    ///
    /// Panics when nothing was fed.
    #[must_use]
    pub fn log_mean(&self) -> f64 {
        assert!(self.count > 0, "log_mean of an empty accumulator");
        self.log_sum() - (self.count as f64).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn streaming_matches_batch() {
        let values = [0.5, -3.0, 2.0, -700.0, 1.0, f64::NEG_INFINITY];
        let mut acc = StreamingLogSumExp::new();
        for &v in &values {
            acc.add(v);
        }
        assert!(approx_eq(acc.log_sum(), log_sum_exp(&values), 1e-12));
        assert_eq!(acc.count(), 6);
        assert!(approx_eq(
            acc.log_mean(),
            log_sum_exp(&values) - 6.0f64.ln(),
            1e-12
        ));
    }

    #[test]
    fn streaming_empty_and_all_neg_inf() {
        let acc = StreamingLogSumExp::new();
        assert_eq!(acc.log_sum(), f64::NEG_INFINITY);
        let mut acc = StreamingLogSumExp::new();
        acc.add(f64::NEG_INFINITY);
        assert_eq!(acc.log_sum(), f64::NEG_INFINITY);
        assert_eq!(acc.log_mean(), f64::NEG_INFINITY);
    }

    #[test]
    fn streaming_descending_and_ascending_orders_agree() {
        let mut up = StreamingLogSumExp::new();
        let mut down = StreamingLogSumExp::new();
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 0.37 - 20.0).collect();
        for &v in &vals {
            up.add(v);
        }
        for &v in vals.iter().rev() {
            down.add(v);
        }
        assert!(approx_eq(up.log_sum(), down.log_sum(), 1e-10));
    }

    #[test]
    fn matches_naive_in_safe_range() {
        let v = [0.1f64, -2.0, 1.3, 0.0];
        let naive: f64 = v.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!(approx_eq(log_sum_exp(&v), naive, 1e-13));
    }

    #[test]
    fn handles_extreme_magnitudes() {
        let v = [-1e9, 0.0];
        assert!(approx_eq(log_sum_exp(&v), 0.0, 1e-12));
        let v = [1e9, 1e9 - 700.0];
        assert!(approx_eq(log_sum_exp(&v), 1e9, 1e-3));
    }

    #[test]
    fn neg_inf_elements_are_ignored() {
        let v = [f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY];
        assert!(approx_eq(log_sum_exp(&v), 0.0, 1e-13));
    }

    #[test]
    fn all_neg_inf_is_neg_inf() {
        let v = [f64::NEG_INFINITY; 3];
        assert_eq!(log_sum_exp(&v), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_shifts_by_log_n() {
        let v = [3.0; 10];
        assert!(approx_eq(log_mean_exp(&v), 3.0, 1e-13));
    }

    #[test]
    fn log_add_exp_commutative_and_consistent() {
        for &(a, b) in &[(0.0, 1.0), (-700.0, -702.0), (100.0, -100.0)] {
            assert!(approx_eq(log_add_exp(a, b), log_add_exp(b, a), 1e-13));
            assert!(approx_eq(log_add_exp(a, b), log_sum_exp(&[a, b]), 1e-13));
        }
    }

    #[test]
    fn softplus_limits() {
        assert!(approx_eq(log1p_exp(50.0), 50.0, 1e-12));
        assert!(log1p_exp(-800.0) >= 0.0);
    }
}
