//! The five bug-detection-probability models (Eqs. (3)–(7)).
//!
//! Each model maps a small parameter vector `ζ` and a testing day
//! `i ≥ 1` to the probability `p_i` that any given remaining bug is
//! detected on that day. `model0` is the homogeneous environment; the
//! rest describe heterogeneous testing with time-varying probability.

/// Error raised when a detection model is evaluated with an invalid
/// parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The parameter vector has the wrong length.
    WrongDimension {
        /// The model whose evaluation failed.
        model: DetectionModel,
        /// Expected parameter count.
        expected: usize,
        /// Received parameter count.
        got: usize,
    },
    /// A parameter violates its admissible range.
    OutOfRange {
        /// Name of the parameter.
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongDimension {
                model,
                expected,
                got,
            } => write!(
                f,
                "{} expects {expected} parameters, got {got}",
                model.name()
            ),
            Self::OutOfRange {
                name,
                value,
                constraint,
            } => write!(f, "parameter `{name}` = {value} {constraint}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Upper limits of the uniform hyper-priors on the detection-model
/// parameters (the paper's `θ_max`, plus a symmetric bound for
/// model2's real-valued `γ` which the paper leaves implicit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZetaBounds {
    /// Upper limit for model1's `θ` (`θ ~ Uniform(0, θ_max)`).
    pub theta_max: f64,
    /// Symmetric limit for model2's `γ` (`γ ~ Uniform(−γ_max, γ_max)`).
    pub gamma_max: f64,
}

impl Default for ZetaBounds {
    fn default() -> Self {
        Self {
            theta_max: 10.0,
            gamma_max: 10.0,
        }
    }
}

impl ZetaBounds {
    /// The bounds `srm select`, served select and the WAIC grid search
    /// use for a `θ_max` limit: `γ` shares it, but its limit never
    /// falls below 1.
    #[must_use]
    pub fn from_theta_max(theta_max: f64) -> Self {
        Self {
            theta_max,
            gamma_max: theta_max.max(1.0),
        }
    }
}

/// Numerical margin keeping `μ`, `ω` strictly inside their open
/// intervals during sampling/optimisation.
pub const OPEN_EPS: f64 = 1e-9;

/// The five detection-probability models of the paper.
///
/// # Examples
///
/// ```
/// use srm_model::DetectionModel;
///
/// // model0: homogeneous testing, p_i = μ on every day.
/// let p = DetectionModel::Constant.prob(&[0.3], 17).unwrap();
/// assert_eq!(p, 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionModel {
    /// model0: `p_i = μ` (homogeneous testing).
    Constant,
    /// model1: `p_i = 1 − μ/(θ i + 1)` (Padgett–Spurrier).
    PadgettSpurrier,
    /// model2: `p_i = (1 − μ)/(μ^{ln i − γ + 1} + 1)` (discrete
    /// log-logistic hazard).
    LogLogistic,
    /// model3: `p_i = 1 − μ^{ln((i+2)/(i+1))}` (discrete Pareto
    /// hazard).
    Pareto,
    /// model4: `p_i = 1 − μ^{i^ω − (i−1)^ω}` (discrete Weibull
    /// hazard).
    Weibull,
}

impl DetectionModel {
    /// All five models in paper order (`model0`…`model4`).
    pub const ALL: [Self; 5] = [
        Self::Constant,
        Self::PadgettSpurrier,
        Self::LogLogistic,
        Self::Pareto,
        Self::Weibull,
    ];

    /// The paper's index (0–4).
    #[must_use]
    pub fn id(&self) -> usize {
        match self {
            Self::Constant => 0,
            Self::PadgettSpurrier => 1,
            Self::LogLogistic => 2,
            Self::Pareto => 3,
            Self::Weibull => 4,
        }
    }

    /// The paper's label, `"model0"`…`"model4"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Constant => "model0",
            Self::PadgettSpurrier => "model1",
            Self::LogLogistic => "model2",
            Self::Pareto => "model3",
            Self::Weibull => "model4",
        }
    }

    /// Number of parameters in `ζ`.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Self::Constant | Self::Pareto => 1,
            Self::PadgettSpurrier | Self::LogLogistic | Self::Weibull => 2,
        }
    }

    /// Parameter names, in the order `ζ` is laid out.
    #[must_use]
    pub fn param_names(&self) -> &'static [&'static str] {
        match self {
            Self::Constant | Self::Pareto => &["mu"],
            Self::PadgettSpurrier => &["mu", "theta"],
            Self::LogLogistic => &["mu", "gamma"],
            Self::Weibull => &["mu", "omega"],
        }
    }

    /// Box bounds of the uniform priors on `ζ`, given the
    /// hyper-parameter limits.
    #[must_use]
    pub fn bounds(&self, limits: &ZetaBounds) -> Vec<(f64, f64)> {
        let unit = (OPEN_EPS, 1.0 - OPEN_EPS);
        match self {
            Self::Constant | Self::Pareto => vec![unit],
            Self::PadgettSpurrier => vec![unit, (OPEN_EPS, limits.theta_max)],
            Self::LogLogistic => vec![unit, (-limits.gamma_max, limits.gamma_max)],
            Self::Weibull => vec![unit, unit],
        }
    }

    /// Validates a parameter vector against dimension and ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] describing the first violation found.
    pub fn validate(&self, zeta: &[f64]) -> Result<(), ModelError> {
        if zeta.len() != self.dim() {
            return Err(ModelError::WrongDimension {
                model: *self,
                expected: self.dim(),
                got: zeta.len(),
            });
        }
        let mu = zeta[0];
        if !(mu > 0.0 && mu < 1.0 && mu.is_finite()) {
            return Err(ModelError::OutOfRange {
                name: "mu",
                value: mu,
                constraint: "must be in (0, 1)",
            });
        }
        match self {
            Self::PadgettSpurrier => {
                let theta = zeta[1];
                if !(theta > 0.0 && theta.is_finite()) {
                    return Err(ModelError::OutOfRange {
                        name: "theta",
                        value: theta,
                        constraint: "must be > 0",
                    });
                }
            }
            Self::LogLogistic => {
                let gamma = zeta[1];
                if !gamma.is_finite() {
                    return Err(ModelError::OutOfRange {
                        name: "gamma",
                        value: gamma,
                        constraint: "must be finite",
                    });
                }
            }
            Self::Weibull => {
                let omega = zeta[1];
                if !(omega > 0.0 && omega < 1.0 && omega.is_finite()) {
                    return Err(ModelError::OutOfRange {
                        name: "omega",
                        value: omega,
                        constraint: "must be in (0, 1)",
                    });
                }
            }
            Self::Constant | Self::Pareto => {}
        }
        Ok(())
    }

    /// Detection probability `p_i` on (1-based) day `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `zeta` is invalid or `day` is 0.
    pub fn prob(&self, zeta: &[f64], day: u64) -> Result<f64, ModelError> {
        self.validate(zeta)?;
        if day == 0 {
            return Err(ModelError::OutOfRange {
                name: "day",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(self.prob_unchecked(zeta, day))
    }

    /// Detection probability without validation; parameters must have
    /// passed [`DetectionModel::validate`] and `day >= 1`. It reads
    /// `p_i` from the same per-curve log forms as [`DayTables::pass`],
    /// on day factors it computes itself, so it equals the pass's
    /// `p_i` bit for bit.
    #[must_use]
    pub fn prob_unchecked(&self, zeta: &[f64], day: u64) -> f64 {
        self.day_logs(zeta, zeta[0].ln(), day as f64).p()
    }

    /// The probability schedule `p_1, …, p_horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `zeta` is invalid.
    pub fn probs(&self, zeta: &[f64], horizon: usize) -> Result<Vec<f64>, ModelError> {
        self.validate(zeta)?;
        let ln_mu = zeta[0].ln();
        Ok((1..=horizon as u64)
            .map(|i| self.day_logs(zeta, ln_mu, i as f64).p())
            .collect())
    }

    /// Day `i` of the curve at `zeta`, with `ln_mu = ln ζ[0]` and the
    /// day factor computed here rather than read from a [`DayTables`].
    fn day_logs(&self, zeta: &[f64], ln_mu: f64, i: f64) -> DayLogs {
        let mu = zeta[0];
        match self {
            Self::Constant => constant(mu, ln_mu),
            Self::PadgettSpurrier => {
                let a = zeta[1] * i + 1.0;
                padgett_spurrier(mu, ln_mu, a, a.ln())
            }
            Self::LogLogistic => log_logistic(
                1.0 - mu,
                (-mu).ln_1p(),
                log_logistic_scale(ln_mu, zeta[1]) * (ln_mu * i.ln()).exp(),
            ),
            Self::Pareto => hazard(ln_mu * ln_ratio(i)),
            Self::Weibull => {
                let omega = zeta[1];
                hazard(ln_mu * (i.powf(omega) - (i - 1.0).powf(omega)))
            }
        }
    }
}

// The curves in log space, each written once. With `L = ln μ` taken
// once per pass, a day yields `ln q_i` from `L` and one day factor;
// `p_i` and `ln p_i` are computed only when a caller asks. Every form
// stays finite, with `p_i` strictly inside (0, 1), for every ζ in the
// sampling box at any horizon up to 10,000 days.

/// model0: `p = μ` on every day, so all three values are pass
/// constants.
#[inline]
fn constant(mu: f64, ln_mu: f64) -> DayLogs {
    DayLogs(Day::Flat {
        p: mu,
        ln_p: ln_mu,
        ln_q: (-mu).ln_1p(),
    })
}

/// model1: `q = μ/a` with `a = θ i + 1`, so `ln q = L − ln a` and
/// `ln p = ln(a − μ) − ln a`.
#[inline]
fn padgett_spurrier(mu: f64, ln_mu: f64, a: f64, ln_a: f64) -> DayLogs {
    DayLogs(Day::Ratio {
        mu,
        a,
        ln_a,
        ln_q: ln_mu - ln_a,
    })
}

/// model2's pass constant `exp(L (1 − γ))`: with it, the day term
/// `μ^{ln i − γ + 1}` is `exp(L (1 − γ)) · i^L`.
#[inline]
fn log_logistic_scale(ln_mu: f64, gamma: f64) -> f64 {
    (ln_mu * (1.0 - gamma)).exp()
}

/// model2: `p = (1 − μ)/(e + 1)` with `e = μ^{ln i − γ + 1}`, so
/// `ln p = ln(1 − μ) − ln(1 + e)` and `ln q = ln(1 − p)`.
#[inline]
fn log_logistic(one_minus_mu: f64, ln_one_minus_mu: f64, e: f64) -> DayLogs {
    DayLogs(Day::LogLogistic {
        p: one_minus_mu / (e + 1.0),
        ln_one_minus_mu,
        e,
    })
}

/// model3 and model4, discrete hazards: `ln q = L · f_i` with the day
/// factor `f_i` (`ln((i+2)/(i+1))`, or `i^ω − (i−1)^ω`), and
/// `p = −expm1(ln q)`.
#[inline]
fn hazard(ln_q: f64) -> DayLogs {
    DayLogs(Day::Hazard { ln_q })
}

/// model3's day factor `ln((i+2)/(i+1))`.
#[inline]
fn ln_ratio(i: f64) -> f64 {
    ((i + 2.0) / (i + 1.0)).ln()
}

/// One day of a [`DayTables::pass`]: `ln q_i = ln(1 − p_i)`, with
/// `p_i` and `ln p_i` computed on demand from the same intermediates.
#[derive(Debug, Clone, Copy)]
pub struct DayLogs(Day);

/// The intermediates each curve keeps for `ln q`, `p` and `ln p`.
#[derive(Debug, Clone, Copy)]
enum Day {
    /// model0.
    Flat { p: f64, ln_p: f64, ln_q: f64 },
    /// model1.
    Ratio {
        mu: f64,
        a: f64,
        ln_a: f64,
        ln_q: f64,
    },
    /// model2.
    LogLogistic {
        p: f64,
        ln_one_minus_mu: f64,
        e: f64,
    },
    /// model3 and model4.
    Hazard { ln_q: f64 },
}

impl DayLogs {
    /// `ln q_i`.
    #[inline]
    #[must_use]
    pub fn ln_q(self) -> f64 {
        match self.0 {
            Day::Flat { ln_q, .. } | Day::Ratio { ln_q, .. } | Day::Hazard { ln_q } => ln_q,
            Day::LogLogistic { p, .. } => (-p).ln_1p(),
        }
    }

    /// `ln p_i`.
    #[inline]
    #[must_use]
    pub fn ln_p(self) -> f64 {
        match self.0 {
            Day::Flat { ln_p, .. } => ln_p,
            Day::Ratio { mu, a, ln_a, .. } => (a - mu).ln() - ln_a,
            Day::LogLogistic {
                ln_one_minus_mu, e, ..
            } => ln_one_minus_mu - e.ln_1p(),
            Day::Hazard { ln_q } => (-ln_q.exp_m1()).ln(),
        }
    }

    /// `p_i`.
    #[inline]
    #[must_use]
    pub fn p(self) -> f64 {
        match self.0 {
            Day::Flat { p, .. } | Day::LogLogistic { p, .. } => p,
            Day::Ratio { mu, a, .. } => (a - mu) / a,
            Day::Hazard { ln_q } => -ln_q.exp_m1(),
        }
    }
}

/// The day factors of days `1..=horizon`: `i`, `ln i` and
/// `ln((i+2)/(i+1))`.
///
/// They depend on the day alone, so a sampler builds them once per
/// horizon and every pass over the schedule reads them instead of
/// recomputing the logs. [`DayTables::pass`] runs one loop per curve,
/// with the curve chosen once outside the day loop and `ln μ` taken
/// once per pass.
///
/// # Examples
///
/// ```
/// use srm_model::{DayTables, DetectionModel};
///
/// let tables = DayTables::new(30);
/// let model = DetectionModel::Pareto;
/// let mut days = Vec::new();
/// tables.fill_logs(model, &[0.3], &mut days);
/// let schedule: Vec<f64> = days.iter().map(|day| day.p()).collect();
/// assert_eq!(schedule, model.probs(&[0.3], 30).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DayTables {
    day: Vec<f64>,
    ln_day: Vec<f64>,
    ln_ratio: Vec<f64>,
}

impl DayTables {
    /// Builds the factors of days `1..=horizon`.
    #[must_use]
    pub fn new(horizon: usize) -> Self {
        let day: Vec<f64> = (1..=horizon as u64).map(|d| d as f64).collect();
        Self {
            ln_day: day.iter().map(|i| i.ln()).collect(),
            ln_ratio: day.iter().map(|&i| ln_ratio(i)).collect(),
            day,
        }
    }

    /// Number of days covered.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.day.len()
    }

    /// One pass over the schedule of `model` at `zeta`: calls
    /// `f(index, day)` for every day in order (`index` is the 0-based
    /// day offset). `zeta` must have passed
    /// [`DetectionModel::validate`].
    ///
    /// `held`, when given, memoises the day factors that one
    /// coordinate fixes: model1's `ln(θ i + 1)` (keyed by `θ`),
    /// model2's `i^{ln μ}` (keyed by `μ`) and model4's exponents
    /// `i^ω − (i−1)^ω` (keyed by `ω`). A pass at the memo's key reads
    /// them; any other pass computes them and stores them in the same
    /// day loop. model0 and model3 leave it untouched.
    ///
    /// # Panics
    ///
    /// Panics if `zeta` is shorter than the model's dimension.
    #[inline]
    pub fn pass(
        &self,
        model: DetectionModel,
        zeta: &[f64],
        held: Option<&mut HeldFactors>,
        mut f: impl FnMut(usize, DayLogs),
    ) {
        let mu = zeta[0];
        let ln_mu = mu.ln();
        match model {
            DetectionModel::Constant => {
                let day = constant(mu, ln_mu);
                for index in 0..self.horizon() {
                    f(index, day);
                }
            }
            DetectionModel::PadgettSpurrier => {
                let theta = zeta[1];
                self.held_pass(
                    held,
                    theta,
                    |index| (theta * self.day[index] + 1.0).ln(),
                    |index, ln_a| {
                        let a = theta * self.day[index] + 1.0;
                        f(index, padgett_spurrier(mu, ln_mu, a, ln_a));
                    },
                );
            }
            DetectionModel::LogLogistic => {
                let scale = log_logistic_scale(ln_mu, zeta[1]);
                let (one_minus_mu, ln_one_minus_mu) = (1.0 - mu, (-mu).ln_1p());
                self.held_pass(
                    held,
                    mu,
                    |index| (ln_mu * self.ln_day[index]).exp(),
                    |index, i_pow| {
                        f(
                            index,
                            log_logistic(one_minus_mu, ln_one_minus_mu, scale * i_pow),
                        );
                    },
                );
            }
            DetectionModel::Pareto => {
                for (index, &r) in self.ln_ratio.iter().enumerate() {
                    f(index, hazard(ln_mu * r));
                }
            }
            DetectionModel::Weibull => {
                let omega = zeta[1];
                // (i − 1)^ω, carried over from the previous day.
                let mut prev = 0.0f64.powf(omega);
                self.held_pass(
                    held,
                    omega,
                    |index| {
                        let pow = self.day[index].powf(omega);
                        let exponent = pow - prev;
                        prev = pow;
                        exponent
                    },
                    |index, exponent| f(index, hazard(ln_mu * exponent)),
                );
            }
        }
    }

    /// Runs `f(index, factor)` over the day factors keyed by `key`:
    /// read from `held` when it holds them, otherwise computed in day
    /// order by `compute` and, when `held` is given, stored in it in
    /// the same loop.
    #[inline]
    fn held_pass(
        &self,
        held: Option<&mut HeldFactors>,
        key: f64,
        mut compute: impl FnMut(usize) -> f64,
        mut f: impl FnMut(usize, f64),
    ) {
        let bits = key.to_bits();
        match held {
            Some(memo) if memo.key == Some(bits) => {
                debug_assert_eq!(memo.factors.len(), self.horizon());
                for (index, &factor) in memo.factors.iter().enumerate() {
                    f(index, factor);
                }
            }
            Some(memo) => {
                memo.key = None;
                memo.factors.clear();
                for index in 0..self.horizon() {
                    let factor = compute(index);
                    memo.factors.push(factor);
                    f(index, factor);
                }
                memo.key = Some(bits);
            }
            None => {
                for index in 0..self.horizon() {
                    f(index, compute(index));
                }
            }
        }
    }

    /// Writes the day logs of `model` at `zeta` into `out` (cleared
    /// first), for callers that reuse one buffer across many `ζ`.
    /// `zeta` must have passed [`DetectionModel::validate`].
    pub fn fill_logs(&self, model: DetectionModel, zeta: &[f64], out: &mut Vec<DayLogs>) {
        out.clear();
        self.pass(model, zeta, None, |_, day| out.push(day));
    }
}

/// A per-chain memo of the day factors that a curve's held
/// coordinate fixes, for [`DayTables::pass`]. While one coordinate of
/// `ζ` is probed, the other stays put, so the factors it alone
/// determines are computed once and then only read.
#[derive(Debug, Clone, Default)]
pub struct HeldFactors {
    /// Bits of the coordinate the factors were computed at.
    key: Option<u64>,
    factors: Vec<f64>,
}

impl HeldFactors {
    /// Whether the memo holds the factors computed at `value` of its
    /// keying coordinate.
    #[must_use]
    pub fn holds(&self, value: f64) -> bool {
        self.key == Some(value.to_bits())
    }
}

impl std::fmt::Display for DetectionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_names_dims_consistent() {
        for (idx, m) in DetectionModel::ALL.iter().enumerate() {
            assert_eq!(m.id(), idx);
            assert_eq!(m.name(), format!("model{idx}"));
            assert_eq!(m.dim(), m.param_names().len());
            assert_eq!(m.dim(), m.bounds(&ZetaBounds::default()).len());
        }
    }

    #[test]
    fn constant_model_flat_schedule() {
        let probs = DetectionModel::Constant.probs(&[0.42], 10).unwrap();
        assert!(probs.iter().all(|&p| (p - 0.42).abs() < 1e-12));
    }

    #[test]
    fn padgett_spurrier_increases_to_one() {
        let m = DetectionModel::PadgettSpurrier;
        let zeta = [0.9, 0.5];
        let probs = m.probs(&zeta, 200).unwrap();
        for w in probs.windows(2) {
            assert!(w[1] >= w[0], "schedule must be nondecreasing");
        }
        // p_1 = 1 − 0.9/1.5 = 0.4; p_∞ → 1.
        assert!((probs[0] - 0.4).abs() < 1e-12);
        assert!(probs[199] > 0.98);
    }

    #[test]
    fn pareto_hazard_decays() {
        let m = DetectionModel::Pareto;
        let probs = m.probs(&[0.3], 100).unwrap();
        for w in probs.windows(2) {
            assert!(w[1] <= w[0], "Pareto hazard must decay");
        }
        // p_1 = 1 − 0.3^{ln(3/2)}.
        let expected = 1.0 - 0.3f64.powf((3.0f64 / 2.0).ln());
        assert!((probs[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn weibull_hazard_decays_for_omega_below_one() {
        let probs = DetectionModel::Weibull.probs(&[0.5, 0.4], 50).unwrap();
        for w in probs.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // p_1 = 1 − μ.
        assert!((probs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log_logistic_limits() {
        let m = DetectionModel::LogLogistic;
        let zeta = [0.4, 0.0];
        let probs = m.probs(&zeta, 2_000).unwrap();
        // As i → ∞ the hazard rises to 1 − μ.
        assert!((probs[1_999] - 0.6).abs() < 0.02);
        // Finite everywhere and inside (0, 1).
        assert!(probs.iter().all(|&p| p > 0.0 && p < 1.0));
    }

    #[test]
    fn gamma_shifts_log_logistic_curve() {
        let m = DetectionModel::LogLogistic;
        let lo = m.prob(&[0.4, -2.0], 5).unwrap();
        let hi = m.prob(&[0.4, 2.0], 5).unwrap();
        // Larger γ shrinks the exponent of μ^{ln i − γ + 1}; with
        // μ < 1 that grows the denominator, lowering p.
        assert!(hi < lo, "hi = {hi}, lo = {lo}");
    }

    #[test]
    fn probabilities_always_in_open_unit_interval() {
        let cases: Vec<(DetectionModel, Vec<f64>)> = vec![
            (DetectionModel::Constant, vec![1.0 - 1e-12]),
            (DetectionModel::PadgettSpurrier, vec![0.999_999, 1e-6]),
            (DetectionModel::LogLogistic, vec![0.001, 9.0]),
            (DetectionModel::Pareto, vec![0.999_999]),
            (DetectionModel::Weibull, vec![0.999_999, 0.999_999]),
        ];
        for (m, zeta) in cases {
            for day in [1u64, 2, 10, 1_000] {
                let p = m.prob_unchecked(&zeta, day);
                assert!(p > 0.0 && p < 1.0, "{m} day {day}: p = {p}");
            }
        }
    }

    #[test]
    fn validation_rejects_wrong_dimension() {
        let err = DetectionModel::PadgettSpurrier
            .validate(&[0.5])
            .unwrap_err();
        assert!(matches!(
            err,
            ModelError::WrongDimension {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(DetectionModel::Constant.validate(&[0.0]).is_err());
        assert!(DetectionModel::Constant.validate(&[1.0]).is_err());
        assert!(DetectionModel::PadgettSpurrier
            .validate(&[0.5, 0.0])
            .is_err());
        assert!(DetectionModel::Weibull.validate(&[0.5, 1.0]).is_err());
        assert!(DetectionModel::LogLogistic
            .validate(&[0.5, f64::INFINITY])
            .is_err());
    }

    #[test]
    fn day_zero_rejected() {
        let err = DetectionModel::Constant.prob(&[0.5], 0).unwrap_err();
        assert!(err.to_string().contains("day"));
    }

    #[test]
    fn bounds_respect_limits() {
        let limits = ZetaBounds {
            theta_max: 25.0,
            gamma_max: 3.0,
        };
        let b1 = DetectionModel::PadgettSpurrier.bounds(&limits);
        assert_eq!(b1[1].1, 25.0);
        let b2 = DetectionModel::LogLogistic.bounds(&limits);
        assert_eq!(b2[1], (-3.0, 3.0));
    }

    /// ζ at the edges and midpoints of each curve's sampling box:
    /// μ at `OPEN_EPS`, ½ and `1 − OPEN_EPS`; ω near 0, ½ and at
    /// `1 − OPEN_EPS`; θ at `OPEN_EPS`, θ_max/2 and θ_max; γ at ±γ_max
    /// and 0.
    fn edge_zetas(model: DetectionModel) -> Vec<Vec<f64>> {
        let limits = ZetaBounds::default();
        let mus = [OPEN_EPS, 0.5, 1.0 - OPEN_EPS];
        let seconds: Vec<f64> = match model {
            DetectionModel::Constant | DetectionModel::Pareto => {
                return mus.iter().map(|&mu| vec![mu]).collect();
            }
            DetectionModel::PadgettSpurrier => {
                vec![OPEN_EPS, 0.5 * limits.theta_max, limits.theta_max]
            }
            DetectionModel::LogLogistic => vec![-limits.gamma_max, 0.0, limits.gamma_max],
            DetectionModel::Weibull => vec![OPEN_EPS, 1e-3, 0.5, 1.0 - OPEN_EPS],
        };
        mus.iter()
            .flat_map(|&mu| seconds.iter().map(move |&x| vec![mu, x]))
            .collect()
    }

    /// The paper's Eqs. (3)–(7) written directly with `powf` and `ln`,
    /// independently of the log forms: `p_i` on day `i`.
    fn direct_p(model: DetectionModel, zeta: &[f64], i: f64) -> f64 {
        let mu = zeta[0];
        match model {
            DetectionModel::Constant => mu,
            DetectionModel::PadgettSpurrier => 1.0 - mu / (zeta[1] * i + 1.0),
            DetectionModel::LogLogistic => (1.0 - mu) / (mu.powf(i.ln() - zeta[1] + 1.0) + 1.0),
            DetectionModel::Pareto => 1.0 - mu.powf(((i + 2.0) / (i + 1.0)).ln()),
            DetectionModel::Weibull => 1.0 - mu.powf(i.powf(zeta[1]) - (i - 1.0).powf(zeta[1])),
        }
    }

    /// Asserts `got` within 1e-12 of the direct form's `want`, relative
    /// to `scale`. A direct `1 − x` form is itself only good to about
    /// `ε / min(p, q)` relative, so the bound widens by that where `p`
    /// or `q` is small.
    fn assert_close(got: f64, want: f64, scale: f64, p: f64, at: &str) {
        let tol = 1e-12f64.max(8.0 * f64::EPSILON / p.min(1.0 - p));
        assert!(
            (got - want).abs() <= tol * scale,
            "{at}: {got} vs direct {want} (tol {tol:e})"
        );
    }

    #[test]
    fn passes_match_direct_forms_day_by_day() {
        for horizon in [1usize, 146, 10_000] {
            let tables = DayTables::new(horizon);
            assert_eq!(tables.horizon(), horizon);
            let mut logs = Vec::new();
            for model in DetectionModel::ALL {
                for zeta in edge_zetas(model) {
                    model.validate(&zeta).unwrap();
                    let check = |index: usize, day: DayLogs| {
                        let at = format!("{model} {zeta:?} day {}", index + 1);
                        let (p, ln_p, ln_q) = (day.p(), day.ln_p(), day.ln_q());
                        assert!(p > 0.0 && p < 1.0, "p = {p} at {at}");
                        assert!(ln_p.is_finite() && ln_p < 0.0, "ln p = {ln_p} at {at}");
                        assert!(ln_q.is_finite() && ln_q < 0.0, "ln q = {ln_q} at {at}");
                        let want = direct_p(model, &zeta, (index + 1) as f64);
                        if want >= 1e-6 && 1.0 - want >= 1e-6 {
                            assert_close(p, want, want, want, &format!("p at {at}"));
                            // The logs enter the likelihood times a count,
                            // so below magnitude 1 their error is absolute.
                            let (ln_p_want, ln_q_want) = (want.ln(), (1.0 - want).ln());
                            let scale = |v: f64| v.abs().max(1.0);
                            let at_p = format!("ln p at {at}");
                            assert_close(ln_p, ln_p_want, scale(ln_p_want), want, &at_p);
                            let at_q = format!("ln q at {at}");
                            assert_close(ln_q, ln_q_want, scale(ln_q_want), want, &at_q);
                        }
                    };
                    let mut seen = 0;
                    tables.pass(model, &zeta, None, |index, day| {
                        assert_eq!(index, seen);
                        seen += 1;
                        check(index, day);
                    });
                    assert_eq!(seen, horizon);
                    // A memo miss stores the factors, a hit reads them:
                    // both give the unmemoised pass's bits.
                    tables.fill_logs(model, &zeta, &mut logs);
                    let mut memo = HeldFactors::default();
                    for _ in 0..2 {
                        tables.pass(model, &zeta, Some(&mut memo), |index, day| {
                            let direct = logs[index];
                            assert_eq!(day.ln_q().to_bits(), direct.ln_q().to_bits());
                            assert_eq!(day.ln_p().to_bits(), direct.ln_p().to_bits());
                        });
                    }
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    let from_logs: Vec<f64> = logs.iter().map(|day| day.p()).collect();
                    let probs = model.probs(&zeta, horizon).unwrap();
                    assert_eq!(bits(&probs), bits(&from_logs), "{model} {zeta:?}");
                    let day = horizon as u64;
                    let last = model.prob_unchecked(&zeta, day);
                    assert_eq!(last.to_bits(), from_logs[horizon - 1].to_bits());
                }
            }
        }
    }

    #[test]
    fn probabilities_below_the_old_clamp_are_exact() {
        // At μ = 1 − OPEN_EPS these days' probabilities lie below 1e-9,
        // where a clamp into (OPEN_EPS, 1 − OPEN_EPS) used to return 1e-9.
        let mu = 1.0 - OPEN_EPS;
        let cases = [
            (
                DetectionModel::Pareto,
                vec![mu],
                1_000u64,
                -(mu.ln() * (1.0f64 / 1_001.0).ln_1p()).exp_m1(),
            ),
            (
                DetectionModel::Weibull,
                vec![mu, 0.5],
                100,
                -(mu.ln() * (10.0 - 99.0f64.sqrt())).exp_m1(),
            ),
            (
                DetectionModel::LogLogistic,
                vec![mu, 0.0],
                50,
                (1.0 - mu) / (mu.powf(50.0f64.ln() + 1.0) + 1.0),
            ),
        ];
        for (model, zeta, day, want) in cases {
            assert!(want < 1e-9, "{model}: {want}");
            let got = model.prob(&zeta, day).unwrap();
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "{model} day {day}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn display_uses_paper_labels() {
        assert_eq!(DetectionModel::Pareto.to_string(), "model3");
    }
}
