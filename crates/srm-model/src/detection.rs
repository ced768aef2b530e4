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
    /// passed [`DetectionModel::validate`] and `day >= 1`. The
    /// day-by-day reference for the per-curve passes of [`DayTables`],
    /// which evaluate the same expressions bit for bit.
    #[must_use]
    pub fn prob_unchecked(&self, zeta: &[f64], day: u64) -> f64 {
        let i = day as f64;
        let mu = zeta[0];
        match self {
            Self::Constant => open(mu),
            Self::PadgettSpurrier => padgett_spurrier(mu, zeta[1], i),
            Self::LogLogistic => log_logistic(mu, 1.0 - mu, zeta[1], i.ln()),
            Self::Pareto => pareto(mu, ln_ratio(i)),
            Self::Weibull => {
                let omega = zeta[1];
                weibull(mu, i.powf(omega) - (i - 1.0).powf(omega))
            }
        }
    }

    /// The probability schedule `p_1, …, p_horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `zeta` is invalid.
    pub fn probs(&self, zeta: &[f64], horizon: usize) -> Result<Vec<f64>, ModelError> {
        self.validate(zeta)?;
        Ok((1..=horizon as u64)
            .map(|i| self.prob_unchecked(zeta, i))
            .collect())
    }
}

// The per-curve expressions, each written once: `prob_unchecked`
// feeds them day factors it computes itself, the passes of
// `DayTables` feed them the same factors from the tables.

/// Keeps a probability strictly inside (0, 1): the likelihood takes
/// ln p and ln q, and boundary values only arise from round-off.
#[inline]
fn open(p: f64) -> f64 {
    p.clamp(OPEN_EPS, 1.0 - OPEN_EPS)
}

/// model1: `1 − μ/(θ i + 1)`.
#[inline]
fn padgett_spurrier(mu: f64, theta: f64, i: f64) -> f64 {
    open(1.0 - mu / (theta * i + 1.0))
}

/// model2: `(1 − μ)/(μ^{ln i − γ + 1} + 1)`, with `1 − μ` passed in.
#[inline]
fn log_logistic(mu: f64, one_minus_mu: f64, gamma: f64, ln_i: f64) -> f64 {
    open(one_minus_mu / (mu.powf(ln_i - gamma + 1.0) + 1.0))
}

/// model3: `1 − μ^{ln((i+2)/(i+1))}`.
#[inline]
fn pareto(mu: f64, ln_ratio: f64) -> f64 {
    open(1.0 - mu.powf(ln_ratio))
}

/// model4: `1 − μ^e` with the exponent `e = i^ω − (i−1)^ω`.
#[inline]
fn weibull(mu: f64, exponent: f64) -> f64 {
    open(1.0 - mu.powf(exponent))
}

/// model3's day factor `ln((i+2)/(i+1))`.
#[inline]
fn ln_ratio(i: f64) -> f64 {
    ((i + 2.0) / (i + 1.0)).ln()
}

/// The day-only factors of the detection curves for days
/// `1..=horizon`: `i`, `ln i` and `ln((i+2)/(i+1))`.
///
/// They depend on the day alone, so a sampler builds them once per
/// horizon and every pass over the schedule reads them instead of
/// recomputing the logs. [`DayTables::pass`] runs one loop per curve,
/// with the curve chosen once outside the day loop, and evaluates the
/// same expressions as [`DetectionModel::prob_unchecked`] on the same
/// factors, so every probability it yields equals `prob_unchecked`'s
/// bit for bit.
///
/// # Examples
///
/// ```
/// use srm_model::{DayTables, DetectionModel};
///
/// let tables = DayTables::new(30);
/// let model = DetectionModel::Pareto;
/// let mut schedule = Vec::new();
/// tables.fill_probs(model, &[0.3], &mut schedule);
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

    /// Writes model4's exponents `i^ω − (i−1)^ω` for every day into
    /// `out` (cleared first). Each day reuses the previous day's power,
    /// so the exponents cost one `powf` per day; they are what
    /// [`DayTables::pass`] computes for [`DetectionModel::Weibull`], so
    /// a caller can keep them while only `μ` changes.
    pub fn weibull_exponents(&self, omega: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.weibull_exponent_iter(omega));
    }

    /// The exponents of [`DayTables::weibull_exponents`], day by day.
    fn weibull_exponent_iter(&self, omega: f64) -> impl Iterator<Item = f64> + '_ {
        // (i − 1)^ω on day 1, computed as prob_unchecked does.
        let mut prev = 0.0f64.powf(omega);
        self.day.iter().map(move |&i| {
            let pow = i.powf(omega);
            let exponent = pow - prev;
            prev = pow;
            exponent
        })
    }

    /// One pass over the schedule of `model` at `zeta`: calls
    /// `f(index, day)` for every day in order (`index` is the 0-based
    /// day offset). `zeta` must have passed
    /// [`DetectionModel::validate`].
    ///
    /// `weibull_exponents`, when given, are model4's exponents at
    /// `zeta[1]` from [`DayTables::weibull_exponents`]; the pass then
    /// pays one `powf` per day instead of two. Other curves ignore
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `zeta` is shorter than the model's dimension.
    #[inline]
    pub fn pass(
        &self,
        model: DetectionModel,
        zeta: &[f64],
        weibull_exponents: Option<&[f64]>,
        mut f: impl FnMut(usize, DayProb),
    ) {
        let mu = zeta[0];
        match model {
            DetectionModel::Constant => {
                // A flat schedule: its logs are pass constants.
                let p = open(mu);
                let day = DayProb {
                    p,
                    logs: Some((p.ln(), (1.0 - p).ln())),
                };
                for index in 0..self.horizon() {
                    f(index, day);
                }
            }
            DetectionModel::PadgettSpurrier => {
                let theta = zeta[1];
                for (index, &i) in self.day.iter().enumerate() {
                    f(index, DayProb::of(padgett_spurrier(mu, theta, i)));
                }
            }
            DetectionModel::LogLogistic => {
                let (one_minus_mu, gamma) = (1.0 - mu, zeta[1]);
                for (index, &ln_i) in self.ln_day.iter().enumerate() {
                    f(
                        index,
                        DayProb::of(log_logistic(mu, one_minus_mu, gamma, ln_i)),
                    );
                }
            }
            DetectionModel::Pareto => {
                for (index, &r) in self.ln_ratio.iter().enumerate() {
                    f(index, DayProb::of(pareto(mu, r)));
                }
            }
            DetectionModel::Weibull => match weibull_exponents {
                Some(exponents) => {
                    debug_assert_eq!(exponents.len(), self.horizon());
                    for (index, &e) in exponents.iter().enumerate() {
                        f(index, DayProb::of(weibull(mu, e)));
                    }
                }
                None => {
                    for (index, e) in self.weibull_exponent_iter(zeta[1]).enumerate() {
                        f(index, DayProb::of(weibull(mu, e)));
                    }
                }
            },
        }
    }

    /// Writes the schedule `p_1, …, p_horizon` of `model` at `zeta`
    /// into `out` (cleared first): [`DetectionModel::probs`] without
    /// its validation or allocation, for callers that reuse one buffer.
    /// `zeta` must have passed [`DetectionModel::validate`].
    pub fn fill_probs(&self, model: DetectionModel, zeta: &[f64], out: &mut Vec<f64>) {
        out.clear();
        self.pass(model, zeta, None, |_, day| out.push(day.p()));
    }
}

/// One day of a [`DayTables::pass`]: the detection probability `p_i`,
/// with `ln p_i` and `ln q_i = ln(1 − p_i)` on demand.
#[derive(Debug, Clone, Copy)]
pub struct DayProb {
    p: f64,
    /// `(ln p, ln q)` when the curve is flat, computed once per pass.
    logs: Option<(f64, f64)>,
}

impl DayProb {
    #[inline]
    fn of(p: f64) -> Self {
        Self { p, logs: None }
    }

    /// `p_i`.
    #[inline]
    #[must_use]
    pub fn p(self) -> f64 {
        self.p
    }

    /// `ln p_i`.
    #[inline]
    #[must_use]
    pub fn ln_p(self) -> f64 {
        match self.logs {
            Some((ln_p, _)) => ln_p,
            None => self.p.ln(),
        }
    }

    /// `ln q_i`, computed as `(1 − p_i).ln()`.
    #[inline]
    #[must_use]
    pub fn ln_q(self) -> f64 {
        match self.logs {
            Some((_, ln_q)) => ln_q,
            None => (1.0 - self.p).ln(),
        }
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

    #[test]
    fn passes_equal_prob_unchecked_day_by_day() {
        for horizon in [1usize, 146, 10_000] {
            let tables = DayTables::new(horizon);
            assert_eq!(tables.horizon(), horizon);
            let mut schedule = Vec::new();
            let mut exponents = Vec::new();
            for model in DetectionModel::ALL {
                for zeta in edge_zetas(model) {
                    model.validate(&zeta).unwrap();
                    let reference: Vec<f64> = (1..=horizon as u64)
                        .map(|day| model.prob_unchecked(&zeta, day))
                        .collect();
                    let check = |index: usize, day: DayProb| {
                        let p = reference[index];
                        let at = format!("{model} {zeta:?} day {}", index + 1);
                        assert_eq!(day.p().to_bits(), p.to_bits(), "p at {at}");
                        assert_eq!(day.ln_p().to_bits(), p.ln().to_bits(), "ln p at {at}");
                        let ln_q = (1.0 - p).ln();
                        assert_eq!(day.ln_q().to_bits(), ln_q.to_bits(), "ln q at {at}");
                    };
                    let mut seen = 0;
                    tables.pass(model, &zeta, None, |index, day| {
                        assert_eq!(index, seen);
                        seen += 1;
                        check(index, day);
                    });
                    assert_eq!(seen, horizon);
                    if model == DetectionModel::Weibull {
                        let omega = zeta[1];
                        tables.weibull_exponents(omega, &mut exponents);
                        for (index, e) in exponents.iter().enumerate() {
                            let i = (index + 1) as f64;
                            let direct = i.powf(omega) - (i - 1.0).powf(omega);
                            assert_eq!(e.to_bits(), direct.to_bits(), "exponent day {i}");
                        }
                        tables.pass(model, &zeta, Some(&exponents), check);
                    }
                    tables.fill_probs(model, &zeta, &mut schedule);
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&schedule), bits(&reference), "{model} {zeta:?}");
                    let probs = model.probs(&zeta, horizon).unwrap();
                    assert_eq!(bits(&probs), bits(&reference), "{model} {zeta:?}");
                }
            }
        }
    }

    #[test]
    fn display_uses_paper_labels() {
        assert_eq!(DetectionModel::Pareto.to_string(), "model3");
    }
}
