//! Adaptive random-walk Metropolis updates.
//!
//! An alternative to slice sampling for the non-conjugate
//! conditionals: a Gaussian random-walk proposal whose step size
//! adapts toward a target acceptance rate by Robbins–Monro
//! stochastic approximation (diminishing adaptation, so the chain's
//! stationary distribution is preserved asymptotically). Used by the
//! `gibbs` benchmark ablation and available to library users who want
//! a cheaper-per-iteration kernel than slice sampling.

use srm_obs::AcceptStat;
use srm_rand::{Distribution, Normal, Rng};

/// Target acceptance rate for univariate random-walk Metropolis
/// (Roberts–Gelman–Gilks optimum ≈ 0.44 in one dimension).
pub const TARGET_ACCEPTANCE: f64 = 0.44;

/// One adaptive random-walk Metropolis updater for a scalar parameter
/// restricted to `(lo, hi)` (proposals outside the box are rejected,
/// which is a valid Metropolis move against the truncated target).
///
/// # Examples
///
/// ```
/// use srm_mcmc::metropolis::AdaptiveRw;
/// use srm_rand::SplitMix64;
///
/// let mut rng = SplitMix64::seed_from(5);
/// let mut kernel = AdaptiveRw::new(0.0, -5.0, 5.0);
/// let mut x = 0.0;
/// for _ in 0..2_000 {
///     x = kernel.step(|v| -0.5 * v * v, x, &mut rng);
/// }
/// assert!((-5.0..=5.0).contains(&x));
/// let rate = kernel.acceptance("x").rate();
/// assert!(rate > 0.2 && rate < 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRw {
    lo: f64,
    hi: f64,
    ln_step: f64,
    steps: u64,
    accepted: u64,
    adapt: bool,
}

impl AdaptiveRw {
    /// Creates a kernel with an initial step size (standard deviation
    /// of the proposal). `initial_step <= 0` defaults to 10 % of the
    /// support width.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn new(initial_step: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "AdaptiveRw requires lo < hi");
        let step = if initial_step > 0.0 {
            initial_step
        } else {
            0.1 * (hi - lo)
        };
        Self {
            lo,
            hi,
            ln_step: step.ln(),
            steps: 0,
            accepted: 0,
            adapt: true,
        }
    }

    /// Fallible form of [`AdaptiveRw::new`]: an inverted support comes
    /// back as [`crate::fault::SrmError::InvalidConfig`] instead of a
    /// panic.
    ///
    /// # Errors
    ///
    /// Returns [`crate::fault::SrmError::InvalidConfig`] if
    /// `lo >= hi`.
    pub fn try_new(initial_step: f64, lo: f64, hi: f64) -> Result<Self, crate::fault::SrmError> {
        if lo < hi {
            Ok(Self::new(initial_step, lo, hi))
        } else {
            Err(crate::fault::SrmError::InvalidConfig {
                detail: format!("AdaptiveRw requires lo < hi (got {lo} >= {hi})"),
            })
        }
    }

    /// Freezes adaptation (call after burn-in for exact invariance).
    pub fn freeze(&mut self) {
        self.adapt = false;
    }

    /// The current proposal standard deviation.
    #[must_use]
    pub fn step_size(&self) -> f64 {
        self.ln_step.exp()
    }

    /// The kernel's counters as a named [`AcceptStat`] record.
    #[must_use]
    pub fn acceptance(&self, parameter: &str) -> AcceptStat {
        AcceptStat {
            parameter: parameter.to_string(),
            steps: self.steps,
            accepted: self.accepted,
        }
    }

    /// One Metropolis step against the log-density `ln_f`, starting
    /// from `x0` (must be inside the support with finite density).
    ///
    /// Returns the new state (possibly `x0` on rejection).
    pub fn step<F, R>(&mut self, ln_f: F, x0: f64, rng: &mut R) -> f64
    where
        F: Fn(f64) -> f64,
        R: Rng + ?Sized,
    {
        let _span = srm_obs::profile::span("proposal");
        let f0 = ln_f(x0);
        debug_assert!(f0.is_finite(), "starting point must be feasible");
        let proposal = x0 + self.step_size() * Normal::standard().sample(rng);
        self.steps += 1;

        let accepted = if proposal > self.lo && proposal < self.hi {
            let f1 = ln_f(proposal);
            f1 >= f0 || rng.next_open_f64().ln() < f1 - f0
        } else {
            false
        };
        if accepted {
            self.accepted += 1;
        }

        if self.adapt {
            // Robbins–Monro on the log step size with gain ~ t^{-0.6}.
            let gain = (self.steps as f64).powf(-0.6);
            let delta = if accepted {
                1.0 - TARGET_ACCEPTANCE
            } else {
                -TARGET_ACCEPTANCE
            };
            self.ln_step += gain * delta;
            // Keep the proposal scale sane relative to the support.
            let max_ln = ((self.hi - self.lo) * 10.0).ln();
            let min_ln = ((self.hi - self.lo) * 1e-9).ln();
            self.ln_step = self.ln_step.clamp(min_ln, max_ln);
        }

        if accepted {
            proposal
        } else {
            x0
        }
    }

    /// Fallible form of [`AdaptiveRw::step`]: a non-finite density at
    /// the current state is reported instead of silently stepping (or
    /// tripping the debug assertion). Consumes the RNG identically to
    /// [`AdaptiveRw::step`] on the success path.
    ///
    /// # Errors
    ///
    /// Returns the non-finite `ln_f(x0)` value if the starting point
    /// is infeasible.
    pub fn try_step<F, R>(&mut self, ln_f: F, x0: f64, rng: &mut R) -> Result<f64, f64>
    where
        F: Fn(f64) -> f64,
        R: Rng + ?Sized,
    {
        let f0 = ln_f(x0);
        if !f0.is_finite() {
            return Err(f0);
        }
        Ok(self.step(ln_f, x0, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_rand::SplitMix64;

    fn run_chain<F: Fn(f64) -> f64>(
        ln_f: F,
        lo: f64,
        hi: f64,
        x0: f64,
        n: usize,
        seed: u64,
    ) -> (Vec<f64>, AdaptiveRw) {
        let mut rng = SplitMix64::seed_from(seed);
        let mut kernel = AdaptiveRw::new(0.0, lo, hi);
        let mut x = x0;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i == n / 4 {
                kernel.freeze();
            }
            x = kernel.step(&ln_f, x, &mut rng);
            out.push(x);
        }
        (out, kernel)
    }

    #[test]
    fn recovers_normal_moments() {
        let (draws, kernel) = run_chain(|x| -0.5 * x * x, -20.0, 20.0, 3.0, 80_000, 301);
        let tail = &draws[20_000..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let var: f64 = tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
        let rate = kernel.acceptance("x").rate();
        assert!((0.3..0.6).contains(&rate), "acceptance = {rate}");
    }

    #[test]
    fn adaptation_targets_acceptance_rate() {
        // Start with an absurd step; adaptation must pull the rate
        // toward 0.44.
        let mut rng = SplitMix64::seed_from(302);
        let mut kernel = AdaptiveRw::new(1e6, -50.0, 50.0);
        let mut x = 0.0;
        for _ in 0..20_000 {
            x = kernel.step(|v| -0.5 * v * v, x, &mut rng);
        }
        let rate = kernel.acceptance("x").rate();
        assert!((0.25..0.65).contains(&rate), "acceptance = {rate}");
        assert!(kernel.step_size() < 100.0, "step = {}", kernel.step_size());
    }

    #[test]
    fn respects_support() {
        let (draws, _) = run_chain(|_| 0.0, 2.0, 3.0, 2.5, 20_000, 303);
        assert!(draws.iter().all(|&x| (2.0..=3.0).contains(&x)));
        // Uniform target: mean near the midpoint.
        let mean: f64 = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 2.5).abs() < 0.03, "mean = {mean}");
    }

    #[test]
    fn rejection_keeps_current_state() {
        // Density is a point mass region: proposals away are rejected.
        let mut rng = SplitMix64::seed_from(304);
        let mut kernel = AdaptiveRw::new(100.0, -1e4, 1e4);
        kernel.freeze();
        let sharp = |x: f64| -1e8 * (x - 1.0).powi(2);
        let mut x = 1.0;
        for _ in 0..100 {
            x = kernel.step(sharp, x, &mut rng);
            assert!((x - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "requires lo < hi")]
    fn inverted_support_panics() {
        let _ = AdaptiveRw::new(1.0, 5.0, 5.0);
    }

    #[test]
    fn try_new_types_inverted_support() {
        assert!(AdaptiveRw::try_new(1.0, 5.0, 5.0).is_err());
        assert!(AdaptiveRw::try_new(1.0, 0.0, 5.0).is_ok());
    }

    #[test]
    fn try_step_matches_step_and_types_infeasible_start() {
        let ln_f = |x: f64| -0.5 * x * x;
        let mut rng_a = SplitMix64::seed_from(305);
        let mut rng_b = SplitMix64::seed_from(305);
        let mut ka = AdaptiveRw::new(0.5, -5.0, 5.0);
        let mut kb = AdaptiveRw::new(0.5, -5.0, 5.0);
        let mut xa = 0.2;
        let mut xb = 0.2;
        for _ in 0..500 {
            xa = ka.step(ln_f, xa, &mut rng_a);
            xb = kb.try_step(ln_f, xb, &mut rng_b).unwrap();
            assert_eq!(xa.to_bits(), xb.to_bits());
        }
        let mut rng = SplitMix64::seed_from(306);
        let mut kernel = AdaptiveRw::new(0.5, -5.0, 5.0);
        let err = kernel.try_step(|_| f64::NAN, 0.0, &mut rng).unwrap_err();
        assert!(err.is_nan());
    }
}
