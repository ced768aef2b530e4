//! The Gibbs samplers of Eqs. (14)–(22).
//!
//! The default (collapsed) sweep integrates `N` out of every update
//! but the last, and under the Poisson prior integrates `λ0` out of
//! the `ζ` update too. With `w_i = p_i Π_{j<i} q_j` and
//! `W = Σ w_i = 1 − Π q_i`, it updates, in order:
//!
//! 1. Poisson prior: the detection parameters `ζ` by coordinate-wise
//!    slice sampling of the λ0-marginal target
//!    `Σ x_i ln w_i − a ln W + ln P(a, λ_max W)` (`a = s_k + 1`, or
//!    `s_k + ½` under Jeffreys; `P` the regularised lower incomplete
//!    gamma), then `λ0 | ζ ~ Gamma(a, rate W)` truncated to
//!    `(0, λ_max)`. A pinned `λ0` keeps the conditional target
//!    `Σ x_i ln w_i − λ0 W`.
//!
//!    NB prior: `β0` and `α0` by slice sampling of the
//!    negative-multinomial kernel, then `ζ` on
//!    `Σ x_i ln w_i − (α0 + s_k) ln(1 − (1−β0) Π q_i)`;
//! 2. `N` — exact: the residual `R = N − s_k` is `Poisson(λ0 Π q_i)`
//!    (Prop. 1) or `NB(α0 + s_k, 1 − (1−β0) Π q_i)` (corrected
//!    Prop. 2).
//!
//! Drawing `ζ` from a marginal and then `λ0` and `N` from their full
//! conditionals is a partially collapsed Gibbs sampler (van Dyk &
//! Park 2008): each step leaves the exact posterior of the paper's
//! hierarchical model invariant. The naive sweep ([`SweepKind::Naive`])
//! conditions every update on the current `N` instead: `λ0 | N`,
//! `β0 | N, α0`, `α0 | N, β0`, then `ζ` on
//! `Σ x_i ln p_i + Σ (N − s_i) ln q_i`, then `N`.

use crate::chain::Chain;
use crate::fault::{ChainFailure, FaultKind, RecoveryLog, SrmError};
use crate::runner::{McmcConfig, RunOptions};
use crate::slice::{try_slice_sample, SliceError};
use srm_data::BugCountData;
use srm_math::incgamma::ln_inc_gamma_p;
use srm_math::special::ln_gamma;
use srm_model::detection::OPEN_EPS;
use srm_obs::{profile, Event, Recorder, NOOP};
use std::cell::RefCell;
use std::time::Instant;

/// Tiny positive shift keeping exact conditionals strictly inside
/// their open supports after floating-point round-off.
const OPEN_SHIFT: f64 = 1e-12;

/// The first residual draw the chain cannot keep: past 2^53 its `f64`
/// columns are no longer exact (and a saturated `u64` draw would wrap
/// `s_k + R`).
const MAX_RESIDUAL: u64 = 1 << 53;

use srm_model::{DayTables, DetectionModel, GroupedLikelihood, HeldFactors, ZetaBounds};
use srm_rand::{Beta, Distribution, NegativeBinomial, Poisson, Rng, TruncatedGamma};

/// Which prior (and hyper-prior upper limit) the sampler runs with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorSpec {
    /// `N ~ Poisson(λ0)`, `λ0 ~ Uniform(0, λ_max)` (Eqs. (14)–(17)).
    Poisson {
        /// Upper limit of the uniform hyper-prior on `λ0`.
        lambda_max: f64,
    },
    /// `N ~ NB(α0, β0)`, `α0 ~ Uniform(0, α_max)`,
    /// `β0 ~ Uniform(0, 1)` (Eqs. (18)–(22)).
    NegBinomial {
        /// Upper limit of the uniform hyper-prior on `α0`.
        alpha_max: f64,
    },
}

impl PriorSpec {
    /// Short label used in table headers.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Poisson { .. } => "poisson",
            Self::NegBinomial { .. } => "negbinom",
        }
    }
}

/// Which non-informative hyper-prior to place on the prior's
/// hyper-parameters.
///
/// The paper uses uniform hyper-priors throughout and names the
/// Jeffreys prior as future work (§6); both are implemented here.
/// For the Poisson-prior rate, Jeffreys is `p(λ0) ∝ λ0^{−1/2}`
/// (truncated to the same `(0, λ_max)` support so the two variants
/// stay comparable). For the NB prior we use the Jeffreys prior of a
/// proportion, `β0 ~ Beta(1/2, 1/2)` (arcsine), keeping `α0` uniform —
/// the joint Jeffreys prior of the NB size has no closed form and is
/// dominated by the `β0` factor in this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HyperPrior {
    /// Flat hyper-priors on their supports (the paper's Eqs. (15),
    /// (19)–(20)).
    #[default]
    Uniform,
    /// Jeffreys-style non-informative hyper-priors (paper §6).
    Jeffreys,
}

impl HyperPrior {
    /// Short label for tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::Jeffreys => "jeffreys",
        }
    }
}

/// Which Gibbs sweep to run.
///
/// The collapsed sweep integrates `N` out of every hyper-parameter
/// and `ζ` update analytically (the thinned model's marginal is a
/// product of independent Poissons given `λ0`, and a closed-form
/// negative-multinomial given `(α0, β0)`), which removes the strong
/// `λ0 ↔ N` posterior coupling and mixes dramatically better; under
/// the Poisson prior it integrates `λ0` out of the `ζ` update too,
/// which removes the `λ0 ↔ ζ` ridge. The
/// naive sweep conditions every update on the current `N` — the
/// textbook scheme of Eqs. (14)–(22) — and is kept as an ablation
/// target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepKind {
    /// Marginalise `N` in the hyper-parameter and `ζ` updates
    /// (default).
    #[default]
    Collapsed,
    /// Condition every update on the current `N`.
    Naive,
}

/// Parameters pinned to fixed values for the whole run.
///
/// A pinned parameter is initialised to its fixed value and its Gibbs
/// update is skipped, so the chain samples the conditional posterior
/// *given* those values. This is the lever the conjugate golden tests
/// use: with `ζ` and the prior hyper-parameters pinned, the `N`-step
/// draws i.i.d. from the closed-form posteriors of Props. 1–2.
///
/// Pinning changes how much randomness each sweep consumes, so a
/// pinned run is *not* bit-comparable to an unpinned one (it is still
/// deterministic given the seed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FixedParams {
    /// Pin the detection parameters `ζ` (length must match the model).
    pub zeta: Option<Vec<f64>>,
    /// Pin `λ0` (used under the Poisson prior).
    pub lambda0: Option<f64>,
    /// Pin `α0` (used under the NB prior).
    pub alpha0: Option<f64>,
    /// Pin `β0` (used under the NB prior).
    pub beta0: Option<f64>,
}

impl FixedParams {
    /// Whether nothing is pinned (the default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.zeta.is_none()
            && self.lambda0.is_none()
            && self.alpha0.is_none()
            && self.beta0.is_none()
    }
}

/// One-entry memo of [`GibbsSampler::collapsed_stats`] keyed on the
/// exact bit pattern of `ζ`, plus the day factors that the held
/// coordinate of `ζ` fixes.
///
/// Within a sweep the same `ζ` vector is evaluated repeatedly — the
/// hyper-parameter step, the first evaluation of each coordinate's
/// slice target, and the final `N`-step all visit the current point —
/// so a single-entry cache removes the duplicate passes over the
/// schedule without any invalidation protocol: a stored entry is a
/// pure function of its key, so stale entries are merely unused, never
/// wrong (retry/restore included). The same holds for the day factors
/// in [`HeldFactors`] (model1's `ln(θ i + 1)`, model2's `i^{ln μ}`,
/// model4's exponents): every probe of one coordinate shares the other
/// coordinate's factors, so it reads them instead of recomputing them.
#[derive(Debug, Clone, Default)]
struct SuffStatsCache {
    zeta_bits: Vec<u64>,
    sum_x_ln_w: f64,
    ln_q: f64,
    valid: bool,
    held: HeldFactors,
}

impl SuffStatsCache {
    fn lookup(&self, zeta: &[f64]) -> Option<(f64, f64)> {
        (self.valid
            && self.zeta_bits.len() == zeta.len()
            && zeta
                .iter()
                .zip(&self.zeta_bits)
                .all(|(z, &bits)| z.to_bits() == bits))
        .then_some((self.sum_x_ln_w, self.ln_q))
    }

    fn store(&mut self, zeta: &[f64], (sum_x_ln_w, ln_q): (f64, f64)) {
        self.zeta_bits.clear();
        self.zeta_bits.extend(zeta.iter().map(|z| z.to_bits()));
        self.sum_x_ln_w = sum_x_ln_w;
        self.ln_q = ln_q;
        self.valid = true;
    }
}

/// The λ0-marginal `ζ` target of the Poisson prior.
///
/// Integrating `λ0` over its hyper-prior on `(0, λ_max)` out of
/// `Π_i Poisson(x_i; λ0 w_i)` leaves, up to a constant,
/// `Σ x_i ln w_i − a ln W + ln P(a, λ_max W)`. Built once per sampler:
/// past `x_star` the `ln P` term is skipped, because there
/// `a ln x − x − ln Γ(a) ≤ −50`, so `0 ≤ −ln P(a, x) < 2e-22`, which
/// the rest of the target absorbs without changing a bit (see
/// DESIGN.md §4).
#[derive(Debug, Clone, Copy)]
struct LambdaMarginal {
    /// Gamma shape `a` of `λ0 | ζ`: `s_k + 1`, or `s_k + ½` under
    /// Jeffreys.
    shape: f64,
    lambda_max: f64,
    /// The `x > a` past which `a ln x − x − ln Γ(a) ≤ −50`.
    x_star: f64,
}

impl LambdaMarginal {
    fn new(shape: f64, lambda_max: f64) -> Self {
        // a ln x − x − ln Γ(a) decreases for x > a: bracket the point
        // where it crosses −50, then bisect, keeping the upper end.
        let ln_gamma_a = ln_gamma(shape);
        let past = |x: f64| shape * x.ln() - x - ln_gamma_a <= -50.0;
        let (mut lo, mut step) = (shape, 1.0 + shape.sqrt());
        let mut x_star = f64::INFINITY;
        for _ in 0..64 {
            if past(shape + step) {
                x_star = shape + step;
                break;
            }
            lo = shape + step;
            step *= 2.0;
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + x_star);
            if past(mid) {
                x_star = mid;
            } else {
                lo = mid;
            }
        }
        Self {
            shape,
            lambda_max,
            x_star,
        }
    }

    /// The target at collapsed statistics `(Σ x_i ln w_i, ln Π q_i)`.
    fn ln_target(&self, sum_x_ln_w: f64, ln_q: f64) -> f64 {
        let w = (1.0 - ln_q.exp()).max(f64::MIN_POSITIVE);
        let x = self.lambda_max * w;
        let ln_f = sum_x_ln_w - self.shape * w.ln();
        if x >= self.x_star {
            ln_f
        } else {
            ln_f + ln_inc_gamma_p(self.shape, x)
        }
    }
}

/// The Gibbs sampler for one (prior, detection-model, dataset)
/// combination.
///
/// See the crate-level example for typical use through
/// [`crate::runner::run_chains`].
#[derive(Debug, Clone)]
pub struct GibbsSampler {
    prior: PriorSpec,
    model: DetectionModel,
    bounds: ZetaBounds,
    lik: GroupedLikelihood,
    /// The detection curves' day factors, built once for the horizon.
    tables: DayTables,
    cumulative: Vec<u64>,
    /// Daily counts as exact `f64`s (values < 2^53), precomputed so
    /// the sweep's hot loops skip the integer conversions.
    counts_f: Vec<f64>,
    total: u64,
    sweep_kind: SweepKind,
    hyper_prior: HyperPrior,
    cache_stats: bool,
    fixed: FixedParams,
    /// Set under the Poisson prior, for the hyper-prior in force.
    lambda_marginal: Option<LambdaMarginal>,
}

impl GibbsSampler {
    /// Creates a sampler for the given configuration and data window.
    #[must_use]
    pub fn new(
        prior: PriorSpec,
        model: DetectionModel,
        bounds: ZetaBounds,
        data: &BugCountData,
    ) -> Self {
        Self {
            prior,
            model,
            bounds,
            lik: GroupedLikelihood::new(data),
            tables: DayTables::new(data.len()),
            cumulative: data.cumulative().to_vec(),
            counts_f: data.counts().iter().map(|&c| c as f64).collect(),
            total: data.total(),
            sweep_kind: SweepKind::default(),
            hyper_prior: HyperPrior::default(),
            cache_stats: true,
            fixed: FixedParams::default(),
            lambda_marginal: None,
        }
        .with_hyper_prior(HyperPrior::default())
    }

    /// Selects the sweep variant (collapsed by default).
    #[must_use]
    pub fn with_sweep_kind(mut self, kind: SweepKind) -> Self {
        self.sweep_kind = kind;
        self
    }

    /// Selects the non-informative hyper-prior (uniform by default).
    #[must_use]
    pub fn with_hyper_prior(mut self, hyper: HyperPrior) -> Self {
        self.hyper_prior = hyper;
        self.lambda_marginal = match self.prior {
            PriorSpec::Poisson { lambda_max } => Some(LambdaMarginal::new(
                (self.total as f64 + 1.0 + self.lambda_shape_shift()).max(0.5),
                lambda_max,
            )),
            PriorSpec::NegBinomial { .. } => None,
        };
        self
    }

    /// The configured hyper-prior.
    #[must_use]
    pub fn hyper_prior(&self) -> HyperPrior {
        self.hyper_prior
    }

    /// Enables or disables the per-sweep sufficient-statistics cache
    /// (enabled by default). `false` selects the uncached reference
    /// sweep that recomputes every statistic from scratch; the two
    /// paths are bit-identical (asserted in tests), so the switch
    /// exists purely as a correctness oracle and ablation target.
    #[must_use]
    pub fn with_cached_stats(mut self, on: bool) -> Self {
        self.cache_stats = on;
        self
    }

    /// Pins parameters to fixed values; their Gibbs updates are
    /// skipped (see [`FixedParams`]).
    #[must_use]
    pub fn with_fixed(mut self, fixed: FixedParams) -> Self {
        self.fixed = fixed;
        self
    }

    /// Per-coordinate `(lo, hi)` bounds of `ζ` under this model and
    /// bounds box.
    #[must_use]
    pub fn zeta_bounds(&self) -> Vec<(f64, f64)> {
        self.model.bounds(&self.bounds)
    }

    /// The extra Gamma-shape mass contributed by the λ0 hyper-prior:
    /// uniform adds 0, Jeffreys (`∝ λ^{−1/2}`) subtracts one half.
    fn lambda_shape_shift(&self) -> f64 {
        match self.hyper_prior {
            HyperPrior::Uniform => 0.0,
            HyperPrior::Jeffreys => -0.5,
        }
    }

    /// Log hyper-prior density of `β0` up to a constant.
    fn ln_beta0_hyper_prior(&self, beta0: f64) -> f64 {
        match self.hyper_prior {
            HyperPrior::Uniform => 0.0,
            // Arcsine / Beta(1/2, 1/2).
            HyperPrior::Jeffreys => -0.5 * beta0.ln() - 0.5 * (1.0 - beta0).ln(),
        }
    }

    /// The prior specification.
    #[must_use]
    pub fn prior(&self) -> PriorSpec {
        self.prior
    }

    /// The detection model.
    #[must_use]
    pub fn model(&self) -> DetectionModel {
        self.model
    }

    /// The likelihood evaluator (shared with WAIC computation).
    #[must_use]
    pub fn likelihood(&self) -> &GroupedLikelihood {
        &self.lik
    }

    /// Total observed bugs `s_k`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Chain column names: `residual`, `n`, the hyper-parameters of
    /// the chosen prior, then the `ζ` components.
    #[must_use]
    pub fn param_names(&self) -> Vec<&'static str> {
        let mut names = vec!["residual", "n"];
        match self.prior {
            PriorSpec::Poisson { .. } => names.push("lambda0"),
            PriorSpec::NegBinomial { .. } => {
                names.push("alpha0");
                names.push("beta0");
            }
        }
        names.extend_from_slice(self.model.param_names());
        names
    }

    /// The detection-data part of the log posterior as a function of
    /// `ζ` for fixed `N` (the slice-sampling target).
    fn zeta_log_target(&self, zeta: &[f64], n: u64) -> f64 {
        let mut ll = 0.0;
        self.tables.pass(self.model, zeta, None, |i, day| {
            let mut term = (n - self.cumulative[i]) as f64 * day.ln_q();
            if self.counts_f[i] > 0.0 {
                term += self.counts_f[i] * day.ln_p();
            }
            ll += term;
        });
        ll
    }

    fn ln_survival(&self, zeta: &[f64]) -> f64 {
        let mut ln_q = 0.0;
        self.tables
            .pass(self.model, zeta, None, |_, day| ln_q += day.ln_q());
        ln_q
    }

    /// One pass over the schedule yielding `(Σ x_i ln w_i, ln Π q_i)`
    /// with `w_i = p_i Π_{j<i} q_j` — the sufficient statistics of
    /// the collapsed (N-marginalised) likelihood. `held`, if given, is
    /// the chain's memo of the held coordinate's day factors; `ln p_i`
    /// is only computed on days with detections.
    fn collapsed_stats(&self, zeta: &[f64], held: Option<&mut HeldFactors>) -> (f64, f64) {
        let mut cum_ln_q = 0.0;
        let mut sum_x_ln_w = 0.0;
        self.tables.pass(self.model, zeta, held, |i, day| {
            let count_f = self.counts_f[i];
            if count_f > 0.0 {
                sum_x_ln_w += count_f * (day.ln_p() + cum_ln_q);
            }
            cum_ln_q += day.ln_q();
        });
        (sum_x_ln_w, cum_ln_q)
    }

    /// [`GibbsSampler::collapsed_stats`] through the one-entry memo.
    ///
    /// Bit-identical to the direct call: a hit returns values the
    /// direct call produced earlier for the *same* `ζ` bit pattern,
    /// `collapsed_stats` is deterministic, and the memoised day factors
    /// are the ones its pass would compute. The second
    /// component equals [`GibbsSampler::ln_survival`] bit-for-bit
    /// (same sequential accumulation over the same days; asserted in
    /// tests), which is what lets the `N`-step share the memo.
    fn stats_cached(&self, zeta: &[f64], cache: &RefCell<SuffStatsCache>) -> (f64, f64) {
        let _span = profile::span("suffstats");
        if !self.cache_stats {
            return self.collapsed_stats(zeta, None);
        }
        if let Some(hit) = cache.borrow().lookup(zeta) {
            return hit;
        }
        let mut cache = cache.borrow_mut();
        let stats = self.collapsed_stats(zeta, Some(&mut cache.held));
        cache.store(zeta, stats);
        stats
    }

    /// Collapsed log marginal of the data as a function of the NB
    /// hyper-parameters (ζ fixed): the negative-multinomial kernel
    /// `ln Γ(α0+s_k) − ln Γ(α0) + α0 ln β0 + s_k ln(1−β0)
    ///  − (α0+s_k) ln(1 − (1−β0) Q)`.
    fn nb_collapsed_kernel(&self, alpha0: f64, beta0: f64, survival: f64) -> f64 {
        let s_k = self.total as f64;
        let beta_k = (1.0 - (1.0 - beta0) * survival).max(OPEN_SHIFT);
        ln_gamma(alpha0 + s_k) - ln_gamma(alpha0) + alpha0 * beta0.ln() + s_k * (1.0 - beta0).ln()
            - (alpha0 + s_k) * beta_k.ln()
    }

    /// Builds the deterministic pre-sweep state: ζ at the bound
    /// midpoints (or its pinned value), hyper-parameters at their
    /// data-informed initials (or their pinned values), `N` at `s_k`.
    fn build_initial_state(&self) -> Result<(Vec<(f64, f64)>, SweepState), SrmError> {
        let zeta_bounds = self.model.bounds(&self.bounds);
        let (lambda0, alpha0, beta0) = match self.prior {
            PriorSpec::Poisson { lambda_max } => {
                let init = (2.0 * self.total as f64 + 10.0).min(0.9 * lambda_max);
                (init.max(OPEN_SHIFT), f64::NAN, f64::NAN)
            }
            PriorSpec::NegBinomial { alpha_max } => (f64::NAN, 0.5 * alpha_max, 0.5),
        };
        let zeta = match &self.fixed.zeta {
            Some(z) => {
                if z.len() != zeta_bounds.len() {
                    return Err(SrmError::InvalidConfig {
                        detail: format!(
                            "fixed zeta has {} components, model needs {}",
                            z.len(),
                            zeta_bounds.len()
                        ),
                    });
                }
                if z.iter().any(|v| !v.is_finite()) {
                    return Err(SrmError::InvalidConfig {
                        detail: "fixed zeta must be finite".into(),
                    });
                }
                z.clone()
            }
            None => zeta_bounds
                .iter()
                .map(|&(lo, hi)| 0.5 * (lo + hi))
                .collect(),
        };
        let state = SweepState {
            zeta,
            lambda0: self.fixed.lambda0.unwrap_or(lambda0),
            alpha0: self.fixed.alpha0.unwrap_or(alpha0),
            beta0: self.fixed.beta0.unwrap_or(beta0),
            // The N the naive sweep conditions on (initialised at s_k).
            last_n: self.total,
        };
        Ok((zeta_bounds, state))
    }

    /// A fresh [`GibbsState`] for single-sweep driving (Geweke-style
    /// joint-distribution tests and custom schedulers). The state is
    /// only meaningful with the sampler that created it — the embedded
    /// statistics memo is keyed on ζ alone, so reusing a state across
    /// samplers with different data would read stale statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SrmError::InvalidConfig`] when pinned parameters are
    /// inconsistent with the model (see [`FixedParams`]).
    pub fn init_state(&self) -> Result<GibbsState, SrmError> {
        let (zeta_bounds, state) = self.build_initial_state()?;
        Ok(GibbsState {
            state,
            zeta_bounds,
            cache: RefCell::new(SuffStatsCache::default()),
        })
    }

    /// Advances `state` by exactly one Gibbs sweep, returning the new
    /// residual draw. The collapsed sweep runs, under the Poisson prior,
    /// ζ on the λ0-marginal target, then `λ0 | ζ`, then the exact
    /// `N`-step (the `λ0` held in `state` is overwritten, never read,
    /// unless it is pinned); under the NB prior `β0`, `α0`, ζ, then
    /// `N`. See the module docs. Equivalent to one iteration of the
    /// chain loop with no burn-in bookkeeping, no fault injection and
    /// no instrumentation.
    ///
    /// # Errors
    ///
    /// Returns the fault when a conditional degenerates or a slice
    /// bracket is exhausted, exactly as the chain loop would.
    pub fn sweep_state<R: Rng + ?Sized>(
        &self,
        state: &mut GibbsState,
        rng: &mut R,
    ) -> Result<u64, SrmError> {
        self.try_sweep(
            &mut state.state,
            &state.zeta_bounds,
            rng,
            0,
            None,
            &state.cache,
        )
    }

    /// Runs one chain on `rng` with no retry, no fault injection and
    /// no instrumentation, returning the kept draws. The runner's
    /// chain `i` is exactly this call on the `i`-th jump stream of the
    /// run's seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`, `thin == 0`, or a sweep faults.
    pub fn run_chain<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        burn_in: usize,
        samples: usize,
        thin: usize,
    ) -> Chain {
        let config = McmcConfig {
            chains: 1,
            burn_in,
            samples,
            thin,
            seed: 0,
        };
        match self.chain_loop(rng, &config, &RunOptions::none(), 0, &NOOP) {
            Ok((chain, _)) => chain,
            Err(failure) => panic!("{}", failure.fault),
        }
    }

    /// The one sweep loop: runs chain `chain_id` on `rng` for
    /// `config`'s burn-in, kept samples and thinning (its `chains`
    /// and `seed` are the caller's business), returning the kept
    /// draws plus a [`RecoveryLog`].
    ///
    /// A faulted sweep is retried up to `options.retry.max_retries`
    /// times (per chain): the sampler state is restored to its value
    /// at the start of the failed sweep, but the RNG is **not**
    /// rewound, so the retry consumes fresh draws from the chain's
    /// deterministic stream. With no faults every retry budget
    /// consumes the RNG identically, so fault-free output is
    /// bit-identical. Faults scheduled for `chain_id` in
    /// `options.fault_plan` fire at the start of their sweep
    /// (consume-once, so a retried sweep runs clean);
    /// [`FaultKind::Panic`] deliberately panics the calling thread to
    /// exercise the runner's containment.
    ///
    /// Typed events (tagged with `chain_id`) go to `recorder` for
    /// chain start, fault injections, faults and retries. The recorder
    /// never touches `rng`, so draws are bit-identical for any
    /// recorder; with a disabled one no event is even constructed. With
    /// `options.checkpoint_every > 0` and an enabled recorder, streaming
    /// convergence accumulators over the kept rows emit a
    /// [`Event::DiagnosticCheckpoint`] every that many sweeps (plus a
    /// final one at chain completion); they too never touch `rng`.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainFailure`] when the configuration is invalid or
    /// a sweep still faults after the retry budget is spent.
    pub(crate) fn chain_loop<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        config: &McmcConfig,
        options: &RunOptions,
        chain_id: usize,
        recorder: &dyn Recorder,
    ) -> Result<(Chain, RecoveryLog), ChainFailure> {
        let McmcConfig {
            burn_in,
            samples,
            thin,
            ..
        } = *config;
        let (retry, checkpoint_every) = (options.retry, options.checkpoint_every);
        let mut injector = options.fault_plan.injector_for(chain_id);
        let invalid = |detail: String| ChainFailure {
            fault: SrmError::InvalidConfig { detail },
            retries: 0,
        };
        if samples == 0 {
            return Err(invalid("samples must be positive".into()));
        }
        if thin == 0 {
            return Err(invalid("thin must be positive".into()));
        }

        // --- Initial state -------------------------------------------------
        let (zeta_bounds, mut state) = self
            .build_initial_state()
            .map_err(|fault| ChainFailure { fault, retries: 0 })?;
        let cache = RefCell::new(SuffStatsCache::default());

        let names = self.param_names();
        let mut chain = Chain::new(&names);
        chain.reserve(samples);
        let mut streaming = (checkpoint_every > 0 && recorder.enabled())
            .then(|| crate::streaming::ChainAccumulator::new(&names, samples));
        let mut last_checkpoint: Option<usize> = None;

        let total_sweeps = burn_in + samples * thin;
        let mut kept = 0usize;
        let mut log = RecoveryLog::default();

        // Instrumentation: `on` is hoisted so the disabled path builds
        // no event, and nothing below ever touches `rng`.
        let on = recorder.enabled();
        if on {
            recorder.record(&Event::ChainStart {
                chain: chain_id,
                sweeps: total_sweeps,
            });
        }

        // Wall clock for checkpoint `ess_per_sec` telemetry; read at
        // checkpoint emission only, never by the sampler itself.
        let chain_clock = Instant::now();
        let mut sweep = 0usize;
        while sweep < total_sweeps {
            // Consume-once injection: a retried sweep runs clean.
            let forced = injector.take(sweep);
            if let Some(kind) = forced {
                if on {
                    recorder.record(&Event::FaultInjected {
                        chain: chain_id,
                        sweep,
                        kind: kind.label().to_string(),
                    });
                }
            }
            if matches!(forced, Some(FaultKind::Panic)) {
                panic!("injected fault: chain panic at sweep {sweep}");
            }
            // Snapshot only when retry could use it; the fault-free
            // wrapper path pays nothing.
            let snapshot = (retry.max_retries > 0).then(|| state.clone());
            let will_record =
                sweep >= burn_in && (sweep - burn_in).is_multiple_of(thin) && kept < samples;

            let outcome = {
                let _sweep_span = profile::span("sweep");
                self.try_sweep(&mut state, &zeta_bounds, rng, sweep, forced, &cache)
            };

            match outcome {
                Ok(residual) => {
                    if will_record {
                        let n = self.total + residual;
                        let mut row: Vec<f64> = vec![residual as f64, n as f64];
                        match self.prior {
                            PriorSpec::Poisson { .. } => row.push(state.lambda0),
                            PriorSpec::NegBinomial { .. } => {
                                row.push(state.alpha0);
                                row.push(state.beta0);
                            }
                        }
                        row.extend_from_slice(&state.zeta);
                        chain.push(&row);
                        kept += 1;
                        if let Some(acc) = streaming.as_mut() {
                            acc.push_row(&row);
                        }
                    }
                    if let Some(acc) = streaming.as_ref() {
                        if kept > 0 && (sweep + 1).is_multiple_of(checkpoint_every) {
                            recorder.record(&Event::DiagnosticCheckpoint {
                                checkpoint: acc.checkpoint(
                                    chain_id,
                                    sweep,
                                    kept,
                                    chain_clock.elapsed().as_secs_f64() * 1e3,
                                ),
                            });
                            last_checkpoint = Some(sweep);
                        }
                    }
                    sweep += 1;
                }
                Err(fault) => {
                    if on {
                        recorder.record(&Event::SweepFault {
                            chain: chain_id,
                            sweep,
                            kind: fault.kind().to_string(),
                            detail: fault.to_string(),
                        });
                    }
                    if log.retries < retry.max_retries {
                        log.retries += 1;
                        log.last_fault = Some(fault);
                        if let Some(snap) = snapshot {
                            state = snap;
                        }
                        if on {
                            recorder.record(&Event::Retry {
                                chain: chain_id,
                                sweep,
                                retries: log.retries as u64,
                            });
                        }
                        // Re-run the same sweep on fresh draws.
                    } else {
                        return Err(ChainFailure {
                            fault,
                            retries: log.retries,
                        });
                    }
                }
            }
        }
        // A final checkpoint at chain completion (unless the cadence
        // already landed one on the last sweep), so consumers always
        // see the full-chain summary.
        if let Some(acc) = streaming.as_ref() {
            if last_checkpoint != Some(total_sweeps - 1) && kept > 0 {
                recorder.record(&Event::DiagnosticCheckpoint {
                    checkpoint: acc.checkpoint(
                        chain_id,
                        total_sweeps - 1,
                        kept,
                        chain_clock.elapsed().as_secs_f64() * 1e3,
                    ),
                });
            }
        }
        Ok((chain, log))
    }

    /// One full Gibbs sweep over `state` in the order the module docs
    /// give, returning the new residual draw.
    fn try_sweep<R: Rng + ?Sized>(
        &self,
        state: &mut SweepState,
        zeta_bounds: &[(f64, f64)],
        rng: &mut R,
        sweep: usize,
        forced: Option<FaultKind>,
        cache: &RefCell<SuffStatsCache>,
    ) -> Result<u64, SrmError> {
        // A forced exhaustion fires before any RNG use, so a retried
        // sweep replays exactly what the unfaulted sweep would have.
        if matches!(forced, Some(FaultKind::SliceExhausted)) {
            return Err(SrmError::SliceExhausted {
                parameter: "injected",
                sweep,
            });
        }
        match self.sweep_kind {
            SweepKind::Collapsed => {
                // --- 1. NB hyper-parameters | ζ (N marginalised) ------
                if let PriorSpec::NegBinomial { alpha_max } = self.prior {
                    let survival = self.stats_cached(&state.zeta, cache).1.exp();
                    // β0 | α0, ζ, x via the collapsed kernel.
                    if self.fixed.beta0.is_none() {
                        let a0 = state.alpha0;
                        let ln_f_beta = |b: f64| {
                            self.nb_collapsed_kernel(a0, b, survival) + self.ln_beta0_hyper_prior(b)
                        };
                        state.beta0 = try_slice_sample(
                            ln_f_beta,
                            state.beta0.clamp(OPEN_EPS, 1.0 - OPEN_EPS),
                            OPEN_EPS,
                            1.0 - OPEN_EPS,
                            rng,
                        )
                        .map_err(|e| slice_fault(e, "beta0", sweep))?;
                    }
                    // α0 | β0, ζ, x via the same kernel.
                    if self.fixed.alpha0.is_none() {
                        let b0 = state.beta0;
                        let ln_f_alpha = |a: f64| self.nb_collapsed_kernel(a, b0, survival);
                        state.alpha0 = try_slice_sample(
                            ln_f_alpha,
                            state.alpha0.clamp(OPEN_EPS, alpha_max - OPEN_EPS),
                            OPEN_EPS,
                            alpha_max,
                            rng,
                        )
                        .map_err(|e| slice_fault(e, "alpha0", sweep))?;
                    }
                }

                // --- 2. ζ (N marginalised; under the Poisson prior λ0
                // too, unless it is pinned) ----------------------------
                let (lambda0, alpha0, beta0) = (state.lambda0, state.alpha0, state.beta0);
                let marginal = self
                    .lambda_marginal
                    .filter(|_| self.fixed.lambda0.is_none());
                self.update_zeta(&mut state.zeta, zeta_bounds, rng, sweep, |z| {
                    let (sum_x_ln_w, ln_qz) = self.stats_cached(z, cache);
                    match self.prior {
                        PriorSpec::Poisson { .. } => match &marginal {
                            Some(marginal) => marginal.ln_target(sum_x_ln_w, ln_qz),
                            None => sum_x_ln_w - lambda0 * (1.0 - ln_qz.exp()),
                        },
                        PriorSpec::NegBinomial { .. } => {
                            let beta_k = (1.0 - (1.0 - beta0) * ln_qz.exp()).max(OPEN_SHIFT);
                            sum_x_ln_w - (alpha0 + self.total as f64) * beta_k.ln()
                        }
                    }
                })?;

                // --- 2b. λ0 | ζ (N marginalised) ----------------------
                // Marginally x_i ~ Poisson(λ0 w_i), so λ0 | x, ζ ~
                // Gamma(a, rate W) on (0, λ_max).
                if let Some(marginal) = marginal {
                    let ln_q = self.stats_cached(&state.zeta, cache).1;
                    let w = (1.0 - ln_q.exp()).max(OPEN_SHIFT);
                    state.lambda0 =
                        TruncatedGamma::new(marginal.shape, 1.0 / w, marginal.lambda_max)
                            .map_err(|e| degenerate("lambda0 conditional", &e, sweep))?
                            .sample(rng);
                }
            }
            SweepKind::Naive => {
                // --- 1. Hyper-parameters | current N -------------------
                match self.prior {
                    PriorSpec::Poisson { lambda_max } => {
                        // λ0 | N ∝ hyper(λ0) · λ0^N e^{−λ0} on
                        // (0, λ_max).
                        if self.fixed.lambda0.is_none() {
                            let shape =
                                (state.last_n as f64 + 1.0 + self.lambda_shape_shift()).max(0.5);
                            state.lambda0 = TruncatedGamma::new(shape, 1.0, lambda_max)
                                .map_err(|e| degenerate("lambda0 conditional", &e, sweep))?
                                .sample(rng);
                        }
                    }
                    PriorSpec::NegBinomial { alpha_max } => {
                        // β0 | N, α0 ~ Beta(α0 + 1 + a, N + 1 + b)
                        // where (a, b) = (−1/2, −1/2) under the
                        // arcsine Jeffreys hyper-prior.
                        if self.fixed.beta0.is_none() {
                            let (da, db) = match self.hyper_prior {
                                HyperPrior::Uniform => (0.0, 0.0),
                                HyperPrior::Jeffreys => (-0.5, -0.5),
                            };
                            state.beta0 =
                                Beta::new(state.alpha0 + 1.0 + da, state.last_n as f64 + 1.0 + db)
                                    .map_err(|e| degenerate("beta0 conditional", &e, sweep))?
                                    .sample(rng)
                                    .clamp(OPEN_SHIFT, 1.0 - OPEN_SHIFT);
                        }
                        // α0 | N, β0 ∝ Γ(N + α0)/Γ(α0) · β0^{α0}.
                        if self.fixed.alpha0.is_none() {
                            let beta0 = state.beta0;
                            let last_n = state.last_n;
                            let ln_target =
                                |a: f64| ln_gamma(last_n as f64 + a) - ln_gamma(a) + a * beta0.ln();
                            state.alpha0 = try_slice_sample(
                                ln_target,
                                state.alpha0.clamp(OPEN_EPS, alpha_max - OPEN_EPS),
                                OPEN_EPS,
                                alpha_max,
                                rng,
                            )
                            .map_err(|e| slice_fault(e, "alpha0", sweep))?;
                        }
                    }
                }

                // --- 2. ζ | current N --------------------------------
                let last_n = state.last_n;
                self.update_zeta(&mut state.zeta, zeta_bounds, rng, sweep, |z| {
                    self.zeta_log_target(z, last_n)
                })?;
            }
        }

        // --- 3. N | everything else (exact, Props. 1–2) ----------------
        // On the cached collapsed path the memo already holds ln Π q_i
        // at the current ζ (the last ζ evaluation stored it), and
        // `collapsed_stats` accumulates that sum in exactly
        // `ln_survival`'s order, so the shared value is bit-identical
        // to the uncached recomputation (asserted in tests).
        let ln_q = if self.cache_stats && matches!(self.sweep_kind, SweepKind::Collapsed) {
            self.stats_cached(&state.zeta, cache).1
        } else {
            self.ln_survival(&state.zeta)
        };
        let survival = ln_q.exp();
        let force_nan = matches!(forced, Some(FaultKind::NanRate));
        let residual = match self.prior {
            PriorSpec::Poisson { .. } => {
                let rate = if force_nan {
                    f64::NAN
                } else {
                    state.lambda0 * survival
                };
                if rate.is_nan() || rate == f64::INFINITY {
                    return Err(SrmError::NonFiniteLikelihood {
                        parameter: "rate",
                        value: rate,
                        sweep,
                    });
                }
                if rate > 0.0 {
                    Poisson::new(rate)
                        .map_err(|e| degenerate("residual rate", &e, sweep))?
                        .sample(rng)
                } else {
                    0
                }
            }
            PriorSpec::NegBinomial { .. } => {
                let alpha_k = state.alpha0 + self.total as f64;
                let beta_k = if force_nan {
                    f64::NAN
                } else {
                    (1.0 - (1.0 - state.beta0) * survival).clamp(OPEN_SHIFT, 1.0)
                };
                if !alpha_k.is_finite() || !beta_k.is_finite() {
                    return Err(SrmError::NonFiniteLikelihood {
                        parameter: "beta_k",
                        value: if alpha_k.is_finite() { beta_k } else { alpha_k },
                        sweep,
                    });
                }
                NegativeBinomial::new(alpha_k, beta_k)
                    .map_err(|e| degenerate("residual posterior", &e, sweep))?
                    .sample(rng)
            }
        };
        if residual >= MAX_RESIDUAL {
            return Err(SrmError::DegeneratePosterior {
                detail: format!("residual draw {residual} is not below 2^53"),
                sweep,
            });
        }
        state.last_n = self.total + residual;
        Ok(residual)
    }

    /// Slice-samples each coordinate of `ζ` in turn on `target`, the
    /// sweep's `ζ` log-density, with the other coordinates held; a
    /// pinned `ζ` is left as it is. Each probe edits a copy of `ζ` in
    /// a fixed buffer, so no probe allocates.
    fn update_zeta<R: Rng + ?Sized>(
        &self,
        zeta: &mut [f64],
        zeta_bounds: &[(f64, f64)],
        rng: &mut R,
        sweep: usize,
        target: impl Fn(&[f64]) -> f64,
    ) -> Result<(), SrmError> {
        if self.fixed.zeta.is_some() {
            return Ok(());
        }
        let (len, names) = (zeta.len(), self.model.param_names());
        for j in 0..len {
            let (lo, hi) = zeta_bounds[j];
            let current = zeta[j].clamp(lo, hi);
            let point = probe_buffer(zeta);
            let ln_f = |v: f64| {
                let _span = profile::span("likelihood");
                let mut z = point;
                z[j] = v;
                target(&z[..len])
            };
            zeta[j] = try_slice_sample(ln_f, current, lo, hi, rng)
                .map_err(|e| slice_fault(e, names[j], sweep))?;
        }
        Ok(())
    }
}

/// Mutable sampler state snapshotted at sweep start so a faulted
/// sweep can be retried from where it began.
#[derive(Debug, Clone)]
struct SweepState {
    zeta: Vec<f64>,
    lambda0: f64,
    alpha0: f64,
    beta0: f64,
    last_n: u64,
}

/// The full mutable state of one chain, exposed for single-sweep
/// driving via [`GibbsSampler::init_state`] /
/// [`GibbsSampler::sweep_state`].
///
/// The setters exist for joint-distribution (Geweke-style) tests that
/// alternate the sampler's transition with a data simulator; a state
/// must only be driven by the sampler that created it (see
/// [`GibbsSampler::init_state`]).
#[derive(Debug, Clone)]
pub struct GibbsState {
    state: SweepState,
    zeta_bounds: Vec<(f64, f64)>,
    cache: RefCell<SuffStatsCache>,
}

impl GibbsState {
    /// Current detection parameters `ζ`.
    #[must_use]
    pub fn zeta(&self) -> &[f64] {
        &self.state.zeta
    }

    /// Overwrites `ζ`.
    ///
    /// # Panics
    ///
    /// Panics when the length does not match the model.
    pub fn set_zeta(&mut self, zeta: &[f64]) {
        assert_eq!(
            zeta.len(),
            self.state.zeta.len(),
            "zeta length must match the model"
        );
        self.state.zeta.copy_from_slice(zeta);
    }

    /// Current `λ0` (NaN under the NB prior).
    #[must_use]
    pub fn lambda0(&self) -> f64 {
        self.state.lambda0
    }

    /// Overwrites `λ0`.
    pub fn set_lambda0(&mut self, lambda0: f64) {
        self.state.lambda0 = lambda0;
    }

    /// Current `α0` (NaN under the Poisson prior).
    #[must_use]
    pub fn alpha0(&self) -> f64 {
        self.state.alpha0
    }

    /// Current `β0` (NaN under the Poisson prior).
    #[must_use]
    pub fn beta0(&self) -> f64 {
        self.state.beta0
    }

    /// The initial bug content `N` the naive sweep conditions on.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.state.last_n
    }

    /// Overwrites `N`.
    pub fn set_n(&mut self, n: u64) {
        self.state.last_n = n;
    }
}

/// Every detection curve has at most this many parameters.
const MAX_ZETA: usize = 2;

/// `ζ` copied into a fixed buffer, which a `ζ` probe copies and edits
/// without allocating.
fn probe_buffer(zeta: &[f64]) -> [f64; MAX_ZETA] {
    let mut buffer = [0.0; MAX_ZETA];
    buffer[..zeta.len()].copy_from_slice(zeta);
    buffer
}

/// Maps a [`SliceError`] onto the workspace taxonomy with the sweep
/// context the slice sampler does not know.
fn slice_fault(e: SliceError, parameter: &'static str, sweep: usize) -> SrmError {
    match e {
        SliceError::Exhausted => SrmError::SliceExhausted { parameter, sweep },
        SliceError::InfeasibleStart { ln_f0, .. } => SrmError::NonFiniteLikelihood {
            parameter,
            value: ln_f0,
            sweep,
        },
        SliceError::InvalidInterval { lo, hi } => SrmError::InvalidConfig {
            detail: format!("slice interval for {parameter} inverted ({lo} >= {hi})"),
        },
        SliceError::StartOutOfRange { x0, lo, hi } => SrmError::InvalidConfig {
            detail: format!("{parameter} start {x0} outside [{lo}, {hi}]"),
        },
    }
}

/// A distribution construction failure at a Gibbs conditional.
fn degenerate(what: &str, err: &impl std::fmt::Debug, sweep: usize) -> SrmError {
    SrmError::DegeneratePosterior {
        detail: format!("{what}: {err:?}"),
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;
    use srm_rand::Xoshiro256StarStar;

    fn small_data() -> BugCountData {
        datasets::musa_cc96().truncated(30).unwrap()
    }

    fn run(
        prior: PriorSpec,
        model: DetectionModel,
        data: &BugCountData,
        seed: u64,
        samples: usize,
    ) -> Chain {
        let sampler = GibbsSampler::new(prior, model, ZetaBounds::default(), data);
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        sampler.run_chain(&mut rng, 300, samples, 1)
    }

    #[test]
    fn param_names_match_prior() {
        let data = small_data();
        let s = GibbsSampler::new(
            PriorSpec::Poisson { lambda_max: 1e3 },
            DetectionModel::PadgettSpurrier,
            ZetaBounds::default(),
            &data,
        );
        assert_eq!(s.param_names(), ["residual", "n", "lambda0", "mu", "theta"]);
        let s = GibbsSampler::new(
            PriorSpec::NegBinomial { alpha_max: 40.0 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        assert_eq!(s.param_names(), ["residual", "n", "alpha0", "beta0", "mu"]);
    }

    #[test]
    fn chain_has_requested_length_and_valid_support() {
        let data = small_data();
        let chain = run(
            PriorSpec::Poisson { lambda_max: 2e3 },
            DetectionModel::Constant,
            &data,
            100,
            400,
        );
        assert_eq!(chain.len(), 400);
        let total = data.total() as f64;
        for (&r, &n) in chain
            .draws("residual")
            .unwrap()
            .iter()
            .zip(chain.draws("n").unwrap())
        {
            assert!(r >= 0.0);
            assert!((n - r - total).abs() < 1e-9);
        }
        for &l in chain.draws("lambda0").unwrap() {
            assert!(l > 0.0 && l < 2e3);
        }
        for &m in chain.draws("mu").unwrap() {
            assert!(m > 0.0 && m < 1.0);
        }
    }

    #[test]
    fn nb_chain_hyperparameters_in_support() {
        let data = small_data();
        let chain = run(
            PriorSpec::NegBinomial { alpha_max: 50.0 },
            DetectionModel::Constant,
            &data,
            101,
            400,
        );
        for &a in chain.draws("alpha0").unwrap() {
            assert!(a > 0.0 && a < 50.0);
        }
        for &b in chain.draws("beta0").unwrap() {
            assert!(b > 0.0 && b < 1.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = small_data();
        let a = run(
            PriorSpec::Poisson { lambda_max: 1e3 },
            DetectionModel::Weibull,
            &data,
            7,
            100,
        );
        let b = run(
            PriorSpec::Poisson { lambda_max: 1e3 },
            DetectionModel::Weibull,
            &data,
            7,
            100,
        );
        assert_eq!(a, b);
        let c = run(
            PriorSpec::Poisson { lambda_max: 1e3 },
            DetectionModel::Weibull,
            &data,
            8,
            100,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn every_kept_draw_is_stored_with_consistent_columns() {
        let data = small_data();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson { lambda_max: 1e3 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let mut rng = Xoshiro256StarStar::seed_from(11);
        let chain = sampler.run_chain(&mut rng, 50, 120, 2);
        assert_eq!(chain.len(), 120);
        let (residual, n) = (chain.draws("residual").unwrap(), chain.draws("n").unwrap());
        for (&r, &n) in residual.iter().zip(n) {
            assert_eq!(n, data.total() as f64 + r);
        }
        assert!(chain
            .draws("lambda0")
            .unwrap()
            .iter()
            .all(|l| l.is_finite()));
        assert!(chain.draws("alpha0").is_none() && chain.draws("beta0").is_none());
    }

    #[test]
    fn posterior_mean_reacts_to_zero_count_extension() {
        // Virtual testing must pull the posterior residual down.
        let base = datasets::musa_cc96();
        let mean_residual = |extra: usize, seed: u64| {
            let data = base.extended_with_zeros(extra);
            let chain = run(
                PriorSpec::Poisson { lambda_max: 3e3 },
                DetectionModel::PadgettSpurrier,
                &data,
                seed,
                600,
            );
            let r = chain.draws("residual").unwrap();
            r.iter().sum::<f64>() / r.len() as f64
        };
        let at_96 = mean_residual(0, 500);
        let at_146 = mean_residual(50, 501);
        assert!(
            at_146 < at_96,
            "virtual testing failed to shrink: {at_96} -> {at_146}"
        );
    }

    #[test]
    fn jeffreys_hyper_prior_runs_and_stays_in_support() {
        let data = small_data();
        for prior in [
            PriorSpec::Poisson { lambda_max: 2e3 },
            PriorSpec::NegBinomial { alpha_max: 50.0 },
        ] {
            let sampler = GibbsSampler::new(
                prior,
                DetectionModel::Constant,
                ZetaBounds::default(),
                &data,
            )
            .with_hyper_prior(HyperPrior::Jeffreys);
            assert_eq!(sampler.hyper_prior().label(), "jeffreys");
            let mut rng = Xoshiro256StarStar::seed_from(201);
            let chain = sampler.run_chain(&mut rng, 200, 300, 1);
            for &r in chain.draws("residual").unwrap() {
                assert!(r >= 0.0);
            }
        }
    }

    #[test]
    fn jeffreys_and_uniform_agree_when_data_dominate() {
        // With 96 informative days the hyper-prior choice must wash
        // out: posterior residual means should be close.
        let data = datasets::musa_cc96();
        let mean_with = |hyper, seed| {
            let sampler = GibbsSampler::new(
                PriorSpec::Poisson { lambda_max: 3e3 },
                DetectionModel::PadgettSpurrier,
                ZetaBounds::default(),
                &data,
            )
            .with_hyper_prior(hyper);
            let mut rng = Xoshiro256StarStar::seed_from(seed);
            let chain = sampler.run_chain(&mut rng, 500, 1_500, 1);
            let d = chain.draws("residual").unwrap();
            d.iter().sum::<f64>() / d.len() as f64
        };
        let uniform = mean_with(HyperPrior::Uniform, 202);
        let jeffreys = mean_with(HyperPrior::Jeffreys, 203);
        assert!(
            (uniform - jeffreys).abs() < 0.35 * uniform.max(5.0),
            "uniform {uniform} vs jeffreys {jeffreys}"
        );
    }

    #[test]
    fn naive_sweep_jeffreys_also_valid() {
        let data = small_data();
        let sampler = GibbsSampler::new(
            PriorSpec::NegBinomial { alpha_max: 40.0 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        )
        .with_hyper_prior(HyperPrior::Jeffreys)
        .with_sweep_kind(SweepKind::Naive);
        let mut rng = Xoshiro256StarStar::seed_from(204);
        let chain = sampler.run_chain(&mut rng, 200, 300, 1);
        for &b in chain.draws("beta0").unwrap() {
            assert!(b > 0.0 && b < 1.0);
        }
    }

    #[test]
    fn ln_survival_matches_collapsed_stats_bitwise() {
        // The N-step's cached path reads `collapsed_stats(ζ).1` where
        // the uncached path computes `ln_survival(ζ)`; bit-equality of
        // the two is what makes the cache invisible to the draws.
        let data = small_data();
        let mut rng = Xoshiro256StarStar::seed_from(77);
        for model in DetectionModel::ALL {
            let sampler = GibbsSampler::new(
                PriorSpec::Poisson { lambda_max: 1e3 },
                model,
                ZetaBounds::default(),
                &data,
            );
            let bounds = sampler.zeta_bounds();
            for _ in 0..50 {
                let zeta: Vec<f64> = bounds
                    .iter()
                    .map(|&(lo, hi)| lo + (hi - lo) * rng.next_f64())
                    .collect();
                let direct = sampler.ln_survival(&zeta);
                let (_, via_stats) = sampler.collapsed_stats(&zeta, None);
                assert_eq!(
                    direct.to_bits(),
                    via_stats.to_bits(),
                    "{model:?} at {zeta:?}"
                );
            }
        }
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

    /// A value of a reference loop and its tolerance: 1e-12 relative to
    /// the loop's summed magnitudes (at least 1, since the logs enter
    /// a log density), plus the direct forms' own error, `ε / min(p, q)`
    /// per `ln p` or `ln q` term, times the term's weight.
    #[derive(Debug, Default, Clone, Copy)]
    struct Approx {
        value: f64,
        magnitude: f64,
        error: f64,
    }

    impl Approx {
        fn add(&mut self, weight: f64, term: Approx) {
            if weight == 0.0 {
                return; // p^0 = 1, whatever p is
            }
            self.value += weight * term.value;
            self.magnitude += weight * term.magnitude;
            self.error += weight * term.error;
        }

        fn assert_matches(self, got: f64, at: &str) {
            let tol = 1e-12 * self.magnitude.max(1.0) + self.error;
            assert!(
                (got - self.value).abs() <= tol,
                "{at}: {got} vs direct {} (tol {tol:e})",
                self.value
            );
        }
    }

    /// `(ln p, ln q)` of the direct form on day `i`, each with its error.
    fn direct_logs(model: DetectionModel, zeta: &[f64], i: f64) -> (Approx, Approx) {
        let p = direct_p(model, zeta, i);
        let q = 1.0 - p;
        let error = 8.0 * f64::EPSILON / p.min(q);
        let log = |v: f64| Approx {
            value: v.ln(),
            magnitude: v.ln().abs(),
            error,
        };
        (log(p), log(q))
    }

    /// The collapsed statistics `(Σ x_i ln w_i, ln Π q_i)` day by day
    /// on the direct forms.
    fn reference_stats(model: DetectionModel, zeta: &[f64], counts: &[u64]) -> (Approx, Approx) {
        let (mut sum_x_ln_w, mut cum_ln_q) = (Approx::default(), Approx::default());
        for (i, &count) in counts.iter().enumerate() {
            let (ln_p, ln_q) = direct_logs(model, zeta, (i + 1) as f64);
            sum_x_ln_w.add(count as f64, ln_p);
            sum_x_ln_w.add(count as f64, cum_ln_q);
            cum_ln_q.add(1.0, ln_q);
        }
        (sum_x_ln_w, cum_ln_q)
    }

    /// The naive sweep's `ζ` target day by day on the direct forms.
    fn reference_log_target(
        model: DetectionModel,
        zeta: &[f64],
        data: &BugCountData,
        n: u64,
    ) -> Approx {
        let mut ll = Approx::default();
        for (i, (&count, &cum)) in data.counts().iter().zip(data.cumulative()).enumerate() {
            let (ln_p, ln_q) = direct_logs(model, zeta, (i + 1) as f64);
            ll.add(count as f64, ln_p);
            ll.add((n - cum) as f64, ln_q);
        }
        ll
    }

    /// Datasets at horizons 1, 146 and 10,000, with zero-count days.
    fn horizon_datasets() -> Vec<BugCountData> {
        vec![
            BugCountData::new(vec![4]).unwrap(),
            datasets::musa_cc96().extended_with_zeros(50),
            BugCountData::new((0..10_000u64).map(|i| (i * 7 + 3) % 5).collect()).unwrap(),
        ]
    }

    /// ζ at the edges and midpoints of each curve's sampling box.
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
    fn passes_match_direct_form_reference_loops() {
        let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
        for data in horizon_datasets() {
            for model in DetectionModel::ALL {
                let build = |cached| {
                    GibbsSampler::new(
                        PriorSpec::Poisson { lambda_max: 1e3 },
                        model,
                        ZetaBounds::default(),
                        &data,
                    )
                    .with_cached_stats(cached)
                };
                let (cached, uncached) = (build(true), build(false));
                let memo = RefCell::new(SuffStatsCache::default());
                for zeta in edge_zetas(model) {
                    let at = format!("{model} {zeta:?} horizon {}", data.len());
                    let stats = cached.stats_cached(&zeta, &memo);
                    assert!(stats.0.is_finite() && stats.1.is_finite(), "{at}");
                    let (sum_x_ln_w, cum_ln_q) = reference_stats(model, &zeta, data.counts());
                    sum_x_ln_w.assert_matches(stats.0, &at);
                    cum_ln_q.assert_matches(stats.1, &at);
                    // A second visit is a memo hit; the uncached path
                    // and the survival pass agree bit for bit.
                    assert_eq!(bits(cached.stats_cached(&zeta, &memo)), bits(stats), "{at}");
                    let fresh = RefCell::new(SuffStatsCache::default());
                    assert_eq!(
                        bits(uncached.stats_cached(&zeta, &fresh)),
                        bits(stats),
                        "{at}"
                    );
                    assert_eq!(
                        cached.ln_survival(&zeta).to_bits(),
                        stats.1.to_bits(),
                        "{at}"
                    );
                    for n in [data.total(), data.total() + 37] {
                        let target = cached.zeta_log_target(&zeta, n);
                        assert!(target.is_finite(), "{at} n {n}");
                        reference_log_target(model, &zeta, &data, n)
                            .assert_matches(target, &format!("{at} n {n}"));
                    }
                }
            }
        }
    }

    #[test]
    fn lambda_marginal_cutoff_changes_no_bit() {
        // Past x*, the λ0-marginal target skips ln P(a, λ_max W); it
        // must equal the full evaluation bit for bit at every edge
        // point of every curve, under both hyper-priors.
        let base = datasets::musa_cc96();
        let windows = [
            base.truncated(20).unwrap(),
            base.truncated(48).unwrap(),
            base.clone(),
            base.extended_with_zeros(50),
        ];
        let (mut cut, mut full) = (0, 0);
        for data in &windows {
            for hyper in [HyperPrior::Uniform, HyperPrior::Jeffreys] {
                for model in DetectionModel::ALL {
                    let sampler = GibbsSampler::new(
                        PriorSpec::Poisson { lambda_max: 2e3 },
                        model,
                        ZetaBounds::default(),
                        data,
                    )
                    .with_hyper_prior(hyper);
                    let marginal = sampler.lambda_marginal.unwrap();
                    let a = marginal.shape;
                    // x* is the first point past which the prefactor of
                    // Q(a, x) is at most e^−50.
                    let ln_pre = |x: f64| a * x.ln() - x - ln_gamma(a);
                    assert!(ln_pre(marginal.x_star) <= -50.0, "{model} a {a}");
                    assert!(
                        ln_pre(marginal.x_star * (1.0 - 1e-9)) > -50.0,
                        "{model} a {a}"
                    );
                    for zeta in edge_zetas(model) {
                        let (sum_x_ln_w, ln_q) = sampler.collapsed_stats(&zeta, None);
                        let w = (1.0 - ln_q.exp()).max(f64::MIN_POSITIVE);
                        let x = 2e3 * w;
                        let reference = sum_x_ln_w - a * w.ln() + ln_inc_gamma_p(a, x);
                        let got = marginal.ln_target(sum_x_ln_w, ln_q);
                        assert_eq!(
                            got.to_bits(),
                            reference.to_bits(),
                            "{model} {hyper:?} {zeta:?} horizon {}: {got} vs {reference}",
                            data.len()
                        );
                        if x >= marginal.x_star {
                            cut += 1;
                        } else {
                            full += 1;
                        }
                    }
                }
            }
        }
        assert!(cut > 0 && full > 0, "cut {cut}, full {full}");
    }

    #[test]
    fn held_factor_memos_survive_probes_of_either_coordinate() {
        // A slice update of one coordinate probes many values at the
        // other's current value (memo hits); the update of the keying
        // coordinate then moves it (a refill on every probe), and the
        // next update of the other coordinate reads the new factors.
        // model1 and model4 key the memo by ζ[1], model2 by μ.
        let (unit, gamma) = (
            [0.4, OPEN_EPS, 1.0 - OPEN_EPS, 0.7],
            [0.3, -10.0, 10.0, -2.0],
        );
        let cases = [
            (
                DetectionModel::PadgettSpurrier,
                1,
                [0.3, 1e-3, 10.0, 2.0],
                unit,
            ),
            (DetectionModel::LogLogistic, 0, unit, gamma),
            (DetectionModel::Weibull, 1, unit, unit),
        ];
        for (model, key, keys, others) in cases {
            let other = 1 - key;
            for data in horizon_datasets() {
                let sampler = GibbsSampler::new(
                    PriorSpec::NegBinomial { alpha_max: 50.0 },
                    model,
                    ZetaBounds::default(),
                    &data,
                );
                let fresh = sampler.clone().with_cached_stats(false);
                let memo = RefCell::new(SuffStatsCache::default());
                let mut probes = Vec::new();
                for (k, o) in [
                    (keys[0], others[0]),
                    (keys[0], others[1]),
                    (keys[0], others[2]),
                    (keys[1], others[2]),
                    (keys[2], others[2]),
                    (keys[2], others[3]),
                    (keys[2], others[0]),
                    (keys[0], others[3]),
                    (keys[3], others[3]),
                ] {
                    let mut zeta = [0.0; 2];
                    zeta[key] = k;
                    zeta[other] = o;
                    probes.push(zeta);
                }
                for zeta in probes {
                    let at = format!("{model} {zeta:?} horizon {}", data.len());
                    let got = sampler.stats_cached(&zeta, &memo);
                    let direct = fresh.collapsed_stats(&zeta, None);
                    assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        (direct.0.to_bits(), direct.1.to_bits()),
                        "{at}"
                    );
                    let (sum_x_ln_w, cum_ln_q) = reference_stats(model, &zeta, data.counts());
                    sum_x_ln_w.assert_matches(got.0, &at);
                    cum_ln_q.assert_matches(got.1, &at);
                    assert!(memo.borrow().held.holds(zeta[key]), "{at}");
                }
            }
        }
    }

    #[test]
    fn cached_and_uncached_sweeps_are_bit_identical() {
        let data = small_data();
        for prior in [
            PriorSpec::Poisson { lambda_max: 2e3 },
            PriorSpec::NegBinomial { alpha_max: 50.0 },
        ] {
            let build = |cached| {
                GibbsSampler::new(
                    prior,
                    DetectionModel::PadgettSpurrier,
                    ZetaBounds::default(),
                    &data,
                )
                .with_cached_stats(cached)
            };
            let run = |sampler: GibbsSampler| {
                let mut rng = Xoshiro256StarStar::seed_from(4_040);
                sampler.run_chain(&mut rng, 100, 150, 1)
            };
            assert_eq!(
                run(build(true)),
                run(build(false)),
                "{prior:?} diverged under caching"
            );
        }
    }

    #[test]
    fn fixed_params_pin_values_and_skip_updates() {
        // model1 has two ζ coordinates, so a sweep that mishandled the
        // pinned ζ under either sweep kind would move one of them.
        let data = small_data();
        let zeta = [0.99, 1e-3];
        let cases = [
            (
                PriorSpec::Poisson { lambda_max: 2e3 },
                FixedParams {
                    zeta: Some(zeta.to_vec()),
                    lambda0: Some(120.0),
                    ..FixedParams::default()
                },
                vec![("lambda0", 120.0)],
            ),
            (
                PriorSpec::NegBinomial { alpha_max: 50.0 },
                FixedParams {
                    zeta: Some(zeta.to_vec()),
                    alpha0: Some(8.0),
                    beta0: Some(0.2),
                    ..FixedParams::default()
                },
                vec![("alpha0", 8.0), ("beta0", 0.2)],
            ),
        ];
        for kind in [SweepKind::Collapsed, SweepKind::Naive] {
            for (prior, fixed, hyper) in &cases {
                let sampler = GibbsSampler::new(
                    *prior,
                    DetectionModel::PadgettSpurrier,
                    ZetaBounds::default(),
                    &data,
                )
                .with_sweep_kind(kind)
                .with_fixed(fixed.clone());
                let mut rng = Xoshiro256StarStar::seed_from(606);
                let chain = sampler.run_chain(&mut rng, 0, 200, 1);
                let pinned = hyper
                    .iter()
                    .copied()
                    .chain([("mu", zeta[0]), ("theta", zeta[1])]);
                for (name, value) in pinned {
                    for &v in chain.draws(name).unwrap() {
                        assert_eq!(v.to_bits(), value.to_bits(), "{kind:?} {prior:?} {name}");
                    }
                }
                // The residual still moves: only the N-step consumes RNG.
                let r = chain.draws("residual").unwrap();
                assert!(
                    r.iter().any(|&x| x.to_bits() != r[0].to_bits()),
                    "{kind:?} {prior:?}"
                );
            }
        }
    }

    #[test]
    fn a_residual_draw_past_2_pow_53_is_a_typed_fault() {
        // At α_max 1e100 the NB residual draw saturates at u64::MAX, and
        // so does the Poisson one at a pinned λ0 of 1e30 with a ζ that
        // detects almost nothing.
        let data = datasets::musa_cc96();
        let samplers = [
            GibbsSampler::new(
                PriorSpec::NegBinomial { alpha_max: 1e100 },
                DetectionModel::Constant,
                ZetaBounds::default(),
                &data,
            ),
            GibbsSampler::new(
                PriorSpec::Poisson { lambda_max: 1e31 },
                DetectionModel::Constant,
                ZetaBounds::default(),
                &data,
            )
            .with_fixed(FixedParams {
                zeta: Some(vec![1e-6]),
                lambda0: Some(1e30),
                ..FixedParams::default()
            }),
        ];
        for sampler in samplers {
            let mut state = sampler.init_state().unwrap();
            let mut rng = Xoshiro256StarStar::seed_from(7);
            let err = sampler.sweep_state(&mut state, &mut rng).unwrap_err();
            assert!(
                matches!(err, SrmError::DegeneratePosterior { sweep: 0, .. }),
                "{:?}: {err}",
                sampler.prior()
            );
        }
    }

    #[test]
    fn fixed_zeta_of_wrong_length_is_invalid_config() {
        let data = small_data();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson { lambda_max: 2e3 },
            DetectionModel::PadgettSpurrier, // two ζ components
            ZetaBounds::default(),
            &data,
        )
        .with_fixed(FixedParams {
            zeta: Some(vec![0.1]),
            ..FixedParams::default()
        });
        let err = sampler.init_state().unwrap_err();
        assert!(matches!(err, SrmError::InvalidConfig { .. }));
    }

    #[test]
    fn sweep_state_api_matches_chain_semantics() {
        let data = small_data();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson { lambda_max: 2e3 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let mut state = sampler.init_state().unwrap();
        let mut rng = Xoshiro256StarStar::seed_from(9_009);
        for _ in 0..20 {
            let residual = sampler.sweep_state(&mut state, &mut rng).unwrap();
            assert_eq!(state.n(), data.total() + residual);
            assert!(state.lambda0() > 0.0 && state.lambda0() < 2e3);
            assert!(state.zeta()[0] > 0.0 && state.zeta()[0] < 1.0);
        }
        // Setters round-trip (the Geweke driver relies on these).
        state.set_lambda0(42.0);
        state.set_n(500);
        state.set_zeta(&[0.25]);
        assert_eq!(state.lambda0().to_bits(), 42.0f64.to_bits());
        assert_eq!(state.n(), 500);
        assert_eq!(state.zeta(), &[0.25]);
    }

    #[test]
    fn zero_thin_panics() {
        let data = small_data();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson { lambda_max: 1e3 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let mut rng = Xoshiro256StarStar::seed_from(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sampler.run_chain(&mut rng, 10, 10, 0)
        }));
        assert!(result.is_err());
    }
}
