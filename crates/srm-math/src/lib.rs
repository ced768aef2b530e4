//! Numerical substrate for the `srm-bayes` workspace.
//!
//! This crate provides the special functions, stable accumulation
//! primitives and optimisers that the statistical crates build on.
//! Everything is implemented from scratch so that the whole
//! reproduction is self-contained and bit-reproducible:
//!
//! * [`special`] — `ln Γ`, factorials, binomial coefficients.
//! * [`incgamma`] — regularised incomplete gamma `P(a, x)` / `Q(a, x)`,
//!   `ln P(a, x)` and the inverse of `P` (used for truncated-gamma
//!   sampling and the λ0-marginal `ζ` target).
//! * [`incbeta`] — regularised incomplete beta `I_x(a, b)` and inverse
//!   (binomial/beta CDFs and quantiles).
//! * [`erf`](mod@crate::erf) — error function, normal CDF and quantile.
//! * [`logsumexp`] — stable `log Σ exp` reductions used by WAIC.
//! * [`accum`] — Welford streaming moments.
//! * [`optim`] — Nelder–Mead simplex optimiser (MLE baseline).
//! * [`quadrature`] — adaptive Simpson integration (model validation).
//! * [`stats`] — Kolmogorov–Smirnov and chi-square goodness-of-fit tests.
//!
//! # Examples
//!
//! ```
//! use srm_math::special::ln_gamma;
//! // Γ(5) = 24
//! assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod erf;
pub mod incbeta;
pub mod incgamma;
pub mod logsumexp;
pub mod optim;
pub mod quadrature;
pub mod special;
pub mod stats;

pub use accum::RunningMoments;
pub use erf::{erf, erfc, norm_cdf, norm_quantile};
pub use incbeta::{inc_beta_reg, inv_inc_beta_reg};
pub use incgamma::{inc_gamma_p, inc_gamma_q, inv_inc_gamma_p, ln_inc_gamma_p};
pub use logsumexp::{log_mean_exp, log_sum_exp};
pub use special::{ln_binomial, ln_factorial, ln_gamma};

/// Returns `true` when two floats agree within an absolute *and*
/// relative tolerance; convenient in tests of iterative routines.
///
/// # Examples
///
/// ```
/// assert!(srm_math::approx_eq(1.0, 1.0 + 1e-13, 1e-9));
/// assert!(!srm_math::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
