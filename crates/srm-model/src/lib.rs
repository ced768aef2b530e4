//! Discrete-time software reliability models.
//!
//! This crate implements §2–§3 of the paper:
//!
//! * [`detection`] — the five bug-detection-probability curves
//!   (`model0`–`model4`, Eqs. (3)–(7));
//! * [`likelihood`] — the grouped-data likelihood (Eq. (2)) and the
//!   pointwise binomial terms WAIC needs;
//! * [`prior`] — the Poisson and negative-binomial priors on the
//!   initial bug content `N`;
//! * [`posterior`] — the analytic posteriors of the residual bug
//!   count (Proposition 1 and the *corrected* Proposition 2; see
//!   DESIGN.md for the reconciliation of Eq. (13));
//! * [`predictive`] — expected future detections under the residual
//!   posterior;
//! * [`mle`] — the maximum-likelihood baseline (NHPP marginal fits
//!   with AIC/BIC), used for comparison against the Bayesian fits.
//!
//! # Examples
//!
//! ```
//! use srm_model::detection::DetectionModel;
//! use srm_model::posterior::poisson_posterior;
//!
//! let model = DetectionModel::PadgettSpurrier;
//! let probs = model.probs(&[0.9, 0.05], 96).unwrap();
//! let data = srm_data::datasets::musa_cc96();
//! let post = poisson_posterior(150.0, &probs, &data);
//! assert!(post.mean() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detection;
pub mod likelihood;
pub mod markov;
pub mod mle;
pub mod posterior;
pub mod predictive;
pub mod prior;
pub mod reliability;

pub use detection::{DayLogs, DayTables, DetectionModel, HeldFactors, ModelError, ZetaBounds};
pub use likelihood::GroupedLikelihood;
pub use posterior::{nb_posterior, poisson_posterior, ResidualPosterior};
pub use prior::BugPrior;
