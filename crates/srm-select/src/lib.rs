//! Model selection for the Bayesian discrete-time SRMs.
//!
//! The paper's §4: AIC/BIC are invalid for the Bayesian fits (no
//! maximum-likelihood estimate exists under the hierarchical priors),
//! so the widely applicable information criterion (WAIC, Watanabe
//! 2010) drives both the detection-model ranking (Table I) and the
//! choice of the hyper-prior limits `λ_max`, `α_max`, `θ_max`.
//!
//! * [`waic`] — WAIC (Eqs. (23)–(25)) replayed from stored MCMC
//!   draws;
//! * [`loo`] — importance-sampling LOO-CV over the same replay;
//! * [`dic`] — the deviance information criterion, as a secondary
//!   check;
//! * [`grid`] — hyper-parameter grid search minimising WAIC.
//!
//! # Examples
//!
//! ```
//! use srm_data::datasets;
//! use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
//! use srm_mcmc::runner::McmcConfig;
//! use srm_model::{DetectionModel, ZetaBounds};
//! use srm_select::waic::waic_for;
//!
//! let data = datasets::musa_cc96().truncated(48).unwrap();
//! let sampler = GibbsSampler::new(
//!     PriorSpec::Poisson { lambda_max: 1000.0 },
//!     DetectionModel::Constant,
//!     ZetaBounds::default(),
//!     &data,
//! );
//! let waic = waic_for(&sampler, &McmcConfig::smoke(1));
//! assert!(waic.total().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dic;
pub mod grid;
pub mod loo;
pub mod waic;

pub use grid::{GridSearch, GridSearchResult};
pub use loo::{loo_for, loo_from_output, Loo, LooAccumulator};
pub use waic::{waic_for, waic_from_output, Waic, WaicAccumulator};
