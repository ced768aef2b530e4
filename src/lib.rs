//! # srm — Bayesian estimation of the residual number of software bugs
//!
//! A from-scratch Rust reproduction of *"Performance Comparison of
//! Bayesian Estimations on the Residual Number of Software Bugs"*
//! (Hagihara, Dohi, Okamura; DSN 2024): discrete-time software
//! reliability models with Poisson and negative-binomial priors on
//! the initial bug content, five detection-probability curves, Gibbs
//! sampling, WAIC model selection, and the full evaluation protocol
//! (observation points + virtual testing).
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`math`] | `srm-math` | special functions, optimisers |
//! | [`rand`] | `srm-rand` | PRNGs and distribution samplers |
//! | [`data`] | `srm-data` | datasets, observation plans, simulator |
//! | [`model`] | `srm-model` | detection models, likelihood, priors, posteriors, MLE |
//! | [`mcmc`] | `srm-mcmc` | Gibbs sampler, diagnostics, summaries |
//! | [`select`] | `srm-select` | WAIC / DIC / grid search |
//! | [`sbc`] | `srm-sbc` | simulation-based calibration battery |
//! | [`core`] | `srm-core` | fit & experiment pipeline |
//! | [`batch`] | `srm-batch` | multi-dataset batch executor |
//! | [`report`] | `srm-report` | tables, box plots, ASCII charts |
//! | [`obs`] | `srm-obs` | tracing events, metric sinks, run manifests |
//! | [`serve`] | `srm-serve` | HTTP estimation service: job queue, fit cache |
//!
//! # Quickstart
//!
//! ```
//! use srm::core::{Fit, FitConfig};
//! use srm::data::datasets;
//! use srm::mcmc::gibbs::PriorSpec;
//! use srm::mcmc::runner::McmcConfig;
//! use srm::model::DetectionModel;
//!
//! // Fit the Padgett–Spurrier model with the Poisson prior at the
//! // 50% observation point of the 136-bug dataset.
//! let data = datasets::musa_cc96().truncated(48).unwrap();
//! let config = FitConfig { mcmc: McmcConfig::smoke(42), ..FitConfig::default() };
//! let fit = Fit::run(
//!     PriorSpec::Poisson { lambda_max: 2000.0 },
//!     DetectionModel::PadgettSpurrier,
//!     &data,
//!     &config,
//! );
//! println!("posterior residual mean: {:.1}", fit.residual.mean);
//! assert!(fit.residual.mean >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use srm_batch as batch;
pub use srm_core as core;
pub use srm_data as data;
pub use srm_math as math;
pub use srm_mcmc as mcmc;
pub use srm_model as model;
pub use srm_obs as obs;
pub use srm_rand as rand;
pub use srm_report as report;
pub use srm_sbc as sbc;
pub use srm_select as select;
pub use srm_serve as serve;

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use srm_core::{Experiment, ExperimentConfig, Fit, FitConfig};
    pub use srm_data::{
        datasets, BugCountData, DetectionSimulator, ObservationPlan, ObservationPoint,
    };
    pub use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
    pub use srm_mcmc::runner::{run_chains, McmcConfig};
    pub use srm_mcmc::PosteriorSummary;
    pub use srm_model::{nb_posterior, poisson_posterior, BugPrior, DetectionModel, ZetaBounds};
    pub use srm_select::waic::{waic_for, Waic};
}
