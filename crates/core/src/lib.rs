//! High-level pipeline for Bayesian estimation of the residual number
//! of software bugs — the paper's §5 workflow as a library.
//!
//! A [`Fit`] runs the Gibbs sampler for one (prior, detection model,
//! data window) combination and bundles the posterior summary of the
//! residual bug count, WAIC, and convergence diagnostics. An
//! [`Experiment`] sweeps the full 2-priors × 5-models × observation
//! plan design and collects every fit for table/figure generation.
//!
//! # Examples
//!
//! ```
//! use srm_core::{Fit, FitConfig};
//! use srm_data::datasets;
//! use srm_mcmc::gibbs::PriorSpec;
//! use srm_mcmc::runner::McmcConfig;
//! use srm_model::DetectionModel;
//!
//! let data = datasets::musa_cc96().truncated(48).unwrap();
//! let config = FitConfig { mcmc: McmcConfig::smoke(5), ..FitConfig::default() };
//! let fit = Fit::run(
//!     PriorSpec::Poisson { lambda_max: 2000.0 },
//!     DetectionModel::Constant,
//!     &data,
//!     &config,
//! );
//! assert!(fit.residual.mean >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod fit;
pub mod limits;
pub mod multidata;
pub mod ppc;
pub mod predict;

pub use experiment::{
    CellFailure, Experiment, ExperimentCell, ExperimentConfig, ExperimentResults, FitKey,
};
pub use fit::{FaultTolerantFit, Fit, FitConfig};
pub use limits::{check_request, Request};
pub use multidata::{compare_across_datasets, MultiDatasetResults};
pub use ppc::{posterior_predictive_check, PpcResult};
pub use predict::{predict_from_fit, Prediction};
