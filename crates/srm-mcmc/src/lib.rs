//! MCMC engine for the Bayesian discrete-time SRMs.
//!
//! This crate replaces JAGS in the paper's pipeline:
//!
//! * [`slice`](mod@crate::slice) — univariate slice sampling (Neal 2003), the
//!   tuning-free workhorse for the non-conjugate conditionals;
//! * [`gibbs`] — the model-specific Gibbs sweeps implementing
//!   Eqs. (14)–(22): exact conjugate draws for `N`, `λ0` and `β0`,
//!   slice steps for `ζ` and `α0`;
//! * [`chain`] — chain storage with named parameters;
//! * [`fault`] — the typed error taxonomy ([`SrmError`]), retry
//!   policy, and deterministic fault-injection harness;
//! * [`runner`] — the multi-chain parallel driver (std scoped
//!   threads, one xoshiro jump-stream per chain), with panic-contained
//!   fault-tolerant execution via
//!   [`runner::run_chains_fault_tolerant`];
//! * [`diagnostics`] — Gelman–Rubin PSRF (Eq. (26)), Geweke Z
//!   (Eq. (30), standard form), effective sample size and MCSE;
//! * [`summary`] — posterior summaries: mean / median / mode / sd /
//!   quantiles / HPD interval / box-plot statistics.
//!
//! # Examples
//!
//! ```
//! use srm_data::datasets;
//! use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
//! use srm_mcmc::runner::{run_chains, McmcConfig};
//! use srm_model::{DetectionModel, ZetaBounds};
//!
//! let data = datasets::musa_cc96().truncated(48).unwrap();
//! let sampler = GibbsSampler::new(
//!     PriorSpec::Poisson { lambda_max: 2000.0 },
//!     DetectionModel::Constant,
//!     ZetaBounds::default(),
//!     &data,
//! );
//! let config = McmcConfig { chains: 2, burn_in: 200, samples: 300, thin: 1, seed: 7 };
//! let out = run_chains(&sampler, &config);
//! assert_eq!(out.chains.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod diagnostics;
pub mod fault;
pub mod gibbs;
pub mod runner;
pub mod slice;
pub mod streaming;
pub mod summary;

pub use chain::Chain;
pub use diagnostics::{effective_sample_size, geweke_z, psrf, DiagnosticsReport};
pub use fault::{
    ChainFailure, ChainReport, FaultInjector, FaultKind, FaultPlan, FaultPoint, RecoveryLog,
    RetryPolicy, SrmError,
};
pub use gibbs::{FixedParams, GibbsSampler, GibbsState, HyperPrior, PriorSpec, SweepKind};
pub use runner::{
    assemble_run, effective_threads, run_chain_task, run_chains, run_chains_fault_tolerant,
    run_chains_fault_tolerant_traced, run_pool, ChainOutcome, FaultTolerantRun, McmcConfig,
    McmcOutput, RunOptions,
};
pub use streaming::{ChainAccumulator, ParamAccumulator, DEFAULT_LAG_WINDOW};
pub use summary::PosteriorSummary;
