//! Fleet-scale batch estimation: fit one `(prior, model, config)`
//! specification to N bug-count datasets in a single pass.
//!
//! The single-dataset pipeline (`srm-core`'s [`srm_core::Fit`]) is
//! hard-wired to one dataset per run; fitting a fleet of projects
//! means N cold starts and N thread pools. This crate runs the whole
//! fleet as **one** executor pass while keeping the workspace's
//! determinism contract intact:
//!
//! * **Content-keyed seeds** ([`item_seed`]) — every item's RNG
//!   stream derives from the batch master seed and the dataset's
//!   *bytes*, so results are invariant under item reordering and
//!   duplicate datasets coalesce onto one fit.
//! * **Cross-dataset scheduling** ([`srm_mcmc::run_pool`]) — all
//!   `items × chains` work units share one worker pool; no
//!   per-dataset barrier.
//! * **Bit-identical results** ([`run_batch`]) — each item's draws,
//!   summaries, WAIC, and diagnostics are byte-identical to a lone
//!   `srm fit` of that dataset with the item's derived seed, for any
//!   thread count and any item ordering (proven in this crate's tests
//!   and the workspace `batch_determinism` battery).
//!
//! # Example
//!
//! ```
//! use srm_batch::{run_batch, BatchSpec};
//! use srm_core::FitConfig;
//! use srm_data::BugCountData;
//! use srm_mcmc::{McmcConfig, PriorSpec, RunOptions};
//! use srm_model::DetectionModel;
//!
//! let spec = BatchSpec {
//!     prior: PriorSpec::Poisson { lambda_max: 2_000.0 },
//!     model: DetectionModel::Constant,
//!     config: FitConfig {
//!         mcmc: McmcConfig { chains: 2, burn_in: 20, samples: 40, thin: 1, seed: 7 },
//!         ..FitConfig::default()
//!     },
//!     options: RunOptions::none(),
//! };
//! let items = vec![
//!     ("a".to_string(), BugCountData::new(vec![3, 1, 0, 2]).unwrap()),
//!     ("b".to_string(), BugCountData::new(vec![1, 1, 4]).unwrap()),
//! ];
//! let report = run_batch(&spec, &items, "batch-demo").unwrap();
//! assert_eq!(report.items.len(), 2);
//! assert!(report.items.iter().all(|i| i.fit.is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod report;
pub mod spec;

pub use executor::{run_batch, run_batch_traced};
pub use report::{BatchReport, ItemReport, ItemStatus};
pub use spec::{content_key, item_seed, BatchSpec};
