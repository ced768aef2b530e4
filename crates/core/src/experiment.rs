//! The full 2-priors × 5-models × observation-plan experiment.

use crate::fit::{Fit, FitConfig};
use srm_data::{BugCountData, ObservationPlan, ObservationPoint};
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::{run_pool, McmcConfig, RunOptions};
use srm_mcmc::{ChainReport, SrmError};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::{Event, Recorder, NOOP};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Identifies one cell of the experiment design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitKey {
    /// Which prior family.
    pub prior: PriorSpec,
    /// Which detection model.
    pub model: DetectionModel,
    /// Which observation point.
    pub observation: ObservationPoint,
}

/// Configuration of a full experiment sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The prior specifications to fit (both paper priors by default).
    pub priors: Vec<PriorSpec>,
    /// The detection models to fit (all five by default).
    pub models: Vec<DetectionModel>,
    /// MCMC run lengths per fit.
    pub mcmc: McmcConfig,
    /// Detection-parameter prior limits.
    pub zeta_bounds: ZetaBounds,
}

impl ExperimentConfig {
    /// The paper's design with the given run lengths.
    #[must_use]
    pub fn paper_design(mcmc: McmcConfig) -> Self {
        Self {
            priors: vec![
                PriorSpec::Poisson {
                    lambda_max: 2_000.0,
                },
                PriorSpec::NegBinomial { alpha_max: 100.0 },
            ],
            models: DetectionModel::ALL.to_vec(),
            mcmc,
            zeta_bounds: ZetaBounds::default(),
        }
    }

    /// A reduced design (both priors, models 0/1/3) for tests and
    /// quick demos.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self {
            priors: vec![
                PriorSpec::Poisson {
                    lambda_max: 2_000.0,
                },
                PriorSpec::NegBinomial { alpha_max: 100.0 },
            ],
            models: vec![
                DetectionModel::Constant,
                DetectionModel::PadgettSpurrier,
                DetectionModel::Pareto,
            ],
            mcmc: McmcConfig::smoke(seed),
            zeta_bounds: ZetaBounds::default(),
        }
    }
}

/// One completed cell: the key, the data window context, and the fit.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    /// Which design cell this is.
    pub key: FitKey,
    /// True residual bugs at the observation point (dataset total
    /// minus detected — the paper's comparison baseline).
    pub true_residual: u64,
    /// The Bayesian fit.
    pub fit: Fit,
    /// Per-chain recovery reports from the fault-tolerant runner
    /// (empty reports never occur: one entry per configured chain).
    pub chain_reports: Vec<ChainReport>,
}

impl ExperimentCell {
    /// Whether this cell lost at least one chain.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.chain_reports.iter().any(|r| !r.recovered)
    }
}

/// A design cell that produced no fit at all: every chain was lost,
/// the configuration was rejected, or the fit assembly panicked.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Which design cell failed.
    pub key: FitKey,
    /// The typed fault that took the cell down.
    pub error: SrmError,
}

/// All fits of an experiment, in (prior, model, observation) order.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    cells: Vec<ExperimentCell>,
    failures: Vec<CellFailure>,
}

impl ExperimentResults {
    /// All cells in design order.
    #[must_use]
    pub fn cells(&self) -> &[ExperimentCell] {
        &self.cells
    }

    /// Design cells that produced no fit, in design order.
    #[must_use]
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Whether any cell failed outright or lost a chain.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty() || self.cells.iter().any(ExperimentCell::is_degraded)
    }

    /// Aggregated fault counters across every cell, keyed by the
    /// kebab-case fault kind (see [`SrmError::kind`]). Counts both
    /// faults that retries recovered from and faults that lost a
    /// chain or a whole cell.
    #[must_use]
    pub fn fault_counters(&self) -> Vec<(String, usize)> {
        let mut counts = std::collections::BTreeMap::<String, usize>::new();
        for cell in &self.cells {
            for report in &cell.chain_reports {
                if let Some(fault) = &report.fault {
                    *counts.entry(fault.kind().to_owned()).or_insert(0) += 1;
                }
            }
        }
        for failure in &self.failures {
            *counts.entry(failure.error.kind().to_owned()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Total sweep retries across all cells and chains.
    #[must_use]
    pub fn total_retries(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|c| &c.chain_reports)
            .map(|r| r.retries)
            .sum()
    }

    /// Looks up one cell by prior label, model, and observation day.
    #[must_use]
    pub fn get(
        &self,
        prior_label: &str,
        model: DetectionModel,
        day: usize,
    ) -> Option<&ExperimentCell> {
        self.cells.iter().find(|c| {
            c.key.prior.label() == prior_label
                && c.key.model == model
                && c.key.observation.day() == day
        })
    }

    /// The observation days visited, in order.
    #[must_use]
    pub fn days(&self) -> Vec<usize> {
        let mut days: Vec<usize> = self.cells.iter().map(|c| c.key.observation.day()).collect();
        days.sort_unstable();
        days.dedup();
        days
    }
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct Experiment {
    data: BugCountData,
    plan: ObservationPlan,
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates an experiment over `data` with the paper's observation
    /// plan.
    #[must_use]
    pub fn new(data: BugCountData, config: ExperimentConfig) -> Self {
        let plan = ObservationPlan::paper_default(&data);
        Self { data, plan, config }
    }

    /// Overrides the observation plan.
    #[must_use]
    pub fn with_plan(mut self, plan: ObservationPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The dataset under analysis.
    #[must_use]
    pub fn data(&self) -> &BugCountData {
        &self.data
    }

    /// The observation plan.
    #[must_use]
    pub fn plan(&self) -> &ObservationPlan {
        &self.plan
    }

    /// Runs every design cell, panicking on the first failure (the
    /// strict historical behaviour). Delegates to [`Experiment::try_run`]
    /// with no retries, no fault injection and no recorder.
    ///
    /// # Panics
    ///
    /// Panics if the observation plan is invalid for the data (day 0)
    /// or any cell fails.
    #[must_use]
    pub fn run(&self) -> ExperimentResults {
        let results = match self.try_run(&RunOptions::none(), &NOOP) {
            Ok(results) => results,
            Err(e) => panic!("experiment configuration rejected: {e}"),
        };
        if let Some(failure) = results.failures.first() {
            panic!(
                "cell ({}, {:?}, day {}) failed: {}",
                failure.key.prior.label(),
                failure.key.model,
                failure.key.observation.day(),
                failure.error
            );
        }
        results
    }

    /// Runs every design cell under the fault-tolerant pipeline.
    /// Cells are independent; they run on the one work pool
    /// ([`run_pool`], auto-sized), and each fit seeds its chains from
    /// the experiment seed plus a per-cell offset, so results do not
    /// depend on scheduling. A cell whose every chain is lost — or
    /// that panics outside the chain loop — becomes a [`CellFailure`]
    /// instead of aborting the sweep, so the experiment degrades to
    /// partial output.
    ///
    /// Note: `options.fault_plan` addresses chains *within each
    /// fit*, so a plan built for `config.mcmc.chains` chains applies
    /// to every cell identically.
    ///
    /// Each design cell emits [`Event::CellStart`] / [`Event::CellEnd`]
    /// (or [`Event::CellFailure`] with the terminal fault kind) to
    /// `recorder`, which is also threaded into every cell's
    /// [`Fit::try_run_traced`]. Cells run on parallel worker threads,
    /// so sinks see their events interleaved; every event carries its
    /// own cell/chain coordinates. The results do not depend on the
    /// recorder.
    ///
    /// # Errors
    ///
    /// Returns [`SrmError::InvalidConfig`] when the observation plan
    /// is invalid for the data (day 0).
    pub fn try_run(
        &self,
        options: &RunOptions,
        recorder: &dyn Recorder,
    ) -> Result<ExperimentResults, SrmError> {
        let windows = self
            .plan
            .windows(&self.data)
            .map_err(|e| SrmError::InvalidConfig {
                detail: format!("observation plan invalid for data: {e:?}"),
            })?;

        // Materialise the work list first so each cell has a stable
        // seed offset.
        struct Job {
            key: FitKey,
            window: BugCountData,
            true_residual: u64,
            seed: u64,
        }
        let mut jobs = Vec::new();
        let mut offset = 0u64;
        for &prior in &self.config.priors {
            for &model in &self.config.models {
                for (point, window) in &windows {
                    jobs.push(Job {
                        key: FitKey {
                            prior,
                            model,
                            observation: *point,
                        },
                        window: window.clone(),
                        true_residual: point.true_residual(&self.data),
                        seed: self.config.mcmc.seed.wrapping_add(offset * 7_919),
                    });
                    offset += 1;
                }
            }
        }

        let config = &self.config;
        let slots = run_pool(jobs.len(), 0, |i| {
            let job = &jobs[i];
            let fit_config = FitConfig {
                mcmc: McmcConfig {
                    seed: job.seed,
                    ..config.mcmc
                },
                zeta_bounds: config.zeta_bounds,
            };
            let on = recorder.enabled();
            let cell_coords = || {
                (
                    job.key.prior.label().to_owned(),
                    format!("{:?}", job.key.model),
                    job.key.observation.day(),
                )
            };
            if on {
                let (prior, model, day) = cell_coords();
                recorder.record(&Event::CellStart { prior, model, day });
            }
            let started = std::time::Instant::now();
            // The chain loop is already panic-contained; this guard
            // catches panics from summary / diagnostics assembly so
            // the failure keeps its message.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Fit::try_run_traced(
                    job.key.prior,
                    job.key.model,
                    &job.window,
                    &fit_config,
                    options,
                    recorder,
                )
            }));
            let outcome = match outcome {
                Ok(Ok(tolerant)) => Ok(ExperimentCell {
                    key: job.key,
                    true_residual: job.true_residual,
                    fit: tolerant.fit,
                    chain_reports: tolerant.chain_reports,
                }),
                Ok(Err(error)) => Err(CellFailure {
                    key: job.key,
                    error,
                }),
                Err(payload) => Err(cell_panicked(
                    job.key,
                    &format!(
                        "fit assembly panicked: {}",
                        srm_mcmc::fault::panic_message(payload.as_ref())
                    ),
                )),
            };
            if on {
                let (prior, model, day) = cell_coords();
                match &outcome {
                    Ok(_) => recorder.record(&Event::CellEnd {
                        prior,
                        model,
                        day,
                        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
                    }),
                    Err(failure) => recorder.record(&Event::CellFailure {
                        prior,
                        model,
                        day,
                        kind: failure.error.kind().to_owned(),
                    }),
                }
            }
            outcome
        });

        let mut cells = Vec::new();
        let mut failures = Vec::new();
        for (job, slot) in jobs.iter().zip(slots) {
            // A missing slot: the cell panicked outside the guard above
            // (in a recorder), and is reported like a panicked fit.
            match slot.unwrap_or_else(|| Err(cell_panicked(job.key, "cell worker panicked"))) {
                Ok(cell) => cells.push(cell),
                Err(failure) => failures.push(failure),
            }
        }
        Ok(ExperimentResults { cells, failures })
    }
}

/// The failure of a cell that panicked outside the chain loop.
fn cell_panicked(key: FitKey, detail: &str) -> CellFailure {
    CellFailure {
        key,
        error: SrmError::DegeneratePosterior {
            detail: detail.to_owned(),
            sweep: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;

    fn tiny_experiment(seed: u64) -> Experiment {
        let mut config = ExperimentConfig::smoke(seed);
        config.models = vec![DetectionModel::Constant];
        config.mcmc = McmcConfig {
            chains: 1,
            burn_in: 100,
            samples: 200,
            thin: 1,
            seed,
        };
        let data = datasets::musa_cc96();
        Experiment::new(data, config).with_plan(ObservationPlan::from_days(&[48, 96, 146]))
    }

    #[test]
    fn runs_full_design_grid() {
        let results = tiny_experiment(61).run();
        // 2 priors × 1 model × 3 observation points.
        assert_eq!(results.cells().len(), 6);
        assert_eq!(results.days(), vec![48, 96, 146]);
        assert!(results
            .get("poisson", DetectionModel::Constant, 48)
            .is_some());
        assert!(results
            .get("negbinom", DetectionModel::Constant, 146)
            .is_some());
        assert!(results
            .get("poisson", DetectionModel::Weibull, 48)
            .is_none());
    }

    #[test]
    fn true_residuals_recorded() {
        let results = tiny_experiment(62).run();
        let c48 = results
            .get("poisson", DetectionModel::Constant, 48)
            .unwrap();
        assert_eq!(c48.true_residual, 94);
        let c96 = results
            .get("poisson", DetectionModel::Constant, 96)
            .unwrap();
        assert_eq!(c96.true_residual, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tiny_experiment(63).run();
        let b = tiny_experiment(63).run();
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert_eq!(ca.fit.residual, cb.fit.residual);
        }
    }

    #[test]
    fn injected_panic_degrades_not_aborts() {
        let mut config = ExperimentConfig::smoke(65);
        config.models = vec![DetectionModel::Constant];
        config.mcmc = McmcConfig {
            chains: 2,
            burn_in: 100,
            samples: 200,
            thin: 1,
            seed: 65,
        };
        let exp = Experiment::new(datasets::musa_cc96(), config)
            .with_plan(ObservationPlan::from_days(&[48]));
        let options = RunOptions {
            retry: srm_mcmc::RetryPolicy::none(),
            fault_plan: srm_mcmc::FaultPlan::new(vec![srm_mcmc::FaultPoint {
                chain: 1,
                sweep: 3,
                kind: srm_mcmc::FaultKind::Panic,
            }]),
            threads: 0,
            checkpoint_every: 0,
            profiler: None,
        };
        let results = exp.try_run(&options, &NOOP).unwrap();
        // 2 priors × 1 model × 1 day, each losing chain 1 of 2.
        assert!(results.failures().is_empty());
        assert_eq!(results.cells().len(), 2);
        assert!(results.is_degraded());
        assert!(results.cells().iter().all(ExperimentCell::is_degraded));
        assert_eq!(
            results.fault_counters(),
            vec![("chain-panicked".to_owned(), 2)]
        );
    }

    #[test]
    fn all_chains_lost_becomes_cell_failure() {
        let exp = tiny_experiment(66); // single-chain fits
        let options = RunOptions {
            retry: srm_mcmc::RetryPolicy::none(),
            fault_plan: srm_mcmc::FaultPlan::new(vec![srm_mcmc::FaultPoint {
                chain: 0,
                sweep: 2,
                kind: srm_mcmc::FaultKind::Panic,
            }]),
            threads: 0,
            checkpoint_every: 0,
            profiler: None,
        };
        let results = exp.try_run(&options, &NOOP).unwrap();
        // The only chain of every cell panics: no cells, all failures,
        // but the sweep itself completes.
        assert!(results.cells().is_empty());
        assert_eq!(results.failures().len(), 6);
        assert!(results.is_degraded());
        for failure in results.failures() {
            assert_eq!(failure.error.kind(), "chain-panicked");
        }
    }

    #[test]
    fn fault_free_try_run_matches_run() {
        let exp = tiny_experiment(67);
        let strict = exp.run();
        let tolerant = exp.try_run(&RunOptions::default(), &NOOP).unwrap();
        assert!(!tolerant.is_degraded());
        assert_eq!(tolerant.total_retries(), 0);
        for (a, b) in strict.cells().iter().zip(tolerant.cells()) {
            assert_eq!(a.fit.residual, b.fit.residual);
            assert_eq!(a.fit.waic.total().to_bits(), b.fit.waic.total().to_bits());
        }
    }

    #[test]
    fn posterior_shrinks_with_virtual_testing() {
        let results = tiny_experiment(64).run();
        let mean_at = |day: usize| {
            results
                .get("poisson", DetectionModel::Constant, day)
                .unwrap()
                .fit
                .residual
                .mean
        };
        assert!(
            mean_at(146) < mean_at(96),
            "virtual testing should shrink the posterior: {} vs {}",
            mean_at(96),
            mean_at(146)
        );
    }
}
