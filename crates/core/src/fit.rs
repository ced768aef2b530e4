//! One Bayesian fit: sampler run + summaries + diagnostics + WAIC.

use srm_data::BugCountData;
use srm_mcmc::diagnostics::{report, DiagnosticsReport};
use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
use srm_mcmc::runner::{run_chains_fault_tolerant_traced, McmcConfig, McmcOutput, RunOptions};
use srm_mcmc::{ChainReport, PosteriorSummary, SrmError};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::{Event, Recorder, Span, NOOP};
use srm_select::waic::{waic_from_output, Waic};

/// Configuration of a single fit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitConfig {
    /// MCMC run lengths and seed.
    pub mcmc: McmcConfig,
    /// Uniform-prior limits on the detection parameters.
    pub zeta_bounds: ZetaBounds,
}

/// A fit produced by the fault-tolerant pipeline: the fit itself plus
/// the per-chain recovery reports, so callers can tell a pristine run
/// from a degraded one.
#[derive(Debug, Clone)]
pub struct FaultTolerantFit {
    /// The assembled fit (over surviving chains only).
    pub fit: Fit,
    /// One report per configured chain, in chain order.
    pub chain_reports: Vec<ChainReport>,
}

impl FaultTolerantFit {
    /// Whether at least one chain was lost.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.chain_reports.iter().any(|r| !r.recovered)
    }

    /// Total retries across all chains (recovered or not).
    #[must_use]
    pub fn total_retries(&self) -> usize {
        self.chain_reports.iter().map(|r| r.retries).sum()
    }
}

/// The result of one Bayesian fit.
#[derive(Debug, Clone)]
pub struct Fit {
    /// The prior that was fitted.
    pub prior: PriorSpec,
    /// The detection model that was fitted.
    pub model: DetectionModel,
    /// Posterior summary of the residual bug count (the quantity the
    /// paper's Tables II–V report).
    pub residual: PosteriorSummary,
    /// The pooled residual draws (box plots, custom quantiles).
    pub residual_draws: Vec<f64>,
    /// WAIC of the fit.
    pub waic: Waic,
    /// Convergence diagnostics per monitored parameter.
    pub diagnostics: Vec<(String, DiagnosticsReport)>,
    /// The full chains, for downstream analyses.
    pub output: McmcOutput,
}

impl Fit {
    /// Runs the Gibbs sampler and assembles the fit. Strict wrapper
    /// over [`Fit::try_run`] with no retries and no fault injection.
    ///
    /// # Panics
    ///
    /// Panics if any chain faults or the configuration is rejected.
    #[must_use]
    pub fn run(
        prior: PriorSpec,
        model: DetectionModel,
        data: &BugCountData,
        config: &FitConfig,
    ) -> Self {
        match Self::try_run(prior, model, data, config, &RunOptions::none()) {
            Ok(tolerant) => {
                if let Some(report) = tolerant.chain_reports.iter().find(|r| !r.recovered) {
                    panic!("{report}");
                }
                tolerant.fit
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the sampler under the fault-tolerant runner and assembles
    /// a fit from whatever chains survive.
    ///
    /// WAIC is replayed from the surviving chains' stored draws
    /// ([`srm_select::waic::waic_from_output`]); on fault-free runs
    /// the result is bit-identical for any retry budget and thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns the first chain's fault when every chain is lost, and
    /// propagates configuration and replay errors as [`SrmError`].
    pub fn try_run(
        prior: PriorSpec,
        model: DetectionModel,
        data: &BugCountData,
        config: &FitConfig,
        options: &RunOptions,
    ) -> Result<FaultTolerantFit, SrmError> {
        Self::try_run_traced(prior, model, data, config, options, &NOOP)
    }

    /// [`Fit::try_run`] with instrumentation: the sampling, WAIC,
    /// summary and diagnostics phases run under [`Span`]s, chain
    /// events flow through `recorder`, and each monitored parameter's
    /// final convergence diagnostics are emitted as
    /// [`Event::Diagnostic`]. With a disabled recorder (the default
    /// [`NOOP`]) the numeric output is bit-identical to
    /// [`Fit::try_run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Fit::try_run`].
    pub fn try_run_traced(
        prior: PriorSpec,
        model: DetectionModel,
        data: &BugCountData,
        config: &FitConfig,
        options: &RunOptions,
        recorder: &dyn Recorder,
    ) -> Result<FaultTolerantFit, SrmError> {
        let sampler = GibbsSampler::new(prior, model, config.zeta_bounds, data);
        let span = Span::enter(recorder, "sampling");
        let run = run_chains_fault_tolerant_traced(&sampler, &config.mcmc, options, recorder)?;
        span.end();
        Self::from_run_traced(prior, model, &sampler, run, recorder)
    }

    /// Assembles a [`FaultTolerantFit`] from an externally produced
    /// run: WAIC is replayed from the surviving chains, the residual
    /// summary and convergence diagnostics are computed under
    /// [`Span`]s, and each parameter's diagnostics are emitted as
    /// [`Event::Diagnostic`] — the exact tail of
    /// [`Fit::try_run_traced`] after its sampling phase. External
    /// schedulers (the cross-dataset batch executor) pair this with
    /// [`srm_mcmc::assemble_run`] to build fits bit-identical to the
    /// single-dataset path.
    ///
    /// `sampler` must be the sampler the run was drawn from.
    ///
    /// # Errors
    ///
    /// Same contract as [`Fit::try_run`].
    pub fn from_run_traced(
        prior: PriorSpec,
        model: DetectionModel,
        sampler: &GibbsSampler,
        run: srm_mcmc::FaultTolerantRun,
        recorder: &dyn Recorder,
    ) -> Result<FaultTolerantFit, SrmError> {
        let waic = waic_from_output(sampler, &run.output, recorder)?;

        let span = Span::enter(recorder, "summary");
        let residual_draws = run.output.pooled("residual");
        if residual_draws.is_empty() {
            return Err(SrmError::DegeneratePosterior {
                detail: "surviving chains hold no residual draws".into(),
                sweep: 0,
            });
        }
        let residual = PosteriorSummary::from_draws(&residual_draws);
        span.end();

        let span = Span::enter(recorder, "diagnostics");
        let mut diagnostics = Vec::new();
        if run.output.chains.len() >= 2 {
            for name in run.output.names().to_vec() {
                if let Ok(per_chain) = run.output.per_chain(&name) {
                    diagnostics.push((name.clone(), report(&per_chain)));
                }
            }
        }
        span.end();
        if recorder.enabled() {
            for (name, d) in &diagnostics {
                recorder.record(&Event::Diagnostic {
                    parameter: name.clone(),
                    psrf: d.psrf,
                    geweke_z: d.geweke_z,
                    ess: d.ess,
                });
            }
        }

        Ok(FaultTolerantFit {
            fit: Self {
                prior,
                model,
                residual,
                residual_draws,
                waic,
                diagnostics,
                output: run.output,
            },
            chain_reports: run.reports,
        })
    }

    /// Whether every monitored parameter passed PSRF < 1.1 and
    /// |Geweke Z| < 1.96 (vacuously true for single-chain runs, which
    /// produce no PSRF).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.diagnostics.iter().all(|(_, d)| d.converged())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;
    use srm_mcmc::{FaultKind, FaultPlan, FaultPoint, RetryPolicy};

    fn smoke_fit(prior: PriorSpec, model: DetectionModel, seed: u64) -> Fit {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let config = FitConfig {
            mcmc: McmcConfig::smoke(seed),
            ..FitConfig::default()
        };
        Fit::run(prior, model, &data, &config)
    }

    #[test]
    fn fit_bundles_consistent_pieces() {
        let fit = smoke_fit(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            51,
        );
        assert_eq!(fit.residual_draws.len(), 1_000); // 2 chains × 500
        assert_eq!(fit.residual.count, 1_000);
        assert!(fit.waic.total().is_finite());
        assert!(!fit.diagnostics.is_empty());
        assert!(fit.diagnostics.iter().any(|(name, _)| name == "residual"));
    }

    #[test]
    fn single_chain_fit_has_no_diagnostics() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let config = FitConfig {
            mcmc: McmcConfig {
                chains: 1,
                burn_in: 100,
                samples: 200,
                thin: 1,
                seed: 53,
            },
            ..FitConfig::default()
        };
        let fit = Fit::run(
            PriorSpec::Poisson {
                lambda_max: 1_000.0,
            },
            DetectionModel::Constant,
            &data,
            &config,
        );
        assert!(fit.diagnostics.is_empty());
        assert!(fit.converged()); // vacuous
    }

    #[test]
    fn try_run_is_bit_identical_across_threads_and_retry_budgets() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let config = FitConfig {
            mcmc: McmcConfig::smoke(61),
            ..FitConfig::default()
        };
        let prior = PriorSpec::Poisson {
            lambda_max: 2_000.0,
        };
        let model = DetectionModel::Constant;
        let reference = Fit::run(prior, model, &data, &config);
        for options in [RunOptions::default(), RunOptions::with_threads(1)] {
            let tolerant = Fit::try_run(prior, model, &data, &config, &options).unwrap();
            assert!(!tolerant.is_degraded());
            assert_eq!(tolerant.total_retries(), 0);
            // Bit-identical draws and a bit-identical replayed WAIC.
            assert_eq!(reference.residual_draws, tolerant.fit.residual_draws);
            assert_eq!(reference.waic, tolerant.fit.waic);
            assert_eq!(
                reference.residual.mean.to_bits(),
                tolerant.fit.residual.mean.to_bits()
            );
        }
    }

    #[test]
    fn try_run_survives_an_injected_chain_panic() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let config = FitConfig {
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 100,
                samples: 200,
                thin: 1,
                seed: 62,
            },
            ..FitConfig::default()
        };
        let options = RunOptions {
            retry: RetryPolicy::none(),
            fault_plan: FaultPlan::new(vec![FaultPoint {
                chain: 1,
                sweep: 5,
                kind: FaultKind::Panic,
            }]),
            threads: 0,
            checkpoint_every: 0,
            profiler: None,
        };
        let out = Fit::try_run(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            &data,
            &config,
            &options,
        )
        .unwrap();
        assert!(out.is_degraded());
        assert_eq!(out.fit.output.chains.len(), 1);
        assert_eq!(out.fit.residual_draws.len(), 200);
        assert!(out.fit.waic.total().is_finite());
        let failed: Vec<usize> = out
            .chain_reports
            .iter()
            .filter(|r| !r.recovered)
            .map(|r| r.chain)
            .collect();
        assert_eq!(failed, vec![1]);
    }

    #[test]
    fn model1_posterior_tighter_than_model3() {
        // The paper's Table V: model1's posterior sd is far below
        // model3's at every observation point.
        let sd1 = smoke_fit(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::PadgettSpurrier,
            54,
        )
        .residual
        .sd;
        let sd3 = smoke_fit(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Pareto,
            55,
        )
        .residual
        .sd;
        assert!(sd1 < sd3, "sd(model1) = {sd1} vs sd(model3) = {sd3}");
    }
}
