//! The SBC battery driver: replication scheduling, inner fits, rank
//! aggregation, and the uniformity gate.
//!
//! Replications are independent, so the harness parallelizes at the
//! (cell, rep) granularity on the workspace's one work pool
//! ([`srm_mcmc::run_pool`]); each inner fit runs its chains one at a
//! time (`threads: 1`) so the pool never oversubscribes the machine.
//! Every replication derives everything it needs — data, fit seed,
//! tie-break — from its own RNG stream
//! ([`crate::generative::rep_stream`]), so the report is bit-identical
//! under any worker count or scheduling order.

use std::time::Instant;

use srm_core::fit::{Fit, FitConfig};
use srm_core::{check_request, Request};
use srm_math::stats::chi2_gof;
use srm_mcmc::runner::{run_pool, McmcConfig, RunOptions};
use srm_mcmc::{RetryPolicy, SrmError};
use srm_obs::{Event, Recorder};

use crate::generative::{draw_rep, rep_stream};
use crate::grid::{Cell, GridSpec};
use crate::rank::{bin_index, rank_continuous, rank_discrete, thin_indices, thinned_len};
use crate::report::{CellReport, ParamCalibration, SbcReport};

/// Retry budget for faulted sweeps inside each replication's fit.
const REP_RETRIES: usize = 3;

/// Most replications per cell: 10× the 1,000 a full-scale SBC study
/// runs. The battery holds one outcome slot per (cell, rep), so an
/// unbounded count would ask for more memory than any host has.
const MAX_REPS: usize = 10_000;

/// Configuration of one SBC battery run.
#[derive(Debug, Clone)]
pub struct SbcConfig {
    /// The (prior × curve) grid and shared generative settings.
    pub grid: GridSpec,
    /// Replications per cell.
    pub reps: usize,
    /// Inner-fit MCMC configuration; `seed` is the battery's master
    /// seed (each replication derives its own fit seed from its
    /// stream, see [`crate::generative`]).
    pub mcmc: McmcConfig,
    /// Worker threads over replications (`0` = one per core).
    pub threads: usize,
    /// Bias added to every posterior `N` draw before ranking. Zero in
    /// real runs; nonzero simulates a miscalibrated sampler so tests
    /// can prove the gate trips.
    pub inject_bias: f64,
}

impl Default for SbcConfig {
    fn default() -> Self {
        Self {
            grid: GridSpec::default(),
            reps: 20,
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 300,
                samples: 500,
                thin: 1,
                seed: 2024,
            },
            threads: 0,
            inject_bias: 0.0,
        }
    }
}

/// Ranks produced by one successful replication.
struct RepRanks {
    /// `(name, rank)` in report order: `n` first, then the continuous
    /// truth parameters.
    ranks: Vec<(&'static str, usize)>,
    /// Wall time of the replication (draw + fit + ranking), ms.
    wall_ms: f64,
}

/// Outcome slot of one (cell, rep) task.
enum RepOutcome {
    Ranked(RepRanks),
    /// The inner fit errored, survived only degraded, or panicked.
    Failed {
        wall_ms: f64,
    },
}

/// Runs the battery described by `config`, emitting per-cell and
/// per-replication trace events through `recorder`.
///
/// # Errors
///
/// Returns [`SrmError::InvalidConfig`] on an invalid grid, `reps`
/// outside `1..=10_000`, an MCMC configuration or grid `theta_max`
/// that fails [`srm_core::check_request`] for any grid prior, or an
/// MCMC configuration whose pooled draw count is too small to thin
/// into `bins` rank bins.
/// Inner-fit faults never abort the battery — they count as
/// replication failures, which fail the affected cell's gate.
pub fn run_sbc(config: &SbcConfig, recorder: &dyn Recorder) -> Result<SbcReport, SrmError> {
    validate(config)?;
    let grid = &config.grid;
    let cells = grid.cells();
    let reps = config.reps;
    let pooled = config.mcmc.chains * config.mcmc.samples / config.mcmc.thin.max(1);
    // Guarded by validate(): pooled + 1 ≥ bins.
    let m = thinned_len(pooled, grid.bins).unwrap_or_else(|| unreachable!());
    let num_ranks = m + 1;

    if recorder.enabled() {
        for cell in &cells {
            recorder.record(&Event::SbcCellStart {
                prior: cell.prior.label().to_owned(),
                model: cell.model.name().to_owned(),
                reps,
            });
        }
    }

    let slots = run_pool(cells.len() * reps, config.threads, |task| {
        let (cell, rep) = (&cells[task / reps], task % reps);
        let outcome = run_rep(config, cell, rep, num_ranks, m);
        if recorder.enabled() {
            let rank = match &outcome {
                RepOutcome::Ranked(r) => r.ranks.first().map_or(num_ranks, |&(_, r)| r),
                RepOutcome::Failed { .. } => num_ranks,
            };
            recorder.record(&Event::SbcRepDone {
                prior: cell.prior.label().to_owned(),
                model: cell.model.name().to_owned(),
                rep,
                rank,
                num_ranks,
            });
        }
        outcome
    });
    // A replication that panicked counts as failed, which fails its
    // cell's gate like any other failure.
    let outcomes: Vec<RepOutcome> = slots
        .into_iter()
        .map(|slot| slot.unwrap_or(RepOutcome::Failed { wall_ms: 0.0 }))
        .collect();

    let mut cell_reports = Vec::with_capacity(cells.len());
    for (cell, outcomes) in cells.iter().zip(outcomes.chunks(reps)) {
        let report = aggregate_cell(grid, cell, outcomes, num_ranks);
        if recorder.enabled() {
            let wall_ms = outcomes
                .iter()
                .map(|o| match o {
                    RepOutcome::Ranked(r) => r.wall_ms,
                    RepOutcome::Failed { wall_ms } => *wall_ms,
                })
                .sum();
            let n = report.params.first();
            recorder.record(&Event::SbcCellDone {
                prior: report.prior.clone(),
                model: report.model.clone(),
                reps,
                failures: report.failures,
                chi2: n.map_or(0.0, |p| p.chi2),
                p_value: n.map_or(0.0, |p| p.p_value),
                passed: report.passed,
                wall_ms,
            });
        }
        cell_reports.push(report);
    }

    Ok(SbcReport {
        master_seed: config.mcmc.seed,
        reps,
        bins: grid.bins,
        alpha: grid.alpha,
        inject_bias: config.inject_bias,
        mcmc: config.mcmc,
        grid: grid.clone(),
        cells: cell_reports,
    })
}

fn validate(config: &SbcConfig) -> Result<(), SrmError> {
    config
        .grid
        .validate()
        .map_err(|detail| SrmError::InvalidConfig { detail })?;
    if config.reps == 0 {
        return Err(SrmError::InvalidConfig {
            detail: "sbc reps must be at least 1".into(),
        });
    }
    if config.reps > MAX_REPS {
        return Err(SrmError::InvalidConfig {
            detail: format!("sbc reps must be at most {MAX_REPS}, got {}", config.reps),
        });
    }
    if !config.inject_bias.is_finite() {
        return Err(SrmError::InvalidConfig {
            detail: "sbc inject-bias must be finite".into(),
        });
    }
    // `Select` also holds the grid's `theta_max` above the sampler's
    // `OPEN_EPS` margin, as a model1 cell needs.
    let request = Request::Select {
        theta_max: config.grid.zeta_bounds.theta_max,
    };
    for prior in &config.grid.priors {
        check_request(request, prior, &config.mcmc)
            .map_err(|detail| SrmError::InvalidConfig { detail })?;
    }
    let pooled = config.mcmc.chains * config.mcmc.samples / config.mcmc.thin;
    if thinned_len(pooled, config.grid.bins).is_none() {
        return Err(SrmError::InvalidConfig {
            detail: format!(
                "pooled draw count {pooled} is too small for {} rank bins",
                config.grid.bins
            ),
        });
    }
    Ok(())
}

/// Draws, fits, and ranks one replication.
fn run_rep(config: &SbcConfig, cell: &Cell, rep: usize, num_ranks: usize, m: usize) -> RepOutcome {
    let start = Instant::now();
    let mut rng = rep_stream(config.mcmc.seed, cell, config.reps as u64, rep as u64);
    let drawn = draw_rep(cell, &config.grid, &mut rng);

    let fit_config = FitConfig {
        mcmc: McmcConfig {
            seed: drawn.fit_seed,
            ..config.mcmc
        },
        zeta_bounds: config.grid.zeta_bounds,
    };
    let options = RunOptions {
        retry: RetryPolicy {
            max_retries: REP_RETRIES,
        },
        // One chain at a time — the replication pool already
        // saturates the cores.
        threads: 1,
        ..RunOptions::none()
    };
    let fit = match Fit::try_run(
        cell.prior,
        cell.model,
        &drawn.project.data,
        &fit_config,
        &options,
    ) {
        Ok(fit) if !fit.is_degraded() => fit.fit,
        // A lost chain would shrink the pooled draw count and break
        // the shared rank scale, so degraded runs count as failures.
        _ => {
            return RepOutcome::Failed {
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            }
        }
    };

    let thin = |draws: &[f64]| -> Vec<f64> {
        thin_indices(draws.len(), m)
            .iter()
            .map(|&i| draws[i])
            .collect()
    };
    let mut ranks = Vec::with_capacity(1 + drawn.truth.params.len());
    let mut n_draws = fit.output.pooled("n");
    debug_assert_eq!(num_ranks, m + 1);
    if config.inject_bias != 0.0 {
        for d in &mut n_draws {
            *d += config.inject_bias;
        }
    }
    ranks.push((
        "n",
        rank_discrete(&thin(&n_draws), drawn.truth.n as f64, drawn.tie_u),
    ));
    for &(name, truth) in &drawn.truth.params {
        let draws = fit.output.pooled(name);
        ranks.push((name, rank_continuous(&thin(&draws), truth)));
    }

    RepOutcome::Ranked(RepRanks {
        ranks,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Bins one cell's ranks, runs the chi-square gate, and assembles the
/// cell report.
fn aggregate_cell(
    grid: &GridSpec,
    cell: &Cell,
    outcomes: &[RepOutcome],
    num_ranks: usize,
) -> CellReport {
    let bins = grid.bins;
    let successes: Vec<&RepRanks> = outcomes
        .iter()
        .filter_map(|o| match o {
            RepOutcome::Ranked(r) => Some(r),
            RepOutcome::Failed { .. } => None,
        })
        .collect();
    let failures = outcomes.len() - successes.len();
    let n_ranks: Vec<usize> = outcomes
        .iter()
        .map(|o| match o {
            RepOutcome::Ranked(r) => r.ranks.first().map_or(num_ranks, |&(_, rank)| rank),
            RepOutcome::Failed { .. } => num_ranks,
        })
        .collect();

    let param_names: Vec<&'static str> = successes
        .first()
        .map(|r| r.ranks.iter().map(|&(name, _)| name).collect())
        .unwrap_or_default();
    let mut params = Vec::with_capacity(param_names.len());
    for (slot, name) in param_names.iter().enumerate() {
        let mut histogram = vec![0u64; bins];
        for rep in &successes {
            let (_, rank) = rep.ranks[slot];
            histogram[bin_index(rank, num_ranks, bins)] += 1;
        }
        let observed: Vec<f64> = histogram.iter().map(|&c| c as f64).collect();
        let expected = vec![successes.len() as f64 / bins as f64; bins];
        // chi2_gof needs positive expected counts; with zero
        // successes the gate already fails via `failures`.
        let (chi2, p_value) = if successes.is_empty() {
            (0.0, 0.0)
        } else {
            chi2_gof(&observed, &expected, 0)
        };
        let gated = *name == "n";
        params.push(ParamCalibration {
            name: (*name).to_owned(),
            histogram,
            chi2,
            p_value,
            gated,
            passed: p_value >= grid.alpha,
        });
    }

    let passed = failures == 0 && params.iter().filter(|p| p.gated).all(|p| p.passed);
    CellReport {
        prior: cell.prior.label().to_owned(),
        model: cell.model.name().to_owned(),
        cell_id: cell.id(),
        reps: outcomes.len(),
        failures,
        num_ranks,
        n_ranks,
        params,
        passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_mcmc::gibbs::PriorSpec;
    use srm_model::DetectionModel;
    use srm_obs::NOOP;

    fn tiny_config() -> SbcConfig {
        SbcConfig {
            grid: GridSpec {
                days: 12,
                priors: vec![PriorSpec::Poisson { lambda_max: 60.0 }],
                models: vec![DetectionModel::Constant],
                lambda_max: 60.0,
                alpha_max: 8.0,
                bins: 4,
                alpha: 0.001,
                ..GridSpec::default()
            },
            reps: 6,
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 50,
                samples: 60,
                thin: 1,
                seed: 4242,
            },
            threads: 2,
            inject_bias: 0.0,
        }
    }

    #[test]
    fn battery_is_deterministic_across_thread_counts() {
        let mut config = tiny_config();
        let a = run_sbc(&config, &NOOP).unwrap_or_else(|_| unreachable!());
        config.threads = 1;
        let b = run_sbc(&config, &NOOP).unwrap_or_else(|_| unreachable!());
        assert_eq!(a.to_value().to_json_pretty(), b.to_value().to_json_pretty());
        assert_eq!(a.cells.len(), 1);
        assert_eq!(a.cells[0].n_ranks.len(), 6);
        assert_eq!(a.cells[0].num_ranks % a.bins, 0);
    }

    #[test]
    fn negbinom_zero_bug_draws_survive_the_fit_path() {
        // The NB prior has an atom at N = 0 (all-zero datasets); the
        // battery must rank them, not crash.
        let mut config = tiny_config();
        config.grid.priors = vec![PriorSpec::NegBinomial { alpha_max: 8.0 }];
        config.reps = 4;
        let report = run_sbc(&config, &NOOP).unwrap_or_else(|_| unreachable!());
        assert_eq!(report.cells[0].reps, 4);
    }

    #[test]
    fn injected_bias_trips_the_gate() {
        let mut config = tiny_config();
        config.reps = 16;
        config.inject_bias = 1.0e6;
        let report = run_sbc(&config, &NOOP).unwrap_or_else(|_| unreachable!());
        // Every posterior draw is pushed far above the truth, so all
        // ranks land in bin 0 — maximally non-uniform.
        assert!(!report.all_passed());
        let n = &report.cells[0].params[0];
        assert!(n.p_value < config.grid.alpha);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = tiny_config();
        config.reps = 0;
        assert!(run_sbc(&config, &NOOP).is_err());

        let mut config = tiny_config();
        config.mcmc.samples = 1;
        config.grid.bins = 10;
        assert!(matches!(
            run_sbc(&config, &NOOP),
            Err(SrmError::InvalidConfig { .. })
        ));

        let mut config = tiny_config();
        config.grid.models.clear();
        assert!(run_sbc(&config, &NOOP).is_err());

        let mut config = tiny_config();
        config.inject_bias = f64::NAN;
        assert!(run_sbc(&config, &NOOP).is_err());

        // Past the caps each is refused before anything is allocated.
        let rejects = |config: &SbcConfig, needle: &str| {
            let Err(SrmError::InvalidConfig { detail }) = run_sbc(config, &NOOP) else {
                panic!("accepted a config that breaks `{needle}`");
            };
            assert!(detail.contains(needle), "{detail}");
        };
        let mut config = tiny_config();
        config.reps = MAX_REPS + 1;
        rejects(&config, "sbc reps must be at most 10000");
        let mut config = tiny_config();
        config.mcmc.samples = 4_294_967_295;
        rejects(&config, "must be at most 1000000 kept draws");
        let mut config = tiny_config();
        config.mcmc.chains = 100_000;
        rejects(&config, "`chains` must be at most 64");
        let mut config = tiny_config();
        config.grid.priors = vec![PriorSpec::NegBinomial { alpha_max: 1e100 }];
        rejects(&config, "`alpha_max` must be at most 1e6");
    }

    #[test]
    fn theta_max_inside_the_open_margin_is_refused() {
        // A model1 chain keeps `θ` in `(OPEN_EPS, θ_max)`; at or below
        // the margin that box is empty.
        let mut config = tiny_config();
        config.grid.models = vec![DetectionModel::PadgettSpurrier];
        config.grid.zeta_bounds.theta_max = 1e-300;
        let Err(SrmError::InvalidConfig { detail }) = run_sbc(&config, &NOOP) else {
            panic!("accepted a theta_max below OPEN_EPS");
        };
        assert!(
            detail.contains("`theta_max` must be above OPEN_EPS"),
            "{detail}"
        );
    }
}
