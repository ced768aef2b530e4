//! WAIC-driven hyper-parameter tuning followed by a final fit.
//!
//! The paper determines `λ_max`, `α_max` and `θ_max` by minimising
//! WAIC; this module wires [`srm_select::grid::GridSearch`] to a
//! final, longer run at the winning limits.

use crate::fit::{Fit, FitConfig};
use srm_data::BugCountData;
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::McmcConfig;
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::{Recorder, Span};
use srm_select::grid::{GridSearch, GridSearchResult};

/// A fit whose hyper-prior limits were selected by grid search.
#[derive(Debug, Clone)]
pub struct TunedFit {
    /// The grid-search trace (all candidate limits and their WAIC).
    pub search: GridSearchResult,
    /// The final fit at the winning limits.
    pub fit: Fit,
}

/// Tunes the hyper-prior limits by WAIC grid search, then refits with
/// the supplied (usually longer) MCMC configuration.
///
/// `poisson_prior` selects the prior family; the winning grid cell
/// fixes `λ_max`/`α_max` and `θ_max`. The grid search and the final
/// refit run under `grid-search` / `final-fit` phase [`Span`]s of
/// `recorder`; the result does not depend on the recorder.
#[must_use]
pub fn tuned_fit(
    poisson_prior: bool,
    model: DetectionModel,
    data: &BugCountData,
    search: &GridSearch,
    final_mcmc: McmcConfig,
    recorder: &dyn Recorder,
) -> TunedFit {
    let span = Span::enter(recorder, "grid-search");
    let result = search.run(poisson_prior, model, data);
    span.end();
    let best = result.best.clone();
    let prior = if poisson_prior {
        PriorSpec::Poisson {
            lambda_max: best.prior_limit,
        }
    } else {
        PriorSpec::NegBinomial {
            alpha_max: best.prior_limit,
        }
    };
    let config = FitConfig {
        mcmc: final_mcmc,
        zeta_bounds: ZetaBounds {
            theta_max: best.theta_max,
            gamma_max: best.theta_max.max(1.0),
        },
    };
    let span = Span::enter(recorder, "final-fit");
    let fit = Fit::run(prior, model, data, &config);
    span.end();
    TunedFit {
        search: result,
        fit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;

    #[test]
    fn tuned_fit_uses_winning_cell() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let search = GridSearch {
            prior_limits: vec![400.0, 4_000.0],
            theta_maxes: vec![5.0],
            mcmc: McmcConfig {
                chains: 1,
                burn_in: 100,
                samples: 200,
                thin: 1,
                seed: 71,
            },
        };
        let tuned = tuned_fit(
            true,
            DetectionModel::Constant,
            &data,
            &search,
            McmcConfig {
                chains: 1,
                burn_in: 150,
                samples: 300,
                thin: 1,
                seed: 72,
            },
            &srm_obs::NOOP,
        );
        assert_eq!(tuned.search.cells.len(), 2);
        match tuned.fit.prior {
            PriorSpec::Poisson { lambda_max } => {
                assert_eq!(lambda_max, tuned.search.best.prior_limit);
            }
            PriorSpec::NegBinomial { .. } => panic!("wrong prior family"),
        }
        assert_eq!(tuned.fit.residual_draws.len(), 300);
    }

    #[test]
    fn nb_family_selected_when_requested() {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        let search = GridSearch {
            prior_limits: vec![30.0],
            theta_maxes: vec![5.0],
            mcmc: McmcConfig {
                chains: 1,
                burn_in: 80,
                samples: 150,
                thin: 1,
                seed: 73,
            },
        };
        let tuned = tuned_fit(
            false,
            DetectionModel::Constant,
            &data,
            &search,
            McmcConfig {
                chains: 1,
                burn_in: 80,
                samples: 150,
                thin: 1,
                seed: 74,
            },
            &srm_obs::NOOP,
        );
        assert!(matches!(
            tuned.fit.prior,
            PriorSpec::NegBinomial { alpha_max } if alpha_max == 30.0
        ));
    }
}
