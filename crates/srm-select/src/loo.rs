//! Importance-sampling leave-one-out cross-validation.
//!
//! WAIC is asymptotically equivalent to Bayesian LOO-CV (Watanabe
//! 2010 — the very paper the SRM study cites); this module computes
//! the IS-LOO estimate directly from the same posterior draws so the
//! equivalence can be checked empirically:
//!
//! ```text
//! elpd_loo,i = ln ( 1 / mean_ω[ 1 / p(x_i | ω) ] )
//! ```
//!
//! Raw importance ratios `1/p(x_i|ω)` can have infinite variance;
//! we stabilise them by truncation at `√S · mean` (Ionides 2008),
//! the standard pre-PSIS remedy.

use crate::waic::{reconstruct_data, replay};
use srm_math::special::LnFactorialTable;
use srm_mcmc::gibbs::GibbsSampler;
use srm_mcmc::runner::{run_chains, McmcConfig, McmcOutput};
use srm_mcmc::SrmError;
use srm_model::{DayLogs, GroupedLikelihood};

/// Streaming IS-LOO accumulator over posterior draws.
///
/// Memory is O(observations × draws) for the log-ratio buffers (the
/// truncation point depends on the whole sample, so ratios cannot be
/// reduced online).
#[derive(Debug, Clone)]
pub struct LooAccumulator {
    lik: GroupedLikelihood,
    /// `ln k!` for the pointwise terms, read without a lock.
    ln_fact: LnFactorialTable,
    /// `ln p(x_i | ω)` per observation per draw.
    log_terms: Vec<Vec<f64>>,
}

impl LooAccumulator {
    /// Creates an accumulator for the given data window.
    #[must_use]
    pub fn new(data: &srm_data::BugCountData) -> Self {
        let lik = GroupedLikelihood::new(data);
        let k = lik.horizon();
        Self {
            lik,
            ln_fact: LnFactorialTable::default(),
            log_terms: vec![Vec::new(); k],
        }
    }

    /// Feeds one posterior draw: `N` and the day logs of its
    /// detection schedule, as for [`crate::waic::WaicAccumulator::add_draw`].
    pub fn add_draw(&mut self, n: u64, days: &[DayLogs]) {
        self.ln_fact.cover(n);
        for (index, &logs) in days[..self.lik.horizon()].iter().enumerate() {
            let term = self
                .lik
                .ln_pointwise_term(n, index + 1, logs, &self.ln_fact);
            self.log_terms[index].push(term);
        }
    }

    /// Number of draws consumed.
    #[must_use]
    pub fn draws(&self) -> usize {
        self.log_terms.first().map_or(0, Vec::len)
    }

    /// Finalises the estimate.
    ///
    /// # Panics
    ///
    /// Panics when no draws were fed.
    #[must_use]
    pub fn finish(&self) -> Loo {
        let draws = self.draws();
        assert!(draws > 0, "LOO requires at least one draw");
        let sqrt_s = (draws as f64).sqrt();
        let mut elpd = 0.0;
        let mut pointwise = Vec::with_capacity(self.log_terms.len());
        for terms in &self.log_terms {
            // Log importance ratios are −ln p; truncate at
            // ln(mean ratio) + ln √S in log space.
            let log_ratios: Vec<f64> = terms.iter().map(|&lp| -lp).collect();
            let log_mean_ratio = srm_math::log_mean_exp(&log_ratios);
            let cap = log_mean_ratio + sqrt_s.ln();
            let truncated: Vec<f64> = log_ratios.iter().map(|&lr| lr.min(cap)).collect();
            let elpd_i = -srm_math::log_mean_exp(&truncated);
            pointwise.push(elpd_i);
            elpd += elpd_i;
        }
        Loo { elpd, pointwise }
    }
}

/// The finalised IS-LOO estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Loo {
    /// Estimated expected log pointwise predictive density,
    /// `Σ_i elpd_loo,i`.
    pub elpd: f64,
    /// The per-observation contributions.
    pub pointwise: Vec<f64>,
}

impl Loo {
    /// On the paper's Table I scale (`−elpd`, comparable to
    /// [`crate::waic::Waic::total`]).
    #[must_use]
    pub fn information_criterion(&self) -> f64 {
        -self.elpd
    }
}

/// Runs the chains (see [`run_chains`]) and returns IS-LOO replayed
/// from their stored draws.
///
/// # Panics
///
/// Panics if a chain faults or the replay fails.
#[must_use]
pub fn loo_for(sampler: &GibbsSampler, config: &McmcConfig) -> Loo {
    match loo_from_output(sampler, &run_chains(sampler, config)) {
        Ok(loo) => loo,
        Err(e) => panic!("{e}"),
    }
}

/// Replays recorded chains through a fresh LOO accumulator — the same
/// stored-draw replay as [`crate::waic::waic_from_output`], so both
/// criteria see identical draws in identical order.
///
/// # Errors
///
/// As [`crate::waic::waic_from_output`]: a missing `n` or `ζ` column,
/// a stored `ζ` outside the model's domain, or no draws at all.
pub fn loo_from_output(sampler: &GibbsSampler, output: &McmcOutput) -> Result<Loo, SrmError> {
    let mut acc = LooAccumulator::new(&reconstruct_data(sampler));
    replay(sampler, output, "LOO", |n, days| acc.add_draw(n, days))?;
    Ok(acc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waic::waic_for;
    use srm_data::datasets;
    use srm_mcmc::gibbs::PriorSpec;
    use srm_model::{DetectionModel, ZetaBounds};

    fn sampler(model: DetectionModel) -> (GibbsSampler, srm_data::BugCountData) {
        let data = datasets::musa_cc96().truncated(48).unwrap();
        (
            GibbsSampler::new(
                PriorSpec::Poisson {
                    lambda_max: 2_000.0,
                },
                model,
                ZetaBounds::default(),
                &data,
            ),
            data,
        )
    }

    #[test]
    fn loo_close_to_waic() {
        // Watanabe's asymptotic equivalence: the two criteria should
        // be close on the same draws (not identical at finite S).
        let (s, _) = sampler(DetectionModel::Constant);
        let config = McmcConfig::smoke(71);
        let waic = waic_for(&s, &config);
        let loo = loo_for(&s, &config);
        let rel = (loo.information_criterion() - waic.total()).abs() / waic.total();
        assert!(
            rel < 0.1,
            "LOO {} vs WAIC {} (rel {rel})",
            loo.information_criterion(),
            waic.total()
        );
    }

    #[test]
    fn loo_ranks_model1_over_model3() {
        let config = McmcConfig::smoke(72);
        let (s1, _) = sampler(DetectionModel::PadgettSpurrier);
        let (s3, _) = sampler(DetectionModel::Pareto);
        let l1 = loo_for(&s1, &config);
        let l3 = loo_for(&s3, &config);
        assert!(
            l1.information_criterion() < l3.information_criterion(),
            "model1 {} vs model3 {}",
            l1.information_criterion(),
            l3.information_criterion()
        );
    }

    #[test]
    fn pointwise_sums_to_total() {
        let (s, _) = sampler(DetectionModel::Constant);
        let loo = loo_for(&s, &McmcConfig::smoke(73));
        let sum: f64 = loo.pointwise.iter().sum();
        assert!((sum - loo.elpd).abs() < 1e-9);
        assert_eq!(loo.pointwise.len(), 48);
    }

    #[test]
    #[should_panic(expected = "at least one draw")]
    fn empty_accumulator_panics() {
        let data = datasets::musa_cc96().truncated(5).unwrap();
        let _ = LooAccumulator::new(&data).finish();
    }

    #[test]
    fn replayed_terms_match_direct_form_pointwise() {
        use crate::waic::reference;
        use srm_math::special::LN_FACTORIAL_CACHE_LIMIT;
        for (sampler, output) in reference::cases() {
            let mut acc = LooAccumulator::new(&reconstruct_data(&sampler));
            replay(&sampler, &output, "LOO", |n, days| acc.add_draw(n, days)).unwrap();
            let terms = reference::pointwise(&sampler, &output);
            assert_eq!(acc.draws(), terms.len());
            for (day, column) in acc.log_terms.iter().enumerate() {
                for (draw, ln_p) in column.iter().enumerate() {
                    assert_eq!(
                        ln_p.to_bits(),
                        terms[draw][day].to_bits(),
                        "{} draw {draw} day {}",
                        sampler.model(),
                        day + 1
                    );
                }
            }
            assert!(acc.ln_fact.len() as u64 <= LN_FACTORIAL_CACHE_LIMIT);
            let loo = loo_from_output(&sampler, &output).unwrap();
            assert_eq!(format!("{loo:?}"), format!("{:?}", acc.finish()));
        }
    }

    #[test]
    fn truncation_bounds_ratios() {
        // A draw with absurdly low pointwise density would dominate
        // the raw harmonic mean; truncation must keep the estimate
        // finite and reasonable.
        let data = datasets::musa_cc96().truncated(10).unwrap();
        let mut acc = LooAccumulator::new(&data);
        let good = crate::waic::reference::flat(0.05, 10);
        for _ in 0..100 {
            acc.add_draw(200, &good);
        }
        // One pathological draw: tiny detection probability makes the
        // observed counts nearly impossible.
        acc.add_draw(200, &crate::waic::reference::flat(1e-9, 10));
        let loo = acc.finish();
        assert!(loo.elpd.is_finite());
    }
}
