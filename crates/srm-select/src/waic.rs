//! WAIC (Eqs. (23)–(25)) replayed from stored MCMC draws.
//!
//! The pointwise model probability is the binomial factor of Eq. (1),
//! `p(x_i | ω) = Binom(x_i; N − s_{i−1}, p_i)`, evaluated at each
//! posterior draw `ω = (N, ζ)`, with the detection schedule `p_i`
//! recomputed from the draw's stored `ζ`. Two accumulators run per
//! observation:
//! a streaming log-sum-exp for `ln Ê_ω[p(x_i | ω)]` (learning loss)
//! and Welford moments of `ln p(x_i | ω)` (functional variance).
//!
//! Scaling note: Eq. (23) defines `WAIC = T_k + V_k/k` with the
//! *average* learning loss `T_k`. The values in the paper's Table I
//! grow with `k` and are consistent with the *total* scale
//! `k·T_k + V_k`; [`Waic::total`] reports that (what our Table I
//! regenerator prints) and [`Waic::per_observation`] reports the
//! literal Eq. (23).

use srm_math::accum::RunningMoments;
use srm_math::logsumexp::StreamingLogSumExp;
use srm_math::special::LnFactorialTable;
use srm_mcmc::gibbs::GibbsSampler;
use srm_mcmc::runner::{run_chains, McmcConfig, McmcOutput};
use srm_mcmc::SrmError;
use srm_model::{DayTables, GroupedLikelihood};
use srm_obs::{Event, Recorder, Span, NOOP};

/// Streaming WAIC accumulator over posterior draws.
#[derive(Debug, Clone)]
pub struct WaicAccumulator {
    lik: GroupedLikelihood,
    /// `ln k!` for the pointwise terms, read without a lock.
    ln_fact: LnFactorialTable,
    predictive: Vec<StreamingLogSumExp>,
    log_terms: Vec<RunningMoments>,
}

impl WaicAccumulator {
    /// Creates an accumulator for the given data window.
    #[must_use]
    pub fn new(data: &srm_data::BugCountData) -> Self {
        let lik = GroupedLikelihood::new(data);
        let k = lik.horizon();
        Self {
            lik,
            ln_fact: LnFactorialTable::default(),
            predictive: vec![StreamingLogSumExp::new(); k],
            log_terms: vec![RunningMoments::new(); k],
        }
    }

    /// Feeds one posterior draw: the current `N` and detection
    /// schedule.
    pub fn add_draw(&mut self, n: u64, probs: &[f64]) {
        // Day 1 has the most trials (N); later days reuse the table.
        self.ln_fact.cover(n);
        for day in 1..=self.lik.horizon() {
            let ln_p = self.lik.ln_pointwise_with(n, probs, day, &self.ln_fact);
            self.predictive[day - 1].add(ln_p);
            // A −inf pointwise term would put zero predictive mass on
            // observed data; it cannot arise from valid sampler states
            // (N ≥ s_k) but is clamped defensively for the variance.
            self.log_terms[day - 1].push(ln_p.max(-1e300));
        }
    }

    /// Number of draws consumed.
    #[must_use]
    pub fn draws(&self) -> u64 {
        self.predictive.first().map_or(0, StreamingLogSumExp::count)
    }

    /// Finalises the criterion.
    ///
    /// # Panics
    ///
    /// Panics when no draws were fed.
    #[must_use]
    pub fn finish(&self) -> Waic {
        assert!(self.draws() > 0, "WAIC requires at least one draw");
        let k = self.lik.horizon() as f64;
        let mut learning_loss_total = 0.0; // Σ −ln Ê[p(x_i)]
        let mut functional_variance = 0.0; // Σ Var[ln p(x_i)]
        let mut lppd = 0.0;
        let mut pointwise = Vec::with_capacity(self.lik.horizon());
        for (pred, moments) in self.predictive.iter().zip(&self.log_terms) {
            let ln_mean = pred.log_mean();
            learning_loss_total -= ln_mean;
            lppd += ln_mean;
            let var_i = moments.population_variance();
            functional_variance += var_i;
            // Per-observation contribution on the total scale:
            // −ln Ê[p(x_i)] + Var[ln p(x_i)].
            pointwise.push(-ln_mean + var_i);
        }
        Waic {
            learning_loss: learning_loss_total / k,
            functional_variance,
            observations: self.lik.horizon(),
            lppd,
            pointwise,
        }
    }
}

/// The finalised WAIC decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Waic {
    /// `T_k`: average learning loss (Eq. (24)).
    pub learning_loss: f64,
    /// `V_k`: total functional variance (Eq. (25)).
    pub functional_variance: f64,
    /// Number of observations `k`.
    pub observations: usize,
    /// Log pointwise predictive density `Σ ln Ê[p(x_i)]` (Gelman's
    /// `lppd`, for cross-checks).
    pub lppd: f64,
    /// Per-observation contributions on the total scale
    /// (`Σ pointwise = total()`), used for the standard error.
    pub pointwise: Vec<f64>,
}

impl Waic {
    /// The literal Eq. (23): `T_k + V_k / k`.
    #[must_use]
    pub fn per_observation(&self) -> f64 {
        self.learning_loss + self.functional_variance / self.observations as f64
    }

    /// The table scale: `k·T_k + V_k` (matches the magnitudes of the
    /// paper's Table I).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.observations as f64 * self.per_observation()
    }

    /// The effective number of parameters in Gelman's convention
    /// (`p_waic = V_k`).
    #[must_use]
    pub fn p_waic(&self) -> f64 {
        self.functional_variance
    }

    /// Standard error of [`Waic::total`] over observations
    /// (`√(k · Var(pointwise))`, Vehtari–Gelman–Gabry convention):
    /// WAIC differences smaller than a couple of SEs are noise.
    #[must_use]
    pub fn se(&self) -> f64 {
        let k = self.pointwise.len() as f64;
        if k < 2.0 {
            return 0.0;
        }
        let mean = self.pointwise.iter().sum::<f64>() / k;
        let var = self
            .pointwise
            .iter()
            .map(|v| (v - mean).powi(2))
            .sum::<f64>()
            / (k - 1.0);
        (k * var).sqrt()
    }
}

/// Runs the chains (see [`run_chains`]) and returns WAIC replayed
/// from their stored draws.
///
/// # Panics
///
/// Panics if a chain faults or the replay fails.
#[must_use]
pub fn waic_for(sampler: &GibbsSampler, config: &McmcConfig) -> Waic {
    match waic_from_output(sampler, &run_chains(sampler, config), &NOOP) {
        Ok(waic) => waic,
        Err(e) => panic!("{e}"),
    }
}

/// Replays recorded chains through a fresh WAIC accumulator: every
/// stored draw, in chain order then draw order, with its detection
/// schedule recomputed from its stored `ζ`. The schedule is a pure
/// function of `ζ`, so the criterion is bit-identical for any thread
/// count, and the fault-tolerant pipeline computes it from whatever
/// chains survived a degraded run. The replay runs under a `waic`
/// phase span (and profiler span), and an enabled `recorder` receives
/// an [`Event::Waic`] on success; the criterion itself does not depend
/// on the recorder.
///
/// # Errors
///
/// Returns [`SrmError::MissingParameter`] when a chain lacks `n` or a
/// detection parameter, [`SrmError::DegeneratePosterior`] when a
/// stored `ζ` is outside the model's domain, and
/// [`SrmError::InvalidConfig`] when `output` holds no draws at all.
pub fn waic_from_output(
    sampler: &GibbsSampler,
    output: &McmcOutput,
    recorder: &dyn Recorder,
) -> Result<Waic, SrmError> {
    let span = Span::enter(recorder, "waic");
    let result = {
        let _profile = srm_obs::profile::span("waic");
        let mut acc = WaicAccumulator::new(&reconstruct_data(sampler));
        replay(sampler, output, "WAIC", |n, probs| acc.add_draw(n, probs))
            .map(|draws| (acc.finish(), draws))
    };
    span.end();
    let (waic, draws) = result?;
    if recorder.enabled() {
        recorder.record(&Event::Waic {
            model: sampler.model().name().to_owned(),
            total: waic.total(),
            p_waic: waic.p_waic(),
            draws,
        });
    }
    Ok(waic)
}

/// The replay loop shared by [`waic_from_output`] and
/// [`crate::loo::loo_from_output`]: feeds every stored draw of
/// `output` — chain order, then draw order — to `add_draw` as
/// `(N, p_1..p_k)`, recomputing the detection schedule from the
/// draw's stored `ζ`. The day tables are built once per call and every
/// draw, once its `ζ` is validated, refills one schedule buffer.
/// Returns the number of draws replayed.
///
/// # Errors
///
/// As [`waic_from_output`]; the empty-output error names
/// `criterion`.
pub(crate) fn replay(
    sampler: &GibbsSampler,
    output: &McmcOutput,
    criterion: &str,
    mut add_draw: impl FnMut(u64, &[f64]),
) -> Result<usize, SrmError> {
    let model = sampler.model();
    let zeta_names = model.param_names();
    let tables = DayTables::new(sampler.likelihood().horizon());
    let mut probs = Vec::with_capacity(tables.horizon());
    let mut zeta = vec![0.0; zeta_names.len()];
    let mut draws = 0;
    for (ci, chain) in output.chains.iter().enumerate() {
        let column = |name: &str| {
            chain.draws(name).ok_or_else(|| SrmError::MissingParameter {
                parameter: name.to_owned(),
                chain: ci,
            })
        };
        let n_draws = column("n")?;
        let zeta_cols: Vec<&[f64]> = zeta_names
            .iter()
            .map(|name| column(name))
            .collect::<Result<_, _>>()?;
        for (t, &n) in n_draws.iter().enumerate() {
            for (slot, col) in zeta.iter_mut().zip(&zeta_cols) {
                *slot = col[t];
            }
            model
                .validate(&zeta)
                .map_err(|e| SrmError::DegeneratePosterior {
                    detail: format!("replayed zeta outside model domain: {e:?}"),
                    sweep: t,
                })?;
            tables.fill_probs(model, &zeta, &mut probs);
            add_draw(n as u64, &probs);
        }
        draws += n_draws.len();
    }
    if draws == 0 {
        return Err(SrmError::InvalidConfig {
            detail: format!("{criterion} replay over empty output"),
        });
    }
    Ok(draws)
}

/// The sampler holds its data only through the likelihood evaluator;
/// rebuild an equivalent `BugCountData` for the accumulators.
pub(crate) fn reconstruct_data(sampler: &GibbsSampler) -> srm_data::BugCountData {
    // The sampler can only be built from non-empty data.
    srm_data::BugCountData::new(sampler.likelihood().counts().to_vec())
        .unwrap_or_else(|_| unreachable!())
}

/// Replay cases and their day-by-day reference terms, shared by the
/// WAIC and LOO bit-identity tests.
#[cfg(test)]
pub(crate) mod reference {
    use srm_data::BugCountData;
    use srm_mcmc::gibbs::{GibbsSampler, PriorSpec};
    use srm_mcmc::runner::McmcOutput;
    use srm_mcmc::Chain;
    use srm_model::detection::OPEN_EPS;
    use srm_model::{DetectionModel, ZetaBounds};

    /// One chain of hand-set draws `(N, ζ)` in the sampler's layout.
    fn chain(sampler: &GibbsSampler, draws: &[(u64, Vec<f64>)]) -> Chain {
        let names = sampler.param_names();
        let mut chain = Chain::new(&names);
        let hypers = names.len() - 2 - sampler.model().dim();
        for (n, zeta) in draws {
            let mut row = vec![*n as f64 - sampler.total() as f64, *n as f64];
            row.extend(std::iter::repeat_n(0.5, hypers));
            row.extend_from_slice(zeta);
            chain.push(&row);
        }
        chain
    }

    /// Every curve on a series with zero-count days, fed draws with
    /// `N = s_k`, `N > s_k` and `N` below a day's cumulative count
    /// (an impossible day, −∞); then two curves on daily counts of
    /// `u32::MAX`, where `N ≈ 8.6·10⁹` is far past the `ln k!` cache.
    pub(crate) fn cases() -> Vec<(GibbsSampler, McmcOutput)> {
        let mut cases = Vec::new();
        let small = BugCountData::new(vec![3, 0, 5, 0, 0, 2]).unwrap_or_else(|e| panic!("{e}"));
        for model in DetectionModel::ALL {
            let sampler = GibbsSampler::new(
                PriorSpec::Poisson { lambda_max: 1e3 },
                model,
                ZetaBounds::default(),
                &small,
            );
            let zetas: Vec<Vec<f64>> = match model.dim() {
                1 => vec![vec![0.3], vec![OPEN_EPS], vec![1.0 - OPEN_EPS]],
                _ => vec![
                    vec![0.3, 0.4],
                    vec![OPEN_EPS, 0.9],
                    vec![1.0 - OPEN_EPS, OPEN_EPS],
                ],
            };
            let first: Vec<(u64, Vec<f64>)> = [10u64, 11, 25, 7, 3, 0]
                .iter()
                .zip(zetas.iter().cycle())
                .map(|(&n, z)| (n, z.clone()))
                .collect();
            let second: Vec<(u64, Vec<f64>)> = zetas.iter().map(|z| (10, z.clone())).collect();
            let output = McmcOutput {
                chains: vec![chain(&sampler, &first), chain(&sampler, &second)],
            };
            cases.push((sampler, output));
        }
        let huge = u64::from(u32::MAX);
        let big = BugCountData::new(vec![huge, huge]).unwrap_or_else(|e| panic!("{e}"));
        let s_k = 2 * huge;
        for (model, zeta) in [
            (DetectionModel::Constant, vec![0.6]),
            (DetectionModel::Weibull, vec![0.6, 0.3]),
        ] {
            let sampler = GibbsSampler::new(
                PriorSpec::NegBinomial { alpha_max: 100.0 },
                model,
                ZetaBounds::default(),
                &big,
            );
            let draws: Vec<(u64, Vec<f64>)> = [s_k, s_k + 1, s_k + (1 << 21), s_k - 1, 5]
                .iter()
                .map(|&n| (n, zeta.clone()))
                .collect();
            let output = McmcOutput {
                chains: vec![chain(&sampler, &draws)],
            };
            cases.push((sampler, output));
        }
        cases
    }

    /// `GroupedLikelihood::ln_pointwise` on a `DetectionModel::probs`
    /// schedule for every stored draw (chain order, then draw order),
    /// one row of day terms per draw.
    pub(crate) fn pointwise(sampler: &GibbsSampler, output: &McmcOutput) -> Vec<Vec<f64>> {
        let model = sampler.model();
        let lik = sampler.likelihood();
        let mut rows = Vec::new();
        for chain in &output.chains {
            let column = |name: &str| chain.draws(name).unwrap_or_else(|| panic!("{name}"));
            let n = column("n");
            let zeta_cols: Vec<&[f64]> = model.param_names().iter().map(|p| column(p)).collect();
            for (t, &n) in n.iter().enumerate() {
                let zeta: Vec<f64> = zeta_cols.iter().map(|c| c[t]).collect();
                let probs = model
                    .probs(&zeta, lik.horizon())
                    .unwrap_or_else(|e| panic!("{e}"));
                rows.push(lik.ln_pointwise_all(n as u64, &probs));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_data::datasets;
    use srm_mcmc::gibbs::PriorSpec;
    use srm_mcmc::runner::{run_chains_fault_tolerant, RunOptions};
    use srm_model::{DetectionModel, ZetaBounds};

    fn smoke_waic(prior: PriorSpec, model: DetectionModel, day: usize, seed: u64) -> Waic {
        let data = datasets::musa_cc96().truncated(day).unwrap();
        let sampler = GibbsSampler::new(prior, model, ZetaBounds::default(), &data);
        waic_for(&sampler, &McmcConfig::smoke(seed))
    }

    #[test]
    fn accumulator_counts_draws() {
        let data = datasets::musa_cc96().truncated(10).unwrap();
        let mut acc = WaicAccumulator::new(&data);
        let probs = vec![0.05; 10];
        acc.add_draw(200, &probs);
        acc.add_draw(210, &probs);
        assert_eq!(acc.draws(), 2);
        let waic = acc.finish();
        assert_eq!(waic.observations, 10);
        assert!(waic.total().is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one draw")]
    fn empty_accumulator_panics() {
        let data = datasets::musa_cc96().truncated(5).unwrap();
        let _ = WaicAccumulator::new(&data).finish();
    }

    #[test]
    fn single_parameter_draw_has_zero_variance() {
        // Identical draws ⇒ functional variance 0, learning loss =
        // −(1/k) Σ ln p(x_i | ω).
        let data = datasets::musa_cc96().truncated(10).unwrap();
        let mut acc = WaicAccumulator::new(&data);
        let probs = vec![0.05; 10];
        for _ in 0..50 {
            acc.add_draw(200, &probs);
        }
        let waic = acc.finish();
        assert!(waic.functional_variance.abs() < 1e-18);
        let lik = GroupedLikelihood::new(&data);
        let direct: f64 = lik.ln_pointwise_all(200, &probs).iter().sum();
        assert!((waic.lppd - direct).abs() < 1e-9);
        assert!((waic.total() + direct).abs() < 1e-9);
    }

    #[test]
    fn table_scale_consistency() {
        let w = Waic {
            learning_loss: 3.5,
            functional_variance: 12.0,
            observations: 48,
            lppd: -168.0,
            pointwise: vec![3.75; 48],
        };
        assert!((w.per_observation() - (3.5 + 0.25)).abs() < 1e-12);
        assert!((w.total() - 48.0 * 3.75).abs() < 1e-12);
        assert_eq!(w.p_waic(), 12.0);
        // Identical pointwise terms ⇒ zero standard error.
        assert_eq!(w.se(), 0.0);
    }

    #[test]
    fn pointwise_sums_to_total_and_se_positive() {
        let data = datasets::musa_cc96().truncated(20).unwrap();
        let mut acc = WaicAccumulator::new(&data);
        let probs = vec![0.05; 20];
        for n in 0..200u64 {
            acc.add_draw(150 + (n % 60), &probs);
        }
        let w = acc.finish();
        let sum: f64 = w.pointwise.iter().sum();
        assert!((sum - w.total()).abs() < 1e-9, "{sum} vs {}", w.total());
        assert!(w.se() > 0.0);
    }

    #[test]
    fn waic_magnitude_matches_paper_order() {
        // Table I reports ~170 for 48 days. The absolute level scales
        // with the dispersion of the daily counts (our synthetic
        // stand-in is smoother than the real Musa dailies), so assert
        // the same order of magnitude — tens to a few hundred nats —
        // rather than the exact level.
        let w = smoke_waic(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            48,
            11,
        );
        let total = w.total();
        assert!(
            (20.0..400.0).contains(&total),
            "WAIC total = {total} out of expected band"
        );
        // Per-observation loss must be a small positive number of nats.
        let per = w.per_observation();
        assert!((0.2..8.0).contains(&per), "per-obs = {per}");
    }

    #[test]
    fn replayed_waic_is_bit_identical_across_thread_counts() {
        let data = datasets::musa_cc96().truncated(20).unwrap();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let config = McmcConfig {
            chains: 3,
            burn_in: 80,
            samples: 120,
            thin: 1,
            seed: 707,
        };
        let replay_at = |threads| {
            let run =
                run_chains_fault_tolerant(&sampler, &config, &RunOptions::with_threads(threads))
                    .unwrap();
            waic_from_output(&sampler, &run.output, &srm_obs::NOOP).unwrap()
        };
        let reference = replay_at(1);
        assert_eq!(waic_for(&sampler, &config), reference);
        for threads in [2usize, 4] {
            assert_eq!(replay_at(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn replay_rejects_empty_output_and_missing_columns() {
        let data = datasets::musa_cc96().truncated(20).unwrap();
        let sampler = GibbsSampler::new(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Constant,
            ZetaBounds::default(),
            &data,
        );
        let empty = McmcOutput { chains: Vec::new() };
        let err = waic_from_output(&sampler, &empty, &srm_obs::NOOP).unwrap_err();
        assert!(matches!(err, SrmError::InvalidConfig { .. }));
        let mut chain = srm_mcmc::Chain::new(&["n"]);
        chain.push(&[200.0]);
        let missing = McmcOutput {
            chains: vec![chain],
        };
        let err = waic_from_output(&sampler, &missing, &srm_obs::NOOP).unwrap_err();
        assert!(matches!(
            err,
            SrmError::MissingParameter { ref parameter, chain: 0 } if parameter == "mu"
        ));
    }

    #[test]
    fn replayed_terms_equal_ln_pointwise_bit_for_bit() {
        use srm_math::special::LN_FACTORIAL_CACHE_LIMIT;
        let mut impossible = 0;
        for (sampler, output) in reference::cases() {
            let data = reconstruct_data(&sampler);
            let mut acc = WaicAccumulator::new(&data);
            replay(&sampler, &output, "WAIC", |n, probs| acc.add_draw(n, probs)).unwrap();
            let terms = reference::pointwise(&sampler, &output);
            let mut predictive = vec![StreamingLogSumExp::new(); data.len()];
            let mut log_terms = vec![RunningMoments::new(); data.len()];
            for row in &terms {
                for (day, &ln_p) in row.iter().enumerate() {
                    impossible += usize::from(ln_p == f64::NEG_INFINITY);
                    predictive[day].add(ln_p);
                    log_terms[day].push(ln_p.max(-1e300));
                }
            }
            // Debug prints every f64 in its shortest round-trip form,
            // so equal strings mean equal bits.
            let model = sampler.model();
            assert_eq!(
                format!("{:?}", acc.predictive),
                format!("{predictive:?}"),
                "{model}"
            );
            assert_eq!(
                format!("{:?}", acc.log_terms),
                format!("{log_terms:?}"),
                "{model}"
            );
            assert!(acc.ln_fact.len() as u64 <= LN_FACTORIAL_CACHE_LIMIT);
            let waic = waic_from_output(&sampler, &output, &NOOP).unwrap();
            assert_eq!(
                format!("{waic:?}"),
                format!("{:?}", acc.finish()),
                "{model}"
            );
        }
        assert!(impossible > 0, "the cases must include impossible days");
    }

    #[test]
    fn replay_still_validates_each_draw() {
        let (sampler, mut output) = reference::cases().swap_remove(1);
        let mut chain = srm_mcmc::Chain::new(&sampler.param_names());
        chain.push(&[0.0, 10.0, 1.0, 0.5, 0.2]);
        chain.push(&[0.0, 10.0, 1.0, 0.5, -0.2]); // θ must be > 0
        output.chains.push(chain);
        let err = waic_from_output(&sampler, &output, &NOOP).unwrap_err();
        assert!(
            matches!(err, SrmError::DegeneratePosterior { sweep: 1, ref detail } if detail.contains("theta")),
            "{err:?}"
        );
    }

    #[test]
    fn model1_beats_model3_on_musa_data() {
        // The paper's central ranking: the Padgett–Spurrier model
        // dominates the Pareto model at every observation point.
        let w1 = smoke_waic(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::PadgettSpurrier,
            48,
            21,
        );
        let w3 = smoke_waic(
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            DetectionModel::Pareto,
            48,
            22,
        );
        assert!(
            w1.total() < w3.total(),
            "model1 {} should beat model3 {}",
            w1.total(),
            w3.total()
        );
    }
}
