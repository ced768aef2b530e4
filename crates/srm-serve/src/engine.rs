//! Executes jobs against the estimation pipeline.
//!
//! Each kind maps onto the exact code path its CLI counterpart uses —
//! [`Fit::try_run_traced`] for `fit` and `predict`,
//! [`run_chains_fault_tolerant_traced`] plus [`waic_from_output`] for
//! `select` — with the CLI's default
//! [`RunOptions`] (retry budget 3, no fault injection). That is what
//! makes HTTP results bit-identical to a same-seed command-line run:
//! there is one engine, and the server is just another caller.
//!
//! Timeouts are **cooperative**: the sampler's chain events are
//! buffered and replayed after its thread pool drains, so nothing can
//! observe or interrupt a sweep mid-run (see DESIGN.md §11). The
//! deadline is therefore checked at phase boundaries only — before
//! sampling starts and between the five models of a `select`.

use std::time::Instant;

use srm_core::{predict_from_fit, FaultTolerantFit, Fit, FitConfig};
use srm_mcmc::gibbs::GibbsSampler;
use srm_mcmc::runner::{run_chains_fault_tolerant_traced, RunOptions};
use srm_mcmc::{PosteriorSummary, RetryPolicy, SrmError};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::json::Value;
use srm_obs::{dataset_hash, Recorder, RunManifest, Span};
use srm_select::waic::waic_from_output;

use crate::job::{JobKind, JobSpec};

/// Why a job failed.
#[derive(Debug)]
pub enum JobError {
    /// The cooperative deadline expired at a phase boundary.
    Timeout,
    /// The estimation pipeline reported a typed fault.
    Engine(SrmError),
    /// The job panicked; the worker caught it and carries the panic
    /// message.
    Panicked(String),
}

impl JobError {
    /// Kebab-case error kind: the engine's taxonomy plus `timeout`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Timeout => "timeout",
            Self::Engine(e) => e.kind(),
            Self::Panicked(_) => "job-panicked",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => f.write_str("job deadline expired before completion"),
            Self::Engine(e) => e.fmt(f),
            Self::Panicked(message) => write!(f, "job panicked: {message}"),
        }
    }
}

impl From<SrmError> for JobError {
    fn from(e: SrmError) -> Self {
        Self::Engine(e)
    }
}

/// A finished job: the result document plus the manifest skeleton the
/// worker completes from the per-job stats collector.
#[derive(Debug)]
pub struct JobOutput {
    /// The `/v1/results/{id}` document.
    pub result: Value,
    /// Identity-filled manifest (stats fields added by the worker).
    pub manifest: RunManifest,
    /// Posterior draws kept, for the manifest's throughput figure.
    pub kept_draws: u64,
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Runs one job to completion, emitting trace events on `recorder`.
///
/// # Errors
///
/// [`JobError::Timeout`] when the deadline expires at a phase
/// boundary; [`JobError::Engine`] for faults from the pipeline.
pub fn run_job(
    spec: &JobSpec,
    deadline: Option<Instant>,
    recorder: &dyn Recorder,
) -> Result<JobOutput, JobError> {
    if expired(deadline) {
        return Err(JobError::Timeout);
    }
    match spec.kind {
        JobKind::Fit => run_fit(spec, recorder),
        JobKind::Select => run_select(spec, deadline, recorder),
        JobKind::Predict => run_predict(spec, recorder),
    }
}

/// Checkpoint cadence for served jobs: one `diagnostic-checkpoint`
/// per chain every this many sweeps. Streaming accumulators never
/// touch the sampler's RNG, so results stay bit-identical to a
/// checkpoint-free run; 50 keeps the overhead well under the 3%
/// budget measured in `BENCH_mcmc.json` while the progress endpoint
/// still refreshes many times per typical job.
pub const SERVE_CHECKPOINT_EVERY: usize = 50;

fn run_options(spec: &JobSpec) -> RunOptions {
    RunOptions {
        retry: RetryPolicy::default(),
        threads: spec.threads,
        checkpoint_every: SERVE_CHECKPOINT_EVERY,
        // Forward whatever profiler the worker thread has installed
        // (the server's always-on one) so chain threads flush their
        // sweep/likelihood/suffstats spans into the same profile.
        profiler: srm_obs::profile::current(),
        ..RunOptions::none()
    }
}

fn manifest_skeleton(spec: &JobSpec, model_label: &str) -> RunManifest {
    RunManifest {
        command: format!("serve:{}", spec.kind.label()),
        trace_id: spec.trace_id.clone(),
        model: model_label.to_owned(),
        prior: spec.prior.label().to_owned(),
        seed: spec.mcmc.seed,
        dataset_hash: dataset_hash(spec.data.counts()),
        chains: spec.mcmc.chains,
        burn_in: spec.mcmc.burn_in,
        samples: spec.mcmc.samples,
        thin: spec.mcmc.thin,
        threads: srm_mcmc::runner::effective_threads(spec.threads, spec.mcmc.chains),
        ..RunManifest::default()
    }
}

fn summary_value(summary: &PosteriorSummary) -> Value {
    Value::obj(vec![
        ("count", Value::Num(summary.count as f64)),
        ("nan_draws", Value::Num(summary.nan_draws as f64)),
        ("mean", Value::Num(summary.mean)),
        ("median", Value::Num(summary.median)),
        ("mode", Value::Num(summary.mode)),
        ("sd", Value::Num(summary.sd)),
        ("min", Value::Num(summary.min)),
        ("max", Value::Num(summary.max)),
        ("q1", Value::Num(summary.q1)),
        ("q3", Value::Num(summary.q3)),
    ])
}

fn identity_pairs(spec: &JobSpec) -> Vec<(&'static str, Value)> {
    vec![
        ("kind", Value::Str(spec.kind.label().to_owned())),
        ("dataset", Value::Str(spec.dataset_label.clone())),
        ("dataset_hash", Value::Str(dataset_hash(spec.data.counts()))),
        ("prior", Value::Str(spec.prior.label().to_owned())),
        ("seed", Value::Num(spec.mcmc.seed as f64)),
    ]
}

fn fit_tolerant(spec: &JobSpec, recorder: &dyn Recorder) -> Result<FaultTolerantFit, SrmError> {
    Fit::try_run_traced(
        spec.prior,
        spec.model,
        &spec.data,
        &FitConfig {
            mcmc: spec.mcmc,
            ..FitConfig::default()
        },
        &run_options(spec),
        recorder,
    )
}

fn fit_value(spec: &JobSpec, tolerant: &FaultTolerantFit) -> Value {
    let fit = &tolerant.fit;
    let (lo, hi) = PosteriorSummary::credible_interval(&fit.residual_draws, 0.05);
    let (hlo, hhi) = PosteriorSummary::hpd_interval(&fit.residual_draws, 0.05);
    let mut pairs = identity_pairs(spec);
    pairs.push(("model", Value::Str(spec.model.name().to_owned())));
    pairs.push(("residual", summary_value(&fit.residual)));
    pairs.push(("ci95", Value::Arr(vec![Value::Num(lo), Value::Num(hi)])));
    pairs.push(("hpd95", Value::Arr(vec![Value::Num(hlo), Value::Num(hhi)])));
    pairs.push((
        "waic",
        Value::obj(vec![
            ("total", Value::Num(fit.waic.total())),
            ("se", Value::Num(fit.waic.se())),
            ("p_waic", Value::Num(fit.waic.p_waic())),
        ]),
    ));
    pairs.push(("converged", Value::Bool(fit.converged())));
    pairs.push(("degraded", Value::Bool(tolerant.is_degraded())));
    pairs.push(("retries", Value::Num(tolerant.total_retries() as f64)));
    pairs.push(("draws", Value::Num(fit.residual_draws.len() as f64)));
    Value::obj(pairs)
}

fn run_fit(spec: &JobSpec, recorder: &dyn Recorder) -> Result<JobOutput, JobError> {
    let tolerant = fit_tolerant(spec, recorder)?;
    let fit = &tolerant.fit;
    let mut manifest = manifest_skeleton(spec, spec.model.name());
    manifest.converged = Some(fit.converged());
    manifest.waic = Some(fit.waic.total());
    let result = {
        let _span = srm_obs::profile::span("serialize");
        fit_value(spec, &tolerant)
    };
    Ok(JobOutput {
        kept_draws: fit.residual_draws.len() as u64,
        result,
        manifest,
    })
}

fn run_select(
    spec: &JobSpec,
    deadline: Option<Instant>,
    recorder: &dyn Recorder,
) -> Result<JobOutput, JobError> {
    let bounds = ZetaBounds::from_theta_max(spec.theta_max);
    let options = run_options(spec);
    let mut rows = Vec::new();
    let mut best: Option<(DetectionModel, f64)> = None;
    for model in DetectionModel::ALL {
        if expired(deadline) {
            return Err(JobError::Timeout);
        }
        let sampler = GibbsSampler::new(spec.prior, model, bounds, &spec.data);
        let sampling = Span::enter(recorder, "sampling");
        let run = run_chains_fault_tolerant_traced(&sampler, &spec.mcmc, &options, recorder)?;
        sampling.end();
        let waic = waic_from_output(&sampler, &run.output, recorder)?;
        if best.is_none_or(|(_, w)| waic.total() < w) {
            best = Some((model, waic.total()));
        }
        rows.push(Value::obj(vec![
            ("model", Value::Str(model.name().to_owned())),
            ("waic", Value::Num(waic.total())),
            ("se", Value::Num(waic.se())),
            ("learning_loss", Value::Num(waic.learning_loss)),
            ("functional_variance", Value::Num(waic.functional_variance)),
        ]));
    }
    // `DetectionModel::ALL` is non-empty, so `best` is always set.
    let (best_model, best_waic) = best.ok_or(SrmError::InvalidConfig {
        detail: "no models to compare".into(),
    })?;
    let result = {
        let _span = srm_obs::profile::span("serialize");
        let mut pairs = identity_pairs(spec);
        pairs.push(("models", Value::Arr(rows)));
        pairs.push(("best_model", Value::Str(best_model.name().to_owned())));
        pairs.push(("best_waic", Value::Num(best_waic)));
        Value::obj(pairs)
    };
    let mut manifest = manifest_skeleton(spec, best_model.name());
    manifest.waic = Some(best_waic);
    Ok(JobOutput {
        result,
        manifest,
        kept_draws: (spec.mcmc.samples * spec.mcmc.chains * DetectionModel::ALL.len()) as u64,
    })
}

fn run_predict(spec: &JobSpec, recorder: &dyn Recorder) -> Result<JobOutput, JobError> {
    let tolerant = fit_tolerant(spec, recorder)?;
    let fit = &tolerant.fit;
    let prediction = predict_from_fit(fit, &spec.data, spec.horizon)?;
    let _serialize_span = srm_obs::profile::span("serialize");
    let mut pairs = identity_pairs(spec);
    pairs.push(("model", Value::Str(spec.model.name().to_owned())));
    pairs.push(("horizon", Value::Num(prediction.horizon as f64)));
    pairs.push((
        "expected_detections",
        Value::Num(prediction.expected_detections),
    ));
    pairs.push((
        "reliability",
        Value::Arr(
            prediction
                .reliability
                .iter()
                .copied()
                .map(Value::Num)
                .collect(),
        ),
    ));
    pairs.push(("residual", summary_value(&fit.residual)));
    let mut manifest = manifest_skeleton(spec, spec.model.name());
    manifest.converged = Some(fit.converged());
    manifest.waic = Some(fit.waic.total());
    Ok(JobOutput {
        kept_draws: fit.residual_draws.len() as u64,
        result: Value::obj(pairs),
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::json::parse;
    use srm_obs::NOOP;
    use std::time::Duration;

    fn spec(json: &str) -> JobSpec {
        JobSpec::from_json(&parse(json).unwrap()).unwrap()
    }

    const SMALL_FIT: &str = r#"{"kind":"fit","dataset":"musa_cc96","truncate":48,
        "model":"model0","chains":2,"samples":200,"burn_in":80,"seed":5}"#;

    #[test]
    fn fit_job_matches_direct_fit_bit_for_bit() {
        let s = spec(SMALL_FIT);
        let out = run_job(&s, None, &NOOP).unwrap();
        let direct = Fit::try_run(
            s.prior,
            s.model,
            &s.data,
            &FitConfig {
                mcmc: s.mcmc,
                ..FitConfig::default()
            },
            &RunOptions {
                retry: RetryPolicy::default(),
                ..RunOptions::none()
            },
        )
        .unwrap();
        let mean = out
            .result
            .get("residual")
            .unwrap()
            .get("mean")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(mean.to_bits(), direct.fit.residual.mean.to_bits());
        let waic = out.result.get("waic").unwrap().get("total").unwrap();
        assert_eq!(
            waic.as_f64().unwrap().to_bits(),
            direct.fit.waic.total().to_bits()
        );
        assert_eq!(out.kept_draws, 400);
        assert_eq!(out.manifest.command, "serve:fit");
    }

    #[test]
    fn expired_deadline_is_a_timeout() {
        let s = spec(SMALL_FIT);
        let deadline = Some(Instant::now() - Duration::from_millis(1));
        let err = run_job(&s, deadline, &NOOP).unwrap_err();
        assert!(matches!(err, JobError::Timeout));
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn select_job_ranks_all_models() {
        let s = spec(
            r#"{"kind":"select","dataset":"musa_cc96","truncate":48,
                "chains":1,"samples":150,"burn_in":60,"seed":3}"#,
        );
        let stats = srm_obs::StatsCollector::new();
        let out = run_job(&s, None, &stats).unwrap();
        // The chain runs are timed as `sampling`, which the job's
        // manifest divides its kept draws by.
        assert!(stats.phase_total_ms("sampling") > 0.0);
        let models = out.result.get("models").unwrap().as_arr().unwrap();
        assert_eq!(models.len(), 5);
        let best = out.result.get("best_model").unwrap().as_str().unwrap();
        assert!(models
            .iter()
            .any(|m| m.get("model").unwrap().as_str() == Some(best)));
    }

    #[test]
    fn predict_job_reports_reliability_curve() {
        let s = spec(
            r#"{"kind":"predict","dataset":"musa_cc96","truncate":48,"model":"model0",
                "chains":1,"samples":200,"burn_in":80,"horizon":10}"#,
        );
        let out = run_job(&s, None, &NOOP).unwrap();
        let curve = out.result.get("reliability").unwrap().as_arr().unwrap();
        assert_eq!(curve.len(), 10);
        assert!(out.result.get("expected_detections").unwrap().as_f64() >= Some(0.0));
    }
}
