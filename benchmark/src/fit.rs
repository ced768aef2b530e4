//! Fits driven through the public pipeline: in one call
//! (`Fit::try_run`), through `Fit::try_run_traced` with its phase spans
//! recorded, or under the span profiler for exact work counts; plus the
//! checks applied to every estimate.

use crate::inputs::FitSpec;
use crate::trace::{Span, Tracer};
use srm_core::{FaultTolerantFit, Fit, FitConfig};
use srm_mcmc::diagnostics::report;
use srm_mcmc::runner::{effective_threads, run_chains_fault_tolerant, RunOptions};
use srm_mcmc::{GibbsSampler, PosteriorSummary, SrmError};
use srm_model::ZetaBounds;
use srm_obs::json::Value;
use srm_obs::{Event, Profiler, Recorder};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Worker threads per fit: one per core of the 2-core host the
/// benchmark is sized for.
pub const FIT_THREADS: usize = 2;

/// The options every in-process fit runs with: the library's default
/// retry budget, no fault injection, [`FIT_THREADS`] workers.
pub fn options() -> RunOptions {
    RunOptions {
        threads: FIT_THREADS,
        ..RunOptions::default()
    }
}

/// What the benchmark keeps of one fit.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Posterior summary of the residual bug count.
    pub residual: PosteriorSummary,
    /// WAIC total.
    pub waic: f64,
    /// Pooled effective sample size of the residual (sum over chains).
    pub ess: f64,
    /// Whether a chain was lost.
    pub degraded: bool,
}

fn residual_ess(diagnostics: &[(String, srm_mcmc::DiagnosticsReport)]) -> f64 {
    diagnostics
        .iter()
        .find(|(name, _)| name == "residual")
        .map_or(f64::NAN, |(_, d)| d.ess)
}

impl Estimate {
    /// The estimate of a finished fit.
    pub fn of(fit: &FaultTolerantFit) -> Self {
        Self {
            residual: fit.fit.residual.clone(),
            waic: fit.fit.waic.total(),
            ess: residual_ess(&fit.fit.diagnostics),
            degraded: fit.is_degraded(),
        }
    }

    /// A result document in the shape the service returns, for the
    /// JSON layer probe of in-process workloads.
    pub fn to_value(&self) -> Value {
        let r = &self.residual;
        let summary = [
            ("count", r.count as f64),
            ("nan_draws", r.nan_draws as f64),
            ("mean", r.mean),
            ("median", r.median),
            ("mode", r.mode),
            ("sd", r.sd),
            ("min", r.min),
            ("max", r.max),
            ("q1", r.q1),
            ("q3", r.q3),
        ];
        Value::obj(vec![
            (
                "residual",
                Value::obj(summary.iter().map(|&(k, v)| (k, Value::Num(v))).collect()),
            ),
            ("waic", Value::obj(vec![("total", Value::Num(self.waic))])),
            ("ess", Value::Num(self.ess)),
            ("degraded", Value::Bool(self.degraded)),
        ])
    }

    /// Why this estimate counts as failed: a lost chain, or a
    /// non-finite or negative residual summary (or ESS).
    pub fn fault(&self) -> Option<String> {
        let r = &self.residual;
        let values = [r.mean, r.median, r.mode, r.sd, r.min, r.max, r.q1, r.q3];
        if self.degraded {
            Some("degraded: a chain was lost".to_owned())
        } else if values.iter().any(|v| !v.is_finite() || *v < 0.0) || r.nan_draws > 0 {
            Some(format!("residual summary not finite and >= 0: {r:?}"))
        } else if !(self.waic.is_finite() && self.ess.is_finite() && self.ess > 0.0) {
            Some(format!("waic {} / ess {} not finite", self.waic, self.ess))
        } else {
            None
        }
    }
}

/// One fit in a single library call.
///
/// # Errors
///
/// The pipeline's error when every chain is lost or the replay fails.
pub fn fit(spec: &FitSpec) -> Result<FaultTolerantFit, SrmError> {
    Fit::try_run(
        spec.prior,
        spec.model,
        &spec.data,
        &FitConfig {
            mcmc: spec.mcmc,
            zeta_bounds: ZetaBounds::default(),
        },
        &options(),
    )
}

/// Root span of a traced fit.
pub const FIT_SPAN: &str = "srm-core/fit";

/// Span of the standalone sampler set-up a traced fit starts with.
pub const SETUP_SPAN: &str = "srm-mcmc/setup";

/// The phases `Fit::try_run_traced` wraps in spans of its own, in call
/// order, under the names it gives them.
pub const PHASES: [&str; 4] = ["sampling", "waic", "summary", "diagnostics"];

/// Turns the phase spans of one `Fit::try_run_traced` call into child
/// spans of the fit's root span. The call runs its phases one after
/// another, so at most one is open at a time.
struct PhaseSpans<'t> {
    fit: &'t Span<'t>,
    open: Mutex<Option<Span<'t>>>,
    covered_ns: AtomicU64,
}

impl Recorder for PhaseSpans<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        let open = || self.open.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            Event::PhaseStart { phase } => *open() = Some(self.fit.child(phase)),
            Event::PhaseEnd { .. } => {
                if let Some(span) = open().take() {
                    self.covered_ns.fetch_add(span.end(), Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

/// A fit made by [`fit_traced`].
#[derive(Debug)]
pub struct TracedFit {
    /// What the fit estimated.
    pub estimate: Estimate,
    /// Wall time of the `Fit::try_run_traced` call, ms.
    pub call_ms: f64,
    /// The set-up span plus every phase span, ms.
    pub stages_ms: f64,
}

/// The same fit as [`fit`], through `Fit::try_run_traced` with its phase
/// spans recorded under a root span in `tracer`. The call's own sampler
/// set-up has no span, so a standalone `GibbsSampler::new` of the spec,
/// timed under [`SETUP_SPAN`], stands in for it.
///
/// # Errors
///
/// As [`fit`].
pub fn fit_traced(spec: &FitSpec, tracer: &Tracer) -> Result<TracedFit, SrmError> {
    let root = tracer.root(FIT_SPAN);
    let span = root.child(SETUP_SPAN);
    black_box(GibbsSampler::new(
        spec.prior,
        spec.model,
        ZetaBounds::default(),
        black_box(&spec.data),
    ));
    let setup_ns = span.end();
    let phases = PhaseSpans {
        fit: &root,
        open: Mutex::new(None),
        covered_ns: AtomicU64::new(0),
    };
    let started = Instant::now();
    let fitted = Fit::try_run_traced(
        spec.prior,
        spec.model,
        &spec.data,
        &FitConfig {
            mcmc: spec.mcmc,
            zeta_bounds: ZetaBounds::default(),
        },
        &options(),
        &phases,
    )?;
    let call_ms = started.elapsed().as_secs_f64() * 1e3;
    let stages_ns = setup_ns + phases.covered_ns.load(Ordering::Relaxed);
    Ok(TracedFit {
        estimate: Estimate::of(&fitted),
        call_ms,
        stages_ms: stages_ns as f64 / 1e6,
    })
}

/// Exact work counts and chain occupancy from a profiled pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiled {
    /// Fits in the pass.
    pub fits: usize,
    /// Pooled residual ESS summed over the fits.
    pub ess: f64,
    /// `suffstats` spans recorded by the sampler (one per sufficient-
    /// statistics request, memo hits included).
    pub suffstats: u64,
    /// Time inside `chain` spans, summed over chains.
    pub chain_ns: u64,
    /// Wall time of the sampling calls times the worker threads.
    pub capacity_ns: u64,
}

/// Samples each spec with the program's span profiler installed on the
/// chain workers. The profiler never touches the sampler's RNG, so the
/// counts repeat exactly for the same seed; it adds wall time, which is
/// why this pass is kept apart from every timed phase.
///
/// # Errors
///
/// As [`fit`].
pub fn profiled_pass(specs: &[FitSpec]) -> Result<Profiled, SrmError> {
    let profiler = Arc::new(Profiler::new());
    let options = RunOptions {
        profiler: Some(Arc::clone(&profiler)),
        ..options()
    };
    let mut out = Profiled::default();
    for spec in specs {
        let sampler = GibbsSampler::new(spec.prior, spec.model, ZetaBounds::default(), &spec.data);
        let started = Instant::now();
        let run = run_chains_fault_tolerant(&sampler, &spec.mcmc, &options)?;
        let workers = effective_threads(options.threads, spec.mcmc.chains) as u128;
        out.capacity_ns += u64::try_from(started.elapsed().as_nanos() * workers).unwrap_or(0);
        out.ess += report(&run.output.per_chain("residual")?).ess;
        out.fits += 1;
    }
    for phase in profiler.snapshot() {
        if phase.path == "chain" {
            out.chain_ns += phase.total_ns;
        }
        if phase.path.ends_with("suffstats") {
            out.suffstats += phase.count;
        }
    }
    Ok(out)
}

/// The numbers a served `fit` result carries, computed from an
/// in-process fit of the same spec, keyed by their dotted path in the
/// document (array elements by index).
fn served_numbers(fit: &FaultTolerantFit) -> Vec<(&'static str, f64)> {
    let f = &fit.fit;
    let r = &f.residual;
    let (lo, hi) = PosteriorSummary::credible_interval(&f.residual_draws, 0.05);
    let (hlo, hhi) = PosteriorSummary::hpd_interval(&f.residual_draws, 0.05);
    vec![
        ("residual.count", r.count as f64),
        ("residual.nan_draws", r.nan_draws as f64),
        ("residual.mean", r.mean),
        ("residual.median", r.median),
        ("residual.mode", r.mode),
        ("residual.sd", r.sd),
        ("residual.min", r.min),
        ("residual.max", r.max),
        ("residual.q1", r.q1),
        ("residual.q3", r.q3),
        ("waic.total", f.waic.total()),
        ("waic.se", f.waic.se()),
        ("waic.p_waic", f.waic.p_waic()),
        ("ci95.0", lo),
        ("ci95.1", hi),
        ("hpd95.0", hlo),
        ("hpd95.1", hhi),
        ("draws", f.residual_draws.len() as f64),
        ("retries", fit.total_retries() as f64),
    ]
}

fn lookup<'v>(doc: &'v Value, path: &str) -> Option<&'v Value> {
    path.split('.')
        .try_fold(doc, |node, key| match key.parse::<usize>() {
            Ok(i) => node.as_arr()?.get(i),
            Err(_) => node.get(key),
        })
}

/// Checks that a served result document is bit-identical to an
/// in-process fit of the same spec.
///
/// # Errors
///
/// Names the first field that differs.
pub fn check_served(doc: &Value, fit: &FaultTolerantFit) -> Result<(), String> {
    for (path, expected) in served_numbers(fit) {
        let got = lookup(doc, path).and_then(Value::as_f64);
        if got.map(f64::to_bits) != Some(expected.to_bits()) {
            return Err(format!(
                "served {path} = {got:?}, in-process fit gives {expected}"
            ));
        }
    }
    match lookup(doc, "degraded") {
        Some(Value::Bool(b)) if *b == fit.is_degraded() => Ok(()),
        other => Err(format!("served degraded = {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{served_specs, POISSON};
    use srm_mcmc::McmcConfig;

    fn spec() -> FitSpec {
        let mut spec = served_specs(
            3,
            4,
            1,
            McmcConfig {
                chains: 2,
                burn_in: 30,
                samples: 120,
                thin: 1,
                seed: 0,
            },
        )
        .remove(0);
        spec.prior = POISSON;
        spec
    }

    #[test]
    fn traced_fit_spans_every_phase_and_matches_the_single_call() {
        let spec = spec();
        let whole = Estimate::of(&fit(&spec).unwrap());
        let tracer = Tracer::new(true, 1);
        let traced = fit_traced(&spec, &tracer).unwrap();
        assert_eq!(whole, traced.estimate);
        assert!(whole.fault().is_none());
        let root = tracer
            .spans()
            .into_iter()
            .find(|s| s.name == FIT_SPAN)
            .unwrap();
        let mut spans_ms = 0.0;
        for stage in std::iter::once(SETUP_SPAN).chain(PHASES) {
            let spans: Vec<_> = tracer
                .spans()
                .into_iter()
                .filter(|s| s.name == stage)
                .collect();
            assert_eq!(spans.len(), 1, "{stage}");
            assert_eq!(spans[0].parent, Some(root.id), "{stage}");
            spans_ms += spans[0].dur_ns as f64 / 1e6;
        }
        assert!((spans_ms - traced.stages_ms).abs() < 1e-6);
        assert!(traced.stages_ms <= root.dur_ns as f64 / 1e6);
    }

    #[test]
    fn profiled_counts_repeat_exactly() {
        let specs = [spec()];
        let (a, b) = (
            profiled_pass(&specs).unwrap(),
            profiled_pass(&specs).unwrap(),
        );
        assert!(a.suffstats > 0);
        assert_eq!(a.suffstats, b.suffstats);
        assert_eq!(a.ess.to_bits(), b.ess.to_bits());
        assert!(a.chain_ns > 0 && a.capacity_ns > 0);
    }
}
