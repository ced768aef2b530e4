//! What every workload shares: run scale, the timed-phase tally, the
//! end-to-end metric set, per-layer metric collection, and the layer
//! probes that run in every traced run.

use crate::inputs::{self, FitSpec};
use crate::measure::{self, cpu_seconds, median};
use srm_data::{datasets, BugCountData};
use srm_mcmc::{GibbsSampler, McmcConfig};
use srm_model::{DetectionModel, GroupedLikelihood, ZetaBounds};
use srm_obs::json::Value;
use srm_rand::Xoshiro256StarStar;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// How much work a run does.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Length of each timed phase, seconds.
    pub seconds: f64,
    /// Chains and run lengths of a paper-grid fit.
    pub paper_mcmc: McmcConfig,
    /// Chains and run lengths of a fleet-style fit (batch items and
    /// served jobs).
    pub small_mcmc: McmcConfig,
    /// Series per fleet batch.
    pub batch_items: usize,
    /// Distinct specs the cache-hit workload cycles over.
    pub hit_specs: usize,
    /// Specs fitted during the served-fit set-up, later resubmitted.
    pub warm_specs: usize,
    /// Open-loop job arrivals per second.
    pub arrival_rate: f64,
    /// Set-ups per run; `setup_s` is their median. The host's speed
    /// wanders on a scale of 100 ms, so the in-process workloads repeat
    /// their 10–20 ms set-ups over several tenths of a second.
    pub setup_reps: usize,
    /// Paper-configuration fits in the profiled pass of `paper-grid`.
    pub pass_fits: usize,
    /// Small fits in each traced breakdown and profiled pass of the
    /// other workloads.
    pub small_pass_fits: usize,
    /// Multiplier on the iteration counts of the layer probes.
    pub probe_scale: f64,
}

const fn mcmc(chains: usize, burn_in: usize, samples: usize) -> McmcConfig {
    McmcConfig {
        chains,
        burn_in,
        samples,
        thin: 1,
        seed: 0,
    }
}

impl Scale {
    /// The measured scale: the paper's MCMC configuration, full-size
    /// fleets and a 30 jobs/s arrival rate.
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            paper_mcmc: mcmc(4, 1_000, 4_000),
            small_mcmc: mcmc(2, 200, 800),
            batch_items: 128,
            hit_specs: 32,
            warm_specs: 8,
            arrival_rate: 30.0,
            setup_reps: 41,
            pass_fits: 5,
            small_pass_fits: 20,
            probe_scale: 1.0,
        }
    }

    /// About a second per workload, for keeping the benchmark alive in
    /// tests (debug builds included).
    pub fn smoke() -> Self {
        Self {
            seconds: 1.0,
            paper_mcmc: mcmc(4, 20, 80),
            small_mcmc: mcmc(2, 20, 80),
            batch_items: 16,
            hit_specs: 4,
            warm_specs: 2,
            arrival_rate: 10.0,
            setup_reps: 2,
            pass_fits: 2,
            small_pass_fits: 2,
            probe_scale: 0.02,
        }
    }
}

/// Everything a workload needs to run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of every input the run generates.
    pub seed: u64,
    /// How much work to do.
    pub scale: Scale,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for state dirs, logs and the span file.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Where a traced run writes its spans.
    pub fn span_file(&self, workload: &str) -> PathBuf {
        self.out_dir.join(format!("{workload}.spans.jsonl"))
    }

    /// The same run with timed phases of `seconds`.
    pub fn with_seconds(&self, seconds: f64) -> Ctx {
        Ctx {
            scale: Scale {
                seconds,
                ..self.scale.clone()
            },
            ..self.clone()
        }
    }
}

/// The tally of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Latency of each successful call, ms, in call order.
    pub latencies_ms: Vec<f64>,
    /// Successful operations.
    pub ops: u64,
    /// Successful operations whose call met the latency limit.
    pub good: u64,
    /// Pooled residual ESS of the posteriors delivered.
    pub ess: f64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Process CPU time of the phase, seconds.
    pub cpu_s: f64,
    /// Why operations failed (first few).
    pub problems: Vec<String>,
}

impl Timed {
    /// Records one call that delivered `ok` operations and failed
    /// `failed`, carrying `ess` of posterior.
    pub fn record(&mut self, ms: f64, ok: u64, failed: u64, ess: f64, limit_ms: f64) {
        self.attempted += ok + failed;
        self.failed += failed;
        if ok > 0 {
            self.ops += ok;
            self.latencies_ms.push(ms);
            if ms <= limit_ms {
                self.good += ok;
            }
            self.ess += ess;
        }
    }

    /// Records `count` failed operations and why.
    pub fn fail(&mut self, count: u64, why: String) {
        self.attempted += count;
        self.failed += count;
        self.problem(why);
    }

    /// Notes why operations failed (the first few reasons are kept).
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }

    /// Adds another tally of the same phase (one client's share).
    pub fn merge(&mut self, other: Timed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.ops += other.ops;
        self.good += other.good;
        self.ess += other.ess;
        for why in other.problems {
            self.problem(why);
        }
    }

    /// Process CPU per successful operation, ms.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.ops.max(1) as f64
    }
}

/// Measures a phase: wall and process CPU time around `body`.
///
/// # Errors
///
/// Propagates `body`'s error and `/proc` read failures.
pub fn timed_phase<T>(
    body: impl FnOnce(&mut Timed) -> Result<T, String>,
) -> Result<(Timed, T), String> {
    let mut timed = Timed::default();
    let cpu0 = cpu_seconds()?;
    let started = Instant::now();
    let out = body(&mut timed)?;
    timed.wall_s = started.elapsed().as_secs_f64();
    timed.cpu_s = cpu_seconds()? - cpu0;
    Ok((timed, out))
}

/// Runs `setup` `reps` times and returns each duration (seconds) and
/// the last result; earlier results are handed to `discard` first.
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let started = Instant::now();
        last = Some(setup(rep)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((times, last))
}

/// Metric values by name, with units.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_per_s", "ops/s"),
    ("ess_per_cpu_s", "ess/cpu-s"),
    ("cpu_ms_per_op", "ms/op"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Builds the end-to-end metrics of an untraced phase; the second value
/// is a one-line note of the tail percentile and sample count.
///
/// # Errors
///
/// A `/proc` read failure.
pub fn end_to_end(timed: &Timed, setup_s: &[f64]) -> Result<(Metrics, String), String> {
    let tail = measure::tail(&timed.latencies_ms);
    let values = [
        timed.ops as f64 / timed.wall_s,
        median(&timed.latencies_ms),
        tail.value,
        timed.good as f64 / timed.wall_s,
        timed.ess / timed.cpu_s,
        timed.cpu_ms_per_op(),
        median(setup_s),
        measure::peak_rss_mb()?,
    ];
    let mut metrics = Metrics::default();
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        metrics.set(name, value, unit);
    }
    let note = format!(
        "latency_tail_ms is p{:.1} of {} calls; {} ops in {:.2} s wall, {:.2} s CPU",
        tail.percentile, tail.samples, timed.ops, timed.wall_s, timed.cpu_s
    );
    Ok((metrics, note))
}

/// The per-layer metrics of a traced run, with their units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("model.probs_ns_per_day", "ns/day"),
    ("model.ln_likelihood_ns_per_day", "ns/day"),
    ("mcmc.sweep_us", "us"),
    ("mcmc.sampling_ms_per_fit", "ms"),
    ("mcmc.setup_ms_per_fit", "ms"),
    ("mcmc.summary_ms_per_fit", "ms"),
    ("mcmc.diagnostics_ms_per_fit", "ms"),
    ("mcmc.ess_residual", "ess"),
    ("mcmc.suffstats_passes_per_ess", "count/ess"),
    ("mcmc.chain_busy_share", "ratio"),
    ("select.waic_ms_per_fit", "ms"),
    ("core.breakdown_gap_pct", "%"),
    ("batch.item_ms_p50", "ms"),
    ("batch.pool_busy_share", "ratio"),
    ("batch.coalesced_share", "ratio"),
    ("serve.accept_wait_ms_p50", "ms"),
    ("serve.http_queue_wait_ms_p50", "ms"),
    ("serve.http_handle_ms_p50", "ms"),
    ("serve.http_write_ms_p50", "ms"),
    ("serve.job_queue_wait_ms_mean", "ms"),
    ("serve.waic_ms_mean", "ms"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.boot_ms", "ms"),
    ("store.wal_append_us_mean", "us"),
    ("store.wal_bytes_per_job", "bytes"),
    ("obs.json_parse_us", "us"),
    ("obs.json_write_us", "us"),
    ("loadgen.late_ms_tail", "ms"),
    ("loadgen.backlog_end", "count"),
    ("trace_overhead_pct", "%"),
];

/// Per-layer values by name; names must come from [`PER_LAYER`].
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Whether any metric whose name starts with one of `prefixes` is
    /// still unset.
    pub fn lacks(&self, prefixes: &[&str]) -> bool {
        PER_LAYER.iter().any(|(name, _)| {
            prefixes.iter().any(|p| name.starts_with(p)) && !self.0.contains_key(name)
        })
    }

    /// Takes from `probe` every value this set lacks.
    pub fn fill_from(&mut self, probe: Layers) {
        for (name, value) in probe.0 {
            self.0.entry(name).or_insert(value);
        }
    }

    /// Every per-layer metric.
    ///
    /// # Errors
    ///
    /// Names the metrics left unset.
    pub fn into_metrics(self) -> Result<Metrics, String> {
        let mut metrics = Metrics::default();
        let mut unset = Vec::new();
        for (name, unit) in PER_LAYER {
            match self.0.get(name) {
                Some(&value) => metrics.set(name, value, unit),
                None => unset.push(name),
            }
        }
        if unset.is_empty() {
            Ok(metrics)
        } else {
            Err(format!(
                "per-layer metrics not measured: {}",
                unset.join(", ")
            ))
        }
    }
}

/// Prefixes of the metrics only `fleet-batch` exercises.
const BATCH_LAYER: [&str; 1] = ["batch."];

/// Prefixes of the metrics only the served workloads exercise.
const SERVED_LAYERS: [&str; 3] = ["serve.", "store.", "loadgen."];

/// How a workload ended: the counts, whether every check passed, the
/// metrics to print, and notes for the lines before the result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Checks of the program's outputs that failed.
    pub problems: Vec<String>,
    /// The metrics of this run.
    pub metrics: Metrics,
    /// Informational lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds the counts and failures of a timed phase.
    pub fn absorb(&mut self, phase: &Timed) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.problems.extend(phase.problems.iter().cloned());
    }

    /// Adds a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Tracing overhead: how much more process CPU per operation the
/// traced phase spent than the untraced one, percent.
pub fn trace_overhead_pct(untraced: &Timed, traced: &Timed) -> f64 {
    (traced.cpu_ms_per_op() / untraced.cpu_ms_per_op() - 1.0) * 100.0
}

fn per_call_ns(iterations: usize, mut call: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        call();
    }
    started.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

/// Layer probes run in every traced run, on the workload's own data
/// and documents: the detection schedule and grouped likelihood per
/// day (srm-model), one Gibbs sweep of model1/Poisson on `musa_cc96`
/// (srm-mcmc), and JSON parse and write of `doc` (srm-obs).
pub fn probe_layers(
    layers: &mut Layers,
    data: &[BugCountData],
    doc: &Value,
    seed: u64,
    scale: f64,
) {
    let reps = ((2_000.0 * scale) as usize).max(1);
    let bounds = ZetaBounds::default();
    let (mut probs_ns, mut lik_ns, mut days) = (0.0, 0.0, 0.0);
    for series in data {
        let lik = GroupedLikelihood::new(series);
        for model in DetectionModel::ALL {
            let zeta: Vec<f64> = model
                .bounds(&bounds)
                .iter()
                .map(|&(lo, hi)| 0.5 * (lo + hi))
                .collect();
            let probs = model.probs(&zeta, series.len()).unwrap_or_default();
            probs_ns += per_call_ns(reps, || {
                black_box(model.probs(black_box(&zeta), series.len()).ok());
            });
            let n = series.total() + 10;
            lik_ns += per_call_ns(reps, || {
                black_box(lik.ln_likelihood(black_box(n), black_box(&probs)));
            });
            days += series.len() as f64;
        }
    }
    layers.set("model.probs_ns_per_day", probs_ns / days);
    layers.set("model.ln_likelihood_ns_per_day", lik_ns / days);

    let sampler = GibbsSampler::new(
        inputs::POISSON,
        DetectionModel::PadgettSpurrier,
        bounds,
        &datasets::musa_cc96(),
    );
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    if let Ok(mut state) = sampler.init_state() {
        let sweeps = ((4_000.0 * scale) as usize).max(10);
        for _ in 0..sweeps / 10 {
            let _ = sampler.sweep_state(&mut state, &mut rng);
        }
        let ns = per_call_ns(sweeps, || {
            black_box(sampler.sweep_state(&mut state, &mut rng).ok());
        });
        layers.set("mcmc.sweep_us", ns / 1e3);
    }

    let text = doc.to_json();
    let reps = ((500.0 * scale) as usize).max(1);
    layers.set(
        "obs.json_parse_us",
        per_call_ns(reps, || {
            black_box(srm_obs::json::parse(black_box(&text)).ok());
        }) / 1e3,
    );
    layers.set(
        "obs.json_write_us",
        per_call_ns(reps, || {
            black_box(black_box(doc).to_json());
        }) / 1e3,
    );
}

/// Fits each spec twice, back to back: in one `Fit::try_run` call, then
/// through `Fit::try_run_traced` with its phase spans kept in `tracer`.
/// Pairing, and taking the median over the pairs, keeps the host's speed
/// drift out of the comparison. A traced estimate that is not
/// bit-identical to the single call, or that fails the estimate checks,
/// goes to `problems`. Sets the per-fit set-up and phase means and the
/// gap between their sum and the single-call latency; returns the median
/// tracing overhead of a fit, percent.
///
/// # Errors
///
/// A fit error.
pub fn breakdown_pass(
    layers: &mut Layers,
    tracer: &crate::trace::Tracer,
    specs: &[FitSpec],
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    use crate::fit::{Estimate, PHASES, SETUP_SPAN};
    let (mut gap, mut overhead) = (Vec::new(), Vec::new());
    for (i, spec) in specs.iter().enumerate() {
        let started = Instant::now();
        let plain = crate::fit::fit(spec).map_err(|e| format!("fit {i}: {e}"))?;
        let plain_ms = started.elapsed().as_secs_f64() * 1e3;
        let traced = crate::fit::fit_traced(spec, tracer).map_err(|e| format!("fit {i}: {e}"))?;
        overhead.push(traced.call_ms / plain_ms - 1.0);
        gap.push(traced.stages_ms / plain_ms - 1.0);
        if traced.estimate != Estimate::of(&plain) {
            problems.push(format!(
                "fit {i}: Fit::try_run_traced differs from Fit::try_run"
            ));
        } else if let Some(why) = traced.estimate.fault() {
            problems.push(format!("fit {i}: {why}"));
        }
    }
    let names = [
        "mcmc.setup_ms_per_fit",
        "mcmc.sampling_ms_per_fit",
        "select.waic_ms_per_fit",
        "mcmc.summary_ms_per_fit",
        "mcmc.diagnostics_ms_per_fit",
    ];
    let fits = specs.len().max(1) as f64;
    for (name, stage) in names
        .into_iter()
        .zip(std::iter::once(SETUP_SPAN).chain(PHASES))
    {
        let total: f64 = tracer.durations_ms(stage).iter().sum();
        layers.set(name, total / fits);
    }
    layers.set("core.breakdown_gap_pct", median(&gap) * 100.0);
    Ok(median(&overhead) * 100.0)
}

/// Exact-count and occupancy metrics of a profiled pass over `specs`.
///
/// # Errors
///
/// A fit error.
pub fn profile_fits(layers: &mut Layers, specs: &[FitSpec]) -> Result<(), String> {
    let p = crate::fit::profiled_pass(specs).map_err(|e| format!("profiled pass: {e}"))?;
    layers.set("mcmc.ess_residual", p.ess / p.fits.max(1) as f64);
    layers.set("mcmc.suffstats_passes_per_ess", p.suffstats as f64 / p.ess);
    layers.set(
        "mcmc.chain_busy_share",
        p.chain_ns as f64 / p.capacity_ns as f64,
    );
    Ok(())
}

/// Measures the layers this workload does not exercise with a short run
/// of the workload that does (one fleet batch; a few seconds of
/// `serve-fit`), writes the span file, and turns the per-layer values
/// into the run's metrics. The probes' spans stay out of the file.
///
/// # Errors
///
/// A probe failed, the span file could not be written, or a per-layer
/// metric is still unset.
pub fn finish_trace(
    ctx: &Ctx,
    workload: &str,
    tracer: &crate::trace::Tracer,
    mut layers: Layers,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut probed = Vec::new();
    if layers.lacks(&BATCH_LAYER) {
        let mut probe = Layers::default();
        out.absorb(&crate::fleet_batch::probe(ctx, &mut probe)?);
        layers.fill_from(probe);
        probed.push("batch.* from one fleet batch");
    }
    if layers.lacks(&SERVED_LAYERS) {
        let mut probe = Layers::default();
        out.absorb(&crate::serve_fit::probe(ctx, &mut probe)?);
        layers.fill_from(probe);
        probed.push("the missing serve.*, store.* and loadgen.* from a short serve-fit run");
    }
    let path = ctx.span_file(workload);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.metrics = layers.into_metrics()?;
    out.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    if !probed.is_empty() {
        out.notes.push(format!(
            "{workload} does not exercise every layer; probed: {}",
            probed.join("; ")
        ));
    }
    Ok(out)
}
