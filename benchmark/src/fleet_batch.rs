//! `fleet-batch`: many short series through the batch engine.
//!
//! Batches of 128 seeded synthetic series (12–30 days, 40–120 bugs,
//! one exact duplicate in ten) go through `srm_batch::run_batch` with
//! model1 under the Poisson prior at 2 chains × (200 + 800). The
//! per-day kernel weighs less here and per-item fixed costs (sampler
//! set-up, WAIC replay, diagnostics, scheduling, duplicate coalescing)
//! weigh more than on `paper-grid`.

use crate::fit::{fit, Estimate};
use crate::inputs::{derive, duplicates_in, fleet_batch, FitSpec, POISSON};
use crate::measure::median;
use crate::trace::Tracer;
use crate::workload::{
    breakdown_pass, end_to_end, finish_trace, probe_layers, profile_fits, repeat_setup,
    timed_phase, Ctx, Layers, Outcome, Timed,
};
use srm_batch::{run_batch, BatchReport, BatchSpec, ItemStatus};
use srm_core::FitConfig;
use srm_data::BugCountData;
use srm_mcmc::runner::effective_threads;
use srm_mcmc::McmcConfig;
use srm_model::{DetectionModel, ZetaBounds};
use std::time::Instant;

/// Goodput limit on one batch call, ms. Nothing sets a latency
/// requirement on a batch; this limit exists only so that every workload
/// reports every end-to-end metric. At about twice a batch's usual
/// latency, every batch meets it, and `goodput_per_s` equals `ops_per_s`
/// here until batches get about twice as slow.
const LIMIT_MS: f64 = 2_000.0;

fn spec(ctx: &Ctx, mcmc: McmcConfig) -> BatchSpec {
    BatchSpec {
        prior: POISSON,
        model: DetectionModel::PadgettSpurrier,
        config: FitConfig {
            mcmc: McmcConfig {
                seed: derive(ctx.seed, 5),
                ..mcmc
            },
            zeta_bounds: ZetaBounds::default(),
        },
        options: crate::fit::options(),
    }
}

fn batch(ctx: &Ctx, index: usize) -> Vec<(String, BugCountData)> {
    fleet_batch(derive(ctx.seed, 100 + index as u64), ctx.scale.batch_items)
}

/// One `run_batch` call and its latency, ms.
fn call(
    spec: &BatchSpec,
    items: &[(String, BugCountData)],
    index: usize,
) -> (f64, Result<BatchReport, String>) {
    let started = Instant::now();
    let report = run_batch(spec, items, &format!("bench-{index}")).map_err(|e| e.to_string());
    (started.elapsed().as_secs_f64() * 1e3, report)
}

/// Each item's estimate; `None` for an item that failed, came back
/// degraded, or fails the estimate checks.
fn estimates(report: &BatchReport) -> Vec<Option<Estimate>> {
    report
        .items
        .iter()
        .map(|item| match (&item.fit, item.status) {
            (Some(fit), ItemStatus::Done) => {
                Some(Estimate::of(fit)).filter(|e| e.fault().is_none())
            }
            _ => None,
        })
        .collect()
}

/// Records one batch in the tally and checks its duplicate coalescing.
fn record(
    t: &mut Timed,
    index: usize,
    items: usize,
    ms: f64,
    report: &Result<BatchReport, String>,
) {
    let report = match report {
        Ok(report) => report,
        Err(e) => return t.fail(items as u64, format!("batch {index}: {e}")),
    };
    let done = estimates(report);
    let ok = done.iter().flatten().count();
    let ess: f64 = done.iter().flatten().map(|e| e.ess).sum();
    if ok < items {
        t.problem(format!("batch {index}: {} items failed", items - ok));
    }
    if report.cache_hits != duplicates_in(items) {
        t.problem(format!(
            "batch {index} coalesced {} duplicates, expected {}",
            report.cache_hits,
            duplicates_in(items)
        ));
    }
    t.record(ms, ok as u64, (items - ok) as u64, ess, LIMIT_MS);
}

/// A batch's items and what `run_batch` returned for them.
type Batch = (Vec<(String, BugCountData)>, BatchReport);

/// The untraced timed batches; returns the first batch for the checks
/// after the phase.
fn phase(ctx: &Ctx) -> Result<(Timed, Option<Batch>), String> {
    let spec = spec(ctx, ctx.scale.small_mcmc);
    timed_phase(|t| {
        let started = Instant::now();
        let mut first = None;
        let mut i = 0;
        while started.elapsed().as_secs_f64() < ctx.scale.seconds {
            let items = batch(ctx, i);
            let (ms, report) = call(&spec, &items, i);
            record(t, i, items.len(), ms, &report);
            if let (None, Ok(report)) = (&first, report) {
                first = Some((items, report));
            }
            i += 1;
        }
        Ok(first)
    })
}

/// The lone fit of batch item `index`, at the seed the batch derived.
fn item_spec(
    ctx: &Ctx,
    items: &[(String, BugCountData)],
    report: &BatchReport,
    index: usize,
) -> FitSpec {
    FitSpec {
        prior: POISSON,
        model: DetectionModel::PadgettSpurrier,
        data: items[index].1.clone(),
        mcmc: McmcConfig {
            seed: report.items[index].seed,
            ..ctx.scale.small_mcmc
        },
    }
}

/// The batch engine's figures over the batches it ran.
#[derive(Debug, Default)]
struct Engine {
    /// Wall time of every item that sampled, ms.
    item_ms: Vec<f64>,
    /// Sum of `item_ms`.
    busy_ms: f64,
    /// Batch wall time times the pool's workers, summed, ms.
    capacity_ms: f64,
    /// Items served by coalescing with a twin.
    coalesced: usize,
    /// Items in all.
    items: usize,
}

impl Engine {
    fn add(&mut self, spec: &BatchSpec, report: &BatchReport) {
        let units = (report.items.len() - report.cache_hits) * spec.config.mcmc.chains;
        for item in report.items.iter().filter(|item| !item.cached) {
            self.item_ms.push(item.wall_ms);
            self.busy_ms += item.wall_ms;
        }
        self.capacity_ms += report.wall_ms * effective_threads(spec.options.threads, units) as f64;
        self.coalesced += report.cache_hits;
        self.items += report.items.len();
    }

    fn set(&self, layers: &mut Layers) {
        layers.set("batch.item_ms_p50", median(&self.item_ms));
        layers.set("batch.pool_busy_share", self.busy_ms / self.capacity_ms);
        layers.set(
            "batch.coalesced_share",
            self.coalesced as f64 / self.items.max(1) as f64,
        );
    }
}

/// The batch-layer figures of one fleet batch, for the traced runs of
/// the workloads that run no batches.
///
/// # Errors
///
/// The batch failed.
pub fn probe(ctx: &Ctx, layers: &mut Layers) -> Result<Timed, String> {
    let spec = spec(ctx, ctx.scale.small_mcmc);
    let items = batch(ctx, 0);
    let (ms, report) = call(&spec, &items, 0);
    let mut t = Timed::default();
    record(&mut t, 0, items.len(), ms, &report);
    let mut engine = Engine::default();
    engine.add(&spec, &report?);
    engine.set(layers);
    Ok(t)
}

/// The traced run: each batch twice, back to back, untraced and then
/// under a span, so the tracing overhead (the median over the pairs) is
/// measured without host drift between two phases; the engine figures
/// come from the traced calls.
fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = &ctx.scale;
    let mut out = Outcome::default();
    let spec = spec(ctx, scale.small_mcmc);
    let tracer = Tracer::new(true, ctx.seed);
    let mut t = Timed::default();
    let mut overhead = Vec::new();
    let mut engine = Engine::default();
    let mut first = None;
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < scale.seconds {
        let items = batch(ctx, i);
        let (plain_ms, plain) = call(&spec, &items, i);
        let span = tracer.root("srm-batch/run_batch");
        let (ms, report) = call(&spec, &items, i);
        span.end();
        overhead.push(ms / plain_ms - 1.0);
        record(&mut t, i, items.len(), ms, &report);
        if let (Ok(a), Ok(b)) = (&plain, &report) {
            out.check(estimates(a) == estimates(b), || {
                format!("batch {i} differs between two identical calls")
            });
            engine.add(&spec, b);
        }
        if let (None, Ok(report)) = (&first, report) {
            first = Some((items, report));
        }
        i += 1;
    }
    out.absorb(&t);
    let (items, report) = first.ok_or("no batch completed")?;

    let mut layers = Layers::default();
    layers.set("trace_overhead_pct", median(&overhead) * 100.0);
    engine.set(&mut layers);
    let primaries: Vec<FitSpec> = (0..items.len())
        .filter(|&i| !report.items[i].cached)
        .take(scale.small_pass_fits)
        .map(|i| item_spec(ctx, &items, &report, i))
        .collect();
    breakdown_pass(&mut layers, &tracer, &primaries, &mut out.problems)?;
    profile_fits(&mut layers, &primaries)?;
    let series: Vec<BugCountData> = primaries.iter().map(|s| s.data.clone()).collect();
    probe_layers(
        &mut layers,
        &series,
        &report.to_value(),
        ctx.seed,
        scale.probe_scale,
    );
    finish_trace(ctx, "fleet-batch", &tracer, layers, out)
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure or an unreadable `/proc`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return traced(ctx);
    }
    let scale = &ctx.scale;
    let mut out = Outcome::default();
    // Set-up: generate the first batch and push a short one through the
    // engine so thread and page set-up is paid before timing.
    let warm_spec = spec(
        ctx,
        McmcConfig {
            burn_in: 50.min(scale.small_mcmc.burn_in),
            samples: 200.min(scale.small_mcmc.samples),
            ..scale.small_mcmc
        },
    );
    let (setup_s, ()) = repeat_setup(
        scale.setup_reps,
        |_| {
            let items = batch(ctx, 0);
            let warm = &items[..items.len().min(8)];
            let report = run_batch(&warm_spec, warm, "warm-up").map_err(|e| e.to_string())?;
            match report.failed() {
                0 => Ok(()),
                failed => Err(format!("warm-up batch: {failed} items failed")),
            }
        },
        |()| {},
    )?;

    let (plain, first) = phase(ctx)?;
    out.absorb(&plain);
    let (items, report) = first.ok_or("no batch completed")?;
    // A batch item must equal a lone fit at its derived seed, and a
    // duplicate must equal its original, without sampling.
    let done = estimates(&report);
    let duplicate = report.items.iter().position(|item| item.cached);
    for index in std::iter::once(0).chain(duplicate) {
        let lone = fit(&item_spec(ctx, &items, &report, index))
            .map(|f| Estimate::of(&f))
            .ok();
        out.check(lone.is_some() && lone == done[index], || {
            format!("batch item {index} differs from a lone fit at its seed")
        });
    }
    let (metrics, note) = end_to_end(&plain, &setup_s)?;
    out.metrics = metrics;
    out.notes.push(note);
    out.notes
        .push("fleet-batch latency is per run_batch call; ops are batch items".to_owned());
    Ok(out)
}
