//! `paper-grid`: the paper's own experiment, fitted in-process.
//!
//! Fits cover `musa_cc96` windows at 48, 96 and 146 days × the five
//! detection curves × the Poisson and negative-binomial priors, at the
//! paper's 4 chains × (1000 burn-in + 4000 kept), one `Fit::try_run` at
//! a time on two worker threads. Per-day likelihood work dominates, so a
//! faster kernel shows here first.

use crate::fit::{fit, Estimate};
use crate::inputs::{grid_cell, FitSpec, GRID_CELLS, GRID_DAYS};
use crate::trace::Tracer;
use crate::workload::{
    breakdown_pass, end_to_end, finish_trace, probe_layers, profile_fits, repeat_setup,
    timed_phase, Ctx, Layers, Outcome, Timed,
};
use srm_mcmc::McmcConfig;
use std::time::Instant;

/// Goodput limit on one fit, ms. The paper sets no latency requirement
/// on a fit; this limit exists only so that every workload reports every
/// end-to-end metric. At about twice the slowest cell, every fit meets
/// it, and `goodput_per_s` equals `ops_per_s` here until fits get about
/// twice as slow.
const LIMIT_MS: f64 = 3_000.0;

/// Seconds of `--seconds` per pass over the grid; a pass takes about 22 s
/// on a 2-vCPU 2.1 GHz Xeon.
const SECONDS_PER_PASS: f64 = 20.0;

/// The cells a run fits: whole passes over the grid, one per full
/// [`SECONDS_PER_PASS`] of `--seconds` and at least one. The count
/// depends on `--seconds` alone, never on speed, so every run — and a
/// parent and a child commit — fits exactly the same cells and reads
/// its percentiles from the same number of samples.
fn cells(ctx: &Ctx) -> Vec<FitSpec> {
    let passes = ((ctx.scale.seconds / SECONDS_PER_PASS).floor() as usize).max(1);
    (0..passes * GRID_CELLS)
        .map(|i| grid_cell(ctx.seed, i, ctx.scale.paper_mcmc))
        .collect()
}

/// The timed fits; returns the first estimate for the determinism
/// check. Every fit, chains included, is kept until the phase ends, as
/// the paper's experiment keeps every cell to build its tables.
fn phase(cells: &[FitSpec]) -> Result<(Timed, Option<Estimate>), String> {
    timed_phase(|t| {
        let mut first = None;
        let mut kept = Vec::with_capacity(cells.len());
        for (i, spec) in cells.iter().enumerate() {
            let call = Instant::now();
            let fitted = fit(spec);
            let ms = call.elapsed().as_secs_f64() * 1e3;
            let verdict = match &fitted {
                Ok(f) => {
                    let estimate = Estimate::of(f);
                    estimate.fault().map_or(Ok(estimate), Err)
                }
                Err(e) => Err(e.to_string()),
            };
            kept.push(fitted);
            match verdict {
                Ok(estimate) => {
                    t.record(ms, 1, 0, estimate.ess, LIMIT_MS);
                    first.get_or_insert(estimate);
                }
                Err(why) => t.fail(1, format!("grid fit {i}: {why}")),
            }
        }
        drop(kept);
        Ok(first)
    })
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure or an unreadable `/proc`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = &ctx.scale;
    let mut out = Outcome::default();
    let cells = cells(ctx);
    if ctx.trace {
        // Every cell twice, back to back: once in a single call, once
        // layer by layer under spans. The pairs give the breakdown and
        // the tracing overhead without host drift between two phases.
        let tracer = Tracer::new(true, ctx.seed);
        let mut layers = Layers::default();
        let overhead_pct = breakdown_pass(&mut layers, &tracer, &cells, &mut out.problems)?;
        out.attempted = cells.len() as u64;
        layers.set("trace_overhead_pct", overhead_pct);
        // Profiled pass: the full-horizon window under the Poisson prior,
        // one fit per curve.
        let profiled: Vec<FitSpec> = (0..scale.pass_fits.min(5))
            .map(|m| grid_cell(ctx.seed, m * 6 + 1, scale.paper_mcmc))
            .collect();
        profile_fits(&mut layers, &profiled)?;
        // Cells 0, 1 and 2 hold the three windows.
        let windows: Vec<_> = cells[..GRID_DAYS.len()]
            .iter()
            .map(|c| c.data.clone())
            .collect();
        let doc = fit(&cells[0])
            .map(|f| Estimate::of(&f).to_value())
            .map_err(|e| e.to_string())?;
        probe_layers(&mut layers, &windows, &doc, ctx.seed, scale.probe_scale);
        return finish_trace(ctx, "paper-grid", &tracer, layers, out);
    }

    // Set-up: build the grid's inputs, then one short fit so thread and
    // page set-up is paid before timing.
    let warm = FitSpec {
        mcmc: McmcConfig {
            burn_in: 50.min(scale.paper_mcmc.burn_in),
            samples: 200.min(scale.paper_mcmc.samples),
            ..scale.paper_mcmc
        },
        ..cells[0].clone()
    };
    let (setup_s, ()) = repeat_setup(
        scale.setup_reps,
        |_| {
            std::hint::black_box(self::cells(ctx));
            match fit(&warm).map(|f| Estimate::of(&f).fault()) {
                Ok(None) => Ok(()),
                Ok(Some(why)) => Err(format!("warm-up fit: {why}")),
                Err(e) => Err(format!("warm-up fit: {e}")),
            }
        },
        |()| {},
    )?;
    let (plain, first) = phase(&cells)?;
    out.absorb(&plain);
    let again = fit(&cells[0]).map(|f| Estimate::of(&f)).ok();
    out.check(first.is_some() && first == again, || {
        "refitting the first grid cell did not reproduce it bit for bit".to_owned()
    });
    let (metrics, note) = end_to_end(&plain, &setup_s)?;
    out.metrics = metrics;
    out.notes.push(note);
    Ok(out)
}
