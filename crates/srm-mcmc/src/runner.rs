//! Multi-chain parallel MCMC driver, and the workspace's one work pool.
//!
//! Chains run on [`run_pool`], a bounded pool of named scoped threads
//! ([`RunOptions::threads`]; default `min(chains, cores)`) that also
//! runs batch units, SBC replications, experiment cells and WAIC grid
//! cells. Chain `i` draws from the `i`-th xoshiro256\*\* jump stream
//! of the seed and workers pull chain indices from an atomic
//! dispenser, so the draws are bit-identical for any thread count —
//! scheduling decides only *when* a chain runs, never what it
//! computes. Each worker buffers its chains' trace events and the
//! driver replays them in chain order after the pool drains, so
//! recorded traces are deterministic too (streaming
//! `diagnostic-checkpoint` events alone are delivered live, in arrival
//! order, so progress can be observed mid-run).
//!
//! [`run_chains_fault_tolerant`] is the panic-contained entry point:
//! each chain is wrapped in `catch_unwind`, faulted sweeps are
//! retried per [`RetryPolicy`], and a failed chain degrades the run to
//! partial output with an explicit [`ChainReport`] instead of aborting
//! the process.

use crate::chain::Chain;
use crate::fault::{panic_message, ChainReport, FaultPlan, RecoveryLog, RetryPolicy, SrmError};
use crate::gibbs::GibbsSampler;
use srm_obs::{lock_ignoring_poison, Event, Recorder, NOOP};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Run-length and seeding configuration for an MCMC run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McmcConfig {
    /// Number of independent chains (≥ 1; Gelman–Rubin needs ≥ 2).
    pub chains: usize,
    /// Discarded warm-up sweeps per chain.
    pub burn_in: usize,
    /// Kept draws per chain.
    pub samples: usize,
    /// Keep every `thin`-th sweep after burn-in.
    pub thin: usize,
    /// Base seed; chain `i` uses jump stream `i`.
    pub seed: u64,
}

impl Default for McmcConfig {
    fn default() -> Self {
        Self {
            chains: 4,
            burn_in: 2_000,
            samples: 10_000,
            thin: 1,
            seed: 0x5EED_CAFE,
        }
    }
}

impl McmcConfig {
    /// A small configuration for unit tests and smoke runs.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self {
            chains: 2,
            burn_in: 300,
            samples: 500,
            thin: 1,
            seed,
        }
    }
}

/// The output of a multi-chain run.
#[derive(Debug, Clone, PartialEq)]
pub struct McmcOutput {
    /// One chain per configured stream, in stream order.
    pub chains: Vec<Chain>,
}

impl McmcOutput {
    /// Concatenates the draws of one parameter across all chains.
    #[must_use]
    pub fn pooled(&self, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for chain in &self.chains {
            if let Some(d) = chain.draws(name) {
                out.extend_from_slice(d);
            }
        }
        out
    }

    /// Per-chain draw slices for one parameter (for diagnostics).
    ///
    /// # Errors
    ///
    /// Returns [`SrmError::MissingParameter`] naming the first chain
    /// that lacks `name` — a silent partial answer would corrupt
    /// cross-chain diagnostics.
    pub fn per_chain(&self, name: &str) -> Result<Vec<&[f64]>, SrmError> {
        self.chains
            .iter()
            .enumerate()
            .map(|(i, c)| {
                c.draws(name).ok_or_else(|| SrmError::MissingParameter {
                    parameter: name.to_owned(),
                    chain: i,
                })
            })
            .collect()
    }

    /// Parameter names (identical across chains); empty when the
    /// output holds no chains.
    #[must_use]
    pub fn names(&self) -> &[String] {
        self.chains.first().map_or(&[], |c| c.names())
    }
}

/// Fault-handling and scheduling configuration for
/// [`run_chains_fault_tolerant`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Per-chain retry budget for faulted sweeps.
    pub retry: RetryPolicy,
    /// Deterministic fault injection (empty = none).
    pub fault_plan: FaultPlan,
    /// Worker threads running the chains: `0` (the default) means
    /// auto, `min(chains, cores)`. Any value yields bit-identical
    /// draws — see [`effective_threads`].
    pub threads: usize,
    /// Streaming diagnostic-checkpoint cadence in sweeps; `0` (the
    /// default) disables checkpoints. Checkpoints never touch the
    /// sampler's RNG, so any cadence yields bit-identical draws.
    pub checkpoint_every: usize,
    /// Phase-time profiler, installed on every worker thread for the
    /// duration of its chains. `None` (the default) leaves the span
    /// probes inert. The profiler only reads clocks — draws are
    /// bit-identical with it on or off.
    pub profiler: Option<std::sync::Arc<srm_obs::Profiler>>,
}

impl RunOptions {
    /// No retries, no injection, auto thread count: the strictest
    /// configuration.
    #[must_use]
    pub fn none() -> Self {
        Self {
            retry: RetryPolicy::none(),
            fault_plan: FaultPlan::none(),
            threads: 0,
            checkpoint_every: 0,
            profiler: None,
        }
    }

    /// [`RunOptions::none`] pinned to `threads` workers.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::none()
        }
    }
}

/// Resolves a requested worker count against the number of work units
/// (chains, batch units, replications, cells) and the machine: `0`
/// means auto (`min(units, available cores)`), anything else is
/// clamped to `[1, units]`. More workers than units would only idle,
/// so the clamp is loss-free. [`run_pool`] sizes itself with this.
#[must_use]
pub fn effective_threads(requested: usize, units: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if requested == 0 {
        units.min(cores).max(1)
    } else {
        requested.min(units.max(1))
    }
}

/// Runs `task(u)` for every unit `u` in `0..units` on
/// [`effective_threads`]`(threads, units)` named scoped workers
/// (`srm-pool-N`) and returns the results in unit order.
///
/// This is the workspace's one fan-out: the chains of a run, the
/// chains of a batch, SBC replications, experiment cells and WAIC
/// grid cells all run here. Workers take unit indices from one atomic
/// counter, so a unit whose result depends only on its index yields
/// the same vector for any worker count and dispatch order. The pool
/// always spawns, even for one worker, so spans a unit opens (a
/// chain's `chain` span) are profiler roots, never nested under the
/// caller's open span.
///
/// Each unit runs under `catch_unwind`: a panicking unit leaves its
/// slot `None` and its worker goes on to the next unit, so the panic
/// never unwinds the caller. Every worker is joined before return; a
/// worker that could not be spawned only leaves its share to the
/// others. The caller decides how to report a `None`.
pub fn run_pool<T, F>(units: usize, threads: usize, task: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= units {
                return done;
            }
            if let Ok(out) = catch_unwind(AssertUnwindSafe(|| task(u))) {
                done.push((u, out));
            }
        }
    };
    let mut slots: Vec<Option<T>> = (0..units).map(|_| None).collect();
    std::thread::scope(|scope| {
        // Named so the flight recorder's `thread` field and panic
        // messages say which pool worker ran the unit.
        let handles: Vec<_> = (0..effective_threads(threads, units))
            .filter_map(|w| {
                std::thread::Builder::new()
                    .name(format!("srm-pool-{w}"))
                    .spawn_scoped(scope, worker)
                    .ok()
            })
            .collect();
        for handle in handles {
            if let Ok(done) = handle.join() {
                for (u, out) in done {
                    slots[u] = Some(out);
                }
            }
        }
    });
    slots
}

/// Buffers one chain's trace events on the worker thread so the
/// driver can replay them in chain order after the pool drains —
/// recorded traces stay deterministic under any scheduling.
///
/// `enabled` delegates to the real recorder, so the disabled fast
/// path behaves exactly as it would with direct recording.
///
/// [`Event::DiagnosticCheckpoint`] is the one exception, and a
/// chain's one in-flight signal: it is forwarded to the real recorder
/// immediately (and not buffered), so live progress consumers see
/// convergence while the pool is still running. Checkpoint content is
/// per-chain and deterministic for any thread count; only the
/// cross-chain *interleaving* of checkpoint lines in a trace follows
/// worker scheduling (single-threaded runs interleave
/// deterministically, and per-chain order is always monotone in
/// `sweep`).
struct BufferRecorder<'a> {
    inner: &'a dyn Recorder,
    events: Mutex<Vec<Event>>,
}

impl<'a> BufferRecorder<'a> {
    fn new(inner: &'a dyn Recorder) -> Self {
        Self {
            inner,
            events: Mutex::new(Vec::new()),
        }
    }

    fn into_events(self) -> Vec<Event> {
        self.events
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Recorder for BufferRecorder<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: &Event) {
        if matches!(event, Event::DiagnosticCheckpoint { .. }) {
            // Live forwarding: progress consumers want checkpoints as
            // they happen, not after the pool drains.
            self.inner.record(event);
            return;
        }
        lock_ignoring_poison(&self.events).push(event.clone());
    }
}

/// The outcome of a fault-tolerant run: the surviving chains plus one
/// health report per configured chain.
#[derive(Debug, Clone)]
pub struct FaultTolerantRun {
    /// Surviving chains, in stream order (failed chains are absent).
    pub output: McmcOutput,
    /// One report per configured chain, in stream order.
    pub reports: Vec<ChainReport>,
}

impl FaultTolerantRun {
    /// Whether any chain was lost (output is partial).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.reports.iter().any(|r| !r.recovered)
    }

    /// Total retries consumed across all chains.
    #[must_use]
    pub fn total_retries(&self) -> usize {
        self.reports.iter().map(|r| r.retries).sum()
    }
}

/// Runs `config.chains` chains in parallel with panic containment,
/// bounded retry, and optional deterministic fault injection.
///
/// Each chain thread is wrapped in `catch_unwind`; a panicking or
/// faulted chain is dropped from the output and described in its
/// [`ChainReport`], so the run degrades to partial output instead of
/// aborting. With default options and no faults the output is
/// bit-identical to [`run_chains`].
///
/// # Errors
///
/// Returns [`SrmError::InvalidConfig`] when `config.chains == 0`, and
/// the first failed chain's fault when *every* chain is lost.
pub fn run_chains_fault_tolerant(
    sampler: &GibbsSampler,
    config: &McmcConfig,
    options: &RunOptions,
) -> Result<FaultTolerantRun, SrmError> {
    run_chains_fault_tolerant_traced(sampler, config, options, &NOOP)
}

/// One chain's finished work: its draws (absent when lost), its
/// report, its buffered trace events awaiting ordered replay, and its
/// wall time.
///
/// Produced by [`run_chain_task`] — the schedulable unit of a
/// multi-chain run. External schedulers (the batch executor fits
/// chains of *many* datasets on one pool) collect outcomes in any
/// order and hand them to [`assemble_run`]; because an outcome
/// depends only on its chain index, the result is bit-identical to
/// [`run_chains_fault_tolerant_traced`] for any schedule.
#[derive(Debug)]
pub struct ChainOutcome {
    /// The chain's draws; `None` when the chain was lost.
    pub chain: Option<Chain>,
    /// The chain's health report.
    pub report: ChainReport,
    /// Buffered trace events, replayed in chain order at assembly.
    pub events: Vec<Event>,
    /// Wall-clock time the chain spent on its worker thread, ms.
    pub wall_ms: f64,
}

/// [`run_chains_fault_tolerant`] with instrumentation: chain workers
/// emit sweep/fault/retry events to per-chain buffers that are
/// replayed into `recorder` in chain order once the pool drains,
/// contained panics are reported as [`Event::ChainPanicked`], and —
/// after the run is assembled — one [`Event::ChainReport`] per
/// configured chain (carrying that chain's wall time), so
/// event-derived fault counters match the returned
/// [`FaultTolerantRun::reports`] exactly.
///
/// The recorder is observation-only: draws are bit-identical to the
/// untraced call for any recorder, and the replayed event stream is
/// identical for any thread count (wall-time stamps excepted).
/// `diagnostic-checkpoint` events are the one exception to ordered
/// replay: they are forwarded live (for progress consumers) and so
/// interleave across chains in arrival order — deterministic with one
/// worker, scheduling-dependent otherwise; each chain's own
/// checkpoints are always monotone in `sweep`, and their *content* is
/// thread-count-invariant.
///
/// # Errors
///
/// Exactly as [`run_chains_fault_tolerant`].
pub fn run_chains_fault_tolerant_traced(
    sampler: &GibbsSampler,
    config: &McmcConfig,
    options: &RunOptions,
    recorder: &dyn Recorder,
) -> Result<FaultTolerantRun, SrmError> {
    if config.chains == 0 {
        return Err(SrmError::InvalidConfig {
            detail: "at least one chain is required".into(),
        });
    }
    // The RNG stream, fault plan and events of chain `i` depend only
    // on `i`, so the pool's dispatch order is free to vary.
    let base = srm_rand::Xoshiro256StarStar::seed_from(config.seed);
    let slots = run_pool(config.chains, options.threads, |i| {
        run_chain_task(sampler, &base, config, options, recorder, i)
    });
    assemble_run(config, slots, recorder)
}

/// Assembles a [`FaultTolerantRun`] from per-chain outcomes collected
/// by any scheduler: missing slots are reported as lost chains, each
/// chain's buffered events are replayed into `recorder` in chain
/// order, and one [`Event::ChainReport`] per configured chain is
/// emitted after assembly. This is the exact tail of
/// [`run_chains_fault_tolerant_traced`], exposed so external
/// schedulers (e.g. the cross-dataset batch executor) produce
/// bit-identical runs and traces.
///
/// `outcomes` must hold one entry per configured chain, in chain
/// order (`outcomes.len() == config.chains`).
///
/// # Errors
///
/// Returns the first failed chain's fault when every chain is lost.
pub fn assemble_run(
    config: &McmcConfig,
    slots: Vec<Option<ChainOutcome>>,
    recorder: &dyn Recorder,
) -> Result<FaultTolerantRun, SrmError> {
    let on = recorder.enabled();
    let mut chains = Vec::with_capacity(config.chains);
    let mut reports = Vec::with_capacity(config.chains);
    let mut walls = Vec::with_capacity(config.chains);
    for (i, slot) in slots.into_iter().enumerate() {
        // A missing slot means a worker died outside `catch_unwind` —
        // defensively reported as a lost chain rather than a panic.
        let outcome = slot.unwrap_or_else(|| ChainOutcome {
            chain: None,
            report: ChainReport {
                chain: i,
                fault: Some(SrmError::ChainPanicked {
                    chain: i,
                    message: "chain worker thread lost".into(),
                }),
                retries: 0,
                recovered: false,
            },
            events: Vec::new(),
            wall_ms: 0.0,
        });
        if on {
            // Replay in chain order: the merged trace is deterministic
            // for any thread count.
            for event in &outcome.events {
                recorder.record(event);
            }
        }
        chains.extend(outcome.chain);
        reports.push(outcome.report);
        walls.push(outcome.wall_ms);
    }
    if chains.is_empty() {
        let fault =
            reports
                .iter()
                .find_map(|r| r.fault.clone())
                .unwrap_or(SrmError::InvalidConfig {
                    detail: "no chains produced output".into(),
                });
        return Err(fault);
    }
    if on {
        // Post-assembly summaries: counting these reproduces the
        // returned reports' fault/retry totals exactly.
        for (report, wall_ms) in reports.iter().zip(&walls) {
            recorder.record(&Event::ChainReport {
                chain: report.chain,
                recovered: report.recovered,
                retries: report.retries as u64,
                fault: report.fault.as_ref().map(|f| f.kind().to_string()),
                wall_ms: *wall_ms,
            });
        }
    }
    Ok(FaultTolerantRun {
        output: McmcOutput { chains },
        reports,
    })
}

/// Runs chain `i` with panic containment on the calling thread,
/// buffering its events for ordered replay at [`assemble_run`].
///
/// This is the schedulable unit of a run: chain `i` draws from the
/// `i`-th jump stream of `base` (which must come from
/// `Xoshiro256StarStar::seed_from(config.seed)`), so an outcome
/// depends only on `(sampler, config, i)` — never on which worker ran
/// it or when. `recorder` is consulted for `enabled` and receives
/// live `diagnostic-checkpoint` events; everything else is buffered
/// into the outcome.
pub fn run_chain_task(
    sampler: &GibbsSampler,
    base: &srm_rand::Xoshiro256StarStar,
    config: &McmcConfig,
    options: &RunOptions,
    recorder: &dyn Recorder,
    i: usize,
) -> ChainOutcome {
    let on = recorder.enabled();
    let mut rng = base.split_stream(i as u64);
    let buffer = BufferRecorder::new(recorder);
    let chain_recorder: &dyn Recorder = if on { &buffer } else { &NOOP };
    // Install (a no-op when this worker already carries the profiler
    // from an earlier chain assignment — the outer guard wins) and
    // wrap the whole chain in a root span.
    let _profile_guard = srm_obs::profile::install(options.profiler.as_ref());
    let _chain_span = srm_obs::profile::span("chain");
    let started = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        sampler.chain_loop(&mut rng, config, options, i, chain_recorder)
    }));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let (chain, report) = match caught {
        Ok(Ok((
            chain,
            RecoveryLog {
                retries,
                last_fault,
            },
        ))) => (
            Some(chain),
            ChainReport {
                chain: i,
                fault: last_fault,
                retries,
                recovered: true,
            },
        ),
        Ok(Err(failure)) => (
            None,
            ChainReport {
                chain: i,
                fault: Some(failure.fault),
                retries: failure.retries,
                recovered: false,
            },
        ),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            if on {
                buffer.record(&Event::ChainPanicked {
                    chain: i,
                    detail: message.clone(),
                });
            }
            (
                None,
                ChainReport {
                    chain: i,
                    fault: Some(SrmError::ChainPanicked { chain: i, message }),
                    retries: 0,
                    recovered: false,
                },
            )
        }
    };
    ChainOutcome {
        chain,
        report,
        events: buffer.into_events(),
        wall_ms,
    }
}

/// Runs `config.chains` chains of `sampler` in parallel and collects
/// them. Thin strict wrapper over [`run_chains_fault_tolerant`] with no
/// retry and no injection: bit-identical output on fault-free runs,
/// and any fault aborts the process.
///
/// # Panics
///
/// Panics if `config.chains == 0` or any chain faults.
#[must_use]
pub fn run_chains(sampler: &GibbsSampler, config: &McmcConfig) -> McmcOutput {
    assert!(config.chains > 0, "at least one chain is required");
    match run_chains_fault_tolerant(sampler, config, &RunOptions::none()) {
        Ok(run) => {
            if let Some(report) = run.reports.iter().find(|r| !r.recovered) {
                panic!("{report}");
            }
            run.output
        }
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::PriorSpec;
    use srm_data::datasets;
    use srm_model::{DetectionModel, ZetaBounds};

    fn sampler(data: &srm_data::BugCountData) -> GibbsSampler {
        GibbsSampler::new(
            PriorSpec::Poisson { lambda_max: 2e3 },
            DetectionModel::Constant,
            ZetaBounds::default(),
            data,
        )
    }

    #[test]
    fn chain_i_is_a_lone_chain_on_jump_stream_i() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig {
            chains: 3,
            burn_in: 100,
            samples: 150,
            thin: 1,
            seed: 99,
        };
        let out = run_chains(&s, &config);
        let base = srm_rand::Xoshiro256StarStar::seed_from(config.seed);
        for (i, chain) in out.chains.iter().enumerate() {
            let mut rng = base.split_stream(i as u64);
            let lone = s.run_chain(&mut rng, config.burn_in, config.samples, config.thin);
            assert_eq!(*chain, lone, "chain {i}");
        }
    }

    #[test]
    fn pooled_concatenates_all_chains() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig::smoke(3);
        let out = run_chains(&s, &config);
        assert_eq!(out.pooled("residual").len(), config.chains * config.samples);
        assert_eq!(out.per_chain("residual").unwrap().len(), config.chains);
        assert!(out.names().iter().any(|n| n == "lambda0"));
    }

    #[test]
    fn empty_output_has_no_names_and_missing_params_are_typed() {
        let empty = McmcOutput { chains: Vec::new() };
        assert!(empty.names().is_empty());
        assert!(empty.pooled("residual").is_empty());
        assert_eq!(empty.per_chain("residual").unwrap(), Vec::<&[f64]>::new());

        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let out = run_chains(&s, &McmcConfig::smoke(9));
        let err = out.per_chain("not_a_param").unwrap_err();
        assert!(matches!(
            err,
            crate::fault::SrmError::MissingParameter { ref parameter, chain: 0 }
                if parameter == "not_a_param"
        ));
    }

    #[test]
    fn fault_tolerant_run_matches_strict_run_when_fault_free() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig::smoke(12);
        let strict = run_chains(&s, &config);
        let tolerant = run_chains_fault_tolerant(
            &s,
            &config,
            &RunOptions {
                retry: RetryPolicy::default(),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(strict, tolerant.output);
        assert!(!tolerant.is_degraded());
        assert_eq!(tolerant.total_retries(), 0);
        assert!(tolerant.reports.iter().all(|r| r.fault.is_none()));
    }

    #[test]
    fn zero_chains_is_a_typed_error() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig {
            chains: 0,
            ..McmcConfig::smoke(1)
        };
        let err = run_chains_fault_tolerant(&s, &config, &RunOptions::none()).unwrap_err();
        assert!(matches!(err, crate::fault::SrmError::InvalidConfig { .. }));
    }

    #[test]
    fn chains_differ_across_streams() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let out = run_chains(&s, &McmcConfig::smoke(4));
        assert_ne!(out.chains[0], out.chains[1]);
    }

    #[test]
    fn output_stores_every_thinned_kept_draw() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig {
            chains: 2,
            burn_in: 50,
            samples: 80,
            thin: 3,
            seed: 5,
        };
        let out = run_chains(&s, &config);
        assert!(out.chains.iter().all(|c| c.len() == 80));
        assert_eq!(out.pooled("n").len(), 160);
    }

    #[test]
    fn default_config_is_paper_scale() {
        let c = McmcConfig::default();
        assert_eq!(c.chains, 4);
        assert!(c.samples >= 10_000);
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(effective_threads(0, 4), 4.min(cores).max(1));
        assert_eq!(effective_threads(1, 4), 1);
        assert_eq!(effective_threads(4, 4), 4);
        // More workers than chains would idle: clamped down.
        assert_eq!(effective_threads(64, 4), 4);
        // Degenerate inputs stay positive.
        assert_eq!(effective_threads(0, 0), 1);
        assert_eq!(effective_threads(3, 0), 1);
    }

    #[test]
    fn pool_runs_every_unit_once_in_slot_order() {
        for workers in [1, 2, 4, 9] {
            let hits = AtomicUsize::new(0);
            let out = run_pool(7, workers, |u| {
                hits.fetch_add(1, Ordering::Relaxed);
                u * 10
            });
            assert_eq!(hits.load(Ordering::Relaxed), 7, "workers={workers}");
            let values: Vec<usize> = out.into_iter().map(|s| s.unwrap()).collect();
            assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60]);
        }
    }

    #[test]
    fn pool_contains_a_panicking_unit_to_its_own_slot() {
        for workers in [1, 2, 4, 9] {
            let out = run_pool(7, workers, |u| {
                assert_ne!(u, 3, "unit 3 panics");
                u * 10
            });
            assert_eq!(out.len(), 7, "workers={workers}");
            for (u, slot) in out.iter().enumerate() {
                if u == 3 {
                    assert_eq!(*slot, None, "workers={workers}");
                } else {
                    assert_eq!(*slot, Some(u * 10), "workers={workers} unit={u}");
                }
            }
        }
    }

    #[test]
    fn pool_of_zero_units_is_empty() {
        assert!(run_pool(0, 4, |u| u).is_empty());
    }

    #[test]
    fn external_scheduling_matches_the_pooled_runner() {
        // Collect chain outcomes in reverse order on the caller's
        // thread — the most hostile legal schedule — and assemble.
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig {
            chains: 3,
            burn_in: 80,
            samples: 120,
            thin: 1,
            seed: 777,
        };
        let options = RunOptions::none();
        let base = srm_rand::Xoshiro256StarStar::seed_from(config.seed);
        let mut slots: Vec<Option<ChainOutcome>> = (0..config.chains).map(|_| None).collect();
        for i in (0..config.chains).rev() {
            slots[i] = Some(run_chain_task(&s, &base, &config, &options, &NOOP, i));
        }
        let assembled = assemble_run(&config, slots, &NOOP).unwrap();
        let pooled = run_chains_fault_tolerant(&s, &config, &options).unwrap();
        assert_eq!(assembled.output, pooled.output);
        assert_eq!(assembled.reports.len(), pooled.reports.len());
    }

    #[test]
    fn any_thread_count_is_bit_identical() {
        let data = datasets::musa_cc96().truncated(25).unwrap();
        let s = sampler(&data);
        let config = McmcConfig {
            chains: 4,
            burn_in: 100,
            samples: 150,
            thin: 1,
            seed: 4_321,
        };
        let serial = run_chains_fault_tolerant(&s, &config, &RunOptions::with_threads(1))
            .unwrap()
            .output;
        for threads in [2usize, 4, 0] {
            let run =
                run_chains_fault_tolerant(&s, &config, &RunOptions::with_threads(threads)).unwrap();
            assert_eq!(run.output, serial, "threads={threads} diverged");
            assert_eq!(run.reports.len(), config.chains);
        }
    }
}
