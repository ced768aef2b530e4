//! Integration tests for the observability layer (PR 2).
//!
//! Three contracts from the design:
//!
//! 1. **Never perturbs the run** — a fit traced through live JSONL +
//!    progress sinks is bit-identical to the untraced fit on the same
//!    seed (the recorder has no RNG access), and with checkpoints off
//!    it records the same number of events however many sweeps it
//!    runs.
//! 2. **Typed, schema-valid traces** — under deterministic fault
//!    injection every JSONL line parses, carries a known `type`, has
//!    that type's required fields, and every injected fault / retry /
//!    contained panic appears as its typed event.
//! 3. **Manifest counters match the engine** — the
//!    [`srm::obs::StatsCollector`] aggregates (which fill the
//!    `--metrics-out` manifest) must equal
//!    `ExperimentResults::fault_counters` / `total_retries` exactly.
//!
//! PR 5 adds two streaming-checkpoint contracts:
//!
//! 4. **Checkpoints never perturb the run** — any
//!    `checkpoint_every` cadence yields draws bit-identical to a
//!    checkpoint-free run on the same seed.
//! 5. **The final checkpoint agrees with post-hoc diagnostics** —
//!    aggregating each chain's last `diagnostic-checkpoint` must
//!    reproduce `diagnostics::report`: R̂ to round-off, ESS within 2%
//!    (exact when Geyer truncation falls inside the lag window).
//!
//! PR 7 adds the profiling contracts:
//!
//! 6. **Profiling never perturbs the run** — across a pseudo-random
//!    grid of models, priors, and seeds, draws with the span profiler
//!    installed are bit-identical to the unprofiled run (the profiler
//!    only reads clocks).
//! 7. **`ess_per_sec` is consistent** — each checkpoint's rate equals
//!    its ESS over its chain wall time exactly, and the aggregate rate
//!    agrees with post-hoc ESS over the same wall clock within 2%.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::sync::{Arc, Mutex};

use srm::core::{Experiment, ExperimentConfig, Fit, FitConfig};
use srm::data::{datasets, ObservationPlan};
use srm::mcmc::runner::{McmcConfig, RunOptions};
use srm::mcmc::{FaultKind, FaultPlan, FaultPoint, RetryPolicy};
use srm::model::DetectionModel;
use srm::obs::json::{parse, Value};
use srm::obs::{
    aggregate, required_fields, ChainCheckpoint, Event, JsonlSink, Profiler, ProgressSink,
    Recorder, StatsCollector, Tee, EVENT_KINDS, NOOP,
};
use srm::prelude::PriorSpec;

/// A `Write` handle into a shared buffer, for capturing sink output.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fit_config(chains: usize, seed: u64) -> FitConfig {
    FitConfig {
        mcmc: McmcConfig {
            chains,
            burn_in: 150,
            samples: 200,
            thin: 1,
            seed,
        },
        ..FitConfig::default()
    }
}

const PRIOR: PriorSpec = PriorSpec::Poisson {
    lambda_max: 2_000.0,
};

#[test]
fn traced_fit_is_bit_identical_to_untraced() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let config = fit_config(2, 4_242);

    let plain = Fit::try_run(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &RunOptions::default(),
    )
    .unwrap();

    // Live sinks: JSONL plus a progress sink at its chattiest.
    let trace = SharedBuf::default();
    let progress = SharedBuf::default();
    let tee = Tee::new(vec![
        Arc::new(JsonlSink::from_writer(Box::new(trace.clone()))),
        Arc::new(ProgressSink::to_writer(Box::new(progress.clone()), 2)),
    ]);
    let traced = Fit::try_run_traced(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &RunOptions::default(),
        &tee,
    )
    .unwrap();

    // And the explicit no-op recorder, for completeness.
    let noop = Fit::try_run_traced(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &RunOptions::default(),
        &NOOP,
    )
    .unwrap();

    for other in [&traced, &noop] {
        assert_eq!(
            plain.fit.residual_draws.len(),
            other.fit.residual_draws.len()
        );
        for (a, b) in plain
            .fit
            .residual_draws
            .iter()
            .zip(&other.fit.residual_draws)
        {
            assert_eq!(a.to_bits(), b.to_bits(), "draws diverged under tracing");
        }
        assert_eq!(
            plain.fit.waic.total().to_bits(),
            other.fit.waic.total().to_bits()
        );
        assert_eq!(
            plain.fit.residual.mean.to_bits(),
            other.fit.residual.mean.to_bits()
        );
    }

    // The trace actually captured the run.
    assert!(!trace.contents().is_empty());
    assert!(!progress.contents().is_empty());
}

#[test]
fn traced_event_count_does_not_grow_with_sweeps() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let events_at = |samples: usize| {
        let config = FitConfig {
            mcmc: McmcConfig {
                samples,
                ..fit_config(2, 31).mcmc
            },
            ..FitConfig::default()
        };
        let counter = Arc::new(StatsCollector::new());
        let sinks: Vec<Arc<dyn Recorder>> = vec![
            Arc::new(ProgressSink::to_writer(Box::new(SharedBuf::default()), 1)),
            counter.clone(),
        ];
        Fit::try_run_traced(
            PRIOR,
            DetectionModel::Constant,
            &data,
            &config,
            &RunOptions::none(),
            &Tee::new(sinks),
        )
        .unwrap();
        counter.events_seen()
    };
    assert_eq!(events_at(100), events_at(1_000));
}

#[test]
fn jsonl_trace_is_schema_valid_under_fault_injection() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let config = fit_config(2, 77);
    let options = RunOptions {
        retry: RetryPolicy { max_retries: 3 },
        fault_plan: FaultPlan::new(vec![
            FaultPoint {
                chain: 0,
                sweep: 5,
                kind: FaultKind::NanRate,
            },
            FaultPoint {
                chain: 0,
                sweep: 9,
                kind: FaultKind::SliceExhausted,
            },
            FaultPoint {
                chain: 1,
                sweep: 3,
                kind: FaultKind::Panic,
            },
        ]),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };

    let trace = SharedBuf::default();
    let sink = JsonlSink::from_writer(Box::new(trace.clone()));
    let tolerant = Fit::try_run_traced(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &options,
        &sink,
    )
    .unwrap();
    drop(sink); // flush

    let text = trace.contents();
    let mut kinds_seen = std::collections::BTreeMap::<String, usize>::new();
    for line in text.lines() {
        let doc = parse(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e:?}"));
        let kind = doc
            .get("type")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("line without type: {line}"))
            .to_owned();
        assert!(
            EVENT_KINDS.contains(&kind.as_str()),
            "unknown event type `{kind}`"
        );
        for field in required_fields(&kind).unwrap() {
            assert!(
                doc.get(field).is_some(),
                "event `{kind}` missing required field `{field}`: {line}"
            );
        }
        // Every event carries the wall-clock stamp the sink adds.
        assert!(doc.get("ms").is_some(), "event without ms stamp: {line}");
        *kinds_seen.entry(kind).or_insert(0) += 1;
    }

    // All three injected faults surfaced as typed events.
    assert_eq!(kinds_seen.get("fault-injected").copied(), Some(3));
    // The two recoverable faults on chain 0 produced sweep-fault +
    // retry pairs; the panic on chain 1 was contained and reported.
    assert!(kinds_seen.get("sweep-fault").copied() >= Some(2));
    assert!(kinds_seen.get("retry").copied() >= Some(2));
    assert_eq!(kinds_seen.get("chain-panicked").copied(), Some(1));
    // Post-assembly reports: one per configured chain.
    assert_eq!(kinds_seen.get("chain-report").copied(), Some(2));
    // Phase spans from the orchestration layer.
    assert!(kinds_seen.contains_key("phase-start"));
    assert!(kinds_seen.contains_key("phase-end"));
    assert!(kinds_seen.contains_key("waic"));

    // The trace agrees with the engine's own report.
    assert!(tolerant.is_degraded());
    assert_eq!(tolerant.total_retries(), 2);
}

#[test]
fn stats_collector_matches_experiment_fault_counters() {
    let mut config = ExperimentConfig::smoke(9_119);
    config.models = vec![DetectionModel::Constant];
    config.mcmc = McmcConfig {
        chains: 2,
        burn_in: 100,
        samples: 150,
        thin: 1,
        seed: 9_119,
    };
    let exp = Experiment::new(datasets::musa_cc96(), config)
        .with_plan(ObservationPlan::from_days(&[48, 96]));
    let options = RunOptions {
        retry: RetryPolicy::none(),
        fault_plan: FaultPlan::new(vec![FaultPoint {
            chain: 1,
            sweep: 3,
            kind: FaultKind::Panic,
        }]),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };

    let stats = StatsCollector::new();
    let results = exp.try_run(&options, &stats).unwrap();

    // The collector's counters — the numbers the manifest reports —
    // must equal the engine's own aggregation exactly.
    let engine: Vec<(String, u64)> = results
        .fault_counters()
        .into_iter()
        .map(|(kind, n)| (kind, n as u64))
        .collect();
    assert_eq!(stats.fault_counters(), engine);
    assert!(!engine.is_empty(), "injection produced no counters");
    assert_eq!(stats.retries_total(), results.total_retries() as u64);

    // Live-event counters line up with the design: one injected fault
    // per cell (2 priors × 1 model × 2 days = 4 cells), each panicking
    // chain contained.
    assert_eq!(stats.faults_injected(), 4);
    assert_eq!(stats.panics_contained(), 4);
    // One cell-end per successful cell feeding the wall-time histogram.
    assert_eq!(stats.cell_wall_ms().count(), results.cells().len() as u64);
    // Per-chain reports collected for every configured chain.
    assert_eq!(
        stats.chain_reports().len(),
        results
            .cells()
            .iter()
            .map(|c| c.chain_reports.len())
            .sum::<usize>()
    );
}

#[test]
fn stats_collector_counts_whole_cell_failures_once() {
    // Single-chain cells whose only chain panics: the engine folds
    // each lost cell into `failures()`; the collector must count the
    // cell-failure event, not the per-chain panic, so totals still
    // match (no double counting).
    let mut config = ExperimentConfig::smoke(31);
    config.models = vec![DetectionModel::Constant];
    config.mcmc = McmcConfig {
        chains: 1,
        burn_in: 80,
        samples: 120,
        thin: 1,
        seed: 31,
    };
    let exp =
        Experiment::new(datasets::musa_cc96(), config).with_plan(ObservationPlan::from_days(&[48]));
    let options = RunOptions {
        retry: RetryPolicy::none(),
        fault_plan: FaultPlan::new(vec![FaultPoint {
            chain: 0,
            sweep: 2,
            kind: FaultKind::Panic,
        }]),
        threads: 0,
        checkpoint_every: 0,
        profiler: None,
    };

    let stats = StatsCollector::new();
    let results = exp.try_run(&options, &stats).unwrap();
    assert!(results.cells().is_empty());
    assert_eq!(results.failures().len(), 2); // 2 priors × 1 model × 1 day

    let engine: Vec<(String, u64)> = results
        .fault_counters()
        .into_iter()
        .map(|(kind, n)| (kind, n as u64))
        .collect();
    assert_eq!(stats.fault_counters(), engine);
    assert_eq!(engine, vec![("chain-panicked".to_owned(), 2)]);
}

#[test]
fn tee_fans_out_and_noop_stays_disabled() {
    let trace = SharedBuf::default();
    let stats = Arc::new(StatsCollector::new());
    let tee = Tee::new(vec![
        Arc::new(JsonlSink::from_writer(Box::new(trace.clone()))),
        Arc::clone(&stats) as Arc<dyn Recorder>,
    ]);
    assert!(tee.enabled());
    tee.record(&Event::PhaseEnd {
        phase: "sampling",
        wall_ms: 5.0,
    });
    assert_eq!(stats.phase_total_ms("sampling"), 5.0);
    assert!(!NOOP.enabled());

    // An empty tee is disabled: the zero-cost path with no sinks.
    assert!(!Tee::new(Vec::new()).enabled());
}

#[test]
fn checkpointed_fit_is_bit_identical_to_uncheckpointed() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let config = fit_config(2, 9_099);

    let plain = Fit::try_run(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &RunOptions::none(),
    )
    .unwrap();

    // Checkpoints at several cadences, streamed through a live JSONL
    // sink — including a cadence that never divides the sweep count
    // (only the forced final checkpoint fires) and cadence 1 (a
    // checkpoint every kept sweep, the most invasive setting).
    for every in [1usize, 25, 10_000] {
        let trace = SharedBuf::default();
        let tee = Tee::new(vec![
            Arc::new(JsonlSink::from_writer(Box::new(trace.clone()))) as Arc<dyn Recorder>,
        ]);
        let options = RunOptions {
            checkpoint_every: every,
            ..RunOptions::none()
        };
        let checkpointed = Fit::try_run_traced(
            PRIOR,
            DetectionModel::Constant,
            &data,
            &config,
            &options,
            &tee,
        )
        .unwrap();

        assert_eq!(
            plain.fit.residual_draws.len(),
            checkpointed.fit.residual_draws.len()
        );
        for (a, b) in plain
            .fit
            .residual_draws
            .iter()
            .zip(&checkpointed.fit.residual_draws)
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "draws diverged under checkpoint_every = {every}"
            );
        }
        assert_eq!(
            plain.fit.waic.total().to_bits(),
            checkpointed.fit.waic.total().to_bits()
        );
        assert!(
            trace.contents().contains("diagnostic-checkpoint"),
            "cadence {every} emitted no checkpoint"
        );
    }
}

#[test]
fn final_streaming_checkpoint_agrees_with_post_hoc_diagnostics() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let chains = 2;
    let config = fit_config(chains, 7_131);
    let stats = Arc::new(StatsCollector::new());
    let tee = Tee::new(vec![Arc::clone(&stats) as Arc<dyn Recorder>]);
    let options = RunOptions {
        checkpoint_every: 50,
        ..RunOptions::none()
    };
    let fitted = Fit::try_run_traced(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &options,
        &tee,
    )
    .unwrap();

    // Every chain delivered checkpoints, ending on the final sweep
    // with the full planned draw count.
    assert!(stats.checkpoints_seen() >= chains as u64);
    let total_sweeps = config.mcmc.burn_in + config.mcmc.samples;
    assert_eq!(stats.sweeps_completed(), (chains * total_sweeps) as u64);
    let latest = stats.latest_checkpoints();
    assert_eq!(latest.len(), chains);
    for cp in &latest {
        assert_eq!(cp.sweep, total_sweeps - 1);
        assert_eq!(cp.kept, config.mcmc.samples);
    }

    // Cross-chain aggregation of the final checkpoints must agree
    // with the post-hoc diagnostics the fit itself computed via
    // `diagnostics::report` over the stored draws.
    let refs: Vec<&ChainCheckpoint> = latest.iter().collect();
    let aggregated = aggregate(&refs);
    assert!(!aggregated.is_empty());
    assert!(!fitted.fit.diagnostics.is_empty());
    for agg in &aggregated {
        let (_, post) = fitted
            .fit
            .diagnostics
            .iter()
            .find(|(name, _)| *name == agg.parameter)
            .unwrap_or_else(|| panic!("no post-hoc report for {}", agg.parameter));

        // R-hat from streamed whole-chain moments is the same
        // rank-reduced formula as `diagnostics::psrf`: round-off only.
        assert!(
            (agg.rhat - post.psrf).abs() < 1e-9 * post.psrf.max(1.0),
            "{}: streamed R-hat {} vs post-hoc {}",
            agg.parameter,
            agg.rhat,
            post.psrf
        );

        // ESS is a per-chain sum on both sides. The streaming value
        // is exact when Geyer truncation lands inside the lag window
        // and an upper bound otherwise — never lower, and documented
        // to stay within 2% on this reference dataset.
        assert!(
            agg.ess >= post.ess - 1e-6 * post.ess,
            "{}: streaming ESS under-reports: {} < {}",
            agg.parameter,
            agg.ess,
            post.ess
        );
        assert!(
            (agg.ess - post.ess).abs() <= 0.02 * post.ess,
            "{}: streamed ESS {} vs post-hoc {} (> 2%)",
            agg.parameter,
            agg.ess,
            post.ess
        );

        // MCSE is `sqrt(pooled variance / summed chain ESS)` on both
        // sides: one convention, so the two differ only through the
        // ESS, and stay within the same 2%.
        assert!(agg.mcse.is_finite() && agg.mcse > 0.0);
        assert!(
            (agg.mcse - post.mcse).abs() <= 0.02 * post.mcse,
            "{}: streamed MCSE {} vs post-hoc {} (> 2%)",
            agg.parameter,
            agg.mcse,
            post.mcse
        );
    }
}

#[test]
fn profiled_fit_is_bit_identical_to_unprofiled() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    // Pseudo-random grid of (model, prior, seed) cases from an LCG:
    // deterministic for CI, varied enough to sweep the likelihood and
    // suffstats code paths the spans instrument.
    let mut state = 0x5_DEEC_E66Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 16
    };
    for case in 0..6 {
        let r = next();
        let model = DetectionModel::ALL[(r % 5) as usize];
        let prior = if (r >> 8) % 2 == 0 {
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            }
        } else {
            PriorSpec::NegBinomial { alpha_max: 100.0 }
        };
        let config = FitConfig {
            mcmc: McmcConfig {
                chains: 2,
                burn_in: 80,
                samples: 120,
                thin: 1,
                seed: 1_000 + (r >> 16) % 9_000,
            },
            ..FitConfig::default()
        };

        let plain = Fit::try_run(prior, model, &data, &config, &RunOptions::none()).unwrap();

        let profiler = Arc::new(Profiler::new());
        let options = RunOptions {
            profiler: Some(Arc::clone(&profiler)),
            ..RunOptions::none()
        };
        let profiled = Fit::try_run_traced(prior, model, &data, &config, &options, &NOOP).unwrap();

        assert_eq!(
            plain.fit.residual_draws.len(),
            profiled.fit.residual_draws.len(),
            "case {case}: draw counts diverged under profiling"
        );
        for (a, b) in plain
            .fit
            .residual_draws
            .iter()
            .zip(&profiled.fit.residual_draws)
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {case} ({model:?}): draws diverged under profiling"
            );
        }
        assert_eq!(
            plain.fit.waic.total().to_bits(),
            profiled.fit.waic.total().to_bits(),
            "case {case}: WAIC diverged under profiling"
        );

        // The profiler was not a spectator: the span taxonomy from
        // the chain workers landed in the merged profile.
        let paths: Vec<String> = profiler.snapshot().iter().map(|p| p.path.clone()).collect();
        for expected in ["chain", "chain/sweep"] {
            assert!(
                paths.iter().any(|p| p == expected),
                "case {case}: no `{expected}` span in {paths:?}"
            );
        }
        assert!(
            paths.iter().any(|p| p.contains("likelihood")),
            "case {case}: no likelihood span in {paths:?}"
        );
    }
}

#[test]
fn checkpoint_ess_per_sec_is_consistent_with_post_hoc_rate() {
    let data = datasets::musa_cc96().truncated(48).unwrap();
    let chains = 2;
    let config = fit_config(chains, 5_225);
    let stats = Arc::new(StatsCollector::new());
    let tee = Tee::new(vec![Arc::clone(&stats) as Arc<dyn Recorder>]);
    let options = RunOptions {
        checkpoint_every: 50,
        ..RunOptions::none()
    };
    let fitted = Fit::try_run_traced(
        PRIOR,
        DetectionModel::Constant,
        &data,
        &config,
        &options,
        &tee,
    )
    .unwrap();

    let latest = stats.latest_checkpoints();
    assert_eq!(latest.len(), chains);

    // Per chain, the checkpoint's rate is definitionally its ESS over
    // its own wall clock — round-off only.
    for cp in &latest {
        assert!(cp.wall_ms > 0.0, "chain {} has no wall clock", cp.chain);
        for param in &cp.params {
            if !param.ess.is_finite() {
                continue;
            }
            let expected = param.ess / (cp.wall_ms / 1e3);
            assert!(
                (param.ess_per_sec - expected).abs() <= 1e-9 * expected.max(1.0),
                "chain {} {}: rate {} vs ess/wall {}",
                cp.chain,
                param.parameter,
                param.ess_per_sec,
                expected
            );
        }
    }

    // The aggregate rate (total ESS per summed chain wall second) must
    // agree with the post-hoc diagnostics' ESS over the same wall
    // clock within the streaming layer's documented 2% ESS tolerance.
    let total_wall_secs: f64 = latest.iter().map(|c| c.wall_ms / 1e3).sum();
    let refs: Vec<&ChainCheckpoint> = latest.iter().collect();
    for agg in aggregate(&refs) {
        let (_, post) = fitted
            .fit
            .diagnostics
            .iter()
            .find(|(name, _)| *name == agg.parameter)
            .unwrap_or_else(|| panic!("no post-hoc report for {}", agg.parameter));
        let post_rate = post.ess / total_wall_secs;
        assert!(
            agg.ess_per_sec > 0.0,
            "{}: aggregate rate not positive",
            agg.parameter
        );
        assert!(
            (agg.ess_per_sec - post_rate).abs() <= 0.02 * post_rate,
            "{}: checkpoint rate {} vs post-hoc rate {} (> 2%)",
            agg.parameter,
            agg.ess_per_sec,
            post_rate
        );
    }
}
