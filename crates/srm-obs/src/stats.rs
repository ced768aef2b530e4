//! An in-memory aggregating recorder that turns the event stream into
//! the numbers the run manifest needs.
//!
//! [`StatsCollector`] is the bridge between tracing and metrics: the
//! CLI tees it alongside the JSONL/progress sinks, then reads the
//! aggregates back out when assembling the `--metrics-out` manifest.
//! Fault counters are derived from `chain-report` and `cell-failure`
//! events — the same post-assembly summaries the engine's own
//! `ChainReport`/`ExperimentResults::fault_counters` are built from —
//! so manifest totals provably match the engine's counters.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::checkpoint::ChainCheckpoint;
use crate::event::Event;
use crate::lock_ignoring_poison;
use crate::recorder::{Counter, FixedHistogram, Recorder};

/// One parameter's final convergence diagnostics, as collected from
/// `diagnostic` events.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticStat {
    /// Parameter name.
    pub parameter: String,
    /// Potential scale reduction factor.
    pub psrf: f64,
    /// Geweke z-score.
    pub geweke_z: f64,
    /// Effective sample size.
    pub ess: f64,
}

#[derive(Debug, Default)]
struct Inner {
    phase_ms: Vec<(String, f64)>,
    fault_counts: BTreeMap<String, u64>,
    report_retries: u64,
    chain_reports: Vec<(usize, bool, u64, Option<String>, f64)>,
    diagnostics: Vec<DiagnosticStat>,
    waic: Option<(String, f64, f64)>,
    checkpoints: BTreeMap<usize, ChainCheckpoint>,
}

/// Aggregates the event stream into manifest-ready statistics.
#[derive(Debug)]
pub struct StatsCollector {
    inner: Mutex<Inner>,
    retries_seen: Counter,
    faults_injected: Counter,
    panics_contained: Counter,
    events_seen: Counter,
    checkpoints_seen: Counter,
    cell_wall_ms: FixedHistogram,
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsCollector {
    /// A fresh collector.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            retries_seen: Counter::new(),
            faults_injected: Counter::new(),
            panics_contained: Counter::new(),
            events_seen: Counter::new(),
            checkpoints_seen: Counter::new(),
            // Cell wall times from ~1 ms to ~100 s.
            cell_wall_ms: FixedHistogram::exponential(1.0, 10.0, 6),
        }
    }

    /// Per-phase wall times `(phase, total_ms)`, summed over repeats
    /// in first-seen order.
    pub fn phase_ms(&self) -> Vec<(String, f64)> {
        lock_ignoring_poison(&self.inner).phase_ms.clone()
    }

    /// Total wall time attributed to `phase`, in milliseconds.
    pub fn phase_total_ms(&self, phase: &str) -> f64 {
        lock_ignoring_poison(&self.inner)
            .phase_ms
            .iter()
            .find(|(name, _)| name == phase)
            .map_or(0.0, |(_, ms)| *ms)
    }

    /// Fault counters `(kind, count)` sorted by kind, counted from
    /// post-assembly `chain-report` and `cell-failure` events.
    pub fn fault_counters(&self) -> Vec<(String, u64)> {
        lock_ignoring_poison(&self.inner)
            .fault_counts
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Total retries across all reported chains.
    pub fn retries_total(&self) -> u64 {
        lock_ignoring_poison(&self.inner).report_retries
    }

    /// Live `retry` events observed (equals [`Self::retries_total`]
    /// for successful runs; may exceed it when a chain is abandoned).
    pub fn retries_seen(&self) -> u64 {
        self.retries_seen.get()
    }

    /// `fault-injected` events observed.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.get()
    }

    /// `chain-panicked` events observed.
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained.get()
    }

    /// Every event seen, of any kind.
    pub fn events_seen(&self) -> u64 {
        self.events_seen.get()
    }

    /// Per-chain report tuples
    /// `(chain, recovered, retries, fault, wall_ms)` from
    /// `chain-report` events, sorted by chain index.
    pub fn chain_reports(&self) -> Vec<(usize, bool, u64, Option<String>, f64)> {
        let mut out = lock_ignoring_poison(&self.inner).chain_reports.clone();
        out.sort_by_key(|(chain, ..)| *chain);
        out
    }

    /// Final diagnostics from `diagnostic` events.
    pub fn diagnostics(&self) -> Vec<DiagnosticStat> {
        lock_ignoring_poison(&self.inner).diagnostics.clone()
    }

    /// Last `waic` event seen: `(model, total, p_waic)`.
    pub fn waic(&self) -> Option<(String, f64, f64)> {
        lock_ignoring_poison(&self.inner).waic.clone()
    }

    /// Histogram snapshot of experiment cell wall times (ms).
    pub fn cell_wall_ms(&self) -> &FixedHistogram {
        &self.cell_wall_ms
    }

    /// `diagnostic-checkpoint` events observed.
    pub fn checkpoints_seen(&self) -> u64 {
        self.checkpoints_seen.get()
    }

    /// The latest checkpoint of each chain, sorted by chain index.
    pub fn latest_checkpoints(&self) -> Vec<ChainCheckpoint> {
        lock_ignoring_poison(&self.inner)
            .checkpoints
            .values()
            .cloned()
            .collect()
    }

    /// Total sweeps completed across chains, as witnessed by the
    /// latest checkpoint of each (0 when checkpoints are disabled).
    pub fn sweeps_completed(&self) -> u64 {
        lock_ignoring_poison(&self.inner)
            .checkpoints
            .values()
            .map(|c| c.sweep as u64 + 1)
            .sum()
    }
}

impl Recorder for StatsCollector {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        self.events_seen.incr();
        match event {
            Event::PhaseEnd { phase, wall_ms } => {
                let mut inner = lock_ignoring_poison(&self.inner);
                match inner.phase_ms.iter_mut().find(|(name, _)| name == phase) {
                    Some((_, total)) => *total += wall_ms,
                    None => inner.phase_ms.push((phase.to_string(), *wall_ms)),
                }
            }
            Event::Retry { .. } => self.retries_seen.incr(),
            Event::FaultInjected { .. } => self.faults_injected.incr(),
            Event::ChainPanicked { .. } => self.panics_contained.incr(),
            Event::ChainReport {
                chain,
                recovered,
                retries,
                fault,
                wall_ms,
            } => {
                let mut inner = lock_ignoring_poison(&self.inner);
                inner.report_retries += retries;
                if let Some(kind) = fault {
                    *inner.fault_counts.entry(kind.clone()).or_insert(0) += 1;
                }
                inner
                    .chain_reports
                    .push((*chain, *recovered, *retries, fault.clone(), *wall_ms));
            }
            Event::CellEnd { wall_ms, .. } => {
                self.cell_wall_ms.observe(*wall_ms);
            }
            Event::CellFailure { kind, .. } => {
                let mut inner = lock_ignoring_poison(&self.inner);
                *inner.fault_counts.entry(kind.clone()).or_insert(0) += 1;
            }
            Event::Diagnostic {
                parameter,
                psrf,
                geweke_z,
                ess,
            } => {
                let mut inner = lock_ignoring_poison(&self.inner);
                inner.diagnostics.push(DiagnosticStat {
                    parameter: parameter.clone(),
                    psrf: *psrf,
                    geweke_z: *geweke_z,
                    ess: *ess,
                });
            }
            Event::Waic {
                model,
                total,
                p_waic,
                ..
            } => {
                let mut inner = lock_ignoring_poison(&self.inner);
                inner.waic = Some((model.clone(), *total, *p_waic));
            }
            Event::DiagnosticCheckpoint { checkpoint } => {
                self.checkpoints_seen.incr();
                let mut inner = lock_ignoring_poison(&self.inner);
                // Per-chain sweeps are monotone, so "last write wins"
                // keeps the latest snapshot per chain.
                inner
                    .checkpoints
                    .insert(checkpoint.chain, checkpoint.clone());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_phase_times_by_name() {
        let stats = StatsCollector::new();
        stats.record(&Event::PhaseEnd {
            phase: "sampling",
            wall_ms: 10.0,
        });
        stats.record(&Event::PhaseEnd {
            phase: "waic",
            wall_ms: 2.0,
        });
        stats.record(&Event::PhaseEnd {
            phase: "sampling",
            wall_ms: 5.0,
        });
        assert_eq!(stats.phase_total_ms("sampling"), 15.0);
        assert_eq!(stats.phase_total_ms("waic"), 2.0);
        assert_eq!(stats.phase_total_ms("absent"), 0.0);
        assert_eq!(stats.phase_ms()[0].0, "sampling");
    }

    #[test]
    fn counts_faults_from_reports_and_cell_failures() {
        let stats = StatsCollector::new();
        stats.record(&Event::ChainReport {
            chain: 0,
            recovered: true,
            retries: 2,
            fault: Some("nan-rate".into()),
            wall_ms: 8.0,
        });
        stats.record(&Event::ChainReport {
            chain: 1,
            recovered: false,
            retries: 0,
            fault: None,
            wall_ms: 3.5,
        });
        stats.record(&Event::CellFailure {
            prior: "poisson".into(),
            model: "model1".into(),
            day: 10,
            kind: "nan-rate".into(),
        });
        stats.record(&Event::CellFailure {
            prior: "poisson".into(),
            model: "model2".into(),
            day: 10,
            kind: "panic".into(),
        });
        assert_eq!(
            stats.fault_counters(),
            vec![("nan-rate".to_string(), 2), ("panic".to_string(), 1)]
        );
        assert_eq!(stats.retries_total(), 2);
        let reports = stats.chain_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].4, 8.0);
        assert_eq!(reports[1].4, 3.5);
    }

    #[test]
    fn live_counters_track_injections_and_retries() {
        let stats = StatsCollector::new();
        stats.record(&Event::FaultInjected {
            chain: 0,
            sweep: 3,
            kind: "panic".into(),
        });
        stats.record(&Event::Retry {
            chain: 0,
            sweep: 3,
            retries: 1,
        });
        stats.record(&Event::Retry {
            chain: 0,
            sweep: 9,
            retries: 2,
        });
        stats.record(&Event::ChainPanicked {
            chain: 1,
            detail: "x".into(),
        });
        assert_eq!(stats.faults_injected(), 1);
        assert_eq!(stats.retries_seen(), 2);
        assert_eq!(stats.panics_contained(), 1);
        assert_eq!(stats.events_seen(), 4);
    }

    #[test]
    fn collects_diagnostics_and_waic() {
        let stats = StatsCollector::new();
        stats.record(&Event::Diagnostic {
            parameter: "residual".into(),
            psrf: 1.02,
            geweke_z: -0.4,
            ess: 800.0,
        });
        stats.record(&Event::Waic {
            model: "model2".into(),
            total: 190.0,
            p_waic: 2.5,
            draws: 100,
        });
        assert_eq!(stats.diagnostics()[0].parameter, "residual");
        assert_eq!(stats.waic().unwrap().0, "model2");
    }

    #[test]
    fn keeps_latest_checkpoint_per_chain_and_counts_sweeps() {
        fn checkpoint(chain: usize, sweep: usize) -> ChainCheckpoint {
            ChainCheckpoint {
                chain,
                sweep,
                kept: sweep / 2,
                wall_ms: sweep as f64,
                params: vec![],
            }
        }
        let stats = StatsCollector::new();
        assert_eq!(stats.sweeps_completed(), 0);
        stats.record(&Event::DiagnosticCheckpoint {
            checkpoint: checkpoint(0, 49),
        });
        stats.record(&Event::DiagnosticCheckpoint {
            checkpoint: checkpoint(1, 49),
        });
        stats.record(&Event::DiagnosticCheckpoint {
            checkpoint: checkpoint(0, 99),
        });
        assert_eq!(stats.checkpoints_seen(), 3);
        let latest = stats.latest_checkpoints();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].sweep, 99);
        assert_eq!(latest[1].sweep, 49);
        assert_eq!(stats.sweeps_completed(), 150);
    }

    #[test]
    fn cell_wall_times_feed_the_histogram() {
        let stats = StatsCollector::new();
        stats.record(&Event::CellEnd {
            prior: "poisson".into(),
            model: "model1".into(),
            day: 5,
            wall_ms: 42.0,
        });
        assert_eq!(stats.cell_wall_ms().count(), 1);
    }
}
