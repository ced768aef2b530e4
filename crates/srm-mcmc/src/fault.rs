//! The workspace error taxonomy and the deterministic fault-injection
//! harness.
//!
//! Every failure a sampler run can produce is a typed [`SrmError`]:
//! hot-path code returns `Result` instead of panicking, chain threads
//! are panic-contained by the runner, and recovery is bounded by a
//! [`RetryPolicy`] whose retries consume fresh draws from the chain's
//! own deterministic stream (so a given seed + [`FaultPlan`] always
//! recovers to bit-identical output).
//!
//! See DESIGN.md, "Fault model & degradation policy".

use srm_rand::{Rng, SplitMix64};
use std::fmt;

/// A typed sampler-stack failure.
///
/// Variants carry enough context to diagnose the fault without a
/// backtrace: which parameter, which sweep, which chain.
#[derive(Debug, Clone, PartialEq)]
pub enum SrmError {
    /// A conditional's rate/likelihood evaluated to NaN or ±∞.
    NonFiniteLikelihood {
        /// The parameter whose conditional degenerated.
        parameter: &'static str,
        /// The offending value.
        value: f64,
        /// The sweep index at which it was observed.
        sweep: usize,
    },
    /// A slice-sampling update could not find a feasible point.
    SliceExhausted {
        /// The parameter being updated.
        parameter: &'static str,
        /// The sweep index at which it was observed.
        sweep: usize,
    },
    /// A full conditional left its parameter family's valid domain.
    DegeneratePosterior {
        /// Human-readable description of the degenerate conditional.
        detail: String,
        /// The sweep index at which it was observed.
        sweep: usize,
    },
    /// A chain thread panicked and was contained by the runner.
    ChainPanicked {
        /// The chain (stream index) that panicked.
        chain: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A run configuration that cannot be executed.
    InvalidConfig {
        /// What was wrong with the configuration.
        detail: String,
    },
    /// A parameter requested from output is absent from a chain.
    MissingParameter {
        /// The requested parameter name.
        parameter: String,
        /// The chain it was missing from.
        chain: usize,
    },
}

impl SrmError {
    /// Stable kebab-case label of the variant, for fault counters and
    /// log lines.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::NonFiniteLikelihood { .. } => "non-finite-likelihood",
            Self::SliceExhausted { .. } => "slice-exhausted",
            Self::DegeneratePosterior { .. } => "degenerate-posterior",
            Self::ChainPanicked { .. } => "chain-panicked",
            Self::InvalidConfig { .. } => "invalid-config",
            Self::MissingParameter { .. } => "missing-parameter",
        }
    }
}

impl fmt::Display for SrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteLikelihood {
                parameter,
                value,
                sweep,
            } => write!(
                f,
                "non-finite likelihood for {parameter} at sweep {sweep} (value {value})"
            ),
            Self::SliceExhausted { parameter, sweep } => {
                write!(
                    f,
                    "slice sampler exhausted for {parameter} at sweep {sweep}"
                )
            }
            Self::DegeneratePosterior { detail, sweep } => {
                write!(f, "degenerate posterior at sweep {sweep}: {detail}")
            }
            Self::ChainPanicked { chain, message } => {
                write!(f, "chain {chain} panicked: {message}")
            }
            Self::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            Self::MissingParameter { parameter, chain } => {
                write!(f, "parameter '{parameter}' missing from chain {chain}")
            }
        }
    }
}

impl std::error::Error for SrmError {}

/// How many times a failed sweep may be retried before the chain is
/// declared lost.
///
/// A retry restores the sampler state snapshotted at the start of the
/// failed sweep but does **not** rewind the RNG, so the re-attempt
/// consumes fresh draws from the chain's deterministic stream. Given
/// the same seed and the same faults, recovery is therefore
/// bit-identical run-to-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per chain (0 disables retry).
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3 }
    }
}

impl RetryPolicy {
    /// No retries: the first fault loses the chain.
    #[must_use]
    pub fn none() -> Self {
        Self { max_retries: 0 }
    }
}

/// Which fault to inject at a [`FaultPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the chain thread (tests panic containment).
    Panic,
    /// Force the N-step rate non-finite (tests the
    /// [`SrmError::NonFiniteLikelihood`] path).
    NanRate,
    /// Synthesize a slice-sampler exhaustion (tests the
    /// [`SrmError::SliceExhausted`] path).
    SliceExhausted,
}

impl FaultKind {
    const ALL: [Self; 3] = [Self::Panic, Self::NanRate, Self::SliceExhausted];

    /// Stable kebab-case label, for trace events and log lines.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::NanRate => "nan-rate",
            Self::SliceExhausted => "slice-exhausted",
        }
    }
}

/// One scheduled fault: which chain, which sweep, what kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// The chain (stream index) to fault.
    pub chain: usize,
    /// The sweep (0-based, counting burn-in) at whose start the fault
    /// fires.
    pub sweep: usize,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults.
///
/// Plans are plain data: build one explicitly with [`FaultPlan::new`]
/// or derive one from the run seed with [`FaultPlan::from_seed`] so a
/// given `(seed, chains, sweeps, count)` always injects the same
/// faults at the same places.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// The empty plan (no injection).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with the given fault points.
    #[must_use]
    pub fn new(points: Vec<FaultPoint>) -> Self {
        Self { points }
    }

    /// Derives `count` fault points from `seed`, spread over `chains`
    /// chains and `total_sweeps` sweeps, cycling through every
    /// [`FaultKind`]. Deterministic in all arguments.
    #[must_use]
    pub fn from_seed(seed: u64, chains: usize, total_sweeps: usize, count: usize) -> Self {
        if chains == 0 || total_sweeps == 0 {
            return Self::none();
        }
        // Domain-separate from the sampling streams so injecting
        // faults never perturbs the draws themselves.
        let mut rng = SplitMix64::seed_from(seed ^ 0xFA17_7E57_0BAD_CA5E);
        let points = (0..count)
            .map(|k| FaultPoint {
                chain: (rng.next_u64() % chains as u64) as usize,
                sweep: (rng.next_u64() % total_sweeps as u64) as usize,
                kind: FaultKind::ALL[k % FaultKind::ALL.len()],
            })
            .collect();
        Self { points }
    }

    /// The scheduled fault points.
    #[must_use]
    pub fn points(&self) -> &[FaultPoint] {
        &self.points
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The consume-once injector for one chain.
    #[must_use]
    pub fn injector_for(&self, chain: usize) -> FaultInjector {
        FaultInjector {
            pending: self
                .points
                .iter()
                .filter(|p| p.chain == chain)
                .map(|p| (p.sweep, p.kind))
                .collect(),
        }
    }
}

/// Per-chain fault dispenser. Each scheduled fault fires at most once
/// (a retried sweep does not re-trigger it).
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    pending: Vec<(usize, FaultKind)>,
}

impl FaultInjector {
    /// Whether any faults are still pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Takes the fault scheduled for `sweep`, if any, removing it from
    /// the schedule.
    pub fn take(&mut self, sweep: usize) -> Option<FaultKind> {
        let idx = self.pending.iter().position(|&(s, _)| s == sweep)?;
        Some(self.pending.swap_remove(idx).1)
    }
}

/// What happened to a chain that completed: how many sweeps were
/// retried and the most recent fault recovered from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    /// Retries consumed across the whole chain.
    pub retries: usize,
    /// The most recent fault recovered from (`None` for a clean run).
    pub last_fault: Option<SrmError>,
}

/// A chain that could not complete: the fatal fault and the retries
/// consumed before giving up.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainFailure {
    /// The fault that exhausted the retry budget (or was fatal).
    pub fault: SrmError,
    /// Retries consumed before the chain was declared lost.
    pub retries: usize,
}

/// The per-chain health record of a fault-tolerant run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainReport {
    /// The chain (stream index) this report describes.
    pub chain: usize,
    /// The most recent fault observed on this chain (`None` if the
    /// chain ran clean).
    pub fault: Option<SrmError>,
    /// Retries consumed by this chain.
    pub retries: usize,
    /// Whether the chain contributed draws to the output.
    pub recovered: bool,
}

impl fmt::Display for ChainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.recovered { "ok" } else { "lost" };
        write!(
            f,
            "chain {}: {status}, {} retries",
            self.chain, self.retries
        )?;
        if let Some(fault) = &self.fault {
            write!(f, ", last fault: {fault}")?;
        }
        Ok(())
    }
}

/// Renders a `catch_unwind` payload as a one-line message.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_one_line() {
        let errors = [
            SrmError::NonFiniteLikelihood {
                parameter: "lambda0",
                value: f64::NAN,
                sweep: 7,
            },
            SrmError::SliceExhausted {
                parameter: "alpha0",
                sweep: 3,
            },
            SrmError::DegeneratePosterior {
                detail: "negative shape".into(),
                sweep: 0,
            },
            SrmError::ChainPanicked {
                chain: 2,
                message: "boom".into(),
            },
            SrmError::InvalidConfig {
                detail: "chains must be positive".into(),
            },
            SrmError::MissingParameter {
                parameter: "mu".into(),
                chain: 1,
            },
        ];
        for e in errors {
            let line = e.to_string();
            assert!(!line.contains('\n'), "{line:?}");
            assert!(!e.kind().is_empty());
        }
    }

    #[test]
    fn plan_from_seed_is_deterministic() {
        let a = FaultPlan::from_seed(42, 4, 1_000, 6);
        let b = FaultPlan::from_seed(42, 4, 1_000, 6);
        assert_eq!(a, b);
        assert_eq!(a.points().len(), 6);
        assert!(a.points().iter().all(|p| p.chain < 4 && p.sweep < 1_000));
        let c = FaultPlan::from_seed(43, 4, 1_000, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn plan_from_seed_cycles_fault_kinds() {
        let plan = FaultPlan::from_seed(1, 2, 100, 3);
        let kinds: Vec<FaultKind> = plan.points().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Panic,
                FaultKind::NanRate,
                FaultKind::SliceExhausted
            ]
        );
    }

    #[test]
    fn degenerate_plan_dimensions_inject_nothing() {
        assert!(FaultPlan::from_seed(1, 0, 100, 5).is_empty());
        assert!(FaultPlan::from_seed(1, 4, 0, 5).is_empty());
    }

    #[test]
    fn injector_fires_once_per_point() {
        let plan = FaultPlan::new(vec![
            FaultPoint {
                chain: 0,
                sweep: 5,
                kind: FaultKind::NanRate,
            },
            FaultPoint {
                chain: 1,
                sweep: 9,
                kind: FaultKind::Panic,
            },
        ]);
        let mut inj = plan.injector_for(0);
        assert_eq!(inj.take(4), None);
        assert_eq!(inj.take(5), Some(FaultKind::NanRate));
        assert_eq!(inj.take(5), None, "consume-once");
        assert!(inj.is_empty());
        let mut other = plan.injector_for(1);
        assert_eq!(other.take(9), Some(FaultKind::Panic));
        assert!(plan.injector_for(2).is_empty());
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("static str"));
        let err = caught.expect_err("panicked");
        assert_eq!(panic_message(err.as_ref()), "static str");
        let caught = std::panic::catch_unwind(|| panic!("{}", String::from("formatted")));
        let err = caught.expect_err("panicked");
        assert_eq!(panic_message(err.as_ref()), "formatted");
    }
}
