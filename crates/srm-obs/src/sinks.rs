//! Concrete event sinks: the JSONL trace writer and the human
//! progress reporter.
//!
//! Both are best-effort: I/O errors while tracing never fail the run
//! (the trace is an observation of the computation, not part of it).

use std::io::{self, BufWriter, Write};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::Event;
use crate::json::Value;
use crate::lock_ignoring_poison;
use crate::recorder::Recorder;

/// Appends one JSON object per event to a writer (`--trace-out`).
///
/// Each record is the event's [`Event::to_value`] payload plus a
/// `"trace_id"` field (the correlation id, schema v7) and an `"ms"`
/// field: milliseconds since the sink was created.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    started: Instant,
    trace_id: String,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("trace_id", &self.trace_id)
            .finish()
    }
}

impl JsonlSink {
    /// A sink writing to (truncating) the file at `path`.
    pub fn create(path: &str) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(BufWriter::new(file))))
    }

    /// A sink writing to an arbitrary writer (used by tests).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(out),
            started: Instant::now(),
            trace_id: crate::trace_id::process_trace_id().to_hex(),
        }
    }

    /// Overrides the correlation id stamped on every line (defaults to
    /// the process-wide id).
    pub fn with_trace_id(mut self, trace_id: &str) -> Self {
        self.trace_id = trace_id.to_string();
        self
    }

    /// Flushes buffered records.
    pub fn flush(&self) -> io::Result<()> {
        lock_ignoring_poison(&self.out).flush()
    }
}

impl Recorder for JsonlSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        let value = event.to_line(&self.trace_id, [("ms", Value::Num(ms))]);
        let mut out = lock_ignoring_poison(&self.out);
        let _ = writeln!(out, "{}", value.to_json());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Human-readable progress lines on a writer (stderr by default).
///
/// Per-chain progress comes from `diagnostic-checkpoint` events, one
/// line per checkpoint, so a run prints it only with checkpoints on
/// (`--checkpoint-every K`); faults, retries, contained panics and
/// cell failures always print. `verbosity` gates the chattier lines:
/// 0 prints only warnings, 1 adds checkpoints and phase summaries, 2
/// adds per-cell and per-chain completion lines.
pub struct ProgressSink {
    out: Mutex<Box<dyn Write + Send>>,
    verbosity: u8,
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("verbosity", &self.verbosity)
            .finish()
    }
}

impl ProgressSink {
    /// A sink printing to stderr at the given verbosity.
    pub fn stderr(verbosity: u8) -> Self {
        Self::to_writer(Box::new(io::stderr()), verbosity)
    }

    /// A sink printing to an arbitrary writer (used by tests).
    pub fn to_writer(out: Box<dyn Write + Send>, verbosity: u8) -> Self {
        Self {
            out: Mutex::new(out),
            verbosity,
        }
    }

    fn say(&self, line: &str) {
        let mut out = lock_ignoring_poison(&self.out);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

impl Recorder for ProgressSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        match event {
            Event::PhaseEnd { phase, wall_ms } if self.verbosity >= 1 => {
                self.say(&format!("phase {phase}: {:.1} ms", wall_ms));
            }
            Event::SweepFault {
                chain, sweep, kind, ..
            } => {
                self.say(&format!("chain {chain}: sweep {sweep} faulted ({kind})"));
            }
            Event::Retry {
                chain,
                sweep,
                retries,
            } => {
                self.say(&format!(
                    "chain {chain}: retrying sweep {sweep} (retry #{retries})"
                ));
            }
            Event::FaultInjected { chain, sweep, kind } => {
                self.say(&format!(
                    "chain {chain}: injected {kind} fault at sweep {sweep}"
                ));
            }
            Event::ChainPanicked { chain, detail } => {
                self.say(&format!("chain {chain}: contained panic: {detail}"));
            }
            Event::ChainReport {
                chain,
                retries,
                recovered: true,
                ..
            } if self.verbosity >= 2 => {
                self.say(&format!("chain {chain}: done ({retries} retries)"));
            }
            Event::CellEnd {
                prior,
                model,
                day,
                wall_ms,
            } if self.verbosity >= 2 => {
                self.say(&format!("cell {prior}/{model}@{day}: {wall_ms:.0} ms"));
            }
            Event::CellFailure {
                prior,
                model,
                day,
                kind,
            } => {
                self.say(&format!("cell {prior}/{model}@{day}: failed ({kind})"));
            }
            Event::CliDiagnostic { level, message } => {
                self.say(&format!("{level}: {message}"));
            }
            Event::DiagnosticCheckpoint { checkpoint } if self.verbosity >= 1 => {
                // Headline one parameter: the residual-bug count when
                // present, otherwise the first column.
                let headline = checkpoint
                    .params
                    .iter()
                    .find(|p| p.parameter == "residual")
                    .or_else(|| checkpoint.params.first());
                if let Some(p) = headline {
                    self.say(&format!(
                        "chain {}: checkpoint @ sweep {}: {} kept; {} mean {:.2} ess {:.0} mcse {:.3}",
                        checkpoint.chain,
                        checkpoint.sweep + 1,
                        checkpoint.kept,
                        p.parameter,
                        p.moments.mean,
                        p.ess,
                        p.mcse
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::sync::Arc;

    /// A Write handle into a shared buffer the test can inspect.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn jsonl_lines_parse_and_carry_ms_and_trace_id() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::from_writer(Box::new(buf.clone()));
        sink.record(&Event::PhaseStart { phase: "sampling" });
        sink.record(&Event::Retry {
            chain: 1,
            sweep: 7,
            retries: 2,
        });
        sink.flush().unwrap();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let default_id = crate::trace_id::process_trace_id().to_hex();
        for line in lines {
            let v = parse(line).unwrap();
            assert!(v.get("type").is_some());
            assert!(v.get("ms").unwrap().as_f64().unwrap() >= 0.0);
            assert_eq!(
                v.get("trace_id").unwrap().as_str(),
                Some(default_id.as_str())
            );
        }
    }

    #[test]
    fn jsonl_with_trace_id_stamps_the_override() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::from_writer(Box::new(buf.clone())).with_trace_id("deadbeef");
        sink.record(&Event::PhaseStart { phase: "sampling" });
        sink.flush().unwrap();
        let v = parse(buf.text().lines().next().unwrap()).unwrap();
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("deadbeef"));
    }

    #[test]
    fn progress_always_reports_faults() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::to_writer(Box::new(buf.clone()), 0);
        sink.record(&Event::FaultInjected {
            chain: 0,
            sweep: 3,
            kind: "panic".into(),
        });
        sink.record(&Event::ChainPanicked {
            chain: 0,
            detail: "boom".into(),
        });
        let text = buf.text();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("injected panic fault at sweep 3"));
        assert!(text.contains("contained panic: boom"));
    }

    #[test]
    fn progress_verbosity_gates_chatty_lines() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::to_writer(Box::new(buf.clone()), 0);
        sink.record(&Event::PhaseEnd {
            phase: "waic",
            wall_ms: 1.0,
        });
        let report = Event::ChainReport {
            chain: 0,
            recovered: true,
            retries: 1,
            fault: Some("nan-rate".into()),
            wall_ms: 3.0,
        };
        sink.record(&report);
        assert!(buf.text().is_empty());

        let buf2 = SharedBuf::default();
        let chatty = ProgressSink::to_writer(Box::new(buf2.clone()), 2);
        chatty.record(&report);
        chatty.record(&Event::CellEnd {
            prior: "poisson".into(),
            model: "model1".into(),
            day: 48,
            wall_ms: 2.0,
        });
        let text = buf2.text();
        assert!(text.contains("chain 0: done (1 retries)\n"), "{text}");
        assert!(text.contains("cell poisson/model1@48"));
    }

    #[test]
    fn checkpoints_print_headline_parameter_at_verbosity_one() {
        use crate::checkpoint::{ChainCheckpoint, MomentSummary, ParamCheckpoint};
        let checkpoint = ChainCheckpoint {
            chain: 1,
            sweep: 49,
            kept: 25,
            wall_ms: 80.0,
            params: vec![
                ParamCheckpoint {
                    parameter: "n".into(),
                    moments: MomentSummary {
                        count: 25,
                        mean: 90.0,
                        variance: 4.0,
                    },
                    half1: MomentSummary::default(),
                    half2: MomentSummary::default(),
                    ess: 20.0,
                    mcse: 0.4,
                    ess_per_sec: 250.0,
                },
                ParamCheckpoint {
                    parameter: "residual".into(),
                    moments: MomentSummary {
                        count: 25,
                        mean: 3.75,
                        variance: 1.0,
                    },
                    half1: MomentSummary::default(),
                    half2: MomentSummary::default(),
                    ess: 18.0,
                    mcse: 0.236,
                    ess_per_sec: 225.0,
                },
            ],
        };
        let quiet = SharedBuf::default();
        ProgressSink::to_writer(Box::new(quiet.clone()), 0).record(&Event::DiagnosticCheckpoint {
            checkpoint: checkpoint.clone(),
        });
        assert!(quiet.text().is_empty());

        let buf = SharedBuf::default();
        ProgressSink::to_writer(Box::new(buf.clone()), 1)
            .record(&Event::DiagnosticCheckpoint { checkpoint });
        let text = buf.text();
        assert!(
            text.contains("chain 1: checkpoint @ sweep 50: 25 kept; residual mean 3.75"),
            "{text}"
        );
    }

    #[test]
    fn cli_diagnostics_render_with_level() {
        let buf = SharedBuf::default();
        let sink = ProgressSink::to_writer(Box::new(buf.clone()), 0);
        sink.record(&Event::CliDiagnostic {
            level: "error",
            message: "bad flag".into(),
        });
        assert_eq!(buf.text(), "error: bad flag\n");
    }
}
