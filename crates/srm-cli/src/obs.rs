//! CLI wiring for the observability layer.
//!
//! Every estimation command accepts the same seven controls:
//!
//! * `--trace-out <file.jsonl>` — typed event stream, one JSON object
//!   per line ([`srm_obs::JsonlSink`]);
//! * `--metrics-out <file.json>` — run manifest written on completion
//!   ([`srm_obs::RunManifest`]);
//! * `--progress` — progress lines on stderr: phase times, faults,
//!   and one line per chain checkpoint (so per-chain lines need
//!   `--checkpoint-every`);
//! * `--verbosity <0|1|2>` — how chatty `--progress` is;
//! * `--checkpoint-every <K>` — emit a streaming
//!   `diagnostic-checkpoint` per chain every K sweeps (0 disables;
//!   never perturbs the sampled values);
//! * `--profile` — collect the hierarchical phase-time profile,
//!   print its table to stderr, and append a `profile` event to the
//!   trace (never perturbs the sampled values);
//! * `--trace-id <hex>` — pin the run's correlation id (derived from
//!   the invocation content when absent); every trace line and the
//!   manifest carry it, so `srm trace grep --trace-id` can stitch a
//!   CLI run into the same causal timeline as served jobs.
//!
//! With none of them given, the assembled recorder is disabled and
//! the pipeline runs on its zero-cost no-op path.

use std::sync::Arc;
use std::time::Instant;

use crate::args::{ArgError, Args};
use srm_data::BugCountData;
use srm_obs::json::Value;
use srm_obs::{
    boot_nonce, dataset_hash, process_trace_id, Event, JsonlSink, PhaseSnapshot, Profiler,
    ProgressSink, Recorder, RunManifest, StatsCollector, Tee, TraceId,
};

/// Flags every instrumented subcommand accepts.
pub const OBS_FLAGS: &[&str] = &[
    "trace-out",
    "metrics-out",
    "verbosity",
    "checkpoint-every",
    "trace-id",
];

/// Switches every instrumented subcommand accepts.
pub const OBS_SWITCHES: &[&str] = &["progress", "profile"];

/// Default row cap for rendered phase-time tables.
pub const PROFILE_TABLE_TOP: usize = 20;

/// Renders a phase-time table: one row per span path, sorted by self
/// time, with total/self milliseconds and the share of the run's
/// accumulated self time. `top` caps the rows (0 means unlimited).
#[must_use]
pub fn render_profile_table(phases: &[PhaseSnapshot], top: usize) -> String {
    let total_self: u64 = phases.iter().map(|p| p.self_ns).sum();
    let mut rows: Vec<&PhaseSnapshot> = phases.iter().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    let shown = if top == 0 {
        rows.len()
    } else {
        rows.len().min(top)
    };
    let width = rows
        .iter()
        .take(shown)
        .map(|p| p.path.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>9}  {:>12}  {:>12}  {:>6}\n",
        "phase", "count", "total(ms)", "self(ms)", "self%"
    ));
    for p in &rows[..shown] {
        let pct = if total_self > 0 {
            p.self_ns as f64 / total_self as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<width$}  {:>9}  {:>12.3}  {:>12.3}  {:>5.1}%\n",
            p.path,
            p.count,
            p.total_ns as f64 / 1e6,
            p.self_ns as f64 / 1e6,
            pct
        ));
    }
    if rows.len() > shown {
        out.push_str(&format!("… {} more phases\n", rows.len() - shown));
    }
    out
}

/// Routes a top-level CLI diagnostic through the event sink when the
/// raw argument vector names a `--trace-out` file: the exact line the
/// terminal shows is appended as a `cli-diagnostic` event, so the
/// trace and stderr share one formatting path. The line is a v7 line
/// like every other ([`Event::to_line`]): it carries the run's trace
/// id — `--trace-id` when given, else the id
/// [`Observability::from_args`] derives for these arguments, else
/// (arguments that do not parse) the process-wide default — and an
/// `ms` stamp counted from `started`, the start of the command.
/// Best-effort — an unwritable trace file never masks the original
/// error.
pub fn log_cli_diagnostic(raw: &[String], started: Instant, level: &'static str, message: &str) {
    let Some(path) = trace_out_path(raw) else {
        return;
    };
    let trace_id = crate::commands::parse_instrumented(raw)
        .ok()
        .and_then(|args| run_trace_id(&args).ok())
        .unwrap_or_else(process_trace_id);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let line = Event::CliDiagnostic {
        level,
        message: message.to_owned(),
    }
    .to_line(&trace_id.to_hex(), [("ms", Value::Num(ms))]);
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        use std::io::Write as _;
        let _ = writeln!(file, "{}", line.to_json());
    }
}

fn trace_out_path(raw: &[String]) -> Option<&str> {
    raw.iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| raw.get(i + 1))
        .map(String::as_str)
}

/// The run's correlation id: `--trace-id` when given (any 1–32 hex
/// digits, canonicalised to 32), otherwise derived from the
/// invocation's [`Args::content_hash`] and the per-boot nonce.
fn run_trace_id(args: &Args) -> Result<TraceId, ArgError> {
    match args.get("trace-id") {
        Some(raw) => TraceId::parse(raw).ok_or_else(|| {
            ArgError(format!(
                "invalid value `{raw}` for `--trace-id` (want 1-32 hex digits)"
            ))
        }),
        None => Ok(TraceId::derive(args.content_hash(), boot_nonce())),
    }
}

/// The sinks assembled for one CLI invocation.
#[derive(Debug)]
pub struct Observability {
    recorder: Tee,
    stats: Arc<StatsCollector>,
    metrics_out: Option<String>,
    profiler: Option<Arc<Profiler>>,
    trace_id: TraceId,
}

impl Observability {
    /// Builds the sink stack from the parsed arguments.
    ///
    /// The run's correlation id is `--trace-id` when given (any 1–32
    /// hex digits, canonicalised to 32), otherwise derived from the
    /// invocation's [`Args::content_hash`] and the per-boot nonce —
    /// the same recipe srm-serve uses for headerless requests, so
    /// repeating a command within one boot yields the same id while
    /// different invocations (or boots) get distinct ones. Every
    /// `--trace-out` line is stamped with it (schema v7).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when `--trace-out` cannot be created or
    /// `--verbosity` / `--trace-id` is malformed.
    pub fn from_args(args: &Args) -> Result<Self, ArgError> {
        let verbosity: u8 = args.get_parsed("verbosity", 1u8)?;
        let trace_id = run_trace_id(args)?;
        let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
        if let Some(path) = args.get("trace-out") {
            let sink = JsonlSink::create(path)
                .map_err(|e| ArgError(format!("cannot create trace file `{path}`: {e}")))?
                .with_trace_id(&trace_id.to_hex());
            sinks.push(Arc::new(sink));
        }
        if args.has_switch("progress") {
            sinks.push(Arc::new(ProgressSink::stderr(verbosity)));
        }
        let stats = Arc::new(StatsCollector::new());
        let metrics_out = args.get("metrics-out").map(str::to_owned);
        if metrics_out.is_some() {
            sinks.push(Arc::clone(&stats) as Arc<dyn Recorder>);
        }
        let profiler = args
            .has_switch("profile")
            .then(|| Arc::new(Profiler::new()));
        Ok(Self {
            recorder: Tee::new(sinks),
            stats,
            metrics_out,
            profiler,
            trace_id,
        })
    }

    /// The recorder to thread into the pipeline.
    #[must_use]
    pub fn recorder(&self) -> &dyn Recorder {
        &self.recorder
    }

    /// The correlation id for this invocation (pinned or derived).
    #[must_use]
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// The aggregating collector backing the manifest.
    #[must_use]
    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    /// The phase-time profiler, when `--profile` was given — hand it
    /// to `RunOptions` so worker threads feed the same sink.
    #[must_use]
    pub fn profiler(&self) -> Option<Arc<Profiler>> {
        self.profiler.clone()
    }

    /// Finishes a `--profile` run: appends the aggregate `profile`
    /// event to the trace and prints the phase-time table to stderr.
    /// Call after any main-thread install guard has been dropped, so
    /// the snapshot includes this thread's spans. No-op without
    /// `--profile`.
    pub fn finish_profile(&self) {
        let Some(profiler) = &self.profiler else {
            return;
        };
        let phases = profiler.snapshot();
        if self.recorder.enabled() {
            self.recorder.record(&Event::Profile {
                phases: phases.clone(),
            });
        }
        eprintln!(
            "phase-time profile (top {PROFILE_TABLE_TOP} by self time)\n{}",
            render_profile_table(&phases, PROFILE_TABLE_TOP)
        );
    }

    /// Emits the `run-start` event identifying the invocation.
    pub fn emit_run_start(
        &self,
        command: &str,
        model: &str,
        prior: &str,
        seed: u64,
        data: &BugCountData,
    ) {
        if self.recorder.enabled() {
            self.recorder.record(&Event::RunStart {
                command: command.to_owned(),
                model: model.to_owned(),
                prior: prior.to_owned(),
                seed,
                dataset_hash: dataset_hash(data.counts()),
            });
        }
    }

    /// Fills the stats-derived manifest fields (phases, per-chain
    /// reports, fault/retry counters, diagnostics, WAIC, throughput) and
    /// writes the document when `--metrics-out` was given.
    ///
    /// `kept_draws` is the total number of posterior draws the run
    /// kept, for the draws/sec figure.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the manifest file cannot be written.
    pub fn finish_manifest(
        &self,
        mut manifest: RunManifest,
        kept_draws: u64,
    ) -> Result<(), ArgError> {
        let Some(path) = &self.metrics_out else {
            return Ok(());
        };
        if manifest.trace_id.is_empty() {
            manifest.trace_id = self.trace_id.to_hex();
        }
        manifest.fill_from_stats(&self.stats, kept_draws);
        manifest
            .write(path)
            .map_err(|e| ArgError(format!("cannot write manifest `{path}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_flags_means_disabled_recorder() {
        let args = Args::parse(&raw(&["fit"]), OBS_FLAGS, OBS_SWITCHES).unwrap();
        let obs = Observability::from_args(&args).unwrap();
        assert!(!obs.recorder().enabled());
    }

    #[test]
    fn metrics_out_enables_the_stats_sink() {
        let path = std::env::temp_dir().join("srm_cli_obs_manifest.json");
        let args = Args::parse(
            &raw(&["fit", "--metrics-out", path.to_str().unwrap()]),
            OBS_FLAGS,
            OBS_SWITCHES,
        )
        .unwrap();
        let obs = Observability::from_args(&args).unwrap();
        assert!(obs.recorder().enabled());
        obs.recorder().record(&Event::PhaseEnd {
            phase: "sampling",
            wall_ms: 100.0,
        });
        let manifest = RunManifest {
            command: "fit".into(),
            ..RunManifest::default()
        };
        obs.finish_manifest(manifest, 500).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = srm_obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("command").unwrap().as_str(), Some("fit"));
        assert_eq!(doc.get("draws_per_sec").unwrap().as_f64(), Some(5_000.0));
    }

    #[test]
    fn pinned_trace_id_stamps_every_trace_line_and_the_manifest() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("srm_cli_obs_trace_{}.jsonl", std::process::id()));
        let manifest_path = dir.join(format!("srm_cli_obs_tm_{}.json", std::process::id()));
        let pinned = "00112233445566778899aabbccddeeff";
        let args = Args::parse(
            &raw(&[
                "fit",
                "--trace-out",
                trace.to_str().unwrap(),
                "--metrics-out",
                manifest_path.to_str().unwrap(),
                "--trace-id",
                pinned,
            ]),
            OBS_FLAGS,
            OBS_SWITCHES,
        )
        .unwrap();
        let obs = Observability::from_args(&args).unwrap();
        assert_eq!(obs.trace_id().to_hex(), pinned);
        obs.recorder().record(&Event::PhaseEnd {
            phase: "sampling",
            wall_ms: 10.0,
        });
        obs.recorder().record(&Event::PhaseEnd {
            phase: "report",
            wall_ms: 2.0,
        });
        obs.finish_manifest(RunManifest::default(), 0).unwrap();
        drop(obs);

        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = srm_obs::json::parse(line).unwrap();
            assert_eq!(v.get("trace_id").unwrap().as_str(), Some(pinned), "{line}");
        }
        let doc = srm_obs::json::parse(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(doc.get("trace_id").unwrap().as_str(), Some(pinned));
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&manifest_path);
    }

    #[test]
    fn failed_run_diagnostic_lints_strict_clean_with_the_run_trace_id() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let pinned = dir.join(format!("srm_cli_obs_failed_pinned_{pid}.jsonl"));
        let derived = dir.join(format!("srm_cli_obs_failed_derived_{pid}.jsonl"));
        let fail_fit = |trace: &std::path::Path, extra: &[&str]| {
            let _ = std::fs::remove_file(trace);
            let mut argv = raw(&["fit", "--data", "/nonexistent.csv", "--trace-out"]);
            argv.push(trace.to_str().unwrap().to_owned());
            argv.extend(raw(extra));
            assert!(crate::run(&argv).is_err());
            argv
        };
        fail_fit(&pinned, &["--trace-id", "beef"]);
        let argv = fail_fit(&derived, &[]);
        let args = crate::commands::parse_instrumented(&argv).unwrap();
        let expected = [
            (pinned, format!("{}beef", "0".repeat(28))),
            (derived, run_trace_id(&args).unwrap().to_hex()),
        ];
        for (path, id) in expected {
            let file = path.to_str().unwrap();
            let lint = crate::run(&raw(&["trace", "lint", "--file", file, "--strict"])).unwrap();
            assert!(lint.contains("result: clean"), "{lint}");
            let text = std::fs::read_to_string(&path).unwrap();
            let line = srm_obs::json::parse(text.trim_end()).unwrap();
            assert_eq!(line.get("type").unwrap().as_str(), Some("cli-diagnostic"));
            assert_eq!(line.get("trace_id").unwrap().as_str(), Some(id.as_str()));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn derived_trace_id_is_content_stable_within_a_boot() {
        let same = ["fit", "--verbosity", "2"];
        let a = Args::parse(&raw(&same), OBS_FLAGS, OBS_SWITCHES).unwrap();
        let b = Args::parse(&raw(&same), OBS_FLAGS, OBS_SWITCHES).unwrap();
        let c = Args::parse(&raw(&["fit", "--verbosity", "1"]), OBS_FLAGS, OBS_SWITCHES).unwrap();
        let id_a = Observability::from_args(&a).unwrap().trace_id();
        let id_b = Observability::from_args(&b).unwrap().trace_id();
        let id_c = Observability::from_args(&c).unwrap().trace_id();
        assert_eq!(id_a, id_b);
        assert_ne!(id_a, id_c);
    }

    #[test]
    fn malformed_trace_id_is_a_clean_error() {
        let args = Args::parse(
            &raw(&["fit", "--trace-id", "not-hex"]),
            OBS_FLAGS,
            OBS_SWITCHES,
        )
        .unwrap();
        let err = Observability::from_args(&args).unwrap_err();
        assert!(err.to_string().contains("--trace-id"), "{err}");
    }

    #[test]
    fn bad_trace_path_is_a_clean_error() {
        let args = Args::parse(
            &raw(&["fit", "--trace-out", "/no/such/dir/run.jsonl"]),
            OBS_FLAGS,
            OBS_SWITCHES,
        )
        .unwrap();
        let err = Observability::from_args(&args).unwrap_err();
        assert!(err.to_string().contains("cannot create trace file"));
    }
}
