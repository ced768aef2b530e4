//! Library backing the `srm` command-line tool.
//!
//! The CLI wraps the workspace's Bayesian SRM pipeline for users who
//! have grouped bug-count data in a CSV file and want estimates
//! without writing Rust:
//!
//! ```text
//! srm fit      --data counts.csv --model model1 --prior poisson
//! srm select   --data counts.csv --prior poisson
//! srm predict  --data counts.csv --model model1 --horizon 30
//! srm trend    --data counts.csv
//! srm simulate --bugs 200 --days 60 --p 0.05 --seed 1
//! srm serve    --addr 127.0.0.1:0 --port-file srm.port
//! srm trace    summarize --file run.jsonl
//! srm bench    diff BENCH_old.json BENCH_new.json --check
//! srm version
//! ```
//!
//! Everything is implemented as library functions returning strings,
//! so the commands are unit-testable without spawning processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod obs;

pub use args::{ArgError, Args};

/// Formats a top-level error exactly as the terminal shows it — the
/// single formatting path shared by stderr and the `cli-diagnostic`
/// trace event.
#[must_use]
pub fn diagnostic_line(e: &ArgError) -> String {
    format!("srm: {e}")
}

/// Exit-status-friendly runner: dispatches a raw argument vector and
/// returns the rendered output or a user-facing error. Failures are
/// also appended to the `--trace-out` file (when one was requested)
/// as `cli-diagnostic` events.
///
/// # Errors
///
/// Returns [`ArgError`] for parse failures and command errors.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let started = std::time::Instant::now();
    let result = dispatch(raw);
    if let Err(e) = &result {
        obs::log_cli_diagnostic(raw, started, "error", &diagnostic_line(e));
    }
    result
}

fn dispatch(raw: &[String]) -> Result<String, ArgError> {
    let command = raw.first().map(String::as_str).unwrap_or("");
    match command {
        "fit" => commands::fit::run(raw),
        "select" => commands::select::run(raw),
        "predict" => commands::predict::run(raw),
        "trend" => commands::trend::run(raw),
        "simulate" => commands::simulate::run(raw),
        "sbc" => commands::sbc::run(raw),
        "serve" => commands::serve::run(raw),
        "trace" => commands::trace::run(raw),
        "bench" => commands::bench::run(raw),
        "version" | "--version" | "-V" => commands::version::run(raw),
        "help" | "--help" | "-h" | "" => Ok(commands::help_text()),
        other => Err(ArgError(format!(
            "unknown command `{other}` (try `srm help`)"
        ))),
    }
}
