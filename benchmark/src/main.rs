//! `srm-benchmark`: the repository's end-to-end benchmark driver.
//!
//! ```text
//! srm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! srm-benchmark repeat --runs <n> [--sets <k>] [--workload <name>]... [--seed <n>]
//!                      [--seconds <s>] [--fixed-seed] [--benchmark <BENCHMARK.json>]
//! ```
//!
//! From the repository root, `BENCHMARK.json`'s `command` runs it:
//! `cargo run --release --manifest-path benchmark/Cargo.toml --bin
//! srm-benchmark -- <args>`. The package is a workspace of its own that
//! builds the repository's crates from source and drives them only
//! through their public functions.
//!
//! # Runs
//!
//! A run generates every input from `--seed`, sets up `setup_reps`
//! times (`setup_s` is the median), measures one workload for
//! `--seconds`, checks the program's outputs, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Lines before it start with `#` and say which percentile
//! `latency_tail_ms` is and from how many samples.
//!
//! * `--trace 0` prints the end-to-end metrics, measured with no
//!   tracing at all.
//! * `--trace 1` runs the workload with spans around the benchmark's own
//!   calls into each layer, plus the phase spans `Fit::try_run_traced`
//!   emits itself (kept in memory, written to
//!   `.bench_out/<workload>.spans.jsonl` at the end), a profiled pass for
//!   exact work counts, and layer probes, and prints the per-layer
//!   metrics. The in-process workloads make every traced call twice,
//!   untraced and then traced, so the tracing overhead and the fit
//!   breakdown are read from back-to-back pairs; the served workloads
//!   split `--seconds` between an untraced phase and a traced one
//!   (access log on). The layers a workload does not exercise are
//!   measured by a short probe: one fleet batch, or two seconds of
//!   `serve-fit`.
//! * `--smoke` shrinks every workload to about a second, for tests.
//!
//! # Workloads
//!
//! * `paper-grid` — the paper's fits on `musa_cc96` (48/96/146 days ×
//!   5 curves × 2 priors, 4 × (1000 + 4000)). The per-day likelihood
//!   dominates, so a kernel gain must show here first.
//! * `fleet-batch` — batches of 128 short seeded series with one
//!   duplicate in ten through `run_batch`: per-item fixed costs weigh
//!   more, the kernel less.
//! * `serve-hit` — two closed-loop HTTP clients on fit-cache hits: no
//!   MCMC at all, so a sampler change must not move it (its
//!   `ess_per_cpu_s` counts a fetched result at its kept draw count, not
//!   at the ESS its fit reached).
//! * `serve-fit` — open-loop arrivals of small fits (15% cache hits) at
//!   a durable server: every blocking layer of the served path.
//!
//! `BENCHMARK.json` at the repository root is the source of truth for
//! the workload and metric names, units, directions and regression
//! bounds; the smoke test fails when this program and it disagree.
//! `repeat` runs workloads in fresh processes and reports each
//! end-to-end metric's median, quartiles and spread against its bound,
//! and the bound each metric's widest spread asks for.
//!
//! The load is sized for a 2-core host: fits use 2 worker threads, the
//! served workloads use at most 2 client threads with at most 2 open
//! connections, and the server runs with the `srm serve` defaults.

#![forbid(unsafe_code)]

mod fit;
mod fleet_batch;
mod http;
mod inputs;
mod measure;
mod paper_grid;
mod repeat;
mod serve;
mod serve_fit;
mod serve_hit;
mod trace;
mod workload;

use srm_obs::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Ctx, Outcome, Scale};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper-grid", "fleet-batch", "serve-hit", "serve-fit"];

/// Where runs keep state directories, access logs and span files,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// The options of one run.
#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn value<'a>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => seconds = Some(number::<f64>(value(&mut it, flag)?, flag)?),
            "--trace" => {
                trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        scale: if args.smoke {
            Scale::smoke()
        } else {
            Scale::full(args.seconds)
        },
        trace: args.trace,
        out_dir,
    };
    match args.workload.as_str() {
        "paper-grid" => paper_grid::run(&ctx),
        "fleet-batch" => fleet_batch::run(&ctx),
        "serve-hit" => serve_hit::run(&ctx),
        _ => serve_fit::run(&ctx),
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, (value, unit)) in &outcome.metrics.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push((
            *name,
            Value::obj(vec![
                ("value", Value::Num(*value)),
                ("unit", Value::Str((*unit).to_owned())),
            ]),
        ));
    }
    Ok(Value::obj(vec![
        (
            "correct",
            Value::Bool(outcome.problems.is_empty() && outcome.failed == 0),
        ),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_json())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        return match repeat::main(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("srm-benchmark repeat: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_run(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("srm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed).and_then(|outcome| Ok((result_line(&outcome)?, outcome))) {
        Ok((line, outcome)) => {
            for problem in &outcome.problems {
                eprintln!("srm-benchmark: check failed: {problem}");
            }
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("srm-benchmark: {}: {e}", parsed.workload);
            ExitCode::FAILURE
        }
    }
}
