//! `repeat`: runs workloads in fresh processes and reports, for every
//! end-to-end metric, the median, the quartiles and the spread
//! (quartile distance over the median) against the metric's bound in
//! `BENCHMARK.json`. With `--sets 2` it also compares each set's
//! median with the first set's, as a regression check between two
//! measurements of the same code would. It ends with each metric's
//! widest spread over every workload and set, and the bound that spread
//! asks for: three times the spread, at least [`MIN_BOUND`] and at most
//! the largest bound `BENCHMARK.json` allows.

use crate::measure::{median, quartiles};
use srm_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// The bound a metric gets when it repeats well: a regression of 10%.
const MIN_BOUND: f64 = 0.10;

/// The largest regression bound `BENCHMARK.json` may give a metric.
const MAX_BOUND: f64 = 0.25;

/// One end-to-end metric as `BENCHMARK.json` defines it.
struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Benchmark {
    workloads: Vec<String>,
    end_to_end: Vec<Bounded>,
    run_seconds: f64,
}

fn load(path: &str) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{path}: no `{key}` list"))
    };
    let name = |v: &Value| v.get("name").and_then(Value::as_str).map(str::to_owned);
    let workloads = list("workloads")?.iter().filter_map(name).collect();
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Bounded {
                name: name(m)?,
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{path}: no run_seconds"))?;
    Ok(Benchmark {
        workloads,
        end_to_end,
        run_seconds,
    })
}

/// One run's end-to-end values, or why it failed.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = parse(last).map_err(|e| format!("result line: {e}"))?;
    let correct = matches!(doc.get("correct"), Some(Value::Bool(true)));
    let failed = doc
        .get("failed")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    if !correct || failed != 0.0 {
        return Err(format!("correct = {correct}, failed = {failed}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

struct Options {
    runs: usize,
    sets: usize,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    fixed_seed: bool,
    benchmark: String,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 0,
        sets: 1,
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        fixed_seed: false,
        benchmark: "BENCHMARK.json".to_owned(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: `{v}` is not valid");
        match flag.as_str() {
            "--runs" => o.runs = value()?.parse().map_err(|_| bad(flag))?,
            "--sets" => o.sets = value()?.parse().map_err(|_| bad(flag))?,
            "--workload" => o.workloads.push(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => o.seconds = Some(value()?.parse().map_err(|_| bad(flag))?),
            "--benchmark" => o.benchmark = value()?.clone(),
            "--fixed-seed" => o.fixed_seed = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.runs < 2 || o.sets < 1 {
        return Err("--runs must be at least 2 and --sets at least 1".to_owned());
    }
    Ok(o)
}

/// Runs the `repeat` subcommand; exit code 1 when a run failed or a
/// spread or median shift exceeded its bound.
///
/// # Errors
///
/// Bad arguments or an unreadable `BENCHMARK.json`.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let bench = load(&o.benchmark)?;
    let seconds = o.seconds.unwrap_or(bench.run_seconds);
    let workloads = if o.workloads.is_empty() {
        bench.workloads.clone()
    } else {
        o.workloads.clone()
    };
    let mut clean = true;
    // Widest spread of each metric so far, and where it was seen.
    let mut widest: BTreeMap<&str, (f64, String)> = BTreeMap::new();
    for workload in &workloads {
        // sets[s][metric] = values in run order.
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for set in 0..o.sets {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in 0..o.runs {
                let seed = if o.fixed_seed {
                    o.seed
                } else {
                    o.seed + (set * o.runs + run) as u64
                };
                match run_once(workload, seed, seconds) {
                    Ok(metrics) => {
                        for (name, v) in metrics {
                            values.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        clean = false;
                        println!("{workload} seed {seed}: run failed: {e}");
                    }
                }
            }
            sets.push(values);
        }
        println!(
            "== {workload}: {} set(s) of {} runs, {seconds} s each",
            o.sets, o.runs
        );
        println!(
            "{:<16} {:>4} {:>12} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
            "metric", "set", "median", "q1", "q3", "spread", "bound", "shift"
        );
        for metric in &bench.end_to_end {
            let mut first_median = None;
            for (s, values) in sets.iter().enumerate() {
                let Some(v) = values.get(&metric.name).filter(|v| v.len() >= 2) else {
                    clean = false;
                    println!("{:<16} {:>4}  missing", metric.name, s + 1);
                    continue;
                };
                let m = median(v);
                let [q1, _, q3] = quartiles(v).unwrap_or([f64::NAN; 3]);
                let spread = (q3 - q1) / m;
                let seen = widest
                    .entry(metric.name.as_str())
                    .or_insert((0.0, String::new()));
                if spread > seen.0 {
                    *seen = (spread, format!("{workload} set {}", s + 1));
                }
                let base = *first_median.get_or_insert(m);
                let shift = (m - base) / base;
                let worse = if metric.lower_is_better {
                    shift
                } else {
                    -shift
                };
                let verdict = if metric.name != "setup_s" && spread > metric.bound {
                    "SPREAD OVER BOUND"
                } else if worse > metric.bound {
                    "MEDIAN SHIFT OVER BOUND"
                } else if metric.name != "setup_s" && spread > metric.bound / 3.0 {
                    "ok (spread above a third of the bound)"
                } else {
                    "ok"
                };
                clean &= verdict.starts_with("ok");
                println!(
                    "{:<16} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}% {:>+7.2}%  {verdict}",
                    metric.name,
                    s + 1,
                    m,
                    q1,
                    q3,
                    spread * 100.0,
                    metric.bound * 100.0,
                    shift * 100.0
                );
            }
        }
    }
    println!("== widest spread of each metric");
    println!(
        "{:<16} {:>8} {:>7} {:>8}  where",
        "metric", "spread", "bound", "asks"
    );
    for metric in &bench.end_to_end {
        if let Some((spread, at)) = widest.get(metric.name.as_str()) {
            println!(
                "{:<16} {:>7.2}% {:>6.0}% {:>7.0}%  {at}",
                metric.name,
                spread * 100.0,
                metric.bound * 100.0,
                (3.0 * spread).clamp(MIN_BOUND, MAX_BOUND) * 100.0
            );
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
