//! Keeps the benchmark alive: at `--smoke` scale every workload
//! must print every metric `BENCHMARK.json` names, finite, with every
//! output check passing and no failed operation, and a traced run must
//! leave its span file behind.

use srm_obs::json::{parse, Value};
use std::process::{Command, Output};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list, sorted by
/// name (workloads have no unit).
fn entries(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
    let mut out: Vec<_> = doc
        .get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|v| (text(v, "name").unwrap(), text(v, "unit")))
        .collect();
    out.sort();
    out
}

fn driver(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srm-benchmark"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn every_workload_prints_every_metric_at_smoke_scale() {
    let bench = benchmark();
    for (workload, _) in entries(&bench, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let _ = std::fs::remove_file(format!(".bench_out/{workload}.spans.jsonl"));
            let args = ["--workload", &workload, "--seed", "3", "--seconds", "1"];
            let out = driver(&[&args[..], &["--trace", trace, "--smoke"]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let result = parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
            let printed: Vec<(String, Option<String>)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{workload} {name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).map(str::to_owned),
                    )
                })
                .collect();
            assert_eq!(printed, entries(&bench, key), "{workload} trace {trace}");
            if trace == "1" {
                let spans = std::fs::read_to_string(format!(".bench_out/{workload}.spans.jsonl"));
                assert!(spans.is_ok_and(|s| s.lines().count() > 0), "{workload}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve-hit", "--seconds", "1", "--trace", "0"],
        &[
            "--workload",
            "serve-hit",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = driver(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
