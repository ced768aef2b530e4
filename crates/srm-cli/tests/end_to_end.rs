//! End-to-end CLI workflows exercised through the library entry
//! point (`srm_cli::run`), covering the full simulate → trend →
//! select → fit → predict loop a practitioner would run.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use std::io::Write as _;

fn run(parts: &[&str]) -> Result<String, srm_cli::ArgError> {
    let raw: Vec<String> = parts.iter().map(|s| (*s).to_owned()).collect();
    srm_cli::run(&raw)
}

fn temp_csv(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(body.as_bytes()).unwrap();
    path
}

#[test]
fn full_workflow_simulate_to_predict() {
    // 1. Simulate a project.
    let csv = run(&[
        "simulate", "--bugs", "250", "--days", "40", "--p", "0.05", "--seed", "11",
    ])
    .unwrap();
    let path = temp_csv("srm_cli_e2e.csv", &csv);
    let path = path.to_str().unwrap();

    // 2. Trend: simulated constant-p data on a finite pool exhibits
    // reliability growth (the pool drains).
    let trend = run(&["trend", "--data", path]).unwrap();
    assert!(trend.contains("Laplace trend"));

    // 3. Select with short chains: the output lists all models.
    let select = run(&[
        "select",
        "--data",
        path,
        "--chains",
        "1",
        "--samples",
        "200",
        "--burn-in",
        "80",
    ])
    .unwrap();
    for m in ["model0", "model1", "model2", "model3", "model4"] {
        assert!(select.contains(m), "missing {m}");
    }
    assert!(select.contains("best model"));

    // 4. Fit the homogeneous model (matching the generator).
    let fit = run(&[
        "fit",
        "--data",
        path,
        "--model",
        "model0",
        "--chains",
        "2",
        "--samples",
        "400",
        "--burn-in",
        "150",
        "--seed",
        "3",
    ])
    .unwrap();
    assert!(fit.contains("posterior of the residual bug count"));
    assert!(fit.contains("95% CI"));

    // 5. Predict over a horizon.
    let predict = run(&[
        "predict",
        "--data",
        path,
        "--model",
        "model0",
        "--horizon",
        "15",
        "--chains",
        "1",
        "--samples",
        "300",
        "--burn-in",
        "100",
    ])
    .unwrap();
    assert!(predict.contains("expected detections in the next 15 days"));
    assert!(predict.contains("h =  15"));
}

#[test]
fn help_and_unknown_command() {
    let help = run(&["help"]).unwrap();
    assert!(help.contains("USAGE"));
    let empty = run(&[]).unwrap();
    assert!(empty.contains("USAGE"));
    let err = run(&["frobnicate"]).unwrap_err();
    assert!(err.to_string().contains("unknown command"));
}

#[test]
fn fit_rejects_malformed_csv() {
    let path = temp_csv("srm_cli_bad.csv", "day,count\n1,2\n5,1\n");
    let err = run(&["fit", "--data", path.to_str().unwrap()]).unwrap_err();
    assert!(err.to_string().contains("bad data"));
}

#[test]
fn fit_rejects_unknown_model_with_one_line_diagnostic() {
    let path = temp_csv("srm_cli_badmodel.csv", "day,count\n1,5\n2,3\n3,2\n");
    let err = run(&["fit", "--data", path.to_str().unwrap(), "--model", "model9"]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown model"), "{msg}");
    assert!(!msg.contains('\n'), "diagnostic must be one line: {msg}");
}

#[test]
fn fit_rejects_unknown_prior_with_one_line_diagnostic() {
    let path = temp_csv("srm_cli_badprior.csv", "day,count\n1,5\n2,3\n3,2\n");
    let err = run(&["fit", "--data", path.to_str().unwrap(), "--prior", "cauchy"]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown prior"), "{msg}");
    assert!(!msg.contains('\n'), "diagnostic must be one line: {msg}");
}

#[test]
fn fit_rejects_zero_chain_config() {
    let path = temp_csv("srm_cli_zerochain.csv", "day,count\n1,5\n2,3\n3,2\n");
    for flag in ["--chains", "--samples", "--thin"] {
        let err = run(&["fit", "--data", path.to_str().unwrap(), flag, "0"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("must be at least 1"), "{flag}: {msg}");
        assert!(!msg.contains('\n'), "diagnostic must be one line: {msg}");
    }
}

#[test]
fn fit_survives_injected_faults_end_to_end() {
    let csv = run(&[
        "simulate", "--bugs", "150", "--days", "30", "--p", "0.05", "--seed", "41",
    ])
    .unwrap();
    let path = temp_csv("srm_cli_faulty.csv", &csv);
    let out = run(&[
        "fit",
        "--data",
        path.to_str().unwrap(),
        "--model",
        "model0",
        "--chains",
        "2",
        "--samples",
        "200",
        "--burn-in",
        "80",
        "--seed",
        "13",
        "--inject-faults",
        "2",
    ])
    .unwrap();
    assert!(out.contains("fault report (per chain)"));
    assert!(out.contains("posterior of the residual bug count"));
}

#[test]
fn deterministic_across_invocations() {
    let csv = run(&[
        "simulate", "--bugs", "120", "--days", "25", "--p", "0.06", "--seed", "77",
    ])
    .unwrap();
    let path = temp_csv("srm_cli_det.csv", &csv);
    let args = [
        "fit",
        "--data",
        path.to_str().unwrap(),
        "--model",
        "model0",
        "--chains",
        "1",
        "--samples",
        "200",
        "--burn-in",
        "100",
        "--seed",
        "5",
    ];
    assert_eq!(run(&args).unwrap(), run(&args).unwrap());
}

/// Flag sets that once aborted the process (a 34 GB horizon vector, a
/// 4-billion-draw chain, 100,000 pool threads) or failed only after
/// sampling began: each must exit 1 with one `srm:` line, before any
/// work starts.
#[test]
fn door_check_rejects_each_flag_set_with_exit_1() {
    for (args, needle) in [
        (
            &["predict", "--horizon", "4294967295"][..],
            "`horizon` must be at most",
        ),
        (&["fit", "--samples", "4294967295"], "kept draws"),
        (
            &[
                "fit",
                "--chains",
                "100000",
                "--threads",
                "100000",
                "--samples",
                "1",
            ],
            "`chains` must be at most",
        ),
        (
            &["fit", "--lambda-max", "-1"],
            "`lambda_max` must be finite and > 0",
        ),
        (
            &["predict", "--prior", "negbinom", "--alpha-max", "0"],
            "`alpha_max` must be finite and > 0",
        ),
        (
            &["select", "--theta-max", "-5"],
            "`theta_max` must be finite and > 0",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_srm"))
            .args(args)
            .args(["--dataset", "musa_cc96"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("srm: ") && first.contains(needle),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn door_check_bounds_sweeps_and_the_open_margins_in_one_line() {
    // Each of these used to run: a burn-in that holds a worker for
    // days, an α_max whose chains all panicked on `clamp`, an α_max
    // whose residual draws saturated a u64, and a θ_max that failed
    // inside the sampler with a 300-digit message. Unchecked, the sbc
    // and simulate cases each ask for tens of gigabytes or more and
    // abort the process.
    let grid = temp_csv("srm_cli_e2e_huge_grid.json", r#"{"days": 1e12}"#);
    let grid = grid.to_str().unwrap();
    for (args, needle) in [
        (
            &["fit", "--dataset", "musa_cc96", "--burn-in", "4294967295"][..],
            "must be at most 10000000 sweeps",
        ),
        (
            &[
                "fit",
                "--dataset",
                "musa_cc96",
                "--prior",
                "negbinom",
                "--alpha-max",
                "1e-300",
            ],
            "`alpha_max` must be above 2·OPEN_EPS = 2e-9, got 1e-300",
        ),
        (
            &[
                "fit",
                "--dataset",
                "musa_cc96",
                "--prior",
                "negbinom",
                "--alpha-max",
                "1e100",
            ],
            "`alpha_max` must be at most 1e6, got 1e100",
        ),
        (
            &["select", "--dataset", "musa_cc96", "--theta-max", "1e-300"],
            "`theta_max` must be above OPEN_EPS = 1e-9, got 1e-300",
        ),
        (
            &["sbc", "--samples", "4294967295"],
            "must be at most 1000000 kept draws, got 8589934590",
        ),
        (
            &["sbc", "--reps", "4294967295"],
            "sbc reps must be at most 10000, got 4294967295",
        ),
        (
            &["sbc", "--grid", grid],
            "grid `days` must be at most 100000, got 1000000000000",
        ),
        (
            &["simulate", "--days", "1000000000000", "--p", "0.1"],
            "`--days` must be at most 100000, got 1000000000000",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_srm"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("srm: ")).collect();
        assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(lines[0]) && lines[0].contains(needle),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn predict_with_a_vanishing_lambda_max_draws_a_positive_lambda0() {
    // With λ_max this small every λ0 | ζ draw sits deep in its gamma's
    // lower tail, where the kept mass underflows a double. The draws
    // must still be positive: predict refuses a fitted λ0 that is not
    // finite and > 0, so a prediction at all means λ0 > 0.
    let out = run(&[
        "predict",
        "--dataset",
        "musa_cc96",
        "--lambda-max",
        "1e-300",
        "--chains",
        "2",
        "--samples",
        "100",
        "--burn-in",
        "10",
    ])
    .unwrap();
    let expected: f64 = out
        .lines()
        .find_map(|l| l.strip_prefix("expected detections in the next 30 days: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(expected.is_finite() && expected >= 0.0, "{out}");
}
