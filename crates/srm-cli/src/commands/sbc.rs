//! `srm sbc` — the simulation-based calibration battery.

use crate::args::{ArgError, Args};
use crate::obs::Observability;
use srm_mcmc::runner::McmcConfig;
use srm_obs::{Event, RunManifest};
use srm_sbc::{run_sbc, GridSpec, SbcConfig};

pub(super) const FLAGS: &[&str] = &[
    "grid",
    "reps",
    "out",
    "threads",
    "chains",
    "samples",
    "burn-in",
    "thin",
    "seed",
    "inject-bias",
];
pub(super) const SWITCHES: &[&str] = &["check"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags, an unreadable or invalid grid
/// spec, an unwritable `--out` path — and, under `--check`, when any
/// cell fails the uniformity gate (after the report is written), so
/// the process exits nonzero for CI.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = super::parse_instrumented(raw)?;
    let grid = load_grid(&args)?;
    let config = SbcConfig {
        grid,
        reps: args.get_parsed("reps", 20usize)?,
        mcmc: McmcConfig {
            chains: args.get_parsed("chains", 2usize)?,
            burn_in: args.get_parsed("burn-in", 300usize)?,
            samples: args.get_parsed("samples", 500usize)?,
            thin: args.get_parsed("thin", 1usize)?,
            seed: args.get_parsed("seed", 2024u64)?,
        },
        threads: args.get_parsed("threads", 0usize)?,
        inject_bias: args.get_parsed("inject-bias", 0.0f64)?,
    };

    let obs = Observability::from_args(&args)?;
    let models: Vec<&str> = config.grid.models.iter().map(|m| m.name()).collect();
    let priors: Vec<&str> = config.grid.priors.iter().map(|p| p.label()).collect();
    if obs.recorder().enabled() {
        // The battery generates its own data per replication, so the
        // run identity hashes an empty series.
        obs.recorder().record(&Event::RunStart {
            command: "sbc".into(),
            model: models.join("+"),
            prior: priors.join("+"),
            seed: config.mcmc.seed,
            dataset_hash: srm_obs::dataset_hash(&[]),
        });
    }

    let report =
        run_sbc(&config, obs.recorder()).map_err(|e| ArgError(format!("sbc failed: {e}")))?;

    let document = report.to_value().to_json_pretty();
    if let Some(path) = args.get("out") {
        std::fs::write(path, &document)
            .map_err(|e| ArgError(format!("cannot write `{path}`: {e}")))?;
    }

    let successes: usize = report.cells.iter().map(|c| c.reps - c.failures).sum();
    obs.finish_manifest(
        RunManifest {
            command: "sbc".into(),
            model: models.join("+"),
            prior: priors.join("+"),
            seed: config.mcmc.seed,
            dataset_hash: srm_obs::dataset_hash(&[]),
            chains: config.mcmc.chains,
            burn_in: config.mcmc.burn_in,
            samples: config.mcmc.samples,
            thin: config.mcmc.thin,
            threads: config.threads,
            converged: Some(report.all_passed()),
            ..RunManifest::default()
        },
        successes as u64,
    )?;

    let mut out = String::new();
    out.push_str(&format!(
        "sbc battery: {} cells x {} reps, {} bins, alpha {}\n",
        report.cells.len(),
        report.reps,
        report.bins,
        report.alpha
    ));
    out.push_str(&format!(
        "mcmc       : {} chains, {} burn-in, {} samples, seed {}\n\n",
        config.mcmc.chains, config.mcmc.burn_in, config.mcmc.samples, config.mcmc.seed
    ));
    out.push_str(&report.summary_table());
    if args.get("out").is_some() {
        out.push_str(&format!(
            "report     : {}\n",
            args.get("out").unwrap_or_default()
        ));
    }

    if args.has_switch("check") && !report.all_passed() {
        let failed: Vec<String> = report
            .cells
            .iter()
            .filter(|c| !c.passed)
            .map(|c| format!("{}/{}", c.prior, c.model))
            .collect();
        return Err(ArgError(format!(
            "sbc calibration gate failed for {}\n{out}",
            failed.join(", ")
        )));
    }
    Ok(out)
}

/// Loads `--grid spec.json` (defaults to the full battery grid).
fn load_grid(args: &Args) -> Result<GridSpec, ArgError> {
    let Some(path) = args.get("grid") else {
        return Ok(GridSpec::default());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read grid spec `{path}`: {e}")))?;
    let doc = srm_obs::json::parse(&text)
        .map_err(|e| ArgError(format!("bad JSON in grid spec `{path}`: {e}")))?;
    GridSpec::from_value(&doc).map_err(|e| ArgError(format!("bad grid spec `{path}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_grid(name: &str, body: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    fn base_args(grid: &std::path::Path, extra: &[&str]) -> Vec<String> {
        let mut raw = vec![
            "sbc".to_owned(),
            "--grid".to_owned(),
            grid.to_str().unwrap_or_default().to_owned(),
            "--reps".to_owned(),
            "4".to_owned(),
            "--chains".to_owned(),
            "2".to_owned(),
            "--samples".to_owned(),
            "40".to_owned(),
            "--burn-in".to_owned(),
            "40".to_owned(),
            "--seed".to_owned(),
            "31".to_owned(),
        ];
        raw.extend(extra.iter().map(|s| (*s).to_owned()));
        raw
    }

    #[test]
    fn sbc_renders_summary_and_writes_byte_identical_reports() {
        let grid = write_grid(
            "srm_cli_sbc_grid.json",
            r#"{"models": ["model0"], "priors": ["poisson"], "days": 10,
                "lambda_max": 40, "bins": 4}"#,
        );
        let out_a = std::env::temp_dir().join("srm_cli_sbc_a.json");
        let out_b = std::env::temp_dir().join("srm_cli_sbc_b.json");
        let summary = run(&base_args(
            &grid,
            &["--out", out_a.to_str().unwrap_or_default()],
        ))
        .unwrap_or_else(|e| panic!("sbc failed: {e}"));
        assert!(summary.contains("sbc battery: 1 cells x 4 reps"));
        assert!(summary.contains("poisson/model0"));
        run(&base_args(
            &grid,
            &["--out", out_b.to_str().unwrap_or_default()],
        ))
        .unwrap_or_else(|e| panic!("sbc rerun failed: {e}"));
        let a = std::fs::read(&out_a).unwrap();
        let b = std::fs::read(&out_b).unwrap();
        assert_eq!(a, b, "same-seed reruns must be byte-identical");
        // The report parses and carries the grid echo.
        let doc = srm_obs::json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        assert_eq!(doc.get("master_seed").and_then(|v| v.as_f64()), Some(31.0));
    }

    #[test]
    fn check_fails_on_injected_bias_but_still_writes_the_report() {
        let grid = write_grid(
            "srm_cli_sbc_bias_grid.json",
            r#"{"models": ["model0"], "priors": ["poisson"], "days": 10,
                "lambda_max": 40, "bins": 4}"#,
        );
        let out = std::env::temp_dir().join("srm_cli_sbc_bias.json");
        let _ = std::fs::remove_file(&out);
        let err = run(&base_args(
            &grid,
            &[
                "--reps",
                "16",
                "--inject-bias",
                "1e6",
                "--check",
                "--out",
                out.to_str().unwrap_or_default(),
            ],
        ))
        .unwrap_err();
        assert!(err.0.contains("calibration gate failed"), "{}", err.0);
        // The report landed on disk before the gate returned the error.
        let doc = srm_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("all_passed"),
            Some(&srm_obs::json::Value::Bool(false))
        );
    }

    #[test]
    fn bad_grid_specs_are_clean_errors() {
        let raw: Vec<String> = ["sbc", "--grid", "/no/such/spec.json"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(run(&raw).unwrap_err().0.contains("cannot read grid spec"));

        let grid = write_grid("srm_cli_sbc_bad_grid.json", r#"{"models": ["model9"]}"#);
        let raw: Vec<String> = ["sbc", "--grid", grid.to_str().unwrap_or_default()]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(run(&raw).unwrap_err().0.contains("unknown model"));
    }

    #[test]
    fn sbc_emits_sbc_events_to_the_trace() {
        let grid = write_grid(
            "srm_cli_sbc_trace_grid.json",
            r#"{"models": ["model0"], "priors": ["poisson"], "days": 10,
                "lambda_max": 40, "bins": 4}"#,
        );
        let trace = std::env::temp_dir().join("srm_cli_sbc_trace.jsonl");
        let _ = std::fs::remove_file(&trace);
        run(&base_args(
            &grid,
            &["--trace-out", trace.to_str().unwrap_or_default()],
        ))
        .unwrap_or_else(|e| panic!("sbc failed: {e}"));
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.lines().any(|l| l.contains("\"run-start\"")));
        assert!(text.lines().any(|l| l.contains("\"sbc-cell-start\"")));
        assert!(text.lines().any(|l| l.contains("\"sbc-rep-done\"")));
        assert!(text.lines().any(|l| l.contains("\"sbc-cell-done\"")));
    }
}
