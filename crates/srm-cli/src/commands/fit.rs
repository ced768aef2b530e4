//! `srm fit` — one Bayesian fit with full reporting, or a whole
//! directory of fits via `--batch`.

use crate::args::{ArgError, Args};
use crate::commands::{load_data, parse_mcmc, parse_model, parse_prior};
use crate::obs::{with_obs_flags, with_obs_switches, Observability};
use srm_batch::{run_batch_traced, BatchSpec};
use srm_core::{Fit, FitConfig};
use srm_mcmc::runner::RunOptions;
use srm_mcmc::{AcceptanceSummary, FaultPlan, PosteriorSummary, RetryPolicy};
use srm_obs::RunManifest;

const FLAGS: &[&str] = &[
    "batch",
    "data",
    "dataset",
    "model",
    "prior",
    "chains",
    "samples",
    "burn-in",
    "thin",
    "seed",
    "lambda-max",
    "alpha-max",
    "max-retries",
    "inject-faults",
    "threads",
];
const SWITCHES: &[&str] = &["diagnostics"];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags, unreadable data, or when every
/// chain of the run is lost to faults.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(raw, &with_obs_flags(FLAGS), &with_obs_switches(SWITCHES))?;
    if args.get("batch").is_some() {
        return run_batch_dir(&args);
    }
    let data = load_data(&args)?;
    let model = parse_model(&args)?;
    let prior = parse_prior(&args)?;
    let mcmc = parse_mcmc(&args)?;
    let obs = Observability::from_args(&args)?;
    obs.emit_run_start("fit", model.name(), prior.label(), mcmc.seed, &data);

    let inject: usize = args.get_parsed("inject-faults", 0usize)?;
    let threads: usize = args.get_parsed("threads", 0usize)?;
    let options = RunOptions {
        retry: RetryPolicy {
            max_retries: args.get_parsed("max-retries", 3usize)?,
        },
        fault_plan: if inject == 0 {
            FaultPlan::none()
        } else {
            let total_sweeps = mcmc.burn_in + mcmc.samples * mcmc.thin;
            FaultPlan::from_seed(mcmc.seed, mcmc.chains, total_sweeps, inject)
        },
        threads,
        checkpoint_every: args.get_parsed("checkpoint-every", 0usize)?,
        profiler: obs.profiler(),
    };

    // Install the profiler on this thread too, so main-thread phases
    // (WAIC scoring, summaries) land in the same profile as the
    // worker-thread chains.
    let profile_guard = srm_obs::profile::install(options.profiler.as_ref());
    let tolerant = Fit::try_run_traced(
        prior,
        model,
        &data,
        &FitConfig {
            mcmc,
            ..FitConfig::default()
        },
        &options,
        obs.recorder(),
    )
    .map_err(|e| ArgError(format!("fit failed: {e}")))?;
    drop(profile_guard);
    obs.finish_profile();
    let fit = &tolerant.fit;

    obs.finish_manifest(
        RunManifest {
            command: "fit".into(),
            model: model.name().into(),
            prior: prior.label().into(),
            seed: mcmc.seed,
            dataset_hash: srm_obs::dataset_hash(data.counts()),
            chains: mcmc.chains,
            burn_in: mcmc.burn_in,
            samples: mcmc.samples,
            thin: mcmc.thin,
            threads: srm_mcmc::effective_threads(threads, mcmc.chains),
            converged: Some(fit.converged()),
            waic: Some(fit.waic.total()),
            ..RunManifest::default()
        },
        fit.residual_draws.len() as u64,
    )?;

    let (lo, hi) = PosteriorSummary::credible_interval(&fit.residual_draws, 0.05);
    let (hlo, hhi) = PosteriorSummary::hpd_interval(&fit.residual_draws, 0.05);
    let mut out = String::new();
    out.push_str(&format!(
        "data      : {} bugs over {} days\n",
        data.total(),
        data.len()
    ));
    out.push_str(&format!(
        "model     : {} | prior: {}\n",
        model,
        prior.label()
    ));
    out.push_str(&format!(
        "draws     : {} kept ({} of {} chains)\n",
        fit.residual_draws.len(),
        fit.output.chains.len(),
        mcmc.chains
    ));
    out.push_str("\nposterior of the residual bug count\n");
    out.push_str(&format!("  mean    : {:10.3}\n", fit.residual.mean));
    out.push_str(&format!("  median  : {:10.3}\n", fit.residual.median));
    out.push_str(&format!("  mode    : {:10.3}\n", fit.residual.mode));
    out.push_str(&format!("  sd      : {:10.3}\n", fit.residual.sd));
    out.push_str(&format!("  95% CI  : [{lo:.1}, {hi:.1}]\n"));
    out.push_str(&format!("  95% HPD : [{hlo:.1}, {hhi:.1}]\n"));
    out.push_str(&format!(
        "\nWAIC      : {:.3} (se {:.3}, p_waic {:.2})\n",
        fit.waic.total(),
        fit.waic.se(),
        fit.waic.p_waic()
    ));
    out.push_str(&format!("converged : {}\n", fit.converged()));

    let acceptance = AcceptanceSummary::from_reports(&tolerant.chain_reports);
    if !acceptance.is_empty() {
        let listed: Vec<String> = acceptance
            .params
            .iter()
            .map(|p| format!("{} {:.1}%", p.parameter, p.rate() * 100.0))
            .collect();
        out.push_str(&format!("accepted  : {}\n", listed.join(" | ")));
    }

    if tolerant.is_degraded() || tolerant.total_retries() > 0 || inject > 0 {
        out.push_str("\nfault report (per chain)\n");
        for report in &tolerant.chain_reports {
            out.push_str(&format!("  {report}\n"));
        }
        let mut counters = std::collections::BTreeMap::<&str, usize>::new();
        for report in &tolerant.chain_reports {
            if let Some(fault) = &report.fault {
                *counters.entry(fault.kind()).or_insert(0) += 1;
            }
        }
        if counters.is_empty() {
            out.push_str("  fault counters: none\n");
        } else {
            let listed: Vec<String> = counters
                .iter()
                .map(|(kind, n)| format!("{kind} x{n}"))
                .collect();
            out.push_str(&format!("  fault counters: {}\n", listed.join(", ")));
        }
    }

    if args.has_switch("diagnostics") {
        out.push_str("\nper-parameter diagnostics (PSRF | Geweke Z | ESS | MCSE)\n");
        for (name, d) in &fit.diagnostics {
            out.push_str(&format!(
                "  {name:10} {:8.4} {:8.2} {:10.0} {:10.4}\n",
                d.psrf, d.geweke_z, d.ess, d.mcse
            ));
        }
    }
    Ok(out)
}

/// `srm fit --batch dir/` — one spec fanned over every CSV in a
/// directory through the columnar batch executor, with a per-item
/// exit table. Each item's fit is bit-identical to a lone
/// `srm fit --seed <derived>` on the same file.
fn run_batch_dir(args: &Args) -> Result<String, ArgError> {
    let dir = args.require("batch")?;
    if args.get("data").is_some() || args.get("dataset").is_some() {
        return Err(ArgError(
            "--batch replaces --data/--dataset: the directory IS the data".into(),
        ));
    }
    if args.get_parsed("inject-faults", 0usize)? != 0 {
        return Err(ArgError(
            "--inject-faults is a single-fit debugging tool; it does not compose with --batch"
                .into(),
        ));
    }
    let model = parse_model(args)?;
    let prior = parse_prior(args)?;
    let mcmc = parse_mcmc(args)?;
    let obs = Observability::from_args(args)?;

    let path = std::path::Path::new(dir);
    let load = srm_data::load_dir(path)
        .map_err(|e| ArgError(format!("cannot read batch directory {dir}: {e}")))?;
    if load.items.is_empty() {
        let detail = if load.has_errors() {
            let listed: Vec<String> = load.errors.iter().map(ToString::to_string).collect();
            format!("every CSV failed to load: {}", listed.join("; "))
        } else {
            "no CSV files".to_string()
        };
        return Err(ArgError(format!("batch directory {dir}: {detail}")));
    }

    let spec = BatchSpec {
        prior,
        model,
        config: FitConfig {
            mcmc,
            ..FitConfig::default()
        },
        options: RunOptions {
            retry: RetryPolicy {
                max_retries: args.get_parsed("max-retries", 3usize)?,
            },
            fault_plan: FaultPlan::none(),
            threads: args.get_parsed("threads", 0usize)?,
            checkpoint_every: 0,
            profiler: obs.profiler(),
        },
    };
    let batch_id = format!(
        "batch-{}",
        path.file_name()
            .map_or_else(|| "dir".into(), |n| n.to_string_lossy())
    );

    let profile_guard = srm_obs::profile::install(spec.options.profiler.as_ref());
    let report = run_batch_traced(&spec, &load.items, &batch_id, obs.recorder())
        .map_err(|e| ArgError(format!("batch failed: {e}")))?;
    drop(profile_guard);
    obs.finish_profile();

    let mut out = String::new();
    out.push_str(&format!(
        "batch     : {} dataset(s) from {dir}\n",
        report.items.len()
    ));
    out.push_str(&format!(
        "model     : {} | prior: {}\n",
        model,
        prior.label()
    ));
    out.push_str(&format!(
        "master    : seed {} | {} chains x {} samples\n",
        report.master_seed, mcmc.chains, mcmc.samples
    ));
    for err in &load.errors {
        out.push_str(&format!("warning   : skipped {err}\n"));
    }
    out.push_str(&format!(
        "\n  {:<20} {:>12} {:>8} {:>6} {:>12} {:>10} {:>12}\n",
        "label", "seed", "status", "cached", "resid.mean", "resid.sd", "waic"
    ));
    for item in &report.items {
        let (mean, sd, waic) = item.fit.as_ref().map_or_else(
            || ("-".to_string(), "-".to_string(), "-".to_string()),
            |f| {
                (
                    format!("{:.3}", f.fit.residual.mean),
                    format!("{:.3}", f.fit.residual.sd),
                    format!("{:.3}", f.fit.waic.total()),
                )
            },
        );
        out.push_str(&format!(
            "  {:<20} {:>12} {:>8} {:>6} {:>12} {:>10} {:>12}\n",
            item.label,
            item.seed,
            item.status.as_str(),
            if item.cached { "yes" } else { "no" },
            mean,
            sd,
            waic
        ));
        if let Some(error) = &item.error {
            out.push_str(&format!("      error: {error}\n"));
        }
    }
    out.push_str(&format!(
        "\nitems     : {} | failed {} | cache hits {} | skipped files {}\n",
        report.items.len(),
        report.failed(),
        report.cache_hits,
        load.errors.len()
    ));
    if report.all_failed() {
        return Err(ArgError(format!("batch failed: every item failed\n{out}")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    /// Writes the 30-day Musa window to a CSV of the calling test's
    /// own: tests run in parallel, and a file another test is reading
    /// must not be truncated under it.
    fn write_csv(test: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("srm_cli_{test}_{}.csv", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "day,count").unwrap();
        for (day, count) in srm_data::datasets::musa_cc96()
            .truncated(30)
            .unwrap()
            .iter()
        {
            writeln!(f, "{day},{count}").unwrap();
        }
        path
    }

    #[test]
    fn fit_renders_summary() {
        let path = write_csv("fit_renders_summary");
        let raw: Vec<String> = [
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--model",
            "model0",
            "--chains",
            "2",
            "--samples",
            "300",
            "--burn-in",
            "100",
            "--diagnostics",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = run(&raw).unwrap();
        assert!(out.contains("posterior of the residual bug count"));
        assert!(out.contains("WAIC"));
        assert!(out.contains("PSRF"));
        assert!(out.contains("model0 | prior: poisson"));
        // Fault-free run with no injection: no fault section.
        assert!(!out.contains("fault report"));
    }

    #[test]
    fn fit_with_injected_faults_reports_counters() {
        let path = write_csv("fit_with_injected_faults_reports_counters");
        let raw: Vec<String> = [
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
            "9",
            "--inject-faults",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        // The plan cycles panic/nan-rate/slice kinds, so at most one
        // of the two chains is lost; the fit must still succeed and
        // name the faults it saw.
        let out = run(&raw).unwrap();
        assert!(out.contains("fault report (per chain)"));
        assert!(out.contains("fault counters:"));
        assert!(out.contains("posterior of the residual bug count"));
    }

    #[test]
    fn fit_writes_trace_and_manifest() {
        let path = write_csv("fit_writes_trace_and_manifest");
        let trace = std::env::temp_dir().join("srm_cli_fit_trace.jsonl");
        let manifest = std::env::temp_dir().join("srm_cli_fit_manifest.json");
        let raw: Vec<String> = [
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
            "11",
            "--inject-faults",
            "1",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            manifest.to_str().unwrap(),
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = run(&raw).unwrap();
        assert!(out.contains("accepted  :"), "no acceptance line in:\n{out}");

        // The trace holds typed events including the injection.
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.lines().any(|l| l.contains("\"run-start\"")));
        assert!(text.lines().any(|l| l.contains("\"fault-injected\"")));
        assert!(text.lines().any(|l| l.contains("\"chain-report\"")));

        // The manifest carries the run identity and counters.
        let doc = srm_obs::json::parse(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        assert_eq!(doc.get("command").unwrap().as_str(), Some("fit"));
        assert_eq!(doc.get("model").unwrap().as_str(), Some("model0"));
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(11.0));
        assert_eq!(doc.get("faults_injected").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            doc.get("mcmc").unwrap().get("chains").unwrap().as_f64(),
            Some(2.0)
        );
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert!(
            phases
                .iter()
                .any(|p| p.get("phase").unwrap().as_str() == Some("sampling")),
            "manifest has no sampling phase"
        );
        assert!(doc.get("draws_per_sec").unwrap().as_f64() > Some(0.0));
        let chains = doc.get("chains_report").unwrap().as_arr().unwrap();
        assert_eq!(chains.len(), 2);
        // The injected panic loses one of the two chains, so no PSRF
        // is computable — the field must still be present (empty).
        assert!(doc.get("diagnostics").unwrap().as_arr().is_some());
        assert_eq!(
            doc.get("fault_counters")
                .unwrap()
                .get("chain-panicked")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    fn batch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("srm_cli_batch_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch_args(dir: &std::path::Path) -> Vec<String> {
        [
            "fit",
            "--batch",
            dir.to_str().unwrap(),
            "--model",
            "model0",
            "--chains",
            "2",
            "--samples",
            "150",
            "--burn-in",
            "50",
            "--seed",
            "7",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
    }

    #[test]
    fn batch_renders_per_item_table_and_warns_on_bad_files() {
        let dir = batch_dir("table");
        std::fs::write(dir.join("alpha.csv"), "1,5\n2,3\n3,4\n4,1\n5,2\n").unwrap();
        std::fs::write(dir.join("beta.csv"), "1,2\n2,2\n3,1\n4,0\n5,1\n6,1\n").unwrap();
        std::fs::write(dir.join("broken.csv"), "1,5\n4,2\n").unwrap(); // day gap
        let out = run(&batch_args(&dir)).unwrap();
        assert!(out.contains("batch     : 2 dataset(s)"), "{out}");
        assert!(out.contains("alpha"), "{out}");
        assert!(out.contains("beta"), "{out}");
        assert!(out.contains("warning   : skipped broken.csv"), "{out}");
        assert!(
            out.contains("items     : 2 | failed 0 | cache hits 0"),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_item_matches_a_lone_fit_with_the_derived_seed() {
        let dir = batch_dir("derived");
        let csv = "1,5\n2,3\n3,4\n4,1\n5,2\n";
        std::fs::write(dir.join("only.csv"), csv).unwrap();
        let out = run(&batch_args(&dir)).unwrap();

        // Recompute the content-keyed seed the batch derived and fit
        // the same file alone with it: the summary statistics must
        // agree to the table's full printed precision.
        let data = srm_data::BugCountData::new(vec![5, 3, 4, 1, 2]).unwrap();
        let seed = srm_batch::item_seed(7, &data);
        assert!(out.contains(&format!(" {seed} ")), "{out}");
        let single = dir.join("only.csv");
        let raw: Vec<String> = [
            "fit",
            "--data",
            single.to_str().unwrap(),
            "--model",
            "model0",
            "--chains",
            "2",
            "--samples",
            "150",
            "--burn-in",
            "50",
            "--seed",
            &seed.to_string(),
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let lone = run(&raw).unwrap();
        let mean = lone
            .lines()
            .find(|l| l.starts_with("  mean"))
            .unwrap()
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .to_string();
        let sd = lone
            .lines()
            .find(|l| l.starts_with("  sd"))
            .unwrap()
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .to_string();
        assert!(out.contains(&mean), "mean {mean} not in:\n{out}");
        assert!(out.contains(&sd), "sd {sd} not in:\n{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_coalesces_duplicate_datasets_and_is_rerun_stable() {
        let dir = batch_dir("dup");
        let csv = "1,4\n2,2\n3,3\n4,1\n5,0\n6,2\n";
        std::fs::write(dir.join("twin_a.csv"), csv).unwrap();
        std::fs::write(dir.join("twin_b.csv"), csv).unwrap();
        let out = run(&batch_args(&dir)).unwrap();
        assert!(out.contains("cache hits 1"), "{out}");
        assert!(out.contains("yes"), "no cached item marker in:\n{out}");
        // Same directory, same spec: the whole table is reproducible.
        let again = run(&batch_args(&dir)).unwrap();
        assert_eq!(out, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_rejects_conflicting_flags_and_empty_dirs() {
        let dir = batch_dir("conflict");
        std::fs::write(dir.join("a.csv"), "1,1\n").unwrap();
        let mut raw = batch_args(&dir);
        raw.extend(["--dataset".to_owned(), "short_campaign_25".to_owned()]);
        let err = run(&raw).unwrap_err();
        assert!(err.0.contains("--batch replaces --data/--dataset"), "{err}");

        let mut faulty = batch_args(&dir);
        faulty.extend(["--inject-faults".to_owned(), "1".to_owned()]);
        let err = run(&faulty).unwrap_err();
        assert!(err.0.contains("does not compose with --batch"), "{err}");

        let empty = batch_dir("emptydir");
        let err = run(&batch_args(&empty)).unwrap_err();
        assert!(err.0.contains("no CSV files"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn failed_fit_appends_cli_diagnostic_to_trace() {
        let trace = std::env::temp_dir().join("srm_cli_fit_err_trace.jsonl");
        let _ = std::fs::remove_file(&trace);
        let raw: Vec<String> = [
            "fit",
            "--data",
            "/no/such/file.csv",
            "--trace-out",
            trace.to_str().unwrap(),
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let err = crate::run(&raw).unwrap_err();
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("\"cli-diagnostic\""));
        // Single formatting path: the trace carries the exact line
        // the terminal shows.
        let doc = srm_obs::json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(
            doc.get("message").unwrap().as_str(),
            Some(crate::diagnostic_line(&err).as_str())
        );
        assert_eq!(doc.get("level").unwrap().as_str(), Some("error"));
    }
}
