//! `srm select` — WAIC comparison across the five detection models.

use crate::args::ArgError;
use crate::commands::{load_data, parse_run};
use crate::obs::Observability;
use srm_core::Request;
use srm_mcmc::gibbs::GibbsSampler;
use srm_mcmc::runner::{run_chains_fault_tolerant_traced, RunOptions};
use srm_model::{DetectionModel, ZetaBounds};
use srm_obs::{RunManifest, Span};
use srm_report::Table;
use srm_select::waic::waic_from_output;

pub(super) const FLAGS: &[&str] = &[
    "data",
    "dataset",
    "prior",
    "chains",
    "samples",
    "burn-in",
    "thin",
    "seed",
    "lambda-max",
    "alpha-max",
    "theta-max",
    "threads",
];

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags or unreadable data.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = super::parse_instrumented(raw)?;
    let data = load_data(&args)?;
    let theta_max: f64 = args.get_parsed("theta-max", 10.0)?;
    let (prior, mcmc) = parse_run(&args, Request::Select { theta_max })?;
    let bounds = ZetaBounds::from_theta_max(theta_max);
    let threads: usize = args.get_parsed("threads", 0usize)?;
    let mut options = RunOptions::with_threads(threads);
    options.checkpoint_every = args.get_parsed("checkpoint-every", 0usize)?;
    let obs = Observability::from_args(&args)?;
    options.profiler = obs.profiler();
    obs.emit_run_start("select", "all", prior.label(), mcmc.seed, &data);
    // Main-thread install so WAIC scoring shares the workers' sink.
    let profile_guard = srm_obs::profile::install(options.profiler.as_ref());

    let mut table = Table::new(
        &format!(
            "WAIC model comparison — {} prior ({} bugs / {} days)",
            prior.label(),
            data.total(),
            data.len()
        ),
        &["WAIC", "se", "T_k", "V_k"],
    );
    let mut best = (DetectionModel::Constant, f64::INFINITY);
    for model in DetectionModel::ALL {
        let sampler = GibbsSampler::new(prior, model, bounds, &data);
        let sampling = Span::enter(obs.recorder(), "sampling");
        let run = run_chains_fault_tolerant_traced(&sampler, &mcmc, &options, obs.recorder());
        sampling.end();
        let waic = run
            .and_then(|run| waic_from_output(&sampler, &run.output, obs.recorder()))
            .map_err(|e| ArgError(format!("select failed on {model}: {e}")))?;
        if waic.total() < best.1 {
            best = (model, waic.total());
        }
        table.row(
            model.name(),
            &[
                waic.total(),
                waic.se(),
                waic.learning_loss,
                waic.functional_variance,
            ],
        );
    }
    let mut out = table.render();
    out.push_str(&format!(
        "\nbest model: {} (WAIC {:.3}); smaller is better\n",
        best.0, best.1
    ));
    drop(profile_guard);
    obs.finish_profile();

    obs.finish_manifest(
        RunManifest {
            command: "select".into(),
            model: best.0.name().into(),
            prior: prior.label().into(),
            seed: mcmc.seed,
            dataset_hash: srm_obs::dataset_hash(data.counts()),
            chains: mcmc.chains,
            burn_in: mcmc.burn_in,
            samples: mcmc.samples,
            thin: mcmc.thin,
            threads: srm_mcmc::effective_threads(threads, mcmc.chains),
            waic: Some(best.1),
            ..RunManifest::default()
        },
        (mcmc.samples * mcmc.chains * DetectionModel::ALL.len()) as u64,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn select_ranks_models() {
        let path = std::env::temp_dir().join("srm_cli_select_test.csv");
        let manifest = std::env::temp_dir().join("srm_cli_select_manifest.json");
        let mut f = std::fs::File::create(&path).unwrap();
        for (day, count) in srm_data::datasets::musa_cc96()
            .truncated(48)
            .unwrap()
            .iter()
        {
            writeln!(f, "{day},{count}").unwrap();
        }
        let raw: Vec<String> = [
            "select",
            "--data",
            path.to_str().unwrap(),
            "--chains",
            "1",
            "--samples",
            "300",
            "--burn-in",
            "100",
            "--metrics-out",
            manifest.to_str().unwrap(),
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let out = run(&raw).unwrap();
        assert!(out.contains("model4"));
        assert!(out.contains("best model"));

        // The manifest times the five chain runs as `sampling`, so its
        // throughput figure is a real rate.
        let text = std::fs::read_to_string(&manifest).unwrap();
        let doc = srm_obs::json::parse(&text).unwrap();
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert!(
            phases
                .iter()
                .any(|p| p.get("phase").and_then(|v| v.as_str()) == Some("sampling")),
            "{text}"
        );
        let rate = doc.get("draws_per_sec").unwrap().as_f64().unwrap();
        assert!(rate > 0.0, "{text}");
    }
}
