//! The CLI subcommands.

pub mod bench;
pub mod fit;
pub mod predict;
pub mod sbc;
pub mod select;
pub mod serve;
pub mod simulate;
pub mod trace;
pub mod trend;
pub mod version;

use crate::args::{ArgError, Args};
use crate::obs::{OBS_FLAGS, OBS_SWITCHES};
use srm_core::Request;
use srm_data::BugCountData;
use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::McmcConfig;
use srm_model::DetectionModel;

/// The help text shown by `srm help`.
#[must_use]
pub fn help_text() -> String {
    "srm — Bayesian estimation of the residual number of software bugs

USAGE:
    srm <command> [flags]

COMMANDS:
    fit       Fit one model/prior and report the residual-bug posterior
    select    WAIC comparison of all five detection models
    predict   Reliability and expected detections over a future horizon
    trend     Laplace trend test and dataset summary
    simulate  Generate synthetic bug-count data (CSV on stdout)
    sbc       Simulation-based calibration battery over (prior, curve) cells
    serve     Long-running HTTP estimation service (job queue + fit cache)
    trace     Analyse JSONL traces: summarize | diff | lint | profile | grep
    bench     Compare benchmark reports: diff [--check]
    version   Print crate and schema versions
    help      Show this message

COMMON FLAGS:
    --data <file.csv>       day,count input data (fit/select/predict/trend)
    --batch <dir/>          fit every *.csv in a directory as one batch
                            (fit only; per-item seeds derive from --seed)
    --dataset <name>        bundled dataset instead of --data
                            (musa_cc96, decaying_growth_60, s_shaped_80,
                             short_campaign_25, plateau_100, late_surge_50,
                             ntds_26, tandem_20w, ohba_sshape_22w,
                             musa_ss3_28)
    --model model0..model4  detection model        [default: model1]
    --prior poisson|negbinom                        [default: poisson]
    --chains N --samples N --burn-in N --thin N --seed N
    --threads N             worker threads for parallel chains (fit/select)
                            [default: 0 = min(chains, cores)]; any value
                            yields bit-identical results for a given seed
    --lambda-max X --alpha-max X
    --max-retries N         per-chain sweep retries on faults (fit) [default: 3]
    --inject-faults N       inject N seed-deterministic faults (fit; testing)
    --diagnostics           per-parameter PSRF, Geweke Z, ESS and MCSE (fit)
    --horizon N             days to predict ahead (predict)     [default: 30]
    --theta-max X           prior limit of model1's θ and model2's |γ|
                            (select)                            [default: 10]
    --chart                 ASCII charts of the daily counts and the running
                            Laplace statistic (trend)

SIMULATION (srm simulate):
    --bugs N --days N --seed N       [defaults: 200 bugs, 60 days, seed 1]
    --p X                   constant daily detection probability, or
    --model M --params a,b  a detection curve and its parameters

OBSERVABILITY (fit/select/trend/sbc):
    --trace-out <run.jsonl>    typed JSONL event stream of the run
    --metrics-out <run.json>   run manifest: seed, dataset hash, timings,
                               fault/retry counters, diagnostics
    --progress                 progress on stderr: phase times, faults and,
                               with --checkpoint-every K, a line per chain
                               checkpoint
    --verbosity 0|1|2          progress detail                  [default: 1]
    --checkpoint-every K       streaming convergence checkpoints every K
                               sweeps (0 = off; never changes the draws)
    --profile                  hierarchical phase-time profile: table on
                               stderr, `profile` event in the trace
                               (never changes the draws)
    --trace-id <hex>           pin the run's correlation id (1-32 hex
                               digits; derived from the arguments if absent)

TRACE ANALYSIS (srm trace):
    srm trace summarize --file run.jsonl     counts, phase timings, and the
                                             convergence trajectory
    srm trace diff --a run1.jsonl --b run2.jsonl
    srm trace lint --file run.jsonl --strict schema validation (CI gate)
    srm trace profile --file run.jsonl --top N
                                             phase-time table from a
                                             profiled run's trace
    srm trace grep --trace-id <hex> [--access-log F] [--trace-dir D] [--file F]
                                             one causal timeline of every
                                             line carrying the id

CALIBRATION (srm sbc):
    --grid <spec.json>      grid spec: days, priors, models, hyper-prior
                            limits, bins, alpha  [default: full 5x2 battery]
    --reps R                replications per (prior, curve) cell [default: 20]
    --out <sbc.json>        deterministic report (byte-identical per seed)
    --check                 exit non-zero when any cell fails the
                            chi-square rank-uniformity gate (CI gate)
    --inject-bias X         add X to posterior N draws before ranking
                            (testing: proves the gate trips)
    --chains/--samples/--burn-in/--thin/--seed/--threads as above
                            [sbc defaults: 2 chains, 500 samples,
                             300 burn-in, seed 2024]

BENCH REGRESSION (srm bench):
    srm bench diff OLD.json NEW.json [--check] [--threshold PCT]
                                             compare BENCH_mcmc.json reports;
                                             --check exits non-zero on any
                                             regression beyond PCT% (CI gate)

SERVING (srm serve):
    --addr <ip:port>        bind address            [default: 127.0.0.1:8377]
                            (port 0 picks an ephemeral port)
    --workers N             job worker threads                  [default: 2]
    --queue-capacity N      bounded queue; overflow gets 429    [default: 16]
    --trace-dir <dir>       per-job JSONL traces and run manifests
    --port-file <file>      write the bound port here (for scripts)
    --state-dir <dir>       crash-durable state: WAL + snapshots; jobs and
                            cache survive kill -9 and are recovered on boot
    --wal-sync always|off   fsync the WAL on every append       [default: off]
                            (off survives SIGKILL; always also power loss)
    --access-log <file>     one JSONL line per request: trace id, status,
                            latency breakdown (size-rotated to <file>.1)
    --flight-recorder       keep the last 4096 events in memory; dumped on
                            panic, engine failure, drain, or
                            POST /v1/debug/flightrec

EXAMPLES:
    srm fit --data counts.csv --model model1 --prior poisson
    srm fit --data counts.csv --trace-out run.jsonl --metrics-out run.json
    srm fit --batch projects/ --model model0 --seed 7
    srm simulate --bugs 200 --days 60 --p 0.05 --seed 1 > synth.csv
    srm serve --addr 127.0.0.1:0 --port-file srm.port --trace-dir runs/
"
    .to_owned()
}

/// Parses the arguments of an instrumented command — `fit`, `select`,
/// `trend` or `sbc`, the ones that take `--trace-out` — with its own
/// flags and switches plus the shared observability ones
/// ([`OBS_FLAGS`], [`OBS_SWITCHES`]). A failed run's `cli-diagnostic`
/// line re-parses its arguments here to find the run's trace id.
///
/// # Errors
///
/// Returns [`ArgError`] for any other command and on bad flags.
pub(crate) fn parse_instrumented(raw: &[String]) -> Result<Args, ArgError> {
    let (own_flags, own_switches): (&[&str], &[&str]) = match raw.first().map(String::as_str) {
        Some("fit") => (fit::FLAGS, fit::SWITCHES),
        Some("select") => (select::FLAGS, &[]),
        Some("trend") => (trend::FLAGS, trend::SWITCHES),
        Some("sbc") => (sbc::FLAGS, sbc::SWITCHES),
        _ => return Err(ArgError("not an instrumented command".into())),
    };
    let flags: Vec<&str> = own_flags.iter().chain(OBS_FLAGS).copied().collect();
    let switches: Vec<&str> = own_switches.iter().chain(OBS_SWITCHES).copied().collect();
    Args::parse(raw, &flags, &switches)
}

/// Loads input data: `--data <file.csv>` or `--dataset <name>` (one of
/// the bundled named datasets). Exactly one must be given.
pub(crate) fn load_data(args: &Args) -> Result<BugCountData, ArgError> {
    match (args.get("data"), args.get("dataset")) {
        (Some(_), Some(_)) => Err(ArgError(
            "`--data` and `--dataset` are mutually exclusive".into(),
        )),
        (Some(path), None) => {
            let file = std::fs::File::open(path)
                .map_err(|e| ArgError(format!("cannot open `{path}`: {e}")))?;
            srm_data::csv::read_counts(file)
                .map_err(|e| ArgError(format!("bad data in `{path}`: {e}")))
        }
        (None, Some(name)) => srm_data::datasets::all_named()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .ok_or_else(|| {
                let names: Vec<&str> = srm_data::datasets::all_named()
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect();
                ArgError(format!(
                    "unknown dataset `{name}` (one of: {})",
                    names.join(", ")
                ))
            }),
        (None, None) => Err(ArgError(
            "missing required flag `--data` (or `--dataset <name>`)".into(),
        )),
    }
}

/// Parses `--model`.
pub(crate) fn parse_model(args: &Args) -> Result<DetectionModel, ArgError> {
    let name = args.get("model").unwrap_or("model1");
    DetectionModel::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| ArgError(format!("unknown model `{name}` (model0..model4)")))
}

/// Parses `--prior` with its limit flag and the MCMC run-length
/// flags, then holds them to [`srm_core::check_request`] for
/// `request`, the same check the server runs on every job.
pub(crate) fn parse_run(
    args: &Args,
    request: Request,
) -> Result<(PriorSpec, McmcConfig), ArgError> {
    let prior = parse_prior(args)?;
    let mcmc = parse_mcmc(args)?;
    srm_core::check_request(request, &prior, &mcmc).map_err(ArgError)?;
    Ok((prior, mcmc))
}

/// Parses `--prior` plus its limit flag.
fn parse_prior(args: &Args) -> Result<PriorSpec, ArgError> {
    match args.get("prior").unwrap_or("poisson") {
        "poisson" => Ok(PriorSpec::Poisson {
            lambda_max: args.get_parsed("lambda-max", 2_000.0)?,
        }),
        "negbinom" => Ok(PriorSpec::NegBinomial {
            alpha_max: args.get_parsed("alpha-max", 100.0)?,
        }),
        other => Err(ArgError(format!(
            "unknown prior `{other}` (poisson|negbinom)"
        ))),
    }
}

/// Parses the MCMC run-length flags.
fn parse_mcmc(args: &Args) -> Result<McmcConfig, ArgError> {
    Ok(McmcConfig {
        chains: args.get_parsed("chains", 4usize)?,
        burn_in: args.get_parsed("burn-in", 1_000usize)?,
        samples: args.get_parsed("samples", 4_000usize)?,
        thin: args.get_parsed("thin", 1usize)?,
        seed: args.get_parsed("seed", 2_024u64)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_from(parts: &[&str]) -> Args {
        let raw: Vec<String> = parts.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(
            &raw,
            &[
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
            ],
            &[],
        )
        .unwrap()
    }

    #[test]
    fn model_and_prior_defaults() {
        let args = args_from(&["fit"]);
        assert_eq!(parse_model(&args).unwrap(), DetectionModel::PadgettSpurrier);
        assert!(matches!(
            parse_prior(&args).unwrap(),
            PriorSpec::Poisson { lambda_max } if lambda_max == 2_000.0
        ));
    }

    #[test]
    fn explicit_model_and_prior() {
        let args = args_from(&[
            "fit",
            "--model",
            "model3",
            "--prior",
            "negbinom",
            "--alpha-max",
            "40",
        ]);
        assert_eq!(parse_model(&args).unwrap(), DetectionModel::Pareto);
        assert!(matches!(
            parse_prior(&args).unwrap(),
            PriorSpec::NegBinomial { alpha_max } if alpha_max == 40.0
        ));
    }

    #[test]
    fn rejects_unknown_model_and_prior() {
        assert!(parse_model(&args_from(&["fit", "--model", "model9"])).is_err());
        assert!(parse_prior(&args_from(&["fit", "--prior", "cauchy"])).is_err());
    }

    #[test]
    fn mcmc_flags_round_trip() {
        let args = args_from(&[
            "fit",
            "--chains",
            "2",
            "--samples",
            "100",
            "--burn-in",
            "50",
            "--seed",
            "9",
        ]);
        let mcmc = parse_mcmc(&args).unwrap();
        assert_eq!(mcmc.chains, 2);
        assert_eq!(mcmc.samples, 100);
        assert_eq!(mcmc.burn_in, 50);
        assert_eq!(mcmc.seed, 9);
        assert_eq!(mcmc.thin, 1);
    }

    #[test]
    fn zero_run_lengths_rejected() {
        for flag in ["--chains", "--samples", "--thin"] {
            let err = parse_run(&args_from(&["fit", flag, "0"]), Request::Fit).unwrap_err();
            assert!(
                err.to_string().contains("must be at least 1"),
                "{flag}: {err}"
            );
        }
    }

    #[test]
    fn missing_data_file_reported() {
        let args = args_from(&["fit", "--data", "/no/such/file.csv"]);
        let err = load_data(&args).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }

    #[test]
    fn every_registry_dataset_resolves_by_name() {
        for (name, data) in srm_data::datasets::all_named() {
            let args = args_from(&["fit", "--dataset", name]);
            let loaded = load_data(&args).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(loaded.total(), data.total(), "{name}");
            assert_eq!(loaded.len(), data.len(), "{name}");
        }
    }

    #[test]
    fn unknown_dataset_error_lists_the_registry() {
        let args = args_from(&["fit", "--dataset", "no_such_series"]);
        let err = load_data(&args).unwrap_err().to_string();
        assert!(err.contains("unknown dataset `no_such_series`"), "{err}");
        for name in [
            "musa_cc96",
            "ntds_26",
            "tandem_20w",
            "ohba_sshape_22w",
            "musa_ss3_28",
        ] {
            assert!(err.contains(name), "error should list {name}: {err}");
        }
    }

    #[test]
    fn help_documents_every_accepted_flag() {
        let help = help_text();
        let documented: std::collections::HashSet<&str> = help
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        let accepted: [&[&str]; 15] = [
            fit::FLAGS,
            fit::SWITCHES,
            predict::FLAGS,
            sbc::FLAGS,
            sbc::SWITCHES,
            select::FLAGS,
            serve::FLAGS,
            serve::SWITCHES,
            simulate::FLAGS,
            trace::FLAGS,
            trace::SWITCHES,
            trend::FLAGS,
            trend::SWITCHES,
            OBS_FLAGS,
            OBS_SWITCHES,
        ];
        let missing: Vec<String> = accepted
            .into_iter()
            .flatten()
            .map(|name| format!("--{name}"))
            .filter(|flag| !documented.contains(flag.as_str()))
            .collect();
        assert!(missing.is_empty(), "`srm help` omits {missing:?}");
    }

    #[test]
    fn help_mentions_all_commands() {
        let h = help_text();
        for cmd in ["fit", "select", "predict", "trend", "simulate", "sbc"] {
            assert!(h.contains(cmd), "missing {cmd}");
        }
    }
}
