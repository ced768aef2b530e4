//! Extension experiment 3 (the paper's §6: "apply the Jeffreys prior
//! and compare"): fit the WAIC-best model with uniform versus
//! Jeffreys hyper-priors and compare posterior residual summaries and
//! WAIC at each observation point.

#![allow(clippy::unwrap_used, clippy::expect_used)] // reproduction script

use srm_data::{datasets, ObservationPlan};
use srm_mcmc::gibbs::{GibbsSampler, HyperPrior, PriorSpec};
use srm_mcmc::runner::run_chains;
use srm_mcmc::PosteriorSummary;
use srm_model::{DetectionModel, ZetaBounds};
use srm_report::Table;
use srm_select::waic::waic_from_output;

fn main() {
    let data = datasets::musa_cc96();
    let plan = ObservationPlan::paper_default(&data);
    let mcmc = srm_repro::mcmc_config();

    for (label, prior) in [
        (
            "poisson",
            PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
        ),
        ("negbinom", PriorSpec::NegBinomial { alpha_max: 100.0 }),
    ] {
        let mut table = Table::new(
            &format!("Uniform vs Jeffreys hyper-priors — model1, {label} prior"),
            &[
                "uniform mean",
                "uniform sd",
                "uniform WAIC",
                "jeffreys mean",
                "jeffreys sd",
                "jeffreys WAIC",
            ],
        );
        for point in plan.points() {
            let window = point.window(&data).expect("valid plan");
            let mut row = Vec::new();
            for hyper in [HyperPrior::Uniform, HyperPrior::Jeffreys] {
                let sampler = GibbsSampler::new(
                    prior,
                    DetectionModel::PadgettSpurrier,
                    ZetaBounds::default(),
                    &window,
                )
                .with_hyper_prior(hyper);
                let out = run_chains(&sampler, &mcmc);
                let waic = waic_from_output(&sampler, &out, &srm_obs::NOOP).expect("WAIC replay");
                let draws = out.pooled("residual");
                let summary = PosteriorSummary::from_draws(&draws);
                row.push(summary.mean);
                row.push(summary.sd);
                row.push(waic.total());
            }
            table.row(&point.to_string(), &row);
        }
        println!("{}", table.render());
    }
    println!("Expectation: with 48+ informative days the data dominate and both");
    println!("non-informative hyper-priors give practically identical posteriors —");
    println!("the paper's conclusions are not an artefact of the uniform choice.");
}
