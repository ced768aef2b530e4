//! Ablation-a, mixing side: effective sample size per 2 000 sweeps of
//! the collapsed versus naive Gibbs sweeps — the numbers behind
//! DESIGN.md's choice of the collapsed sweep as the default.
//!
//! ```text
//! cargo run --release --example ess_ablation
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // example code

use srm::mcmc::diagnostics::effective_sample_size;
use srm::mcmc::gibbs::SweepKind;
use srm::prelude::*;
use srm::rand::Xoshiro256StarStar;
use srm::report::Table;

fn ess_of(prior: PriorSpec, sweep: SweepKind, seed: u64) -> (f64, f64) {
    let data = datasets::musa_cc96();
    let sampler = GibbsSampler::new(
        prior,
        DetectionModel::Constant,
        ZetaBounds::default(),
        &data,
    )
    .with_sweep_kind(sweep);
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let chain = sampler.run_chain(&mut rng, 500, 2_000, 1);
    let residual = effective_sample_size(chain.draws("residual").unwrap());
    let hyper = match prior {
        PriorSpec::Poisson { .. } => effective_sample_size(chain.draws("lambda0").unwrap()),
        PriorSpec::NegBinomial { .. } => effective_sample_size(chain.draws("alpha0").unwrap()),
    };
    (residual, hyper)
}

fn main() {
    let mut table = Table::new(
        "ESS out of 2 000 kept sweeps — model0 on the full dataset",
        &["ESS(residual)", "ESS(hyper)"],
    );
    let poisson = PriorSpec::Poisson {
        lambda_max: 2_000.0,
    };
    let negbinom = PriorSpec::NegBinomial { alpha_max: 100.0 };
    let cases = [
        ("poisson collapsed+slice", poisson, SweepKind::Collapsed),
        ("poisson naive+slice", poisson, SweepKind::Naive),
        ("negbinom collapsed+slice", negbinom, SweepKind::Collapsed),
        ("negbinom naive+slice", negbinom, SweepKind::Naive),
    ];
    for (label, prior, sweep) in cases {
        let (residual, hyper) = ess_of(prior, sweep, 4_242);
        table.row(label, &[residual, hyper]);
    }
    println!("{}", table.render());
    println!("Per-sweep cost is nearly identical (see `cargo bench` gibbs group), so");
    println!("ESS per sweep is the deciding metric: the collapsed sweep should");
    println!("dominate the naive sweep on the hyper-parameter, which is the");
    println!("bottleneck in the weakly identified models.");
}
