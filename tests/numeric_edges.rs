//! Numeric-edge fit battery: short fits on degenerate and extreme
//! datasets × the five detection curves × both priors.
//!
//! Every cell must fit without a panic, keep every draw finite, report
//! a finite WAIC and lose no chain, and give bit-identical output on
//! one and two worker threads. The datasets sit where the per-day
//! passes meet their edges: no bugs at all, every bug on day 1, a
//! single day, a 10,000-day horizon, and daily counts of `u32::MAX`
//! (so `N` is far beyond the `ln k!` cache).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm::mcmc::runner::RunOptions;
use srm::prelude::*;

fn edge_datasets() -> Vec<(&'static str, BugCountData)> {
    let mut day_one = vec![0u64; 12];
    day_one[0] = 40;
    vec![
        ("all-zero", BugCountData::new(vec![0, 0, 0, 0]).unwrap()),
        ("all-on-day-1", BugCountData::new(day_one).unwrap()),
        ("horizon-1", BugCountData::new(vec![7]).unwrap()),
        (
            "horizon-10000",
            datasets::musa_cc96().extended_with_zeros(10_000 - 96),
        ),
        (
            "u32-max-counts",
            BugCountData::new(vec![u64::from(u32::MAX); 2]).unwrap(),
        ),
    ]
}

/// Every stored draw of every chain, as bits, so that a NaN or a sign
/// of zero cannot hide from the comparison.
fn draw_bits(fit: &Fit) -> Vec<u64> {
    fit.output
        .chains
        .iter()
        .flat_map(|chain| {
            chain
                .names()
                .iter()
                .flat_map(|name| chain.draws(name).unwrap().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn edge_datasets_fit_cleanly_on_every_curve_and_prior() {
    let config = FitConfig {
        mcmc: McmcConfig {
            chains: 2,
            burn_in: 15,
            samples: 25,
            thin: 1,
            seed: 2_024,
        },
        zeta_bounds: ZetaBounds::default(),
    };
    let priors = [
        PriorSpec::Poisson {
            lambda_max: 2_000.0,
        },
        PriorSpec::NegBinomial { alpha_max: 100.0 },
    ];
    for (name, data) in edge_datasets() {
        for model in DetectionModel::ALL {
            for prior in priors {
                let cell = format!("{name}/{model}/{}", prior.label());
                let fit_on = |threads| {
                    srm::core::Fit::try_run(
                        prior,
                        model,
                        &data,
                        &config,
                        &RunOptions::with_threads(threads),
                    )
                    .unwrap_or_else(|e| panic!("{cell}: {e}"))
                };
                let one = fit_on(1);
                assert!(!one.is_degraded(), "{cell}: degraded");
                let fit = &one.fit;
                for chain in &fit.output.chains {
                    for param in chain.names() {
                        let draws = chain.draws(param).unwrap();
                        assert!(
                            draws.iter().all(|v| !v.is_nan()),
                            "{cell}: NaN draw of {param}"
                        );
                    }
                }
                assert!(fit.waic.total().is_finite(), "{cell}: WAIC not finite");
                let two = fit_on(2);
                assert_eq!(draw_bits(fit), draw_bits(&two.fit), "{cell}: draws");
                assert_eq!(
                    fit.waic.total().to_bits(),
                    two.fit.waic.total().to_bits(),
                    "{cell}: WAIC"
                );
            }
        }
    }
}
