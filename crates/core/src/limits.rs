//! The one check every fit, select and predict request passes before
//! anything runs: the CLI runs it on its flags and the server on every
//! job body (batch items and WAL replays included), so no request can
//! ask the sampler for more memory or threads than these limits allow.

use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::McmcConfig;

/// Most chains one request may run (each may get its own thread).
pub const MAX_CHAINS: usize = 64;

/// Most kept draws (`chains × samples`) one request may ask for:
/// 62× the paper's 4 × 4,000.
pub const MAX_KEPT_DRAWS: usize = 1_000_000;

/// Longest prediction horizon, in days.
pub const MAX_HORIZON: usize = 100_000;

/// What a request computes, with the setting only that kind reads.
#[derive(Debug, Clone, Copy)]
pub enum Request {
    /// One model/prior fit.
    Fit,
    /// A WAIC comparison of all five curves.
    Select {
        /// Upper limit of model1's `θ`.
        theta_max: f64,
    },
    /// A fit plus reliability over the following days.
    Predict {
        /// Days to predict.
        horizon: usize,
    },
}

/// Checks a request: `chains`, `samples` and `thin` at least 1, the
/// limits above, and a finite, positive `lambda_max`/`alpha_max` (and
/// select `theta_max`).
///
/// # Errors
///
/// A one-line message naming the first field that breaks a rule.
pub fn check_request(request: Request, prior: &PriorSpec, mcmc: &McmcConfig) -> Result<(), String> {
    for (name, value) in [
        ("chains", mcmc.chains),
        ("samples", mcmc.samples),
        ("thin", mcmc.thin),
    ] {
        if value == 0 {
            return Err(format!("`{name}` must be at least 1"));
        }
    }
    if mcmc.chains > MAX_CHAINS {
        return Err(format!(
            "`chains` must be at most {MAX_CHAINS}, got {}",
            mcmc.chains
        ));
    }
    let kept = mcmc.chains.saturating_mul(mcmc.samples);
    if kept > MAX_KEPT_DRAWS {
        return Err(format!(
            "`chains` × `samples` must be at most {MAX_KEPT_DRAWS} kept draws, got {kept}"
        ));
    }
    let (limit, value) = match *prior {
        PriorSpec::Poisson { lambda_max } => ("lambda_max", lambda_max),
        PriorSpec::NegBinomial { alpha_max } => ("alpha_max", alpha_max),
    };
    positive(limit, value)?;
    match request {
        Request::Fit => Ok(()),
        Request::Select { theta_max } => positive("theta_max", theta_max),
        Request::Predict { horizon: 0 } => Err("`horizon` must be at least 1".into()),
        Request::Predict { horizon } if horizon > MAX_HORIZON => Err(format!(
            "`horizon` must be at most {MAX_HORIZON}, got {horizon}"
        )),
        Request::Predict { .. } => Ok(()),
    }
}

fn positive(name: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("`{name}` must be finite and > 0, got {value}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POISSON: PriorSpec = PriorSpec::Poisson {
        lambda_max: 2_000.0,
    };

    fn mcmc(chains: usize, samples: usize, thin: usize) -> McmcConfig {
        McmcConfig {
            chains,
            burn_in: 10,
            samples,
            thin,
            seed: 1,
        }
    }

    fn rejects(request: Request, prior: PriorSpec, config: McmcConfig, needle: &str) {
        let err = check_request(request, &prior, &config).unwrap_err();
        assert!(
            err.contains(needle),
            "{request:?} {prior:?} {config:?}: {err}"
        );
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn the_paper_shape_and_the_limits_pass() {
        for request in [
            Request::Fit,
            Request::Select { theta_max: 10.0 },
            Request::Predict { horizon: 1 },
            Request::Predict {
                horizon: MAX_HORIZON,
            },
        ] {
            check_request(request, &POISSON, &mcmc(4, 4_000, 1)).unwrap();
        }
        check_request(Request::Fit, &POISSON, &mcmc(MAX_CHAINS, 15_625, 7)).unwrap();
        let nb = PriorSpec::NegBinomial { alpha_max: 1e-300 };
        check_request(Request::Fit, &nb, &mcmc(1, MAX_KEPT_DRAWS, 1)).unwrap();
    }

    #[test]
    fn each_rule_names_its_field() {
        rejects(
            Request::Fit,
            POISSON,
            mcmc(0, 10, 1),
            "`chains` must be at least 1",
        );
        rejects(
            Request::Fit,
            POISSON,
            mcmc(1, 0, 1),
            "`samples` must be at least 1",
        );
        rejects(
            Request::Fit,
            POISSON,
            mcmc(1, 10, 0),
            "`thin` must be at least 1",
        );
        rejects(
            Request::Fit,
            POISSON,
            mcmc(100_000, 1, 1),
            "`chains` must be at most 64",
        );
        rejects(
            Request::Fit,
            POISSON,
            mcmc(1, 4_294_967_295, 1),
            "must be at most 1000000 kept draws",
        );
        rejects(
            Request::Fit,
            POISSON,
            mcmc(MAX_CHAINS, usize::MAX, 1),
            "must be at most 1000000 kept draws",
        );
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let poisson = PriorSpec::Poisson { lambda_max: bad };
            rejects(
                Request::Fit,
                poisson,
                mcmc(1, 1, 1),
                "`lambda_max` must be finite and > 0",
            );
            let nb = PriorSpec::NegBinomial { alpha_max: bad };
            rejects(
                Request::Fit,
                nb,
                mcmc(1, 1, 1),
                "`alpha_max` must be finite and > 0",
            );
            let select = Request::Select { theta_max: bad };
            rejects(
                select,
                POISSON,
                mcmc(1, 1, 1),
                "`theta_max` must be finite and > 0",
            );
        }
        rejects(
            Request::Predict { horizon: 0 },
            POISSON,
            mcmc(1, 1, 1),
            "`horizon` must be at least 1",
        );
        rejects(
            Request::Predict {
                horizon: 4_294_967_295,
            },
            POISSON,
            mcmc(1, 1, 1),
            "`horizon` must be at most 100000",
        );
    }
}
