//! The one check every fit, select and predict request passes before
//! anything runs: the CLI runs it on its flags and the server on every
//! job body (batch items and WAL replays included), so no request can
//! ask the sampler for more memory, threads or sweeps than these
//! limits allow, or for a hyper-prior box the sampler cannot keep its
//! `OPEN_EPS` margins in.

use srm_mcmc::gibbs::PriorSpec;
use srm_mcmc::runner::McmcConfig;
use srm_model::detection::OPEN_EPS;

/// Most chains one request may run (each may get its own thread).
pub const MAX_CHAINS: usize = 64;

/// Most kept draws (`chains × samples`) one request may ask for:
/// 62× the paper's 4 × 4,000.
pub const MAX_KEPT_DRAWS: usize = 1_000_000;

/// Most sweeps (`chains × (burn_in + samples × thin)`) one request may
/// run: 500× the paper's 4 × (1,000 + 4,000). At tens of µs a sweep
/// that is minutes of CPU, where an unbounded `burn_in` held a worker
/// for days, past its deadline and a cancel.
const MAX_SWEEPS: usize = 10_000_000;

/// Most days any request may name: a prediction horizon, an SBC
/// grid's simulated testing period or `srm simulate --days`. Each
/// day costs a slot in a per-day table, so an unbounded count would
/// ask for more memory than any host has.
pub const MAX_HORIZON: usize = 100_000;

/// Largest `alpha_max`: 100× the largest limit the prior-sensitivity
/// sweep uses. Far past it the NB residual draw overflows (a saturated
/// `u64` at 1e50) or the `β0` kernel stops being finite (1e308).
const MAX_ALPHA_MAX: f64 = 1e6;

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
/// select `theta_max`). `alpha_max` must also exceed `2·OPEN_EPS` and
/// `theta_max` `OPEN_EPS`: the sampler keeps `α0` `OPEN_EPS` inside
/// both ends of `(0, α_max)`, and `θ` in `(OPEN_EPS, θ_max)`.
/// `alpha_max` is also at most 1e6.
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
    let sweeps = mcmc
        .samples
        .saturating_mul(mcmc.thin)
        .saturating_add(mcmc.burn_in)
        .saturating_mul(mcmc.chains);
    if sweeps > MAX_SWEEPS {
        return Err(format!(
            "`chains` × (`burn_in` + `samples` × `thin`) must be at most {MAX_SWEEPS} sweeps, got {sweeps}"
        ));
    }
    match *prior {
        PriorSpec::Poisson { lambda_max } => positive("lambda_max", lambda_max)?,
        PriorSpec::NegBinomial { alpha_max } => {
            positive("alpha_max", alpha_max)?;
            above("alpha_max", alpha_max, 2.0 * OPEN_EPS, "2·OPEN_EPS")?;
            if alpha_max > MAX_ALPHA_MAX {
                return Err(format!(
                    "`alpha_max` must be at most {MAX_ALPHA_MAX:e}, got {alpha_max:e}"
                ));
            }
        }
    }
    match request {
        Request::Fit => Ok(()),
        Request::Select { theta_max } => {
            positive("theta_max", theta_max)?;
            above("theta_max", theta_max, OPEN_EPS, "OPEN_EPS")
        }
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

fn above(name: &str, value: f64, floor: f64, floor_name: &str) -> Result<(), String> {
    if value > floor {
        Ok(())
    } else {
        Err(format!(
            "`{name}` must be above {floor_name} = {floor:e}, got {value:e}"
        ))
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
        for alpha_max in [3e-9, MAX_ALPHA_MAX] {
            let nb = PriorSpec::NegBinomial { alpha_max };
            check_request(Request::Fit, &nb, &mcmc(1, MAX_KEPT_DRAWS, 1)).unwrap();
        }
        let select = Request::Select { theta_max: 2e-9 };
        check_request(select, &POISSON, &mcmc(4, 4_000, 1)).unwrap();
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
        for burn_in in [4_294_967_295, usize::MAX] {
            let config = McmcConfig {
                burn_in,
                ..mcmc(1, 1, 1)
            };
            rejects(
                Request::Fit,
                POISSON,
                config,
                "must be at most 10000000 sweeps",
            );
        }
        rejects(
            Request::Fit,
            POISSON,
            mcmc(MAX_CHAINS, 15_625, usize::MAX),
            "must be at most 10000000 sweeps",
        );
        for tiny in [1e-300, 2.0 * OPEN_EPS] {
            let nb = PriorSpec::NegBinomial { alpha_max: tiny };
            rejects(
                Request::Fit,
                nb,
                mcmc(1, 1, 1),
                "`alpha_max` must be above 2·OPEN_EPS = 2e-9",
            );
            let select = Request::Select {
                theta_max: tiny / 2.0,
            };
            rejects(
                select,
                POISSON,
                mcmc(1, 1, 1),
                "`theta_max` must be above OPEN_EPS = 1e-9",
            );
        }
        for huge in [2.0 * MAX_ALPHA_MAX, 1e100, f64::MAX] {
            let nb = PriorSpec::NegBinomial { alpha_max: huge };
            rejects(
                Request::Predict { horizon: 30 },
                nb,
                mcmc(1, 1, 1),
                "`alpha_max` must be at most 1e6",
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
