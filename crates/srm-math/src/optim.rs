//! Derivative-free multivariate minimisation (Nelder–Mead).
//!
//! The MLE baseline fits the discrete NHPP models by maximising the
//! grouped-data log-likelihood over 2–3 parameters; Nelder–Mead with
//! adaptive coefficients and box constraints (via reflection at the
//! bounds) is plenty for these small, smooth problems.

/// Configuration for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex' objective spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex diameter falls below this.
    pub x_tol: f64,
    /// Initial simplex edge length relative to each coordinate.
    pub initial_step: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        Self {
            max_evals: 20_000,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a Nelder–Mead run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
    /// Whether a tolerance criterion (rather than the budget) stopped
    /// the search.
    pub converged: bool,
}

/// Minimises `f` starting from `x0` with the Nelder–Mead simplex
/// method (adaptive parameters of Gao & Han for dimension `n`).
///
/// The optional `bounds` give `(lo, hi)` per coordinate; trial points
/// are clamped into the box, which is adequate for the well-interior
/// optima of the SRM likelihoods.
///
/// # Panics
///
/// Panics if `x0` is empty or `bounds` (when given) has a different
/// length than `x0`.
///
/// # Examples
///
/// ```
/// use srm_math::optim::{nelder_mead, NelderMeadConfig};
/// let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
/// let r = nelder_mead(rosen, &[-1.2, 1.0], None, &NelderMeadConfig::default());
/// assert!(r.fx < 1e-8);
/// ```
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    bounds: Option<&[(f64, f64)]>,
    config: &NelderMeadConfig,
) -> OptimResult {
    let n = x0.len();
    assert!(n > 0, "nelder_mead requires at least one dimension");
    if let Some(b) = bounds {
        assert_eq!(b.len(), n, "bounds length must match x0 length");
    }

    let clamp = |x: &mut [f64]| {
        if let Some(b) = bounds {
            for (xi, &(lo, hi)) in x.iter_mut().zip(b) {
                *xi = xi.clamp(lo, hi);
            }
        }
    };

    // Adaptive coefficients (Gao & Han 2012).
    let nf = n as f64;
    let alpha = 1.0;
    let beta = 1.0 + 2.0 / nf;
    let gamma = 0.75 - 1.0 / (2.0 * nf);
    let delta = 1.0 - 1.0 / nf;

    // Initial simplex: x0 plus a perturbation along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut start = x0.to_vec();
    clamp(&mut start);
    simplex.push(start.clone());
    for i in 0..n {
        let mut v = start.clone();
        let step = if v[i].abs() > 1e-12 {
            config.initial_step * v[i].abs()
        } else {
            config.initial_step
        };
        v[i] += step;
        clamp(&mut v);
        if v == simplex[0] {
            v[i] -= 2.0 * step;
            clamp(&mut v);
        }
        simplex.push(v);
    }

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    let mut fvals: Vec<f64> = simplex.iter().map(|x| eval(x, &mut evals)).collect();

    let mut converged = false;
    while evals < config.max_evals {
        // Order the simplex.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&i, &j| fvals[i].total_cmp(&fvals[j]));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        let spread = fvals[worst] - fvals[best];
        let diameter = simplex
            .iter()
            .map(|x| {
                x.iter()
                    .zip(&simplex[best])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        if spread.abs() <= config.f_tol && diameter <= config.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (i, x) in simplex.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, &xi) in centroid.iter_mut().zip(x) {
                *c += xi / nf;
            }
        }

        let point_along = |t: f64| -> Vec<f64> {
            let mut p: Vec<f64> = centroid
                .iter()
                .zip(&simplex[worst])
                .map(|(&c, &w)| c + t * (c - w))
                .collect();
            clamp(&mut p);
            p
        };

        let reflected = point_along(alpha);
        let f_reflected = eval(&reflected, &mut evals);

        if f_reflected < fvals[best] {
            // Try expanding.
            let expanded = point_along(beta);
            let f_expanded = eval(&expanded, &mut evals);
            if f_expanded < f_reflected {
                simplex[worst] = expanded;
                fvals[worst] = f_expanded;
            } else {
                simplex[worst] = reflected;
                fvals[worst] = f_reflected;
            }
        } else if f_reflected < fvals[second_worst] {
            simplex[worst] = reflected;
            fvals[worst] = f_reflected;
        } else {
            // Contract (outside if the reflection helped at all).
            let (contracted, f_contracted) = if f_reflected < fvals[worst] {
                let c = point_along(alpha * gamma);
                let fc = eval(&c, &mut evals);
                (c, fc)
            } else {
                let c = point_along(-gamma);
                let fc = eval(&c, &mut evals);
                (c, fc)
            };
            if f_contracted < fvals[worst].min(f_reflected) {
                simplex[worst] = contracted;
                fvals[worst] = f_contracted;
            } else {
                // Shrink toward the best vertex.
                let best_point = simplex[best].clone();
                for (i, x) in simplex.iter_mut().enumerate() {
                    if i == best {
                        continue;
                    }
                    for (xi, &bi) in x.iter_mut().zip(&best_point) {
                        *xi = bi + delta * (*xi - bi);
                    }
                    clamp(x);
                    fvals[i] = eval(x, &mut evals);
                }
            }
        }
    }

    // The simplex always holds n+1 ≥ 1 vertices, so a best index
    // exists; index 0 is an unreachable fallback, not a default.
    let best_idx = fvals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    OptimResult {
        x: simplex[best_idx].clone(),
        fx: fvals[best_idx],
        evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn minimises_sphere() {
        let r = nelder_mead(
            |x| x.iter().map(|v| v * v).sum(),
            &[3.0, -4.0, 5.0],
            None,
            &NelderMeadConfig::default(),
        );
        assert!(r.fx < 1e-12, "fx = {}", r.fx);
        for v in &r.x {
            assert!(v.abs() < 1e-5);
        }
    }

    #[test]
    fn minimises_rosenbrock() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(rosen, &[-1.2, 1.0], None, &NelderMeadConfig::default());
        assert!(approx_eq(r.x[0], 1.0, 1e-3));
        assert!(approx_eq(r.x[1], 1.0, 1e-3));
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained optimum at 5; box caps at 2.
        let r = nelder_mead(
            |x| (x[0] - 5.0).powi(2),
            &[1.0],
            Some(&[(0.0, 2.0)]),
            &NelderMeadConfig::default(),
        );
        assert!(r.x[0] <= 2.0 + 1e-12);
        assert!(approx_eq(r.x[0], 2.0, 1e-4));
    }

    #[test]
    fn one_dimensional_works() {
        let r = nelder_mead(
            |x| (x[0] - 0.25).powi(2) + 3.0,
            &[10.0],
            None,
            &NelderMeadConfig::default(),
        );
        assert!(approx_eq(r.x[0], 0.25, 1e-4));
        assert!(approx_eq(r.fx, 3.0, 1e-8));
    }

    #[test]
    fn nan_objective_treated_as_infinite() {
        // NaN outside the unit disc must not poison the search.
        let f = |x: &[f64]| {
            let r2 = x[0] * x[0] + x[1] * x[1];
            if r2 > 1.0 {
                f64::NAN
            } else {
                r2
            }
        };
        let r = nelder_mead(f, &[0.5, 0.5], None, &NelderMeadConfig::default());
        assert!(r.fx < 1e-6);
    }

    #[test]
    fn respects_eval_budget() {
        let cfg = NelderMeadConfig {
            max_evals: 25,
            ..NelderMeadConfig::default()
        };
        let r = nelder_mead(|x| x[0] * x[0], &[100.0], None, &cfg);
        assert!(r.evals <= 27); // budget plus the in-flight expansion pair
    }
}
