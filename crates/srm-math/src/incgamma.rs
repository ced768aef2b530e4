//! Regularised incomplete gamma functions and their inverse.
//!
//! `P(a, x) = γ(a, x)/Γ(a)` is the Poisson/Gamma CDF kernel; the Gibbs
//! sampler draws the Poisson-prior rate `λ0` from a Gamma distribution
//! truncated to `(0, λ_max)`, which needs the inverse of `P` in `x`,
//! and its `ζ` target with `λ0` integrated out carries `ln P`, which
//! [`ln_inc_gamma_p`] evaluates where `P` itself underflows.
//!
//! Implementation follows the classic series/continued-fraction split
//! (Numerical Recipes §6.2): the power series converges fast for
//! `x < a + 1`, the Lentz continued fraction elsewhere.

use crate::special::ln_gamma;

const MAX_ITER: usize = 500;
const TINY: f64 = 1e-300;
const REL_EPS: f64 = 1e-14;

/// Regularised lower incomplete gamma `P(a, x)` for `a > 0`, `x >= 0`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// use srm_math::incgamma::inc_gamma_p;
/// // P(1, x) = 1 − e^{−x}
/// assert!((inc_gamma_p(1.0, 2.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
/// ```
#[must_use]
pub fn inc_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "inc_gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "inc_gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        ln_gamma_p_series(a, x).exp().clamp(0.0, 1.0)
    } else {
        1.0 - ln_gamma_q_cf(a, x).exp().clamp(0.0, 1.0)
    }
}

/// `ln P(a, x)`, finite wherever `P(a, x) > 0` in exact arithmetic,
/// including far below the range where `P` itself underflows.
///
/// Below `x = a + 1` the power series is summed in log space; above
/// it, `ln P = ln(1 − Q)` is taken as `ln_1p(−Q)` from the continued
/// fraction, so it keeps full relative accuracy as `P → 1`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// use srm_math::incgamma::{inc_gamma_p, ln_inc_gamma_p};
/// assert!((ln_inc_gamma_p(3.0, 2.0) - inc_gamma_p(3.0, 2.0).ln()).abs() < 1e-13);
/// // P(137, 1e-3) underflows a double; its logarithm does not.
/// assert_eq!(inc_gamma_p(137.0, 1e-3), 0.0);
/// assert!(ln_inc_gamma_p(137.0, 1e-3).is_finite());
/// ```
#[must_use]
pub fn ln_inc_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "ln_inc_gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "ln_inc_gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x < a + 1.0 {
        ln_gamma_p_series(a, x).min(0.0)
    } else {
        (-ln_gamma_q_cf(a, x).exp().clamp(0.0, 1.0)).ln_1p()
    }
}

/// Regularised upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
///
/// Computed directly from the continued fraction when `x >= a + 1`, so
/// it stays accurate deep in the upper tail where `1 − P` would lose
/// all precision.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// use srm_math::incgamma::inc_gamma_q;
/// // Q(1, x) = e^{−x}
/// assert!((inc_gamma_q(1.0, 30.0) - (-30.0f64).exp()).abs() < 1e-25);
/// ```
#[must_use]
pub fn inc_gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "inc_gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "inc_gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - ln_gamma_p_series(a, x).exp().clamp(0.0, 1.0)
    } else {
        ln_gamma_q_cf(a, x).exp().clamp(0.0, 1.0)
    }
}

/// Power-series evaluation of `ln P(a, x)`, convergent for `x < a + 1`.
fn ln_gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * REL_EPS {
            break;
        }
    }
    ln_pre + sum.ln()
}

/// Modified-Lentz continued fraction for `ln Q(a, x)`, convergent for
/// `x >= a + 1`.
fn ln_gamma_q_cf(a: f64, x: f64) -> f64 {
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < REL_EPS {
            break;
        }
    }
    ln_pre + h.ln()
}

/// Inverse of the regularised lower incomplete gamma in `x`:
/// returns the `x >= 0` with `P(a, x) = p`.
///
/// Uses a Wilson–Hilferty starting guess refined by safeguarded
/// Newton steps (falling back to bisection when Newton leaves the
/// bracket). Accuracy ~1e-12 in `p`.
///
/// # Panics
///
/// Panics if `a <= 0` or `p ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use srm_math::incgamma::{inc_gamma_p, inv_inc_gamma_p};
/// let x = inv_inc_gamma_p(3.5, 0.42);
/// assert!((inc_gamma_p(3.5, x) - 0.42).abs() < 1e-10);
/// ```
#[must_use]
pub fn inv_inc_gamma_p(a: f64, p: f64) -> f64 {
    assert!(a > 0.0, "inv_inc_gamma_p requires a > 0, got {a}");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Wilson–Hilferty: Gamma(a) ≈ a (1 − 1/(9a) + z/(3√a))³ with z the
    // standard normal quantile.
    let z = crate::erf::norm_quantile(p);
    let wh = {
        let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
        a * t * t * t
    };
    let mut x = if wh.is_finite() && wh > 0.0 { wh } else { a };

    // Establish a bracket [lo, hi] with P(lo) <= p <= P(hi).
    let mut lo = 0.0_f64;
    let mut hi = x.max(1.0);
    while inc_gamma_p(a, hi) < p {
        lo = hi;
        hi *= 2.0;
        if hi > 1e308 {
            return hi;
        }
    }
    if x <= lo || x >= hi {
        x = 0.5 * (lo + hi);
    }

    for _ in 0..200 {
        let fx = inc_gamma_p(a, x) - p;
        if fx > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        // Newton step with the gamma density as derivative.
        let ln_pdf = (a - 1.0) * x.ln() - x - ln_gamma(a);
        let step = fx / ln_pdf.exp();
        let mut next = x - step;
        if next <= lo || next >= hi || !next.is_finite() {
            next = 0.5 * (lo + hi);
        }
        if (next - x).abs() <= 1e-14 * x.abs().max(1e-14) {
            return next;
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn p_plus_q_is_one() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 100.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 50.0, 200.0] {
                let s = inc_gamma_p(a, x) + inc_gamma_q(a, x);
                assert!(approx_eq(s, 1.0, 1e-12), "a = {a}, x = {x}: {s}");
            }
        }
    }

    #[test]
    fn integer_shape_matches_poisson_tail() {
        // Q(k, x) = Σ_{j<k} e^{−x} x^j / j! (Poisson CDF identity).
        for &k in &[1u32, 2, 5, 10] {
            for &x in &[0.5, 2.0, 7.5, 20.0] {
                let mut cdf = 0.0;
                let mut term = (-x_f(x)).exp();
                for j in 0..k {
                    if j > 0 {
                        term *= x / f64::from(j);
                    }
                    cdf += term;
                }
                assert!(
                    approx_eq(inc_gamma_q(f64::from(k), x), cdf, 1e-11),
                    "k = {k}, x = {x}"
                );
            }
        }
    }

    fn x_f(x: f64) -> f64 {
        x
    }

    #[test]
    fn exponential_special_case() {
        for &x in &[0.1, 1.0, 5.0, 40.0] {
            assert!(approx_eq(inc_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13));
        }
    }

    #[test]
    fn monotone_in_x() {
        let a = 4.2;
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = inc_gamma_p(a, x);
            assert!(p >= prev, "x = {x}");
            prev = p;
        }
    }

    #[test]
    fn upper_tail_accuracy() {
        // Q(1, 100) = e^{−100}: a direct 1 − P would round to 0.
        let q = inc_gamma_q(1.0, 100.0);
        assert!(approx_eq(q, (-100.0f64).exp(), 1e-8));
        assert!(q > 0.0);
    }

    #[test]
    fn inverse_round_trips() {
        for &a in &[0.5, 1.0, 3.0, 17.0, 250.0] {
            for &p in &[1e-8, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
                let x = inv_inc_gamma_p(a, p);
                assert!(
                    approx_eq(inc_gamma_p(a, x), p, 1e-9),
                    "a = {a}, p = {p}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn inverse_edges() {
        assert_eq!(inv_inc_gamma_p(2.0, 0.0), 0.0);
        assert!(inv_inc_gamma_p(2.0, 1.0).is_infinite());
    }

    #[test]
    fn log_form_matches_the_log_of_p_wherever_p_is_normal() {
        // Relative to |ln P|, or absolute below 1: near P = 1 the
        // reference `inc_gamma_p(a, x).ln()` itself keeps only
        // absolute accuracy.
        let mut compared = 0;
        for &a in &[0.5, 1.0, 2.5, 10.0, 37.5, 137.0, 1_000.5] {
            for &x in &[
                1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 36.0, 100.0, 136.0, 138.5, 200.0, 900.0,
                1_100.0, 2_000.0,
            ] {
                let p = inc_gamma_p(a, x);
                if !p.is_normal() {
                    continue;
                }
                let (got, want) = (ln_inc_gamma_p(a, x), p.ln());
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "a = {a}, x = {x}: {got} vs {want}"
                );
                compared += 1;
            }
        }
        assert!(compared > 60, "{compared}");
    }

    #[test]
    fn log_form_survives_underflow_of_p() {
        assert_eq!(inc_gamma_p(137.0, 1e-3), 0.0);
        let got = ln_inc_gamma_p(137.0, 1e-3);
        // Leading term of the series: a ln x − x − ln Γ(a + 1).
        let leading = 137.0 * 1e-3f64.ln() - 1e-3 - ln_gamma(138.0);
        assert!(got.is_finite() && (got - leading).abs() < 1e-3, "{got}");
        // Deep in the upper tail ln P ≈ −Q keeps its digits.
        let q = inc_gamma_q(5.0, 60.0);
        assert!(approx_eq(ln_inc_gamma_p(5.0, 60.0), -q, 1e-10));
    }

    #[test]
    fn log_form_is_minus_infinity_at_zero() {
        for &a in &[0.5, 1.0, 137.0] {
            assert_eq!(ln_inc_gamma_p(a, 0.0), f64::NEG_INFINITY);
        }
    }

    #[test]
    #[should_panic(expected = "requires a > 0")]
    fn rejects_bad_shape() {
        let _ = inc_gamma_p(0.0, 1.0);
    }
}
