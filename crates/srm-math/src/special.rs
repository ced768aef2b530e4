//! Gamma-family special functions.
//!
//! The log-gamma implementation uses the Lanczos approximation with the
//! classic `g = 7`, `n = 9` coefficient set, giving ~15 significant
//! digits over the positive reals. Log-factorials are served from a
//! lazily grown cache because the likelihood of the discrete SRM
//! (Eq. (2) of the paper) evaluates `ln n!` millions of times per
//! Gibbs run with small, repeating arguments.

use std::sync::{OnceLock, RwLock};

/// Lanczos coefficients (g = 7, n = 9), Boost/Numerical Recipes set.
const LANCZOS_G: f64 = 7.0;
// Coefficients kept digit-for-digit as published, beyond f64 precision.
#[allow(clippy::excessive_precision)]
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_8; // ln sqrt(2π)

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Accuracy is ~1e-14 relative over `x ∈ (0, 1e300)`.
///
/// # Panics
///
/// Panics if `x <= 0` or `x` is NaN — the SRM code never evaluates
/// log-gamma at non-positive arguments, so this indicates a logic bug.
///
/// # Examples
///
/// ```
/// use srm_math::special::ln_gamma;
/// assert!((ln_gamma(1.0)).abs() < 1e-14);          // Γ(1) = 1
/// assert!((ln_gamma(0.5) - 0.5723649429247001).abs() < 1e-12); // ln √π
/// ```
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0 && x.is_finite(), "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection would be needed for x < 0; for x in (0, 0.5) use
        // the recurrence ln Γ(x) = ln Γ(x+1) − ln x to stay accurate.
        return ln_gamma(x + 1.0) - x.ln();
    }
    let z = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (z + i as f64);
    }
    let t = z + LANCZOS_G + 0.5;
    LN_SQRT_2PI + (z + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function `Γ(x)` for `x > 0`. Overflows to `inf` for
/// `x ≳ 171.6`.
///
/// # Panics
///
/// Panics if `x <= 0` (see [`ln_gamma`]).
///
/// # Examples
///
/// ```
/// assert!((srm_math::special::gamma(6.0) - 120.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Size of the eagerly usable portion of the log-factorial cache.
const LN_FACT_INITIAL: usize = 4_096;

static LN_FACT_CACHE: OnceLock<RwLock<Vec<f64>>> = OnceLock::new();

fn ln_fact_cache() -> &'static RwLock<Vec<f64>> {
    LN_FACT_CACHE.get_or_init(|| {
        let mut v = Vec::with_capacity(LN_FACT_INITIAL);
        v.push(0.0); // ln 0! = 0
        for n in 1..LN_FACT_INITIAL {
            let prev = v[n - 1];
            v.push(prev + (n as f64).ln());
        }
        RwLock::new(v)
    })
}

/// Arguments of [`ln_factorial`] below this limit are served from its
/// cache; larger ones are computed by [`ln_gamma`] without taking the
/// cache's lock, so the cache never holds more than this many entries.
pub const LN_FACTORIAL_CACHE_LIMIT: u64 = 1 << 20;

/// Natural logarithm of the factorial, `ln n!`.
///
/// Served from a lazily grown cache (exact recurrence, so every cached
/// value has only accumulated rounding from `ln`); arguments from
/// [`LN_FACTORIAL_CACHE_LIMIT`] on fall back to [`ln_gamma`]`(n + 1)`
/// rather than growing the cache without bound.
///
/// # Examples
///
/// ```
/// use srm_math::special::ln_factorial;
/// assert!((ln_factorial(5) - 120.0_f64.ln()).abs() < 1e-12);
/// assert_eq!(ln_factorial(0), 0.0);
/// ```
#[must_use]
pub fn ln_factorial(n: u64) -> f64 {
    if n >= LN_FACTORIAL_CACHE_LIMIT {
        return ln_gamma(n as f64 + 1.0);
    }
    let idx = n as usize;
    {
        // A poisoned lock only means another thread panicked while
        // extending the cache; the prefix it wrote is still exact, so
        // recover the guard instead of propagating the panic.
        let cache = ln_fact_cache()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if idx < cache.len() {
            return cache[idx];
        }
    }
    let mut cache = ln_fact_cache()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    while cache.len() <= idx {
        let len = cache.len();
        let prev = cache[len - 1];
        cache.push(prev + (len as f64).ln());
    }
    cache[idx]
}

/// Log of the binomial coefficient `ln C(n, k)`.
///
/// Returns `-inf` when `k > n`, matching the convention that the
/// coefficient is zero there (useful for truncated supports).
///
/// # Examples
///
/// ```
/// use srm_math::special::ln_binomial;
/// assert!((ln_binomial(10, 3) - 120.0_f64.ln()).abs() < 1e-12);
/// assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
/// ```
#[must_use]
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    binomial_from(n, k, ln_factorial)
}

/// `ln C(n, k)` from a source of `ln m!`: the one formula behind
/// [`ln_binomial`] and [`LnFactorialTable::ln_binomial`].
#[inline]
fn binomial_from(n: u64, k: u64, ln_fact: impl Fn(u64) -> f64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_fact(n) - ln_fact(k) - ln_fact(n - k)
}

/// A private copy of a prefix of [`ln_factorial`]'s cache, for loops
/// that read `ln k!` millions of times: a lookup takes no lock.
///
/// The table grows on demand ([`LnFactorialTable::cover`]) but never
/// past [`LN_FACTORIAL_CACHE_LIMIT`] entries; larger arguments go to
/// [`ln_factorial`], which serves them from [`ln_gamma`] without a
/// lock. Every value equals [`ln_factorial`]'s bit for bit.
///
/// # Examples
///
/// ```
/// use srm_math::special::{ln_binomial, LnFactorialTable};
/// let mut table = LnFactorialTable::default();
/// table.cover(40);
/// assert_eq!(table.ln_binomial(40, 7).to_bits(), ln_binomial(40, 7).to_bits());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LnFactorialTable {
    table: Vec<f64>,
}

impl LnFactorialTable {
    /// Grows the table to hold `ln k!` for every `k <= n`, capped at
    /// [`LN_FACTORIAL_CACHE_LIMIT`] entries. Only a new maximum `n`
    /// copies anything, and then only the missing entries.
    pub fn cover(&mut self, n: u64) {
        let len = self.table.len();
        let want = n.saturating_add(1).min(LN_FACTORIAL_CACHE_LIMIT) as usize;
        if want <= len {
            return;
        }
        // Grow the shared cache first, then copy under one read lock.
        let _ = ln_factorial(want as u64 - 1);
        let cache = ln_fact_cache()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.table.extend_from_slice(&cache[len..want]);
    }

    /// Number of cached entries (`ln 0!` … `ln (len−1)!`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table holds no entry yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// `ln k!`, bit-identical to [`ln_factorial`].
    #[inline]
    #[must_use]
    pub fn ln_factorial(&self, k: u64) -> f64 {
        match usize::try_from(k).ok().and_then(|i| self.table.get(i)) {
            Some(&v) => v,
            None => ln_factorial(k),
        }
    }

    /// `ln C(n, k)`, bit-identical to [`ln_binomial`].
    #[inline]
    #[must_use]
    pub fn ln_binomial(&self, n: u64, k: u64) -> f64 {
        binomial_from(n, k, |m| self.ln_factorial(m))
    }
}

/// Log of the generalised binomial coefficient
/// `ln C(a + k − 1, k) = ln Γ(a + k) − ln Γ(a) − ln k!` for real `a > 0`,
/// the combinatorial weight of the negative binomial p.m.f.
///
/// # Panics
///
/// Panics if `a <= 0`.
///
/// # Examples
///
/// ```
/// use srm_math::special::ln_nb_coeff;
/// // a = 3, k = 2 → C(4, 2) = 6
/// assert!((ln_nb_coeff(3.0, 2) - 6.0_f64.ln()).abs() < 1e-12);
/// ```
#[must_use]
pub fn ln_nb_coeff(a: f64, k: u64) -> f64 {
    assert!(a > 0.0, "ln_nb_coeff requires a > 0, got {a}");
    ln_gamma(a + k as f64) - ln_gamma(a) - ln_factorial(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn ln_gamma_integers_match_factorials() {
        let mut fact = 1.0_f64;
        for n in 1..30u64 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(approx_eq(ln_gamma(n as f64), fact.ln(), 1e-12), "n = {n}");
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(approx_eq(ln_gamma(0.5), sqrt_pi.ln(), 1e-12));
        assert!(approx_eq(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12));
        assert!(approx_eq(ln_gamma(2.5), (3.0 * sqrt_pi / 4.0).ln(), 1e-12));
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        for &x in &[0.1, 0.7, 1.3, 4.5, 17.2, 123.456, 1e4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!(approx_eq(lhs, rhs, 1e-11), "x = {x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn ln_gamma_large_argument_stirling() {
        // Stirling: ln Γ(x) ≈ (x−0.5) ln x − x + ln √(2π) + 1/(12x)
        let x = 1e8f64;
        let stirling = (x - 0.5) * x.ln() - x + LN_SQRT_2PI + 1.0 / (12.0 * x);
        assert!(approx_eq(ln_gamma(x), stirling, 1e-12));
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_small_values_exact() {
        let expected: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in expected.iter().enumerate() {
            assert!(approx_eq(ln_factorial(n as u64), f.ln(), 1e-13), "n = {n}");
        }
    }

    #[test]
    fn ln_factorial_grows_cache_and_agrees_with_ln_gamma() {
        for &n in &[10u64, 100, 5_000, 60_000] {
            assert!(
                approx_eq(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-10),
                "n = {n}"
            );
        }
    }

    #[test]
    fn ln_factorial_beyond_cache_limit_uses_ln_gamma() {
        let n = (1u64 << 20) + 7;
        assert!(approx_eq(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-12));
    }

    #[test]
    fn ln_factorial_table_is_bit_identical_and_bounded() {
        let mut table = LnFactorialTable::default();
        assert!(table.is_empty());
        table.cover(5_000);
        assert_eq!(table.len(), 5_001);
        for k in (0..6_000u64).chain([(1 << 20) - 1, 1 << 20, u64::MAX]) {
            assert_eq!(table.ln_factorial(k).to_bits(), ln_factorial(k).to_bits());
        }
        for (n, k) in [(5_000, 17), (9_000, 8_999), (3, 5), ((1 << 20) + 9, 4)] {
            assert_eq!(
                table.ln_binomial(n, k).to_bits(),
                ln_binomial(n, k).to_bits()
            );
        }
        table.cover(17);
        assert_eq!(table.len(), 5_001);
        table.cover(9_999);
        assert_eq!(table.len(), 10_000);
        // Huge arguments stop at the shared cache's own limit.
        table.cover(u64::from(u32::MAX) * 2);
        assert_eq!(table.len() as u64, LN_FACTORIAL_CACHE_LIMIT);
        table.cover(u64::MAX);
        assert_eq!(table.len() as u64, LN_FACTORIAL_CACHE_LIMIT);
        let big = u64::from(u32::MAX) * 2;
        assert_eq!(
            table.ln_binomial(big, 1 << 21).to_bits(),
            ln_binomial(big, 1 << 21).to_bits()
        );
    }

    #[test]
    fn ln_binomial_pascal_rule() {
        for n in 1..40u64 {
            for k in 1..n {
                let lhs = ln_binomial(n, k).exp();
                let rhs = ln_binomial(n - 1, k - 1).exp() + ln_binomial(n - 1, k).exp();
                assert!(approx_eq(lhs, rhs, 1e-9), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn ln_binomial_out_of_range_is_neg_inf() {
        assert_eq!(ln_binomial(4, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_nb_coeff_matches_integer_binomial() {
        // For integer a: C(a + k − 1, k).
        for a in 1..12u64 {
            for k in 0..12u64 {
                let lhs = ln_nb_coeff(a as f64, k);
                let rhs = ln_binomial(a + k - 1, k);
                assert!(approx_eq(lhs, rhs, 1e-10), "a = {a}, k = {k}");
            }
        }
    }

    #[test]
    fn gamma_overflow_is_infinite_not_nan() {
        assert!(gamma(200.0).is_infinite());
    }
}
