//! Convergence diagnostics: Gelman–Rubin PSRF, Geweke Z, effective
//! sample size and Monte-Carlo standard error.
//!
//! * **PSRF** (Eq. (26)–(29) of the paper): `sqrt(V̂/W)` from `m ≥ 2`
//!   chains; values below 1.1 indicate convergence.
//! * **Geweke Z**: the paper's Eq. (30) denominator is a typo (it
//!   subtracts the variances); the standard statistic divides the
//!   mean difference by `sqrt(Var(ḡ_A) + Var(ḡ_B))` with *spectral*
//!   variance estimates of the means. Both the standard form
//!   ([`geweke_z`]) and the naive-variance variant
//!   ([`geweke_z_naive`]) are provided.
//! * **ESS**: Geyer's initial-positive-sequence estimator.

use crate::streaming::ParamAccumulator;
use srm_math::accum::RunningMoments;
use srm_obs::checkpoint::{psrf_from_moments, MomentSummary};

/// A combined convergence report for one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosticsReport {
    /// Gelman–Rubin potential scale reduction factor.
    pub psrf: f64,
    /// Geweke Z statistic of the pooled first chain.
    pub geweke_z: f64,
    /// Effective sample size pooled across chains.
    pub ess: f64,
    /// Monte-Carlo standard error of the posterior mean:
    /// `sqrt(pooled variance / ess)`.
    pub mcse: f64,
}

impl DiagnosticsReport {
    /// The conventional pass criteria: PSRF < 1.1 and |Z| < 1.96.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.psrf < 1.1 && self.geweke_z.abs() < 1.96
    }
}

/// Gelman–Rubin potential scale reduction factor from `m ≥ 2` chains
/// of equal length `n ≥ 2`: [`srm_obs::psrf_from_moments`] of each
/// chain's Welford moments.
///
/// # Panics
///
/// Panics with fewer than two chains, unequal lengths, or chains
/// shorter than two draws.
///
/// # Examples
///
/// ```
/// // Two identical long chains: PSRF ≈ 1.
/// let a: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
/// let r = srm_mcmc::psrf(&[&a, &a]);
/// assert!((r - 1.0).abs() < 0.01);
/// ```
#[must_use]
pub fn psrf(chains: &[&[f64]]) -> f64 {
    let m = chains.len();
    assert!(m >= 2, "PSRF requires at least two chains");
    let n = chains[0].len();
    assert!(n >= 2, "PSRF requires chains of length >= 2");
    for c in chains {
        assert_eq!(c.len(), n, "PSRF requires equal-length chains");
    }
    let blocks: Vec<MomentSummary> = chains
        .iter()
        .map(|c| ParamAccumulator::summary(&c.iter().copied().collect()))
        .collect();
    psrf_from_moments(&blocks)
}

/// Spectral-density-at-zero estimate of the long-run variance of a
/// segment, via Bartlett-windowed autocovariances with bandwidth
/// `⌊√n⌋` — the estimator `coda::geweke.diag` uses in spirit.
fn spectral_variance_of_mean(x: &[f64]) -> f64 {
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean = x.iter().sum::<f64>() / nf;
    let centred: Vec<f64> = x.iter().map(|v| v - mean).collect();
    let bandwidth = (nf.sqrt().floor() as usize).max(1).min(n - 1);
    let gamma = |lag: usize| -> f64 {
        centred[..n - lag]
            .iter()
            .zip(&centred[lag..])
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / nf
    };
    let mut s = gamma(0);
    for lag in 1..=bandwidth {
        let weight = 1.0 - lag as f64 / (bandwidth as f64 + 1.0);
        s += 2.0 * weight * gamma(lag);
    }
    (s / nf).max(0.0)
}

/// Geweke convergence statistic comparing the first `frac_a` and last
/// `frac_b` portions of a chain, with spectral variance estimates
/// (the standard 0.1 / 0.5 split is the default entry point
/// [`geweke_z`]).
///
/// # Panics
///
/// Panics if the fractions are not in `(0, 1)` or overlap.
#[must_use]
pub fn geweke_z_fractions(draws: &[f64], frac_a: f64, frac_b: f64) -> f64 {
    assert!(frac_a > 0.0 && frac_a < 1.0, "frac_a out of range");
    assert!(frac_b > 0.0 && frac_b < 1.0, "frac_b out of range");
    assert!(frac_a + frac_b <= 1.0, "segments overlap");
    let n = draws.len();
    let na = ((n as f64) * frac_a).floor() as usize;
    let nb = ((n as f64) * frac_b).floor() as usize;
    assert!(na >= 2 && nb >= 2, "chain too short for Geweke");
    let a = &draws[..na];
    let b = &draws[n - nb..];
    let mean_a = a.iter().sum::<f64>() / na as f64;
    let mean_b = b.iter().sum::<f64>() / nb as f64;
    if equal_within_roundoff(mean_a, mean_b) {
        return 0.0; // segments identical up to round-off ⇒ converged
    }
    let var = spectral_variance_of_mean(a) + spectral_variance_of_mean(b);
    if var <= 0.0 {
        return f64::INFINITY * (mean_a - mean_b).signum();
    }
    (mean_a - mean_b) / var.sqrt()
}

/// Segment means of a constant chain differ only by accumulated
/// round-off; treating that as divergence would make Z a 0/0 noise
/// ratio.
fn equal_within_roundoff(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * (a.abs() + b.abs() + 1.0)
}

/// Geweke Z with the conventional 10 % / 50 % split.
///
/// # Examples
///
/// ```
/// // A stationary white-noise chain passes.
/// let draws: Vec<f64> = (0..2000).map(|i| (((i * 2654435761u64) % 1000) as f64) / 1000.0).collect();
/// let z = srm_mcmc::geweke_z(&draws);
/// assert!(z.abs() < 1.96);
/// ```
#[must_use]
pub fn geweke_z(draws: &[f64]) -> f64 {
    geweke_z_fractions(draws, 0.1, 0.5)
}

/// The naive-variance Geweke variant (sample variances of the segment
/// means, no autocorrelation correction). Anticonservative on
/// correlated chains; provided for comparison with the paper's
/// Eq. (30).
#[must_use]
pub fn geweke_z_naive(draws: &[f64]) -> f64 {
    let n = draws.len();
    let na = n / 10;
    let nb = n / 2;
    assert!(na >= 2 && nb >= 2, "chain too short for Geweke");
    let a = &draws[..na];
    let b = &draws[n - nb..];
    let stats = |x: &[f64]| {
        let m: RunningMoments = x.iter().copied().collect();
        (m.mean(), m.sample_variance() / x.len() as f64)
    };
    let (ma, va) = stats(a);
    let (mb, vb) = stats(b);
    if equal_within_roundoff(ma, mb) {
        return 0.0;
    }
    let var = va + vb;
    if var <= 0.0 {
        return f64::INFINITY * (ma - mb).signum();
    }
    (ma - mb) / var.sqrt()
}

/// Effective sample size of a single chain via Geyer's initial
/// positive sequence: sum paired autocorrelations until a pair goes
/// non-positive.
///
/// # Examples
///
/// ```
/// let iid: Vec<f64> = (0..4000).map(|i| (((i * 48271) % 65536) as f64) / 65536.0).collect();
/// let ess = srm_mcmc::effective_sample_size(&iid);
/// assert!(ess > 2000.0); // near-iid stream keeps most of its draws
/// ```
#[must_use]
pub fn effective_sample_size(draws: &[f64]) -> f64 {
    let n = draws.len();
    if n < 4 {
        return n as f64;
    }
    let nf = n as f64;
    let mean = draws.iter().sum::<f64>() / nf;
    let centred: Vec<f64> = draws.iter().map(|v| v - mean).collect();
    let gamma0 = centred.iter().map(|v| v * v).sum::<f64>() / nf;
    if gamma0 <= 0.0 {
        return nf; // constant chain: define ESS = n
    }
    let gamma = |lag: usize| -> f64 {
        centred[..n - lag]
            .iter()
            .zip(&centred[lag..])
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / nf
    };
    let mut tau = 1.0; // 1 + 2 Σ ρ_t, accumulated in pairs
    let mut lag = 1usize;
    while lag + 1 < n {
        let pair = gamma(lag) + gamma(lag + 1);
        if pair <= 0.0 {
            break;
        }
        tau += 2.0 * pair / gamma0;
        lag += 2;
    }
    (nf / tau).min(nf)
}

/// Rank-normalised split-R̂ (Vehtari, Gelman, Simpson, Carpenter &
/// Bürkner 2021): each chain is split in half, all draws are replaced
/// by their normal scores (rank-normalisation), and the classic PSRF
/// is computed on the transformed halves.
///
/// Compared to the paper's plain PSRF (Eq. (26)) this catches chains
/// that agree in mean but not in spread, and is robust to the heavy
/// tails our weakly-identified models produce.
///
/// # Panics
///
/// Panics with fewer than one chain or chains shorter than four draws.
///
/// # Examples
///
/// ```
/// let a: Vec<f64> = (0..1000).map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64).collect();
/// let b: Vec<f64> = (0..1000).map(|i| (((i as u64 + 7).wrapping_mul(0x9E3779B97F4A7C15)) >> 40) as f64).collect();
/// let rhat = srm_mcmc::diagnostics::split_rhat_rank_normalized(&[&a, &b]);
/// assert!(rhat < 1.05, "rhat = {rhat}");
/// ```
#[must_use]
pub fn split_rhat_rank_normalized(chains: &[&[f64]]) -> f64 {
    assert!(!chains.is_empty(), "split-Rhat requires at least one chain");
    let n = chains[0].len();
    assert!(n >= 4, "split-Rhat requires chains of length >= 4");
    for c in chains {
        assert_eq!(c.len(), n, "split-Rhat requires equal-length chains");
    }
    let half = n / 2;

    // Pool every draw to compute global ranks (average ranks on ties).
    let mut indexed: Vec<(f64, usize)> = Vec::with_capacity(chains.len() * 2 * half);
    let mut halves: Vec<&[f64]> = Vec::with_capacity(chains.len() * 2);
    for c in chains {
        halves.push(&c[..half]);
        halves.push(&c[n - half..]);
    }
    for (which, h) in halves.iter().enumerate() {
        for &v in *h {
            indexed.push((v, which));
        }
    }
    let total = indexed.len();
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by(|&i, &j| indexed[i].0.total_cmp(&indexed[j].0));
    let mut ranks = vec![0.0f64; total];
    let mut i = 0;
    while i < total {
        let mut j = i;
        while j + 1 < total && indexed[order[j + 1]].0 == indexed[order[i]].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }

    // Normal scores: z = Φ^{-1}((rank − 3/8) / (S + 1/4)).
    let s = total as f64;
    let mut transformed: Vec<Vec<f64>> = vec![Vec::with_capacity(half); halves.len()];
    for (k, &(_, which)) in indexed.iter().enumerate() {
        let p = ((ranks[k] - 0.375) / (s + 0.25)).clamp(1e-12, 1.0 - 1e-12);
        transformed[which].push(srm_math::norm_quantile(p));
    }
    let refs: Vec<&[f64]> = transformed.iter().map(Vec::as_slice).collect();
    psrf(&refs)
}

/// Sample autocorrelation function of a chain at lags `0..=max_lag`.
///
/// Returns an empty vector for chains shorter than 2 or with zero
/// variance beyond lag 0 handling (a constant chain yields `[1.0,
/// 0.0, …]` by convention).
///
/// # Examples
///
/// ```
/// // A scrambled (near-iid) stream decorrelates immediately.
/// let chain: Vec<f64> = (0u64..1000)
///     .map(|i| {
///         let h = i.wrapping_mul(0x9E3779B97F4A7C15);
///         ((h >> 33) % 1000) as f64
///     })
///     .collect();
/// let acf = srm_mcmc::diagnostics::autocorrelation(&chain, 5);
/// assert!((acf[0] - 1.0).abs() < 1e-12);
/// assert!(acf[1].abs() < 0.1);
/// ```
#[must_use]
pub fn autocorrelation(draws: &[f64], max_lag: usize) -> Vec<f64> {
    let n = draws.len();
    if n < 2 {
        return Vec::new();
    }
    let nf = n as f64;
    let mean = draws.iter().sum::<f64>() / nf;
    let centred: Vec<f64> = draws.iter().map(|v| v - mean).collect();
    let gamma0 = centred.iter().map(|v| v * v).sum::<f64>() / nf;
    let max_lag = max_lag.min(n - 1);
    let mut acf = Vec::with_capacity(max_lag + 1);
    acf.push(1.0);
    for lag in 1..=max_lag {
        if gamma0 <= 0.0 {
            acf.push(0.0);
            continue;
        }
        let g = centred[..n - lag]
            .iter()
            .zip(&centred[lag..])
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / nf;
        acf.push(g / gamma0);
    }
    acf
}

/// Monte-Carlo standard error of the mean: `sd · sqrt(1/ESS)`.
#[must_use]
pub fn mcse(draws: &[f64]) -> f64 {
    let m: RunningMoments = draws.iter().copied().collect();
    let ess = effective_sample_size(draws);
    if ess <= 0.0 {
        return f64::INFINITY;
    }
    (m.sample_variance() / ess).sqrt()
}

/// Builds the combined report for one parameter across chains. `ess`
/// is the sum of the per-chain ESS, and `mcse` is
/// `sqrt(pooled variance / ess)`, the convention the streaming
/// checkpoint aggregate uses too.
///
/// # Panics
///
/// Panics under the same conditions as [`psrf`].
#[must_use]
pub fn report(chains: &[&[f64]]) -> DiagnosticsReport {
    let ess: f64 = chains.iter().map(|c| effective_sample_size(c)).sum();
    let pooled: RunningMoments = chains.iter().flat_map(|c| c.iter().copied()).collect();
    DiagnosticsReport {
        psrf: psrf(chains),
        geweke_z: geweke_z(chains[0]),
        ess,
        mcse: if ess > 0.0 {
            (pooled.sample_variance() / ess).sqrt()
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_rand::{Distribution, Normal, SplitMix64};

    fn white_noise(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from(seed);
        Normal::standard().sample_n(&mut rng, n)
    }

    fn ar1(seed: u64, n: usize, rho: f64) -> Vec<f64> {
        let mut rng = SplitMix64::seed_from(seed);
        let normal = Normal::standard();
        let mut x = 0.0;
        let innov = (1.0 - rho * rho).sqrt();
        (0..n)
            .map(|_| {
                x = rho * x + innov * normal.sample(&mut rng);
                x
            })
            .collect()
    }

    #[test]
    fn psrf_near_one_for_same_distribution() {
        let a = white_noise(80, 5_000);
        let b = white_noise(81, 5_000);
        let c = white_noise(82, 5_000);
        let r = psrf(&[&a, &b, &c]);
        assert!(r < 1.02, "r = {r}");
    }

    #[test]
    fn psrf_large_for_shifted_chains() {
        let a = white_noise(83, 2_000);
        let b: Vec<f64> = white_noise(84, 2_000).iter().map(|x| x + 5.0).collect();
        let r = psrf(&[&a, &b]);
        assert!(r > 1.5, "r = {r}");
    }

    #[test]
    fn psrf_constant_chains() {
        let a = vec![2.0; 100];
        let b = vec![2.0; 100];
        assert_eq!(psrf(&[&a, &b]), 1.0);
        let c = vec![3.0; 100];
        assert_eq!(psrf(&[&a, &c]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "at least two chains")]
    fn psrf_single_chain_panics() {
        let a = vec![1.0, 2.0];
        let _ = psrf(&[&a]);
    }

    #[test]
    fn geweke_passes_stationary_fails_trending() {
        let stationary = white_noise(85, 4_000);
        assert!(geweke_z(&stationary).abs() < 3.0);
        let trending: Vec<f64> = (0..4_000).map(|i| i as f64 * 0.01).collect();
        assert!(geweke_z(&trending).abs() > 5.0);
    }

    #[test]
    fn geweke_spectral_wider_than_naive_on_correlated_chain() {
        // On an AR(1) chain the naive variance understates the
        // uncertainty, inflating |Z| relative to the spectral form.
        let chain = ar1(86, 20_000, 0.95);
        let z_spec = geweke_z(&chain).abs();
        let z_naive = geweke_z_naive(&chain).abs();
        assert!(
            z_naive > z_spec,
            "naive {z_naive} should exceed spectral {z_spec}"
        );
    }

    #[test]
    fn geweke_constant_chain_is_zero() {
        let c = vec![4.2; 1_000];
        assert_eq!(geweke_z(&c), 0.0);
        assert_eq!(geweke_z_naive(&c), 0.0);
    }

    #[test]
    fn ess_full_for_iid_reduced_for_ar1() {
        let iid = white_noise(87, 10_000);
        let ess_iid = effective_sample_size(&iid);
        assert!(ess_iid > 8_000.0, "iid ESS = {ess_iid}");
        let correlated = ar1(88, 10_000, 0.9);
        let ess_ar = effective_sample_size(&correlated);
        // Theory: ESS ≈ n(1−ρ)/(1+ρ) ≈ 526.
        assert!(ess_ar < 1_500.0, "AR ESS = {ess_ar}");
        assert!(ess_ar > 150.0, "AR ESS = {ess_ar}");
    }

    #[test]
    fn ess_short_and_constant_chains() {
        assert_eq!(effective_sample_size(&[1.0, 2.0]), 2.0);
        assert_eq!(effective_sample_size(&vec![5.0; 100]), 100.0);
    }

    #[test]
    fn split_rhat_near_one_for_matching_chains() {
        let a = white_noise(95, 4_000);
        let b = white_noise(96, 4_000);
        let r = split_rhat_rank_normalized(&[&a, &b]);
        assert!(r < 1.02, "rhat = {r}");
    }

    #[test]
    fn split_rhat_flags_within_chain_drift() {
        // A single chain that drifts: classic multi-chain PSRF cannot
        // see it, split-Rhat can.
        let drifting: Vec<f64> = white_noise(97, 4_000)
            .into_iter()
            .enumerate()
            .map(|(i, x)| x + i as f64 * 0.002)
            .collect();
        let r = split_rhat_rank_normalized(&[&drifting]);
        assert!(r > 1.2, "rhat = {r}");
    }

    #[test]
    fn split_rhat_flags_scale_mismatch() {
        // Same mean, different spread: plain PSRF is fooled, the
        // rank-normalised folded variant catches spread through the
        // rank pooling.
        let a = white_noise(98, 4_000);
        let b: Vec<f64> = white_noise(99, 4_000).iter().map(|x| x * 6.0).collect();
        let plain = psrf(&[&a, &b]);
        let ranked = split_rhat_rank_normalized(&[&a, &b]);
        // Plain PSRF sees agreeing means over a pooled W that includes
        // the wide chain, so it stays low; rank pooling shifts the
        // narrow chain's scores toward the centre and disagrees.
        assert!(plain < 1.1, "plain = {plain}");
        assert!(ranked > plain, "ranked {ranked} <= plain {plain}");
    }

    #[test]
    fn split_rhat_handles_ties() {
        let a = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let b = vec![1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 1.0];
        let r = split_rhat_rank_normalized(&[&a, &b]);
        assert!(r.is_finite());
    }

    #[test]
    fn acf_iid_vs_correlated() {
        let iid = white_noise(93, 20_000);
        let acf_iid = autocorrelation(&iid, 3);
        assert!((acf_iid[0] - 1.0).abs() < 1e-12);
        assert!(acf_iid[1].abs() < 0.03, "rho1 = {}", acf_iid[1]);
        let chain = ar1(94, 20_000, 0.8);
        let acf_ar = autocorrelation(&chain, 3);
        assert!((acf_ar[1] - 0.8).abs() < 0.05, "rho1 = {}", acf_ar[1]);
        assert!((acf_ar[2] - 0.64).abs() < 0.06, "rho2 = {}", acf_ar[2]);
    }

    #[test]
    fn acf_edge_cases() {
        assert!(autocorrelation(&[1.0], 5).is_empty());
        let constant = autocorrelation(&vec![2.0; 100], 3);
        assert_eq!(constant[0], 1.0);
        // Lag capped at n − 1.
        let short = autocorrelation(&[1.0, 2.0, 3.0], 10);
        assert_eq!(short.len(), 3);
    }

    #[test]
    fn mcse_shrinks_with_length() {
        let short = white_noise(89, 500);
        let long = white_noise(90, 50_000);
        assert!(mcse(&long) < mcse(&short));
        // For iid N(0,1), MCSE ≈ 1/√n.
        let expected = 1.0 / (50_000f64).sqrt();
        assert!((mcse(&long) - expected).abs() < expected);
    }

    #[test]
    fn report_aggregates() {
        let a = white_noise(91, 3_000);
        let b = white_noise(92, 3_000);
        let rep = report(&[&a, &b]);
        assert!(rep.converged(), "{rep:?}");
        assert!(rep.ess > 3_000.0);
        assert!(rep.mcse > 0.0);
    }
}
