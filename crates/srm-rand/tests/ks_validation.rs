//! Kolmogorov–Smirnov validation of every continuous sampler against
//! its analytic CDF, and chi-square validation of the discrete ones —
//! sharper than moment checks because the whole distribution shape is
//! tested.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use srm_math::stats::{chi2_gof, ks_p_value, ks_statistic};
use srm_rand::{
    Beta, Distribution, Gamma, NegativeBinomial, Normal, Poisson, SplitMix64, TruncatedGamma,
    Uniform, Xoshiro256StarStar,
};

const N: usize = 20_000;
/// With a fixed seed the test is deterministic; the threshold only
/// needs to avoid the p ≈ 0 region that indicates a real bug.
const P_FLOOR: f64 = 0.001;

fn ks_check<D, F>(name: &str, dist: &D, cdf: F, seed: u64)
where
    D: Distribution<Value = f64>,
    F: Fn(f64) -> f64,
{
    let mut rng = Xoshiro256StarStar::seed_from(seed);
    let sample = dist.sample_n(&mut rng, N);
    let d = ks_statistic(&sample, cdf);
    let p = ks_p_value(d, N);
    assert!(p > P_FLOOR, "{name}: KS D = {d:.5}, p = {p:.2e}");
}

#[test]
fn uniform_passes_ks() {
    let u = Uniform::new(-2.0, 3.0).unwrap();
    ks_check(
        "uniform(-2,3)",
        &u,
        |x| ((x + 2.0) / 5.0).clamp(0.0, 1.0),
        9_001,
    );
}

#[test]
fn normal_passes_ks() {
    let n = Normal::new(4.0, 2.5).unwrap();
    ks_check("normal(4,2.5)", &n, |x| n.cdf(x), 9_003);
}

#[test]
fn gamma_passes_ks_across_shapes() {
    for (i, &shape) in [0.4, 1.0, 3.5, 40.0].iter().enumerate() {
        let g = Gamma::new(shape, 1.3).unwrap();
        ks_check(
            &format!("gamma({shape},1.3)"),
            &g,
            |x| g.cdf(x),
            9_010 + i as u64,
        );
    }
}

#[test]
fn beta_passes_ks_across_shapes() {
    for (i, &(a, b)) in [(0.5, 0.5), (2.0, 5.0), (7.0, 3.0)].iter().enumerate() {
        let d = Beta::new(a, b).unwrap();
        ks_check(
            &format!("beta({a},{b})"),
            &d,
            |x| d.cdf(x),
            9_020 + i as u64,
        );
    }
}

#[test]
fn truncated_gamma_passes_ks_both_paths() {
    // Rejection path (high kept mass).
    let tg = TruncatedGamma::new(3.0, 1.0, 8.0).unwrap();
    ks_check("trunc-gamma rejection", &tg, |x| tg.cdf(x), 9_030);
    // Inverse-CDF path (tiny kept mass).
    let tg = TruncatedGamma::new(100.0, 1.0, 85.0).unwrap();
    assert!(tg.kept_mass() < 0.1);
    ks_check("trunc-gamma inverse", &tg, |x| tg.cdf(x), 9_031);
}

fn chi2_check_discrete<D>(name: &str, dist: &D, ln_pmf: impl Fn(u64) -> f64, seed: u64)
where
    D: Distribution<Value = u64>,
{
    let mut rng = SplitMix64::seed_from(seed);
    let sample = dist.sample_n(&mut rng, N);
    // Bucket the support, merging the tail so expected counts >= 5.
    let max = *sample.iter().max().unwrap();
    let mut observed = vec![0.0f64; (max + 2) as usize];
    for &x in &sample {
        observed[x as usize] += 1.0;
    }
    let expected: Vec<f64> = (0..observed.len() as u64)
        .map(|k| ln_pmf(k).exp() * N as f64)
        .collect();
    // Merge cells from the right until all expected >= 5.
    let mut obs_cells: Vec<f64> = Vec::new();
    let mut exp_cells: Vec<f64> = Vec::new();
    let mut acc_o = 0.0;
    let mut acc_e = 0.0;
    for (o, e) in observed.into_iter().zip(expected) {
        acc_o += o;
        acc_e += e;
        if acc_e >= 5.0 {
            obs_cells.push(acc_o);
            exp_cells.push(acc_e);
            acc_o = 0.0;
            acc_e = 0.0;
        }
    }
    if acc_e > 0.0 && !exp_cells.is_empty() {
        *obs_cells.last_mut().unwrap() += acc_o;
        *exp_cells.last_mut().unwrap() += acc_e;
    }
    // Account for unbucketed tail mass beyond the sample max.
    let total_expected: f64 = exp_cells.iter().sum();
    let deficit = N as f64 - total_expected;
    if deficit > 0.0 {
        *exp_cells.last_mut().unwrap() += deficit;
    }
    let (stat, p) = chi2_gof(&obs_cells, &exp_cells, 0);
    assert!(p > P_FLOOR, "{name}: chi2 = {stat:.2}, p = {p:.2e}");
}

#[test]
fn poisson_passes_chi2_both_regimes() {
    let small = Poisson::new(3.5).unwrap();
    chi2_check_discrete("poisson(3.5)", &small, |k| small.ln_pmf(k), 9_040);
    let large = Poisson::new(60.0).unwrap();
    chi2_check_discrete("poisson(60)", &large, |k| large.ln_pmf(k), 9_041);
}

#[test]
fn negative_binomial_passes_chi2() {
    let nb = NegativeBinomial::new(4.5, 0.35).unwrap();
    chi2_check_discrete("nb(4.5,0.35)", &nb, |k| nb.ln_pmf(k), 9_050);
}

#[test]
fn binomial_passes_chi2_both_regimes() {
    use srm_rand::Binomial;
    let small = Binomial::new(30, 0.4).unwrap();
    chi2_check_discrete("binom(30,0.4)", &small, |k| small.ln_pmf(k), 9_060);
    // Beta-splitting path.
    let large = Binomial::new(500, 0.12).unwrap();
    chi2_check_discrete("binom(500,0.12)", &large, |k| large.ln_pmf(k), 9_061);
}
