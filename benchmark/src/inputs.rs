//! Seeded workload inputs: the paper grid, fleet series, served fit
//! specs and the open-loop arrival schedule. Every generator is a pure
//! function of its seed, so the same `--seed` gives the same inputs.

use srm_data::{datasets, BugCountData, DetectionSimulator, ObservationPoint};
use srm_mcmc::{McmcConfig, PriorSpec};
use srm_model::DetectionModel;
use srm_rand::{Pcg64, Rng, SplitMix64};
use std::collections::HashSet;

/// One fit the benchmark asks the program for.
#[derive(Debug, Clone, PartialEq)]
pub struct FitSpec {
    /// Prior family and hyper-prior limit.
    pub prior: PriorSpec,
    /// Detection curve.
    pub model: DetectionModel,
    /// Daily bug counts.
    pub data: BugCountData,
    /// Chains, run lengths and seed.
    pub mcmc: McmcConfig,
}

/// The paper's Poisson prior, `λ0 ~ U(0, 2000)`.
pub const POISSON: PriorSpec = PriorSpec::Poisson {
    lambda_max: 2_000.0,
};

/// The paper's negative-binomial prior, `α0 ~ U(0, 100)`.
pub const NEG_BINOMIAL: PriorSpec = PriorSpec::NegBinomial { alpha_max: 100.0 };

/// Observation days of the paper grid on `musa_cc96`: half the
/// horizon, the full horizon, and the last virtual-testing point (50
/// zero-count days past the end).
pub const GRID_DAYS: [usize; 3] = [48, 96, 146];

/// Cells in one pass over the paper grid: 3 windows × 2 priors × 5
/// curves.
pub const GRID_CELLS: usize = 30;

/// A well-mixed 64-bit value derived from `seed` and a stream index.
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix64::seed_from(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Cell `index` of the paper grid (taken modulo [`GRID_CELLS`]): the
/// window varies fastest, then the prior, then the curve. Pass
/// `index / GRID_CELLS` refits the same cell under a new seed.
pub fn grid_cell(seed: u64, index: usize, mcmc: McmcConfig) -> FitSpec {
    let cell = index % GRID_CELLS;
    let day = GRID_DAYS[cell % 3];
    let data = ObservationPoint::new(day)
        .window(&datasets::musa_cc96())
        .unwrap_or_else(|_| unreachable!("grid days are positive"));
    FitSpec {
        prior: if (cell / 3).is_multiple_of(2) {
            POISSON
        } else {
            NEG_BINOMIAL
        },
        model: DetectionModel::ALL[cell / 6],
        data,
        mcmc: McmcConfig {
            seed: derive(seed, index as u64),
            ..mcmc
        },
    }
}

/// One synthetic project in the fleet style: 12–30 testing days,
/// 40–120 initial bugs, a decaying per-day detection probability.
/// Redraws until at least one bug was detected.
fn fleet_project(rng: &mut Pcg64) -> BugCountData {
    loop {
        let days = 12 + rng.next_below(19) as usize;
        let bugs = 40 + rng.next_below(81);
        let p0 = 0.02 + 0.08 * rng.next_f64();
        let decay = 0.5 * rng.next_f64();
        let probs = (1..=days).map(|i| p0 * (i as f64).powf(-decay)).collect();
        let project = DetectionSimulator::new(bugs, probs).run_with(rng);
        if project.data.total() > 0 {
            return project.data;
        }
    }
}

/// `count` distinct fleet series.
pub fn unique_series(seed: u64, count: usize) -> Vec<BugCountData> {
    let mut rng = Pcg64::seed_from(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let data = fleet_project(&mut rng);
        if seen.insert(data.counts().to_vec()) {
            out.push(data);
        }
    }
    out
}

/// `k` distinct indices drawn from `lo..hi`, ascending.
fn choose(rng: &mut Pcg64, lo: usize, hi: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (lo..hi).collect();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + rng.next_below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// One batch of the fleet workload: `items` labelled series of which
/// one in ten (rounded) is an exact copy of an earlier distinct series
/// in the same batch, at seeded positions.
pub fn fleet_batch(seed: u64, items: usize) -> Vec<(String, BugCountData)> {
    let duplicates = (items + 5) / 10;
    let mut rng = Pcg64::seed_from(derive(seed, 1));
    let copies = choose(&mut rng, 1, items.max(1), duplicates);
    let mut fresh = unique_series(derive(seed, 2), items - copies.len()).into_iter();
    let mut originals: Vec<BugCountData> = Vec::new();
    let mut out = Vec::with_capacity(items);
    for i in 0..items {
        let data = if copies.binary_search(&i).is_ok() {
            originals[rng.next_below(originals.len() as u64) as usize].clone()
        } else {
            let data = fresh.next().unwrap_or_else(|| unreachable!("sized above"));
            originals.push(data.clone());
            data
        };
        out.push((format!("s{i:03}"), data));
    }
    out
}

/// Items of a [`fleet_batch`] that repeat an earlier item.
pub fn duplicates_in(items: usize) -> usize {
    (items + 5) / 10
}

/// `count` served fit specs: distinct fleet series (drawn from
/// `data_seed`) fitted with model1 under the Poisson prior, each at its
/// own sampler seed (drawn from `fit_seed`). Sampler seeds stay below
/// 2³² because the service bounds numeric fields there.
pub fn served_specs(data_seed: u64, fit_seed: u64, count: usize, mcmc: McmcConfig) -> Vec<FitSpec> {
    unique_series(data_seed, count)
        .into_iter()
        .enumerate()
        .map(|(i, data)| FitSpec {
            prior: POISSON,
            model: DetectionModel::PadgettSpurrier,
            data,
            mcmc: McmcConfig {
                seed: derive(fit_seed, i as u64) >> 32,
                ..mcmc
            },
        })
        .collect()
}

/// The `POST /v1/jobs` body for a spec, data inline.
pub fn job_body(spec: &FitSpec) -> String {
    let counts: Vec<String> = spec.data.counts().iter().map(u64::to_string).collect();
    let prior = match spec.prior {
        PriorSpec::Poisson { lambda_max } => {
            format!(r#""prior":"poisson","lambda_max":{lambda_max}"#)
        }
        PriorSpec::NegBinomial { alpha_max } => {
            format!(r#""prior":"negbinom","alpha_max":{alpha_max}"#)
        }
    };
    format!(
        r#"{{"kind":"fit","counts":[{}],"model":"{}",{prior},"chains":{},"burn_in":{},"samples":{},"seed":{}}}"#,
        counts.join(","),
        spec.model.name(),
        spec.mcmc.chains,
        spec.mcmc.burn_in,
        spec.mcmc.samples,
        spec.mcmc.seed,
    )
}

/// Arrival offsets (seconds from the start) of a Poisson process at
/// `rate` per second over `seconds`, conditioned on its expected count:
/// `round(rate × seconds)` arrivals at sorted uniform times. The
/// conditioning keeps the offered load identical across seeds, so
/// throughput differences between runs come from the program, not the
/// draw.
pub fn arrival_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut rng = Pcg64::seed_from(derive(seed, 3));
    let mut times: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Which of `n` arrivals resubmit an earlier spec: exactly
/// `round(share × n)` of them, at seeded positions.
pub fn resubmissions(seed: u64, n: usize, share: f64) -> Vec<bool> {
    let mut rng = Pcg64::seed_from(derive(seed, 4));
    let mut marks = vec![false; n];
    for i in choose(&mut rng, 0, n, (share * n as f64).round() as usize) {
        marks[i] = true;
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: McmcConfig = McmcConfig {
        chains: 2,
        burn_in: 10,
        samples: 20,
        thin: 1,
        seed: 0,
    };

    #[test]
    fn grid_covers_every_window_prior_and_curve_once_per_pass() {
        let mut seen = HashSet::new();
        for i in 0..GRID_CELLS {
            let cell = grid_cell(7, i, SMALL);
            seen.insert((cell.data.len(), cell.prior.label(), cell.model.name()));
        }
        assert_eq!(seen.len(), GRID_CELLS);
        let virtual_window = grid_cell(7, 2, SMALL);
        assert_eq!(virtual_window.data.len(), 146);
        assert_eq!(virtual_window.data.total(), 136);
        // The next pass refits the same cell under another seed.
        let (a, b) = (grid_cell(7, 4, SMALL), grid_cell(7, 4 + GRID_CELLS, SMALL));
        assert_eq!((a.data, a.model), (b.data, b.model));
        assert_ne!(a.mcmc.seed, b.mcmc.seed);
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(fleet_batch(11, 64), fleet_batch(11, 64));
        assert_ne!(fleet_batch(11, 64), fleet_batch(12, 64));
        assert_eq!(
            served_specs(5, 6, 8, SMALL)
                .iter()
                .map(job_body)
                .collect::<Vec<_>>()
                .concat(),
            served_specs(5, 6, 8, SMALL)
                .iter()
                .map(job_body)
                .collect::<Vec<_>>()
                .concat()
        );
        let a = arrival_schedule(3, 30.0, 2.0);
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&arrival_schedule(3, 30.0, 2.0)));
        assert_eq!(resubmissions(3, 100, 0.15), resubmissions(3, 100, 0.15));
    }

    #[test]
    fn fleet_batches_hold_one_duplicate_in_ten() {
        let batch = fleet_batch(21, 128);
        assert_eq!(batch.len(), 128);
        let distinct: HashSet<Vec<u64>> = batch.iter().map(|(_, d)| d.counts().to_vec()).collect();
        assert_eq!(batch.len() - distinct.len(), duplicates_in(128));
        assert_eq!(duplicates_in(128), 13);
        for (_, data) in &batch {
            assert!((12..=30).contains(&data.len()));
            assert!(data.total() > 0 && data.total() <= 120);
        }
    }

    #[test]
    fn arrivals_are_sorted_and_exactly_sized() {
        let times = arrival_schedule(9, 30.0, 40.0);
        assert_eq!(times.len(), 1_200);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| (0.0..40.0).contains(&t)));
        let marks = resubmissions(9, 1_200, 0.15);
        assert_eq!(marks.iter().filter(|&&m| m).count(), 180);
    }

    #[test]
    fn job_bodies_parse_as_the_service_reads_them() {
        let spec = &served_specs(1, 2, 1, SMALL)[0];
        let body = srm_obs::json::parse(&job_body(spec)).unwrap();
        let served = srm_serve::JobSpec::from_json(&body).unwrap();
        assert_eq!(served.data, spec.data);
        assert_eq!(served.mcmc, spec.mcmc);
        assert_eq!(served.model, spec.model);
        assert_eq!(served.prior, spec.prior);
    }
}
