//! The batch executor: N datasets, one pass, chains scheduled across
//! datasets, per-item results bit-identical to N individual fits.
//!
//! # How a batch runs
//!
//! 1. Items are fingerprinted; items with byte-identical counts
//!    collapse onto one **primary** (first occurrence) — duplicates
//!    never sample (the in-batch cache; see
//!    [`BatchReport::cache_hits`]).
//! 2. Each primary gets a content-keyed seed
//!    ([`crate::spec::item_seed`]), its own sampler, and its own base
//!    RNG — the same objects a lone `Fit::try_run_traced` with that
//!    seed would build.
//! 3. All `primaries × chains` work units go onto the one worker pool
//!    ([`srm_mcmc::run_pool`]), so chains of different datasets fill
//!    it together with no per-dataset barrier; unit `u` runs
//!    [`srm_mcmc::run_chain_task`] for chain `u % chains` of primary
//!    `u / chains`. A unit's draws depend only on `(dataset, seed,
//!    chain index)` — never on the pool size or dispatch order.
//! 4. After the pool drains, each item is assembled *in item order*:
//!    [`srm_mcmc::assemble_run`] + [`srm_core::Fit::from_run_traced`]
//!    — the exact tail of the single-dataset path, so draws,
//!    summaries, WAIC, diagnostics, and the event trace are all
//!    bit-identical to N individual runs.
//!
//! The recorder contract matches the single-fit path: chain events
//! are buffered per chain and replayed in order at assembly, so the
//! trace of item `i` is byte-identical to the trace of a lone fit of
//! that dataset, bracketed by `batch-start` / `batch-item-done` /
//! `batch-done` events.

use crate::report::{BatchReport, ItemReport, ItemStatus};
use crate::spec::{content_key, item_seed, BatchSpec};
use srm_core::Fit;
use srm_data::BugCountData;
use srm_mcmc::{
    assemble_run, run_chain_task, run_pool, ChainOutcome, GibbsSampler, McmcConfig, SrmError,
};
use srm_obs::{Event, Recorder, NOOP};
use srm_rand::Xoshiro256StarStar;
use std::collections::HashMap;
use std::time::Instant;

/// Runs a batch without instrumentation.
///
/// # Errors
///
/// Returns [`SrmError::InvalidConfig`] when `chains == 0`. Per-item
/// failures (every chain of one item lost, degenerate posterior) are
/// *not* errors — they land in that item's [`ItemReport`].
pub fn run_batch(
    spec: &BatchSpec,
    items: &[(String, BugCountData)],
    batch_id: &str,
) -> Result<BatchReport, SrmError> {
    run_batch_traced(spec, items, batch_id, &NOOP)
}

/// [`run_batch`] with instrumentation: emits `batch-start`, one
/// `batch-item-done` per item (in item order), and `batch-done`, with
/// each item's chain/WAIC/diagnostic events in between — the per-item
/// stretch of the trace is byte-identical to a lone fit's trace.
///
/// # Errors
///
/// Same contract as [`run_batch`].
pub fn run_batch_traced(
    spec: &BatchSpec,
    items: &[(String, BugCountData)],
    batch_id: &str,
    recorder: &dyn Recorder,
) -> Result<BatchReport, SrmError> {
    let chains = spec.config.mcmc.chains;
    if chains == 0 {
        return Err(SrmError::InvalidConfig {
            detail: "chains must be >= 1".into(),
        });
    }
    let master = spec.master_seed();
    let on = recorder.enabled();
    let started = Instant::now();
    if on {
        recorder.record(&Event::BatchStart {
            batch_id: batch_id.to_string(),
            items: items.len(),
            master_seed: master,
        });
    }

    let n = items.len();

    // Duplicate coalescing: the first item with a given content key
    // is the primary; later identical items alias it.
    let mut first_seen: HashMap<u64, usize> = HashMap::new();
    let mut primary_of: Vec<usize> = Vec::with_capacity(n);
    let mut primaries: Vec<usize> = Vec::new();
    let mut seeds: Vec<u64> = Vec::with_capacity(n);
    let mut hashes: Vec<String> = Vec::with_capacity(n);
    for (i, (_, data)) in items.iter().enumerate() {
        let key = content_key(data);
        seeds.push(item_seed(master, data));
        hashes.push(srm_obs::dataset_hash(data.counts()));
        let primary = *first_seen.entry(key).or_insert(i);
        primary_of.push(primary);
        if primary == i {
            primaries.push(i);
        }
    }
    // Primary `j` of `primaries` fits item `primaries[j]`.
    let slot_of: HashMap<usize, usize> =
        primaries.iter().enumerate().map(|(j, &i)| (i, j)).collect();

    // Build the exact sampler + base RNG a lone fit with each
    // primary's seed would use.
    let samplers: Vec<GibbsSampler> = primaries
        .iter()
        .map(|&i| GibbsSampler::new(spec.prior, spec.model, spec.config.zeta_bounds, &items[i].1))
        .collect();
    let configs: Vec<McmcConfig> = primaries
        .iter()
        .map(|&i| McmcConfig {
            seed: seeds[i],
            ..spec.config.mcmc
        })
        .collect();
    let bases: Vec<Xoshiro256StarStar> = configs
        .iter()
        .map(|c| Xoshiro256StarStar::seed_from(c.seed))
        .collect();

    // One pool over every (primary, chain) unit: unit `u` is chain
    // `u % chains` of primary `u / chains`. A unit lost to a panic is
    // a missing slot, which `assemble_run` reports as a lost chain.
    let flat = run_pool(primaries.len() * chains, spec.options.threads, |u| {
        let (p, c) = (u / chains, u % chains);
        run_chain_task(
            &samplers[p],
            &bases[p],
            &configs[p],
            &spec.options,
            recorder,
            c,
        )
    });

    // Regroup the flat slot vector into per-primary chain slots.
    let mut per_primary: Vec<Vec<Option<ChainOutcome>>> = Vec::with_capacity(primaries.len());
    let mut flat = flat.into_iter();
    for _ in 0..primaries.len() {
        per_primary.push(flat.by_ref().take(chains).collect());
    }

    // Assemble in item order; duplicates clone their primary's result.
    let mut reports: Vec<ItemReport> = Vec::with_capacity(n);
    let mut cache_hits = 0_usize;
    for i in 0..n {
        let primary = primary_of[i];
        let mut report = if primary == i {
            let j = slot_of.get(&primary).copied().unwrap_or_default();
            let slots = std::mem::take(&mut per_primary[j]);
            let wall_ms: f64 = slots.iter().flatten().map(|o| o.wall_ms).sum();
            let assembled = assemble_run(&configs[j], slots, recorder).and_then(|run| {
                Fit::from_run_traced(spec.prior, spec.model, &samplers[j], run, recorder)
            });
            match assembled {
                Ok(fit) => ItemReport {
                    index: i,
                    label: items[i].0.clone(),
                    dataset_hash: hashes[i].clone(),
                    seed: seeds[i],
                    cached: false,
                    status: if fit.is_degraded() {
                        ItemStatus::Degraded
                    } else {
                        ItemStatus::Done
                    },
                    error: None,
                    fit: Some(fit),
                    wall_ms,
                },
                Err(e) => ItemReport {
                    index: i,
                    label: items[i].0.clone(),
                    dataset_hash: hashes[i].clone(),
                    seed: seeds[i],
                    cached: false,
                    status: ItemStatus::Failed,
                    error: Some(e.to_string()),
                    fit: None,
                    wall_ms,
                },
            }
        } else {
            // In-batch cache hit: identical counts → identical seed →
            // the primary's fit IS this item's fit. No sampling.
            cache_hits += 1;
            let source = &reports[primary];
            ItemReport {
                index: i,
                label: items[i].0.clone(),
                dataset_hash: hashes[i].clone(),
                seed: seeds[i],
                cached: true,
                status: source.status,
                error: source.error.clone(),
                fit: source.fit.clone(),
                wall_ms: 0.0,
            }
        };
        report.index = i;
        if on {
            recorder.record(&Event::BatchItemDone {
                batch_id: batch_id.to_string(),
                item: i,
                label: report.label.clone(),
                status: report.status.as_str().to_string(),
                cached: report.cached,
                wall_ms: report.wall_ms,
            });
        }
        reports.push(report);
    }

    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = BatchReport {
        batch_id: batch_id.to_string(),
        master_seed: master,
        items: reports,
        cache_hits,
        wall_ms,
    };
    if on {
        recorder.record(&Event::BatchDone {
            batch_id: batch_id.to_string(),
            items: report.items.len(),
            failed: report.failed(),
            cache_hits,
            wall_ms,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_core::FitConfig;
    use srm_mcmc::RunOptions;

    fn data(counts: &[u64]) -> BugCountData {
        BugCountData::new(counts.to_vec()).unwrap()
    }

    fn smoke_spec(master: u64) -> BatchSpec {
        BatchSpec {
            prior: srm_mcmc::PriorSpec::Poisson {
                lambda_max: 2_000.0,
            },
            model: srm_model::DetectionModel::Constant,
            config: FitConfig {
                mcmc: McmcConfig {
                    chains: 2,
                    burn_in: 30,
                    samples: 60,
                    thin: 1,
                    seed: master,
                },
                ..FitConfig::default()
            },
            options: RunOptions::none(),
        }
    }

    fn smoke_items() -> Vec<(String, BugCountData)> {
        vec![
            ("alpha".to_string(), data(&[4, 3, 2, 1, 0, 1, 0, 0])),
            ("beta".to_string(), data(&[1, 0, 2, 5, 1, 0, 0, 1])),
            ("gamma".to_string(), data(&[2, 2, 1])),
        ]
    }

    #[test]
    fn zero_chains_is_rejected() {
        let mut spec = smoke_spec(1);
        spec.config.mcmc.chains = 0;
        let err = run_batch(&spec, &smoke_items(), "b").unwrap_err();
        assert!(matches!(err, SrmError::InvalidConfig { .. }));
    }

    #[test]
    fn empty_batch_yields_an_empty_report() {
        let report = run_batch(&smoke_spec(1), &[], "b").unwrap();
        assert!(report.items.is_empty());
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn batch_items_are_bit_identical_to_individual_fits() {
        let spec = smoke_spec(2_024);
        let items = smoke_items();
        let report = run_batch(&spec, &items, "b").unwrap();
        assert_eq!(report.items.len(), 3);
        for (item, (label, dataset)) in report.items.iter().zip(&items) {
            assert_eq!(&item.label, label);
            // A lone fit with the item's derived seed must match
            // bit-for-bit.
            let mut config = spec.config;
            config.mcmc.seed = item.seed;
            let lone =
                Fit::try_run(spec.prior, spec.model, dataset, &config, &spec.options).unwrap();
            let batch_fit = item.fit.as_ref().unwrap();
            assert_eq!(batch_fit.fit.residual_draws, lone.fit.residual_draws);
            assert_eq!(
                batch_fit.fit.residual.mean.to_bits(),
                lone.fit.residual.mean.to_bits()
            );
            assert_eq!(
                batch_fit.fit.waic.total().to_bits(),
                lone.fit.waic.total().to_bits()
            );
            assert_eq!(batch_fit.fit.output, lone.fit.output);
        }
    }

    #[test]
    fn results_are_invariant_under_item_permutation_and_thread_count() {
        let spec = smoke_spec(7);
        let items = smoke_items();
        let mut permuted = items.clone();
        permuted.rotate_left(1);
        let baseline = run_batch(&spec, &items, "b").unwrap();
        for threads in [1_usize, 2, 4] {
            let mut spec_t = spec.clone();
            spec_t.options = RunOptions::with_threads(threads);
            let report = run_batch(&spec_t, &permuted, "b").unwrap();
            for item in &report.items {
                let reference = baseline
                    .items
                    .iter()
                    .find(|r| r.label == item.label)
                    .unwrap();
                assert_eq!(item.seed, reference.seed, "threads={threads}");
                let (a, b) = (item.fit.as_ref().unwrap(), reference.fit.as_ref().unwrap());
                assert_eq!(
                    a.fit.residual_draws, b.fit.residual_draws,
                    "threads={threads}"
                );
                assert_eq!(a.fit.output, b.fit.output, "threads={threads}");
            }
        }
    }

    #[test]
    fn duplicate_datasets_fit_once_and_emit_no_extra_sampling_events() {
        let spec = smoke_spec(11);
        let base = data(&[3, 1, 4, 1, 5]);
        let items = vec![
            ("first".to_string(), base.clone()),
            ("twin".to_string(), base.clone()),
            ("other".to_string(), data(&[2, 7, 1, 8, 2])),
        ];
        let counter = ChainStartCounter::default();
        let report = run_batch_traced(&spec, &items, "b", &counter).unwrap();
        assert_eq!(report.cache_hits, 1);
        let twin = &report.items[1];
        assert!(twin.cached);
        assert_eq!(twin.seed, report.items[0].seed);
        assert_eq!(twin.wall_ms, 0.0);
        let (a, b) = (
            report.items[0].fit.as_ref().unwrap(),
            twin.fit.as_ref().unwrap(),
        );
        assert_eq!(a.fit.residual_draws, b.fit.residual_draws);
        // Only the two distinct datasets sampled: 2 primaries × 2
        // chains of chain-start events, not 3 × 2 — the cached twin
        // contributed zero sampling events.
        assert_eq!(
            counter
                .chain_starts
                .load(std::sync::atomic::Ordering::Relaxed),
            2 * 2
        );
    }

    /// Counts `chain-start` events: sampling happened iff it ticks.
    #[derive(Default)]
    struct ChainStartCounter {
        chain_starts: std::sync::atomic::AtomicUsize,
    }

    impl Recorder for ChainStartCounter {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&self, event: &Event) {
            if matches!(event, Event::ChainStart { .. }) {
                self.chain_starts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
}
