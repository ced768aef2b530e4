//! Batch specification: one fit configuration applied to N datasets,
//! with deterministic content-keyed per-item seeds.
//!
//! # Seed-split contract
//!
//! A batch carries a single **master seed** (`spec.config.mcmc.seed`).
//! Each item derives its own seed from the master seed and the
//! *content* of its dataset — never from its position in the batch:
//!
//! ```text
//! item_seed = Pcg64::seed_stream(master, fnv1a64(counts)).next_u64() >> 32
//! ```
//!
//! Content keying gives the batch executor its two core invariants
//! for free:
//!
//! * **Permutation invariance** — reordering the items of a batch
//!   cannot change any item's seed, so per-item results are identical
//!   under any item ordering.
//! * **Duplicate coalescing** — two items with byte-identical counts
//!   share a seed (and a content key), so the executor fits the
//!   dataset once and serves the duplicate from the in-batch cache.
//!
//! The derived seed is truncated to 32 bits deliberately: job seeds
//! round-trip through JSON (`f64` numbers, bounded by `u32::MAX` at
//! the service's parse layer) and through `srm fit --seed` on the
//! command line, and the smoke tooling replays single fits from the
//! seeds a batch reports. A 32-bit seed survives every hop unchanged.

use srm_core::FitConfig;
use srm_data::BugCountData;
use srm_mcmc::{PriorSpec, RunOptions};
use srm_model::DetectionModel;
use srm_rand::{Pcg64, Rng};

/// One batch: a shared `(prior, model, fit-config)` triple applied to
/// every dataset, plus the fault/scheduling options of the run.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// The prior fitted to every item.
    pub prior: PriorSpec,
    /// The detection model fitted to every item.
    pub model: DetectionModel,
    /// MCMC lengths, zeta bounds, and the **master seed** the
    /// per-item seeds are split from.
    pub config: FitConfig,
    /// Fault handling and worker-pool sizing. `options.threads`
    /// bounds the pool the `(item, chain)` work units run on.
    pub options: RunOptions,
}

impl BatchSpec {
    /// The master seed of the batch.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.config.mcmc.seed
    }
}

/// The content key of a dataset: FNV-1a (64-bit) over its daily
/// counts as little-endian `u64`s — the same bytes
/// [`srm_obs::dataset_hash`] renders as hex.
#[must_use]
pub fn content_key(data: &BugCountData) -> u64 {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for &c in data.counts() {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    srm_obs::fnv1a64([bytes.as_slice()])
}

/// Derives an item's seed from the batch's master seed and the item's
/// dataset content (see the module docs for the full contract).
///
/// The result always fits in 32 bits, so it survives JSON (`f64`)
/// round-trips and the service's `u32::MAX` seed bound.
#[must_use]
pub fn item_seed(master: u64, data: &BugCountData) -> u64 {
    // PCG streams are O(1) to select (unlike Xoshiro jump streams,
    // which cost one 256-step jump per index — unusable with hash
    // indices), so the content key can address the stream directly.
    Pcg64::seed_stream(master, content_key(data)).next_u64() >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(counts: &[u64]) -> BugCountData {
        BugCountData::new(counts.to_vec()).unwrap()
    }

    #[test]
    fn item_seed_is_content_keyed_not_position_keyed() {
        let a = data(&[3, 1, 0, 2]);
        let b = data(&[3, 1, 0, 2]);
        let c = data(&[3, 1, 0, 1]);
        assert_eq!(item_seed(42, &a), item_seed(42, &b));
        assert_ne!(item_seed(42, &a), item_seed(42, &c));
        assert_ne!(item_seed(42, &a), item_seed(43, &a));
    }

    #[test]
    fn item_seed_fits_in_32_bits() {
        for master in [0_u64, 1, 42, u64::from(u32::MAX), u64::MAX] {
            let seed = item_seed(master, &data(&[1, 2, 3]));
            assert!(seed <= u64::from(u32::MAX), "seed {seed} exceeds 32 bits");
        }
    }

    #[test]
    fn content_key_matches_the_manifest_dataset_hash() {
        let d = data(&[5, 0, 2]);
        assert_eq!(
            format!("{:016x}", content_key(&d)),
            srm_obs::dataset_hash(d.counts())
        );
    }
}
