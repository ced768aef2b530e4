//! Bootstrap resampling of grouped bug-count data.
//!
//! Used by the robustness extension: re-run the model ranking on
//! bootstrap replicates of the dataset and check that the WAIC winner
//! is stable. Daily counts are serially dependent (reliability
//! growth), so a *moving-block* bootstrap is used: blocks of
//! consecutive days are resampled with replacement and concatenated,
//! preserving short-range structure while randomising the long-range
//! arrangement.

use crate::dataset::BugCountData;
use srm_rand::{Pcg64, Rng};

/// Moving-block bootstrap resampler.
///
/// # Examples
///
/// ```
/// use srm_data::bootstrap::BlockBootstrap;
/// use srm_data::datasets;
///
/// let data = datasets::musa_cc96();
/// let boot = BlockBootstrap::new(12);
/// let replicate = boot.resample(&data, 7);
/// assert_eq!(replicate.len(), data.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockBootstrap {
    block_len: usize,
}

impl BlockBootstrap {
    /// Creates a resampler with the given block length.
    ///
    /// # Panics
    ///
    /// Panics if `block_len == 0`.
    #[must_use]
    pub fn new(block_len: usize) -> Self {
        assert!(block_len > 0, "block length must be positive");
        Self { block_len }
    }

    /// The block length.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// One bootstrap replicate of the same length as `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than the block length.
    #[must_use]
    pub fn resample(&self, data: &BugCountData, seed: u64) -> BugCountData {
        let mut rng = Pcg64::seed_stream(seed, 0xB00);
        self.resample_with(data, &mut rng)
    }

    /// One replicate drawing from the supplied RNG.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than the block length.
    pub fn resample_with<R: Rng + ?Sized>(&self, data: &BugCountData, rng: &mut R) -> BugCountData {
        let counts = data.counts();
        let k = counts.len();
        assert!(
            k >= self.block_len,
            "dataset ({k} days) shorter than block ({})",
            self.block_len
        );
        let starts = (k - self.block_len + 1) as u64;
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let start = rng.next_below(starts) as usize;
            let take = self.block_len.min(k - out.len());
            out.extend_from_slice(&counts[start..start + take]);
        }
        // Non-empty by the block-length assertion above.
        BugCountData::new(out).unwrap_or_else(|_| unreachable!())
    }

    /// `n` replicates with consecutive seeds.
    ///
    /// # Panics
    ///
    /// Panics if `data` is shorter than the block length.
    #[must_use]
    pub fn replicates(&self, data: &BugCountData, base_seed: u64, n: usize) -> Vec<BugCountData> {
        (0..n)
            .map(|i| self.resample(data, base_seed + i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_block_panics() {
        let _ = BlockBootstrap::new(0);
    }

    #[test]
    fn replicate_preserves_length() {
        let data = datasets::musa_cc96();
        let boot = BlockBootstrap::new(10);
        for seed in 0..5 {
            assert_eq!(boot.resample(&data, seed).len(), 96);
        }
    }

    #[test]
    fn replicates_differ_but_resemble_original() {
        let data = datasets::musa_cc96();
        let boot = BlockBootstrap::new(5);
        let reps = boot.replicates(&data, 11, 30);
        // Not all identical.
        assert!(reps.windows(2).any(|w| w[0] != w[1]));
        // Totals fluctuate around the original.
        let mean_total: f64 =
            reps.iter().map(|r| r.total() as f64).sum::<f64>() / reps.len() as f64;
        assert!(
            (mean_total - 136.0).abs() < 20.0,
            "mean total = {mean_total}"
        );
    }

    #[test]
    fn blocks_are_contiguous_slices_of_original() {
        // With block length 4 every aligned block in the replicate
        // must occur contiguously somewhere in the original.
        let data = BugCountData::new((1..=20u64).collect()).unwrap();
        let boot = BlockBootstrap::new(4);
        let rep = boot.resample(&data, 3);
        let original = data.counts();
        for chunk in rep.counts().chunks(4) {
            let found = original.windows(chunk.len()).any(|w| w == chunk);
            assert!(found, "chunk {chunk:?} not a contiguous slice");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = datasets::musa_cc96();
        let boot = BlockBootstrap::new(8);
        assert_eq!(boot.resample(&data, 42), boot.resample(&data, 42));
        assert_ne!(boot.resample(&data, 42), boot.resample(&data, 43));
    }
}
