//! Seedable pseudo-random number generation and distribution sampling
//! for the `srm-bayes` workspace.
//!
//! The Gibbs sampler must be bit-reproducible: the paper's experiments
//! are re-run from fixed seeds, and CI asserts on posterior summaries.
//! We therefore implement the PRNGs and every sampler ourselves rather
//! than depending on an external crate whose stream may change between
//! versions.
//!
//! * [`rng`] — the [`Rng`] trait and the SplitMix64, xoshiro256\*\*
//!   and PCG64 generators (with jump/stream splitting for parallel
//!   chains).
//! * Continuous samplers: [`Uniform`], [`Normal`], [`Gamma`], [`Beta`],
//!   [`TruncatedGamma`].
//! * Discrete samplers: [`Poisson`], [`Binomial`], [`NegativeBinomial`].
//!
//! Every sampler implements the [`Distribution`] trait and exposes its
//! analytic `mean`/`variance` so tests can verify the stream against
//! closed forms.
//!
//! # Examples
//!
//! ```
//! use srm_rand::{Distribution, Gamma, SplitMix64};
//!
//! let mut rng = SplitMix64::seed_from(42);
//! let gamma = Gamma::new(3.0, 2.0).unwrap();
//! let draw = gamma.sample(&mut rng);
//! assert!(draw > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beta;
pub mod binomial;
pub mod error;
pub mod gamma;
pub mod negbinom;
pub mod normal;
pub mod poisson;
pub mod rng;
pub mod truncated;
pub mod uniform;

pub use beta::Beta;
pub use binomial::Binomial;
pub use error::DistributionError;
pub use gamma::Gamma;
pub use negbinom::NegativeBinomial;
pub use normal::Normal;
pub use poisson::Poisson;
pub use rng::{Pcg64, Rng, SplitMix64, Xoshiro256StarStar};
pub use truncated::TruncatedGamma;
pub use uniform::Uniform;

/// A sampleable probability distribution.
///
/// Implementors are cheap, validated value types; sampling borrows the
/// RNG mutably so a single generator threads through a whole MCMC
/// sweep.
pub trait Distribution {
    /// The sample type (`f64` for continuous, `u64` for counts, …).
    type Value;

    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Value;

    /// Draws `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Self::Value> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}
