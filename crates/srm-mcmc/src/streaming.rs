//! Streaming in-sweep convergence accumulators.
//!
//! A [`ChainAccumulator`] ingests each kept draw row as the sampler
//! produces it and can snapshot a [`ChainCheckpoint`] at any moment in
//! O(parameters · lag window) work — no access to the chain's draw
//! history is needed. Per parameter it maintains:
//!
//! * whole-chain running moments (Welford, the same update sequence
//!   `diagnostics::psrf` applies internally, so cross-chain R̂
//!   aggregated from checkpoints matches the post-hoc value to
//!   floating-point round-off),
//! * first-half / second-half running moments keyed to the *planned*
//!   draw count, reproducing the post-hoc split used for split-R̂
//!   exactly at the final checkpoint,
//! * a fixed-lag autocovariance accumulator (ring buffer of the last
//!   `lag_window + 1` draws plus shifted-origin cross sums) whose
//!   `gamma(k)` equals the two-pass centred autocovariance of
//!   `diagnostics::autocorrelation` algebraically — ESS via Geyer's
//!   initial-positive-sequence rule then matches
//!   `diagnostics::effective_sample_size` whenever the truncation lag
//!   falls inside the window (and is an upper bound otherwise, since
//!   dropped positive tail mass can only shrink `tau`).
//!
//! Determinism contract: accumulators never touch the sampler's RNG
//! and only read rows the chain already kept, so runs with streaming
//! enabled are bit-identical to runs without (asserted in the
//! workspace observability tests).

use srm_math::RunningMoments;
use srm_obs::checkpoint::{ChainCheckpoint, MomentSummary, ParamCheckpoint};

/// Default autocovariance window: lags 0..=100 are tracked, matching
/// the region where Geyer truncation lands for chains that mix at all.
pub const DEFAULT_LAG_WINDOW: usize = 100;

/// Streaming accumulator for a single scalar parameter.
#[derive(Debug, Clone)]
pub struct ParamAccumulator {
    /// First observed value; draws are shifted by it before entering
    /// the autocovariance sums so catastrophic cancellation on large
    /// offsets (e.g. `n` near the total bug count) stays bounded.
    origin: f64,
    moments: RunningMoments,
    half1: RunningMoments,
    half2: RunningMoments,
    /// Planned kept draws (for half assignment).
    target: usize,
    lag_window: usize,
    /// Last `lag_window + 1` shifted draws.
    ring: Vec<f64>,
    /// Next write position in `ring`.
    pos: usize,
    /// `cross[k] = Σ_i y_i · y_{i−k}` over pushed shifted draws.
    cross: Vec<f64>,
    /// `head[k] = Σ first k shifted draws` for k ≤ lag window.
    head: Vec<f64>,
    /// Running sum of shifted draws.
    sum: f64,
}

impl ParamAccumulator {
    /// An empty accumulator expecting `target` kept draws.
    #[must_use]
    pub fn new(target: usize, lag_window: usize) -> Self {
        let cap = lag_window + 1;
        Self {
            origin: 0.0,
            moments: RunningMoments::default(),
            half1: RunningMoments::default(),
            half2: RunningMoments::default(),
            target,
            lag_window,
            ring: vec![0.0; cap],
            pos: 0,
            cross: vec![0.0; cap],
            head: vec![0.0; cap],
            sum: 0.0,
        }
    }

    /// Ingests one kept draw.
    pub fn push(&mut self, x: f64) {
        let n = self.moments.count() as usize;
        if n == 0 {
            self.origin = x;
        }
        let y = x - self.origin;
        let cap = self.lag_window + 1;
        for k in 1..=self.lag_window.min(n) {
            self.cross[k] += y * self.ring[(self.pos + cap - k) % cap];
        }
        self.cross[0] += y * y;
        self.ring[self.pos] = y;
        self.pos = (self.pos + 1) % cap;
        if n < self.lag_window {
            self.head[n + 1] = self.head[n] + y;
        }
        self.sum += y;
        self.moments.push(x);
        // Post-hoc split halves: first `target/2` draws vs the last
        // `target/2` (the middle draw of an odd target joins neither).
        if n < self.target / 2 {
            self.half1.push(x);
        }
        if n >= self.target - self.target / 2 {
            self.half2.push(x);
        }
    }

    /// Draws ingested so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Lag-`k` autocovariance with divisor `n` — algebraically equal
    /// to the two-pass `Σ (y_i − μ)(y_{i+k} − μ) / n` of
    /// `diagnostics::autocorrelation`. Only valid for `k` within the
    /// window and `k < n`.
    fn gamma(&self, k: usize) -> f64 {
        let n = self.moments.count() as usize;
        if n == 0 || k >= n || k > self.lag_window {
            return 0.0;
        }
        let nf = n as f64;
        let mu = self.sum / nf;
        let cap = self.lag_window + 1;
        // Sum of the k most recent shifted draws (the tail that has no
        // partner at lag k).
        let tail: f64 = (1..=k).map(|j| self.ring[(self.pos + cap - j) % cap]).sum();
        (self.cross[k] - mu * (2.0 * self.sum - self.head[k] - tail) + (n - k) as f64 * mu * mu)
            / nf
    }

    /// Geyer initial-positive-sequence ESS over the tracked window —
    /// the exact rule of `diagnostics::effective_sample_size`, except
    /// that truncation is also forced at the window edge (where the
    /// estimate becomes an upper bound on the post-hoc value).
    #[must_use]
    pub fn ess(&self) -> f64 {
        let n = self.moments.count() as usize;
        if n < 4 {
            return n as f64;
        }
        let nf = n as f64;
        let gamma0 = self.gamma(0);
        if gamma0 <= 0.0 {
            return nf;
        }
        let mut tau = 1.0;
        let mut lag = 1;
        while lag + 1 < n && lag < self.lag_window {
            let pair = self.gamma(lag) + self.gamma(lag + 1);
            if pair <= 0.0 {
                break;
            }
            tau += 2.0 * pair / gamma0;
            lag += 2;
        }
        (nf / tau).min(nf)
    }

    /// Monte-Carlo standard error `sqrt(sample variance / ESS)`.
    #[must_use]
    pub fn mcse(&self) -> f64 {
        let ess = self.ess();
        if ess <= 0.0 {
            return f64::INFINITY;
        }
        (self.moments.sample_variance() / ess).sqrt()
    }

    pub(crate) fn summary(moments: &RunningMoments) -> MomentSummary {
        MomentSummary {
            count: moments.count(),
            mean: moments.mean(),
            variance: moments.sample_variance(),
        }
    }

    /// Snapshot of this parameter's streaming state. `ess_per_sec`
    /// is left at 0; [`ChainAccumulator::checkpoint`] fills it from
    /// the chain's wall clock.
    #[must_use]
    pub fn checkpoint(&self, parameter: &str) -> ParamCheckpoint {
        ParamCheckpoint {
            parameter: parameter.to_string(),
            moments: Self::summary(&self.moments),
            half1: Self::summary(&self.half1),
            half2: Self::summary(&self.half2),
            ess: self.ess(),
            mcse: self.mcse(),
            ess_per_sec: 0.0,
        }
    }
}

/// Streaming accumulators for every column of one chain.
#[derive(Debug, Clone)]
pub struct ChainAccumulator {
    names: Vec<String>,
    params: Vec<ParamAccumulator>,
}

impl ChainAccumulator {
    /// Accumulators for the named columns, expecting `target` kept
    /// draws per chain (used for the split-half assignment).
    #[must_use]
    pub fn new<S: AsRef<str>>(names: &[S], target: usize) -> Self {
        Self {
            names: names.iter().map(|n| n.as_ref().to_string()).collect(),
            params: names
                .iter()
                .map(|_| ParamAccumulator::new(target, DEFAULT_LAG_WINDOW))
                .collect(),
        }
    }

    /// Ingests one kept draw row (same column order as `names`).
    pub fn push_row(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.params.len());
        for (acc, &x) in self.params.iter_mut().zip(row) {
            acc.push(x);
        }
    }

    /// Rows ingested so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.params.first().map_or(0, ParamAccumulator::count)
    }

    /// Snapshot of the whole chain's streaming state after `sweep`.
    ///
    /// `wall_ms` is the chain's wall-clock time so far; each
    /// parameter's `ess_per_sec` is its streaming ESS divided by that
    /// interval (0 while the clock has not advanced). The clock is
    /// the only nondeterministic input and feeds telemetry fields
    /// only — draw-derived statistics are untouched by it.
    #[must_use]
    pub fn checkpoint(
        &self,
        chain: usize,
        sweep: usize,
        kept: usize,
        wall_ms: f64,
    ) -> ChainCheckpoint {
        let wall_secs = wall_ms / 1e3;
        ChainCheckpoint {
            chain,
            sweep,
            kept,
            wall_ms,
            params: self
                .names
                .iter()
                .zip(&self.params)
                .map(|(name, acc)| {
                    let mut param = acc.checkpoint(name);
                    if wall_secs > 0.0 && param.ess.is_finite() {
                        param.ess_per_sec = param.ess / wall_secs;
                    }
                    param
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{autocorrelation, effective_sample_size, psrf};
    use srm_obs::checkpoint::psrf_from_moments;

    /// A deterministic AR(1)-ish series with known strong positive
    /// autocorrelation, no RNG needed.
    fn ar1(n: usize, rho: f64, seed: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        let mut x = seed;
        let mut u = 0.5f64;
        for _ in 0..n {
            // Deterministic pseudo-noise via a logistic map.
            u = 3.99 * u * (1.0 - u);
            x = rho * x + (u - 0.5);
            out.push(x);
        }
        out
    }

    fn accumulate(draws: &[f64]) -> ParamAccumulator {
        let mut acc = ParamAccumulator::new(draws.len(), DEFAULT_LAG_WINDOW);
        for &x in draws {
            acc.push(x);
        }
        acc
    }

    #[test]
    fn streaming_gamma_matches_two_pass_autocovariance() {
        let draws = ar1(500, 0.8, 0.3);
        let acc = accumulate(&draws);
        // diagnostics::autocorrelation returns rho_k = gamma_k/gamma_0.
        let rho = autocorrelation(&draws, 40);
        let gamma0 = acc.gamma(0);
        assert!(gamma0 > 0.0);
        for (k, &two_pass) in rho.iter().enumerate() {
            let streamed = acc.gamma(k) / gamma0;
            assert!(
                (streamed - two_pass).abs() < 1e-9,
                "lag {k}: streamed {streamed} vs two-pass {two_pass}"
            );
        }
    }

    #[test]
    fn streaming_gamma_is_offset_invariant() {
        let base = ar1(300, 0.5, 0.7);
        let shifted: Vec<f64> = base.iter().map(|x| x + 1.0e6).collect();
        let a = accumulate(&base);
        let b = accumulate(&shifted);
        for k in [0, 1, 5, 20] {
            assert!(
                (a.gamma(k) - b.gamma(k)).abs() < 1e-4 * a.gamma(0).abs().max(1.0),
                "lag {k} drifted under offset"
            );
        }
    }

    #[test]
    fn streaming_ess_matches_post_hoc_on_correlated_and_white_chains() {
        for (rho, seed) in [(0.8, 0.3), (0.0, 0.61), (0.95, 0.11)] {
            let draws = ar1(600, rho, seed);
            let acc = accumulate(&draws);
            let post_hoc = effective_sample_size(&draws);
            let streamed = acc.ess();
            // Exact whenever Geyer truncates inside the lag window;
            // a strongly-correlated chain may hit the window edge,
            // where streaming is an upper bound.
            if streamed <= post_hoc + 1e-6 {
                assert!(
                    (streamed - post_hoc).abs() < 1e-6 * post_hoc.max(1.0) + 1e-9
                        || streamed >= post_hoc,
                    "rho {rho}: streamed {streamed} vs post-hoc {post_hoc}"
                );
            }
            assert!(
                streamed >= post_hoc - 1e-6 * post_hoc,
                "streaming ESS must never under-report: {streamed} < {post_hoc}"
            );
            if rho < 0.9 {
                assert!(
                    (streamed - post_hoc).abs() < 1e-6 * post_hoc,
                    "rho {rho}: expected exact agreement, got {streamed} vs {post_hoc}"
                );
            }
        }
    }

    #[test]
    fn tiny_chains_report_their_own_length() {
        let acc = accumulate(&[1.0, 2.0, 3.0]);
        assert_eq!(acc.ess(), 3.0);
        let empty = ParamAccumulator::new(10, DEFAULT_LAG_WINDOW);
        assert_eq!(empty.ess(), 0.0);
    }

    #[test]
    fn halves_match_post_hoc_split_at_completion() {
        for n in [100usize, 101] {
            let draws = ar1(n, 0.6, 0.37);
            let acc = accumulate(&draws);
            let cp = acc.checkpoint("x");
            let half = n / 2;
            let first: RunningMoments = draws[..half].iter().copied().collect();
            let last: RunningMoments = draws[n - half..].iter().copied().collect();
            assert_eq!(cp.half1.count, first.count());
            assert_eq!(cp.half2.count, last.count());
            assert!((cp.half1.mean - first.mean()).abs() < 1e-12);
            assert!((cp.half2.mean - last.mean()).abs() < 1e-12);
            assert!((cp.half1.variance - first.sample_variance()).abs() < 1e-12);
            assert!((cp.half2.variance - last.sample_variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn moment_based_psrf_matches_diagnostics_psrf() {
        let a = ar1(400, 0.7, 0.21);
        let b = ar1(400, 0.7, 0.77);
        let chains: [&[f64]; 2] = [&a, &b];
        let post_hoc = psrf(&chains);
        let blocks = [
            MomentSummary {
                count: accumulate(&a).moments.count(),
                mean: accumulate(&a).moments.mean(),
                variance: accumulate(&a).moments.sample_variance(),
            },
            MomentSummary {
                count: accumulate(&b).moments.count(),
                mean: accumulate(&b).moments.mean(),
                variance: accumulate(&b).moments.sample_variance(),
            },
        ];
        let streamed = psrf_from_moments(&blocks);
        assert!(
            (streamed - post_hoc).abs() < 1e-9,
            "streamed {streamed} vs post-hoc {post_hoc}"
        );
    }

    #[test]
    fn split_halves_feed_a_split_rhat_matching_psrf_over_half_slices() {
        let a = ar1(400, 0.7, 0.21);
        let b = ar1(400, 0.7, 0.77);
        let half = 200;
        let slices: [&[f64]; 4] = [&a[..half], &a[half..], &b[..half], &b[half..]];
        let post_hoc = psrf(&slices);
        let blocks: Vec<MomentSummary> = [&a, &b]
            .iter()
            .flat_map(|draws| {
                let cp = accumulate(draws).checkpoint("x");
                [cp.half1, cp.half2]
            })
            .collect();
        let streamed = psrf_from_moments(&blocks);
        assert!(
            (streamed - post_hoc).abs() < 1e-9,
            "streamed split {streamed} vs post-hoc {post_hoc}"
        );
    }

    #[test]
    fn chain_accumulator_snapshots_all_columns() {
        let mut acc = ChainAccumulator::new(&["residual", "n"], 50);
        for i in 0..50 {
            acc.push_row(&[i as f64, 90.0 + (i % 3) as f64]);
        }
        assert_eq!(acc.count(), 50);
        let cp = acc.checkpoint(2, 149, 50, 2_000.0);
        assert_eq!(cp.chain, 2);
        assert_eq!(cp.sweep, 149);
        assert_eq!(cp.kept, 50);
        assert_eq!(cp.wall_ms, 2_000.0);
        assert_eq!(cp.params.len(), 2);
        assert_eq!(cp.params[0].parameter, "residual");
        assert_eq!(cp.params[0].moments.count, 50);
        assert!((cp.params[0].moments.mean - 24.5).abs() < 1e-12);
        assert!((cp.params[0].ess_per_sec - cp.params[0].ess / 2.0).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_rate_is_zero_before_the_clock_advances() {
        let mut acc = ChainAccumulator::new(&["x"], 10);
        for i in 0..10 {
            acc.push_row(&[i as f64]);
        }
        let cp = acc.checkpoint(0, 9, 10, 0.0);
        assert_eq!(cp.params[0].ess_per_sec, 0.0);
        assert!(cp.params[0].ess > 0.0);
    }

    #[test]
    fn mcse_is_sqrt_variance_over_ess() {
        let draws = ar1(300, 0.5, 0.4);
        let acc = accumulate(&draws);
        let expected = (acc.moments.sample_variance() / acc.ess()).sqrt();
        assert!((acc.mcse() - expected).abs() < 1e-12);
    }
}
