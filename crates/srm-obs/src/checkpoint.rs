//! Typed payloads for `diagnostic-checkpoint` events and their
//! cross-chain aggregation.
//!
//! The engine emits one checkpoint per chain (deterministic for any
//! thread count — each carries only that chain's state), so anything
//! cross-chain (R̂, split-R̂, pooled MCSE) is computed at the consumer
//! from the per-chain moment summaries carried in the payload. The
//! aggregation here uses exactly the Gelman–Rubin formula of
//! `srm_mcmc::diagnostics::psrf` — W is the mean of within-chain
//! sample variances, B/n the variance of the chain means — so a final
//! checkpoint aggregate agrees with the post-hoc report up to
//! floating-point round-off.

use crate::json::Value;

/// Streaming moment summary of a block of draws (a chain, or one half
/// of a chain for split-R̂).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MomentSummary {
    /// Number of draws in the block.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (divides by `n − 1`; 0 below n = 2).
    pub variance: f64,
}

impl MomentSummary {
    /// JSON payload (`{n, mean, variance}`).
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("n", Value::Num(self.count as f64)),
            ("mean", Value::Num(self.mean)),
            ("variance", Value::Num(self.variance)),
        ])
    }

    /// Parses the payload written by [`MomentSummary::to_value`].
    #[must_use]
    pub fn from_value(value: &Value) -> Option<Self> {
        Some(Self {
            count: value.get("n")?.as_f64()? as u64,
            mean: value.get("mean")?.as_f64()?,
            variance: value.get("variance")?.as_f64()?,
        })
    }
}

/// One parameter's streaming summary at a checkpoint: whole-chain
/// moments, first/second-half moments (for split-R̂), and the chain's
/// own ESS/MCSE from the in-sweep autocovariance accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamCheckpoint {
    /// Parameter name (chain column).
    pub parameter: String,
    /// Whole-chain moments over the kept draws so far.
    pub moments: MomentSummary,
    /// Moments of the first half of the *planned* draws.
    pub half1: MomentSummary,
    /// Moments of the last half of the planned draws (fills only once
    /// the chain passes its midpoint; see `srm_mcmc::streaming`).
    pub half2: MomentSummary,
    /// Per-chain effective sample size (Geyer initial positive
    /// sequence over the fixed-lag autocovariance window).
    pub ess: f64,
    /// Per-chain Monte-Carlo standard error `sqrt(variance / ess)`.
    pub mcse: f64,
    /// Effective samples per wall-clock second of this chain
    /// (`ess / (wall_ms / 1000)`; 0 before the clock has advanced).
    pub ess_per_sec: f64,
}

impl ParamCheckpoint {
    /// JSON payload of one parameter entry.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("parameter", Value::Str(self.parameter.clone())),
            ("n", Value::Num(self.moments.count as f64)),
            ("mean", Value::Num(self.moments.mean)),
            ("variance", Value::Num(self.moments.variance)),
            ("half1", self.half1.to_value()),
            ("half2", self.half2.to_value()),
            ("ess", Value::Num(self.ess)),
            ("mcse", Value::Num(self.mcse)),
            ("ess_per_sec", Value::Num(self.ess_per_sec)),
        ])
    }

    /// Parses the payload written by [`ParamCheckpoint::to_value`].
    #[must_use]
    pub fn from_value(value: &Value) -> Option<Self> {
        Some(Self {
            parameter: value.get("parameter")?.as_str()?.to_owned(),
            moments: MomentSummary {
                count: value.get("n")?.as_f64()? as u64,
                mean: value.get("mean")?.as_f64()?,
                variance: value.get("variance")?.as_f64()?,
            },
            half1: MomentSummary::from_value(value.get("half1")?)?,
            half2: MomentSummary::from_value(value.get("half2")?)?,
            // Non-finite ESS/MCSE serialise as JSON null; recover NaN.
            ess: value.get("ess")?.as_f64().unwrap_or(f64::NAN),
            mcse: value.get("mcse")?.as_f64().unwrap_or(f64::NAN),
            // Absent on schema ≤ 3 traces; default to 0.
            ess_per_sec: value
                .get("ess_per_sec")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// One chain's full `diagnostic-checkpoint` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCheckpoint {
    /// Chain index.
    pub chain: usize,
    /// Index of the most recently completed sweep (0-based,
    /// monotonically increasing within a chain).
    pub sweep: usize,
    /// Post-thinning draws kept so far.
    pub kept: usize,
    /// Wall-clock milliseconds since this chain started sampling,
    /// measured at checkpoint emission. Nondeterministic (a clock
    /// reading), unlike every other field.
    pub wall_ms: f64,
    /// Per-parameter streaming summaries, in chain column order.
    pub params: Vec<ParamCheckpoint>,
}

impl ChainCheckpoint {
    /// Parses a full `diagnostic-checkpoint` JSON record (as found on
    /// a JSONL trace line) back into the typed payload. The `accept`
    /// array of a schema ≤ 8 record is ignored.
    #[must_use]
    pub fn from_value(value: &Value) -> Option<Self> {
        let params = value
            .get("params")?
            .as_arr()?
            .iter()
            .map(ParamCheckpoint::from_value)
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            chain: value.get("chain")?.as_f64()? as usize,
            sweep: value.get("sweep")?.as_f64()? as usize,
            kept: value.get("kept")?.as_f64()? as usize,
            // Absent on schema ≤ 3 traces; default to 0.
            wall_ms: value.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
            params,
        })
    }
}

/// A cross-chain convergence summary for one parameter, computed from
/// the latest checkpoint of each chain.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateDiagnostic {
    /// Parameter name.
    pub parameter: String,
    /// Pooled mean across chains.
    pub mean: f64,
    /// Whole-chain Gelman–Rubin R̂ (NaN below two chains).
    pub rhat: f64,
    /// Split-R̂ over the `2m` chain halves (NaN until at least two
    /// halves hold two draws each).
    pub split_rhat: f64,
    /// Total effective sample size (sum of per-chain ESS).
    pub ess: f64,
    /// Aggregate MCSE: `sqrt(pooled variance / total ESS)`.
    pub mcse: f64,
    /// Total ESS divided by the sum of the chains' wall-clock seconds.
    /// Chains running in parallel sum their clocks, but a chain that
    /// shares a core with another keeps its clock running while it
    /// waits, so on an oversubscribed host this is below ESS per
    /// CPU-second. 0 before any chain's clock has advanced.
    pub ess_per_sec: f64,
}

impl AggregateDiagnostic {
    /// JSON payload of one aggregate entry.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("parameter", Value::Str(self.parameter.clone())),
            ("mean", Value::Num(self.mean)),
            ("rhat", Value::Num(self.rhat)),
            ("split_rhat", Value::Num(self.split_rhat)),
            ("ess", Value::Num(self.ess)),
            ("mcse", Value::Num(self.mcse)),
            ("ess_per_sec", Value::Num(self.ess_per_sec)),
        ])
    }
}

/// Gelman–Rubin R̂ from per-block moment summaries — the one PSRF
/// formula: `srm_mcmc::diagnostics::psrf` evaluates it on each raw
/// chain's moments, checkpoints on streamed moments. `n` (the
/// per-chain draw count entering the `(n−1)/n` shrink factor) is
/// taken as the smallest block count, so equal-length blocks (every
/// completed run) reproduce the post-hoc value exactly. Returns NaN
/// below two blocks or below two draws in the shortest block.
#[must_use]
pub fn psrf_from_moments(blocks: &[MomentSummary]) -> f64 {
    let m = blocks.len();
    if m < 2 {
        return f64::NAN;
    }
    let n = blocks.iter().map(|b| b.count).min().unwrap_or(0);
    if n < 2 {
        return f64::NAN;
    }
    let nf = n as f64;
    let mf = m as f64;
    let w: f64 = blocks.iter().map(|b| b.variance).sum::<f64>() / mf;
    let grand: f64 = blocks.iter().map(|b| b.mean).sum::<f64>() / mf;
    let b_over_n: f64 = blocks.iter().map(|b| (b.mean - grand).powi(2)).sum::<f64>() / (mf - 1.0);
    if w <= 0.0 {
        // All blocks constant: converged by definition unless the
        // means disagree.
        return if b_over_n <= 0.0 { 1.0 } else { f64::INFINITY };
    }
    let v_hat = (nf - 1.0) / nf * w + b_over_n;
    (v_hat / w).sqrt()
}

/// Merges moment summaries (Chan's parallel-Welford update) — used to
/// pool per-chain moments for the aggregate mean and MCSE.
fn merge_moments(blocks: &[MomentSummary]) -> MomentSummary {
    let mut acc = MomentSummary::default();
    let mut m2 = 0.0f64;
    for b in blocks {
        if b.count == 0 {
            continue;
        }
        let b_m2 = b.variance * (b.count.saturating_sub(1)) as f64;
        if acc.count == 0 {
            acc = *b;
            m2 = b_m2;
            continue;
        }
        let total = acc.count + b.count;
        let delta = b.mean - acc.mean;
        acc.mean += delta * b.count as f64 / total as f64;
        m2 += b_m2 + delta * delta * (acc.count as f64) * (b.count as f64) / total as f64;
        acc.count = total;
    }
    acc.variance = if acc.count < 2 {
        0.0
    } else {
        m2 / (acc.count - 1) as f64
    };
    acc
}

/// Computes per-parameter cross-chain convergence summaries from the
/// latest checkpoint of each chain. Parameters are matched by name
/// (the engine emits identical column orders on every chain); chains
/// missing a parameter are skipped for that entry.
#[must_use]
pub fn aggregate(checkpoints: &[&ChainCheckpoint]) -> Vec<AggregateDiagnostic> {
    let Some(first) = checkpoints.first() else {
        return Vec::new();
    };
    first
        .params
        .iter()
        .map(|lead| {
            let per_chain: Vec<(&ChainCheckpoint, &ParamCheckpoint)> = checkpoints
                .iter()
                .filter_map(|c| {
                    c.params
                        .iter()
                        .find(|p| p.parameter == lead.parameter)
                        .map(|p| (*c, p))
                })
                .collect();
            let moments: Vec<MomentSummary> = per_chain.iter().map(|(_, p)| p.moments).collect();
            let halves: Vec<MomentSummary> = per_chain
                .iter()
                .flat_map(|(_, p)| [p.half1, p.half2])
                .filter(|h| h.count >= 2)
                .collect();
            let pooled = merge_moments(&moments);
            let ess: f64 = per_chain.iter().map(|(_, p)| p.ess).sum();
            let mcse = if ess > 0.0 {
                (pooled.variance / ess).sqrt()
            } else {
                f64::INFINITY
            };
            let wall_secs: f64 = per_chain.iter().map(|(c, _)| c.wall_ms).sum::<f64>() / 1e3;
            let ess_per_sec = if wall_secs > 0.0 && ess.is_finite() {
                ess / wall_secs
            } else {
                0.0
            };
            AggregateDiagnostic {
                parameter: lead.parameter.clone(),
                mean: pooled.mean,
                rhat: psrf_from_moments(&moments),
                split_rhat: psrf_from_moments(&halves),
                ess,
                mcse,
                ess_per_sec,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments_of(draws: &[f64]) -> MomentSummary {
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        MomentSummary {
            count: draws.len() as u64,
            mean,
            variance: var,
        }
    }

    fn checkpoint(chain: usize, draws: &[f64], ess: f64) -> ChainCheckpoint {
        let half = draws.len() / 2;
        ChainCheckpoint {
            chain,
            sweep: draws.len() - 1,
            kept: draws.len(),
            wall_ms: 500.0,
            params: vec![ParamCheckpoint {
                parameter: "residual".into(),
                moments: moments_of(draws),
                half1: moments_of(&draws[..half]),
                half2: moments_of(&draws[draws.len() - half..]),
                ess,
                mcse: (moments_of(draws).variance / ess).sqrt(),
                ess_per_sec: ess / 0.5,
            }],
        }
    }

    #[test]
    fn psrf_from_moments_matches_direct_formula() {
        let a: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| ((i * 53) % 97) as f64).collect();
        let blocks = [moments_of(&a), moments_of(&b)];
        let nf = 200.0;
        let w = (blocks[0].variance + blocks[1].variance) / 2.0;
        let grand = (blocks[0].mean + blocks[1].mean) / 2.0;
        let b_over_n = (blocks[0].mean - grand).powi(2) + (blocks[1].mean - grand).powi(2);
        let expected = (((nf - 1.0) / nf * w + b_over_n) / w).sqrt();
        assert!((psrf_from_moments(&blocks) - expected).abs() < 1e-12);
    }

    #[test]
    fn psrf_degenerate_cases() {
        let constant = MomentSummary {
            count: 10,
            mean: 3.0,
            variance: 0.0,
        };
        assert!(psrf_from_moments(&[constant]).is_nan());
        assert_eq!(psrf_from_moments(&[constant, constant]), 1.0);
        let shifted = MomentSummary {
            mean: 4.0,
            ..constant
        };
        assert_eq!(
            psrf_from_moments(&[constant, shifted]),
            f64::INFINITY,
            "constant chains with different means diverge"
        );
        let short = MomentSummary {
            count: 1,
            mean: 0.0,
            variance: 0.0,
        };
        assert!(psrf_from_moments(&[short, short]).is_nan());
    }

    #[test]
    fn aggregate_pools_means_and_sums_ess() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| (i as f64) + 10.0).collect();
        let ca = checkpoint(0, &a, 50.0);
        let cb = checkpoint(1, &b, 70.0);
        let agg = aggregate(&[&ca, &cb]);
        assert_eq!(agg.len(), 1);
        let d = &agg[0];
        assert_eq!(d.parameter, "residual");
        assert!((d.ess - 120.0).abs() < 1e-12);
        let pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let expect = moments_of(&pooled);
        assert!((d.mean - expect.mean).abs() < 1e-9);
        assert!((d.mcse - (expect.variance / 120.0).sqrt()).abs() < 1e-9);
        assert!(d.rhat.is_finite() && d.rhat >= 1.0);
        assert!(d.split_rhat.is_finite());
        // Two chains at 500 ms each: 120 ESS over one CPU-second.
        assert!((d.ess_per_sec - 120.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_without_wall_time_reports_zero_rate() {
        let a: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let mut c = checkpoint(0, &a, 25.0);
        c.wall_ms = 0.0;
        let agg = aggregate(&[&c]);
        assert_eq!(agg[0].ess_per_sec, 0.0);
    }

    #[test]
    fn aggregate_of_nothing_is_empty_and_single_chain_has_nan_rhat() {
        assert!(aggregate(&[]).is_empty());
        let a: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let c = checkpoint(0, &a, 25.0);
        let agg = aggregate(&[&c]);
        assert!(agg[0].rhat.is_nan());
        // One chain still yields two halves, so split-R̂ is defined.
        assert!(agg[0].split_rhat.is_finite());
    }

    #[test]
    fn param_checkpoint_round_trips_through_json() {
        let p = ParamCheckpoint {
            parameter: "lambda0".into(),
            moments: MomentSummary {
                count: 42,
                mean: 1.5,
                variance: 0.25,
            },
            half1: MomentSummary {
                count: 21,
                mean: 1.4,
                variance: 0.2,
            },
            half2: MomentSummary {
                count: 21,
                mean: 1.6,
                variance: 0.3,
            },
            ess: 30.5,
            mcse: 0.09,
            ess_per_sec: 61.0,
        };
        let back = ParamCheckpoint::from_value(&p.to_value()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn schema_v3_payloads_without_new_fields_still_parse() {
        // A pre-v4 param entry: no ess_per_sec.
        let p = ParamCheckpoint {
            parameter: "n".into(),
            moments: MomentSummary {
                count: 10,
                mean: 2.0,
                variance: 1.0,
            },
            half1: MomentSummary::default(),
            half2: MomentSummary::default(),
            ess: 8.0,
            mcse: 0.35,
            ess_per_sec: 123.0,
        };
        let mut value = p.to_value();
        if let Value::Obj(fields) = &mut value {
            fields.retain(|(k, _)| k != "ess_per_sec");
        }
        let back = ParamCheckpoint::from_value(&value).unwrap();
        assert_eq!(back.ess_per_sec, 0.0);
        assert_eq!(back.ess, 8.0);
    }

    #[test]
    fn chain_checkpoint_parses_full_event_payload() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let c = checkpoint(3, &a, 12.0);
        // Build the event-shaped JSON by hand (mirrors Event::to_value).
        let mut fields = vec![
            ("type", Value::Str("diagnostic-checkpoint".into())),
            ("chain", Value::Num(c.chain as f64)),
            ("sweep", Value::Num(c.sweep as f64)),
            ("kept", Value::Num(c.kept as f64)),
            ("wall_ms", Value::Num(c.wall_ms)),
            (
                "params",
                Value::Arr(c.params.iter().map(ParamCheckpoint::to_value).collect()),
            ),
        ];
        let back = ChainCheckpoint::from_value(&Value::obj(fields.clone())).unwrap();
        assert_eq!(back, c);
        // A schema-8 line also carries an `accept` array; old traces
        // must still parse to the same checkpoint.
        fields.push((
            "accept",
            Value::Arr(vec![Value::obj(vec![
                ("parameter", Value::Str("zeta0".into())),
                ("steps", Value::Num(10.0)),
                ("accepted", Value::Num(10.0)),
                ("rate", Value::Num(1.0)),
            ])]),
        ));
        let back = ChainCheckpoint::from_value(&Value::obj(fields)).unwrap();
        assert_eq!(back, c);
    }
}
