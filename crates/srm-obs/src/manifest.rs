//! The machine-readable run manifest written by `--metrics-out`.
//!
//! One JSON document per invocation: enough to reproduce the run
//! (seed, dataset hash, model, MCMC shape) and to judge it (per-phase
//! wall time, draws/sec, per-chain retries and faults, fault/retry
//! counters, final convergence diagnostics). `schema_version` is bumped on any
//! breaking field change.

use std::io;

use crate::checkpoint::{aggregate, AggregateDiagnostic};
use crate::event::{EVENT_SCHEMA_VERSION, SCHEMA_VERSION};
use crate::json::Value;
use crate::stats::{DiagnosticStat, StatsCollector};

/// Manifest schema version written to every document.
///
/// Since schema v7 the manifest tracks the single workspace-wide
/// [`SCHEMA_VERSION`] rather than its own counter (the two document
/// families were bumped in lock-step anyway; the jump from 1 to 7 is
/// monotone and readers only compare for inequality).
pub const MANIFEST_SCHEMA_VERSION: u64 = SCHEMA_VERSION;

/// The build-info block shared by `srm version`, the `/healthz`
/// endpoint, and every run manifest: crate version plus the schema
/// versions, so any artifact can be traced back to the code and
/// schemas that produced it. (All workspace crates share one version,
/// so this crate's own version identifies the build.)
pub fn build_info_value() -> Value {
    Value::obj(vec![
        (
            "crate_version",
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("schema_version", Value::Num(SCHEMA_VERSION as f64)),
        (
            "manifest_schema_version",
            Value::Num(MANIFEST_SCHEMA_VERSION as f64),
        ),
        (
            "event_schema_version",
            Value::Num(EVENT_SCHEMA_VERSION as f64),
        ),
    ])
}

/// 64-bit FNV-1a over byte slices fed in turn — the same value as one
/// slice holding their concatenation. The workspace's one FNV-1a loop:
/// WAL and snapshot checksums, cache keys, batch seeds, dataset
/// fingerprints and derived trace ids all hash through it.
#[must_use]
pub fn fnv1a64<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.into_iter().flatten() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a (64-bit) over a byte slice, hex-encoded — the dataset
/// fingerprint recorded in manifests and `run-start` events.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64([bytes]))
}

/// Fingerprints a dataset by its daily counts (little-endian u64s).
pub fn dataset_hash(counts: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(counts.len() * 8);
    for &c in counts {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    fnv1a_hex(&bytes)
}

/// One chain's entry in the manifest.
#[derive(Debug, Clone, Default)]
pub struct ManifestChain {
    /// Chain index.
    pub chain: usize,
    /// Whether the chain recovered after a fault.
    pub recovered: bool,
    /// Retries consumed.
    pub retries: u64,
    /// First-fault kind, if any.
    pub fault: Option<String>,
    /// Wall-clock time the chain spent on its worker thread, ms.
    pub wall_ms: f64,
}

/// The `--metrics-out` document.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// CLI command (`fit`, `select`, `trend`).
    pub command: String,
    /// Correlation id of the run that produced this manifest (the
    /// canonical 32-hex form; empty when the producer predates v7).
    pub trace_id: String,
    /// Detection-model identifier (or a command-specific label).
    pub model: String,
    /// Prior family, when the command has one.
    pub prior: String,
    /// Root RNG seed (0 for commands that draw nothing).
    pub seed: u64,
    /// FNV-1a fingerprint of the dataset counts.
    pub dataset_hash: String,
    /// Number of chains run.
    pub chains: usize,
    /// Burn-in sweeps per chain.
    pub burn_in: usize,
    /// Kept draws per chain.
    pub samples: usize,
    /// Thinning interval.
    pub thin: usize,
    /// Worker threads used for parallel chains (0 when not recorded).
    pub threads: usize,
    /// Per-phase wall time `(phase, ms)`.
    pub phases: Vec<(String, f64)>,
    /// Kept draws per second of sampling wall time (0 when unknown).
    pub draws_per_sec: f64,
    /// Per-chain outcomes.
    pub chain_reports: Vec<ManifestChain>,
    /// Fault counters `(kind, count)`.
    pub fault_counters: Vec<(String, u64)>,
    /// Total retries across chains.
    pub retries_total: u64,
    /// Faults injected by the test harness.
    pub faults_injected: u64,
    /// Final per-parameter convergence diagnostics.
    pub diagnostics: Vec<DiagnosticStat>,
    /// Overall convergence verdict, when computed.
    pub converged: Option<bool>,
    /// WAIC total of the (selected) model, when computed.
    pub waic: Option<f64>,
    /// `diagnostic-checkpoint` events the run emitted (0 when
    /// checkpoints were disabled).
    pub checkpoints_seen: u64,
    /// Cross-chain convergence summary from the final checkpoint of
    /// each chain (empty when checkpoints were disabled).
    pub checkpoint_summary: Vec<AggregateDiagnostic>,
}

impl RunManifest {
    /// Fills the stats-derived fields (per-phase wall time,
    /// throughput, per-chain reports, fault/retry counters,
    /// diagnostics, and the WAIC fallback) from an aggregating
    /// collector. `kept_draws` is the total number of posterior draws
    /// the run kept, for the draws/sec figure. Identity fields
    /// (command, model, seed, …) are left untouched.
    pub fn fill_from_stats(&mut self, stats: &StatsCollector, kept_draws: u64) {
        self.phases = stats.phase_ms();
        let sampling_ms = stats.phase_total_ms("sampling");
        self.draws_per_sec = if sampling_ms > 0.0 {
            kept_draws as f64 / (sampling_ms / 1_000.0)
        } else {
            0.0
        };
        self.chain_reports = stats
            .chain_reports()
            .into_iter()
            .map(
                |(chain, recovered, retries, fault, wall_ms)| ManifestChain {
                    chain,
                    recovered,
                    retries,
                    fault,
                    wall_ms,
                },
            )
            .collect();
        self.fault_counters = stats.fault_counters();
        self.retries_total = stats.retries_total();
        self.faults_injected = stats.faults_injected();
        self.diagnostics = stats.diagnostics();
        if self.waic.is_none() {
            self.waic = stats.waic().map(|(_, total, _)| total);
        }
        self.checkpoints_seen = stats.checkpoints_seen();
        let latest = stats.latest_checkpoints();
        self.checkpoint_summary = aggregate(&latest.iter().collect::<Vec<_>>());
    }

    /// Serialises the manifest to its JSON document model.
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("schema_version", Value::Num(MANIFEST_SCHEMA_VERSION as f64)),
            ("trace_id", Value::Str(self.trace_id.clone())),
            ("build", build_info_value()),
            ("command", Value::Str(self.command.clone())),
            ("model", Value::Str(self.model.clone())),
            ("prior", Value::Str(self.prior.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("dataset_hash", Value::Str(self.dataset_hash.clone())),
            (
                "mcmc",
                Value::obj(vec![
                    ("chains", Value::Num(self.chains as f64)),
                    ("burn_in", Value::Num(self.burn_in as f64)),
                    ("samples", Value::Num(self.samples as f64)),
                    ("thin", Value::Num(self.thin as f64)),
                    ("threads", Value::Num(self.threads as f64)),
                ]),
            ),
            (
                "phases",
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|(name, ms)| {
                            Value::obj(vec![
                                ("phase", Value::Str(name.clone())),
                                ("wall_ms", Value::Num(*ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("draws_per_sec", Value::Num(self.draws_per_sec)),
            (
                "chains_report",
                Value::Arr(
                    self.chain_reports
                        .iter()
                        .map(|c| {
                            Value::obj(vec![
                                ("chain", Value::Num(c.chain as f64)),
                                ("recovered", Value::Bool(c.recovered)),
                                ("retries", Value::Num(c.retries as f64)),
                                (
                                    "fault",
                                    c.fault
                                        .as_ref()
                                        .map_or(Value::Null, |k| Value::Str(k.clone())),
                                ),
                                ("wall_ms", Value::Num(c.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fault_counters",
                Value::Obj(
                    self.fault_counters
                        .iter()
                        .map(|(kind, n)| (kind.clone(), Value::Num(*n as f64)))
                        .collect(),
                ),
            ),
            ("retries_total", Value::Num(self.retries_total as f64)),
            ("faults_injected", Value::Num(self.faults_injected as f64)),
            (
                "diagnostics",
                Value::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| {
                            Value::obj(vec![
                                ("parameter", Value::Str(d.parameter.clone())),
                                ("psrf", Value::Num(d.psrf)),
                                ("geweke_z", Value::Num(d.geweke_z)),
                                ("ess", Value::Num(d.ess)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("converged", self.converged.map_or(Value::Null, Value::Bool)),
            ("waic", self.waic.map_or(Value::Null, Value::Num)),
            (
                "checkpoints",
                Value::obj(vec![
                    ("seen", Value::Num(self.checkpoints_seen as f64)),
                    (
                        "summary",
                        Value::Arr(
                            self.checkpoint_summary
                                .iter()
                                .map(AggregateDiagnostic::to_value)
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Writes the manifest (pretty-printed) to `path`.
    pub fn write(&self, path: &str) -> io::Result<()> {
        std::fs::write(path, self.to_value().to_json_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64([&b""[..]]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64([&b"a"[..]]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64([&b"foobar"[..]]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn fnv1a_of_parts_is_fnv1a_of_their_concatenation() {
        let whole = fnv1a64([&b"foobar"[..]]);
        assert_eq!(fnv1a64([&b"foo"[..], b"bar"]), whole);
        assert_eq!(fnv1a64([&b""[..], b"f", b"", b"oobar"]), whole);
        assert_eq!(fnv1a64(Vec::<&[u8]>::new()), fnv1a64([&b""[..]]));
    }

    #[test]
    fn dataset_hash_depends_on_counts_and_order() {
        let a = dataset_hash(&[1, 2, 3]);
        let b = dataset_hash(&[3, 2, 1]);
        let c = dataset_hash(&[1, 2, 3]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = RunManifest {
            command: "fit".into(),
            trace_id: "00000000000000000000000000abcdef".into(),
            model: "model2".into(),
            prior: "poisson".into(),
            seed: 42,
            dataset_hash: dataset_hash(&[5, 3, 1]),
            chains: 4,
            burn_in: 100,
            samples: 200,
            thin: 2,
            threads: 4,
            phases: vec![("sampling".into(), 12.0), ("waic".into(), 3.0)],
            draws_per_sec: 6500.0,
            chain_reports: vec![ManifestChain {
                chain: 0,
                recovered: true,
                retries: 1,
                fault: Some("nan-rate".into()),
                wall_ms: 11.25,
            }],
            fault_counters: vec![("nan-rate".into(), 1)],
            retries_total: 1,
            faults_injected: 1,
            diagnostics: vec![DiagnosticStat {
                parameter: "residual".into(),
                psrf: 1.01,
                geweke_z: 0.2,
                ess: 900.0,
            }],
            converged: Some(true),
            waic: Some(210.7),
            checkpoints_seen: 8,
            checkpoint_summary: vec![AggregateDiagnostic {
                parameter: "residual".into(),
                mean: 4.5,
                rhat: 1.02,
                split_rhat: 1.03,
                ess: 750.0,
                mcse: 0.04,
                ess_per_sec: 620.0,
            }],
        };
        let doc = parse(&manifest.to_value().to_json_pretty()).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64(),
            Some(MANIFEST_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            doc.get("trace_id").unwrap().as_str(),
            Some("00000000000000000000000000abcdef")
        );
        let build = doc.get("build").unwrap();
        assert_eq!(
            build.get("crate_version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            build.get("schema_version").unwrap().as_f64(),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            build.get("manifest_schema_version").unwrap().as_f64(),
            Some(MANIFEST_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            build.get("event_schema_version").unwrap().as_f64(),
            Some(EVENT_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(42.0));
        assert_eq!(
            doc.get("mcmc").unwrap().get("chains").unwrap().as_f64(),
            Some(4.0)
        );
        assert_eq!(
            doc.get("mcmc").unwrap().get("threads").unwrap().as_f64(),
            Some(4.0)
        );
        let chains = doc.get("chains_report").unwrap().as_arr().unwrap();
        assert_eq!(chains[0].get("fault").unwrap().as_str(), Some("nan-rate"));
        assert_eq!(chains[0].get("wall_ms").unwrap().as_f64(), Some(11.25));
        assert_eq!(
            doc.get("fault_counters")
                .unwrap()
                .get("nan-rate")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(doc.get("converged").unwrap(), &Value::Bool(true));
        let checkpoints = doc.get("checkpoints").unwrap();
        assert_eq!(checkpoints.get("seen").unwrap().as_f64(), Some(8.0));
        let summary = checkpoints.get("summary").unwrap().as_arr().unwrap();
        assert_eq!(
            summary[0].get("parameter").unwrap().as_str(),
            Some("residual")
        );
        assert_eq!(summary[0].get("rhat").unwrap().as_f64(), Some(1.02));
        assert_eq!(summary[0].get("ess").unwrap().as_f64(), Some(750.0));
    }

    #[test]
    fn default_manifest_serialises_with_nulls() {
        let doc = parse(&RunManifest::default().to_value().to_json()).unwrap();
        assert_eq!(doc.get("waic").unwrap(), &Value::Null);
        assert_eq!(doc.get("converged").unwrap(), &Value::Null);
        assert_eq!(doc.get("phases").unwrap().as_arr().unwrap().len(), 0);
    }
}
