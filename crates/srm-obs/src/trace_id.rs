//! 128-bit request-correlation identifiers.
//!
//! A [`TraceId`] follows one request across every layer of the
//! workspace: the HTTP accept loop mints one (honouring an inbound
//! `x-srm-trace-id` header), threads it through the job spec, the
//! engine run, every trace event the run emits, the WAL ops that
//! persist it, and the access-log line that closes the request. The
//! CLI mints ids the same way for one-shot runs, so `srm trace grep
//! --trace-id` works on any trace this workspace produces.
//!
//! Derivation is deterministic: an id is a mix of the request's
//! content hash (FNV-1a over the body, or the dataset hash for CLI
//! runs) and a per-boot nonce. Same content in the same process boot
//! yields the same id — correlation never perturbs the run and never
//! consumes sampler randomness.

use std::sync::OnceLock;

/// Name of the HTTP header that carries an inbound trace id.
pub const TRACE_HEADER: &str = "x-srm-trace-id";

/// A 128-bit correlation id, canonically rendered as 32 lowercase hex
/// digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u128);

/// SplitMix64 finalizer: a cheap, well-mixed 64→64 bijection.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceId {
    /// Wraps a raw 128-bit value.
    #[must_use]
    pub const fn from_u128(raw: u128) -> Self {
        Self(raw)
    }

    /// Derives an id from a content hash and a nonce. Deterministic:
    /// the same `(content_hash, nonce)` pair always yields the same
    /// id, and both halves are independently mixed so ids from nearby
    /// hashes do not cluster.
    #[must_use]
    pub fn derive(content_hash: u64, nonce: u64) -> Self {
        let hi = mix64(content_hash ^ nonce.rotate_left(32));
        let lo = mix64(nonce ^ content_hash.rotate_left(17) ^ 0x5851_f42d_4c95_7f2d);
        Self((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Parses 1–32 hex digits (either case). Returns `None` for an
    /// empty string, a string longer than 32 digits, or any non-hex
    /// character — callers mint a fresh id instead of guessing.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let text = text.trim();
        if text.is_empty() || text.len() > 32 {
            return None;
        }
        let mut value: u128 = 0;
        for c in text.chars() {
            value = (value << 4) | u128::from(c.to_digit(16)?);
        }
        Some(Self(value))
    }

    /// The canonical form: 32 lowercase hex digits, zero-padded.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The per-boot nonce mixed into derived ids: computed once per
/// process from the wall clock and the pid, so two boots serving the
/// same content still mint distinct ids.
#[must_use]
pub fn boot_nonce() -> u64 {
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x1234_5678_9abc_def0);
        mix64(nanos ^ u64::from(std::process::id()).rotate_left(48))
    })
}

/// The process-wide default id for producers that have no request
/// context yet (e.g. a sink created before the dataset is loaded):
/// derived from content hash 0 and the boot nonce.
#[must_use]
pub fn process_trace_id() -> TraceId {
    TraceId::derive(0, boot_nonce())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_32_lowercase_hex_digits() {
        let id = TraceId::from_u128(0xABCD);
        assert_eq!(id.to_hex(), format!("{}abcd", "0".repeat(28)));
        assert_eq!(id.to_hex().len(), 32);
        assert_eq!(id.to_string(), id.to_hex());
    }

    #[test]
    fn parse_accepts_short_and_full_ids_and_round_trips() {
        assert_eq!(TraceId::parse("ff"), Some(TraceId::from_u128(0xff)));
        assert_eq!(TraceId::parse("FF"), Some(TraceId::from_u128(0xff)));
        let full = TraceId::derive(42, 7);
        assert_eq!(TraceId::parse(&full.to_hex()), Some(full));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("   "), None);
        assert_eq!(TraceId::parse("xyz"), None);
        assert_eq!(TraceId::parse(&"a".repeat(33)), None);
        assert_eq!(TraceId::parse("12-34"), None);
    }

    #[test]
    fn derive_is_deterministic_and_sensitive_to_both_inputs() {
        let a = TraceId::derive(1, 2);
        assert_eq!(a, TraceId::derive(1, 2));
        assert_ne!(a, TraceId::derive(2, 2));
        assert_ne!(a, TraceId::derive(1, 3));
        assert_ne!(a, TraceId::from_u128(0));
    }

    #[test]
    fn boot_nonce_is_stable_within_a_process() {
        assert_eq!(boot_nonce(), boot_nonce());
        assert_eq!(process_trace_id(), process_trace_id());
    }
}
