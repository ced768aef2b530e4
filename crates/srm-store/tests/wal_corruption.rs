//! Property tests for WAL replay under corruption.
//!
//! Strategy: build a valid log of random records, then damage it in a
//! random way (bit-flip a byte range, truncate the tail, or splice in
//! garbage) and assert the two recovery invariants:
//!
//! 1. replay never panics and never returns a record that was not in
//!    the original log;
//! 2. replay recovers the **longest valid prefix** — every record
//!    strictly before the first damaged byte is returned intact.
//!
//! The damage generator is seed-deterministic (SplitMix64), so a
//! failure reproduces exactly.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers

use std::path::PathBuf;

use srm_rand::{Rng, SplitMix64};
use srm_store::wal::FRAME_OVERHEAD;
use srm_store::{read_records, SyncPolicy, WalWriter, WAL_MAGIC};

const ITERATIONS: u64 = 200;

struct LogCase {
    path: PathBuf,
    records: Vec<Vec<u8>>,
    /// Byte offset where each record's frame starts.
    offsets: Vec<usize>,
    total_bytes: usize,
}

fn build_log(tag: &str, rng: &mut SplitMix64) -> LogCase {
    let path = std::env::temp_dir().join(format!(
        "srm_wal_prop_{tag}_{}_{}.log",
        std::process::id(),
        rng.next_u64()
    ));
    let _ = std::fs::remove_file(&path);
    let (_, report) = read_records(&path).expect("replay empty");
    let mut wal = WalWriter::open(&path, SyncPolicy::Never, &report).expect("open wal");

    let n_records = 1 + rng.next_below(12) as usize;
    let mut records = Vec::with_capacity(n_records);
    let mut offsets = Vec::with_capacity(n_records);
    let mut pos = WAL_MAGIC.len();
    for _ in 0..n_records {
        let len = rng.next_below(48) as usize;
        let payload: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        wal.append(&payload).expect("append");
        offsets.push(pos);
        pos += FRAME_OVERHEAD + payload.len();
        records.push(payload);
    }
    LogCase {
        path,
        records,
        offsets,
        total_bytes: pos,
    }
}

/// Records whose frames end at or before `first_damaged` must all be
/// recovered; nothing fabricated may appear.
fn check_prefix(case: &LogCase, recovered: &[Vec<u8>], first_damaged: usize) {
    let guaranteed = case
        .offsets
        .iter()
        .zip(&case.records)
        .take_while(|(offset, payload)| **offset + FRAME_OVERHEAD + payload.len() <= first_damaged)
        .count();
    assert!(
        recovered.len() >= guaranteed,
        "recovered {} records, expected at least the {} before byte {}",
        recovered.len(),
        guaranteed,
        first_damaged
    );
    for (i, payload) in recovered.iter().enumerate() {
        assert_eq!(
            payload, &case.records[i],
            "record {i} does not match the original log"
        );
    }
}

#[test]
fn bit_flips_recover_longest_valid_prefix_without_panicking() {
    let mut rng = SplitMix64::seed_from(0x5eed_u64);
    for _ in 0..ITERATIONS {
        let case = build_log("flip", &mut rng);
        let mut bytes = std::fs::read(&case.path).expect("read log");
        assert_eq!(bytes.len(), case.total_bytes);

        let start = rng.next_below(bytes.len() as u64) as usize;
        let span = 1 + rng.next_below(16) as usize;
        let end = (start + span).min(bytes.len());
        for byte in &mut bytes[start..end] {
            let mask = (rng.next_u64() & 0xff) as u8;
            // Guarantee at least one bit actually flips.
            *byte ^= if mask == 0 { 0x01 } else { mask };
        }
        std::fs::write(&case.path, &bytes).expect("write damaged log");

        let (recovered, report) = read_records(&case.path).expect("replay damaged log");
        check_prefix(&case, &recovered, start);
        assert!(report.valid_bytes <= bytes.len() as u64);
        // A flip inside record i can, with 2^-64 odds, still checksum;
        // in practice everything at and after the flip is dropped.
        assert!(report.torn_tail || recovered.len() == case.records.len());
        let _ = std::fs::remove_file(&case.path);
    }
}

#[test]
fn truncations_recover_longest_valid_prefix_without_panicking() {
    let mut rng = SplitMix64::seed_from(0x7acc_u64);
    for _ in 0..ITERATIONS {
        let case = build_log("trunc", &mut rng);
        let keep = rng.next_below(case.total_bytes as u64 + 1) as usize;
        let bytes = std::fs::read(&case.path).expect("read log");
        std::fs::write(&case.path, &bytes[..keep]).expect("truncate log");

        let (recovered, report) = read_records(&case.path).expect("replay truncated log");
        check_prefix(&case, &recovered, keep);
        // Truncation can never fabricate records: the recovered set is
        // exactly the records that fit entirely within `keep` bytes.
        let fit = case
            .offsets
            .iter()
            .zip(&case.records)
            .take_while(|(offset, payload)| **offset + FRAME_OVERHEAD + payload.len() <= keep)
            .count();
        assert_eq!(recovered.len(), fit);
        assert_eq!(report.torn_tail, keep != report.valid_bytes as usize);
        let _ = std::fs::remove_file(&case.path);
    }
}

#[test]
fn garbage_tails_recover_all_original_records() {
    let mut rng = SplitMix64::seed_from(0x9a4ba9e_u64);
    for _ in 0..ITERATIONS {
        let case = build_log("tail", &mut rng);
        let mut bytes = std::fs::read(&case.path).expect("read log");
        let extra = 1 + rng.next_below(64) as usize;
        for _ in 0..extra {
            bytes.push((rng.next_u64() & 0xff) as u8);
        }
        std::fs::write(&case.path, &bytes).expect("append garbage");

        let (recovered, report) = read_records(&case.path).expect("replay log with garbage tail");
        // All original records sit before the damage.
        assert_eq!(recovered, case.records);
        // The garbage tail may accidentally parse as frame headers of
        // a record that then fails its checksum or runs past EOF; it
        // can never *add* records, so the tail is reported torn.
        assert!(report.torn_tail);
        let _ = std::fs::remove_file(&case.path);
    }
}
