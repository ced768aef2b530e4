//! Append-only write-ahead log with checksummed record framing.
//!
//! File layout: an 8-byte magic header (`SRMWAL01`) followed by
//! records, each framed as
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a(payload)][payload bytes]
//! ```
//!
//! The framing makes replay self-validating: a torn tail (partial
//! frame from a crash mid-append), a truncated file, or a corrupted
//! byte all fail either the length bound or the checksum, and replay
//! stops at the **longest valid record prefix** — never panicking,
//! never returning a record whose bytes were not fully and correctly
//! written. Appends are a single `write_all` of the whole frame, so
//! on a crash the kernel has either the full frame or a detectable
//! prefix of it.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use crate::crash_point;
use srm_obs::fnv1a64;

/// File magic: identifies the format and its version.
pub const WAL_MAGIC: &[u8; 8] = b"SRMWAL01";

/// Frame overhead per record: u32 length + u64 checksum.
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// Upper bound on a single record payload. Anything larger in a
/// length field is treated as corruption, which keeps replay from
/// allocating unbounded memory on a flipped length byte.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// When appends are pushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every append: records survive power loss.
    Always,
    /// No explicit sync: records survive process death (SIGKILL)
    /// because the kernel holds them, but not a machine crash.
    Never,
}

impl SyncPolicy {
    /// Parses the CLI spelling (`always` | `off`).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for anything else.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(Self::Always),
            "off" => Ok(Self::Never),
            other => Err(format!("unknown --wal-sync value `{other}` (always|off)")),
        }
    }
}

/// What replay found in a log file.
///
/// The default value describes a log that does not exist yet —
/// what [`read_records`] reports for a missing file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Whether the file existed at all.
    pub existed: bool,
    /// Fully valid records recovered.
    pub records: u64,
    /// Byte offset of the end of the last valid record (including the
    /// magic header). [`WalWriter::open`] truncates to this offset so
    /// new appends never follow garbage.
    pub valid_bytes: u64,
    /// Whether trailing bytes were discarded (torn tail, bad checksum,
    /// bad magic, or impossible length).
    pub torn_tail: bool,
}

/// Reads every valid record from a log file, tolerating a torn or
/// corrupted tail.
///
/// A missing file is an empty log, not an error.
///
/// # Errors
///
/// Returns [`io::Error`] only for real I/O failures (permissions,
/// hardware); corruption is reported through [`ReplayReport`], never
/// as an error.
pub fn read_records(path: &Path) -> io::Result<(Vec<Vec<u8>>, ReplayReport)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((
                Vec::new(),
                ReplayReport {
                    existed: false,
                    records: 0,
                    valid_bytes: 0,
                    torn_tail: false,
                },
            ))
        }
        Err(e) => return Err(e),
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Wrong or truncated magic: salvage nothing, flag the tail.
        return Ok((
            Vec::new(),
            ReplayReport {
                existed: true,
                records: 0,
                valid_bytes: 0,
                torn_tail: !bytes.is_empty(),
            },
        ));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    // The scan ends at the first frame that is short, oversized, or
    // checksum-corrupt; `pos` then marks the valid prefix.
    while let Some(frame) = bytes.get(pos..pos + FRAME_OVERHEAD) {
        // Indexing is safe: `frame` has exactly FRAME_OVERHEAD bytes.
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        let sum = u64::from_le_bytes([
            frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
        ]);
        if len > MAX_RECORD_BYTES {
            break;
        }
        let start = pos + FRAME_OVERHEAD;
        let Some(payload) = bytes.get(start..start + len) else {
            break;
        };
        if fnv1a64([payload]) != sum {
            break;
        }
        records.push(payload.to_vec());
        pos = start + len;
    }
    let report = ReplayReport {
        existed: true,
        records: records.len() as u64,
        valid_bytes: pos as u64,
        torn_tail: pos != bytes.len(),
    };
    Ok((records, report))
}

/// An open write-ahead log, appending framed records.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: SyncPolicy,
    bytes: u64,
    records: u64,
}

impl WalWriter {
    /// Opens (or creates) a log for appending.
    ///
    /// `report` must come from [`read_records`] on the same path: the
    /// file is truncated to `report.valid_bytes` first, so appends
    /// continue after the last valid record instead of after a torn
    /// tail. A fresh or unsalvageable file is rewritten with a clean
    /// magic header.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] when the file cannot be opened, truncated
    /// or initialised.
    pub fn open(path: &Path, policy: SyncPolicy, report: &ReplayReport) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut writer = if report.valid_bytes >= WAL_MAGIC.len() as u64 {
            file.set_len(report.valid_bytes)?;
            file.seek(SeekFrom::End(0))?;
            Self {
                file,
                policy,
                bytes: report.valid_bytes,
                records: report.records,
            }
        } else {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            Self {
                file,
                policy,
                bytes: WAL_MAGIC.len() as u64,
                records: 0,
            }
        };
        if report.torn_tail {
            // The truncation itself should be durable before anything
            // is appended after it.
            writer.file.sync_data()?;
        }
        writer.maybe_sync()?;
        Ok(writer)
    }

    fn maybe_sync(&mut self) -> io::Result<()> {
        match self.policy {
            SyncPolicy::Always => self.file.sync_data(),
            SyncPolicy::Never => Ok(()),
        }
    }

    /// Appends one record (single `write_all` of the whole frame).
    ///
    /// Crash points: `wal-append` fires before the write reaches the
    /// file, `wal-appended` after it (and after the sync, when the
    /// policy asks for one).
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on write or sync failure; the in-memory
    /// counters are only advanced on success.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        crash_point("wal-append");
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64([payload]).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.maybe_sync()?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        crash_point("wal-appended");
        Ok(())
    }

    /// Truncates the log back to an empty (magic-only) state — called
    /// after a snapshot has durably captured everything the log held.
    ///
    /// Crash point `wal-reset` fires before the truncation, so the
    /// harness can exercise "snapshot written but log not yet
    /// truncated" (replay over the snapshot must be idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on truncate/write failure.
    pub fn reset(&mut self) -> io::Result<()> {
        crash_point("wal-reset");
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(WAL_MAGIC)?;
        self.file.sync_data()?;
        self.bytes = WAL_MAGIC.len() as u64;
        self.records = 0;
        Ok(())
    }

    /// Bytes currently in the log (header included).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records currently in the log.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("srm_wal_{tag}_{}.log", std::process::id()))
    }

    fn fresh(path: &Path, policy: SyncPolicy) -> WalWriter {
        let _ = std::fs::remove_file(path);
        let (_, report) = read_records(path).unwrap();
        WalWriter::open(path, policy, &report).unwrap()
    }

    #[test]
    fn append_and_replay_round_trips() {
        let path = temp_path("roundtrip");
        let mut wal = fresh(&path, SyncPolicy::Always);
        for payload in [b"alpha".as_slice(), b"", b"gamma-gamma"] {
            wal.append(payload).unwrap();
        }
        assert_eq!(wal.records(), 3);
        let (records, report) = read_records(&path).unwrap();
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma-gamma".to_vec()]
        );
        assert_eq!(report.records, 3);
        assert!(!report.torn_tail);
        assert_eq!(report.valid_bytes, wal.bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let (records, report) = read_records(&path).unwrap();
        assert!(records.is_empty());
        assert!(!report.existed);
        assert!(!report.torn_tail);
    }

    #[test]
    fn torn_tail_is_discarded_and_append_continues_cleanly() {
        let path = temp_path("torn");
        let mut wal = fresh(&path, SyncPolicy::Never);
        wal.append(b"kept").unwrap();
        drop(wal);
        // Simulate a crash mid-append: half a frame of garbage.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x99, 0x00, 0x00]).unwrap();
        drop(file);

        let (records, report) = read_records(&path).unwrap();
        assert_eq!(records, vec![b"kept".to_vec()]);
        assert!(report.torn_tail);

        // Re-opening truncates the tail; the next append replays fine.
        let mut wal = WalWriter::open(&path, SyncPolicy::Never, &report).unwrap();
        wal.append(b"after-crash").unwrap();
        let (records, report) = read_records(&path).unwrap();
        assert_eq!(records, vec![b"kept".to_vec(), b"after-crash".to_vec()]);
        assert!(!report.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_salvages_nothing() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTAWAL!rest of the file").unwrap();
        let (records, report) = read_records(&path).unwrap();
        assert!(records.is_empty());
        assert!(report.torn_tail);
        assert_eq!(report.valid_bytes, 0);
        // Opening over it rewrites a clean header.
        let mut wal = WalWriter::open(&path, SyncPolicy::Never, &report).unwrap();
        wal.append(b"fresh").unwrap();
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records, vec![b"fresh".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn impossible_length_stops_replay() {
        let path = temp_path("length");
        let mut wal = fresh(&path, SyncPolicy::Never);
        wal.append(b"ok").unwrap();
        drop(wal);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        // A frame claiming a payload far beyond MAX_RECORD_BYTES.
        file.write_all(&u32::MAX.to_le_bytes()).unwrap();
        file.write_all(&[0u8; 8]).unwrap();
        file.write_all(b"short").unwrap();
        drop(file);
        let (records, report) = read_records(&path).unwrap();
        assert_eq!(records, vec![b"ok".to_vec()]);
        assert!(report.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_path("reset");
        let mut wal = fresh(&path, SyncPolicy::Always);
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), WAL_MAGIC.len() as u64);
        wal.append(b"three").unwrap();
        let (records, _) = read_records(&path).unwrap();
        assert_eq!(records, vec![b"three".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_policy_parses_cli_spellings() {
        assert_eq!(SyncPolicy::parse("always"), Ok(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("off"), Ok(SyncPolicy::Never));
        assert!(SyncPolicy::parse("sometimes").is_err());
    }
}
