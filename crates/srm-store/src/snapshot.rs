//! Atomic file writes and a checksummed snapshot container.
//!
//! [`atomic_write_file`] is the publish primitive: write a temp file
//! in the same directory, fsync it, rename over the destination, then
//! best-effort fsync the directory. A crash at any step leaves either
//! the old file or the new one — never a half-written hybrid.
//!
//! Snapshots add a self-validating container on top: an 8-byte magic
//! (`SRMSNAP1`), a u64 LE FNV-1a checksum, then the payload. A
//! corrupted or foreign file loads as "no snapshot" rather than as
//! bad state.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::crash_point;
use srm_obs::fnv1a64;

/// Snapshot container magic: identifies the format and its version.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SRMSNAP1";

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename, best-effort directory fsync.
///
/// Crash point `snapshot-tmp` fires after the temp file is complete
/// but before the rename (old file still visible); `snapshot-renamed`
/// fires after the rename (new file visible, caller has not yet acted
/// on the success).
///
/// # Errors
///
/// Returns [`io::Error`] on any filesystem failure; the temp file is
/// removed on the error paths that can reach it.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!("{}.tmp", file_name.to_string_lossy()));

    let result = (|| {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        drop(file);
        crash_point("snapshot-tmp");
        std::fs::rename(&tmp, path)?;
        crash_point("snapshot-renamed");
        // Make the rename itself durable. Failures here are ignored:
        // some filesystems refuse fsync on directories, and the write
        // is already atomic with respect to process death.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Writes a checksummed snapshot atomically.
///
/// # Errors
///
/// Returns [`io::Error`] on filesystem failure (see
/// [`atomic_write_file`]).
pub fn write_snapshot(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 8 + payload.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&fnv1a64([payload]).to_le_bytes());
    bytes.extend_from_slice(payload);
    atomic_write_file(path, &bytes)
}

/// Loads a snapshot payload, returning `None` when the file is
/// missing, truncated, has the wrong magic, or fails its checksum —
/// corruption means "start from the WAL alone", never an error.
///
/// # Errors
///
/// Returns [`io::Error`] only for real I/O failures (permissions,
/// hardware).
pub fn load_snapshot(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let header = SNAPSHOT_MAGIC.len() + 8;
    if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Ok(None);
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[SNAPSHOT_MAGIC.len()..header]);
    let payload = &bytes[header..];
    if fnv1a64([payload]) != u64::from_le_bytes(sum) {
        return Ok(None);
    }
    Ok(Some(payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("srm_snap_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips() {
        let path = temp_path("roundtrip");
        write_snapshot(&path, b"{\"jobs\":[]}").unwrap();
        assert_eq!(load_snapshot(&path).unwrap().unwrap(), b"{\"jobs\":[]}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_previous_content_and_leaves_no_tmp() {
        let path = temp_path("replace");
        atomic_write_file(&path, b"old").unwrap();
        atomic_write_file(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let mut tmp = path.clone();
        tmp.set_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert!(!tmp.exists(), "temp file should not survive a write");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_snapshot_loads_as_none() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_snapshot(&path).unwrap(), None);
    }

    #[test]
    fn corrupt_snapshot_loads_as_none() {
        let path = temp_path("corrupt");
        write_snapshot(&path, b"payload-payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), None);

        // Wrong magic entirely.
        std::fs::write(&path, b"NOTSNAPS0000000000").unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), None);

        // Shorter than the header.
        std::fs::write(&path, b"SRM").unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), None);
        let _ = std::fs::remove_file(&path);
    }
}
