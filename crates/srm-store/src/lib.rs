//! srm-store — crash-durable persistence primitives for the serve
//! tier.
//!
//! Three small building blocks, whose one dependency is srm-obs's
//! FNV-1a ([`srm_obs::fnv1a64`], the record and snapshot checksum):
//!
//! - [`wal`]: an append-only **write-ahead log** of opaque byte
//!   records, each framed as `length + FNV-1a checksum + payload`.
//!   Replay tolerates torn or truncated tails: it recovers the longest
//!   valid record prefix and never panics on garbage.
//! - [`snapshot`]: **atomic file writes** (temp file + fsync + rename,
//!   then a best-effort directory fsync) and a checksummed snapshot
//!   container, so a crash can never leave a half-written snapshot —
//!   readers see either the old file or the new one, in full.
//! - [`crash`]: a **test-only crash-point hook**. Fault-harness tests
//!   arm a named point through the `SRM_CRASH_POINT` environment
//!   variable and the process aborts (as SIGKILL would) exactly at
//!   that WAL/snapshot boundary, deterministically on the N-th hit.
//!
//! The crate knows nothing about jobs or caches; srm-serve's `store`
//! module layers its record semantics on top. Keeping the framing
//! generic means the corruption property tests exercise exactly the
//! byte-level code the server trusts at boot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod snapshot;
pub mod wal;

pub use crash::crash_point;
pub use snapshot::{atomic_write_file, load_snapshot, write_snapshot};
pub use wal::{read_records, ReplayReport, SyncPolicy, WalWriter, WAL_MAGIC};
