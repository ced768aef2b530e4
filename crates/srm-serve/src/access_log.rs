//! Structured JSONL access log: one line per HTTP request.
//!
//! Each line is an [`Event::Access`] payload — trace id, method,
//! path, status, response bytes, cache-hit flag, and the
//! queue-wait/engine/serialize time breakdown the handler measured —
//! laid out by [`Event::to_line`] like every other event line, so the
//! file lints with `srm trace lint --strict` and stitches into job
//! traces via `srm trace grep --trace-id`.
//!
//! Rotation is by size: when the file would exceed the configured
//! cap, it is renamed to `<path>.1` (replacing any previous rotation)
//! and a fresh file is started. Write or rotation failures follow the
//! WAL degradation policy (DESIGN.md §13): bump an error counter,
//! note the failure on stderr, keep serving — the access log is an
//! observation of the service, never a dependency of it.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use srm_obs::json::Value;
use srm_obs::{Counter, Event};

/// A server's rotation threshold: 64 MiB.
pub(crate) const DEFAULT_ACCESS_LOG_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Counters for `/metrics` and `/v1/debug/store`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessLogStats {
    /// Lines appended successfully.
    pub lines: u64,
    /// Appends or rotations that failed (degraded, service continued).
    pub errors: u64,
    /// Completed size-triggered rotations.
    pub rotations: u64,
}

/// An append-only JSONL access log with size rotation.
#[derive(Debug)]
pub struct AccessLog {
    path: PathBuf,
    max_bytes: u64,
    started: Instant,
    lines: Counter,
    errors: Counter,
    rotations: Counter,
}

impl AccessLog {
    /// An access log appending to `path`, rotating once the file
    /// reaches `max_bytes`. The file is created lazily on first
    /// write, so constructing a log never fails.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, max_bytes: u64) -> Self {
        Self {
            path: path.into(),
            max_bytes: max_bytes.max(1),
            started: Instant::now(),
            lines: Counter::new(),
            errors: Counter::new(),
            rotations: Counter::new(),
        }
    }

    /// Where lines are written.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> AccessLogStats {
        AccessLogStats {
            lines: self.lines.get(),
            errors: self.errors.get(),
            rotations: self.rotations.get(),
        }
    }

    /// Appends one request line under `trace_id`. Infallible by
    /// contract: failures degrade to a counted error (the accept loop
    /// must never die because the log disk did).
    pub fn log(&self, trace_id: &str, event: &Event) {
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        let mut line = event.to_line(trace_id, [("ms", Value::Num(ms))]).to_json();
        line.push('\n');
        if let Err(e) = self.append(&line) {
            self.errors.incr();
            eprintln!(
                "access-log degraded: {} ({e}); continuing without this line",
                self.path.display()
            );
        } else {
            self.lines.incr();
        }
    }

    /// Appends one newline-terminated `line` in a single `write_all`
    /// on an `O_APPEND` handle, so concurrent handlers never splice
    /// two records onto one line.
    fn append(&self, line: &str) -> std::io::Result<()> {
        let size = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if size > 0 && size + line.len() as u64 > self.max_bytes {
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            std::fs::rename(&self.path, rotated)?;
            self.rotations.incr();
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_obs::json::parse;

    fn access_event(status: u16) -> Event {
        Event::Access {
            method: "GET".into(),
            path: "/healthz".into(),
            status,
            bytes: 120,
            cache_hit: false,
            queue_wait_ms: 0.0,
            engine_ms: 0.0,
            serialize_ms: 0.1,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srm_accesslog_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lines_carry_trace_id_ms_and_required_fields() {
        let dir = temp_dir("lines");
        let log = AccessLog::new(dir.join("access.jsonl"), DEFAULT_ACCESS_LOG_MAX_BYTES);
        log.log("cafe", &access_event(200));
        log.log("f00d", &access_event(404));
        assert_eq!(log.stats().lines, 2);
        assert_eq!(log.stats().errors, 0);
        let text = std::fs::read_to_string(log.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(Value::as_str), Some("access"));
        assert_eq!(first.get("trace_id").and_then(Value::as_str), Some("cafe"));
        assert!(first.get("ms").and_then(Value::as_f64).unwrap() >= 0.0);
        for field in srm_obs::required_fields("access").unwrap() {
            assert!(first.get(field).is_some(), "missing {field}");
        }
        assert_eq!(
            parse(lines[1])
                .unwrap()
                .get("status")
                .and_then(Value::as_f64),
            Some(404.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_loggers_never_splice_lines() {
        let dir = temp_dir("concurrent");
        let log = AccessLog::new(dir.join("access.jsonl"), DEFAULT_ACCESS_LOG_MAX_BYTES);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u16 {
                let (log, start) = (&log, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        log.log("cafe", &access_event(200 + t));
                    }
                });
            }
        });
        assert_eq!(log.stats().lines, 1_600);
        let text = std::fs::read_to_string(log.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1_600);
        for line in lines {
            assert!(parse(line).is_ok(), "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_renames_the_full_file_and_starts_fresh() {
        let dir = temp_dir("rotate");
        for name in ["access.jsonl", "access.log"] {
            // A cap small enough that every line triggers rotation.
            let log = AccessLog::new(dir.join(name), 64);
            for _ in 0..3 {
                log.log("beef", &access_event(200));
            }
            assert!(log.stats().rotations >= 1, "{:?}", log.stats());
            assert_eq!(log.stats().errors, 0);
            let rotated = dir.join(format!("{name}.1"));
            assert!(rotated.exists(), "{name} rotated elsewhere");
            // Both generations still parse line-by-line.
            for path in [log.path().to_path_buf(), rotated] {
                for line in std::fs::read_to_string(&path).unwrap().lines() {
                    assert!(parse(line).is_ok(), "{line}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_target_degrades_to_a_counted_error() {
        let dir = temp_dir("degrade");
        // A path whose parent is a file: open() fails for any user,
        // including root (chmod-based read-only checks do not).
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let log = AccessLog::new(blocker.join("access.jsonl"), DEFAULT_ACCESS_LOG_MAX_BYTES);
        log.log("dead", &access_event(200));
        log.log("dead", &access_event(200));
        assert_eq!(log.stats().errors, 2);
        assert_eq!(log.stats().lines, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
