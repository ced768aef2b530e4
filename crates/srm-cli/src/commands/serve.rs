//! `srm serve` — run the long-lived estimation service.
//!
//! Binds the srm-serve HTTP server, writes the chosen port to
//! `--port-file` (so scripts can bind port 0 and discover the real
//! port), and blocks until SIGTERM/SIGINT. Shutdown is graceful: the
//! listener stops, every accepted job finishes, then the drain
//! summary is printed.
//!
//! With `--state-dir` the server is also crash-durable: completed
//! jobs, the fit cache, and in-flight work are logged to a WAL and
//! recovered after a kill — see the srm-serve `store` module.
//!
//! Request correlation (DESIGN.md §17): `--access-log FILE` writes
//! one JSONL line per request with the trace id and a latency
//! breakdown (rotated to `FILE.1` at `--access-log-max-mb`), and
//! `--flight-recorder` keeps one bounded in-memory ring of the last
//! 4096 events across the process that is dumped to the state dir on
//! panic, engine failure, drain, or on demand via
//! `POST /v1/debug/flightrec`.

use crate::args::{ArgError, Args};
use srm_serve::{signal, Server, ServerConfig, ServerState};
use srm_store::SyncPolicy;

const FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue-capacity",
    "trace-dir",
    "port-file",
    "retry-after",
    "job-history",
    "cache-capacity",
    "state-dir",
    "wal-sync",
    "snapshot-every",
    "shards",
    "http-handlers",
    "conn-backlog",
    "access-log",
    "access-log-max-mb",
];

const SWITCHES: &[&str] = &["flight-recorder"];

/// Runs the subcommand. Blocks until a termination signal arrives.
///
/// # Errors
///
/// Returns [`ArgError`] on bad flags or when the listener cannot
/// bind.
pub fn run(raw: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(raw, FLAGS, SWITCHES)?;
    let config = build_config(&args)?;
    serve(config, args.get("port-file"))
}

/// Maps parsed flags onto a [`ServerConfig`]; split from [`run`] so
/// tests can check the mapping without binding a listener.
fn build_config(args: &Args) -> Result<ServerConfig, ArgError> {
    Ok(ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8377").to_owned(),
        workers: args.get_parsed("workers", 2usize)?.max(1),
        queue_capacity: args.get_parsed("queue-capacity", 16usize)?,
        trace_dir: args.get("trace-dir").map(str::to_owned),
        retry_after_secs: args.get_parsed("retry-after", 1u64)?,
        job_history_limit: args.get_parsed("job-history", 1_024usize)?.max(1),
        cache_capacity: args.get_parsed("cache-capacity", 256usize)?.max(1),
        state_dir: args.get("state-dir").map(str::to_owned),
        wal_sync: SyncPolicy::parse(args.get("wal-sync").unwrap_or("off")).map_err(ArgError)?,
        snapshot_every: args
            .get_parsed("snapshot-every", srm_serve::store::DEFAULT_SNAPSHOT_EVERY)?
            .max(1),
        shards: args
            .get_parsed("shards", srm_serve::job::DEFAULT_SHARDS)?
            .max(1),
        http_handlers: args.get_parsed("http-handlers", 8usize)?.max(1),
        conn_backlog: args.get_parsed("conn-backlog", 256usize)?.max(1),
        access_log: args.get("access-log").map(str::to_owned),
        access_log_max_bytes: args
            .get_parsed(
                "access-log-max-mb",
                srm_serve::DEFAULT_ACCESS_LOG_MAX_BYTES / (1024 * 1024),
            )?
            .max(1)
            * 1024
            * 1024,
        flight_recorder: args.has_switch("flight-recorder"),
        watch_signals: true,
        gate: None,
    })
}

/// Starts the server and blocks until the process-wide signal flag
/// raises; split from [`run`] so tests can drive it with an ephemeral
/// port and a programmatic shutdown.
pub(crate) fn serve(config: ServerConfig, port_file: Option<&str>) -> Result<String, ArgError> {
    // Clear any stale flag first: a handler is not installed yet, so
    // a real signal in this window still takes the default action.
    signal::reset();
    signal::install_handlers();
    let server =
        Server::start(config).map_err(|e| ArgError(format!("cannot start server: {e}")))?;
    let addr = server.addr();
    if let Some(path) = port_file {
        // Atomic (tmp + rename): a watcher polling the file never
        // observes a half-written port.
        srm_store::atomic_write_file(
            std::path::Path::new(path),
            format!("{}\n", addr.port()).as_bytes(),
        )
        .map_err(|e| ArgError(format!("cannot write port file `{path}`: {e}")))?;
    }
    eprintln!("srm serve: listening on http://{addr} (SIGTERM/SIGINT to drain)");
    let state = server.join();
    Ok(summary(&state))
}

fn summary(state: &ServerState) -> String {
    let (queued, running, done, failed, cancelled) = state.store.counts();
    let mut out = format!(
        "srm serve: drained and stopped\n\
         jobs      : {done} done, {failed} failed, {cancelled} cancelled, \
         {queued} queued, {running} running\n\
         cache     : {} hits, {} misses, {} entries\n\
         rejected  : {} (queue full)\n",
        state.cache.hits(),
        state.cache.misses(),
        state.cache.len(),
        state.metrics.jobs_rejected.get(),
    );
    if let Some(wal) = state.wal_stats() {
        out.push_str(&format!(
            "store     : {} wal records appended, {} snapshots, {} errors\n",
            wal.appended, wal.snapshots, wal.errors,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    #[test]
    fn serves_until_signalled_and_prints_drain_summary() {
        let port_file = std::env::temp_dir().join(format!("srm_serve_port_{}", std::process::id()));
        let port_path = port_file.to_str().unwrap().to_owned();
        let handle = std::thread::spawn(move || {
            serve(
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    watch_signals: true,
                    ..ServerConfig::default()
                },
                Some(&port_path),
            )
        });

        // Discover the ephemeral port the way scripts do.
        let deadline = Instant::now() + Duration::from_secs(10);
        let port: u16 = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse() {
                    break port;
                }
            }
            assert!(Instant::now() < deadline, "port file never appeared");
            std::thread::sleep(Duration::from_millis(10));
        };

        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: srm\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("crate_version"), "{response}");

        // A raised signal flag is exactly what SIGTERM would leave.
        signal::request();
        let out = handle.join().unwrap().unwrap();
        signal::reset();
        assert!(out.contains("drained and stopped"), "{out}");
        assert!(out.contains("cache"), "{out}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn maps_tracing_flags_onto_server_config() {
        let raw: Vec<String> = [
            "serve",
            "--access-log",
            "/tmp/access.jsonl",
            "--access-log-max-mb",
            "4",
            "--flight-recorder",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let args = Args::parse(&raw, FLAGS, SWITCHES).unwrap();
        let config = build_config(&args).unwrap();
        assert_eq!(config.access_log.as_deref(), Some("/tmp/access.jsonl"));
        assert_eq!(config.access_log_max_bytes, 4 * 1024 * 1024);
        assert!(config.flight_recorder);

        // Defaults: tracing extras are off unless asked for.
        let bare = Args::parse(&["serve".to_owned()], FLAGS, SWITCHES).unwrap();
        let config = build_config(&bare).unwrap();
        assert_eq!(config.access_log, None);
        assert_eq!(
            config.access_log_max_bytes,
            srm_serve::DEFAULT_ACCESS_LOG_MAX_BYTES
        );
        assert!(!config.flight_recorder);
    }

    #[test]
    fn rejects_unknown_flags() {
        let raw: Vec<String> = ["serve", "--bogus", "1"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert!(run(&raw).is_err());
    }
}
