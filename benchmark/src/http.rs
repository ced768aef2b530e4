//! A minimal HTTP/1.1 client: one connection per request, as the
//! service expects (`Connection: close`).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a request may take before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A response and how long the round trip took.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Connect to last byte read, milliseconds.
    pub ms: f64,
}

/// Sends one request on a fresh connection and reads the whole reply.
/// `trace` is sent as `x-srm-trace-id` when given.
///
/// # Errors
///
/// Returns a message on connect, I/O or framing failure.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    trace: Option<&str>,
) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .map_err(|e| format!("timeouts: {e}"))?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: srm\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(trace) = trace {
        head.push_str(&format!("{}: {trace}\r\n", srm_obs::TRACE_HEADER));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {raw:?}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok(Reply { status, body, ms })
}
