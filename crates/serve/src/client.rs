//! Std-only blocking HTTP client, so the smoke gate and the tests
//! need no curl.
//!
//! Each thread keeps at most one idle connection, with the address it
//! leads to, and sends its next request to that address on it (as Go's
//! default `http.Client` does). A response is read by its
//! `Content-Length`, so the connection is ready for the next request
//! as soon as the body is in. The connection is dropped when the
//! server answers `Connection: close`, or on any error, timeout or
//! short body. A reused connection can have been closed by the server
//! while it sat idle: if it fails before the first response byte
//! arrives, the request is sent once more on a fresh connection. That
//! is safe because every endpoint may be repeated: `/run` answers the
//! same config with the same bytes, and `/healthz` and `/shutdown`
//! change nothing the first call did not.

use std::cell::RefCell;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{find_header, find_terminator, read_more};

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code (`200`, `429`, …).
    pub status: u16,
    /// Headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body text.
    pub body: String,
}

impl ClientResponse {
    /// A header value, by lowercased name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

thread_local! {
    /// This thread's idle connection and the address it leads to.
    static IDLE: RefCell<Option<(String, TcpStream)>> = const { RefCell::new(None) };
}

/// `POST` a body to `addr` (e.g. `"127.0.0.1:8080"`) at `path`.
/// `timeout_ms` bounds each socket read/write (0 = no timeout). A
/// response shorter than its declared `Content-Length` is an error —
/// a mid-response server crash must never look like a short answer.
pub fn http_post(
    addr: &str,
    path: &str,
    body: &str,
    timeout_ms: u64,
) -> Result<ClientResponse, String> {
    round_trip(addr, "POST", path, body, timeout_ms)
}

/// `GET` from `addr` at `path`.
pub fn http_get(addr: &str, path: &str, timeout_ms: u64) -> Result<ClientResponse, String> {
    round_trip(addr, "GET", path, "", timeout_ms)
}

/// How an exchange failed.
enum Failure {
    /// The request could not be sent, or the connection ended before
    /// the first response byte.
    Unanswered(String),
    /// A socket read or write outlasted the timeout.
    TimedOut,
    /// Anything else, after the response had begun.
    Broken(String),
}

fn round_trip(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout_ms: u64,
) -> Result<ClientResponse, String> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    let idle = IDLE.with(|c| c.borrow_mut().take());
    if let Some((_, stream)) = idle.filter(|(a, _)| a == addr) {
        match exchange(stream, request.as_bytes(), timeout) {
            // Closed while idle: resend once on a fresh connection.
            Err(Failure::Unanswered(_)) => {}
            done => return settle(addr, path, done),
        }
    }
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    settle(addr, path, exchange(stream, request.as_bytes(), timeout))
}

/// Keep a reusable connection as this thread's idle one, and turn a
/// failure into the caller's error text.
fn settle(
    addr: &str,
    path: &str,
    done: Result<(ClientResponse, Option<TcpStream>), Failure>,
) -> Result<ClientResponse, String> {
    match done {
        Ok((response, kept)) => {
            if let Some(stream) = kept {
                IDLE.with(|c| *c.borrow_mut() = Some((addr.to_string(), stream)));
            }
            Ok(response)
        }
        Err(Failure::TimedOut) => Err(format!("request to {addr}{path} timed out")),
        Err(Failure::Unanswered(e) | Failure::Broken(e)) => Err(e),
    }
}

/// Send one request and read its response. The stream comes back when
/// it can carry the next request.
fn exchange(
    mut stream: TcpStream,
    request: &[u8],
    timeout: Option<Duration>,
) -> Result<(ClientResponse, Option<TcpStream>), Failure> {
    stream
        .set_read_timeout(timeout)
        .map_err(|e| Failure::Broken(format!("set_read_timeout: {e}")))?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| Failure::Broken(format!("set_write_timeout: {e}")))?;
    stream
        .write_all(request)
        .map_err(|e| Failure::Unanswered(format!("send request: {e}")))?;

    let mut raw = Vec::new();
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_terminator(&raw, scanned) {
            break pos;
        }
        scanned = raw.len().saturating_sub(3);
        let unanswered = raw.is_empty();
        let n = read_more(&mut stream, &mut raw).map_err(|e| read_failure(e, unanswered))?;
        if n == 0 {
            let msg = String::from("truncated response: no header terminator");
            return Err(if unanswered {
                Failure::Unanswered(msg)
            } else {
                Failure::Broken(msg)
            });
        }
    };

    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Failure::Broken(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let close =
        find_header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));

    let body_start = header_end + 4;
    let length = find_header(&headers, "content-length")
        .ok_or_else(|| Failure::Broken(String::from("response has no Content-Length")))?;
    let want: usize = length
        .parse()
        .map_err(|_| Failure::Broken(format!("bad Content-Length {length:?}")))?;
    let body_end = body_start + want;
    while raw.len() < body_end {
        let n = read_more(&mut stream, &mut raw).map_err(|e| read_failure(e, false))?;
        if n == 0 {
            return Err(Failure::Broken(format!(
                "truncated response body: got {} of {want} bytes",
                raw.len() - body_start
            )));
        }
    }
    let reusable = !close && raw.len() == body_end;
    let response = ClientResponse {
        status,
        headers,
        body: String::from_utf8_lossy(&raw[body_start..body_end]).into_owned(),
    };
    Ok((response, reusable.then_some(stream)))
}

/// A failed read: a timeout, or a broken connection (`unanswered` when
/// no response byte had arrived yet).
fn read_failure(e: std::io::Error, unanswered: bool) -> Failure {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => Failure::TimedOut,
        _ if unanswered => Failure::Unanswered(format!("read response: {e}")),
        _ => Failure::Broken(format!("read response: {e}")),
    }
}
