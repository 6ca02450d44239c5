//! Std-only blocking HTTP client, so the smoke gate and the tests
//! need no curl. One request per connection, mirroring the server's
//! `Connection: close` framing.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
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

fn round_trip(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout_ms: u64,
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| format!("set_write_timeout: {e}"))?;

    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send request: {e}"))?;

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(format!("request to {addr}{path} timed out"))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read response: {e}")),
        }
    }

    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| String::from("truncated response: no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let body_bytes = &raw[header_end + 4..];
    if let Some((_, v)) = headers.iter().find(|(n, _)| n == "content-length") {
        let want: usize = v.parse().map_err(|_| format!("bad Content-Length {v:?}"))?;
        if body_bytes.len() < want {
            return Err(format!(
                "truncated response body: got {} of {want} bytes",
                body_bytes.len()
            ));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body: String::from_utf8_lossy(body_bytes).into_owned(),
    })
}
