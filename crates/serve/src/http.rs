//! Minimal HTTP/1.1 framing shared by the server and the client.
//!
//! Deliberately tiny: request line + headers + `Content-Length` body,
//! `Connection: close` on every response. No chunked encoding, no
//! keep-alive — one request per connection keeps the worker-pool
//! accounting and the fault-injection story simple.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Upper bound on the header block (request line + headers).
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    /// Uppercase method (`GET`, `POST`).
    pub method: String,
    /// Request path (`/run`).
    pub path: String,
    /// Headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The socket read timed out (slow-loris or stalled client).
    TimedOut,
    /// The peer closed before a full request arrived.
    Closed,
    /// Syntactically not HTTP, or an unparseable length.
    Malformed(String),
    /// Header block or body over the fixed limits.
    TooLarge,
}

/// Read one full request from the stream, honouring whatever read
/// timeout the caller set on the socket. Never panics: every
/// malformed, oversized, interrupted or timed-out read maps to an
/// [`HttpError`].
pub fn read_http_request(stream: &mut TcpStream) -> Result<HttpRequest, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_terminator(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(HttpError::TimedOut)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::Closed),
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => return Err(HttpError::Malformed(format!("bad header line {line:?}"))),
        }
    }
    let content_length: usize = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(HttpError::TimedOut)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::Closed),
        }
    }
    body.truncate(content_length);
    Ok(HttpRequest {
        method,
        path,
        headers,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` header terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Render a full response into one byte buffer (so fault injection
/// can truncate it at a known point).
pub fn render_http_response(
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> Vec<u8> {
    let mut out = format!("HTTP/1.1 {status} {reason}\r\n");
    out.push_str("Content-Type: application/json\r\n");
    out.push_str("Connection: close\r\n");
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Write a complete response. A write failure is the client's problem
/// (it hung up); the server must not care, so errors are swallowed.
pub fn respond_http(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let bytes = render_http_response(status, reason, extra_headers, body);
    let _ = stream.write_all(&bytes).and_then(|()| stream.flush());
}

/// Fault injection: write only the first half of the response, then
/// drop the connection (a mid-response crash as the client sees it).
pub fn respond_http_truncated(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let bytes = render_http_response(status, reason, extra_headers, body);
    let cut = bytes.len() / 2;
    let _ = stream
        .write_all(&bytes[..cut])
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_is_found_only_when_complete() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
    }

    #[test]
    fn response_rendering_is_framed() {
        let b = render_http_response(200, "OK", &[("X-Cache", "hit")], "{}\n");
        let text = String::from_utf8(b).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.contains("Content-Length: 3\r\n\r\n{}\n"));
    }
}
