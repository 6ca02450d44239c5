//! Minimal HTTP/1.1 framing shared by the server and the client.
//!
//! Deliberately tiny: request line + headers + `Content-Length` body.
//! No chunked encoding. Connections are persistent: a request is read
//! into a per-connection buffer, and whatever arrived past its body
//! stays there for the next request on the same connection. Every
//! response says whether the server keeps the connection
//! (`Connection: keep-alive`) or closes it after this answer
//! (`Connection: close`).

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

impl HttpRequest {
    /// A header value, by lowercased name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// True when the client asked to close the connection after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
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
/// timeout the caller set on the socket. `pending` is the
/// connection's buffer: it holds the bytes already read but not yet
/// consumed (empty on a new connection), and on success it keeps every
/// byte past this request's body for the next call. Never panics:
/// every malformed, oversized, interrupted or timed-out read maps to
/// an [`HttpError`].
pub fn read_http_request<R: Read>(
    stream: &mut R,
    pending: &mut Vec<u8>,
) -> Result<HttpRequest, HttpError> {
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_terminator(pending, scanned) {
            break pos;
        }
        if pending.len() > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge);
        }
        // A terminator may straddle this read: its first three bytes
        // can already be in the buffer.
        scanned = pending.len().saturating_sub(3);
        fill(stream, pending)?;
    };

    let mut request = parse_head(&pending[..header_end])?;
    let content_length: usize = match request.header("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    let body_start = header_end + 4;
    let end = body_start + content_length;
    while pending.len() < end {
        fill(stream, pending)?;
    }
    request.body = pending[body_start..end].to_vec();
    pending.drain(..end);
    Ok(request)
}

/// The request line and headers of a header block (terminator
/// excluded), with an empty body.
fn parse_head(head: &[u8]) -> Result<HttpRequest, HttpError> {
    let head = String::from_utf8_lossy(head);
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
    Ok(HttpRequest {
        method,
        path,
        headers,
        body: Vec::new(),
    })
}

/// One read appended to `buf`, retried when interrupted. `Ok(0)` is
/// the end of the stream.
pub fn read_more<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// [`read_more`] for a request: the end of the stream and socket
/// errors are [`HttpError::Closed`], an expired read timeout is
/// [`HttpError::TimedOut`].
fn fill<R: Read>(stream: &mut R, pending: &mut Vec<u8>) -> Result<(), HttpError> {
    match read_more(stream, pending) {
        Ok(0) => Err(HttpError::Closed),
        Ok(_) => Ok(()),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Err(HttpError::TimedOut)
        }
        Err(_) => Err(HttpError::Closed),
    }
}

/// Byte offset of the first `\r\n\r\n` header terminator that starts
/// at or after `from`, if present.
pub fn find_terminator(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + from)
}

/// A header value by lowercased name, from a parsed header list.
pub fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Render a full response into one byte buffer (so fault injection
/// can truncate it at a known point). `keep_alive` picks the
/// `Connection` header: whether the server reads another request on
/// this connection after the answer.
pub fn render_http_response(
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!("HTTP/1.1 {status} {reason}\r\n");
    out.push_str("Content-Type: application/json\r\n");
    out.push_str(if keep_alive {
        "Connection: keep-alive\r\n"
    } else {
        "Connection: close\r\n"
    });
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
    keep_alive: bool,
) {
    let bytes = render_http_response(status, reason, extra_headers, body, keep_alive);
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
    let bytes = render_http_response(status, reason, extra_headers, body, false);
    let cut = bytes.len() / 2;
    let _ = stream
        .write_all(&bytes[..cut])
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its chunks one `read` at a time, then
    /// reports end of stream.
    struct Chunks(Vec<&'static [u8]>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn terminator_is_found_only_when_complete() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n", 0), None);
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\n", 0), Some(14));
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\n", 12), Some(14));
        assert_eq!(find_terminator(b"\r\n\r\n", 9), None);
    }

    #[test]
    fn terminator_split_across_reads_is_found() {
        let mut reader = Chunks(vec![b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r", b"\nrest"]);
        let mut pending = Vec::new();
        let req = read_http_request(&mut reader, &mut pending).expect("parses");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(pending, b"rest", "bytes past the request are kept");
    }

    #[test]
    fn two_requests_in_one_buffer_both_parse() {
        let mut reader = Chunks(vec![
            b"POST /run HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcPOST /run HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\nxy",
        ]);
        let mut pending = Vec::new();
        let first = read_http_request(&mut reader, &mut pending).expect("first parses");
        assert_eq!(first.body, b"abc");
        assert!(!first.wants_close());
        let second = read_http_request(&mut reader, &mut pending).expect("second parses");
        assert_eq!(second.body, b"xy");
        assert!(second.wants_close());
        assert!(pending.is_empty());
        assert!(matches!(
            read_http_request(&mut reader, &mut pending),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn response_rendering_is_framed() {
        let b = render_http_response(200, "OK", &[("X-Cache", "hit")], "{}\n", false);
        let text = String::from_utf8(b).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.contains("Content-Length: 3\r\n\r\n{}\n"));
        let kept = render_http_response(200, "OK", &[], "{}\n", true);
        assert!(String::from_utf8(kept)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }
}
