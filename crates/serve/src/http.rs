//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! `smtxd` speaks exactly the subset its API needs: one request per
//! connection (`Connection: close` semantics), `Content-Length` bodies,
//! bounded header and body sizes so a malformed or hostile client cannot
//! balloon memory, and socket timeouts so a stalled client cannot pin an
//! accept thread. The same module carries the tiny client used by
//! `smtx-client` and the loopback tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request line or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes (job specs are tiny).
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path component of the request target (query strings not used).
    pub path: String,
    /// Body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// A malformed request, mapped to a 400 by the server.
#[derive(Debug)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Parses one request out of the front of `buf` without consuming it.
///
/// Driven by the event loop as bytes arrive: `Ok(None)` means the head or body is still
/// incomplete (read more), `Ok(Some((req, consumed)))` hands back the
/// request and how many bytes of `buf` it occupied, and `Err` is a
/// malformed request the caller answers 400 to. The same bounds apply:
/// [`MAX_LINE`], [`MAX_HEADERS`], [`MAX_BODY`] — and an incomplete head
/// larger than every header could legally be is rejected rather than
/// buffered forever.
pub fn try_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, BadRequest> {
    // Find the end of the head: the first empty line. Lines end at `\n`
    // with an optional `\r` before it.
    let mut head_end = None;
    let mut line_start = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            let mut line_len = i - line_start;
            if line_len > 0 && buf[i - 1] == b'\r' {
                line_len -= 1;
            }
            if line_len == 0 {
                head_end = Some(i + 1);
                break;
            }
            line_start = i + 1;
        } else if i - line_start > MAX_LINE {
            return Err(BadRequest("header line too long".to_string()));
        }
    }
    let Some(head_end) = head_end else {
        if buf.len() > (MAX_HEADERS + 2) * MAX_LINE {
            return Err(BadRequest("request head too large".to_string()));
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| BadRequest("non-UTF-8 header".to_string()))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let start = lines.next().unwrap_or_default();
    let mut parts = start.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(BadRequest(format!("bad request line `{start}`")));
    }
    if !target.starts_with('/') {
        return Err(BadRequest(format!("bad target `{target}`")));
    }
    let path = target.split('?').next().unwrap_or(&target).to_string();

    let mut content_length = 0usize;
    let mut headers = 0usize;
    for line in lines {
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(BadRequest("too many headers".to_string()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(BadRequest(format!("bad header `{line}`")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| BadRequest(format!("bad content-length `{value}`")))?;
            if content_length > MAX_BODY {
                return Err(BadRequest(format!("body too large ({content_length} bytes)")));
            }
        }
    }
    if buf.len() < head_end + content_length {
        return Ok(None);
    }
    let body = buf[head_end..head_end + content_length].to_vec();
    Ok(Some((Request { method, path, body }, head_end + content_length)))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes. Errors are returned so the
/// handler can count them, but a client that hung up mid-response is not a
/// server failure.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_bytes(stream, status, content_type, body.as_bytes())
}

/// Byte-body variant of [`respond`] for binary payloads (trace files).
pub fn respond_bytes(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = response_head(status, content_type, Some(body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Builds a response head. `content_length: None` produces a
/// close-delimited response (no `content-length` header — the body ends
/// when the connection does), which is how streaming endpoints answer.
#[must_use]
pub fn response_head(status: u16, content_type: &str, content_length: Option<usize>) -> String {
    match content_length {
        Some(n) => format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
             content-length: {n}\r\nconnection: close\r\n\r\n",
            reason(status)
        ),
        None => format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
             connection: close\r\n\r\n",
            reason(status)
        ),
    }
}

/// Issues one request against `addr` and returns the response status plus
/// a reader positioned at the first body byte. The caller consumes the
/// close-delimited body incrementally — this is how streaming endpoints
/// (`/v1/batch`) are read, frame by frame, as results land.
pub fn client_stream(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<(u16, BufReader<TcpStream>)> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("cannot resolve {addr}")))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
         content-type: application/json\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;

    let mut r = BufReader::new(stream);
    let mut status_line = String::new();
    r.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line `{status_line}`")))?;
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    Ok((status, r))
}

/// A parsed client-side response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// Issues one request against `addr` and reads the full response.
/// `timeout` bounds connect, read and write individually.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<Response> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("cannot resolve {addr}")))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
         content-type: application/json\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;

    let mut r = BufReader::new(stream);
    let mut status_line = String::new();
    r.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line `{status_line}`")))?;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            r.read_exact(&mut buf)?;
            String::from_utf8_lossy(&buf).into_owned()
        }
        None => {
            let mut buf = String::new();
            r.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as one complete request that fills the whole buffer.
    fn parse(raw: &[u8]) -> Result<Request, BadRequest> {
        try_parse(raw).map(|parsed| {
            let (req, used) = parsed.expect("complete request");
            assert_eq!(used, raw.len());
            req
        })
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn strips_query_and_requires_http() {
        let req = parse(b"GET /metrics?x=1 HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
        assert!(parse(b"GET /x SPDY/9\r\n\r\n").is_err());
        assert!(parse(b"nonsense\r\n\r\n").is_err());
        assert!(parse(b"GET x HTTP/1.1\r\n\r\n").is_err());
        // Bare-\n line endings parse like \r\n ones.
        assert_eq!(parse(b"GET /healthz HTTP/1.1\n\n").unwrap().path, "/healthz");
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(try_parse(raw.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(try_parse(b"GET / HTTP/1.1\r\nno-colon\r\n\r\n").is_err());
        assert!(try_parse(b"GET / HTTP/1.1\r\nContent-Length: four\r\n\r\n").is_err());
        assert!(try_parse(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n").is_err());
        let long = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(try_parse(long.as_bytes()).is_err());
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(MAX_HEADERS + 1));
        assert!(try_parse(many.as_bytes()).is_err());
        let most = format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(MAX_HEADERS));
        assert!(parse(most.as_bytes()).is_ok());
    }

    #[test]
    fn try_parse_handles_split_arrivals() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // Every prefix short of the full request is "not yet".
        for cut in 0..raw.len() {
            assert!(try_parse(&raw[..cut]).expect("prefixes parse").is_none(), "cut {cut}");
        }
        let (req, used) = try_parse(raw).unwrap().expect("complete request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/v1/jobs"));
        assert_eq!(req.body, b"body");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn try_parse_leaves_pipelined_bytes_unconsumed() {
        let (req, used) = try_parse(b"GET /metrics?x=1 HTTP/1.0\r\n\r\ntrailing").unwrap().unwrap();
        assert_eq!(req.path, "/metrics");
        // Pipelined leftovers stay in the buffer (one request per
        // connection: the server never parses past the first).
        assert_eq!(used, "GET /metrics?x=1 HTTP/1.0\r\n\r\n".len());
    }

    #[test]
    fn try_parse_bounds_a_head_that_never_ends() {
        let junk = vec![b'a'; (MAX_HEADERS + 2) * MAX_LINE + MAX_LINE];
        assert!(try_parse(&junk).is_err());
    }
}
