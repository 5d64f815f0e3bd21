//! A minimal, defensive HTTP/1.1 reader/writer over `std::io` streams.
//!
//! The service speaks one request per connection (`Connection: close` on
//! every response), so this module only needs to parse a request line, a
//! header block, and a `Content-Length`-framed body. Every way a client
//! can hand us garbage — an over-long header block, a missing length on
//! a POST, framing the reader does not support (`Transfer-Encoding`, or
//! more than one `Content-Length`), a body above the configured cap, a
//! read timeout — maps to a typed [`HttpError`] that the server turns
//! into a status code; nothing in here panics on wire input.

use std::io::{self, Read, Write};

/// Upper bound on the request line plus header block, in bytes. A header
/// block longer than this is treated as malformed — the service has no
/// legitimate request anywhere near this size.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, percent-decoded.
    pub path: String,
    /// Query parameters in arrival order, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter with this name, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything that can go wrong between `accept` and a parsed
/// [`Request`]. Each variant carries enough to choose a response status;
/// [`HttpError::status`] is the canonical mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or a header line did not parse → 400.
    Malformed(String),
    /// A body-bearing request arrived without `Content-Length` → 411.
    LengthRequired,
    /// The declared or delivered body exceeds the configured cap → 413.
    BodyTooLarge {
        /// The configured body cap, in bytes.
        limit: usize,
    },
    /// The socket read timed out before a full request arrived → 408.
    Timeout,
    /// The connection failed mid-read; no response can be written.
    Io(io::ErrorKind),
}

impl HttpError {
    /// The response status this error maps to. [`HttpError::Io`] has no
    /// meaningful status — the peer is gone — so it reports 400 for
    /// completeness but callers should drop the connection instead.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::LengthRequired => 411,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::Timeout => 408,
            HttpError::Io(_) => 400,
        }
    }

    /// A short machine-readable label for JSON error bodies.
    pub fn kind(&self) -> &'static str {
        match self {
            HttpError::Malformed(_) => "malformed_request",
            HttpError::LengthRequired => "length_required",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::Timeout => "timeout",
            HttpError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::LengthRequired => write!(f, "POST requires Content-Length"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::Timeout => write!(f, "timed out reading the request"),
            HttpError::Io(kind) => write!(f, "connection error: {kind:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_error(e: &io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        kind => HttpError::Io(kind),
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a query component. Invalid
/// escapes are passed through literally rather than rejected — the query
/// string only ever names a deck, so leniency cannot corrupt a payload.
pub fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    let text = std::str::from_utf8(pair).ok()?;
                    u8::from_str_radix(text, 16).ok()
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Encodes a query component: everything but unreserved characters
/// becomes `%XX`. The inverse of [`percent_decode`] for the characters
/// deck names actually contain.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char);
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    (percent_decode(path), query)
}

/// Reads the head (request line + headers) byte-by-byte until the blank
/// line, without consuming any body bytes and without trusting the peer
/// about lengths.
fn read_head(stream: &mut impl Read) -> Result<Vec<u8>, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(HttpError::Malformed(
                    "connection closed before the header block ended".into(),
                ))
            }
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(io_error(&e)),
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed(format!(
                "header block exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            return Ok(head);
        }
    }
}

/// Reads and parses one request from the stream. `max_body` caps the
/// accepted `Content-Length`; anything above it is rejected before a
/// single body byte is read.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    let head = read_head(stream)?;
    let head_text = std::str::from_utf8(&head)
        .map_err(|_| HttpError::Malformed("header block is not UTF-8".into()))?;

    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol: {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // RFC 9112 §6.3: a body framed by anything but one Content-Length
    // has no length this reader can trust.
    let count = |name: &str| headers.iter().filter(|(k, _)| k == name).count();
    if count("transfer-encoding") > 0 || count("content-length") > 1 {
        let what = "the body is not framed by exactly one Content-Length";
        return Err(HttpError::Malformed(what.into()));
    }
    // RFC 9112 §6.2: Content-Length is 1*DIGIT; `usize::from_str`
    // alone would also take a leading `+`.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| match v.parse::<usize>() {
            Ok(len) if v.bytes().all(|b| b.is_ascii_digit()) => Ok(len),
            _ => Err(HttpError::Malformed(format!("bad Content-Length: {v:?}"))),
        })
        .transpose()?;

    let body = match content_length {
        None if method == "POST" || method == "PUT" => return Err(HttpError::LengthRequired),
        None => Vec::new(),
        Some(len) if len > max_body => return Err(HttpError::BodyTooLarge { limit: max_body }),
        Some(len) => {
            let mut body = vec![0u8; len];
            stream.read_exact(&mut body).map_err(|e| io_error(&e))?;
            body
        }
    };

    let (path, query) = parse_target(target);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// The canonical reason phrase for every status code the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Connection: close` response. Write errors are
/// returned so the caller can count them, but by this point the request
/// has been fully handled — a vanished peer loses only its own reply.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with_headers(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra `(name, value)` headers between the
/// standard frame headers and the blank line. Callers supply well-formed
/// ASCII names/values (the service only emits its own fixed headers).
pub fn write_response_with_headers(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_reason(status),
        content_type,
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(text.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            "POST /analyze?name=QUICKSTART%20PLATE&perf=1 HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 4\r\n\r\ndeck",
        )
        .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.query_param("name"), Some("QUICKSTART PLATE"));
        assert_eq!(req.query_param("perf"), Some("1"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"deck");
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").expect("valid request");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_without_length_is_length_required() {
        assert_eq!(
            parse("POST /analyze HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        );
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading() {
        let err = parse("POST /analyze HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
            .expect_err("must reject");
        assert_eq!(err, HttpError::BodyTooLarge { limit: 1024 });
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            "NONSENSE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
        ] {
            let err = parse(bad).expect_err("must reject");
            assert_eq!(err.status(), 400, "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn bad_content_length_is_malformed() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").expect_err("must reject");
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+4", "", " 4x", "-0", "4 4"] {
            let head = format!("POST / HTTP/1.1\r\nContent-Length:{value}\r\n\r\ndeck");
            let err = parse(&head);
            assert!(matches!(err, Err(HttpError::Malformed(_))), "{value:?}");
        }
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 0004\r\n\r\ndeck");
        assert_eq!(req.expect("leading zeros are digits").body, b"deck");
    }

    #[test]
    fn a_second_content_length_is_malformed() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 400\r\n\r\n");
        assert!(matches!(err, Err(HttpError::Malformed(_))), "{err:?}");
    }

    #[test]
    fn a_transfer_encoded_body_is_malformed() {
        let err = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(err, Err(HttpError::Malformed(_))), "{err:?}");
    }

    #[test]
    fn header_block_cap_is_enforced() {
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        let err = parse(&huge).expect_err("must reject");
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn percent_coding_round_trips_deck_names() {
        for name in ["QUICKSTART PLATE", "a/b&c=d", "plain", "100% effort"] {
            assert_eq!(percent_decode(&percent_encode(name)), name);
        }
    }

    #[test]
    fn write_response_frames_the_body() {
        let mut out = Vec::new();
        write_response(&mut out, 422, "application/json", b"{}").expect("write to vec");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 422 Unprocessable Entity\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let mut out = Vec::new();
        write_response_with_headers(
            &mut out,
            200,
            "application/json",
            &[("X-Cafemio-Cache", "hit")],
            b"{}",
        )
        .expect("write to vec");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.contains("\r\nX-Cafemio-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
