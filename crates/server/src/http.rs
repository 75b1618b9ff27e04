//! A hand-rolled HTTP/1.1 request/response codec over blocking sockets.
//!
//! The build environment is offline, so there is no hyper/tokio; the server
//! speaks exactly the slice of HTTP/1.1 its clients need — which is also
//! the slice the SPARQL protocol needs:
//!
//! * request line + headers, bounded by [`Limits::max_head_bytes`],
//! * bodies via `Content-Length` or `Transfer-Encoding: chunked`, bounded
//!   by [`Limits::max_body_bytes`],
//! * persistent connections (HTTP/1.1 keep-alive by default, HTTP/1.0
//!   opt-in via `Connection: keep-alive`),
//! * percent-decoding for query strings.
//!
//! Everything malformed maps to a 4xx through [`HttpError::status`] — the
//! codec returns errors, it never panics on wire input (property-tested in
//! the crate's fuzz tests).

use std::fmt;
use std::io::{self, BufRead, IoSlice, Write};

/// Byte budgets a connection may not exceed; requests past them are
/// answered with `431` (head) / `413` (body) instead of buffering
/// unboundedly.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Request line + headers, including CRLFs.
    pub max_head_bytes: usize,
    /// Declared or chunk-accumulated body size.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The socket failed mid-request (client vanished); no response can be
    /// delivered.
    Io(String),
    /// The socket's read timeout elapsed.  The connection handler uses
    /// this to reap idle keep-alive connections and to poll the shutdown
    /// flag; no response is written.
    TimedOut,
    /// The bytes were not valid HTTP.
    Malformed(String),
    /// The request head exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// The request body exceeded [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// A `Transfer-Encoding` other than `chunked`, or a bad chunk frame.
    BadTransferEncoding(String),
    /// An HTTP version this server does not speak.
    UnsupportedVersion(String),
}

impl HttpError {
    /// The response status for this error — `0` for I/O errors, where the
    /// peer is gone and no status can be written.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) | HttpError::TimedOut => 0,
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::BadTransferEncoding(_) => 400,
            HttpError::UnsupportedVersion(_) => 505,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::TimedOut => write!(f, "socket read timed out"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::BadTransferEncoding(why) => write!(f, "bad transfer encoding: {why}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version: {v}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::TimedOut,
            _ => HttpError::Io(e.to_string()),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target, percent-decoded.
    pub path: String,
    /// The raw query string after `?` (still percent-encoded; decode per
    /// parameter via [`Request::query_param`]).
    pub query: String,
    /// `1.0` or `1.1`.
    pub version: String,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body bytes (empty when the request had none).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The percent-decoded value of a query-string parameter.
    pub fn query_param(&self, name: &str) -> Option<String> {
        for pair in self.query.split('&') {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            if percent_decode(k) == name {
                return Some(percent_decode(v));
            }
        }
        None
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("connection").unwrap_or("");
        if self.version == "1.0" {
            connection.eq_ignore_ascii_case("keep-alive")
        } else {
            !connection.eq_ignore_ascii_case("close")
        }
    }
}

/// Percent-decode a URI component; `+` decodes to a space (form encoding),
/// invalid escapes pass through verbatim rather than failing the request.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                }) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode a URI component (everything but unreserved characters).
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for b in input.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(char::from(b))
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Read one request off a buffered stream.
///
/// Returns `Ok(None)` on a clean EOF *before any request byte* — the peer
/// closed an idle keep-alive connection, which is not an error.  EOF
/// mid-request is [`HttpError::Malformed`].
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    let mut head = Vec::new();
    // Read the head byte-wise up to the blank line; byte-wise is fine
    // because the caller hands us a BufReader.
    loop {
        let mut byte = [0u8; 1];
        let n = read_byte(reader, &mut byte)?;
        if n == 0 {
            if head.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("EOF inside request head".into()));
        }
        head.push(byte[0]);
        if head.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        // Be liberal: accept bare-LF line endings too.
        if head.ends_with(b"\n\n") {
            break;
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request head".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method '{method}'")));
    }
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version_token = parts.next().unwrap_or("HTTP/1.0");
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line".into()));
    }
    let version = match version_token {
        "HTTP/1.1" => "1.1",
        "HTTP/1.0" => "1.0",
        other => return Err(HttpError::UnsupportedVersion(other.to_string())),
    }
    .to_string();

    let (raw_path, query) = target.split_once('?').unwrap_or((target, ""));
    if !raw_path.starts_with('/') {
        return Err(HttpError::Malformed(format!(
            "request target '{raw_path}' is not an absolute path"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path: percent_decode(raw_path),
        query: query.to_string(),
        version,
        headers,
        body: Vec::new(),
    };
    let body = read_body(reader, &request, limits)?;
    Ok(Some(Request { body, ..request }))
}

fn read_byte<R: BufRead>(reader: &mut R, buf: &mut [u8; 1]) -> Result<usize, HttpError> {
    loop {
        match reader.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

fn read_body<R: BufRead>(
    reader: &mut R,
    request: &Request,
    limits: &Limits,
) -> Result<Vec<u8>, HttpError> {
    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(HttpError::BadTransferEncoding(te.to_string()));
        }
        return read_chunked_body(reader, limits);
    }
    let length = match request.header("content-length") {
        Some(value) => value
            .trim()
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?,
        None => 0,
    };
    if length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; length];
    read_exact(reader, &mut body)?;
    Ok(body)
}

fn read_chunked_body<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = read_line(reader, limits)?;
        let size_token = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| HttpError::BadTransferEncoding(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            // Trailer section: zero or more header lines, then a blank line.
            loop {
                let trailer = read_line(reader, limits)?;
                if trailer.is_empty() {
                    return Ok(body);
                }
            }
        }
        // `size` is the client's number: a sum that wraps is too large too.
        let end = match body.len().checked_add(size) {
            Some(end) if end <= limits.max_body_bytes => end,
            _ => return Err(HttpError::BodyTooLarge),
        };
        let start = body.len();
        body.resize(end, 0);
        read_exact(reader, &mut body[start..])?;
        let crlf = read_line(reader, limits)?;
        if !crlf.is_empty() {
            return Err(HttpError::BadTransferEncoding(
                "chunk data not followed by CRLF".into(),
            ));
        }
    }
}

fn read_line<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = read_byte(reader, &mut byte)?;
        if n == 0 {
            return Err(HttpError::Malformed("EOF inside chunked body".into()));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::BadTransferEncoding("non-UTF-8 chunk line".into()));
        }
        line.push(byte[0]);
        if line.len() > limits.max_head_bytes {
            return Err(HttpError::BadTransferEncoding("chunk line too long".into()));
        }
    }
}

fn read_exact<R: BufRead>(reader: &mut R, buf: &mut [u8]) -> Result<(), HttpError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("EOF inside request body".into())
        } else {
            HttpError::Io(e.to_string())
        }
    })
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-written `Content-Length` /
    /// `Content-Type` / `Connection`.
    pub headers: Vec<(String, String)>,
    /// Media type for the `Content-Type` header.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Attach one extra header.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize to the wire.  `keep_alive` decides the `Connection`
    /// header; the caller closes the socket when it is false.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // Head and body leave in one vectored write: on a `TCP_NODELAY`
        // socket two writes are two segments, and the client may wake for
        // each.  The body is not copied next to the head.
        let mut slices = [IoSlice::new(head.as_bytes()), IoSlice::new(&self.body)];
        let mut unsent = &mut slices[..];
        while !unsent.is_empty() {
            match writer.write_vectored(unsent) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(written) => IoSlice::advance_slices(&mut unsent, written),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        writer.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /kg/DBpedia/sparql?query=SELECT%20%2A HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/kg/DBpedia/sparql");
        assert_eq!(req.query_param("query").as_deref(), Some("SELECT *"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(b"POST /ask HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_chunked_body_with_extension_and_trailer() {
        let wire = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
                     4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nx-trailer: 1\r\n\r\n";
        let req = parse(wire).unwrap().unwrap();
        assert_eq!(req.body, b"Wikipedia");
    }

    #[test]
    fn clean_eof_is_none_mid_request_is_error() {
        assert!(parse(b"").unwrap().is_none());
        assert_eq!(
            parse(b"GET / HTT").unwrap_err().status(),
            400,
            "EOF inside the head is malformed"
        );
    }

    #[test]
    fn oversized_head_and_body_are_bounded() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(200));
        let err = read_request(&mut BufReader::new(long.as_bytes()), &limits).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        assert_eq!(err.status(), 431);

        let err = read_request(
            &mut BufReader::new(&b"POST / HTTP/1.1\r\ncontent-length: 999\r\n\r\n"[..]),
            &limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
        assert_eq!(err.status(), 413);

        let err = read_request(
            &mut BufReader::new(
                &b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nff\r\n"[..],
            ),
            &limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);

        // A chunk size that wraps the running body length is too large,
        // not a panic.
        let err = read_request(
            &mut BufReader::new(
                &b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n1\r\nA\r\nffffffffffffffff\r\n"[..],
            ),
            &limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
    }

    #[test]
    fn malformed_requests_map_to_4xx() {
        for wire in [
            &b"BROKEN\r\n\r\n"[..],
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
        ] {
            let err = parse(wire).unwrap_err();
            assert!(
                (400..500).contains(&err.status()),
                "{wire:?} gave status {}",
                err.status()
            );
        }
        let err = parse(b"GET / HTTP/2\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 505);
    }

    #[test]
    fn http10_closes_by_default() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
        let req = parse(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn percent_coding_round_trips() {
        for s in ["hello world", "a/b?c=d&e", "ünïcode 日本語", "100%"] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%zz"), "%zz", "bad escapes pass through");
    }

    #[test]
    fn response_writes_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}".into())
            .with_header("retry-after", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A writer that records each call and accepts at most `cap` bytes of
    /// it, like a socket whose send buffer is nearly full.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for buf in bufs {
                let room = self.cap - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_survives_short_writes() {
        let response =
            Response::json(200, "{\"answers\":[]}".into()).with_header("retry-after", "1");
        let mut wire = Vec::new();
        response.write_to(&mut wire, true).unwrap();

        let mut whole = CountingWriter {
            bytes: Vec::new(),
            calls: 0,
            cap: usize::MAX,
        };
        response.write_to(&mut whole, true).unwrap();
        assert_eq!(whole.calls, 1, "head and body must leave in one write");
        assert_eq!(whole.bytes, wire);

        // A writer that takes 7 bytes a call still gets every byte, in order.
        let mut trickle = CountingWriter {
            bytes: Vec::new(),
            calls: 0,
            cap: 7,
        };
        response.write_to(&mut trickle, false).unwrap();
        let mut closing = Vec::new();
        response.write_to(&mut closing, false).unwrap();
        assert_eq!(trickle.bytes, closing);
        assert_eq!(trickle.calls, closing.len().div_ceil(7));
    }
}
