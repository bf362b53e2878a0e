//! A minimal, std-only HTTP/1.1 layer: just enough protocol for the
//! evaluation daemon — request parsing with bounded head/body sizes,
//! `Expect: 100-continue` support (curl sends it for JSON bodies), and
//! response writers for both fixed-length and chunked (streaming)
//! replies. Every connection serves exactly one request and closes
//! (`Connection: close`), which keeps the worker loop trivial and makes
//! backpressure accounting exact: one queue slot is one request.

use std::io::{Read, Write};

use snoop_numeric::json::json_string;

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body, in bytes (a scenario batch far larger
/// than this should be split by the client).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// The request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the target, query string stripped.
    pub path: String,
    /// `key=value` pairs of the query string, in order; flag-style keys
    /// without `=` carry an empty value.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names and trimmed values, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The first query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending anything — a
    /// normal event (health probes, cancelled clients), not an error to
    /// report.
    Closed,
    /// Transport failure (timeout, reset) mid-request.
    Io(String),
    /// The bytes do not parse as an HTTP/1.1 request.
    Malformed(String),
    /// Head or body exceeds the configured bound (maps to `413`).
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed before a request"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
            HttpError::Malformed(e) => write!(f, "malformed request: {e}"),
            HttpError::TooLarge(e) => write!(f, "request too large: {e}"),
        }
    }
}

/// Reads and parses one request from the stream, answering
/// `Expect: 100-continue` inline so body-bearing clients proceed.
///
/// # Errors
///
/// [`HttpError::Closed`] on a clean immediate EOF; [`HttpError::Io`] /
/// [`HttpError::Malformed`] / [`HttpError::TooLarge`] otherwise.
pub fn read_request<S: Read + Write>(stream: &mut S) -> Result<Request, HttpError> {
    // Accumulate until the blank line ending the head; whatever arrives
    // past it is the start of the body.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = stream.read(&mut tmp).map_err(|e| HttpError::Io(e.to_string()))?;
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed("connection closed mid-head".to_string()));
        }
        buf.extend_from_slice(&tmp[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad request line {request_line:?}")));
    }
    let (path, query) = parse_target(&target);

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }

    // curl (and other strict clients) withhold a large body until the
    // server blesses the request head.
    if headers
        .iter()
        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"))
    {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| stream.flush())
            .map_err(|e| HttpError::Io(e.to_string()))?;
    }

    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let n = stream.read(&mut tmp).map_err(|e| HttpError::Io(e.to_string()))?;
        if n == 0 {
            return Err(HttpError::Malformed(format!(
                "connection closed after {} of {content_length} body bytes",
                body.len()
            )));
        }
        body.extend_from_slice(&tmp[..n]);
    }
    body.truncate(content_length);

    Ok(Request { method, path, query, headers, body })
}

/// Position of the `\r\n\r\n` separating head from body.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into path and parsed query pairs. No percent
/// decoding: the daemon's parameters are plain tokens.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (p.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// Canonical reason phrase for the status codes the daemon uses.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response (and flushes). Extra headers
/// are emitted verbatim after the standard set.
///
/// # Errors
///
/// Propagates transport errors; the caller just drops the connection.
pub fn write_response<W: Write>(
    out: &mut W,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    out.write_all(head.as_bytes())?;
    out.write_all(body)?;
    out.flush()
}

/// Convenience: a JSON error body `{"error": …}` with the given status.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_error<W: Write>(out: &mut W, code: u16, message: &str) -> std::io::Result<()> {
    let body = format!("{{\"error\":{}}}\n", json_string(message));
    write_response(out, code, "application/json", &[], body.as_bytes())
}

/// A chunked-transfer response in progress: the head is written on
/// construction, each [`ChunkedWriter::chunk`] flushes one chunk (so
/// clients see results as they complete), and [`ChunkedWriter::finish`]
/// terminates the stream.
pub struct ChunkedWriter<'a, W: Write> {
    out: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Starts a chunked response with the given status and content type.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start(out: &'a mut W, code: u16, content_type: &str) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_text(code)
        );
        out.write_all(head.as_bytes())?;
        out.flush()?;
        Ok(ChunkedWriter { out })
    }

    /// Writes one chunk and flushes it to the client. Empty data is
    /// skipped (an empty chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.out, "{:x}\r\n", data.len())?;
        self.out.write_all(data)?;
        self.out.write_all(b"\r\n")?;
        self.out.flush()
    }

    /// Terminates the chunked stream.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> std::io::Result<()> {
        self.out.write_all(b"0\r\n\r\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test stream: reads from a canned request, captures writes.
    struct Duplex {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Duplex {
        fn new(input: &[u8]) -> Self {
            Duplex { input: std::io::Cursor::new(input.to_vec()), output: Vec::new() }
        }
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let mut s = Duplex::new(
            b"POST /eval?backends=mva&stream HTTP/1.1\r\n\
              Host: localhost\r\nContent-Length: 5\r\n\r\nhello",
        );
        let req = read_request(&mut s).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/eval");
        assert_eq!(req.query_param("backends"), Some("mva"));
        assert_eq!(req.query_param("stream"), Some(""));
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn answers_expect_100_continue_before_reading_the_body() {
        let mut s = Duplex::new(
            b"POST /eval HTTP/1.1\r\nExpect: 100-continue\r\n\
              Content-Length: 2\r\n\r\nok",
        );
        let req = read_request(&mut s).unwrap();
        assert_eq!(req.body, b"ok");
        let written = String::from_utf8(s.output).unwrap();
        assert!(written.starts_with("HTTP/1.1 100 Continue\r\n\r\n"), "{written}");
    }

    #[test]
    fn rejects_garbage_and_oversized_requests() {
        let mut s = Duplex::new(b"NOT AN HTTP REQUEST\r\n\r\n");
        assert!(matches!(read_request(&mut s), Err(HttpError::Malformed(_))));

        let mut s = Duplex::new(b"");
        assert!(matches!(read_request(&mut s), Err(HttpError::Closed)));

        let huge = format!(
            "POST /eval HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut s = Duplex::new(huge.as_bytes());
        assert!(matches!(read_request(&mut s), Err(HttpError::TooLarge(_))));

        let mut s = Duplex::new(b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        assert!(matches!(read_request(&mut s), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn fixed_and_chunked_responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", &[("Retry-After", "1".into())], b"{}")
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");

        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, "application/x-ndjson").unwrap();
        w.chunk(b"line one\n").unwrap();
        w.chunk(b"").unwrap(); // skipped, must not terminate the stream
        w.chunk(b"line two\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        assert!(text.contains("9\r\nline one\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }
}
