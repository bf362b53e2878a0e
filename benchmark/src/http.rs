//! The benchmark's own HTTP/1.1 client and NDJSON decoder for the serve
//! daemon: one request per connection, chunked transfer decoding, and
//! field extraction from the `POST /eval` stream. It shares no code with
//! the program, so a change to the daemon's HTTP layer cannot change how
//! its replies are timed or checked.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Response status code.
    pub status: u16,
    /// Decoded body (chunked transfer already undone).
    pub body: Vec<u8>,
    /// Bytes received, head included.
    pub bytes: usize,
    /// Connect to first response byte, seconds.
    pub ttfb_s: f64,
    /// Connect to connection close, seconds.
    pub total_s: f64,
}

/// Sends `request` (a complete HTTP/1.1 request) on a fresh connection and
/// reads the reply to end of stream.
///
/// # Errors
///
/// Transport failures and unparsable replies.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<Exchange, String> {
    let started = Instant::now();
    let io = |e: std::io::Error| e.to_string();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.write_all(request).map_err(io)?;
    let mut raw = Vec::with_capacity(8192);
    let mut buf = [0u8; 16 * 1024];
    let mut ttfb_s = None;
    loop {
        let n = stream.read(&mut buf).map_err(io)?;
        if n == 0 {
            break;
        }
        ttfb_s.get_or_insert_with(|| started.elapsed().as_secs_f64());
        raw.extend_from_slice(&buf[..n]);
    }
    let total_s = started.elapsed().as_secs_f64();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no complete head")?;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status code")?;
    let payload = &raw[head_end + 4..];
    let body = if head.contains("transfer-encoding: chunked") {
        decode_chunked(payload)?
    } else {
        payload.to_vec()
    };
    Ok(Exchange {
        status,
        body,
        bytes: raw.len(),
        ttfb_s: ttfb_s.unwrap_or(total_s),
        total_s,
    })
}

/// A `POST` request with a body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Undoes chunked transfer encoding.
///
/// # Errors
///
/// Malformed chunk sizes and truncated chunks.
pub fn decode_chunked(mut raw: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(raw.len());
    loop {
        let line_end = raw
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("chunk size line is not terminated")?;
        let size_text = std::str::from_utf8(&raw[..line_end]).map_err(|e| e.to_string())?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        let data = &raw[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if data.len() < size + 2 || &data[size..size + 2] != b"\r\n" {
            return Err("truncated chunk".to_string());
        }
        out.extend_from_slice(&data[..size]);
        raw = &data[size + 2..];
    }
}

/// One evaluation line of a `POST /eval` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalLine<'a> {
    /// Index of the scenario in the request batch.
    pub scenario: usize,
    /// Whether the daemon answered from its cache tiers.
    pub cached: bool,
    /// Milliseconds the connection waited for a worker.
    pub queue_wait_ms: f64,
    /// The `evaluation` object, verbatim.
    pub evaluation: &'a str,
}

/// The closing `done` line of a `POST /eval` stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Done {
    /// Jobs evaluated.
    pub jobs: u64,
    /// Jobs that failed.
    pub errors: u64,
    /// Jobs served from cache.
    pub cached: u64,
    /// Daemon-side milliseconds from routing to the last job.
    pub wall_ms: f64,
}

/// Splits a `POST /eval` NDJSON body into its evaluation lines and done
/// line. Error lines count as failures of the stream.
///
/// # Errors
///
/// A line that is neither an evaluation nor the done line, an error line,
/// or a missing done line.
pub fn parse_eval_stream(body: &str) -> Result<(Vec<EvalLine<'_>>, Done), String> {
    let mut lines = Vec::new();
    for line in body.lines() {
        if field(line, "done").is_some() {
            let int = |key| {
                field(line, key)
                    .and_then(|v| v.parse().ok())
                    .ok_or(format!("done line lacks {key}"))
            };
            let done = Done {
                jobs: int("jobs")?,
                errors: int("errors")?,
                cached: int("cached")?,
                wall_ms: field(line, "wall_ms")
                    .and_then(|v| v.parse().ok())
                    .ok_or("done line lacks wall_ms")?,
            };
            return Ok((lines, done));
        }
        if let Some(error) = field(line, "error") {
            return Err(format!("job failed: {error}"));
        }
        let parse = || -> Option<EvalLine<'_>> {
            Some(EvalLine {
                scenario: field(line, "scenario")?.parse().ok()?,
                cached: field(line, "cached")? == "true",
                queue_wait_ms: field(line, "queue_wait_ms")?.parse().ok()?,
                evaluation: field(line, "evaluation")?,
            })
        };
        lines.push(parse().ok_or_else(|| format!("unrecognised line {line:?}"))?);
    }
    Err("stream has no done line".to_string())
}

/// The raw value of top-level `key` in a one-line JSON object: a scalar's
/// text, or a nested object or string verbatim.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let (mut depth, mut i) = (0usize, 0usize);
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                let end = string_end(bytes, i);
                let name = &line[i + 1..end];
                let rest = line[end + 1..].trim_start();
                if depth == 1 && name == key && rest.starts_with(':') {
                    let start = line.len() - rest.len() + 1;
                    return Some(value_at(line, start));
                }
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the quote closing the string that opens at `open`.
fn string_end(bytes: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 1,
            b'"' => return i,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// The value starting at `start` (after the colon).
fn value_at(line: &str, start: usize) -> &str {
    let bytes = line.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let begin = i;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if depth == 0 && i == begin => return &line[begin + 1..string_end(bytes, i)],
            b'"' => i = string_end(bytes, i),
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth == 0 => break,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    return &line[begin..=i];
                }
            }
            b',' if depth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    line[begin..i].trim_end()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction_handles_nesting_and_strings() {
        let line = r#"{"scenario":3,"key":"mva:{x}","cached":false,"queue_wait_ms":0.25,"evaluation":{"backend":"mva","n":4,"strategy":null}}"#;
        assert_eq!(field(line, "scenario"), Some("3"));
        assert_eq!(field(line, "key"), Some("mva:{x}"));
        assert_eq!(
            field(line, "evaluation"),
            Some(r#"{"backend":"mva","n":4,"strategy":null}"#)
        );
        assert_eq!(field(line, "n"), None, "nested keys are not top-level");
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn chunked_decoding_round_trips_and_rejects_truncation() {
        assert_eq!(
            decode_chunked(b"5\r\nhello\r\n1\r\n!\r\n0\r\n\r\n").unwrap(),
            b"hello!"
        );
        assert!(decode_chunked(b"5\r\nhel").is_err());
        assert!(decode_chunked(b"zz\r\n").is_err());
    }

    #[test]
    fn decodes_a_live_daemon_stream() {
        use snoop_mva::engine::{Engine, MvaBackend, Scenario};
        use snoop_serve::{ServeConfig, Server};
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run());
        let body = crate::gen::batch_json(&[
            crate::gen::scenario_json("WO+1", "5", 4, None),
            crate::gen::scenario_json("dragon", "20", 9, Some([0.9, 0.93, 0.4])),
        ]);
        let eval = exchange(addr, &post("/eval", &body));
        let health = exchange(addr, &get("/healthz"));
        handle.shutdown();
        daemon.join().unwrap().unwrap();

        let eval = eval.unwrap();
        assert_eq!(eval.status, 200);
        assert!(eval.ttfb_s <= eval.total_s && eval.bytes > eval.body.len());
        let text = String::from_utf8(eval.body).unwrap();
        let (lines, done) = parse_eval_stream(&text).unwrap();
        let expected: Vec<String> = Engine::new()
            .with_backend(MvaBackend)
            .evaluate_batch(&Scenario::parse_batch(&body).unwrap())
            .into_iter()
            .map(|r| r.result.unwrap().to_json())
            .collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert_eq!(line.evaluation, expected[line.scenario]);
        }
        assert_eq!((done.jobs, done.errors), (2, 0));
        let health = health.unwrap();
        assert_eq!(health.status, 200);
        assert!(String::from_utf8_lossy(&health.body).contains("\"status\":\"ok\""));
    }

    #[test]
    fn eval_stream_reports_failed_jobs() {
        let ok = "{\"scenario\":0,\"cached\":true,\"queue_wait_ms\":1.5,\"evaluation\":{\"n\":1}}\n\
                  {\"done\":true,\"scenarios\":1,\"jobs\":1,\"errors\":0,\"cached\":1,\"wall_ms\":0.5}\n";
        let (lines, done) = parse_eval_stream(ok).unwrap();
        assert_eq!(lines[0].evaluation, "{\"n\":1}");
        assert!(lines[0].cached);
        assert_eq!(
            done,
            Done {
                jobs: 1,
                errors: 0,
                cached: 1,
                wall_ms: 0.5
            }
        );
        assert!(parse_eval_stream("{\"scenario\":0,\"error\":\"boom\"}\n").is_err());
        assert!(parse_eval_stream("").is_err());
    }
}
