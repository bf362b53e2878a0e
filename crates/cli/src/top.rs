//! The `top` subcommand: a live terminal dashboard over a running
//! `snoop serve` daemon (or a `--metrics-out` snapshot file).
//!
//! `snoop top --url http://127.0.0.1:7077` polls the daemon's
//! `GET /metrics?format=prometheus` endpoint every `--interval-ms`
//! (default 1000) and redraws one plain-ANSI frame: queue depth and
//! bound, in-flight requests vs. workers (utilization), request rate
//! since the previous poll, cache hit ratio, and per-series latency
//! histograms (p50/p99) — per-backend `engine.job_ms.*`, per-endpoint
//! `serve.service_ms.*` and the queue wait. `snoop top --metrics FILE`
//! renders the same dashboard from a `snoop-metrics-v2` JSON file
//! instead (re-reading it each interval, so a long sweep writing
//! `--metrics-out` can be watched mid-run once the file exists).
//!
//! `--once` renders exactly one frame with no escape codes and returns
//! it as the command output — the CI-friendly mode, also handy for
//! piping. The live loop runs until the poll fails hard (daemon gone)
//! or the process is interrupted.
//!
//! Everything here is std-only: a raw `TcpStream` HTTP/1.1 GET, a
//! line-based parser for the Prometheus text exposition, and the
//! workspace's own `JsonValue` for metrics files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use snoop_numeric::json::JsonValue;

use crate::args::ParsedArgs;

/// Where one frame's numbers come from.
enum Source {
    /// Scrape `http://ADDR/metrics?format=prometheus`.
    Daemon { addr: String },
    /// Re-read a `snoop-metrics-v2` file each interval.
    File { path: String },
}

/// One histogram series as the dashboard shows it.
struct HistRow {
    name: String,
    count: u64,
    p50: f64,
    p99: f64,
}

/// One rendered-frame's worth of parsed telemetry. Absent gauges (file
/// mode has no daemon to ask) render as `-`.
#[derive(Default)]
struct Frame {
    gauges: BTreeMap<String, f64>,
    counters: BTreeMap<String, f64>,
    hists: Vec<HistRow>,
}

/// `snoop top (--url URL | --metrics FILE) [--interval-ms N] [--once]`.
///
/// # Errors
///
/// Usage errors for missing/conflicting sources; poll errors for an
/// unreachable daemon or unreadable file.
pub fn cmd_top(args: &ParsedArgs) -> Result<String, String> {
    let url = args.flag_str("url", "");
    let file = args.flag_str("metrics", "");
    let source = match (url.is_empty(), file.is_empty()) {
        (false, true) => Source::Daemon { addr: strip_scheme(&url)? },
        (true, false) => Source::File { path: file },
        (true, true) => {
            return Err(
                "top needs a source: --url http://HOST:PORT or --metrics FILE".to_string()
            )
        }
        (false, false) => {
            return Err("--url and --metrics are mutually exclusive".to_string())
        }
    };
    let interval = Duration::from_millis(args.flag_num::<u64>("interval-ms", 1000)?.max(100));
    let once = args.switch("once")?;
    // The live loop never returns: refuse unknown flags before it starts.
    args.reject_unread()?;

    if once {
        let frame = poll(&source)?;
        return Ok(render(&frame, &source, None));
    }

    // Live loop: clear + home between frames, rate from the requests
    // delta. A failed poll after a successful one usually means the
    // daemon exited — report and stop rather than spinning.
    let mut previous: Option<(f64, Instant)> = None;
    loop {
        let frame = poll(&source)?;
        let now = Instant::now();
        let requests = frame.gauges.get("snoop_http_requests_total").copied();
        let rps = match (previous, requests) {
            (Some((prev, at)), Some(cur)) => {
                let dt = now.duration_since(at).as_secs_f64();
                (dt > 0.0).then(|| (cur - prev).max(0.0) / dt)
            }
            _ => None,
        };
        if let Some(cur) = requests {
            previous = Some((cur, now));
        }
        let body = render(&frame, &source, rps);
        // \x1b[2J clears, \x1b[H homes the cursor: a full redraw per
        // frame, no terminal library needed.
        print!("\x1b[2J\x1b[H{body}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

/// Accepts `http://host:port`, `host:port` or `host:port/` and returns
/// the bare `host:port`.
fn strip_scheme(url: &str) -> Result<String, String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if let Some(stripped) = rest.strip_prefix("https://") {
        return Err(format!("snoop serve speaks plain http, not https ({stripped})"));
    }
    let addr = rest.trim_end_matches('/');
    if addr.is_empty() || !addr.contains(':') {
        return Err(format!("--url needs host:port, got {url:?}"));
    }
    Ok(addr.to_string())
}

fn poll(source: &Source) -> Result<Frame, String> {
    match source {
        Source::Daemon { addr } => {
            let body = http_get(addr, "/metrics?format=prometheus")?;
            Ok(parse_exposition(&body))
        }
        Source::File { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_metrics_json(&text).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// One blocking HTTP/1.1 GET; the daemon closes the connection after
/// each response, so reading to EOF captures the whole body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("{addr}{path} answered {status}: {}", body.trim()));
    }
    Ok(body.to_string())
}

/// Parses the subset of the Prometheus text exposition the daemon
/// emits: `name value` and `name{label="...",...} value` lines.
fn parse_exposition(body: &str) -> Frame {
    let mut frame = Frame::default();
    // Bucket accumulation per histogram name, in exposition order
    // (ascending `le`, `+Inf` last).
    let mut buckets: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        let Ok(value) = value.parse::<f64>() else { continue };
        match series.split_once('{') {
            None => {
                frame.gauges.insert(series.to_string(), value);
            }
            Some((metric, labels)) => {
                let labels = parse_labels(labels.trim_end_matches('}'));
                let name = labels.get("name").cloned().unwrap_or_default();
                match metric {
                    "snoop_hist_bucket" => {
                        let le = match labels.get("le").map(String::as_str) {
                            Some("+Inf") => f64::INFINITY,
                            Some(le) => le.parse().unwrap_or(f64::INFINITY),
                            None => continue,
                        };
                        buckets.entry(name).or_default().push((le, value as u64));
                    }
                    "snoop_hist_count" => {
                        hist_counts.insert(name, value as u64);
                    }
                    "snoop_counter_total" => {
                        frame.counters.insert(name, value);
                    }
                    "snoop_requests_total" => {
                        let endpoint =
                            labels.get("endpoint").cloned().unwrap_or_default();
                        let status = labels.get("status").cloned().unwrap_or_default();
                        frame
                            .counters
                            .insert(format!("serve.red.{endpoint}.{status}"), value);
                    }
                    _ => {}
                }
            }
        }
    }
    for (name, series) in buckets {
        let count = hist_counts.get(&name).copied().unwrap_or(0);
        frame.hists.push(HistRow {
            p50: bucket_quantile(&series, count, 0.50),
            p99: bucket_quantile(&series, count, 0.99),
            name,
            count,
        });
    }
    frame
}

/// Parses `k="v",k2="v2"` with exposition escapes in values.
fn parse_labels(text: &str) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    let mut chars = text.chars().peekable();
    loop {
        let key: String =
            chars.by_ref().take_while(|&c| c != '=').collect::<String>();
        let key = key.trim_matches(',').trim().to_string();
        if key.is_empty() {
            break;
        }
        if chars.next() != Some('"') {
            break;
        }
        let mut value = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(other) => value.push(other),
                    None => break,
                },
                c => value.push(c),
            }
        }
        labels.insert(key, value);
        if chars.peek().is_none() {
            break;
        }
    }
    labels
}

/// Reads a quantile off cumulative bucket counts: the upper bound of
/// the first bucket reaching rank `ceil(q * count)` (the terminal
/// `+Inf` bucket reports the previous finite bound).
fn bucket_quantile(buckets: &[(f64, u64)], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut last_finite = 0.0;
    for &(le, cumulative) in buckets {
        if cumulative >= target {
            return if le.is_finite() { le } else { last_finite };
        }
        if le.is_finite() {
            last_finite = le;
        }
    }
    last_finite
}

/// Parses a `snoop-metrics-v2` JSON file into the same frame shape the
/// daemon scrape produces.
fn parse_metrics_json(text: &str) -> Result<Frame, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
    if schema != snoop_numeric::probe::SCHEMA {
        return Err(format!(
            "expected a {} file, got schema {schema:?}",
            snoop_numeric::probe::SCHEMA
        ));
    }
    let mut frame = Frame::default();
    if let Some(counters) = doc.get("counters").and_then(JsonValue::as_object) {
        for (name, value) in counters {
            if let Some(v) = value.as_f64() {
                frame.counters.insert(name.clone(), v);
            }
        }
    }
    if let Some(hists) = doc.get("histograms").and_then(JsonValue::as_object) {
        for (name, h) in hists {
            let get = |k: &str| h.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            frame.hists.push(HistRow {
                name: name.clone(),
                count: get("count") as u64,
                p50: get("p50"),
                p99: get("p99"),
            });
        }
    }
    Ok(frame)
}

/// Renders one dashboard frame as plain text (the `--once` output; the
/// live loop adds only the clear-screen prefix).
fn render(frame: &Frame, source: &Source, rps: Option<f64>) -> String {
    let title = match source {
        Source::Daemon { addr } => format!("snoop top — http://{addr}"),
        Source::File { path } => format!("snoop top — {path}"),
    };
    let gauge = |name: &str| frame.gauges.get(name).copied();
    let fmt_opt = |v: Option<f64>| match v {
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{v}"),
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    };

    let mut out = title;
    if let Some(uptime) = gauge("snoop_uptime_seconds") {
        let _ = write!(out, "  (up {uptime:.1}s)");
    }
    out.push('\n');

    let _ = writeln!(
        out,
        "  queue {}/{}  inflight {}/{} workers{}  requests {}{}  429s {}",
        fmt_opt(gauge("snoop_queue_depth")),
        fmt_opt(gauge("snoop_queue_bound")),
        fmt_opt(gauge("snoop_inflight_requests")),
        fmt_opt(gauge("snoop_workers")),
        match (gauge("snoop_inflight_requests"), gauge("snoop_workers")) {
            (Some(inflight), Some(workers)) if workers > 0.0 =>
                format!(" ({:.0}% util)", inflight / workers * 100.0),
            _ => String::new(),
        },
        fmt_opt(gauge("snoop_http_requests_total")),
        match rps {
            Some(rps) => format!(" ({rps:.1} rps)"),
            None => String::new(),
        },
        fmt_opt(gauge("snoop_http_rejected_total")),
    );

    let hits = frame.counters.get("engine.cache.hits").copied().unwrap_or(0.0);
    let misses = frame.counters.get("engine.cache.misses").copied().unwrap_or(0.0);
    if hits + misses > 0.0 {
        let _ = writeln!(
            out,
            "  cache hit {:.1}% (hits {hits} misses {misses})",
            hits / (hits + misses) * 100.0
        );
    }

    if !frame.hists.is_empty() {
        let width =
            frame.hists.iter().map(|h| h.name.len()).max().unwrap_or(9).max(9);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>8}  {:>10}  {:>10}",
            "histogram", "count", "p50", "p99"
        );
        for h in &frame.hists {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8}  {:>10.3}  {:>10.3}",
                h.name, h.count, h.p50, h.p99
            );
        }
    }

    // RED summary: one line per endpoint with its status-class counts.
    let mut red: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    for (name, value) in &frame.counters {
        if let Some(rest) = name.strip_prefix("serve.red.") {
            if let Some((endpoint, class)) = rest.split_once('.') {
                red.entry(endpoint).or_default().push((class, *value));
            }
        }
    }
    if !red.is_empty() {
        out.push_str("  requests by endpoint:\n");
        for (endpoint, classes) in red {
            let detail: Vec<String> =
                classes.iter().map(|(class, n)| format!("{class}={n}")).collect();
            let _ = writeln!(out, "    {endpoint:<10} {}", detail.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_scheme_accepts_common_spellings() {
        assert_eq!(strip_scheme("http://127.0.0.1:7077").unwrap(), "127.0.0.1:7077");
        assert_eq!(strip_scheme("127.0.0.1:7077/").unwrap(), "127.0.0.1:7077");
        assert!(strip_scheme("localhost").is_err());
        assert!(strip_scheme("https://x:1").is_err());
    }

    #[test]
    fn exposition_parses_into_a_frame() {
        let body = "\
# TYPE snoop_queue_depth gauge
snoop_queue_depth 3
# TYPE snoop_http_requests_total counter
snoop_http_requests_total 41
# TYPE snoop_requests_total counter
snoop_requests_total{endpoint=\"eval\",status=\"2xx\"} 5
# TYPE snoop_counter_total counter
snoop_counter_total{name=\"engine.cache.hits\"} 7
# TYPE snoop_hist histogram
snoop_hist_bucket{name=\"serve.queue_wait_ms\",le=\"1\"} 2
snoop_hist_bucket{name=\"serve.queue_wait_ms\",le=\"4\"} 9
snoop_hist_bucket{name=\"serve.queue_wait_ms\",le=\"+Inf\"} 10
snoop_hist_sum{name=\"serve.queue_wait_ms\"} 30
snoop_hist_count{name=\"serve.queue_wait_ms\"} 10
";
        let frame = parse_exposition(body);
        assert_eq!(frame.gauges.get("snoop_queue_depth"), Some(&3.0));
        assert_eq!(frame.counters.get("serve.red.eval.2xx"), Some(&5.0));
        assert_eq!(frame.counters.get("engine.cache.hits"), Some(&7.0));
        assert_eq!(frame.hists.len(), 1);
        let h = &frame.hists[0];
        assert_eq!(h.name, "serve.queue_wait_ms");
        assert_eq!(h.count, 10);
        assert_eq!(h.p50, 4.0, "rank 5 falls in the le=4 bucket");
        assert_eq!(h.p99, 4.0, "+Inf bucket reports the last finite bound");
    }

    #[test]
    fn label_escapes_round_trip() {
        let labels = parse_labels("name=\"a\\\\b\\\"c\\nd\",le=\"+Inf\"");
        assert_eq!(labels.get("name").unwrap(), "a\\b\"c\nd");
        assert_eq!(labels.get("le").unwrap(), "+Inf");
    }

    #[test]
    fn metrics_file_mode_reads_v2_histograms() {
        let text = r#"{
  "schema": "snoop-metrics-v2",
  "spans": {},
  "counters": {"engine.cache.hits": 3, "engine.cache.misses": 1},
  "events": {},
  "histograms": {
    "fixed_point.iterations": {"count": 12, "rejected": 0, "sum": 100.0,
      "mean": 8.3, "min": 5.0, "max": 11.0, "p50": 8.0, "p90": 10.0,
      "p99": 11.0, "p999": 11.0, "buckets": [[11.0, 12]]}
  }
}"#;
        let frame = parse_metrics_json(text).unwrap();
        assert_eq!(frame.hists.len(), 1);
        assert_eq!(frame.hists[0].p99, 11.0);
        let body = render(&frame, &Source::File { path: "m.json".to_string() }, None);
        assert!(body.contains("fixed_point.iterations"), "{body}");
        assert!(body.contains("cache hit 75.0%"), "{body}");
        assert!(!body.contains('\x1b'), "--once output must be escape-free: {body:?}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(parse_metrics_json("{\"schema\": \"other\"}").is_err());
        // The histogram-free v1 layout is no longer accepted.
        let Err(err) = parse_metrics_json("{\"schema\": \"snoop-metrics-v1\"}") else {
            panic!("v1 accepted");
        };
        assert!(err.contains("snoop-metrics-v2"), "{err}");
        assert!(parse_metrics_json("not json").is_err());
    }

    #[test]
    fn bucket_quantile_clamps_and_handles_empty() {
        assert_eq!(bucket_quantile(&[], 0, 0.5), 0.0);
        let buckets = [(1.0, 5u64), (2.0, 10u64), (f64::INFINITY, 10u64)];
        assert_eq!(bucket_quantile(&buckets, 10, 0.5), 1.0);
        assert_eq!(bucket_quantile(&buckets, 10, 0.99), 2.0);
    }
}
