//! End-to-end tests of `snoop serve`: a real daemon process on an
//! ephemeral port, driven over real TCP.
//!
//! Covers the service contract: concurrent clients stream batch
//! results, a repeated batch is answered entirely from the warm cache
//! (verified through `GET /metrics`, not trusted from the response),
//! a full submission queue answers `429` with `Retry-After`, and
//! shutdown — administrative or SIGTERM — drains in-flight work and
//! exits cleanly.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use snoop_mva::engine::Scenario;
use snoop_protocol::ModSet;
use snoop_workload::params::SharingLevel;

/// A running daemon: the child process plus its parsed listen address.
/// Kills the process on drop so a failed test cannot leak a daemon.
struct Daemon {
    child: Child,
    addr: String,
    /// Kept open so the daemon's stderr writes never hit a closed pipe.
    _stderr: BufReader<std::process::ChildStderr>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boots `snoop serve` on an ephemeral port and parses the actual
/// address from the startup line on stderr.
fn boot(extra_args: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_snoop"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut addr = String::new();
    for _ in 0..20 {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("read startup line") == 0 {
            break;
        }
        if let Some(rest) = line.trim().strip_prefix("serve: listening on http://") {
            addr = rest.to_string();
            break;
        }
    }
    assert!(!addr.is_empty(), "daemon never printed its listen address");
    Daemon { child, addr, _stderr: stderr }
}

fn batch_json(sizes: &[usize]) -> String {
    let scenarios: Vec<Scenario> = sizes
        .iter()
        .map(|&n| Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n))
        .collect();
    Scenario::batch_to_json(&scenarios)
}

/// One full HTTP request over a fresh connection; returns
/// `(status, headers, body)` with chunked transfer decoding applied.
fn roundtrip(addr: &str, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, String, String) {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response head");
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
    let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        decode_chunked(body)
    } else {
        body.to_string()
    };
    (status, head.to_string(), body)
}

fn decode_chunked(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else { break };
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    out
}

fn eval_request(batch: &str) -> String {
    format!(
        "POST /eval HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{batch}",
        batch.len()
    )
}

/// Reads a counter out of the `/metrics` JSON (`"name": 42` under the
/// pretty-printed snapshot).
fn counter(metrics: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = metrics.find(&needle).unwrap_or_else(|| panic!("{name} not in metrics"));
    metrics[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn concurrent_clients_stream_results_and_the_repeat_batch_is_all_cache_hits() {
    let mut daemon = boot(&[]);
    let batch = batch_json(&[2, 3, 4]);

    // First pass: two clients race on the same fresh batch.
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = daemon.addr.clone();
            let request = eval_request(&batch);
            std::thread::spawn(move || roundtrip(&addr, &request))
        })
        .collect();
    for client in clients {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.lines().count(), 4, "3 jobs + done line: {body}");
        assert!(body.lines().last().unwrap().contains("\"done\":true"), "{body}");
        assert!(body.contains("\"errors\":0"), "{body}");
    }

    // Second pass: one more client, everything from the warm cache —
    // claimed per line and verified against the probe counters.
    let (status, _, body) = roundtrip(&daemon.addr, &eval_request(&batch));
    assert_eq!(status, 200);
    let result_lines: Vec<&str> =
        body.lines().filter(|l| l.contains("\"evaluation\"")).collect();
    assert_eq!(result_lines.len(), 3, "{body}");
    assert!(result_lines.iter().all(|l| l.contains("\"cached\":true")), "{body}");

    let (status, _, metrics) = roundtrip(&daemon.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(metrics.contains("snoop-metrics-v2"), "{metrics}");
    // 9 jobs total across 3 eval requests. The two first-pass clients
    // race on a cold cache with no cross-batch claim, so a scenario
    // both consult before either publishes is computed twice — each
    // client computes a scenario at most once, and every job that was
    // not computed is a cache hit.
    assert_eq!(counter(&metrics, "engine.jobs"), 9);
    let computed = counter(&metrics, "engine.computed");
    assert!((3..=6).contains(&computed), "computed = {computed}");
    assert_eq!(counter(&metrics, "engine.cache.hits"), 9 - computed);
    assert_eq!(counter(&metrics, "serve.requests.eval"), 3);
    // The 2-client load moved the RED counters and the queue-wait and
    // service-time histograms: every eval answered 2xx, and one wait /
    // service sample exists per routed request so far.
    assert_eq!(counter(&metrics, "serve.red.eval.2xx"), 3);
    // A request's own RED increment lands after its snapshot, so the
    // previous scrape shows up in the next one.
    let (_, _, second) = roundtrip(&daemon.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(counter(&second, "serve.red.metrics.2xx") >= 1, "{second}");
    let wait_section = metrics
        .split("\"histograms\"")
        .nth(1)
        .expect("v2 snapshot has a histograms section");
    assert!(wait_section.contains("\"serve.queue_wait_ms\""), "{metrics}");
    assert!(wait_section.contains("\"serve.service_ms.eval\""), "{metrics}");
    assert!(wait_section.contains("\"engine.job_ms.mva\""), "{metrics}");
    // Queue-wait histogram count covers at least the 4 requests routed
    // before this scrape (3 evals + this connection's predecessors).
    let hist_count = {
        let at = wait_section.find("\"serve.queue_wait_ms\"").unwrap();
        counter(&wait_section[at..], "count")
    };
    assert!(hist_count >= 4, "queue-wait histogram barely moved: {hist_count}");

    // Administrative shutdown: the daemon exits cleanly and prints its
    // lifetime summary on stdout.
    let (status, _, _) =
        roundtrip(&daemon.addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    let code = daemon.child.wait().expect("daemon exits");
    assert!(code.success(), "daemon exit: {code:?}");
    let mut stdout = String::new();
    daemon.child.stdout.take().unwrap().read_to_string(&mut stdout).unwrap();
    assert!(stdout.contains("serve:"), "{stdout}");
    assert!(stdout.contains("rejected"), "{stdout}");
}

#[test]
fn full_queue_answers_429_and_sigterm_drains_in_flight_work() {
    let daemon = boot(&["--threads", "1", "--queue-bound", "1"]);
    let batch = batch_json(&[2]);

    // Occupy the single worker with a half-sent request…
    let mut holder = TcpStream::connect(&daemon.addr).unwrap();
    holder.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    holder.write_all(b"POST /eval HTTP/1.1\r\nHost: t\r\n").unwrap();
    holder.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300)); // worker picks it up

    // …fill the one queue slot with a complete request…
    let mut queued = TcpStream::connect(&daemon.addr).unwrap();
    queued.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    queued.write_all(eval_request(&batch).as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // acceptor enqueues it

    // …so the next connection is turned away with Retry-After.
    let (status, head, body) = roundtrip(&daemon.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    assert!(body.contains("queue is full"), "{body}");

    // SIGTERM now: the held and queued requests are in flight /
    // accepted, and graceful shutdown must finish both.
    let pid = daemon.child.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs");
    assert!(killed.success());

    holder.write_all(format!("Content-Length: {}\r\n\r\n{batch}", batch.len()).as_bytes()).unwrap();
    let mut raw = Vec::new();
    holder.read_to_end(&mut raw).unwrap();
    let (status, _, body) = parse_response(&raw);
    assert_eq!(status, 200, "held request must complete through shutdown: {body}");
    assert!(body.contains("\"done\":true"), "{body}");

    let mut raw = Vec::new();
    queued.read_to_end(&mut raw).unwrap();
    let (status, _, body) = parse_response(&raw);
    assert_eq!(status, 200, "queued request must drain through shutdown: {body}");
    assert!(body.contains("\"done\":true"), "{body}");

    // A drained daemon exits 0 (not killed by the signal).
    let mut daemon = daemon;
    let code = daemon.child.wait().expect("daemon exits");
    assert!(code.success(), "daemon exit after SIGTERM: {code:?}");
}

#[test]
fn sigterm_stops_an_idle_daemon_promptly() {
    let mut daemon = boot(&[]);
    // One exchange proves the daemon is serving; it then idles in
    // accept() with nothing pending.
    let (status, _, _) = roundtrip(&daemon.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);

    let started = Instant::now();
    let pid = daemon.child.id().to_string();
    assert!(Command::new("kill").args(["-TERM", &pid]).status().expect("kill runs").success());
    let code = loop {
        if let Some(code) = daemon.child.try_wait().expect("poll the daemon") {
            break code;
        }
        assert!(started.elapsed() < Duration::from_secs(2), "daemon still running 2 s after SIGTERM");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(code.success(), "daemon exit after SIGTERM: {code:?}");
}

#[test]
fn malformed_batches_are_client_errors_not_crashes() {
    let mut daemon = boot(&[]);

    let request = "POST /eval HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nnot json!";
    let (status, _, body) = roundtrip(&daemon.addr, request);
    assert_eq!(status, 400, "{body}");
    assert_eq!(body, "{\"error\":\"invalid scenario: json error at byte 0: expected \\\"null\\\"\"}\n");

    // A semantic error in scenario 0 loses to a syntax error later in the
    // batch; without one, it is reported with its scenario index.
    let unknown = r#"{"protocol":"WO","n":4,"typo":1}"#;
    let (status, _, body) = roundtrip(
        &daemon.addr,
        &eval_request(&format!(
            r#"{{"schema":"snoop-scenario-v1","scenarios":[{unknown},{{"protocol":"WO","n":4,}}]}}"#
        )),
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(body, "{\"error\":\"invalid scenario: json error at byte 99: expected '\\\"'\"}\n");
    let (status, _, body) = roundtrip(
        &daemon.addr,
        &eval_request(&format!(r#"{{"schema":"snoop-scenario-v1","scenarios":[{unknown}]}}"#)),
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(body, "{\"error\":\"invalid scenario: scenario 0: unknown key \\\"typo\\\"\"}\n");

    let (status, _, _) = roundtrip(&daemon.addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);

    // The daemon survived both and still serves.
    let (status, _, body) = roundtrip(&daemon.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, _, _) =
        roundtrip(&daemon.addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(daemon.child.wait().unwrap().success());
}

#[test]
fn prometheus_scrape_and_snoop_top_render_against_a_live_daemon() {
    let mut daemon = boot(&["--git-sha", "e2etest1"]);

    // Drive load so histograms and RED counters have data.
    let batch = batch_json(&[2, 3]);
    let (status, _, _) = roundtrip(&daemon.addr, &eval_request(&batch));
    assert_eq!(status, 200);

    // The enriched health body.
    let (status, _, health) = roundtrip(&daemon.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    for field in [
        "\"status\":\"ok\"",
        "\"queue_depth\":",
        "\"uptime_seconds\":",
        "\"version\":",
        "\"git_sha\":\"e2etest1\"",
        "\"workers\":",
        "\"queue_bound\":",
        "\"requests\":",
    ] {
        assert!(health.contains(field), "missing {field}: {health}");
    }

    // A valid Prometheus scrape with native histogram series.
    let (status, head, prom) =
        roundtrip(&daemon.addr, "GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(prom.contains("# TYPE snoop_queue_depth gauge"), "{prom}");
    assert!(prom.contains("snoop_requests_total{endpoint=\"eval\",status=\"2xx\"} 1"), "{prom}");
    assert!(prom.contains("snoop_hist_bucket{name=\"serve.queue_wait_ms\",le=\"+Inf\"}"), "{prom}");
    assert!(prom.contains("snoop_hist_count{name=\"engine.job_ms.mva\"} 2"), "{prom}");

    // `snoop top --once` renders one escape-free frame off the scrape.
    let top = Command::new(env!("CARGO_BIN_EXE_snoop"))
        .args(["top", "--url", &format!("http://{}", daemon.addr), "--once"])
        .output()
        .expect("snoop top runs");
    let frame = String::from_utf8_lossy(&top.stdout);
    assert!(top.status.success(), "snoop top failed: {frame}\n{}", String::from_utf8_lossy(&top.stderr));
    assert!(frame.contains("snoop top"), "{frame}");
    assert!(frame.contains("queue 0/64"), "{frame}");
    assert!(frame.contains("workers"), "{frame}");
    assert!(frame.contains("serve.queue_wait_ms"), "{frame}");
    assert!(frame.contains("engine.job_ms.mva"), "{frame}");
    assert!(frame.contains("requests by endpoint:"), "{frame}");
    assert!(!frame.contains('\x1b'), "--once output must be escape-free: {frame:?}");

    let (status, _, _) =
        roundtrip(&daemon.addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(daemon.child.wait().unwrap().success());
}

#[test]
fn access_log_records_requests_as_ndjson() {
    let dir = std::env::temp_dir().join(format!("snoop-e2e-access-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let mut daemon = boot(&["--access-log", log_path.to_str().unwrap()]);

    let batch = batch_json(&[2]);
    let (status, _, _) = roundtrip(&daemon.addr, &eval_request(&batch));
    assert_eq!(status, 200);
    let (status, _, _) = roundtrip(&daemon.addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);

    let (status, _, _) =
        roundtrip(&daemon.addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(daemon.child.wait().unwrap().success());

    // The daemon flushed the log on graceful exit: one line per request,
    // each a complete JSON object with the documented fields.
    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    for line in &lines {
        for field in ["\"ts\":", "\"method\":", "\"path\":", "\"status\":", "\"bytes\":",
                      "\"queue_wait_ms\":", "\"service_ms\":", "\"jobs\":", "\"cache_hits\":"] {
            assert!(line.contains(field), "missing {field}: {line}");
        }
    }
    assert!(lines[0].contains("\"path\":\"/eval\"") && lines[0].contains("\"jobs\":1"), "{text}");
    assert!(lines[1].contains("\"status\":404"), "{text}");
    assert!(lines[2].contains("\"path\":\"/shutdown\""), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
