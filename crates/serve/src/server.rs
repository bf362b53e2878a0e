//! The daemon: one warm shared [`Engine`] behind an acceptor thread, a
//! bounded submission queue and a small pool of request workers.
//!
//! # Structure
//!
//! ```text
//! accept loop ── try_send ──► sync_channel(queue_bound) ──► worker 0..K
//!     │   ▲            │                                      │
//!     │   │            └─ full → 429 + Retry-After             ├─ POST /eval   (streams NDJSON)
//!     │   └─ wake connection ◄── ShutdownHandle / waker        ├─ GET  /metrics
//!     └─ shutdown flag (SIGTERM / ctrl-c / POST /shutdown)     └─ GET  /healthz
//! ```
//!
//! The acceptor blocks in `accept()`, so a connection is picked up the
//! moment it arrives. Shutdown sets the flag and then wakes the
//! acceptor with one connection of its own to the listener (on
//! loopback when bound to `0.0.0.0`/`::`); the acceptor checks the flag
//! after every `accept()` returns and drops that connection. Signals
//! cannot run code beyond an atomic store, so a small waker thread looks
//! for SIGTERM/ctrl-c every 20 ms and, once a signal or the
//! flag is set, repeats the wake until the acceptor has exited — a
//! refused first wake can never hang shutdown, and no request ever waits
//! on that timer.
//!
//! The bounded channel *is* the backpressure: one queue slot is one
//! pending connection, `try_send` never blocks the acceptor, and a full
//! queue answers `429` immediately instead of growing a backlog. On
//! shutdown the acceptor stops accepting and drops the sender; workers
//! drain every queued connection, finish their in-flight requests, and
//! exit when the channel disconnects — nothing queued is ever dropped. A
//! connection taken after the shutdown request (the wake itself, or a
//! client that raced it) is closed unserved, as it would have been had
//! it still been waiting in the listen backlog.
//!
//! Determinism per request is preserved because every request goes
//! through the same engine path as the batch CLI: scenarios are
//! content-hashed, cache hits are bit-identical to fresh computations,
//! and concurrent requests only share state through the engine's
//! interior-locked cache and the store's atomic publishes.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use snoop_mva::engine::{BackendId, DiskStore, Engine, Scenario, StoreConfig, StoreError};
use snoop_numeric::exec::ExecOptions;
use snoop_numeric::json::{format_f64, json_string};
use snoop_numeric::probe;

use crate::access_log::{AccessLog, AccessLogConfig};
use crate::http::{self, ChunkedWriter, HttpError, Request};
use crate::metrics::{self, ServerGauges};
use crate::signal;

/// How long a worker waits on a slow client before giving up on the
/// connection (read and write).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the waker thread looks for SIGTERM/ctrl-c and, once
/// shutdown is requested, repeats the wake until the acceptor exits.
const SIGNAL_POLL: Duration = Duration::from_millis(20);

/// Pause after a failed `accept()` (e.g. EMFILE), so an error storm
/// cannot spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on one wake connection; a wake that times out is retried by
/// the waker thread.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Cap on concurrent 429-rejection helper threads; past it, over-limit
/// connections are dropped without a response.
const MAX_REJECT_THREADS: usize = 32;

/// Answers a rejected connection with `429`, reading the request first
/// so the close is clean (tight timeouts: the client already lost).
fn reject_with_429(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = http::read_request(&mut stream);
    let _ = http::write_response(
        &mut stream,
        429,
        "application/json",
        &[("Retry-After", "1".to_string())],
        b"{\"error\":\"evaluation queue is full, retry shortly\"}\n",
    );
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7077` (`:0` for an ephemeral
    /// port).
    pub listen: String,
    /// Request worker threads (concurrent in-flight requests).
    pub workers: usize,
    /// Bounded submission-queue capacity; a connection beyond the
    /// workers' in-flight ones waits here, and past that clients get
    /// `429`.
    pub queue_bound: usize,
    /// Backends registered on the shared engine.
    pub backends: Vec<BackendId>,
    /// Engine executor threads per request batch (0 = auto:
    /// `SNOOP_THREADS` or cores). Defaults to 1: the request workers
    /// already run batches in parallel, and splitting an 8-scenario MVA
    /// batch across threads costs more than it saves.
    pub engine_threads: usize,
    /// Durable second cache tier (`None`: in-memory only).
    pub store_dir: Option<PathBuf>,
    /// Store eviction bound (`None`: unbounded).
    pub store_max_entries: Option<usize>,
    /// NDJSON access-log file (`None`: no access log).
    pub access_log: Option<PathBuf>,
    /// Access-log rotation threshold in MiB.
    pub access_log_max_mb: u64,
    /// Access-log files kept on disk, live file included.
    pub access_log_keep: usize,
    /// Build identity reported by `GET /healthz` (`None`: unknown).
    pub git_sha: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:7077".to_string(),
            workers: 2,
            queue_bound: 64,
            backends: vec![BackendId::Mva],
            engine_threads: 1,
            store_dir: None,
            store_max_entries: None,
            access_log: None,
            access_log_max_mb: 64,
            access_log_keep: 3,
            git_sha: None,
        }
    }
}

/// Why the daemon could not start (request-level failures never surface
/// here — they answer the offending client and the daemon carries on).
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying error text.
        error: String,
    },
    /// The durable store could not be opened.
    Store(StoreError),
    /// A socket-level operation failed during startup.
    Io {
        /// What the daemon was doing.
        context: &'static str,
        /// The underlying error text.
        error: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, error } => write!(f, "cannot listen on {addr}: {error}"),
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::Io { context, error } => write!(f, "cannot {context}: {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What the daemon did over its lifetime, reported after a graceful
/// shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Requests fully read and routed (all endpoints).
    pub requests: u64,
    /// (scenario, backend) evaluation jobs answered via `POST /eval`.
    pub eval_jobs: u64,
    /// Connections refused with `429` because the queue was full.
    pub rejected: u64,
    /// Engine cache hits at shutdown.
    pub cache_hits: u64,
    /// Engine cache misses at shutdown.
    pub cache_misses: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: {} request(s), {} eval job(s), {} rejected (429); \
             cache hits={} misses={}",
            self.requests, self.eval_jobs, self.rejected, self.cache_hits, self.cache_misses
        )
    }
}

/// A cloneable handle that requests a graceful shutdown, equivalent to
/// SIGTERM: stop accepting, drain, return.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// Where a wake connection reaches the listener: the bound address,
    /// with an unspecified IP mapped to loopback.
    wake: SocketAddr,
}

impl ShutdownHandle {
    fn new(bound: SocketAddr) -> ShutdownHandle {
        let ip = match bound.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        ShutdownHandle {
            flag: Arc::new(AtomicBool::new(false)),
            wake: SocketAddr::new(ip, bound.port()),
        }
    }

    /// Requests shutdown and wakes the acceptor, so [`Server::run`]
    /// stops accepting at once. Calling it again, or after the daemon
    /// has exited, is harmless.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // A failed wake (refused: the acceptor already exited; timed
        // out: a full backlog) is retried by the waker thread.
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One accepted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// State shared by the acceptor and every worker.
struct Shared {
    engine: Arc<Engine>,
    shutdown: ShutdownHandle,
    /// Connections accepted but not yet picked up by a worker.
    depth: AtomicUsize,
    /// Requests currently inside a worker's `handle`.
    inflight: AtomicUsize,
    requests: AtomicU64,
    eval_jobs: AtomicU64,
    rejected: AtomicU64,
    /// When the daemon started serving (healthz uptime, gauge scrapes).
    started: Instant,
    /// Static identity echoed by `GET /healthz`.
    workers: u64,
    queue_bound: u64,
    git_sha: Option<String>,
    access_log: Option<AccessLog>,
}

/// What one routed request did, for RED accounting and access logging.
struct RouteMeta {
    status: u16,
    /// (scenario, backend) jobs this request evaluated (`/eval` only).
    jobs: u64,
    /// How many of those jobs were cache hits.
    cached: u64,
}

impl RouteMeta {
    fn status(status: u16) -> RouteMeta {
        RouteMeta { status, jobs: 0, cached: 0 }
    }
}

/// The stable endpoint label used in RED counter names, service-time
/// histogram names and access-log lines.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/eval" => "eval",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/shutdown" => "shutdown",
        _ => "other",
    }
}

/// A write-through wrapper that counts response bytes for the access
/// log (request handlers only ever write; reads happen before routing).
struct Counting<'a> {
    inner: &'a mut TcpStream,
    written: u64,
}

impl Write for Counting<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The bound-but-not-yet-running daemon. [`Server::bind`] resolves the
/// address (so an ephemeral `:0` port is known before any traffic) and
/// builds the shared engine; [`Server::run`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    engine: Arc<Engine>,
    config: ServeConfig,
    shutdown: ShutdownHandle,
}

impl Server {
    /// Binds the listen address and builds the shared warm engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] for an unusable address, [`ServeError::Store`]
    /// for an unopenable store directory.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let engine = Arc::new(build_engine(&config)?);
        let listener = TcpListener::bind(&config.listen).map_err(|e| ServeError::Bind {
            addr: config.listen.clone(),
            error: e.to_string(),
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io { context: "resolve local address", error: e.to_string() })?;
        Ok(Server { listener, addr, engine, config, shutdown: ShutdownHandle::new(addr) })
    }

    /// The actually-bound address (the ephemeral port when `:0` was
    /// requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that triggers graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The shared engine (tests inspect cache stats through it).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Runs the daemon until shutdown (SIGTERM, ctrl-c, `POST
    /// /shutdown` or a [`ShutdownHandle`]), then drains queued and
    /// in-flight requests and returns the lifetime summary.
    ///
    /// Holds the process-wide probe session for its lifetime, so `GET
    /// /metrics` serves live counters.
    ///
    /// The acceptor blocks in `accept()` and a [`ShutdownHandle`] wakes
    /// it, so connections are taken as they arrive and shutdown is
    /// noticed at once.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the access log cannot be opened.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        signal::install();
        let _metrics = probe::session();
        // Present (at zero) from the start, so scrapes can alert on it.
        probe::counter_add("serve.accept_errors", 0);

        let access_log = match &self.config.access_log {
            Some(path) => Some(
                AccessLog::open(AccessLogConfig {
                    path: path.clone(),
                    max_bytes: self.config.access_log_max_mb.max(1) * (1 << 20),
                    keep: self.config.access_log_keep.max(1),
                })
                .map_err(|e| ServeError::Io {
                    context: "open access log",
                    error: e.to_string(),
                })?,
            ),
            None => None,
        };

        let (tx, rx) = mpsc::sync_channel::<Job>(self.config.queue_bound.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            engine: Arc::clone(&self.engine),
            shutdown: self.shutdown.clone(),
            depth: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            eval_jobs: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            started: Instant::now(),
            workers: self.config.workers.max(1) as u64,
            queue_bound: self.config.queue_bound.max(1) as u64,
            git_sha: self.config.git_sha.clone(),
            access_log,
        });

        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("snoop-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing;
                        // a disconnected-and-empty channel ends the
                        // worker (the drain contract: everything queued
                        // before disconnect is still delivered).
                        let job = {
                            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                shared.depth.fetch_sub(1, Ordering::Relaxed);
                                shared.handle(job);
                            }
                            Err(_) => break,
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();

        // Turns a signal into a shutdown request, and repeats the wake
        // until the acceptor has exited.
        let acceptor_done = Arc::new(AtomicBool::new(false));
        let waker = {
            let handle = self.shutdown.clone();
            let done = Arc::clone(&acceptor_done);
            std::thread::Builder::new()
                .name("snoop-serve-waker".to_string())
                .spawn(move || {
                    while !done.load(Ordering::SeqCst) {
                        if signal::requested() || handle.requested() {
                            handle.shutdown();
                        }
                        std::thread::park_timeout(SIGNAL_POLL);
                    }
                })
                .expect("spawn serve waker")
        };

        let rejecters = Arc::new(AtomicUsize::new(0));
        while !self.shutdown.requested() {
            match self.listener.accept() {
                // The wake connection, or a client that lost the race
                // with shutdown: either way it is not served.
                Ok(_) if self.shutdown.requested() => break,
                Ok((stream, _peer)) => {
                    probe::counter_add("serve.accepted", 1);
                    // Count the job before enqueuing it: a worker may
                    // dequeue (and decrement) before try_send returns.
                    let depth = shared.depth.fetch_add(1, Ordering::Relaxed) + 1;
                    match tx.try_send(Job { stream, accepted: Instant::now() }) {
                        Ok(()) => {
                            probe::record("serve.queue_depth", depth as f64);
                        }
                        Err(TrySendError::Full(job)) => {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            shared.rejected.fetch_add(1, Ordering::Relaxed);
                            probe::counter_add("serve.http_429", 1);
                            // Rejecting politely means reading the
                            // request first (closing with unread data
                            // resets the connection and the client
                            // never sees the 429), which can block on a
                            // slow client — do it off the accept loop,
                            // with a bound so a flood cannot pile up
                            // threads (beyond it the connection is
                            // simply dropped).
                            if rejecters.fetch_add(1, Ordering::Relaxed) < MAX_REJECT_THREADS {
                                let rejecters = Arc::clone(&rejecters);
                                std::thread::spawn(move || {
                                    reject_with_429(job.stream);
                                    rejecters.fetch_sub(1, Ordering::Relaxed);
                                });
                            } else {
                                rejecters.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(_) => {
                    probe::counter_add("serve.accept_errors", 1);
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                }
            }
        }
        acceptor_done.store(true, Ordering::SeqCst);
        waker.thread().unpark();
        let _ = waker.join();

        // Graceful drain: no new connections; dropping the sender lets
        // workers finish every queued and in-flight request, then exit.
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        // The store tier is write-through (every computed job is
        // already published), so "flush" is only accounting.
        let cache = self.engine.cache_stats();
        Ok(ServeSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            eval_jobs: shared.eval_jobs.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        })
    }
}

/// Builds the shared engine from the configured backends and optional
/// store tier (the same registry `snoop eval` uses).
fn build_engine(config: &ServeConfig) -> Result<Engine, ServeError> {
    let mut engine = Engine::new()
        .with_exec(ExecOptions::with_threads(config.engine_threads))
        .with_backends(&config.backends);
    if let Some(dir) = &config.store_dir {
        let store_config = StoreConfig { max_entries: config.store_max_entries };
        let store = DiskStore::open_config(dir, store_config).map_err(ServeError::Store)?;
        engine = engine.with_store(Arc::new(store));
    }
    Ok(engine)
}

impl Shared {
    /// Serves one connection end to end. Never panics the process: the
    /// router runs under `catch_unwind`, so the worst any request can
    /// do is cost itself a `500`.
    fn handle(&self, job: Job) {
        let mut stream = job.stream;
        let waited_ms = job.accepted.elapsed().as_secs_f64() * 1e3;
        probe::record("serve.queue_wait_ms", waited_ms);
        probe::hist_record("serve.queue_wait_ms", waited_ms);
        let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
        let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
        let _ = stream.set_nodelay(true);

        let request = match http::read_request(&mut stream) {
            Ok(request) => request,
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed(e)) => {
                probe::counter_add("serve.http_400", 1);
                let _ = http::write_error(&mut stream, 400, &e);
                return;
            }
            Err(HttpError::TooLarge(e)) => {
                probe::counter_add("serve.http_413", 1);
                let _ = http::write_error(&mut stream, 413, &e);
                return;
            }
        };
        self.requests.fetch_add(1, Ordering::Relaxed);
        probe::counter_add("serve.requests", 1);

        let endpoint = endpoint_label(&request.path);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let service_started = Instant::now();
        let mut counting = Counting { inner: &mut stream, written: 0 };
        let outcome =
            catch_unwind(AssertUnwindSafe(|| self.route(&mut counting, &request, waited_ms)));
        let meta = match outcome {
            Ok(Ok(meta)) => meta,
            // Transport errors mid-response just lose that client;
            // status 0 marks the truncated exchange in RED and the log.
            Ok(Err(_io)) => RouteMeta::status(0),
            Err(_panic) => {
                probe::counter_add("serve.panics", 1);
                let _ = http::write_error(
                    &mut counting,
                    500,
                    "internal error: request handler panicked; see server log",
                );
                RouteMeta::status(500)
            }
        };
        let service_ms = service_started.elapsed().as_secs_f64() * 1e3;
        let bytes = counting.written;
        self.inflight.fetch_sub(1, Ordering::Relaxed);

        // RED accounting: one counter per (endpoint, status class), one
        // service-time histogram per endpoint. The `serve.red.*` names
        // are re-keyed into `snoop_requests_total{endpoint,status}` by
        // the Prometheus renderer.
        let class = match meta.status {
            0 => "io",
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        probe::counter_add(&format!("serve.red.{endpoint}.{class}"), 1);
        probe::hist_record(&format!("serve.service_ms.{endpoint}"), service_ms);

        if let Some(log) = &self.access_log {
            let ts = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0);
            log.log(format!(
                "{{\"ts\":{ts:.3},\"method\":{},\"path\":{},\"status\":{},\
                 \"bytes\":{bytes},\"queue_wait_ms\":{},\"service_ms\":{},\
                 \"jobs\":{},\"cache_hits\":{}}}",
                json_string(&request.method),
                json_string(&request.path),
                meta.status,
                format_f64(waited_ms),
                format_f64(service_ms),
                meta.jobs,
                meta.cached,
            ));
        }
    }

    /// The gauge block sampled at scrape time for the Prometheus body.
    fn gauges(&self) -> ServerGauges {
        ServerGauges {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            queue_depth: self.depth.load(Ordering::Relaxed) as u64,
            inflight: self.inflight.load(Ordering::Relaxed) as u64,
            workers: self.workers,
            queue_bound: self.queue_bound,
            requests_total: self.requests.load(Ordering::Relaxed),
            rejected_total: self.rejected.load(Ordering::Relaxed),
            eval_jobs_total: self.eval_jobs.load(Ordering::Relaxed),
            log_dropped_total: self.access_log.as_ref().map_or(0, AccessLog::dropped),
        }
    }

    fn route(
        &self,
        stream: &mut Counting<'_>,
        request: &Request,
        waited_ms: f64,
    ) -> std::io::Result<RouteMeta> {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                probe::counter_add("serve.requests.healthz", 1);
                let git_sha = match &self.git_sha {
                    Some(sha) => json_string(sha),
                    None => "null".to_string(),
                };
                let body = format!(
                    "{{\"status\":\"ok\",\"queue_depth\":{},\
                     \"uptime_seconds\":{},\"version\":{},\"git_sha\":{git_sha},\
                     \"workers\":{},\"queue_bound\":{},\"requests\":{}}}\n",
                    self.depth.load(Ordering::Relaxed),
                    format_f64(self.started.elapsed().as_secs_f64()),
                    json_string(env!("CARGO_PKG_VERSION")),
                    self.workers,
                    self.queue_bound,
                    self.requests.load(Ordering::Relaxed),
                );
                http::write_response(stream, 200, "application/json", &[], body.as_bytes())
                    .map(|()| RouteMeta::status(200))
            }
            ("GET", "/metrics") => {
                probe::counter_add("serve.requests.metrics", 1);
                match request.query_param("format") {
                    Some("prometheus") => {
                        let body = metrics::render(&probe::snapshot(), &self.gauges());
                        http::write_response(
                            stream,
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            &[],
                            body.as_bytes(),
                        )
                        .map(|()| RouteMeta::status(200))
                    }
                    None | Some("json") => {
                        let body = probe::snapshot().to_json();
                        http::write_response(stream, 200, "application/json", &[], body.as_bytes())
                            .map(|()| RouteMeta::status(200))
                    }
                    Some(other) => {
                        probe::counter_add("serve.http_400", 1);
                        http::write_error(
                            stream,
                            400,
                            &format!("unknown format {other:?}; have json, prometheus"),
                        )
                        .map(|()| RouteMeta::status(400))
                    }
                }
            }
            ("POST", "/shutdown") => {
                probe::counter_add("serve.requests.shutdown", 1);
                self.shutdown.shutdown();
                http::write_response(
                    stream,
                    200,
                    "application/json",
                    &[],
                    b"{\"status\":\"shutting down, draining in-flight work\"}\n",
                )
                .map(|()| RouteMeta::status(200))
            }
            ("POST", "/eval") => self.handle_eval(stream, request, waited_ms),
            (_, "/healthz" | "/metrics" | "/shutdown" | "/eval") => {
                probe::counter_add("serve.http_405", 1);
                http::write_error(
                    stream,
                    405,
                    &format!("{} is not supported on {}", request.method, request.path),
                )
                .map(|()| RouteMeta::status(405))
            }
            _ => {
                probe::counter_add("serve.http_404", 1);
                http::write_error(
                    stream,
                    404,
                    &format!(
                        "no endpoint {}; have POST /eval, GET /metrics, GET /healthz, \
                         POST /shutdown",
                        request.path
                    ),
                )
                .map(|()| RouteMeta::status(404))
            }
        }
    }

    /// `POST /eval`: parses a `snoop-scenario-v1` batch, evaluates
    /// scenario by scenario on the shared engine, and streams one JSON
    /// object per (scenario, backend) job as it completes, then a
    /// `"done"` summary line.
    fn handle_eval(
        &self,
        stream: &mut Counting<'_>,
        request: &Request,
        waited_ms: f64,
    ) -> std::io::Result<RouteMeta> {
        probe::counter_add("serve.requests.eval", 1);
        let started = Instant::now();
        let Ok(text) = std::str::from_utf8(&request.body) else {
            probe::counter_add("serve.http_400", 1);
            return http::write_error(stream, 400, "request body is not UTF-8")
                .map(|()| RouteMeta::status(400));
        };
        let scenarios = match Scenario::parse_batch(text) {
            Ok(scenarios) => scenarios,
            Err(e) => {
                probe::counter_add("serve.http_400", 1);
                return http::write_error(stream, 400, &e.to_string())
                    .map(|()| RouteMeta::status(400));
            }
        };
        probe::counter_add("serve.eval.scenarios", scenarios.len() as u64);

        let mut writer = ChunkedWriter::start(stream, 200, "application/x-ndjson")?;
        let (mut jobs, mut errors, mut cached) = (0u64, 0u64, 0u64);
        for (index, scenario) in scenarios.iter().enumerate() {
            for outcome in self.engine.evaluate(scenario) {
                jobs += 1;
                let hash = outcome.key.hash;
                let line = match outcome.result {
                    Ok(mut eval) => {
                        if eval.provenance.cached {
                            cached += 1;
                        }
                        eval.provenance.queue_wait_ms = waited_ms;
                        format!(
                            "{{\"scenario\":{index},\"hash\":\"{hash:016x}\",\
                             \"backend\":\"{}\",\"key\":{},\"cached\":{},\
                             \"queue_wait_ms\":{},\"evaluation\":{}}}\n",
                            outcome.backend,
                            json_string(&outcome.key.to_string()),
                            eval.provenance.cached,
                            format_f64(waited_ms),
                            eval.to_json(),
                        )
                    }
                    Err(e) => {
                        errors += 1;
                        format!(
                            "{{\"scenario\":{index},\"hash\":\"{hash:016x}\",\
                             \"backend\":\"{}\",\"key\":{},\"error\":{}}}\n",
                            outcome.backend,
                            json_string(&outcome.key.to_string()),
                            json_string(&e.to_string()),
                        )
                    }
                };
                writer.chunk(line.as_bytes())?;
            }
        }
        self.eval_jobs.fetch_add(jobs, Ordering::Relaxed);
        probe::counter_add("serve.eval.jobs", jobs);
        let summary = format!(
            "{{\"done\":true,\"scenarios\":{},\"jobs\":{jobs},\"errors\":{errors},\
             \"cached\":{cached},\"wall_ms\":{}}}\n",
            scenarios.len(),
            format_f64(started.elapsed().as_secs_f64() * 1e3),
        );
        writer.chunk(summary.as_bytes())?;
        writer.finish()?;
        Ok(RouteMeta { status: 200, jobs, cached })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::SharingLevel;
    use std::io::Read as _;

    /// `run()` owns the process-wide probe session, so two concurrently
    /// booted servers would serialize on it while their test clients
    /// time out; hold this across every server-booting test instead.
    static SERVER_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn scenarios_json(sizes: &[usize]) -> String {
        let scenarios: Vec<Scenario> = sizes
            .iter()
            .map(|&n| Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n))
            .collect();
        Scenario::batch_to_json(&scenarios)
    }

    /// A booted test server that shuts itself down when dropped, so a
    /// panicking test cannot leave a daemon holding the process-wide
    /// probe session (which would starve every later test).
    struct Booted {
        addr: SocketAddr,
        handle: ShutdownHandle,
        join: Option<std::thread::JoinHandle<ServeSummary>>,
    }

    impl Booted {
        fn stop(&mut self) -> ServeSummary {
            self.handle.shutdown();
            self.join.take().expect("not stopped twice").join().unwrap()
        }
    }

    impl Drop for Booted {
        fn drop(&mut self) {
            self.handle.shutdown();
            if let Some(join) = self.join.take() {
                let _ = join.join();
            }
        }
    }

    /// Boots a server on an ephemeral loopback port.
    fn boot(config: ServeConfig) -> Booted {
        boot_on("127.0.0.1:0", config)
    }

    fn boot_on(listen: &str, config: ServeConfig) -> Booted {
        let server = Server::bind(ServeConfig { listen: listen.to_string(), ..config }).unwrap();
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        Booted { addr, handle, join: Some(join) }
    }

    /// Waits for `run()` to return on its own and reports how long that
    /// took; past `limit` it forces the stop, so a failing test still
    /// releases the probe session.
    fn time_exit(srv: &mut Booted, limit: Duration) -> Duration {
        let started = Instant::now();
        let join = srv.join.take().expect("still running");
        while !join.is_finished() && started.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(2));
        }
        let took = started.elapsed();
        srv.handle.shutdown();
        join.join().unwrap();
        took
    }

    /// One full request over a fresh connection; returns (status, body)
    /// with chunked transfer decoding applied.
    fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        parse_response(&raw)
    }

    fn parse_response(raw: &[u8]) -> (u16, String) {
        let text = String::from_utf8_lossy(raw);
        let (head, body) = text.split_once("\r\n\r\n").expect("complete response head");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
            decode_chunked(body)
        } else {
            body.to_string()
        };
        (status, body)
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
            rest = &tail[size + 2..]; // skip the chunk's trailing \r\n
        }
        out
    }

    fn post_eval(addr: SocketAddr, batch: &str) -> (u16, String) {
        roundtrip(
            addr,
            &format!(
                "POST /eval HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{batch}",
                batch.len()
            ),
        )
    }

    #[test]
    fn routes_health_metrics_errors_and_eval() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut srv = boot(ServeConfig::default());
        let addr = srv.addr;

        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (status, body) = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        assert!(body.contains("POST /eval"), "{body}");

        let (status, _) = roundtrip(addr, "DELETE /eval HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);

        let (status, body) = post_eval(addr, "{\"schema\":\"wrong\",\"scenarios\":[]}");
        assert_eq!(status, 400);
        assert!(body.contains("unsupported schema"), "{body}");

        let batch = scenarios_json(&[2, 3]);
        let (status, body) = post_eval(addr, &batch);
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "2 jobs + summary: {body}");
        assert!(lines[0].contains("\"backend\":\"mva\""), "{body}");
        assert!(lines[0].contains("\"cached\":false"), "{body}");
        assert!(lines[2].contains("\"done\":true"), "{body}");
        assert!(lines[2].contains("\"jobs\":2"), "{body}");
        assert!(lines[2].contains("\"errors\":0"), "{body}");

        // The repeat batch is a warm-cache pass, visible per line and
        // in /metrics.
        let (status, body) = post_eval(addr, &batch);
        assert_eq!(status, 200);
        assert!(body.lines().take(2).all(|l| l.contains("\"cached\":true")), "{body}");
        assert!(body.contains("\"cached\":2"), "{body}");

        let (status, metrics) = roundtrip(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(metrics.contains("snoop-metrics-v2"), "{metrics}");
        assert!(metrics.contains("\"serve.requests\""), "{metrics}");
        assert!(metrics.contains("\"engine.cache.hits\": 2"), "{metrics}");
        // RED counters and latency histograms are live in the snapshot.
        assert!(metrics.contains("\"serve.red.eval.2xx\""), "{metrics}");
        assert!(metrics.contains("\"serve.red.eval.4xx\""), "{metrics}");
        assert!(metrics.contains("\"serve.service_ms.eval\""), "{metrics}");
        assert!(metrics.contains("\"serve.queue_wait_ms\""), "{metrics}");
        assert!(metrics.contains("\"serve.accept_errors\": 0"), "{metrics}");

        let summary = srv.stop();
        assert!(summary.requests >= 6, "{summary:?}");
        assert_eq!(summary.eval_jobs, 4);
        assert_eq!(summary.cache_hits, 2);
    }

    #[test]
    fn full_queue_answers_429_and_drains_on_shutdown() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut srv = boot(ServeConfig { workers: 1, queue_bound: 1, ..ServeConfig::default() });
        let addr = srv.addr;
        let batch = scenarios_json(&[2]);

        // Occupy the single worker with a half-sent request…
        let mut holder = TcpStream::connect(addr).unwrap();
        holder.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        holder.write_all(b"POST /eval HTTP/1.1\r\nHost: t\r\n").unwrap();
        holder.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300)); // worker picks it up

        // …fill the one queue slot…
        let mut queued = TcpStream::connect(addr).unwrap();
        queued.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let queued_request = format!(
            "POST /eval HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        );
        queued.write_all(queued_request.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(300)); // acceptor enqueues it

        // …and the next connection is turned away immediately.
        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("queue is full"), "{body}");

        // Finish the held request; both held and queued complete fine.
        holder
            .write_all(format!("Content-Length: {}\r\n\r\n{batch}", batch.len()).as_bytes())
            .unwrap();
        let mut raw = Vec::new();
        holder.read_to_end(&mut raw).unwrap();
        assert_eq!(parse_response(&raw).0, 200);
        let mut raw = Vec::new();
        queued.read_to_end(&mut raw).unwrap();
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200);
        assert!(body.contains("\"done\":true"), "{body}");

        let summary = srv.stop();
        assert_eq!(summary.rejected, 1, "{summary:?}");
    }

    #[test]
    fn healthz_reports_identity_and_prometheus_scrape_is_valid() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut srv = boot(ServeConfig {
            workers: 3,
            queue_bound: 17,
            git_sha: Some("abc1234".to_string()),
            ..ServeConfig::default()
        });
        let addr = srv.addr;

        let (status, body) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"queue_depth\":"), "{body}");
        assert!(body.contains("\"uptime_seconds\":"), "{body}");
        assert!(body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))), "{body}");
        assert!(body.contains("\"git_sha\":\"abc1234\""), "{body}");
        assert!(body.contains("\"workers\":3"), "{body}");
        assert!(body.contains("\"queue_bound\":17"), "{body}");
        assert!(body.contains("\"requests\":"), "{body}");

        // Drive one eval so histograms and RED counters exist.
        let (status, _) = post_eval(addr, &scenarios_json(&[2]));
        assert_eq!(status, 200);

        let (status, body) =
            roundtrip(addr, "GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE snoop_queue_depth gauge"), "{body}");
        assert!(body.contains("snoop_requests_total{endpoint=\"eval\",status=\"2xx\"} 1"), "{body}");
        assert!(body.contains("snoop_hist_bucket{name=\"serve.queue_wait_ms\",le=\"+Inf\"}"), "{body}");
        assert!(body.contains("snoop_hist_count{name=\"serve.service_ms.eval\"} 1"), "{body}");
        assert!(body.contains("snoop_workers 3"), "{body}");
        assert!(body.contains("snoop_queue_bound 17"), "{body}");
        assert!(body.contains("snoop_counter_total{name=\"serve.accept_errors\"} 0\n"), "{body}");

        let (status, body) =
            roundtrip(addr, "GET /metrics?format=xml HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 400);
        assert!(body.contains("unknown format"), "{body}");

        srv.stop();
    }

    #[test]
    fn access_log_captures_one_line_per_request() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir()
            .join(format!("snoop-serve-access-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("access.log");
        let mut srv = boot(ServeConfig {
            access_log: Some(log_path.clone()),
            ..ServeConfig::default()
        });
        let addr = srv.addr;

        let (status, _) = post_eval(addr, &scenarios_json(&[2]));
        assert_eq!(status, 200);
        let (status, _) = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        srv.stop(); // joins the logger thread, so the log is complete

        let text = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"method\":\"POST\""), "{text}");
        assert!(lines[0].contains("\"path\":\"/eval\""), "{text}");
        assert!(lines[0].contains("\"status\":200"), "{text}");
        assert!(lines[0].contains("\"jobs\":1"), "{text}");
        assert!(lines[0].contains("\"queue_wait_ms\":"), "{text}");
        assert!(lines[0].contains("\"service_ms\":"), "{text}");
        assert!(lines[1].contains("\"path\":\"/nope\""), "{text}");
        assert!(lines[1].contains("\"status\":404"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_shutdown_stops_the_daemon_gracefully() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut srv = boot(ServeConfig::default());
        let addr = srv.addr;
        let (status, body) =
            roundtrip(addr, "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("shutting down"), "{body}");
        let summary = srv.stop();
        assert!(summary.requests >= 1);
        // The port is released: a fresh connection is refused or reset.
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn shutdown_wakes_an_idle_acceptor_at_once() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // On a wildcard bind the wake must go to loopback.
        for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
            let mut srv = boot_on(listen, ServeConfig::default());
            // One exchange proves the acceptor is up; then it idles in
            // accept() with nothing pending.
            let local = SocketAddr::from((Ipv4Addr::LOCALHOST, srv.addr.port()));
            let (status, _) = roundtrip(local, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(status, 200);
            let handle = srv.handle.clone();
            let stopper = std::thread::spawn(move || handle.shutdown());
            let took = time_exit(&mut srv, Duration::from_millis(500));
            stopper.join().unwrap();
            assert!(took < Duration::from_millis(500), "{listen}: run() took {took:?} to return");
        }
    }

    #[test]
    fn post_shutdown_alone_stops_an_idle_daemon() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut srv = boot(ServeConfig::default());
        let (status, _) = roundtrip(
            srv.addr,
            "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 200);
        let took = time_exit(&mut srv, Duration::from_millis(500));
        assert!(took < Duration::from_millis(500), "run() took {took:?} to return");
    }

    #[test]
    fn back_to_back_requests_do_not_wait_on_a_timer() {
        let _serial = SERVER_TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut srv = boot(ServeConfig::default());
        // A closed-loop client: each connection opens once the previous
        // answer is in, so an acceptor that slept while idle (20 ms a
        // sleep) would add its whole interval to every request.
        let started = Instant::now();
        for _ in 0..25 {
            let (status, _) = roundtrip(srv.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(status, 200);
        }
        let took = started.elapsed();
        srv.stop();
        assert!(took < Duration::from_millis(250), "25 requests took {took:?}");
    }
}
