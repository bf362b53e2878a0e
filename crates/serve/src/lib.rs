//! `snoop-serve` — a persistent HTTP evaluation daemon over the engine.
//!
//! The paper's MVA technique earns its keep when one calibrated model
//! answers thousands of what-if queries; a batch CLI throws the warm
//! state away between invocations. This crate is the long-running front
//! door: one process holding one warm [`Engine`] — content-addressed
//! cache plus the optional durable `snoop-store` tier — shared across
//! every client, so repeat queries are cache hits no matter who asks.
//!
//! The daemon is std-only, matching the workspace's zero-dependency
//! discipline: a hand-rolled minimal HTTP/1.1 layer ([`http`]) on a
//! [`std::net::TcpListener`], an acceptor thread blocked in `accept()`
//! (so a connection is taken the moment it arrives) feeding a **bounded**
//! submission queue (backpressure: a full queue answers `429` with
//! `Retry-After` instead of growing without bound), and a small pool of
//! worker threads serving:
//!
//! * `POST /eval` — a `snoop-scenario-v1` batch (the same schema as
//!   `snoop eval --scenarios`); results stream back as they complete,
//!   one JSON object per line over chunked transfer encoding;
//! * `GET /metrics` — the live `snoop-metrics-v2` probe snapshot
//!   (per-endpoint RED counters, queue-depth and queue-wait series,
//!   latency histograms, engine cache/store counters); add
//!   `?format=prometheus` for text exposition 0.0.4 ([`metrics`]);
//! * `GET /healthz` — liveness plus uptime, version, worker count,
//!   queue bound and cumulative requests served;
//! * `POST /shutdown` — the administrative equivalent of SIGTERM.
//!
//! With `--access-log FILE` every request also emits one NDJSON line
//! (method, path, status, bytes, queue wait, service time) from a
//! dedicated logger thread ([`access_log`]) that drops-and-counts on
//! overflow rather than ever stalling a worker.
//!
//! Shutdown (SIGTERM, ctrl-c or `POST /shutdown`) is graceful: the
//! request sets a flag and wakes the blocked acceptor with one loopback
//! connection, the acceptor stops accepting, queued and in-flight
//! requests drain, the workers join, and the store's write-through
//! contract means nothing needs replaying. Request handlers are
//! panic-isolated: a handler panic costs that connection a `500`, never
//! the process.
//!
//! Determinism is preserved per request: each scenario is evaluated
//! through the same engine path as the batch CLI, and cached values are
//! bit-identical to freshly computed ones, so two clients racing on the
//! same scenario get byte-identical evaluations.
//!
//! [`Engine`]: snoop_mva::engine::Engine

// `deny`, not `forbid`: the one audited exception is `signal` (see
// below). Everything else in this crate is `unsafe`-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access_log;
pub mod http;
pub mod metrics;
pub mod server;
// Installing a SIGTERM/SIGINT handler requires one `signal(2)` FFI call;
// the handler body is a single atomic store (async-signal-safe). This is
// the workspace's only unsafe code outside tests.
#[allow(unsafe_code)]
mod signal;

pub use server::{ServeConfig, ServeError, ServeSummary, Server, ShutdownHandle};
