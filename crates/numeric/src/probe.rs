//! Zero-dependency observability: span timers, counters and bounded
//! event recorders behind a global thread-safe registry.
//!
//! The suite is offline-first and carries no `tracing` dependency, so
//! this module hand-rolls the three primitives the solvers need:
//!
//! * **Spans** ([`span`]) — scoped wall-clock timers. Nested spans on
//!   the same thread aggregate under a `/`-joined hierarchical path
//!   (e.g. `engine.batch/engine.gtpn/gtpn_reachability`), keyed by
//!   call site, with call counts and total duration.
//! * **Counters** ([`counter_add`]) — monotonic `u64` accumulators
//!   (iteration totals, event counts, solve outcomes).
//! * **Event recorders** ([`record`] / [`record_many`]) — bounded
//!   ring buffers (capacity [`ring_capacity`], default
//!   [`RING_CAPACITY`], override `SNOOP_PROBE_RING`) of `f64` samples
//!   (residual trajectories, wave sizes) with running count / sum /
//!   min / max over *all* samples, even those rotated out of the ring.
//!   Non-finite samples are dropped so every emitted statistic is
//!   finite, and counted per recorder as `dropped_non_finite`;
//!   capacity-evicted samples are counted as `dropped_capacity`. Both
//!   appear in the snapshot so silent data loss is visible.
//! * **Histograms** ([`hist_record`] / [`hist_record_many`]) —
//!   fixed-memory log-linear [`hist::Hist`] series (~1.8 KB each) with
//!   p50/p90/p99/p999, count and an exactly-summed total, for the hot
//!   seams where tails matter: per-backend job wall time, cache hit
//!   latency, fixed-point iterations-to-converge, serve queue wait.
//!
//! The child [`trace`] module adds the *timeline* view: per-thread
//! begin/end event buffers drained into Chrome trace-event JSON.
//!
//! The registry is **disabled by default** and every instrumentation
//! call is a single relaxed atomic load when disabled, so instrumented
//! hot paths cost nothing in normal runs. Metrics are strictly
//! observational — no value read from the registry ever feeds back
//! into a solver — so enabling collection cannot perturb the
//! bit-identical determinism contract in `tests/determinism.rs`.
//!
//! Worker threads spawned by [`crate::exec`] share the same global
//! registry: counters and recorders aggregate across threads under a
//! single mutex. Each helper starts with the span path its caller had
//! open ([`span_path`], [`adopt_span_path`]), so a span it opens lands
//! under the same path as on the calling thread.
//!
//! Consumers take a [`Snapshot`] and render it as stable JSON
//! ([`Snapshot::to_json`], schema [`SCHEMA`]) or as a human-readable
//! profile table ([`Snapshot::render_table`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

pub mod hist;
pub mod trace;

use hist::Hist;

use crate::json::json_string;

/// Identifier of the JSON layout emitted by [`Snapshot::to_json`].
///
/// v2 is a strict superset of v1: it adds the `histograms` section and
/// the per-event `dropped_capacity` field; every v1 field is unchanged,
/// so v1 readers keep working on v2 files.
pub const SCHEMA: &str = "snoop-metrics-v2";

/// Default number of recent samples an event recorder retains; older
/// samples rotate out (their count is reported as `dropped` /
/// `dropped_capacity`) while the running count / sum / min / max keep
/// covering every sample. Override with the `SNOOP_PROBE_RING`
/// environment variable (read once per process).
pub const RING_CAPACITY: usize = 256;

/// The effective event-recorder ring capacity: `SNOOP_PROBE_RING` when
/// set to a positive integer, else [`RING_CAPACITY`]. Cached on first
/// use.
#[must_use]
pub fn ring_capacity() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY
        .get_or_init(|| parse_ring_capacity(std::env::var("SNOOP_PROBE_RING").ok().as_deref()))
}

/// Parses a `SNOOP_PROBE_RING` value; anything unset, non-numeric or
/// zero falls back to the default (a misconfigured variable must never
/// panic a solver run).
fn parse_ring_capacity(value: Option<&str>) -> usize {
    match value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => RING_CAPACITY,
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State::new());
/// Serializes whole enable → run → snapshot sessions; see [`session`].
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed span scopes on this path.
    pub count: u64,
    /// Total wall-clock time spent inside the span, in nanoseconds.
    pub total_ns: u128,
}

/// Aggregated samples of one event recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStats {
    /// Most recent samples, oldest first (at most [`RING_CAPACITY`]).
    pub recent: Vec<f64>,
    /// Samples rotated out of the ring.
    pub dropped: u64,
    /// Non-finite samples rejected by [`record`] / [`record_many`];
    /// these never enter `count`, `sum`, `min` or `max`.
    pub dropped_non_finite: u64,
    /// Total finite samples recorded (recent + dropped).
    pub count: u64,
    /// Sum over all samples ever recorded.
    pub sum: f64,
    /// Minimum over all samples ever recorded.
    pub min: f64,
    /// Maximum over all samples ever recorded.
    pub max: f64,
}

impl EventStats {
    /// Mean over all samples ever recorded.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.sum / self.count as f64 }
    }
}

#[derive(Debug)]
struct Ring {
    values: VecDeque<f64>,
    dropped: u64,
    dropped_non_finite: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            values: VecDeque::new(),
            dropped: 0,
            dropped_non_finite: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.values.len() >= ring_capacity() {
            self.values.pop_front();
            self.dropped += 1;
        }
        self.values.push_back(value);
    }
}

#[derive(Debug)]
struct State {
    spans: BTreeMap<String, SpanStats>,
    counters: BTreeMap<String, u64>,
    events: BTreeMap<String, Ring>,
    hists: BTreeMap<String, Hist>,
}

impl State {
    const fn new() -> Self {
        State {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            events: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }
}

fn state() -> MutexGuard<'static, State> {
    // A poisoned registry only means some panicking thread held the
    // lock mid-update; the aggregates stay usable.
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns whether metric collection is currently on.
///
/// Callers doing non-trivial work just to *compute* a metric (e.g.
/// scanning a vector to count zero waits) should gate that work on
/// this; plain [`counter_add`] / [`record`] / [`span`] calls already
/// check it internally.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric collection on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns metric collection off (process-wide).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all recorded spans, counters, event recorders and histograms.
pub fn reset() {
    let mut st = state();
    st.spans.clear();
    st.counters.clear();
    st.events.clear();
    st.hists.clear();
}

/// An exclusive metrics-collection session: [`reset`] + [`enable`] on
/// creation, [`disable`] on drop.
///
/// Holding the session also holds a process-wide lock so concurrent
/// sessions (as happens when tests sharing this process each collect
/// metrics) cannot reset or disable each other mid-run.
#[derive(Debug)]
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Session {
    fn drop(&mut self) {
        disable();
    }
}

/// Starts an exclusive metrics-collection session; see [`Session`].
#[must_use]
pub fn session() -> Session {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    enable();
    Session { _guard: guard }
}

/// Adds `delta` to the named monotonic counter (created at zero on
/// first use). No-op while collection is disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut st = state();
    match st.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            st.counters.insert(name.to_string(), delta);
        }
    }
}

/// Records one sample into the named event ring. Non-finite samples
/// are dropped and counted in [`EventStats::dropped_non_finite`].
/// No-op while collection is disabled.
pub fn record(name: &str, value: f64) {
    record_many(name, std::slice::from_ref(&value));
}

/// Records a batch of samples into the named event ring under a single
/// registry lock. Non-finite samples are dropped and counted in
/// [`EventStats::dropped_non_finite`]. No-op while collection is
/// disabled.
pub fn record_many(name: &str, values: &[f64]) {
    if !enabled() {
        return;
    }
    let mut st = state();
    let ring = match st.events.get_mut(name) {
        Some(r) => r,
        None => st.events.entry(name.to_string()).or_insert_with(Ring::new),
    };
    for &v in values {
        if v.is_finite() {
            ring.push(v);
        } else {
            ring.dropped_non_finite += 1;
        }
    }
}

/// Records one sample into the named log-linear histogram (see
/// [`hist::Hist`]; created empty on first use). Negative and non-finite
/// samples are rejected and counted per histogram. No-op while
/// collection is disabled.
pub fn hist_record(name: &str, value: f64) {
    hist_record_many(name, std::slice::from_ref(&value));
}

/// Records a batch of samples into the named histogram under a single
/// registry lock. No-op while collection is disabled.
pub fn hist_record_many(name: &str, values: &[f64]) {
    if !enabled() {
        return;
    }
    let mut st = state();
    let h = match st.hists.get_mut(name) {
        Some(h) => h,
        None => st.hists.entry(name.to_string()).or_default(),
    };
    for &v in values {
        h.record(v);
    }
}

/// A scoped span timer; created by [`span`], records on drop.
///
/// While collection is enabled the span's name is pushed onto a
/// thread-local stack, so spans opened inside it aggregate under a
/// hierarchical `outer/inner` path.
#[derive(Debug)]
#[must_use = "a span records its duration when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    active: Option<(Instant, &'static str)>,
}

/// Opens a named span; the returned guard records the elapsed
/// wall-clock time (and increments the path's call count) when it goes
/// out of scope. Returns an inert guard while collection is disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span { active: Some((Instant::now(), name)) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((start, name)) = self.active.take() else {
            return;
        };
        let elapsed = start.elapsed();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop LIFO, so the top of the stack is this span.
            stack.pop();
            if stack.is_empty() {
                name.to_string()
            } else {
                format!("{}/{}", stack.join("/"), name)
            }
        });
        let mut st = state();
        let entry = st.spans.entry(path).or_default();
        entry.count += 1;
        entry.total_ns += elapsed.as_nanos();
    }
}

/// The names of the spans open on this thread, outermost first. Empty
/// while collection is disabled.
///
/// [`crate::exec`] reads it on the calling thread and hands it to every
/// helper thread through [`adopt_span_path`].
#[must_use]
pub fn span_path() -> Vec<&'static str> {
    if !enabled() {
        return Vec::new();
    }
    SPAN_STACK.with(|s| s.borrow().clone())
}

/// Opens `path` (from [`span_path`] on another thread) on this thread,
/// so the spans opened here aggregate under it. The returned guard
/// clears this thread's span stack again; hold it for as long as the
/// thread works on the caller's behalf.
pub fn adopt_span_path(path: &[&'static str]) -> AdoptedSpanPath {
    if !path.is_empty() {
        SPAN_STACK.with(|s| s.borrow_mut().extend_from_slice(path));
    }
    AdoptedSpanPath { adopted: !path.is_empty() }
}

/// Clears the span stack that [`adopt_span_path`] seeded, on drop.
#[derive(Debug)]
#[must_use = "the adopted path is cleared when the guard drops; binding it to `_` drops it immediately"]
pub struct AdoptedSpanPath {
    adopted: bool,
}

impl Drop for AdoptedSpanPath {
    fn drop(&mut self) {
        if self.adopted {
            SPAN_STACK.with(|s| s.borrow_mut().clear());
        }
    }
}

/// A consistent copy of the registry at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Span statistics keyed by hierarchical path, sorted by path.
    pub spans: Vec<(String, SpanStats)>,
    /// Counters keyed by name, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Event statistics keyed by name, sorted by name.
    pub events: Vec<(String, EventStats)>,
    /// Log-linear histograms keyed by name, sorted by name.
    pub hists: Vec<(String, Hist)>,
}

/// Takes a consistent snapshot of every span, counter and event
/// recorder. Works whether or not collection is currently enabled.
#[must_use]
pub fn snapshot() -> Snapshot {
    let st = state();
    Snapshot {
        spans: st.spans.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        counters: st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        events: st
            .events
            .iter()
            .map(|(k, r)| {
                (
                    k.clone(),
                    EventStats {
                        recent: r.values.iter().copied().collect(),
                        dropped: r.dropped,
                        dropped_non_finite: r.dropped_non_finite,
                        count: r.count,
                        sum: r.sum,
                        min: r.min,
                        max: r.max,
                    },
                )
            })
            .collect(),
        hists: st.hists.iter().map(|(k, h)| (k.clone(), h.clone())).collect(),
    }
}

impl Snapshot {
    /// Renders the snapshot as stable JSON (schema [`SCHEMA`]).
    ///
    /// Layout: `{"schema", "spans": {path: {"calls", "total_ms",
    /// "mean_ms"}}, "counters": {name: value}, "events": {name:
    /// {"count", "dropped", "dropped_capacity", "dropped_non_finite",
    /// "mean", "min", "max", "recent": [...]}}, "histograms": {name:
    /// {"count", "rejected", "sum", "mean", "min", "max", "p50",
    /// "p90", "p99", "p999", "buckets": [[le, cumulative], ...]}}}`.
    /// Keys are sorted, every duration and statistic is finite and
    /// durations are non-negative, so downstream checks can validate
    /// the file without a JSON library. `dropped_capacity` duplicates
    /// the v1 `dropped` field under its descriptive name; `buckets`
    /// lists only non-empty buckets, cumulative counts monotone.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
        json.push_str("  \"spans\": {\n");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            let total_ms = s.total_ns as f64 / 1e6;
            let mean_ms = if s.count == 0 { 0.0 } else { total_ms / s.count as f64 };
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {}: {{\"calls\": {}, \"total_ms\": {:.6}, \"mean_ms\": {:.6}}}{}",
                json_string(path),
                s.count,
                total_ms,
                mean_ms,
                comma
            );
        }
        json.push_str("  },\n  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(json, "    {}: {value}{comma}", json_string(name));
        }
        json.push_str("  },\n  \"events\": {\n");
        for (i, (name, e)) in self.events.iter().enumerate() {
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let (min, max) = if e.count == 0 { (0.0, 0.0) } else { (e.min, e.max) };
            let mut recent = String::new();
            for (j, v) in e.recent.iter().enumerate() {
                if j > 0 {
                    recent.push_str(", ");
                }
                let _ = write!(recent, "{v:.9e}");
            }
            let _ = writeln!(
                json,
                "    {}: {{\"count\": {}, \"dropped\": {}, \
                 \"dropped_capacity\": {}, \
                 \"dropped_non_finite\": {}, \"mean\": {:.9e}, \
                 \"min\": {min:.9e}, \"max\": {max:.9e}, \"recent\": [{recent}]}}{comma}",
                json_string(name),
                e.count,
                e.dropped,
                e.dropped,
                e.dropped_non_finite,
                e.mean()
            );
        }
        json.push_str("  },\n  \"histograms\": {\n");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            let comma = if i + 1 < self.hists.len() { "," } else { "" };
            let mut buckets = String::new();
            for (j, (le, cumulative)) in h.cumulative_buckets().enumerate() {
                if j > 0 {
                    buckets.push_str(", ");
                }
                let _ = write!(buckets, "[{le:.9e}, {cumulative}]");
            }
            let mut quantiles = String::new();
            for (label, q) in hist::SNAPSHOT_QUANTILES {
                let _ = write!(quantiles, "\"{label}\": {:.9e}, ", h.quantile(q));
            }
            let _ = writeln!(
                json,
                "    {}: {{\"count\": {}, \"rejected\": {}, \
                 \"sum\": {:.9e}, \"mean\": {:.9e}, \"min\": {:.9e}, \
                 \"max\": {:.9e}, {quantiles}\"buckets\": [{buckets}]}}{comma}",
                json_string(name),
                h.count(),
                h.rejected(),
                h.sum(),
                h.mean(),
                h.min(),
                h.max(),
            );
        }
        json.push_str("  }\n}\n");
        json
    }

    /// Renders the human-readable `snoop profile` table (the stderr
    /// companion of the `--metrics-out` JSON file).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::from("snoop profile\n");
        if !self.spans.is_empty() {
            let width =
                self.spans.iter().map(|(p, _)| p.len()).max().unwrap_or(4).max(4);
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8}  {:>12}  {:>10}",
                "span", "calls", "total ms", "mean ms"
            );
            for (path, s) in &self.spans {
                let total_ms = s.total_ns as f64 / 1e6;
                let mean_ms = if s.count == 0 { 0.0 } else { total_ms / s.count as f64 };
                let _ = writeln!(
                    out,
                    "  {path:<width$}  {:>8}  {total_ms:>12.3}  {mean_ms:>10.4}",
                    s.count
                );
            }
        }
        if !self.counters.is_empty() {
            let width =
                self.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(7).max(7);
            let _ = writeln!(out, "  {:<width$}  {:>12}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value:>12}");
            }
        }
        if !self.events.is_empty() {
            let width =
                self.events.iter().map(|(n, _)| n.len()).max().unwrap_or(5).max(5);
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>8}  {:>8}",
                "event", "count", "mean", "min", "max", "drop-nf", "drop-cap"
            );
            for (name, e) in &self.events {
                let (min, max) = if e.count == 0 { (0.0, 0.0) } else { (e.min, e.max) };
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {:>8}  {:>12.5}  {min:>12.5}  {max:>12.5}  {:>8}  {:>8}",
                    e.count,
                    e.mean(),
                    e.dropped_non_finite,
                    e.dropped
                );
            }
        }
        if !self.hists.is_empty() {
            let width =
                self.hists.iter().map(|(n, _)| n.len()).max().unwrap_or(9).max(9);
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}",
                "histogram", "count", "p50", "p90", "p99", "p999"
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {:>8}  {:>12.5}  {:>12.5}  {:>12.5}  {:>12.5}",
                    h.count(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.quantile(0.999)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find_span<'a>(snap: &'a Snapshot, path: &str) -> Option<&'a SpanStats> {
        snap.spans.iter().find(|(p, _)| p == path).map(|(_, s)| s)
    }

    fn find_counter(snap: &Snapshot, name: &str) -> Option<u64> {
        snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn find_event<'a>(snap: &'a Snapshot, name: &str) -> Option<&'a EventStats> {
        snap.events.iter().find(|(n, _)| n == name).map(|(_, e)| e)
    }

    // Instrumented solver tests running concurrently in this binary may
    // add *their* metrics while a session here is enabled, so every
    // assertion below reads only names unique to its own test.

    #[test]
    fn nested_spans_aggregate_under_hierarchical_paths() {
        let _session = session();
        {
            let _outer = span("probe_test_outer");
            let _inner = span("probe_test_inner");
        }
        {
            let _outer = span("probe_test_outer");
        }
        let snap = snapshot();
        assert_eq!(find_span(&snap, "probe_test_outer").unwrap().count, 2);
        let inner = find_span(&snap, "probe_test_outer/probe_test_inner").unwrap();
        assert_eq!(inner.count, 1);
        assert!(find_span(&snap, "probe_test_inner").is_none());
    }

    #[test]
    fn counters_aggregate_across_thread_counts() {
        let _session = session();
        for (i, threads) in [1usize, 2, 8].into_iter().enumerate() {
            let name = format!("probe_test_threads_{threads}");
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            counter_add(&name, 1);
                        }
                        record(&name, 1.5);
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(find_counter(&snap, &name), Some(100 * threads as u64));
            let event = find_event(&snap, &name).unwrap();
            assert_eq!(event.count, threads as u64);
            assert!((event.sum - 1.5 * threads as f64).abs() < 1e-12, "round {i}");
        }
    }

    #[test]
    fn ring_buffer_truncates_but_keeps_running_statistics() {
        let _session = session();
        let samples: Vec<f64> = (0..300).map(f64::from).collect();
        record_many("probe_test_ring", &samples);
        let snap = snapshot();
        let e = find_event(&snap, "probe_test_ring").unwrap();
        assert_eq!(e.count, 300);
        assert_eq!(e.dropped, 300 - RING_CAPACITY as u64);
        assert_eq!(e.recent.len(), RING_CAPACITY);
        // Ring holds the most recent samples, oldest first.
        assert_eq!(e.recent.first().copied(), Some((300 - RING_CAPACITY) as f64));
        assert_eq!(e.recent.last().copied(), Some(299.0));
        // Running statistics still cover the rotated-out samples.
        assert_eq!(e.min, 0.0);
        assert_eq!(e.max, 299.0);
        assert!((e.mean() - 149.5).abs() < 1e-12);
    }

    #[test]
    fn non_finite_samples_are_dropped_and_counted() {
        let _session = session();
        record_many(
            "probe_test_finite",
            &[1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0],
        );
        record("probe_test_finite", f64::NAN);
        let snap = snapshot();
        let e = find_event(&snap, "probe_test_finite").unwrap();
        assert_eq!(e.count, 2);
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 2.0);
        assert_eq!(e.dropped_non_finite, 4);
        let json = snap.to_json();
        assert!(json.contains("\"dropped_non_finite\": 4"), "{json}");
        let table = snap.render_table();
        assert!(table.contains("drop-nf"), "{table}");
    }

    #[test]
    fn hist_snapshot_is_bit_identical_across_thread_counts() {
        // The same multiset of samples, recorded from 1, 2 and 8
        // threads (each taking a strided slice), must render the exact
        // same bytes: counts are order-independent and the Kulisch
        // accumulator makes the sum exact regardless of interleaving.
        let name = "probe_test_hist_thread_determinism";
        let values: Vec<f64> = (0..2000u64)
            .map(|i| ((i.wrapping_mul(2_654_435_761) % 977) as f64 + 1.0) * 0.037)
            .collect();
        let render = |threads: usize| {
            let _session = session();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let values = &values;
                    scope.spawn(move || {
                        for v in values.iter().skip(t).step_by(threads) {
                            hist_record(name, *v);
                        }
                    });
                }
            });
            let snap = snapshot();
            let (_, h) =
                snap.hists.iter().find(|(n, _)| n == name).expect("histogram exists").clone();
            assert_eq!(h.count(), values.len() as u64);
            // Render this histogram alone: concurrently running
            // instrumented tests may add unrelated series to the
            // registry, which must not fail a byte comparison.
            let solo = Snapshot {
                spans: Vec::new(),
                counters: Vec::new(),
                events: Vec::new(),
                hists: vec![(name.to_string(), h)],
            };
            solo.to_json()
        };
        let single = render(1);
        for threads in [2, 8] {
            assert_eq!(single, render(threads), "{threads}-thread snapshot diverged");
        }
    }

    #[test]
    fn concurrent_updates_from_8_threads_lose_nothing() {
        const THREADS: usize = 8;
        const OPS: u64 = 10_000;
        let _session = session();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..OPS {
                        counter_add("probe_test_contended_counter", 1);
                        record("probe_test_contended_event", (i % 16) as f64);
                    }
                });
            }
        });
        let snap = snapshot();
        assert_eq!(
            find_counter(&snap, "probe_test_contended_counter"),
            Some(THREADS as u64 * OPS)
        );
        let e = find_event(&snap, "probe_test_contended_event").unwrap();
        assert_eq!(e.count, THREADS as u64 * OPS);
        assert_eq!(e.dropped + e.recent.len() as u64, e.count);
        assert_eq!(e.min, 0.0);
        assert_eq!(e.max, 15.0);
    }

    #[test]
    fn exec_helpers_open_spans_under_the_callers_path() {
        use crate::exec::{helper_test_lock, par_map, ExecOptions};
        use std::sync::Condvar;

        let _lock = helper_test_lock();
        let _session = session();
        let caller = std::thread::current().id();
        let arrived = (Mutex::new(0), Condvar::new());
        let on_helper = {
            let _outer = span("probe_test_par_outer");
            // Each of the two items waits for the other, so the caller
            // and the helper run one each.
            par_map(&[0, 1], &ExecOptions::with_threads(2), |_| {
                let _item = span("probe_test_par_item");
                let (count, all_in) = &arrived;
                let mut count = count.lock().unwrap();
                *count += 1;
                all_in.notify_all();
                let wait = std::time::Duration::from_secs(10);
                drop(all_in.wait_timeout_while(count, wait, |n| *n < 2).unwrap());
                std::thread::current().id() != caller
            })
        };
        assert_eq!(on_helper.iter().filter(|&&h| h).count(), 1, "{on_helper:?}");
        let snap = snapshot();
        let nested = find_span(&snap, "probe_test_par_outer/probe_test_par_item");
        assert_eq!(nested.map(|s| s.count), Some(2));
        assert!(find_span(&snap, "probe_test_par_item").is_none());
    }

    #[test]
    fn span_stack_survives_panic_unwind() {
        let _session = session();
        let result = std::panic::catch_unwind(|| {
            let _outer = span("probe_test_unwind_outer");
            let _inner = span("probe_test_unwind_inner");
            panic!("boom");
        });
        assert!(result.is_err());
        // The unwound guards must have popped their stack entries, so a
        // fresh span lands on a *top-level* path, not nested under the
        // panicked spans.
        {
            let _after = span("probe_test_unwind_after");
        }
        let snap = snapshot();
        assert_eq!(find_span(&snap, "probe_test_unwind_after").unwrap().count, 1);
        assert!(
            snap.spans
                .iter()
                .all(|(p, _)| !p.contains("probe_test_unwind_outer/probe_test_unwind_after")),
            "span stack leaked panicked frames: {:?}",
            snap.spans.iter().map(|(p, _)| p).collect::<Vec<_>>()
        );
        // Both unwound spans still recorded their (partial) durations.
        assert_eq!(find_span(&snap, "probe_test_unwind_outer").unwrap().count, 1);
        assert_eq!(
            find_span(&snap, "probe_test_unwind_outer/probe_test_unwind_inner")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn disabled_collection_is_a_no_op() {
        let _session = session();
        disable();
        counter_add("probe_test_disabled", 7);
        record("probe_test_disabled", 1.0);
        {
            let _span = span("probe_test_disabled");
        }
        let snap = snapshot();
        assert_eq!(find_counter(&snap, "probe_test_disabled"), None);
        assert!(find_event(&snap, "probe_test_disabled").is_none());
        assert!(find_span(&snap, "probe_test_disabled").is_none());
    }

    #[test]
    fn json_and_table_cover_all_sections() {
        let _session = session();
        {
            let _span = span("probe_test_json_span");
        }
        counter_add("probe_test_json_counter", 3);
        record("probe_test_json_event", 0.25);
        hist_record("probe_test_json_hist", 1.5);
        let snap = snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"snoop-metrics-v2\""));
        assert!(json.contains("\"probe_test_json_span\": {\"calls\": 1"));
        assert!(json.contains("\"probe_test_json_counter\": 3"));
        assert!(json.contains("\"probe_test_json_event\": {\"count\": 1"));
        assert!(json.contains("\"probe_test_json_hist\": {\"count\": 1"));
        assert!(json.contains("\"p99\""), "{json}");
        let table = snap.render_table();
        assert!(table.starts_with("snoop profile\n"));
        assert!(table.contains("probe_test_json_span"));
        assert!(table.contains("probe_test_json_counter"));
        assert!(table.contains("probe_test_json_event"));
        assert!(table.contains("probe_test_json_hist"));
        assert!(table.contains("drop-cap"));
    }

    #[test]
    fn hist_records_through_the_registry_and_renders_v2_json() {
        let _session = session();
        hist_record_many("probe_test_hist_reg", &[1.0, 2.0, 4.0, f64::NAN, -3.0]);
        let snap = snapshot();
        let (_, h) = snap
            .hists
            .iter()
            .find(|(n, _)| n == "probe_test_hist_reg")
            .expect("histogram registered");
        assert_eq!(h.count(), 3);
        assert_eq!(h.rejected(), 2);
        assert_eq!(h.sum(), 7.0);
        let json = snap.to_json();
        let doc = crate::json::JsonValue::parse(&json)
            .unwrap_or_else(|e| panic!("v2 snapshot must parse: {e}\n{json}"));
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("probe_test_hist_reg"))
            .expect("histograms section");
        assert_eq!(hist.get("count").and_then(crate::json::JsonValue::as_u64), Some(3));
        assert_eq!(hist.get("rejected").and_then(crate::json::JsonValue::as_u64), Some(2));
        let buckets = hist.get("buckets").and_then(crate::json::JsonValue::as_array).unwrap();
        assert_eq!(buckets.len(), 3, "three distinct buckets");
        // v1 compatibility: the events section still carries `dropped`,
        // with `dropped_capacity` as the v2 alias.
        record("probe_test_hist_reg_event", 1.0);
        let json = snapshot().to_json();
        assert!(json.contains("\"dropped\": 0, \"dropped_capacity\": 0"), "{json}");
    }

    #[test]
    fn ring_capacity_parses_the_environment_shape() {
        assert_eq!(parse_ring_capacity(None), RING_CAPACITY);
        assert_eq!(parse_ring_capacity(Some("")), RING_CAPACITY);
        assert_eq!(parse_ring_capacity(Some("garbage")), RING_CAPACITY);
        assert_eq!(parse_ring_capacity(Some("0")), RING_CAPACITY);
        assert_eq!(parse_ring_capacity(Some("-4")), RING_CAPACITY);
        assert_eq!(parse_ring_capacity(Some("16")), 16);
        assert_eq!(parse_ring_capacity(Some(" 512 ")), 512);
    }

    #[test]
    fn snapshot_json_with_hostile_names_parses() {
        // Quotes, backslashes and control characters must round-trip
        // through the snapshot JSON and the parser unchanged, in every
        // section.
        let name = "probe_test_hostile \"quoted\" back\\slash\nline\r\ttab\u{1}ctl";
        let _session = session();
        {
            let _span = span(name);
        }
        counter_add(name, 3);
        record(name, 0.25);
        hist_record(name, 2.0);
        let json = snapshot().to_json();
        let doc = crate::json::JsonValue::parse(&json)
            .unwrap_or_else(|e| panic!("snapshot JSON must stay parseable: {e}\n{json}"));
        assert_eq!(
            doc.get("schema").and_then(crate::json::JsonValue::as_str),
            Some(SCHEMA)
        );
        for section in ["spans", "counters", "events", "histograms"] {
            assert!(
                doc.get(section).and_then(|s| s.get(name)).is_some(),
                "{section}: name did not round-trip unchanged\n{json}"
            );
        }
    }
}
