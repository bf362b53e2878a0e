//! Timeline tracing: bounded per-thread event buffers drained into
//! Chrome trace-event JSON (`chrome://tracing` / Perfetto compatible).
//!
//! Where the parent [`probe`](super) module aggregates (span *totals* by
//! path), this module keeps the *timeline*: every traced span becomes a
//! begin/end (`"B"`/`"E"`) event pair with a run-epoch-relative
//! timestamp, a stable per-thread id and optional key/value args, so a
//! batch run can be opened in Perfetto and inspected wall-clock-first
//! ("where does the time go *inside* this engine batch?").
//!
//! Design constraints, matching the parent module:
//!
//! * **Strictly observational** — nothing read from the trace ever feeds
//!   back into a solver; `tests/determinism.rs` proves solver output is
//!   bit-identical at 1/2/8 threads with tracing enabled.
//! * **Disabled by default** — every instrumentation call is one relaxed
//!   atomic load when tracing is off; argument strings are only built
//!   when tracing is on ([`span_with`] takes a closure).
//! * **Bounded** — each thread buffers at most [`THREAD_CAPACITY`]
//!   events. A span that would overflow the buffer is dropped *whole*
//!   (begin and end together, counted in [`Trace::dropped`]), so the
//!   drained timeline always has matched `B`/`E` pairs.
//!
//! Every thread's buffer is registered in a global registry the moment
//! the thread first records, so [`drain`] collects from *all* threads —
//! live ones, exited ones, and threads whose TLS destructors have not run
//! yet. Drain only after parallel work has joined; a thread still
//! *inside* a span at drain time would contribute an unmatched begin.
//!
//! # Example
//!
//! ```
//! use snoop_numeric::probe::trace;
//!
//! let session = trace::session();
//! {
//!     let _outer = trace::span("solve");
//!     let _inner = trace::span_with("iterate", || vec![("n", "10".to_string())]);
//! }
//! let trace = trace::drain();
//! drop(session);
//! assert_eq!(trace.events.len(), 4); // two B/E pairs
//! assert!(trace.to_chrome_json().contains("\"traceEvents\""));
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::json::json_string;

/// Identifier of the JSON layout emitted by [`Trace::to_chrome_json`]
/// (carried in the document's `otherData`; the event layout itself is
/// the standard Chrome trace-event format).
pub const SCHEMA: &str = "snoop-trace-v1";

/// Maximum number of events (begin + end each count as one) a single
/// thread buffers; spans beyond the bound are dropped whole and counted.
pub const THREAD_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Every thread's shared event buffer, registered on first record.
/// Holding strong references keeps an exited thread's not-yet-drained
/// events reachable; [`drain`]/[`reset`] prune entries whose thread has
/// exited (registry is the sole owner) once they are empty.
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<RawEvent>>>>> = Mutex::new(Vec::new());
/// The instant timestamps are measured from (set when a session starts).
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
/// Spans dropped because a thread buffer was full.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Next per-thread id (small, stable within a process run).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Serializes whole enable → run → drain sessions; see [`session`].
static SESSION: Mutex<()> = Mutex::new(());

/// One buffered begin or end event. Timestamps stay absolute
/// ([`Instant`]) until drain time, when they become epoch-relative.
#[derive(Debug)]
struct RawEvent {
    name: &'static str,
    phase: char,
    at: Instant,
    tid: u64,
    args: Vec<(&'static str, String)>,
}

struct LocalBuf {
    tid: u64,
    /// This thread's events. Shared with [`REGISTRY`] so [`drain`] can
    /// collect without waiting for TLS destructors: `thread::scope` can
    /// return (and a drain run) before a finished thread's TLS has been
    /// torn down, unless the thread was joined explicitly.
    events: Arc<Mutex<Vec<RawEvent>>>,
    /// Spans currently open on this thread (each has a pending `E`).
    open: usize,
}

impl LocalBuf {
    fn new() -> Self {
        let events = Arc::new(Mutex::new(Vec::new()));
        registry().push(Arc::clone(&events));
        LocalBuf { tid: NEXT_TID.fetch_add(1, Ordering::Relaxed), events, open: 0 }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

fn registry() -> MutexGuard<'static, Vec<Arc<Mutex<Vec<RawEvent>>>>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes every buffered event out of every registered thread buffer and
/// drops the buffers of exited threads (strong count 1: the registry is
/// the sole remaining owner) so the registry stays bounded by the number
/// of *live* recording threads.
fn collect_registered() -> Vec<RawEvent> {
    let mut reg = registry();
    let mut all = Vec::new();
    reg.retain(|buf| {
        all.append(&mut lock(buf));
        Arc::strong_count(buf) > 1
    });
    all
}

/// Returns whether trace collection is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns trace collection on (process-wide) and restarts the run epoch.
pub fn enable() {
    *EPOCH.lock().unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns trace collection off (process-wide).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears every thread's buffer, the calling thread's open-span count
/// and the dropped count.
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().open = 0);
    drop(collect_registered());
    DROPPED.store(0, Ordering::Relaxed);
}

/// An exclusive trace-collection session: [`reset`] + [`enable`] on
/// creation, [`disable`] on drop. Holding it holds a process-wide lock
/// so concurrent sessions cannot reset or disable each other mid-run.
#[derive(Debug)]
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Session {
    fn drop(&mut self) {
        disable();
    }
}

/// Starts an exclusive trace-collection session; see [`Session`].
#[must_use]
pub fn session() -> Session {
    let guard = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    enable();
    Session { _guard: guard }
}

/// A scoped timeline span: records a `B` event on creation (via
/// [`span`] / [`span_with`]) and the matching `E` event on drop.
#[derive(Debug)]
#[must_use = "a trace span records its end event when dropped"]
pub struct TraceSpan {
    /// `Some` only when the begin event was actually buffered (tracing
    /// on and the thread buffer had room), so `B`/`E` always pair up.
    recorded: Option<&'static str>,
    /// Args attached after creation; emitted on the `E` event (Perfetto
    /// merges begin and end args for display).
    late_args: Vec<(&'static str, String)>,
}

impl TraceSpan {
    /// Attaches an argument that becomes known only while the span is
    /// running (e.g. a cache-lookup outcome); it is emitted on the end
    /// event. No-op on an inert span, which allocates nothing.
    pub fn arg(&mut self, key: &'static str, value: &'static str) {
        if self.recorded.is_some() {
            self.late_args.push((key, value.to_string()));
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(name) = self.recorded.take() else {
            return;
        };
        let at = Instant::now();
        LOCAL.with(|l| {
            let mut local = l.borrow_mut();
            let tid = local.tid;
            // The slot was reserved when the begin event was admitted.
            lock(&local.events).push(RawEvent {
                name,
                phase: 'E',
                at,
                tid,
                args: std::mem::take(&mut self.late_args),
            });
            local.open = local.open.saturating_sub(1);
        });
    }
}

/// Opens a named timeline span with no args.
pub fn span(name: &'static str) -> TraceSpan {
    span_with(name, Vec::new)
}

/// Opens a named timeline span whose begin event carries the args built
/// by `make_args`. The closure only runs when tracing is enabled, so
/// argument formatting costs nothing in normal runs.
pub fn span_with<F>(name: &'static str, make_args: F) -> TraceSpan
where
    F: FnOnce() -> Vec<(&'static str, String)>,
{
    if !enabled() {
        return TraceSpan { recorded: None, late_args: Vec::new() };
    }
    let recorded = LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        let tid = local.tid;
        let open = local.open;
        let mut events = lock(&local.events);
        // Admit the span only if both its B and the pending E's of every
        // open span (including this one) still fit the bound.
        if events.len() + open + 2 > THREAD_CAPACITY {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        events.push(RawEvent { name, phase: 'B', at: Instant::now(), tid, args: make_args() });
        drop(events);
        local.open += 1;
        true
    });
    TraceSpan { recorded: recorded.then_some(name), late_args: Vec::new() }
}

/// One drained timeline event, epoch-relative and ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: String,
    /// `'B'` (begin) or `'E'` (end).
    pub phase: char,
    /// Nanoseconds since the session epoch.
    pub ts_ns: u128,
    /// Stable per-thread id (small integers, assigned on first use).
    pub tid: u64,
    /// Key/value args (begin: creation args; end: late args).
    pub args: Vec<(String, String)>,
}

/// A drained timeline: every completed span's `B`/`E` pair, sorted by
/// timestamp (ties keep per-thread order), plus the dropped-span count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by `ts_ns`; per-thread relative order is preserved.
    pub events: Vec<TraceEvent>,
    /// Spans dropped whole because a thread buffer was full.
    pub dropped: u64,
}

/// Collects every thread's buffered events — live threads and exited
/// ones alike — and returns the merged, time-sorted timeline. Call after
/// parallel work has joined; all buffers are left empty.
#[must_use]
pub fn drain() -> Trace {
    LOCAL.with(|l| l.borrow_mut().open = 0);
    let raw = collect_registered();
    let epoch = *EPOCH.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(epoch) = epoch else {
        return Trace::default();
    };
    let mut events: Vec<TraceEvent> = raw
        .into_iter()
        .map(|e| TraceEvent {
            name: e.name.to_string(),
            phase: e.phase,
            ts_ns: e.at.saturating_duration_since(epoch).as_nanos(),
            tid: e.tid,
            args: e.args.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
        })
        .collect();
    // Stable by-timestamp sort: a thread's own events carry monotone
    // timestamps, so per-thread (and therefore B/E nesting) order
    // survives; cross-thread ties keep flush order.
    events.sort_by_key(|e| e.ts_ns);
    Trace { events, dropped: DROPPED.load(Ordering::Relaxed) }
}

impl Trace {
    /// Renders the timeline as a Chrome trace-event JSON document
    /// (object form: `{"traceEvents": [...], ...}`), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps are microseconds
    /// with nanosecond precision; args values are strings.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut json = String::from("{\n  \"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 < self.events.len() { "," } else { "" };
            let ts_us = e.ts_ns as f64 / 1e3;
            let mut args = String::new();
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    args.push_str(", ");
                }
                let _ = write!(args, "{}: {}", json_string(k), json_string(v));
            }
            let _ = writeln!(
                json,
                "    {{\"name\": {}, \"cat\": \"snoop\", \"ph\": \"{}\", \
                 \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}{comma}",
                json_string(&e.name),
                e.phase,
                e.tid,
            );
        }
        json.push_str("  ],\n  \"displayTimeUnit\": \"ms\",\n");
        let _ = writeln!(
            json,
            "  \"otherData\": {{\"schema\": \"{SCHEMA}\", \"dropped_spans\": {}}}",
            self.dropped
        );
        json.push_str("}\n");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    /// Asserts every `B` has a matching `E` per thread and timestamps
    /// never decrease.
    fn check_invariants(trace: &Trace) {
        let mut last_ts = 0u128;
        let mut stacks: std::collections::HashMap<u64, Vec<&str>> =
            std::collections::HashMap::new();
        for e in &trace.events {
            assert!(e.ts_ns >= last_ts, "timestamps must be monotone");
            last_ts = e.ts_ns;
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                'B' => stack.push(&e.name),
                'E' => assert_eq!(stack.pop(), Some(e.name.as_str()), "unmatched E"),
                other => panic!("unexpected phase {other:?}"),
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "thread {tid} left dangling B events: {stack:?}");
        }
    }

    #[test]
    fn spans_produce_matched_sorted_pairs() {
        let _session = session();
        {
            let _outer = span("trace_test_outer");
            let _inner = span_with("trace_test_inner", || {
                vec![("scenario", "deadbeef".to_string())]
            });
        }
        let trace = drain();
        let ours: Vec<_> =
            trace.events.iter().filter(|e| e.name.starts_with("trace_test")).collect();
        assert_eq!(ours.len(), 4);
        check_invariants(&Trace {
            events: ours.iter().map(|e| (*e).clone()).collect(),
            dropped: 0,
        });
        let inner_b = ours
            .iter()
            .find(|e| e.name == "trace_test_inner" && e.phase == 'B')
            .unwrap();
        assert_eq!(inner_b.args, vec![("scenario".to_string(), "deadbeef".to_string())]);
    }

    #[test]
    fn late_args_land_on_the_end_event() {
        let _session = session();
        {
            let mut s = span("trace_test_late");
            s.arg("cache", "hit");
        }
        let trace = drain();
        let end = trace
            .events
            .iter()
            .find(|e| e.name == "trace_test_late" && e.phase == 'E')
            .unwrap();
        assert_eq!(end.args, vec![("cache".to_string(), "hit".to_string())]);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _session = session();
        disable();
        {
            let mut s = span("trace_test_disabled");
            s.arg("k", "v");
        }
        let trace = drain();
        assert!(trace.events.iter().all(|e| e.name != "trace_test_disabled"));
    }

    #[test]
    fn worker_thread_events_are_flushed_and_merged() {
        let _session = session();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span("trace_test_worker");
                });
            }
        });
        {
            let _s = span("trace_test_main");
        }
        let trace = drain();
        let workers =
            trace.events.iter().filter(|e| e.name == "trace_test_worker").count();
        assert_eq!(workers, 8, "4 worker B/E pairs");
        let tids: std::collections::HashSet<u64> = trace
            .events
            .iter()
            .filter(|e| e.name == "trace_test_worker")
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), 4, "each worker gets its own tid");
        check_invariants(&Trace {
            events: trace
                .events
                .iter()
                .filter(|e| e.name.starts_with("trace_test"))
                .cloned()
                .collect(),
            dropped: 0,
        });
    }

    #[test]
    fn exec_helpers_leave_matched_spans_and_no_buffers() {
        let _helpers = crate::exec::helper_test_lock();
        let _session = session();
        let caller = LOCAL.with(|l| l.borrow().tid);
        let items: Vec<usize> = (0..64).collect();
        let recorders = crate::exec::par_map(
            &items,
            &crate::exec::ExecOptions::with_threads(4),
            |_| {
                let _s = span("trace_test_exec");
                std::thread::sleep(std::time::Duration::from_micros(100));
                LOCAL.with(|l| {
                    let local = l.borrow();
                    (local.tid, Arc::downgrade(&local.events))
                })
            },
        );
        let trace = drain();
        let ours = Trace {
            events: trace.events.iter().filter(|e| e.name == "trace_test_exec").cloned().collect(),
            dropped: 0,
        };
        assert_eq!(ours.events.len(), 2 * items.len(), "one B/E pair per item");
        check_invariants(&ours);
        assert!(recorders.iter().any(|(tid, _)| *tid != caller), "no helper recorded");
        // `par_map` joins its helpers, so each has exited and its buffer
        // is unreachable once the drain has pruned the registry.
        for (tid, buffer) in recorders.iter().filter(|(tid, _)| *tid != caller) {
            assert!(buffer.upgrade().is_none(), "registry kept the buffer of exited tid {tid}");
        }
    }

    #[test]
    fn full_buffer_drops_spans_whole() {
        let _session = session();
        // One open outer span + as many complete inner spans as fit.
        let outer = span("trace_test_fill_outer");
        for _ in 0..THREAD_CAPACITY {
            let _s = span("trace_test_fill");
        }
        drop(outer);
        let trace = drain();
        assert!(trace.dropped > 0, "overflow must be counted");
        check_invariants(&trace);
        assert!(trace.events.len() <= THREAD_CAPACITY);
    }

    #[test]
    fn unwinding_spans_still_pair_up() {
        let _session = session();
        let result = std::panic::catch_unwind(|| {
            let _outer = span("trace_test_panic_outer");
            let _inner = span("trace_test_panic_inner");
            panic!("boom");
        });
        assert!(result.is_err());
        {
            let _after = span("trace_test_panic_after");
        }
        let trace = drain();
        let ours = Trace {
            events: trace
                .events
                .iter()
                .filter(|e| e.name.starts_with("trace_test_panic"))
                .cloned()
                .collect(),
            dropped: 0,
        };
        assert_eq!(ours.events.len(), 6, "all three spans closed");
        check_invariants(&ours);
    }

    #[test]
    fn chrome_json_is_valid_and_carries_schema() {
        let _session = session();
        {
            let _s = span_with("trace_test_json\nname", || {
                vec![("key\twith tab", "value \"quoted\"".to_string())]
            });
        }
        let trace = drain();
        let json = trace.to_chrome_json();
        let doc = JsonValue::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("name").and_then(JsonValue::as_str).is_some());
            let ph = e.get("ph").and_then(JsonValue::as_str).unwrap();
            assert!(ph == "B" || ph == "E", "{ph}");
            assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(e.get("tid").and_then(JsonValue::as_f64).is_some());
        }
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("schema")).and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
    }

    #[test]
    fn empty_session_drains_to_an_empty_valid_document() {
        let _session = session();
        let trace = drain();
        // Concurrent instrumented tests may have contributed events, but a
        // fresh drain right after must at least produce a valid document.
        let json = trace.to_chrome_json();
        assert!(JsonValue::parse(&json).is_ok(), "{json}");
    }
}
