//! A dependency-free parallel evaluation engine.
//!
//! The evaluation layer of this suite is dominated by *embarrassingly
//! parallel* loops over independent work items: the (protocol × sharing)
//! series of a speedup sweep, the per-parameter perturbations of a
//! sensitivity analysis, the independent replications of the discrete-event
//! simulator, and the frontier of a GTPN reachability wave. This module
//! provides the one executor they all share.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — the output of [`par_map`] is *bit-identical* to the
//!    serial `items.iter().map(f).collect()` for any thread count, because
//!    each result is written to the slot of its input index and `f` itself
//!    must be a pure function of its item. Thread count and chunking
//!    change wall-clock time, never results.
//! 2. **No new crates, no `unsafe`** — the repo is offline-first, so the
//!    executor runs on [`std::thread::scope`] instead of rayon: `f` borrows
//!    the caller's state, and every helper thread is joined before
//!    `par_map` returns.
//! 3. **Chunked claiming** — work is claimed in *chunks* from a shared
//!    atomic cursor (self-balancing: a thread that draws slow items simply
//!    claims fewer chunks), four chunks per participant
//!    (`max(1, items / (threads * 4))`) so micro-item callers (small engine
//!    batches, small GTPN waves) amortize cursor traffic automatically.
//!
//! # Thread-count resolution
//!
//! [`ExecOptions::threads`] of `0` means *auto*: the `SNOOP_THREADS`
//! environment variable when set to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. The resolution runs **once per
//! process** (cached in a `OnceLock`) — re-reading the environment on
//! every call measurably taxed micro-batches. This gives CI a one-knob way
//! to pin the whole suite to 1 or 4 threads without plumbing a flag through
//! every binary.
//!
//! # Nesting and the helper ceiling
//!
//! `par_map` may be called from inside a `par_map` closure (the engine
//! batch layer does this when a backend parallelizes internally). Each
//! call spawns its own helpers and the caller always runs the claim loop
//! itself, so nested calls cannot deadlock. Helpers are counted
//! process-wide and at most 256 are live at once: a call that finds no
//! headroom does its work on the calling thread alone, so deep nesting or
//! many concurrent callers cannot start threads without bound.
//!
//! # Example
//!
//! ```
//! use snoop_numeric::exec::{par_map, ExecOptions};
//!
//! let squares = par_map(&[1_u64, 2, 3, 4], &ExecOptions::with_threads(2), |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Configuration for the parallel executor. The default is the auto
/// thread count (see [module docs](self) for the resolution rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Participant count (the caller plus helper threads). `0` means
    /// auto: `SNOOP_THREADS` when set, otherwise the machine's available
    /// parallelism. `1` runs inline on the calling thread (no helpers).
    pub threads: usize,
}

impl ExecOptions {
    /// Run everything inline on the calling thread.
    pub const SERIAL: ExecOptions = ExecOptions { threads: 1 };

    /// An explicit thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions { threads }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            default_threads()
        }
    }
}

/// The chunk size used for `items` work items on `threads` workers:
/// `max(1, items / (threads * 4))` — four chunks per worker balances load
/// against cursor contention, and larger chunks amortize dispatch for
/// micro-items.
fn resolved_grain(items: usize, threads: usize) -> usize {
    (items / (threads.max(1) * 4)).max(1)
}

/// Resolves the *auto* thread count: `SNOOP_THREADS` if it parses to a
/// positive integer, else [`std::thread::available_parallelism`], else 1.
/// The environment and the OS are consulted once per process.
fn default_threads() -> usize {
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(value) = std::env::var("SNOOP_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        hardware_parallelism()
    })
}

/// The machine's available parallelism, ignoring `SNOOP_THREADS`. Bench
/// metadata records this so speedup gates can tell "parallel is broken"
/// apart from "this host cannot run 4 threads at once".
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Process-wide ceiling on live helper threads, summed over every
/// concurrent and nested `par_map` call.
const MAX_HELPERS: usize = 256;

/// Helper threads currently reserved by running `par_map` calls.
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// A reservation of helper threads against [`MAX_HELPERS`], released on
/// drop.
struct Helpers(usize);

impl Helpers {
    /// Reserves up to `wanted` helpers: fewer, possibly none, when the
    /// ceiling is near.
    fn reserve(wanted: usize) -> Helpers {
        let grant = |live: usize| wanted.min(MAX_HELPERS.saturating_sub(live));
        let previous = LIVE_HELPERS
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| Some(live + grant(live)))
            .unwrap_or_else(|live| live);
        Helpers(grant(previous))
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        LIVE_HELPERS.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// The state every participant of one `par_map` call shares.
struct Job<'a, T, F> {
    items: &'a [T],
    f: &'a F,
    chunk: usize,
    cursor: AtomicUsize,
    poisoned: AtomicBool,
    /// The first panic payload raised by `f`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, F> Job<'_, T, F> {
    /// The claim loop every participant (caller and helpers) runs: grab
    /// `chunk` indices from the cursor and map them. Returns the mapped
    /// chunks as `(first index, results)`. Never unwinds — a panic in `f`
    /// is recorded and poisons the cursor so peers stop claiming.
    fn claim<U>(&self) -> Vec<(usize, Vec<U>)>
    where
        F: Fn(&T) -> U,
    {
        let mut done = Vec::new();
        let len = self.items.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            while !self.poisoned.load(Ordering::Relaxed) {
                let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + self.chunk).min(len);
                done.push((start, self.items[start..end].iter().map(self.f).collect()));
            }
        }));
        if let Err(payload) = outcome {
            self.record_panic(payload);
        }
        done
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.poisoned.store(true, Ordering::Relaxed);
        self.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
    }
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Results are returned in input order and are identical to the serial
/// `items.iter().map(f).collect()` for any thread count (determinism
/// contract — see [module docs](self)).
///
/// # Panics
///
/// Re-raises the first panic from `f` on the calling thread, after every
/// helper has stopped.
pub fn par_map<T, U, F>(items: &[T], options: &ExecOptions, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let len = items.len();
    let threads = options.resolved_threads().min(len);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = resolved_grain(len, threads);
    // One participant per chunk at most; the caller is always one of them.
    let helpers = Helpers::reserve(threads.min(len.div_ceil(chunk)) - 1);
    if helpers.0 == 0 {
        return items.iter().map(f).collect();
    }

    let job = Job {
        items,
        f: &f,
        chunk,
        cursor: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    // Helpers open their spans under the caller's span path.
    let span_path = crate::probe::span_path();
    let mut chunks = std::thread::scope(|scope| {
        // A failed spawn is absorbed: the participants that did start
        // claim its share.
        let spawned: Vec<_> = (0..helpers.0)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .name("snoop-exec".into())
                    .spawn_scoped(scope, || {
                        let _path = crate::probe::adopt_span_path(&span_path);
                        job.claim()
                    })
                    .ok()
            })
            .collect();
        let mut chunks = job.claim();
        // Explicit joins wait until each helper has exited, thread-local
        // destructors included, so a helper is gone before its
        // reservation is released.
        for handle in spawned {
            match handle.join() {
                Ok(theirs) => chunks.extend(theirs),
                Err(payload) => job.record_panic(payload),
            }
        }
        chunks
    });
    drop(helpers);

    if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, results) in chunks {
        out.extend(results);
    }
    out
}

/// Serializes the unit tests in this crate that start helper threads,
/// so the tests that read [`LIVE_HELPERS`] see only their own helpers.
#[cfg(test)]
pub(crate) fn helper_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let _lock = helper_test_lock();
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = par_map(&items, &ExecOptions::with_threads(threads), |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(&[] as &[u32], &ExecOptions::default(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let _lock = helper_test_lock();
        let out = par_map(&[1, 2], &ExecOptions::with_threads(64), |&x: &i32| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn single_item_runs_on_the_caller() {
        for threads in [1, 2, 3, 8] {
            let out = par_map(&[41], &ExecOptions::with_threads(threads), |&x: &i32| x + 1);
            assert_eq!(out, vec![42], "{threads} threads");
        }
    }

    #[test]
    fn serial_option_matches_parallel_bitwise() {
        let _lock = helper_test_lock();
        // Floating-point results must be bit-identical across thread
        // counts: each slot runs the same operations on the same item.
        let items: Vec<f64> = (1..50).map(|i| f64::from(i) * 0.37).collect();
        let f = |x: &f64| (x.sin() * x.exp()).sqrt();
        let serial = par_map(&items, &ExecOptions::SERIAL, f);
        for threads in [2, 3, 8] {
            let parallel = par_map(&items, &ExecOptions::with_threads(threads), f);
            let same = serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{threads} threads diverged");
        }
    }

    #[test]
    fn explicit_grain_matches_serial_bitwise() {
        let _lock = helper_test_lock();
        // Item counts × thread counts that resolve to grain 1 and to
        // grains above 1 that divide the input unevenly.
        let f = |x: &f64| (x.cos() + x.ln()).tan();
        let (mut unit, mut uneven) = (false, false);
        for len in [5, 40, 97, 1000] {
            let items: Vec<f64> = (1..=len).map(|i| f64::from(i) * 0.73).collect();
            let serial = par_map(&items, &ExecOptions::SERIAL, f);
            for threads in [2, 3, 8] {
                let grain = resolved_grain(items.len(), threads);
                unit |= grain == 1;
                uneven |= grain > 1 && !items.len().is_multiple_of(grain);
                let parallel = par_map(&items, &ExecOptions::with_threads(threads), f);
                let same = serial
                    .iter()
                    .zip(&parallel)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{len} items, grain {grain}, {threads} threads diverged");
            }
        }
        assert!(unit && uneven, "grain 1 covered: {unit}, uneven grain covered: {uneven}");
    }

    #[test]
    fn auto_grain_heuristic() {
        assert_eq!(resolved_grain(1000, 4), 62); // 1000 / 16
        assert_eq!(resolved_grain(9, 4), 1); // floors at 1
        assert_eq!(resolved_grain(0, 4), 1);
    }

    #[test]
    fn borrows_caller_state() {
        let _lock = helper_test_lock();
        let offset = 10;
        let out = par_map(&[1, 2, 3], &ExecOptions::with_threads(2), |&x: &i32| x + offset);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn auto_resolves_to_positive() {
        assert!(ExecOptions::default().resolved_threads() >= 1);
        assert_eq!(ExecOptions::with_threads(7).resolved_threads(), 7);
    }

    #[test]
    fn default_threads_is_cached() {
        let baseline = default_threads();
        assert!(baseline >= 1);
        // Same process, same answer: the resolution is cached.
        assert_eq!(default_threads(), baseline);
        assert_eq!(ExecOptions::default().resolved_threads(), baseline);
    }

    #[test]
    fn nested_par_map_completes() {
        let _lock = helper_test_lock();
        let outer: Vec<usize> = (0..8).collect();
        let expected: Vec<usize> = outer.iter().map(|&x| x * 10 + 45).collect();
        let opts = ExecOptions::with_threads(4);
        let out = par_map(&outer, &opts, |&x| {
            let inner: Vec<usize> = (0..10).collect();
            let partial = par_map(&inner, &opts, |&y| y);
            x * 10 + partial.iter().sum::<usize>()
        });
        assert_eq!(out, expected);
    }

    #[test]
    fn non_copy_results_are_moved_intact() {
        let _lock = helper_test_lock();
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(&items, &ExecOptions::with_threads(4), |&x| vec![x; x % 5]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
            assert!(v.iter().all(|&e| e == i));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _lock = helper_test_lock();
        let items: Vec<usize> = (0..16).collect();
        par_map(&items, &ExecOptions::with_threads(4), |&x| {
            assert!(x != 7, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "chunked boom")]
    fn panic_inside_a_chunk_propagates() {
        let _lock = helper_test_lock();
        // 100 items on 4 threads resolve to chunks of 6.
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(resolved_grain(items.len(), 4), 6);
        par_map(&items, &ExecOptions::with_threads(4), |&x| {
            assert!(x != 57, "chunked boom");
            x
        });
    }

    #[test]
    fn executor_serves_calls_after_a_panicked_call() {
        let _lock = helper_test_lock();
        let items: Vec<usize> = (0..32).collect();
        let opts = ExecOptions::with_threads(4);
        let boom = std::panic::catch_unwind(|| {
            par_map(&items, &opts, |&x| {
                assert!(x != 3, "transient");
                x
            })
        });
        assert!(boom.is_err());
        // A poisoned call leaves nothing behind that breaks the next one.
        let out = par_map(&items, &opts, |&x| x + 1);
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    /// Runs an outer 4-thread `par_map` over 8 items whose closure runs an
    /// inner 4-thread `par_map` over 8 items, calling `observe` from every
    /// inner item.
    fn nested_4x4(observe: &(dyn Fn() + Sync)) -> Vec<usize> {
        let opts = ExecOptions::with_threads(4);
        let items: Vec<usize> = (0..8).collect();
        par_map(&items, &opts, |&x| {
            let inner = par_map(&items, &opts, |&y| {
                observe();
                y
            });
            x * 100 + inner.iter().sum::<usize>()
        })
    }

    #[test]
    fn live_helper_count_returns_to_zero() {
        let _lock = helper_test_lock();
        let live = || LIVE_HELPERS.load(Ordering::SeqCst);
        assert_eq!(live(), 0);

        let items: Vec<usize> = (0..64).collect();
        let opts = ExecOptions::with_threads(4);
        assert_eq!(par_map(&items, &opts, |&x| x + 1), (1..=64).collect::<Vec<_>>());
        assert_eq!(live(), 0, "after a normal call");

        let boom = catch_unwind(|| {
            par_map(&items, &opts, |&x| {
                assert!(x != 40, "transient");
                x
            })
        });
        assert!(boom.is_err());
        assert_eq!(live(), 0, "after a panicking call");

        let peak = AtomicUsize::new(0);
        let out = nested_4x4(&|| {
            peak.fetch_max(live(), Ordering::SeqCst);
        });
        assert_eq!(out, (0..8).map(|x| x * 100 + 28).collect::<Vec<_>>());
        assert!(peak.load(Ordering::SeqCst) <= 3 + 4 * 3, "4x4 nesting reserves at most 15");
        assert_eq!(live(), 0, "after a nested call");
    }

    #[test]
    fn nested_calls_stay_under_the_helper_ceiling() {
        let _lock = helper_test_lock();
        // Take all but two helpers of the ceiling without starting any
        // thread, so the nested call meets the ceiling at small counts.
        let held = Helpers::reserve(MAX_HELPERS - 2);
        assert_eq!(held.0, MAX_HELPERS - 2);
        assert_eq!(Helpers::reserve(MAX_HELPERS).0, 2, "only the remainder is granted");

        let running = AtomicUsize::new(0);
        let (peak_running, peak_live) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let out = nested_4x4(&|| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak_running.fetch_max(now, Ordering::SeqCst);
            peak_live.fetch_max(LIVE_HELPERS.load(Ordering::SeqCst), Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(out, (0..8).map(|x| x * 100 + 28).collect::<Vec<_>>());
        // The caller plus the two helpers left under the ceiling.
        assert!(peak_running.load(Ordering::SeqCst) <= 3, "{peak_running:?}");
        assert!(peak_live.load(Ordering::SeqCst) <= MAX_HELPERS, "{peak_live:?}");
        drop(held);
        assert_eq!(LIVE_HELPERS.load(Ordering::SeqCst), 0);
    }
}
