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
//! 2. **No new crates** — the repo is offline-first, so the executor is
//!    built on a [persistent worker pool](pool) of std threads instead of
//!    rayon. Lifetime erasure inside the pool lets `f` borrow the caller's
//!    state without `'static` gymnastics, and the completion protocol
//!    guarantees no worker touches that state after `par_map` returns.
//! 3. **Amortized dispatch** — workers are spawned once per process
//!    (lazily) and parked between calls, so a `par_map` call costs a queue
//!    push plus condvar wakeups, not a `thread::scope` spawn/join cycle.
//!    Work is claimed in *chunks* from a shared atomic cursor
//!    (self-balancing: a thread that draws slow items simply claims fewer
//!    chunks), four chunks per worker (`max(1, items / (threads * 4))`) so
//!    micro-item callers (sensitivity rows, small GTPN waves) amortize
//!    cursor traffic and per-item dispatch overhead automatically.
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
//! # Nesting
//!
//! `par_map` may be called from inside a `par_map` closure (the engine
//! batch layer does this when a backend parallelizes internally). Nested
//! calls are deadlock-free by construction: the submitting thread is
//! always a full participant in its own job, so a job completes even when
//! every pool worker is busy.
//!
//! # Example
//!
//! ```
//! use snoop_numeric::exec::{par_map, ExecOptions};
//!
//! let squares = par_map(&[1_u64, 2, 3, 4], &ExecOptions::with_threads(2), |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

mod pool;

use std::any::Any;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Configuration for the parallel executor. The default is the auto
/// thread count (see [module docs](self) for the resolution rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Worker-thread count. `0` means auto: `SNOOP_THREADS` when set,
    /// otherwise the machine's available parallelism. `1` runs inline on
    /// the calling thread (no pool dispatch at all).
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

/// Test-only override for [`default_threads`]; `0` means "no override".
static DEFAULT_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Cached once-per-process resolution of the auto thread count.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Resolves the *auto* thread count: `SNOOP_THREADS` if it parses to a
/// positive integer, else [`std::thread::available_parallelism`], else 1.
///
/// The environment and the OS are consulted **once per process**; later
/// calls return the cached value. (Tests that need a different value in
/// the same process use [`set_default_threads_override`].)
pub fn default_threads() -> usize {
    let forced = DEFAULT_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(value) = std::env::var("SNOOP_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Forces [`default_threads`] to return `n` (`0` clears the override and
/// restores the cached per-process resolution). Test-only hook: the cache
/// makes the environment read once-per-process, so tests exercising the
/// resolution rule need a way to vary it after the first call.
#[doc(hidden)]
pub fn set_default_threads_override(n: usize) {
    DEFAULT_THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The machine's available parallelism, ignoring `SNOOP_THREADS`. Bench
/// metadata records this so speedup gates can tell "parallel is broken"
/// apart from "this host cannot run 4 threads at once".
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Results are returned in input order and are identical to the serial
/// `items.iter().map(f).collect()` for any thread count (determinism
/// contract — see [module docs](self)).
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread. Results already
/// produced by other workers when the panic struck are leaked, not
/// dropped (their slots are indistinguishable from uninitialized ones).
pub fn par_map<T, U, F>(items: &[T], options: &ExecOptions, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, options, |item, _| f(item))
}

/// The caller-stack payload a pool job points at. Workers restore the
/// type parameters through the monomorphized [`run_claim_loop`] shim.
struct JobData<'a, T, U, F> {
    items: &'a [T],
    f: &'a F,
    /// Preallocated output region; slot `i` is written by whichever
    /// worker claims index `i` (exactly one does).
    out: *mut MaybeUninit<U>,
    cursor: &'a AtomicUsize,
    chunk: usize,
    poisoned: &'a AtomicBool,
    panic: &'a Mutex<Option<Box<dyn Any + Send>>>,
}

/// The claim loop every participant (submitter and attached workers)
/// runs: grab `chunk` indices from the cursor, map them, write results
/// straight into the output slots. Never unwinds — a panic in `f` is
/// captured into the job's panic slot and poisons the cursor so peers
/// stop claiming.
unsafe fn run_claim_loop<T, U, F>(data: *const ())
where
    T: Sync,
    U: Send,
    F: Fn(&T, usize) -> U + Sync,
{
    let job = unsafe { &*(data as *const JobData<'_, T, U, F>) };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let len = job.items.len();
        loop {
            if job.poisoned.load(Ordering::Relaxed) {
                break;
            }
            let start = job.cursor.fetch_add(job.chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            let end = (start + job.chunk).min(len);
            for i in start..end {
                let value = (job.f)(&job.items[i], i);
                // SAFETY: index `i` is claimed by exactly one participant,
                // and `out` has `len` slots.
                unsafe { (*job.out.add(i)).write(value) };
            }
        }
    }));
    if let Err(payload) = outcome {
        job.poisoned.store(true, Ordering::Relaxed);
        let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Like [`par_map`], but `f` also receives the item's index.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn par_map_indexed<T, U, F>(items: &[T], options: &ExecOptions, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T, usize) -> U + Sync,
{
    let len = items.len();
    let threads = options.resolved_threads().min(len);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(item, i)).collect();
    }
    let chunk = resolved_grain(len, threads);
    // One participant per chunk at most; the submitter takes one share.
    let attachers = threads.min(len.div_ceil(chunk)).saturating_sub(1);
    if attachers == 0 {
        return items.iter().enumerate().map(|(i, item)| f(item, i)).collect();
    }

    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
    // SAFETY: `MaybeUninit` slots require no initialization.
    unsafe { out.set_len(len) };

    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let job_data = JobData {
        items,
        f: &f,
        out: out.as_mut_ptr(),
        cursor: &cursor,
        chunk,
        poisoned: &poisoned,
        panic: &panic_slot,
    };

    let job = Arc::new(pool::JobCore::new(
        (&raw const job_data).cast::<()>(),
        run_claim_loop::<T, U, F>,
    ));
    pool::global().submit(Arc::clone(&job), attachers);
    // The submitter is a full participant — it runs the same claim loop,
    // which is what makes nested calls deadlock-free.
    // SAFETY: `job_data` outlives this call; `detach` below is the
    // borrow-safety boundary for the pool workers.
    unsafe { run_claim_loop::<T, U, F>((&raw const job_data).cast::<()>()) };
    pool::global().detach(&job);

    if let Some(payload) = panic_slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
        // Which slots were initialized is unknowable after a poisoned
        // run; leak them rather than risk dropping uninitialized memory.
        std::mem::forget(out);
        std::panic::resume_unwind(payload);
    }

    // SAFETY: every index in 0..len was claimed exactly once and written
    // (no panic occurred), so all slots are initialized.
    unsafe {
        let ptr = out.as_mut_ptr().cast::<U>();
        let cap = out.capacity();
        std::mem::forget(out);
        Vec::from_raw_parts(ptr, len, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = par_map(&items, &ExecOptions::with_threads(threads), |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn indexed_variant_sees_input_indices() {
        let items = ["a", "b", "c"];
        let out = par_map_indexed(&items, &ExecOptions::with_threads(3), |s, i| {
            format!("{i}:{s}")
        });
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(&[] as &[u32], &ExecOptions::default(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
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
    fn default_threads_is_cached_and_overridable() {
        let baseline = default_threads();
        assert!(baseline >= 1);
        // Same process, same answer: the resolution is cached.
        assert_eq!(default_threads(), baseline);
        set_default_threads_override(13);
        assert_eq!(default_threads(), 13);
        assert_eq!(ExecOptions::default().resolved_threads(), 13);
        set_default_threads_override(0);
        assert_eq!(default_threads(), baseline);
    }

    #[test]
    fn nested_par_map_completes() {
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
        let items: Vec<usize> = (0..16).collect();
        par_map(&items, &ExecOptions::with_threads(4), |&x| {
            assert!(x != 7, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "chunked boom")]
    fn panic_inside_a_chunk_propagates() {
        // 100 items on 4 threads resolve to chunks of 6.
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(resolved_grain(items.len(), 4), 6);
        par_map(&items, &ExecOptions::with_threads(4), |&x| {
            assert!(x != 57, "chunked boom");
            x
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let items: Vec<usize> = (0..32).collect();
        let opts = ExecOptions::with_threads(4);
        let boom = std::panic::catch_unwind(|| {
            par_map(&items, &opts, |&x| {
                assert!(x != 3, "transient");
                x
            })
        });
        assert!(boom.is_err());
        // The pool must keep serving jobs after a poisoned one.
        let out = par_map(&items, &opts, |&x| x + 1);
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }
}
