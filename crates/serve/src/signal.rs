//! SIGTERM/SIGINT → one atomic flag, so the daemon's waker thread can
//! notice a termination request and start a graceful drain instead of
//! dying mid-batch.
//!
//! # The unsafe island
//!
//! Installing a handler requires one `signal(2)` FFI call (the symbol
//! comes from the libc `std` already links; no new dependency). The
//! handler body is a single relaxed atomic store — async-signal-safe by
//! construction: no allocation, no locks, no formatting. Nothing else
//! in this crate is `unsafe`, and `lib.rs` scopes the allow to this
//! module.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; polled by the waker thread.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM or SIGINT has been received since [`install`].
pub fn requested() -> bool {
    SIGNALLED.load(Ordering::Relaxed)
}

/// Installs the termination handler for SIGINT (2) and SIGTERM (15).
/// Idempotent; best-effort (a refused installation leaves the default
/// disposition, which still terminates the process).
#[cfg(unix)]
pub fn install() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` with a handler that only performs an atomic
    // store is async-signal-safe; both arguments are valid by
    // construction.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Non-unix fallback: ctrl-c keeps the default disposition (immediate
/// exit); `POST /shutdown` remains the graceful path.
#[cfg(not(unix))]
pub fn install() {}
