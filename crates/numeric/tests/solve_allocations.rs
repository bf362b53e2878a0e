//! `FixedPoint::solve` allocates its buffers once per solve, never per
//! iteration: a run of 2000 iterations makes exactly as many heap
//! allocations as a run of 100.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snoop_numeric::fixed_point::{FixedPoint, Options};
use snoop_numeric::NumericError;

/// Counts the allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

#[allow(unsafe_code)]
// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one solve of a 3-component map that drifts by a
/// constant step forever: no convergence, no cycle, no step growth, so
/// every run ends at `max_iterations`.
fn allocations_for(max_iterations: usize) -> usize {
    let solver = FixedPoint::new(Options { max_iterations, tolerance: 0.0, ..Options::default() });
    let initial = vec![0.0, 1.0, 2.0];
    let before = ALLOCATIONS.with(Cell::get);
    let result = solver.solve(initial, |x, out| {
        for (o, v) in out.iter_mut().zip(x) {
            *o = v + 1.0;
        }
    });
    let after = ALLOCATIONS.with(Cell::get);
    match result {
        Err(NumericError::NoConvergence { iterations, .. }) => {
            assert_eq!(iterations, max_iterations);
        }
        other => panic!("expected the budget to run out, got {other:?}"),
    }
    after - before
}

#[test]
fn solve_allocates_nothing_per_iteration() {
    let short = allocations_for(100);
    // 2000 iterations wrap the 512-entry residual trajectory too.
    let long = allocations_for(2000);
    assert_eq!(short, long);
}
