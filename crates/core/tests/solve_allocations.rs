//! An untraced `MvaModel::solve` makes no heap allocation: with probes
//! off, the scalar root keeps its state on the stack from the first
//! evaluation to the packaged solution.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snoop_mva::{MvaModel, SolverOptions};
use snoop_protocol::ModSet;
use snoop_workload::params::{SharingLevel, WorkloadParams};

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

#[test]
fn solve_allocates_nothing_per_iteration() {
    assert!(!snoop_numeric::probe::enabled());
    let model =
        MvaModel::for_protocol(&WorkloadParams::appendix_a(SharingLevel::Five), ModSet::new())
            .unwrap();
    let options = SolverOptions::default();
    for n in [2, 10, 100, 10_000] {
        let before = ALLOCATIONS.with(Cell::get);
        let solution = model.solve(n, &options).unwrap();
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(allocations, 0, "N = {n}: {} evaluations", solution.iterations);
    }
}
