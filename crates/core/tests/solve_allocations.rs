//! An untraced `MvaModel::solve` makes no heap allocation: with probes
//! off, the scalar root keeps its state on the stack from the first
//! evaluation to the packaged solution. A scenario's content hash is as
//! cheap: on a warm thread it streams into FNV-1a without allocating,
//! and its canonical JSON is one allocation, the string itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use snoop_mva::engine::Scenario;
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

/// Allocations made by the current thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn scenario_keys_allocate_only_the_json_string() {
    let mut custom = Scenario::appendix_a("WO+1+4".parse().unwrap(), SharingLevel::Twenty, 64);
    custom.params.tau = 0.1 + 0.2;
    custom.solver.tolerance = 1e-9;
    let bespoke = Scenario::with_params(ModSet::new(), WorkloadParams::default(), 7);
    for scenario in [custom, bespoke] {
        // Warm the thread's float memo with this scenario's values.
        scenario.content_hash();
        assert_eq!(allocations(|| scenario.content_hash()), 0, "{scenario}");
        assert_eq!(allocations(|| scenario.canonical_json()), 1, "{scenario}");
    }
}
