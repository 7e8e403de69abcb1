//! One engine run allocates the same amount whatever the size of its
//! machine. Once the process has built a machine, a run borrows its
//! resource table and routes, and copies only the capacities into one
//! buffer, so the 1-rank STREAM run on DMZ (5 resources), Longs (29) and
//! HBM (4) must make exactly as many allocations. Counted with a counting
//! global allocator, so the check is exact and independent of the host's
//! speed.

use corescope_kernels::stream::StreamKernel;
use corescope_sched::{Scenario, System, Workload};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by this thread. Per
    /// thread, so tests running in parallel do not count each other.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Allocations of one warm run of a 1-rank STREAM triad on `system`.
fn warm_run_allocs(system: System) -> usize {
    let scenario = Scenario::new(
        system,
        1,
        Workload::StreamSingle {
            kernel: StreamKernel::Triad,
            elements_per_rank: 1 << 20,
            sweeps: 2,
        },
    );
    // The first run builds the machine into the process-wide memo.
    let cold = scenario.run().unwrap();
    let before = allocs();
    let warm = scenario.run().unwrap();
    let spent = allocs() - before;
    assert_eq!(warm.makespan.to_bits(), cold.makespan.to_bits());
    spent
}

#[test]
fn a_warm_run_allocates_the_same_on_every_machine_size() {
    let machines = [System::Dmz, System::Longs, System::Hbm];
    let resources = machines.map(|system| system.machine().resources().len());
    assert!(resources[0] != resources[1] && resources[0] != resources[2], "{resources:?}");
    let spent = machines.map(warm_run_allocs);
    assert!(
        spent.iter().all(|&n| n == spent[0]),
        "allocations per warm run {spent:?} on machines of {resources:?} resources"
    );
}
