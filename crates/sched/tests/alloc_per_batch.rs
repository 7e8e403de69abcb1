//! A warm batch costs a fixed number of allocations, whatever its size.
//! [`Scheduler::run_batch`] at one job answers a batch of 10³ inputs
//! (five copies each of 200 distinct scenarios) and one of 10⁵ inputs
//! (twenty copies each of 5,000, the shape of the perf ledger's `replay`
//! batch: 20,000 distinct scenarios would not fit the memory tier's
//! 8,192-entry generation, and a batch that evicts is not warm), over a
//! scheduler whose memory tier already holds every scenario. Both must
//! make the same number of allocations, and the larger batch's peak live
//! bytes per input must not exceed the smaller one's. Counted with a
//! counting global allocator, so the bounds are exact and independent of
//! the host's speed.

use corescope_sched::{CacheTier, Scenario, Scheduler, System, Workload};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by this thread, and its
    /// live and peak live bytes. Per thread, so tests running in parallel
    /// do not count each other; a one-job scheduler runs its batches on
    /// the caller's thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Records an allocation that changes this thread's live bytes by `delta`.
fn count(delta: isize) {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    resize(delta);
}

fn resize(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counters touch no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as isize));
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn scenario(k: usize) -> Scenario {
    Scenario::new(
        System::Dmz,
        2,
        Workload::Bsp {
            steps: 2,
            flops_per_step: 1.0e6 * (k + 1) as f64,
            bytes_per_step: 1.0e4,
            sync_bytes: 8.0,
        },
    )
}

/// What a warm batch cost: allocations, and peak live bytes above what
/// was live when it started.
struct Cost {
    allocs: usize,
    peak_bytes: usize,
}

/// Fills a fresh scheduler's memory tier with `distinct` scenarios, then
/// measures one warm batch holding `copies` of each, interleaved.
fn warm_batch(distinct: usize, copies: usize) -> Cost {
    let sched = Scheduler::new(1);
    let unique: Vec<Scenario> = (0..distinct).map(scenario).collect();
    assert!(sched.run_batch(&unique).iter().all(Result::is_ok));
    let batch: Vec<Scenario> =
        (0..distinct * copies).map(|i| unique[i % distinct].clone()).collect();

    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    PEAK.with(|peak| peak.set(live));
    let outcomes = sched.run_batch(&batch);
    let cost = Cost {
        allocs: ALLOCS.with(Cell::get) - allocs,
        peak_bytes: (PEAK.with(Cell::get) - live) as usize,
    };
    assert_eq!(outcomes.len(), batch.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        let tier = outcome.as_ref().expect("a warm input succeeds").tier;
        let want = if i < distinct { CacheTier::Memory } else { CacheTier::InFlight };
        assert_eq!(tier, want, "input {i}");
    }
    assert_eq!(sched.stats().engine_runs, distinct, "the warm batch ran no engine");
    cost
}

#[test]
fn a_warm_batch_allocates_the_same_whatever_its_size() {
    let small = warm_batch(200, 5);
    let large = warm_batch(5_000, 20);
    assert_eq!(
        small.allocs, large.allocs,
        "a warm batch of 10³ inputs made {} allocations, one of 10⁵ made {}",
        small.allocs, large.allocs
    );
    let per_input = |cost: &Cost, n: usize| cost.peak_bytes as f64 / n as f64;
    let (small_bytes, large_bytes) = (per_input(&small, 1_000), per_input(&large, 100_000));
    assert!(
        large_bytes <= small_bytes,
        "peak bytes per input grew from {small_bytes:.1} at 10³ inputs to {large_bytes:.1} at 10⁵"
    );
}
