//! A warm disk-cache batch allocates no more per input as it grows.
//! [`Scheduler::run_batch`] at one job answers batches of 10³ and 10⁴
//! distinct scenarios, each on a fresh scheduler over one filled pack, so
//! every input is a disk hit; the allocations per input of the larger
//! batch must not exceed the smaller one's by more than [`MAX_DRIFT`],
//! and must stay under [`MAX_PER_HIT`]: the entry checks decode no row.
//! Counted with a counting global allocator, so the bounds are exact and
//! independent of the host's speed.

use corescope_sched::{
    CacheTier, ResultCache, Scenario, ScenarioResult, Scheduler, System, Workload,
};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::path::Path;

/// The bound on growth: per-input allocations at 10⁴ inputs at most 10%
/// above those at 10³.
const MAX_DRIFT: f64 = 0.10;
/// The bound on the level: a batch of 10⁴ hits allocates fewer than one
/// time per 20 inputs, which only a fixed per-batch cost fits.
const MAX_PER_HIT: f64 = 0.05;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by this thread. Per
    /// thread, so tests running in parallel do not count each other; a
    /// one-job scheduler answers its batches on the caller's thread.
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

/// A stand-in result: the entries need not come from the engine.
fn result(k: usize) -> ScenarioResult {
    ScenarioResult {
        makespan: 1.0 + k as f64,
        events: k,
        faults_applied: 0,
        checkpoints_taken: 0,
        recoveries: 0,
        retries: 0,
    }
}

/// Allocations of one warm `run_batch` over `scenarios` on a fresh
/// one-job scheduler over `root`, checking every input is a disk hit.
fn warm_allocs(root: &Path, scenarios: &[Scenario]) -> usize {
    let sched = Scheduler::with_cache(1, ResultCache::on_disk(root));
    let before = allocs();
    let outcomes = sched.run_batch(scenarios);
    let spent = allocs() - before;
    for (k, outcome) in outcomes.iter().enumerate() {
        let done = outcome.as_ref().unwrap();
        assert_eq!((done.result, done.tier), (result(k), CacheTier::Disk), "input {k}");
    }
    let stats = sched.stats();
    assert_eq!((stats.engine_runs, stats.disk_errors), (0, 0), "{stats:?}");
    spent
}

#[test]
fn warm_disk_hits_allocate_per_batch_not_per_hit() {
    let root = std::env::temp_dir().join(format!("corescope-alloc-per-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (small, large) = (1_000, 10_000);
    let scenarios: Vec<Scenario> = (0..large).map(scenario).collect();
    let writer = ResultCache::on_disk(&root);
    for (k, s) in scenarios.iter().enumerate() {
        writer.put(s.digest(), &result(k));
    }
    drop(writer);

    let per_input = [small, large].map(|n| warm_allocs(&root, &scenarios[..n]) as f64 / n as f64);
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        per_input[1] <= per_input[0] * (1.0 + MAX_DRIFT),
        "{:.4} allocations per input at {small} hits, {:.4} at {large} (bound: within {MAX_DRIFT})",
        per_input[0],
        per_input[1]
    );
    assert!(
        per_input[1] < MAX_PER_HIT,
        "{:.4} allocations per hit at {large} hits (bound {MAX_PER_HIT})",
        per_input[1]
    );
    eprintln!(
        "allocations per warm disk hit: {:.4} at {small}, {:.4} at {large}",
        per_input[0], per_input[1]
    );
}
