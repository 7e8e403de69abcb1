//! The `serve` framing path allocates the same amount per request line
//! whatever the length of the stream. [`Server::serve_io`] answers
//! streams of 10³ and 10⁴ lines that mix distinct scenarios, repeats of
//! them and garbage in one fixed proportion, over a scheduler whose
//! memory tier already holds every scenario; the allocations per line
//! of the longer stream must be within [`MAX_DRIFT`] of the shorter
//! one's. Counted with a counting global allocator, so the bound is
//! exact and independent of the host's speed.

use corescope_sched::{Scenario, Scheduler, ServeConfig, Server, System, Workload};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::Arc;

/// The bound: per-line allocations at 10⁴ lines within 10% of those at
/// 10³ lines.
const MAX_DRIFT: f64 = 0.10;
/// Distinct scenarios in the mix; every other scenario line repeats one.
const DISTINCT: usize = 8;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by this thread. Per
    /// thread, so tests running in parallel do not count each other; a
    /// one-job scheduler runs its batches on the caller's thread.
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

/// `n` request lines: three scenario lines to one garbage line, the
/// garbage cycling through broken JSON, a truncated array and a JSON
/// object that is not a scenario.
fn stream(n: usize) -> Vec<u8> {
    const GARBAGE: [&str; 3] = ["}{ not json", "[1,2,3", "{\"system\":\"nope\"}"];
    let requests: Vec<String> = (0..DISTINCT).map(|k| scenario(k).to_json()).collect();
    let mut out = Vec::new();
    for i in 0..n {
        let line = match i % 4 {
            3 => GARBAGE[(i / 4) % GARBAGE.len()],
            _ => &requests[i % DISTINCT],
        };
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Allocations of one `serve_io` call over `n` lines, and its replies.
fn serve_allocs(server: &Server, n: usize) -> (usize, Vec<u8>) {
    let input = std::io::Cursor::new(stream(n));
    let mut out = Vec::new();
    let before = allocs();
    server.serve_io(input, &mut out, "alloc").unwrap();
    (allocs() - before, out)
}

#[test]
fn serve_framing_allocates_per_line_not_per_stream() {
    let sched = Arc::new(Scheduler::new(1));
    let scenarios: Vec<Scenario> = (0..DISTINCT).map(scenario).collect();
    assert!(sched.run_batch(&scenarios).iter().all(Result::is_ok));
    let server = Server::new(Arc::clone(&sched), ServeConfig::default());
    // Warm the server's own maps before counting.
    serve_allocs(&server, 100);

    let (small, large) = (1_000, 10_000);
    let per_line = [small, large].map(|n| {
        let (spent, out) = serve_allocs(&server, n);
        let replies = out.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        assert_eq!(replies, n, "one reply per request line");
        spent as f64 / n as f64
    });
    let drift = (per_line[1] - per_line[0]).abs() / per_line[0];
    assert!(
        drift <= MAX_DRIFT,
        "{:.2} allocations per line at {small} lines, {:.2} at {large}: drift {drift:.3} \
         (bound {MAX_DRIFT})",
        per_line[0],
        per_line[1]
    );
    assert_eq!(sched.stats().engine_runs, DISTINCT, "every scenario line is a cache hit");
}
