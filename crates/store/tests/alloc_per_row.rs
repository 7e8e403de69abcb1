//! The campaign scan path allocates per block and per group, not per
//! row. `Store::open_reader` + `Store::rows` + `group_rows` run over
//! stores of 10³ and 10⁴ rows that share one axis dictionary; going from
//! the first to the second may cost under [`MAX_ALLOCS_PER_ROW`] per
//! added row, and so may the larger scan as a whole. Counted with a
//! counting global allocator, so the bound is exact and independent of
//! the host's speed.

use corescope_harness::aggregate::group_rows;
use corescope_store::{Options, Row, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The bound: at most one allocation per twenty rows.
const MAX_ALLOCS_PER_ROW: f64 = 0.05;
/// Rows per committed frame: one campaign batch.
const BATCH: usize = 1_000;

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

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("corescope-alloc-per-row-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes `n` rows with one shared set of axis strings and four world
/// sizes (four groups), one frame per [`BATCH`] rows.
fn write_store(dir: &Path, n: usize) {
    let options = Options { flush_rows: BATCH, ..Options::default() };
    let mut store = Store::open_with(dir, "corescope-engine-alloc", options).unwrap();
    let base = Row {
        system: "dmz".into(),
        fidelity: "quick".into(),
        placement: "scatter-local".into(),
        mpi: "mpich2".into(),
        lock: "sysv".into(),
        workload: "bsp".into(),
        ..Row::default()
    };
    for i in 0..n as u64 {
        let row = Row {
            digest: u128::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835),
            nranks: 2 << (i % 4),
            makespan: (i % 97) as f64 * 0.25,
            events: i,
            ..base.clone()
        };
        assert!(store.append(row).unwrap());
    }
    store.flush().unwrap();
}

/// Allocations of one scan: open, read every row, group.
fn scan_allocs(dir: &Path, n: usize) -> usize {
    let before = allocs();
    let store = Store::open_reader(dir).unwrap();
    let rows = store.rows().unwrap();
    let groups = group_rows(&rows);
    let spent = allocs() - before;
    assert_eq!(rows.len(), n);
    assert_eq!(groups.len(), 4);
    assert_eq!(groups.iter().map(|g| g.count).sum::<usize>(), n);
    spent
}

#[test]
fn scan_and_group_by_allocate_per_block_not_per_row() {
    let (small, large) = (1_000, 10_000);
    let spent = [small, large].map(|n| {
        let tmp = TempDir::new(&n.to_string());
        write_store(tmp.path(), n);
        scan_allocs(tmp.path(), n)
    });
    let marginal = (spent[1] as f64 - spent[0] as f64) / (large - small) as f64;
    let whole = spent[1] as f64 / large as f64;
    assert!(
        marginal < MAX_ALLOCS_PER_ROW && whole < MAX_ALLOCS_PER_ROW,
        "allocations {spent:?} for {small} and {large} rows: {marginal:.4} per added row, \
         {whole:.4} per row (bound {MAX_ALLOCS_PER_ROW})"
    );
}
