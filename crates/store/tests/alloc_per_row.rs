//! The campaign scan path allocates per block and per group, not per
//! row. `Store::open_reader` + `Store::rows` + `group_rows` run over
//! stores of 10³ and 10⁴ rows that share one axis dictionary; going from
//! the first to the second may cost under [`MAX_ALLOCS_PER_ROW`] per
//! added row, and so may the larger scan as a whole. Counted with a
//! counting global allocator, so the bound is exact and independent of
//! the host's speed.
//!
//! The same allocator tracks the bytes live on each thread and their
//! peak, so the bytes a scan holds are measured too: they must not grow
//! with the segment, only with the largest frame, and the rows a scan
//! returns must not grow with how often a digest repeats.

use corescope_harness::aggregate::group_rows;
use corescope_store::frame::{self, SCAN_CHUNK};
use corescope_store::{fsck, Options, Row, Store};
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
    /// Bytes this thread allocated and has not freed (negative when it
    /// frees what another thread allocated), and the most of them since
    /// [`reset_peak`].
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts an allocation that changes this thread's live bytes by `bytes`.
fn count(bytes: isize) {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    held(bytes);
}

fn held(bytes: isize) {
    if let Ok(live) = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        live.get()
    }) {
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live)));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters touch no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        held(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Starts a new peak at the bytes live now, and returns them.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The most bytes held at once since [`reset_peak`] returned `base`,
/// above `base`.
fn peak_since(base: isize) -> usize {
    (PEAK.with(Cell::get) - base) as usize
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

/// Engine tag of the bytes-held stores.
const HELD_TAG: &str = "corescope-engine-held";

/// One segment of `n` copies of `framed`, a frame of [`BATCH`] rows, and
/// a manifest that commits all of it.
fn write_repeated(dir: &Path, framed: &[u8], n: usize) {
    std::fs::create_dir_all(dir).unwrap();
    let mut segment = frame::segment_header(HELD_TAG);
    for _ in 0..n {
        segment.extend_from_slice(framed);
    }
    std::fs::write(dir.join("seg-00000001.css"), &segment).unwrap();
    let manifest = format!(
        "corescope-store v1\ntag {HELD_TAG}\nsegment seg-00000001.css {} {}\n",
        segment.len(),
        n * BATCH
    );
    std::fs::write(dir.join("MANIFEST"), manifest).unwrap();
}

/// The peak bytes a reader open plus `fsck::verify` holds, the peak
/// `Store::rows` holds beyond the rows it returns, and its whole peak.
fn bytes_held(dir: &Path) -> (usize, usize, usize) {
    let base = reset_peak();
    let store = Store::open_reader(dir).unwrap();
    let report = fsck::verify(dir).unwrap();
    let verify = peak_since(base);
    assert!(report.is_clean(), "{:?}", report.lines());
    assert_eq!(report.distinct, BATCH);

    let base = reset_peak();
    let rows = store.rows().unwrap();
    let returned = rows.capacity() * std::mem::size_of::<Row>();
    let whole = peak_since(base);
    assert_eq!(rows.len(), BATCH);
    (verify, whole.saturating_sub(returned), whole)
}

#[test]
fn bytes_held_by_a_scan_do_not_grow_with_the_segment() {
    let rows: Vec<Row> = (0..BATCH as u64)
        .map(|i| Row {
            digest: u128::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835),
            system: "dmz".into(),
            workload: "bsp".into(),
            nranks: 4,
            makespan: i as f64,
            events: i,
            ..Row::default()
        })
        .collect();
    let framed = frame::frame_bytes(&frame::encode_block(&rows).unwrap());
    let held = [4, 64].map(|n| {
        let tmp = TempDir::new(&format!("held-{n}"));
        write_repeated(tmp.path(), &framed, n);
        bytes_held(tmp.path())
    });
    let bound = SCAN_CHUNK + framed.len();
    let grew = |held: [usize; 2]| held[1] as isize - held[0] as isize;
    let (verify, scan, whole) =
        (grew(held.map(|h| h.0)), grew(held.map(|h| h.1)), grew(held.map(|h| h.2)));
    assert!(
        verify < bound as isize && scan < bound as isize && whole < bound as isize,
        "bytes held for 4 and 64 frames of {} bytes: open + verify {} and {}, rows {} and {} \
         less its output, {} and {} with it (growth bound {bound})",
        framed.len(),
        held[0].0,
        held[1].0,
        held[0].1,
        held[1].1,
        held[0].2,
        held[1].2
    );
}
