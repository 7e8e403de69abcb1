//! Chaos rig for the campaign store: every way a campaign process can
//! die or a disk can lie — truncation at any byte, ENOSPC at any write,
//! unwritable roots, leftover manifest temp files, writer-lock
//! contention — must come back as a typed error or a clean recovery,
//! never a panic and never a lost committed row. Every test body runs
//! under a watchdog thread; a wedged store fails the test instead of
//! wedging the suite.

use corescope_store::{frame, fsck, Options, Row, Store, StoreError, MANIFEST};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const TAG: &str = "corescope-engine-chaos";

/// Runs `body` on its own thread and panics if it does not finish within
/// `secs` — the no-hang guarantee, enforced mechanically.
fn watchdog<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(_) => panic!("watchdog: test body still running after {secs}s — store hung"),
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "corescope-store-chaos-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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

/// Deterministic pseudo-random row `j` of stream `seed` (splitmix-style
/// mixing; the chaos suite cannot use a real RNG and stay reproducible).
fn mixed_row(seed: u64, j: u64) -> Row {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(j);
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let systems = ["dmz", "longs", "shc"];
    let workloads = ["bsp", "stream", "alltoall", "dgemm"];
    Row {
        digest: (u128::from(next()) << 64) | u128::from(next()),
        system: systems[(next() % 3) as usize].into(),
        fidelity: if next() % 2 == 0 { "quick" } else { "full" }.into(),
        placement: "scatter-local".into(),
        mpi: "mpich2".into(),
        lock: "sysv".into(),
        workload: workloads[(next() % 4) as usize].into(),
        nranks: (next() % 64 + 1) as u32,
        makespan: (next() % 1_000_000) as f64 * 1.0e-3,
        events: next() % 1_000_000,
        faults_applied: next() % 7,
        checkpoints_taken: next() % 5,
        recoveries: next() % 3,
        retries: next() % 9,
    }
}

/// Frame end offsets of `bytes` (a golden segment), walked with the
/// public codec — the oracle for how many rows survive a given cut.
fn frame_ends(bytes: &[u8]) -> (usize, Vec<(usize, usize)>) {
    let (_, data_start) = frame::parse_segment_header(bytes).expect("golden header");
    let mut ends = Vec::new();
    let mut at = data_start;
    while at < bytes.len() {
        match frame::parse_frame(bytes, at) {
            frame::Parsed::Frame { payload, end } => {
                let rows = frame::decode_block(payload).expect("golden frame").len();
                ends.push((end, rows));
                at = end;
            }
            other => panic!("golden segment has a non-frame at {at}: {other:?}"),
        }
    }
    (data_start, ends)
}

/// Reopens `dir` in writer mode until recovery reports clean. Damage
/// converges in at most three opens (shrink the manifest, then truncate
/// the now-uncommitted tail); anything left after that — a destroyed
/// segment header — needs one `fsck::repair` pass, never more.
fn converge(dir: &Path, context: &str) -> Store {
    for _ in 0..3 {
        let store =
            Store::open(dir, TAG).unwrap_or_else(|e| panic!("{context}: reopen failed: {e}"));
        if store.recovery().is_clean() {
            return store;
        }
    }
    let report = fsck::repair(dir).unwrap_or_else(|e| panic!("{context}: repair failed: {e}"));
    assert!(report.is_clean(), "{context}: unrepairable: {:?}", report.lines());
    let store = Store::open(dir, TAG).unwrap();
    assert!(
        store.recovery().is_clean(),
        "{context}: dirty even after repair ({})",
        store.recovery().summary()
    );
    store
}

/// The satellite guarantee, proven exhaustively: a segment truncated at
/// EVERY possible byte offset reopens without panicking, recovers
/// exactly the rows whose frames lie fully below the cut, and converges
/// back to a clean store the campaign can rerun into.
#[test]
fn truncation_at_every_byte_offset_recovers_the_committed_prefix() {
    watchdog(120, || {
        // Golden store: three flushed frames of three rows each.
        let golden = TempDir::new("trunc-golden");
        let rows: Vec<Row> = (0..9).map(|j| mixed_row(11, j)).collect();
        {
            let mut store = Store::open(golden.path(), TAG).unwrap();
            for chunk in rows.chunks(3) {
                for row in chunk {
                    store.append(row.clone()).unwrap();
                }
                store.flush().unwrap();
            }
        }
        let seg_name = "seg-00000001.css";
        let seg_bytes = std::fs::read(golden.path().join(seg_name)).unwrap();
        let manifest = std::fs::read(golden.path().join(MANIFEST)).unwrap();
        let (data_start, ends) = frame_ends(&seg_bytes);
        assert_eq!(ends.len(), 3, "golden store should hold three frames");

        let scratch = TempDir::new("trunc-scratch");
        for cut in 0..=seg_bytes.len() {
            let dir = scratch.path().join(format!("cut-{cut}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(seg_name), &seg_bytes[..cut]).unwrap();
            std::fs::write(dir.join(MANIFEST), &manifest).unwrap();

            // Rows that must survive: frames wholly below the cut. A cut
            // inside the segment header poisons the whole segment.
            let expected: usize = if cut < data_start {
                0
            } else {
                ends.iter().filter(|(end, _)| *end <= cut).map(|(_, n)| n).sum()
            };

            let store =
                Store::open(&dir, TAG).unwrap_or_else(|e| panic!("cut at {cut}: open failed: {e}"));
            assert_eq!(
                store.rows_committed() as usize,
                expected,
                "cut at {cut}: wrong committed prefix ({})",
                store.recovery().summary()
            );
            let recovered = store.rows().unwrap();
            assert_eq!(recovered.len(), expected, "cut at {cut}");
            for row in &recovered {
                assert!(rows.contains(row), "cut at {cut}: invented row {row:?}");
            }
            if cut < seg_bytes.len() {
                // The loss must be observable: either the report flags
                // damage, or rows are visibly missing (an exact frame-
                // boundary cut scans clean but short).
                assert!(
                    !store.recovery().is_clean() || expected < rows.len(),
                    "cut at {cut}: lost bytes went unreported"
                );
            }
            drop(store);

            // Converge back to a clean store and rerun the lost rows —
            // resume is literally rerun.
            let mut store = converge(&dir, &format!("cut at {cut}"));
            for row in &rows {
                if !store.contains(row.digest) {
                    store.append(row.clone()).unwrap();
                }
            }
            store.flush().unwrap();
            assert_eq!(store.rows().unwrap().len(), rows.len(), "cut at {cut}: rerun incomplete");
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    });
}

/// ENOSPC injected after every possible byte budget: the flush fails
/// with a typed error, and whatever the failure point — mid-frame,
/// before the manifest temp file, between fsync and rename — a reopen
/// converges with no acknowledged row lost and no panic.
#[test]
fn enospc_at_every_write_budget_converges_on_reopen() {
    watchdog(120, || {
        // Size the sweep off a dry run: the second flush writes one
        // frame plus one manifest rewrite; pad to cover both.
        let dry = TempDir::new("enospc-dry");
        let frame_len = {
            let mut store = Store::open(dry.path(), TAG).unwrap();
            for j in 0..3 {
                store.append(mixed_row(23, j)).unwrap();
            }
            store.flush().unwrap();
            std::fs::metadata(dry.path().join("seg-00000001.css")).unwrap().len() as usize
        };
        let scratch = TempDir::new("enospc-scratch");
        for budget in 0..frame_len + 200 {
            let dir = scratch.path().join(format!("budget-{budget}"));
            let mut store = Store::open(&dir, TAG).unwrap();
            for j in 0..3 {
                store.append(mixed_row(29, j)).unwrap();
            }
            store.flush().unwrap();
            store.set_write_budget(Some(budget as u64));
            for j in 3..6 {
                store.append(mixed_row(29, j)).unwrap();
            }
            let failed = match store.flush() {
                Ok(()) => false,
                Err(StoreError::Io { .. }) => true,
                Err(other) => panic!("budget {budget}: expected Io, got {other}"),
            };
            store.set_write_budget(None);
            // In-process retry: a no-op when the frame already landed
            // (only the manifest commit failed), a real rewrite when the
            // frame itself tore. Either way it must not error.
            store.flush().unwrap_or_else(|e| panic!("budget {budget}: retry failed: {e}"));
            drop(store);

            let store = Store::open(&dir, TAG)
                .unwrap_or_else(|e| panic!("budget {budget}: reopen failed: {e}"));
            for j in 0..6 {
                assert!(
                    store.contains(mixed_row(29, j).digest),
                    "budget {budget} (flush {}): lost row {j} ({})",
                    if failed { "failed" } else { "succeeded" },
                    store.recovery().summary()
                );
            }
            drop(store);
            // Convergence: one more open is fully clean.
            let store = Store::open(&dir, TAG).unwrap();
            assert!(store.recovery().is_clean(), "budget {budget}: {}", store.recovery().summary());
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    });
}

/// An unwritable root is a typed `Unwritable`, a manifest that is
/// secretly a directory is a typed error too — neither panics.
#[test]
fn unwritable_roots_and_blocked_manifests_are_typed() {
    watchdog(30, || {
        let tmp = TempDir::new("unwritable");
        let blocker = tmp.path().join("not-a-dir");
        std::fs::write(&blocker, b"i am a file").unwrap();
        match Store::open(&blocker.join("store"), TAG) {
            Err(StoreError::Unwritable { dir, .. }) => {
                assert_eq!(dir, blocker.join("store"));
            }
            other => panic!("expected Unwritable, got {:?}", other.err().map(|e| e.to_string())),
        }

        let dir = tmp.path().join("manifest-blocked");
        drop(Store::open(&dir, TAG).unwrap());
        std::fs::remove_file(dir.join(MANIFEST)).unwrap();
        std::fs::create_dir(dir.join(MANIFEST)).unwrap();
        assert!(
            Store::open(&dir, TAG).is_err(),
            "a directory posing as the manifest must not open"
        );
        assert!(Store::open_reader(&dir).is_err());
    });
}

/// A crash between the manifest temp-file write and its rename leaves a
/// `MANIFEST.tmp.<pid>.<thread>` file behind. Temp names carry the
/// writer's pid and thread, so a later flush writes a temp of its own
/// and never touches the leftover: opens must ignore it and flushes must
/// commit around it. Only `fsck::repair` removes it.
#[test]
fn leftover_manifest_temp_file_is_harmless() {
    watchdog(30, || {
        let tmp = TempDir::new("manifest-tmp");
        {
            let mut store = Store::open(tmp.path(), TAG).unwrap();
            store.append(mixed_row(31, 0)).unwrap();
            store.flush().unwrap();
        }
        std::fs::write(tmp.path().join(ORPHAN_MANIFEST_TMP), b"\xFF\xFE torn manifest rewrite")
            .unwrap();

        let mut store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean(), "{}", store.recovery().summary());
        assert_eq!(store.rows_committed(), 1);
        store.append(mixed_row(31, 1)).unwrap();
        store.flush().unwrap();
        drop(store);

        let store = Store::open(tmp.path(), TAG).unwrap();
        assert_eq!(store.rows_committed(), 2);
        assert!(store.recovery().is_clean());
    });
}

/// A manifest temp file named by a writer that no longer runs: pid and
/// thread as the store's own temp files carry them.
const ORPHAN_MANIFEST_TMP: &str = "MANIFEST.tmp.999999999.7";

/// With the writer lock held no other manifest write can be in flight,
/// so `fsck::repair` removes every leftover manifest temp file, reports
/// each removal, and leaves the committed rows alone.
#[test]
fn repair_removes_orphaned_manifest_temp_files() {
    watchdog(30, || {
        let tmp = TempDir::new("manifest-tmp-repair");
        {
            let mut store = Store::open(tmp.path(), TAG).unwrap();
            store.append(mixed_row(37, 0)).unwrap();
            store.flush().unwrap();
        }
        let second = "MANIFEST.tmp.1.2";
        let bystander = "MANIFEST.tmp";
        for name in [ORPHAN_MANIFEST_TMP, second, bystander] {
            std::fs::write(tmp.path().join(name), b"torn manifest rewrite").unwrap();
        }

        let report = fsck::repair(tmp.path()).unwrap();
        assert!(report.is_clean(), "{:?}", report.lines());
        for name in [ORPHAN_MANIFEST_TMP, second] {
            let action = format!("removed orphaned manifest temp file {name}");
            assert!(report.actions.contains(&action), "{:?}", report.actions);
            assert!(!tmp.path().join(name).exists(), "{name} survived the repair");
        }
        assert_eq!(report.actions.len(), 2, "{:?}", report.actions);
        assert!(tmp.path().join(bystander).exists(), "only pid/thread-named temps are removed");

        let store = Store::open(tmp.path(), TAG).unwrap();
        assert_eq!(store.rows_committed(), 1);
        assert!(store.recovery().is_clean());
    });
}

/// Eight writers hammer one store. The lock admits exactly one at a
/// time (every rejection is a typed `Locked` with an owner), everybody
/// eventually gets in, and the final store holds every row, clean.
#[test]
fn writer_lock_contention_admits_one_at_a_time() {
    watchdog(60, || {
        let tmp = TempDir::new("contention");
        let dir = tmp.path().to_path_buf();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8u64)
            .map(|i| {
                let dir = dir.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rejections = 0u64;
                    barrier.wait();
                    loop {
                        match Store::open(&dir, TAG) {
                            Ok(mut store) => {
                                // Hold the lock long enough that the
                                // barrier-released pack truly collides.
                                std::thread::sleep(Duration::from_millis(3));
                                store.append(mixed_row(41, i)).unwrap();
                                store.flush().unwrap();
                                return rejections;
                            }
                            Err(StoreError::Locked { owner, .. }) => {
                                // The owner is this process — or "" /
                                // "unknown" when the read raced the
                                // holder's pid write or lock release.
                                assert!(
                                    owner == std::process::id().to_string()
                                        || owner.is_empty()
                                        || owner == "unknown",
                                    "unexpected lock owner {owner:?}"
                                );
                                rejections += 1;
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(other) => panic!("writer {i}: unexpected error {other}"),
                        }
                    }
                })
            })
            .collect();
        let rejections: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        // With eight contenders someone must have been turned away at
        // least once, or the lock admitted two writers concurrently.
        assert!(rejections > 0, "no contention observed — lock suspect");

        let store = Store::open(&dir, TAG).unwrap();
        assert!(store.recovery().is_clean(), "{}", store.recovery().summary());
        assert_eq!(store.rows_committed(), 8);
        for i in 0..8 {
            assert!(store.contains(mixed_row(41, i).digest));
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any batch of rows round-trips through append/flush/reopen with
    /// arbitrary flush boundaries across rolled segments, duplicate
    /// digests stay deduped, and the reopened store verifies clean and
    /// contains every digest.
    #[test]
    fn prop_rows_round_trip_across_flush_boundaries(
        seed in 0u64..10_000,
        n in 1usize..24,
        flush_every in 1usize..8,
    ) {
        let tmp = TempDir::new(&format!("prop-rt-{seed}-{n}-{flush_every}"));
        let rows: Vec<Row> = (0..n as u64).map(|j| mixed_row(seed, j)).collect();
        // Tiny roll threshold so most cases span several segments.
        let options = Options { roll_bytes: 160, ..Options::default() };
        let mut store = Store::open_with(tmp.path(), TAG, options).unwrap();
        for (i, row) in rows.iter().enumerate() {
            prop_assert!(store.append(row.clone()).unwrap());
            prop_assert!(!store.append(row.clone()).unwrap(), "duplicate accepted");
            if (i + 1) % flush_every == 0 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        drop(store);

        let store = Store::open(tmp.path(), TAG).unwrap();
        prop_assert!(store.recovery().is_clean());
        for row in &rows {
            prop_assert!(store.contains(row.digest), "reopen lost digest {:x}", row.digest);
        }
        let mut got = store.rows().unwrap();
        let mut want = rows.clone();
        got.sort_by_key(|r| r.digest);
        want.sort_by_key(|r| r.digest);
        prop_assert_eq!(got, want);
        drop(store);
        let report = fsck::verify(tmp.path()).unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.lines());
    }

    /// A store truncated at a sampled offset — including inside the
    /// header and across segment boundaries — opens without panicking,
    /// never invents rows, and the second open is clean.
    #[test]
    fn prop_truncated_stores_recover_a_true_prefix(
        seed in 0u64..10_000,
        n in 2usize..20,
        cut_permille in 0u32..1000,
    ) {
        let tmp = TempDir::new(&format!("prop-cut-{seed}-{n}-{cut_permille}"));
        let rows: Vec<Row> = (0..n as u64).map(|j| mixed_row(seed, j)).collect();
        // Tiny roll threshold so cuts land in every segment position.
        let options = Options { roll_bytes: 160, flush_rows: 2, ..Options::default() };
        let mut store = Store::open_with(tmp.path(), TAG, options).unwrap();
        for row in &rows {
            store.append(row.clone()).unwrap();
        }
        store.flush().unwrap();
        let victim = tmp.path().join(format!("seg-{:08}.css", store.segment_count()));
        drop(store);

        let bytes = std::fs::read(&victim).unwrap();
        let cut = bytes.len() * cut_permille as usize / 1000;
        std::fs::write(&victim, &bytes[..cut]).unwrap();

        let store = Store::open(tmp.path(), TAG).unwrap();
        let digests: std::collections::HashSet<u128> = rows.iter().map(|r| r.digest).collect();
        prop_assert!(store.rows_committed() as usize <= n);
        for row in store.rows().unwrap() {
            prop_assert!(digests.contains(&row.digest), "invented digest {:x}", row.digest);
        }
        drop(store);
        let store = converge(tmp.path(), &format!("seed {seed} cut {cut}"));
        prop_assert!(store.rows_committed() as usize <= n);
    }

    /// Frame codec fuzz: a frame cut anywhere is Truncated, a frame with
    /// any single byte flipped never parses as a valid frame.
    #[test]
    fn prop_frames_never_lie(seed in 0u64..10_000, n in 0usize..9) {
        let rows: Vec<Row> = (0..n as u64).map(|j| mixed_row(seed, j)).collect();
        let framed = frame::frame_bytes(&frame::encode_block(&rows).unwrap());
        let cut = (seed as usize * 31) % framed.len();
        prop_assert!(matches!(frame::parse_frame(&framed[..cut], 0), frame::Parsed::Truncated));
        let mut bad = framed.clone();
        let at = (seed as usize * 17) % framed.len();
        bad[at] ^= 1 << (seed % 8);
        if let frame::Parsed::Frame { payload, .. } = frame::parse_frame(&bad, 0) {
            // The flip landed in the payload and the CRC still matched —
            // impossible for a single-bit flip under CRC-32.
            prop_assert!(false, "flipped bit at {at} yielded a frame ({} bytes)", payload.len());
        }
    }
}
