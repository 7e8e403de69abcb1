//! # corescope-store
//!
//! A crash-safe, columnar, on-disk campaign store: the durable side of
//! million-scenario sweeps. The scheduler appends one [`Row`] per
//! completed scenario; rows are batched into CRC-framed columnar blocks
//! inside append-only segment files, and a manifest journal committed
//! by atomic rename records exactly how many bytes of each segment are
//! durable.
//!
//! The design center is *kill-anywhere resume*: a campaign process may
//! die at any byte — mid-frame, between the data fsync and the manifest
//! rename, mid-compaction — and [`Store::open`] brings the directory
//! back to a consistent state (torn tails truncated, completed-but-
//! uncommitted frames adopted, interior corruption reported with typed
//! offsets) while a resumed campaign skips every committed scenario
//! digest. Because the engine is deterministic and rows are keyed by
//! the scenario content hash, resume is literally rerun.
//!
//! Self-contained on purpose: no dependencies beyond std, hand-rolled
//! CRC-32 framing, and a line-based manifest — the store must be
//! readable in ten years with a hex editor.
//!
//! ```
//! use corescope_store::{Row, Store};
//! let dir = std::env::temp_dir().join(format!("doc-store-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = Store::open(&dir, "engine-doc").unwrap();
//! store.append(Row { digest: 7, makespan: 1.25, ..Row::default() }).unwrap();
//! store.flush().unwrap();
//! drop(store);
//! let reopened = Store::open(&dir, "engine-doc").unwrap();
//! assert!(reopened.contains(7));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod digest_hash;
pub mod frame;
pub mod fsck;
pub mod lockfile;
mod store;

pub use digest_hash::{DigestMap, DigestSet, DigestState};
pub use fsck::{CompactReport, FsckReport};
pub use store::{Options, RecoveryReport, Store, MANIFEST, QUARANTINE, WRITER_LOCK};

use std::path::PathBuf;
use std::sync::Arc;

/// One committed scenario outcome — the store's unit of content.
///
/// The digest is the scenario's canonical content hash (everything that
/// feeds the engine run), the six axis strings are the stable lowercase
/// keys the scenario IR already defines, and the scalars are the
/// engine's result counters. Encoded column-major per block; see
/// [`frame`]. The axis strings are shared: every row decoded from one
/// block points at that block's dictionary entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Scenario content hash (`Scenario::digest()` upstream).
    pub digest: u128,
    /// Machine key, e.g. `dmz`.
    pub system: Arc<str>,
    /// Fidelity key, `quick` or `full`.
    pub fidelity: Arc<str>,
    /// Placement scheme key, e.g. `scheme-a` or `scatter-local`.
    pub placement: Arc<str>,
    /// MPI implementation key, e.g. `mpich2`.
    pub mpi: Arc<str>,
    /// Lock layer key, e.g. `sysv`.
    pub lock: Arc<str>,
    /// Workload kind, e.g. `bsp` or `stream`.
    pub workload: Arc<str>,
    /// World size.
    pub nranks: u32,
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Engine events processed.
    pub events: u64,
    /// Faults injected by the fault plan.
    pub faults_applied: u64,
    /// Checkpoints taken by the recovery policy.
    pub checkpoints_taken: u64,
    /// Restarts performed.
    pub recoveries: u64,
    /// Transport retries performed.
    pub retries: u64,
}

/// A torn append: bytes past the last valid frame of a segment.
#[derive(Debug, Clone)]
pub struct Torn {
    /// Segment file name.
    pub segment: String,
    /// Byte offset the tear starts at.
    pub offset: u64,
    /// Bytes dropped (writer mode truncates them away).
    pub dropped: u64,
}

/// A damaged frame inside a committed region — a flipped bit, not a
/// crash artifact.
#[derive(Debug, Clone)]
pub struct Corruption {
    /// Segment file name.
    pub segment: String,
    /// Byte offset of the damaged frame.
    pub offset: u64,
    /// What the reader saw.
    pub reason: String,
}

/// Every way the store can fail, each with enough context to act on.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The store directory cannot be written (read-only mount, missing
    /// permissions, a read-only handle asked to append, no segment id left).
    Unwritable {
        /// The store root.
        dir: PathBuf,
        /// Why.
        reason: String,
    },
    /// Another live writer holds the store.
    Locked {
        /// The store root.
        dir: PathBuf,
        /// Contents of the lock file (the owner's pid).
        owner: String,
    },
    /// A damaged frame at a known place.
    Corrupt {
        /// Segment file name.
        segment: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// The manifest references a segment that is not on disk.
    MissingSegment {
        /// Segment file name.
        segment: String,
    },
    /// The store was written under a different engine tag; its rows
    /// would alias scenarios from a different simulation.
    EngineMismatch {
        /// Tag found in the store.
        found: String,
        /// Tag the caller expected.
        expected: String,
    },
    /// The manifest itself is missing or damaged.
    Manifest {
        /// Manifest path.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store io error at {}: {source}", path.display())
            }
            StoreError::Unwritable { dir, reason } => {
                write!(f, "store directory {} is unwritable: {reason}", dir.display())
            }
            StoreError::Locked { dir, owner } => {
                write!(f, "store {} is locked by another writer (pid {owner})", dir.display())
            }
            StoreError::Corrupt { segment, offset, reason } => {
                write!(f, "corrupt frame in {segment} at offset {offset}: {reason}")
            }
            StoreError::MissingSegment { segment } => {
                write!(
                    f,
                    "segment {segment} is listed in the manifest but missing on disk \
                     (run store_fsck --repair)"
                )
            }
            StoreError::EngineMismatch { found, expected } => {
                write!(f, "store engine tag mismatch: found {found:?}, expected {expected:?}")
            }
            StoreError::Manifest { path, reason } => {
                write!(f, "bad manifest at {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const TAG: &str = "corescope-engine-test";

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("corescope-store-{label}-{}", std::process::id()));
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

    fn row(i: u64) -> Row {
        Row {
            digest: u128::from(i) * 0x9E37_79B9_7F4A_7C15,
            system: "dmz".into(),
            fidelity: "quick".into(),
            placement: "scatter-local".into(),
            mpi: "mpich2".into(),
            lock: "sysv".into(),
            workload: "bsp".into(),
            nranks: 4,
            makespan: i as f64 * 0.5,
            events: i,
            faults_applied: 0,
            checkpoints_taken: 0,
            recoveries: 0,
            retries: 0,
        }
    }

    #[test]
    fn append_flush_reopen_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..10 {
            assert!(store.append(row(i)).unwrap());
        }
        // Duplicate digests are skipped without touching disk.
        assert!(!store.append(row(3)).unwrap());
        store.flush().unwrap();
        drop(store);

        let store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean());
        assert_eq!(store.rows_committed(), 10);
        let mut rows = store.rows().unwrap();
        rows.sort_by_key(|r| r.events);
        assert_eq!(rows, (0..10).map(row).collect::<Vec<_>>());
    }

    #[test]
    fn resume_skips_committed_digests() {
        let tmp = TempDir::new("resume");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..5 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        drop(store);

        let mut store = Store::open(tmp.path(), TAG).unwrap();
        let pending: Vec<u64> = (0..8).filter(|&i| !store.contains(row(i).digest)).collect();
        assert_eq!(pending, vec![5, 6, 7]);
        for i in pending {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.rows().unwrap().len(), 8);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let tmp = TempDir::new("torn");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..4 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        store.simulate_torn_append(&[0xCB; 37]).unwrap();
        drop(store);

        let store = Store::open(tmp.path(), TAG).unwrap();
        assert_eq!(store.recovery().torn.len(), 1);
        assert_eq!(store.recovery().torn[0].dropped, 37);
        assert_eq!(store.rows_committed(), 4);
        drop(store);
        // Second open is clean: the truncation was physical.
        let store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
    }

    #[test]
    fn uncommitted_valid_frames_are_adopted() {
        let tmp = TempDir::new("adopt");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        store.append(row(1)).unwrap();
        store.flush().unwrap();
        // Hand-append a valid frame without a manifest commit — the
        // state a crash between fsync and rename leaves.
        let framed = frame::frame_bytes(&frame::encode_block(&[row(2)]).unwrap());
        store.simulate_torn_append(&framed).unwrap();
        drop(store);

        let store = Store::open(tmp.path(), TAG).unwrap();
        assert_eq!(store.recovery().adopted_frames, 1);
        assert!(store.recovery().torn.is_empty());
        assert!(store.contains(row(2).digest));
        assert_eq!(store.rows_committed(), 2);
    }

    #[test]
    fn flipped_bit_is_reported_as_typed_corruption() {
        let tmp = TempDir::new("flip");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..6 {
            store.append(row(i)).unwrap();
            store.flush().unwrap(); // one frame per row
        }
        drop(store);

        // Flip one byte inside the third frame's payload.
        let seg = tmp.path().join("seg-00000001.css");
        let mut bytes = std::fs::read(&seg).unwrap();
        let header = frame::segment_header(TAG).len();
        let frame_len = (bytes.len() - header) / 6;
        let target = header + 2 * frame_len + frame::FRAME_HEADER + 3;
        bytes[target] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let store = Store::open(tmp.path(), TAG).unwrap();
        let report = store.recovery();
        assert_eq!(report.corrupt.len(), 1, "{report:?}");
        assert_eq!(report.corrupt[0].segment, "seg-00000001.css");
        assert_eq!(report.corrupt[0].offset as usize, header + 2 * frame_len);
        // The other five rows survive; the damaged one is gone until
        // the campaign reruns it.
        assert_eq!(store.rows_committed(), 5);
    }

    #[test]
    fn second_writer_is_locked_out_and_dead_owner_is_taken_over() {
        let tmp = TempDir::new("lock");
        let store = Store::open(tmp.path(), TAG).unwrap();
        match Store::open(tmp.path(), TAG) {
            Err(StoreError::Locked { owner, .. }) => {
                assert_eq!(owner, std::process::id().to_string());
            }
            other => panic!("expected Locked, got {:?}", other.err()),
        }
        drop(store);
        // Lock released on drop.
        let store = Store::open(tmp.path(), TAG).unwrap();
        drop(store);
        // A lock left by a dead pid is taken over immediately.
        std::fs::write(tmp.path().join(WRITER_LOCK), "999999999\n").unwrap();
        let store = Store::open(tmp.path(), TAG);
        assert!(store.is_ok(), "{:?}", store.err());
    }

    #[test]
    fn a_leftover_lock_naming_our_own_pid_does_not_lock_us_out() {
        // A restarted process often gets its predecessor's pid back; the
        // file's contents name no owner, only a held kernel lock does.
        let tmp = TempDir::new("pid-reuse");
        std::fs::write(tmp.path().join(WRITER_LOCK), format!("{}\n", std::process::id())).unwrap();
        let store = Store::open(tmp.path(), TAG);
        assert!(store.is_ok(), "{:?}", store.err());
    }

    #[test]
    fn failed_manifest_commit_keeps_rows_buffered_for_retry() {
        let tmp = TempDir::new("manifest-enospc");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..3 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        for i in 3..6 {
            store.append(row(i)).unwrap();
        }
        // Budget covers the frame bytes exactly, so the data write
        // lands and the manifest commit is what hits the injected
        // ENOSPC.
        let framed: u64 = frame::encode_blocks(&(3..6).map(row).collect::<Vec<_>>())
            .unwrap()
            .iter()
            .map(|p| (frame::FRAME_HEADER + p.len()) as u64)
            .sum();
        store.set_write_budget(Some(framed));
        let err = store.flush().unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        // Nothing advanced in memory: the rows stay buffered and a
        // retry re-commits them.
        assert_eq!(store.rows_committed(), 3);
        assert!(store.contains(row(4).digest), "buffered row lost after failed commit");
        store.set_write_budget(None);
        store.flush().unwrap();
        assert_eq!(store.rows_committed(), 6);
        drop(store);
        let store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
        assert_eq!(store.rows_committed(), 6);
        assert_eq!(store.rows().unwrap().len(), 6);
    }

    #[test]
    fn engine_tag_mismatch_is_typed() {
        let tmp = TempDir::new("tag");
        drop(Store::open(tmp.path(), TAG).unwrap());
        match Store::open(tmp.path(), "other-engine") {
            Err(StoreError::EngineMismatch { found, expected }) => {
                assert_eq!(found, TAG);
                assert_eq!(expected, "other-engine");
            }
            other => panic!("expected EngineMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn segments_roll_and_scans_span_them() {
        let tmp = TempDir::new("roll");
        let options = Options { roll_bytes: 256, flush_rows: 2 };
        let mut store = Store::open_with(tmp.path(), TAG, options).unwrap();
        for i in 0..20 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        assert!(store.segment_count() > 1, "only {} segments", store.segment_count());
        assert_eq!(store.rows().unwrap().len(), 20);
        drop(store);
        let store = Store::open(tmp.path(), TAG).unwrap();
        assert_eq!(store.rows_committed(), 20);
    }

    #[test]
    fn write_budget_injects_torn_enospc_and_recovery_survives() {
        let tmp = TempDir::new("enospc");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..4 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        store.set_write_budget(Some(10));
        for i in 4..8 {
            store.append(row(i)).unwrap();
        }
        let err = store.flush().unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        store.set_write_budget(None);
        // In-process retry heals the torn bytes and lands the rows.
        store.flush().unwrap();
        assert_eq!(store.rows_committed(), 8);
        drop(store);
        let store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
        assert_eq!(store.rows_committed(), 8);
    }

    #[test]
    fn fsck_repairs_torn_flip_and_missing() {
        let tmp = TempDir::new("fsck");
        let options = Options { roll_bytes: 200, flush_rows: 1 };
        let mut store = Store::open_with(tmp.path(), TAG, options).unwrap();
        for i in 0..12 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        assert!(store.segment_count() >= 3);
        let second = "seg-00000002.css".to_string();
        drop(store);

        // Inject all three corruption classes.
        let first = tmp.path().join("seg-00000001.css");
        let mut bytes = std::fs::read(&first).unwrap();
        let at = frame::segment_header(TAG).len() + frame::FRAME_HEADER + 1;
        bytes[at] ^= 0x01; // flipped byte
        bytes.extend_from_slice(&[0xAA; 21]); // torn tail
        std::fs::write(&first, &bytes).unwrap();
        std::fs::remove_file(tmp.path().join(&second)).unwrap(); // missing

        let report = fsck::verify(tmp.path()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.torn.len(), 1);
        assert_eq!(report.missing, vec![second]);

        let repaired = fsck::repair(tmp.path()).unwrap();
        assert!(repaired.is_clean(), "{:?}", repaired.lines());
        assert!(!repaired.actions.is_empty());
        assert!(tmp.path().join(QUARANTINE).is_dir());

        // The repaired store opens clean and the campaign can rerun the
        // lost scenarios.
        let store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
        assert!(store.rows_committed() < 12);
    }

    #[test]
    fn compact_folds_duplicates_and_merges_segments() {
        let tmp = TempDir::new("compact");
        let options = Options { roll_bytes: 200, flush_rows: 1 };
        let mut store = Store::open_with(tmp.path(), TAG, options).unwrap();
        for i in 0..10 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        let before = store.segment_count();
        assert!(before > 1);
        drop(store);

        let report = fsck::compact(tmp.path()).unwrap();
        assert_eq!(report.segments_before, before);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.rows_after, 10);
        assert!(report.bytes_after <= report.bytes_before);

        let store = Store::open(tmp.path(), TAG).unwrap();
        assert!(store.recovery().is_clean());
        assert_eq!(store.rows_committed(), 10);
        assert_eq!(store.segment_count(), 1);
    }

    #[test]
    fn missing_manifest_with_segments_is_typed_and_repairable() {
        let tmp = TempDir::new("manifest");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        for i in 0..3 {
            store.append(row(i)).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        std::fs::remove_file(tmp.path().join(MANIFEST)).unwrap();

        match Store::open(tmp.path(), TAG) {
            Err(StoreError::Manifest { reason, .. }) => {
                assert!(reason.contains("store_fsck"), "{reason}");
            }
            other => panic!("expected Manifest error, got {:?}", other.err()),
        }
        let report = fsck::repair(tmp.path()).unwrap();
        assert!(report.is_clean(), "{:?}", report.lines());
        let store = Store::open(tmp.path(), TAG).unwrap();
        assert_eq!(store.rows_committed(), 3);
    }

    #[test]
    fn a_segment_cut_off_before_its_manifest_commit_is_replaced() {
        let tmp = TempDir::new("unjournaled");
        drop(Store::open(tmp.path(), TAG).unwrap());
        // A writer killed between creating its first segment and
        // journaling it leaves a header-only file no manifest lists.
        std::fs::write(tmp.path().join("seg-00000001.css"), frame::segment_header(TAG)).unwrap();
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        store.append(row(1)).unwrap();
        store.flush().unwrap();
        drop(store);
        let report = fsck::verify(tmp.path()).unwrap();
        assert!(report.is_clean(), "{:?}", report.lines());
        assert_eq!((report.segments, report.rows), (1, 1));
    }

    #[test]
    fn reader_mode_never_mutates() {
        let tmp = TempDir::new("reader");
        let mut store = Store::open(tmp.path(), TAG).unwrap();
        store.append(row(1)).unwrap();
        store.flush().unwrap();
        store.simulate_torn_append(&[0x11; 9]).unwrap();
        drop(store);

        let seg = tmp.path().join("seg-00000001.css");
        let len_before = std::fs::metadata(&seg).unwrap().len();
        let reader = Store::open_reader(tmp.path()).unwrap();
        assert_eq!(reader.recovery().torn.len(), 1);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), len_before);
        let mut reader = reader;
        assert!(matches!(reader.append(row(2)), Err(StoreError::Unwritable { .. })));
        assert!(!tmp.path().join(WRITER_LOCK).exists());
    }
}
