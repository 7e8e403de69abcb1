//! Segment names have exactly eight digits, and no reader accepts a
//! ninth. A store whose next segment would need one gets a typed error
//! before anything is written or deleted: from compaction, which writes
//! its output under the id after every segment file on disk, and from a
//! writer rolling to a new segment.

use corescope_store::{frame, fsck, Options, Row, Store, StoreError};
use std::path::{Path, PathBuf};

const TAG: &str = "corescope-engine-ids";

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("corescope-segment-ids-{label}-{}", std::process::id()));
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
    Row { digest: u128::from(i) << 64 | 0x1D, makespan: i as f64, events: i, ..Row::default() }
}

/// The file names in `dir`, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn assert_no_id_left(result: Result<impl std::fmt::Debug, StoreError>) {
    match result {
        Err(StoreError::Unwritable { reason, .. }) => {
            assert!(reason.contains("seg-99999999.css"), "{reason}");
        }
        other => panic!("expected a typed error for the ninth digit, got {other:?}"),
    }
}

#[test]
fn compaction_past_the_last_segment_id_fails_before_touching_the_store() {
    let tmp = TempDir::new("compact");
    let mut store = Store::open(tmp.path(), TAG).unwrap();
    store.append(row(1)).unwrap();
    store.flush().unwrap();
    drop(store);
    // A stray segment no manifest lists, with the last id there is.
    std::fs::write(tmp.path().join("seg-99999999.css"), frame::segment_header(TAG)).unwrap();
    let before = files(tmp.path());
    let manifest = std::fs::read(tmp.path().join("MANIFEST")).unwrap();

    assert_no_id_left(fsck::compact(tmp.path()));

    assert_eq!(files(tmp.path()), before, "compaction wrote or deleted a file");
    assert_eq!(std::fs::read(tmp.path().join("MANIFEST")).unwrap(), manifest);
    let store = Store::open_reader(tmp.path()).unwrap();
    assert_eq!(store.rows().unwrap(), vec![row(1)]);
}

#[test]
fn a_writer_rolling_past_the_last_segment_id_fails_and_keeps_its_rows() {
    let tmp = TempDir::new("roll");
    // A segment with the last id, adopted by repair into a fresh manifest.
    let mut segment = frame::segment_header(TAG);
    segment.extend_from_slice(&frame::frame_bytes(&frame::encode_block(&[row(1)]).unwrap()));
    std::fs::write(tmp.path().join("seg-99999999.css"), segment).unwrap();
    assert!(fsck::repair(tmp.path()).unwrap().is_clean());
    let before = files(tmp.path());

    // Any committed byte makes the writer roll to a new segment.
    let options = Options { roll_bytes: 1, ..Options::default() };
    let mut store = Store::open_with(tmp.path(), TAG, options).unwrap();
    store.append(row(2)).unwrap();
    assert_no_id_left(store.flush());
    drop(store);

    assert_eq!(files(tmp.path()), before, "the writer wrote or deleted a segment");
    let store = Store::open_reader(tmp.path()).unwrap();
    assert!(store.recovery().is_clean(), "{}", store.recovery().summary());
    assert_eq!(store.rows().unwrap(), vec![row(1)]);
}
