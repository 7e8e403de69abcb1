//! The store proper: directory layout, manifest journal, recovery.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/MANIFEST            committed state, replaced by atomic rename
//! <dir>/seg-00000001.css    append-only CRC-framed segments
//! <dir>/writer.lock         single-writer arbitration (a kernel lock)
//! <dir>/quarantine/         bytes fsck --repair pulled out of segments
//! ```
//!
//! ## Journal protocol
//!
//! The `MANIFEST` is the journal: a tiny text file listing the engine
//! tag and, per segment, the committed byte length and row count. Every
//! mutation follows write-ahead discipline relative to the files it
//! describes — new bytes are written and fsynced *first*, then the
//! manifest is rewritten to a temp file, fsynced, and renamed over the
//! old one. The rename is the single atomic commit point; a crash on
//! either side leaves a state recovery can classify.
//!
//! ## Writer lock
//!
//! One writer at a time: [`Store::open`] takes `writer.lock`, a
//! [`LockFile`] the kernel holds (`flock`) until the store is dropped or
//! its process dies, however it dies. A resume after a SIGKILL opens at
//! once, and a live writer is never stolen from; what the file says is
//! only the owner's pid for [`StoreError::Locked`]. `fsck` repair and
//! compaction take the same lock. A writer built before kernel-held
//! locks takes no `flock`, so it must not run against a store a current
//! writer has open.
//!
//! ## Recovery invariants
//!
//! Recovery and [`Store::rows`] read each segment through the one
//! [`frame::Walker`], streaming, and apply the store's damage rule:
//!
//! - A frame within a segment's committed length is durable; a CRC
//!   mismatch there is real corruption — reported with its offset,
//!   skipped (recovery resyncs on the frame magic), and left for
//!   `fsck --repair` to quarantine.
//! - Valid frames *past* the committed length are adopted: the data
//!   write succeeded but the crash beat the manifest rename.
//! - The first invalid byte past the committed length is a torn append;
//!   the writer truncates it away on open. Nothing after a torn append
//!   survives.
//! - Reopening never loses a committed row, and a resumed campaign
//!   skips every committed digest — so resume is just rerun.

use crate::digest_hash::{DigestMap, DigestSet};
use crate::frame;
use crate::lockfile::{self, LockError, LockFile};
use crate::{Corruption, Row, StoreError, Torn};
use std::collections::hash_map::Entry;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// The manifest file name.
pub const MANIFEST: &str = "MANIFEST";
/// The writer lock file name: one [`crate::lockfile::LockFile`] per store.
pub const WRITER_LOCK: &str = "writer.lock";
/// Directory quarantined bytes are moved into by `fsck --repair`.
pub const QUARANTINE: &str = "quarantine";
const MANIFEST_HEADER: &str = "corescope-store v1";

/// Writer tuning knobs; the defaults suit campaign-scale appends.
#[derive(Debug, Clone)]
pub struct Options {
    /// Roll to a fresh segment once the active one exceeds this.
    pub roll_bytes: u64,
    /// Auto-flush the row buffer at this size (a flush is one frame,
    /// one fsync and one manifest commit — the durability quantum).
    pub flush_rows: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options { roll_bytes: 1 << 20, flush_rows: 128 }
    }
}

/// What `Store::open` found and did. All fields are observable so the
/// x9 artifact and the chaos suite can assert on recovery behaviour.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Segments listed in the manifest and present on disk.
    pub segments: usize,
    /// Committed rows visible after recovery (before digest dedup).
    pub rows: usize,
    /// Distinct scenario digests among those rows.
    pub distinct: usize,
    /// CRC-valid frames, committed or adopted.
    pub frames: usize,
    /// Valid frames found past a committed length and adopted.
    pub adopted_frames: usize,
    /// Torn appends truncated (writer) or ignored (reader).
    pub torn: Vec<Torn>,
    /// CRC-invalid or undecodable frames inside committed regions.
    pub corrupt: Vec<Corruption>,
    /// Manifest segments missing on disk (reader mode only; the writer
    /// refuses to open over a missing segment).
    pub missing: Vec<String>,
}

impl RecoveryReport {
    /// True when recovery found nothing to repair or adopt.
    pub fn is_clean(&self) -> bool {
        self.adopted_frames == 0
            && self.torn.is_empty()
            && self.corrupt.is_empty()
            && self.missing.is_empty()
    }

    /// One-line human summary, mirroring the sched/serve summary style.
    pub fn summary(&self) -> String {
        format!(
            "store recovery: segments {}, rows {} (distinct {}), adopted {}, torn {}, corrupt {}, missing {}",
            self.segments,
            self.rows,
            self.distinct,
            self.adopted_frames,
            self.torn.len(),
            self.corrupt.len(),
            self.missing.len()
        )
    }
}

#[derive(Debug, Clone)]
pub(crate) struct SegmentMeta {
    pub name: String,
    pub committed_len: u64,
    pub rows: u64,
}

pub(crate) struct Manifest {
    pub tag: String,
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    pub fn render(&self) -> String {
        let mut out = format!("{MANIFEST_HEADER}\ntag {}\n", self.tag);
        for seg in &self.segments {
            out.push_str(&format!("segment {} {} {}\n", seg.name, seg.committed_len, seg.rows));
        }
        out
    }

    /// The manifest of the store at `dir`, if it has one.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST);
        match std::fs::read_to_string(&path) {
            Ok(text) => Manifest::parse(&text, &path).map(Some),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&path, e)),
        }
    }

    pub fn parse(text: &str, path: &Path) -> Result<Manifest, StoreError> {
        let bad = |reason: String| StoreError::Manifest { path: path.to_path_buf(), reason };
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            other => return Err(bad(format!("bad header line {other:?}"))),
        }
        let tag = match lines.next().map(|l| l.split_once(' ')) {
            Some(Some(("tag", tag))) if !tag.is_empty() => tag.to_string(),
            other => return Err(bad(format!("bad tag line {other:?}"))),
        };
        let mut segments = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(' ');
            match (parts.next(), parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some("segment"), Some(name), Some(len), Some(rows), None) => {
                    let committed_len =
                        len.parse().map_err(|_| bad(format!("bad length in {line:?}")))?;
                    let rows =
                        rows.parse().map_err(|_| bad(format!("bad row count in {line:?}")))?;
                    if !valid_segment_name(name) {
                        return Err(bad(format!("bad segment name in {line:?}")));
                    }
                    segments.push(SegmentMeta { name: name.to_string(), committed_len, rows });
                }
                _ => return Err(bad(format!("unrecognised line {line:?}"))),
            }
        }
        Ok(Manifest { tag, segments })
    }
}

pub(crate) fn valid_segment_name(name: &str) -> bool {
    name.len() == "seg-00000000.css".len()
        && name.starts_with("seg-")
        && name.ends_with(".css")
        && name[4..12].bytes().all(|b| b.is_ascii_digit())
}

/// The segment name after the highest of `names`, or
/// [`StoreError::Unwritable`] when that is `seg-99999999.css`: a ninth
/// digit would make a name no reader accepts.
pub(crate) fn next_segment<'a>(
    dir: &Path,
    names: impl Iterator<Item = &'a str>,
) -> Result<String, StoreError> {
    let last: u64 = names.max().and_then(|name| name[4..12].parse().ok()).unwrap_or(0);
    if last >= 99_999_999 {
        return Err(StoreError::Unwritable {
            dir: dir.to_path_buf(),
            reason: "no segment id left: segment names end at seg-99999999.css".to_string(),
        });
    }
    Ok(format!("seg-{:08}.css", last + 1))
}

pub(crate) fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

/// Writes `bytes` to `path` durably: temp file, fsync, atomic rename.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    lockfile::publish(path, bytes).map_err(|e| io_err(path, e))
}

/// Takes the single-writer lock of the store at `dir` (see
/// [`lockfile`]): held until dropped, released by the kernel if the
/// process dies first.
pub(crate) fn writer_lock(dir: &Path) -> Result<LockFile, StoreError> {
    let path = dir.join(WRITER_LOCK);
    LockFile::acquire(&path).map_err(|e| match e {
        LockError::Held(owner) => StoreError::Locked { dir: dir.to_path_buf(), owner },
        LockError::Io(e) => io_err(&path, e),
    })
}

/// A crash-safe columnar result store rooted at one directory.
///
/// Open it in writer mode to append campaign rows (single writer,
/// enforced by [`WRITER_LOCK`]) or in reader mode to scan and verify.
/// See the module docs for the journal protocol and recovery
/// invariants.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    tag: String,
    options: Options,
    segments: Vec<SegmentMeta>,
    committed: DigestSet,
    buffered: Vec<Row>,
    buffered_digests: DigestSet,
    recovery: RecoveryReport,
    rows_committed: u64,
    /// The writer lock; a reader holds none.
    lock: Option<LockFile>,
    /// Fault injection for the chaos suite: remaining bytes the store
    /// may write before every write fails ENOSPC-style, tearing the
    /// frame mid-append exactly like a full disk would.
    write_budget: Option<u64>,
}

impl Store {
    /// Opens (creating if absent) the store at `dir` for writing,
    /// acquiring the writer lock and running crash recovery: torn
    /// tails are truncated, valid-but-uncommitted frames adopted, and
    /// interior corruption recorded in [`Store::recovery`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] while another live writer holds the lock,
    /// [`StoreError::EngineMismatch`] when the store was written under a
    /// different engine tag, [`StoreError::MissingSegment`] /
    /// [`StoreError::Manifest`] for damage that needs `store_fsck
    /// --repair`, and [`StoreError::Unwritable`] / [`StoreError::Io`]
    /// for filesystem failures.
    pub fn open(dir: &Path, tag: &str) -> Result<Store, StoreError> {
        Self::open_with(dir, tag, Options::default())
    }

    /// [`Store::open`] with explicit [`Options`].
    pub fn open_with(dir: &Path, tag: &str, options: Options) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Unwritable {
            dir: dir.to_path_buf(),
            reason: e.to_string(),
        })?;
        let lock = writer_lock(dir)?;
        let manifest = match Manifest::load(dir)? {
            Some(manifest) if manifest.tag != tag => {
                return Err(StoreError::EngineMismatch {
                    found: manifest.tag,
                    expected: tag.to_string(),
                })
            }
            Some(manifest) => manifest,
            None => {
                if !list_segment_files(dir)?.is_empty() {
                    return Err(StoreError::Manifest {
                        path: dir.join(MANIFEST),
                        reason: "manifest missing but segments present (run store_fsck --repair)"
                            .to_string(),
                    });
                }
                let manifest = Manifest { tag: tag.to_string(), segments: Vec::new() };
                atomic_write(&dir.join(MANIFEST), manifest.render().as_bytes())?;
                manifest
            }
        };
        Self::recovered(dir, manifest, options, Some(lock))
    }

    /// Opens the store read-only: no lock, no truncation, no manifest
    /// rewrite. Damage — including missing segments — is recorded in
    /// [`Store::recovery`] instead of repaired, which is what
    /// `store_fsck` wants for its verify pass.
    ///
    /// # Errors
    ///
    /// [`StoreError::Manifest`] when `dir` holds no readable store at
    /// all, [`StoreError::Io`] on filesystem failures.
    pub fn open_reader(dir: &Path) -> Result<Store, StoreError> {
        let Some(manifest) = Manifest::load(dir)? else {
            return Err(StoreError::Manifest {
                path: dir.join(MANIFEST),
                reason: if list_segment_files(dir).map(|s| s.is_empty()).unwrap_or(true) {
                    "no store at this path".to_string()
                } else {
                    "manifest missing but segments present (run store_fsck --repair)".to_string()
                },
            });
        };
        Self::recovered(dir, manifest, Options::default(), None)
    }

    /// A handle on the store at `dir` after recovery: a writer when it
    /// holds the writer `lock`, else a reader.
    fn recovered(
        dir: &Path,
        manifest: Manifest,
        options: Options,
        lock: Option<LockFile>,
    ) -> Result<Store, StoreError> {
        let mut store = Store {
            dir: dir.to_path_buf(),
            tag: manifest.tag,
            options,
            segments: manifest.segments,
            committed: DigestSet::default(),
            buffered: Vec::new(),
            buffered_digests: DigestSet::default(),
            recovery: RecoveryReport::default(),
            rows_committed: 0,
            lock,
            write_budget: None,
        };
        store.recover()?;
        Ok(store)
    }

    /// Walks every manifest segment, classifying frames and (in writer
    /// mode) truncating torn tails and committing adoptions.
    fn recover(&mut self) -> Result<(), StoreError> {
        let writer = self.lock.is_some();
        let mut manifest_dirty = false;
        let mut segments = std::mem::take(&mut self.segments);
        for seg in &mut segments {
            let path = self.dir.join(&seg.name);
            let committed = &mut self.committed;
            let take = |payload: &[u8]| {
                let digests = frame::block_digests(payload)?;
                committed.extend(&digests);
                Ok(digests.len())
            };
            let (rows, torn) = (self.recovery.rows, self.recovery.torn.len());
            let report = &mut self.recovery;
            let valid_end = match walk_segment(&path, &seg.name, seg.committed_len, report, take) {
                Ok(valid_end) => valid_end,
                Err(e) if e.kind() == ErrorKind::NotFound => {
                    if writer {
                        return Err(StoreError::MissingSegment { segment: seg.name.clone() });
                    }
                    self.recovery.missing.push(seg.name.clone());
                    (seg.committed_len, seg.rows) = (0, 0);
                    continue;
                }
                Err(e) => return Err(io_err(&path, e)),
            };
            manifest_dirty |= valid_end != seg.committed_len;
            seg.committed_len = valid_end;
            seg.rows = (self.recovery.rows - rows) as u64;
            if let Some(torn) = self.recovery.torn.get(torn).filter(|_| writer) {
                let file =
                    OpenOptions::new().write(true).open(&path).map_err(|e| io_err(&path, e))?;
                file.set_len(torn.offset).map_err(|e| io_err(&path, e))?;
                file.sync_all().map_err(|e| io_err(&path, e))?;
            }
        }
        self.segments = segments;
        self.recovery.distinct = self.committed.len();
        self.recovery.segments = self.segments.len() - self.recovery.missing.len();
        self.rows_committed = self.recovery.rows as u64;
        if writer && manifest_dirty {
            self.commit_manifest()?;
        }
        Ok(())
    }

    fn commit_manifest(&mut self) -> Result<(), StoreError> {
        let manifest = Manifest { tag: self.tag.clone(), segments: self.segments.clone() };
        let bytes = manifest.render().into_bytes();
        self.charge_budget(&self.dir.join(MANIFEST), bytes.len())?;
        atomic_write(&self.dir.join(MANIFEST), &bytes)
    }

    /// Deducts `len` bytes from the injected write budget, failing like
    /// a full disk once it runs out. No-op without fault injection.
    fn charge_budget(&mut self, path: &Path, len: usize) -> Result<(), StoreError> {
        let Some(budget) = self.write_budget.as_mut() else { return Ok(()) };
        if *budget < len as u64 {
            *budget = 0;
            return Err(io_err(
                path,
                std::io::Error::other("injected fault: no space left on device"),
            ));
        }
        *budget -= len as u64;
        Ok(())
    }

    /// Arms (or disarms) the chaos suite's ENOSPC injection: after
    /// `bytes` more written bytes, every write fails and partially
    /// written frames are left torn on disk, as a full disk would.
    pub fn set_write_budget(&mut self, bytes: Option<u64>) {
        self.write_budget = bytes;
    }

    /// The store root.
    pub fn dir(&self) -> &Path {
        self.dir.as_path()
    }

    /// The engine tag this store is bound to.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Durable rows (pre-dedup) as of the last flush.
    pub fn rows_committed(&self) -> u64 {
        self.rows_committed
    }

    /// Segments currently listed in the manifest.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// True when `digest` is already committed or buffered — the resume
    /// test: a campaign skips every scenario for which this holds.
    pub fn contains(&self, digest: u128) -> bool {
        self.committed.contains(&digest) || self.buffered_digests.contains(&digest)
    }

    /// Appends one row, deduplicating by digest. Returns `false` when
    /// the digest was already present (nothing written). Auto-flushes
    /// at [`Options::flush_rows`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Unwritable`] on a read-only handle; flush errors
    /// as for [`Store::flush`].
    pub fn append(&mut self, row: Row) -> Result<bool, StoreError> {
        if self.lock.is_none() {
            return Err(StoreError::Unwritable {
                dir: self.dir.clone(),
                reason: "store opened read-only".to_string(),
            });
        }
        if self.contains(row.digest) {
            return Ok(false);
        }
        self.buffered_digests.insert(row.digest);
        self.buffered.push(row);
        if self.buffered.len() >= self.options.flush_rows {
            self.flush()?;
        }
        Ok(true)
    }

    /// Makes every buffered row durable: one columnar frame appended to
    /// the active segment, fsync, then the manifest rename commit.
    /// Rolls to a fresh segment past [`Options::roll_bytes`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure — at any failure point,
    /// including a failed manifest commit after the data write, the
    /// buffered rows are kept and the in-memory committed state is
    /// left exactly as before the call, so a retry re-commits them.
    /// The next flush first truncates any torn bytes back to the
    /// committed length, so an in-process retry cannot corrupt the
    /// segment.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let seg_index = self.active_segment()?;
        let name = self.segments[seg_index].name.clone();
        let committed_len = self.segments[seg_index].committed_len;
        let path = self.dir.join(&name);
        let file = OpenOptions::new().append(true).open(&path).map_err(|e| io_err(&path, e))?;
        // Self-heal a previous failed flush: drop torn bytes past the
        // commit point before appending, or recovery would later have
        // to resync over our own garbage.
        let len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        if len > committed_len {
            file.set_len(committed_len).map_err(|e| io_err(&path, e))?;
        }
        let payloads = frame::encode_blocks(&self.buffered)
            .map_err(|reason| io_err(&path, std::io::Error::other(format!("encode: {reason}"))))?;
        let mut framed = Vec::new();
        for payload in &payloads {
            framed.extend_from_slice(&frame::frame_bytes(payload));
        }
        self.write_all_budgeted(&file, &path, &framed)?;
        file.sync_all().map_err(|e| io_err(&path, e))?;
        drop(file);

        // Stage the commit: bump the manifest image, attempt the rename
        // commit, and only then advance the in-memory row state. On a
        // failed commit the frame bytes stay on disk past the committed
        // length — the retry's self-heal truncates them — and the rows
        // stay buffered so the retry re-commits them.
        let frame_len = framed.len() as u64;
        let frame_rows = self.buffered.len() as u64;
        {
            let seg = &mut self.segments[seg_index];
            seg.committed_len += frame_len;
            seg.rows += frame_rows;
        }
        if let Err(e) = self.commit_manifest() {
            let seg = &mut self.segments[seg_index];
            seg.committed_len -= frame_len;
            seg.rows -= frame_rows;
            return Err(e);
        }
        self.rows_committed += frame_rows;
        for row in self.buffered.drain(..) {
            self.committed.insert(row.digest);
        }
        self.buffered_digests.clear();
        Ok(())
    }

    /// Budget-aware append that tears the write mid-frame when the
    /// injected budget runs out — leaving exactly the on-disk state a
    /// real ENOSPC leaves.
    fn write_all_budgeted(
        &mut self,
        mut file: &File,
        path: &Path,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        if let Some(budget) = self.write_budget {
            let allowed = (budget).min(bytes.len() as u64) as usize;
            if allowed < bytes.len() {
                let _ = file.write_all(&bytes[..allowed]);
                let _ = file.sync_all();
                self.write_budget = Some(0);
                return Err(io_err(
                    path,
                    std::io::Error::other("injected fault: no space left on device"),
                ));
            }
            self.write_budget = Some(budget - allowed as u64);
        }
        file.write_all(bytes).map_err(|e| io_err(path, e))
    }

    /// Index of the segment to append to, creating or rolling as
    /// needed.
    fn active_segment(&mut self) -> Result<usize, StoreError> {
        let roll = self.options.roll_bytes;
        if let Some(last) = self.segments.len().checked_sub(1) {
            if self.segments[last].committed_len < roll {
                return Ok(last);
            }
        }
        // Only listed segments can hold committed frames, so a file
        // already at the next name is a header a crash cut off before
        // the manifest commit below (or a copy of listed rows from an
        // interrupted compaction): nothing needs it, and it is replaced.
        let name = next_segment(&self.dir, self.segments.iter().map(|s| s.name.as_str()))?;
        let path = self.dir.join(&name);
        let header = frame::segment_header(&self.tag);
        self.charge_budget(&path, header.len())?;
        atomic_write(&path, &header)?;
        self.segments.push(SegmentMeta { name, committed_len: header.len() as u64, rows: 0 });
        // Journal the new segment before any frame lands in it.
        self.commit_manifest()?;
        Ok(self.segments.len() - 1)
    }

    /// Scans every committed row from disk, deduplicated by digest with
    /// the *last* occurrence winning (a re-run after a quarantined frame
    /// supersedes the damaged copy). Buffered rows are not included —
    /// flush first.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a listed segment cannot be read in
    /// writer mode (reader mode records it as missing instead).
    pub fn rows(&self) -> Result<Vec<Row>, StoreError> {
        // Recovery collected every distinct committed digest: the rows
        // out, however often a digest repeats on disk.
        let mut rows: Vec<Row> = Vec::with_capacity(self.committed.len());
        let mut index: DigestMap<usize> = DigestMap::default();
        for seg in &self.segments {
            let path = self.dir.join(&seg.name);
            let take = |payload: &[u8]| {
                let block = frame::decode_block(payload)?;
                let n = block.len();
                for row in block {
                    match index.entry(row.digest) {
                        Entry::Occupied(at) => rows[*at.get()] = row,
                        Entry::Vacant(slot) => {
                            slot.insert(rows.len());
                            rows.push(row);
                        }
                    }
                }
                Ok(n)
            };
            let report = &mut RecoveryReport::default();
            match walk_segment(&path, &seg.name, seg.committed_len, report, take) {
                Err(e) if e.kind() == ErrorKind::NotFound && self.lock.is_none() => {}
                Err(e) => return Err(io_err(&path, e)),
                Ok(_) => {}
            }
        }
        Ok(rows)
    }

    /// Appends raw bytes to the active segment *without* committing the
    /// manifest — the exact on-disk state a process killed mid-append
    /// leaves behind. Fault-injection hook for the store's own recovery
    /// tests: reopening truncates torn bytes away and adopts whole valid
    /// frames.
    ///
    /// # Errors
    ///
    /// As for [`Store::flush`].
    pub fn simulate_torn_append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let seg_index = self.active_segment()?;
        let path = self.dir.join(&self.segments[seg_index].name);
        let mut file = OpenOptions::new().append(true).open(&path).map_err(|e| io_err(&path, e))?;
        file.write_all(bytes).map_err(|e| io_err(&path, e))?;
        file.sync_all().map_err(|e| io_err(&path, e))?;
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best effort: a clean shutdown should not lose buffered rows,
        // but errors here are unreportable (and a simulated crash drops
        // the store with a poisoned budget on purpose).
        if self.lock.is_some() && !self.buffered.is_empty() {
            let _ = self.flush();
        }
    }
}

/// Walks the segment at `path` under the store's damage rule (see the
/// module doc), adding what it finds to `report`, and returns the end of
/// its last valid frame. `take` decodes each frame's payload, uses its
/// rows and returns how many; a frame it cannot decode is corruption when
/// committed and a tear when not.
pub(crate) fn walk_segment(
    path: &Path,
    name: &str,
    committed_len: u64,
    report: &mut RecoveryReport,
    mut take: impl FnMut(&[u8]) -> Result<usize, String>,
) -> std::io::Result<u64> {
    let file = File::open(path)?;
    let mut walk = frame::Walker::new(&file)?;
    let len = walk.file_len();
    let committed = committed_len.min(len);
    let corrupt = |offset, reason| Corruption { segment: name.to_string(), offset, reason };
    let torn = |offset| Torn { segment: name.to_string(), offset, dropped: len - offset };
    let (mut valid_end, mut data_start) = (0, 0);
    while let Some(step) = walk.step()? {
        match step {
            frame::Step::Header { parsed: Ok((_, start)), .. } => {
                (valid_end, data_start) = (start.min(committed), start);
                // Committed region: every byte was fsynced under a manifest
                // commit, so damage is corruption, never a torn append.
                walk.limit(committed);
            }
            frame::Step::Header { parsed: Err(reason), .. } => {
                // An unreadable header poisons the whole segment: no
                // frame boundary is trustworthy, so quarantine everything.
                report.corrupt.push(corrupt(0, format!("segment header: {reason}")));
                report.torn.extend((len > committed_len).then(|| torn(committed_len)));
                return Ok(committed);
            }
            frame::Step::Frame { at, payload, end } => {
                report.frames += 1;
                match take(payload) {
                    Ok(rows) => report.rows += rows,
                    Err(reason) => report.corrupt.push(corrupt(at, reason)),
                }
                valid_end = end;
            }
            frame::Step::Damage { at, end: Some(end), resync } => {
                report.corrupt.push(corrupt(at, "crc mismatch".to_string()));
                // The length field may itself be damaged: a frame magic
                // before `end` is where the walk goes on.
                walk.seek(resync.map_or(end, |next| next.min(end)));
            }
            frame::Step::Damage { at, end: None, .. } | frame::Step::Truncated { at } => {
                report.corrupt.push(corrupt(at, "bytes are not a frame".to_string()));
            }
        }
    }
    // Trailing committed bytes that never resynced stay quarantined in
    // place; the manifest length shrinks to the last good frame.

    // Uncommitted region: adopt whole valid frames (the write beat the
    // crash, the manifest rename did not), stop at the first tear.
    let mut adopt_at = committed.max(data_start);
    walk.limit(u64::MAX);
    walk.seek(adopt_at);
    while let Some(frame::Step::Frame { payload, end, .. }) = walk.step()? {
        let Ok(rows) = take(payload) else { break };
        report.frames += 1;
        report.adopted_frames += 1;
        report.rows += rows;
        (adopt_at, valid_end) = (end, end);
    }
    report.torn.extend((adopt_at < len).then(|| torn(adopt_at)));
    Ok(valid_end)
}

pub(crate) fn list_segment_files(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut names = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(names),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if let Some(name) = entry.file_name().to_str() {
            if valid_segment_name(name) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}
