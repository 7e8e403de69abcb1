//! The store proper: directory layout, manifest journal, recovery.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/MANIFEST            committed state, replaced by atomic rename
//! <dir>/seg-00000001.css    append-only CRC-framed segments
//! <dir>/writer.lock         single-writer arbitration (pid inside)
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
//! ## Recovery invariants
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

use crate::frame;
use crate::lockfile::{self, LockError, LockFile};
use crate::{Corruption, Row, StoreError, Torn};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

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
    /// Age after which a writer lock whose owner's liveness cannot be
    /// checked may be taken over (see [`crate::lockfile`]). The writer
    /// refreshes the lock mtime on every flush, so this fallback only
    /// fires on owners that stopped making progress.
    pub lock_timeout: Duration,
}

impl Default for Options {
    fn default() -> Self {
        Options { roll_bytes: 1 << 20, flush_rows: 128, lock_timeout: lockfile::LOCK_TIMEOUT }
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

pub(crate) fn segment_name(id: u64) -> String {
    format!("seg-{id:08}.css")
}

pub(crate) fn segment_id(name: &str) -> Option<u64> {
    if !valid_segment_name(name) {
        return None;
    }
    name[4..12].parse().ok()
}

pub(crate) fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

/// Writes `bytes` to `path` durably: temp file, fsync, atomic rename.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    lockfile::publish(path, bytes, true).map_err(|e| io_err(path, e))
}

/// Takes the single-writer lock of the store at `dir` (see
/// [`lockfile`] for the staleness policy).
pub(crate) fn writer_lock(dir: &Path, timeout: Duration) -> Result<LockFile, StoreError> {
    let path = dir.join(WRITER_LOCK);
    LockFile::acquire(&path, timeout).map_err(|e| match e {
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
    writable: bool,
    options: Options,
    segments: Vec<SegmentMeta>,
    committed: HashSet<u128>,
    buffered: Vec<Row>,
    buffered_digests: HashSet<u128>,
    recovery: RecoveryReport,
    rows_committed: u64,
    appended: u64,
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
        let lock = writer_lock(dir, options.lock_timeout)?;
        let manifest_path = dir.join(MANIFEST);
        let manifest = if manifest_path.exists() {
            let text =
                std::fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
            let manifest = Manifest::parse(&text, &manifest_path)?;
            if manifest.tag != tag {
                return Err(StoreError::EngineMismatch {
                    found: manifest.tag,
                    expected: tag.to_string(),
                });
            }
            manifest
        } else {
            if !list_segment_files(dir)?.is_empty() {
                return Err(StoreError::Manifest {
                    path: manifest_path,
                    reason: "manifest missing but segments present (run store_fsck --repair)"
                        .to_string(),
                });
            }
            let manifest = Manifest { tag: tag.to_string(), segments: Vec::new() };
            atomic_write(&manifest_path, manifest.render().as_bytes())?;
            manifest
        };

        let mut store = Store {
            dir: dir.to_path_buf(),
            tag: tag.to_string(),
            writable: true,
            options,
            segments: manifest.segments,
            committed: HashSet::new(),
            buffered: Vec::new(),
            buffered_digests: HashSet::new(),
            recovery: RecoveryReport::default(),
            rows_committed: 0,
            appended: 0,
            lock: Some(lock),
            write_budget: None,
        };
        store.recover(true)?;
        Ok(store)
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
        let manifest_path = dir.join(MANIFEST);
        let manifest = if manifest_path.exists() {
            let text =
                std::fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
            Manifest::parse(&text, &manifest_path)?
        } else {
            return Err(StoreError::Manifest {
                path: manifest_path,
                reason: if list_segment_files(dir).map(|s| s.is_empty()).unwrap_or(true) {
                    "no store at this path".to_string()
                } else {
                    "manifest missing but segments present (run store_fsck --repair)".to_string()
                },
            });
        };
        let mut store = Store {
            dir: dir.to_path_buf(),
            tag: manifest.tag,
            writable: false,
            options: Options::default(),
            segments: manifest.segments,
            committed: HashSet::new(),
            buffered: Vec::new(),
            buffered_digests: HashSet::new(),
            recovery: RecoveryReport::default(),
            rows_committed: 0,
            appended: 0,
            lock: None,
            write_budget: None,
        };
        store.recover(false)?;
        Ok(store)
    }

    /// Walks every manifest segment, classifying frames and (in writer
    /// mode) truncating torn tails and committing adoptions.
    fn recover(&mut self, writer: bool) -> Result<(), StoreError> {
        let mut manifest_dirty = false;
        let mut segments = std::mem::take(&mut self.segments);
        for seg in &mut segments {
            let path = self.dir.join(&seg.name);
            let buf = match std::fs::read(&path) {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::NotFound => {
                    if writer {
                        return Err(StoreError::MissingSegment { segment: seg.name.clone() });
                    }
                    self.recovery.missing.push(seg.name.clone());
                    seg.committed_len = 0;
                    seg.rows = 0;
                    continue;
                }
                Err(e) => return Err(io_err(&path, e)),
            };
            let scan = scan_segment(&buf, &seg.name, seg.committed_len, frame::block_digests);
            self.committed.reserve(scan.rows.len());
            for &digest in &scan.rows {
                if self.committed.insert(digest) {
                    self.recovery.distinct += 1;
                }
            }
            self.recovery.rows += scan.rows.len();
            self.recovery.adopted_frames += scan.adopted_frames;
            self.recovery.corrupt.extend(scan.corrupt);
            if scan.valid_end != seg.committed_len {
                manifest_dirty = true;
            }
            seg.committed_len = scan.valid_end;
            seg.rows = scan.rows.len() as u64;
            if let Some(torn_at) = scan.torn_at {
                let dropped = buf.len() as u64 - torn_at;
                self.recovery.torn.push(Torn {
                    segment: seg.name.clone(),
                    offset: torn_at,
                    dropped,
                });
                if writer {
                    let file =
                        OpenOptions::new().write(true).open(&path).map_err(|e| io_err(&path, e))?;
                    file.set_len(torn_at).map_err(|e| io_err(&path, e))?;
                    file.sync_all().map_err(|e| io_err(&path, e))?;
                }
            }
        }
        self.segments = segments;
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

    /// Rows appended through this handle (buffered or flushed).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Distinct scenario digests present (committed or buffered).
    pub fn distinct(&self) -> usize {
        self.committed.len() + self.buffered_digests.len()
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

    /// The committed digest set (not including buffered rows).
    pub fn committed_digests(&self) -> &HashSet<u128> {
        &self.committed
    }

    /// One-line status in the house summary style.
    pub fn summary(&self) -> String {
        format!(
            "store: segments {}, rows {} (distinct {}), appended {}, torn {}, corrupt {}",
            self.segment_count(),
            self.rows_committed,
            self.distinct(),
            self.appended,
            self.recovery.torn.len(),
            self.recovery.corrupt.len()
        )
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
        if !self.writable {
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
        self.appended += 1;
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
        if let Some(lock) = &self.lock {
            lock.touch();
        }
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
        let next_id = self
            .segments
            .iter()
            .filter_map(|s| segment_id(&s.name))
            .max()
            .unwrap_or(0)
            .checked_add(1)
            .expect("segment id overflow");
        let name = segment_name(next_id);
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
        // Recovery set every segment's row count from its own scan.
        let total = self.segments.iter().map(|s| s.rows as usize).sum();
        let mut rows: Vec<Row> = Vec::with_capacity(total);
        let mut index: HashMap<u128, usize> = HashMap::with_capacity(total);
        for seg in &self.segments {
            let path = self.dir.join(&seg.name);
            let buf = match std::fs::read(&path) {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::NotFound && !self.writable => continue,
                Err(e) => return Err(io_err(&path, e)),
            };
            let scan = scan_segment(&buf, &seg.name, seg.committed_len, frame::decode_block);
            for row in scan.rows {
                match index.get(&row.digest) {
                    Some(&i) => rows[i] = row,
                    None => {
                        index.insert(row.digest, rows.len());
                        rows.push(row);
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Appends raw bytes to the active segment *without* committing the
    /// manifest — the exact on-disk state a process killed mid-append
    /// leaves behind. Fault-injection hook for the chaos suite and the
    /// x9 crash simulation; recovery must truncate these bytes away.
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
        if self.writable && !self.buffered.is_empty() {
            let _ = self.flush();
        }
    }
}

/// Everything learned from one pass over one segment's bytes.
pub(crate) struct SegmentScan<T> {
    /// What the block decoder made of each row: a [`Row`] or a digest.
    pub rows: Vec<T>,
    /// End of the last valid frame (committed or adopted).
    pub valid_end: u64,
    pub adopted_frames: usize,
    pub corrupt: Vec<Corruption>,
    /// Offset of a torn append, if the bytes past `valid_end` are not
    /// empty.
    pub torn_at: Option<u64>,
    pub frames: usize,
}

/// Classifies every byte of a segment. Within `committed_len` damage is
/// corruption (skip + resync); past it, valid frames are adopted and
/// the first invalid byte is a torn append that ends the segment.
///
/// `decode` is [`frame::decode_block`] for callers that need the rows
/// and [`frame::block_digests`] for those that need only the digests;
/// both fail on exactly the same payloads, so the classification does
/// not depend on the choice.
pub(crate) fn scan_segment<T>(
    buf: &[u8],
    name: &str,
    committed_len: u64,
    decode: fn(&[u8]) -> Result<Vec<T>, String>,
) -> SegmentScan<T> {
    let mut scan = SegmentScan {
        rows: Vec::new(),
        valid_end: 0,
        adopted_frames: 0,
        corrupt: Vec::new(),
        torn_at: None,
        frames: 0,
    };
    let data_start = match frame::parse_segment_header(buf) {
        Ok((_tag, start)) => start,
        Err(reason) => {
            // An unreadable header poisons the whole segment: no frame
            // boundary is trustworthy, so quarantine everything.
            scan.corrupt.push(Corruption {
                segment: name.to_string(),
                offset: 0,
                reason: format!("segment header: {reason}"),
            });
            scan.valid_end = committed_len.min(buf.len() as u64);
            if (buf.len() as u64) > committed_len {
                scan.torn_at = Some(committed_len);
            }
            return scan;
        }
    };
    let committed = (committed_len as usize).min(buf.len());
    let mut at = data_start;
    scan.valid_end = data_start.min(committed) as u64;

    // Committed region: every byte was once fsynced under a manifest
    // commit, so damage here is corruption, never a torn append.
    while at < committed {
        match frame::parse_frame(&buf[..committed], at) {
            frame::Parsed::Frame { payload, end } => {
                scan.frames += 1;
                match decode(payload) {
                    Ok(rows) => scan.rows.extend(rows),
                    Err(reason) => scan.corrupt.push(Corruption {
                        segment: name.to_string(),
                        offset: at as u64,
                        reason,
                    }),
                }
                at = end;
                scan.valid_end = at as u64;
            }
            frame::Parsed::BadCrc { end } => {
                scan.corrupt.push(Corruption {
                    segment: name.to_string(),
                    offset: at as u64,
                    reason: "crc mismatch".to_string(),
                });
                // The length field may itself be damaged; resync on the
                // magic rather than trusting `end` blindly.
                at = match frame::resync(&buf[..committed], at) {
                    Some(next) if next < end => next,
                    _ => end.min(committed),
                };
            }
            frame::Parsed::BadMagic | frame::Parsed::Truncated => {
                scan.corrupt.push(Corruption {
                    segment: name.to_string(),
                    offset: at as u64,
                    reason: "bytes are not a frame".to_string(),
                });
                match frame::resync(&buf[..committed], at) {
                    Some(next) => at = next,
                    None => break,
                }
            }
        }
    }
    // Trailing committed bytes that never resynced stay quarantined in
    // place; the manifest length shrinks to the last good frame.

    // Uncommitted region: adopt whole valid frames (the write beat the
    // crash, the manifest rename did not), stop at the first tear.
    let mut adopt_at = committed.max(data_start);
    while adopt_at < buf.len() {
        match frame::parse_frame(buf, adopt_at) {
            frame::Parsed::Frame { payload, end } => match decode(payload) {
                Ok(rows) => {
                    scan.frames += 1;
                    scan.adopted_frames += 1;
                    scan.rows.extend(rows);
                    adopt_at = end;
                    scan.valid_end = end as u64;
                }
                Err(_) => break,
            },
            _ => break,
        }
    }
    if (adopt_at as u64) < buf.len() as u64 {
        scan.torn_at = Some(adopt_at as u64);
    }
    scan
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
