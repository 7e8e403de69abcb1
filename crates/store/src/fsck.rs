//! Offline integrity tooling: `verify`, `repair`, `compact`.
//!
//! `verify` is read-only and classifies every byte of the store into a
//! typed [`FsckReport`]; `repair` takes the writer lock and makes the
//! store clean again — truncating torn tails, rewriting segments around
//! corrupt frames (the damaged bytes move to `quarantine/`), adopting
//! unreferenced segments, dropping missing ones, removing manifest temp
//! files a crashed writer left behind, and rebuilding the manifest from
//! segment headers when the manifest itself is gone.
//! `compact` rewrites the store with duplicate digests folded away
//! (last occurrence wins) and small segments merged.
//!
//! Verify and compact read a store as [`Store::open_reader`] and
//! [`Store::rows`] do; repair walks each segment with the same
//! [`frame::Walker`] under its own rule, keeping every good frame and
//! quarantining the bytes between them.
//!
//! Every rewrite follows the store's journal protocol: new bytes are
//! written and fsynced first, the manifest rename is the commit, and
//! only then are superseded files removed — so a crash mid-repair or
//! mid-compact leaves a store that verify/repair can classify again.

use crate::frame::{self, Step, Walker};
use crate::lockfile::is_temp_of;
use crate::store::{
    atomic_write, io_err, list_segment_files, next_segment, writer_lock, Manifest, SegmentMeta,
    MANIFEST, QUARANTINE,
};
use crate::{Corruption, Store, StoreError, Torn};
use std::collections::{BTreeSet, HashSet};
use std::fs::File;
use std::io::ErrorKind;
use std::path::Path;

/// Everything `verify` found, plus (after `repair`) the actions taken.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Segments examined (referenced or not).
    pub segments: usize,
    /// CRC-valid frames.
    pub frames: usize,
    /// Decoded rows (pre-dedup).
    pub rows: usize,
    /// Distinct scenario digests.
    pub distinct: usize,
    /// Torn appends past a committed length.
    pub torn: Vec<Torn>,
    /// CRC-invalid or undecodable frames.
    pub corrupt: Vec<Corruption>,
    /// Manifest segments with no file on disk.
    pub missing: Vec<String>,
    /// Segment files on disk the manifest does not reference.
    pub unreferenced: Vec<String>,
    /// Problems with the manifest itself.
    pub manifest_issues: Vec<String>,
    /// Repair actions taken (empty after a plain `verify`).
    pub actions: Vec<String>,
}

impl FsckReport {
    /// True when nothing needs repair.
    pub fn is_clean(&self) -> bool {
        self.torn.is_empty()
            && self.corrupt.is_empty()
            && self.missing.is_empty()
            && self.unreferenced.is_empty()
            && self.manifest_issues.is_empty()
    }

    /// The typed report: one `kind key=value…` line per finding, the
    /// format the `store_fsck` binary prints and CI greps.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for issue in &self.manifest_issues {
            out.push(format!("manifest-issue reason={issue:?}"));
        }
        for t in &self.torn {
            out.push(format!(
                "torn-tail segment={} offset={} dropped={}",
                t.segment, t.offset, t.dropped
            ));
        }
        for c in &self.corrupt {
            out.push(format!(
                "corrupt-frame segment={} offset={} reason={:?}",
                c.segment, c.offset, c.reason
            ));
        }
        for name in &self.missing {
            out.push(format!("missing-segment segment={name}"));
        }
        for name in &self.unreferenced {
            out.push(format!("unreferenced-segment segment={name}"));
        }
        for action in &self.actions {
            out.push(format!("repaired {action}"));
        }
        out.push(format!(
            "summary segments={} frames={} rows={} distinct={} clean={}",
            self.segments,
            self.frames,
            self.rows,
            self.distinct,
            self.is_clean()
        ));
        out
    }
}

/// What `compact` did.
#[derive(Debug)]
pub struct CompactReport {
    pub segments_before: usize,
    pub segments_after: usize,
    pub rows_before: usize,
    pub rows_after: usize,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

fn read_manifest(dir: &Path) -> Result<Option<Manifest>, String> {
    Manifest::load(dir).map_err(|e| match e {
        StoreError::Io { source, .. } => format!("unreadable: {source}"),
        e => format!("unparseable: {e}"),
    })
}

/// Read-only integrity check of the store at `dir`.
///
/// # Errors
///
/// [`StoreError::Manifest`] when `dir` holds no store at all (no
/// manifest and no segments); [`StoreError::Io`] when the directory
/// itself cannot be read. Damage inside the store is *not* an error —
/// it lands in the report.
pub fn verify(dir: &Path) -> Result<FsckReport, StoreError> {
    let mut report = FsckReport::default();
    let manifest = match read_manifest(dir) {
        Ok(m) => m,
        Err(issue) => {
            report.manifest_issues.push(issue);
            None
        }
    };
    let on_disk = list_segment_files(dir)?;
    if manifest.is_none() {
        if on_disk.is_empty() && report.manifest_issues.is_empty() {
            return Err(StoreError::Manifest {
                path: dir.join(MANIFEST),
                reason: "no store at this path".to_string(),
            });
        }
        if report.manifest_issues.is_empty() {
            report
                .manifest_issues
                .push(format!("manifest missing but {} segments present", on_disk.len()));
        }
    }

    let referenced: HashSet<String> =
        manifest.iter().flat_map(|m| &m.segments).map(|s| s.name.clone()).collect();
    if manifest.is_some() {
        // Adopted-but-uncommitted frames are healthy data, but the lag
        // means the last writer did not shut down cleanly; surface the
        // tear (if any), not the adoption.
        let found = Store::open_reader(dir)?.recovery().clone();
        (report.segments, report.frames, report.rows) = (found.segments, found.frames, found.rows);
        (report.distinct, report.torn) = (found.distinct, found.torn);
        (report.corrupt, report.missing) = (found.corrupt, found.missing);
    }
    for name in &on_disk {
        if !referenced.contains(name) {
            report.segments += 1;
            report.unreferenced.push(name.clone());
        }
    }
    Ok(report)
}

/// What repair keeps of one segment: every CRC-valid, decodable frame
/// anywhere in the file. The bytes from `data_start` that lie outside
/// them are damage, destined for quarantine.
struct Spans {
    /// Whether the header parses, and where frames start (0 when not).
    header_ok: bool,
    data_start: u64,
    /// The file's length, and the (start, end) ranges of good frames.
    len: u64,
    keep: Vec<(u64, u64)>,
    rows: u64,
}

impl Spans {
    /// (start, end) byte ranges of damage, in order: the gaps between
    /// the kept frames and after the last.
    fn bad(&self) -> Vec<(u64, u64)> {
        let mut from = self.data_start;
        let mut bad = Vec::new();
        for &(at, end) in self.keep.iter().chain([&(self.len, self.len)]) {
            if at > from {
                bad.push((from, at));
            }
            from = end;
        }
        bad
    }
}

/// Walks the segment at `path` under repair's rule: every good frame is
/// kept, wherever it is; after damage the walk resyncs on the next frame
/// magic, and a damaged header is walked as frames from byte 0.
fn spans(path: &Path) -> std::io::Result<Spans> {
    let file = File::open(path)?;
    let mut walk = Walker::new(&file)?;
    let len = walk.file_len();
    let mut out = Spans { header_ok: false, data_start: 0, len, keep: Vec::new(), rows: 0 };
    while let Some(step) = walk.step()? {
        match step {
            Step::Header { parsed: Ok((_, start)), .. } => {
                (out.header_ok, out.data_start) = (true, start);
            }
            Step::Header { .. } => walk.seek(0),
            Step::Frame { at, payload, end } => {
                if let Ok(digests) = frame::block_digests(payload) {
                    out.keep.push((at, end));
                    out.rows += digests.len() as u64;
                }
            }
            Step::Damage { .. } | Step::Truncated { .. } => {}
        }
    }
    Ok(out)
}

/// The engine tag in the header of the segment at `path`, if it parses.
fn segment_tag(path: &Path) -> Option<String> {
    let file = File::open(path).ok()?;
    match Walker::new(&file).ok()?.step() {
        Ok(Some(Step::Header { parsed: Ok((tag, _)), .. })) => Some(tag),
        _ => None,
    }
}

fn quarantine_bytes(dir: &Path, name: &str, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
    let qdir = dir.join(QUARANTINE);
    std::fs::create_dir_all(&qdir).map_err(|e| io_err(&qdir, e))?;
    let path = qdir.join(format!("{name}.at{offset}.bin"));
    std::fs::write(&path, bytes).map_err(|e| io_err(&path, e))
}

/// Repairs the store at `dir` in place and returns the final report
/// (its `actions` list what changed; it is clean on success).
///
/// # Errors
///
/// [`StoreError::Locked`] while a live writer holds the store;
/// [`StoreError::Manifest`] when the store is unrepairable (no
/// manifest *and* no segment with a readable engine tag);
/// [`StoreError::Io`] / [`StoreError::Unwritable`] when the repair
/// itself cannot write (e.g. a read-only directory).
pub fn repair(dir: &Path) -> Result<FsckReport, StoreError> {
    let _lock = writer_lock(dir)?;
    let mut actions: Vec<String> = Vec::new();

    // Every manifest write holds the writer lock, so with the lock held
    // here any manifest temp file is a crashed writer's leftover.
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let Some(name) = entry.file_name().to_str().map(str::to_string) else { continue };
        if is_temp_of(&name, MANIFEST) {
            std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
            actions.push(format!("removed orphaned manifest temp file {name}"));
        }
    }

    // Recover the engine tag: manifest first, segment headers second.
    let manifest = read_manifest(dir).unwrap_or(None);
    let on_disk = list_segment_files(dir)?;
    let tag = manifest.as_ref().map(|m| m.tag.clone());
    let Some(tag) = tag.or_else(|| on_disk.iter().find_map(|name| segment_tag(&dir.join(name))))
    else {
        return Err(StoreError::Manifest {
            path: dir.join(MANIFEST),
            reason: "unrepairable: no manifest and no segment with a readable engine tag"
                .to_string(),
        });
    };

    // Union of referenced and on-disk segments, in stable name order.
    let referenced: HashSet<String> =
        manifest.iter().flat_map(|m| &m.segments).map(|s| s.name.clone()).collect();
    let names: BTreeSet<&String> = on_disk.iter().chain(&referenced).collect();

    let mut segments: Vec<SegmentMeta> = Vec::new();
    for name in &names {
        let path = dir.join(name);
        let s = match spans(&path) {
            Ok(s) => s,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                actions.push(format!("dropped missing segment {name} from manifest"));
                continue;
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        let bad = s.bad();
        let committed_len = if bad.is_empty() && s.header_ok {
            s.len // Fully healthy; keep as-is (possibly adopting it).
        } else {
            // The rewrite is the one place that holds a whole segment.
            let buf = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
            if !s.header_ok && s.keep.is_empty() {
                quarantine_bytes(dir, name, 0, &buf)?;
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                actions.push(format!("quarantined unreadable segment {name}"));
                continue;
            }
            // Rewrite the segment as header + good frames; quarantine the
            // damaged ranges (a torn tail is just the final bad range).
            // Tmp-then-rename keeps the swap atomic.
            for &(from, to) in &bad {
                quarantine_bytes(dir, name, from, &buf[from as usize..to as usize])?;
                actions.push(format!("quarantined {} bytes of {name} at offset {from}", to - from));
            }
            let mut rebuilt = frame::segment_header(&tag);
            for &(from, to) in &s.keep {
                rebuilt.extend_from_slice(&buf[from as usize..to as usize]);
            }
            atomic_write(&path, &rebuilt)?;
            if !s.header_ok {
                actions.push(format!("rebuilt damaged header of {name}"));
            }
            rebuilt.len() as u64
        };
        if !referenced.contains(*name) {
            actions.push(format!("adopted unreferenced segment {name}"));
        }
        segments.push(SegmentMeta { name: name.to_string(), committed_len, rows: s.rows });
    }

    if manifest.is_none() {
        actions.push("rebuilt manifest from segment headers".to_string());
    }
    atomic_write(&dir.join(MANIFEST), Manifest { tag, segments }.render().as_bytes())?;

    // The returned report describes the *post-repair* state (clean on
    // success) with the actions that got it there.
    let mut report = verify(dir)?;
    report.actions = actions;
    Ok(report)
}

/// Rewrites the store with duplicate digests dropped (last wins) and
/// frames repacked into fresh segments.
///
/// # Errors
///
/// [`StoreError::Locked`] while a writer holds the store; damage that
/// `verify` would report must be repaired first and yields
/// [`StoreError::Corrupt`] (first instance) here.
pub fn compact(dir: &Path) -> Result<CompactReport, StoreError> {
    let _lock = writer_lock(dir)?;
    let manifest = match read_manifest(dir) {
        Ok(Some(m)) => m,
        Ok(None) | Err(_) => {
            return Err(StoreError::Manifest {
                path: dir.join(MANIFEST),
                reason: "compact needs a readable manifest (run store_fsck --repair first)"
                    .to_string(),
            })
        }
    };
    let store = Store::open_reader(dir)?;
    if let Some(c) = store.recovery().corrupt.first() {
        return Err(StoreError::Corrupt {
            segment: c.segment.clone(),
            offset: c.offset,
            reason: format!("{} (run store_fsck --repair before compacting)", c.reason),
        });
    }
    // Name the replacement before anything is written: compaction adds a
    // segment, so it needs an id past every file on disk.
    let name = next_segment(dir, list_segment_files(dir)?.iter().map(String::as_str))?;
    let rows = store.rows()?;
    let rows_before = store.recovery().rows;
    let on_disk = |seg: &SegmentMeta| std::fs::metadata(dir.join(&seg.name)).ok();
    let bytes_before = manifest.segments.iter().filter_map(on_disk).map(|m| m.len()).sum();

    // Write the replacement segment under its fresh id, then commit the
    // swap with one manifest rename, then drop the old files.
    let path = dir.join(&name);
    let mut out = frame::segment_header(&manifest.tag);
    for chunk in rows.chunks(512) {
        // Decoded rows always satisfy the encoder limits, but a chunk
        // could in principle overflow a block; split rather than fail.
        let blocks = frame::encode_blocks(chunk)
            .map_err(|reason| io_err(&path, std::io::Error::other(format!("encode: {reason}"))))?;
        for block in &blocks {
            out.extend_from_slice(&frame::frame_bytes(block));
        }
    }
    atomic_write(&path, &out)?;
    let new_segments = vec![SegmentMeta {
        name: name.clone(),
        committed_len: out.len() as u64,
        rows: rows.len() as u64,
    }];
    atomic_write(
        &dir.join(MANIFEST),
        Manifest { tag: manifest.tag.clone(), segments: new_segments }.render().as_bytes(),
    )?;
    for seg in &manifest.segments {
        if seg.name != name {
            let _ = std::fs::remove_file(dir.join(&seg.name));
        }
    }
    Ok(CompactReport {
        segments_before: manifest.segments.len(),
        segments_after: 1,
        rows_before,
        rows_after: rows.len(),
        bytes_before,
        bytes_after: out.len() as u64,
    })
}
