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
//! Every rewrite follows the store's journal protocol: new bytes are
//! written and fsynced first, the manifest rename is the commit, and
//! only then are superseded files removed — so a crash mid-repair or
//! mid-compact leaves a store that verify/repair can classify again.

use crate::frame;
use crate::lockfile::{is_temp_of, LOCK_TIMEOUT};
use crate::store::{
    atomic_write, io_err, list_segment_files, scan_segment, segment_id, segment_name, writer_lock,
    Manifest, SegmentMeta, MANIFEST, QUARANTINE,
};
use crate::{Corruption, Row, StoreError, Torn};
use std::collections::{HashMap, HashSet};
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
    let path = dir.join(MANIFEST);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("unreadable: {e}"))?;
    Manifest::parse(&text, &path).map(Some).map_err(|e| format!("unparseable: {e}"))
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

    let referenced: Vec<SegmentMeta> = manifest.map(|m| m.segments).unwrap_or_default();
    let referenced_names: HashSet<&str> = referenced.iter().map(|s| s.name.as_str()).collect();
    let mut digests: HashSet<u128> = HashSet::new();

    for seg in &referenced {
        let path = dir.join(&seg.name);
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                report.missing.push(seg.name.clone());
                continue;
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        report.segments += 1;
        let scan = scan_segment(&buf, &seg.name, seg.committed_len, frame::block_digests);
        report.frames += scan.frames;
        report.rows += scan.rows.len();
        digests.extend(scan.rows);
        report.corrupt.extend(scan.corrupt);
        // Adopted-but-uncommitted frames are healthy data, but the lag
        // means the last writer did not shut down cleanly; surface the
        // tear (if any), not the adoption.
        if let Some(at) = scan.torn_at {
            report.torn.push(Torn {
                segment: seg.name.clone(),
                offset: at,
                dropped: buf.len() as u64 - at,
            });
        }
    }
    for name in &on_disk {
        if !referenced_names.contains(name.as_str()) {
            report.segments += 1;
            report.unreferenced.push(name.clone());
        }
    }
    report.distinct = digests.len();
    Ok(report)
}

/// One salvage pass over raw segment bytes: every CRC-valid, decodable
/// frame anywhere in the file is kept; everything else is a bad byte
/// range destined for quarantine.
struct Salvage {
    /// (start, end) byte ranges of good frames, in order.
    keep: Vec<(usize, usize)>,
    /// (start, end) byte ranges of damaged bytes, in order.
    bad: Vec<(usize, usize)>,
    rows: usize,
}

fn salvage(buf: &[u8], data_start: usize) -> Salvage {
    let mut out = Salvage { keep: Vec::new(), bad: Vec::new(), rows: 0 };
    let mut at = data_start;
    let mut bad_from: Option<usize> = None;
    let close_bad = |bad_from: &mut Option<usize>, upto: usize, out: &mut Salvage| {
        if let Some(from) = bad_from.take() {
            if upto > from {
                out.bad.push((from, upto));
            }
        }
    };
    while at < buf.len() {
        match frame::parse_frame(buf, at) {
            frame::Parsed::Frame { payload, end } => match frame::block_digests(payload) {
                Ok(digests) => {
                    close_bad(&mut bad_from, at, &mut out);
                    out.keep.push((at, end));
                    out.rows += digests.len();
                    at = end;
                }
                Err(_) => {
                    if bad_from.is_none() {
                        bad_from = Some(at);
                    }
                    at = end;
                }
            },
            frame::Parsed::BadCrc { .. } | frame::Parsed::BadMagic | frame::Parsed::Truncated => {
                if bad_from.is_none() {
                    bad_from = Some(at);
                }
                match frame::resync(buf, at) {
                    Some(next) => at = next,
                    None => {
                        at = buf.len();
                        break;
                    }
                }
            }
        }
    }
    close_bad(&mut bad_from, at.max(buf.len()), &mut out);
    out
}

fn quarantine_bytes(dir: &Path, name: &str, offset: usize, bytes: &[u8]) -> Result<(), StoreError> {
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
    let _lock = writer_lock(dir, LOCK_TIMEOUT)?;
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
    let mut tag = manifest.as_ref().map(|m| m.tag.clone());
    if tag.is_none() {
        for name in &on_disk {
            if let Ok(buf) = std::fs::read(dir.join(name)) {
                if let Ok((t, _)) = frame::parse_segment_header(&buf) {
                    tag = Some(t);
                    break;
                }
            }
        }
    }
    let Some(tag) = tag else {
        return Err(StoreError::Manifest {
            path: dir.join(MANIFEST),
            reason: "unrepairable: no manifest and no segment with a readable engine tag"
                .to_string(),
        });
    };

    // Union of referenced and on-disk segments, in stable name order.
    let mut names: Vec<String> = on_disk.clone();
    for seg in manifest.iter().flat_map(|m| &m.segments) {
        if !names.contains(&seg.name) {
            names.push(seg.name.clone());
        }
    }
    names.sort();
    let referenced: HashSet<String> =
        manifest.iter().flat_map(|m| &m.segments).map(|s| s.name.clone()).collect();

    let mut segments: Vec<SegmentMeta> = Vec::new();
    for name in &names {
        let path = dir.join(name);
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                actions.push(format!("dropped missing segment {name} from manifest"));
                continue;
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        let header_ok = frame::parse_segment_header(&buf).is_ok();
        let data_start = frame::parse_segment_header(&buf).map(|(_, s)| s).unwrap_or(0);
        let s = salvage(&buf, data_start);
        if !header_ok && s.keep.is_empty() {
            quarantine_bytes(dir, name, 0, &buf)?;
            std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            actions.push(format!("quarantined unreadable segment {name}"));
            continue;
        }
        if s.bad.is_empty() && header_ok && buf.len() == s.keep.last().map_or(data_start, |k| k.1) {
            // Fully healthy; keep as-is (possibly adopting it).
            if !referenced.contains(name) {
                actions.push(format!("adopted unreferenced segment {name}"));
            }
            segments.push(SegmentMeta {
                name: name.clone(),
                committed_len: buf.len() as u64,
                rows: s.rows as u64,
            });
            continue;
        }
        // Rewrite the segment as header + good frames; quarantine the
        // damaged ranges (a torn tail is just the final bad range).
        // Tmp-then-rename keeps the swap atomic.
        for &(from, to) in &s.bad {
            quarantine_bytes(dir, name, from, &buf[from..to])?;
            actions.push(format!("quarantined {} bytes of {name} at offset {from}", to - from));
        }
        let mut rebuilt = frame::segment_header(&tag);
        for &(from, to) in &s.keep {
            rebuilt.extend_from_slice(&buf[from..to]);
        }
        atomic_write(&path, &rebuilt)?;
        if !header_ok {
            actions.push(format!("rebuilt damaged header of {name}"));
        }
        if !referenced.contains(name) {
            actions.push(format!("adopted unreferenced segment {name}"));
        }
        segments.push(SegmentMeta {
            name: name.clone(),
            committed_len: rebuilt.len() as u64,
            rows: s.rows as u64,
        });
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
    let _lock = writer_lock(dir, LOCK_TIMEOUT)?;
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
    let check = verify(dir)?;
    if let Some(c) = check.corrupt.first() {
        return Err(StoreError::Corrupt {
            segment: c.segment.clone(),
            offset: c.offset,
            reason: format!("{} (run store_fsck --repair before compacting)", c.reason),
        });
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut index: HashMap<u128, usize> = HashMap::new();
    let mut bytes_before = 0u64;
    for seg in &manifest.segments {
        let path = dir.join(&seg.name);
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(io_err(&path, e)),
        };
        bytes_before += buf.len() as u64;
        for row in scan_segment(&buf, &seg.name, seg.committed_len, frame::decode_block).rows {
            match index.get(&row.digest) {
                Some(&i) => rows[i] = row,
                None => {
                    index.insert(row.digest, rows.len());
                    rows.push(row);
                }
            }
        }
    }
    let rows_before = check.rows;

    // Write the replacement segments under fresh ids, then commit the
    // swap with one manifest rename, then drop the old files.
    let next_id = list_segment_files(dir)?
        .iter()
        .map(String::as_str)
        .filter_map(segment_id)
        .max()
        .unwrap_or(0)
        + 1;
    let name = segment_name(next_id);
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
