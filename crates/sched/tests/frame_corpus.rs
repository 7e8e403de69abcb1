//! A damage corpus for the three readers of the one segment format: store
//! recovery and `Store::rows`, `fsck` (verify, repair, compact) and the
//! result cache's pack scan. The segment and the pack here each span
//! three or more 64 KiB read chunks: frames run from 100 bytes to more
//! than a chunk, one frame magic straddles a chunk edge and one frame
//! header's length field does. Each case cuts the file, or
//! flips one bit, at a chunk boundary or one byte on either side of it;
//! others claim a payload longer than the file or damage the segment
//! header. What every reader made of every case is pinned in [`PINNED`]:
//! recovery summaries, `fsck` report lines, the rows a scan returns (as a
//! CRC of their digests and makespans) and the cache's counters.
//!
//! Two property tests damage the same files at random, mostly near chunk
//! boundaries, and hold the chunked readers to references that parse the
//! whole file in memory: the store's recovery and repair, and the cache's
//! scan.

use corescope_sched::{ComputeClaim, Digest, ResultCache, ENGINE_TAG};
use corescope_store::frame::{Parsed, FRAME_MAGIC};
use corescope_store::{frame, fsck, Row, Store};
use proptest::prelude::*;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The read chunk every boundary case is placed around.
const CHUNK: usize = 64 * 1024;
/// Engine tag of the corpus store.
const TAG: &str = "corescope-engine-corpus";

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "corescope-frame-corpus-{label}-{}-{:?}",
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

/// splitmix64 of `k`: digests without a rand dependency.
fn mix(k: u64) -> u64 {
    let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row `k` of the store corpus, with a few axis strings to share.
fn store_row(k: u64) -> Row {
    let pick = |set: &[&str], salt: u64| -> std::sync::Arc<str> {
        set[(mix(k ^ salt) % set.len() as u64) as usize].into()
    };
    Row {
        digest: u128::from(mix(k)) << 64 | u128::from(mix(!k)),
        system: pick(&["dmz", "longs", "shc"], 1),
        fidelity: pick(&["quick", "full"], 2),
        placement: pick(&["scatter-local", "scheme-a"], 3),
        mpi: "mpich2".into(),
        lock: "sysv".into(),
        workload: pick(&["bsp", "stream", "alltoall", "dgemm"], 4),
        nranks: (k % 64 + 1) as u32,
        makespan: k as f64 * 0.25,
        events: k,
        faults_applied: k % 7,
        checkpoints_taken: k % 5,
        recoveries: k % 3,
        retries: k % 9,
    }
}

fn framed(rows: &[Row]) -> Vec<u8> {
    frame::frame_bytes(&frame::encode_block(rows).unwrap())
}

/// A one-row frame of `len` bytes (103 to 65,637): `row` with every axis
/// empty but the workload, which pads the dictionary.
fn padded(row: Row, len: usize) -> Vec<u8> {
    assert!(len >= 103, "a padded frame is at least 103 bytes, not {len}");
    let empty: std::sync::Arc<str> = "".into();
    let out = framed(&[Row {
        system: empty.clone(),
        fidelity: empty.clone(),
        placement: empty.clone(),
        mpi: empty.clone(),
        lock: empty,
        workload: "x".repeat(len - 102).into(),
        ..row
    }]);
    assert_eq!(out.len(), len);
    out
}

/// The store corpus segment: its bytes and the end of each frame.
///
/// Frames: 1, 10 and 1,000 rows (the last spans the first chunk
/// boundary), a pad so that the next frame's magic straddles the second
/// boundary, 100 rows, a pad so that the next frame's length field
/// straddles the third, 900 rows (spanning the fourth) and two rows, one
/// of them a second copy of row 0's digest with other values.
fn store_segment() -> (Vec<u8>, Vec<usize>) {
    let mut seg = frame::segment_header(TAG);
    let mut ends = Vec::new();
    let mut next = 0u64;
    let mut rows = |n: u64| -> Vec<Row> {
        let out = (next..next + n).map(store_row).collect();
        next += n;
        out
    };
    let mut push = |seg: &mut Vec<u8>, bytes: Vec<u8>| {
        seg.extend_from_slice(&bytes);
        ends.push(seg.len());
    };
    for n in [1, 10, 1_000] {
        push(&mut seg, framed(&rows(n)));
    }
    let pad = 2 * CHUNK - 2 - seg.len();
    push(&mut seg, padded(rows(1).remove(0), pad));
    push(&mut seg, framed(&rows(100)));
    let pad = 3 * CHUNK - 6 - seg.len();
    push(&mut seg, padded(rows(1).remove(0), pad));
    push(&mut seg, framed(&rows(900)));
    let again = Row { makespan: -1.0, events: 99, ..store_row(0) };
    push(&mut seg, framed(&[rows(1).remove(0), again]));
    assert!(seg.len() > 4 * CHUNK, "{} bytes", seg.len());
    (seg, ends)
}

/// Writes a one-segment store whose manifest commits `committed` bytes.
fn write_store(dir: &Path, seg: &[u8], committed: usize) {
    std::fs::write(dir.join("seg-00000001.css"), seg).unwrap();
    let manifest =
        format!("corescope-store v1\ntag {TAG}\nsegment seg-00000001.css {committed} 0\n");
    std::fs::write(dir.join("MANIFEST"), manifest).unwrap();
}

/// The rows a reader scans: how many, and a CRC of their digests and
/// makespans in scan order.
fn rows_of(dir: &Path) -> String {
    let rows = match Store::open_reader(dir).and_then(|store| store.rows()) {
        Ok(rows) => rows,
        Err(e) => return format!("error {e}"),
    };
    let mut bytes = Vec::with_capacity(rows.len() * 24);
    for row in &rows {
        bytes.extend_from_slice(&row.digest.to_le_bytes());
        bytes.extend_from_slice(&row.makespan.to_bits().to_le_bytes());
    }
    format!("{} crc {:08x}", rows.len(), frame::crc32(&bytes))
}

/// Everything the store and `fsck` make of one damaged segment, in one
/// line: reader recovery, the rows scanned, verify, repair, the rows
/// after repair, compaction and verify after it.
fn store_case(label: &str, seg: &[u8], committed: usize) -> String {
    let tmp = TempDir::new("store");
    let dir = tmp.path();
    write_store(dir, seg, committed);
    let recovery = match Store::open_reader(dir) {
        Ok(store) => store.recovery().summary(),
        Err(e) => format!("error {e}"),
    };
    let rows = rows_of(dir);
    let lines = |report: Result<fsck::FsckReport, corescope_store::StoreError>| match report {
        Ok(report) => report.lines().join("; "),
        Err(e) => format!("error {e}"),
    };
    let verify = lines(fsck::verify(dir));
    let repair = lines(fsck::repair(dir));
    let repaired = rows_of(dir);
    let compact = match fsck::compact(dir) {
        Ok(r) => format!(
            "segments {}->{} rows {}->{} bytes {}->{}",
            r.segments_before,
            r.segments_after,
            r.rows_before,
            r.rows_after,
            r.bytes_before,
            r.bytes_after
        ),
        Err(e) => format!("error {e}"),
    };
    let compacted = lines(fsck::verify(dir));
    format!(
        "store {label}: {recovery} | rows {rows} | verify {verify} | repair {repair} | \
         rows {repaired} | compact {compact} | verify {compacted}"
    )
}

fn cut(bytes: &[u8], at: usize) -> Vec<u8> {
    bytes[..at].to_vec()
}

fn flip(bytes: &[u8], at: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= bit;
    out
}

/// Sets the length field of the frame starting at `at`.
fn claim(bytes: &[u8], at: usize, len: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    assert_eq!(out[at..at + 4], frame::FRAME_MAGIC);
    out[at + 4..at + 8].copy_from_slice(&len.to_le_bytes());
    out
}

fn store_cases() -> Vec<String> {
    let (seg, ends) = store_segment();
    let mut out = Vec::new();
    // Committed to the end, and committed only to the frame spanning the
    // first boundary, so that every later frame is adopted or torn.
    for (variant, committed) in [("full", seg.len()), ("partial", ends[2])] {
        out.push(store_case(&format!("{variant} whole"), &seg, committed));
        for boundary in (CHUNK..seg.len()).step_by(CHUNK) {
            for at in boundary - 1..=boundary + 1 {
                out.push(store_case(&format!("{variant} cut@{at}"), &cut(&seg, at), committed));
                for bit in [0x01, 0x80] {
                    let label = format!("{variant} flip@{at}^{bit:#04x}");
                    out.push(store_case(&label, &flip(&seg, at, bit), committed));
                }
            }
        }
        // The frame whose magic straddles the second boundary claims more
        // than the file holds, then more than any frame may.
        for len in [0x00FF_FFFF, u32::MAX] {
            let label = format!("{variant} claim@{}={len:#x}", ends[3]);
            out.push(store_case(&label, &claim(&seg, ends[3], len), committed));
        }
        // The ten-row frame claims 2,000 bytes more, ending inside the next
        // frame: a bad CRC, and the walk resyncs on the next frame's magic.
        let len = (ends[1] - ends[0] - frame::FRAME_HEADER + 2_000) as u32;
        let label = format!("{variant} claim@{}={len}", ends[0]);
        out.push(store_case(&label, &claim(&seg, ends[0], len), committed));
        // The last frame claims a payload one byte past the end.
        let last = ends[ends.len() - 2];
        let len = (seg.len() - last - frame::FRAME_HEADER + 1) as u32;
        out.push(store_case(
            &format!("{variant} claim@{last}={len}"),
            &claim(&seg, last, len),
            committed,
        ));
        // A damaged header: magic, version, and a file cut inside it.
        out.push(store_case(&format!("{variant} header-magic"), &flip(&seg, 0, 0x01), committed));
        out.push(store_case(&format!("{variant} header-version"), &flip(&seg, 4, 0x02), committed));
        out.push(store_case(&format!("{variant} header-cut"), &cut(&seg, 5), committed));
    }
    out
}

/// Cache entry `k`'s digest and value.
fn entry_digest(k: u64) -> Digest {
    Digest(u128::from(mix(k ^ 0xCAC4E)) << 64 | u128::from(k))
}

fn entry_row(k: u64) -> Row {
    Row { digest: entry_digest(k).0, makespan: k as f64, events: k, ..Row::default() }
}

/// The cache corpus pack: its bytes and how many entries it holds.
///
/// 100-byte entries up to a padded entry whose successor's magic
/// straddles the first chunk boundary, 30 more, a 900-row frame (larger
/// than a chunk and than any entry, so damage to the cache) across the
/// second boundary, entries up to one whose length field straddles the
/// third boundary, then 300 more.
fn cache_pack() -> (Vec<u8>, u64) {
    let mut pack = frame::segment_header(ENGINE_TAG);
    let mut k = 0u64;
    let fill_to = |pack: &mut Vec<u8>, k: &mut u64, target: usize| {
        while target - pack.len() >= 100 + 103 {
            pack.extend_from_slice(&framed(&[entry_row(*k)]));
            *k += 1;
        }
        let pad = target - pack.len();
        pack.extend_from_slice(&padded(entry_row(*k), pad));
        *k += 1;
    };
    fill_to(&mut pack, &mut k, CHUNK - 2);
    for _ in 0..30 {
        pack.extend_from_slice(&framed(&[entry_row(k)]));
        k += 1;
    }
    pack.extend_from_slice(&framed(
        &(0..900).map(|i| store_row(1_000_000 + i)).collect::<Vec<_>>(),
    ));
    assert!(pack.len() > 2 * CHUNK);
    fill_to(&mut pack, &mut k, 3 * CHUNK - 6);
    for _ in 0..300 {
        pack.extend_from_slice(&framed(&[entry_row(k)]));
        k += 1;
    }
    (pack, k)
}

fn pack_path(root: &Path) -> PathBuf {
    root.join(ENGINE_TAG).join("pack-1-0.css")
}

fn write_pack(root: &Path, bytes: &[u8]) {
    std::fs::create_dir_all(root.join(ENGINE_TAG)).unwrap();
    std::fs::write(pack_path(root), bytes).unwrap();
}

/// Looks every entry up in `reader`: how many hit, and a CRC of which.
fn served(reader: &ResultCache, entries: u64) -> String {
    let mut hits = Vec::new();
    for k in 0..entries {
        if let Some((result, _)) = reader.get(entry_digest(k)) {
            assert_eq!(result.makespan, k as f64, "entry {k} served another's result");
            hits.extend_from_slice(&k.to_le_bytes());
        }
    }
    format!("hits {} crc {:08x}", hits.len() / 8, frame::crc32(&hits))
}

fn counters(reader: &ResultCache) -> String {
    let s = reader.stats();
    format!("corrupt {} disk errors {}", s.corrupt_entries, s.disk_errors)
}

/// A rescan that finds nothing new: what it adds to the counters.
fn rescan(reader: &ResultCache) {
    match reader.claim_compute(entry_digest(u64::MAX)) {
        ComputeClaim::Owner(lock) => drop(lock),
        ComputeClaim::Published(_) => panic!("nothing publishes the absent digest"),
    }
}

/// What a fresh cache makes of `pack`: the entries served and the
/// counters, then the counters after a rescan.
fn cache_case(label: &str, pack: &[u8], entries: u64) -> String {
    let tmp = TempDir::new("cache");
    write_pack(tmp.path(), pack);
    let reader = ResultCache::on_disk(tmp.path());
    let served = served(&reader, entries);
    let scanned = counters(&reader);
    rescan(&reader);
    format!("cache {label}: {served}, {scanned} | rescan {}", counters(&reader))
}

fn append(path: &Path, bytes: &[u8]) {
    OpenOptions::new().append(true).open(path).unwrap().write_all(bytes).unwrap();
}

fn cache_cases() -> Vec<String> {
    let (pack, entries) = cache_pack();
    let mut out = vec![cache_case("whole", &pack, entries)];
    for boundary in (CHUNK..pack.len()).step_by(CHUNK) {
        for at in boundary - 1..=boundary + 1 {
            out.push(cache_case(&format!("cut@{at}"), &cut(&pack, at), entries));
            for bit in [0x01, 0x80] {
                out.push(cache_case(
                    &format!("flip@{at}^{bit:#04x}"),
                    &flip(&pack, at, bit),
                    entries,
                ));
            }
        }
    }
    // The entry whose magic straddles the first boundary claims a payload
    // under the entry limit but past the file's end, then one past the
    // limit; the last entry claims one byte more than the file holds.
    let straddling = CHUNK - 2;
    for len in [1_000, 0x00FF_FFFF] {
        let label = format!("claim@{straddling}={len:#x}");
        out.push(cache_case(&label, &claim(&pack, straddling, len), entries));
    }
    let last = pack.len() - 100;
    out.push(cache_case(&format!("claim@{last}=89"), &claim(&pack, last, 89), entries));
    out.push(cache_case("header-magic", &flip(&pack, 0, 0x01), entries));
    out.push(cache_case("header-cut", &cut(&pack, 5), entries));
    let mut foreign = frame::segment_header("another-engine");
    foreign.extend_from_slice(&pack[frame::segment_header(ENGINE_TAG).len()..]);
    out.push(cache_case("header-foreign", &foreign, entries));

    // Damage at the tail with no frame magic after it counts once, and
    // still once after entries are appended behind it and rescanned.
    let tmp = TempDir::new("cache-tail");
    let body = cut(&pack, CHUNK + 1_000);
    let mut garbage = body.clone();
    garbage.extend_from_slice(&[0xAA; 300]);
    write_pack(tmp.path(), &garbage);
    let reader = ResultCache::on_disk(tmp.path());
    let before = format!("{}, {}", served(&reader, entries), counters(&reader));
    let late = entries + 7;
    append(&pack_path(tmp.path()), &framed(&[entry_row(late)]));
    let published = matches!(reader.claim_compute(entry_digest(late)), ComputeClaim::Published(_));
    out.push(format!(
        "cache tail-garbage@{}: {before} | appended published {published}, {}",
        body.len(),
        counters(&reader)
    ));

    // The same, with the damage ending in the first three bytes of a frame
    // whose magic is completed by the next write.
    let tmp = TempDir::new("cache-tail-magic");
    let tail = framed(&[entry_row(late)]);
    let mut garbage = body.clone();
    garbage.extend_from_slice(&[0xAA; 300]);
    garbage.extend_from_slice(&tail[..3]);
    write_pack(tmp.path(), &garbage);
    let reader = ResultCache::on_disk(tmp.path());
    let before = format!("{}, {}", served(&reader, entries), counters(&reader));
    append(&pack_path(tmp.path()), &tail[3..]);
    let published = matches!(reader.claim_compute(entry_digest(late)), ComputeClaim::Published(_));
    out.push(format!(
        "cache tail-garbage-magic@{}: {before} | appended published {published}, {}",
        body.len(),
        counters(&reader)
    ));

    // A torn tail across the second boundary is a plain miss until the
    // frame is whole.
    let tmp = TempDir::new("cache-torn");
    let whole = cut(&pack, 3 * CHUNK - 6);
    let mut torn = whole.clone();
    torn.extend_from_slice(&tail[..10]);
    write_pack(tmp.path(), &torn);
    let reader = ResultCache::on_disk(tmp.path());
    let before = format!("{}, {}", served(&reader, entries), counters(&reader));
    append(&pack_path(tmp.path()), &tail[10..]);
    let published = matches!(reader.claim_compute(entry_digest(late)), ComputeClaim::Published(_));
    out.push(format!(
        "cache torn@{}: {before} | completed published {published}, {}",
        whole.len() + 10,
        counters(&reader)
    ));
    out
}

/// What every case gave when the corpus was first run.
const PINNED: &[&str] = &[
    "store full whole: store recovery: segments 1, rows 2015 (distinct 2014), adopted 0, torn 0, corrupt 0, missing 0 | rows 2014 crc e25f70c6 | verify summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | repair summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | rows 2014 crc e25f70c6 | compact segments 1->1 rows 2015->2014 bytes 268974->268699 | verify summary segments=1 frames=4 rows=2014 distinct=2014 clean=true",
    "store full cut@65535: store recovery: segments 1, rows 11 (distinct 11), adopted 0, torn 0, corrupt 1, missing 0 | rows 11 crc 2086d834 | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"bytes are not a frame\"; summary segments=1 frames=2 rows=11 distinct=11 clean=false | repair repaired quarantined 64443 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=2 rows=11 distinct=11 clean=true | rows 11 crc 2086d834 | compact segments 1->1 rows 11->11 bytes 1092->1028 | verify summary segments=1 frames=1 rows=11 distinct=11 clean=true",
    "store full flip@65535^0x01: store recovery: segments 1, rows 1015 (distinct 1014), adopted 0, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store full flip@65535^0x80: store recovery: segments 1, rows 1015 (distinct 1014), adopted 0, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store full cut@65536: store recovery: segments 1, rows 11 (distinct 11), adopted 0, torn 0, corrupt 1, missing 0 | rows 11 crc 2086d834 | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"bytes are not a frame\"; summary segments=1 frames=2 rows=11 distinct=11 clean=false | repair repaired quarantined 64444 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=2 rows=11 distinct=11 clean=true | rows 11 crc 2086d834 | compact segments 1->1 rows 11->11 bytes 1092->1028 | verify summary segments=1 frames=1 rows=11 distinct=11 clean=true",
    "store full flip@65536^0x01: store recovery: segments 1, rows 1015 (distinct 1014), adopted 0, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store full flip@65536^0x80: store recovery: segments 1, rows 1015 (distinct 1014), adopted 0, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store full cut@65537: store recovery: segments 1, rows 11 (distinct 11), adopted 0, torn 0, corrupt 1, missing 0 | rows 11 crc 2086d834 | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"bytes are not a frame\"; summary segments=1 frames=2 rows=11 distinct=11 clean=false | repair repaired quarantined 64445 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=2 rows=11 distinct=11 clean=true | rows 11 crc 2086d834 | compact segments 1->1 rows 11->11 bytes 1092->1028 | verify summary segments=1 frames=1 rows=11 distinct=11 clean=true",
    "store full flip@65537^0x01: store recovery: segments 1, rows 1015 (distinct 1014), adopted 0, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store full flip@65537^0x80: store recovery: segments 1, rows 1015 (distinct 1014), adopted 0, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store full cut@131071: store recovery: segments 1, rows 1012 (distinct 1012), adopted 0, torn 0, corrupt 1, missing 0 | rows 1012 crc 6c555bbd | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 1 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=4 rows=1012 distinct=1012 clean=true | rows 1012 crc 6c555bbd | compact segments 1->1 rows 1012->1012 bytes 131070->130988 | verify summary segments=1 frames=2 rows=1012 distinct=1012 clean=true",
    "store full flip@131071^0x01: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full flip@131071^0x80: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full cut@131072: store recovery: segments 1, rows 1012 (distinct 1012), adopted 0, torn 0, corrupt 1, missing 0 | rows 1012 crc 6c555bbd | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 2 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=4 rows=1012 distinct=1012 clean=true | rows 1012 crc 6c555bbd | compact segments 1->1 rows 1012->1012 bytes 131070->130988 | verify summary segments=1 frames=2 rows=1012 distinct=1012 clean=true",
    "store full flip@131072^0x01: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full flip@131072^0x80: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full cut@131073: store recovery: segments 1, rows 1012 (distinct 1012), adopted 0, torn 0, corrupt 1, missing 0 | rows 1012 crc 6c555bbd | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 3 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=4 rows=1012 distinct=1012 clean=true | rows 1012 crc 6c555bbd | compact segments 1->1 rows 1012->1012 bytes 131070->130988 | verify summary segments=1 frames=2 rows=1012 distinct=1012 clean=true",
    "store full flip@131073^0x01: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full flip@131073^0x80: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full cut@196607: store recovery: segments 1, rows 1113 (distinct 1113), adopted 0, torn 0, corrupt 1, missing 0 | rows 1113 crc 111a73dd | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 5 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store full flip@196607^0x01: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 2, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; corrupt-frame segment=seg-00000001.css offset=268463 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full flip@196607^0x80: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full cut@196608: store recovery: segments 1, rows 1113 (distinct 1113), adopted 0, torn 0, corrupt 1, missing 0 | rows 1113 crc 111a73dd | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 6 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store full flip@196608^0x01: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 2, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; corrupt-frame segment=seg-00000001.css offset=203183 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full flip@196608^0x80: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full cut@196609: store recovery: segments 1, rows 1113 (distinct 1113), adopted 0, torn 0, corrupt 1, missing 0 | rows 1113 crc 111a73dd | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 7 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store full flip@196609^0x01: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full flip@196609^0x80: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 2, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; corrupt-frame segment=seg-00000001.css offset=196614 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full cut@262143: store recovery: segments 1, rows 1113 (distinct 1113), adopted 0, torn 0, corrupt 1, missing 0 | rows 1113 crc 111a73dd | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 65541 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store full flip@262143^0x01: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full flip@262143^0x80: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full cut@262144: store recovery: segments 1, rows 1113 (distinct 1113), adopted 0, torn 0, corrupt 1, missing 0 | rows 1113 crc 111a73dd | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 65542 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store full flip@262144^0x01: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full flip@262144^0x80: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full cut@262145: store recovery: segments 1, rows 1113 (distinct 1113), adopted 0, torn 0, corrupt 1, missing 0 | rows 1113 crc 111a73dd | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"bytes are not a frame\"; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 65543 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store full flip@262145^0x01: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full flip@262145^0x80: store recovery: segments 1, rows 1115 (distinct 1114), adopted 0, torn 0, corrupt 1, missing 0 | rows 1114 crc 262d8576 | verify corrupt-frame segment=seg-00000001.css offset=196602 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1115 distinct=1114 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store full claim@131070=0xffffff: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 1, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full claim@131070=0xffffffff: store recovery: segments 1, rows 1915 (distinct 1914), adopted 0, torn 0, corrupt 2, missing 0 | rows 1914 crc a578d7f4 | verify corrupt-frame segment=seg-00000001.css offset=131070 reason=\"crc mismatch\"; corrupt-frame segment=seg-00000001.css offset=131082 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=1915 distinct=1914 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store full claim@175=2905: store recovery: segments 1, rows 2005 (distinct 2004), adopted 0, torn 0, corrupt 1, missing 0 | rows 2004 crc f5d8e253 | verify corrupt-frame segment=seg-00000001.css offset=175 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=2005 distinct=2004 clean=false | repair repaired quarantined 917 bytes of seg-00000001.css at offset 175; summary segments=1 frames=7 rows=2005 distinct=2004 clean=true | rows 2004 crc f5d8e253 | compact segments 1->1 rows 2005->2004 bytes 268057->267899 | verify summary segments=1 frames=4 rows=2004 distinct=2004 clean=true",
    "store full claim@268719=244: store recovery: segments 1, rows 2013 (distinct 2013), adopted 0, torn 0, corrupt 1, missing 0 | rows 2013 crc 26327802 | verify corrupt-frame segment=seg-00000001.css offset=268719 reason=\"bytes are not a frame\"; summary segments=1 frames=7 rows=2013 distinct=2013 clean=false | repair repaired quarantined 255 bytes of seg-00000001.css at offset 268719; summary segments=1 frames=7 rows=2013 distinct=2013 clean=true | rows 2013 crc 26327802 | compact segments 1->1 rows 2013->2013 bytes 268719->268619 | verify summary segments=1 frames=4 rows=2013 distinct=2013 clean=true",
    "store full header-magic: store recovery: segments 1, rows 0 (distinct 0), adopted 0, torn 0, corrupt 1, missing 0 | rows 0 crc 00000000 | verify corrupt-frame segment=seg-00000001.css offset=0 reason=\"segment header: bad segment magic [42, 53, 53, 47]\"; summary segments=1 frames=0 rows=0 distinct=0 clean=false | repair repaired quarantined 31 bytes of seg-00000001.css at offset 0; repaired rebuilt damaged header of seg-00000001.css; summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | rows 2014 crc e25f70c6 | compact segments 1->1 rows 2015->2014 bytes 268974->268699 | verify summary segments=1 frames=4 rows=2014 distinct=2014 clean=true",
    "store full header-version: store recovery: segments 1, rows 0 (distinct 0), adopted 0, torn 0, corrupt 1, missing 0 | rows 0 crc 00000000 | verify corrupt-frame segment=seg-00000001.css offset=0 reason=\"segment header: unsupported segment version 3\"; summary segments=1 frames=0 rows=0 distinct=0 clean=false | repair repaired quarantined 31 bytes of seg-00000001.css at offset 0; repaired rebuilt damaged header of seg-00000001.css; summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | rows 2014 crc e25f70c6 | compact segments 1->1 rows 2015->2014 bytes 268974->268699 | verify summary segments=1 frames=4 rows=2014 distinct=2014 clean=true",
    "store full header-cut: store recovery: segments 1, rows 0 (distinct 0), adopted 0, torn 0, corrupt 1, missing 0 | rows 0 crc 00000000 | verify corrupt-frame segment=seg-00000001.css offset=0 reason=\"segment header: payload truncated at byte 4 (wanted 2 more)\"; summary segments=1 frames=0 rows=0 distinct=0 clean=false | repair repaired quarantined unreadable segment seg-00000001.css; summary segments=0 frames=0 rows=0 distinct=0 clean=true | rows 0 crc 00000000 | compact segments 0->1 rows 0->0 bytes 0->31 | verify summary segments=1 frames=0 rows=0 distinct=0 clean=true",
    "store partial whole: store recovery: segments 1, rows 2015 (distinct 2014), adopted 5, torn 0, corrupt 0, missing 0 | rows 2014 crc e25f70c6 | verify summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | repair summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | rows 2014 crc e25f70c6 | compact segments 1->1 rows 2015->2014 bytes 268974->268699 | verify summary segments=1 frames=4 rows=2014 distinct=2014 clean=true",
    "store partial cut@65535: store recovery: segments 1, rows 11 (distinct 11), adopted 0, torn 0, corrupt 1, missing 0 | rows 11 crc 2086d834 | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"bytes are not a frame\"; summary segments=1 frames=2 rows=11 distinct=11 clean=false | repair repaired quarantined 64443 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=2 rows=11 distinct=11 clean=true | rows 11 crc 2086d834 | compact segments 1->1 rows 11->11 bytes 1092->1028 | verify summary segments=1 frames=1 rows=11 distinct=11 clean=true",
    "store partial flip@65535^0x01: store recovery: segments 1, rows 1015 (distinct 1014), adopted 5, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store partial flip@65535^0x80: store recovery: segments 1, rows 1015 (distinct 1014), adopted 5, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store partial cut@65536: store recovery: segments 1, rows 11 (distinct 11), adopted 0, torn 0, corrupt 1, missing 0 | rows 11 crc 2086d834 | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"bytes are not a frame\"; summary segments=1 frames=2 rows=11 distinct=11 clean=false | repair repaired quarantined 64444 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=2 rows=11 distinct=11 clean=true | rows 11 crc 2086d834 | compact segments 1->1 rows 11->11 bytes 1092->1028 | verify summary segments=1 frames=1 rows=11 distinct=11 clean=true",
    "store partial flip@65536^0x01: store recovery: segments 1, rows 1015 (distinct 1014), adopted 5, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store partial flip@65536^0x80: store recovery: segments 1, rows 1015 (distinct 1014), adopted 5, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store partial cut@65537: store recovery: segments 1, rows 11 (distinct 11), adopted 0, torn 0, corrupt 1, missing 0 | rows 11 crc 2086d834 | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"bytes are not a frame\"; summary segments=1 frames=2 rows=11 distinct=11 clean=false | repair repaired quarantined 64445 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=2 rows=11 distinct=11 clean=true | rows 11 crc 2086d834 | compact segments 1->1 rows 11->11 bytes 1092->1028 | verify summary segments=1 frames=1 rows=11 distinct=11 clean=true",
    "store partial flip@65537^0x01: store recovery: segments 1, rows 1015 (distinct 1014), adopted 5, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store partial flip@65537^0x80: store recovery: segments 1, rows 1015 (distinct 1014), adopted 5, torn 0, corrupt 1, missing 0 | rows 1014 crc c716c4de | verify corrupt-frame segment=seg-00000001.css offset=1092 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=1015 distinct=1014 clean=false | repair repaired quarantined 80117 bytes of seg-00000001.css at offset 1092; summary segments=1 frames=7 rows=1015 distinct=1014 clean=true | rows 1014 crc c716c4de | compact segments 1->1 rows 1015->1014 bytes 188857->188463 | verify summary segments=1 frames=2 rows=1014 distinct=1014 clean=true",
    "store partial cut@131071: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=1; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 1 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=4 rows=1012 distinct=1012 clean=true | rows 1012 crc 6c555bbd | compact segments 1->1 rows 1012->1012 bytes 131070->130988 | verify summary segments=1 frames=2 rows=1012 distinct=1012 clean=true",
    "store partial flip@131071^0x01: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial flip@131071^0x80: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial cut@131072: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=2; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 2 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=4 rows=1012 distinct=1012 clean=true | rows 1012 crc 6c555bbd | compact segments 1->1 rows 1012->1012 bytes 131070->130988 | verify summary segments=1 frames=2 rows=1012 distinct=1012 clean=true",
    "store partial flip@131072^0x01: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial flip@131072^0x80: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial cut@131073: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=3; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 3 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=4 rows=1012 distinct=1012 clean=true | rows 1012 crc 6c555bbd | compact segments 1->1 rows 1012->1012 bytes 131070->130988 | verify summary segments=1 frames=2 rows=1012 distinct=1012 clean=true",
    "store partial flip@131073^0x01: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial flip@131073^0x80: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial cut@196607: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=5; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 5 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store partial flip@196607^0x01: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial flip@196607^0x80: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial cut@196608: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=6; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 6 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store partial flip@196608^0x01: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial flip@196608^0x80: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial cut@196609: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=7; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 7 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store partial flip@196609^0x01: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial flip@196609^0x80: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial cut@262143: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=65541; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 65541 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store partial flip@262143^0x01: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial flip@262143^0x80: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial cut@262144: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=65542; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 65542 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store partial flip@262144^0x01: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial flip@262144^0x80: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial cut@262145: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=65543; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 65543 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=6 rows=1113 distinct=1113 clean=true | rows 1113 crc 111a73dd | compact segments 1->1 rows 1113->1113 bytes 196602->196502 | verify summary segments=1 frames=3 rows=1113 distinct=1113 clean=true",
    "store partial flip@262145^0x01: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial flip@262145^0x80: store recovery: segments 1, rows 1113 (distinct 1113), adopted 3, torn 1, corrupt 0, missing 0 | rows 1113 crc 111a73dd | verify torn-tail segment=seg-00000001.css offset=196602 dropped=72372; summary segments=1 frames=6 rows=1113 distinct=1113 clean=false | repair repaired quarantined 72117 bytes of seg-00000001.css at offset 196602; summary segments=1 frames=7 rows=1115 distinct=1114 clean=true | rows 1114 crc 262d8576 | compact segments 1->1 rows 1115->1114 bytes 196857->196582 | verify summary segments=1 frames=3 rows=1114 distinct=1114 clean=true",
    "store partial claim@131070=0xffffff: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial claim@131070=0xffffffff: store recovery: segments 1, rows 1012 (distinct 1012), adopted 1, torn 1, corrupt 0, missing 0 | rows 1012 crc 6c555bbd | verify torn-tail segment=seg-00000001.css offset=131070 dropped=137904; summary segments=1 frames=4 rows=1012 distinct=1012 clean=false | repair repaired quarantined 8117 bytes of seg-00000001.css at offset 131070; summary segments=1 frames=7 rows=1915 distinct=1914 clean=true | rows 1914 crc a578d7f4 | compact segments 1->1 rows 1915->1914 bytes 260857->260697 | verify summary segments=1 frames=4 rows=1914 distinct=1914 clean=true",
    "store partial claim@175=2905: store recovery: segments 1, rows 2005 (distinct 2004), adopted 5, torn 0, corrupt 1, missing 0 | rows 2004 crc f5d8e253 | verify corrupt-frame segment=seg-00000001.css offset=175 reason=\"crc mismatch\"; summary segments=1 frames=7 rows=2005 distinct=2004 clean=false | repair repaired quarantined 917 bytes of seg-00000001.css at offset 175; summary segments=1 frames=7 rows=2005 distinct=2004 clean=true | rows 2004 crc f5d8e253 | compact segments 1->1 rows 2005->2004 bytes 268057->267899 | verify summary segments=1 frames=4 rows=2004 distinct=2004 clean=true",
    "store partial claim@268719=244: store recovery: segments 1, rows 2013 (distinct 2013), adopted 4, torn 1, corrupt 0, missing 0 | rows 2013 crc 26327802 | verify torn-tail segment=seg-00000001.css offset=268719 dropped=255; summary segments=1 frames=7 rows=2013 distinct=2013 clean=false | repair repaired quarantined 255 bytes of seg-00000001.css at offset 268719; summary segments=1 frames=7 rows=2013 distinct=2013 clean=true | rows 2013 crc 26327802 | compact segments 1->1 rows 2013->2013 bytes 268719->268619 | verify summary segments=1 frames=4 rows=2013 distinct=2013 clean=true",
    "store partial header-magic: store recovery: segments 1, rows 0 (distinct 0), adopted 0, torn 1, corrupt 1, missing 0 | rows 0 crc 00000000 | verify torn-tail segment=seg-00000001.css offset=81209 dropped=187765; corrupt-frame segment=seg-00000001.css offset=0 reason=\"segment header: bad segment magic [42, 53, 53, 47]\"; summary segments=1 frames=0 rows=0 distinct=0 clean=false | repair repaired quarantined 31 bytes of seg-00000001.css at offset 0; repaired rebuilt damaged header of seg-00000001.css; summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | rows 2014 crc e25f70c6 | compact segments 1->1 rows 2015->2014 bytes 268974->268699 | verify summary segments=1 frames=4 rows=2014 distinct=2014 clean=true",
    "store partial header-version: store recovery: segments 1, rows 0 (distinct 0), adopted 0, torn 1, corrupt 1, missing 0 | rows 0 crc 00000000 | verify torn-tail segment=seg-00000001.css offset=81209 dropped=187765; corrupt-frame segment=seg-00000001.css offset=0 reason=\"segment header: unsupported segment version 3\"; summary segments=1 frames=0 rows=0 distinct=0 clean=false | repair repaired quarantined 31 bytes of seg-00000001.css at offset 0; repaired rebuilt damaged header of seg-00000001.css; summary segments=1 frames=8 rows=2015 distinct=2014 clean=true | rows 2014 crc e25f70c6 | compact segments 1->1 rows 2015->2014 bytes 268974->268699 | verify summary segments=1 frames=4 rows=2014 distinct=2014 clean=true",
    "store partial header-cut: store recovery: segments 1, rows 0 (distinct 0), adopted 0, torn 0, corrupt 1, missing 0 | rows 0 crc 00000000 | verify corrupt-frame segment=seg-00000001.css offset=0 reason=\"segment header: payload truncated at byte 4 (wanted 2 more)\"; summary segments=1 frames=0 rows=0 distinct=0 clean=false | repair repaired quarantined unreadable segment seg-00000001.css; summary segments=0 frames=0 rows=0 distinct=0 clean=true | rows 0 crc 00000000 | compact segments 0->1 rows 0->0 bytes 0->31 | verify summary segments=1 frames=0 rows=0 distinct=0 clean=true",
    "cache whole: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache cut@65535: hits 654 crc 35a1296d, corrupt 0 disk errors 0 | rescan corrupt 0 disk errors 0",
    "cache flip@65535^0x01: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache flip@65535^0x80: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache cut@65536: hits 654 crc 35a1296d, corrupt 0 disk errors 0 | rescan corrupt 0 disk errors 0",
    "cache flip@65536^0x01: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache flip@65536^0x80: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache cut@65537: hits 654 crc 35a1296d, corrupt 0 disk errors 0 | rescan corrupt 0 disk errors 0",
    "cache flip@65537^0x01: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache flip@65537^0x80: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache cut@131071: hits 684 crc 717601f2, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@131071^0x01: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@131071^0x80: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache cut@131072: hits 684 crc 717601f2, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@131072^0x01: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@131072^0x80: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache cut@131073: hits 684 crc 717601f2, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@131073^0x01: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@131073^0x80: hits 1543 crc b1911f78, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache cut@196607: hits 1243 crc 6003adca, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@196607^0x01: hits 1542 crc 9cbf3767, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache flip@196607^0x80: hits 1542 crc 9cbf3767, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache cut@196608: hits 1243 crc 6003adca, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@196608^0x01: hits 1542 crc 9cbf3767, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache flip@196608^0x80: hits 1542 crc 9cbf3767, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache cut@196609: hits 1243 crc 6003adca, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache flip@196609^0x01: hits 1542 crc 9cbf3767, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache flip@196609^0x80: hits 1542 crc 9cbf3767, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache claim@65534=0x3e8: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache claim@65534=0xffffff: hits 1542 crc a0ceb729, corrupt 2 disk errors 2 | rescan corrupt 2 disk errors 2",
    "cache claim@226502=89: hits 1542 crc 8b252453, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache header-magic: hits 0 crc 00000000, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache header-cut: hits 0 crc 00000000, corrupt 0 disk errors 0 | rescan corrupt 0 disk errors 0",
    "cache header-foreign: hits 0 crc 00000000, corrupt 1 disk errors 1 | rescan corrupt 1 disk errors 1",
    "cache tail-garbage@66536: hits 664 crc aa13005e, corrupt 1 disk errors 1 | appended published true, corrupt 1 disk errors 1",
    "cache tail-garbage-magic@66536: hits 664 crc aa13005e, corrupt 1 disk errors 1 | appended published true, corrupt 1 disk errors 1",
    "cache torn@196612: hits 1243 crc 6003adca, corrupt 1 disk errors 1 | completed published true, corrupt 1 disk errors 1",
];

#[test]
fn every_reader_classifies_the_chunk_edge_corpus_as_pinned() {
    let mut got = store_cases();
    got.extend(cache_cases());
    let mut wrong = String::new();
    for i in 0..got.len().max(PINNED.len()) {
        let (g, p) = (got.get(i).map(String::as_str), PINNED.get(i).copied());
        if g != p {
            wrong.push_str(&format!("case {i}\n  pinned: {p:?}\n  got:    {g:?}\n"));
        }
    }
    assert!(wrong.is_empty(), "{wrong}");
}

/// The next frame magic strictly after `from` in `buf`.
fn next_magic(buf: &[u8], from: usize) -> Option<usize> {
    let start = from + 1;
    buf.get(start..)?.windows(4).position(|w| w == FRAME_MAGIC).map(|i| start + i)
}

/// The store's damage rule over a whole segment in memory: corruption as
/// `(offset, reason)`, every decoded digest in scan order, adopted frames,
/// the torn append's offset, and repair's kept frame spans and quarantined
/// byte ranges.
#[derive(Debug, Default, PartialEq)]
struct Reference {
    corrupt: Vec<(u64, String)>,
    digests: Vec<u128>,
    adopted: usize,
    torn: Option<u64>,
    quarantined: Vec<(usize, usize)>,
}

fn reference(buf: &[u8], committed_len: usize) -> Reference {
    let mut out = Reference::default();
    let header = frame::parse_segment_header(buf);
    let committed = committed_len.min(buf.len());
    // Repair keeps every decodable frame anywhere, resyncing after damage.
    let mut at = header.as_ref().map_or(0, |&(_, start)| start);
    let mut bad_from = None;
    while at < buf.len() {
        match frame::parse_frame(buf, at) {
            Parsed::Frame { payload, end } if frame::decode_block(payload).is_ok() => {
                out.quarantined.extend(bad_from.take().map(|from| (from, at)));
                at = end;
            }
            Parsed::Frame { end, .. } => {
                bad_from.get_or_insert(at);
                at = end;
            }
            _ => {
                bad_from.get_or_insert(at);
                at = next_magic(buf, at).unwrap_or(buf.len());
            }
        }
    }
    out.quarantined.extend(bad_from.map(|from| (from, buf.len())));
    let data_start = match header {
        Ok((_, start)) => start,
        Err(reason) => {
            out.corrupt.push((0, format!("segment header: {reason}")));
            out.torn = (buf.len() > committed_len).then_some(committed_len as u64);
            return out;
        }
    };
    let inside = &buf[..committed];
    let mut at = data_start;
    while at < committed {
        match frame::parse_frame(inside, at) {
            Parsed::Frame { payload, end } => {
                match frame::decode_block(payload) {
                    Ok(rows) => out.digests.extend(rows.iter().map(|r| r.digest)),
                    Err(reason) => out.corrupt.push((at as u64, reason)),
                }
                at = end;
            }
            Parsed::BadCrc { end } => {
                out.corrupt.push((at as u64, "crc mismatch".to_string()));
                at = next_magic(inside, at).filter(|&next| next < end).unwrap_or(end);
            }
            Parsed::BadMagic | Parsed::Truncated => {
                out.corrupt.push((at as u64, "bytes are not a frame".to_string()));
                match next_magic(inside, at) {
                    Some(next) => at = next,
                    None => break,
                }
            }
        }
    }
    let mut at = committed.max(data_start);
    while let Parsed::Frame { payload, end } = frame::parse_frame(buf, at) {
        let Ok(rows) = frame::decode_block(payload) else { break };
        out.digests.extend(rows.iter().map(|r| r.digest));
        out.adopted += 1;
        at = end;
    }
    out.torn = (at < buf.len()).then_some(at as u64);
    out
}

/// What the store and repair made of the segment in `dir`, in the
/// reference's terms.
fn observed(dir: &Path) -> Reference {
    let store = Store::open_reader(dir).unwrap();
    let recovery = store.recovery();
    let mut out = Reference {
        corrupt: recovery.corrupt.iter().map(|c| (c.offset, c.reason.clone())).collect(),
        digests: Vec::new(),
        adopted: recovery.adopted_frames,
        torn: recovery.torn.first().map(|t| t.offset),
        quarantined: Vec::new(),
    };
    assert!(recovery.torn.len() <= 1);
    let rows = store.rows().unwrap();
    out.digests = rows.iter().map(|r| r.digest).collect();
    for line in fsck::repair(dir).unwrap().lines() {
        // "repaired quarantined <n> bytes of <segment> at offset <from>"
        let words: Vec<&str> = line.split(' ').collect();
        if let ["repaired", "quarantined", n, "bytes", "of", _, "at", "offset", from] = words[..] {
            let (n, from): (usize, usize) = (n.parse().unwrap(), from.parse().unwrap());
            out.quarantined.push((from, from + n));
        }
    }
    out
}

/// Damages `bytes`: `flips` single-bit flips, then maybe a cut, at
/// offsets drawn from `seed`, half of them within 16 bytes of a chunk
/// boundary.
fn damage(bytes: &[u8], seed: u64, flips: usize, cut: bool) -> Vec<u8> {
    let mut next = {
        let mut k = seed;
        move || {
            k = k.wrapping_add(1);
            mix(k)
        }
    };
    let mut at = |len: usize| {
        let r = next();
        if r % 2 == 0 {
            let boundary = CHUNK * (1 + (r >> 8) as usize % (len / CHUNK));
            (boundary + (r >> 32) as usize % 33).saturating_sub(16).min(len - 1)
        } else {
            (r >> 8) as usize % len
        }
    };
    let mut out = bytes.to_vec();
    for _ in 0..flips {
        let i = at(out.len());
        out[i] ^= 1 << (i % 8);
    }
    if cut {
        let len = at(out.len());
        out.truncate(len);
    }
    out
}

/// The cache's damage rule over a whole pack in memory: the digests it
/// indexes and the damage it counts.
fn cache_reference(pack: &[u8]) -> (Vec<u128>, usize) {
    let header = frame::segment_header(ENGINE_TAG);
    if !pack.starts_with(&header) {
        return (Vec::new(), usize::from(!header.starts_with(pack)));
    }
    let follows = |mut at: usize| {
        while let Some(next) = next_magic(pack, at) {
            if let Parsed::Frame { .. } = frame::parse_frame(pack, next) {
                return true;
            }
            at = next;
        }
        false
    };
    let (mut indexed, mut corrupt, mut at) = (Vec::new(), 0, header.len());
    while at < pack.len() {
        let rest = &pack[at..];
        let claim = rest.get(4..8).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
        let oversize = rest.starts_with(&FRAME_MAGIC) && claim.is_some_and(|len| len > 1024);
        match frame::parse_frame(pack, at) {
            Parsed::Frame { payload, end } if !oversize => {
                if let Ok(row) = frame::single_row(payload) {
                    indexed.push(row.digest);
                    at = end;
                    continue;
                }
            }
            Parsed::Truncated if !oversize && !follows(at) => break,
            _ => {}
        }
        corrupt += 1;
        match next_magic(pack, at) {
            Some(next) => at = next,
            None => break,
        }
    }
    (indexed, corrupt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reader recovery, `Store::rows` and repair classify a randomly
    /// damaged segment as the whole-file reference does, committed to the
    /// end or only partly.
    #[test]
    fn prop_store_walks_match_the_whole_file_reference(
        seed in 0u64..u64::MAX,
        flips in 0usize..4,
        cut in 0u8..2,
        partial in 0u8..2,
    ) {
        let (seg, ends) = store_segment();
        let committed = if partial == 1 { ends[2] } else { seg.len() };
        let bytes = damage(&seg, seed, flips, cut == 1);
        let tmp = TempDir::new("prop-store");
        write_store(tmp.path(), &bytes, committed);
        let mut want = reference(&bytes, committed);
        // `Store::rows` keeps each digest's first place.
        let mut seen = std::collections::HashSet::new();
        want.digests.retain(|d| seen.insert(*d));
        let got = observed(tmp.path());
        prop_assert_eq!(got, want);
    }

    /// The cache serves exactly the entries the whole-file reference
    /// indexes from a randomly damaged pack, and counts the same damage.
    #[test]
    fn prop_cache_scan_matches_the_whole_file_reference(
        seed in 0u64..u64::MAX,
        flips in 0usize..4,
        cut in 0u8..2,
    ) {
        let (pack, entries) = cache_pack();
        let bytes = damage(&pack, seed, flips, cut == 1);
        let (indexed, corrupt) = cache_reference(&bytes);
        let tmp = TempDir::new("prop-cache");
        write_pack(tmp.path(), &bytes);
        let reader = ResultCache::on_disk(tmp.path());
        for k in 0..entries {
            let d = entry_digest(k);
            prop_assert_eq!(reader.get(d).is_some(), indexed.contains(&d.0), "entry {}", k);
        }
        prop_assert_eq!(reader.stats().corrupt_entries, corrupt);
    }
}
