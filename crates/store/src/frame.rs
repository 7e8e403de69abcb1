//! CRC-framed columnar block codec — the unit of durability.
//!
//! A segment file is a fixed header followed by a sequence of frames.
//! Each frame carries one *block*: a batch of rows encoded column-major
//! (all digests contiguous, then all makespans, …) with a per-block
//! string dictionary for the six scenario axes. The frame header carries
//! the payload length and a CRC-32 of the payload, so a reader can tell
//! a torn tail (frame runs past end of file) from a flipped bit (CRC
//! mismatch) from foreign bytes (bad magic) — three different recovery
//! actions.
//!
//! All integers are little-endian. Layout:
//!
//! ```text
//! segment  := SEGMENT_MAGIC  version:u16  tag_len:u16  tag  frame*
//! frame    := FRAME_MAGIC  payload_len:u32  crc32(payload):u32  payload
//! payload  := nrows:u32  dict_len:u16  (entry_len:u16 entry)*  columns
//! columns  := digest[nrows]:u128  nranks[nrows]:u32  makespan[nrows]:f64
//!             events[nrows]:u64  faults[nrows]:u64  checkpoints[nrows]:u64
//!             recoveries[nrows]:u64  retries[nrows]:u64
//!             (system fidelity placement mpi lock workload)[nrows]:u16
//! ```

use crate::Row;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CSSG";
/// Magic prefix of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CSB1";
/// Segment format version written by this crate.
pub const SEGMENT_VERSION: u16 = 1;
/// Frame header size: magic + payload length + CRC.
pub const FRAME_HEADER: usize = 12;
/// Upper bound on a frame payload; a length field above this is treated
/// as corruption rather than an instruction to allocate gigabytes.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// The eight slicing-by-8 lookup tables of the reflected IEEE CRC-32:
/// `TABLES[0]` is the classic bytewise table, and `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one), slicing-by-8:
/// eight bytes per step through eight 256-entry lookup tables, then
/// bytewise for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor over a block payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).ok_or("length overflow")?;
        if end > self.buf.len() {
            return Err(format!("payload truncated at byte {} (wanted {n} more)", self.at));
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next `count` fixed-`width` elements as one slice. On a short
    /// payload it fails at the first element that does not fit, with the
    /// reason reading them one at a time would give.
    fn column(&mut self, count: usize, width: usize) -> Result<&'a [u8], String> {
        let whole = ((self.buf.len() - self.at) / width).min(count);
        let run = self.take(whole * width)?;
        if whole < count {
            self.take(width)?;
        }
        Ok(run)
    }

    /// [`Cursor::column`] for a u16 dictionary-index column, checking
    /// every index below `dict_len` in element order, so an index out of
    /// range is reported before a truncation after it.
    fn indices(&mut self, count: usize, dict_len: usize) -> Result<&'a [u8], String> {
        let whole = ((self.buf.len() - self.at) / 2).min(count);
        let run = self.take(whole * 2)?;
        let mut idxs = run.chunks_exact(2).map(|b| usize::from(u16::from_le_bytes([b[0], b[1]])));
        if let Some(idx) = idxs.find(|&idx| idx >= dict_len) {
            return Err(format!("dictionary index {idx} out of range"));
        }
        if whole < count {
            self.take(2)?;
        }
        Ok(run)
    }
}

/// Element `i` of a little-endian column of `N`-byte values.
fn element<const N: usize>(column: &[u8], i: usize) -> [u8; N] {
    column[i * N..(i + 1) * N].try_into().unwrap()
}

/// The segment file header for `tag`.
pub fn segment_header(tag: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + tag.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    put_u16(&mut out, SEGMENT_VERSION);
    put_u16(&mut out, tag.len() as u16);
    out.extend_from_slice(tag.as_bytes());
    out
}

/// Parses a segment header, returning `(engine_tag, data_start)`.
///
/// # Errors
///
/// A one-line reason when the magic, version or tag bytes are damaged.
pub fn parse_segment_header(buf: &[u8]) -> Result<(String, usize), String> {
    let mut c = Cursor { buf, at: 0 };
    let magic = c.take(4)?;
    if magic != SEGMENT_MAGIC {
        return Err(format!("bad segment magic {magic:02x?}"));
    }
    let version = c.u16()?;
    if version != SEGMENT_VERSION {
        return Err(format!("unsupported segment version {version}"));
    }
    let tag_len = c.u16()? as usize;
    let tag =
        std::str::from_utf8(c.take(tag_len)?).map_err(|_| "engine tag is not UTF-8".to_string())?;
    Ok((tag.to_string(), c.at))
}

/// One step of a frame walk at byte `at` of a segment buffer.
#[derive(Debug)]
pub enum Parsed<'a> {
    /// A CRC-valid frame; `payload` borrows its block bytes from the
    /// buffer, `end` is the offset just past it.
    Frame { payload: &'a [u8], end: usize },
    /// The buffer ends mid-frame: at the file tail this is a torn append.
    Truncated,
    /// A complete frame whose CRC does not match — a flipped bit.
    /// `end` is the offset just past it, usable for resync.
    BadCrc { end: usize },
    /// The bytes at `at` are not a frame at all.
    BadMagic,
}

/// Classifies the bytes at `at` without panicking on any input.
pub fn parse_frame(buf: &[u8], at: usize) -> Parsed<'_> {
    let rest = buf.get(at..).unwrap_or_default();
    if !rest.starts_with(&FRAME_MAGIC) {
        return if FRAME_MAGIC.starts_with(rest) { Parsed::Truncated } else { Parsed::BadMagic };
    }
    if rest.len() < FRAME_HEADER {
        return Parsed::Truncated;
    }
    let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        // A plausible header with an absurd length is corruption, not a
        // torn tail: resync past the magic rather than truncating here.
        return Parsed::BadCrc { end: at + FRAME_HEADER };
    }
    let crc = u32::from_le_bytes(rest[8..12].try_into().unwrap());
    if rest.len() < FRAME_HEADER + len {
        return Parsed::Truncated;
    }
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return Parsed::BadCrc { end: at + FRAME_HEADER + len };
    }
    Parsed::Frame { payload, end: at + FRAME_HEADER + len }
}

/// Bytes one [`Walker`] read asks for. A walk holds this many, or one
/// whole frame when a frame is longer.
pub const SCAN_CHUNK: usize = 64 * 1024;

/// What a [`Walker`] found at one offset.
#[derive(Debug)]
pub enum Step<'a> {
    /// The segment header: its engine tag and where frames start, or why
    /// it is damaged. `head` is the bytes parsed (on damage, all read).
    Header { parsed: Result<(String, u64), String>, head: &'a [u8] },
    /// A whole CRC-valid frame from `at` to `end`.
    Frame { at: u64, payload: &'a [u8], end: u64 },
    /// Damage at `at`, up to the next frame magic `resync`: a bad CRC in a
    /// frame that ends at `end`, or (no `end`) bytes that are not a frame.
    Damage { at: u64, end: Option<u64>, resync: Option<u64> },
    /// A frame at `at` runs past the end of the file or the walk's limit.
    Truncated { at: u64 },
}

/// Where a [`Walker`] goes on.
#[derive(Debug, Clone, Copy)]
enum Next {
    Header,
    At(u64),
    Resync(u64),
    Done,
}

/// The one frame walk over a segment or pack file: store recovery,
/// `Store::rows`, `fsck` and the result cache's pack scan each apply their
/// own damage rule to its [`Step`]s. It reads with [`FileExt::read_at`] in
/// [`SCAN_CHUNK`] pieces, growing its buffer to fit a longer frame but
/// never past the bytes the file has. A walk starts at the segment header.
/// After a frame it goes on at the frame's end, after damage at the resync
/// point, after a truncation at the next frame magic; [`Walker::seek`] and
/// [`Walker::resync`] move it.
#[derive(Debug)]
pub struct Walker<'f> {
    file: &'f File,
    buf: Vec<u8>,
    /// File offset of `buf[0]`, and how many bytes from there are read.
    base: u64,
    filled: usize,
    /// The file's length, as at the start or as a short read found it.
    len: u64,
    limit: u64,
    cap: usize,
    next: Next,
}

impl<'f> Walker<'f> {
    /// A walk of `file` from its segment header; fails when the file's
    /// length cannot be read.
    pub fn new(file: &'f File) -> io::Result<Walker<'f>> {
        let len = file.metadata()?.len();
        let (buf, limit, cap, next) = (Vec::new(), u64::MAX, usize::MAX, Next::Header);
        Ok(Walker { file, buf, base: 0, filled: 0, len, limit, cap, next })
    }

    /// Ends the walk at `limit`: a frame that crosses it is cut off.
    pub fn limit(&mut self, limit: u64) {
        self.limit = limit;
    }

    /// Makes a frame header that claims more than `cap` payload bytes
    /// damage, judged on its length field alone.
    pub fn cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Goes on at `at`, a frame boundary.
    pub fn seek(&mut self, at: u64) {
        self.next = Next::At(at);
    }

    /// Goes on at the first frame magic at or after `from`.
    pub fn resync(&mut self, from: u64) {
        self.next = Next::Resync(from);
    }

    /// The file's length.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    fn end(&self) -> u64 {
        self.len.min(self.limit)
    }

    /// The bytes from `at` to the end of the walk, at least `need` of them
    /// if it has that many; reads from `at` (a chunk or more) when fewer
    /// are held.
    fn fill(&mut self, at: u64, need: usize) -> io::Result<&[u8]> {
        let held = self.base + self.filled as u64;
        if at < self.base || at.saturating_add(need as u64).min(self.end()) > held {
            (self.base, self.filled) = (at, 0);
            let len = self.end().saturating_sub(at).min(need.max(SCAN_CHUNK) as u64) as usize;
            if self.buf.len() < len {
                self.buf.reserve_exact(len - self.buf.len());
                self.buf.resize(len, 0);
            }
            while self.filled < len {
                match self.file.read_at(&mut self.buf[self.filled..len], at + self.filled as u64) {
                    Ok(0) => {
                        self.len = at + self.filled as u64;
                        break;
                    }
                    Ok(n) => self.filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let to = (self.end().saturating_sub(self.base) as usize).min(self.filled);
        Ok(&self.buf[((at - self.base) as usize).min(to)..to])
    }

    /// The first frame magic at or after `from` that lies wholly before
    /// the end of the walk.
    fn find_magic(&mut self, mut from: u64) -> io::Result<Option<u64>> {
        while from.saturating_add(4) <= self.end() {
            let bytes = self.fill(from, 4)?;
            if let Some(i) = bytes.windows(4).position(|w| w == FRAME_MAGIC) {
                return Ok(Some(from + i as u64));
            }
            if bytes.len() < 4 {
                break;
            }
            from += (bytes.len() - 3) as u64;
        }
        Ok(None)
    }

    /// What [`parse_frame`] makes of the bytes at `at` up to the end of the
    /// walk, the payload left out, with a header that claims more than
    /// `cap` payload bytes not a frame.
    fn classify(&mut self, at: u64, cap: usize) -> io::Result<Parsed<'static>> {
        let head = self.fill(at, FRAME_HEADER)?;
        let mut need = FRAME_HEADER;
        if head.len() >= 8 && head[..4] == FRAME_MAGIC {
            let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
            if len > cap {
                return Ok(Parsed::BadMagic);
            }
            need += if len <= MAX_PAYLOAD { len } else { 0 };
        }
        Ok(match parse_frame(self.fill(at, need)?, 0) {
            Parsed::Frame { end, .. } => Parsed::Frame { payload: &[], end },
            Parsed::Truncated => Parsed::Truncated,
            Parsed::BadCrc { end } => Parsed::BadCrc { end },
            Parsed::BadMagic => Parsed::BadMagic,
        })
    }

    /// The next step, or `None` once the walk has nowhere to go; fails
    /// when a read fails.
    pub fn step(&mut self) -> io::Result<Option<Step<'_>>> {
        let found = match self.next {
            Next::Header => return self.header().map(Some),
            Next::At(at) => Some(at),
            Next::Resync(from) => self.find_magic(from)?,
            Next::Done => None,
        };
        self.next = Next::Done;
        let Some(at) = found.filter(|&at| at < self.end()) else { return Ok(None) };
        let end = match self.classify(at, self.cap)? {
            Parsed::Frame { end, .. } => {
                self.next = Next::At(at + end as u64);
                let from = (at - self.base) as usize;
                let payload = &self.buf[from + FRAME_HEADER..from + end];
                return Ok(Some(Step::Frame { at, payload, end: at + end as u64 }));
            }
            Parsed::Truncated => {
                self.next = Next::Resync(at + 1);
                return Ok(Some(Step::Truncated { at }));
            }
            Parsed::BadCrc { end } => Some(at + end as u64),
            Parsed::BadMagic => None,
        };
        let resync = self.find_magic(at + 1)?;
        self.next = resync.map_or(Next::Done, Next::At);
        Ok(Some(Step::Damage { at, end, resync }))
    }

    fn header(&mut self) -> io::Result<Step<'_>> {
        // The longest header: magic, version, tag length and the tag.
        let head = self.fill(0, 8 + usize::from(u16::MAX))?;
        let parsed = parse_segment_header(head);
        let held = parsed.as_ref().map_or(head.len(), |&(_, start)| start);
        self.next = parsed.as_ref().map_or(Next::Done, |&(_, start)| Next::At(start as u64));
        let parsed = parsed.map(|(tag, start)| (tag, start as u64));
        Ok(Step::Header { parsed, head: &self.buf[..held] })
    }

    /// Whether a whole CRC-valid frame starts anywhere after `after`, for
    /// the rule that a frame cut off by the end of the file is a torn tail
    /// only if none does. The walk does not move; fails when a read fails.
    pub fn frame_follows(&mut self, after: u64) -> io::Result<bool> {
        let mut from = after + 1;
        while let Some(at) = self.find_magic(from)? {
            if let Parsed::Frame { .. } = self.classify(at, MAX_PAYLOAD)? {
                return Ok(true);
            }
            from = at + 1;
        }
        Ok(false)
    }
}

/// Wraps a block payload in a CRC frame.
///
/// # Panics
///
/// When `payload` exceeds [`MAX_PAYLOAD`]: every reader classifies such
/// a frame as corruption, so writing one is a bug at the call site
/// ([`encode_block`] / [`encode_blocks`] never produce one).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "frame payload of {} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})",
        payload.len()
    );
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Most dictionary entries one block may hold: the count is stored as a
/// u16 and every index must fit a u16.
pub const MAX_DICT: usize = u16::MAX as usize;
/// Longest dictionary entry: the length prefix is a u16.
pub const MAX_DICT_ENTRY: usize = u16::MAX as usize;
/// Encoded payload bytes one row contributes beyond its dictionary
/// entries: digest + nranks + makespan + five u64 counters + six u16
/// axis indices.
const ROW_FIXED_BYTES: usize = 16 + 4 + 8 + 5 * 8 + 6 * 2;
/// Payload bytes before any row: the nrows and dict_len fields.
const BLOCK_HEADER_BYTES: usize = 4 + 2;

/// A block's string dictionary under construction: entries in
/// first-occurrence order and the index of each.
#[derive(Default)]
struct Dict<'r> {
    entries: Vec<&'r str>,
    index: HashMap<&'r str, u16>,
    /// Encoded bytes of `entries`: a u16 length prefix plus the bytes.
    bytes: usize,
}

fn entry_too_long(value: &str) -> Result<(), String> {
    if value.len() > MAX_DICT_ENTRY {
        return Err(format!(
            "axis string of {} bytes exceeds the {MAX_DICT_ENTRY}-byte dictionary entry limit",
            value.len()
        ));
    }
    Ok(())
}

impl<'r> Dict<'r> {
    /// The index of `value`, adding it if new.
    fn index_of(&mut self, value: &'r str) -> Result<u16, String> {
        if let Some(&i) = self.index.get(value) {
            return Ok(i);
        }
        entry_too_long(value)?;
        if self.entries.len() >= MAX_DICT {
            return Err(format!("more than {MAX_DICT} distinct axis strings in one block"));
        }
        let i = self.entries.len() as u16;
        self.entries.push(value);
        self.index.insert(value, i);
        self.bytes += 2 + value.len();
        Ok(i)
    }

    /// `(entries, bytes)` that `values` would add, where `found` is
    /// their lookup: each new value is counted once however often it
    /// repeats among them.
    fn growth(values: &[&str; 6], found: &[Option<u16>; 6]) -> (usize, usize) {
        let mut added = (0, 0);
        for (i, &value) in values.iter().enumerate() {
            if found[i].is_none() && !values[..i].contains(&value) {
                added.0 += 1;
                added.1 += 2 + value.len();
            }
        }
        added
    }

    /// The six dictionary indices of `row`.
    fn row_indices(&mut self, row: &'r Row) -> Result<[u16; 6], String> {
        let mut idx = [0u16; 6];
        for (slot, value) in idx.iter_mut().zip(axis_values(row)) {
            *slot = self.index_of(value)?;
        }
        Ok(idx)
    }
}

fn axis_values(row: &Row) -> [&str; 6] {
    [&row.system, &row.fidelity, &row.placement, &row.mpi, &row.lock, &row.workload]
}

/// The payload of one block: `rows` with their dictionary indices
/// `axes` into `dict`.
fn write_block(rows: &[Row], dict: &Dict, axes: &[[u16; 6]]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(BLOCK_HEADER_BYTES + dict.bytes + rows.len() * ROW_FIXED_BYTES);
    put_u32(&mut out, rows.len() as u32);
    put_u16(&mut out, dict.entries.len() as u16);
    for entry in &dict.entries {
        put_u16(&mut out, entry.len() as u16);
        out.extend_from_slice(entry.as_bytes());
    }
    for row in rows {
        out.extend_from_slice(&row.digest.to_le_bytes());
    }
    for row in rows {
        put_u32(&mut out, row.nranks);
    }
    for row in rows {
        put_u64(&mut out, row.makespan.to_bits());
    }
    for pick in [
        |r: &Row| r.events,
        |r: &Row| r.faults_applied,
        |r: &Row| r.checkpoints_taken,
        |r: &Row| r.recoveries,
        |r: &Row| r.retries,
    ] {
        for row in rows {
            put_u64(&mut out, pick(row));
        }
    }
    for col in 0..6 {
        for idx in axes {
            put_u16(&mut out, idx[col]);
        }
    }
    out
}

/// Encodes `rows` as one columnar block payload.
///
/// Deterministic: the dictionary is built in first-occurrence order over
/// the fixed axis sequence, so identical rows always produce identical
/// bytes (the property the resume byte-diff and the cache both lean on).
///
/// # Errors
///
/// A one-line reason when the rows exceed what one block can hold —
/// more than [`MAX_DICT`] distinct axis strings, an axis string longer
/// than [`MAX_DICT_ENTRY`] bytes, or a payload past [`MAX_PAYLOAD`].
/// Writers that buffer arbitrary batches should use [`encode_blocks`],
/// which splits instead of failing.
pub fn encode_block(rows: &[Row]) -> Result<Vec<u8>, String> {
    let mut dict = Dict::default();
    let axes = rows.iter().map(|row| dict.row_indices(row)).collect::<Result<Vec<_>, _>>()?;
    let out = write_block(rows, &dict, &axes);
    if out.len() > MAX_PAYLOAD {
        return Err(format!(
            "block payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame limit",
            out.len()
        ));
    }
    Ok(out)
}

/// Encodes `rows` as one or more block payloads, splitting wherever a
/// single block would overflow an encoder limit ([`MAX_DICT`] distinct
/// strings or [`MAX_PAYLOAD`] bytes). The split points depend only on
/// the rows, so the output stays deterministic, and each block's bytes
/// are what [`encode_block`] gives for its rows.
///
/// # Errors
///
/// Only when a single row cannot be encoded at all: an axis string
/// longer than [`MAX_DICT_ENTRY`] bytes.
pub fn encode_blocks(rows: &[Row]) -> Result<Vec<Vec<u8>>, String> {
    let mut blocks = Vec::new();
    let mut start = 0;
    let mut dict = Dict::default();
    let mut axes: Vec<[u16; 6]> = Vec::with_capacity(rows.len());
    for (end, row) in rows.iter().enumerate() {
        let values = axis_values(row);
        for value in values {
            entry_too_long(value)?;
        }
        // One hash lookup per axis value: the lookup both sizes the row
        // and, for values already present, is its index.
        let mut found = values.map(|value| dict.index.get(value).copied());
        let (entries, bytes) = Dict::growth(&values, &found);
        let payload = BLOCK_HEADER_BYTES + dict.bytes + axes.len() * ROW_FIXED_BYTES;
        let fits = dict.entries.len() + entries <= MAX_DICT
            && payload + bytes + ROW_FIXED_BYTES <= MAX_PAYLOAD;
        // A lone row always fits: at most 6 entries of <= 65535 bytes
        // each plus the fixed columns is far under MAX_PAYLOAD.
        if !fits && end > start {
            blocks.push(write_block(&rows[start..end], &dict, &axes));
            start = end;
            dict = Dict::default();
            axes.clear();
            found = [None; 6];
        }
        let mut idx = [0u16; 6];
        for ((slot, value), found) in idx.iter_mut().zip(values).zip(found) {
            *slot = match found {
                Some(i) => i,
                None => dict.index_of(value)?,
            };
        }
        axes.push(idx);
    }
    if start < rows.len() {
        blocks.push(write_block(&rows[start..], &dict, &axes));
    }
    Ok(blocks)
}

/// A structurally checked block payload: every length, UTF-8 and
/// dictionary-index check is done, and the columns are still raw
/// little-endian bytes.
struct Columns<'a> {
    nrows: usize,
    digests: &'a [u8],
    nranks: &'a [u8],
    makespans: &'a [u8],
    /// events, faults, checkpoints, recoveries, retries.
    counters: [&'a [u8]; 5],
    /// system, fidelity, placement, mpi, lock, workload.
    axes: [&'a [u8]; 6],
}

/// The one block walker behind [`decode_block`], [`block_digests`] and
/// [`single_row`]:
/// checks `payload` in byte order, handing each dictionary entry to
/// `entry`, and fails with the first damage found.
fn walk_block<'a>(
    payload: &'a [u8],
    mut entry: impl FnMut(&'a str),
) -> Result<Columns<'a>, String> {
    let mut c = Cursor { buf: payload, at: 0 };
    let nrows = c.u32()? as usize;
    if nrows > MAX_PAYLOAD / 16 {
        return Err(format!("implausible row count {nrows}"));
    }
    let dict_len = c.u16()? as usize;
    for _ in 0..dict_len {
        let len = c.u16()? as usize;
        entry(
            std::str::from_utf8(c.take(len)?)
                .map_err(|_| "dictionary entry is not UTF-8".to_string())?,
        );
    }
    let digests = c.column(nrows, 16)?;
    let nranks = c.column(nrows, 4)?;
    let makespans = c.column(nrows, 8)?;
    let mut counters = [&payload[..0]; 5];
    for counter in &mut counters {
        *counter = c.column(nrows, 8)?;
    }
    let mut axes = [&payload[..0]; 6];
    for axis in &mut axes {
        *axis = c.indices(nrows, dict_len)?;
    }
    if c.at != payload.len() {
        return Err(format!("{} trailing bytes after columns", payload.len() - c.at));
    }
    Ok(Columns { nrows, digests, nranks, makespans, counters, axes })
}

/// Decodes a block payload back into rows. Rows share the block
/// dictionary's strings: one allocation per entry, not per row.
///
/// # Errors
///
/// A one-line reason on any structural damage; never panics, whatever
/// the bytes (the CRC already passed, so this only fires on encoder
/// bugs or hash collisions — but recovery treats it as corruption).
pub fn decode_block(payload: &[u8]) -> Result<Vec<Row>, String> {
    let mut dict: Vec<Arc<str>> = Vec::new();
    let cols = walk_block(payload, |entry| dict.push(Arc::from(entry)))?;
    let axis = |col: usize, i: usize| {
        Arc::clone(&dict[usize::from(u16::from_le_bytes(element(cols.axes[col], i)))])
    };
    let counter = |col: usize, i: usize| u64::from_le_bytes(element(cols.counters[col], i));
    Ok((0..cols.nrows)
        .map(|i| Row {
            digest: u128::from_le_bytes(element(cols.digests, i)),
            system: axis(0, i),
            fidelity: axis(1, i),
            placement: axis(2, i),
            mpi: axis(3, i),
            lock: axis(4, i),
            workload: axis(5, i),
            nranks: u32::from_le_bytes(element(cols.nranks, i)),
            makespan: f64::from_bits(u64::from_le_bytes(element(cols.makespans, i))),
            events: counter(0, i),
            faults_applied: counter(1, i),
            checkpoints_taken: counter(2, i),
            recoveries: counter(3, i),
            retries: counter(4, i),
        })
        .collect())
}

/// The digests of a block payload, after exactly the checks
/// [`decode_block`] makes (same order, same reasons), without building
/// a row: all that recovery and `fsck` verify need.
///
/// # Errors
///
/// As for [`decode_block`].
pub fn block_digests(payload: &[u8]) -> Result<Vec<u128>, String> {
    let cols = walk_block(payload, |_| {})?;
    Ok(cols.digests.chunks_exact(16).map(|d| u128::from_le_bytes(d.try_into().unwrap())).collect())
}

/// The scalar columns of one row: a [`Row`] without its six axis
/// strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scalars {
    /// Scenario content hash.
    pub digest: u128,
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

/// The scalars of a block's only row, after exactly the checks
/// [`decode_block`] makes (same order, same reasons) and then a check
/// that the block holds one row. It builds no [`Row`] and allocates
/// nothing unless it fails: what a one-row result-cache entry needs.
///
/// # Errors
///
/// As for [`decode_block`], and when the block holds no row or more
/// than one.
pub fn single_row(payload: &[u8]) -> Result<Scalars, String> {
    let cols = walk_block(payload, |_| {})?;
    if cols.nrows != 1 {
        return Err(format!("block holds {} rows, not one", cols.nrows));
    }
    let counter = |col: usize| u64::from_le_bytes(element(cols.counters[col], 0));
    Ok(Scalars {
        digest: u128::from_le_bytes(element(cols.digests, 0)),
        nranks: u32::from_le_bytes(element(cols.nranks, 0)),
        makespan: f64::from_bits(u64::from_le_bytes(element(cols.makespans, 0))),
        events: counter(0),
        faults_applied: counter(1),
        checkpoints_taken: counter(2),
        recoveries: counter(3),
        retries: counter(4),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row(i: u64) -> Row {
        Row {
            digest: u128::from(i) << 64 | 0xDEAD,
            system: if i.is_multiple_of(2) { "dmz" } else { "longs" }.into(),
            fidelity: "quick".into(),
            placement: "scheme-a".into(),
            mpi: "mpich2".into(),
            lock: "sysv".into(),
            workload: "bsp".into(),
            nranks: 2 + i as u32,
            makespan: 1.5 * i as f64,
            events: 10 * i,
            faults_applied: i % 3,
            checkpoints_taken: i % 5,
            recoveries: i % 2,
            retries: i % 7,
        }
    }

    /// The bytewise table-driven CRC-32 that slicing-by-8 replaced: the
    /// parity oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// splitmix64 from `seed`: test data without a rand dependency.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// `n` rows with short, partly non-ASCII axis strings drawn from
    /// `seed`, so a flipped byte can break UTF-8 or an index.
    fn mixed_rows(seed: u64, n: usize) -> Vec<Row> {
        let mut next = stream(seed);
        let words = ["dmz", "longs", "", "scheme-ä", "mpich2", "ßys", "bsp", "x"];
        let mut word = || -> Arc<str> { words[(next() % words.len() as u64) as usize].into() };
        let axes: Vec<[Arc<str>; 6]> = (0..n).map(|_| std::array::from_fn(|_| word())).collect();
        let mut next = stream(!seed);
        axes.into_iter()
            .map(|[system, fidelity, placement, mpi, lock, workload]| Row {
                digest: u128::from(next()) << 64 | u128::from(next()),
                system,
                fidelity,
                placement,
                mpi,
                lock,
                workload,
                nranks: next() as u32,
                makespan: f64::from_bits(next()),
                events: next(),
                faults_applied: next(),
                checkpoints_taken: next(),
                recoveries: next(),
                retries: next(),
            })
            .collect()
    }

    /// The element-at-a-time decoder the column walk replaced: the
    /// oracle for `decode_block`'s rows and reason strings.
    fn decode_block_reference(payload: &[u8]) -> Result<Vec<Row>, String> {
        let mut c = Cursor { buf: payload, at: 0 };
        let u64 = |c: &mut Cursor| -> Result<u64, String> {
            Ok(u64::from_le_bytes(c.take(8)?.try_into().unwrap()))
        };
        let nrows = c.u32()? as usize;
        if nrows > MAX_PAYLOAD / 16 {
            return Err(format!("implausible row count {nrows}"));
        }
        let dict_len = c.u16()? as usize;
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let len = c.u16()? as usize;
            let entry = std::str::from_utf8(c.take(len)?)
                .map_err(|_| "dictionary entry is not UTF-8".to_string())?;
            dict.push(entry.to_string());
        }
        let mut rows: Vec<Row> = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let digest = u128::from_le_bytes(c.take(16)?.try_into().unwrap());
            rows.push(Row { digest, ..Row::default() });
        }
        for row in &mut rows {
            row.nranks = c.u32()?;
        }
        for row in &mut rows {
            row.makespan = f64::from_bits(u64(&mut c)?);
        }
        for pick in [
            (|r: &mut Row| &mut r.events) as fn(&mut Row) -> &mut u64,
            |r| &mut r.faults_applied,
            |r| &mut r.checkpoints_taken,
            |r| &mut r.recoveries,
            |r| &mut r.retries,
        ] {
            for row in rows.iter_mut() {
                *pick(row) = u64(&mut c)?;
            }
        }
        for col in 0..6usize {
            for row in rows.iter_mut() {
                let idx = c.u16()? as usize;
                let value: Arc<str> = dict
                    .get(idx)
                    .ok_or_else(|| format!("dictionary index {idx} out of range"))?
                    .as_str()
                    .into();
                match col {
                    0 => row.system = value,
                    1 => row.fidelity = value,
                    2 => row.placement = value,
                    3 => row.mpi = value,
                    4 => row.lock = value,
                    _ => row.workload = value,
                }
            }
        }
        if c.at != payload.len() {
            return Err(format!("{} trailing bytes after columns", payload.len() - c.at));
        }
        Ok(rows)
    }

    /// A row's scalar columns, the makespan as bits.
    fn scalar_bits(r: &Row) -> (u128, u32, u64, [u64; 5]) {
        let counters = [r.events, r.faults_applied, r.checkpoints_taken, r.recoveries, r.retries];
        (r.digest, r.nranks, r.makespan.to_bits(), counters)
    }

    /// `decode_block` gives the reference decoder's verdict, and
    /// `block_digests` and `single_row` give exactly `decode_block`'s:
    /// the same rows, digests or scalars, or the same reason (for
    /// `single_row`, a block of other than one row is an error too).
    /// Rows compare by bits, so a NaN makespan compares equal to itself.
    fn digests_agree(payload: &[u8]) -> Result<(), String> {
        let bits = |rows: Vec<Row>| {
            rows.into_iter()
                .map(|r| (r.makespan.to_bits(), Row { makespan: 0.0, ..r }))
                .collect::<Vec<_>>()
        };
        let full = decode_block(payload);
        let reference = decode_block_reference(payload);
        let digests: Result<Vec<u128>, String> = match &full {
            Ok(rows) => Ok(rows.iter().map(|r| r.digest).collect()),
            Err(reason) => Err(reason.clone()),
        };
        let one = match &full {
            Ok(rows) if rows.len() == 1 => Ok(scalar_bits(&rows[0])),
            Ok(rows) => Err(format!("block holds {} rows, not one", rows.len())),
            Err(reason) => Err(reason.clone()),
        };
        let fast = block_digests(payload);
        let single = single_row(payload).map(|r| {
            let counters =
                [r.events, r.faults_applied, r.checkpoints_taken, r.recoveries, r.retries];
            (r.digest, r.nranks, r.makespan.to_bits(), counters)
        });
        let (full, reference) = (full.map(bits), reference.map(bits));
        if full != reference {
            Err(format!("decode_block {full:?} but the reference {reference:?}"))
        } else if fast != digests {
            Err(format!("block_digests {fast:?} but decode_block {digests:?}"))
        } else if single != one {
            Err(format!("single_row {single:?} but decode_block {one:?}"))
        } else {
            Ok(())
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn block_digests_agrees_on_every_cut_and_bit_flip() {
        // Five rows, and the one row of a result-cache entry.
        for n in [5, 1] {
            let payload = encode_block(&mixed_rows(7, n)).unwrap();
            for cut in 0..payload.len() {
                digests_agree(&payload[..cut])
                    .unwrap_or_else(|e| panic!("{n} rows, cut at {cut}: {e}"));
            }
            for at in 0..payload.len() {
                for bit in 0..8 {
                    let mut bad = payload.clone();
                    bad[at] ^= 1 << bit;
                    digests_agree(&bad)
                        .unwrap_or_else(|e| panic!("{n} rows, flip {at}.{bit}: {e}"));
                }
            }
            let mut long = payload.clone();
            long.push(0);
            digests_agree(&long).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Slicing-by-8 agrees with the bytewise reference at every
        /// length and start alignment.
        #[test]
        fn parity_crc32_matches_the_bytewise_reference(
            seed in 0u64..u64::MAX,
            len in 0usize..600,
            offset in 0usize..8,
        ) {
            let mut next = stream(seed);
            let buf: Vec<u8> = (0..offset + len).map(|_| next() as u8).collect();
            prop_assert_eq!(crc32(&buf[offset..]), crc32_bytewise(&buf[offset..]));
        }

        /// `block_digests`, `decode_block` and the reference decoder agree
        /// on valid, truncated and bit-flipped payloads: the same digests
        /// or the same reason.
        #[test]
        fn parity_block_digests_matches_decode_block(
            seed in 0u64..u64::MAX,
            n in 0usize..12,
            flips in 0usize..4,
        ) {
            let mut next = stream(seed);
            let payload = encode_block(&mixed_rows(seed, n)).unwrap();
            prop_assert!(digests_agree(&payload).is_ok());
            let cut = (next() % (payload.len() as u64 + 1)) as usize;
            let verdict = digests_agree(&payload[..cut]);
            prop_assert!(verdict.is_ok(), "cut at {}: {:?}", cut, verdict);
            let mut bad = payload.clone();
            for _ in 0..flips {
                let at = (next() % payload.len() as u64) as usize;
                bad[at] ^= 1 << (next() % 8);
            }
            let verdict = digests_agree(&bad);
            prop_assert!(verdict.is_ok(), "{} flips: {:?}", flips, verdict);
            let verdict = digests_agree(&bad[..cut]);
            prop_assert!(verdict.is_ok(), "{} flips, cut at {}: {:?}", flips, cut, verdict);
        }
    }

    #[test]
    fn block_round_trips() {
        let rows: Vec<Row> = (0..17).map(row).collect();
        let payload = encode_block(&rows).unwrap();
        assert_eq!(decode_block(&payload).unwrap(), rows);
    }

    #[test]
    fn encoding_is_deterministic() {
        let rows: Vec<Row> = (0..9).map(row).collect();
        assert_eq!(encode_block(&rows).unwrap(), encode_block(&rows).unwrap());
    }

    #[test]
    fn frame_round_trips_and_catches_flips() {
        let payload = encode_block(&[row(1), row(2)]).unwrap();
        let framed = frame_bytes(&payload);
        match parse_frame(&framed, 0) {
            Parsed::Frame { payload: p, end } => {
                assert_eq!(p, payload);
                assert_eq!(end, framed.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
        for at in 0..framed.len() {
            let mut bad = framed.clone();
            bad[at] ^= 0x40;
            match parse_frame(&bad, 0) {
                Parsed::Frame { .. } => panic!("flipped bit at {at} went undetected"),
                Parsed::Truncated | Parsed::BadCrc { .. } | Parsed::BadMagic => {}
            }
        }
    }

    #[test]
    fn truncation_is_distinguished_from_corruption() {
        let framed = frame_bytes(&encode_block(&[row(3)]).unwrap());
        for cut in 0..framed.len() {
            match parse_frame(&framed[..cut], 0) {
                Parsed::Truncated => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// `bytes` in a fresh temporary file.
    fn temp_file(label: &str, bytes: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "corescope-walker-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, bytes).unwrap();
        let file = File::open(&path).unwrap();
        (path, file)
    }

    /// What a walk yields, with payloads as their lengths.
    fn steps(walk: &mut Walker) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(step) = walk.step().unwrap() {
            out.push(match step {
                Step::Header { parsed, head } => format!("header {parsed:?} {}", head.len()),
                Step::Frame { at, payload, end } => format!("frame {at} {} {end}", payload.len()),
                other => format!("{other:?}"),
            });
        }
        out
    }

    #[test]
    fn the_walker_resyncs_after_garbage_and_holds_frames_longer_than_a_chunk() {
        let small = frame_bytes(&encode_block(&[row(1)]).unwrap());
        let rows: Vec<Row> = (0..1_000).map(row).collect();
        let large = frame_bytes(&encode_block(&rows).unwrap());
        assert!(large.len() > SCAN_CHUNK);
        let mut bytes = segment_header("walk");
        let h = bytes.len() as u64;
        bytes.extend_from_slice(b"garbage");
        bytes.extend_from_slice(&small);
        bytes.extend_from_slice(&large);
        bytes.extend_from_slice(&small[..20]);
        let (path, file) = temp_file("resync", &bytes);
        let mut walk = Walker::new(&file).unwrap();
        let (s, l) = (small.len() as u64, large.len() as u64);
        let at = h + 7;
        assert_eq!(
            steps(&mut walk),
            [
                format!("header Ok((\"walk\", {h})) {h}"),
                format!("Damage {{ at: {h}, end: None, resync: Some({at}) }}"),
                format!("frame {at} {} {}", s - 12, at + s),
                format!("frame {} {} {}", at + s, l - 12, at + s + l),
                format!("Truncated {{ at: {} }}", at + s + l),
            ]
        );
        // A limit cuts off the large frame, and the walk resumes anywhere.
        walk.limit(at + s + l - 1);
        walk.seek(at + s);
        assert_eq!(steps(&mut walk), [format!("Truncated {{ at: {} }}", at + s)]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_damaged_length_field_grows_the_buffer_only_to_the_file() {
        let mut bytes = segment_header("walk");
        let at = bytes.len();
        bytes.extend_from_slice(&frame_bytes(&encode_block(&[row(1)]).unwrap()));
        // The frame claims 60 MiB, in a file of a few hundred bytes.
        bytes[at + 4..at + 8].copy_from_slice(&(60u32 << 20).to_le_bytes());
        let (path, file) = temp_file("claim", &bytes);
        let mut walk = Walker::new(&file).unwrap();
        let got = steps(&mut walk);
        assert_eq!(got[1], format!("Truncated {{ at: {at} }}"));
        assert!(walk.buf.capacity() <= bytes.len(), "{} bytes held", walk.buf.capacity());
        // Under a cap the same header is damage, judged on its length.
        let mut walk = Walker::new(&file).unwrap();
        walk.cap(1024);
        assert!(steps(&mut walk)[1].starts_with(&format!("Damage {{ at: {at}, end: None")));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn segment_header_round_trips() {
        let header = segment_header("corescope-engine-test");
        let (tag, start) = parse_segment_header(&header).unwrap();
        assert_eq!(tag, "corescope-engine-test");
        assert_eq!(start, header.len());
        assert!(parse_segment_header(b"NOPE").is_err());
    }

    #[test]
    fn empty_block_round_trips() {
        let payload = encode_block(&[]).unwrap();
        assert_eq!(decode_block(&payload).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn oversized_axis_string_is_an_encode_error() {
        let mut bad = row(1);
        bad.system = "x".repeat(MAX_DICT_ENTRY + 1).into();
        assert!(encode_block(std::slice::from_ref(&bad)).is_err());
        assert!(encode_blocks(&[bad]).is_err());
    }

    #[test]
    fn encode_blocks_splits_at_the_dictionary_limit() {
        // All-distinct axis strings overflow the u16 dictionary after
        // 65535 entries; the packer must split, never wrap indices.
        let rows: Vec<Row> = (0..11_000u64)
            .map(|i| {
                let mut r = row(i);
                r.system = format!("sys-{i}").into();
                r.fidelity = format!("fid-{i}").into();
                r.placement = format!("pl-{i}").into();
                r.mpi = format!("mpi-{i}").into();
                r.lock = format!("lk-{i}").into();
                r.workload = format!("wl-{i}").into();
                r
            })
            .collect();
        assert!(encode_block(&rows).is_err(), "66000 dict entries must not fit one block");
        let blocks = encode_blocks(&rows).unwrap();
        assert!(blocks.len() >= 2, "expected a split, got {} block(s)", blocks.len());
        let decoded: Vec<Row> = blocks.iter().flat_map(|b| decode_block(b).unwrap()).collect();
        assert_eq!(decoded, rows);
    }
}
