//! Content-addressed result cache: in-memory always, on-disk optionally.
//!
//! The memory tier is bounded: two generations of at most `GENERATION`
//! entries each. A lookup that hits the older generation moves the entry
//! to the newer one; when the newer one fills, the older one is dropped
//! and the newer one takes its place. A long-running service therefore
//! holds at most `2 × GENERATION` results, while anything read at least
//! once per generation stays resident.
//!
//! Keys are scenario digests (see [`crate::scenario::Scenario::digest`]),
//! which already fold in [`crate::ENGINE_TAG`]; the disk layout repeats
//! the tag as a directory level (`<root>/<tag>/`) so stale engines'
//! entries are orphaned wholesale and a `results/.cache` wipe of one tag
//! cannot touch another's.
//!
//! The disk tier is a set of append-only *packs*, one per writing cache:
//! `<root>/<tag>/pack-<pid>-<n>.css`. A pack is a campaign-store segment
//! ([`corescope_store::frame`]) holding one one-row frame per entry: the
//! digest and the result scalars, axis strings empty. A cache creates its
//! pack on its first [`ResultCache::put`] with `create_new`, taking the
//! next `n` when the name is taken, so no two writers share a pack and a
//! process that reuses a dead one's pid never appends to its pack. Each
//! put appends one frame with one write, without fsync.
//!
//! Reads go through an in-memory offset index, digest → (pack, offset,
//! length), that the first disk lookup builds: one `read_dir`, then each
//! pack walked once by the store's [`frame::Walker`], digests only. A
//! lookup never rescans after that; [`ResultCache::claim_compute`] does,
//! listing new packs and walking only the bytes appended since. A lookup
//! takes a batch of digests in one pass: memory under one lock, the index
//! under one more for what memory missed, then memory again to promote
//! the disk hits. The frames found are read in (pack, offset) order, one
//! `read_exact_at` per run of frames at most 4 KiB apart and 64 KiB long,
//! and each is checked without building a row: magic and CRC, the length
//! indexed, one row, the key's digest. Anything else is a counted corrupt
//! miss. When a run's read fails (the pack was cut short after it was
//! indexed) each of its frames is read on its own, so whole ones still hit.
//!
//! The scan's damage rule: a frame cut off at a pack's end is a torn
//! tail (a writer mid-append, or killed in one), a plain miss the next
//! scan reads again, unless a whole frame follows it. Other damage (a bad
//! CRC, not a frame, a frame over the entry size or not one decodable
//! row) counts once as a corrupt entry, up to the next frame magic, and
//! later entries are still served. A pack whose header is damaged or
//! names another engine counts once and is never indexed. Per-entry
//! `<digest>.css` files of earlier versions are never read.
//!
//! Processes sharing a directory compute each miss once between them:
//! [`ResultCache::claim_compute`] takes `<digest>.lock` there, a
//! [`LockFile`] the kernel holds (`flock`), so a killed owner's lock is
//! free at once and a live owner's never is. The owner unlinks it when
//! done. A killed owner leaves the file, holding no lock; the next claim
//! of that digest reuses it, and a cache's first listing removes it.
//!
//! Failure policy: the cache is an accelerator, never a correctness
//! dependency. Disk errors (unwritable directory, corrupt entry, partial
//! write from a killed process) degrade to a miss; they are counted, not
//! propagated.

use crate::encode::Digest;
use crate::scenario::ScenarioResult;
use crate::sink::{result_row, row_result};
use corescope_store::frame::{self, Step, Walker, SCAN_CHUNK};
use corescope_store::lockfile::{LockError, LockFile};
use corescope_store::DigestMap;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A typed cache failure, surfaced where degrading to a miss would hide a
/// configuration problem (e.g. `--cache` pointing at a read-only mount).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The cache directory cannot be created or written.
    Unwritable {
        /// The directory that failed the write probe.
        dir: PathBuf,
        /// The underlying OS error text.
        reason: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let CacheError::Unwritable { dir, reason } = self;
        write!(f, "cache directory {} is not writable: {reason}", dir.display())
    }
}

impl std::error::Error for CacheError {}

/// Outcome of [`ResultCache::claim_compute`]: either this caller owns the
/// computation (holding the cross-process lock, if any), or another
/// process published the entry while we waited.
#[derive(Debug)]
pub enum ComputeClaim {
    /// We own the computation. `None` means no disk lock is held (cache
    /// is memory-only, or locking failed and we fall back to computing —
    /// the cache is an accelerator, never a correctness dependency).
    /// Dropping the lock releases it.
    Owner(Option<LockFile>),
    /// Another process computed and published the entry while we waited.
    Published(ScenarioResult),
}

/// How often a [`ResultCache::claim_compute`] waiter retries the lock.
const LOCK_POLL: Duration = Duration::from_millis(250);

/// How long a waiter waits for another owner's lock before it computes
/// without it.
const LOCK_WAIT: Duration = Duration::from_secs(300);

/// Entries the newer memory generation holds before it rotates. It sits
/// above the largest working set that relies on memory hits: `replay`'s
/// 5,000 distinct scenarios and the 1,417 hits of a warm `repro --quick`
/// pass both fit in one generation, so none of them is ever evicted.
const GENERATION: usize = 8192;

/// Bytes of one entry's frame: the 12-byte frame header and an 88-byte
/// payload (one row whose dictionary is the empty string).
const ENTRY_FRAME: u64 = 100;

/// Largest frame payload a scan takes for an entry; a frame header
/// claiming more is damage, which keeps every frame a scan must hold
/// whole well inside one [`SCAN_CHUNK`], and every frame a lookup reads
/// inside one [`READ_SPAN`].
const MAX_ENTRY_PAYLOAD: usize = 1024;

/// Bytes between two indexed frames of one pack up to which a lookup
/// reads both with one read: reading this many unwanted bytes costs less
/// than a second positioned read.
const READ_GAP: u64 = 4 * 1024;

/// Most bytes one coalesced read covers, and so what a lookup buffers at
/// most. Every indexed frame fits, being under
/// `FRAME_HEADER + MAX_ENTRY_PAYLOAD` bytes.
const READ_SPAN: u64 = SCAN_CHUNK as u64;

/// Bytes of the largest frame a scan indexes: a one-frame read fits in
/// a stack buffer this long.
const MAX_ENTRY_FRAME: usize = frame::FRAME_HEADER + MAX_ENTRY_PAYLOAD;

/// The bounded memory tier: two generations, newest first.
#[derive(Debug)]
struct Generations {
    current: DigestMap<ScenarioResult>,
    previous: DigestMap<ScenarioResult>,
    /// Size at which `current` rotates: [`GENERATION`], smaller in tests.
    limit: usize,
}

impl Generations {
    fn new(limit: usize) -> Self {
        Self { current: DigestMap::default(), previous: DigestMap::default(), limit }
    }

    /// Looks `key` up; a hit in `previous` moves the entry to `current`.
    /// Returns the result and how many entries a rotation evicted.
    fn get(&mut self, key: u128) -> Option<(ScenarioResult, usize)> {
        if let Some(hit) = self.current.get(&key) {
            return Some((*hit, 0));
        }
        let hit = self.previous.remove(&key)?;
        Some((hit, self.insert(key, hit)))
    }

    /// The one insert path. A key lives in at most one generation; when
    /// `current` reaches the limit it becomes `previous` and the old
    /// `previous` is dropped. Returns how many entries that dropped.
    fn insert(&mut self, key: u128, result: ScenarioResult) -> usize {
        self.previous.remove(&key);
        self.current.insert(key, result);
        if self.current.len() < self.limit {
            return 0;
        }
        // Swap and clear rather than reallocate: both maps keep their
        // capacity, so a steady-state service stops allocating here.
        std::mem::swap(&mut self.current, &mut self.previous);
        let evicted = self.current.len();
        self.current.clear();
        evicted
    }
}

/// Where an indexed entry's frame lies. 16 bytes, so an index slot
/// (digest, location and the hash table's control byte) is 33 bytes.
#[derive(Debug, Clone, Copy)]
struct Loc {
    pack: u32,
    len: u32,
    offset: u64,
}

/// How far a pack's scan has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The segment header is not yet wholly on disk.
    Header,
    /// `Pack::at` is a frame boundary, or the start of a torn tail.
    Frames,
    /// `Pack::at` is inside damage already counted: find the next frame
    /// magic at or after it before classifying again.
    Resync,
    /// The header is damaged or names another engine: never indexed.
    Dead,
}

/// One pack, open for positioned reads.
#[derive(Debug)]
struct Pack {
    file: Arc<File>,
    /// Every byte before this one is indexed or counted.
    at: u64,
    phase: Phase,
}

impl Pack {
    /// Walks the bytes written since the last scan under the cache's
    /// damage rule (see the module doc), indexing each entry as pack `no`.
    fn scan(
        &mut self,
        no: u32,
        index: &mut DigestMap<Loc>,
        counters: &Counters,
    ) -> std::io::Result<()> {
        let file = Arc::clone(&self.file);
        let mut walk = Walker::new(&file)?;
        match self.phase {
            Phase::Dead => return Ok(()),
            Phase::Header => {}
            Phase::Frames => walk.seek(self.at),
            Phase::Resync => walk.resync(self.at),
        }
        walk.cap(MAX_ENTRY_PAYLOAD);
        // Size the index for the new entries in one allocation rather than
        // a chain of doublings.
        index.reserve((walk.file_len().saturating_sub(self.at) / ENTRY_FRAME) as usize);
        while let Some(step) = walk.step()? {
            match step {
                Step::Header { parsed, head } => match parsed {
                    Ok((tag, start)) if tag == crate::ENGINE_TAG => {
                        (self.phase, self.at) = (Phase::Frames, start);
                    }
                    // The header is still being written.
                    Err(_) if frame::segment_header(crate::ENGINE_TAG).starts_with(head) => {
                        return Ok(())
                    }
                    _ => {
                        counters.corrupt(1);
                        self.phase = Phase::Dead;
                        return Ok(());
                    }
                },
                Step::Frame { at, payload, end } => match frame::single_row(payload) {
                    Ok(row) => {
                        (self.phase, self.at) = (Phase::Frames, end);
                        let len = (end - at) as u32;
                        index.insert(row.digest, Loc { pack: no, len, offset: at });
                    }
                    Err(_) => {
                        self.damage(at, counters);
                        walk.resync(at + 1);
                    }
                },
                Step::Truncated { at } => {
                    if !walk.frame_follows(at)? {
                        (self.phase, self.at) = (Phase::Frames, at);
                        return Ok(());
                    }
                    self.damage(at, counters);
                }
                Step::Damage { at, .. } => self.damage(at, counters),
            }
        }
        if self.phase == Phase::Resync {
            // No frame magic after the damage yet; one may straddle the
            // pack's last three bytes once more are written.
            self.at = self.at.max(walk.file_len().saturating_sub(3));
        }
        Ok(())
    }

    /// Counts damage at `at` once; the scan resumes at the next frame magic.
    fn damage(&mut self, at: u64, counters: &Counters) {
        counters.corrupt(1);
        (self.phase, self.at) = (Phase::Resync, at + 1);
    }
}

/// This cache's own pack: `packs[pack]`, `len` bytes long.
#[derive(Debug, Clone, Copy)]
struct Writer {
    pack: usize,
    len: u64,
}

/// The disk tier's packs, offset index and writer.
#[derive(Debug, Default)]
struct DiskState {
    /// Whether a scan has listed the directory yet.
    listed: bool,
    packs: Vec<Pack>,
    /// The file names of `packs`, so a rescan opens only new ones.
    names: HashSet<String>,
    index: DigestMap<Loc>,
    writer: Option<Writer>,
    /// The `n` of the next `pack-<pid>-<n>.css` this cache tries.
    next_pack: u64,
}

/// Whether `name` is `pack-<pid>-<n>.css`.
fn is_pack_name(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    name.strip_prefix("pack-")
        .and_then(|rest| rest.strip_suffix(".css"))
        .and_then(|rest| rest.split_once('-'))
        .is_some_and(|(pid, n)| digits(pid) && digits(n))
}

impl DiskState {
    fn add_pack(&mut self, name: String, file: File, at: u64, phase: Phase) -> usize {
        self.names.insert(name);
        self.packs.push(Pack { file: Arc::new(file), at, phase });
        self.packs.len() - 1
    }

    /// Lists packs not seen yet, then scans every pack past what it has
    /// already classified. The first listing also removes the lock files
    /// nobody holds.
    fn rescan(&mut self, dir: &Path, counters: &Counters) {
        let first = !std::mem::replace(&mut self.listed, true);
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let Ok(name) = entry.file_name().into_string() else { continue };
                    if first && name.ends_with(".lock") {
                        // A lock file nobody holds is a killed owner's
                        // leftover: taking it and letting go removes it.
                        let _ = LockFile::acquire(&dir.join(&name));
                        continue;
                    }
                    if !is_pack_name(&name) || self.names.contains(&name) {
                        continue;
                    }
                    match File::open(dir.join(&name)) {
                        Ok(file) => _ = self.add_pack(name, file, 0, Phase::Header),
                        Err(e) if e.kind() == ErrorKind::NotFound => {}
                        Err(_) => counters.disk_error(),
                    }
                }
            }
            // No directory (or a file in its place) holds no entries.
            Err(e) if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::NotADirectory) => {}
            Err(_) => counters.disk_error(),
        }
        for (no, pack) in self.packs.iter_mut().enumerate() {
            if pack.scan(no as u32, &mut self.index, counters).is_err() {
                counters.disk_error();
            }
        }
    }

    /// The file of each pack `frames` lie in, sorted by pack number;
    /// `frames` must be sorted by pack.
    fn files_of(&self, frames: &[Found]) -> Vec<(u32, Arc<File>)> {
        let mut files: Vec<(u32, Arc<File>)> = Vec::new();
        for found in frames {
            if files.last().map(|&(pack, _)| pack) != Some(found.loc.pack) {
                files.push((found.loc.pack, Arc::clone(&self.packs[found.loc.pack as usize].file)));
            }
        }
        files
    }

    /// Creates and registers a new pack of this cache's own, skipping
    /// names already taken.
    fn create_pack(&mut self, dir: &Path) -> std::io::Result<Writer> {
        std::fs::create_dir_all(dir)?;
        let header = frame::segment_header(crate::ENGINE_TAG);
        loop {
            let name = format!("pack-{}-{}.css", std::process::id(), self.next_pack);
            self.next_pack += 1;
            let opened =
                OpenOptions::new().read(true).append(true).create_new(true).open(dir.join(&name));
            let file = match opened {
                Ok(file) => file,
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            };
            (&file).write_all(&header)?;
            let len = header.len() as u64;
            return Ok(Writer { pack: self.add_pack(name, file, len, Phase::Frames), len });
        }
    }

    /// Appends one entry frame to this cache's pack, creating the pack
    /// first if there is none.
    fn append(&mut self, dir: &Path, digest: Digest, bytes: &[u8]) -> std::io::Result<()> {
        let writer = match self.writer {
            Some(writer) => writer,
            None => self.create_pack(dir)?,
        };
        if let Err(e) = (&*self.packs[writer.pack].file).write_all(bytes) {
            // How much of the frame landed is unknown: the next put
            // starts a new pack.
            self.writer = None;
            return Err(e);
        }
        let len = bytes.len() as u64;
        self.writer = Some(Writer { len: writer.len + len, ..writer });
        let pack = &mut self.packs[writer.pack];
        if pack.at == writer.len {
            pack.at += len;
            let loc = Loc { pack: writer.pack as u32, len: len as u32, offset: writer.len };
            self.index.insert(digest.0, loc);
        }
        Ok(())
    }
}

/// An indexed frame a lookup reads, and the lookup slot it answers.
#[derive(Debug, Clone, Copy)]
struct Found {
    loc: Loc,
    slot: usize,
    digest: Digest,
    /// Set when the frame is read and passes its checks.
    result: Option<ScenarioResult>,
}

/// Checks that `bytes`, one indexed frame, is `digest`'s entry: magic
/// and CRC, the frame ending where the index says, one row, and the
/// row's digest.
fn check_entry(bytes: &[u8], digest: Digest) -> Option<ScenarioResult> {
    let frame::Parsed::Frame { payload, end } = frame::parse_frame(bytes, 0) else {
        return None;
    };
    let row = frame::single_row(payload).ok()?;
    (end == bytes.len() && row.digest == digest.0).then(|| row_result(&row))
}

/// Reads `run`, frames of one pack that `bytes` spans from `start`,
/// with one read, then checks each. When that read fails, each frame is
/// read on its own. Returns how many frames failed.
fn read_run(file: &File, run: &mut [Found], start: u64, bytes: &mut [u8]) -> usize {
    let whole = file.read_exact_at(bytes, start).is_ok();
    let mut failed = 0;
    for found in run {
        let at = (found.loc.offset - start) as usize;
        let frame = &mut bytes[at..at + found.loc.len as usize];
        let read = whole || file.read_exact_at(frame, found.loc.offset).is_ok();
        found.result = if read { check_entry(frame, found.digest) } else { None };
        failed += usize::from(found.result.is_none());
    }
    failed
}

/// Reads and checks `frames`, sorted by (pack, offset), one read per run
/// of frames of one pack at most [`READ_GAP`] apart and [`READ_SPAN`]
/// long. `files` are the packs' files by pack number, as
/// [`DiskState::files_of`] gives them. A run no longer than the largest
/// entry frame, such as a lone frame, is read into a stack buffer.
/// Returns how many frames failed.
fn read_frames(files: &[(u32, Arc<File>)], frames: &mut [Found]) -> usize {
    let mut one = [0u8; MAX_ENTRY_FRAME];
    let mut many = Vec::new();
    let mut failed = 0;
    let mut rest = frames;
    while let Some(first) = rest.first() {
        let (pack, start) = (first.loc.pack, first.loc.offset);
        let mut end = start + u64::from(first.loc.len);
        let joined = rest[1..]
            .iter()
            .take_while(|next| {
                let next_end = next.loc.offset + u64::from(next.loc.len);
                let joins = next.loc.pack == pack
                    && next.loc.offset <= end + READ_GAP
                    && next_end - start <= READ_SPAN;
                if joins {
                    end = end.max(next_end);
                }
                joins
            })
            .count();
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(1 + joined);
        let span = (end - start) as usize;
        let bytes = if span <= one.len() {
            &mut one[..span]
        } else {
            if many.len() < span {
                many.resize(span, 0);
            }
            &mut many[..span]
        };
        let file = &files[files.partition_point(|&(no, _)| no < pack)].1;
        failed += read_run(file, run, start, bytes);
        rest = tail;
    }
    failed
}

/// The disk tier: `<root>/<ENGINE_TAG>` and what is known of it.
#[derive(Debug)]
struct Disk {
    dir: PathBuf,
    state: Mutex<DiskState>,
}

impl Disk {
    fn state(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Where a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Not cached: the engine ran.
    Miss,
    /// Served from the in-memory tier.
    Memory,
    /// Served from `results/.cache` (and promoted to memory).
    Disk,
    /// Another thread was already running the same scenario; we waited
    /// for its result instead of recomputing.
    InFlight,
}

impl CacheTier {
    /// Stable lowercase key for JSON output and logs.
    pub fn key(self) -> &'static str {
        match self {
            CacheTier::Miss => "miss",
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
            CacheTier::InFlight => "in-flight",
        }
    }
}

/// Monotonic counters for observability; read via [`ResultCache::stats`].
#[derive(Debug, Default)]
struct Counters {
    hits_memory: AtomicUsize,
    hits_disk: AtomicUsize,
    misses: AtomicUsize,
    disk_errors: AtomicUsize,
    corrupt_entries: AtomicUsize,
    unwritable: AtomicUsize,
    evicted: AtomicUsize,
}

impl Counters {
    fn disk_error(&self) {
        self.disk_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` entries' bytes were present but untrustworthy: count the
    /// corruption as well as the degradation to a miss.
    fn corrupt(&self, n: usize) {
        self.disk_errors.fetch_add(n, Ordering::Relaxed);
        self.corrupt_entries.fetch_add(n, Ordering::Relaxed);
    }
}

/// A snapshot of cache activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits_memory: usize,
    /// Lookups served from disk.
    pub hits_disk: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Disk reads/writes that failed and were treated as misses.
    pub disk_errors: usize,
    /// Damage found on disk — a damaged region inside a pack (CRC
    /// mismatch, bad magic, bad decode), a pack with a damaged or foreign
    /// header, or an indexed frame failing its checks — a subset of
    /// `disk_errors`.
    pub corrupt_entries: usize,
    /// Entry writes that failed (typically an unwritable directory) — a
    /// subset of `disk_errors`.
    pub unwritable: usize,
    /// Results dropped from memory when the older generation rotated
    /// out. A later lookup of one of them falls through to disk (or
    /// reruns the engine on a memory-only cache).
    pub evicted: usize,
}

/// The two-tier result cache. All methods take `&self`; the cache is
/// shared across executor workers by reference.
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<Generations>,
    disk: Option<Disk>,
    counters: Counters,
}

impl ResultCache {
    fn with_disk(disk: Option<Disk>) -> Self {
        Self {
            memory: Mutex::new(Generations::new(GENERATION)),
            disk,
            counters: Counters::default(),
        }
    }

    /// An in-memory-only cache.
    pub fn in_memory() -> Self {
        Self::with_disk(None)
    }

    /// A cache backed by `root` (conventionally `results/.cache`).
    /// Packs land under `<root>/<ENGINE_TAG>/`. The directory is
    /// created lazily on first store.
    pub fn on_disk(root: impl Into<PathBuf>) -> Self {
        let dir = root.into().join(crate::ENGINE_TAG);
        Self::with_disk(Some(Disk { dir, state: Mutex::default() }))
    }

    /// Like [`ResultCache::on_disk`], but probes the directory up front:
    /// creates the tag directory and round-trips a probe file, so a bad
    /// `--cache` argument fails at startup with a typed error instead of
    /// degrading every lookup into a counted disk error.
    ///
    /// # Errors
    ///
    /// [`CacheError::Unwritable`] when the directory cannot be created or
    /// written.
    pub fn try_on_disk(root: impl Into<PathBuf>) -> Result<Self, CacheError> {
        let cache = Self::on_disk(root);
        let dir = cache.tag_dir().expect("disk-backed cache always has a tag dir");
        let unwritable = |reason: std::io::Error| CacheError::Unwritable {
            dir: dir.clone(),
            reason: reason.to_string(),
        };
        std::fs::create_dir_all(&dir).map_err(unwritable)?;
        let probe = dir.join(format!(".probe.{}", std::process::id()));
        std::fs::write(&probe, b"probe").map_err(unwritable)?;
        std::fs::remove_file(&probe).map_err(unwritable)?;
        Ok(cache)
    }

    /// The directory packs are stored in, if disk-backed.
    pub fn tag_dir(&self) -> Option<PathBuf> {
        self.disk.as_ref().map(|disk| disk.dir.clone())
    }

    fn lock_path(&self, digest: Digest) -> Option<PathBuf> {
        self.disk.as_ref().map(|disk| disk.dir.join(format!("{}.lock", digest.hex())))
    }

    /// Stores `result` in the memory tier, counting what a generation
    /// rotation evicts. Every memory insert goes through here.
    fn insert(&self, digest: Digest, result: ScenarioResult) {
        if let Ok(mut memory) = self.memory.lock() {
            let evicted = memory.insert(digest.0, result);
            self.counters.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks a digest up, reporting which tier answered: the one-digest
    /// case of the batch lookup the scheduler makes (see the module doc).
    /// A disk hit is promoted into memory.
    pub fn get(&self, digest: Digest) -> Option<(ScenarioResult, CacheTier)> {
        let mut out = [None];
        self.lookup(&[digest], &mut out);
        out[0]
    }

    /// Looks a batch of digests up in one pass, setting `out[i]` to what
    /// answered `digests[i]`, or `None` for a miss. Memory answers
    /// first, under one lock; the rest go to the disk tier (see the
    /// module doc), and its hits are promoted into memory under one more
    /// lock, in digest order.
    /// The first disk lookup builds the offset index; later ones only
    /// consult it. Counters move once per call.
    ///
    /// With distinct digests this answers and counts as a `get` of each
    /// in turn would, unless a promotion rotates the memory generations
    /// mid-batch (then a digest a `get` would find on disk is a memory
    /// hit here). A digest repeated in one call gets the same tier each
    /// time, where a run of `get`s would find the copies after a disk hit
    /// in memory.
    ///
    /// # Panics
    ///
    /// When `out` and `digests` differ in length.
    pub(crate) fn lookup(
        &self,
        digests: &[Digest],
        out: &mut [Option<(ScenarioResult, CacheTier)>],
    ) {
        assert_eq!(digests.len(), out.len(), "one answer slot per digest");
        out.fill(None);
        let mut evicted = 0;
        if let Ok(mut memory) = self.memory.lock() {
            for (slot, digest) in out.iter_mut().zip(digests) {
                if let Some((hit, dropped)) = memory.get(digest.0) {
                    evicted += dropped;
                    *slot = Some((hit, CacheTier::Memory));
                }
            }
        }
        let memory_hits = out.iter().flatten().count();
        let disk_hits = match &self.disk {
            Some(disk) if memory_hits < digests.len() => self.read_disk(disk, digests, out, false),
            _ => 0,
        };
        if disk_hits > 0 {
            if let Ok(mut memory) = self.memory.lock() {
                for (slot, digest) in out.iter().zip(digests) {
                    if let Some((result, CacheTier::Disk)) = *slot {
                        evicted += memory.insert(digest.0, result);
                    }
                }
            }
        }
        let counters = &self.counters;
        counters.hits_memory.fetch_add(memory_hits, Ordering::Relaxed);
        counters.hits_disk.fetch_add(disk_hits, Ordering::Relaxed);
        counters.misses.fetch_add(digests.len() - memory_hits - disk_hits, Ordering::Relaxed);
        counters.evicted.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Looks `digest` up in memory alone, for a caller that missed in a
    /// [`ResultCache::lookup`] and may have been overtaken since: a hit
    /// counts as a memory hit (on top of the miss already counted), a
    /// miss counts nothing.
    pub(crate) fn recheck_memory(&self, digest: Digest) -> Option<ScenarioResult> {
        let (hit, evicted) = self.memory.lock().ok()?.get(digest.0)?;
        self.counters.hits_memory.fetch_add(1, Ordering::Relaxed);
        self.counters.evicted.fetch_add(evicted, Ordering::Relaxed);
        Some(hit)
    }

    /// The disk half of a lookup: finds each digest `out` leaves
    /// unanswered in the offset index under one lock (after an
    /// incremental scan if `rescan`, else only if nothing was ever
    /// listed) and sorts the frames found, then reads and checks them
    /// with the lock released, counting each that fails as corrupt.
    /// Returns the hits.
    fn read_disk(
        &self,
        disk: &Disk,
        digests: &[Digest],
        out: &mut [Option<(ScenarioResult, CacheTier)>],
        rescan: bool,
    ) -> usize {
        let (files, mut found) = {
            let mut state = disk.state();
            if rescan || !state.listed {
                state.rescan(&disk.dir, &self.counters);
            }
            let mut found = Vec::with_capacity(out.iter().filter(|slot| slot.is_none()).count());
            for (slot, (&digest, answer)) in digests.iter().zip(out.iter()).enumerate() {
                if let (None, Some(&loc)) = (answer, state.index.get(&digest.0)) {
                    found.push(Found { loc, slot, digest, result: None });
                }
            }
            if found.is_empty() {
                return 0;
            }
            found.sort_unstable_by_key(|found| (found.loc.pack, found.loc.offset));
            (state.files_of(&found), found)
        };
        let failed = read_frames(&files, &mut found);
        if failed > 0 {
            self.counters.corrupt(failed);
        }
        for hit in &found {
            if let Some(result) = hit.result {
                out[hit.slot] = Some((result, CacheTier::Disk));
            }
        }
        found.len() - failed
    }

    /// Stores a fresh result in memory and (best-effort) appends it to
    /// this cache's pack.
    pub fn put(&self, digest: Digest, result: &ScenarioResult) {
        self.insert(digest, *result);
        if let Some(disk) = &self.disk {
            let appended = frame::encode_block(&[result_row(digest, result)])
                .map_err(|_| ())
                .and_then(|payload| {
                    let bytes = frame::frame_bytes(&payload);
                    disk.state().append(&disk.dir, digest, &bytes).map_err(|_| ())
                });
            if appended.is_err() {
                self.counters.disk_error();
                self.counters.unwritable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Scans what was written since the last scan, then looks `digest` up
    /// on disk.
    fn refresh(&self, disk: &Disk, digest: Digest) -> Option<ScenarioResult> {
        let mut out = [None];
        self.read_disk(disk, &[digest], &mut out, true);
        out[0].map(|(result, _)| result)
    }

    /// Claims the right to compute `digest`, single-flight **across
    /// processes**, through a [`LockFile`] at `<hex>.lock`:
    ///
    /// 1. the winner re-checks the packs (the previous owner may have
    ///    published between our miss and the lock) and becomes the
    ///    owner, or returns what was published;
    /// 2. losers retry the lock every 250 ms and re-check once they hold
    ///    it. A dead owner's lock is free at once (the kernel held it),
    ///    but a waiter that has waited 300 s computes without the lock,
    ///    so a wedged owner costs a duplicate run, never a hang.
    ///
    /// Each re-check is an incremental scan: new packs, then the bytes
    /// appended since the last scan. An owner's frame that is only partly
    /// written is a torn tail, a plain miss until it is whole. Any
    /// locking I/O error degrades to `Owner(None)` — worst case is a
    /// duplicated compute, never a corrupt entry or a hang.
    pub fn claim_compute(&self, digest: Digest) -> ComputeClaim {
        let (Some(disk), Some(lock_path)) = (&self.disk, self.lock_path(digest)) else {
            return ComputeClaim::Owner(None);
        };
        if std::fs::create_dir_all(&disk.dir).is_err() {
            self.counters.disk_error();
            return ComputeClaim::Owner(None);
        }
        let bail_out = Instant::now() + LOCK_WAIT;
        loop {
            match LockFile::acquire(&lock_path) {
                Ok(lock) => {
                    if let Some(result) = self.refresh(disk, digest) {
                        // Published while we waited for the lock.
                        return self.published(digest, result);
                    }
                    return ComputeClaim::Owner(Some(lock));
                }
                Err(LockError::Held(_)) if Instant::now() < bail_out => {
                    std::thread::sleep(LOCK_POLL);
                }
                Err(_) => {
                    self.counters.disk_error();
                    return ComputeClaim::Owner(None);
                }
            }
        }
    }

    /// Promotes an entry another owner published and reports it.
    fn published(&self, digest: Digest, result: ScenarioResult) -> ComputeClaim {
        self.insert(digest, result);
        self.counters.hits_disk.fetch_add(1, Ordering::Relaxed);
        ComputeClaim::Published(result)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits_memory: self.counters.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.counters.hits_disk.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            disk_errors: self.counters.disk_errors.load(Ordering::Relaxed),
            corrupt_entries: self.counters.corrupt_entries.load(Ordering::Relaxed),
            unwritable: self.counters.unwritable.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(makespan: f64) -> ScenarioResult {
        ScenarioResult {
            makespan,
            events: 42,
            faults_applied: 0,
            checkpoints_taken: 0,
            recoveries: 0,
            retries: 0,
        }
    }

    fn tmpdir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("corescope-cache-test-{label}-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_round_trips() {
        let cache = ResultCache::in_memory();
        let d = Digest(7);
        assert!(cache.get(d).is_none());
        cache.put(d, &result(1.5));
        let (hit, tier) = cache.get(d).unwrap();
        assert_eq!(hit, result(1.5));
        assert_eq!(tier, CacheTier::Memory);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits_memory), (1, 1));
    }

    #[test]
    fn disk_tier_survives_a_new_cache_and_promotes_to_memory() {
        let root = tmpdir("disk");
        let d = Digest(99);
        {
            let cache = ResultCache::on_disk(&root);
            cache.put(d, &result(1.0 / 3.0));
        }
        let cache = ResultCache::on_disk(&root);
        let (hit, tier) = cache.get(d).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(hit.makespan.to_bits(), (1.0f64 / 3.0).to_bits(), "disk must be bit-exact");
        // Second read comes from memory.
        assert_eq!(cache.get(d).unwrap().1, CacheTier::Memory);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// One entry's frame, as a put appends it.
    fn entry_frame(digest: Digest, result: &ScenarioResult) -> Vec<u8> {
        frame::frame_bytes(&frame::encode_block(&[result_row(digest, result)]).unwrap())
    }

    /// A pack: the segment header of `tag`, then `frames`.
    fn pack_under(tag: &str, frames: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = frame::segment_header(tag);
        for frame in frames {
            bytes.extend_from_slice(frame);
        }
        bytes
    }

    /// Bytes of the header every pack of this engine starts with.
    fn header_len() -> usize {
        frame::segment_header(crate::ENGINE_TAG).len()
    }

    /// The packs in the cache's tag directory, sorted by name.
    fn packs(cache: &ResultCache) -> Vec<PathBuf> {
        let mut packs: Vec<PathBuf> = std::fs::read_dir(cache.tag_dir().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.file_name().and_then(|n| n.to_str()).is_some_and(is_pack_name))
            .collect();
        packs.sort();
        packs
    }

    /// The one pack in the cache's tag directory.
    fn the_pack(cache: &ResultCache) -> PathBuf {
        let packs = packs(cache);
        assert_eq!(packs.len(), 1, "{packs:?}");
        packs[0].clone()
    }

    fn append(path: &Path, bytes: &[u8]) {
        OpenOptions::new().append(true).open(path).unwrap().write_all(bytes).unwrap();
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let root = tmpdir("corrupt");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(5);
        let dir = cache.tag_dir().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("pack-0-0.css"), "not json at all").unwrap();
        assert!(cache.get(d).is_none());
        let stats = cache.stats();
        assert_eq!((stats.disk_errors, stats.corrupt_entries), (1, 1));
        // A put repairs the entry.
        cache.put(d, &result(2.0));
        let fresh = ResultCache::on_disk(&root);
        assert_eq!(fresh.get(d).unwrap().0, result(2.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn foreign_engine_tags_are_rejected() {
        let root = tmpdir("tag");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(11);
        // Same bytes as a real pack, down to a valid frame CRC, except
        // for the engine tag in the segment header.
        cache.put(d, &result(9.0));
        assert_eq!(
            std::fs::read(the_pack(&cache)).unwrap(),
            pack_under(crate::ENGINE_TAG, &[entry_frame(d, &result(9.0))])
        );
        let dir = cache.tag_dir().unwrap();
        // Another engine's tag, and one as long as ours, so that frames
        // would line up if only the header's length were checked.
        let same_length = format!("{}X", &crate::ENGINE_TAG[..crate::ENGINE_TAG.len() - 1]);
        for tag in ["other-engine", &same_length] {
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::create_dir_all(&dir).unwrap();
            let foreign = pack_under(tag, &[entry_frame(d, &result(9.0))]);
            std::fs::write(dir.join("pack-0-0.css"), foreign).unwrap();
            let fresh = ResultCache::on_disk(&root);
            assert!(fresh.get(d).is_none(), "{tag}");
            let stats = fresh.stats();
            assert_eq!((stats.disk_errors, stats.corrupt_entries), (1, 1), "{tag}");
            // The pack is never indexed, and a rescan does not count it
            // again.
            match fresh.claim_compute(d) {
                ComputeClaim::Owner(Some(lock)) => drop(lock),
                other => panic!("{tag}: a foreign pack must not publish, got {other:?}"),
            }
            assert_eq!(fresh.stats().corrupt_entries, 1, "{tag}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_copied_to_another_digest_is_rejected() {
        let root = tmpdir("copied");
        let cache = ResultCache::on_disk(&root);
        let (d, other) = (Digest(12), Digest(13));
        cache.put(d, &result(8.0));
        cache.put(other, &result(9.0));
        let fresh = ResultCache::on_disk(&root);
        assert!(fresh.get(Digest(14)).is_none(), "builds the index");
        // Copy d's frame over other's in place, after the index was built:
        // only the digest check can tell.
        let path = the_pack(&cache);
        let mut bytes = std::fs::read(&path).unwrap();
        let frame_len = entry_frame(d, &result(8.0)).len();
        bytes.copy_within(header_len()..header_len() + frame_len, header_len() + frame_len);
        std::fs::write(&path, bytes).unwrap();
        assert!(fresh.get(other).is_none(), "another digest's result must not be served");
        let stats = fresh.stats();
        assert_eq!((stats.disk_errors, stats.corrupt_entries), (1, 1));
        assert_eq!(fresh.get(d).unwrap(), (result(8.0), CacheTier::Disk));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_entries_degrade_and_recover_on_republish() {
        let root = tmpdir("torn");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(21);
        cache.put(d, &result(4.0));
        let path = the_pack(&cache);
        // Simulate a writer killed mid-append: the pack ends in the
        // middle of the entry's frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let fresh = ResultCache::on_disk(&root);
        assert!(fresh.get(d).is_none(), "torn entry must read as a miss");
        // A torn tail is what a live writer's append looks like too: a
        // plain miss, not a counted error.
        let stats = fresh.stats();
        assert_eq!((stats.disk_errors, stats.corrupt_entries), (0, 0));
        // Republishing repairs it for every later reader.
        fresh.put(d, &result(4.0));
        let reader = ResultCache::on_disk(&root);
        assert_eq!(reader.get(d).unwrap(), (result(4.0), CacheTier::Disk));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crc_frame_check_catches_in_place_bit_flips() {
        let root = tmpdir("crc");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(77);
        cache.put(d, &result(3.5));
        let indexed = ResultCache::on_disk(&root);
        assert!(indexed.get(Digest(78)).is_none(), "builds the index before the flip");
        let path = the_pack(&cache);
        let bytes = std::fs::read(&path).unwrap();
        // Change the events count from 42 to 43 inside the frame. The
        // block still decodes — only the CRC frame check can tell.
        let events = 42u64.to_le_bytes();
        let at = bytes.windows(8).position(|w| w == events).expect("events column");
        let mut tampered = bytes.clone();
        tampered[at] = 43;
        std::fs::write(&path, tampered).unwrap();
        let fresh = ResultCache::on_disk(&root);
        assert!(fresh.get(d).is_none(), "tampered entry must not be served");
        let stats = fresh.stats();
        assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1));
        // The hit's own CRC check catches a flip made after the scan.
        assert!(indexed.get(d).is_none(), "an entry tampered after indexing was served");
        let stats = indexed.stats();
        assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_warm_cache_opens_no_file_per_hit() {
        let root = tmpdir("warm");
        let writer = ResultCache::on_disk(&root);
        let keys: Vec<Digest> = (0..50).map(|k| Digest(1_000 + k)).collect();
        for (i, &key) in keys.iter().enumerate() {
            writer.put(key, &result(i as f64));
        }
        let reader = ResultCache::on_disk(&root);
        assert_eq!(reader.get(keys[0]).unwrap(), (result(0.0), CacheTier::Disk));
        // One get built the index and opened the pack: with the tag
        // directory renamed away, no entry can be opened by name.
        std::fs::rename(reader.tag_dir().unwrap(), root.join("moved")).unwrap();
        for (i, &key) in keys.iter().enumerate().skip(1) {
            assert_eq!(reader.get(key).unwrap(), (result(i as f64), CacheTier::Disk), "{i}");
        }
        let stats = reader.stats();
        assert_eq!((stats.hits_disk, stats.misses, stats.disk_errors), (keys.len(), 0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn two_caches_on_one_root_publish_through_claim_compute() {
        let root = tmpdir("two");
        let (a, b) = (ResultCache::on_disk(&root), ResultCache::on_disk(&root));
        let keys: Vec<Digest> = (0..20).map(|k| Digest(2_000 + k)).collect();
        assert!(b.get(keys[0]).is_none(), "b's index is built before a writes");
        for (i, &key) in keys.iter().enumerate() {
            a.put(key, &result(i as f64));
        }
        assert!(b.get(keys[0]).is_none(), "get never rescans");
        for (i, &key) in keys.iter().enumerate() {
            match b.claim_compute(key) {
                ComputeClaim::Published(res) => assert_eq!(res, result(i as f64)),
                other => panic!("a's entry {i} must come back published, got {other:?}"),
            }
            assert_eq!(b.get(key).unwrap(), (result(i as f64), CacheTier::Memory));
        }
        let stats = b.stats();
        assert_eq!((stats.hits_disk, stats.disk_errors), (keys.len(), 0));
        assert_eq!(packs(&b).len(), 1, "b wrote nothing");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_tail_is_a_plain_miss_until_the_frame_is_whole() {
        let root = tmpdir("tail");
        let cache = ResultCache::on_disk(&root);
        let (d1, d2) = (Digest(41), Digest(42));
        cache.put(d1, &result(1.0));
        let path = the_pack(&cache);
        // A writer in the middle of its append: half of d2's frame is on
        // disk.
        let frame2 = entry_frame(d2, &result(2.0));
        let (head, tail) = frame2.split_at(frame2.len() / 2);
        append(&path, head);
        let reader = ResultCache::on_disk(&root);
        assert_eq!(reader.get(d1).unwrap(), (result(1.0), CacheTier::Disk));
        assert!(reader.get(d2).is_none());
        append(&path, tail);
        match reader.claim_compute(d2) {
            ComputeClaim::Published(res) => assert_eq!(res, result(2.0)),
            other => panic!("the completed frame must be served, got {other:?}"),
        }
        let stats = reader.stats();
        assert_eq!((stats.disk_errors, stats.corrupt_entries), (0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_interior_flip_counts_once_and_later_frames_still_hit() {
        let frame_len = entry_frame(Digest(52), &result(1.0)).len();
        // A flip in the middle frame's payload (a CRC mismatch), and one in
        // its length field that makes the frame claim to run past the end
        // of the pack (whole frames after it make that damage, not a tail).
        for (label, at, bit) in [("payload", frame_len / 2, 0x10), ("length", 4, 0x80)] {
            let root = tmpdir(&format!("flip-{label}"));
            let cache = ResultCache::on_disk(&root);
            let keys = [Digest(51), Digest(52), Digest(53)];
            for (i, &key) in keys.iter().enumerate() {
                cache.put(key, &result(i as f64));
            }
            let path = the_pack(&cache);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[header_len() + frame_len + at] ^= bit;
            std::fs::write(&path, bytes).unwrap();
            let reader = ResultCache::on_disk(&root);
            assert!(reader.get(keys[1]).is_none(), "{label}: the flipped entry was served");
            assert_eq!(reader.get(keys[0]).unwrap(), (result(0.0), CacheTier::Disk), "{label}");
            assert_eq!(reader.get(keys[2]).unwrap(), (result(2.0), CacheTier::Disk), "{label}");
            // A rescan reads only new bytes: the damage is not counted again.
            match reader.claim_compute(Digest(54)) {
                ComputeClaim::Owner(Some(lock)) => drop(lock),
                other => panic!("{label}: nothing publishes digest 54, got {other:?}"),
            }
            let stats = reader.stats();
            assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1), "{label}");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn a_length_field_past_the_scan_window_is_damage_not_a_stall() {
        let root = tmpdir("long-length");
        let cache = ResultCache::on_disk(&root);
        let keys: Vec<Digest> = (0..1_000).map(|k| Digest(3_000 + k)).collect();
        for &key in &keys {
            cache.put(key, &result(1.0));
        }
        let path = the_pack(&cache);
        let mut bytes = std::fs::read(&path).unwrap();
        // The first frame claims a payload longer than one scan window but
        // ending inside the pack: neither a torn tail nor a whole frame.
        let claim = (SCAN_CHUNK + SCAN_CHUNK / 4) as u32;
        assert!((claim as usize) < bytes.len() - header_len());
        let at = header_len() + 4;
        bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let (dir, first, last) = (root.clone(), keys[0], keys[keys.len() - 1]);
        std::thread::spawn(move || {
            let reader = ResultCache::on_disk(&dir);
            let _ = tx.send((reader.get(first), reader.get(last), reader.stats()));
        });
        let (first, last, stats) = rx.recv_timeout(Duration::from_secs(30)).expect("scan stalled");
        assert!(first.is_none());
        assert_eq!(last, Some((result(1.0), CacheTier::Disk)));
        assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_taken_pack_name_is_never_appended_to() {
        let root = tmpdir("taken");
        let cache = ResultCache::on_disk(&root);
        let dir = cache.tag_dir().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        // The pack of a dead process that had this pid.
        let taken = dir.join(format!("pack-{}-0.css", std::process::id()));
        let old = pack_under(crate::ENGINE_TAG, &[entry_frame(Digest(61), &result(1.0))]);
        std::fs::write(&taken, &old).unwrap();
        cache.put(Digest(62), &result(2.0));
        assert_eq!(std::fs::read(&taken).unwrap(), old);
        assert_eq!(packs(&cache).len(), 2);
        let fresh = ResultCache::on_disk(&root);
        assert_eq!(fresh.get(Digest(61)).unwrap(), (result(1.0), CacheTier::Disk));
        assert_eq!(fresh.get(Digest(62)).unwrap(), (result(2.0), CacheTier::Disk));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn per_entry_files_of_earlier_versions_are_never_read() {
        let root = tmpdir("legacy-css");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(79);
        let dir = cache.tag_dir().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        // An entry as earlier versions wrote it: a one-frame segment
        // named by its digest. Neither a hit nor counted corrupt.
        let entry = pack_under(crate::ENGINE_TAG, &[entry_frame(d, &result(1.0))]);
        std::fs::write(dir.join(format!("{}.css", d.hex())), entry).unwrap();
        assert!(cache.get(d).is_none());
        assert_eq!(cache.stats().disk_errors, 0);
        cache.put(d, &result(1.0));
        let fresh = ResultCache::on_disk(&root);
        assert_eq!(fresh.get(d).unwrap(), (result(1.0), CacheTier::Disk));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn json_entries_of_earlier_versions_are_never_read() {
        let root = tmpdir("legacy");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(78);
        let dir = cache.tag_dir().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        // An entry in the old JSON envelope is neither a hit nor counted
        // corrupt: it is simply not where entries live any more.
        std::fs::write(
            dir.join(format!("{}.json", d.hex())),
            format!(
                "{{\"engine\":\"{}\",\"crc\":0,\"result\":{{\"makespan\":1,\"events\":42}}}}\n",
                crate::ENGINE_TAG
            ),
        )
        .unwrap();
        assert!(cache.get(d).is_none());
        assert_eq!(cache.stats().disk_errors, 0);
        cache.put(d, &result(1.0));
        let fresh = ResultCache::on_disk(&root);
        assert_eq!(fresh.get(d).unwrap(), (result(1.0), CacheTier::Disk));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unwritable_entry_writes_are_counted() {
        let root = tmpdir("unwritable-count");
        std::fs::create_dir_all(&root).unwrap();
        // A file where the tag directory should be blocks every write,
        // no permission bits needed (works as root too).
        std::fs::write(root.join(crate::ENGINE_TAG), b"i am a file").unwrap();
        let cache = ResultCache::on_disk(&root);
        cache.put(Digest(9), &result(1.0));
        let stats = cache.stats();
        assert_eq!((stats.unwritable, stats.disk_errors), (1, 1));
        // The memory tier still serves the result: degraded, not broken.
        assert_eq!(cache.get(Digest(9)).unwrap().1, CacheTier::Memory);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn try_on_disk_reports_unwritable_directories() {
        // A regular file where the directory should be is unwritable on
        // every platform, no permission bits needed.
        let root = tmpdir("unwritable");
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("blocked");
        std::fs::write(&blocker, b"i am a file").unwrap();
        match ResultCache::try_on_disk(&blocker) {
            Err(CacheError::Unwritable { dir, .. }) => {
                assert!(dir.starts_with(&blocker), "{}", dir.display());
            }
            other => panic!("expected Unwritable, got {other:?}"),
        }
        assert!(ResultCache::try_on_disk(&root).is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn claim_compute_single_flights_across_cache_instances() {
        // Two ResultCache instances over one directory stand in for two
        // processes: only one claims ownership, the waiter gets the
        // published result.
        let root = tmpdir("claim");
        let a = ResultCache::on_disk(&root);
        let b = ResultCache::on_disk(&root);
        let d = Digest(33);
        let lock = match a.claim_compute(d) {
            ComputeClaim::Owner(Some(lock)) => lock,
            other => panic!("first claimant must own the compute, got {other:?}"),
        };
        let waiter = std::thread::spawn(move || b.claim_compute(d));
        std::thread::sleep(Duration::from_millis(30));
        a.put(d, &result(7.0));
        drop(lock);
        match waiter.join().unwrap() {
            ComputeClaim::Published(res) => assert_eq!(res, result(7.0)),
            other => panic!("waiter must see the published entry, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn claim_compute_returns_published_when_entry_already_exists() {
        let root = tmpdir("claim-published");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(34);
        cache.put(d, &result(2.5));
        // A second instance (fresh memory) that missed in get() but races
        // the lock must find the published entry, not recompute.
        let other = ResultCache::on_disk(&root);
        match other.claim_compute(d) {
            ComputeClaim::Published(res) => assert_eq!(res, result(2.5)),
            other => panic!("expected Published, got {other:?}"),
        }
        // No lock file left behind.
        let lock = cache.lock_path(d).unwrap();
        assert!(!lock.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_locks_are_taken_over_exactly_once() {
        let root = tmpdir("stale");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(55);
        // Fake a crashed owner: a lock file nobody will ever release.
        let lock_path = cache.lock_path(d).unwrap();
        std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        std::fs::write(&lock_path, "999999 dead-owner").unwrap();
        std::thread::sleep(Duration::from_millis(25));
        match cache.claim_compute(d) {
            ComputeClaim::Owner(Some(lock)) => drop(lock),
            other => panic!("stale lock must be taken over, got {other:?}"),
        }
        assert!(!lock_path.exists(), "released lock must be gone");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_dead_owners_lock_is_taken_over_at_once() {
        let root = tmpdir("dead");
        // The default timeout: only the pid check can free this lock.
        let cache = ResultCache::on_disk(&root);
        let d = Digest(56);
        let lock_path = cache.lock_path(d).unwrap();
        std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        std::fs::write(&lock_path, "999999999\n").unwrap();
        let started = Instant::now();
        match cache.claim_compute(d) {
            ComputeClaim::Owner(Some(lock)) => drop(lock),
            other => panic!("a dead owner's lock must be taken over, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(5), "waited on a dead owner");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_leftover_lock_naming_our_own_pid_is_no_owner() {
        // A restarted process often gets its predecessor's pid back, so a
        // leftover lock may name a running process: ours.
        let root = tmpdir("pid-reuse");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(57);
        let lock_path = cache.lock_path(d).unwrap();
        std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        std::fs::write(&lock_path, format!("{}\n", std::process::id())).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let owned = matches!(cache.claim_compute(d), ComputeClaim::Owner(Some(_)));
            let _ = tx.send(owned);
        });
        let owned = rx.recv_timeout(Duration::from_secs(5)).expect("waited on a leftover lock");
        assert!(owned, "a leftover lock must be claimed, not computed around");
        assert!(!lock_path.exists(), "released lock must be gone");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_first_listing_removes_only_the_lock_files_nobody_holds() {
        let root = tmpdir("sweep");
        let cache = ResultCache::on_disk(&root);
        let (left, held) =
            (cache.lock_path(Digest(58)).unwrap(), cache.lock_path(Digest(59)).unwrap());
        std::fs::create_dir_all(left.parent().unwrap()).unwrap();
        std::fs::write(&left, "999999999\n").unwrap();
        let owner = LockFile::acquire(&held).unwrap();
        assert!(cache.get(Digest(60)).is_none());
        assert!(!left.exists(), "a killed owner's leftover lock survived the first listing");
        assert!(held.exists(), "a held lock was removed");
        drop(owner);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn in_memory_caches_always_own_the_compute() {
        let cache = ResultCache::in_memory();
        match cache.claim_compute(Digest(1)) {
            ComputeClaim::Owner(None) => {}
            other => panic!("memory-only cache has no disk lock, got {other:?}"),
        }
    }

    #[test]
    fn memory_tier_is_bounded_and_counts_evictions() {
        let cache = ResultCache::in_memory();
        let n = 3 * GENERATION;
        for key in 0..n {
            cache.put(Digest(key as u128), &result(key as f64));
        }
        let memory = cache.memory.lock().unwrap();
        let held = memory.current.len() + memory.previous.len();
        assert!(held <= 2 * GENERATION, "{held} entries held");
        assert_eq!(cache.stats().evicted, n - held);
    }

    #[test]
    fn the_most_recent_generation_of_entries_are_memory_hits() {
        // Offsets put the newest GENERATION keys on both sides of a
        // rotation, and exactly on one.
        for extra in [0, 1, GENERATION / 2, GENERATION - 1] {
            let cache = ResultCache::in_memory();
            let n = 2 * GENERATION + extra;
            for key in 0..n {
                cache.put(Digest(key as u128), &result(key as f64));
            }
            for key in n - GENERATION..n {
                let (hit, tier) = cache.get(Digest(key as u128)).unwrap();
                assert_eq!((hit, tier), (result(key as f64), CacheTier::Memory), "key {key}");
            }
            assert_eq!(cache.stats().misses, 0, "extra {extra}");
        }
    }

    #[test]
    fn an_entry_read_once_per_generation_survives_every_rotation() {
        let cache = ResultCache::in_memory();
        let hot = Digest(u128::MAX);
        cache.put(hot, &result(0.5));
        let mut fresh = 0u128;
        for round in 0..10 {
            for _ in 0..GENERATION {
                cache.put(Digest(fresh), &result(1.0));
                fresh += 1;
            }
            assert_eq!(cache.get(hot).unwrap(), (result(0.5), CacheTier::Memory), "round {round}");
        }
        assert!(cache.stats().evicted > 0, "the rounds must actually rotate");
    }

    #[test]
    fn an_evicted_disk_entry_is_a_disk_hit_then_a_memory_hit() {
        let root = tmpdir("evicted");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(u128::MAX);
        cache.put(d, &result(6.0));
        assert_eq!(cache.get(d).unwrap().1, CacheTier::Memory);
        // Rotate `d` out of both generations through the memory-only
        // insert path, so the filler appends nothing to the pack.
        for key in 0..2 * GENERATION {
            cache.insert(Digest(key as u128), result(1.0));
        }
        assert!(cache.stats().evicted > 0);
        assert_eq!(cache.get(d).unwrap(), (result(6.0), CacheTier::Disk));
        assert_eq!(cache.get(d).unwrap(), (result(6.0), CacheTier::Memory));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The naive model of the memory tier: two association lists.
    struct Model {
        current: Vec<(u128, ScenarioResult)>,
        previous: Vec<(u128, ScenarioResult)>,
        limit: usize,
        evicted: usize,
    }

    impl Model {
        fn insert(&mut self, key: u128, value: ScenarioResult) {
            self.previous.retain(|&(k, _)| k != key);
            self.current.retain(|&(k, _)| k != key);
            self.current.push((key, value));
            if self.current.len() == self.limit {
                self.evicted += self.previous.len();
                self.previous = std::mem::take(&mut self.current);
            }
        }

        fn get(&mut self, key: u128) -> Option<ScenarioResult> {
            if let Some(&(_, hit)) = self.current.iter().find(|&&(k, _)| k == key) {
                return Some(hit);
            }
            let &(_, hit) = self.previous.iter().find(|&&(k, _)| k == key)?;
            self.insert(key, hit);
            Some(hit)
        }
    }

    proptest::proptest! {
        /// The two generations agree with the naive model over random
        /// get/put sequences on a tiny limit, so rotations happen often.
        #[test]
        fn generations_match_a_naive_two_map_model(
            limit in 1usize..5,
            ops in proptest::collection::vec((0u8..2, 0u8..12), 0..200),
        ) {
            let mut tier = Generations::new(limit);
            let mut model =
                Model { current: Vec::new(), previous: Vec::new(), limit, evicted: 0 };
            let mut evicted = 0;
            for (step, (op, key)) in ops.into_iter().enumerate() {
                let key = u128::from(key);
                if op == 0 {
                    let got = tier.get(key).map(|(hit, dropped)| {
                        evicted += dropped;
                        hit
                    });
                    proptest::prop_assert_eq!(got, model.get(key));
                } else {
                    let value = result(step as f64);
                    evicted += tier.insert(key, value);
                    model.insert(key, value);
                }
                proptest::prop_assert_eq!(tier.current.len(), model.current.len());
                proptest::prop_assert_eq!(tier.previous.len(), model.previous.len());
                proptest::prop_assert_eq!(evicted, model.evicted);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Entries round-trip bit-exact through a fresh cache for any
        /// finite makespan and any counts. Cut at every byte offset, a
        /// pack serves exactly the entries wholly before the cut and
        /// counts nothing: a cut tail is a plain miss. One flipped bit in
        /// an interior frame is one counted corrupt entry, and the frames
        /// on both sides of it still hit.
        #[test]
        fn pack_entries_round_trip_cut_tails_miss_and_interior_flips_count_once(
            shape in 0u8..3,
            bits in 0u64..=u64::MAX,
            counts in (0usize..=usize::MAX, 0usize..=usize::MAX, 0usize..=usize::MAX,
                       0usize..=usize::MAX, 0usize..=usize::MAX),
            key in 0u64..=u64::MAX,
            flip in 0usize..usize::MAX,
        ) {
            let sign = bits & (1 << 63);
            let bits = match shape {
                0 => bits,
                1 => sign | (bits & ((1 << 52) - 1)), // subnormal (or a zero)
                _ => sign,                            // +0.0 or -0.0
            };
            proptest::prop_assume!(f64::from_bits(bits).is_finite());
            let value = ScenarioResult {
                makespan: f64::from_bits(bits),
                events: counts.0,
                faults_applied: counts.1,
                checkpoints_taken: counts.2,
                recoveries: counts.3,
                retries: counts.4,
            };
            let d = Digest(u128::from(key) << 64 | u128::from(bits));
            let keys = [Digest(d.0 ^ 1), d, Digest(d.0 ^ 2)];
            let root = tmpdir("prop");
            let writer = ResultCache::on_disk(&root);
            for key in keys {
                writer.put(key, &value);
            }
            let fresh = ResultCache::on_disk(&root);
            let (hit, tier) = fresh.get(d).unwrap();
            proptest::prop_assert_eq!(tier, CacheTier::Disk);
            proptest::prop_assert_eq!(hit.makespan.to_bits(), bits);
            proptest::prop_assert_eq!(hit, value);

            let path = the_pack(&fresh);
            let full = std::fs::read(&path).unwrap();
            let frame_len = entry_frame(d, &value).len();
            proptest::prop_assert_eq!(frame_len as u64, ENTRY_FRAME);
            let ends = [1, 2, 3].map(|k| header_len() + k * frame_len);
            proptest::prop_assert_eq!(full.len(), ends[2]);
            for cut in 0..full.len() {
                std::fs::write(&path, &full[..cut]).unwrap();
                let reader = ResultCache::on_disk(&root);
                for (key, end) in keys.into_iter().zip(ends) {
                    proptest::prop_assert_eq!(
                        reader.get(key).is_some(), cut >= end, "cut at {} of {}", cut, end
                    );
                }
                let stats = reader.stats();
                proptest::prop_assert_eq!(
                    (stats.corrupt_entries, stats.disk_errors), (0, 0), "cut at {}", cut
                );
            }

            let mut flipped = full.clone();
            let bit = flip % (8 * frame_len);
            flipped[ends[0] + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &flipped).unwrap();
            let reader = ResultCache::on_disk(&root);
            proptest::prop_assert!(reader.get(d).is_none(), "bit {} flipped was served", bit);
            for key in [keys[0], keys[2]] {
                proptest::prop_assert_eq!(reader.get(key), Some((value, CacheTier::Disk)));
            }
            let stats = reader.stats();
            proptest::prop_assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1));
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// SplitMix64 from `seed`: shuffles without a rand dependency.
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

    /// `cache`'s answers to `digests` from one batch lookup.
    fn lookup_all(
        cache: &ResultCache,
        digests: &[Digest],
    ) -> Vec<Option<(ScenarioResult, CacheTier)>> {
        let mut out = vec![None; digests.len()];
        cache.lookup(digests, &mut out);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// One batch lookup answers and counts exactly as a `get` of each
        /// digest in turn: memory hits (some also on disk), disk hits
        /// across two packs in shuffled order, misses, one interior bit
        /// flip (found by the scan, or at hit time when made after the
        /// index was built) and a torn tail. The first pack sometimes
        /// spans more than one coalesced read.
        #[test]
        fn pack_batch_lookup_matches_per_digest_get(
            sizes in (2usize..700, 1usize..40),
            in_memory in (0usize..20, 0usize..5),
            misses in 0usize..20,
            flip in 0usize..usize::MAX,
            flip_after_index in 0u8..2,
            torn in 1usize..ENTRY_FRAME as usize,
            seed in 0u64..=u64::MAX,
        ) {
            let root = tmpdir("batch-prop");
            let digest = |pack: u128, k: usize| Digest(pack << 64 | k as u128);
            let (a, b) = (ResultCache::on_disk(&root), ResultCache::on_disk(&root));
            for k in 0..sizes.0 {
                a.put(digest(1, k), &result(k as f64));
            }
            for k in 0..sizes.1 {
                b.put(digest(2, k), &result(0.5 + k as f64));
            }
            let [pack_a, pack_b] = <[PathBuf; 2]>::try_from(packs(&a)).unwrap();
            let torn_digest = digest(2, sizes.1);
            append(&pack_b, &entry_frame(torn_digest, &result(-1.0))[..torn]);

            let mut query: Vec<Digest> = (0..sizes.0).map(|k| digest(1, k)).collect();
            query.extend((0..=sizes.1).map(|k| digest(2, k)));
            query.extend((0..misses).map(|k| digest(3, k)));
            query.extend((0..in_memory.1).map(|k| digest(4, k)));
            let mut next = stream(seed);
            for i in (1..query.len()).rev() {
                query.swap(i, (next() % (i as u64 + 1)) as usize);
            }

            // The flipped frame is interior to the first pack and never a
            // memory entry.
            let frame_bits = 8 * ENTRY_FRAME as usize;
            let flipped = (flip / frame_bits) % (sizes.0 - 1);
            let readers = [ResultCache::on_disk(&root), ResultCache::on_disk(&root)];
            for reader in &readers {
                for k in (0..in_memory.0.min(sizes.0)).filter(|&k| k != flipped) {
                    reader.insert(digest(1, k), result(k as f64));
                }
                for k in 0..in_memory.1 {
                    reader.insert(digest(4, k), result(2.0));
                }
                if flip_after_index == 1 {
                    proptest::prop_assert!(reader.get(digest(5, 0)).is_none());
                }
            }
            let at = header_len() + flipped * ENTRY_FRAME as usize + (flip % frame_bits) / 8;
            let mut bytes = std::fs::read(&pack_a).unwrap();
            bytes[at] ^= 1 << (flip % 8);
            std::fs::write(&pack_a, bytes).unwrap();

            let batch = lookup_all(&readers[0], &query);
            let each: Vec<_> = query.iter().map(|&d| readers[1].get(d)).collect();
            proptest::prop_assert_eq!(&batch, &each);
            proptest::prop_assert_eq!(readers[0].stats(), readers[1].stats());
            let stats = readers[0].stats();
            proptest::prop_assert!(stats.corrupt_entries >= 1, "the flip went unseen: {:?}", stats);
            // And each answer is what was stored, read from the right pack.
            for (d, answer) in query.iter().zip(&batch) {
                let k = d.0 as u64 as usize;
                let want = match d.0 >> 64 {
                    1 if k == flipped => None,
                    1 if k < in_memory.0 => Some((result(k as f64), CacheTier::Memory)),
                    1 => Some((result(k as f64), CacheTier::Disk)),
                    2 if k == sizes.1 => None,
                    2 => Some((result(0.5 + k as f64), CacheTier::Disk)),
                    3 => None,
                    _ => Some((result(2.0), CacheTier::Memory)),
                };
                proptest::prop_assert_eq!(*answer, want, "{:?}", d);
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn a_pack_cut_or_rewritten_after_indexing_serves_what_is_still_whole() {
        let root = tmpdir("cut-after-index");
        let writer = ResultCache::on_disk(&root);
        // Enough frames for several coalesced reads.
        let keys: Vec<Digest> = (0..1_500).map(|k| Digest(5_000 + k)).collect();
        for (i, &key) in keys.iter().enumerate() {
            writer.put(key, &result(i as f64));
        }
        let path = the_pack(&writer);
        let full = std::fs::read(&path).unwrap();
        let frame_len = ENTRY_FRAME as usize;
        let indexed = || {
            std::fs::write(&path, &full).unwrap();
            let reader = ResultCache::on_disk(&root);
            assert!(reader.get(Digest(1)).is_none(), "builds the index");
            reader
        };
        // Cut inside frame 1,000, inside a coalesced read: the first
        // 1,000 frames are whole, and each later one is unreadable and
        // counts once, as a one-frame read would have it.
        let whole = 1_000;
        let reader = indexed();
        std::fs::write(&path, &full[..header_len() + whole * frame_len + frame_len / 2]).unwrap();
        let out = lookup_all(&reader, &keys);
        for (i, answer) in out.iter().enumerate() {
            let want = (i < whole).then_some((result(i as f64), CacheTier::Disk));
            assert_eq!(*answer, want, "frame {i}");
        }
        let stats = reader.stats();
        let lost = keys.len() - whole;
        assert_eq!(
            (stats.hits_disk, stats.misses, stats.corrupt_entries, stats.disk_errors),
            (whole, 1 + lost, lost, lost)
        );
        // Rewritten in place with every frame moved one slot on: each
        // indexed offset now holds another digest's frame, whole and
        // CRC-valid, and only the digest check tells.
        let reader = indexed();
        let mut moved = full[..header_len()].to_vec();
        moved.extend_from_slice(&full[full.len() - frame_len..]);
        moved.extend_from_slice(&full[header_len()..full.len() - frame_len]);
        std::fs::write(&path, moved).unwrap();
        assert!(lookup_all(&reader, &keys).iter().all(Option::is_none));
        let stats = reader.stats();
        assert_eq!((stats.hits_disk, stats.corrupt_entries), (0, keys.len()));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_live_under_the_engine_tag() {
        let root = tmpdir("layout");
        let cache = ResultCache::on_disk(&root);
        cache.put(Digest(1), &result(1.0));
        let dir = cache.tag_dir().unwrap();
        assert!(dir.ends_with(crate::ENGINE_TAG));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
