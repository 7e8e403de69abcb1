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
//! the tag as a directory level (`<root>/<tag>/<digest>.css`) so stale
//! engines' entries are orphaned wholesale and a `results/.cache` wipe of
//! one tag cannot touch another's.
//!
//! Each disk entry is a one-frame store segment in the campaign store's
//! format ([`corescope_store::frame`]): the segment header naming the
//! engine tag, then one CRC frame holding one row with the digest and
//! the result scalars (axis strings empty). A reader checks the tag, the
//! frame CRC, that nothing follows the frame, and that the row's digest
//! is the one in the file name, so a flipped bit, a torn file, another
//! engine's entry or an entry copied under another name is a miss.
//!
//! Failure policy: the cache is an accelerator, never a correctness
//! dependency. Disk errors (unwritable directory, corrupt entry, partial
//! file from a killed process) degrade to a miss; they are counted, not
//! propagated. Writes go through [`lockfile::publish`] (temp file +
//! rename, no fsync) so readers never observe a half-written entry.

use crate::encode::Digest;
use crate::scenario::ScenarioResult;
use crate::sink::{result_row, row_result};
use corescope_store::frame;
use corescope_store::lockfile::{self, LockError, LockFile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// Entries the newer memory generation holds before it rotates. It sits
/// above the largest working set that relies on memory hits: `replay`'s
/// 5,000 distinct scenarios and the 1,417 hits of a warm `repro --quick`
/// pass both fit in one generation, so none of them is ever evicted.
const GENERATION: usize = 8192;

/// The bounded memory tier: two generations, newest first.
#[derive(Debug)]
struct Generations {
    current: HashMap<u128, ScenarioResult>,
    previous: HashMap<u128, ScenarioResult>,
    /// Size at which `current` rotates: [`GENERATION`], smaller in tests.
    limit: usize,
}

impl Generations {
    fn new(limit: usize) -> Self {
        Self { current: HashMap::new(), previous: HashMap::new(), limit }
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
    lock_takeovers: AtomicUsize,
    evicted: AtomicUsize,
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
    /// Entries that existed but failed validation (CRC mismatch, bad
    /// decode, foreign engine tag) — a subset of `disk_errors`.
    pub corrupt_entries: usize,
    /// Entry writes that failed (typically an unwritable directory) — a
    /// subset of `disk_errors`.
    pub unwritable: usize,
    /// Stale cross-process locks reclaimed from crashed owners.
    pub lock_takeovers: usize,
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
    disk_root: Option<PathBuf>,
    lock_timeout: Duration,
    counters: Counters,
}

impl ResultCache {
    /// An in-memory-only cache.
    pub fn in_memory() -> Self {
        Self {
            memory: Mutex::new(Generations::new(GENERATION)),
            disk_root: None,
            lock_timeout: lockfile::LOCK_TIMEOUT,
            counters: Counters::default(),
        }
    }

    /// A cache backed by `root` (conventionally `results/.cache`).
    /// Entries land under `<root>/<ENGINE_TAG>/`. The directory is
    /// created lazily on first store.
    pub fn on_disk(root: impl Into<PathBuf>) -> Self {
        Self {
            memory: Mutex::new(Generations::new(GENERATION)),
            disk_root: Some(root.into()),
            lock_timeout: lockfile::LOCK_TIMEOUT,
            counters: Counters::default(),
        }
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

    /// Overrides the age after which a `.lock` whose owner's liveness
    /// cannot be checked is taken over (see [`lockfile`]; a dead owner's
    /// pid is taken over at once, a live owner's never). It also paces
    /// the waiters' polling. Tests use tiny timeouts.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// The directory entries are stored in, if disk-backed.
    pub fn tag_dir(&self) -> Option<PathBuf> {
        self.disk_root.as_ref().map(|root| root.join(crate::ENGINE_TAG))
    }

    fn entry_path(&self, digest: Digest) -> Option<PathBuf> {
        self.tag_dir().map(|dir| dir.join(format!("{}.css", digest.hex())))
    }

    /// Stores `result` in the memory tier, counting what a generation
    /// rotation evicts. Every memory insert goes through here.
    fn insert(&self, digest: Digest, result: ScenarioResult) {
        if let Ok(mut memory) = self.memory.lock() {
            let evicted = memory.insert(digest.0, result);
            self.counters.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Looks a digest up, reporting which tier answered. A disk hit is
    /// promoted into memory.
    pub fn get(&self, digest: Digest) -> Option<(ScenarioResult, CacheTier)> {
        if let Ok(mut memory) = self.memory.lock() {
            if let Some((hit, evicted)) = memory.get(digest.0) {
                self.counters.evicted.fetch_add(evicted, Ordering::Relaxed);
                self.counters.hits_memory.fetch_add(1, Ordering::Relaxed);
                return Some((hit, CacheTier::Memory));
            }
        }
        if let Some(path) = self.entry_path(digest) {
            match read_entry(&path, digest) {
                Ok(Some(result)) => {
                    self.counters.hits_disk.fetch_add(1, Ordering::Relaxed);
                    self.insert(digest, result);
                    return Some((result, CacheTier::Disk));
                }
                Ok(None) => {}
                Err(()) => {
                    // Bytes were present but untrustworthy: count the
                    // corruption as well as the degradation to a miss.
                    self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                    self.counters.corrupt_entries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a fresh result in memory and (best-effort) on disk.
    pub fn put(&self, digest: Digest, result: &ScenarioResult) {
        self.insert(digest, *result);
        if let Some(path) = self.entry_path(digest) {
            if write_entry(&path, digest, result).is_err() {
                self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                self.counters.unwritable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Claims the right to compute `digest`, single-flight **across
    /// processes**, through a [`LockFile`] at `<hex>.lock`:
    ///
    /// 1. the winner re-checks the entry (the previous owner may have
    ///    published between our miss and the lock) and becomes the
    ///    owner; a dead owner's lock is taken over at once and counted;
    /// 2. losers poll: entry appeared → return it; the lock turned stale
    ///    → the next acquire takes it over. A live owner is never stolen
    ///    from, but a waiter that has waited one lock timeout computes
    ///    without the lock, so a wedged owner cannot hang it.
    ///
    /// Publication itself stays temp file + atomic rename, so readers
    /// never observe a torn entry, locked or not. Any locking I/O error
    /// degrades to `Owner(None)` — worst case is a duplicated compute,
    /// never a corrupt entry or a hang.
    pub fn claim_compute(&self, digest: Digest) -> ComputeClaim {
        let Some(path) = self.entry_path(digest) else {
            return ComputeClaim::Owner(None);
        };
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                return ComputeClaim::Owner(None);
            }
        }
        let lock_path = path.with_extension("lock");
        let poll =
            (self.lock_timeout / 16).clamp(Duration::from_millis(2), Duration::from_millis(250));
        let bail_out = Instant::now() + self.lock_timeout;
        loop {
            match LockFile::acquire(&lock_path, self.lock_timeout) {
                Ok(lock) => {
                    if lock.took_over() {
                        self.counters.lock_takeovers.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Ok(Some(result)) = read_entry(&path, digest) {
                        // Published while we raced for the lock.
                        return self.published(digest, result);
                    }
                    return ComputeClaim::Owner(Some(lock));
                }
                Err(LockError::Held(_)) => {
                    std::thread::sleep(poll);
                    // A torn entry under a live lock reads as an error:
                    // keep waiting for the owner to republish or die.
                    if let Ok(Some(result)) = read_entry(&path, digest) {
                        return self.published(digest, result);
                    }
                    if Instant::now() > bail_out {
                        self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                        return ComputeClaim::Owner(None);
                    }
                }
                Err(LockError::Io(_)) => {
                    self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
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
            lock_takeovers: self.counters.lock_takeovers.load(Ordering::Relaxed),
            evicted: self.counters.evicted.load(Ordering::Relaxed),
        }
    }
}

/// `Ok(None)` means "no entry"; `Err(())` means bytes exist but are not
/// `digest`'s entry under this engine (or reading them failed), which
/// [`ResultCache::get`] counts as corruption and treats as a miss.
fn read_entry(path: &Path, digest: Digest) -> Result<Option<ScenarioResult>, ()> {
    match std::fs::read(path) {
        Ok(bytes) => decode_entry(&bytes, digest).map(Some).ok_or(()),
        // `!exists()` catches ENOTDIR (a file blocking the tag dir) and
        // friends: no entry bytes exist, so it is a miss, not corruption.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound || !path.exists() => Ok(None),
        Err(_) => Err(()),
    }
}

/// Decodes a one-frame segment: header, one CRC-valid frame ending the
/// file, one row whose digest is `digest`.
fn decode_entry(bytes: &[u8], digest: Digest) -> Option<ScenarioResult> {
    let (tag, start) = frame::parse_segment_header(bytes).ok()?;
    let frame::Parsed::Frame { payload, end } = frame::parse_frame(bytes, start) else {
        return None;
    };
    match frame::decode_block(&payload).ok()?.as_slice() {
        [row] if tag == crate::ENGINE_TAG && end == bytes.len() && row.digest == digest.0 => {
            Some(row_result(row))
        }
        _ => None,
    }
}

fn encode_entry(digest: Digest, result: &ScenarioResult) -> Result<Vec<u8>, String> {
    let mut bytes = frame::segment_header(crate::ENGINE_TAG);
    bytes.extend(frame::frame_bytes(&frame::encode_block(&[result_row(digest, result)])?));
    Ok(bytes)
}

fn write_entry(path: &Path, digest: Digest, result: &ScenarioResult) -> Result<(), String> {
    let dir = path.parent().ok_or("cache entry path has no parent")?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    lockfile::publish(path, &encode_entry(digest, result)?, false).map_err(|e| e.to_string())
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

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let root = tmpdir("corrupt");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(5);
        let path = cache.entry_path(d).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not json at all").unwrap();
        assert!(cache.get(d).is_none());
        let stats = cache.stats();
        assert_eq!((stats.disk_errors, stats.corrupt_entries), (1, 1));
        // A put repairs the entry.
        cache.put(d, &result(2.0));
        let fresh = ResultCache::on_disk(&root);
        assert_eq!(fresh.get(d).unwrap().0, result(2.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A CRC-valid entry for `digest` framed under the segment header of
    /// `tag`: only the tag (or the digest) can tell it apart.
    fn entry_under(tag: &str, digest: Digest, result: &ScenarioResult) -> Vec<u8> {
        let mut bytes = frame::segment_header(tag);
        bytes.extend(frame::frame_bytes(
            &frame::encode_block(&[result_row(digest, result)]).unwrap(),
        ));
        bytes
    }

    #[test]
    fn foreign_engine_tags_are_rejected() {
        let root = tmpdir("tag");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(11);
        let path = cache.entry_path(d).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        // Same bytes as a real entry, down to a valid frame CRC, except
        // for the engine tag in the segment header.
        assert_eq!(
            entry_under(crate::ENGINE_TAG, d, &result(9.0)),
            encode_entry(d, &result(9.0)).unwrap()
        );
        std::fs::write(&path, entry_under("other-engine", d, &result(9.0))).unwrap();
        assert!(cache.get(d).is_none());
        let stats = cache.stats();
        assert_eq!((stats.disk_errors, stats.corrupt_entries), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_copied_to_another_digest_is_rejected() {
        let root = tmpdir("copied");
        let cache = ResultCache::on_disk(&root);
        let (d, other) = (Digest(12), Digest(13));
        cache.put(d, &result(8.0));
        let path = cache.entry_path(d).unwrap();
        std::fs::copy(&path, cache.entry_path(other).unwrap()).unwrap();
        let fresh = ResultCache::on_disk(&root);
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
        let path = cache.entry_path(d).unwrap();
        // Simulate a writer killed mid-write *without* atomic rename: the
        // entry is truncated in the middle of its frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let fresh = ResultCache::on_disk(&root);
        assert!(fresh.get(d).is_none(), "torn entry must read as a miss");
        assert_eq!(fresh.stats().disk_errors, 1);
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
        let path = cache.entry_path(d).unwrap();
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
        let b = ResultCache::on_disk(&root).with_lock_timeout(Duration::from_secs(30));
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
        let lock = cache.entry_path(d).unwrap().with_extension("lock");
        assert!(!lock.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_locks_are_taken_over_exactly_once() {
        let root = tmpdir("stale");
        let cache = ResultCache::on_disk(&root).with_lock_timeout(Duration::from_millis(10));
        let d = Digest(55);
        // Fake a crashed owner: a lock file nobody will ever release.
        let lock_path = cache.entry_path(d).unwrap().with_extension("lock");
        std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        std::fs::write(&lock_path, "999999 dead-owner").unwrap();
        std::thread::sleep(Duration::from_millis(25));
        match cache.claim_compute(d) {
            ComputeClaim::Owner(Some(lock)) => drop(lock),
            other => panic!("stale lock must be taken over, got {other:?}"),
        }
        assert_eq!(cache.stats().lock_takeovers, 1);
        assert!(!lock_path.exists(), "released lock must be gone");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_dead_owners_lock_is_taken_over_at_once() {
        let root = tmpdir("dead");
        // The default timeout: only the pid check can free this lock.
        let cache = ResultCache::on_disk(&root);
        let d = Digest(56);
        let lock_path = cache.entry_path(d).unwrap().with_extension("lock");
        std::fs::create_dir_all(lock_path.parent().unwrap()).unwrap();
        std::fs::write(&lock_path, "999999999\n").unwrap();
        let started = Instant::now();
        match cache.claim_compute(d) {
            ComputeClaim::Owner(Some(lock)) => drop(lock),
            other => panic!("a dead owner's lock must be taken over, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(5), "waited on a dead owner");
        assert_eq!(cache.stats().lock_takeovers, 1);
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
        // insert path, so the filler writes no entry files.
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

        /// A disk entry round-trips bit-exact through a fresh cache for
        /// any finite makespan and any counts, and the entry cut at
        /// every byte offset (or padded) is a counted corrupt miss,
        /// never a panic or a wrong result.
        #[test]
        fn disk_entries_round_trip_and_every_truncation_is_a_counted_miss(
            shape in 0u8..3,
            bits in 0u64..=u64::MAX,
            counts in (0usize..=usize::MAX, 0usize..=usize::MAX, 0usize..=usize::MAX,
                       0usize..=usize::MAX, 0usize..=usize::MAX),
            key in 0u64..=u64::MAX,
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
            let root = tmpdir("prop");
            ResultCache::on_disk(&root).put(d, &value);
            let fresh = ResultCache::on_disk(&root);
            let (hit, tier) = fresh.get(d).unwrap();
            proptest::prop_assert_eq!(tier, CacheTier::Disk);
            proptest::prop_assert_eq!(hit.makespan.to_bits(), bits);
            proptest::prop_assert_eq!(hit, value);

            let path = fresh.entry_path(d).unwrap();
            let full = std::fs::read(&path).unwrap();
            for cut in 0..full.len() {
                std::fs::write(&path, &full[..cut]).unwrap();
                let reader = ResultCache::on_disk(&root);
                proptest::prop_assert!(reader.get(d).is_none(), "cut at {} was served", cut);
                let stats = reader.stats();
                proptest::prop_assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1));
            }
            // Bytes past the frame are refused too.
            std::fs::write(&path, [&full[..], &[0]].concat()).unwrap();
            let reader = ResultCache::on_disk(&root);
            proptest::prop_assert!(reader.get(d).is_none(), "a padded entry was served");
            proptest::prop_assert_eq!(reader.stats().corrupt_entries, 1);
            let _ = std::fs::remove_dir_all(&root);
        }
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
