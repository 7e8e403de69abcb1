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
//! the tag as a directory level (`<root>/<tag>/<digest>.json`) so stale
//! engines' entries are orphaned wholesale and a `results/.cache` wipe of
//! one tag cannot touch another's.
//!
//! Failure policy: the cache is an accelerator, never a correctness
//! dependency. Disk errors (unwritable directory, corrupt entry, partial
//! file from a killed process) degrade to a miss; they are counted, not
//! propagated. Writes go through a temp file + rename so readers never
//! observe a half-written entry.

use crate::encode::Digest;
use crate::json;
use crate::scenario::ScenarioResult;
use std::collections::HashMap;
use std::io::Write;
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
    /// An entry exists but cannot be decoded.
    Corrupt {
        /// The entry file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Unwritable { dir, reason } => {
                write!(f, "cache directory {} is not writable: {reason}", dir.display())
            }
            CacheError::Corrupt { path, reason } => {
                write!(f, "corrupt cache entry {}: {reason}", path.display())
            }
        }
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
    Owner(Option<ComputeLock>),
    /// Another process computed and published the entry while we waited.
    Published(ScenarioResult),
}

/// An owned `.lock` sentinel next to a cache entry. Dropping it releases
/// the lock; crashed owners are handled by stale-lock takeover in
/// [`ResultCache::claim_compute`].
#[derive(Debug)]
pub struct ComputeLock {
    path: PathBuf,
}

impl Drop for ComputeLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// How long a `.lock` may sit unmodified before waiters treat its owner
/// as dead and take over. Engine runs are sub-second; two minutes is far
/// outside any legitimate hold time.
const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(120);

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
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
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
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
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

    /// Overrides how long a cross-process `.lock` may sit unmodified
    /// before waiters assume its owner died and take it over. Tests use
    /// tiny timeouts; production keeps the generous default.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// The directory entries are stored in, if disk-backed.
    pub fn tag_dir(&self) -> Option<PathBuf> {
        self.disk_root.as_ref().map(|root| root.join(crate::ENGINE_TAG))
    }

    fn entry_path(&self, digest: Digest) -> Option<PathBuf> {
        self.tag_dir().map(|dir| dir.join(format!("{}.json", digest.hex())))
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
            match read_entry(&path) {
                Ok(Some(result)) => {
                    self.counters.hits_disk.fetch_add(1, Ordering::Relaxed);
                    self.insert(digest, result);
                    return Some((result, CacheTier::Disk));
                }
                Ok(None) => {}
                Err(_) => {
                    // Every read_entry failure means bytes were present
                    // but untrustworthy — count the corruption as well
                    // as the degradation to a miss.
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
            if write_entry(&path, result).is_err() {
                self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                self.counters.unwritable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Claims the right to compute `digest`, single-flight **across
    /// processes**. The protocol, per entry `<hex>.json`:
    ///
    /// 1. atomically create `<hex>.lock` (`O_CREAT|O_EXCL`); the winner
    ///    re-checks the entry (the previous owner may have published
    ///    between our miss and the lock) and becomes the owner;
    /// 2. losers poll: entry appeared → return it; lock unmodified for
    ///    longer than the lock timeout → the owner is presumed dead, and
    ///    exactly one waiter takes over by *renaming* the stale lock to a
    ///    unique tombstone (rename arbitrates racing waiters), deleting
    ///    it, and retrying step 1.
    ///
    /// Publication itself stays tmp-file + atomic rename, so readers
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
        // Absolute bail-out so a pathological filesystem (lock recreated
        // faster than we can observe staleness) still cannot hang us.
        let bail_out = Instant::now() + self.lock_timeout.saturating_mul(32);
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&lock_path) {
                Ok(mut file) => {
                    // Owner identity, for humans inspecting a stuck dir.
                    let _ = writeln!(file, "{} {}", std::process::id(), crate::ENGINE_TAG);
                    if let Ok(Some(result)) = read_entry(&path) {
                        // Published while we raced for the lock.
                        drop(ComputeLock { path: lock_path });
                        self.insert(digest, result);
                        self.counters.hits_disk.fetch_add(1, Ordering::Relaxed);
                        return ComputeClaim::Published(result);
                    }
                    return ComputeClaim::Owner(Some(ComputeLock { path: lock_path }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    std::thread::sleep(poll);
                    match read_entry(&path) {
                        Ok(Some(result)) => {
                            self.insert(digest, result);
                            self.counters.hits_disk.fetch_add(1, Ordering::Relaxed);
                            return ComputeClaim::Published(result);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            // Torn entry under a live lock: keep waiting
                            // for the owner to republish or die.
                        }
                    }
                    if lock_is_stale(&lock_path, self.lock_timeout)
                        && takeover_stale_lock(&lock_path)
                    {
                        self.counters.lock_takeovers.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if Instant::now() > bail_out {
                        self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                        return ComputeClaim::Owner(None);
                    }
                }
                Err(_) => {
                    self.counters.disk_errors.fetch_add(1, Ordering::Relaxed);
                    return ComputeClaim::Owner(None);
                }
            }
        }
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

/// True when the lock file exists and has not been modified within
/// `timeout`. A vanished lock (owner released it) reports `false`; the
/// caller's next `create_new` attempt will settle it.
fn lock_is_stale(lock_path: &Path, timeout: Duration) -> bool {
    let Ok(meta) = std::fs::metadata(lock_path) else { return false };
    let Ok(modified) = meta.modified() else { return false };
    match modified.elapsed() {
        Ok(age) => age > timeout,
        Err(_) => false, // clock skew: lock is from the future, not stale
    }
}

/// Removes a stale lock such that exactly one of any number of racing
/// waiters wins: rename the lock to a caller-unique tombstone (rename is
/// atomic; a second renamer gets `NotFound`), then delete the tombstone.
fn takeover_stale_lock(lock_path: &Path) -> bool {
    let tomb = lock_path.with_extension(format!(
        "tomb.{}.{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    if std::fs::rename(lock_path, &tomb).is_ok() {
        let _ = std::fs::remove_file(&tomb);
        true
    } else {
        false
    }
}

/// `Ok(None)` means "no entry"; `Err` means "entry exists but is bad" (or
/// IO failed), which [`ResultCache::get`] counts as a disk error and
/// treats as a miss.
fn read_entry(path: &Path) -> Result<Option<ScenarioResult>, CacheError> {
    let corrupt = |reason: String| CacheError::Corrupt { path: path.to_path_buf(), reason };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        // `!exists()` catches ENOTDIR (a file blocking the tag dir) and
        // friends: no entry bytes exist, so it is a miss, not corruption.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound || !path.exists() => return Ok(None),
        Err(e) => return Err(corrupt(e.to_string())),
    };
    let value = json::parse(&text).map_err(corrupt)?;
    let tag = value.get("engine").and_then(json::Value::as_str);
    if tag != Some(crate::ENGINE_TAG) {
        // A foreign tag in our own tag directory means someone moved
        // files around; refuse rather than serve numbers from another
        // engine version.
        return Err(corrupt("engine tag mismatch".to_string()));
    }
    let result = value.get("result").ok_or_else(|| corrupt("missing \"result\"".to_string()))?;
    let decoded = ScenarioResult::from_json(result).map_err(&corrupt)?;
    // CRC frame check: the stored checksum covers the canonical result
    // JSON, so any flipped bit — even one that still parses — surfaces
    // as typed corruption instead of silently wrong numbers. Entries
    // written before the crc field are treated the same way (recomputed
    // and rewritten with a checksum on the next put).
    let crc = value
        .get("crc")
        .and_then(json::Value::as_f64)
        .ok_or_else(|| corrupt("missing \"crc\" frame check".to_string()))?;
    let expected = corescope_store::frame::crc32(decoded.to_json().as_bytes());
    if crc != f64::from(expected) {
        return Err(corrupt(format!(
            "crc mismatch (stored {crc}, computed {expected}): flipped bit or tampered entry"
        )));
    }
    Ok(Some(decoded))
}

fn write_entry(path: &Path, result: &ScenarioResult) -> Result<(), String> {
    let dir = path.parent().ok_or("cache entry path has no parent")?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let result_json = result.to_json();
    let body = format!(
        "{{\"engine\":\"{}\",\"crc\":{},\"result\":{result_json}}}\n",
        json::escape(crate::ENGINE_TAG),
        corescope_store::frame::crc32(result_json.as_bytes()),
    );
    // Unique temp name per thread so concurrent writers of *different*
    // digests (or even the same one) never clobber each other's partial
    // file; rename is atomic on the same filesystem.
    let tmp = path.with_extension(format!("tmp.{:?}", std::thread::current().id()));
    std::fs::write(&tmp, body).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        e.to_string()
    })
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

    #[test]
    fn foreign_engine_tags_are_rejected() {
        let root = tmpdir("tag");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(11);
        let path = cache.entry_path(d).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(
            &path,
            format!("{{\"engine\":\"other\",\"result\":{}}}", result(9.0).to_json()),
        )
        .unwrap();
        assert!(cache.get(d).is_none());
        assert_eq!(cache.stats().disk_errors, 1);
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
        // entry is truncated in the middle of the JSON body.
        let full = std::fs::read_to_string(&path).unwrap();
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
        let text = std::fs::read_to_string(&path).unwrap();
        // Damage one digit inside the result payload. The JSON still
        // parses and decodes — only the CRC frame check can tell.
        let tampered = text.replace("\"events\":42", "\"events\":43");
        assert_ne!(text, tampered, "test fixture must actually tamper");
        std::fs::write(&path, tampered).unwrap();
        let fresh = ResultCache::on_disk(&root);
        assert!(fresh.get(d).is_none(), "tampered entry must not be served");
        let stats = fresh.stats();
        assert_eq!((stats.corrupt_entries, stats.disk_errors), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_without_a_crc_field_are_corrupt_and_repaired_by_put() {
        let root = tmpdir("nocrc");
        let cache = ResultCache::on_disk(&root);
        let d = Digest(78);
        let path = cache.entry_path(d).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        // An entry from before the crc field existed.
        std::fs::write(
            &path,
            format!(
                "{{\"engine\":\"{}\",\"result\":{}}}\n",
                json::escape(crate::ENGINE_TAG),
                result(1.0).to_json()
            ),
        )
        .unwrap();
        assert!(cache.get(d).is_none());
        assert_eq!(cache.stats().corrupt_entries, 1);
        cache.put(d, &result(1.0));
        let fresh = ResultCache::on_disk(&root);
        assert_eq!(fresh.get(d).unwrap().1, CacheTier::Disk);
        assert_eq!(fresh.stats().corrupt_entries, 0);
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
