//! Lock files and atomic publishes: the one cross-process protocol the
//! store's `writer.lock`, `fsck`'s repair and compact passes, and the
//! result cache's per-digest `.lock` files all share.
//!
//! A lock is a file created with `O_CREAT|O_EXCL` holding the owner's
//! pid. One staleness policy covers every user: on Linux the pid is
//! checked against `/proc`, so a dead owner is taken over at once and a
//! live owner is never stolen from, however old its lock. Only when no
//! liveness oracle exists (another OS, or a lock whose pid is not yet
//! written or unreadable) does the lock's age decide, against the
//! caller's timeout. A stale lock is renamed to a tombstone before it
//! is deleted: the rename is the exclusive step, so two contenders
//! cannot both take over the same dead owner's lock.
//!
//! [`publish`] writes through a temp file and an atomic rename, so a
//! reader sees the old file or the new one, never a torn one. Temp and
//! tombstone names carry the pid and the thread, so two processes
//! publishing the same path never rename each other's half-written file.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Age after which a lock whose owner's liveness cannot be checked may
/// be taken over: the default for the store, `fsck` and the cache.
pub const LOCK_TIMEOUT: Duration = Duration::from_secs(300);

/// A held lock file. Dropping it releases the lock.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
    took_over: bool,
}

/// Why [`LockFile::acquire`] did not get the lock.
#[derive(Debug)]
pub enum LockError {
    /// Another owner holds it: the lock file's contents, normally a pid
    /// (empty or `unknown` when the read raced the owner's write or
    /// release).
    Held(String),
    /// The lock file could not be created.
    Io(std::io::Error),
}

impl LockFile {
    /// Takes the lock at `path`, taking over a stale one (see the module
    /// docs) at most once. Never waits: callers that want to wait poll.
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] while a live (or not yet stale) owner holds
    /// the lock, [`LockError::Io`] when the file cannot be created.
    pub fn acquire(path: &Path, timeout: Duration) -> Result<LockFile, LockError> {
        let (mut retried, mut took_over) = (false, false);
        loop {
            match OpenOptions::new().write(true).create_new(true).open(path) {
                Ok(mut file) => {
                    let _ = writeln!(file, "{}", std::process::id());
                    return Ok(LockFile { path: path.to_path_buf(), took_over });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let owner = std::fs::read_to_string(path)
                        .map(|s| s.trim().to_string())
                        .unwrap_or_else(|_| "unknown".to_string());
                    if retried || !is_stale(path, &owner, timeout) {
                        return Err(LockError::Held(owner));
                    }
                    // Only the contender whose rename succeeds took the
                    // lock over; either way the create is retried once.
                    let tomb = sibling(path, "stale");
                    took_over = std::fs::rename(path, &tomb).is_ok();
                    if took_over {
                        let _ = std::fs::remove_file(&tomb);
                    }
                    retried = true;
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
    }

    /// True when this lock was taken over from a stale owner.
    pub fn took_over(&self) -> bool {
        self.took_over
    }

    /// Refreshes the lock's mtime, so the age fallback never fires
    /// against an owner that is still making progress.
    pub fn touch(&self) {
        if let Ok(file) = OpenOptions::new().write(true).open(&self.path) {
            let _ = file.set_modified(SystemTime::now());
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn is_stale(path: &Path, owner: &str, timeout: Duration) -> bool {
    // A SIGKILLed owner leaves its lock behind; nobody should wait out
    // the timeout for an owner that is provably gone. The converse
    // matters more: stealing a live store writer's lock yields two
    // writers, the one corruption the lock exists to prevent.
    #[cfg(target_os = "linux")]
    if let Ok(pid) = owner.parse::<u32>() {
        return !Path::new(&format!("/proc/{pid}")).exists();
    }
    let _ = owner;
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        // A lock from the future (clock skew) is not stale.
        Ok(modified) => modified.elapsed().is_ok_and(|age| age > timeout),
        Err(_) => false,
    }
}

/// `<path>.<kind>.<pid>.<thread>`: a name no other process or thread
/// can pick for the same `path`.
fn sibling(path: &Path, kind: &str) -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id());
    let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{kind}.{}.{thread}", std::process::id()));
    path.with_file_name(name)
}

/// Whether `name` is a temp file [`publish`] writes on its way to the
/// file named `target`: `<target>.tmp.<pid>.<thread>`.
pub(crate) fn is_temp_of(name: &str, target: &str) -> bool {
    let Some(rest) = name.strip_prefix(target).and_then(|r| r.strip_prefix(".tmp.")) else {
        return false;
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    rest.split_once('.').is_some_and(|(pid, thread)| digits(pid) && digits(thread))
}

/// Writes `bytes` to `path` through a temp file, fsynced, and an atomic
/// rename: how the store commits its manifest and segment headers.
///
/// # Errors
///
/// The first failed write, fsync or rename; the temp file is removed.
pub fn publish(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = sibling(path, "tmp");
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("corescope-lockfile-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn temp_names_carry_the_pid_and_the_thread() {
        let path = Path::new("/cache/tag/00ff.css");
        let here = sibling(path, "tmp");
        let name = here.file_name().unwrap().to_str().unwrap().to_string();
        let pid = std::process::id().to_string();
        let parts: Vec<&str> = name.split('.').collect();
        assert_eq!(parts[..3], ["00ff", "css", "tmp"], "{name}");
        assert_eq!(parts[3], pid, "{name}");
        assert!(!parts[4].is_empty() && parts[4].bytes().all(|b| b.is_ascii_digit()), "{name}");
        assert_eq!(here.parent(), path.parent());
        // Another thread of this process picks another name.
        let there = std::thread::spawn(move || sibling(Path::new("/cache/tag/00ff.css"), "tmp"))
            .join()
            .unwrap();
        assert_ne!(here, there);
        assert!(is_temp_of(&name, "00ff.css"), "{name}");
    }

    #[test]
    fn only_pid_and_thread_named_temps_match() {
        assert!(is_temp_of("MANIFEST.tmp.4242.17", "MANIFEST"));
        for name in [
            "MANIFEST",
            "MANIFEST.tmp",
            "MANIFEST.tmp.4242",
            "MANIFEST.tmp.4242.",
            "MANIFEST.tmp.42x.17",
            "MANIFEST.stale.4242.17",
            "seg-00000001.css.tmp.4242.17",
        ] {
            assert!(!is_temp_of(name, "MANIFEST"), "{name}");
        }
    }

    #[test]
    fn publish_replaces_the_file_and_leaves_no_temp_behind() {
        let dir = tmpdir("publish");
        let path = dir.join("entry");
        for bytes in [&b"first"[..], b"second"] {
            publish(&path, bytes).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // A failed rename (a directory in the way) cleans its temp up.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("child")).unwrap();
        assert!(publish(&blocked, b"x").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_held_lock_is_exclusive_until_dropped() {
        let dir = tmpdir("held");
        let path = dir.join("x.lock");
        let lock = LockFile::acquire(&path, Duration::ZERO).unwrap();
        assert!(!lock.took_over());
        match LockFile::acquire(&path, Duration::ZERO) {
            Err(LockError::Held(owner)) => assert_eq!(owner, std::process::id().to_string()),
            other => panic!("a live owner's lock was not held: {other:?}"),
        }
        drop(lock);
        assert!(!path.exists());
        assert!(LockFile::acquire(&path, Duration::ZERO).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_and_aged_owners_are_taken_over_without_leftovers() {
        let dir = tmpdir("stale");
        let path = dir.join("x.lock");
        // A pid that cannot be running, then an owner with no pid whose
        // lock is older than the timeout.
        for owner in ["999999999\n", "no pid here"] {
            std::fs::write(&path, owner).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            let lock = LockFile::acquire(&path, Duration::from_millis(1)).unwrap();
            assert!(lock.took_over(), "{owner:?}");
            drop(lock);
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{owner:?}");
        }
        // The same unreadable owner within the timeout is left alone.
        std::fs::write(&path, "no pid here").unwrap();
        assert!(matches!(LockFile::acquire(&path, LOCK_TIMEOUT), Err(LockError::Held(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
