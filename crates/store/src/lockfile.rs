//! Lock files and atomic publishes: the one cross-process protocol the
//! store's `writer.lock`, `fsck`'s repair and compact passes, and the
//! result cache's per-digest `.lock` files all share.
//!
//! A lock is held by the kernel: an exclusive advisory lock
//! ([`File::try_lock`], `flock` on Linux) on the lock file. The kernel
//! drops it when its owner closes the file or dies, however the owner
//! dies, so a lock file left behind by a killed process is free at once
//! and a live owner's lock is never taken, whatever the file holds and
//! however old it is. There is no staleness policy to get wrong. The
//! file also holds the owner's pid, but only so that a contender can
//! name the owner in its error.
//!
//! An owner unlinks the file before it closes it, so no lock file
//! outlives its owner's clean exit. A contender can therefore open the
//! old file, wait out the unlink and then lock an inode no path names
//! any more; [`LockFile::acquire`] checks that the path still names the
//! inode it locked and starts over when it does not.
//!
//! Writers built before kernel-held locks take no `flock`: one must not
//! write to a store or cache that a current build is writing to.
//!
//! [`publish`] writes through a temp file and an atomic rename, so a
//! reader sees the old file or the new one, never a torn one. Temp names
//! carry the pid and the thread, so two processes publishing the same
//! path never rename each other's half-written file.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

/// A held lock file. Dropping it releases the lock.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
    /// The locked file; closing it releases the kernel lock.
    _file: File,
}

/// Why [`LockFile::acquire`] did not get the lock.
#[derive(Debug)]
pub enum LockError {
    /// Another owner holds it: the lock file's contents, normally a pid
    /// (empty or `unknown` when the read raced the owner's write).
    Held(String),
    /// The lock file could not be created or locked (a file system
    /// without `flock`, for one).
    Io(std::io::Error),
}

impl LockFile {
    /// Takes the lock at `path` and writes our pid into it. Never waits:
    /// callers that want to wait poll.
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] while another open file holds the lock, in
    /// this process or another; [`LockError::Io`] when the file cannot
    /// be created, locked or written.
    pub fn acquire(path: &Path) -> Result<LockFile, LockError> {
        loop {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
                .map_err(LockError::Io)?;
            match file.try_lock() {
                Ok(()) => {}
                Err(TryLockError::WouldBlock) => {
                    let mut owner = String::new();
                    return Err(LockError::Held(match file.read_to_string(&mut owner) {
                        Ok(_) => owner.trim().to_string(),
                        Err(_) => "unknown".to_string(),
                    }));
                }
                Err(TryLockError::Error(e)) => return Err(LockError::Io(e)),
            }
            // The previous owner may have unlinked this inode between our
            // open and our lock: then the path names another file or none.
            let ours = file.metadata().map_err(LockError::Io)?;
            match std::fs::metadata(path).map(|named| (named.dev(), named.ino())) {
                Ok(named) if named == (ours.dev(), ours.ino()) => {}
                Err(e) if e.kind() != ErrorKind::NotFound => return Err(LockError::Io(e)),
                _ => continue,
            }
            file.set_len(0)
                .and_then(|()| file.write_all(format!("{}\n", std::process::id()).as_bytes()))
                .map_err(LockError::Io)?;
            return Ok(LockFile { path: path.to_path_buf(), _file: file });
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        // Unlink while still holding the lock; the field drop that
        // follows closes the file and so releases it.
        let _ = std::fs::remove_file(&self.path);
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
        let lock = LockFile::acquire(&path).unwrap();
        match LockFile::acquire(&path) {
            Err(LockError::Held(owner)) => assert_eq!(owner, std::process::id().to_string()),
            other => panic!("a live owner's lock was not held: {other:?}"),
        }
        drop(lock);
        assert!(!path.exists());
        assert!(LockFile::acquire(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contenders_racing_the_owners_unlink_never_share_the_lock() {
        // A contender that opened the file before its owner unlinked it
        // locks an inode no path names; it must not count as an owner
        // beside whoever locks the file created next.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = tmpdir("race");
        let path = dir.join("x.lock");
        let (inside, taken) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5_000 {
                        if let Ok(lock) = LockFile::acquire(&path) {
                            assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "two owners");
                            taken.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                            inside.fetch_sub(1, Ordering::SeqCst);
                            drop(lock);
                        }
                    }
                });
            }
        });
        assert!(taken.load(Ordering::Relaxed) > 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lock_file_nobody_holds_is_free_whatever_it_says() {
        let dir = tmpdir("leftover");
        let path = dir.join("x.lock");
        // A dead pid, no pid at all, and our own pid: a leftover naming
        // a pid that is running again is no owner either.
        let ours = format!("{}\n", std::process::id());
        for owner in ["999999999\n", "no pid here", &ours] {
            std::fs::write(&path, owner).unwrap();
            let lock = LockFile::acquire(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), ours, "{owner:?}");
            drop(lock);
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{owner:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
