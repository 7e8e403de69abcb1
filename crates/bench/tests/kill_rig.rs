//! Cross-process kill rig: `repro` processes share one `--cache` or
//! `--store` directory, and some are SIGKILLed mid-run. What must hold:
//!
//! - two concurrent cold runs over one cache print the bytes an uncached
//!   run prints, and compute each scenario once between them;
//! - a run killed once its pack holds an entry costs its partner nothing
//!   but time: the survivor prints the uncached bytes, a warm rerun
//!   computes nothing and finds nothing corrupt, and no lock file is
//!   left behind;
//! - a store is locked while its writer runs and free the moment the
//!   writer is killed.
//!
//! Each kill is triggered by a file appearing or growing, never by a
//! sleep. The tests take turns, so at most two `repro` children run at
//! once.

use corescope_sched::ENGINE_TAG;
use corescope_store::{frame, Store, StoreError, WRITER_LOCK};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Artifacts of about 1.5 s (157 engine runs) cold at `--jobs 1` in the test
/// profile: long enough that concurrent runs overlap and a kill lands
/// mid-run.
const ARTIFACTS: [&str; 11] = [
    "--artifact",
    "t2",
    "--artifact",
    "t8",
    "--artifact",
    "t9",
    "--artifact",
    "t14",
    "--artifact",
    "f11",
    "--quick",
];

/// Held by each test for its whole run, so the children of two tests
/// never run at once.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("corescope-kill-rig-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn arg(&self) -> &str {
        self.0.to_str().expect("temp dir path is UTF-8")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(ARTIFACTS)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro")
}

fn finish(child: Child) -> Output {
    let out = child.wait_with_output().expect("collect repro output");
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// The number after `counter ` in the `sched:` summary on stderr.
fn counter(out: &Output, counter: &str) -> usize {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr
        .split(&format!("{counter} "))
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no '{counter}' in stderr: {stderr}"))
}

/// The stdout and engine-run count of one uncached run.
fn uncached() -> &'static (Vec<u8>, usize) {
    static RUN: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    RUN.get_or_init(|| {
        let out = finish(spawn(&["--jobs", "1"]));
        let runs = counter(&out, "engine runs");
        (out.stdout, runs)
    })
}

/// Polls until `ready` holds, failing the test after a minute.
fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The `*.lock` files in the cache at `cache`.
fn lock_files(cache: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(cache.join(ENGINE_TAG)).into_iter().flatten().flatten();
    let paths = entries.map(|entry| entry.path());
    paths.filter(|path| path.extension().is_some_and(|ext| ext == "lock")).collect()
}

#[test]
fn concurrent_cold_runs_compute_each_scenario_once() {
    let _turn = take_turn();
    let (stdout, runs) = uncached();
    let cache = TempDir::new("concurrent");
    let children = [0, 1].map(|_| spawn(&["--jobs", "1", "--cache", cache.arg()]));
    let outs = children.map(finish);
    for out in &outs {
        assert_eq!(&out.stdout, stdout, "a shared cache changed table bytes");
    }
    let split = outs.each_ref().map(|out| counter(out, "engine runs"));
    assert_eq!(split[0] + split[1], *runs, "engine runs split {split:?}, uncached {runs}");
    assert!(lock_files(cache.path()).is_empty(), "{:?}", lock_files(cache.path()));
}

#[test]
fn a_run_killed_mid_campaign_costs_its_partner_nothing_but_time() {
    let _turn = take_turn();
    let (stdout, _) = uncached();
    let cache = TempDir::new("killed");
    let runs = [0, 1].map(|_| spawn(&["--jobs", "2", "--cache", cache.arg()]));

    // The first run whose pack holds an entry past the header is killed.
    let header = frame::segment_header(ENGINE_TAG).len() as u64;
    let tag_dir = cache.path().join(ENGINE_TAG);
    let has_entry = |run: &Child| {
        let prefix = format!("pack-{}-", run.id());
        std::fs::read_dir(&tag_dir).into_iter().flatten().flatten().any(|entry| {
            entry.file_name().to_string_lossy().starts_with(&prefix)
                && entry.metadata().is_ok_and(|meta| meta.len() > header)
        })
    };
    let mut first = None;
    wait_for("a first entry", || {
        first = runs.iter().position(has_entry);
        first.is_some()
    });
    let [a, b] = runs;
    let (mut victim, survivor) = if first == Some(0) { (a, b) } else { (b, a) };
    victim.kill().expect("SIGKILL the victim");
    let killed = victim.wait().expect("reap the victim");
    assert_eq!(killed.code(), None, "the victim exited before its kill: {killed}");

    let survived = finish(survivor);
    assert_eq!(&survived.stdout, stdout, "the survivor changed table bytes");
    let warm = finish(spawn(&["--jobs", "2", "--cache", cache.arg()]));
    assert_eq!(&warm.stdout, stdout, "the warm rerun changed table bytes");
    assert_eq!(counter(&warm, "engine runs"), 0, "the warm rerun recomputed");
    assert_eq!(counter(&warm, "corrupt entries"), 0, "the kill left a corrupt entry");
    assert!(lock_files(cache.path()).is_empty(), "{:?}", lock_files(cache.path()));
}

#[test]
fn a_killed_writer_frees_its_store_at_once() {
    let _turn = take_turn();
    let store = TempDir::new("store");
    let mut writer = spawn(&["--jobs", "1", "--store", store.arg()]);
    let pid = writer.id().to_string();

    // The lock file holds the writer's pid once the writer holds the lock.
    let lock = store.path().join(WRITER_LOCK);
    wait_for("the writer's lock", || {
        std::fs::read_to_string(&lock).is_ok_and(|owner| owner.trim() == pid)
    });
    match Store::open(store.path(), ENGINE_TAG) {
        Err(StoreError::Locked { owner, .. }) => assert_eq!(owner, pid),
        Err(other) => panic!("expected Locked, got {other}"),
        Ok(_) => panic!("a running writer's store opened for writing"),
    }
    assert!(writer.try_wait().unwrap().is_none(), "the writer finished too soon to be killed");

    writer.kill().expect("SIGKILL the writer");
    writer.wait().expect("reap the writer");
    let reopened = Store::open(store.path(), ENGINE_TAG);
    assert!(reopened.is_ok(), "{:?}", reopened.err());
}
