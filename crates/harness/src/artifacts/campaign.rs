//! Extra X9: the crash-safe campaign store, proven by killing it.
//!
//! The artifact runs one sweep campaign twice against the journaled
//! columnar store (`corescope-store`):
//!
//! 1. **uninterrupted** — every scenario runs, rows land in a fresh
//!    store, and the group-by/percentile aggregate
//!    ([`crate::aggregate`]) is rendered to CSV;
//! 2. **killed and resumed** — the same campaign runs to its midpoint,
//!    then the writer "dies mid-append": raw garbage is appended to the
//!    newest segment past the committed region with no manifest commit,
//!    which is byte-for-byte what `kill -9` inside a `write(2)` leaves
//!    behind. A second writer then opens the store (recovery must
//!    truncate the torn tail), skips every committed scenario, and runs
//!    only the remainder.
//!
//! The artifact *checks*, not just reports:
//!
//! - recovery after the simulated kill saw real damage (a torn tail) —
//!   otherwise the test proved nothing;
//! - the resumed writer skipped exactly the committed half (resume =
//!   rerun only what is missing);
//! - the aggregate CSV from the killed-and-resumed store is
//!   **byte-identical** to the uninterrupted one.
//!
//! The in-process kill makes the crash point deterministic; CI
//! additionally SIGKILLs a real `repro --store` campaign at a random
//! moment and byte-diffs `store_fsck --dump` output, covering the
//! nondeterministic crash points this artifact cannot.

use crate::aggregate::campaign_table;
use crate::report::{Cell, Table};
use corescope_machine::{Error, Result};
use corescope_sched::{Fidelity, Scenario, Scheduler, StoreSink, System, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Steps grid for the BSP sweep (scaled by fidelity): five distinct
/// makespans per (system, nranks) group so the percentile columns have
/// real spread.
const STEPS_GRID: [usize; 5] = [40, 60, 80, 100, 120];

/// The campaign: two systems × two world sizes × the steps grid.
fn scenarios(fidelity: Fidelity) -> Vec<Scenario> {
    let mut out = Vec::new();
    for system in [System::Dmz, System::Longs] {
        for nranks in [2usize, 4] {
            for steps in STEPS_GRID {
                out.push(
                    Scenario::new(
                        system,
                        nranks,
                        Workload::Bsp {
                            steps: fidelity.steps(steps),
                            flops_per_step: 2.0e6,
                            bytes_per_step: 2.0e6,
                            sync_bytes: 8.0,
                        },
                    )
                    .with_fidelity(fidelity),
                );
            }
        }
    }
    out
}

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "corescope-x9-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("X9 {context}: {e}"))
}

/// Runs every scenario in `todo` not already committed in the store at
/// `dir`, flushes, and returns (aggregate table, engine runs, skipped).
fn run_campaign(dir: &Path, todo: &[Scenario], jobs: usize) -> Result<(Table, usize, usize)> {
    let sink = Arc::new(StoreSink::open(dir).map_err(|e| store_err("opening the store", e))?);
    let remaining: Vec<Scenario> = todo
        .iter()
        .zip(Scenario::digests(todo))
        .filter(|(_, digest)| !sink.contains(*digest))
        .map(|(s, _)| s.clone())
        .collect();
    let skipped = todo.len() - remaining.len();
    let sched = Scheduler::new(jobs).with_store(Arc::clone(&sink));
    for outcome in sched.run_batch(&remaining) {
        outcome.map_err(|e| store_err("campaign scenario", e))?;
    }
    sink.flush();
    if sink.append_errors() > 0 {
        return Err(store_err("store appends", format!("{} failed", sink.append_errors())));
    }
    let rows = sink.rows().map_err(|e| store_err("scanning the store", e))?;
    let table = campaign_table("Extra X9: campaign aggregate (by system, workload, ranks)", &rows);
    Ok((table, sched.stats().engine_runs, skipped))
}

/// The newest segment file in the store directory — where a dying
/// writer's torn append would land.
fn newest_segment(dir: &Path) -> Result<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| store_err("listing segments", e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "css"))
        .collect();
    segments.sort();
    segments.pop().ok_or_else(|| store_err("listing segments", "no segment files"))
}

/// Extra X9 entry point. The shared scheduler is consulted only for its
/// job count: the experiment needs private schedulers wired to private
/// stores, and cold caches are the point — resume must come from the
/// store's committed digests, not from a warm result cache.
pub fn extra9(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let all = scenarios(fidelity);
    let half = all.len() / 2;
    let jobs = sched.jobs();

    // Reference: the campaign nothing ever happened to.
    let dir_a = tmpdir("uninterrupted");
    let (table_a, runs_a, skipped_a) = run_campaign(&dir_a, &all, jobs)?;
    let csv_a = table_a.to_csv();
    if runs_a != all.len() || skipped_a != 0 {
        let _ = std::fs::remove_dir_all(&dir_a);
        return Err(store_err(
            "baseline",
            format!("expected {} fresh engine runs, got {runs_a}", all.len()),
        ));
    }

    // The doomed campaign: half the sweep, then death mid-append.
    let dir_b = tmpdir("killed");
    let (_, runs_first, _) = run_campaign(&dir_b, &all[..half], jobs)?;
    let torn_garbage = b"CSB1\xff\xff\xff\xff torn mid-write by kill -9";
    {
        use std::io::Write;
        let segment = newest_segment(&dir_b)?;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&segment)
            .map_err(|e| store_err("tearing the segment", e))?;
        file.write_all(torn_garbage).map_err(|e| store_err("tearing the segment", e))?;
    }

    // Resume: recovery must see (and discard) the tear, the committed
    // half must be skipped, and only the remainder may run.
    let resumed =
        Arc::new(StoreSink::open(&dir_b).map_err(|e| store_err("resuming the store", e))?);
    let recovery_clean = resumed.recovery_is_clean();
    let recovery_line = resumed.recovery_summary();
    let resumed_rows = resumed.resumed_rows();
    drop(resumed); // release the writer lock for run_campaign's own open
    if recovery_clean {
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
        return Err(store_err(
            "recovery",
            format!("the torn tail went undetected ({recovery_line})"),
        ));
    }
    let (table_b, runs_resumed, skipped_resumed) = run_campaign(&dir_b, &all, jobs)?;
    let csv_b = table_b.to_csv();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    if resumed_rows != half {
        return Err(store_err(
            "recovery",
            format!("store reports {resumed_rows} committed rows after the kill, expected {half}"),
        ));
    }
    if skipped_resumed != half || runs_resumed != all.len() - half {
        return Err(store_err(
            "resume",
            format!(
                "expected to skip {half} committed scenarios and run {}, \
                 but skipped {skipped_resumed} and ran {runs_resumed}",
                all.len() - half
            ),
        ));
    }
    if csv_a != csv_b {
        return Err(store_err(
            "aggregate",
            "killed-and-resumed aggregate differs from the uninterrupted one",
        ));
    }

    let crc = corescope_store::frame::crc32(csv_a.as_bytes());
    let mut proof =
        Table::with_columns("Extra X9: kill-anywhere resume proof", &["check", "value", "status"]);
    let mut check = |label: &str, value: f64, ok: bool| {
        proof.push_row(
            label,
            vec![Cell::num_with(value, 0), Cell::text(if ok { "ok" } else { "FAIL" })],
        )
    };
    check("campaign scenarios", all.len() as f64, true)?;
    check("committed before kill", runs_first as f64, runs_first == half)?;
    check("torn tail detected on reopen", 1.0, !recovery_clean)?;
    check("committed scenarios skipped on resume", skipped_resumed as f64, true)?;
    check("engine runs after resume", runs_resumed as f64, true)?;
    check("aggregate byte-identical (crc32)", f64::from(crc), true)?;

    // table_b is the killed-and-resumed aggregate — byte-identical to
    // the uninterrupted one by the check above, so either could stand
    // here; printing the survivor is the point of the exercise.
    Ok(vec![table_b, proof])
}
