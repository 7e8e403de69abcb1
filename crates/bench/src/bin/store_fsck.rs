//! `store_fsck` — verify, repair, compact and dump the crash-safe
//! campaign store (`corescope-store`).
//!
//! ```text
//! store_fsck <dir>            # read-only verify; exit 0 clean, 1 damaged
//! store_fsck <dir> --repair   # make it clean; exit 1 if unrepairable
//! store_fsck <dir> --compact  # fold duplicates, merge segments
//! store_fsck <dir> --dump     # canonical CSV of all rows (CI byte-diffs this)
//! ```
//!
//! Verify prints the typed report lines ([`fsck::FsckReport::lines`]):
//! one `kind key=value…` line per finding plus a final `summary …
//! clean=<bool>` line, so CI can grep for a specific damage class.
//! Repair prints the same report *after* repairing (with `repaired …`
//! action lines) and exits non-zero only when the store still is not
//! clean — unrepairable damage, reported as a typed error.
//!
//! `--dump` emits every committed row (deduplicated, digest-sorted) as
//! CSV. The output is a pure function of the committed row *set*, so a
//! killed-and-resumed campaign's dump must byte-match an uninterrupted
//! one — the CI kill-resume smoke job relies on exactly that.

use corescope_store::{fsck, Store};
use std::path::{Path, PathBuf};

enum Mode {
    Verify,
    Repair,
    Compact,
    Dump,
}

fn parse_args() -> Result<(PathBuf, Mode), String> {
    let mut dir: Option<PathBuf> = None;
    let mut mode = Mode::Verify;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--repair" => mode = Mode::Repair,
            "--compact" => mode = Mode::Compact,
            "--dump" => mode = Mode::Dump,
            "--help" | "-h" => {
                println!("usage: store_fsck <dir> [--repair | --compact | --dump]");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    let dir = dir.ok_or("store directory required (try --help)")?;
    Ok((dir, mode))
}

/// Canonical CSV of the committed rows: deduplicated (last wins, the
/// store's scan semantics), sorted by digest, floats in Rust's
/// shortest-roundtrip form — a pure function of the row set.
fn dump(dir: &Path) -> Result<String, String> {
    let store = Store::open_reader(dir).map_err(|e| e.to_string())?;
    let mut rows = store.rows().map_err(|e| e.to_string())?;
    rows.sort_by_key(|r| r.digest);
    let mut out = String::from(
        "digest,system,fidelity,placement,mpi,lock,workload,nranks,\
         makespan,events,faults_applied,checkpoints_taken,recoveries,retries\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:032x},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.digest,
            r.system,
            r.fidelity,
            r.placement,
            r.mpi,
            r.lock,
            r.workload,
            r.nranks,
            r.makespan,
            r.events,
            r.faults_applied,
            r.checkpoints_taken,
            r.recoveries,
            r.retries,
        ));
    }
    Ok(out)
}

fn run(dir: &Path, mode: Mode) -> Result<i32, String> {
    match mode {
        Mode::Verify => {
            let report = fsck::verify(dir).map_err(|e| e.to_string())?;
            for line in report.lines() {
                println!("{line}");
            }
            Ok(i32::from(!report.is_clean()))
        }
        Mode::Repair => {
            let report = fsck::repair(dir).map_err(|e| format!("unrepairable: {e}"))?;
            for line in report.lines() {
                println!("{line}");
            }
            Ok(i32::from(!report.is_clean()))
        }
        Mode::Compact => {
            let report = fsck::compact(dir).map_err(|e| e.to_string())?;
            println!(
                "compacted segments {} -> {}, rows {} -> {}, bytes {} -> {}",
                report.segments_before,
                report.segments_after,
                report.rows_before,
                report.rows_after,
                report.bytes_before,
                report.bytes_after,
            );
            Ok(0)
        }
        Mode::Dump => {
            print!("{}", dump(dir)?);
            Ok(0)
        }
    }
}

fn main() {
    // Exit codes: 0 clean/repaired, 1 damage or an unrepairable/failed
    // operation, 2 usage errors.
    let (dir, mode) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("store_fsck: {e}");
            std::process::exit(2);
        }
    };
    match run(&dir, mode) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("store_fsck: {e}");
            std::process::exit(1);
        }
    }
}
