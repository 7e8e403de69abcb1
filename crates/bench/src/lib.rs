//! # corescope-bench
//!
//! The `repro` binary that regenerates every table and figure of the
//! paper (`src/bin/repro.rs`), plus the `corescope-serve` service and the
//! `store_fsck` store tool.
//!
//! Also home to [`validate_chrome_trace`], a sanity check for the
//! Chrome-trace JSON that `repro --trace` emits — CI runs it on the
//! smoke-test output so a malformed exporter fails the build rather than
//! failing silently in `chrome://tracing`.

pub use corescope_harness::{Artifact, Fidelity};

use corescope_harness::Table;
use std::path::{Path, PathBuf};

/// Writes one CSV file per table under `dir` and returns the written
/// paths.
///
/// A single table lands in `<id>.csv`; a multi-table artifact lands in
/// `<id>_0.csv`, `<id>_1.csv`, … — the naming used by `repro --csv` and
/// `corescope-serve --csv` alike, so downstream diffing scripts see one
/// layout.
///
/// # Errors
///
/// Returns a one-line description naming the path that failed.
pub fn write_tables_csv(dir: &Path, id: &str, tables: &[Table]) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = Vec::with_capacity(tables.len());
    for (i, table) in tables.iter().enumerate() {
        let name = if tables.len() > 1 { format!("{id}_{i}.csv") } else { format!("{id}.csv") };
        let path = dir.join(name);
        std::fs::write(&path, table.to_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

/// Structural sanity check for an exported Chrome trace.
///
/// Parses the document with the workspace's JSON reader
/// ([`corescope_sched::json::parse`]), which rejects unbalanced
/// containers, unterminated strings and trailing text, then checks the
/// Chrome-trace essentials: the root is an object whose `"traceEvents"`
/// is a non-empty array of events, each carrying `"ph"`, `"ts"` and
/// `"pid"`.
///
/// # Errors
///
/// Returns a one-line description of the first structural problem found.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let root = corescope_sched::json::parse(json)?;
    let events = root
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("missing required Chrome-trace array \"traceEvents\"")?;
    if events.is_empty() {
        return Err("\"traceEvents\" holds no events".to_string());
    }
    for (i, event) in events.iter().enumerate() {
        for field in ["ph", "ts", "pid"] {
            if event.get(field).is_none() {
                return Err(format!("trace event {i} lacks required field \"{field}\""));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_harness::{chrome_trace_json, representative_trace};

    #[test]
    fn accepts_a_minimal_trace() {
        let json = r#"{"traceEvents":[{"ph":"X","ts":0,"pid":0,"tid":0,"name":"a","dur":1}]}"#;
        assert_eq!(validate_chrome_trace(json), Ok(()));
    }

    #[test]
    fn accepts_a_real_exported_trace() {
        let bundle = representative_trace(Artifact::F14, Fidelity::Quick).unwrap().unwrap();
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn rejects_structural_damage() {
        assert!(validate_chrome_trace("[]").is_err(), "must be an object");
        assert!(validate_chrome_trace(r#"{"traceEvents":["#).is_err(), "unbalanced");
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"ph":"X","ts":0,"pid":0}]}}"#).is_err(),
            "extra brace"
        );
        assert!(
            validate_chrome_trace(r#"{"traceEvents":[{"ph":"X","ts":0,"pid":0}]} x"#).is_err(),
            "trailing text"
        );
        assert!(
            validate_chrome_trace(r#"{"events":[{"ph":"X","ts":0,"pid":0}]}"#).is_err(),
            "missing traceEvents"
        );
        assert!(validate_chrome_trace(r#"{"traceEvents":"oops"#).is_err(), "open string");
    }

    #[test]
    fn csv_helper_names_single_and_multi_table_artifacts() {
        let dir = std::env::temp_dir().join("corescope-csv-helper-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = corescope_harness::Table::with_columns("t", &["r", "a"]);
        t.push_row("x", vec![corescope_harness::Cell::num(1.0)]).unwrap();

        let single = write_tables_csv(&dir, "t9", std::slice::from_ref(&t)).unwrap();
        assert_eq!(single, vec![dir.join("t9.csv")]);
        let multi = write_tables_csv(&dir, "x5", &[t.clone(), t.clone()]).unwrap();
        assert_eq!(multi, vec![dir.join("x5_0.csv"), dir.join("x5_1.csv")]);
        assert_eq!(std::fs::read_to_string(&single[0]).unwrap(), t.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn braces_inside_strings_do_not_count() {
        let json = r#"{"traceEvents":[{"ph":"i","ts":0,"pid":0,"name":"Kill { target: 3 }"}]}"#;
        assert_eq!(validate_chrome_trace(json), Ok(()));
        let esc = r#"{"traceEvents":[{"ph":"X","ts":0,"pid":0,"name":"q\"}{\""}]}"#;
        assert_eq!(validate_chrome_trace(esc), Ok(()));
    }
}
