//! # corescope-bench
//!
//! The `repro` binary that regenerates every table and figure of the
//! paper (`src/bin/repro.rs`), plus the `corescope-serve` service and the
//! `store_fsck` store tool.
//!
//! Also home to [`validate_chrome_trace`], a serde-free sanity check for
//! the Chrome-trace JSON that `repro --trace` emits — CI runs it on the
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

/// Structural sanity check for an exported Chrome trace, without a JSON
/// dependency.
///
/// Verifies that the document is a single object with balanced braces and
/// brackets (tracked outside string literals, honouring escapes), that no
/// text trails the final brace, and that the Chrome-trace essentials —
/// a `"traceEvents"` array and `"ph"` / `"ts"` / `"pid"` event fields —
/// are present.
///
/// # Errors
///
/// Returns a one-line description of the first structural problem found.
pub fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let trimmed = json.trim();
    if !trimmed.starts_with('{') {
        return Err("trace must be a JSON object (expected leading '{')".to_string());
    }
    let mut depth_braces: i64 = 0;
    let mut depth_brackets: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut closed_at = None;
    for (i, c) in trimmed.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else if c.is_control() {
                return Err(format!("unescaped control character {c:?} inside a string"));
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_braces += 1,
            '}' => {
                depth_braces -= 1;
                if depth_braces < 0 {
                    return Err(format!("unbalanced '}}' at byte {i}"));
                }
                if depth_braces == 0 && closed_at.is_none() {
                    closed_at = Some(i);
                }
            }
            '[' => depth_brackets += 1,
            ']' => {
                depth_brackets -= 1;
                if depth_brackets < 0 {
                    return Err(format!("unbalanced ']' at byte {i}"));
                }
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string literal".to_string());
    }
    if depth_braces != 0 || depth_brackets != 0 {
        return Err(format!(
            "unbalanced document: {depth_braces} braces, {depth_brackets} brackets left open"
        ));
    }
    match closed_at {
        Some(i) if i + 1 < trimmed.len() => {
            return Err("text after the closing brace of the root object".to_string())
        }
        None => return Err("root object never closes".to_string()),
        _ => {}
    }
    for required in ["\"traceEvents\"", "\"ph\"", "\"ts\"", "\"pid\""] {
        if !trimmed.contains(required) {
            return Err(format!("missing required Chrome-trace field {required}"));
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
