//! Output gates: pinned crc32s from `expected.txt` plus the cross-checks
//! every run makes. A mismatch counts as one failed operation.

use std::collections::HashMap;

/// The pinned outputs, compiled in so the binary checks them from any
/// working directory.
const EXPECTED: &str = include_str!("../expected.txt");

/// Operations attempted and failed, with one note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// What went wrong, one line each.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts a failed operation unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.fail(usize::from(!ok), what);
    }

    /// Counts `n` failed operations under one note.
    pub fn fail(&mut self, n: usize, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n as u64;
            self.notes.push(what());
        }
    }
}

/// The `expected.txt` table: `(workload, key) -> crc32`.
#[derive(Debug, Clone)]
pub struct Gates {
    pinned: HashMap<(String, String), u32>,
}

impl Gates {
    /// Parses the compiled-in `expected.txt`.
    ///
    /// # Panics
    ///
    /// On a malformed line: the file ships with the binary, so that is a
    /// bug in this package.
    pub fn load() -> Self {
        Self::parse(EXPECTED).expect("bench/perf/expected.txt is malformed")
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut pinned = HashMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, crc] = fields[..] else {
                return Err(format!("expected '<workload> <key> <crc32>', got '{line}'"));
            };
            let crc = u32::from_str_radix(crc.trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad crc32 in '{line}': {e}"))?;
            pinned.insert((workload.to_string(), key.to_string()), crc);
        }
        Ok(Self { pinned })
    }

    /// Checks `crc` against the pin for `(workload, key)`. An unpinned key
    /// is reported on stderr, not failed: pins exist for the default seed
    /// and run length only.
    pub fn check(&self, checks: &mut Checks, workload: &str, key: &str, crc: u32) {
        match self.pinned.get(&(workload.to_string(), key.to_string())) {
            Some(&want) => checks.expect(want == crc, || {
                format!("{workload} {key}: crc32 {crc:#010x}, expected.txt pins {want:#010x}")
            }),
            None => eprintln!("perf: unpinned output {workload} {key} {crc:#010x}"),
        }
    }
}

/// The pin key of a seeded workload's output.
pub fn seeded_key(seed: u64, seconds: u64) -> String {
    format!("seed={seed},seconds={seconds}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_pins_parse_and_mismatches_fail() {
        let gates = Gates::load();
        assert!(gates.pinned.len() > 39, "every suite artifact plus the seeded outputs");
        let gates = Gates::parse("# c\nsuite t1 0x0000002a\n").unwrap();
        let mut checks = Checks::default();
        gates.check(&mut checks, "suite", "t1", 42);
        gates.check(&mut checks, "suite", "t2", 7);
        assert_eq!(checks.failed, 0);
        gates.check(&mut checks, "suite", "t1", 43);
        assert_eq!(checks.failed, 1);
        assert!(Gates::parse("suite t1").is_err());
    }
}
