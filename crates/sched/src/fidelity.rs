//! Fidelity levels: full paper-scale runs vs. reduced sweeps for quick
//! checks and benchmarks.
//!
//! Lives in `corescope-sched` (re-exported by `corescope-harness`)
//! because fidelity is part of a [`crate::Scenario`]'s identity: a quick
//! and a full run of "the same" experiment must never share a cache
//! entry.

/// How much work an artifact run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Paper-scale problem sizes and step counts.
    #[default]
    Full,
    /// Reduced step/repetition counts (same problem shapes); ratios and
    /// orderings are preserved, absolute times are smaller.
    Quick,
}

impl Fidelity {
    /// Scales a step/repetition count: `Quick` divides by 10 (minimum 1).
    pub fn steps(self, full: usize) -> usize {
        match self {
            Fidelity::Full => full,
            Fidelity::Quick => (full / 10).max(1),
        }
    }

    /// Scales a sweep list: `Quick` keeps every other point.
    pub fn thin<T: Clone>(self, points: &[T]) -> Vec<T> {
        match self {
            Fidelity::Full => points.to_vec(),
            Fidelity::Quick => points.iter().step_by(2).cloned().collect(),
        }
    }

    /// Stable lowercase key used in scenario JSON and cache paths.
    pub fn key(self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Quick => "quick",
        }
    }

    /// Parses [`Fidelity::key`] output.
    pub fn parse(s: &str) -> Option<Fidelity> {
        match s {
            "full" => Some(Fidelity::Full),
            "quick" => Some(Fidelity::Quick),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reduces_steps_but_never_to_zero() {
        assert_eq!(Fidelity::Full.steps(100), 100);
        assert_eq!(Fidelity::Quick.steps(100), 10);
        assert_eq!(Fidelity::Quick.steps(5), 1);
    }

    #[test]
    fn thin_halves_sweeps() {
        let pts = [1, 2, 3, 4, 5];
        assert_eq!(Fidelity::Quick.thin(&pts), vec![1, 3, 5]);
        assert_eq!(Fidelity::Full.thin(&pts), pts.to_vec());
    }

    #[test]
    fn keys_round_trip() {
        for f in [Fidelity::Full, Fidelity::Quick] {
            assert_eq!(Fidelity::parse(f.key()), Some(f));
        }
        assert_eq!(Fidelity::parse("medium"), None);
    }
}
