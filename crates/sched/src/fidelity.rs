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

    /// The message sizes an IMB sweep visits: powers of two from 1 B to
    /// 4 MiB, thinned like every sweep.
    pub fn imb_message_sizes(self) -> Vec<f64> {
        let sizes: Vec<f64> = (0..=22).map(|i| (1u64 << i) as f64).collect();
        self.thin(&sizes)
    }

    /// IMB repetitions for one message size: fewer for multi-megabyte
    /// messages, as IMB does, and never fewer than two.
    pub fn imb_reps(self, bytes: f64) -> usize {
        let base = if bytes >= 1e6 { 4 } else { 40 };
        self.steps(base).max(2)
    }

    /// Stable lowercase key used in scenario JSON and cache paths.
    pub const fn key(self) -> &'static str {
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
    fn imb_sizes_span_1b_to_4mib() {
        let full = Fidelity::Full.imb_message_sizes();
        assert_eq!(full.len(), 23);
        assert_eq!(full[0], 1.0);
        assert_eq!(*full.last().unwrap(), 4.0 * 1024.0 * 1024.0);
        assert_eq!(Fidelity::Quick.imb_message_sizes(), Fidelity::Quick.thin(&full));
    }

    #[test]
    fn imb_reps_drop_for_large_messages_and_never_below_two() {
        assert_eq!(Fidelity::Full.imb_reps(8.0), 40);
        assert_eq!(Fidelity::Full.imb_reps(4e6), 4);
        assert_eq!(Fidelity::Quick.imb_reps(8.0), 4);
        assert_eq!(Fidelity::Quick.imb_reps(4e6), 2);
    }

    #[test]
    fn keys_round_trip() {
        for f in [Fidelity::Full, Fidelity::Quick] {
            assert_eq!(Fidelity::parse(f.key()), Some(f));
        }
        assert_eq!(Fidelity::parse("medium"), None);
    }
}
