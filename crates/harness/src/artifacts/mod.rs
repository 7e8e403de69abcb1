//! One entry point per paper artifact (table or figure).

pub mod amber;
pub mod blas;
pub mod bottleneck;
pub mod calibration;
pub mod campaign;
pub mod hpcc;
pub mod hybrid;
pub mod imb;
pub mod lammps;
pub mod nas;
pub mod pop;
pub mod recovery;
pub mod statics;
pub mod stream;
pub mod topo;
pub mod xs;

use crate::fidelity::Fidelity;
use crate::report::Table;
use corescope_machine::{Error, Result};
use corescope_sched::{Scheduler, System};
use std::fmt;

/// A request named an artifact id that does not exist. Carries the
/// requested string so `repro` and `corescope-serve` can report it (and
/// point at the catalogue) instead of silently skipping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownArtifact {
    /// What the request said, verbatim.
    pub requested: String,
}

impl UnknownArtifact {
    /// The valid id closest to the requested string by edit distance,
    /// when it is close enough to plausibly be a typo.
    pub fn nearest(&self) -> Option<&'static str> {
        let requested = self.requested.to_lowercase();
        Artifact::all()
            .into_iter()
            .map(|a| (edit_distance(&requested, a.id()), a.id()))
            .min()
            .filter(|(d, _)| *d <= 2)
            .map(|(_, id)| id)
    }
}

/// Levenshtein distance, small-string sized.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

impl fmt::Display for UnknownArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown artifact '{}' (valid ids are t1..t14, f2..f17, x1..x5, x7, x9, x10, x11; \
             run with --list for the catalogue)",
            self.requested
        )?;
        if let Some(nearest) = self.nearest() {
            write!(f, " — did you mean '{nearest}'?")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownArtifact {}

/// Every table and figure of the paper's evaluation, by its number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the paper's artifact numbers
pub enum Artifact {
    T1,
    F2,
    F3,
    F4,
    F5,
    F6,
    F7,
    F8,
    F9,
    F10,
    F11,
    F12,
    F13,
    F14,
    F15,
    F16,
    F17,
    T2,
    T3,
    T4,
    T5,
    T6,
    T7,
    T8,
    T9,
    T10,
    T11,
    T12,
    T13,
    T14,
    /// Extra (not in the paper): the hybrid programming model Section
    /// 3.4 proposes, measured.
    X1,
    /// Extra: predicted lmbench-style memory-latency plateaus.
    X2,
    /// Extra: fault-injection resilience campaign (scheduled brownouts,
    /// kills, and rank stalls with bounded-degradation checks).
    X3,
    /// Extra: time-resolved bottleneck attribution for STREAM, PingPong,
    /// and NAS CG on all three systems.
    X4,
    /// Extra: recovery campaign — checkpoint/restart under rank-kill
    /// faults, swept around the Young/Daly optimum with bounded-recovery
    /// and attribution-shift checks.
    X5,
    /// Extra: auto-calibration — fit the model parameters back to the
    /// paper targets from a perturbed start, with recovery, headline and
    /// sensitivity invariants checked.
    X7,
    /// Extra: crash-safe campaign store — a sweep killed mid-write must
    /// recover, resume past committed scenarios, and aggregate
    /// byte-identically to an uninterrupted run.
    X9,
    /// Extra: the XSBench-style cross-section lookup family — table
    /// size × placement sweep with a checked first-touch/interleave
    /// NUMA crossover.
    X10,
    /// Extra: the "then vs now" generation study — STREAM and the
    /// lookup proxy swept over every `corescope-topo` generation,
    /// hard-asserting that at least two 2006 placement verdicts flip
    /// on the chiplet and memory-tier machines.
    X11,
}

impl Artifact {
    /// All artifacts in paper order.
    pub fn all() -> Vec<Artifact> {
        use Artifact::*;
        vec![
            T1, F2, F3, F4, F5, F6, F7, F8, F9, F10, F11, F12, F13, F14, F15, F16, F17, T2, T3, T4,
            T5, T6, T7, T8, T9, T10, T11, T12, T13, T14, X1, X2, X3, X4, X5, X7, X9, X10, X11,
        ]
    }

    /// Lowercase id used on the `repro` command line ("t2", "f10", ...).
    pub fn id(self) -> &'static str {
        use Artifact::*;
        match self {
            T1 => "t1",
            F2 => "f2",
            F3 => "f3",
            F4 => "f4",
            F5 => "f5",
            F6 => "f6",
            F7 => "f7",
            F8 => "f8",
            F9 => "f9",
            F10 => "f10",
            F11 => "f11",
            F12 => "f12",
            F13 => "f13",
            F14 => "f14",
            F15 => "f15",
            F16 => "f16",
            F17 => "f17",
            T2 => "t2",
            T3 => "t3",
            T4 => "t4",
            T5 => "t5",
            T6 => "t6",
            T7 => "t7",
            T8 => "t8",
            T9 => "t9",
            T10 => "t10",
            T11 => "t11",
            T12 => "t12",
            T13 => "t13",
            T14 => "t14",
            X1 => "x1",
            X2 => "x2",
            X3 => "x3",
            X4 => "x4",
            X5 => "x5",
            X7 => "x7",
            X9 => "x9",
            X10 => "x10",
            X11 => "x11",
        }
    }

    /// Parses an artifact id.
    pub fn parse(s: &str) -> Option<Artifact> {
        Artifact::all().into_iter().find(|a| a.id() == s.to_lowercase())
    }

    /// Parses an artifact id with a typed error for unknown names.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownArtifact`] carrying the requested string.
    pub fn from_id(s: &str) -> std::result::Result<Artifact, UnknownArtifact> {
        Artifact::parse(s).ok_or_else(|| UnknownArtifact { requested: s.to_string() })
    }

    /// The paper's caption, abbreviated.
    pub fn title(self) -> &'static str {
        use Artifact::*;
        match self {
            T1 => "Table 1: System configurations",
            F2 => "Figure 2: Memory bandwidth",
            F3 => "Figure 3: Memory bandwidth per core",
            F4 => "Figure 4: DAXPY performance (ACML)",
            F5 => "Figure 5: DAXPY performance per core (vanilla)",
            F6 => "Figure 6: DGEMM performance (ACML)",
            F7 => "Figure 7: DGEMM performance per core (vanilla)",
            F8 => "Figure 8: HPL performance with LAM/NUMA options",
            F9 => "Figure 9: Processor performance with runtime options",
            F10 => "Figure 10: LAM/NUMA options vs memory performance (STREAM)",
            F11 => "Figure 11: HPCC RandomAccess with runtime options",
            F12 => "Figure 12: LAM/NUMA options vs communication performance (PTRANS)",
            F13 => "Figure 13: Communication latency",
            F14 => "Figure 14: Intra-node IMB PingPong across MPI implementations",
            F15 => "Figure 15: Intra-node IMB Exchange across MPI implementations",
            F16 => "Figure 16: OpenMPI PingPong with scheduler affinity",
            F17 => "Figure 17: OpenMPI Exchange with scheduler affinity",
            T2 => "Table 2: numactl options vs NAS CG/FT on Longs",
            T3 => "Table 3: numactl options vs NAS CG/FT on DMZ",
            T4 => "Table 4: Multi-core speedup for NAS benchmarks",
            T5 => "Table 5: numactl options used for experiments",
            T6 => "Table 6: AMBER benchmark descriptions",
            T7 => "Table 7: FFT performance in the JAC benchmark",
            T8 => "Table 8: AMBER PME/GB multi-core speedup",
            T9 => "Table 9: Overall performance of the JAC benchmark",
            T10 => "Table 10: LAMMPS multi-core speedup",
            T11 => "Table 11: numactl options vs LAMMPS LJ",
            T12 => "Table 12: POP multi-core speedup",
            T13 => "Table 13: numactl options vs POP baroclinic time",
            T14 => "Table 14: numactl options vs POP barotropic time",
            X1 => "Extra X1: hybrid (OpenMP-in-socket) vs pure MPI",
            X2 => "Extra X2: memory-latency plateaus (lmbench-style)",
            X3 => "Extra X3: fault-injection resilience campaign",
            X4 => "Extra X4: time-resolved bottleneck attribution",
            X5 => "Extra X5: recovery campaign (checkpoint/restart under rank kills)",
            X7 => "Extra X7: auto-calibration against the paper-target registry",
            X9 => "Extra X9: crash-safe campaign store (kill-anywhere resume)",
            X10 => "Extra X10: cross-section lookup NUMA crossover (XSBench-style)",
            X11 => "Extra X11: then vs now — 2006 verdicts across machine generations",
        }
    }

    /// One-line description for the `repro --list` catalogue: what the
    /// artifact measures and which claim it carries.
    pub fn describe(self) -> &'static str {
        use Artifact::*;
        match self {
            T1 => "static system-configuration table (Tiger, DMZ, Longs)",
            F2 => "STREAM aggregate bandwidth vs core count on all three systems",
            F3 => "STREAM per-core bandwidth: second cores add nothing on Longs",
            F4 => "DAXPY GFlop/s with the tuned (ACML-style) BLAS",
            F5 => "DAXPY per-core GFlop/s with the vanilla BLAS",
            F6 => "DGEMM GFlop/s with the tuned (ACML-style) BLAS",
            F7 => "DGEMM per-core GFlop/s with the vanilla BLAS",
            F8 => "HPL under the LAM/numactl placement options",
            F9 => "compute-bound kernels are placement-insensitive",
            F10 => "STREAM under the placement options: local alloc wins",
            F11 => "HPCC RandomAccess under the placement options",
            F12 => "HPCC PTRANS: placement moves communication bandwidth",
            F13 => "PingPong latency on Longs: SysV vs spin-lock transports",
            F14 => "intra-node PingPong latency across MPI implementations",
            F15 => "intra-node Exchange across MPI implementations",
            F16 => "OpenMPI PingPong with and without scheduler affinity",
            F17 => "OpenMPI Exchange with and without scheduler affinity",
            T2 => "numactl options vs NAS CG/FT on Longs (membind penalty)",
            T3 => "numactl options vs NAS CG/FT on DMZ (smaller penalty)",
            T4 => "NAS multi-core speedup: memory-bound codes stall at 8",
            T5 => "static catalogue of the numactl option bundles",
            T6 => "static catalogue of the AMBER benchmark inputs",
            T7 => "FFT share of JAC: small transforms, cache-resident",
            T8 => "AMBER PME/GB speedup: GB scales, PME saturates",
            T9 => "JAC wall time under the placement options",
            T10 => "LAMMPS speedup: neighbor-list traffic caps scaling",
            T11 => "numactl options vs LAMMPS Lennard-Jones wall time",
            T12 => "POP speedup: barotropic solver is latency-bound",
            T13 => "numactl options vs POP baroclinic (bandwidth-bound) time",
            T14 => "numactl options vs POP barotropic (latency-bound) time",
            X1 => "hybrid OpenMP-in-socket vs pure MPI, as Section 3.4 proposes",
            X2 => "analytic lmbench-style memory-latency plateaus per system",
            X3 => "fault-injection campaign with bounded-degradation checks",
            X4 => "time-resolved bottleneck attribution for STREAM/PingPong/CG",
            X5 => "checkpoint/restart under rank kills, swept around Young/Daly",
            X7 => "fit the calibration back to the paper targets from a perturbed start",
            X9 => "kill a store-backed sweep mid-write; resume must aggregate identically",
            X10 => "table size x placement sweep; first-touch/interleave crossover checked",
            X11 => "sweep STREAM + xs-lookup over all generations; >=2 2006 verdicts flip",
        }
    }

    /// Regenerates the artifact with a private single-job scheduler.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from the underlying simulations.
    pub fn run(self, fidelity: Fidelity) -> Result<Vec<Table>> {
        self.run_with(fidelity, &Scheduler::new(1))
    }

    /// Regenerates the artifact, executing its simulation sweeps through
    /// `sched` — which brings the work-stealing fan-out, the result
    /// cache and in-flight dedup to every scenario-enumerated artifact.
    /// Results are byte-identical at any job count or cache temperature.
    ///
    /// # Errors
    ///
    /// Propagates engine errors from the underlying simulations.
    pub fn run_with(self, fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
        use Artifact::*;
        match self {
            T1 => Ok(vec![statics::table1()?]),
            T5 => Ok(vec![statics::table5()?]),
            T6 => Ok(vec![statics::table6()?]),
            F2 => stream::figure2(fidelity, sched),
            F3 => stream::figure3(fidelity, sched),
            F4 => blas::figure4(fidelity, sched),
            F5 => blas::figure5(fidelity, sched),
            F6 => blas::figure6(fidelity, sched),
            F7 => blas::figure7(fidelity, sched),
            F8 => hpcc::figure8(fidelity, sched),
            F9 => hpcc::figure9(fidelity, sched),
            F10 => stream::figure10(fidelity, sched),
            F11 => hpcc::figure11(fidelity, sched),
            F12 => hpcc::figure12(fidelity, sched),
            F13 => hpcc::figure13(fidelity, sched),
            F14 => imb::figure14(fidelity, sched),
            F15 => imb::figure15(fidelity, sched),
            F16 => imb::figure16(fidelity, sched),
            F17 => imb::figure17(fidelity, sched),
            T2 => nas::table2(fidelity, sched),
            T3 => nas::table3(fidelity, sched),
            T4 => nas::table4(fidelity, sched),
            T7 => amber::table7(fidelity, sched),
            T8 => amber::table8(fidelity, sched),
            T9 => amber::table9(fidelity, sched),
            T10 => lammps::table10(fidelity, sched),
            T11 => lammps::table11(fidelity, sched),
            T12 => pop::table12(fidelity, sched),
            T13 => pop::table13(fidelity, sched),
            T14 => pop::table14(fidelity, sched),
            X1 => hybrid::extra1(fidelity, sched),
            X2 => Ok(vec![statics::extra2()?]),
            X3 => crate::resilience::extra3(fidelity, sched),
            X4 => bottleneck::extra4(fidelity),
            X5 => recovery::extra5(fidelity, sched),
            X7 => calibration::extra7(fidelity, sched),
            X9 => campaign::extra9(fidelity, sched),
            X10 => xs::extra10(fidelity, sched),
            X11 => topo::extra11(fidelity, sched),
        }
    }

    /// Regenerates the artifact restricted to an explicit machine set
    /// (the `repro --machine` axis). `None` (or an empty list) is the
    /// default sweep, byte-identical to [`Artifact::run_with`]. Only
    /// artifacts that genuinely sweep a machine-generation axis accept
    /// a filter; anything else reports a typed error instead of
    /// silently ignoring the request.
    ///
    /// # Errors
    ///
    /// Propagates engine errors, and returns [`Error::InvalidSpec`]
    /// when `machines` is non-empty for an artifact without the axis.
    pub fn run_on(
        self,
        fidelity: Fidelity,
        sched: &Scheduler,
        machines: Option<&[System]>,
    ) -> Result<Vec<Table>> {
        match machines {
            Some(list) if !list.is_empty() => match self {
                Artifact::X11 => topo::extra11_on(fidelity, sched, Some(list)),
                _ => Err(Error::InvalidSpec(format!(
                    "artifact '{}' has no --machine axis (only x11 sweeps machine generations)",
                    self.id()
                ))),
            },
            _ => self.run_with(fidelity, sched),
        }
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.title())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_have_unique_ids() {
        let all = Artifact::all();
        assert_eq!(all.len(), 39, "30 paper artifacts + the X1-X5, X7, X9-X11 extras");
        let mut ids: Vec<_> = all.iter().map(|a| a.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 39);
    }

    #[test]
    fn unknown_artifacts_suggest_the_nearest_id() {
        let err = Artifact::from_id("x8").unwrap_err();
        assert!(err.nearest().is_some());
        let rendered = err.to_string();
        assert!(rendered.contains("did you mean"), "{rendered}");

        let err = Artifact::from_id("x77").unwrap_err();
        assert_eq!(err.nearest(), Some("x7"));

        let err = Artifact::from_id("x100").unwrap_err();
        assert_eq!(err.nearest(), Some("x10"));

        let err = Artifact::from_id("x111").unwrap_err();
        assert_eq!(err.nearest(), Some("x11"));
        assert!(err.to_string().contains("x11"), "{err}");

        // Nothing close: no suggestion rather than a wild guess.
        let err = Artifact::from_id("zzzzzzzz").unwrap_err();
        assert_eq!(err.nearest(), None);
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn every_artifact_has_a_description() {
        for a in Artifact::all() {
            assert!(!a.describe().is_empty());
            assert!(a.describe().len() < 80, "{}: keep --list one-line", a.id());
        }
    }

    #[test]
    fn parse_round_trips() {
        for a in Artifact::all() {
            assert_eq!(Artifact::parse(a.id()), Some(a));
        }
        assert_eq!(Artifact::parse("T2"), Some(Artifact::T2));
        assert_eq!(Artifact::parse("nope"), None);
    }

    #[test]
    fn machine_axis_rejected_by_artifacts_without_it() {
        let sched = Scheduler::new(1);
        let machines = [System::Epyc];
        let err = Artifact::F2.run_on(Fidelity::Quick, &sched, Some(&machines)).unwrap_err();
        assert!(err.to_string().contains("--machine axis"), "{err}");

        // None (and an empty list) mean "default sweep" for everyone.
        let tables = Artifact::T1.run_on(Fidelity::Quick, &sched, None).unwrap();
        assert_eq!(tables.len(), 1);
        let tables = Artifact::T1.run_on(Fidelity::Quick, &sched, Some(&[])).unwrap();
        assert_eq!(tables.len(), 1);
    }

    #[test]
    fn statics_run_instantly() {
        for a in [Artifact::T1, Artifact::T5, Artifact::T6] {
            let tables = a.run(Fidelity::Quick).unwrap();
            assert_eq!(tables.len(), 1);
            assert!(tables[0].num_rows() > 0);
        }
    }
}
