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

use crate::report::Table;
use corescope_machine::{Error, Result};
use corescope_sched::{Fidelity, Scheduler, System};
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
        let ids: Vec<&str> = CATALOGUE.iter().map(|e| e.id).collect();
        write!(
            f,
            "unknown artifact '{}' (valid ids are {}; run with --list for the catalogue)",
            self.requested,
            ids.join(", ")
        )?;
        if let Some(nearest) = self.nearest() {
            write!(f, " — did you mean '{nearest}'?")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownArtifact {}

/// One catalogue row: everything the catalogue knows about an artifact.
struct Entry {
    id: &'static str,
    title: &'static str,
    describe: &'static str,
    run: fn(Fidelity, &Scheduler) -> Result<Vec<Table>>,
}

/// Declares the artifact catalogue once, in paper order, one row per
/// artifact: `Variant "id" => runner, "title", "description";`. Generates
/// the [`Artifact`] enum (each variant documented by its title), the
/// `CATALOGUE` rows that [`Artifact::id`], [`Artifact::title`],
/// [`Artifact::describe`] and [`Artifact::run_with`] read, and
/// [`Artifact::all`].
macro_rules! artifacts {
    ($($variant:ident $id:literal => $run:expr, $title:literal, $describe:literal;)+) => {
        /// Every table and figure of the paper's evaluation by its number,
        /// then the extras the paper does not have.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Artifact {
            $(#[doc = $title] $variant,)+
        }

        /// The catalogue rows, indexed by `artifact as usize`.
        const CATALOGUE: &[Entry] = &[$(Entry {
            id: $id,
            title: $title,
            describe: $describe,
            run: $run,
        }),+];

        impl Artifact {
            /// All artifacts in paper order.
            pub fn all() -> Vec<Artifact> {
                vec![$(Artifact::$variant),+]
            }
        }
    };
}

artifacts! {
    T1 "t1" => |_, _| Ok(vec![statics::table1()?]),
        "Table 1: System configurations",
        "static system-configuration table (Tiger, DMZ, Longs)";
    F2 "f2" => stream::figure2,
        "Figure 2: Memory bandwidth",
        "STREAM aggregate bandwidth vs core count on all three systems";
    F3 "f3" => stream::figure3,
        "Figure 3: Memory bandwidth per core",
        "STREAM per-core bandwidth: second cores add nothing on Longs";
    F4 "f4" => blas::figure4,
        "Figure 4: DAXPY performance (ACML)",
        "DAXPY GFlop/s with the tuned (ACML-style) BLAS";
    F5 "f5" => blas::figure5,
        "Figure 5: DAXPY performance per core (vanilla)",
        "DAXPY per-core GFlop/s with the vanilla BLAS";
    F6 "f6" => blas::figure6,
        "Figure 6: DGEMM performance (ACML)",
        "DGEMM GFlop/s with the tuned (ACML-style) BLAS";
    F7 "f7" => blas::figure7,
        "Figure 7: DGEMM performance per core (vanilla)",
        "DGEMM per-core GFlop/s with the vanilla BLAS";
    F8 "f8" => hpcc::figure8,
        "Figure 8: HPL performance with LAM/NUMA options",
        "HPL under the LAM/numactl placement options";
    F9 "f9" => hpcc::figure9,
        "Figure 9: Processor performance with runtime options",
        "compute-bound kernels are placement-insensitive";
    F10 "f10" => stream::figure10,
        "Figure 10: LAM/NUMA options vs memory performance (STREAM)",
        "STREAM under the placement options: local alloc wins";
    F11 "f11" => hpcc::figure11,
        "Figure 11: HPCC RandomAccess with runtime options",
        "HPCC RandomAccess under the placement options";
    F12 "f12" => hpcc::figure12,
        "Figure 12: LAM/NUMA options vs communication performance (PTRANS)",
        "HPCC PTRANS: placement moves communication bandwidth";
    F13 "f13" => hpcc::figure13,
        "Figure 13: Communication latency",
        "PingPong latency on Longs: SysV vs spin-lock transports";
    F14 "f14" => imb::figure14,
        "Figure 14: Intra-node IMB PingPong across MPI implementations",
        "intra-node PingPong latency across MPI implementations";
    F15 "f15" => imb::figure15,
        "Figure 15: Intra-node IMB Exchange across MPI implementations",
        "intra-node Exchange across MPI implementations";
    F16 "f16" => imb::figure16,
        "Figure 16: OpenMPI PingPong with scheduler affinity",
        "OpenMPI PingPong with and without scheduler affinity";
    F17 "f17" => imb::figure17,
        "Figure 17: OpenMPI Exchange with scheduler affinity",
        "OpenMPI Exchange with and without scheduler affinity";
    T2 "t2" => nas::table2,
        "Table 2: numactl options vs NAS CG/FT on Longs",
        "numactl options vs NAS CG/FT on Longs (membind penalty)";
    T3 "t3" => nas::table3,
        "Table 3: numactl options vs NAS CG/FT on DMZ",
        "numactl options vs NAS CG/FT on DMZ (smaller penalty)";
    T4 "t4" => nas::table4,
        "Table 4: Multi-core speedup for NAS benchmarks",
        "NAS multi-core speedup: memory-bound codes stall at 8";
    T5 "t5" => |_, _| Ok(vec![statics::table5()?]),
        "Table 5: numactl options used for experiments",
        "static catalogue of the numactl option bundles";
    T6 "t6" => |_, _| Ok(vec![statics::table6()?]),
        "Table 6: AMBER benchmark descriptions",
        "static catalogue of the AMBER benchmark inputs";
    T7 "t7" => amber::table7,
        "Table 7: FFT performance in the JAC benchmark",
        "FFT share of JAC: small transforms, cache-resident";
    T8 "t8" => amber::table8,
        "Table 8: AMBER PME/GB multi-core speedup",
        "AMBER PME/GB speedup: GB scales, PME saturates";
    T9 "t9" => amber::table9,
        "Table 9: Overall performance of the JAC benchmark",
        "JAC wall time under the placement options";
    T10 "t10" => lammps::table10,
        "Table 10: LAMMPS multi-core speedup",
        "LAMMPS speedup: neighbor-list traffic caps scaling";
    T11 "t11" => lammps::table11,
        "Table 11: numactl options vs LAMMPS LJ",
        "numactl options vs LAMMPS Lennard-Jones wall time";
    T12 "t12" => pop::table12,
        "Table 12: POP multi-core speedup",
        "POP speedup: barotropic solver is latency-bound";
    T13 "t13" => pop::table13,
        "Table 13: numactl options vs POP baroclinic time",
        "numactl options vs POP baroclinic (bandwidth-bound) time";
    T14 "t14" => pop::table14,
        "Table 14: numactl options vs POP barotropic time",
        "numactl options vs POP barotropic (latency-bound) time";
    X1 "x1" => hybrid::extra1,
        "Extra X1: hybrid (OpenMP-in-socket) vs pure MPI",
        "hybrid OpenMP-in-socket vs pure MPI, as Section 3.4 proposes";
    X2 "x2" => |_, _| Ok(vec![statics::extra2()?]),
        "Extra X2: memory-latency plateaus (lmbench-style)",
        "analytic lmbench-style memory-latency plateaus per system";
    X3 "x3" => crate::resilience::extra3,
        "Extra X3: fault-injection resilience campaign",
        "fault-injection campaign with bounded-degradation checks";
    X4 "x4" => |fidelity, _| bottleneck::extra4(fidelity),
        "Extra X4: time-resolved bottleneck attribution",
        "time-resolved bottleneck attribution for STREAM/PingPong/CG";
    X5 "x5" => recovery::extra5,
        "Extra X5: recovery campaign (checkpoint/restart under rank kills)",
        "checkpoint/restart under rank kills, swept around Young/Daly";
    X7 "x7" => calibration::extra7,
        "Extra X7: auto-calibration against the paper-target registry",
        "fit the calibration back to the paper targets from a perturbed start";
    X9 "x9" => campaign::extra9,
        "Extra X9: crash-safe campaign store (kill-anywhere resume)",
        "kill a store-backed sweep mid-write; resume must aggregate identically";
    X10 "x10" => xs::extra10,
        "Extra X10: cross-section lookup NUMA crossover (XSBench-style)",
        "table size x placement sweep; first-touch/interleave crossover checked";
    X11 "x11" => topo::extra11,
        "Extra X11: then vs now — 2006 verdicts across machine generations",
        "sweep STREAM + xs-lookup over all generations; >=2 2006 verdicts flip";
}

impl Artifact {
    fn entry(self) -> &'static Entry {
        &CATALOGUE[self as usize]
    }

    /// Lowercase id used on the `repro` command line ("t2", "f10", ...).
    pub fn id(self) -> &'static str {
        self.entry().id
    }

    /// Parses an artifact id, ignoring ASCII case ("T2" is t2).
    pub fn parse(s: &str) -> Option<Artifact> {
        Artifact::all().into_iter().find(|a| a.id().eq_ignore_ascii_case(s))
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
        self.entry().title
    }

    /// One-line description for the `repro --list` catalogue: what the
    /// artifact measures and which claim it carries.
    pub fn describe(self) -> &'static str {
        self.entry().describe
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
        (self.entry().run)(fidelity, sched)
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
    fn the_table_names_every_id_and_numbers_every_title() {
        let rendered = Artifact::from_id("zzzzzzzz").unwrap_err().to_string();
        let listed = rendered.split("valid ids are ").nth(1).and_then(|r| r.split(';').next());
        let ids: Vec<&str> = Artifact::all().into_iter().map(Artifact::id).collect();
        assert_eq!(listed, Some(ids.join(", ").as_str()), "{rendered}");
        for a in Artifact::all() {
            let (kind, number) = a.id().split_at(1);
            let prefix = match kind {
                "t" => format!("Table {number}: "),
                "f" => format!("Figure {number}: "),
                _ => format!("Extra X{number}: "),
            };
            assert!(a.title().starts_with(&prefix), "{}: {}", a.id(), a.title());
        }
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
            assert_eq!(Artifact::parse(&a.id().to_uppercase()), Some(a));
        }
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
