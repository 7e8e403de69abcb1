//! LAMMPS artifacts: Tables 10 (multi-core speedup) and 11 (LJ vs
//! numactl options). Every run is a [`Workload::Lammps`] scenario
//! through the [`Scheduler`].

use crate::context::{scheme_tables, speedup_table};
use crate::fidelity::Fidelity;
use crate::report::Table;
use corescope_apps::md::LammpsBenchmark;
use corescope_machine::Result;
use corescope_sched::{Scheduler, System, Workload};

/// Table 10: LJ/Chain/EAM speedups (no numactl) across the three systems.
/// The benchmarks have a fixed size, so both fidelities run the same
/// model (the fidelity still tags the scenarios).
pub fn table10(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    Ok(vec![speedup_table(
        sched,
        fidelity,
        "Table 10: LAMMPS multi-core speedup (no numactl)",
        &["Cores/system", "LJ", "Chain", "EAM"],
        &[
            ("DMZ", System::Dmz, &[2, 4]),
            ("Longs", System::Longs, &[2, 4, 8, 16]),
            ("Tiger", System::Tiger, &[2]),
        ],
        &LammpsBenchmark::all().map(|bench| Workload::Lammps { bench }),
    )?])
}

/// Table 11: the LJ benchmark vs the six schemes on Longs + DMZ.
pub fn table11(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    scheme_tables(
        sched,
        fidelity,
        [
            "Table 11: numactl options vs LAMMPS LJ, Longs (seconds)",
            "Table 11 (cont.): numactl options vs LAMMPS LJ, DMZ (seconds)",
        ],
        ("LJ", Workload::Lammps { bench: LammpsBenchmark::Lj }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table10_chain_is_superlinear_lj_is_not() {
        let t = &table10(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let chain16 = t.value("16 Longs", "Chain").unwrap();
        let lj16 = t.value("16 Longs", "LJ").unwrap();
        assert!(chain16 > 16.0, "chain speedup {chain16:.1} should be superlinear");
        assert!(lj16 < 16.0, "LJ speedup {lj16:.1} stays sublinear");
        // Tiger row exists with 2 cores only.
        assert!(t.value("2 Tiger", "LJ").unwrap() > 1.5);
    }

    #[test]
    fn table11_longs_times_are_paper_scale() {
        let t = &table11(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        // Paper: 3.82 s at 2 tasks (default), 0.63 s at 16 (Two MPI + LA).
        let t2 = t.value("2 LJ", "Default").unwrap();
        let t16 = t.value("16 LJ", "Two MPI + Local Alloc").unwrap();
        assert!(t2 > 1.5 && t2 < 8.0, "2-task LJ = {t2:.2}");
        assert!(t16 < t2 / 4.0, "16-task LJ = {t16:.2}");
    }
}
