//! NAS Parallel Benchmark artifacts: Tables 2, 3 (CG/FT vs numactl
//! options) and 4 (multi-core speedup). Every run is a [`Workload::NasCg`]
//! or [`Workload::NasFt`] scenario through the [`Scheduler`].

use crate::aggregate::pivot_table;
use crate::context::{scheme_table, speedups};
use crate::fidelity::Fidelity;
use crate::report::Table;
use corescope_kernels::cg::CgClass;
use corescope_kernels::nasft::FtClass;
use corescope_machine::Result;
use corescope_sched::{Scheduler, System, Workload};

/// The NAS class a fidelity runs: B at full, A at quick.
pub(crate) fn classes(fidelity: Fidelity) -> (CgClass, FtClass) {
    match fidelity {
        Fidelity::Full => (CgClass::B, FtClass::B),
        Fidelity::Quick => (CgClass::A, FtClass::A),
    }
}

fn nas_workloads(fidelity: Fidelity) -> [(&'static str, Workload); 2] {
    let (cg, ft) = classes(fidelity);
    [("CG", Workload::NasCg { class: cg }), ("FT", Workload::NasFt { class: ft })]
}

/// Table 2: CG/FT class B vs the six schemes on Longs.
pub fn table2(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    Ok(vec![scheme_table(
        sched,
        fidelity,
        "Table 2: numactl options vs NAS CG/FT, Longs (seconds)",
        System::Longs,
        &[2, 4, 8, 16],
        &nas_workloads(fidelity),
    )?])
}

/// Table 3: CG/FT class B vs the six schemes on DMZ.
pub fn table3(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    Ok(vec![scheme_table(
        sched,
        fidelity,
        "Table 3: numactl options vs NAS CG/FT, DMZ (seconds)",
        System::Dmz,
        &[2, 4],
        &nas_workloads(fidelity),
    )?])
}

/// Table 4: NAS multi-core speedup per core (parallel efficiency relative
/// to a single-core run; the paper's metric definition is ambiguous — see
/// EXPERIMENTS.md).
pub fn table4(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    const COUNTS: [usize; 4] = [2, 4, 8, 16];
    let (names, workloads): (Vec<&str>, Vec<Workload>) =
        nas_workloads(fidelity).into_iter().unzip();
    let systems = [("DMZ", System::Dmz), ("Longs", System::Longs), ("Tiger", System::Tiger)];
    let per_system: Vec<_> = systems
        .iter()
        .map(|&(_, system)| speedups(sched, fidelity, system, &workloads, &COUNTS))
        .collect::<Result<_>>()?;
    let mut rows = Vec::new();
    for (w, name) in names.iter().enumerate() {
        for ((sys_name, _), speedup) in systems.iter().zip(&per_system) {
            let values = speedup[w].iter().zip(COUNTS).map(|(s, n)| s.map(|s| s / n as f64));
            rows.push((format!("{name} {sys_name}"), values.collect()));
        }
    }
    Ok(vec![pivot_table(
        "Table 4: NAS multi-core speedup per core",
        &["Benchmark/system", "2 cores", "4 cores", "8 cores", "16 cores"],
        &rows,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::Scheme;

    #[test]
    fn table2_membind_is_worst_at_scale() {
        let t = &table2(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        // Paper: at 8 tasks, One MPI + Membind roughly doubles CG time.
        let la = t.value("8 CG", "One MPI + Local Alloc").unwrap();
        let mb = t.value("8 CG", "One MPI + Membind").unwrap();
        assert!(mb > 1.4 * la, "membind {mb:.2} vs localalloc {la:.2}");
        // One-per-socket schemes cannot host 16 ranks.
        assert_eq!(t.value("16 CG", "One MPI + Local Alloc"), None);
        assert!(t.value("16 CG", "Two MPI + Local Alloc").is_some());
    }

    #[test]
    fn table3_dmz_default_is_near_optimal() {
        // "the default option on the DMZ system is sufficient to obtain
        // near optimal runtimes".
        let t = &table3(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let default = t.value("2 CG", "Default").unwrap();
        let best = Scheme::all()
            .iter()
            .filter_map(|s| t.value("2 CG", s.name()))
            .fold(f64::INFINITY, f64::min);
        assert!(default < 1.25 * best, "default {default:.2} vs best {best:.2}");
    }

    #[test]
    fn table4_efficiency_declines_with_cores_on_longs() {
        let t = &table4(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let e2 = t.value("CG Longs", "2 cores").unwrap();
        let e16 = t.value("CG Longs", "16 cores").unwrap();
        assert!(e16 < e2, "efficiency must fall: {e2:.2} -> {e16:.2}");
        // Tiger only has two cores.
        assert_eq!(t.value("CG Tiger", "4 cores"), None);
    }
}
