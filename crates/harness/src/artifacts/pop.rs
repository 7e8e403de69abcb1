//! POP artifacts: Tables 12 (phase speedups), 13 (baroclinic vs numactl
//! options) and 14 (barotropic vs numactl options). Every run is a
//! [`Workload::PopBaroclinic`] or [`Workload::PopBarotropic`] scenario
//! through the [`Scheduler`].

use crate::context::{scheme_tables, speedup_table};
use crate::report::Table;
use corescope_apps::ocean::PopModel;
use corescope_machine::Result;
use corescope_sched::{Fidelity, Scheduler, System, Workload};

/// The x1 model's two phases at `fidelity`'s step count (at least two).
fn phases(fidelity: Fidelity) -> [Workload; 2] {
    let PopModel { nx, ny, nz, steps, cg_iterations } = PopModel::x1();
    let steps = fidelity.steps(steps).max(2);
    [
        Workload::PopBaroclinic { nx, ny, nz, steps, cg_iterations },
        Workload::PopBarotropic { nx, ny, nz, steps, cg_iterations },
    ]
}

/// Table 12: baroclinic/barotropic speedups across systems.
pub fn table12(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    Ok(vec![speedup_table(
        sched,
        fidelity,
        "Table 12: POP multi-core speedup",
        &["Cores/system", "Baroclinic", "Barotropic"],
        &[
            ("DMZ", System::Dmz, &[2, 4]),
            ("Tiger", System::Tiger, &[2]),
            ("Longs", System::Longs, &[2, 4, 8, 16]),
        ],
        &phases(fidelity),
    )?])
}

/// Table 13: baroclinic execution time vs schemes.
pub fn table13(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let [baroclinic, _] = phases(fidelity);
    scheme_tables(
        sched,
        fidelity,
        [
            "Table 13: numactl options vs POP baroclinic time, Longs (seconds)",
            "Table 13 (cont.): numactl options vs POP baroclinic time, DMZ (seconds)",
        ],
        ("baroclinic", baroclinic),
    )
}

/// Table 14: barotropic execution time vs schemes.
pub fn table14(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let [_, barotropic] = phases(fidelity);
    scheme_tables(
        sched,
        fidelity,
        [
            "Table 14: numactl options vs POP barotropic time, Longs (seconds)",
            "Table 14 (cont.): numactl options vs POP barotropic time, DMZ (seconds)",
        ],
        ("barotropic", barotropic),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table12_scales_nearly_linearly() {
        let t = &table12(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let clinic16 = t.value("16 Longs", "Baroclinic").unwrap();
        assert!(clinic16 > 10.0, "baroclinic at 16 cores = {clinic16:.1} (paper 16.11)");
        let tropic4_dmz = t.value("4 DMZ", "Barotropic").unwrap();
        assert!(tropic4_dmz > 3.0, "barotropic at 4 DMZ cores = {tropic4_dmz:.1}");
    }

    #[test]
    fn table13_localalloc_beats_membind_at_8() {
        let t = &table13(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let la = t.value("8 baroclinic", "One MPI + Local Alloc").unwrap();
        let mb = t.value("8 baroclinic", "One MPI + Membind").unwrap();
        assert!(mb > la, "membind {mb:.1} vs localalloc {la:.1}");
    }

    #[test]
    fn table14_has_dash_for_one_per_socket_at_16() {
        let t = &table14(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        assert_eq!(t.value("16 barotropic", "One MPI + Local Alloc"), None);
        assert!(t.value("16 barotropic", "Two MPI + Local Alloc").is_some());
    }
}
