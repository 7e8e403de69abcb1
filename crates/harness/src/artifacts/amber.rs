//! AMBER artifacts: Tables 7 (JAC FFT phase), 8 (PME/GB speedups) and 9
//! (JAC overall vs numactl options). Every run is a [`Workload::Amber`]
//! or [`Workload::AmberFftPart`] scenario through the [`Scheduler`].

use crate::context::{scheme_tables, speedup_table};
use crate::report::Table;
use corescope_apps::md::AmberBenchmark;
use corescope_machine::Result;
use corescope_sched::{Fidelity, Scheduler, System, Workload};

/// A benchmark at `fidelity`'s step count.
fn sized(mut b: AmberBenchmark, fidelity: Fidelity) -> AmberBenchmark {
    b.steps = fidelity.steps(b.steps);
    b
}

/// A benchmark's full run.
fn full_run(b: &AmberBenchmark) -> Workload {
    Workload::Amber { atoms: b.atoms, method: b.method, grid_points: b.grid_points, steps: b.steps }
}

/// Table 7: the FFT part of the JAC benchmark vs schemes on Longs + DMZ.
pub fn table7(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let b = sized(AmberBenchmark::jac(), fidelity);
    let (atoms, method, grid_points, steps) = (b.atoms, b.method, b.grid_points, b.steps);
    scheme_tables(
        sched,
        fidelity,
        [
            "Table 7: FFT part of the JAC benchmark, Longs (seconds)",
            "Table 7 (cont.): FFT part of the JAC benchmark, DMZ (seconds)",
        ],
        ("JAC FFT", Workload::AmberFftPart { atoms, method, grid_points, steps }),
    )
}

/// Table 8: AMBER multi-core speedups (no numactl) for all five
/// benchmarks on DMZ and Longs.
pub fn table8(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let workloads: Vec<Workload> =
        AmberBenchmark::all().into_iter().map(|b| full_run(&sized(b, fidelity))).collect();
    Ok(vec![speedup_table(
        sched,
        fidelity,
        "Table 8: AMBER multi-core speedup (no numactl)",
        &["Cores/system", "dhfr", "factor_ix", "gb_cox2", "gb_mb", "JAC"],
        &[("DMZ", System::Dmz, &[2, 4]), ("Longs", System::Longs, &[2, 4, 8, 16])],
        &workloads,
    )?])
}

/// Table 9: overall JAC runtime vs schemes on Longs + DMZ.
pub fn table9(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    scheme_tables(
        sched,
        fidelity,
        [
            "Table 9: Overall JAC performance, Longs (seconds)",
            "Table 9 (cont.): Overall JAC performance, DMZ (seconds)",
        ],
        ("JAC", full_run(&sized(AmberBenchmark::jac(), fidelity))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_gb_outscales_pme_at_16() {
        let t = &table8(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let gb = t.value("16 Longs", "gb_mb").unwrap();
        let pme = t.value("16 Longs", "JAC").unwrap();
        assert!(gb > pme, "GB {gb:.1} must outscale PME {pme:.1} at 16 cores");
        // Near-linear at low counts.
        let jac2 = t.value("2 DMZ", "JAC").unwrap();
        assert!(jac2 > 1.7 && jac2 < 2.1, "2-core JAC speedup {jac2:.2}");
    }

    #[test]
    fn table9_localalloc_is_never_worse_than_membind_at_scale() {
        let t = &table9(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let la = t.value("8 JAC", "Two MPI + Local Alloc").unwrap();
        let mb = t.value("8 JAC", "Two MPI + Membind").unwrap();
        assert!(mb >= la * 0.99, "membind {mb:.2} vs localalloc {la:.2}");
    }

    #[test]
    fn table7_fft_part_shrinks_with_ranks() {
        let tables = table7(Fidelity::Quick, &Scheduler::new(1)).unwrap();
        let longs = &tables[0];
        let t2 = longs.value("2 JAC FFT", "Default").unwrap();
        let t16 = longs.value("16 JAC FFT", "Default").unwrap();
        assert!(t16 < t2, "FFT part must shrink: {t2:.3} -> {t16:.3}");
    }
}
