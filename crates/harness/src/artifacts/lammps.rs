//! LAMMPS artifacts: Tables 10 (multi-core speedup) and 11 (LJ vs
//! numactl options).

use crate::aggregate::pivot_table;
use crate::context::{default_stack, scheme_sweep, Systems};
use crate::fidelity::Fidelity;
use crate::report::Table;
use corescope_affinity::Scheme;
use corescope_apps::md::LammpsBenchmark;
use corescope_machine::{Machine, Result};
use corescope_smpi::CommWorld;

fn time(machine: &Machine, bench: LammpsBenchmark, n: usize) -> Result<f64> {
    let (profile, lock) = default_stack();
    let placements = Scheme::Default.resolve(machine, n)?;
    let mut w = CommWorld::new(machine, placements, profile, lock);
    bench.append_run(&mut w);
    Ok(w.run()?.makespan)
}

/// Table 10: LJ/Chain/EAM speedups (no numactl) across the three systems.
pub fn table10(_fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let mut rows = Vec::new();
    for (sys_name, machine, counts) in [
        ("DMZ", &systems.dmz, vec![2usize, 4]),
        ("Longs", &systems.longs, vec![2, 4, 8, 16]),
        ("Tiger", &systems.tiger, vec![2]),
    ] {
        let t1: Vec<f64> =
            LammpsBenchmark::all().iter().map(|&b| time(machine, b, 1)).collect::<Result<_>>()?;
        for &n in &counts {
            let mut values = Vec::new();
            for (i, &b) in LammpsBenchmark::all().iter().enumerate() {
                values.push(Some(t1[i] / time(machine, b, n)?));
            }
            rows.push((format!("{n} {sys_name}"), values));
        }
    }
    Ok(vec![pivot_table(
        "Table 10: LAMMPS multi-core speedup (no numactl)",
        &["Cores/system", "LJ", "Chain", "EAM"],
        &rows,
    )])
}

/// Table 11: the LJ benchmark vs the six schemes on Longs + DMZ.
pub fn table11(_fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let (profile, lock) = default_stack();
    let build = |w: &mut CommWorld<'_>, _n: usize| LammpsBenchmark::Lj.append_run(w);
    let workloads: Vec<(&str, &crate::context::WorkloadFn<'_>)> = vec![("LJ", &build)];
    let longs = scheme_sweep(
        "Table 11: numactl options vs LAMMPS LJ, Longs (seconds)",
        &systems.longs,
        &[2, 4, 8, 16],
        &workloads,
        &profile,
        lock,
    )?;
    let dmz = scheme_sweep(
        "Table 11 (cont.): numactl options vs LAMMPS LJ, DMZ (seconds)",
        &systems.dmz,
        &[2, 4],
        &workloads,
        &profile,
        lock,
    )?;
    Ok(vec![longs, dmz])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplaceable_rank_count_is_a_typed_error() {
        let systems = Systems::new();
        assert!(time(&systems.dmz, LammpsBenchmark::all()[0], 5).is_err());
    }

    #[test]
    fn table10_chain_is_superlinear_lj_is_not() {
        let t = &table10(Fidelity::Quick).unwrap()[0];
        let chain16 = t.value("16 Longs", "Chain").unwrap();
        let lj16 = t.value("16 Longs", "LJ").unwrap();
        assert!(chain16 > 16.0, "chain speedup {chain16:.1} should be superlinear");
        assert!(lj16 < 16.0, "LJ speedup {lj16:.1} stays sublinear");
        // Tiger row exists with 2 cores only.
        assert!(t.value("2 Tiger", "LJ").unwrap() > 1.5);
    }

    #[test]
    fn table11_longs_times_are_paper_scale() {
        let t = &table11(Fidelity::Quick).unwrap()[0];
        // Paper: 3.82 s at 2 tasks (default), 0.63 s at 16 (Two MPI + LA).
        let t2 = t.value("2 LJ", "Default").unwrap();
        let t16 = t.value("16 LJ", "Two MPI + Local Alloc").unwrap();
        assert!(t2 > 1.5 && t2 < 8.0, "2-task LJ = {t2:.2}");
        assert!(t16 < t2 / 4.0, "16-task LJ = {t16:.2}");
    }
}
