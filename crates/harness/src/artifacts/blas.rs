//! BLAS artifacts: Figures 4–7 (DAXPY and DGEMM, ACML vs vanilla, on the
//! DMZ system).

use crate::context::{default_stack, Systems};
use crate::fidelity::Fidelity;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_kernels::blas::{
    append_daxpy_star, append_dgemm_star, BlasVariant, DaxpyParams, DgemmParams,
};
use corescope_machine::{Machine, Result};
use corescope_smpi::CommWorld;

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Daxpy,
    Dgemm,
}

/// Aggregate GFlop/s for `nranks` concurrent kernel instances.
fn star_gflops(
    machine: &Machine,
    scheme: Scheme,
    nranks: usize,
    kernel: Kernel,
    n: usize,
    variant: BlasVariant,
    fidelity: Fidelity,
) -> Result<f64> {
    let (profile, lock) = default_stack();
    let placements = scheme.resolve(machine, nranks)?;
    let mut world = CommWorld::new(machine, placements, profile, lock);
    let flops_per_rank = match kernel {
        Kernel::Daxpy => {
            let params = DaxpyParams { n, reps: fidelity.steps(50).max(2), variant };
            append_daxpy_star(&mut world, &params);
            params.flops_per_rank()
        }
        Kernel::Dgemm => {
            let params = DgemmParams { n, reps: fidelity.steps(3).max(1), variant };
            append_dgemm_star(&mut world, &params);
            params.flops_per_rank()
        }
    };
    let report = world.run()?;
    Ok(nranks as f64 * flops_per_rank / report.makespan / 1e9)
}

fn totals_figure(
    title: &str,
    kernel: Kernel,
    variant: BlasVariant,
    sizes: &[usize],
    fidelity: Fidelity,
) -> Result<Table> {
    let systems = Systems::new();
    let machine = &systems.dmz;
    let mut table = Table::with_columns(
        title,
        &["n", "Total (1 core)", "Total (2 cores)", "Total (4 cores)", "Per core (4)"],
    );
    for &n in sizes {
        let g1 = star_gflops(machine, Scheme::TwoMpiLocalAlloc, 1, kernel, n, variant, fidelity)?;
        let g2 = star_gflops(machine, Scheme::TwoMpiLocalAlloc, 2, kernel, n, variant, fidelity)?;
        let g4 = star_gflops(machine, Scheme::TwoMpiLocalAlloc, 4, kernel, n, variant, fidelity)?;
        table.push_row(
            n.to_string(),
            vec![
                Cell::num_with(g1, 3),
                Cell::num_with(g2, 3),
                Cell::num_with(g4, 3),
                Cell::num_with(g4 / 4.0, 3),
            ],
        );
    }
    Ok(table)
}

fn per_core_figure(
    title: &str,
    kernel: Kernel,
    variant: BlasVariant,
    sizes: &[usize],
    fidelity: Fidelity,
) -> Result<Table> {
    let systems = Systems::new();
    let machine = &systems.dmz;
    let mut table = Table::with_columns(
        title,
        &["n", "1 task/socket (2 ranks)", "2 tasks/socket (2 ranks)", "2 tasks/socket (4 ranks)"],
    );
    for &n in sizes {
        let spread =
            star_gflops(machine, Scheme::OneMpiLocalAlloc, 2, kernel, n, variant, fidelity)?;
        let packed2 =
            star_gflops(machine, Scheme::TwoMpiLocalAlloc, 2, kernel, n, variant, fidelity)?;
        let packed4 =
            star_gflops(machine, Scheme::TwoMpiLocalAlloc, 4, kernel, n, variant, fidelity)?;
        table.push_row(
            n.to_string(),
            vec![
                Cell::num_with(spread / 2.0, 3),
                Cell::num_with(packed2 / 2.0, 3),
                Cell::num_with(packed4 / 4.0, 3),
            ],
        );
    }
    Ok(table)
}

const DAXPY_SIZES: [usize; 5] = [10_000, 50_000, 250_000, 1_000_000, 10_000_000];
const DGEMM_SIZES: [usize; 5] = [100, 250, 500, 1000, 2000];

/// Figure 4: ACML DAXPY, total and per-core GFlop/s on DMZ.
pub fn figure4(fidelity: Fidelity) -> Result<Vec<Table>> {
    Ok(vec![totals_figure(
        "Figure 4: BLAS 1 (DAXPY) performance, ACML, DMZ (GFlop/s)",
        Kernel::Daxpy,
        BlasVariant::Acml,
        &fidelity.thin(&DAXPY_SIZES),
        fidelity,
    )?])
}

/// Figure 5: vanilla DAXPY per core, one vs two tasks per socket.
pub fn figure5(fidelity: Fidelity) -> Result<Vec<Table>> {
    Ok(vec![per_core_figure(
        "Figure 5: BLAS 1 (DAXPY) per-core performance, vanilla, DMZ (GFlop/s)",
        Kernel::Daxpy,
        BlasVariant::Vanilla,
        &fidelity.thin(&DAXPY_SIZES),
        fidelity,
    )?])
}

/// Figure 6: ACML DGEMM, total and per-core GFlop/s on DMZ.
pub fn figure6(fidelity: Fidelity) -> Result<Vec<Table>> {
    Ok(vec![totals_figure(
        "Figure 6: BLAS 3 (DGEMM) performance, ACML, DMZ (GFlop/s)",
        Kernel::Dgemm,
        BlasVariant::Acml,
        &fidelity.thin(&DGEMM_SIZES),
        fidelity,
    )?])
}

/// Figure 7: vanilla DGEMM per core, one vs two tasks per socket.
pub fn figure7(fidelity: Fidelity) -> Result<Vec<Table>> {
    Ok(vec![per_core_figure(
        "Figure 7: BLAS 3 (DGEMM) per-core performance, vanilla, DMZ (GFlop/s)",
        Kernel::Dgemm,
        BlasVariant::Vanilla,
        &fidelity.thin(&DGEMM_SIZES),
        fidelity,
    )?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplaceable_rank_count_is_a_typed_error() {
        // DMZ has four cores: a fifth rank cannot be placed.
        let systems = Systems::new();
        let err = star_gflops(
            &systems.dmz,
            Scheme::TwoMpiLocalAlloc,
            5,
            Kernel::Daxpy,
            1000,
            BlasVariant::Acml,
            Fidelity::Quick,
        );
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn figure6_dgemm_scales_and_figure4_daxpy_does_not() {
        let dgemm = &figure6(Fidelity::Quick).unwrap()[0];
        let g1 = dgemm.value("500", "Total (1 core)").unwrap();
        let g4 = dgemm.value("500", "Total (4 cores)").unwrap();
        assert!(g4 > 3.5 * g1, "cache-friendly DGEMM scales: {g4} vs {g1}");

        let daxpy = &figure4(Fidelity::Quick).unwrap()[0];
        let d1 = daxpy.value("10000000", "Total (1 core)").unwrap();
        let d4 = daxpy.value("10000000", "Total (4 cores)").unwrap();
        assert!(d4 < 2.5 * d1, "bandwidth-bound DAXPY must not scale with cores: {d4} vs {d1}");
    }

    #[test]
    fn figure5_packing_hurts_large_daxpy() {
        let t = &figure5(Fidelity::Quick).unwrap()[0];
        let spread = t.value("10000000", "1 task/socket (2 ranks)").unwrap();
        let packed = t.value("10000000", "2 tasks/socket (2 ranks)").unwrap();
        assert!(packed < spread, "packed {packed} vs spread {spread}");
    }

    #[test]
    fn figure7_vanilla_dgemm_is_slow_but_insensitive_to_packing() {
        let t = &figure7(Fidelity::Quick).unwrap()[0];
        let spread = t.value("500", "1 task/socket (2 ranks)").unwrap();
        let packed = t.value("500", "2 tasks/socket (2 ranks)").unwrap();
        assert!(spread < 1.0, "vanilla DGEMM is far from peak: {spread}");
        assert!(
            (spread - packed).abs() / spread < 0.1,
            "cache-resident DGEMM should not care about packing"
        );
    }

    #[test]
    fn small_daxpy_is_cache_resident_and_faster() {
        let t = &figure4(Fidelity::Quick).unwrap()[0];
        let small = t.value("10000", "Total (1 core)").unwrap();
        let large = t.value("10000000", "Total (1 core)").unwrap();
        assert!(small > large, "L2-resident vectors must be faster: {small} vs {large}");
    }
}
