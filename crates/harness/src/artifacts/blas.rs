//! BLAS artifacts: Figures 4–7 (DAXPY and DGEMM, ACML vs vanilla, on the
//! DMZ system). Every run is a [`cells::blas_star`] cell, and each figure
//! is one batch through the [`Scheduler`].

use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_calib::cells::{self, observe, BlasKernel};
use corescope_kernels::blas::BlasVariant;
use corescope_machine::Result;
use corescope_sched::{Fidelity, Scheduler};

/// The two figure layouts: aggregate GFlop/s on 1, 2 and 4 packed cores
/// (Figures 4 and 6), or per-core GFlop/s with one vs two tasks per
/// socket (Figures 5 and 7).
#[derive(Debug, Clone, Copy)]
enum Shape {
    Totals,
    PerCore,
}

/// One DMZ figure: a row per size, a Star run per `(scheme, nranks)` of
/// the shape's layout, all in one batch.
fn figure(
    sched: &Scheduler,
    title: &str,
    shape: Shape,
    (kernel, variant): (BlasKernel, BlasVariant),
    sizes: &[usize],
    fidelity: Fidelity,
) -> Result<Table> {
    let packed = Scheme::TwoMpiLocalAlloc;
    let (columns, layout) = match shape {
        Shape::Totals => (
            ["n", "Total (1 core)", "Total (2 cores)", "Total (4 cores)", "Per core (4)"]
                .as_slice(),
            [(packed, 1), (packed, 2), (packed, 4)],
        ),
        Shape::PerCore => (
            [
                "n",
                "1 task/socket (2 ranks)",
                "2 tasks/socket (2 ranks)",
                "2 tasks/socket (4 ranks)",
            ]
            .as_slice(),
            [(Scheme::OneMpiLocalAlloc, 2), (packed, 2), (packed, 4)],
        ),
    };
    let batch = sizes
        .iter()
        .flat_map(|&n| {
            layout.map(|(scheme, nranks)| {
                cells::blas_star(kernel, variant, n, nranks, scheme, fidelity)
            })
        })
        .collect();
    let flops = observe(sched, &batch)?;
    let mut table = Table::with_columns(title, columns);
    for (n, rates) in sizes.iter().zip(flops.chunks(layout.len())) {
        let g: [f64; 3] = std::array::from_fn(|i| rates[i] / 1e9);
        let values = match shape {
            Shape::Totals => vec![g[0], g[1], g[2], g[2] / 4.0],
            Shape::PerCore => vec![g[0] / 2.0, g[1] / 2.0, g[2] / 4.0],
        };
        table
            .push_row(n.to_string(), values.into_iter().map(|v| Cell::num_with(v, 3)).collect())?;
    }
    Ok(table)
}

const DAXPY_SIZES: [usize; 5] = [10_000, 50_000, 250_000, 1_000_000, 10_000_000];
const DGEMM_SIZES: [usize; 5] = [100, 250, 500, 1000, 2000];

/// Figure 4: ACML DAXPY, total and per-core GFlop/s on DMZ.
pub fn figure4(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let title = "Figure 4: BLAS 1 (DAXPY) performance, ACML, DMZ (GFlop/s)";
    let kernel = (BlasKernel::Daxpy, BlasVariant::Acml);
    Ok(vec![figure(sched, title, Shape::Totals, kernel, &fidelity.thin(&DAXPY_SIZES), fidelity)?])
}

/// Figure 5: vanilla DAXPY per core, one vs two tasks per socket.
pub fn figure5(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let title = "Figure 5: BLAS 1 (DAXPY) per-core performance, vanilla, DMZ (GFlop/s)";
    let kernel = (BlasKernel::Daxpy, BlasVariant::Vanilla);
    Ok(vec![figure(sched, title, Shape::PerCore, kernel, &fidelity.thin(&DAXPY_SIZES), fidelity)?])
}

/// Figure 6: ACML DGEMM, total and per-core GFlop/s on DMZ.
pub fn figure6(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let title = "Figure 6: BLAS 3 (DGEMM) performance, ACML, DMZ (GFlop/s)";
    let kernel = (BlasKernel::Dgemm, BlasVariant::Acml);
    Ok(vec![figure(sched, title, Shape::Totals, kernel, &fidelity.thin(&DGEMM_SIZES), fidelity)?])
}

/// Figure 7: vanilla DGEMM per core, one vs two tasks per socket.
pub fn figure7(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let title = "Figure 7: BLAS 3 (DGEMM) per-core performance, vanilla, DMZ (GFlop/s)";
    let kernel = (BlasKernel::Dgemm, BlasVariant::Vanilla);
    Ok(vec![figure(sched, title, Shape::PerCore, kernel, &fidelity.thin(&DGEMM_SIZES), fidelity)?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_dgemm_scales_and_figure4_daxpy_does_not() {
        let dgemm = &figure6(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let g1 = dgemm.value("500", "Total (1 core)").unwrap();
        let g4 = dgemm.value("500", "Total (4 cores)").unwrap();
        assert!(g4 > 3.5 * g1, "cache-friendly DGEMM scales: {g4} vs {g1}");

        let daxpy = &figure4(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let d1 = daxpy.value("10000000", "Total (1 core)").unwrap();
        let d4 = daxpy.value("10000000", "Total (4 cores)").unwrap();
        assert!(d4 < 2.5 * d1, "bandwidth-bound DAXPY must not scale with cores: {d4} vs {d1}");
    }

    #[test]
    fn figure5_packing_hurts_large_daxpy() {
        let t = &figure5(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let spread = t.value("10000000", "1 task/socket (2 ranks)").unwrap();
        let packed = t.value("10000000", "2 tasks/socket (2 ranks)").unwrap();
        assert!(packed < spread, "packed {packed} vs spread {spread}");
    }

    #[test]
    fn figure7_vanilla_dgemm_is_slow_but_insensitive_to_packing() {
        let t = &figure7(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
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
        let t = &figure4(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let small = t.value("10000", "Total (1 core)").unwrap();
        let large = t.value("10000000", "Total (1 core)").unwrap();
        assert!(small > large, "L2-resident vectors must be faster: {small} vs {large}");
    }
}
