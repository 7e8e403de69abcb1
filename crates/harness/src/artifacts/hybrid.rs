//! Extra artifact X1: the hybrid programming model the paper proposes.
//!
//! Section 3.4 concludes: "A programming model using OpenMP only within
//! each multi-core processor, and MPI for communication both between
//! processor sockets and between system nodes might be a high-performance
//! alternative". The paper never measures it — this artifact does, on the
//! simulated Longs system, for NAS CG and FT at 16 cores. The four runs
//! are [`Workload::NasCg`]/[`Workload::NasFt`] and their hybrid variants,
//! in one batch through the [`Scheduler`].

use super::nas::classes;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_calib::cells::{self, observe};
use corescope_machine::Result;
use corescope_sched::{Fidelity, Scheduler, System, Workload};

/// Compares pure MPI (16 ranks) against hybrid (8 processes × 2 threads)
/// for NAS CG and FT on Longs.
///
/// # Errors
///
/// Propagates engine errors.
pub fn extra1(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let (cg, ft) = classes(fidelity);
    let kernels = [
        ("CG", Workload::NasCg { class: cg }, Workload::NasCgHybrid { class: cg, threads: 2 }),
        ("FT", Workload::NasFt { class: ft }, Workload::NasFtHybrid { class: ft, threads: 2 }),
    ];
    let batch = kernels
        .iter()
        .flat_map(|(_, pure, hybrid)| [pure, hybrid])
        .map(|w| cells::app(System::Longs, 16, Scheme::TwoMpiLocalAlloc, w.clone(), fidelity))
        .collect();
    let times = observe(sched, &batch)?;

    let mut table = Table::with_columns(
        "Extra X1: hybrid (OpenMP-in-socket + MPI) vs pure MPI, Longs 16 cores (seconds)",
        &["Kernel", "Pure MPI", "Hybrid 8x2", "Hybrid speedup"],
    );
    for ((kernel, ..), t) in kernels.iter().zip(times.chunks(2)) {
        let (pure, hybrid) = (t[0], t[1]);
        table.push_row(
            *kernel,
            vec![Cell::num(pure), Cell::num(hybrid), Cell::num(pure / hybrid)],
        )?;
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_helps_latency_bound_cg() {
        // Fewer, larger messages among half the endpoints: the paper's
        // hypothesis should hold for the reduction-heavy CG.
        let t = &extra1(Fidelity::Quick, &Scheduler::new(1)).unwrap()[0];
        let gain = t.value("CG", "Hybrid speedup").unwrap();
        assert!(gain > 0.97, "hybrid must at least break even for CG, got {gain:.3}");
        // And never catastrophically hurt FT (same total transpose bytes).
        let ft = t.value("FT", "Hybrid speedup").unwrap();
        assert!(ft > 0.8, "hybrid FT ratio {ft:.3}");
    }
}
