//! The paper's cells, each defined once.
//!
//! A cell is one engine scenario plus the reduction that turns its
//! makespan into the number a table prints or a target grades: an
//! [`Observable`]. The artifacts in `corescope-harness` and the probes of
//! [`crate::targets`] build every cell they share through the
//! constructors here, so a probe grades the very scenario (same digest)
//! its table cell runs, and each sweep rule (STREAM sweeps, BLAS and IMB
//! repetitions) is written once.
//!
//! [`observe`] runs a [`Batch`] of cells through one
//! [`Scheduler::run_batch`] and reduces each outcome in place; the batch
//! keeps its scenarios in one slice, so running it clones none.

use crate::Result;
use corescope_affinity::Scheme;
use corescope_kernels::blas::{BlasVariant, DaxpyParams, DgemmParams};
use corescope_kernels::stream::StreamParams;
use corescope_machine::CalibParams;
use corescope_sched::{Fidelity, Placement, Scenario, Scheduler, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl};

/// How a cell's makespan becomes its scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduction {
    /// The raw makespan, seconds.
    Makespan,
    /// `work / makespan`: bytes/s, flop/s or lookups/s for the bytes
    /// moved, flops done or lookups made across all ranks.
    Rate {
        /// Work done across all ranks.
        work: f64,
    },
    /// `makespan / (2 * reps)`, seconds: the IMB PingPong time per half
    /// round trip.
    HalfRoundTrip {
        /// Round trips.
        reps: usize,
    },
}

impl Reduction {
    /// Applies the reduction to a makespan.
    pub fn apply(self, makespan: f64) -> f64 {
        match self {
            Reduction::Makespan => makespan,
            Reduction::Rate { work } => work / makespan,
            Reduction::HalfRoundTrip { reps } => makespan / (2.0 * reps as f64),
        }
    }
}

/// One cell: a fully resolved scenario (it carries its own
/// [`CalibParams`]) and the reduction of its makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct Observable {
    /// The scenario.
    pub scenario: Scenario,
    /// The makespan-to-scalar reduction.
    pub reduce: Reduction,
}

impl Observable {
    /// The cell at another calibration point.
    #[must_use]
    pub fn at(mut self, params: CalibParams) -> Observable {
        self.scenario = self.scenario.with_params(params);
        self
    }
}

/// Cells gathered for one scheduler batch: the scenarios in one slice,
/// as [`Scheduler::run_batch`] takes them, with each one's reduction
/// beside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    scenarios: Vec<Scenario>,
    reductions: Vec<Reduction>,
}

impl Batch {
    /// Appends a cell and returns its index in the batch.
    pub fn push(&mut self, cell: Observable) -> usize {
        self.scenarios.push(cell.scenario);
        self.reductions.push(cell.reduce);
        self.scenarios.len() - 1
    }

    /// Cells in the batch.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the batch holds no cell.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl Extend<Observable> for Batch {
    fn extend<I: IntoIterator<Item = Observable>>(&mut self, cells: I) {
        for cell in cells {
            self.push(cell);
        }
    }
}

impl FromIterator<Observable> for Batch {
    fn from_iter<I: IntoIterator<Item = Observable>>(cells: I) -> Self {
        let mut batch = Batch::default();
        batch.extend(cells);
        batch
    }
}

/// Runs every cell of `batch` as one scheduler batch and returns each
/// cell's scalar, in push order.
///
/// # Errors
///
/// The first placement or engine error, in push order.
pub fn observe(sched: &Scheduler, batch: &Batch) -> Result<Vec<f64>> {
    let completed = sched.run_batch(&batch.scenarios);
    batch.reductions.iter().zip(completed).map(|(r, c)| Ok(r.apply(c?.result.makespan))).collect()
}

/// The STREAM parameters at `fidelity`: the default triad,
/// `fidelity.steps(10).max(2)` sweeps.
pub fn stream_params(fidelity: Fidelity) -> StreamParams {
    StreamParams { sweeps: fidelity.steps(10).max(2), ..StreamParams::default() }
}

/// The STREAM Star workload at `fidelity`: every rank runs the triad.
pub fn stream_workload(fidelity: Fidelity) -> Workload {
    let StreamParams { kernel, elements_per_rank, sweeps } = stream_params(fidelity);
    Workload::StreamStar { kernel, elements_per_rank, sweeps }
}

/// STREAM Star on `nranks` ranks of `system` under `placement`, on the
/// LAM stack of the HPCC figures: Figures 2/3 (scatter-local activation
/// order), Figure 10 and Extra X11. Reduces to the aggregate bandwidth,
/// bytes/s.
pub fn stream_star(
    system: System,
    nranks: usize,
    placement: Placement,
    fidelity: Fidelity,
) -> Observable {
    Observable {
        scenario: Scenario::new(system, nranks, stream_workload(fidelity))
            .with_fidelity(fidelity)
            .with_placement(placement)
            .with_mpi(MpiImpl::Lam),
        reduce: Reduction::Rate { work: nranks as f64 * stream_params(fidelity).bytes_per_rank() },
    }
}

/// An application cell: `workload` on `nranks` ranks of `system` under
/// `scheme`, on the paper's MPICH2 + spin-lock stack. Every NAS, AMBER,
/// LAMMPS and POP table cell is one. Reduces to the makespan, seconds.
pub fn app(
    system: System,
    nranks: usize,
    scheme: Scheme,
    workload: Workload,
    fidelity: Fidelity,
) -> Observable {
    Observable {
        scenario: Scenario::new(system, nranks, workload)
            .with_fidelity(fidelity)
            .with_placement(Placement::Scheme(scheme))
            .with_mpi(MpiImpl::Mpich2)
            .with_lock(LockLayer::USysV),
        reduce: Reduction::Makespan,
    }
}

/// The two BLAS kernels of Figures 4–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlasKernel {
    /// BLAS 1 DAXPY, `fidelity.steps(50).max(2)` repetitions.
    Daxpy,
    /// BLAS 3 DGEMM, `fidelity.steps(3).max(1)` repetitions.
    Dgemm,
}

/// BLAS Star on DMZ (Figures 4–7): every one of `nranks` ranks under
/// `scheme` runs `kernel` of `variant` at size `n`, as an [`app`] cell.
/// Reduces to the aggregate flop/s.
pub fn blas_star(
    kernel: BlasKernel,
    variant: BlasVariant,
    n: usize,
    nranks: usize,
    scheme: Scheme,
    fidelity: Fidelity,
) -> Observable {
    let (workload, flops_per_rank) = match kernel {
        BlasKernel::Daxpy => {
            let p = DaxpyParams { n, reps: fidelity.steps(50).max(2), variant };
            (Workload::DaxpyStar { n, reps: p.reps, variant }, p.flops_per_rank())
        }
        BlasKernel::Dgemm => {
            let p = DgemmParams { n, reps: fidelity.steps(3).max(1), variant };
            (Workload::DgemmStar { n, reps: p.reps, variant }, p.flops_per_rank())
        }
    };
    Observable {
        reduce: Reduction::Rate { work: nranks as f64 * flops_per_rank },
        ..app(System::Dmz, nranks, scheme, workload, fidelity)
    }
}

/// IMB PingPong of `bytes` between ranks 0 and 1 of `nranks` ranks of
/// `system` under `scheme`, on `mpi` over `lock`, with
/// [`Fidelity::imb_reps`] round trips (Figures 14 and 16). Reduces to the
/// time per half round trip, seconds.
pub fn pingpong(
    system: System,
    nranks: usize,
    scheme: Scheme,
    mpi: MpiImpl,
    lock: LockLayer,
    bytes: f64,
    fidelity: Fidelity,
) -> Observable {
    let reps = fidelity.imb_reps(bytes);
    Observable {
        scenario: Scenario::new(system, nranks, Workload::PingPong { bytes, reps })
            .with_fidelity(fidelity)
            .with_placement(Placement::Scheme(scheme))
            .with_mpi(mpi)
            .with_lock(lock),
        reduce: Reduction::HalfRoundTrip { reps },
    }
}

/// Unionized grid points of the single-rank lookup cell's table: ~1.35 GiB
/// at 64 nuclides, far out of cache, yet within one node's usable share on
/// both DMZ and Longs, so the rank's table stays fully local.
pub const XS_GRID: u64 = 1 << 19;
/// Nuclides of the single-rank lookup cell's material.
pub const XS_NUCLIDES: u64 = 64;
/// Lookups the single-rank lookup cell performs. The modeled rate does
/// not depend on this count (one fluid phase either way), so it needs no
/// fidelity scaling.
pub const XS_LOOKUPS: u64 = 1 << 20;

/// XSBench-style lookups on one rank of `system` with a local
/// (first-touch) table, on the LAM stack. Reduces to lookups/s.
pub fn xs_lookup(system: System, fidelity: Fidelity) -> Observable {
    let workload = Workload::XsLookupSingle {
        grid_points: XS_GRID,
        nuclides: XS_NUCLIDES,
        lookups_per_rank: XS_LOOKUPS,
    };
    Observable {
        scenario: Scenario::new(system, 1, workload)
            .with_fidelity(fidelity)
            .with_placement(Placement::Scheme(Scheme::TwoMpiLocalAlloc))
            .with_mpi(MpiImpl::Lam),
        reduce: Reduction::Rate { work: XS_LOOKUPS as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_is_order_preserving() {
        let s = Scheduler::new(2);
        let cell = |sweeps| Observable {
            scenario: Scenario::new(
                System::Dmz,
                1,
                Workload::StreamStar {
                    kernel: corescope_kernels::stream::StreamKernel::Triad,
                    elements_per_rank: 400_000,
                    sweeps,
                },
            )
            .with_fidelity(Fidelity::Quick),
            reduce: Reduction::Makespan,
        };
        let out = observe(&s, &[cell(2), cell(4)].into_iter().collect()).unwrap();
        assert!(out[1] > out[0], "twice the sweeps, twice the time: {out:?}");
    }

    #[test]
    fn a_batch_reports_errors_in_place() {
        let s = Scheduler::new(1);
        let fits = xs_lookup(System::Dmz, Fidelity::Quick);
        let too_big = stream_star(System::Tiger, 64, Placement::ScatterLocal, Fidelity::Quick);
        let batch: Batch = [fits, too_big].into_iter().collect();
        assert_eq!(batch.len(), 2);
        assert!(observe(&s, &batch).is_err());
    }
}
