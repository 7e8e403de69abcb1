//! Conjugate gradient: the NAS CG benchmark model (Tables 2–4).

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// NAS CG problem classes (na, nonzer, outer iterations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CgClass {
    /// Class S: 1 400 rows.
    S,
    /// Class A: 14 000 rows.
    A,
    /// Class B: 75 000 rows — the class the paper's tables use.
    B,
    /// Class C: 150 000 rows.
    C,
}

impl CgClass {
    /// `(na, nonzer, niter)` per the NPB 3.x specification.
    pub fn parameters(self) -> (usize, usize, usize) {
        match self {
            CgClass::S => (1_400, 7, 15),
            CgClass::A => (14_000, 11, 15),
            CgClass::B => (75_000, 13, 75),
            CgClass::C => (150_000, 15, 75),
        }
    }

    /// Approximate stored nonzeros (the NPB generator yields about
    /// `na * nonzer * (nonzer + 1)` after sparsification; the paper-era
    /// class B matrix has ~13 M entries).
    pub fn nnz(self) -> f64 {
        let (na, nonzer, _) = self.parameters();
        na as f64 * nonzer as f64 * (nonzer as f64 + 1.0) / 1.3
    }

    /// Total inner CG iterations (25 per outer step).
    pub fn inner_iterations(self) -> usize {
        let (_, _, niter) = self.parameters();
        niter * 25
    }
}

/// NAS CG workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct NasCg {
    /// Problem class.
    pub class: CgClass,
}

impl NasCg {
    /// Appends the full benchmark (all outer iterations) to a world.
    ///
    /// Per inner iteration each rank performs its share of the SpMV
    /// (streaming the matrix, gathering the vector), the vector updates,
    /// a row-group reduce-exchange of partial results, and two scalar
    /// allreduces — the NPB 2D decomposition reduced to its traffic
    /// pattern.
    pub fn append_run(&self, world: &mut CommWorld<'_>) {
        let p = world.size();
        let (na, _, _) = self.class.parameters();
        let nnz = self.class.nnz();
        let iters = self.class.inner_iterations();

        let rows_per_rank = na as f64 / (p as f64).sqrt();
        // Matrix stream: value + column index + row-pointer overhead.
        let matrix_bytes = nnz / p as f64 * (F64 + 4.0 + 2.0);
        // Vector gather: one 8-byte read per nonzero over the local
        // x segment.
        let gather_bytes = nnz / p as f64 * F64;
        let gather_ws = rows_per_rank * F64;
        // Vector updates: 3 AXPYs + 2 dots sweep ~5 vectors.
        let vector_bytes = 5.0 * na as f64 / p as f64 * F64;
        let flops = 2.0 * nnz / p as f64 + 10.0 * na as f64 / p as f64;

        let exchange_bytes = rows_per_rank * F64;
        let rounds = (p as f64).log2().ceil() as usize / 2;

        let spmv = ComputePhase::new(
            "cg-spmv",
            flops,
            TrafficProfile::stream_over(matrix_bytes + vector_bytes, matrix_bytes.max(1.0)),
        )
        .with_efficiency(0.2);
        let gather = ComputePhase::new(
            "cg-gather",
            0.0,
            TrafficProfile::random(gather_bytes, gather_ws.max(1.0)),
        );
        world.repeat(iters, |world| {
            world.compute_all(|_| Some(spmv.clone()));
            world.compute_all(|_| Some(gather.clone()));

            if p > 1 {
                // Reduce-exchange of SpMV partials within the row group.
                for round in 0..rounds.max(1) {
                    let stride = 1usize << round;
                    for r in 0..p {
                        let partner = r ^ stride;
                        if partner < p && r < partner {
                            world.sendrecv(r, partner, exchange_bytes);
                        }
                    }
                }
                // Two dot-product allreduces per iteration.
                world.allreduce(F64);
                world.allreduce(F64);
            }
        });
    }

    /// Appends the benchmark under the **hybrid** programming model the
    /// paper's Section 3.4 proposes: OpenMP-style threads within each
    /// multi-core socket, MPI only between sockets. The world still has
    /// one rank per core (the threads), but only every
    /// `threads_per_process`-th rank communicates, with process-sized
    /// messages; thread groups fork/join around each communication phase
    /// (an OpenMP barrier costs ~2 µs).
    ///
    /// # Panics
    ///
    /// Panics if the world size is not a multiple of
    /// `threads_per_process`.
    pub fn append_run_hybrid(&self, world: &mut CommWorld<'_>, threads_per_process: usize) {
        let p = world.size();
        assert!(threads_per_process >= 1 && p.is_multiple_of(threads_per_process));
        let masters: Vec<usize> = (0..p).step_by(threads_per_process).collect();
        let pm = masters.len();

        let (na, _, _) = self.class.parameters();
        let nnz = self.class.nnz();
        let iters = self.class.inner_iterations();

        // Threads split each process's share, so per-core work matches
        // the pure-MPI run with p ranks.
        let rows_per_proc = na as f64 / (pm as f64).sqrt();
        let matrix_bytes = nnz / p as f64 * (F64 + 4.0 + 2.0);
        let gather_bytes = nnz / p as f64 * F64;
        let gather_ws = rows_per_proc * F64;
        let vector_bytes = 5.0 * na as f64 / p as f64 * F64;
        let flops = 2.0 * nnz / p as f64 + 10.0 * na as f64 / p as f64;
        let exchange_bytes = rows_per_proc * F64;
        let rounds = ((pm as f64).log2().ceil() as usize / 2).max(1);
        const OMP_BARRIER: f64 = 2e-6;

        let spmv = ComputePhase::new(
            "cg-spmv",
            flops,
            TrafficProfile::stream_over(matrix_bytes + vector_bytes, matrix_bytes.max(1.0)),
        )
        .with_efficiency(0.2);
        let gather = ComputePhase::new(
            "cg-gather",
            0.0,
            TrafficProfile::random(gather_bytes, gather_ws.max(1.0)),
        );
        world.repeat(iters, |world| {
            world.compute_all(|_| Some(spmv.clone()));
            world.compute_all(|_| Some(gather.clone()));

            if pm > 1 {
                // Join: threads synchronize before the masters talk.
                world.barrier();
                for r in 0..p {
                    world.delay(r, OMP_BARRIER);
                }
                // Reduce-exchange among masters, process-sized messages.
                for round in 0..rounds {
                    let stride = 1usize << round;
                    for (idx, &r) in masters.iter().enumerate() {
                        let pidx = idx ^ stride;
                        if pidx < pm && idx < pidx {
                            world.sendrecv(r, masters[pidx], exchange_bytes);
                        }
                    }
                }
                // Two scalar allreduces via recursive doubling over the
                // masters only.
                world.sendrecv_among(&masters, F64);
                world.sendrecv_among(&masters, F64);
                // Fork: results broadcast to the threads through shared
                // memory (another barrier).
                world.barrier();
                for r in 0..p {
                    world.delay(r, OMP_BARRIER);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_b_parameters_match_npb() {
        assert_eq!(CgClass::B.parameters(), (75_000, 13, 75));
        assert_eq!(CgClass::B.inner_iterations(), 1875);
        assert!(CgClass::B.nnz() > 9e6 && CgClass::B.nnz() < 16e6);
    }

    mod sim {
        use super::super::*;
        use corescope_affinity::Scheme;
        use corescope_machine::{systems, Machine};
        use corescope_smpi::{LockLayer, MpiImpl};

        fn run_cg(machine: &Machine, nranks: usize, scheme: Scheme) -> f64 {
            // Class A for test speed; ratios carry over.
            let placements = scheme.resolve(machine, nranks).unwrap();
            let mut w =
                CommWorld::new(machine, placements, MpiImpl::Mpich2.profile(), LockLayer::USysV);
            NasCg { class: CgClass::A }.append_run(&mut w);
            w.run().unwrap().makespan
        }

        #[test]
        fn cg_scales_with_ranks_on_longs() {
            let m = Machine::new(systems::longs());
            let t2 = run_cg(&m, 2, Scheme::TwoMpiLocalAlloc);
            let t8 = run_cg(&m, 8, Scheme::TwoMpiLocalAlloc);
            assert!(t8 < t2, "more ranks must be faster: {t2:.2} vs {t8:.2}");
        }

        #[test]
        fn membind_is_worst_case_at_eight_ranks() {
            // Table 2's signature: One MPI + Membind ~2x Default at 8
            // tasks on Longs.
            let m = Machine::new(systems::longs());
            let best = run_cg(&m, 8, Scheme::OneMpiLocalAlloc);
            let membind = run_cg(&m, 8, Scheme::OneMpiMembind);
            let ratio = membind / best;
            assert!(ratio > 1.5, "membind must be much worse than localalloc: ratio {ratio:.2}");
        }
    }
}
