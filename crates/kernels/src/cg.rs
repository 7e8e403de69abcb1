//! Conjugate gradient: a real CSR sparse CG solver (tested on random SPD
//! systems) and the NAS CG benchmark model (Tables 2–4).

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(col, value)` lists.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    pub fn from_rows(n: usize, rows: Vec<Vec<(usize, f64)>>) -> Self {
        assert_eq!(rows.len(), n);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for row in rows {
            for (c, v) in row {
                assert!(c < n, "column {c} out of range");
                cols.push(c);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        Self { n, row_ptr, cols, vals }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have the wrong length.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[idx] * x[self.cols[idx]];
            }
            *yi = acc;
        }
    }

    /// A random symmetric diagonally-dominant (hence SPD) matrix with
    /// about `nnz_per_row` off-diagonal entries per row.
    pub fn random_spd(n: usize, nnz_per_row: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Collect symmetric off-diagonal entries.
        let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for _ in 0..nnz_per_row / 2 {
                let j = rng.gen_range(0..n);
                if j == i {
                    continue;
                }
                let v = rng.gen_range(-1.0..1.0);
                entries[i].push((j, v));
                entries[j].push((i, v));
            }
        }
        // Diagonal dominance.
        let mut rows = Vec::with_capacity(n);
        for (i, mut row) in entries.into_iter().enumerate() {
            row.sort_by_key(|&(c, _)| c);
            // Merge duplicate columns.
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len() + 1);
            for (c, v) in row {
                match merged.last_mut() {
                    Some((lc, lv)) if *lc == c => *lv += v,
                    _ => merged.push((c, v)),
                }
            }
            let dom: f64 = merged.iter().map(|&(_, v)| v.abs()).sum::<f64>() + 1.0;
            let pos = merged.partition_point(|&(c, _)| c < i);
            merged.insert(pos, (i, dom));
            rows.push(merged);
        }
        Self::from_rows(n, rows)
    }
}

/// Result of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The computed solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A x = b` for SPD `A` with unpreconditioned conjugate
/// gradients.
///
/// # Panics
///
/// Panics if `b.len()` does not match the matrix order.
pub fn cg_solve(a: &CsrMatrix, b: &[f64], tol: f64, max_iter: usize) -> CgSolution {
    let n = a.order();
    assert_eq!(b.len(), n);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rs = dot(&r, &r);
    let mut iterations = 0;
    for _ in 0..max_iter {
        if rs.sqrt() <= tol {
            break;
        }
        a.spmv(&p, &mut ap);
        let alpha = rs / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = dot(&r, &r);
        let beta = rs_new / rs;
        rs = rs_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        iterations += 1;
    }
    CgSolution { x, iterations, residual: rs.sqrt() }
}

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
    fn spmv_identity() {
        let n = 5;
        let rows = (0..n).map(|i| vec![(i, 1.0)]).collect();
        let a = CsrMatrix::from_rows(n, rows);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y = vec![0.0; n];
        a.spmv(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn cg_solves_small_spd_system() {
        let a = CsrMatrix::random_spd(200, 6, 42);
        let mut rng = SmallRng::seed_from_u64(7);
        let x_true: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut b = vec![0.0; 200];
        a.spmv(&x_true, &mut b);
        let sol = cg_solve(&a, &b, 1e-10, 1000);
        assert!(sol.residual < 1e-9, "residual {}", sol.residual);
        for (xi, ti) in sol.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6, "{xi} vs {ti}");
        }
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations_for_diag() {
        let n = 50;
        let rows = (0..n).map(|i| vec![(i, 2.0 + i as f64)]).collect();
        let a = CsrMatrix::from_rows(n, rows);
        let b = vec![1.0; n];
        let sol = cg_solve(&a, &b, 1e-12, n + 5);
        assert!(sol.residual < 1e-11);
        assert!(sol.iterations <= n);
    }

    #[test]
    fn random_spd_is_symmetric() {
        let a = CsrMatrix::random_spd(64, 4, 1);
        // Check A == A^T by comparing spmv against spmv with basis
        // vectors (dense reconstruction is fine at this size).
        let n = a.order();
        let mut dense = vec![0.0; n * n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut col = vec![0.0; n];
            a.spmv(&e, &mut col);
            for i in 0..n {
                dense[i * n + j] = col[i];
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert!((dense[i * n + j] - dense[j * n + i]).abs() < 1e-12);
            }
        }
    }

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
