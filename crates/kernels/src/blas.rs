//! BLAS level 1 and 3 kernels (Section 3.2): DAXPY and DGEMM, in vendor
//! ("ACML") and compiled-Fortran ("vanilla") variants.
//!
//! The workload models carry the efficiency split the paper measures:
//! the vendor library sustains a large fraction of peak on
//! cache-resident DGEMM, the compiler-generated code much less.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// Which BLAS implementation a model run represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlasVariant {
    /// AMD Core Math Library: hand-tuned kernels.
    Acml,
    /// "Vanilla" compiled Fortran/C.
    Vanilla,
}

impl BlasVariant {
    /// Fraction of core peak flop/s sustained by DGEMM under this
    /// variant (cache-resident inner kernels).
    pub fn dgemm_efficiency(self) -> f64 {
        match self {
            BlasVariant::Acml => 0.88,
            BlasVariant::Vanilla => 0.13,
        }
    }

    /// DGEMM cache-blocking reuse factor: how many times each loaded
    /// element is used from cache. ACML blocks for L1+L2; the naive
    /// triple loop only reuses within a row/column walk.
    pub fn dgemm_reuse(self) -> f64 {
        match self {
            BlasVariant::Acml => 128.0,
            BlasVariant::Vanilla => 8.0,
        }
    }

    /// DAXPY is bandwidth-bound for out-of-cache vectors under either
    /// variant, but the scalar loop issues fewer concurrent streams.
    pub fn daxpy_efficiency(self) -> f64 {
        match self {
            BlasVariant::Acml => 0.5,
            BlasVariant::Vanilla => 0.25,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BlasVariant::Acml => "ACML",
            BlasVariant::Vanilla => "vanilla",
        }
    }
}

/// DAXPY model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DaxpyParams {
    /// Vector length per rank.
    pub n: usize,
    /// Repetitions (DAXPY is short; benchmarks loop it).
    pub reps: usize,
    /// Implementation variant.
    pub variant: BlasVariant,
}

impl Default for DaxpyParams {
    fn default() -> Self {
        Self { n: 1_000_000, reps: 50, variant: BlasVariant::Acml }
    }
}

impl DaxpyParams {
    /// One DAXPY sweep as a compute phase.
    pub fn phase(&self) -> ComputePhase {
        let n = self.n as f64;
        // Read x and y, write y: 24 B per element; 2 flops.
        ComputePhase::new(
            "daxpy",
            2.0 * n,
            TrafficProfile::stream_over(3.0 * n * F64, 2.0 * n * F64),
        )
        .with_efficiency(self.variant.daxpy_efficiency())
    }

    /// Total flops per rank over the run.
    pub fn flops_per_rank(&self) -> f64 {
        2.0 * self.n as f64 * self.reps as f64
    }
}

/// DGEMM model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DgemmParams {
    /// Matrix order per rank.
    pub n: usize,
    /// Repetitions.
    pub reps: usize,
    /// Implementation variant.
    pub variant: BlasVariant,
}

impl Default for DgemmParams {
    fn default() -> Self {
        Self { n: 1000, reps: 3, variant: BlasVariant::Acml }
    }
}

impl DgemmParams {
    /// One DGEMM as a compute phase.
    pub fn phase(&self) -> ComputePhase {
        let n = self.n as f64;
        // Inner loops touch 2n^3 elements of a/b plus n^2 of c.
        let touched = (2.0 * n * n * n + n * n) * F64;
        let working_set = 3.0 * n * n * F64;
        ComputePhase::new(
            "dgemm",
            2.0 * n * n * n,
            TrafficProfile::blocked(touched, working_set, self.variant.dgemm_reuse()),
        )
        .with_efficiency(self.variant.dgemm_efficiency())
    }

    /// Total flops per rank over the run.
    pub fn flops_per_rank(&self) -> f64 {
        2.0 * (self.n as f64).powi(3) * self.reps as f64
    }
}

/// Appends a star-mode DAXPY run (all ranks loop concurrently).
pub fn append_daxpy_star(world: &mut CommWorld<'_>, params: &DaxpyParams) {
    for _ in 0..params.reps {
        let phase = params.phase();
        world.compute_all(|_| Some(phase.clone()));
    }
}

/// Appends a star-mode DGEMM run.
pub fn append_dgemm_star(world: &mut CommWorld<'_>, params: &DgemmParams) {
    for _ in 0..params.reps {
        let phase = params.phase();
        world.compute_all(|_| Some(phase.clone()));
    }
}

/// Appends a single-rank DGEMM run (HPCC "Single" mode).
pub fn append_dgemm_single(world: &mut CommWorld<'_>, params: &DgemmParams) {
    for _ in 0..params.reps {
        world.compute(0, params.phase());
    }
}

/// Appends a single-rank DAXPY run.
pub fn append_daxpy_single(world: &mut CommWorld<'_>, params: &DaxpyParams) {
    for _ in 0..params.reps {
        world.compute(0, params.phase());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::Scheme;
    use corescope_machine::{systems, Machine};
    use corescope_smpi::{LockLayer, MpiImpl};

    fn dgemm_gflops(machine: &Machine, nranks: usize, variant: BlasVariant) -> f64 {
        let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, nranks).unwrap();
        let mut world =
            CommWorld::new(machine, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
        let params = DgemmParams { n: 1000, reps: 1, variant };
        append_dgemm_star(&mut world, &params);
        let report = world.run().unwrap();
        nranks as f64 * params.flops_per_rank() / report.makespan / 1e9
    }

    #[test]
    fn figure6_acml_dgemm_scales_with_cores() {
        // "the Star DGEMM and Single DGEMM results are almost identical"
        // — the second core nearly doubles per-socket DGEMM throughput.
        let m = Machine::new(systems::dmz());
        let one = dgemm_gflops(&m, 1, BlasVariant::Acml);
        let four = dgemm_gflops(&m, 4, BlasVariant::Acml);
        assert!(one > 3.0 && one < 4.4, "ACML ~88% of 4.4 GF peak, got {one:.2}");
        assert!(four > 3.6 * one, "DGEMM is cache-friendly: {four:.2} vs {one:.2}");
    }

    #[test]
    fn figure7_vanilla_dgemm_is_far_slower() {
        let m = Machine::new(systems::dmz());
        let acml = dgemm_gflops(&m, 1, BlasVariant::Acml);
        let vanilla = dgemm_gflops(&m, 1, BlasVariant::Vanilla);
        assert!(
            vanilla < 0.25 * acml,
            "vanilla {vanilla:.2} GF/s should be a small fraction of ACML {acml:.2}"
        );
    }

    fn daxpy_time(machine: &Machine, nranks: usize, scheme: Scheme) -> f64 {
        let placements = scheme.resolve(machine, nranks).unwrap();
        let mut world =
            CommWorld::new(machine, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
        let params = DaxpyParams { reps: 5, ..DaxpyParams::default() };
        append_daxpy_star(&mut world, &params);
        world.run().unwrap().makespan
    }

    #[test]
    fn figure4_daxpy_contends_on_the_socket() {
        // DAXPY is bandwidth-bound: two tasks on one socket run slower
        // per task than two tasks on two sockets.
        let m = Machine::new(systems::dmz());
        let packed = daxpy_time(&m, 2, Scheme::TwoMpiLocalAlloc);
        let spread = daxpy_time(&m, 2, Scheme::OneMpiLocalAlloc);
        assert!(packed > 1.1 * spread, "packed {packed:.3e} vs spread {spread:.3e}");
    }
}
