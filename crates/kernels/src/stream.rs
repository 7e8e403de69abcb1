//! The STREAM memory-bandwidth benchmark (McCalpin): the simulator
//! workload used for Figures 2, 3 and 10.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = q * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + q * c[i]` — the kernel the paper's figures report.
    Triad,
}

impl StreamKernel {
    /// Bytes moved per loop iteration (reads + the write, excluding
    /// write-allocate traffic, per STREAM convention).
    pub fn bytes_per_element(self) -> f64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 2.0 * F64,
            StreamKernel::Add | StreamKernel::Triad => 3.0 * F64,
        }
    }

    /// Floating-point operations per element.
    pub fn flops_per_element(self) -> f64 {
        match self {
            StreamKernel::Copy => 0.0,
            StreamKernel::Scale | StreamKernel::Add => 1.0,
            StreamKernel::Triad => 2.0,
        }
    }
}

/// STREAM workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParams {
    /// Which kernel to run.
    pub kernel: StreamKernel,
    /// Array length per rank (LMbench3/STREAM default scale: large enough
    /// to defeat the 1 MiB L2 by a wide margin).
    pub elements_per_rank: usize,
    /// Number of timed sweeps.
    pub sweeps: usize,
}

impl Default for StreamParams {
    fn default() -> Self {
        Self { kernel: StreamKernel::Triad, elements_per_rank: 4_000_000, sweeps: 10 }
    }
}

impl StreamParams {
    /// The compute phase one sweep generates on one rank.
    pub fn phase(&self) -> ComputePhase {
        let n = self.elements_per_rank as f64;
        let bytes = n * self.kernel.bytes_per_element();
        // Triad's working set is the three arrays.
        let working_set = 3.0 * n * F64;
        ComputePhase::new(
            "stream",
            n * self.kernel.flops_per_element(),
            TrafficProfile::stream_over(bytes, working_set),
        )
    }

    /// Bytes one rank moves over the whole run.
    pub fn bytes_per_rank(&self) -> f64 {
        self.sweeps as f64 * self.elements_per_rank as f64 * self.kernel.bytes_per_element()
    }
}

/// Appends a full STREAM run (every rank sweeps concurrently, "Star"
/// style) to a world.
pub fn append_star(world: &mut CommWorld<'_>, params: &StreamParams) {
    for _ in 0..params.sweeps {
        let phase = params.phase();
        world.compute_all(|_| Some(phase.clone()));
    }
}

/// Appends a single-rank STREAM run (rank 0 only, "Single" style).
pub fn append_single(world: &mut CommWorld<'_>, params: &StreamParams) {
    for _ in 0..params.sweeps {
        world.compute(0, params.phase());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::Scheme;
    use corescope_machine::{systems, Machine};
    use corescope_smpi::{LockLayer, MpiImpl};

    #[test]
    fn triad_moves_24_bytes_per_element() {
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24.0);
        assert_eq!(StreamKernel::Copy.flops_per_element(), 0.0);
    }

    fn measured_bandwidth(machine: &Machine, nranks: usize, scheme: Scheme) -> f64 {
        let placements = scheme.resolve(machine, nranks).unwrap();
        let mut world =
            CommWorld::new(machine, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
        let params = StreamParams { sweeps: 2, ..StreamParams::default() };
        append_star(&mut world, &params);
        let report = world.run().unwrap();
        nranks as f64 * params.bytes_per_rank() / report.makespan
    }

    #[test]
    fn figure2_shape_sockets_scale_cores_do_not() {
        let dmz = Machine::new(systems::dmz());
        // 1 core vs 2 sockets: near 2x. 2 cores on one socket: much less.
        let bw1 = measured_bandwidth(&dmz, 1, Scheme::OneMpiLocalAlloc);
        let bw2_sockets = measured_bandwidth(&dmz, 2, Scheme::OneMpiLocalAlloc);
        let bw2_packed = measured_bandwidth(&dmz, 2, Scheme::TwoMpiLocalAlloc);
        assert!(bw2_sockets > 1.9 * bw1, "socket scaling should be near-linear");
        assert!(
            bw2_packed < 1.35 * bw1,
            "second core per socket is flat/degraded: {:.2} vs {:.2} GB/s",
            bw2_packed / 1e9,
            bw1 / 1e9
        );
    }

    #[test]
    fn longs_single_core_bandwidth_below_half_expected() {
        // The paper: "the best achievable single core bandwidth on the
        // 8 socket system is less than half of the more than 4 GB/s one
        // would typically expect from an Opteron".
        let longs = Machine::new(systems::longs());
        let bw = measured_bandwidth(&longs, 1, Scheme::OneMpiLocalAlloc);
        assert!(bw < 2.1e9, "longs single-core bw = {:.2} GB/s", bw / 1e9);
        let dmz = Machine::new(systems::dmz());
        let bw_dmz = measured_bandwidth(&dmz, 1, Scheme::OneMpiLocalAlloc);
        assert!(bw_dmz > 3.4e9);
    }
}
