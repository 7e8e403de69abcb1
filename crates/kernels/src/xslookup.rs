//! XSBench-style neutron cross-section lookup: the Single / Star
//! workload models.
//!
//! The model follows the hot loop of a Monte Carlo transport
//! macroscopic-cross-section calculation (Tramm et al.'s XSBench): draw a
//! pseudo-random energy, binary-search the unionized energy grid for the
//! bracketing interval, then linearly interpolate five cross-section
//! channels for every nuclide and accumulate the macroscopic totals. Each
//! lookup is independent, so the workload scales as an embarrassingly
//! parallel, latency-bound stream of dependent random reads.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// Cross-section channels per (grid point, nuclide): total, elastic,
/// absorption, fission, nu-fission — XSBench's five.
pub const CHANNELS: usize = 5;

/// Cross-section lookup workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct XsParams {
    /// Unionized energy grid points. XSBench's large problem unionizes to
    /// ~4.2M points; the grid is what makes the table big.
    pub grid_points: u64,
    /// Nuclides in the material (XSBench's large fuel material has 321;
    /// a small depleted-fuel material has 34).
    pub nuclides: u64,
    /// Lookups each rank performs.
    pub lookups_per_rank: u64,
}

impl Default for XsParams {
    fn default() -> Self {
        Self { grid_points: 1 << 22, nuclides: 64, lookups_per_rank: 1 << 22 }
    }
}

impl XsParams {
    /// Bytes of the unionized table: the grid plus [`CHANNELS`] values
    /// per (grid point, nuclide).
    pub fn table_bytes(&self) -> f64 {
        self.grid_points as f64 * F64 * (1.0 + CHANNELS as f64 * self.nuclides as f64)
    }

    /// Cache lines one lookup touches: the binary-search path through the
    /// grid (one line per probe) plus the two bracketing rows of
    /// contiguous per-nuclide channel values.
    pub fn lines_per_lookup(&self) -> f64 {
        let search = (self.grid_points as f64).log2().ceil();
        let row_bytes = self.nuclides as f64 * CHANNELS as f64 * F64;
        search + 2.0 * (row_bytes / 64.0).ceil()
    }

    /// Flops one lookup performs: per nuclide, [`CHANNELS`] interpolations
    /// of one multiply + one add (the accumulate rides along).
    pub fn flops_per_lookup(&self) -> f64 {
        self.nuclides as f64 * CHANNELS as f64 * 2.0
    }

    /// The lookup phase for one rank: latency-bound dependent reads of
    /// whole lines over the shared table.
    pub fn phase(&self) -> ComputePhase {
        let lookups = self.lookups_per_rank as f64;
        ComputePhase::new(
            "xslookup",
            lookups * self.flops_per_lookup(),
            TrafficProfile::lookup(lookups * self.lines_per_lookup() * 64.0, self.table_bytes()),
        )
    }
}

/// Appends a star-mode run: every rank performs its own lookup stream
/// over its own (replicated) table.
pub fn append_star(world: &mut CommWorld<'_>, params: &XsParams) {
    let phase = params.phase();
    world.compute_all(|_| Some(phase.clone()));
}

/// Appends a single-rank run.
pub fn append_single(world: &mut CommWorld<'_>, params: &XsParams) {
    world.compute(0, params.phase());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_bytes_and_lines_scale_with_the_grid() {
        let small = XsParams { grid_points: 1 << 20, nuclides: 64, lookups_per_rank: 1 };
        let large = XsParams { grid_points: 1 << 24, nuclides: 64, lookups_per_rank: 1 };
        assert!((large.table_bytes() / small.table_bytes() - 16.0).abs() < 1e-9);
        // The search path grows by log2 of the ratio; the row cost is flat.
        assert_eq!(large.lines_per_lookup() - small.lines_per_lookup(), 4.0);
    }

    mod sim {
        use super::super::*;
        use corescope_affinity::Scheme;
        use corescope_machine::{systems, Machine};
        use corescope_smpi::{LockLayer, MpiImpl};

        fn params() -> XsParams {
            XsParams { grid_points: 1 << 22, nuclides: 64, lookups_per_rank: 1 << 18 }
        }

        #[test]
        fn star_mode_is_latency_bound_not_bandwidth_bound() {
            let m = Machine::new(systems::dmz());
            let t_single = {
                let p = Scheme::TwoMpiLocalAlloc.resolve(&m, 1).unwrap();
                let mut w = CommWorld::new(&m, p, MpiImpl::Lam.profile(), LockLayer::USysV);
                append_single(&mut w, &params());
                w.run().unwrap().makespan
            };
            let t_star = {
                let p = Scheme::TwoMpiLocalAlloc.resolve(&m, 2).unwrap();
                let mut w = CommWorld::new(&m, p, MpiImpl::Lam.profile(), LockLayer::USysV);
                append_star(&mut w, &params());
                w.run().unwrap().makespan
            };
            let ratio = t_star / t_single;
            assert!(
                ratio < 1.5,
                "second core should be nearly free for latency-bound lookups, ratio {ratio:.2}"
            );
        }

        #[test]
        fn longs_probe_latency_slows_single_core_lookups() {
            // Same mechanism as the paper's Longs STREAM observation:
            // every access pays the ladder's probe diameter, so a single
            // Longs core looks up markedly slower than a DMZ core.
            let time_on = |spec: corescope_machine::MachineSpec| {
                let m = Machine::new(spec);
                let p = Scheme::TwoMpiLocalAlloc.resolve(&m, 1).unwrap();
                let mut w = CommWorld::new(&m, p, MpiImpl::Lam.profile(), LockLayer::USysV);
                append_single(&mut w, &params());
                w.run().unwrap().makespan
            };
            let dmz = time_on(systems::dmz());
            let longs = time_on(systems::longs());
            assert!(longs > 1.5 * dmz, "longs {longs:.3e} vs dmz {dmz:.3e}");
        }
    }
}
