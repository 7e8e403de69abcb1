//! High-Performance Linpack: the block-cyclic distributed HPL model
//! behind Figure 8.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// HPL workload parameters (1-D column-block-cyclic decomposition).
#[derive(Debug, Clone, PartialEq)]
pub struct HplParams {
    /// Global matrix order. The paper's 16-core Longs runs use problem
    /// sizes filling a large fraction of memory; 20 000 is representative.
    pub n: usize,
    /// Block size.
    pub nb: usize,
    /// Fraction of peak the vendor DGEMM update sustains.
    pub dgemm_efficiency: f64,
}

impl Default for HplParams {
    fn default() -> Self {
        Self { n: 20_000, nb: 256, dgemm_efficiency: 0.85 }
    }
}

impl HplParams {
    /// Total flops of the factorization (2N³/3 + lower-order).
    pub fn total_flops(&self) -> f64 {
        let n = self.n as f64;
        2.0 * n * n * n / 3.0
    }

    /// Gflop/s implied by a runtime.
    pub fn gflops(&self, seconds: f64) -> f64 {
        self.total_flops() / seconds / 1e9
    }
}

/// Appends one HPL factorization to the world: per block step, the panel
/// owner factors the panel, broadcasts it, and every rank applies the
/// trailing DGEMM update to its local columns.
pub fn append_run(world: &mut CommWorld<'_>, params: &HplParams) {
    let p = world.size();
    let steps = params.n / params.nb;
    let nb = params.nb as f64;
    for k in 0..steps {
        let width = (params.n - k * params.nb) as f64;
        let owner = k % p;
        // Panel factorization: rank `owner`, ~width*nb^2 flops, streaming
        // the panel.
        let panel_flops = width * nb * nb;
        let panel_bytes = width * nb * F64;
        world.compute(
            owner,
            ComputePhase::new(
                "hpl-panel",
                panel_flops,
                TrafficProfile::stream_over(2.0 * panel_bytes, panel_bytes),
            )
            .with_efficiency(0.4),
        );
        // Broadcast the panel to everyone.
        if p > 1 {
            world.bcast(owner, panel_bytes);
        }
        // Trailing update: each rank's share of the 2*width^2*nb DGEMM.
        let update_flops = 2.0 * width * width * nb / p as f64;
        // One operand load per flop pair, amortized over nb-wide blocks.
        let touched = update_flops * F64 / nb;
        let update = ComputePhase::new(
            "hpl-update",
            update_flops,
            TrafficProfile::blocked(
                touched.max(F64),
                (width * width / p as f64 * F64).max(F64),
                128.0,
            ),
        )
        .with_efficiency(params.dgemm_efficiency);
        world.compute_all(|_| Some(update.clone()));
        // Row swaps / pivoting exchange: small latency-bound messages.
        if p > 1 {
            world.allreduce(nb * F64);
        }
    }
}

#[cfg(test)]
mod tests {
    mod sim {
        use super::super::*;
        use corescope_affinity::Scheme;
        use corescope_machine::{systems, Machine};
        use corescope_smpi::{LockLayer, MpiImpl};

        fn hpl_gflops(scheme: Scheme, lock: LockLayer) -> f64 {
            let m = Machine::new(systems::longs());
            let placements = scheme.resolve(&m, 16).unwrap();
            let mut w = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), lock);
            let params = HplParams { n: 8192, nb: 256, dgemm_efficiency: 0.85 };
            append_run(&mut w, &params);
            params.gflops(w.run().unwrap().makespan)
        }

        #[test]
        fn hpl_reaches_a_sane_fraction_of_peak() {
            // 16 cores x 3.6 GF = 57.6 GF peak; the unoverlapped panel
            // costs real HPL hides with lookahead keep the model nearer
            // 50% at this modest N.
            let gf = hpl_gflops(Scheme::TwoMpiLocalAlloc, LockLayer::USysV);
            assert!(gf > 20.0 && gf < 57.0, "HPL = {gf:.1} GF/s");
        }

        #[test]
        fn figure8_usysv_and_localalloc_beat_default() {
            let tuned = hpl_gflops(Scheme::TwoMpiLocalAlloc, LockLayer::USysV);
            let default = hpl_gflops(Scheme::Default, LockLayer::SysV);
            assert!(tuned > default, "tuned {tuned:.1} should beat default {default:.1}");
        }
    }
}
