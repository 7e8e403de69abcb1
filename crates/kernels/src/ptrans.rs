//! HPCC PTRANS (parallel matrix transpose): the distributed workload
//! model of Figure 12.
//!
//! PTRANS computes `A = A^T + B` over a block-distributed matrix. Its
//! communication is a full pairwise block exchange — the most bandwidth-
//! hungry pattern in the HPCC suite, which is why the paper uses it to
//! expose the SysV/USysV and localalloc interactions on the ladder.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// PTRANS workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PtransParams {
    /// Global matrix order (HPCC sizes it to a fraction of memory;
    /// 8192² doubles = 512 MiB is representative for these nodes).
    pub n: usize,
    /// Repetitions.
    pub reps: usize,
    /// Bytes per message: PTRANS sends block-cyclic `nb x nb` tiles, not
    /// monolithic buffers, so a transpose is *many medium messages* —
    /// which is why its per-message lock costs matter (Figure 12) while
    /// the few-huge-message MPI-FFT's do not (Figure 13).
    pub block_bytes: f64,
}

impl Default for PtransParams {
    fn default() -> Self {
        Self { n: 8192, reps: 2, block_bytes: 8.0 * 1024.0 }
    }
}

/// Appends a distributed PTRANS run: each rank streams its block locally
/// and exchanges off-diagonal tiles with every peer, one block-sized
/// message at a time.
pub fn append_run(world: &mut CommWorld<'_>, params: &PtransParams) {
    let p = world.size() as f64;
    let total_bytes = (params.n * params.n) as f64 * F64;
    let local_bytes = total_bytes / p;
    // Local transpose + add: read A and B, write A.
    let phase = ComputePhase::new(
        "ptrans-local",
        local_bytes / F64, // one add per element
        TrafficProfile::stream(3.0 * local_bytes),
    );
    world.repeat(params.reps, |world| {
        world.compute_all(|_| Some(phase.clone()));
        if world.size() > 1 {
            // Every off-diagonal tile crosses ranks: repeated all-to-alls
            // of block-sized messages carrying the local share.
            let per_pair = local_bytes / p;
            let chunks = (per_pair / params.block_bytes).ceil().max(1.0) as usize;
            world.repeat(chunks, |world| {
                world.alltoall(per_pair / chunks as f64);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    mod sim {
        use super::super::*;
        use corescope_affinity::Scheme;
        use corescope_machine::{systems, Machine};
        use corescope_smpi::{LockLayer, MpiImpl};

        fn ptrans_time(lock: LockLayer, scheme: Scheme) -> f64 {
            let m = Machine::new(systems::longs());
            let placements = scheme.resolve(&m, 16).unwrap();
            let mut w = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), lock);
            append_run(&mut w, &PtransParams { n: 4096, reps: 1, ..PtransParams::default() });
            w.run().unwrap().makespan
        }

        #[test]
        fn usysv_beats_sysv_on_ptrans() {
            // Figure 12: "USysV's spinlocks providing a clear performance
            // advantage".
            let sysv = ptrans_time(LockLayer::SysV, Scheme::TwoMpiLocalAlloc);
            let usysv = ptrans_time(LockLayer::USysV, Scheme::TwoMpiLocalAlloc);
            assert!(usysv < sysv, "usysv {usysv:.3e} vs sysv {sysv:.3e}");
        }

        #[test]
        fn ptrans_moves_the_whole_matrix() {
            let m = Machine::new(systems::longs());
            let placements = Scheme::TwoMpiLocalAlloc.resolve(&m, 8).unwrap();
            let mut w = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
            append_run(&mut w, &PtransParams { n: 2048, reps: 1, ..PtransParams::default() });
            let report = w.run().unwrap();
            let sent = report.metrics.total_bytes_sent();
            let expected = (2048.0 * 2048.0 * F64) * (8.0 - 1.0) / 8.0;
            assert!(
                (sent - expected).abs() / expected < 0.05,
                "sent {sent:.3e}, expected ~{expected:.3e}"
            );
        }
    }
}
