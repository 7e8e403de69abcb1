//! HPCC RandomAccess (GUPS): the Single / Star / MPI workload models of
//! Figure 11.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// RandomAccess workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RaParams {
    /// Table words per rank (HPCC sizes the global table to half of
    /// memory; 2²⁵ words = 256 MiB is representative for these nodes).
    pub table_words_per_rank: u64,
    /// Updates per rank (HPCC runs 4× the table size; models may shorten
    /// proportionally).
    pub updates_per_rank: u64,
}

impl Default for RaParams {
    fn default() -> Self {
        Self { table_words_per_rank: 1 << 25, updates_per_rank: 4 << 25 }
    }
}

impl RaParams {
    /// The local update phase for one rank: dependent random access over
    /// the table — read + xor + write per update.
    pub fn phase(&self) -> ComputePhase {
        let updates = self.updates_per_rank as f64;
        let ws = self.table_words_per_rank as f64 * F64;
        ComputePhase::new("randomaccess", 0.0, TrafficProfile::random(2.0 * updates * F64, ws))
    }

    /// GUP/s implied by a runtime for `ranks` ranks.
    pub fn gups(&self, ranks: usize, seconds: f64) -> f64 {
        ranks as f64 * self.updates_per_rank as f64 / seconds / 1e9
    }
}

/// Appends a star-mode run (independent local tables, no communication).
pub fn append_star(world: &mut CommWorld<'_>, params: &RaParams) {
    let phase = params.phase();
    world.compute_all(|_| Some(phase.clone()));
}

/// Appends a single-rank run.
pub fn append_single(world: &mut CommWorld<'_>, params: &RaParams) {
    world.compute(0, params.phase());
}

/// Appends the MPI run: updates to remote table shares travel as small
/// bucketed messages (256-update chunks, so a few hundred bytes per
/// peer), which is why the SysV lock layer murders this benchmark
/// (Figure 11).
pub fn append_mpi(world: &mut CommWorld<'_>, params: &RaParams) {
    let p = world.size();
    if p <= 1 {
        append_single(world, params);
        return;
    }
    let chunk: u64 = 256;
    let chunks = (params.updates_per_rank / chunk).max(1);
    // Per chunk: generate updates, bucket-exchange with all peers, apply
    // the received share.
    let local_fraction = 1.0 / p as f64;
    let apply_ws = params.table_words_per_rank as f64 * F64;
    let gen = ComputePhase::new("ra-generate", 0.0, TrafficProfile::stream(chunk as f64 * F64));
    // Each peer receives its share of the chunk.
    let bytes = (chunk as f64 * F64 * (1.0 - local_fraction) / (p as f64 - 1.0)).max(F64);
    let apply = ComputePhase::new(
        "ra-apply",
        0.0,
        TrafficProfile::random(2.0 * chunk as f64 * F64, apply_ws),
    );
    world.repeat(chunks as usize, |world| {
        world.compute_all(|_| Some(gen.clone()));
        world.alltoall(bytes);
        world.compute_all(|_| Some(apply.clone()));
    });
}

#[cfg(test)]
mod tests {
    mod sim {
        use super::super::*;
        use corescope_affinity::Scheme;
        use corescope_machine::{systems, Machine, RunReport};
        use corescope_smpi::{LockLayer, MpiImpl};

        fn mpi_run(lock: LockLayer) -> RunReport {
            let m = Machine::new(systems::longs());
            let placements = Scheme::TwoMpiLocalAlloc.resolve(&m, 8).unwrap();
            let mut w = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), lock);
            let params = RaParams { table_words_per_rank: 1 << 20, updates_per_rank: 1 << 16 };
            append_mpi(&mut w, &params);
            w.run().unwrap()
        }

        fn mpi_time(lock: LockLayer) -> f64 {
            mpi_run(lock).makespan
        }

        #[test]
        fn chunk_exchanges_repeat_the_same_rate_problems() {
            // Every 256-update chunk replays the same generate, exchange
            // and apply flow sets, so after the first chunk nearly every
            // solve is answered from the solver's memo. Both counts are
            // deterministic.
            let metrics = mpi_run(LockLayer::USysV).metrics;
            assert_eq!((metrics.solves, metrics.solves_reused), (17160, 17033));
        }

        #[test]
        fn sysv_latency_dominates_mpi_randomaccess() {
            // "the high MPI latency, attributable to the high cost of the
            // Linux implementation of the SystemV semaphore, results in
            // poor performance of this benchmark".
            let sysv = mpi_time(LockLayer::SysV);
            let usysv = mpi_time(LockLayer::USysV);
            assert!(
                sysv > 1.15 * usysv,
                "sysv {sysv:.3e} should be clearly slower than usysv {usysv:.3e}"
            );
        }

        #[test]
        fn star_mode_is_latency_bound_not_bandwidth_bound() {
            let m = Machine::new(systems::dmz());
            let params = RaParams { table_words_per_rank: 1 << 22, updates_per_rank: 1 << 20 };
            // Single vs star on one socket: random access is latency
            // bound, so the second core brings a net gain per socket
            // (ratio < 2:1) — the paper's RA observation.
            let t_single = {
                let p = Scheme::TwoMpiLocalAlloc.resolve(&m, 1).unwrap();
                let mut w = CommWorld::new(&m, p, MpiImpl::Lam.profile(), LockLayer::USysV);
                append_single(&mut w, &params);
                w.run().unwrap().makespan
            };
            let t_star = {
                let p = Scheme::TwoMpiLocalAlloc.resolve(&m, 2).unwrap();
                let mut w = CommWorld::new(&m, p, MpiImpl::Lam.profile(), LockLayer::USysV);
                append_star(&mut w, &params);
                w.run().unwrap().makespan
            };
            let ratio = t_star / t_single;
            assert!(
                ratio < 1.5,
                "second core should be nearly free for latency-bound RA, ratio {ratio:.2}"
            );
        }
    }
}
