//! Fast Fourier transform: the flop count, the local FFT phases and the
//! transpose-based parallel FFT model used by HPCC FFT and the NAS FT
//! benchmark.

use crate::C64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// Flop count of an n-point complex FFT (the standard 5·n·log₂n).
pub fn fft_flops(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else {
        5.0 * n * n.log2()
    }
}

/// A local (per-core) FFT over `points` complex points as a compute
/// phase. FFT is "somewhat less cache-friendly" than DGEMM (Figure 9):
/// its butterfly strides defeat the prefetcher, so it is latency- (and
/// hence placement-) sensitive, and its scalar code sustains only ~12%
/// of peak — both properties of NAS FT on 2006 Opterons.
pub fn local_fft_phase(points: f64) -> ComputePhase {
    fft_pass_phase(points, points, 1.0)
}

/// A fraction of a distributed FFT's local work. `local_points` is this
/// rank's share of a `global_points` transform; the transpose algorithm
/// splits the butterflies into passes carrying `fraction` of the total.
pub fn fft_pass_phase(local_points: f64, global_points: f64, fraction: f64) -> ComputePhase {
    let ws = local_points * C64;
    // Partially-blocked butterfly passes re-sweep whatever does not fit
    // in L2: a grid twice the cache makes ~1 extra pass, a 256x grid ~8.
    // The pass count follows the *global* transform (pencil lengths do
    // not shrink with the rank count), so parallel FFTs do not gain
    // artificial cache superlinearity.
    let l2 = corescope_machine::systems::calib::L2_BYTES;
    let sweeps = (global_points * C64 / l2).max(2.0).log2().clamp(1.0, 8.0);
    let touched = fraction * local_points * C64 * sweeps;
    let flops = fraction * 5.0 * local_points * global_points.max(2.0).log2();
    ComputePhase::new("fft", flops, TrafficProfile::strided(touched.max(0.0), ws))
        .with_efficiency(0.2)
}

/// HPCC FFT single/star parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FftParams {
    /// Points per rank (HPCC sizes the vector to a fraction of memory;
    /// 2²² complex points = 64 MiB is representative).
    pub points_per_rank: usize,
    /// Repetitions.
    pub reps: usize,
}

impl Default for FftParams {
    fn default() -> Self {
        Self { points_per_rank: 1 << 22, reps: 3 }
    }
}

/// Appends a star-mode FFT run (all ranks transform concurrently, no
/// communication).
pub fn append_star(world: &mut CommWorld<'_>, params: &FftParams) {
    for _ in 0..params.reps {
        let phase = local_fft_phase(params.points_per_rank as f64);
        world.compute_all(|_| Some(phase.clone()));
    }
}

/// Appends a single-rank FFT run.
pub fn append_single(world: &mut CommWorld<'_>, params: &FftParams) {
    for _ in 0..params.reps {
        world.compute(0, local_fft_phase(params.points_per_rank as f64));
    }
}

/// Appends one distributed 1-D FFT of `total_points` complex points over
/// all ranks: local row FFTs, a full transpose (all-to-all), local column
/// FFTs — the MPI-FFT structure whose large messages make it insensitive
/// to lock-layer latency (Figure 13's key conclusion).
pub fn append_parallel_fft(world: &mut CommWorld<'_>, total_points: f64) {
    let p = world.size() as f64;
    let local = total_points / p;
    // Row FFTs: half the butterfly work happens before the transpose.
    let row_phase = fft_pass_phase(local, total_points, 0.5);
    world.compute_all(|_| Some(row_phase.clone()));
    // Transpose: every rank exchanges its share with every other rank.
    if world.size() > 1 {
        world.alltoall(local * C64 / p);
    }
    // Column FFTs + twiddle scaling: the other half.
    let col_phase = fft_pass_phase(local, total_points, 0.5);
    world.compute_all(|_| Some(col_phase.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_flops_formula() {
        assert_eq!(fft_flops(1.0), 0.0);
        assert!((fft_flops(1024.0) - 5.0 * 1024.0 * 10.0).abs() < 1e-9);
    }

    mod sim {
        use super::super::*;
        use corescope_affinity::Scheme;
        use corescope_machine::{systems, Machine};
        use corescope_smpi::{LockLayer, MpiImpl};

        #[test]
        fn parallel_fft_completes_and_moves_data() {
            let m = Machine::new(systems::longs());
            let placements = Scheme::TwoMpiLocalAlloc.resolve(&m, 8).unwrap();
            let mut w = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
            append_parallel_fft(&mut w, (1u64 << 24) as f64);
            let report = w.run().unwrap();
            assert_eq!(report.metrics.total_messages(), 8 * 7);
            assert!(report.makespan > 0.0);
        }

        #[test]
        fn large_message_fft_is_insensitive_to_lock_layer() {
            // Figure 13: "with larger messages, the impact can be
            // essentially negligible as in MPI-FFT".
            let m = Machine::new(systems::longs());
            let placements = Scheme::TwoMpiLocalAlloc.resolve(&m, 8).unwrap();
            let run = |lock| {
                let mut w = CommWorld::new(&m, placements.clone(), MpiImpl::Lam.profile(), lock);
                append_parallel_fft(&mut w, (1u64 << 24) as f64);
                w.run().unwrap().makespan
            };
            let sysv = run(LockLayer::SysV);
            let usysv = run(LockLayer::USysV);
            assert!(
                (sysv - usysv) / usysv < 0.05,
                "lock layer should not matter for MB-sized messages: {sysv:.3e} vs {usysv:.3e}"
            );
        }
    }
}
