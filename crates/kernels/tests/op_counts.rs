//! The models' operation counts against the closed forms the artifacts
//! divide by: each HPCC Single / Star model is lowered into a
//! `CommWorld`, and every rank's program flops must equal the closed form
//! exactly (Single runs rank 0 only; the other ranks carry no flops).

use corescope_affinity::Scheme;
use corescope_kernels::blas::{self, BlasVariant, DaxpyParams, DgemmParams};
use corescope_kernels::fft::{self, fft_flops, FftParams};
use corescope_machine::{systems, Machine};
use corescope_smpi::{CommWorld, LockLayer, MpiImpl};

const RANKS: usize = 4;

/// Lowers one model into a fresh 4-rank DMZ world and returns each
/// rank's total program flops.
fn rank_flops(append: impl FnOnce(&mut CommWorld<'_>)) -> Vec<f64> {
    let m = Machine::new(systems::dmz());
    let placements = Scheme::TwoMpiLocalAlloc.resolve(&m, RANKS).unwrap();
    let mut world = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
    append(&mut world);
    world.programs().iter().map(|p| p.total_flops()).collect()
}

fn single(per_rank: f64) -> Vec<f64> {
    let mut flops = vec![0.0; RANKS];
    flops[0] = per_rank;
    flops
}

fn star(per_rank: f64) -> Vec<f64> {
    vec![per_rank; RANKS]
}

#[test]
fn lowered_flops_equal_the_closed_forms() {
    for variant in [BlasVariant::Acml, BlasVariant::Vanilla] {
        let dgemm = DgemmParams { n: 1000, reps: 3, variant };
        assert_eq!(dgemm.flops_per_rank(), 6.0e9);
        let got = rank_flops(|w| blas::append_dgemm_single(w, &dgemm));
        assert_eq!(got, single(dgemm.flops_per_rank()), "DGEMM Single, {variant:?}");
        let got = rank_flops(|w| blas::append_dgemm_star(w, &dgemm));
        assert_eq!(got, star(dgemm.flops_per_rank()), "DGEMM Star, {variant:?}");

        let daxpy = DaxpyParams { n: 10_000_000, reps: 3, variant };
        assert_eq!(daxpy.flops_per_rank(), 6.0e7);
        let got = rank_flops(|w| blas::append_daxpy_single(w, &daxpy));
        assert_eq!(got, single(daxpy.flops_per_rank()), "DAXPY Single, {variant:?}");
        let got = rank_flops(|w| blas::append_daxpy_star(w, &daxpy));
        assert_eq!(got, star(daxpy.flops_per_rank()), "DAXPY Star, {variant:?}");
    }

    let params = FftParams { points_per_rank: 1 << 20, reps: 3 };
    let per_rank = params.reps as f64 * fft_flops(params.points_per_rank as f64);
    assert_eq!(per_rank, 314_572_800.0);
    assert_eq!(rank_flops(|w| fft::append_single(w, &params)), single(per_rank), "FFT Single");
    assert_eq!(rank_flops(|w| fft::append_star(w, &params)), star(per_rank), "FFT Star");
}
