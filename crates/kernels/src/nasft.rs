//! The NAS FT benchmark model (Tables 2–4): a 3-D FFT-based spectral PDE
//! solver with a slab decomposition whose per-iteration transpose is a
//! full all-to-all.

use crate::fft::{fft_flops, fft_pass_phase};
use crate::C64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// NAS FT problem classes (nx, ny, nz, iterations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtClass {
    /// Class S: 64³, 6 iterations.
    S,
    /// Class A: 256×256×128, 6 iterations.
    A,
    /// Class B: 512×256×256, 20 iterations — the paper's class.
    B,
    /// Class C: 512³, 20 iterations.
    C,
}

impl FtClass {
    /// `(nx, ny, nz, niter)` per the NPB specification.
    pub fn parameters(self) -> (usize, usize, usize, usize) {
        match self {
            FtClass::S => (64, 64, 64, 6),
            FtClass::A => (256, 256, 128, 6),
            FtClass::B => (512, 256, 256, 20),
            FtClass::C => (512, 512, 512, 20),
        }
    }

    /// Total grid points.
    pub fn points(self) -> f64 {
        let (nx, ny, nz, _) = self.parameters();
        (nx * ny * nz) as f64
    }

    /// Iterations.
    pub fn iterations(self) -> usize {
        self.parameters().3
    }

    /// Approximate total flops: one forward plus `niter` inverse 3-D FFTs
    /// at 5·n·log₂n, plus the evolve multiplies.
    pub fn total_flops(self) -> f64 {
        let n = self.points();
        let ffts = (self.iterations() + 1) as f64;
        ffts * fft_flops(n) + self.iterations() as f64 * 6.0 * n
    }
}

/// NAS FT workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct NasFt {
    /// Problem class.
    pub class: FtClass,
}

impl NasFt {
    /// Appends one 3-D FFT over the slab decomposition: two local
    /// dimension passes, a global transpose (all-to-all), and the third
    /// pass.
    fn append_3d_fft(&self, world: &mut CommWorld<'_>) {
        let p = world.size() as f64;
        let total = self.class.points();
        let local = total / p;
        // Dimensions 1+2 are slab-local: two thirds of the butterflies.
        let pass12 = fft_pass_phase(local, total, 2.0 / 3.0);
        world.compute_all(|_| Some(pass12.clone()));
        if world.size() > 1 {
            world.alltoall(local * C64 / p);
        }
        let pass3 = fft_pass_phase(local, total, 1.0 / 3.0);
        world.compute_all(|_| Some(pass3.clone()));
    }

    /// Appends the full benchmark under the hybrid (OpenMP-within-socket)
    /// model of the paper's Section 3.4: all cores compute, but the
    /// transpose all-to-all runs among one master rank per socket with
    /// process-sized messages.
    ///
    /// # Panics
    ///
    /// Panics if the world size is not a multiple of
    /// `threads_per_process`.
    pub fn append_run_hybrid(&self, world: &mut CommWorld<'_>, threads_per_process: usize) {
        let p = world.size();
        assert!(threads_per_process >= 1 && p.is_multiple_of(threads_per_process));
        let masters: Vec<usize> = (0..p).step_by(threads_per_process).collect();
        let pm = masters.len() as f64;
        let total = self.class.points();
        let local_core = total / p as f64;
        const OMP_BARRIER: f64 = 2e-6;

        let fft3d = |world: &mut CommWorld<'_>| {
            let pass12 = fft_pass_phase(local_core, total, 2.0 / 3.0);
            world.compute_all(|_| Some(pass12.clone()));
            if masters.len() > 1 {
                world.barrier();
                for r in 0..p {
                    world.delay(r, OMP_BARRIER);
                }
                // Master-to-master transpose: each process moves its
                // whole share.
                let per_pair = total / pm * C64 / pm;
                for shift in 1..masters.len() {
                    for (idx, &r) in masters.iter().enumerate() {
                        let dst = masters[(idx + shift) % masters.len()];
                        world.p2p(r, dst, per_pair);
                    }
                }
                world.barrier();
                for r in 0..p {
                    world.delay(r, OMP_BARRIER);
                }
            }
            let pass3 = fft_pass_phase(local_core, total, 1.0 / 3.0);
            world.compute_all(|_| Some(pass3.clone()));
        };

        fft3d(world);
        for _ in 0..self.class.iterations() {
            let evolve = ComputePhase::new(
                "ft-evolve",
                6.0 * local_core,
                TrafficProfile::stream(2.0 * local_core * C64),
            )
            .with_efficiency(0.5);
            world.compute_all(|_| Some(evolve.clone()));
            fft3d(world);
            if masters.len() > 1 {
                world.sendrecv_among(&masters, C64);
            }
        }
    }

    /// Appends the full benchmark: initial forward transform, then per
    /// iteration an evolve (point-wise exponential multiply) and an
    /// inverse transform plus a checksum reduction.
    pub fn append_run(&self, world: &mut CommWorld<'_>) {
        let p = world.size() as f64;
        let local = self.class.points() / p;
        self.append_3d_fft(world);
        let evolve =
            ComputePhase::new("ft-evolve", 6.0 * local, TrafficProfile::stream(2.0 * local * C64))
                .with_efficiency(0.5);
        world.repeat(self.class.iterations(), |world| {
            world.compute_all(|_| Some(evolve.clone()));
            self.append_3d_fft(world);
            if world.size() > 1 {
                world.allreduce(C64);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::Scheme;
    use corescope_machine::{systems, Machine};
    use corescope_smpi::{CommWorld, LockLayer, MpiImpl};

    #[test]
    fn class_b_matches_npb_scale() {
        let (nx, ny, nz, niter) = FtClass::B.parameters();
        assert_eq!((nx, ny, nz, niter), (512, 256, 256, 20));
        // NPB reports ~92.3 Gflop for class B.
        let gf = FtClass::B.total_flops() / 1e9;
        assert!(gf > 70.0 && gf < 120.0, "class B ~92 Gflop, model says {gf:.1}");
    }

    fn run_ft(machine: &Machine, class: FtClass, nranks: usize, scheme: Scheme) -> f64 {
        let placements = scheme.resolve(machine, nranks).unwrap();
        let mut w =
            CommWorld::new(machine, placements, MpiImpl::Mpich2.profile(), LockLayer::USysV);
        NasFt { class }.append_run(&mut w);
        w.run().unwrap().makespan
    }

    #[test]
    fn ft_scales_then_saturates_on_the_ladder() {
        let m = Machine::new(systems::longs());
        let t2 = run_ft(&m, FtClass::A, 2, Scheme::TwoMpiLocalAlloc);
        let t16 = run_ft(&m, FtClass::A, 16, Scheme::TwoMpiLocalAlloc);
        assert!(t16 < t2, "t2={t2:.2} t16={t16:.2}");
        // Table 4: FT gains clearly less than the 8x core ratio going
        // from 2 to 16 cores (the paper measures ~3.9x; transpose traffic
        // over the ladder is the limiter).
        let gain = t2 / t16;
        assert!(gain > 2.0 && gain < 7.2, "2->16 core FT gain {gain:.1} must be clearly sublinear");
    }

    #[test]
    fn ft_membind_hurts_at_scale() {
        let m = Machine::new(systems::longs());
        let good = run_ft(&m, FtClass::B, 8, Scheme::OneMpiLocalAlloc);
        let bad = run_ft(&m, FtClass::B, 8, Scheme::OneMpiMembind);
        // Paper Table 2 shows ~1.75x for FT class B; the model reproduces
        // the direction with a smaller magnitude (see EXPERIMENTS.md).
        assert!(bad > 1.15 * good, "membind {bad:.2} vs localalloc {good:.2}");
    }

    #[test]
    fn ft_class_b_two_rank_longs_time_is_in_paper_ballpark() {
        // Table 2: FT class B, 2 tasks, Longs default = 118.97 s. The
        // simulator is a model, not the testbed: require the right order
        // of magnitude (within ~2x).
        let m = Machine::new(systems::longs());
        let t = run_ft(&m, FtClass::B, 2, Scheme::Default);
        assert!(t > 60.0 && t < 240.0, "FT-B 2 ranks = {t:.1} s, paper 118.97 s");
    }
}
