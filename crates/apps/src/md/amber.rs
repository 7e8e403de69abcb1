//! AMBER `sander` workload models: the five benchmarks of Table 6, with
//! the PME and GB phase structures behind Tables 7–9.
//!
//! The PME step structure follows sander 8's slab-decomposed PME: a
//! direct-space pair sweep, B-spline charge spreading, a grid reduction,
//! forward 3-D FFT (local passes + transpose all-to-all), reciprocal
//! multiply, inverse FFT, force interpolation, a halo exchange and the
//! global force/energy reductions that dominated sander's scaling on
//! 2006 hardware.

use corescope_kernels::fft::fft_pass_phase;
use corescope_kernels::{C64, F64};
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// Electrostatics method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmberMethod {
    /// Particle Mesh Ewald (explicit solvent).
    Pme,
    /// Generalized Born (implicit solvent).
    Gb,
}

/// One AMBER benchmark system (Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct AmberBenchmark {
    /// Benchmark name as the paper spells it.
    pub name: &'static str,
    /// Atom count.
    pub atoms: usize,
    /// MD technique.
    pub method: AmberMethod,
    /// PME charge grid points (unused for GB).
    pub grid_points: f64,
    /// MD steps per run.
    pub steps: usize,
}

impl AmberBenchmark {
    /// `dhfr`: 22 930 atoms, PME.
    pub fn dhfr() -> Self {
        Self {
            name: "dhfr",
            atoms: 22_930,
            method: AmberMethod::Pme,
            grid_points: 64.0 * 64.0 * 64.0,
            steps: 100,
        }
    }

    /// `factor_ix`: 90 906 atoms, PME.
    pub fn factor_ix() -> Self {
        Self {
            name: "factor_ix",
            atoms: 90_906,
            method: AmberMethod::Pme,
            grid_points: 128.0 * 128.0 * 96.0,
            steps: 100,
        }
    }

    /// `gb_cox2`: 18 056 atoms, GB.
    pub fn gb_cox2() -> Self {
        Self {
            name: "gb_cox2",
            atoms: 18_056,
            method: AmberMethod::Gb,
            grid_points: 0.0,
            steps: 20,
        }
    }

    /// `gb_mb`: 2 492 atoms, GB.
    pub fn gb_mb() -> Self {
        Self { name: "gb_mb", atoms: 2_492, method: AmberMethod::Gb, grid_points: 0.0, steps: 1000 }
    }

    /// `JAC`: 23 558 atoms, PME (the joint AMBER-CHARMM benchmark).
    pub fn jac() -> Self {
        Self {
            name: "JAC",
            atoms: 23_558,
            method: AmberMethod::Pme,
            grid_points: 64.0 * 64.0 * 64.0,
            steps: 100,
        }
    }

    /// The five Table 6 benchmarks in column order.
    pub fn all() -> Vec<Self> {
        vec![Self::dhfr(), Self::factor_ix(), Self::gb_cox2(), Self::gb_mb(), Self::jac()]
    }

    /// Appends the full run to a world.
    pub fn append_run(&self, world: &mut CommWorld<'_>) {
        for _ in 0..self.steps {
            match self.method {
                AmberMethod::Pme => self.append_pme_step(world),
                AmberMethod::Gb => self.append_gb_step(world),
            }
        }
    }

    /// Appends only the FFT-related part of a PME step (what the paper's
    /// Table 7 times in the JAC benchmark): grid reduction, forward FFT,
    /// reciprocal multiply, inverse FFT.
    pub fn append_pme_fft_part(&self, world: &mut CommWorld<'_>) {
        let p = world.size() as f64;
        let grid_local = self.grid_points / p;
        // Partial grid reduction (slab sums).
        if world.size() > 1 {
            world.allreduce(grid_local * C64);
        }
        // Forward 3-D FFT: local passes + transpose.
        for _ in 0..2 {
            let pass = fft_pass_phase(grid_local, self.grid_points, 0.5);
            world.compute_all(|_| Some(pass.clone()));
            if world.size() > 1 {
                world.alltoall(grid_local * C64 / p);
            }
        }
        // Reciprocal-space multiply.
        let recip = ComputePhase::new(
            "pme-recip",
            6.0 * grid_local,
            TrafficProfile::stream(2.0 * grid_local * C64),
        )
        .with_efficiency(0.4);
        world.compute_all(|_| Some(recip.clone()));
        // Inverse FFT.
        for _ in 0..2 {
            let pass = fft_pass_phase(grid_local, self.grid_points, 0.5);
            world.compute_all(|_| Some(pass.clone()));
            if world.size() > 1 {
                world.alltoall(grid_local * C64 / p);
            }
        }
    }

    fn append_pme_step(&self, world: &mut CommWorld<'_>) {
        let p = world.size() as f64;
        let atoms_local = self.atoms as f64 / p;

        // Direct-space sweep: ~300 neighbour pairs per atom, ~40 flops
        // per pair (erfc interpolation + LJ); each pair re-reads its
        // neighbour's coordinates, so the loop touches ~16 B per pair.
        let direct = ComputePhase::new(
            "pme-direct",
            atoms_local * 300.0 * 40.0,
            TrafficProfile::stream_over(atoms_local * 300.0 * 16.0, atoms_local * 450.0),
        )
        .with_efficiency(0.28);
        world.compute_all(|_| Some(direct.clone()));

        // B-spline charge spreading: 4x4x4 grid points per atom, strided
        // writes into a full per-rank grid copy (sander 8 kept one per
        // rank — hence the grid reduction below).
        let spread = ComputePhase::new(
            "pme-spread",
            atoms_local * 64.0 * 8.0,
            TrafficProfile::strided(atoms_local * 64.0 * F64 * 2.0, self.grid_points * C64),
        )
        .with_efficiency(0.3);
        world.compute_all(|_| Some(spread.clone()));

        self.append_pme_fft_part(world);

        // Force interpolation back from the grid.
        let interp = spread.clone();
        world.compute_all(|_| Some(interp.clone()));

        if world.size() > 1 {
            // Coordinate halo with spatial neighbours.
            world.halo_1d(24.0 * atoms_local * 0.3);
            // sander's global force reduction — its notorious scaling
            // limiter.
            world.allreduce(3.0 * F64 * self.atoms as f64);
            // Energy/virial scalars.
            world.allreduce(8.0 * F64);
        }
    }

    fn append_gb_step(&self, world: &mut CommWorld<'_>) {
        let p = world.size() as f64;
        let n = self.atoms as f64;
        let pair_share = n * n / p;

        // Effective Born radii: an O(N^2) pass, cache-resident working
        // set (coordinates + radii only).
        let radii = ComputePhase::new(
            "gb-radii",
            pair_share * 12.0,
            TrafficProfile::blocked(pair_share * 8.0, n * 60.0, 64.0),
        )
        .with_efficiency(0.45);
        world.compute_all(|_| Some(radii.clone()));

        // GB energy/force pass: another O(N^2) sweep with exp/sqrt-heavy
        // inner loops.
        let force = ComputePhase::new(
            "gb-force",
            pair_share * 28.0,
            TrafficProfile::blocked(pair_share * 8.0, n * 60.0, 64.0),
        )
        .with_efficiency(0.45);
        world.compute_all(|_| Some(force.clone()));

        if world.size() > 1 {
            // Everyone needs all coordinates: ring allgather.
            world.allgather(24.0 * n / p);
            world.allreduce(8.0 * F64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::Scheme;
    use corescope_machine::{systems, Machine, RunReport};
    use corescope_smpi::{LockLayer, MpiImpl};

    fn report(bench: &AmberBenchmark, machine: &Machine, n: usize, scheme: Scheme) -> RunReport {
        let placements = scheme.resolve(machine, n).unwrap();
        let mut w =
            CommWorld::new(machine, placements, MpiImpl::Mpich2.profile(), LockLayer::USysV);
        bench.append_run(&mut w);
        w.run().unwrap()
    }

    fn run(bench: &AmberBenchmark, machine: &Machine, n: usize, scheme: Scheme) -> f64 {
        report(bench, machine, n, scheme).makespan
    }

    #[test]
    fn table6_inventory() {
        let all = AmberBenchmark::all();
        assert_eq!(all.len(), 5);
        let atoms: Vec<usize> = all.iter().map(|b| b.atoms).collect();
        assert_eq!(atoms, vec![22_930, 90_906, 18_056, 2_492, 23_558]);
        assert_eq!(all[2].method, AmberMethod::Gb);
        assert_eq!(all[4].name, "JAC");
    }

    #[test]
    fn jac_overall_time_is_in_paper_ballpark() {
        // Table 9: JAC, 2 tasks, Longs default = 38.08 s.
        let m = Machine::new(systems::longs());
        let t = run(&AmberBenchmark::jac(), &m, 2, Scheme::Default);
        assert!(t > 19.0 && t < 76.0, "JAC 2 tasks = {t:.1} s (paper 38.08)");
    }

    #[test]
    fn jac_fft_part_is_a_small_fraction() {
        // Table 7 vs Table 9: the FFT part is ~3.1 s of 38.1 s at 2 tasks.
        let m = Machine::new(systems::longs());
        let placements = Scheme::Default.resolve(&m, 2).unwrap();
        let mut w = CommWorld::new(&m, placements, MpiImpl::Mpich2.profile(), LockLayer::USysV);
        let jac = AmberBenchmark::jac();
        for _ in 0..jac.steps {
            jac.append_pme_fft_part(&mut w);
        }
        let fft_t = w.run().unwrap().makespan;
        let total = run(&jac, &m, 2, Scheme::Default);
        let share = fft_t / total;
        assert!(share > 0.03 && share < 0.25, "FFT share {share:.2} (paper: 3.13/38.08 = 0.082)");
    }

    #[test]
    fn gb_scales_nearly_linearly() {
        // Table 8: gb_mb reaches 14.93x on 16 cores.
        let m = Machine::new(systems::longs());
        let mut bench = AmberBenchmark::gb_mb();
        bench.steps = 20;
        let t2 = run(&bench, &m, 2, Scheme::TwoMpiLocalAlloc);
        let t16 = run(&bench, &m, 16, Scheme::TwoMpiLocalAlloc);
        let gain = t2 / t16;
        assert!(gain > 5.5, "GB 2->16 gain {gain:.1} should be near the 8x ideal");
    }

    #[test]
    fn pme_scales_worse_than_gb() {
        // Table 8: at 16 cores PME reaches ~7-8x vs GB's ~14-15x.
        let m = Machine::new(systems::longs());
        let mut jac = AmberBenchmark::jac();
        jac.steps = 10;
        let mut gb = AmberBenchmark::gb_mb();
        gb.steps = 20;
        let pme_gain = run(&jac, &m, 2, Scheme::TwoMpiLocalAlloc)
            / run(&jac, &m, 16, Scheme::TwoMpiLocalAlloc);
        let gb_gain =
            run(&gb, &m, 2, Scheme::TwoMpiLocalAlloc) / run(&gb, &m, 16, Scheme::TwoMpiLocalAlloc);
        assert!(pme_gain < gb_gain, "PME gain {pme_gain:.1} must trail GB gain {gb_gain:.1}");
    }

    #[test]
    fn pme_solve_counts_are_deterministic() {
        // A 16-rank PME run poses thousands of distinct flow sets. Keyed
        // by flow kind ids, a stored problem costs a few words per flow,
        // so the solver memo's budget holds the run's recurring problems
        // and most solves find theirs stored. Both counts are fixed by the
        // program.
        let m = Machine::new(systems::longs());
        let mut jac = AmberBenchmark::jac();
        jac.steps = 10;
        let metrics = report(&jac, &m, 16, Scheme::TwoMpiLocalAlloc).metrics;
        assert_eq!((metrics.solves, metrics.solves_reused), (24456, 20125));
    }

    #[test]
    fn jac_interleave_hurts_at_16_ranks() {
        // Table 9: 16 tasks, Interleave = 14.99 s vs Two MPI + Local
        // Alloc = 8.95 s.
        let m = Machine::new(systems::longs());
        let mut jac = AmberBenchmark::jac();
        jac.steps = 10;
        // The paper measures a 1.67x penalty; the model reproduces the
        // direction with a smaller magnitude because JAC's dominant
        // direct-space phase stays cpu-bound (EXPERIMENTS.md notes the
        // deviation).
        let good = run(&jac, &m, 16, Scheme::TwoMpiLocalAlloc);
        let bad = run(&jac, &m, 16, Scheme::Interleave);
        assert!(bad > 1.04 * good, "interleave {bad:.2} vs localalloc {good:.2}");
    }
}
