//! Seeded input generators. Every workload draws its scenarios from here,
//! so one `--seed` always yields the same inputs and another seed yields
//! different ones. The suite alone has fixed inputs (the artifact list).
//!
//! The sweep generator is stratified: each pass visits every placeable
//! (system, world size, workload kind) cell exactly once, in grid order,
//! and cycles each cell through its placements and MPI stacks from a
//! seeded starting point. Per-run cost spans four orders of magnitude
//! between cells and about 2x between placements of one cell, so drawing
//! either at random would make a run's total cost depend on the seed more
//! than on the code.

use corescope_affinity::Scheme;
use corescope_apps::xs::first_touch_crossover_bytes;
use corescope_kernels::blas::BlasVariant;
use corescope_kernels::cg::CgClass;
use corescope_kernels::nasft::FtClass;
use corescope_kernels::stream::StreamKernel;
use corescope_machine::{CheckpointPolicy, CoreId, FaultPlan, RankId, SocketId};
use corescope_sched::{Fidelity, Placement, Scenario, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// World sizes the generators draw from.
const NRANKS: [usize; 5] = [1, 2, 4, 8, 16];

/// Nuclides in the generated cross-section tables, and the bytes one
/// unionized grid point of such a table takes (`XsParams::table_bytes`).
const XS_NUCLIDES: u64 = 64;
const XS_BYTES_PER_POINT: f64 = 8.0 * (1.0 + 5.0 * XS_NUCLIDES as f64);

/// Table sizes relative to the first-touch spill boundary: one below,
/// one above, never on it (the boundary itself is a modeled tie).
const XS_RATIOS: [f64; 2] = [0.5, 1.5];

/// Workload kinds the sweep covers: every `Workload` variant, in
/// declaration order.
const KINDS: usize = 19;
const PINGPONG: usize = 12;

/// The resilience BSP: X5's step at quick fidelity.
const BSP_STEPS: usize = 20;
const BSP_FLOPS: f64 = 5.0e6;
const BSP_BYTES: f64 = 8.0e6;

const KERNELS: [StreamKernel; 4] =
    [StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add, StreamKernel::Triad];
const VARIANTS: [BlasVariant; 2] = [BlasVariant::Acml, BlasVariant::Vanilla];
const LOCKS: [LockLayer; 2] = [LockLayer::SysV, LockLayer::USysV];
const DAXPY_SIZES: [usize; 5] = [10_000, 50_000, 250_000, 1_000_000, 10_000_000];
const PINGPONG_BYTES: [f64; 4] = [8.0, 1024.0, 65536.0, 1.0e6];

/// One placeable (system, world size) pair.
#[derive(Debug, Clone)]
pub struct Cell {
    system: System,
    nranks: usize,
    /// Placements that can host the world, each with its first-touch
    /// spill boundary in grid points of a generated table.
    placements: Vec<(Placement, f64)>,
    /// Fault-free makespan of the resilience BSP, which scales its fault
    /// and checkpoint times.
    bsp_makespan: f64,
    /// Whether the machine has a probe fabric to brown out.
    has_probe: bool,
}

/// The placeable cells of every system, resolved once per generator.
#[derive(Debug, Clone)]
pub struct Universe {
    cells: Vec<Cell>,
}

impl Universe {
    /// Resolves every placement on every system and world size, and runs
    /// the fault-free resilience BSP once per cell.
    ///
    /// # Errors
    ///
    /// Returns the engine error if a fault-free BSP fails to run.
    pub fn new() -> Result<Self, String> {
        let mut all: Vec<Placement> = Scheme::all().into_iter().map(Placement::Scheme).collect();
        all.push(Placement::ScatterLocal);
        let mut cells = Vec::new();
        for system in System::all() {
            let machine = system.machine();
            for nranks in NRANKS.into_iter().filter(|&n| n <= machine.num_cores()) {
                let placements: Vec<(Placement, f64)> = all
                    .iter()
                    .filter_map(|&placement| {
                        let resolved = placement.resolve(&machine, nranks).ok()?;
                        let cores: Vec<CoreId> = resolved.iter().map(|p| p.core).collect();
                        let boundary = first_touch_crossover_bytes(&machine, &cores);
                        Some((placement, boundary / XS_BYTES_PER_POINT))
                    })
                    .collect();
                if placements.is_empty() {
                    continue;
                }
                let mut cell =
                    Cell { system, nranks, placements, bsp_makespan: 0.0, has_probe: true };
                cell.bsp_makespan = resilience_base(&cell, 0)
                    .run()
                    .map_err(|e| format!("fault-free BSP on {} x{nranks}: {e}", system.key()))?
                    .makespan;
                // Only the engine knows whether a machine has a probe
                // fabric to brown out.
                cell.has_probe = resilience(&cell, false, 0).run().is_ok();
                cells.push(cell);
            }
        }
        Ok(Self { cells })
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The MPI stack at position `at` of a cell's cycle.
fn stack(at: usize) -> (MpiImpl, LockLayer) {
    (MpiImpl::all()[at % 3], LOCKS[at / 3 % 2])
}

/// The workload of sweep kind `kind` at quick-fidelity sizes. `pass`
/// perturbs one parameter that engine cost does not depend on, so every
/// pass over the grid yields new digests at the same cost.
fn sweep_workload(kind: usize, xs_points: f64, pass: usize, rng: &mut SmallRng) -> Workload {
    let p = pass as f64;
    // RandomAccess runs a quarter of f11's quick update count: at the full
    // count one MPI cell on 16 ranks was 45% of a pass and its cost
    // doubled between placements, so the pass cost followed the seed.
    let (table_words_per_rank, updates_per_rank) = ((1 << 21) + pass as u64, 1 << 14);
    match kind {
        0 => Workload::Bsp {
            steps: BSP_STEPS,
            flops_per_step: BSP_FLOPS,
            bytes_per_step: BSP_BYTES,
            sync_bytes: 8.0 + p,
        },
        1 => Workload::StreamSingle {
            kernel: pick(rng, &KERNELS),
            elements_per_rank: 4_000_000 + pass,
            sweeps: 2,
        },
        2 => Workload::StreamStar {
            kernel: pick(rng, &KERNELS),
            elements_per_rank: 4_000_000 + pass,
            sweeps: 2,
        },
        3 => Workload::Hpl { n: 4096, nb: 256, dgemm_efficiency: 0.85 - 1e-5 * p },
        4 => Workload::DgemmSingle { n: 1000 + pass, reps: 1, variant: pick(rng, &VARIANTS) },
        5 => Workload::DgemmStar { n: 1000 + pass, reps: 1, variant: pick(rng, &VARIANTS) },
        6 => Workload::FftSingle { points_per_rank: (1 << 20) + pass, reps: 1 },
        7 => Workload::FftStar { points_per_rank: (1 << 20) + pass, reps: 1 },
        8 => Workload::RandomAccessSingle { table_words_per_rank, updates_per_rank },
        9 => Workload::RandomAccessStar { table_words_per_rank, updates_per_rank },
        10 => Workload::RandomAccessMpi { table_words_per_rank, updates_per_rank },
        11 => Workload::Ptrans { n: 2048, reps: 1, block_bytes: 8192.0 + p },
        PINGPONG => Workload::PingPong { bytes: pick(rng, &PINGPONG_BYTES) + p, reps: 10 },
        13 => Workload::NasCg { class: CgClass::A },
        14 => Workload::NasFt { class: FtClass::A },
        15 => Workload::DaxpySingle {
            n: pick(rng, &DAXPY_SIZES) + pass,
            reps: 5,
            variant: pick(rng, &VARIANTS),
        },
        16 => Workload::DaxpyStar {
            n: pick(rng, &DAXPY_SIZES) + pass,
            reps: 5,
            variant: pick(rng, &VARIANTS),
        },
        17 | 18 => {
            let grid_points = xs_points as u64 + pass as u64;
            let (nuclides, lookups_per_rank) = (XS_NUCLIDES, (1 << 20) / 10);
            if kind == 17 {
                Workload::XsLookupSingle { grid_points, nuclides, lookups_per_rank }
            } else {
                Workload::XsLookupStar { grid_points, nuclides, lookups_per_rank }
            }
        }
        _ => unreachable!("sweep kind {kind} out of range"),
    }
}

/// The BSP the resilience scenarios start from, at the cell's first
/// placement (the one its makespan was measured on).
fn resilience_base(cell: &Cell, pass: usize) -> Scenario {
    Scenario::new(
        cell.system,
        cell.nranks,
        Workload::Bsp {
            steps: BSP_STEPS,
            flops_per_step: BSP_FLOPS,
            bytes_per_step: BSP_BYTES,
            sync_bytes: 8.0 + pass as f64,
        },
    )
    .with_fidelity(Fidelity::Quick)
    .with_placement(cell.placements[0].0)
}

/// An X3-style transient fault plan (controller throttle and probe
/// brownout, both restored), or an X5-style checkpointed run that loses
/// its last rank after 60% of the fault-free makespan and rolls back.
fn resilience(cell: &Cell, checkpointed: bool, pass: usize) -> Scenario {
    let t = cell.bsp_makespan;
    let base = resilience_base(cell, pass);
    if checkpointed {
        return base
            .with_recovery(CheckpointPolicy::new(0.25 * t, 1.0e6))
            .with_faults(FaultPlan::new().rank_kill(0.6 * t, RankId::new(cell.nranks - 1)));
    }
    let mut plan = FaultPlan::new()
        .controller_throttle(0.2 * t, SocketId::new(0), 0.5)
        .controller_restore(0.5 * t, SocketId::new(0));
    if cell.has_probe {
        plan = plan.probe_brownout(0.3 * t, 0.5).probe_restore(0.7 * t);
    }
    base.with_faults(plan)
}

/// Which cells a sweep covers.
#[derive(Debug, Clone, Copy)]
pub struct SweepShape {
    /// Passes over the grid.
    pub passes: usize,
    /// Largest world size drawn.
    pub max_ranks: usize,
    /// Whether each pass adds two resilience scenarios per cell (about
    /// one scenario in ten).
    pub resilience: bool,
}

/// Stratified passes over the grid, generated one at a time. Each pass is
/// in grid order (systems, then world sizes, then kinds), so every pass
/// costs about the same and ends on the same heavy cells whatever the
/// seed. Every scenario is valid and placeable and every digest is
/// distinct.
#[derive(Debug)]
pub struct Sweep<'u> {
    cells: Vec<&'u Cell>,
    resilience: bool,
    /// Each (cell, stratum)'s starting point in its placement and stack
    /// cycles.
    offsets: Vec<usize>,
    seen: HashSet<u128>,
    rng: SmallRng,
    /// The next pass's number, and how far each pass advances it.
    pass: usize,
    step: usize,
}

/// Strata per cell: every kind plus the two resilience scenarios.
const STRATA: usize = KINDS + 2;

impl<'u> Sweep<'u> {
    /// A generator of the passes `shape` describes (`shape.passes` is not
    /// used: it yields passes for as long as it is asked).
    pub fn new(universe: &'u Universe, seed: u64, shape: SweepShape) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cells: Vec<&Cell> =
            universe.cells.iter().filter(|c| c.nranks <= shape.max_ranks).collect();
        // 840 is divisible by every cycle length (placements, stacks, ratios).
        let offsets = (0..cells.len() * STRATA).map(|_| rng.gen_range(0..840)).collect();
        Self {
            cells,
            resilience: shape.resilience,
            offsets,
            seen: HashSet::new(),
            rng,
            pass: 0,
            step: 1,
        }
    }

    /// Yields only every `of`-th pass, starting at pass `part`, so that
    /// `of` generators with one seed yield disjoint scenarios (up to the
    /// NAS kinds, which have no parameter a pass can perturb).
    pub fn part(mut self, part: usize, of: usize) -> Self {
        (self.pass, self.step) = (part, of.max(1));
        self
    }

    /// The next pass.
    pub fn next_pass(&mut self) -> Vec<Scenario> {
        let pass = self.pass;
        self.pass += self.step;
        let rng = &mut self.rng;
        let mut out = Vec::new();
        for (c, cell) in self.cells.iter().enumerate() {
            for kind in 0..KINDS {
                if kind == PINGPONG && cell.nranks < 2 {
                    continue;
                }
                let at = self.offsets[c * STRATA + kind] + pass;
                let (mut placement, xs_points) = cell.placements[at % cell.placements.len()];
                let (mut mpi, mut lock) = stack(at);
                let xs_points = xs_points * XS_RATIOS[at / 6 % 2];
                // A redraw is needed only once a kind without a tweakable
                // parameter (NAS) has used up its cycle.
                for _ in 0..64 {
                    let workload = sweep_workload(kind, xs_points, pass, rng);
                    let scenario = Scenario::new(cell.system, cell.nranks, workload)
                        .with_fidelity(Fidelity::Quick)
                        .with_placement(placement)
                        .with_mpi(mpi)
                        .with_lock(lock);
                    if self.seen.insert(scenario.digest().0) {
                        out.push(scenario);
                        break;
                    }
                    placement = pick(rng, &cell.placements).0;
                    (mpi, lock) = stack(rng.gen_range(0..6));
                }
            }
            if self.resilience {
                for (r, checkpointed) in [false, true].into_iter().enumerate() {
                    let at = self.offsets[c * STRATA + KINDS + r] + pass;
                    let (mpi, lock) = stack(at);
                    let scenario =
                        resilience(cell, checkpointed, pass).with_mpi(mpi).with_lock(lock);
                    if self.seen.insert(scenario.digest().0) {
                        out.push(scenario);
                    }
                }
            }
        }
        out
    }
}

/// The first `shape.passes` passes of [`Sweep`].
pub fn sweep(universe: &Universe, seed: u64, shape: SweepShape) -> Vec<Vec<Scenario>> {
    let mut passes = Sweep::new(universe, seed, shape);
    (0..shape.passes).map(|_| passes.next_pass()).collect()
}

/// `n` distinct cheap scenarios: PingPong, STREAM, DGEMM, DAXPY, FFT and
/// cross-section lookups at tiny sizes, world sizes up to 4, on every
/// system. Scenario `i` folds `i` into one size parameter, so digests
/// are distinct by construction.
pub fn cheap(universe: &Universe, seed: u64, n: usize) -> Vec<Scenario> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cells: Vec<&Cell> = universe.cells.iter().filter(|c| c.nranks <= 4).collect();
    (0..n)
        .map(|i| {
            let cell = pick(&mut rng, &cells);
            let kinds = if cell.nranks < 2 { 10 } else { 11 };
            let (n64, n1k) = (64 + i, 1000 + i);
            let workload = match rng.gen_range(0..kinds) {
                0 => Workload::StreamSingle {
                    kernel: pick(&mut rng, &KERNELS),
                    elements_per_rank: 10_000 + i,
                    sweeps: 1,
                },
                1 => Workload::StreamStar {
                    kernel: pick(&mut rng, &KERNELS),
                    elements_per_rank: 10_000 + i,
                    sweeps: 1,
                },
                2 => Workload::DgemmSingle { n: n64, reps: 1, variant: pick(&mut rng, &VARIANTS) },
                3 => Workload::DgemmStar { n: n64, reps: 1, variant: pick(&mut rng, &VARIANTS) },
                4 => Workload::DaxpySingle { n: n1k, reps: 1, variant: pick(&mut rng, &VARIANTS) },
                5 => Workload::DaxpyStar { n: n1k, reps: 1, variant: pick(&mut rng, &VARIANTS) },
                6 => Workload::FftSingle { points_per_rank: 1024 + i, reps: 1 },
                7 => Workload::FftStar { points_per_rank: 1024 + i, reps: 1 },
                8 => Workload::XsLookupSingle {
                    grid_points: n1k as u64,
                    nuclides: 8,
                    lookups_per_rank: 1000,
                },
                9 => Workload::XsLookupStar {
                    grid_points: n1k as u64,
                    nuclides: 8,
                    lookups_per_rank: 1000,
                },
                _ => Workload::PingPong { bytes: 8.0 + i as f64, reps: 2 },
            };
            let (mpi, lock) = stack(rng.gen_range(0..6));
            Scenario::new(cell.system, cell.nranks, workload)
                .with_fidelity(Fidelity::Quick)
                .with_placement(pick(&mut rng, &cell.placements).0)
                .with_mpi(mpi)
                .with_lock(lock)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(passes: usize) -> SweepShape {
        SweepShape { passes, max_ranks: 16, resilience: true }
    }

    fn digests(scenarios: &[Scenario]) -> Vec<u128> {
        scenarios.iter().map(|s| s.digest().0).collect()
    }

    fn flat(universe: &Universe, seed: u64, passes: usize) -> Vec<Scenario> {
        sweep(universe, seed, shape(passes)).concat()
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let universe = Universe::new().unwrap();
        let a = flat(&universe, 7, 1);
        assert_eq!(digests(&a), digests(&flat(&universe, 7, 1)));
        assert_ne!(digests(&a), digests(&flat(&universe, 8, 1)));
        let c = cheap(&universe, 7, 300);
        assert_eq!(digests(&c), digests(&cheap(&universe, 7, 300)));
        assert_ne!(digests(&c), digests(&cheap(&universe, 8, 300)));
    }

    #[test]
    fn sweep_covers_the_axes_with_distinct_valid_placeable_scenarios() {
        let universe = Universe::new().unwrap();
        let passes = sweep(&universe, 2006, shape(2));
        assert_eq!(passes[0].len(), passes[1].len(), "every pass covers the same cells");
        let scenarios = passes.concat();
        let unique: HashSet<u128> = digests(&scenarios).into_iter().collect();
        assert_eq!(unique.len(), scenarios.len(), "digests must be distinct");
        let kinds: HashSet<&str> = scenarios.iter().map(|s| s.workload.kind()).collect();
        let systems: HashSet<&str> = scenarios.iter().map(|s| s.system.key()).collect();
        let ranks: HashSet<usize> = scenarios.iter().map(|s| s.nranks).collect();
        assert_eq!((kinds.len(), systems.len(), ranks.len()), (KINDS, 5, 5));
        let faulted = scenarios.iter().filter(|s| !s.faults.is_empty()).count();
        let share = faulted as f64 / scenarios.len() as f64;
        assert!((0.05..0.15).contains(&share), "fault/checkpoint share {share}");
        for s in &scenarios {
            s.validate().unwrap();
            assert!(s.placement.placeable(s.system, s.nranks), "{}", s.to_json());
        }
        let cheap = cheap(&universe, 2006, 2000);
        let unique: HashSet<u128> = digests(&cheap).into_iter().collect();
        assert_eq!(unique.len(), cheap.len());
    }

    #[test]
    fn parts_of_one_seed_yield_disjoint_scenarios_outside_nas() {
        let universe = Universe::new().unwrap();
        let shape = SweepShape { passes: 0, max_ranks: 4, resilience: false };
        let [a, b] = [0, 1].map(|part| {
            let mut passes = Sweep::new(&universe, 11, shape).part(part, 2);
            let scenarios: Vec<Scenario> = (0..3).flat_map(|_| passes.next_pass()).collect();
            let tweakable = scenarios.into_iter().filter(|s| !s.workload.kind().starts_with("nas"));
            tweakable.map(|s| s.digest().0).collect::<HashSet<u128>>()
        });
        assert!(!a.is_empty() && a.is_disjoint(&b));
    }
}
