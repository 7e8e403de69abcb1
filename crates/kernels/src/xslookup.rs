//! XSBench-style neutron cross-section lookup: real unionized-grid
//! kernel plus the Single / Star workload models.
//!
//! The real kernel reproduces the hot loop of a Monte Carlo transport
//! macroscopic-cross-section calculation (Tramm et al.'s XSBench): draw a
//! pseudo-random energy, binary-search the unionized energy grid for the
//! bracketing interval, then linearly interpolate five cross-section
//! channels for every nuclide and accumulate the macroscopic totals. Each
//! lookup is independent and seeded by its global index, so partitioning
//! the lookup stream across threads or ranks cannot change any result —
//! the property the correctness tests pin down and the reason the
//! workload scales as an embarrassingly parallel, latency-bound stream of
//! dependent random reads.

use crate::F64;
use corescope_machine::{ComputePhase, TrafficProfile};
use corescope_smpi::CommWorld;

/// Cross-section channels per (grid point, nuclide): total, elastic,
/// absorption, fission, nu-fission — XSBench's five.
pub const CHANNELS: usize = 5;

/// SplitMix64 finalizer: a stateless, high-quality 64-bit mix.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The energy drawn by lookup `index` under `seed`, in the open unit
/// interval. Stateless per index: lookup `i` samples the same energy no
/// matter which thread or rank executes it.
pub fn lookup_energy(seed: u64, index: u64) -> f64 {
    // 53 random bits → (0, 1); +1 keeps the value strictly positive.
    ((mix64(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)) >> 11) + 1) as f64
        / (1u64 << 53) as f64
}

/// A unionized cross-section table: one sorted energy grid shared by all
/// nuclides, with [`CHANNELS`] values per (grid point, nuclide).
///
/// Data layout matches the traffic model in [`XsParams::phase`]: the
/// per-grid-point rows of all nuclides are contiguous
/// (`data[point * nuclides * CHANNELS + nuclide * CHANNELS + channel]`),
/// so one lookup touches two contiguous row blocks plus the binary-search
/// path through the grid.
#[derive(Debug, Clone)]
pub struct XsTable {
    /// Sorted unionized energy grid, strictly inside (0, 1).
    pub grid: Vec<f64>,
    /// Per-point, per-nuclide channel values.
    pub data: Vec<f64>,
    /// Nuclides in the material.
    pub nuclides: usize,
}

impl XsTable {
    /// Builds a deterministic table with `grid_points` energies and
    /// `nuclides` nuclides from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `grid_points < 2` or `nuclides == 0`.
    pub fn new(grid_points: usize, nuclides: usize, seed: u64) -> Self {
        assert!(grid_points >= 2, "need at least two grid points to interpolate");
        assert!(nuclides > 0, "need at least one nuclide");
        let mut grid: Vec<f64> =
            (0..grid_points as u64).map(|i| lookup_energy(seed ^ 0x6u64, i)).collect();
        grid.sort_by(f64::total_cmp);
        grid.dedup();
        // Duplicates are astronomically unlikely but dedup can shrink the
        // grid; top it back up deterministically.
        let mut bump = grid_points as u64;
        while grid.len() < grid_points {
            grid.push(lookup_energy(seed ^ 0x6u64, bump));
            bump += 1;
            grid.sort_by(f64::total_cmp);
            grid.dedup();
        }
        let data: Vec<f64> = (0..(grid_points * nuclides * CHANNELS) as u64)
            .map(|i| 1.0 + (mix64(seed ^ i) >> 40) as f64 / (1u64 << 24) as f64)
            .collect();
        Self { grid, data, nuclides }
    }

    /// Index of the grid interval bracketing `energy`: the largest `i`
    /// with `grid[i] <= energy`, clamped to `[0, len - 2]`.
    pub fn bracket(&self, energy: f64) -> usize {
        let i = self.grid.partition_point(|&g| g <= energy);
        i.saturating_sub(1).min(self.grid.len() - 2)
    }

    /// Macroscopic cross sections at `energy`: per-channel sums of the
    /// linear interpolation between the bracketing rows of every nuclide.
    pub fn macro_xs(&self, energy: f64) -> [f64; CHANNELS] {
        let lo = self.bracket(energy);
        let (e0, e1) = (self.grid[lo], self.grid[lo + 1]);
        let f = ((energy - e0) / (e1 - e0)).clamp(0.0, 1.0);
        let row = |point: usize, nuclide: usize| {
            let base = (point * self.nuclides + nuclide) * CHANNELS;
            &self.data[base..base + CHANNELS]
        };
        let mut out = [0.0; CHANNELS];
        for n in 0..self.nuclides {
            let (a, b) = (row(lo, n), row(lo + 1, n));
            for c in 0..CHANNELS {
                out[c] += a[c] + f * (b[c] - a[c]);
            }
        }
        out
    }
}

/// Runs lookups `start .. start + count` of the seeded stream and folds
/// each result into an XOR checksum. XOR commutes, and every lookup is a
/// pure function of `(table, seed, index)`, so any partition of the index
/// range — across threads, ranks, or chunk sizes, combined in any order —
/// yields the same checksum.
pub fn run_lookups(table: &XsTable, seed: u64, start: u64, count: u64) -> u64 {
    let span = table.grid[table.grid.len() - 1] - table.grid[0];
    let mut checksum = 0u64;
    for i in start..start + count {
        let energy = table.grid[0] + span * lookup_energy(seed, i);
        let xs = table.macro_xs(energy);
        let mut h = i;
        for v in xs {
            h = mix64(h ^ v.to_bits());
        }
        checksum ^= h;
    }
    checksum
}

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

    fn small_table() -> XsTable {
        XsTable::new(4096, 16, 42)
    }

    #[test]
    fn checksum_is_deterministic_and_seed_sensitive() {
        let t = small_table();
        assert_eq!(run_lookups(&t, 7, 0, 1000), run_lookups(&t, 7, 0, 1000));
        assert_ne!(run_lookups(&t, 7, 0, 1000), run_lookups(&t, 8, 0, 1000));
    }

    #[test]
    fn checksum_is_independent_of_partitioning() {
        // The property that makes thread count / rank layout irrelevant:
        // any chunking of the index range, combined in any order, XORs to
        // the full-range checksum.
        let t = small_table();
        let full = run_lookups(&t, 7, 0, 1024);
        for chunk in [1u64, 3, 64, 333, 1024] {
            let mut acc = 0u64;
            let mut start = 0;
            let mut parts = Vec::new();
            while start < 1024 {
                let count = chunk.min(1024 - start);
                parts.push(run_lookups(&t, 7, start, count));
                start += count;
            }
            parts.reverse(); // combine in reverse "thread" order
            for p in parts {
                acc ^= p;
            }
            assert_eq!(acc, full, "chunk size {chunk} changed the checksum");
        }
    }

    #[test]
    fn grid_is_sorted_and_lookup_brackets_correctly() {
        let t = small_table();
        assert!(t.grid.windows(2).all(|w| w[0] < w[1]), "grid must be strictly sorted");
        // An energy exactly on a grid point interpolates to that row.
        for &point in &[0usize, 1, 100, 4094] {
            let lo = t.bracket(t.grid[point]);
            assert_eq!(lo, point.min(t.grid.len() - 2));
        }
        // Below/above the grid clamps to the first/last interval.
        assert_eq!(t.bracket(0.0), 0);
        assert_eq!(t.bracket(1.0), t.grid.len() - 2);
    }

    #[test]
    fn interpolation_is_exact_at_grid_points_and_bounded_between() {
        let t = small_table();
        let point = 17;
        let xs = t.macro_xs(t.grid[point]);
        for (c, &v) in xs.iter().enumerate() {
            let exact: f64 =
                (0..t.nuclides).map(|n| t.data[(point * t.nuclides + n) * CHANNELS + c]).sum();
            assert!((v - exact).abs() < 1e-9 * exact, "channel {c}: {v} vs {exact}");
        }
        // Between two grid points, every channel lies between the rows.
        let mid = 0.5 * (t.grid[17] + t.grid[18]);
        let xs_mid = t.macro_xs(mid);
        let row_sum = |point: usize, c: usize| -> f64 {
            (0..t.nuclides).map(|n| t.data[(point * t.nuclides + n) * CHANNELS + c]).sum()
        };
        for (c, &v) in xs_mid.iter().enumerate() {
            let (a, b) = (row_sum(17, c), row_sum(18, c));
            assert!(v >= a.min(b) - 1e-12 && v <= a.max(b) + 1e-12);
        }
    }

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
