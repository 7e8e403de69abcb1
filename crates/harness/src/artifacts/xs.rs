//! Extra X10: the NUMA crossover of the XSBench-style lookup family.
//!
//! The artifact sweeps the cross-section lookup proxy
//! ([`corescope_apps::xs`]) over per-rank table size × placement scheme
//! × active core count on DMZ and Longs, and *checks* the headline
//! claim rather than just printing it:
//!
//! - **first-touch wins small**: while every rank's table copy fits its
//!   local node's usable DIMM share, `localalloc` keeps every lookup
//!   local and strictly beats interleaving (which pays the machine-mean
//!   latency on every access);
//! - **interleave wins large**: once the per-rank table exceeds the
//!   node's share, first-touch's late ranks go mostly remote and the
//!   slowest rank falls behind interleave's uniform spread — the
//!   crossover XSBench-class codes show on real NUMA hardware. Above
//!   the boundary interleave must never trail first-touch and must
//!   strictly win at some swept size; it need not win at *every* large
//!   size, because far enough past the boundary the OS's uniform
//!   fallback hands first-touch's slowest (corner) rank the interleave
//!   layout verbatim and the two tie — visible in the Longs ×16 rows
//!   at 2× the boundary;
//! - **membind never beats first-touch on small tables**: forcing the
//!   table onto the centrality-ordered nodes makes distant ranks pay
//!   remote latency that first-touch would have avoided;
//! - **double-run determinism**: rendering the sweep twice through the
//!   scheduler must produce byte-identical CSV (the second pass is
//!   served from the result cache — zero extra engine runs — and CI
//!   additionally byte-diffs two separate `repro` processes).
//!
//! Table sizes are chosen relative to the machine's own first-touch
//! spill boundary ([`first_touch_crossover_bytes`]) so the sweep brackets
//! the crossover on every machine, deliberately avoiding the boundary
//! itself where the two placements tie.

use crate::aggregate::pivot_table;
use crate::context::makespans;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_apps::xs::first_touch_crossover_bytes;
use corescope_machine::{CoreId, Error, Result};
use corescope_sched::{Fidelity, Placement, Scenario, Scheduler, System, Workload};

pub(super) const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Nuclides in the unionized table (XSBench's "small" material set).
const NUCLIDES: u64 = 64;

/// Bytes per unionized grid point: one energy key plus five cross
/// sections per nuclide, all doubles (matches `XsParams::table_bytes`).
pub(super) const BYTES_PER_POINT: f64 = 8.0 * (1.0 + 5.0 * NUCLIDES as f64);

/// Per-rank table sizes as fractions of the machine's first-touch spill
/// boundary. The boundary itself (ratio 1.0) is a modeled tie, so the
/// sweep brackets it from both sides instead of sitting on it.
const SIZE_RATIOS: [f64; 4] = [0.25, 0.5, 1.5, 2.0];

/// The placement schemes under test, in column order: first-touch
/// (packed localalloc), round-robin interleave, centrality-ordered
/// membind.
const SCHEMES: [Scheme; 3] = [Scheme::TwoMpiLocalAlloc, Scheme::Interleave, Scheme::TwoMpiMembind];

/// A winner must beat the loser's lookup rate by at least this factor;
/// anything closer is a tie and fails the check as inconclusive.
const WIN_MARGIN: f64 = 1.02;

/// Above the spill boundary interleave may tie first-touch (the uniform
/// OS fallback) but must never fall measurably behind it.
const TIE_FLOOR: f64 = 0.999;

/// The swept machines with their active-core counts; the last count is
/// full packing, where the crossover checks apply.
fn sweeps() -> [(System, [usize; 2]); 2] {
    [(System::Dmz, [2, 4]), (System::Longs, [8, 16])]
}

fn xs_err(context: &str, detail: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("X10 {context}: {detail}"))
}

/// The first-touch spill boundary for `nranks` packed ranks, in bytes
/// per rank.
fn boundary_bytes(system: System, nranks: usize) -> Result<f64> {
    let machine = system.machine();
    let cores: Vec<CoreId> =
        Scheme::TwoMpiLocalAlloc.resolve(&machine, nranks)?.into_iter().map(|p| p.core).collect();
    Ok(first_touch_crossover_bytes(&machine, &cores))
}

pub(super) fn lookups_per_rank(fidelity: Fidelity) -> u64 {
    fidelity.steps(1 << 20) as u64
}

/// The lookup cell of Extras X10 and X11: XSBench-style lookups on every
/// one of `nranks` ranks, each over its own `grid_points`-point table, on
/// the LAM stack.
pub(super) fn scenario(
    system: System,
    nranks: usize,
    scheme: Scheme,
    grid_points: u64,
    fidelity: Fidelity,
) -> Scenario {
    Scenario::new(
        system,
        nranks,
        Workload::XsLookupStar {
            grid_points,
            nuclides: NUCLIDES,
            lookups_per_rank: lookups_per_rank(fidelity),
        },
    )
    .with_fidelity(fidelity)
    .with_placement(Placement::Scheme(scheme))
    .with_mpi(corescope_smpi::MpiImpl::Lam)
}

/// One rendered sweep: per-machine pivot tables plus the full-packing
/// rate matrix `[machine][size ratio][scheme]` the checks reason about.
struct Sweep {
    tables: Vec<Table>,
    full_pack_rates: Vec<Vec<Vec<f64>>>,
    scenarios: usize,
}

/// Enumerates the whole grid, runs it as one batch through `sched`, and
/// renders one aggregate-lookup-rate table per machine.
fn run_sweep(fidelity: Fidelity, sched: &Scheduler) -> Result<Sweep> {
    // Per-machine grid sizes, derived from the full-packing boundary.
    let mut grids: Vec<Vec<u64>> = Vec::new();
    let mut batch = Vec::new();
    for (system, counts) in sweeps() {
        let boundary = boundary_bytes(system, counts[counts.len() - 1])?;
        let grid: Vec<u64> =
            SIZE_RATIOS.iter().map(|r| (r * boundary / BYTES_PER_POINT).round() as u64).collect();
        for &nranks in &counts {
            for &grid_points in &grid {
                for scheme in SCHEMES {
                    batch.push(scenario(system, nranks, scheme, grid_points, fidelity));
                }
            }
        }
        grids.push(grid);
    }
    let scenarios = batch.len();
    let times = makespans(sched, &batch)?;

    let lookups = lookups_per_rank(fidelity) as f64;
    let mut tables = Vec::new();
    let mut full_pack_rates = Vec::new();
    let mut by_row = times.chunks(SCHEMES.len());
    for ((system, counts), grid) in sweeps().into_iter().zip(&grids) {
        let mut rows = Vec::new();
        let mut full_pack = vec![Vec::new(); SIZE_RATIOS.len()];
        for &nranks in &counts {
            for ((size, &grid_points), row) in grid.iter().enumerate().zip(&mut by_row) {
                // Aggregate lookup rate in Mlookups/s: higher is better,
                // monotone against the slowest rank's placement-weighted
                // latency.
                let rates: Vec<f64> =
                    row.iter().map(|t| nranks as f64 * lookups / t / 1e6).collect();
                if nranks == counts[counts.len() - 1] {
                    full_pack[size] = rates.clone();
                }
                let gib = grid_points as f64 * BYTES_PER_POINT / GIB;
                rows.push((
                    format!("{gib:.2} GiB x{nranks}"),
                    rates.into_iter().map(Some).collect(),
                ));
            }
        }
        let title = format!(
            "Extra X10: cross-section lookup rate on {} (Mlookups/s aggregate)",
            system.key()
        );
        let columns: Vec<&str> =
            std::iter::once("Table per rank").chain(SCHEMES.iter().map(|s| s.key())).collect();
        tables.push(pivot_table(&title, &columns, &rows)?);
        full_pack_rates.push(full_pack);
    }
    Ok(Sweep { tables, full_pack_rates, scenarios })
}

/// Extra X10 entry point.
///
/// # Errors
///
/// Propagates engine errors, and fails with a typed
/// [`Error::InvalidSpec`] when a crossover or determinism check is
/// violated.
pub fn extra10(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let sweep = run_sweep(fidelity, sched)?;
    let csv = |tables: &[Table]| tables.iter().map(Table::to_csv).collect::<Vec<_>>().join("\n");
    let first_pass = csv(&sweep.tables);

    // Double-run determinism: re-enumerate and re-render. The scheduler
    // serves the second pass from its result cache, so the bytes must
    // come out identical (CI repeats this across two processes).
    let second = run_sweep(fidelity, sched)?;
    if csv(&second.tables) != first_pass {
        return Err(xs_err("determinism", "second sweep rendered different bytes"));
    }

    // The crossover checks, at full packing on every machine. Columns
    // follow SCHEMES order: first-touch, interleave, membind.
    let small = 0;
    let above: Vec<usize> = (0..SIZE_RATIOS.len()).filter(|&i| SIZE_RATIOS[i] > 1.0).collect();
    let mut margins = Vec::new();
    for ((system, _), rates) in sweeps().into_iter().zip(&sweep.full_pack_rates) {
        let (ft, il, mb) = (0, 1, 2);
        let il_above = |fold: fn(f64, f64) -> f64, seed: f64| {
            above.iter().map(|&i| rates[i][il] / rates[i][ft]).fold(seed, fold)
        };
        let checks = [
            ("first-touch beats interleave small", rates[small][ft] / rates[small][il], WIN_MARGIN),
            ("first-touch beats membind small", rates[small][ft] / rates[small][mb], WIN_MARGIN),
            (
                "interleave never trails above the boundary",
                il_above(f64::min, f64::INFINITY),
                TIE_FLOOR,
            ),
            ("interleave wins above the boundary", il_above(f64::max, 0.0), WIN_MARGIN),
        ];
        for (what, margin, need) in checks {
            if margin.is_nan() || margin < need {
                return Err(xs_err(
                    system.key(),
                    format!("{what} violated: rate ratio {margin:.4} < {need}"),
                ));
            }
            margins.push((format!("{}: {what}", system.key()), margin));
        }
    }

    let crc = corescope_store::frame::crc32(first_pass.as_bytes());
    let mut proof = Table::with_columns(
        "Extra X10: NUMA-crossover proof (rate ratios, winner:loser)",
        &["check", "value", "status"],
    );
    proof.push_row(
        "sweep scenarios",
        vec![Cell::num_with(sweep.scenarios as f64, 0), Cell::text("ok")],
    )?;
    for (label, margin) in margins {
        proof.push_row(label, vec![Cell::num_with(margin, 4), Cell::text("ok")])?;
    }
    proof.push_row(
        "double run byte-identical (crc32)",
        vec![Cell::num_with(f64::from(crc), 0), Cell::text("ok")],
    )?;

    let mut tables = sweep.tables;
    tables.push(proof);
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra10_passes_its_own_checks_quick() {
        let sched = Scheduler::new(2);
        let tables = extra10(Fidelity::Quick, &sched).unwrap();
        assert_eq!(tables.len(), 3, "dmz, longs, proof");

        // Every machine table carries its full-packing block, and the
        // proof table records only passing checks (the artifact errors
        // out on any violation before rendering it).
        for (t, nranks) in [(&tables[0], 4), (&tables[1], 16)] {
            let csvs = t.to_csv();
            assert!(csvs.contains(&format!("x{nranks}")), "{csvs}");
            assert!(csvs.contains("two_localalloc"), "{csvs}");
        }
        let proof = tables[2].to_csv();
        assert!(proof.contains("interleave wins above the boundary"), "{proof}");
        assert!(!proof.contains("FAIL"), "{proof}");
    }

    #[test]
    fn extra10_is_deterministic_across_job_counts() {
        let a = extra10(Fidelity::Quick, &Scheduler::new(1)).unwrap();
        let b = extra10(Fidelity::Quick, &Scheduler::new(4)).unwrap();
        let fmt =
            |tables: &[Table]| tables.iter().map(|t| t.to_csv()).collect::<Vec<_>>().join("\n");
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn warm_cache_rerun_needs_no_engine_runs() {
        let sched = Scheduler::new(2);
        let _ = extra10(Fidelity::Quick, &sched).unwrap();
        let runs = sched.stats().engine_runs;
        let _ = extra10(Fidelity::Quick, &sched).unwrap();
        assert_eq!(sched.stats().engine_runs, runs, "second x10 pass must be pure cache hits");
    }

    #[test]
    fn the_sweep_brackets_the_boundary_on_both_machines() {
        for (system, counts) in sweeps() {
            let b = boundary_bytes(system, counts[1]).unwrap();
            assert!(b > 0.1 * GIB, "{}: boundary {b}", system.key());
            assert!(SIZE_RATIOS.first().unwrap() * b < b);
            assert!(SIZE_RATIOS.last().unwrap() * b > b);
        }
        // DMZ: 2 GiB/node x 0.75 usable / 2 packed ranks per node.
        let dmz = boundary_bytes(System::Dmz, 4).unwrap();
        assert!((dmz - 0.75 * GIB).abs() < 2.0 * BYTES_PER_POINT, "{dmz}");
    }
}
