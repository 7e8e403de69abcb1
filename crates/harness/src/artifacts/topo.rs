//! Extra X11: the "then vs now" generation study.
//!
//! The artifact sweeps full-packing STREAM and the XSBench-style lookup
//! proxy across every machine generation (`corescope_topo::Generation`)
//! — the 2006 Opterons plus the chiplet (EPYC-like) and HBM+DRAM tiered
//! machines — under the placement schemes the paper graded, and *checks
//! which 2006 verdicts flip* rather than just printing the grid:
//!
//! - **membind penalty vanishes on-package**: on DMZ, forcing
//!   `membind` packs four ranks' pages onto one DDR controller and
//!   roughly halves STREAM; on the chiplet machine the same policy
//!   spreads over all eight chiplet controllers (32 ranks need every
//!   node) and costs nothing;
//! - **interleave flips from loser to winner**: on DMZ, `localalloc`
//!   beats interleaving (remote pages pay the HyperTransport cap); on
//!   the tiered node interleaving *wins*, because striping over DRAM +
//!   HBM buys the extra controller's bandwidth;
//! - **the first-touch crossover moves with node capacity**: at 2 GiB
//!   per rank, Longs' 1.5 GiB usable share spills first-touch remote
//!   (interleave ties or wins — the X10 crossover), while the chiplet
//!   machine's 3 GiB share keeps every table local and first-touch
//!   wins again;
//! - **double-run determinism**: re-rendering the sweep through the
//!   scheduler must be byte-identical (the second pass is served from
//!   the result cache; CI additionally byte-diffs two processes).
//!
//! At least `REQUIRED_FLIPS` (two) verdicts must flip for the artifact to
//! pass — the quantified form of "the 2006 conclusions do not survive
//! the machine generations unchanged".

use crate::aggregate::pivot_table;
use crate::fidelity::Fidelity;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_machine::{Error, Result};
use corescope_sched::{Placement, Scenario, Scheduler, System, Workload};

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Nuclides in the lookup proxy's unionized table (matches X10).
const NUCLIDES: u64 = 64;

/// Bytes per unionized grid point (one energy key plus five cross
/// sections per nuclide, all doubles — matches `XsParams::table_bytes`).
const BYTES_PER_POINT: f64 = 8.0 * (1.0 + 5.0 * NUCLIDES as f64);

/// Per-rank lookup-table size for the crossover verdict: between
/// Longs' 1.5 GiB usable node share (first-touch spills) and the
/// chiplet machine's 3 GiB share (first-touch stays local).
const XS_TABLE_GIB: f64 = 2.0;

/// STREAM placement schemes, in column order: first-touch local,
/// round-robin interleave, centrality-ordered membind.
const STREAM_SCHEMES: [Scheme; 3] =
    [Scheme::TwoMpiLocalAlloc, Scheme::Interleave, Scheme::TwoMpiMembind];

/// Lookup placement schemes, in column order.
const XS_SCHEMES: [Scheme; 2] = [Scheme::TwoMpiLocalAlloc, Scheme::Interleave];

/// A winner must beat the loser by at least this rate ratio.
const WIN_MARGIN: f64 = 1.02;

/// A "penalty vanished" verdict needs the modern ratio at or below this.
const FREE_CEILING: f64 = 1.1;

/// The 2006 membind penalty must be at least this to count as a verdict.
const PENALTY_FLOOR: f64 = 1.4;

/// Above its spill boundary first-touch may tie interleave (the uniform
/// OS fallback) but must not measurably beat it.
const TIE_FLOOR: f64 = 0.999;

/// How many then-vs-now verdicts must flip for the artifact to pass.
const REQUIRED_FLIPS: usize = 2;

fn topo_err(context: &str, detail: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("X11 {context}: {detail}"))
}

fn stream_params(fidelity: Fidelity) -> corescope_kernels::stream::StreamParams {
    corescope_kernels::stream::StreamParams {
        sweeps: fidelity.steps(10).max(2),
        ..corescope_kernels::stream::StreamParams::default()
    }
}

fn lookups_per_rank(fidelity: Fidelity) -> u64 {
    fidelity.steps(1 << 20) as u64
}

fn stream_scenario(system: System, nranks: usize, scheme: Scheme, fidelity: Fidelity) -> Scenario {
    let p = stream_params(fidelity);
    Scenario::new(
        system,
        nranks,
        Workload::StreamStar {
            kernel: p.kernel,
            elements_per_rank: p.elements_per_rank,
            sweeps: p.sweeps,
        },
    )
    .with_fidelity(fidelity)
    .with_placement(Placement::Scheme(scheme))
    .with_mpi(corescope_smpi::MpiImpl::Lam)
}

fn xs_scenario(system: System, nranks: usize, scheme: Scheme, fidelity: Fidelity) -> Scenario {
    let grid_points = (XS_TABLE_GIB * GIB / BYTES_PER_POINT).round() as u64;
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

/// One rendered sweep: the STREAM and lookup pivot tables plus the raw
/// per-generation rate matrices the verdicts reason about.
struct Sweep {
    tables: Vec<Table>,
    /// `[generation][scheme]` per-core STREAM GB/s, `STREAM_SCHEMES` order.
    stream: Vec<Vec<f64>>,
    /// `[generation][scheme]` aggregate Mlookups/s, `XS_SCHEMES` order.
    xs: Vec<Vec<f64>>,
    scenarios: usize,
}

/// Enumerates the full generations × schemes grid at full packing, runs
/// it as one scheduler batch, and renders the two pivot tables.
fn run_sweep(fidelity: Fidelity, sched: &Scheduler, systems: &[System]) -> Result<Sweep> {
    let packs: Vec<usize> = systems.iter().map(|s| s.machine().num_cores()).collect();
    let mut batch = Vec::new();
    for (&system, &nranks) in systems.iter().zip(&packs) {
        for scheme in STREAM_SCHEMES {
            batch.push(stream_scenario(system, nranks, scheme, fidelity));
        }
        for scheme in XS_SCHEMES {
            batch.push(xs_scenario(system, nranks, scheme, fidelity));
        }
    }
    let scenarios = batch.len();
    let mut outcomes = sched.run_batch(&batch).into_iter();

    let p = stream_params(fidelity);
    let lookups = lookups_per_rank(fidelity) as f64;
    let mut stream_rows = Vec::new();
    let mut xs_rows = Vec::new();
    let mut stream = Vec::new();
    let mut xs = Vec::new();
    for (&system, &nranks) in systems.iter().zip(&packs) {
        let mut rates = Vec::new();
        for _ in STREAM_SCHEMES {
            let completed = outcomes.next().expect("one outcome per STREAM cell")?;
            // Per-core triad bandwidth, paced by the slowest rank.
            rates.push(p.bytes_per_rank() / completed.result.makespan / 1e9);
        }
        stream_rows.push((format!("{} x{nranks}", system.key()), to_cells(&rates)));
        stream.push(rates);

        let mut rates = Vec::new();
        for _ in XS_SCHEMES {
            let completed = outcomes.next().expect("one outcome per lookup cell")?;
            rates.push(nranks as f64 * lookups / completed.result.makespan / 1e6);
        }
        xs_rows.push((format!("{} x{nranks}", system.key()), to_cells(&rates)));
        xs.push(rates);
    }

    let stream_columns: Vec<&str> =
        std::iter::once("Generation").chain(STREAM_SCHEMES.iter().map(|s| s.key())).collect();
    let xs_columns: Vec<&str> =
        std::iter::once("Generation").chain(XS_SCHEMES.iter().map(|s| s.key())).collect();
    let tables = vec![
        pivot_table(
            "Extra X11: STREAM triad at full packing (GB/s per core)",
            &stream_columns,
            &stream_rows,
        ),
        pivot_table(
            &format!("Extra X11: xs-lookup at {XS_TABLE_GIB:.2} GiB/rank (Mlookups/s aggregate)"),
            &xs_columns,
            &xs_rows,
        ),
    ];
    Ok(Sweep { tables, stream, xs, scenarios })
}

fn to_cells(rates: &[f64]) -> Vec<Option<f64>> {
    rates.iter().map(|&r| Some(r)).collect()
}

/// One then-vs-now verdict: the 2006 claim, the inequality that held
/// then, and the inequality that must hold now for the verdict to flip.
struct Verdict {
    label: &'static str,
    then_system: System,
    now_system: System,
    /// `(ratio, floor)`: the 2006-side margin and its required minimum.
    then_check: (f64, f64),
    /// `(ratio, bound, at_most)`: the modern-side margin; `at_most`
    /// flips the comparison (a penalty that must have *vanished*).
    now_check: (f64, f64, bool),
}

impl Verdict {
    fn check(&self) -> Result<()> {
        let (then, floor) = self.then_check;
        if then.is_nan() || then < floor {
            return Err(topo_err(
                self.then_system.key(),
                format!("2006 verdict '{}' not reproduced: ratio {then:.4} < {floor}", self.label),
            ));
        }
        let (now, bound, at_most) = self.now_check;
        let holds = !now.is_nan() && if at_most { now <= bound } else { now >= bound };
        if !holds {
            let op = if at_most { "<=" } else { ">=" };
            return Err(topo_err(
                self.now_system.key(),
                format!("verdict '{}' failed to flip: ratio {now:.4} not {op} {bound}", self.label),
            ));
        }
        Ok(())
    }
}

/// The three verdicts, for whichever of their systems are present.
fn verdicts(systems: &[System], sweep: &Sweep) -> Vec<Verdict> {
    let index = |s: System| systems.iter().position(|&x| x == s);
    let stream = |s: System, scheme: usize| index(s).map(|i| sweep.stream[i][scheme]);
    let xs = |s: System, scheme: usize| index(s).map(|i| sweep.xs[i][scheme]);
    let (ft, il, mb) = (0, 1, 2);
    let mut out = Vec::new();
    if let (Some(then_la), Some(then_mb), Some(now_la), Some(now_mb)) = (
        stream(System::Dmz, ft),
        stream(System::Dmz, mb),
        stream(System::Epyc, ft),
        stream(System::Epyc, mb),
    ) {
        out.push(Verdict {
            label: "membind penalty vanishes on-package (STREAM local:membind)",
            then_system: System::Dmz,
            now_system: System::Epyc,
            then_check: (then_la / then_mb, PENALTY_FLOOR),
            now_check: (now_la / now_mb, FREE_CEILING, true),
        });
    }
    if let (Some(then_la), Some(then_il), Some(now_la), Some(now_il)) = (
        stream(System::Dmz, ft),
        stream(System::Dmz, il),
        stream(System::Hbm, ft),
        stream(System::Hbm, il),
    ) {
        out.push(Verdict {
            label: "interleave flips winner on the memory tier (STREAM)",
            then_system: System::Dmz,
            now_system: System::Hbm,
            // Then: local beats interleave. Now: interleave must win.
            then_check: (then_la / then_il, WIN_MARGIN),
            now_check: (now_il / now_la, WIN_MARGIN, false),
        });
    }
    if let (Some(then_ft), Some(then_il), Some(now_ft), Some(now_il)) =
        (xs(System::Longs, ft), xs(System::Longs, il), xs(System::Epyc, ft), xs(System::Epyc, il))
    {
        out.push(Verdict {
            label: "first-touch crossover moves with node capacity (xs-lookup)",
            then_system: System::Longs,
            now_system: System::Epyc,
            // Then: at 2 GiB/rank first-touch has spilled — interleave
            // ties or wins. Now: the 3 GiB chiplet share keeps it local
            // and first-touch wins again.
            then_check: (then_il / then_ft, TIE_FLOOR),
            now_check: (now_ft / now_il, WIN_MARGIN, false),
        });
    }
    out
}

/// Extra X11 entry point over an explicit generation list (the `repro
/// --machine` axis). `None` sweeps every generation.
///
/// # Errors
///
/// Propagates engine errors; fails with a typed [`Error::InvalidSpec`]
/// when a verdict or determinism check is violated, or when fewer than
/// `REQUIRED_FLIPS` verdicts are computable from the requested
/// machine set.
pub fn extra11_on(
    fidelity: Fidelity,
    sched: &Scheduler,
    machines: Option<&[System]>,
) -> Result<Vec<Table>> {
    let systems: Vec<System> = match machines {
        Some(list) if !list.is_empty() => list.to_vec(),
        _ => System::all().to_vec(),
    };
    let sweep = run_sweep(fidelity, sched, &systems)?;
    let csv = |tables: &[Table]| tables.iter().map(Table::to_csv).collect::<Vec<_>>().join("\n");
    let first_pass = csv(&sweep.tables);

    // Double-run determinism: the second enumeration is served from the
    // scheduler's result cache and must render identical bytes.
    let second = run_sweep(fidelity, sched, &systems)?;
    if csv(&second.tables) != first_pass {
        return Err(topo_err("determinism", "second sweep rendered different bytes"));
    }

    let verdicts = verdicts(&systems, &sweep);
    if verdicts.len() < REQUIRED_FLIPS {
        return Err(topo_err(
            "machine set",
            format!(
                "only {} of {REQUIRED_FLIPS} required verdicts are computable over {:?}",
                verdicts.len(),
                systems.iter().map(|s| s.key()).collect::<Vec<_>>()
            ),
        ));
    }
    for v in &verdicts {
        v.check()?;
    }

    let crc = corescope_store::frame::crc32(first_pass.as_bytes());
    let mut proof = Table::with_columns(
        "Extra X11: then-vs-now verdict flips (rate ratios)",
        &["verdict", "then", "now", "status"],
    );
    proof.push_row(
        "sweep scenarios",
        vec![Cell::num_with(sweep.scenarios as f64, 0), Cell::Dash, Cell::text("ok")],
    );
    for v in &verdicts {
        proof.push_row(
            format!("{} ({} -> {})", v.label, v.then_system.key(), v.now_system.key()),
            vec![
                Cell::num_with(v.then_check.0, 4),
                Cell::num_with(v.now_check.0, 4),
                Cell::text("flipped"),
            ],
        );
    }
    proof.push_row(
        "double run byte-identical (crc32)",
        vec![Cell::num_with(f64::from(crc), 0), Cell::Dash, Cell::text("ok")],
    );

    let mut tables = sweep.tables;
    tables.push(proof);
    Ok(tables)
}

/// Extra X11 entry point: every generation.
///
/// # Errors
///
/// See [`extra11_on`].
pub fn extra11(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    extra11_on(fidelity, sched, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra11_passes_its_own_checks_quick() {
        let sched = Scheduler::new(2);
        let tables = extra11(Fidelity::Quick, &sched).unwrap();
        assert_eq!(tables.len(), 3, "stream, xs, verdicts");
        let stream = tables[0].to_csv();
        for key in ["tiger x2", "dmz x4", "longs x16", "epyc x32", "hbm x16"] {
            assert!(stream.contains(key), "{stream}");
        }
        let proof = tables[2].to_csv();
        assert_eq!(proof.matches("flipped").count(), 3, "{proof}");
        assert!(proof.contains("byte-identical"), "{proof}");
    }

    #[test]
    fn extra11_is_deterministic_across_job_counts() {
        let fmt =
            |tables: &[Table]| tables.iter().map(|t| t.to_csv()).collect::<Vec<_>>().join("\n");
        let a = extra11(Fidelity::Quick, &Scheduler::new(1)).unwrap();
        let b = extra11(Fidelity::Quick, &Scheduler::new(4)).unwrap();
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn warm_cache_rerun_needs_no_engine_runs() {
        let sched = Scheduler::new(2);
        let _ = extra11(Fidelity::Quick, &sched).unwrap();
        let runs = sched.stats().engine_runs;
        let _ = extra11(Fidelity::Quick, &sched).unwrap();
        assert_eq!(sched.stats().engine_runs, runs, "second x11 pass must be pure cache hits");
    }

    #[test]
    fn machine_axis_filters_the_sweep() {
        let sched = Scheduler::new(2);
        let machines = [System::Dmz, System::Epyc, System::Hbm, System::Longs];
        let tables = extra11_on(Fidelity::Quick, &sched, Some(&machines)).unwrap();
        let stream = tables[0].to_csv();
        assert!(!stream.contains("tiger"), "{stream}");
        assert!(stream.contains("epyc x32"), "{stream}");

        // A set that can compute no verdict is a typed error, not a
        // silently empty proof table.
        let err = extra11_on(Fidelity::Quick, &sched, Some(&[System::Tiger])).unwrap_err();
        assert!(err.to_string().contains("verdicts"), "{err}");
    }

    #[test]
    fn the_swept_ratios_are_quantified_verdicts() {
        // The napkin arithmetic behind the three flips, checked against
        // the real engine: DMZ membind halves STREAM while the chiplet
        // machine shrugs it off, and the tiered node's interleave win
        // exceeds 20%.
        let sched = Scheduler::new(2);
        let systems: Vec<System> = System::all().to_vec();
        let sweep = run_sweep(Fidelity::Quick, &sched, &systems).unwrap();
        let i = |s: System| systems.iter().position(|&x| x == s).unwrap();
        let dmz = &sweep.stream[i(System::Dmz)];
        assert!(dmz[0] / dmz[2] > 1.9, "dmz membind penalty ~2x: {dmz:?}");
        let epyc = &sweep.stream[i(System::Epyc)];
        assert!(epyc[0] / epyc[2] < 1.05, "epyc membind is nearly free: {epyc:?}");
        let hbm = &sweep.stream[i(System::Hbm)];
        assert!(hbm[1] / hbm[0] > 1.2, "hbm interleave wins >20%: {hbm:?}");
    }
}
