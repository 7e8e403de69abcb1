//! Every registry probe that lifts a table cell grades that very cell.
//!
//! For each such probe the artifact runs first on a fresh scheduler; the
//! probe's cells then run through the same scheduler, and not one of them
//! may reach the engine: the probe's scenario is the artifact's (equal,
//! so its digest is the same). Where the table prints the probe's
//! quantity, the prediction equals the printed cell bit for bit. Where it
//! prints another one, each side keeps its own arithmetic (a one-ulp
//! change in a prediction can move the X7 fit's Nelder–Mead path), and
//! the pair is named in `Lift::Scaled` or `Lift::Ratio`.

use corescope_affinity::Scheme;
use corescope_calib::cells::{self, observe, BlasKernel, Observable};
use corescope_calib::targets::{registry, NasWorkload, Probe, Target};
use corescope_harness::{Artifact, Fidelity, Table};
use corescope_kernels::blas::BlasVariant;
use corescope_kernels::cg::CgClass;
use corescope_kernels::nasft::FtClass;
use corescope_machine::CalibParams;
use corescope_sched::{Placement, Scheduler, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl};

/// How a probe's prediction relates to its table.
enum Lift {
    /// The prediction is the cell at `(row, column)`, bit for bit.
    Same(String, &'static str),
    /// The prediction is the cell times `factor`, the two computed in
    /// different operand orders.
    Scaled(&'static str, &'static str, f64),
    /// The prediction is the ratio of two cells of one row, bit for bit.
    Ratio(&'static str, &'static str, &'static str),
}

/// The table cell a probe lifts: the artifact, its fidelity and table,
/// the cells the artifact builds for it, and how the numbers relate.
struct Lifted {
    artifact: Artifact,
    fidelity: Fidelity,
    table: usize,
    cells: Vec<Observable>,
    lift: Lift,
}

fn mpi_column(mpi: MpiImpl) -> &'static str {
    match mpi {
        MpiImpl::Mpich2 => "MPICH2",
        MpiImpl::Lam => "LAM",
        MpiImpl::OpenMpi => "OpenMPI",
    }
}

/// The cell `target`'s probe lifts, or `None` for a probe no table
/// prints (listed by id in `probes_that_lift_no_cell`).
fn lifted(target: &Target) -> Option<Lifted> {
    let quick = Fidelity::Quick;
    match target.probe {
        // Figures 2/3: scatter-local STREAM on the three 2006 systems.
        Probe::StreamBw { system, nranks, per_core }
            if matches!(system, System::Tiger | System::Dmz | System::Longs) =>
        {
            Some(Lifted {
                artifact: if per_core { Artifact::F3 } else { Artifact::F2 },
                fidelity: quick,
                table: 0,
                cells: vec![cells::stream_star(system, nranks, Placement::ScatterLocal, quick)],
                lift: Lift::Same(nranks.to_string(), system.key()),
            })
        }
        // Figure 4 at n = 10M: one packed core, and four per core.
        Probe::DaxpyPerCore { variant: BlasVariant::Acml, nranks } => {
            let n = 10_000_000;
            let packed = Scheme::TwoMpiLocalAlloc;
            let cell =
                cells::blas_star(BlasKernel::Daxpy, BlasVariant::Acml, n, nranks, packed, quick);
            let column = match nranks {
                1 => "Total (1 core)",
                4 => "Per core (4)",
                _ => return None,
            };
            Some(Lifted {
                artifact: Artifact::F4,
                fidelity: quick,
                table: 0,
                cells: vec![cell],
                lift: Lift::Same("10000000".to_string(), column),
            })
        }
        // Figure 6 at n = 1000, which only the full sweep visits.
        Probe::DgemmPerCore { variant: BlasVariant::Acml, nranks: 1 } => {
            let full = Fidelity::Full;
            let packed = Scheme::TwoMpiLocalAlloc;
            Some(Lifted {
                artifact: Artifact::F6,
                fidelity: full,
                table: 0,
                cells: vec![cells::blas_star(
                    BlasKernel::Dgemm,
                    BlasVariant::Acml,
                    1000,
                    1,
                    packed,
                    full,
                )],
                lift: Lift::Same("1000".to_string(), "Total (1 core)"),
            })
        }
        // Figure 14a: two unbound DMZ ranks on spin locks, 4 bytes.
        Probe::PingPongLatencyUs { system: System::Dmz, nranks: 2, mpi, lock, bytes } => {
            let cell = cells::pingpong(System::Dmz, 2, Scheme::Default, mpi, lock, bytes, quick);
            assert_eq!((lock, bytes), (LockLayer::USysV, 4.0), "{}", target.id);
            Some(Lifted {
                artifact: Artifact::F14,
                fidelity: quick,
                table: 0,
                cells: vec![cell],
                lift: Lift::Same("4".to_string(), mpi_column(mpi)),
            })
        }
        // Figure 14b at 4 MiB: the table prints MB/s (`bytes / t / 1e6`),
        // the probe GB/s (`bytes / t / 1e9`).
        Probe::PingPongBwGbs { mpi, bytes } => {
            let lock = LockLayer::USysV;
            let cell = cells::pingpong(System::Dmz, 2, Scheme::Default, mpi, lock, bytes, quick);
            Some(Lifted {
                artifact: Artifact::F14,
                fidelity: quick,
                table: 1,
                cells: vec![cell],
                lift: Lift::Scaled("4194304", mpi_column(mpi), 1e-3),
            })
        }
        // Table 2 at full fidelity (class B): the probe's ratio is the
        // ratio of two printed times.
        Probe::NasSchemeRatio { workload, nranks: 8, num, den } => {
            let full = Fidelity::Full;
            let (row, w) = match workload {
                NasWorkload::CgB => ("8 CG", Workload::NasCg { class: CgClass::B }),
                NasWorkload::FtB => ("8 FT", Workload::NasFt { class: FtClass::B }),
            };
            let cell = |scheme| cells::app(System::Longs, 8, scheme, w.clone(), full);
            Some(Lifted {
                artifact: Artifact::T2,
                fidelity: full,
                table: 0,
                cells: vec![cell(num), cell(den)],
                lift: Lift::Ratio(row, num.name(), den.name()),
            })
        }
        // Extra X11's interleaved tier node: the table prints
        // `bytes_per_rank / t / 1e9`, the probe `(n * bytes_per_rank / t)
        // / n / 1e9`.
        Probe::SchemeStreamBw { system: System::Hbm, nranks: 16, placement } => {
            assert_eq!(placement, Placement::Scheme(Scheme::Interleave), "{}", target.id);
            Some(Lifted {
                artifact: Artifact::X11,
                fidelity: quick,
                table: 0,
                cells: vec![cells::stream_star(System::Hbm, 16, placement, quick)],
                lift: Lift::Scaled("hbm x16", Scheme::Interleave.key(), 1.0),
            })
        }
        _ => None,
    }
}

#[test]
fn probes_that_lift_no_cell() {
    // Each of these runs cells no table prints: a 1-rank vanilla DGEMM
    // (Figure 7 runs 2 and 4 ranks), the Longs latencies (Figure 13 runs
    // its own repetitions), the bound:unbound pair (Figure 16's unbound
    // column is the OS default, not one rank per socket), the DMZ membind
    // anchor, the EPYC full pack (Extra X11 packs two per socket) and the
    // single-rank lookups. The analytic latency probes run no cell.
    let params = CalibParams::paper_2006();
    let unlifted: Vec<&str> = registry()
        .iter()
        .filter(|t| !t.probe.observables(&params, Fidelity::Quick).is_empty())
        .filter(|t| lifted(t).is_none())
        .map(|t| t.id)
        .collect();
    assert_eq!(
        unlifted,
        [
            "stream.dmz.membind2.percore",
            "dgemm.vanilla.percore",
            "pingpong.longs.sysv.8b.us",
            "pingpong.longs.usysv.8b.us",
            "pingpong.boost.ratio",
            "lookup.dmz.1.rate",
            "lookup.longs.1.rate",
            "topo.epyc.32.aggregate",
        ]
    );
}

#[test]
fn every_lifted_probe_grades_its_table_cell() {
    let params = CalibParams::paper_2006();
    // Each artifact runs once, on a scheduler of its own, so a probe's
    // cells can only be answered from its own table's runs.
    let mut runs: Vec<(Artifact, Fidelity, Scheduler, Vec<Table>)> = Vec::new();
    let mut covered = 0;
    for target in registry() {
        let Some(lift) = lifted(&target) else { continue };
        let key = (lift.artifact, lift.fidelity);
        let at = match runs.iter().position(|(a, f, ..)| (*a, *f) == key) {
            Some(at) => at,
            None => {
                let sched = Scheduler::new(2);
                let tables = lift.artifact.run_with(lift.fidelity, &sched).unwrap();
                runs.push((lift.artifact, lift.fidelity, sched, tables));
                runs.len() - 1
            }
        };
        let (_, _, sched, tables) = &runs[at];
        let table = &tables[lift.table];

        let probe_cells = target.probe.observables(&params, lift.fidelity);
        assert_eq!(probe_cells, lift.cells, "{}: the probe builds the artifact's cells", target.id);
        let engine_runs = sched.stats().engine_runs;
        let reduced = observe(sched, &probe_cells.into_iter().collect()).unwrap();
        assert_eq!(
            sched.stats().engine_runs,
            engine_runs,
            "{}: a cell its table never ran",
            target.id
        );
        let predicted = target.probe.predict(&params, &reduced).unwrap();

        let value = |row: &str, column: &str| {
            table.value(row, column).unwrap_or_else(|| panic!("{}: no {row}/{column}", target.id))
        };
        match lift.lift {
            Lift::Same(row, column) => {
                assert_eq!(predicted.to_bits(), value(&row, column).to_bits(), "{}", target.id);
            }
            Lift::Ratio(row, num, den) => {
                let ratio = value(row, num) / value(row, den);
                assert_eq!(predicted.to_bits(), ratio.to_bits(), "{}", target.id);
            }
            Lift::Scaled(row, column, factor) => {
                let printed = value(row, column) * factor;
                let rel = (predicted - printed).abs() / printed;
                assert!(rel < 1e-14, "{}: {predicted} vs {printed}", target.id);
            }
        }
        covered += 1;
    }
    // STREAM 10, DAXPY 2, DGEMM 1, F14 latency 3 and bandwidth 2, NAS 3,
    // X11 1.
    assert_eq!(covered, 22);
}
