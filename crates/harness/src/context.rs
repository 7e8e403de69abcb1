//! Shared helpers for artifact implementations.

use crate::aggregate::pivot_table;
use crate::fidelity::Fidelity;
use crate::report::Table;
use corescope_affinity::Scheme;
use corescope_machine::{systems, Machine, Result};
use corescope_sched::{Placement, Scenario, Scheduler, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl, MpiProfile};

/// The three evaluation systems, built once per artifact run.
#[derive(Debug)]
pub struct Systems {
    /// Cray XD1 node, 2 x single-core Opteron 248.
    pub tiger: Machine,
    /// 2 x dual-core Opteron 275.
    pub dmz: Machine,
    /// Iwill H8501, 8 x dual-core Opteron 865.
    pub longs: Machine,
}

impl Systems {
    /// Builds all three.
    pub fn new() -> Self {
        Self {
            tiger: Machine::new(systems::tiger()),
            dmz: Machine::new(systems::dmz()),
            longs: Machine::new(systems::longs()),
        }
    }
}

impl Default for Systems {
    fn default() -> Self {
        Self::new()
    }
}

/// An application-table scenario: `workload` on `nranks` ranks of
/// `system` under `scheme`, on the paper's MPICH2 + spin-lock stack
/// ([`default_stack`]).
pub(crate) fn app_scenario(
    system: System,
    nranks: usize,
    scheme: Scheme,
    workload: Workload,
    fidelity: Fidelity,
) -> Scenario {
    Scenario::new(system, nranks, workload)
        .with_fidelity(fidelity)
        .with_placement(Placement::Scheme(scheme))
        .with_mpi(MpiImpl::Mpich2)
        .with_lock(LockLayer::USysV)
}

/// Runs `batch` through `sched` and returns each makespan, in order.
///
/// # Errors
///
/// Propagates the first placement or engine error.
pub(crate) fn makespans(sched: &Scheduler, batch: &[Scenario]) -> Result<Vec<f64>> {
    sched.run_batch(batch).into_iter().map(|outcome| Ok(outcome?.result.makespan)).collect()
}

/// Queues `scenario` as one table cell and returns its index in
/// `batch`, or `None` (the paper's "—") when its placement cannot host
/// its ranks on `machine`. Unplaceable cells are never submitted, so a
/// warm scheduler answers a whole table without running the engine.
fn submit(batch: &mut Vec<Scenario>, machine: &Machine, scenario: Scenario) -> Option<usize> {
    scenario.placement.resolve(machine, scenario.nranks).ok()?;
    batch.push(scenario);
    Some(batch.len() - 1)
}

/// Builds a scheme-comparison table in the paper's layout: one row per
/// `(task count, workload)` pair, one column per Table 5 scheme, values
/// in seconds. Task counts above the machine's cores get no row;
/// unplaceable combinations render as the paper's "—". The whole table
/// is one batch through `sched`.
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn scheme_table(
    sched: &Scheduler,
    fidelity: Fidelity,
    title: &str,
    system: System,
    task_counts: &[usize],
    workloads: &[(&str, Workload)],
) -> Result<Table> {
    let machine = system.machine();
    let mut batch = Vec::new();
    let mut rows = Vec::new();
    for &n in task_counts.iter().filter(|&&n| n <= machine.num_cores()) {
        for (name, workload) in workloads {
            let slots = Scheme::all().map(|scheme| {
                let scenario = app_scenario(system, n, scheme, workload.clone(), fidelity);
                submit(&mut batch, &machine, scenario)
            });
            rows.push((format!("{n} {name}"), slots));
        }
    }
    let times = makespans(sched, &batch)?;
    let rows: Vec<(String, Vec<Option<f64>>)> = rows
        .into_iter()
        .map(|(label, slots)| (label, slots.into_iter().map(|s| s.map(|i| times[i])).collect()))
        .collect();
    let mut columns = vec!["Tasks / workload"];
    columns.extend(Scheme::all().iter().map(|s| s.name()));
    Ok(pivot_table(title, &columns, &rows))
}

/// The application tables' scheme comparison for one workload: a Longs
/// table (2–16 tasks) titled `titles[0]` and a DMZ table (2–4 tasks)
/// titled `titles[1]`.
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn scheme_tables(
    sched: &Scheduler,
    fidelity: Fidelity,
    titles: [&str; 2],
    workload: (&str, Workload),
) -> Result<Vec<Table>> {
    let workloads = [workload];
    Ok(vec![
        scheme_table(sched, fidelity, titles[0], System::Longs, &[2, 4, 8, 16], &workloads)?,
        scheme_table(sched, fidelity, titles[1], System::Dmz, &[2, 4], &workloads)?,
    ])
}

/// Multi-core speedup without numactl: for each workload, `t1 / tn` at
/// each of `counts` under the [`Scheme::Default`] placement on `system`,
/// `None` where `n` ranks (or one rank) do not fit. One row per
/// workload, one value per count, all from one batch through `sched`.
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn speedups(
    sched: &Scheduler,
    fidelity: Fidelity,
    system: System,
    workloads: &[Workload],
    counts: &[usize],
) -> Result<Vec<Vec<Option<f64>>>> {
    let machine = system.machine();
    let mut batch = Vec::new();
    let slots: Vec<Vec<Option<usize>>> = workloads
        .iter()
        .map(|workload| {
            let scenario = |n| app_scenario(system, n, Scheme::Default, workload.clone(), fidelity);
            let ranks = std::iter::once(1).chain(counts.iter().copied());
            ranks.map(|n| submit(&mut batch, &machine, scenario(n))).collect()
        })
        .collect();
    let times = makespans(sched, &batch)?;
    Ok(slots
        .into_iter()
        .map(|row| row[1..].iter().map(|&tn| Some(times[row[0]?] / times[tn?])).collect())
        .collect())
}

/// A speedup table in the paper's layout: one row per `(count, system)`
/// pair of `systems` (label, system, counts), one column per workload,
/// each value [`speedups`]' `t1 / tn`.
///
/// # Errors
///
/// Propagates engine errors.
pub(crate) fn speedup_table(
    sched: &Scheduler,
    fidelity: Fidelity,
    title: &str,
    columns: &[&str],
    systems: &[(&str, System, &[usize])],
    workloads: &[Workload],
) -> Result<Table> {
    let mut rows = Vec::new();
    for &(sys_name, system, counts) in systems {
        let per_workload = speedups(sched, fidelity, system, workloads, counts)?;
        for (i, n) in counts.iter().enumerate() {
            let values = per_workload.iter().map(|col| col[i]).collect();
            rows.push((format!("{n} {sys_name}"), values));
        }
    }
    Ok(pivot_table(title, columns, &rows))
}

/// The MPI stack the paper uses for the NAS/application tables (MPICH2
/// with spin locks).
pub fn default_stack() -> (MpiProfile, LockLayer) {
    (MpiImpl::Mpich2.profile(), LockLayer::USysV)
}

/// The LAM stack used for the HPCC figures.
pub fn lam_profile() -> MpiProfile {
    MpiImpl::Lam.profile()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_table_dashes_unplaceable_cells_without_submitting_them() {
        let sched = Scheduler::new(1);
        let bsp =
            Workload::Bsp { steps: 2, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 };
        let table = || {
            scheme_table(
                &sched,
                Fidelity::Quick,
                "t",
                System::Longs,
                &[16, 32],
                &[("BSP", bsp.clone())],
            )
            .unwrap()
        };
        let cold = table();
        assert_eq!(cold.num_rows(), 1, "32 ranks exceed Longs' 16 cores: no row");
        assert_eq!(cold.value("16 BSP", Scheme::OneMpiLocalAlloc.name()), None);
        assert!(cold.value("16 BSP", Scheme::TwoMpiLocalAlloc.name()).unwrap() > 0.0);
        let stats = sched.stats();
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.engine_runs, 4, "only the four placeable schemes run");

        let warm = table();
        assert_eq!(sched.stats().engine_runs, stats.engine_runs);
        assert_eq!(warm.to_csv(), cold.to_csv());
    }
}
