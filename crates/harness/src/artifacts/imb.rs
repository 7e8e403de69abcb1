//! Intel MPI Benchmark artifacts: Figures 14–17 (intra-node PingPong and
//! Exchange on DMZ, across implementations and binding configurations).
//!
//! Every cell is a [`Scenario`], and each figure is one batch through
//! the [`Scheduler`]. Figure 16's unbound column is Figure 14's OpenMPI
//! column, and Figure 17's unbound and 4-process columns are Figure 15's
//! OpenMPI columns: the same scenarios, so a shared scheduler runs each
//! of them once.

use crate::context::makespans;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_calib::cells::{self, observe, Observable};
use corescope_machine::Result;
use corescope_sched::{Fidelity, Placement, Scenario, Scheduler, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl};

/// An IMB cell: `workload` on `nranks` DMZ ranks under `scheme`, on
/// `mpi` over spin locks. The paper compares the implementations' own
/// transports on an equal (spin-lock) footing in its single-node runs.
fn dmz_cell(
    fidelity: Fidelity,
    nranks: usize,
    scheme: Scheme,
    mpi: MpiImpl,
    workload: Workload,
) -> Scenario {
    Scenario::new(System::Dmz, nranks, workload)
        .with_fidelity(fidelity)
        .with_placement(Placement::Scheme(scheme))
        .with_mpi(mpi)
        .with_lock(LockLayer::USysV)
}

/// A 2-rank DMZ PingPong of `bytes` under `scheme` on `mpi` over spin
/// locks: the IMB PingPong cell.
fn pingpong(fidelity: Fidelity, scheme: Scheme, mpi: MpiImpl, bytes: f64) -> Observable {
    cells::pingpong(System::Dmz, 2, scheme, mpi, LockLayer::USysV, bytes, fidelity)
}

fn exchange(fidelity: Fidelity, bytes: f64) -> Workload {
    Workload::Exchange { bytes, reps: fidelity.imb_reps(bytes) }
}

/// Figure 14: PingPong latency and bandwidth across MPICH2/LAM/OpenMPI,
/// two unbound processes (the OS scatters them across the sockets).
pub fn figure14(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let sizes = fidelity.imb_message_sizes();
    let batch = sizes
        .iter()
        .flat_map(|&bytes| {
            MpiImpl::all().map(|imp| pingpong(fidelity, Scheme::Default, imp, bytes))
        })
        .collect();
    let times = observe(sched, &batch)?;
    let mut latency = Table::with_columns(
        "Figure 14a: IMB PingPong latency, DMZ (microseconds)",
        &["Bytes", "MPICH2", "LAM", "OpenMPI"],
    );
    let mut bandwidth = Table::with_columns(
        "Figure 14b: IMB PingPong bandwidth, DMZ (MB/s)",
        &["Bytes", "MPICH2", "LAM", "OpenMPI"],
    );
    for (&bytes, t) in sizes.iter().zip(times.chunks(MpiImpl::all().len())) {
        latency.push_row(format!("{bytes:.0}"), t.iter().map(|t| Cell::num(t * 1e6)).collect())?;
        bandwidth.push_row(
            format!("{bytes:.0}"),
            t.iter().map(|t| Cell::num(bytes / t / 1e6)).collect(),
        )?;
    }
    Ok(vec![latency, bandwidth])
}

/// Figure 15: Exchange across implementations (2 unbound processes),
/// plus OpenMPI on all 4 cores.
pub fn figure15(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let sizes = fidelity.imb_message_sizes();
    let batch: Vec<Scenario> = sizes
        .iter()
        .flat_map(|&bytes| {
            let cell = |nranks, imp| {
                dmz_cell(fidelity, nranks, Scheme::Default, imp, exchange(fidelity, bytes))
            };
            let [mpich2, lam, openmpi] = MpiImpl::all();
            [cell(2, mpich2), cell(2, lam), cell(2, openmpi), cell(4, openmpi)]
        })
        .collect();
    Ok(vec![exchange_table(
        "Figure 15: IMB Exchange time per iteration, DMZ (microseconds)",
        &["Bytes", "MPICH2 (2p)", "LAM (2p)", "OpenMPI (2p)", "OpenMPI (4p)"],
        fidelity,
        &sizes,
        &makespans(sched, &batch)?,
    )?])
}

/// One Exchange time-per-iteration row per size, in microseconds, from
/// the batch's makespans in row order.
fn exchange_table(
    title: &str,
    columns: &[&str],
    fidelity: Fidelity,
    sizes: &[f64],
    times: &[f64],
) -> Result<Table> {
    let mut table = Table::with_columns(title, columns);
    for (&bytes, row) in sizes.iter().zip(times.chunks(columns.len() - 1)) {
        let reps = fidelity.imb_reps(bytes);
        let us = |&makespan: &f64| {
            let t = makespan / reps as f64;
            Cell::num(t * 1e6)
        };
        table.push_row(format!("{bytes:.0}"), row.iter().map(us).collect())?;
    }
    Ok(table)
}

/// The OpenMPI binding configurations of Figures 16/17, in column order,
/// from the `unbound` cell (the OS scatters the two processes across the
/// sockets): both processes bound to socket 0 (`numactl --cpubind`),
/// unbound, and unbound beside two parked processes.
fn bindings(unbound: Scenario) -> [Scenario; 3] {
    let bound = unbound.clone().with_placement(Placement::Scheme(Scheme::TwoMpiLocalAlloc));
    let parked = unbound.clone().with_parked(2);
    [bound, unbound, parked]
}

/// Figure 16: OpenMPI PingPong under the binding configurations.
///
/// The "bound 1" column reads the "bound 0" outcome. No [`Placement`]
/// names socket 1, and one column is not worth a new variant: the two
/// DMZ sockets are symmetric, so both processes bound to socket 1 run
/// bit for bit like both bound to socket 0
/// (`tests::dmz_sockets_are_symmetric_for_pingpong` pins this for every
/// size and repetition count).
pub fn figure16(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let sizes = fidelity.imb_message_sizes();
    let batch = sizes
        .iter()
        .flat_map(|&bytes| {
            let Observable { scenario, reduce } =
                pingpong(fidelity, Scheme::Default, MpiImpl::OpenMpi, bytes);
            bindings(scenario).map(|scenario| Observable { scenario, reduce })
        })
        .collect();
    let times = observe(sched, &batch)?;
    let mut table = Table::with_columns(
        "Figure 16: OpenMPI PingPong bandwidth with scheduler affinity, DMZ (MB/s)",
        &[
            "Bytes",
            "2 procs, bound 0",
            "2 procs, bound 1",
            "2 procs, unbound",
            "2 procs, unbound, 2 parked",
        ],
    );
    for (&bytes, t) in sizes.iter().zip(times.chunks(3)) {
        let bw = |t: f64| Cell::num(bytes / t / 1e6);
        table.push_row(format!("{bytes:.0}"), vec![bw(t[0]), bw(t[0]), bw(t[1]), bw(t[2])])?;
    }
    Ok(vec![table])
}

/// Figure 17: OpenMPI Exchange under the binding configurations plus the
/// 4-process run.
pub fn figure17(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let sizes = fidelity.imb_message_sizes();
    let batch: Vec<Scenario> = sizes
        .iter()
        .flat_map(|&bytes| {
            let cell = |nranks| {
                dmz_cell(
                    fidelity,
                    nranks,
                    Scheme::Default,
                    MpiImpl::OpenMpi,
                    exchange(fidelity, bytes),
                )
            };
            let [bound, unbound, parked] = bindings(cell(2));
            let four = cell(4);
            [bound, unbound, parked, four]
        })
        .collect();
    Ok(vec![exchange_table(
        "Figure 17: OpenMPI Exchange time with scheduler affinity, DMZ (microseconds)",
        &["Bytes", "2 procs, bound 0", "2 procs, unbound", "2 procs, unbound, 2 parked", "4 procs"],
        fidelity,
        &sizes,
        &makespans(sched, &batch)?,
    )?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::policy;
    use corescope_machine::engine::RankPlacement;
    use corescope_machine::CoreId;
    use corescope_smpi::CommWorld;

    fn sched() -> Scheduler {
        Scheduler::new(2)
    }

    #[test]
    fn figure14_implementation_ordering_flips_with_size() {
        let tables = figure14(Fidelity::Quick, &sched()).unwrap();
        let (latency, bandwidth) = (&tables[0], &tables[1]);
        // Small messages: MPICH2 latency is the worst, LAM the best.
        let row = "4";
        let mpich = latency.value(row, "MPICH2").unwrap();
        let lam = latency.value(row, "LAM").unwrap();
        assert!(mpich > lam, "MPICH2 {mpich} vs LAM {lam} at 4 B");
        // Large messages: MPICH2 bandwidth wins.
        let big = "4194304";
        let bw_mpich = bandwidth.value(big, "MPICH2").unwrap();
        let bw_lam = bandwidth.value(big, "LAM").unwrap();
        assert!(bw_mpich > bw_lam, "{bw_mpich} vs {bw_lam} at 4 MiB");
    }

    #[test]
    fn figure16_bound_beats_unbound_by_about_ten_percent() {
        let t = &figure16(Fidelity::Quick, &sched()).unwrap()[0];
        let big = "1048576";
        let bound = t.value(big, "2 procs, bound 0").unwrap();
        let unbound = t.value(big, "2 procs, unbound").unwrap();
        let gain = bound / unbound;
        assert!(gain > 1.05 && gain < 1.25, "paper: 10-13% intra-socket benefit, got {gain:.3}");
        // Parked processes cost a little extra.
        let parked = t.value(big, "2 procs, unbound, 2 parked").unwrap();
        assert!(parked <= unbound * 1.01);
    }

    #[test]
    fn figure17_four_procs_cost_more_than_two() {
        let t = &figure17(Fidelity::Quick, &sched()).unwrap()[0];
        let big = "65536";
        let two = t.value(big, "2 procs, unbound").unwrap();
        let four = t.value(big, "4 procs").unwrap();
        assert!(four > two, "4-proc exchange {four} vs 2-proc {two}");
    }

    #[test]
    fn figures_16_and_17_reuse_the_runs_of_14_and_15() {
        let sched = sched();
        figure14(Fidelity::Quick, &sched).unwrap();
        figure15(Fidelity::Quick, &sched).unwrap();
        let before = sched.stats().engine_runs;
        figure16(Fidelity::Quick, &sched).unwrap();
        figure17(Fidelity::Quick, &sched).unwrap();
        // Only the bound and parked columns are new: two per figure and
        // size.
        let sizes = Fidelity::Quick.imb_message_sizes().len();
        assert_eq!(sched.stats().engine_runs - before, 4 * sizes);
    }

    /// Figure 16's "bound 1" column reads the "bound 0" outcome. Both
    /// processes on socket 1's cores run bit for bit like both on socket
    /// 0's, and the bound scheme places them on socket 0, for every
    /// Figure 16 size at quick and at full repetitions.
    #[test]
    fn dmz_sockets_are_symmetric_for_pingpong() {
        let machine = System::Dmz.machine();
        let socket = |s: usize| -> Vec<RankPlacement> {
            (0..2)
                .map(|c| {
                    let core = CoreId::new(2 * s + c);
                    RankPlacement::new(core, policy::local(&machine, core))
                })
                .collect()
        };
        let profile = MpiImpl::OpenMpi.profile();
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            for bytes in Fidelity::Full.imb_message_sizes() {
                let reps = fidelity.imb_reps(bytes);
                let cell = pingpong(fidelity, Scheme::Default, MpiImpl::OpenMpi, bytes);
                let raw = |placements| {
                    let mut world =
                        CommWorld::new(&machine, placements, profile.clone(), LockLayer::USysV);
                    for _ in 0..reps {
                        world.p2p(0, 1, bytes);
                        world.p2p(1, 0, bytes);
                    }
                    world.run().unwrap().makespan.to_bits()
                };
                let [bound, ..] = bindings(cell.scenario);
                let scenario = bound.run().unwrap().makespan.to_bits();
                assert_eq!(raw(socket(0)), scenario, "{bytes} B x {reps}");
                assert_eq!(raw(socket(1)), scenario, "{bytes} B x {reps}");
            }
        }
    }
}
