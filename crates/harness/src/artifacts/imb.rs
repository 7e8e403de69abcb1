//! Intel MPI Benchmark artifacts: Figures 14–17 (intra-node PingPong and
//! Exchange on DMZ, across implementations and binding configurations).

use crate::context::Systems;
use crate::fidelity::Fidelity;
use crate::report::{Cell, Table};
use corescope_affinity::{policy, Scheme};
use corescope_machine::engine::RankPlacement;
use corescope_machine::{CoreId, Machine, Result};
use corescope_smpi::imb::{exchange_time, imb_message_sizes, pingpong_time};
use corescope_smpi::{LockLayer, MpiImpl, MpiProfile};

fn sizes(fidelity: Fidelity) -> Vec<f64> {
    fidelity.thin(&imb_message_sizes())
}

fn reps(fidelity: Fidelity, bytes: f64) -> usize {
    // Fewer repetitions for multi-megabyte messages, as IMB does.
    let base = if bytes >= 1e6 { 4 } else { 40 };
    fidelity.steps(base).max(2)
}

/// Figures 14/15 placements: two unbound processes (the OS scatters them
/// across the two sockets).
fn unbound2(machine: &Machine) -> Result<Vec<RankPlacement>> {
    Scheme::Default.resolve(machine, 2)
}

/// Figure 14: PingPong latency and bandwidth across MPICH2/LAM/OpenMPI.
pub fn figure14(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let machine = &systems.dmz;
    let placements = unbound2(machine)?;
    let mut latency = Table::with_columns(
        "Figure 14a: IMB PingPong latency, DMZ (microseconds)",
        &["Bytes", "MPICH2", "LAM", "OpenMPI"],
    );
    let mut bandwidth = Table::with_columns(
        "Figure 14b: IMB PingPong bandwidth, DMZ (MB/s)",
        &["Bytes", "MPICH2", "LAM", "OpenMPI"],
    );
    for bytes in sizes(fidelity) {
        let mut lat_cells = Vec::new();
        let mut bw_cells = Vec::new();
        for imp in MpiImpl::all() {
            // Compare the implementations' own transports on an equal
            // (spin-lock) footing, as the paper's single-node runs did.
            let profile = imp.profile();
            let t = pingpong_time(
                machine,
                &placements,
                &profile,
                LockLayer::USysV,
                bytes,
                reps(fidelity, bytes),
            )?;
            lat_cells.push(Cell::num(t * 1e6));
            bw_cells.push(Cell::num(bytes / t / 1e6));
        }
        latency.push_row(format!("{bytes:.0}"), lat_cells);
        bandwidth.push_row(format!("{bytes:.0}"), bw_cells);
    }
    Ok(vec![latency, bandwidth])
}

/// Figure 15: Exchange across implementations (2 and 4 processes).
pub fn figure15(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let machine = &systems.dmz;
    let p2 = unbound2(machine)?;
    let p4 = Scheme::Default.resolve(machine, 4)?;
    let mut table = Table::with_columns(
        "Figure 15: IMB Exchange time per iteration, DMZ (microseconds)",
        &["Bytes", "MPICH2 (2p)", "LAM (2p)", "OpenMPI (2p)", "OpenMPI (4p)"],
    );
    for bytes in sizes(fidelity) {
        let mut cells = Vec::new();
        for imp in MpiImpl::all() {
            let profile = imp.profile();
            let t = exchange_time(
                machine,
                &p2,
                &profile,
                LockLayer::USysV,
                2,
                bytes,
                reps(fidelity, bytes),
            )?;
            cells.push(Cell::num(t * 1e6));
        }
        let profile = MpiImpl::OpenMpi.profile();
        let t4 = exchange_time(
            machine,
            &p4,
            &profile,
            LockLayer::USysV,
            4,
            bytes,
            reps(fidelity, bytes),
        )?;
        cells.push(Cell::num(t4 * 1e6));
        table.push_row(format!("{bytes:.0}"), cells);
    }
    Ok(vec![table])
}

/// The binding configurations of Figures 16/17.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Binding {
    /// Both processes bound to socket 0 (`numactl --cpubind`).
    BoundSocket0,
    /// Both processes bound to socket 1.
    BoundSocket1,
    /// Unbound: the OS scatters the two processes across sockets.
    Unbound,
    /// Unbound with two additional parked processes. The parked
    /// processes' scheduler noise is modelled as a 15% software-overhead
    /// surcharge (the engine's parked ranks are otherwise silent).
    UnboundParked,
}

impl Binding {
    fn label(self) -> &'static str {
        match self {
            Binding::BoundSocket0 => "2 procs, bound 0",
            Binding::BoundSocket1 => "2 procs, bound 1",
            Binding::Unbound => "2 procs, unbound",
            Binding::UnboundParked => "2 procs, unbound, 2 parked",
        }
    }

    fn placements(self, machine: &Machine) -> Result<Vec<RankPlacement>> {
        let socket_cores = |s: usize| -> Vec<RankPlacement> {
            (0..2)
                .map(|c| {
                    let core = CoreId::new(2 * s + c);
                    RankPlacement::new(core, policy::local(machine, core))
                })
                .collect()
        };
        match self {
            Binding::BoundSocket0 => Ok(socket_cores(0)),
            Binding::BoundSocket1 => Ok(socket_cores(1)),
            Binding::Unbound => unbound2(machine),
            Binding::UnboundParked => Scheme::Default.resolve(machine, 4),
        }
    }

    fn profile(self) -> MpiProfile {
        let mut profile = MpiImpl::OpenMpi.profile();
        if self == Binding::UnboundParked {
            profile.overhead *= 1.15;
        }
        profile
    }
}

/// Figure 16: OpenMPI PingPong under the binding configurations.
pub fn figure16(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let machine = &systems.dmz;
    let bindings =
        [Binding::BoundSocket0, Binding::BoundSocket1, Binding::Unbound, Binding::UnboundParked];
    let mut columns = vec!["Bytes".to_string()];
    columns.extend(bindings.iter().map(|b| b.label().to_string()));
    let mut table = Table::new(
        "Figure 16: OpenMPI PingPong bandwidth with scheduler affinity, DMZ (MB/s)",
        columns,
    );
    for bytes in sizes(fidelity) {
        let mut cells = Vec::new();
        for binding in bindings {
            let profile = binding.profile();
            let t = pingpong_time(
                machine,
                &binding.placements(machine)?,
                &profile,
                LockLayer::USysV,
                bytes,
                reps(fidelity, bytes),
            )?;
            cells.push(Cell::num(bytes / t / 1e6));
        }
        table.push_row(format!("{bytes:.0}"), cells);
    }
    Ok(vec![table])
}

/// Figure 17: OpenMPI Exchange under the binding configurations plus the
/// 4-process run.
pub fn figure17(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let machine = &systems.dmz;
    let mut table = Table::with_columns(
        "Figure 17: OpenMPI Exchange time with scheduler affinity, DMZ (microseconds)",
        &["Bytes", "2 procs, bound 0", "2 procs, unbound", "2 procs, unbound, 2 parked", "4 procs"],
    );
    for bytes in sizes(fidelity) {
        let mut cells = Vec::new();
        for binding in [Binding::BoundSocket0, Binding::Unbound, Binding::UnboundParked] {
            let profile = binding.profile();
            let active = 2;
            let t = exchange_time(
                machine,
                &binding.placements(machine)?,
                &profile,
                LockLayer::USysV,
                active,
                bytes,
                reps(fidelity, bytes),
            )?;
            cells.push(Cell::num(t * 1e6));
        }
        let profile = MpiImpl::OpenMpi.profile();
        let p4 = Scheme::Default.resolve(machine, 4)?;
        let t4 = exchange_time(
            machine,
            &p4,
            &profile,
            LockLayer::USysV,
            4,
            bytes,
            reps(fidelity, bytes),
        )?;
        cells.push(Cell::num(t4 * 1e6));
        table.push_row(format!("{bytes:.0}"), cells);
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure14_implementation_ordering_flips_with_size() {
        let tables = figure14(Fidelity::Quick).unwrap();
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
        let t = &figure16(Fidelity::Quick).unwrap()[0];
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
        let t = &figure17(Fidelity::Quick).unwrap()[0];
        let big = "65536";
        let two = t.value(big, "2 procs, unbound").unwrap();
        let four = t.value(big, "4 procs").unwrap();
        assert!(four > two, "4-proc exchange {four} vs 2-proc {two}");
    }
}
