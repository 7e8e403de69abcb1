//! lmbench-style memory latency: the pointer-chase model plus the
//! local/remote latency table (Section 3.1 pairs STREAM with "Memory
//! Latency & Bandwidth"; the latency side is what the coherence-probe
//! model is calibrated against).

use corescope_machine::{ComputePhase, Machine, TrafficProfile};
use corescope_smpi::CommWorld;

/// The *model* side: one rank chases `loads` dependent pointers over a
/// `working_set`-byte arena whose pages live per the rank's layout. The
/// measured makespan divided by `loads` is the simulated load-to-use
/// latency (idle latency + hops + coherence probe).
pub fn append_chase(world: &mut CommWorld<'_>, rank: usize, working_set: f64, loads: u64) {
    let phase = ComputePhase::new(
        "memlat-chase",
        0.0,
        TrafficProfile::random(loads as f64 * 8.0, working_set),
    );
    world.compute(rank, phase);
}

/// Uncontended load-to-use latency the machine model predicts for a core
/// accessing each NUMA node, in nanoseconds — the lmbench `lat_mem_rd`
/// main-memory plateau, per node distance.
pub fn latency_table(machine: &Machine) -> Vec<Vec<f64>> {
    machine
        .cores()
        .map(|core| machine.nodes().map(|node| machine.memory_latency(core, node) * 1e9).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_machine::{systems, CoreId, NumaNodeId};

    #[test]
    fn latency_table_matches_calibration() {
        // DMZ local ~140 ns (70 DRAM + 70 probe), remote +55 ns/hop.
        let m = Machine::new(systems::dmz());
        let t = latency_table(&m);
        assert!((t[0][0] - 140.0).abs() < 1.0, "local = {}", t[0][0]);
        assert!((t[0][1] - 195.0).abs() < 1.0, "remote = {}", t[0][1]);
        // Longs pays the diameter-4 probe everywhere.
        let longs = Machine::new(systems::longs());
        let tl = latency_table(&longs);
        assert!(tl[0][0] > 270.0, "longs local = {}", tl[0][0]);
    }

    #[test]
    fn simulated_chase_reproduces_the_latency_plateau() {
        use corescope_affinity::Scheme;
        use corescope_smpi::{LockLayer, MpiImpl};
        let m = Machine::new(systems::dmz());
        let placements = Scheme::OneMpiLocalAlloc.resolve(&m, 1).unwrap();
        let mut w = CommWorld::new(&m, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
        let loads = 1_000_000u64;
        append_chase(&mut w, 0, 64e6, loads);
        let t = w.run().unwrap().makespan;
        let per_load = t / loads as f64 * 1e9;
        // Little's law with random MLP 1.6: effective per-load time is
        // latency / mlp ~ 87 ns (lmbench's dependent chase chain has
        // mlp 1; the model's Random profile assumes a little overlap).
        let predicted = m.memory_latency(CoreId::new(0), NumaNodeId::new(0)) * 1e9;
        assert!(
            per_load > 0.4 * predicted && per_load < 1.2 * predicted,
            "simulated {per_load:.0} ns/load vs predicted plateau {predicted:.0} ns"
        );
    }
}
