//! Oracle property test: bytes are conserved across a whole engine run.
//!
//! Every byte the engine charges to a shared resource comes from a flow,
//! and every flow comes from a compute phase's DRAM traffic or a message
//! payload. A phase flow crosses its node's memory controller once; a
//! payload is read through the source socket's controller and written
//! through the destination's; both kinds cross the coherence-probe
//! fabric once. So, over any fault-free run that completes:
//!
//! - Σ `mc:*` resource bytes = Σ `dram_bytes` + 2 · Σ `bytes_sent`;
//! - `coherence-probe` bytes = Σ `dram_bytes` + Σ `bytes_sent`.
//!
//! A flow share at or below the engine's drain epsilon (1e-6 B) never
//! becomes a flow, so each equality holds to 1e-9 relative plus 1e-6 B
//! per flow the run could have started.

use corescope_machine::engine::RankPlacement;
use corescope_machine::program::MessageCost;
use corescope_machine::{
    systems, ComputePhase, CoreId, Engine, FaultPlan, Machine, MemoryLayout, NumaNodeId, Program,
    RankId, TraceConfig, TrafficProfile,
};
use proptest::prelude::*;

/// One generated step: `(kind, a, b, size, knob)`. Kinds: 0–1 compute
/// on rank `a`, 2 eager message `a → b`, 3 rendezvous message `a → b`,
/// 4 barrier, 5 delay on rank `a`. The step moves `10^size` bytes, so
/// sizes span sub-epsilon shares to tens of megabytes. `knob` picks the
/// traffic profile, layout or message cost variant.
type Step = (u8, usize, usize, f64, u8);

/// Per-rank `(core pick, layout pick, node)`.
type RankRaw = (usize, u8, usize);

fn raw_run() -> impl Strategy<Value = (u8, Vec<RankRaw>, Vec<Step>)> {
    (
        0u8..2,
        proptest::collection::vec((0usize..64, 0u8..3, 0usize..8), 2..9),
        proptest::collection::vec((0u8..6, 0usize..16, 0usize..16, -7.0f64..7.6, 0u8..6), 1..40),
    )
}

fn message_cost(knob: u8, rendezvous: bool) -> MessageCost {
    let cap = [2e8, 1e9, 3.2e9, 1e12][usize::from(knob % 4)];
    let setup = [0.0, 2e-6][usize::from(knob % 2)];
    MessageCost { setup, cap, sender_busy: if knob < 3 { 1e-7 } else { 0.0 }, rendezvous }
}

fn traffic(bytes: f64, knob: u8) -> TrafficProfile {
    match knob % 4 {
        0 => TrafficProfile::stream(bytes),
        1 => TrafficProfile::random(bytes, 64e6),
        2 => TrafficProfile::blocked(bytes, 8e6, 16.0),
        // Fits in cache: only compulsory misses, often a sub-epsilon
        // share on some nodes.
        _ => TrafficProfile::stream_over(bytes, 1e4),
    }
}

/// Lowers the raw inputs to placements and programs.
///
/// Every step is appended in one global order to the programs of the
/// ranks it involves, and each message gets its own tag. By induction
/// over that order the run cannot deadlock: a step's ops depend only on
/// earlier steps of the same ranks, an eager send never waits, and a
/// rendezvous send waits only for the receive of its own step, which its
/// receiver posts once the receiver's earlier steps are done.
fn lower(
    machine: &Machine,
    ranks: &[RankRaw],
    steps: &[Step],
) -> (Vec<RankPlacement>, Vec<Program>, usize) {
    let nodes: Vec<NumaNodeId> = machine.nodes().collect();
    let mut free: Vec<CoreId> = machine.cores().collect();
    let n = ranks.len().min(free.len());
    let placements: Vec<RankPlacement> = ranks[..n]
        .iter()
        .map(|&(pick, layout, node)| {
            let core = free.remove(pick % free.len());
            let layout = match layout {
                0 => MemoryLayout::single(machine.node_of_socket(machine.socket_of(core))),
                1 => MemoryLayout::single(nodes[node % nodes.len()]),
                _ => MemoryLayout::uniform(&nodes).unwrap(),
            };
            RankPlacement::new(core, layout)
        })
        .collect();
    let mut programs = vec![Program::new(); n];
    // Upper bound on the flows the run can start: one per phase share,
    // one per message.
    let mut flows = 0;
    for (tag, &(kind, a, b, size, knob)) in steps.iter().enumerate() {
        let (a, b) = (a % n, b % n);
        let bytes = 10f64.powf(size);
        match kind {
            0 | 1 => {
                let mut phase = ComputePhase::new("work", bytes * 4.0, traffic(bytes, knob));
                if knob >= 4 {
                    phase = phase.with_layout(MemoryLayout::single(nodes[b % nodes.len()]));
                }
                programs[a].compute(phase);
                flows += nodes.len();
            }
            2 | 3 if a != b => {
                // One message in six is empty: delivered without
                // a flow.
                let bytes = if knob == 5 { 0.0 } else { bytes };
                programs[a].send(RankId::new(b), bytes, tag as u64, message_cost(knob, kind == 3));
                programs[b].recv(RankId::new(a), tag as u64);
                flows += 1;
            }
            4 => {
                for p in &mut programs {
                    p.barrier();
                }
            }
            _ => {
                programs[a].delay(bytes * 1e-15);
            }
        }
    }
    (placements, programs, flows)
}

fn check_conserved(label: &str, got: f64, want: f64, flows: usize) -> Result<(), TestCaseError> {
    let tol = want.abs() * 1e-9 + 1e-6 * flows as f64;
    prop_assert!(
        (got - want).abs() <= tol,
        "{label}: resources carried {got} B, traffic was {want} B (diff {}, tol {tol})",
        got - want
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Controller and probe bytes add up to the DRAM and payload bytes
    /// the run reported, on DMZ (two sockets, one link) and Longs (eight
    /// sockets on a ladder).
    #[test]
    fn resource_bytes_add_up_to_dram_and_payload_bytes(raw in raw_run()) {
        let (system, ranks, steps) = raw;
        let machine = Machine::new(if system == 0 { systems::dmz() } else { systems::longs() });
        let (placements, programs, flows) = lower(&machine, &ranks, &steps);
        let observed = Engine::new(&machine).observe(
            &placements,
            &programs,
            &FaultPlan::new(),
            TraceConfig::on(),
        );
        let report = observed.result.unwrap();
        let names = observed.trace.unwrap().resource_names;
        let metrics = &report.metrics;
        prop_assert_eq!(names.len(), metrics.resource_bytes.len());

        let dram = metrics.total_dram_bytes();
        let sent = metrics.total_bytes_sent();
        let carried = |pick: fn(&str) -> bool| -> f64 {
            names.iter().zip(&metrics.resource_bytes).filter(|(n, _)| pick(n)).map(|(_, b)| b).sum()
        };
        let mc = carried(|n| n.starts_with("mc:"));
        let probe = carried(|n| n == "coherence-probe");
        prop_assert!(names.iter().any(|n| n == "coherence-probe"));
        check_conserved("mc:*", mc, dram + 2.0 * sent, flows)?;
        check_conserved("coherence-probe", probe, dram + sent, flows)?;
    }
}
