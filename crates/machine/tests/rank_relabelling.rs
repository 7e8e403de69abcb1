//! Metamorphic property test: rank numbers are names, not physics.
//!
//! A job's ranks can be numbered in any order. Renumbering them with a
//! permutation `π` — rank `i`'s placement and program become rank
//! `π(i)`'s, and every peer `j` a program sends to or receives from
//! becomes `π(j)` — leaves the same cores running the same work and
//! exchanging the same messages. Only the order in which the engine
//! visits ranks that are ready at the same instant changes (it dispatches
//! the lowest-numbered one first), and with it the order of flow slots.
//! Max-min rates do not depend on that order, so the makespan must not
//! move by more than the solver's relative slack, plus the engine's timer
//! slack once per op: a timer due within a femtosecond of an event fires
//! at that event, so whether a rank's delay or send overhead was posted
//! before or after a same-instant event can move its finish by up to a
//! femtosecond.

use corescope_machine::engine::RankPlacement;
use corescope_machine::program::MessageCost;
use corescope_machine::{
    systems, ComputePhase, CoreId, Engine, Machine, MemoryLayout, NumaNodeId, Program, RankId,
    TrafficProfile,
};
use proptest::prelude::*;

/// The solver's relative slack for "at cap" and "saturated".
const REL_EPS: f64 = 1e-9;
/// The engine's timer slack in seconds.
const EPS_TIME: f64 = 1e-15;

/// One generated step: `(kind, a, b, size, knob)`. Kinds: 0–1 compute
/// on rank `a`, 2 eager message `a → b`, 3 rendezvous message `a → b`,
/// 4 barrier, 5 delay on rank `a`. The step moves `10^size` bytes;
/// `knob` picks the traffic profile, layout or message cost variant.
type Step = (u8, usize, usize, f64, u8);

/// Per-rank `(core pick, layout pick, node)`.
type RankRaw = (usize, u8, usize);

/// `(system, ranks, steps, permutation keys)`: rank `i` is renamed to its
/// key's position among the sorted keys of all ranks.
type RawRun = (u8, Vec<RankRaw>, Vec<Step>, Vec<u32>);

fn raw_run() -> impl Strategy<Value = RawRun> {
    (
        0u8..2,
        proptest::collection::vec((0usize..64, 0u8..3, 0usize..8), 2..12),
        proptest::collection::vec((0u8..6, 0usize..16, 0usize..16, -7.0f64..7.6, 0u8..6), 1..40),
        proptest::collection::vec(0u32..u32::MAX, 12),
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
        _ => TrafficProfile::stream_over(bytes, 1e4),
    }
}

/// Lowers the raw inputs to placements and programs, naming rank `i` of
/// the raw run `names[i]`.
///
/// Every step is appended in one global order to the programs of the
/// ranks it involves, and each message gets its own tag, so the run
/// cannot deadlock (see `bytes_conserved.rs`).
fn lower(
    machine: &Machine,
    ranks: &[RankRaw],
    steps: &[Step],
    names: &[usize],
) -> (Vec<RankPlacement>, Vec<Program>) {
    let nodes: Vec<NumaNodeId> = machine.nodes().collect();
    let mut free: Vec<CoreId> = machine.cores().collect();
    let n = names.len();
    let mut placements = vec![None; n];
    for (i, &(pick, layout, node)) in ranks[..n].iter().enumerate() {
        let core = free.remove(pick % free.len());
        let layout = match layout {
            0 => MemoryLayout::single(machine.node_of_socket(machine.socket_of(core))),
            1 => MemoryLayout::single(nodes[node % nodes.len()]),
            _ => MemoryLayout::uniform(&nodes).unwrap(),
        };
        placements[names[i]] = Some(RankPlacement::new(core, layout));
    }
    let mut programs = vec![Program::new(); n];
    for (tag, &(kind, a, b, size, knob)) in steps.iter().enumerate() {
        let (a, b) = (a % n, b % n);
        let bytes = 10f64.powf(size);
        match kind {
            0 | 1 => {
                let mut phase = ComputePhase::new("work", bytes * 4.0, traffic(bytes, knob));
                if knob >= 4 {
                    phase = phase.with_layout(MemoryLayout::single(nodes[b % nodes.len()]));
                }
                programs[names[a]].compute(phase);
            }
            2 | 3 if a != b => {
                let cost = message_cost(knob, kind == 3);
                programs[names[a]].send(RankId::new(names[b]), bytes, tag as u64, cost);
                programs[names[b]].recv(RankId::new(names[a]), tag as u64);
            }
            4 => {
                for p in &mut programs {
                    p.barrier();
                }
            }
            _ => {
                programs[names[a]].delay(bytes * 1e-15);
            }
        }
    }
    (placements.into_iter().map(Option::unwrap).collect(), programs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Renumbering the ranks of a run, together with their placements and
    /// message peers, leaves its makespan unchanged, on DMZ (two sockets)
    /// and Longs (eight sockets on a ladder).
    #[test]
    fn relabelled_ranks_finish_at_the_same_time(raw in raw_run()) {
        let (system, ranks, steps, keys) = raw;
        let machine = Machine::new(if system == 0 { systems::dmz() } else { systems::longs() });
        let n = ranks.len().min(machine.num_cores());
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let mut names = vec![0; n];
        for (name, &i) in order.iter().enumerate() {
            names[i] = name;
        }
        let identity: Vec<usize> = (0..n).collect();

        let engine = Engine::new(&machine);
        let (placements, programs) = lower(&machine, &ranks, &steps, &identity);
        let base = engine.run(&placements, &programs).unwrap();
        let (placements, programs) = lower(&machine, &ranks, &steps, &names);
        let renamed = engine.run(&placements, &programs).unwrap();

        let slack = |want: f64| want * REL_EPS + EPS_TIME * steps.len() as f64;
        let (want, got) = (base.makespan, renamed.makespan);
        prop_assert!(
            (got - want).abs() <= slack(want),
            "makespan {got} after renaming ranks {names:?}, {want} before"
        );
        for (i, &name) in names.iter().enumerate() {
            let (want, got) = (base.rank_finish[i], renamed.rank_finish[name]);
            prop_assert!(
                (got - want).abs() <= slack(want),
                "rank {i} (now {name}) finished at {got}, {want} before"
            );
        }
    }
}
