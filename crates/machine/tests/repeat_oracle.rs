//! Oracle property test: a program with repeat regions runs exactly like
//! the same program fully unrolled.
//!
//! Random deadlock-free programs mix compute phases, eager and
//! rendezvous messages, barriers and delays with repeat regions that run
//! zero times, once or several times, nested up to three deep. Each is
//! lowered twice: once with [`Program::begin_repeat`] /
//! [`Program::end_repeat`], whose tag stride is the number of tags the
//! body draws, and once as plain loops that draw fresh tags every
//! iteration. The two must agree bit for bit: the expanded op streams,
//! the [`RunReport`](corescope_machine::RunReport) (makespan, per-rank
//! finish, events and every metric) and the full trace, fault-free and
//! under a checkpointed rank kill whose rollback lands in an earlier
//! iteration than the kill.

use corescope_machine::engine::{Observed, RankPlacement};
use corescope_machine::program::MessageCost;
use corescope_machine::{
    systems, CheckpointPolicy, ComputePhase, CoreId, Engine, FaultPlan, Machine, MemoryLayout,
    NumaNodeId, Program, RankId, TraceConfig, TrafficProfile,
};
use proptest::prelude::*;

/// One generated step: `(kind, a, b, size, knob)`. Kinds: 0–1 compute
/// on rank `a`, 2 eager message `a → b`, 3 rendezvous message `a → b`,
/// 4 barrier, 5 delay on rank `a`. The step moves `10^size` bytes;
/// `knob` picks the traffic profile or message cost variant. In a token
/// stream ([`parse`]) kind 6 opens a repeat region and kind 7 closes one.
type Step = (u8, usize, usize, f64, u8);

/// A generated program: steps and repeat regions, nested.
#[derive(Debug, Clone)]
enum Item {
    Step(Step),
    Repeat { count: usize, body: Vec<Item> },
}

/// Regions nest at most this deep; a deeper open is a compute step.
const MAX_DEPTH: usize = 3;

/// Token streams of `len` tokens (see [`Step`]).
fn tokens(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..8, 0usize..16, 0usize..16, 2.0f64..7.0, 0u8..6), len)
}

/// Parses a token stream into items. An open region takes its count
/// from its knob — zero, one or several iterations — and regions still
/// open at the end are closed there. A close with no region open is
/// dropped.
fn parse(tokens: &[Step]) -> Vec<Item> {
    let mut stack: Vec<(usize, Vec<Item>)> = Vec::new();
    let mut top = Vec::new();
    for &(kind, a, b, size, knob) in tokens {
        match kind {
            6 if stack.len() < MAX_DEPTH => {
                let count = [0, 1, 2, 3, 4, 3][usize::from(knob)];
                stack.push((count, Vec::new()));
            }
            7 => {
                if let Some((count, body)) = stack.pop() {
                    let item = Item::Repeat { count, body };
                    stack.last_mut().map_or(&mut top, |(_, b)| b).push(item);
                }
            }
            _ => {
                let step = (if kind > 5 { 0 } else { kind }, a, b, size, knob);
                stack.last_mut().map_or(&mut top, |(_, b)| b).push(Item::Step(step));
            }
        }
    }
    while let Some((count, body)) = stack.pop() {
        stack.last_mut().map_or(&mut top, |(_, b)| b).push(Item::Repeat { count, body });
    }
    top
}

fn message_cost(knob: u8, rendezvous: bool) -> MessageCost {
    let cap = [2e8, 1e9, 3.2e9, 1e12][usize::from(knob % 4)];
    let setup = [0.0, 2e-6][usize::from(knob % 2)];
    MessageCost { setup, cap, sender_busy: if knob < 3 { 1e-7 } else { 0.0 }, rendezvous }
}

fn traffic(bytes: f64, knob: u8) -> TrafficProfile {
    match knob % 3 {
        0 => TrafficProfile::stream(bytes),
        1 => TrafficProfile::random(bytes, 64e6),
        _ => TrafficProfile::stream_over(bytes, 1e4),
    }
}

/// Places `n` ranks: the first `n` cores, each on its own node's memory
/// or (odd ranks) interleaved over every node.
fn placements(machine: &Machine, n: usize) -> Vec<RankPlacement> {
    let nodes: Vec<NumaNodeId> = machine.nodes().collect();
    machine
        .cores()
        .take(n)
        .enumerate()
        .map(|(rank, core): (usize, CoreId)| {
            let layout = if rank % 2 == 0 {
                MemoryLayout::single(machine.node_of_socket(machine.socket_of(core)))
            } else {
                MemoryLayout::uniform(&nodes).unwrap()
            };
            RankPlacement::new(core, layout)
        })
        .collect()
}

/// Lowers items to per-rank programs, with repeat regions or unrolled.
///
/// Every step is appended in one global order to the programs of the
/// ranks it involves, and each message draws its own tag. The unrolled
/// form is such an order, so it cannot deadlock: a step's ops depend
/// only on earlier steps of the same ranks, an eager send never waits,
/// and a rendezvous send waits only for its own receive.
struct Lowering {
    programs: Vec<Program>,
    next_tag: u64,
    repeats: bool,
}

impl Lowering {
    fn run(n: usize, items: &[Item], repeats: bool) -> Vec<Program> {
        let mut lowering = Lowering { programs: vec![Program::new(); n], next_tag: 0, repeats };
        lowering.items(items);
        lowering.programs
    }

    fn items(&mut self, items: &[Item]) {
        for item in items {
            match item {
                Item::Step(step) => self.step(*step),
                Item::Repeat { count, body } if self.repeats => {
                    let first = self.next_tag;
                    for p in &mut self.programs {
                        p.begin_repeat(*count);
                    }
                    self.items(body);
                    let stride = self.next_tag - first;
                    for p in &mut self.programs {
                        p.end_repeat(stride);
                    }
                    self.next_tag = first + stride * *count as u64;
                }
                Item::Repeat { count, body } => {
                    for _ in 0..*count {
                        self.items(body);
                    }
                }
            }
        }
    }

    fn step(&mut self, (kind, a, b, size, knob): Step) {
        let n = self.programs.len();
        let (a, b) = (a % n, b % n);
        let bytes = 10f64.powf(size);
        match kind {
            0 | 1 => {
                let phase = ComputePhase::new("work", bytes * 4.0, traffic(bytes, knob));
                self.programs[a].compute(phase);
            }
            2 | 3 if a != b => {
                let tag = self.next_tag;
                self.next_tag += 1;
                let cost = message_cost(knob, kind == 3);
                self.programs[a].send(RankId::new(b), bytes, tag, cost);
                self.programs[b].recv(RankId::new(a), tag);
            }
            4 => {
                for p in &mut self.programs {
                    p.barrier();
                }
            }
            _ => {
                self.programs[a].delay(bytes * 1e-12);
            }
        }
    }
}

/// Everything a run produced — outcome, metrics, end time and trace —
/// as text: `{:?}` prints every f64 with enough digits to round-trip,
/// so equal text is equal bits.
fn fingerprint(observed: &Observed) -> String {
    format!("{observed:?}")
}

/// One generated program set, placed, in both forms.
struct Lowered {
    placements: Vec<RankPlacement>,
    repeated: Vec<Program>,
    unrolled: Vec<Program>,
}

impl Lowered {
    /// Lowers `items` both ways on `n` ranks of `machine` (at most one
    /// per core) and checks that the expanded streams agree.
    fn new(machine: &Machine, n: usize, items: &[Item]) -> Result<Self, TestCaseError> {
        let n = n.min(machine.num_cores());
        let repeated = Lowering::run(n, items, true);
        let unrolled = Lowering::run(n, items, false);
        for (rank, (r, u)) in repeated.iter().zip(&unrolled).enumerate() {
            prop_assert!(r.iter().eq(u.iter()), "rank {rank}: expanded streams differ");
            prop_assert_eq!(r.len(), u.len());
            prop_assert_eq!(r.total_flops().to_bits(), u.total_flops().to_bits());
        }
        Ok(Self { placements: placements(machine, n), repeated, unrolled })
    }

    /// Observes both forms on `engine` under `plan`.
    fn observe(&self, engine: &Engine<'_>, plan: &FaultPlan, trace: TraceConfig) -> [Observed; 2] {
        [&self.repeated, &self.unrolled]
            .map(|programs| engine.observe(&self.placements, programs, plan, trace))
    }

    /// The unrolled form's fault-free makespan.
    fn makespan(&self, machine: &Machine) -> f64 {
        Engine::new(machine).run(&self.placements, &self.unrolled).unwrap().makespan
    }
}

fn machine(system: u8) -> Machine {
    Machine::new(if system == 0 { systems::dmz() } else { systems::longs() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fault-free, traced and untraced: bit-identical reports and
    /// traces.
    #[test]
    fn repeated_programs_run_like_their_unrolled_form(
        system in 0u8..2,
        n in 2usize..6,
        tokens in tokens(1..28),
    ) {
        let machine = machine(system);
        let lowered = Lowered::new(&machine, n, &parse(&tokens))?;
        let engine = Engine::new(&machine);
        for trace in [TraceConfig::off(), TraceConfig::on()] {
            let [a, b] = lowered.observe(&engine, &FaultPlan::new(), trace);
            prop_assert!(b.result.is_ok(), "generated programs are deadlock-free");
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        }
    }

    /// A checkpointed rank kill part-way through a repeat region rolls
    /// every cursor back to the snapshot (an earlier iteration, often),
    /// and the replay still matches the unrolled run bit for bit.
    #[test]
    fn rollback_inside_a_repeat_matches_the_unrolled_run(
        system in 0u8..2,
        n in 2usize..6,
        prologue in tokens(0..4),
        count in 2usize..6,
        body in tokens(1..20),
        interval in 0.05f64..0.4,
        kill_at in 0.3f64..0.95,
        victim in 0usize..6,
    ) {
        let machine = machine(system);
        let mut items = parse(&prologue);
        items.push(Item::Repeat { count, body: parse(&body) });
        let lowered = Lowered::new(&machine, n, &items)?;
        let makespan = lowered.makespan(&machine);
        prop_assume!(makespan > 0.0);
        let engine =
            Engine::new(&machine).with_recovery(CheckpointPolicy::new(interval * makespan, 1e5));
        let victim = RankId::new(victim % lowered.placements.len());
        let plan = FaultPlan::new().rank_kill(kill_at * makespan, victim);
        let [a, b] = lowered.observe(&engine, &plan, TraceConfig::on());
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}

/// A fixed case where the rollback provably crosses iteration
/// boundaries: ten iterations of equal compute and an exchange, a
/// checkpoint every 2.5 iterations and a kill in the eighth, so the
/// restored snapshot is more than an iteration before the kill.
#[test]
fn rollback_across_iterations_restores_every_cursor() {
    let machine = machine(1);
    let step_items = vec![
        Item::Step((0, 0, 0, 6.0, 0)),
        Item::Step((0, 1, 0, 6.0, 0)),
        Item::Step((2, 0, 1, 4.0, 1)),
        Item::Step((3, 1, 0, 4.0, 1)),
    ];
    let items = vec![Item::Step((4, 0, 0, 0.0, 0)), Item::Repeat { count: 10, body: step_items }];
    let lowered = Lowered::new(&machine, 2, &items).unwrap();
    let iteration = lowered.makespan(&machine) / 10.0;
    let engine = Engine::new(&machine).with_recovery(CheckpointPolicy::new(2.5 * iteration, 1e5));
    let plan = FaultPlan::new().rank_kill(7.5 * iteration, RankId::new(1));
    let [a, b] = lowered.observe(&engine, &plan, TraceConfig::on());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let report = a.result.unwrap();
    assert_eq!(report.metrics.recoveries, 1);
    assert!(report.metrics.checkpoints_taken >= 1);
    let stamp = a.trace.unwrap().recoveries[0];
    assert!(
        stamp.killed_at - stamp.restored_to > iteration,
        "the rollback crosses at least one iteration boundary: {stamp:?}"
    );
}

/// The engine runs iteration `i` of a region on `tag + i * stride`: a
/// region receiving on tag 5 with stride 1 matches plain sends on tags
/// 5, 6 and 7, and the unshifted tag would leave it waiting forever.
#[test]
fn later_iterations_match_on_shifted_tags() {
    let machine = machine(0);
    let mut sender = Program::new();
    for tag in 5..8 {
        sender.send(RankId::new(1), 1e3 * tag as f64, tag, MessageCost::free());
    }
    let mut receiver = Program::new();
    receiver.begin_repeat(3).recv(RankId::new(0), 5).end_repeat(1);
    let report = Engine::new(&machine)
        .run(&placements(&machine, 2), &[sender, receiver])
        .expect("every shifted receive finds its send");
    assert_eq!(report.metrics.total_messages(), 3);
}
