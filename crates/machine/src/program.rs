//! Per-rank simulated programs.
//!
//! A [`Program`] is the list of operations one rank executes: compute
//! phases (with flop counts and memory-traffic profiles), point-to-point
//! messages with explicit cost parameters (filled in by the MPI layer),
//! barriers, and fixed delays. Workload models in the kernel/application
//! crates build programs; the [`Engine`](crate::engine::Engine) executes
//! them. An iteration loop whose body never changes is recorded once, as
//! a repeat region, and the engine's per-rank cursor expands it while it
//! runs.

use crate::ids::RankId;
use crate::memory::MemoryLayout;
use crate::traffic::TrafficProfile;
use std::borrow::Cow;

/// One compute phase on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePhase {
    /// Label for tracing/metrics ("triad", "dgemm", "fft-butterfly", ...).
    pub label: &'static str,
    /// Double-precision floating-point operations executed.
    pub flops: f64,
    /// Fraction of core peak flop/s the phase sustains when its data is
    /// cache-resident (ACML DGEMM ≈ 0.88, compiled Fortran ≈ 0.13,
    /// bandwidth-bound loops ≈ anything — they are memory-limited anyway).
    pub efficiency: f64,
    /// Memory traffic the phase generates.
    pub traffic: TrafficProfile,
    /// Page distribution of the data this phase touches. `None` (the
    /// default) uses the rank's own placement layout; workloads whose hot
    /// structure lives elsewhere (a shared lookup table spilled across
    /// nodes) override it per phase.
    pub layout: Option<MemoryLayout>,
}

impl ComputePhase {
    /// Creates a phase; efficiency defaults to 1.0 via [`Self::with_efficiency`].
    pub fn new(label: &'static str, flops: f64, traffic: TrafficProfile) -> Self {
        Self { label, flops, efficiency: 1.0, traffic, layout: None }
    }

    /// Sets the sustained-fraction-of-peak efficiency.
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        self.efficiency = efficiency.clamp(1e-6, 1.0);
        self
    }

    /// Pins the phase's data to an explicit page distribution instead of
    /// the rank's placement layout.
    pub fn with_layout(mut self, layout: MemoryLayout) -> Self {
        self.layout = Some(layout);
        self
    }
}

/// Resolved cost parameters of a message, provided by the MPI layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageCost {
    /// Fixed pre-transfer cost in seconds (software overhead + lock
    /// acquisition + per-hop wire latency).
    pub setup: f64,
    /// Maximum transfer rate in bytes/s (e.g. the shared-memory copy
    /// bandwidth); link contention may lower the achieved rate.
    pub cap: f64,
    /// Time the *sender* is occupied before it can continue, for eager
    /// (buffered) sends. Ignored for rendezvous sends.
    pub sender_busy: f64,
    /// Rendezvous protocol: the sender blocks until delivery completes.
    /// Eager protocol (`false`): the sender continues after `sender_busy`.
    pub rendezvous: bool,
}

impl MessageCost {
    /// A free message (useful in tests): zero setup and an effectively
    /// unlimited (1 TB/s) rate cap.
    pub fn free() -> Self {
        Self { setup: 0.0, cap: 1e12, sender_busy: 0.0, rendezvous: false }
    }
}

/// One operation in a rank's program.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Execute a compute phase (roofline: duration is the max of the cpu
    /// time and the time to drain the phase's DRAM traffic).
    Compute(ComputePhase),
    /// Send `bytes` to `to` with matching `tag`.
    Send {
        /// Destination rank.
        to: RankId,
        /// Payload size in bytes.
        bytes: f64,
        /// Match tag (FIFO matching per `(src, dst, tag)`).
        tag: u64,
        /// Resolved cost parameters.
        cost: MessageCost,
    },
    /// Receive a message from `from` with matching `tag`. Blocks until the
    /// matching transfer is delivered.
    Recv {
        /// Source rank.
        from: RankId,
        /// Match tag.
        tag: u64,
    },
    /// Synchronize with every other rank in the run.
    Barrier,
    /// Sleep for a fixed number of seconds (serial sections, lock costs,
    /// I/O stand-ins).
    Delay(f64),
}

/// One stored step of a [`Program`]: an op, or a marker bracketing a
/// repeat region's body.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Op(Op),
    /// Opens a region whose body (up to the matching [`Step::End`]) runs
    /// `count` times; iteration `i` shifts every tag by `i * tag_stride`.
    Repeat {
        count: usize,
        tag_stride: u64,
    },
    /// Closes the region opened at step `start`.
    End {
        start: usize,
    },
}

/// A rank's full operation list.
///
/// Ops are stored in order, except that a loop whose body does not
/// change between iterations can be stored once as a *repeat region*
/// ([`Program::begin_repeat`] … [`Program::end_repeat`]): its body plus
/// an iteration count and a per-iteration tag stride. Regions nest.
/// Every reader sees the *expanded* stream — the ops a fully unrolled
/// loop would have stored, with iteration `i` of a region sending and
/// receiving on `tag + i * tag_stride` — through [`Program::iter`], and
/// [`Program::len`] and the totals count that stream. Equality is
/// structural: a program with regions never equals its unrolled form,
/// whose stream [`Program::iter`] yields just the same.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    steps: Vec<Step>,
    /// Steps of the [`Step::Repeat`]s not yet closed, innermost last.
    open: Vec<usize>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a compute phase.
    pub fn compute(&mut self, phase: ComputePhase) -> &mut Self {
        self.push(Op::Compute(phase))
    }

    /// Appends a send.
    pub fn send(&mut self, to: RankId, bytes: f64, tag: u64, cost: MessageCost) -> &mut Self {
        self.push(Op::Send { to, bytes, tag, cost })
    }

    /// Appends a receive.
    pub fn recv(&mut self, from: RankId, tag: u64) -> &mut Self {
        self.push(Op::Recv { from, tag })
    }

    /// Appends a barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Op::Barrier)
    }

    /// Appends a fixed delay.
    pub fn delay(&mut self, seconds: f64) -> &mut Self {
        self.push(Op::Delay(seconds))
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.steps.push(Step::Op(op));
        self
    }

    /// Opens a repeat region: the ops appended until the matching
    /// [`Program::end_repeat`] form a body that runs `count` times.
    pub fn begin_repeat(&mut self, count: usize) -> &mut Self {
        self.open.push(self.steps.len());
        self.steps.push(Step::Repeat { count, tag_stride: 0 });
        self
    }

    /// Closes the innermost open repeat region. Iteration `i` of its body
    /// sends and receives on its recorded tags plus `i * tag_stride`. A
    /// region that runs zero times or has an empty body is dropped.
    ///
    /// # Panics
    ///
    /// Panics when no region is open.
    pub fn end_repeat(&mut self, tag_stride: u64) -> &mut Self {
        let start = self.open.pop().expect("end_repeat without an open repeat region");
        let Step::Repeat { count, .. } = self.steps[start] else {
            unreachable!("open regions start at a repeat step")
        };
        if count == 0 || self.steps.len() == start + 1 {
            self.steps.truncate(start);
        } else {
            self.steps[start] = Step::Repeat { count, tag_stride };
            self.steps.push(Step::End { start });
        }
        self
    }

    /// Number of repeat regions opened and not yet closed. The engine
    /// only runs programs with none.
    pub fn open_repeats(&self) -> usize {
        self.open.len()
    }

    /// The expanded op stream, in the order a rank executes it. Ops of a
    /// repeat region's later iterations carry their shifted tags. An
    /// unclosed region's body appears once.
    pub fn iter(&self) -> Ops<'_> {
        Ops { program: self, cursor: Cursor::default() }
    }

    /// Number of operations in the expanded stream (without expanding
    /// it).
    pub fn len(&self) -> usize {
        let (mut len, mut scale) = (0, 1);
        let mut scales = Vec::new();
        for (at, step) in self.steps.iter().enumerate() {
            match *step {
                Step::Op(_) => len += scale,
                Step::Repeat { count, .. } => {
                    scales.push(scale);
                    if !self.open.contains(&at) {
                        scale *= count;
                    }
                }
                Step::End { .. } => scale = scales.pop().unwrap_or(1),
            }
        }
        len
    }

    /// Whether the expanded stream has no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total flops across all compute phases of the expanded stream (for
    /// sanity checks), summed in execution order.
    pub fn total_flops(&self) -> f64 {
        self.iter()
            .map(|op| match *op {
                Op::Compute(ref p) => p.flops,
                _ => 0.0,
            })
            .sum()
    }

    /// Total bytes sent by the expanded stream, summed in execution
    /// order.
    pub fn total_sent_bytes(&self) -> f64 {
        self.iter()
            .map(|op| match *op {
                Op::Send { bytes, .. } => bytes,
                _ => 0.0,
            })
            .sum()
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Self { steps: iter.into_iter().map(Step::Op).collect(), open: Vec::new() }
    }
}

impl Extend<Op> for Program {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.steps.extend(iter.into_iter().map(Step::Op));
    }
}

/// A position in a program's expanded stream: the next step, the
/// iteration of every enclosing repeat region, and the tag offset those
/// iterations add. The engine keeps one per rank, and a checkpoint
/// snapshot copies it whole.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cursor {
    at: usize,
    tag_offset: u64,
    /// Iteration of each enclosing region, innermost last.
    iterations: Vec<usize>,
}

impl Cursor {
    /// The next op of the expanded stream and the tag offset it runs
    /// under, or `None` at the end of the program.
    pub(crate) fn next<'p>(&mut self, program: &'p Program) -> Option<(&'p Op, u64)> {
        loop {
            match program.steps.get(self.at)? {
                Step::Op(op) => {
                    self.at += 1;
                    return Some((op, self.tag_offset));
                }
                Step::Repeat { .. } => {
                    self.iterations.push(0);
                    self.at += 1;
                }
                &Step::End { start } => {
                    let Step::Repeat { count, tag_stride } = program.steps[start] else {
                        unreachable!("a region end points at its repeat step")
                    };
                    let iteration = self.iterations.last_mut().expect("an end inside its region");
                    *iteration += 1;
                    if *iteration < count {
                        self.tag_offset += tag_stride;
                        self.at = start + 1;
                    } else {
                        self.tag_offset -= (count as u64 - 1) * tag_stride;
                        self.iterations.pop();
                        self.at += 1;
                    }
                }
            }
        }
    }
}

/// Iterator over a program's expanded op stream ([`Program::iter`]).
/// Sends and receives of a repeat region's later iterations come out
/// owned, carrying their shifted tags; every other op is borrowed.
#[derive(Debug, Clone)]
pub struct Ops<'p> {
    program: &'p Program,
    cursor: Cursor,
}

impl<'p> Iterator for Ops<'p> {
    type Item = Cow<'p, Op>;

    fn next(&mut self) -> Option<Cow<'p, Op>> {
        let (op, offset) = self.cursor.next(self.program)?;
        Some(match *op {
            Op::Send { to, bytes, tag, cost } if offset != 0 => {
                Cow::Owned(Op::Send { to, bytes, tag: tag + offset, cost })
            }
            Op::Recv { from, tag } if offset != 0 => {
                Cow::Owned(Op::Recv { from, tag: tag + offset })
            }
            _ => Cow::Borrowed(op),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_ops() {
        let mut p = Program::new();
        p.compute(ComputePhase::new("x", 100.0, TrafficProfile::none()))
            .send(RankId::new(1), 64.0, 0, MessageCost::free())
            .recv(RankId::new(1), 0)
            .barrier()
            .delay(1e-6);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.total_flops(), 100.0);
        assert_eq!(p.total_sent_bytes(), 64.0);
    }

    #[test]
    fn efficiency_is_clamped() {
        let p = ComputePhase::new("x", 1.0, TrafficProfile::none()).with_efficiency(7.0);
        assert_eq!(p.efficiency, 1.0);
        let p = ComputePhase::new("x", 1.0, TrafficProfile::none()).with_efficiency(-1.0);
        assert!(p.efficiency > 0.0);
    }

    #[test]
    fn collects_from_iterator() {
        let p: Program = vec![Op::Barrier, Op::Delay(1.0)].into_iter().collect();
        assert_eq!(p.len(), 2);
    }

    fn phase(flops: f64) -> ComputePhase {
        ComputePhase::new("x", flops, TrafficProfile::none())
    }

    /// `outer` iterations of { compute, `inner` iterations of { send,
    /// recv } }, with a barrier before and a delay after: built with
    /// repeat regions, and fully unrolled with the tags the regions
    /// imply (inner stride 1, outer stride `inner`).
    fn nested(outer: usize, inner: usize) -> (Program, Program) {
        let to = RankId::new(1);
        let (mut repeated, mut unrolled) = (Program::new(), Program::new());
        repeated.barrier().begin_repeat(outer).compute(phase(0.1)).begin_repeat(inner);
        repeated.send(to, 3.0, 7, MessageCost::free()).recv(to, 7);
        repeated.end_repeat(1).end_repeat(inner as u64).delay(1e-6);
        unrolled.barrier();
        for o in 0..outer {
            unrolled.compute(phase(0.1));
            for i in 0..inner {
                let tag = 7 + (o * inner + i) as u64;
                unrolled.send(to, 3.0, tag, MessageCost::free()).recv(to, tag);
            }
        }
        unrolled.delay(1e-6);
        (repeated, unrolled)
    }

    #[test]
    fn repeat_regions_expand_to_the_unrolled_stream_and_count_it() {
        for (outer, inner) in [(0, 3), (1, 1), (3, 0), (3, 4), (1, 5), (5, 1), (375, 2)] {
            let (repeated, unrolled) = nested(outer, inner);
            assert!(repeated.iter().eq(unrolled.iter()), "{outer} x {inner}");
            assert_eq!(repeated.len(), unrolled.len(), "{outer} x {inner}");
            assert_eq!(repeated.len(), 2 + outer * (1 + 2 * inner));
            assert_eq!(repeated.len(), repeated.iter().count());
            // Summed in execution order, so bit-equal to the unrolled sums.
            assert_eq!(repeated.total_flops().to_bits(), unrolled.total_flops().to_bits());
            assert_eq!(repeated.total_sent_bytes(), unrolled.total_sent_bytes());
        }
    }

    #[test]
    fn empty_and_zero_count_regions_are_dropped() {
        let mut p = Program::new();
        p.begin_repeat(5).end_repeat(0);
        p.begin_repeat(0).delay(1.0).begin_repeat(3).barrier().end_repeat(0).end_repeat(0);
        assert_eq!(p, Program::new());
        assert!(p.is_empty());
    }

    #[test]
    fn an_open_region_is_counted_once_and_reported() {
        let mut p = Program::new();
        p.begin_repeat(4).barrier();
        assert_eq!(p.open_repeats(), 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.iter().count(), 1);
        p.end_repeat(0);
        assert_eq!(p.open_repeats(), 0);
        assert_eq!(p.len(), 4);
    }

    #[test]
    #[should_panic(expected = "end_repeat without an open repeat region")]
    fn closing_an_unopened_region_panics() {
        Program::new().end_repeat(0);
    }
}
