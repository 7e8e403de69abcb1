//! The [`CommWorld`] program builder: an MPI communicator over placed
//! ranks.
//!
//! A `CommWorld` owns one [`Program`] per rank and appends compute phases
//! and messages to them; [`CommWorld::run`] executes the programs on the
//! machine's engine. Message costs are resolved through
//! [`crate::transport::message_cost`] at append time, so the topology and
//! lock sub-layer are baked into each message exactly once.

use crate::profiles::{LockLayer, MpiProfile};
use crate::transport::message_cost;
use corescope_machine::engine::{Engine, Observed, RankPlacement, RunReport};
use corescope_machine::program::{ComputePhase, Program};
use corescope_machine::{
    CheckpointPolicy, FaultPlan, Machine, RankId, Result, RetryPolicy, TraceConfig,
};

/// An MPI communicator bound to placed ranks on a machine.
#[derive(Debug, Clone)]
pub struct CommWorld<'m> {
    machine: &'m Machine,
    placements: Vec<RankPlacement>,
    profile: MpiProfile,
    lock: LockLayer,
    programs: Vec<Program>,
    next_tag: u64,
    checkpoint: Option<CheckpointPolicy>,
    retry: Option<RetryPolicy>,
}

impl<'m> CommWorld<'m> {
    /// Creates a world over `placements`, one rank per placement.
    pub fn new(
        machine: &'m Machine,
        placements: Vec<RankPlacement>,
        profile: MpiProfile,
        lock: LockLayer,
    ) -> Self {
        let n = placements.len();
        Self {
            machine,
            placements,
            profile,
            lock,
            programs: vec![Program::new(); n],
            next_tag: 0,
            checkpoint: None,
            retry: None,
        }
    }

    /// Arms coordinated checkpoint/restart for every run launched from
    /// this world: a [`corescope_machine::FaultKind::RankKill`] rolls the
    /// job back to the last completed checkpoint instead of failing it.
    #[must_use]
    pub fn with_recovery(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Arms transport-level timeout/retry for every run launched from
    /// this world: transfers caught on a link severed by
    /// [`corescope_machine::FaultKind::LinkFail`] are retransmitted with
    /// exponential backoff instead of starving the run.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// A fresh engine carrying this world's recovery and retry policies.
    fn engine(&self) -> Engine<'m> {
        let mut engine = Engine::new(self.machine);
        if let Some(policy) = &self.checkpoint {
            engine = engine.with_recovery(policy.clone());
        }
        if let Some(policy) = &self.retry {
            engine = engine.with_retry(policy.clone());
        }
        engine
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.placements.len()
    }

    /// The machine the world runs on.
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// The rank placements.
    pub fn placements(&self) -> &[RankPlacement] {
        &self.placements
    }

    /// The per-rank programs built so far.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// A tag never handed out before by this world.
    pub fn fresh_tag(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// Appends `count` iterations of the ops `body` appends, recording
    /// them once per rank as a repeat region (see [`Program`]). The body
    /// runs once, here; the k fresh tags it draws become the region's tag
    /// stride, and the world then skips the k·count tags the unrolled
    /// iterations would have drawn. The engine therefore runs exactly the
    /// ops, tags and costs of calling `body` `count` times in a loop.
    ///
    /// The body must append the same ops whatever the iteration, and
    /// every tag it uses must be drawn with [`CommWorld::fresh_tag`]
    /// inside it (the collectives and [`CommWorld::p2p`] do). Repeats
    /// nest.
    pub fn repeat(&mut self, count: usize, body: impl FnOnce(&mut Self)) -> &mut Self {
        let first_tag = self.next_tag;
        for program in &mut self.programs {
            program.begin_repeat(count);
        }
        body(self);
        let stride = self.next_tag - first_tag;
        for program in &mut self.programs {
            program.end_repeat(stride);
        }
        self.next_tag = first_tag + stride * count as u64;
        self
    }

    /// Adds parked processes: ranks that hold `placements`, after the
    /// world's own, but run no program. Call it once the programs are
    /// built; ops appended later would count the parked ranks as members.
    /// A workload that meets at an engine barrier cannot finish with
    /// parked ranks, since they never reach it.
    pub fn park(&mut self, placements: Vec<RankPlacement>) -> &mut Self {
        self.programs.resize(self.programs.len() + placements.len(), Program::new());
        self.placements.extend(placements);
        self
    }

    /// Appends a compute phase to one rank.
    pub fn compute(&mut self, rank: usize, phase: ComputePhase) -> &mut Self {
        self.programs[rank].compute(phase);
        self
    }

    /// Appends per-rank compute phases produced by `f` (return `None` to
    /// skip a rank).
    pub fn compute_all(&mut self, mut f: impl FnMut(usize) -> Option<ComputePhase>) -> &mut Self {
        for rank in 0..self.size() {
            if let Some(phase) = f(rank) {
                self.programs[rank].compute(phase);
            }
        }
        self
    }

    /// Appends a fixed delay to one rank.
    pub fn delay(&mut self, rank: usize, seconds: f64) -> &mut Self {
        self.programs[rank].delay(seconds);
        self
    }

    /// Appends a raw send (no matching recv — pair it yourself).
    pub fn send(&mut self, src: usize, dst: usize, bytes: f64, tag: u64) -> &mut Self {
        let cost =
            message_cost(self.machine, &self.placements, &self.profile, self.lock, src, dst, bytes);
        self.programs[src].send(RankId::new(dst), bytes, tag, cost);
        self
    }

    /// Appends a raw recv. The receiver pays one lock acquisition to
    /// dequeue the message from the shared-memory transport — serial CPU
    /// time that no pipelining can hide, and the second half of why the
    /// SysV semaphore sub-layer is so expensive per message.
    pub fn recv(&mut self, dst: usize, src: usize, tag: u64) -> &mut Self {
        self.programs[dst].recv(RankId::new(src), tag);
        self.programs[dst].delay(self.profile.lock_cost(self.lock));
        self
    }

    /// A matched point-to-point transfer: send on `src`, recv on `dst`,
    /// with a fresh tag.
    pub fn p2p(&mut self, src: usize, dst: usize, bytes: f64) -> &mut Self {
        let tag = self.fresh_tag();
        self.send(src, dst, bytes, tag);
        self.recv(dst, src, tag);
        self
    }

    /// A bidirectional exchange between `a` and `b` (both send, then both
    /// receive — safe because sends are buffered).
    pub fn sendrecv(&mut self, a: usize, b: usize, bytes: f64) -> &mut Self {
        let t_ab = self.fresh_tag();
        let t_ba = self.fresh_tag();
        self.send(a, b, bytes, t_ab);
        self.send(b, a, bytes, t_ba);
        self.recv(b, a, t_ab);
        self.recv(a, b, t_ba);
        self
    }

    /// An engine-level barrier across every rank: each waits for the last
    /// to arrive, at zero software cost.
    pub fn barrier(&mut self) -> &mut Self {
        for p in &mut self.programs {
            p.barrier();
        }
        self
    }

    /// Runs the built programs on a fresh engine.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (deadlock, bad placements, event limit).
    pub fn run(&self) -> Result<RunReport> {
        self.engine().run(&self.placements, &self.programs)
    }

    /// Runs the built programs under a schedule of mid-run faults (see
    /// [`corescope_machine::faults`]).
    ///
    /// # Errors
    ///
    /// Propagates engine errors, including the typed fault outcomes
    /// ([`corescope_machine::Error::RankStalled`],
    /// [`corescope_machine::Error::ZeroCapacityRoute`], watchdog budgets)
    /// and plan-validation failures.
    pub fn run_with_faults(&self, plan: &FaultPlan) -> Result<RunReport> {
        self.engine().run_with_faults(&self.placements, &self.programs, plan)
    }

    /// Runs the built programs and keeps everything observed along the
    /// way — partial metrics on error exits and, with
    /// [`TraceConfig::on`], a full time-resolved
    /// [`corescope_machine::RunTrace`].
    pub fn observe(&self, plan: &FaultPlan, trace: TraceConfig) -> Observed {
        self.engine().observe(&self.placements, &self.programs, plan, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::MpiImpl;
    use corescope_affinity::Scheme;
    use corescope_machine::systems;
    use corescope_machine::TrafficProfile;

    fn world(machine: &Machine, n: usize) -> CommWorld<'_> {
        let placements = Scheme::OneMpiLocalAlloc.resolve(machine, n).unwrap();
        CommWorld::new(machine, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV)
    }

    #[test]
    fn p2p_transfers_complete() {
        let m = Machine::new(systems::dmz());
        let mut w = world(&m, 2);
        w.p2p(0, 1, 1024.0);
        let report = w.run().unwrap();
        assert!(report.makespan > 0.0);
        assert_eq!(report.metrics.total_messages(), 1);
    }

    #[test]
    fn sendrecv_is_symmetric_and_deadlock_free() {
        let m = Machine::new(systems::dmz());
        let mut w = world(&m, 2);
        for _ in 0..100 {
            w.sendrecv(0, 1, 1e6);
        }
        let report = w.run().unwrap();
        assert_eq!(report.metrics.total_messages(), 200);
    }

    /// Builds, on 4 ranks, a prologue, `outer` iterations of { an
    /// allreduce, `inner` sendrecvs }, and an epilogue p2p — with
    /// nested repeats or as plain loops.
    fn looped(m: &Machine, outer: usize, inner: usize, repeated: bool) -> CommWorld<'_> {
        let mut w = world(m, 4);
        w.p2p(0, 3, 64.0);
        let step = |w: &mut CommWorld<'_>| {
            w.allreduce(8.0);
            w.compute_all(|_| Some(ComputePhase::new("work", 1e6, TrafficProfile::none())));
        };
        if repeated {
            w.repeat(outer, |w| {
                step(w);
                w.repeat(inner, |w| {
                    w.sendrecv(1, 2, 1e3);
                });
            });
        } else {
            for _ in 0..outer {
                step(&mut w);
                for _ in 0..inner {
                    w.sendrecv(1, 2, 1e3);
                }
            }
        }
        w.p2p(3, 0, 64.0);
        w
    }

    #[test]
    fn repeat_expands_to_the_plain_loop_with_the_same_tags() {
        let m = Machine::new(systems::longs());
        for (outer, inner) in [(0, 2), (1, 1), (3, 0), (4, 3)] {
            let (mut repeated, mut plain) =
                (looped(&m, outer, inner, true), looped(&m, outer, inner, false));
            for (r, p) in repeated.programs().iter().zip(plain.programs()) {
                assert!(r.iter().eq(p.iter()), "{outer} x {inner}");
                assert_eq!(r.len(), p.len());
            }
            assert_eq!(repeated.fresh_tag(), plain.fresh_tag(), "later tags are unchanged");
            let (a, b) = (repeated.run().unwrap(), plain.run().unwrap());
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.metrics.events, b.metrics.events);
        }
    }

    #[test]
    fn fresh_tags_are_unique() {
        let m = Machine::new(systems::dmz());
        let mut w = world(&m, 2);
        let a = w.fresh_tag();
        let b = w.fresh_tag();
        assert_ne!(a, b);
    }

    #[test]
    fn compute_all_skips_none() {
        let m = Machine::new(systems::dmz());
        let mut w = world(&m, 2);
        w.compute_all(|rank| {
            (rank == 0).then(|| {
                ComputePhase::new("work", 1e9, TrafficProfile::none()).with_efficiency(1.0)
            })
        });
        let report = w.run().unwrap();
        assert!(report.finish_of(RankId::new(0)) > 0.0);
        assert_eq!(report.finish_of(RankId::new(1)), 0.0);
    }

    #[test]
    fn barrier_holds_back_fast_ranks() {
        let m = Machine::new(systems::dmz());
        let mut w = world(&m, 2);
        w.delay(0, 1e-3);
        w.barrier();
        let report = w.run().unwrap();
        assert!(report.finish_of(RankId::new(1)) >= 1e-3 * 0.999);
    }

    #[test]
    fn armed_recovery_completes_through_a_kill() {
        let m = Machine::new(systems::dmz());
        let placements = Scheme::OneMpiLocalAlloc.resolve(&m, 2).unwrap();
        let mut w = CommWorld::new(&m, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV)
            .with_recovery(CheckpointPolicy::new(0.02, 1e7));
        w.compute_all(|_| Some(ComputePhase::new("work", 0.0, TrafficProfile::stream(5e8))));
        w.barrier();
        let plan = FaultPlan::new().rank_kill(0.05, RankId::new(0));
        let report = w.run_with_faults(&plan).unwrap();
        assert_eq!(report.metrics.recoveries, 1);
        assert!(report.metrics.checkpoints_taken >= 1);
    }
}
