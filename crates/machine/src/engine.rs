//! Fluid-flow discrete-event simulation engine.
//!
//! The engine executes one [`Program`] per rank against a [`Machine`].
//! Compute phases and messages become fluid flows over shared resources
//! (memory controllers and directed HyperTransport links); whenever the
//! active flow set changes, per-flow rates are re-solved with max-min
//! fairness (one [`crate::flow::Solver`] per run) and completion events
//! are recomputed.

use crate::cache;
use crate::error::{Error, Result};
use crate::faults::{FaultKind, FaultPlan};
use crate::flow::{Bottleneck, FlowKind, ResourceIndex, Solver};
use crate::ids::{CoreId, RankId};
use crate::memory::MemoryLayout;
use crate::program::{ComputePhase, Cursor, MessageCost, Op, Program};
use crate::recovery::{CheckpointPolicy, CheckpointTarget, RetryPolicy};
use crate::trace::{
    FaultStamp, OpSpan, RecoveryStamp, RunTrace, SolverInterval, SpanKind, TraceConfig,
};
use crate::traffic::{AccessPattern, TrafficProfile};
use crate::Machine;

pub use crate::metrics::{RunMetrics, RunReport};

use std::collections::VecDeque;

/// Where a rank runs and where its pages live.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlacement {
    /// The core the rank is pinned to.
    pub core: CoreId,
    /// Distribution of the rank's pages over NUMA nodes.
    pub layout: MemoryLayout,
}

impl RankPlacement {
    /// Creates a placement.
    pub fn new(core: CoreId, layout: MemoryLayout) -> Self {
        Self { core, layout }
    }
}

/// Simulation engine bound to one machine.
///
/// ```
/// use corescope_machine::{systems, Machine, Engine, Program, ComputePhase, TrafficProfile};
/// use corescope_machine::engine::RankPlacement;
/// use corescope_machine::{CoreId, MemoryLayout, NumaNodeId};
///
/// # fn main() -> Result<(), corescope_machine::Error> {
/// let machine = Machine::new(systems::dmz());
/// let engine = Engine::new(&machine);
/// let mut program = Program::new();
/// // 1 GB streamed from local memory: ~0.27 s at ~3.7 GB/s.
/// program.compute(ComputePhase::new("triad", 0.0, TrafficProfile::stream(1e9)));
/// let placement = RankPlacement::new(CoreId::new(0), MemoryLayout::single(NumaNodeId::new(0)));
/// let report = engine.run(&[placement], &[program])?;
/// assert!(report.makespan > 0.2 && report.makespan < 0.4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Engine<'m> {
    /// The machine, with the resource table and routes every run borrows.
    machine: &'m Machine,
    max_events: usize,
    /// Coordinated checkpoint/restart policy (see [`Engine::with_recovery`]).
    checkpoint: Option<CheckpointPolicy>,
    /// Transfer timeout/retry policy for failed links (see
    /// [`Engine::with_retry`]).
    retry: Option<RetryPolicy>,
}

/// Bytes below which a flow is considered drained.
const EPS_BYTES: f64 = 1e-6;
/// Timer comparison slack in seconds (one femtosecond).
const EPS_TIME: f64 = 1e-15;
/// Consecutive zero-time-advance iterations after which a run is a
/// livelock and fails with [`Error::RankStalled`]: far above anything a
/// legitimate same-timestamp cascade (barrier releases, eager send
/// chains) produces.
const ZERO_PROGRESS_LIMIT: usize = 50_000;

impl<'m> Engine<'m> {
    /// Creates an engine with the machine's nominal resource capacities.
    pub fn new(machine: &'m Machine) -> Self {
        Self { machine, max_events: 20_000_000, checkpoint: None, retry: None }
    }

    /// The machine this engine simulates.
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// Caps the number of discrete events per run (runaway guard).
    /// Exceeding it returns [`Error::EventBudgetExhausted`].
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Enables coordinated checkpoint/restart: every `policy.interval`
    /// seconds each live rank streams `policy.bytes_per_rank` through the
    /// memory system (real contending flows), and a
    /// [`FaultKind::RankKill`] rolls the whole job back to the last
    /// completed checkpoint instead of failing the run. Without a policy a
    /// kill returns [`Error::RankKilled`].
    pub fn with_recovery(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Enables transport timeout/retry: transfers in flight across a link
    /// severed by [`FaultKind::LinkFail`] are declared lost after
    /// `policy.detection_timeout` and retransmitted with exponential
    /// backoff instead of starving the run into [`Error::RankStalled`].
    /// Exceeding `policy.max_retries` returns [`Error::RetriesExhausted`].
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Runs one simulation.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidSpec`] — placement/program count mismatch.
    /// * [`Error::CoreOutOfRange`] / [`Error::NodeOutOfRange`] /
    ///   [`Error::CoreOversubscribed`] — bad placements.
    /// * [`Error::Deadlock`] — blocked ranks with no pending events.
    /// * [`Error::ZeroCapacityRoute`] — new traffic routed through a
    ///   resource currently at zero capacity.
    /// * [`Error::EventBudgetExhausted`] / [`Error::RankStalled`] —
    ///   watchdogs (the event budget of [`Engine::with_max_events`], and a
    ///   livelock guard on consecutive zero-time-advance iterations).
    pub fn run(&self, placements: &[RankPlacement], programs: &[Program]) -> Result<RunReport> {
        self.run_with_faults(placements, programs, &FaultPlan::new())
    }

    /// Runs one simulation under a schedule of mid-run faults.
    ///
    /// Faults fire as first-class discrete events: when one fires, active
    /// flow rates are re-solved under the new capacities and pending
    /// completion events are recomputed. A restore scheduled after a
    /// total outage wakes the flows it starved. Configurations that can
    /// never finish — a rank stalled with no resume, traffic starved by a
    /// zero-capacity resource with no restore — return typed errors, never
    /// hang.
    ///
    /// ```
    /// use corescope_machine::{systems, Machine, Engine, Program, ComputePhase, TrafficProfile};
    /// use corescope_machine::engine::RankPlacement;
    /// use corescope_machine::{CoreId, FaultPlan, MemoryLayout, NumaNodeId, SocketId};
    ///
    /// # fn main() -> Result<(), corescope_machine::Error> {
    /// let machine = Machine::new(systems::dmz());
    /// let engine = Engine::new(&machine);
    /// let mut program = Program::new();
    /// program.compute(ComputePhase::new("triad", 0.0, TrafficProfile::stream(1e9)));
    /// let placement = RankPlacement::new(CoreId::new(0), MemoryLayout::single(NumaNodeId::new(0)));
    /// // Throttle the local memory controller to half speed from t=0.1s on.
    /// let plan = FaultPlan::new().controller_throttle(0.1, SocketId::new(0), 0.5);
    /// let healthy = engine.run(&[placement.clone()], std::slice::from_ref(&program))?;
    /// let faulty = engine.run_with_faults(&[placement], &[program], &plan)?;
    /// assert!(faulty.makespan > healthy.makespan);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Everything [`Engine::run`] can return, plus [`Error::InvalidSpec`]
    /// when the plan fails [`FaultPlan::validate`].
    pub fn run_with_faults(
        &self,
        placements: &[RankPlacement],
        programs: &[Program],
        plan: &FaultPlan,
    ) -> Result<RunReport> {
        self.observe(placements, programs, plan, TraceConfig::off()).result
    }

    /// Runs one simulation and returns everything observed along the way,
    /// even when the run ends in a typed error: partial metrics, the end
    /// time, and (with [`TraceConfig::on`]) a full [`RunTrace`].
    ///
    /// With tracing off this is exactly [`Engine::run_with_faults`] plus
    /// the partial-outcome fields; with tracing on, rates and the
    /// resulting [`RunReport`] are still bit-identical — attribution is
    /// recorded on the side, never fed back into the solver.
    pub fn observe(
        &self,
        placements: &[RankPlacement],
        programs: &[Program],
        plan: &FaultPlan,
        trace: TraceConfig,
    ) -> Observed {
        match self.prepare(placements, programs, plan) {
            Ok(faults) => Sim::new(self, placements, programs, faults, trace).run(),
            Err(e) => Observed {
                result: Err(e),
                metrics: RunMetrics::new(programs.len(), self.machine.resources().len()),
                end_time: 0.0,
                faults: Vec::new(),
                trace: None,
            },
        }
    }

    /// Validates placements and the fault plan, lowering the plan to the
    /// engine's index space.
    fn prepare(
        &self,
        placements: &[RankPlacement],
        programs: &[Program],
        plan: &FaultPlan,
    ) -> Result<Vec<ScheduledFault>> {
        if placements.len() != programs.len() {
            return Err(Error::InvalidSpec(format!(
                "{} placements for {} programs",
                placements.len(),
                programs.len()
            )));
        }
        if let Some(rank) = programs.iter().position(|p| p.open_repeats() > 0) {
            return Err(Error::InvalidSpec(format!(
                "the program of rank {rank} has an unclosed repeat region"
            )));
        }
        let num_cores = self.machine.num_cores();
        let num_nodes = self.machine.num_sockets();
        let mut seen = vec![false; num_cores];
        for p in placements {
            if p.core.index() >= num_cores {
                return Err(Error::CoreOutOfRange { core: p.core.index(), num_cores });
            }
            if seen[p.core.index()] {
                return Err(Error::CoreOversubscribed { core: p.core.index() });
            }
            seen[p.core.index()] = true;
            p.layout.check_nodes(num_nodes)?;
        }
        if let Some(policy) = &self.checkpoint {
            policy.validate(self.machine)?;
        }
        if let Some(policy) = &self.retry {
            policy.validate()?;
        }
        plan.validate(self.machine, programs.len())?;
        plan.events()
            .iter()
            .map(|e| {
                Ok(ScheduledFault { at: e.at, kind: e.kind, fault: self.resolve_fault(e.kind)? })
            })
            .collect()
    }

    /// Lowers a [`FaultKind`] to a resource index and absolute capacity.
    ///
    /// Capacity factors are relative to *nominal* capacity, the one the
    /// machine spec gives the resource, so restores and repeated degrades
    /// never compound.
    fn resolve_fault(&self, kind: FaultKind) -> Result<ResolvedFault> {
        let fabric = &self.machine.fabric;
        let scaled = |index: ResourceIndex, factor: f64| ResolvedFault::SetCapacity {
            index,
            capacity: fabric.resources.capacity(index) * factor,
        };
        let probe = || {
            fabric.probe.ok_or_else(|| {
                Error::InvalidSpec("probe fault on a machine without a probe fabric".to_string())
            })
        };
        Ok(match kind {
            FaultKind::LinkDegrade { link, factor } => scaled(fabric.links[link.index()], factor),
            FaultKind::LinkRestore { link } => scaled(fabric.links[link.index()], 1.0),
            FaultKind::ControllerThrottle { socket, factor } => {
                scaled(fabric.mc[socket.index()], factor)
            }
            FaultKind::ControllerRestore { socket } => scaled(fabric.mc[socket.index()], 1.0),
            FaultKind::ProbeBrownout { factor } => scaled(probe()?, factor),
            FaultKind::ProbeRestore => scaled(probe()?, 1.0),
            FaultKind::RankStall { rank } => ResolvedFault::Stall(rank.index()),
            FaultKind::RankResume { rank } => ResolvedFault::Resume(rank.index()),
            FaultKind::RankKill { rank } => ResolvedFault::Kill(rank.index()),
            FaultKind::LinkFail { link } => {
                ResolvedFault::FailLink { index: fabric.links[link.index()] }
            }
        })
    }
}

/// Everything one run produced, even when it ended in a typed error.
///
/// [`Engine::run`]'s `Result<RunReport>` throws the partial state of a
/// failed run away; `Observed` keeps it. `metrics` and `end_time` are
/// always populated (partially-drained flows are charged for the bytes
/// they actually moved), and `trace` is present when the run was started
/// with [`TraceConfig::on`].
#[derive(Debug)]
pub struct Observed {
    /// The run outcome, exactly as [`Engine::run_with_faults`] returns it.
    pub result: Result<RunReport>,
    /// Metrics accumulated up to the point the run ended — identical to
    /// `result`'s copy on success, partial on error.
    pub metrics: RunMetrics,
    /// Engine time when the run ended (successfully or not).
    pub end_time: f64,
    /// Fault events that fired, in firing order, traced or not. A traced
    /// run's [`RunTrace::faults`] is this same list.
    pub faults: Vec<FaultStamp>,
    /// The time-resolved trace, when tracing was enabled.
    pub trace: Option<RunTrace>,
}

/// A fault lowered to the engine's resource/rank index space, keeping its
/// plan-level [`FaultKind`] so traced runs can stamp what fired.
#[derive(Debug, Clone, Copy)]
struct ScheduledFault {
    at: f64,
    kind: FaultKind,
    fault: ResolvedFault,
}

/// A fault lowered to the engine's resource/rank index space.
#[derive(Debug, Clone, Copy)]
enum ResolvedFault {
    SetCapacity {
        index: ResourceIndex,
        capacity: f64,
    },
    Stall(usize),
    Resume(usize),
    /// Terminal loss of a rank: recover from the last checkpoint, or fail
    /// the run with [`Error::RankKilled`] when no policy is active.
    Kill(usize),
    /// Permanent (until restored) link severance: capacity drops to zero
    /// *and* in-flight transfers on the link are lost, not just slowed.
    FailLink {
        index: ResourceIndex,
    },
}

/// Unmatched sends (transfer indices) or receives (rank indices), one
/// FIFO of `(src, tag, value)` per receiving rank, in posting order. The
/// first entry with a key's source and tag is the oldest of its
/// `(src, dst, tag)` key, so matching is FIFO per key; a rank that
/// receives in the order its messages were sent matches at the head.
#[derive(Debug, Clone)]
struct MatchQueues(Vec<VecDeque<(usize, u64, usize)>>);

impl MatchQueues {
    fn new(ranks: usize) -> Self {
        Self(vec![VecDeque::new(); ranks])
    }

    /// Appends `value` under `(src, dst, tag)`.
    fn push(&mut self, (src, dst, tag): (usize, usize, u64), value: usize) {
        self.0[dst].push_back((src, tag, value));
    }

    /// Removes and returns the oldest value under `(src, dst, tag)`.
    fn pop(&mut self, (src, dst, tag): (usize, usize, u64)) -> Option<usize> {
        let queue = &mut self.0[dst];
        let at = queue.iter().position(|&(s, t, _)| s == src && t == tag)?;
        queue.remove(at).map(|(_, _, value)| value)
    }
}

/// A set of rank indices, one bit per rank.
#[derive(Debug, Clone)]
struct RankSet(Vec<u64>);

impl RankSet {
    /// The empty set over `n` ranks.
    fn new(n: usize) -> Self {
        Self(vec![0; n.div_ceil(64)])
    }

    /// Every one of `n` ranks.
    fn full(n: usize) -> Self {
        let mut set = Self::new(n);
        for rank in 0..n {
            set.insert(rank);
        }
        set
    }

    fn insert(&mut self, rank: usize) {
        self.0[rank / 64] |= 1 << (rank % 64);
    }

    fn remove(&mut self, rank: usize) {
        self.0[rank / 64] &= !(1 << (rank % 64));
    }

    fn contains(&self, rank: usize) -> bool {
        self.0[rank / 64] >> (rank % 64) & 1 == 1
    }

    /// The lowest rank in this set and not in `other`.
    fn first_without(&self, other: &RankSet) -> Option<usize> {
        self.0.iter().zip(&other.0).enumerate().find_map(|(word, (&these, &those))| {
            let bits = these & !those;
            (bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
        })
    }
}

/// An op span still in progress on one rank (trace-only state).
#[derive(Debug, Clone)]
struct OpenSpan {
    kind: SpanKind,
    label: &'static str,
    t0: f64,
    attributed: Vec<(Bottleneck, f64)>,
}

/// All per-run trace state, boxed behind an `Option` so an untraced run
/// carries one `None` and allocates nothing.
#[derive(Debug)]
struct TraceState {
    intervals: Vec<SolverInterval>,
    spans: Vec<OpSpan>,
    open: Vec<Option<OpenSpan>>,
    /// Bottleneck attribution per flow slot, refreshed at every rate
    /// solve (indexed like `Sim::flows`).
    flow_bottleneck: Vec<Bottleneck>,
    recoveries: Vec<RecoveryStamp>,
    /// Per-resource load and "some flow routes here" of the interval
    /// being recorded; scratch reused by every interval.
    load: Vec<f64>,
    routed: Vec<bool>,
}

/// Accumulates `dt` seconds of bottleneck `b` onto `rank`'s open span.
fn attribute(open: &mut [Option<OpenSpan>], rank: usize, b: Bottleneck, dt: f64) {
    let Some(span) = open.get_mut(rank).and_then(Option::as_mut) else { return };
    if let Some(slot) = span.attributed.iter_mut().find(|(have, _)| *have == b) {
        slot.1 += dt;
    } else {
        span.attributed.push((b, dt));
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Ready,
    Computing {
        cpu_end: f64,
        pending_flows: usize,
    },
    /// Eager sender busy until `until`, or a `Delay` op.
    Waiting {
        until: f64,
    },
    /// Rendezvous sender blocked on a transfer.
    SendBlocked {
        transfer: usize,
    },
    RecvBlocked,
    BarrierBlocked,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TransferState {
    /// Send posted, waiting for the matching receive.
    WaitingRecv,
    /// Both sides posted; the flow starts at the stored time.
    Starting { at: f64 },
    /// Transfer in flight as flow `flow`.
    Flowing { flow: usize },
    /// Delivered.
    Done,
}

#[derive(Debug, Clone)]
struct Transfer {
    src: usize,
    dst: usize,
    bytes: f64,
    cost: MessageCost,
    send_post: f64,
    state: TransferState,
    /// Retransmissions already spent on this transfer (see
    /// [`RetryPolicy`]).
    attempts: usize,
}

#[derive(Debug, Clone, Copy)]
enum FlowOwner {
    /// A compute phase's DRAM traffic for rank `.0`.
    Phase(usize),
    /// Transfer `.0`'s payload.
    Transfer(usize),
    /// Rank `.0`'s share of a coordinated checkpoint write.
    Checkpoint(usize),
}

/// A live flow. Its route is borrowed from the machine's route tables,
/// and its kind — its own rate cap in bytes/s and its route, interned by
/// the run's [`Solver`] when the flow starts — is what a rate solve reads.
#[derive(Debug, Clone)]
struct ActiveFlow<'a> {
    owner: FlowOwner,
    route: &'a [ResourceIndex],
    kind: FlowKind,
    initial: f64,
    remaining: f64,
    rate: f64,
}

/// A consistent global cut of application and channel state, captured at
/// every checkpoint completion (plus an implicit one at `t = 0`). Rolling
/// back to it restores everything a replay needs; environment state —
/// resource capacities, the fault cursor, accumulated metrics and trace —
/// deliberately stays live, because the environment does not roll back
/// when an application restarts.
#[derive(Debug, Clone)]
struct SimSnapshot<'a> {
    /// Simulated time the cut was taken at.
    at: f64,
    /// Every rank's whole cursor, repeat-region iterations included.
    cursors: Vec<Cursor>,
    status: Vec<Status>,
    finish: Vec<f64>,
    flows: Vec<Option<ActiveFlow<'a>>>,
    transfers: Vec<Transfer>,
    free_transfers: Vec<usize>,
    starting_transfers: Vec<usize>,
    pending_sends: MatchQueues,
    pending_recvs: MatchQueues,
    barrier_arrived: usize,
}

struct Sim<'a, 'm> {
    engine: &'a Engine<'m>,
    placements: &'a [RankPlacement],
    programs: &'a [Program],
    /// The run's own capacity of every resource: starts as a copy of the
    /// machine's nominal capacities and is mutated in place as scheduled
    /// faults fire. Names are read from the machine.
    capacities: Vec<f64>,
    /// Time-sorted fault schedule; `next_fault` is the cursor into it.
    faults: Vec<ScheduledFault>,
    next_fault: usize,
    /// The faults that fired, in firing order (kept across rollbacks).
    fired: Vec<FaultStamp>,
    /// Ranks frozen by an unresumed [`FaultKind::RankStall`]. A stalled
    /// rank finishes its current operation but dispatches nothing.
    stalled: RankSet,
    now: f64,
    /// Each rank's position in its program's expanded op stream.
    cursors: Vec<Cursor>,
    /// Every rank's status, written only through [`Sim::set_status`].
    status: Vec<Status>,
    /// The ranks whose status is `Ready`, and how many are not `Done`.
    ready: RankSet,
    live: usize,
    finish: Vec<f64>,
    flows: Vec<Option<ActiveFlow<'a>>>,
    /// A slab of the messages in flight: `start_send` reuses the slots of
    /// delivered transfers, listed in `free_transfers`, so the table holds
    /// what is in flight rather than every message ever sent.
    transfers: Vec<Transfer>,
    free_transfers: Vec<usize>,
    /// Transfers in the `Starting` state (the only ones with a timer), so
    /// the event scan walks only those.
    starting_transfers: Vec<usize>,
    /// Unmatched send transfer-indices, FIFO per (src, dst, tag).
    pending_sends: MatchQueues,
    /// Unmatched receives, FIFO per (src, dst, tag).
    pending_recvs: MatchQueues,
    barrier_arrived: usize,
    metrics: RunMetrics,
    rates_dirty: bool,
    /// Rate-solver scratch and memo, reused by every solve of the run.
    solver: Solver,
    /// `None` when tracing is off: the hot loop then skips every trace
    /// hook without allocating.
    trace: Option<Box<TraceState>>,
    /// Resources severed by [`FaultKind::LinkFail`] (as opposed to merely
    /// degraded to zero): transfers routed over these are lost and
    /// eligible for retry. Cleared by a restore.
    failed_resources: Vec<bool>,
    /// Last completed checkpoint (present iff a policy is active).
    snapshot: Option<Box<SimSnapshot<'a>>>,
    /// When the next coordinated checkpoint starts.
    next_ckpt_at: Option<f64>,
    /// Checkpoint flows still draining for the in-progress checkpoint.
    ckpt_flows_pending: usize,
}

impl<'a, 'm> Sim<'a, 'm> {
    fn new(
        engine: &'a Engine<'m>,
        placements: &'a [RankPlacement],
        programs: &'a [Program],
        faults: Vec<ScheduledFault>,
        trace: TraceConfig,
    ) -> Self {
        let n = programs.len();
        let capacities = engine.machine.resources().capacities().to_vec();
        let num_resources = capacities.len();
        Self {
            engine,
            placements,
            programs,
            capacities,
            faults,
            next_fault: 0,
            fired: Vec::new(),
            stalled: RankSet::new(n),
            now: 0.0,
            cursors: vec![Cursor::default(); n],
            status: vec![Status::Ready; n],
            ready: RankSet::full(n),
            live: n,
            finish: vec![0.0; n],
            flows: Vec::new(),
            transfers: Vec::new(),
            free_transfers: Vec::new(),
            starting_transfers: Vec::new(),
            pending_sends: MatchQueues::new(n),
            pending_recvs: MatchQueues::new(n),
            barrier_arrived: 0,
            metrics: RunMetrics::new(n, num_resources),
            rates_dirty: false,
            solver: Solver::new(),
            trace: trace.is_on().then(|| {
                Box::new(TraceState {
                    intervals: Vec::new(),
                    spans: Vec::new(),
                    open: vec![None; n],
                    flow_bottleneck: Vec::new(),
                    recoveries: Vec::new(),
                    load: Vec::new(),
                    routed: Vec::new(),
                })
            }),
            failed_resources: vec![false; num_resources],
            snapshot: None,
            next_ckpt_at: None,
            ckpt_flows_pending: 0,
        }
    }

    fn run(mut self) -> Observed {
        let outcome = self.run_loop();
        self.metrics.solves = self.solver.solves();
        self.metrics.solves_reused = self.solver.reused();
        // Charge flows still in flight for the bytes they actually moved
        // — a run that ends in a typed error (fault kill, stall, budget)
        // must still account its partial traffic.
        for f in self.flows.iter().flatten() {
            let moved = (f.initial - f.remaining.max(0.0)).max(0.0);
            for &r in f.route {
                self.metrics.resource_bytes[r] += moved;
            }
        }
        for rank in 0..self.programs.len() {
            self.trace_close_span(rank);
        }
        let trace = self.trace.take().map(|t| {
            let table = self.engine.machine.resources();
            RunTrace {
                resource_names: (0..table.len()).map(|r| table.name(r).to_string()).collect(),
                num_ranks: self.programs.len(),
                intervals: t.intervals,
                spans: t.spans,
                faults: self.fired.clone(),
                recoveries: t.recoveries,
                end_time: self.now,
            }
        });
        let metrics = self.metrics.clone();
        let result = outcome.map(|makespan| RunReport {
            makespan,
            rank_finish: self.finish,
            metrics: self.metrics,
        });
        Observed { result, metrics, end_time: self.now, faults: self.fired, trace }
    }

    fn run_loop(&mut self) -> Result<f64> {
        let n = self.programs.len();
        if let Some(policy) = &self.engine.checkpoint {
            // The t=0 state is the implicit first checkpoint: a kill before
            // the first completed checkpoint restarts the job from scratch.
            self.next_ckpt_at = Some(policy.interval);
            self.take_snapshot();
        }
        self.apply_due_faults()?;
        self.dispatch_all()?;
        self.resolve_rates()?;
        let mut zero_dt_iters = 0usize;

        while self.live > 0 {
            self.metrics.events += 1;
            if self.metrics.events > self.engine.max_events {
                return Err(Error::EventBudgetExhausted {
                    budget: self.engine.max_events,
                    at_time: self.now,
                });
            }
            let Some(app_next) = self.next_event_time() else {
                // Deliberately checked before merging the checkpoint
                // timer: checkpointing a deadlocked application forever is
                // not progress, so deadlock detection stays app-only.
                return Err(self.no_progress_error());
            };
            let next = match self.next_ckpt_at {
                Some(ckpt) if ckpt < app_next => ckpt.max(self.now),
                _ => app_next,
            };
            let dt = (next - self.now).max(0.0);
            if dt > EPS_TIME {
                zero_dt_iters = 0;
            } else {
                zero_dt_iters += 1;
                if zero_dt_iters > ZERO_PROGRESS_LIMIT {
                    let rank = (0..n)
                        .find(|&r| self.status[r] != Status::Done)
                        .map(RankId::new)
                        .unwrap_or_else(|| RankId::new(0));
                    return Err(Error::RankStalled { rank, at_time: self.now, resource: None });
                }
            }
            if dt > 0.0 {
                self.trace_interval(next);
            }
            self.advance_flows(dt);
            self.now = next;

            self.apply_due_faults()?;
            self.maybe_start_checkpoint()?;
            self.process_flow_completions()?;
            self.process_timers()?;
            self.dispatch_all()?;
            if self.rates_dirty {
                self.resolve_rates()?;
            }
        }

        let makespan = self.finish.iter().copied().fold(0.0, f64::max);
        Ok(makespan)
    }

    /// Records the solver interval `[now, t1)` — constant rates — plus
    /// per-flow bottleneck attribution onto the owning ranks' open spans.
    /// No-op when tracing is off.
    fn trace_interval(&mut self, t1: f64) {
        let now = self.now;
        let Some(trace) = self.trace.as_deref_mut() else { return };
        let dt = t1 - now;
        let n = self.capacities.len();
        let TraceState { load, routed, .. } = trace;
        load.clear();
        load.resize(n, 0.0);
        routed.clear();
        routed.resize(n, false);
        for f in self.flows.iter().flatten() {
            for &r in f.route {
                load[r] += f.rate;
                routed[r] = true;
            }
        }
        let utilization = (0..n)
            .map(|r| {
                let cap = self.capacities[r];
                if cap > 0.0 {
                    (load[r] / cap).min(1.0)
                } else if routed[r] {
                    // A dead resource with traffic routed through it is
                    // the binding constraint: report it pinned.
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        trace.intervals.push(SolverInterval { t0: now, t1, utilization });

        // Attribute the interval to the open spans of the ranks each live
        // flow serves: a phase flow charges its rank; a transfer charges
        // the receiver, plus a rendezvous sender still blocked on it.
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            let b = trace.flow_bottleneck.get(slot).copied().unwrap_or(Bottleneck::FlowCap);
            match f.owner {
                FlowOwner::Phase(rank) => attribute(&mut trace.open, rank, b, dt),
                FlowOwner::Transfer(t) => {
                    let tr = &self.transfers[t];
                    attribute(&mut trace.open, tr.dst, b, dt);
                    if matches!(self.status[tr.src], Status::SendBlocked { transfer } if transfer == t)
                    {
                        attribute(&mut trace.open, tr.src, b, dt);
                    }
                }
                // Checkpoint traffic charges whatever op the owning rank
                // is inside — the checkpoint runs concurrently with it.
                FlowOwner::Checkpoint(rank) => attribute(&mut trace.open, rank, b, dt),
            }
        }
    }

    /// Closes `rank`'s open span at the current time, dropping
    /// zero-length spans with nothing attributed. No-op when tracing is
    /// off.
    fn trace_close_span(&mut self, rank: usize) {
        let now = self.now;
        let Some(trace) = self.trace.as_deref_mut() else { return };
        let Some(open) = trace.open.get_mut(rank).and_then(Option::take) else { return };
        if now - open.t0 > 0.0 || !open.attributed.is_empty() {
            trace.spans.push(OpSpan {
                rank,
                kind: open.kind,
                label: open.label,
                t0: open.t0,
                t1: now,
                attributed: open.attributed,
            });
        }
    }

    /// Opens a span for a freshly dispatched op (closing the previous op's
    /// span — ops on one rank are sequential). No-op when tracing is off.
    fn trace_open_span(&mut self, rank: usize, op: &Op) {
        if self.trace.is_none() {
            return;
        }
        self.trace_close_span(rank);
        let now = self.now;
        let Some(trace) = self.trace.as_deref_mut() else { return };
        let (kind, label) = match op {
            Op::Compute(phase) => (SpanKind::Compute, phase.label),
            Op::Delay(_) => (SpanKind::Delay, "delay"),
            Op::Send { .. } => (SpanKind::Send, "send"),
            Op::Recv { .. } => (SpanKind::Recv, "recv"),
            Op::Barrier => (SpanKind::Barrier, "barrier"),
        };
        trace.open[rank] = Some(OpenSpan { kind, label, t0: now, attributed: Vec::new() });
    }

    /// Fires every scheduled fault due at (or before) `now`.
    ///
    /// # Errors
    ///
    /// [`Error::RankKilled`] for a kill with no active checkpoint policy;
    /// [`Error::RetriesExhausted`] when a link failure wastes the last
    /// retry of an in-flight transfer.
    fn apply_due_faults(&mut self) -> Result<()> {
        while let Some(&ScheduledFault { at, kind, fault }) = self.faults.get(self.next_fault) {
            if at > self.now + EPS_TIME {
                break;
            }
            self.next_fault += 1;
            self.metrics.faults_applied += 1;
            self.fired.push(FaultStamp { scheduled: at, fired: self.now, kind });
            match fault {
                ResolvedFault::SetCapacity { index, capacity } => {
                    self.capacities[index] = capacity;
                    if capacity > 0.0 {
                        // A restore heals a severed link: new transfers
                        // route over it again.
                        self.failed_resources[index] = false;
                    }
                    self.rates_dirty = true;
                }
                ResolvedFault::Stall(rank) => self.stalled.insert(rank),
                ResolvedFault::Resume(rank) => self.stalled.remove(rank),
                ResolvedFault::Kill(rank) => {
                    if self.status[rank] == Status::Done {
                        // Killing a rank that already finished loses
                        // nothing: its results are out.
                        continue;
                    }
                    if self.engine.checkpoint.is_some() {
                        self.recover_from_kill(rank);
                    } else {
                        return Err(Error::RankKilled {
                            rank: RankId::new(rank),
                            at_time: self.now,
                        });
                    }
                }
                ResolvedFault::FailLink { index } => {
                    self.capacities[index] = 0.0;
                    self.failed_resources[index] = true;
                    self.rates_dirty = true;
                    self.detect_lost_transfers(index)?;
                }
            }
        }
        Ok(())
    }

    /// Diagnoses why the simulation has no next event, most specific
    /// cause first: traffic starved by a dead resource, then a frozen
    /// rank, then a plain message deadlock.
    fn no_progress_error(&self) -> Error {
        for f in self.flows.iter().flatten() {
            if f.rate > 0.0 {
                continue;
            }
            if let Some(&r) = f.route.iter().find(|&&r| self.capacities[r] <= 0.0) {
                let rank = match f.owner {
                    FlowOwner::Phase(rank) => rank,
                    FlowOwner::Transfer(t) => self.transfers[t].src,
                    FlowOwner::Checkpoint(rank) => rank,
                };
                return Error::RankStalled {
                    rank: RankId::new(rank),
                    at_time: self.now,
                    resource: Some(self.resource_name(r)),
                };
            }
        }
        if let Some(rank) = (0..self.status.len())
            .find(|&r| self.stalled.contains(r) && self.status[r] != Status::Done)
        {
            return Error::RankStalled {
                rank: RankId::new(rank),
                at_time: self.now,
                resource: None,
            };
        }
        let blocked: Vec<RankId> = (0..self.status.len())
            .filter(|&r| self.status[r] != Status::Done)
            .map(RankId::new)
            .collect();
        Error::Deadlock { blocked, at_time: self.now }
    }

    /// Executes ops for every Ready, non-stalled rank until all are
    /// blocked, stalled, or done, always dispatching the lowest such rank
    /// next.
    fn dispatch_all(&mut self) -> Result<()> {
        while let Some(rank) = self.ready.first_without(&self.stalled) {
            self.dispatch(rank)?;
        }
        Ok(())
    }

    /// Sets `rank`'s status, keeping the ready set and the live count.
    fn set_status(&mut self, rank: usize, status: Status) {
        let was_done = matches!(self.status[rank], Status::Done);
        if matches!(status, Status::Ready) {
            self.ready.insert(rank);
        } else {
            self.ready.remove(rank);
        }
        self.live = self.live + usize::from(was_done) - usize::from(matches!(status, Status::Done));
        self.status[rank] = status;
    }

    /// Rebuilds the ready set and the live count from `status`.
    fn rebuild_rank_sets(&mut self) {
        self.ready = RankSet::new(self.status.len());
        for (rank, &s) in self.status.iter().enumerate() {
            if s == Status::Ready {
                self.ready.insert(rank);
            }
        }
        self.live = self.status.iter().filter(|&&s| s != Status::Done).count();
    }

    fn dispatch(&mut self, rank: usize) -> Result<()> {
        let programs = self.programs;
        let Some((op, tag_offset)) = self.cursors[rank].next(&programs[rank]) else {
            self.trace_close_span(rank);
            self.set_status(rank, Status::Done);
            self.finish[rank] = self.now;
            return Ok(());
        };
        self.trace_open_span(rank, op);
        match *op {
            Op::Compute(ref phase) => self.start_phase(rank, phase)?,
            Op::Delay(seconds) => {
                if seconds > 0.0 {
                    self.set_status(rank, Status::Waiting { until: self.now + seconds });
                }
            }
            Op::Send { to, bytes, tag, cost } => {
                self.start_send(rank, to, bytes, tag + tag_offset, cost)?;
            }
            Op::Recv { from, tag } => self.start_recv(rank, from, tag + tag_offset)?,
            Op::Barrier => {
                self.set_status(rank, Status::BarrierBlocked);
                self.barrier_arrived += 1;
                if self.barrier_arrived == self.programs.len() {
                    self.barrier_arrived = 0;
                    for r in 0..self.status.len() {
                        if self.status[r] == Status::BarrierBlocked {
                            self.set_status(r, Status::Ready);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn start_phase(&mut self, rank: usize, phase: &ComputePhase) -> Result<()> {
        let machine = self.engine.machine;
        let spec = machine.spec();
        let placement = &self.placements[rank];
        let core = placement.core;
        let src_socket = machine.socket_of(core);

        let cpu_time = if phase.flops > 0.0 {
            phase.flops / (spec.core.peak_flops() * phase.efficiency)
        } else {
            0.0
        };

        // Average access latency over the phase's page distribution (the
        // rank's placement layout unless the phase pins its own).
        let layout = phase.layout.as_ref().unwrap_or(&placement.layout);
        let mut avg_latency = 0.0;
        for (node, frac) in layout.shares() {
            avg_latency += frac * machine.memory_latency(core, node);
        }
        if phase.traffic.pattern == AccessPattern::Lookup {
            // Dependent lookups miss the open DRAM row and walk the TLB;
            // the streaming latency above assumes a row-hit mix. On
            // tiered machines each node charges its own surcharge.
            if spec.is_uniform() {
                avg_latency += spec.memory.lookup_latency;
            } else {
                for (node, frac) in layout.shares() {
                    avg_latency += frac * spec.memory_of(node.index()).lookup_latency;
                }
            }
        }
        let demand = cache::dram_demand(&spec.cache, &phase.traffic, avg_latency);
        self.metrics.dram_bytes[rank] += demand.bytes;

        let mut pending = 0;
        if demand.bytes > EPS_BYTES {
            for (node, frac) in layout.shares() {
                let bytes = demand.bytes * frac;
                if bytes <= EPS_BYTES {
                    continue;
                }
                let route =
                    machine.fabric.phase_routes.get(src_socket, machine.socket_of_node(node))?;
                self.check_route(route)?;
                self.add_flow(FlowOwner::Phase(rank), route, demand.self_cap * frac, bytes);
                pending += 1;
            }
        }

        if pending == 0 && cpu_time <= 0.0 {
            // Nothing to do: stay Ready (dispatch loop continues).
        } else {
            let cpu_end = self.now + cpu_time;
            self.set_status(rank, Status::Computing { cpu_end, pending_flows: pending });
        }
        Ok(())
    }

    fn start_send(
        &mut self,
        rank: usize,
        to: RankId,
        bytes: f64,
        tag: u64,
        cost: MessageCost,
    ) -> Result<()> {
        let dst = to.index();
        if dst >= self.programs.len() {
            return Err(Error::InvalidSpec(format!("rank {rank} sends to nonexistent rank {dst}")));
        }
        self.metrics.messages_sent[rank] += 1;
        self.metrics.bytes_sent[rank] += bytes;

        let transfer = Transfer {
            src: rank,
            dst,
            bytes,
            cost,
            send_post: self.now,
            state: TransferState::WaitingRecv,
            attempts: 0,
        };
        let idx = match self.free_transfers.pop() {
            Some(idx) => {
                self.transfers[idx] = transfer;
                idx
            }
            None => {
                self.transfers.push(transfer);
                self.transfers.len() - 1
            }
        };

        // Match an already-posted receive, if any.
        let key = (rank, dst, tag);
        if self.pending_recvs.pop(key).is_some() {
            let at = (self.now + cost.setup).max(self.now);
            self.transfers[idx].state = TransferState::Starting { at };
            self.starting_transfers.push(idx);
        } else {
            self.pending_sends.push(key, idx);
        }

        if cost.rendezvous {
            self.set_status(rank, Status::SendBlocked { transfer: idx });
        } else if cost.sender_busy > 0.0 {
            self.set_status(rank, Status::Waiting { until: self.now + cost.sender_busy });
        }
        // else: sender continues immediately (stays Ready).
        Ok(())
    }

    fn start_recv(&mut self, rank: usize, from: RankId, tag: u64) -> Result<()> {
        let src = from.index();
        if src >= self.programs.len() {
            return Err(Error::InvalidSpec(format!(
                "rank {rank} receives from nonexistent rank {src}"
            )));
        }
        let key = (src, rank, tag);
        match self.pending_sends.pop(key) {
            Some(t) => {
                let begin =
                    (self.transfers[t].send_post + self.transfers[t].cost.setup).max(self.now);
                self.transfers[t].state = TransferState::Starting { at: begin };
                self.set_status(rank, Status::RecvBlocked);
                // Start immediately if the start time has already passed.
                if begin <= self.now + EPS_TIME {
                    self.start_transfer_flow(t)?;
                } else {
                    self.starting_transfers.push(t);
                }
            }
            None => {
                self.pending_recvs.push(key, rank);
                self.set_status(rank, Status::RecvBlocked);
            }
        }
        Ok(())
    }

    /// Moves a transfer from `Starting` to `Flowing` (or completes it for
    /// empty payloads).
    fn start_transfer_flow(&mut self, t: usize) -> Result<()> {
        let machine = self.engine.machine;
        let (src, dst, bytes, cap) = {
            let tr = &self.transfers[t];
            (tr.src, tr.dst, tr.bytes, tr.cost.cap)
        };
        if bytes <= EPS_BYTES {
            self.complete_transfer(t)?;
            return Ok(());
        }
        let s_src = machine.socket_of(self.placements[src].core);
        let s_dst = machine.socket_of(self.placements[dst].core);
        let route = machine.fabric.transfer_routes.get(s_src, s_dst)?;
        // A transfer asked to start over a severed link goes back to the
        // retry queue instead of erroring — the sender cannot know the
        // path is down until its failure detector fires.
        if let Some(&dead) = route.iter().find(|&&r| self.capacities[r] <= 0.0) {
            if self.failed_resources[dead] {
                if let Some(retry) = self.engine.retry.clone() {
                    return self.schedule_retry(t, &retry);
                }
            }
            return Err(Error::ZeroCapacityRoute { resource: self.resource_name(dead) });
        }
        let flow = self.add_flow(FlowOwner::Transfer(t), route, cap.min(1e12), bytes);
        self.transfers[t].state = TransferState::Flowing { flow };
        Ok(())
    }

    /// Marks transfer `t` delivered, frees its slot and wakes the ranks
    /// waiting on it. Nothing refers to a delivered transfer: it has left
    /// the match maps, the start queue and the flow slots, and its
    /// rendezvous sender is released here.
    fn complete_transfer(&mut self, t: usize) -> Result<()> {
        let (src, dst, rendezvous) = {
            let tr = &mut self.transfers[t];
            tr.state = TransferState::Done;
            (tr.src, tr.dst, tr.cost.rendezvous)
        };
        self.free_transfers.push(t);
        // Receiver was blocked on this delivery.
        debug_assert_eq!(self.status[dst], Status::RecvBlocked);
        self.set_status(dst, Status::Ready);
        if rendezvous {
            if let Status::SendBlocked { transfer } = self.status[src] {
                if transfer == t {
                    self.set_status(src, Status::Ready);
                }
            }
        }
        Ok(())
    }

    /// Starts a flow of `bytes` over `route`, at most `cap` bytes/s fast,
    /// in the lowest free slot, its kind interned by the run's solver.
    fn add_flow(
        &mut self,
        owner: FlowOwner,
        route: &'a [ResourceIndex],
        cap: f64,
        bytes: f64,
    ) -> usize {
        let kind = self.solver.intern(cap, route);
        let flow = ActiveFlow { owner, route, kind, initial: bytes, remaining: bytes, rate: 0.0 };
        self.rates_dirty = true;
        if let Some(slot) = self.flows.iter().position(Option::is_none) {
            self.flows[slot] = Some(flow);
            slot
        } else {
            self.flows.push(Some(flow));
            self.flows.len() - 1
        }
    }

    fn check_route(&self, route: &[ResourceIndex]) -> Result<()> {
        match route.iter().find(|&&r| self.capacities[r] <= 0.0) {
            Some(&dead) => Err(Error::ZeroCapacityRoute { resource: self.resource_name(dead) }),
            None => Ok(()),
        }
    }

    /// The machine's name for resource `r`, for an error message.
    fn resource_name(&self, r: ResourceIndex) -> String {
        self.engine.machine.resources().name(r).to_string()
    }

    /// Re-solves every live flow's rate. The solver sees the live flows
    /// in slot order and returns rates in the same order, so they are
    /// written back by walking the occupied slots again.
    fn resolve_rates(&mut self) -> Result<()> {
        self.rates_dirty = false;
        let live = self.flows.iter().flatten().map(|f| f.kind);
        // The traced path also attributes; attribution is recorded on the
        // side of the same progressive-filling arithmetic, so the rates
        // are bit-identical and tracing cannot perturb the simulation.
        let (rates, attribution) =
            self.solver.fill(&self.capacities, live, self.trace.is_some())?;
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.flow_bottleneck.clear();
            trace.flow_bottleneck.resize(self.flows.len(), Bottleneck::FlowCap);
            let live =
                self.flows.iter_mut().enumerate().filter_map(|(i, f)| Some((i, f.as_mut()?)));
            for ((slot, f), (&rate, &b)) in live.zip(rates.iter().zip(attribution)) {
                f.rate = rate;
                trace.flow_bottleneck[slot] = b;
            }
        } else {
            for (f, &rate) in self.flows.iter_mut().flatten().zip(rates) {
                f.rate = rate;
            }
        }
        Ok(())
    }

    fn next_event_time(&self) -> Option<f64> {
        let mut next = f64::INFINITY;
        if let Some(f) = self.faults.get(self.next_fault) {
            next = next.min(f.at.max(self.now));
        }
        for f in self.flows.iter().flatten() {
            if f.rate > 0.0 {
                next = next.min(self.now + f.remaining / f.rate);
            }
        }
        for s in &self.status {
            match *s {
                Status::Computing { cpu_end, pending_flows }
                    if pending_flows == 0 || cpu_end > self.now =>
                {
                    next = next.min(cpu_end.max(self.now));
                }
                Status::Waiting { until } => next = next.min(until),
                _ => {}
            }
        }
        for &t in &self.starting_transfers {
            if let TransferState::Starting { at } = self.transfers[t].state {
                next = next.min(at.max(self.now));
            }
        }
        next.is_finite().then_some(next.max(self.now))
    }

    fn advance_flows(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        for f in self.flows.iter_mut().flatten() {
            f.remaining -= f.rate * dt;
        }
    }

    /// A flow counts as drained when its remainder is negligible relative
    /// to its initial size, or when draining it cannot advance the f64
    /// clock (remaining/rate below the ulp of `now`) — otherwise large
    /// simulations stall on femtosecond residues.
    fn flow_done(&self, f: &ActiveFlow<'_>) -> bool {
        let eps = EPS_BYTES.max(f.initial * 1e-12).max(f.rate * self.now.abs() * 1e-14);
        f.remaining <= eps
    }

    fn process_flow_completions(&mut self) -> Result<()> {
        for slot in 0..self.flows.len() {
            let done = match &self.flows[slot] {
                Some(f) => self.flow_done(f),
                None => false,
            };
            if !done {
                continue;
            }
            let Some(flow) = self.flows[slot].take() else { continue };
            self.rates_dirty = true;
            // Charge what the flow actually moved, not its nominal size —
            // `remaining` holds a sub-epsilon residue at completion, and
            // the same expression charges interrupted flows correctly on
            // error exits (see `Sim::run`).
            let moved = (flow.initial - flow.remaining.max(0.0)).max(0.0);
            for &r in flow.route {
                self.metrics.resource_bytes[r] += moved;
            }
            match flow.owner {
                FlowOwner::Phase(rank) => {
                    if let Status::Computing { cpu_end, pending_flows } = self.status[rank] {
                        let pending = pending_flows - 1;
                        if pending == 0 && cpu_end <= self.now + EPS_TIME {
                            self.set_status(rank, Status::Ready);
                        } else {
                            self.set_status(
                                rank,
                                Status::Computing { cpu_end, pending_flows: pending },
                            );
                        }
                    }
                }
                FlowOwner::Transfer(t) => {
                    self.complete_transfer(t)?;
                }
                FlowOwner::Checkpoint(_) => {
                    self.ckpt_flows_pending -= 1;
                    if self.ckpt_flows_pending == 0 {
                        let interval =
                            self.engine.checkpoint.as_ref().map(|p| p.interval).unwrap_or_default();
                        self.complete_checkpoint(interval);
                    }
                }
            }
        }
        self.trim_free_slots();
        Ok(())
    }

    /// Drops trailing free flow slots so every slot walk stops at the
    /// last live flow. Live flows keep their slots, and `add_flow` still
    /// picks the lowest free index (a trimmed slot is re-created by the
    /// push), so slot order — and every order-sensitive sum — is
    /// unchanged.
    fn trim_free_slots(&mut self) {
        while matches!(self.flows.last(), Some(None)) {
            self.flows.pop();
        }
    }

    fn process_timers(&mut self) -> Result<()> {
        for rank in 0..self.status.len() {
            match self.status[rank] {
                Status::Computing { cpu_end, pending_flows }
                    if pending_flows == 0 && cpu_end <= self.now + EPS_TIME =>
                {
                    self.set_status(rank, Status::Ready);
                }
                Status::Waiting { until } if until <= self.now + EPS_TIME => {
                    self.set_status(rank, Status::Ready);
                }
                _ => {}
            }
        }
        let mut i = 0;
        while i < self.starting_transfers.len() {
            let t = self.starting_transfers[i];
            match self.transfers[t].state {
                TransferState::Starting { at } if at <= self.now + EPS_TIME => {
                    self.starting_transfers.swap_remove(i);
                    self.start_transfer_flow(t)?;
                }
                TransferState::Starting { .. } => i += 1,
                // Already started (e.g. directly from start_recv).
                _ => {
                    self.starting_transfers.swap_remove(i);
                }
            }
        }
        Ok(())
    }

    /// Starts the coordinated checkpoint when its timer is due.
    fn maybe_start_checkpoint(&mut self) -> Result<()> {
        let due = matches!(self.next_ckpt_at, Some(at) if at <= self.now + EPS_TIME);
        if !due {
            return Ok(());
        }
        let Some(policy) = self.engine.checkpoint.clone() else { return Ok(()) };
        self.start_checkpoint(&policy)
    }

    /// Builds one checkpoint write flow per (live rank, target node) and
    /// registers them; they contend with application traffic under max-min
    /// fairness like any other flows. If any write would route over a dead
    /// resource the whole coordinated checkpoint is postponed one interval
    /// — it commits for everyone or for no one.
    fn start_checkpoint(&mut self, policy: &CheckpointPolicy) -> Result<()> {
        self.next_ckpt_at = None;
        let machine = self.engine.machine;
        let spec = machine.spec();
        let mut new_flows = Vec::new();
        let mut dram = vec![0.0; self.programs.len()];
        for (rank, dram_bytes) in dram.iter_mut().enumerate() {
            if self.status[rank] == Status::Done {
                continue;
            }
            let placement = &self.placements[rank];
            let core = placement.core;
            let src_socket = machine.socket_of(core);
            let layout = match policy.target {
                CheckpointTarget::OwnLayout => placement.layout.clone(),
                CheckpointTarget::Node(node) => MemoryLayout::single(node),
            };
            let mut avg_latency = 0.0;
            for (node, frac) in layout.shares() {
                avg_latency += frac * machine.memory_latency(core, node);
            }
            // Checkpoint state streams out like a STREAM copy: mostly
            // cache misses, so nearly all of it hits DRAM.
            let traffic = TrafficProfile::stream(policy.bytes_per_rank);
            let demand = cache::dram_demand(&spec.cache, &traffic, avg_latency);
            *dram_bytes = demand.bytes;
            for (node, frac) in layout.shares() {
                let bytes = demand.bytes * frac;
                if bytes <= EPS_BYTES {
                    continue;
                }
                let route =
                    machine.fabric.phase_routes.get(src_socket, machine.socket_of_node(node))?;
                if route.iter().any(|&r| self.capacities[r] <= 0.0) {
                    self.next_ckpt_at = Some(self.now + policy.interval);
                    return Ok(());
                }
                new_flows.push((FlowOwner::Checkpoint(rank), route, demand.self_cap * frac, bytes));
            }
        }
        if new_flows.is_empty() {
            // Nothing to write (negligible demand): commit immediately.
            self.complete_checkpoint(policy.interval);
            return Ok(());
        }
        for (rank, bytes) in dram.iter().enumerate() {
            self.metrics.dram_bytes[rank] += *bytes;
        }
        self.ckpt_flows_pending = new_flows.len();
        for (owner, route, cap, bytes) in new_flows {
            self.add_flow(owner, route, cap, bytes);
        }
        Ok(())
    }

    /// Commits the in-progress checkpoint: settles live-flow byte
    /// accounting up to now (so a later rollback can neither double-charge
    /// nor lose traffic that physically happened), snapshots application
    /// and channel state, and rearms the timer.
    fn complete_checkpoint(&mut self, interval: f64) {
        self.settle_flow_bytes();
        self.metrics.checkpoints_taken += 1;
        self.next_ckpt_at = Some(self.now + interval);
        self.take_snapshot();
    }

    /// Charges every live flow for the bytes it moved so far and rebases
    /// it, so the same bytes are never charged twice.
    fn settle_flow_bytes(&mut self) {
        for f in self.flows.iter_mut().flatten() {
            let moved = (f.initial - f.remaining.max(0.0)).max(0.0);
            if moved > 0.0 {
                for &r in f.route {
                    self.metrics.resource_bytes[r] += moved;
                }
            }
            f.initial = f.remaining.max(0.0);
            f.remaining = f.initial;
        }
    }

    /// Captures the consistent global cut a future rollback restores.
    fn take_snapshot(&mut self) {
        self.snapshot = Some(Box::new(SimSnapshot {
            at: self.now,
            cursors: self.cursors.clone(),
            status: self.status.clone(),
            finish: self.finish.clone(),
            flows: self.flows.clone(),
            transfers: self.transfers.clone(),
            free_transfers: self.free_transfers.clone(),
            starting_transfers: self.starting_transfers.clone(),
            pending_sends: self.pending_sends.clone(),
            pending_recvs: self.pending_recvs.clone(),
            barrier_arrived: self.barrier_arrived,
        }));
    }

    /// Rolls the whole job back to the last completed checkpoint after
    /// `rank` was killed and replays from there. Environment state —
    /// capacities, the fault cursor, metrics, the trace so far — stays
    /// live; the restored application state has its absolute-time fields
    /// shifted into the post-restart timeline.
    fn recover_from_kill(&mut self, rank: usize) {
        let policy = self.engine.checkpoint.as_ref().expect("kill recovery requires a policy");
        let killed_at = self.now;
        let resumed_at = killed_at + policy.restart_delay;
        let interval = policy.interval;
        // In-flight traffic died with the job, but the bytes it moved were
        // physically moved: settle them before discarding the flows.
        for f in self.flows.iter().flatten() {
            let moved = (f.initial - f.remaining.max(0.0)).max(0.0);
            for &r in f.route {
                self.metrics.resource_bytes[r] += moved;
            }
        }
        // The ops in flight at the kill are lost work: close their spans.
        for r in 0..self.programs.len() {
            self.trace_close_span(r);
        }
        let snap: SimSnapshot<'a> =
            (**self.snapshot.as_ref().expect("a checkpoint policy always has a snapshot")).clone();
        let restored_to = snap.at;
        let delta = resumed_at - restored_to;
        self.cursors = snap.cursors;
        self.status = snap.status;
        self.finish = snap.finish;
        self.flows = snap.flows;
        self.transfers = snap.transfers;
        self.free_transfers = snap.free_transfers;
        self.starting_transfers = snap.starting_transfers;
        self.pending_sends = snap.pending_sends;
        self.pending_recvs = snap.pending_recvs;
        self.barrier_arrived = snap.barrier_arrived;
        self.rebuild_rank_sets();
        // Shift every absolute-time field into the replay timeline; the
        // uniform shift preserves every relative deadline, including ones
        // already in the past at the snapshot.
        for s in &mut self.status {
            match s {
                Status::Computing { cpu_end, .. } => *cpu_end += delta,
                Status::Waiting { until } => *until += delta,
                _ => {}
            }
        }
        for tr in &mut self.transfers {
            tr.send_post += delta;
            if let TransferState::Starting { at } = &mut tr.state {
                *at += delta;
            }
        }
        self.ckpt_flows_pending = 0;
        self.next_ckpt_at = Some(resumed_at + interval);
        self.now = resumed_at;
        self.rates_dirty = true;
        self.metrics.recoveries += 1;
        let num_resources = self.capacities.len();
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.recoveries.push(RecoveryStamp {
                rank: RankId::new(rank),
                killed_at,
                restored_to,
                resumed_at,
            });
            // Keep the interval timeline gap-free across restart downtime.
            if resumed_at > killed_at {
                trace.intervals.push(SolverInterval {
                    t0: killed_at,
                    t1: resumed_at,
                    utilization: vec![0.0; num_resources],
                });
            }
        }
    }

    /// Declares every in-flight transfer crossing a severed resource lost
    /// and queues retransmits (retry policy permitting). Without a retry
    /// policy a severed link behaves like a zero-capacity degrade: flows
    /// starve and the no-progress diagnosis names the stalled rank.
    fn detect_lost_transfers(&mut self, index: ResourceIndex) -> Result<()> {
        let Some(retry) = self.engine.retry.clone() else { return Ok(()) };
        for slot in 0..self.flows.len() {
            let is_lost = match &self.flows[slot] {
                Some(f) => matches!(f.owner, FlowOwner::Transfer(_)) && f.route.contains(&index),
                None => false,
            };
            if !is_lost {
                continue;
            }
            let Some(flow) = self.flows[slot].take() else { continue };
            self.rates_dirty = true;
            // Bytes that crossed before the cut really moved; the
            // retransmit resends the full payload on top of them.
            let moved = (flow.initial - flow.remaining.max(0.0)).max(0.0);
            for &r in flow.route {
                self.metrics.resource_bytes[r] += moved;
            }
            let FlowOwner::Transfer(t) = flow.owner else { continue };
            self.schedule_retry(t, &retry)?;
        }
        self.trim_free_slots();
        Ok(())
    }

    /// Queues transfer `t` for retransmission after the failure-detection
    /// timeout plus exponential backoff.
    fn schedule_retry(&mut self, t: usize, retry: &RetryPolicy) -> Result<()> {
        let attempts = self.transfers[t].attempts;
        if attempts >= retry.max_retries {
            return Err(Error::RetriesExhausted {
                rank: RankId::new(self.transfers[t].src),
                attempts,
                at_time: self.now,
            });
        }
        self.transfers[t].attempts = attempts + 1;
        self.metrics.retries += 1;
        let at = self.now + retry.detection_timeout + retry.backoff_for(attempts);
        self.transfers[t].state = TransferState::Starting { at };
        self.starting_transfers.push(t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LinkId, NumaNodeId, SocketId};
    use crate::systems;
    use crate::traffic::TrafficProfile;

    fn local_placement(m: &Machine, core: usize) -> RankPlacement {
        let node = m.node_of_socket(m.socket_of(CoreId::new(core)));
        RankPlacement::new(CoreId::new(core), MemoryLayout::single(node))
    }

    fn stream_program(bytes: f64) -> Program {
        let mut p = Program::new();
        p.compute(ComputePhase::new("stream", 0.0, TrafficProfile::stream(bytes)));
        p
    }

    #[test]
    fn single_core_stream_matches_littles_law() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let report = engine.run(&[local_placement(&m, 0)], &[stream_program(1e9)]).unwrap();
        let bw = 1e9 / report.makespan;
        // 140 ns latency, 8 lines of 64 B => ~3.66 GB/s.
        assert!(bw > 3.4e9 && bw < 3.9e9, "bw = {:.3} GB/s", bw / 1e9);
    }

    #[test]
    fn two_cores_one_socket_share_the_controller() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let one = engine.run(&[local_placement(&m, 0)], &[stream_program(1e9)]).unwrap();
        let both = engine
            .run(
                &[local_placement(&m, 0), local_placement(&m, 1)],
                &[stream_program(1e9), stream_program(1e9)],
            )
            .unwrap();
        // Each core alone: ~3.66 GB/s; both want 7.3 through a 4.2 GB/s
        // sustained controller: per-core drops to 2.1 — the paper's
        // Figure 2/3 "flat or degraded" second-core observation.
        let ratio = both.makespan / one.makespan;
        assert!(ratio > 1.4 && ratio < 2.0, "ratio = {ratio}");
    }

    #[test]
    fn two_sockets_scale_nearly_linearly() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let one = engine.run(&[local_placement(&m, 0)], &[stream_program(1e9)]).unwrap();
        // Cores 0 and 2 are on different sockets.
        let two = engine
            .run(
                &[local_placement(&m, 0), local_placement(&m, 2)],
                &[stream_program(1e9), stream_program(1e9)],
            )
            .unwrap();
        assert!((two.makespan - one.makespan).abs() / one.makespan < 0.01);
    }

    #[test]
    fn remote_memory_is_slower_than_local() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let local = engine.run(&[local_placement(&m, 0)], &[stream_program(1e9)]).unwrap();
        let remote = engine
            .run(
                &[RankPlacement::new(CoreId::new(0), MemoryLayout::single(NumaNodeId::new(1)))],
                &[stream_program(1e9)],
            )
            .unwrap();
        assert!(remote.makespan > local.makespan * 1.2);
    }

    #[test]
    fn cpu_bound_phase_takes_flops_over_peak() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut p = Program::new();
        p.compute(ComputePhase::new("dgemm", 4.4e9, TrafficProfile::none()).with_efficiency(0.5));
        let report = engine.run(&[local_placement(&m, 0)], &[p]).unwrap();
        // 4.4 Gflop at 50% of 4.4 Gflop/s peak = 2 s.
        assert!((report.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pingpong_round_trip_time() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let cost = MessageCost { setup: 1e-6, cap: 1.4e9, sender_busy: 0.5e-6, rendezvous: false };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 8.0, 0, cost).recv(RankId::new(1), 1);
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0).send(RankId::new(0), 8.0, 1, cost);
        let report =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap();
        // Two setups of 1 us each dominate: ~2 us round trip.
        assert!(
            report.makespan > 1.9e-6 && report.makespan < 2.5e-6,
            "rtt = {:.2} us",
            report.makespan * 1e6
        );
    }

    #[test]
    fn rendezvous_blocks_sender_until_delivery() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let cost = MessageCost { setup: 0.0, cap: 1e9, sender_busy: 0.0, rendezvous: true };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 1e6, 0, cost);
        let mut p1 = Program::new();
        p1.delay(1e-3).recv(RankId::new(0), 0);
        let report =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap();
        // Transfer cannot start before the recv at t=1ms; 1 MB at <=1 GB/s
        // adds >=1 ms.
        assert!(report.finish_of(RankId::new(0)) >= 2e-3 * 0.99);
    }

    #[test]
    fn eager_sender_continues_before_delivery() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let cost = MessageCost { setup: 0.0, cap: 1e9, sender_busy: 1e-6, rendezvous: false };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 1e6, 0, cost);
        let mut p1 = Program::new();
        p1.delay(1e-3).recv(RankId::new(0), 0);
        let report =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap();
        assert!(report.finish_of(RankId::new(0)) < 1e-4);
        assert!(report.finish_of(RankId::new(1)) >= 2e-3 * 0.99);
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut p0 = Program::new();
        p0.delay(5e-3).barrier();
        let mut p1 = Program::new();
        p1.barrier();
        let report =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap();
        assert!((report.finish_of(RankId::new(1)) - 5e-3).abs() < 1e-9);
    }

    #[test]
    fn unmatched_recv_deadlocks() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut p0 = Program::new();
        p0.recv(RankId::new(1), 0);
        let p1 = Program::new();
        let err =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap_err();
        assert!(matches!(err, Error::Deadlock { .. }), "{err}");
    }

    #[test]
    fn oversubscribed_core_is_rejected() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let err = engine
            .run(
                &[local_placement(&m, 0), local_placement(&m, 0)],
                &[Program::new(), Program::new()],
            )
            .unwrap_err();
        assert_eq!(err, Error::CoreOversubscribed { core: 0 });
    }

    #[test]
    fn dead_link_surfaces_as_error() {
        let m = Machine::new(systems::dmz());
        let plan = (0..2).fold(FaultPlan::new(), |p, l| p.link_degrade(0.0, LinkId::new(l), 0.0));
        // Remote memory traffic must cross the dead link.
        let err = Engine::new(&m)
            .run_with_faults(
                &[RankPlacement::new(CoreId::new(0), MemoryLayout::single(NumaNodeId::new(1)))],
                &[stream_program(1e6)],
                &plan,
            )
            .unwrap_err();
        assert!(matches!(err, Error::ZeroCapacityRoute { .. }), "{err}");
    }

    #[test]
    fn metrics_count_messages_and_bytes() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let cost = MessageCost::free();
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 1024.0, 0, cost);
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0);
        let report =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap();
        assert_eq!(report.metrics.messages_sent, vec![1, 0]);
        assert_eq!(report.metrics.bytes_sent, vec![1024.0, 0.0]);
    }

    #[test]
    fn empty_programs_finish_at_time_zero() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let report = engine.run(&[local_placement(&m, 0)], &[Program::new()]).unwrap();
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn interleaved_memory_splits_traffic() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let layout = MemoryLayout::uniform(&[NumaNodeId::new(0), NumaNodeId::new(1)]).unwrap();
        let report = engine
            .run(&[RankPlacement::new(CoreId::new(0), layout)], &[stream_program(1e9)])
            .unwrap();
        // Half the traffic crosses the link: the link resource saw ~0.5 GB
        // (links sit at indices 2..4; index 4 is the probe fabric).
        let link_bytes: f64 = report.metrics.resource_bytes[2..4].iter().sum();
        assert!((link_bytes - 0.5e9).abs() < 1e7, "link bytes = {link_bytes}");
    }

    // ---- fault injection -------------------------------------------------

    /// Core 0 streaming from the remote node: every byte crosses a link.
    fn remote_stream(bytes: f64) -> (RankPlacement, Program) {
        let placement =
            RankPlacement::new(CoreId::new(0), MemoryLayout::single(NumaNodeId::new(1)));
        (placement, stream_program(bytes))
    }

    /// Degrades both directed links of the dmz machine to `factor`.
    fn degrade_links(plan: crate::FaultPlan, at: f64, factor: f64) -> crate::FaultPlan {
        plan.link_degrade(at, LinkId::new(0), factor).link_degrade(at, LinkId::new(1), factor)
    }

    fn restore_links(plan: crate::FaultPlan, at: f64) -> crate::FaultPlan {
        plan.link_restore(at, LinkId::new(0)).link_restore(at, LinkId::new(1))
    }

    #[test]
    fn mid_run_brownout_and_restore_bounds_makespan() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let (placement, program) = remote_stream(1e9);
        let placements = [placement];
        let programs = [program];

        let healthy = engine.run(&placements, &programs).unwrap().makespan;
        // Links at quarter bandwidth during [50ms, 150ms), then restored.
        let brownout = restore_links(degrade_links(crate::FaultPlan::new(), 0.05, 0.25), 0.15);
        let transient = engine.run_with_faults(&placements, &programs, &brownout).unwrap();
        // Links at quarter bandwidth from t=0, never restored.
        let permanent = degrade_links(crate::FaultPlan::new(), 0.0, 0.25);
        let degraded = engine.run_with_faults(&placements, &programs, &permanent).unwrap().makespan;

        assert!(
            healthy < transient.makespan && transient.makespan < degraded,
            "expected healthy {healthy:.4} < transient {:.4} < degraded {degraded:.4}",
            transient.makespan
        );
        assert_eq!(transient.metrics.faults_applied, 4);
    }

    #[test]
    fn full_outage_with_restore_recovers() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let (placement, program) = remote_stream(1e9);
        let placements = [placement];
        let programs = [program];

        let healthy = engine.run(&placements, &programs).unwrap().makespan;
        // Total link outage during [50ms, 150ms): in-flight traffic pauses
        // at rate zero, then the restore wakes it.
        let plan = restore_links(degrade_links(crate::FaultPlan::new(), 0.05, 0.0), 0.15);
        let report = engine.run_with_faults(&placements, &programs, &plan).unwrap();
        assert!(
            (report.makespan - (healthy + 0.1)).abs() < healthy * 0.01,
            "outage of 0.1s should add ~0.1s: healthy {healthy:.4}, got {:.4}",
            report.makespan
        );
    }

    #[test]
    fn link_kill_without_restore_is_a_typed_stall() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let (placement, program) = remote_stream(1e9);
        // Links die at 50ms with traffic in flight and never come back.
        let plan = degrade_links(crate::FaultPlan::new(), 0.05, 0.0);
        let err = engine.run_with_faults(&[placement], &[program], &plan).unwrap_err();
        match err {
            Error::RankStalled { rank, resource: Some(resource), .. } => {
                assert_eq!(rank, RankId::new(0));
                assert!(resource.contains("link"), "starved resource: {resource}");
            }
            other => panic!("expected capacity-induced RankStalled, got {other}"),
        }
    }

    #[test]
    fn traffic_demanded_during_outage_is_a_zero_capacity_route() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let placement =
            RankPlacement::new(CoreId::new(0), MemoryLayout::single(NumaNodeId::new(1)));
        let mut program = Program::new();
        program.delay(0.1).compute(ComputePhase::new("late", 0.0, TrafficProfile::stream(1e6)));
        // The links are already dead when the phase tries to start.
        let plan = degrade_links(crate::FaultPlan::new(), 0.05, 0.0);
        let err = engine.run_with_faults(&[placement], &[program], &plan).unwrap_err();
        assert!(matches!(err, Error::ZeroCapacityRoute { .. }), "{err}");
    }

    #[test]
    fn rank_stall_without_resume_is_a_typed_error() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut p0 = Program::new();
        p0.delay(1e-3).barrier();
        let mut p1 = Program::new();
        p1.barrier();
        // Rank 0 freezes mid-delay; rank 1 waits at the barrier forever.
        let plan = crate::FaultPlan::new().rank_stall(1e-4, RankId::new(0));
        let err = engine
            .run_with_faults(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1], &plan)
            .unwrap_err();
        match err {
            Error::RankStalled { rank, resource: None, .. } => assert_eq!(rank, RankId::new(0)),
            other => panic!("expected RankStalled for rank 0, got {other}"),
        }
    }

    #[test]
    fn stalled_rank_resumes_at_the_scheduled_time() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut p = Program::new();
        p.delay(1e-3);
        let plan = crate::FaultPlan::new()
            .rank_stall(2e-4, RankId::new(0))
            .rank_resume(5e-3, RankId::new(0));
        let report = engine.run_with_faults(&[local_placement(&m, 0)], &[p], &plan).unwrap();
        // The delay expires at 1ms but the frozen rank only retires the
        // program when the resume fires at 5ms.
        assert!((report.makespan - 5e-3).abs() < 1e-9, "makespan {}", report.makespan);
    }

    #[test]
    fn event_budget_exhausted_is_a_typed_error() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m).with_max_events(1);
        let cost = MessageCost { setup: 1e-6, cap: 1.4e9, sender_busy: 0.5e-6, rendezvous: false };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 8.0, 0, cost).recv(RankId::new(1), 1);
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0).send(RankId::new(0), 8.0, 1, cost);
        let err =
            engine.run(&[local_placement(&m, 0), local_placement(&m, 1)], &[p0, p1]).unwrap_err();
        assert!(matches!(err, Error::EventBudgetExhausted { budget: 1, .. }), "{err}");
    }

    /// One rank running `rounds` sub-femtosecond delays: each is one
    /// event that advances time by less than `EPS_TIME`.
    fn zero_dt_rounds(m: &Machine, rounds: usize) -> Result<RunReport> {
        let mut p = Program::new();
        p.begin_repeat(rounds).delay(1e-17).end_repeat(0);
        Engine::new(m).run(&[local_placement(m, 0)], &[p])
    }

    #[test]
    fn livelock_guard_trips_above_the_zero_progress_limit_only() {
        let m = Machine::new(systems::dmz());
        match zero_dt_rounds(&m, 2 * ZERO_PROGRESS_LIMIT).unwrap_err() {
            Error::RankStalled { rank, resource: None, .. } => assert_eq!(rank, RankId::new(0)),
            other => panic!("expected a livelock RankStalled, got {other}"),
        }
        let report = zero_dt_rounds(&m, ZERO_PROGRESS_LIMIT / 2).unwrap();
        assert!(report.makespan < 1e-12, "makespan {}", report.makespan);
    }

    #[test]
    fn invalid_fault_plans_are_rejected() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let plan = crate::FaultPlan::new().link_degrade(0.0, LinkId::new(99), 0.5);
        let err = engine
            .run_with_faults(&[local_placement(&m, 0)], &[Program::new()], &plan)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSpec(_)), "{err}");
    }

    // ---- observability ---------------------------------------------------

    #[test]
    fn tracing_changes_nothing_about_the_run() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let cost = MessageCost { setup: 1e-6, cap: 1.4e9, sender_busy: 0.5e-6, rendezvous: false };
        let mut p0 = Program::new();
        p0.compute(ComputePhase::new("stream", 0.0, TrafficProfile::stream(1e8)))
            .send(RankId::new(1), 1e6, 0, cost)
            .barrier();
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0).barrier();
        let placements = [local_placement(&m, 0), local_placement(&m, 1)];
        let programs = [p0, p1];

        let plain = engine.run(&placements, &programs).unwrap();
        let off =
            engine.observe(&placements, &programs, &crate::FaultPlan::new(), TraceConfig::off());
        let on =
            engine.observe(&placements, &programs, &crate::FaultPlan::new(), TraceConfig::on());
        // Exact equality, not approximate: the traced run must be
        // bit-identical (attribution is observed, never fed back).
        assert_eq!(plain, off.result.unwrap());
        assert_eq!(plain, on.result.unwrap());
        assert!(off.trace.is_none());
        assert!(on.trace.is_some());
    }

    #[test]
    fn interrupted_run_reports_partial_resource_bytes() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let (placement, program) = remote_stream(1e9);
        let placements = [placement];
        let programs = [program];
        let healthy = engine.run(&placements, &programs).unwrap().makespan;

        // Kill the links a quarter of the way through: the flow starves,
        // the run ends in a typed stall, and the metrics must still show
        // the ~0.25 GB that actually moved (initial - remaining).
        let plan = degrade_links(crate::FaultPlan::new(), healthy * 0.25, 0.0);
        let observed = engine.observe(&placements, &programs, &plan, TraceConfig::off());
        assert!(matches!(observed.result, Err(Error::RankStalled { .. })));
        // Remote node 1: every byte crosses mc:1 (resource index 1).
        let moved = observed.metrics.resource_bytes[1];
        assert!(
            (moved - 0.25e9).abs() < 0.25e9 * 0.02,
            "expected ~0.25 GB through mc:1, got {moved:e}"
        );
        assert!(observed.end_time >= healthy * 0.25);
    }

    #[test]
    fn fault_stamps_record_the_fired_sequence() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let (placement, program) = remote_stream(1e9);
        let brownout = restore_links(degrade_links(crate::FaultPlan::new(), 0.05, 0.25), 0.15);
        let observed = engine.observe(&[placement], &[program], &brownout, TraceConfig::on());
        let trace = observed.trace.unwrap();
        let report = observed.result.unwrap();
        assert_eq!(trace.faults.len(), brownout.events().len());
        assert_eq!(report.metrics.faults_applied, trace.faults.len());
        for (stamp, event) in trace.faults.iter().zip(brownout.events()) {
            assert_eq!(stamp.kind, event.kind);
            assert_eq!(stamp.scheduled, event.at);
            assert!(stamp.fired >= stamp.scheduled - EPS_TIME);
        }
    }

    #[test]
    fn traced_stream_yields_intervals_and_attributed_spans() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let observed = engine.observe(
            &[local_placement(&m, 0)],
            &[stream_program(1e9)],
            &crate::FaultPlan::new(),
            TraceConfig::on(),
        );
        let report = observed.result.unwrap();
        let trace = observed.trace.unwrap();

        // Intervals tile the run.
        let covered: f64 = trace.intervals.iter().map(|iv| iv.t1 - iv.t0).sum();
        assert!((covered - trace.end_time).abs() < 1e-12 * trace.end_time.max(1.0));
        assert!((trace.end_time - report.makespan).abs() < 1e-12);

        // One compute span, attributed to its own cap: a single dmz core
        // streams at ~3.66 GB/s under a 4.2 GB/s controller.
        assert_eq!(trace.spans.len(), 1);
        let span = &trace.spans[0];
        assert_eq!(span.kind, SpanKind::Compute);
        assert_eq!(span.label, "stream");
        assert_eq!(span.dominant_bottleneck(), Some(Bottleneck::FlowCap));

        // Socket 0's controller runs at ~3.66/4.2 = 0.87 utilization.
        let timelines = trace.resource_timelines();
        assert_eq!(timelines[0].name, "mc:socket0");
        assert!(
            timelines[0].mean_utilization > 0.8 && timelines[0].mean_utilization < 0.95,
            "mc:socket0 utilization = {}",
            timelines[0].mean_utilization
        );
        let ranking = trace.bottleneck_ranking();
        assert_eq!(ranking[0].label, "flow-cap");
    }

    #[test]
    fn contended_traced_stream_blames_the_controller() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        // Both cores of socket 0: demand 7.3 GB/s through 4.2 GB/s.
        let observed = engine.observe(
            &[local_placement(&m, 0), local_placement(&m, 1)],
            &[stream_program(1e9), stream_program(1e9)],
            &crate::FaultPlan::new(),
            TraceConfig::on(),
        );
        let trace = observed.trace.unwrap();
        let ranking = trace.bottleneck_ranking();
        assert_eq!(ranking[0].label, "mc:socket0", "ranking: {ranking:?}");
        assert!(trace.resource_timelines()[0].saturation_fraction() > 0.9);
    }

    // ---- recovery --------------------------------------------------------

    #[test]
    fn checkpoints_cost_time_and_are_counted() {
        let m = Machine::new(systems::dmz());
        let plain = Engine::new(&m);
        let placements = [local_placement(&m, 0)];
        let programs = [stream_program(1e9)];
        let healthy = plain.run(&placements, &programs).unwrap();
        let ckpt = Engine::new(&m).with_recovery(CheckpointPolicy::new(0.05, 5e7));
        let report = ckpt.run(&placements, &programs).unwrap();
        assert!(report.metrics.checkpoints_taken >= 2, "{:?}", report.metrics.checkpoints_taken);
        assert!(
            report.makespan > healthy.makespan * 1.02,
            "checkpoint traffic must cost time: {} vs {}",
            report.makespan,
            healthy.makespan
        );
        assert_eq!(report.metrics.recoveries, 0);
    }

    #[test]
    fn kill_without_policy_is_a_typed_error() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let plan = crate::FaultPlan::new().rank_kill(0.1, RankId::new(0));
        let err = engine
            .run_with_faults(&[local_placement(&m, 0)], &[stream_program(1e9)], &plan)
            .unwrap_err();
        assert!(matches!(err, Error::RankKilled { rank, .. } if rank == RankId::new(0)), "{err}");
    }

    #[test]
    fn kill_of_a_finished_rank_is_a_noop() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut p1 = Program::new();
        p1.delay(1e-3);
        // Rank 0 finishes at t=0; the kill at 0.5 ms hits a rank whose
        // results are already out.
        let plan = crate::FaultPlan::new().rank_kill(5e-4, RankId::new(0));
        let report = engine
            .run_with_faults(
                &[local_placement(&m, 0), local_placement(&m, 1)],
                &[Program::new(), p1],
                &plan,
            )
            .unwrap();
        assert!((report.makespan - 1e-3).abs() < 1e-9);
        assert_eq!(report.metrics.faults_applied, 1);
    }

    #[test]
    fn kill_with_policy_rolls_back_and_completes() {
        let m = Machine::new(systems::dmz());
        let policy = CheckpointPolicy::new(0.05, 5e7).with_restart_delay(0.01);
        let engine = Engine::new(&m).with_recovery(policy);
        let placements = [local_placement(&m, 0)];
        let programs = [stream_program(1e9)];
        let fault_free = engine.run(&placements, &programs).unwrap();
        let plan = crate::FaultPlan::new().rank_kill(0.15, RankId::new(0));
        let report = engine.run_with_faults(&placements, &programs, &plan).unwrap();
        assert_eq!(report.metrics.recoveries, 1);
        // Lost work since the last checkpoint plus the restart delay must
        // show up in the makespan.
        assert!(
            report.makespan > fault_free.makespan + 0.01,
            "kill must cost at least the downtime: {} vs {}",
            report.makespan,
            fault_free.makespan
        );
    }

    #[test]
    fn kill_before_any_checkpoint_restarts_from_scratch() {
        let m = Machine::new(systems::dmz());
        // Interval longer than the run: only the implicit t=0 snapshot.
        let engine = Engine::new(&m).with_recovery(CheckpointPolicy::new(10.0, 1e6));
        let placements = [local_placement(&m, 0)];
        let programs = [stream_program(1e9)];
        let fault_free = engine.run(&placements, &programs).unwrap();
        let plan = crate::FaultPlan::new().rank_kill(0.1, RankId::new(0));
        let report = engine.run_with_faults(&placements, &programs, &plan).unwrap();
        assert_eq!(report.metrics.recoveries, 1);
        assert!(
            (report.makespan - (fault_free.makespan + 0.1)).abs() < fault_free.makespan * 0.02,
            "restart from t=0 replays everything: {} vs {}",
            report.makespan,
            fault_free.makespan
        );
    }

    #[test]
    fn traced_recovery_is_bit_identical_and_stamped() {
        let m = Machine::new(systems::dmz());
        let policy = CheckpointPolicy::new(0.05, 5e7).with_restart_delay(0.02);
        let engine = Engine::new(&m).with_recovery(policy);
        let cost = MessageCost { setup: 1e-6, cap: 1.4e9, sender_busy: 0.5e-6, rendezvous: false };
        let mut p0 = Program::new();
        p0.compute(ComputePhase::new("stream", 0.0, TrafficProfile::stream(5e8)))
            .send(RankId::new(1), 1e6, 0, cost)
            .barrier();
        let mut p1 = Program::new();
        p1.compute(ComputePhase::new("stream", 0.0, TrafficProfile::stream(5e8)))
            .recv(RankId::new(0), 0)
            .barrier();
        let placements = [local_placement(&m, 0), local_placement(&m, 2)];
        let programs = [p0, p1];
        let plan = crate::FaultPlan::new().rank_kill(0.08, RankId::new(1));

        let off = engine.observe(&placements, &programs, &plan, TraceConfig::off());
        let on = engine.observe(&placements, &programs, &plan, TraceConfig::on());
        assert_eq!(off.result.unwrap(), on.result.unwrap());
        let trace = on.trace.unwrap();
        assert_eq!(trace.recoveries.len(), 1);
        let stamp = &trace.recoveries[0];
        assert_eq!(stamp.rank, RankId::new(1));
        assert!((stamp.killed_at - 0.08).abs() < 1e-9);
        assert!(stamp.restored_to <= stamp.killed_at);
        assert!((stamp.resumed_at - (stamp.killed_at + 0.02)).abs() < 1e-9);
        // The interval timeline stays gap-free across the downtime.
        let covered: f64 = trace.intervals.iter().map(|iv| iv.t1 - iv.t0).sum();
        assert!((covered - trace.end_time).abs() < 1e-9 * trace.end_time.max(1.0));
    }

    #[test]
    fn transfer_retries_over_a_failed_link_until_restore() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m).with_retry(RetryPolicy::new(5e-3).with_backoff(5e-3));
        let cost = MessageCost { setup: 0.0, cap: 1e9, sender_busy: 0.0, rendezvous: true };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 1e8, 0, cost);
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0);
        let placements = [local_placement(&m, 0), local_placement(&m, 2)];
        let programs = [p0, p1];
        // Sever link 0->1 mid-transfer, restore at 80 ms.
        let plan = crate::FaultPlan::new()
            .link_fail(0.05, LinkId::new(0))
            .link_restore(0.08, LinkId::new(0));
        let report = engine.run_with_faults(&placements, &programs, &plan).unwrap();
        assert!(report.metrics.retries >= 2, "retries = {}", report.metrics.retries);
        // The retransmit resends the full payload after the restore.
        assert!(report.makespan > 0.15, "makespan = {}", report.makespan);
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m).with_retry(RetryPolicy::new(1e-3).with_max_retries(2));
        let cost = MessageCost { setup: 0.0, cap: 1e9, sender_busy: 0.0, rendezvous: true };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 1e8, 0, cost);
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0);
        let placements = [local_placement(&m, 0), local_placement(&m, 2)];
        let programs = [p0, p1];
        // Severed and never restored: the retry budget runs out.
        let plan = crate::FaultPlan::new().link_fail(0.05, LinkId::new(0));
        let err = engine.run_with_faults(&placements, &programs, &plan).unwrap_err();
        assert!(
            matches!(err, Error::RetriesExhausted { attempts: 2, .. }),
            "expected RetriesExhausted, got {err}"
        );
    }

    #[test]
    fn link_fail_without_retry_policy_starves_like_a_degrade() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let cost = MessageCost { setup: 0.0, cap: 1e9, sender_busy: 0.0, rendezvous: true };
        let mut p0 = Program::new();
        p0.send(RankId::new(1), 1e8, 0, cost);
        let mut p1 = Program::new();
        p1.recv(RankId::new(0), 0);
        let placements = [local_placement(&m, 0), local_placement(&m, 2)];
        let programs = [p0, p1];
        let plan = crate::FaultPlan::new().link_fail(0.05, LinkId::new(0));
        let err = engine.run_with_faults(&placements, &programs, &plan).unwrap_err();
        assert!(matches!(err, Error::RankStalled { resource: Some(_), .. }), "{err}");
    }

    #[test]
    fn halving_the_controller_at_most_doubles_makespan() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let placements = [local_placement(&m, 0)];
        let programs = [stream_program(1e9)];
        let healthy = engine.run(&placements, &programs).unwrap().makespan;
        let plan = crate::FaultPlan::new().controller_throttle(0.0, SocketId::new(0), 0.5);
        let degraded = engine.run_with_faults(&placements, &programs, &plan).unwrap().makespan;
        assert!(degraded > healthy, "throttle must cost something");
        assert!(
            degraded <= 2.0 * healthy * 1.001,
            "halving one resource can at most double the makespan: {degraded:.4} vs {healthy:.4}"
        );
    }

    #[test]
    fn a_mid_run_throttle_re_solves_an_unchanged_flow_set() {
        // One streaming flow, live before and after the controller is
        // halved: the flow set the solver sees is the same, so only the
        // capacity change can tell its memo that the old rate is stale.
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let placements = [local_placement(&m, 0)];
        let programs = [stream_program(1e9)];
        let throttle =
            |at: f64| crate::FaultPlan::new().controller_throttle(at, SocketId::new(0), 0.5);
        let healthy = engine.run(&placements, &programs).unwrap();
        let throttled = engine.run_with_faults(&placements, &programs, &throttle(0.0)).unwrap();
        let (fast, slow) = (1e9 / healthy.makespan, 1e9 / throttled.makespan);
        assert!(slow < fast, "the throttle must bind: {slow:.3e} vs {fast:.3e}");

        let at = healthy.makespan / 2.0;
        let report = engine.run_with_faults(&placements, &programs, &throttle(at)).unwrap();
        let expected = at + (1e9 - fast * at) / slow;
        assert!(
            (report.makespan - expected).abs() <= expected * 1e-9,
            "finish {:.6} s must follow the halved controller ({expected:.6} s)",
            report.makespan
        );
        // The flow under each capacity, then the empty set: no repeats.
        assert_eq!(report.metrics.faults_applied, 1);
        assert_eq!((report.metrics.solves, report.metrics.solves_reused), (3, 0));
    }

    /// Rank 0 streams `count` eager messages to rank 1 from one repeat
    /// region, each on a fresh tag.
    fn eager_stream(count: usize) -> [Program; 2] {
        let cost = MessageCost { setup: 1e-6, cap: 1.4e9, sender_busy: 0.5e-6, rendezvous: false };
        let mut p0 = Program::new();
        p0.begin_repeat(count).send(RankId::new(1), 64.0, 0, cost).end_repeat(1);
        let mut p1 = Program::new();
        p1.begin_repeat(count).recv(RankId::new(0), 0).end_repeat(1);
        [p0, p1]
    }

    /// Every transfer slot is either free and delivered, or in use and
    /// not; the free list names no slot twice.
    fn assert_slab_consistent(sim: &Sim<'_, '_>) {
        let mut free = vec![false; sim.transfers.len()];
        for &t in &sim.free_transfers {
            assert!(!free[t], "slot {t} is listed free twice");
            free[t] = true;
        }
        for (t, tr) in sim.transfers.iter().enumerate() {
            assert_eq!(free[t], tr.state == TransferState::Done, "slot {t}: {tr:?}");
        }
    }

    #[test]
    fn delivered_transfers_free_their_slots() {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let placements = [local_placement(&m, 0), local_placement(&m, 2)];
        let programs = eager_stream(100_000);
        let mut sim = Sim::new(&engine, &placements, &programs, Vec::new(), TraceConfig::off());
        let makespan = sim.run_loop().unwrap();
        assert_eq!(sim.metrics.messages_sent, [100_000, 0]);
        // The sender runs ahead by the setup time over its overhead: a
        // few messages are in flight at once, never the whole history.
        assert!(sim.transfers.len() <= 4, "{} transfer slots", sim.transfers.len());
        assert_slab_consistent(&sim);
        assert_eq!(sim.free_transfers.len(), sim.transfers.len());
        assert_eq!(makespan, engine.run(&placements, &programs).unwrap().makespan);
    }

    #[test]
    fn a_kill_restores_transfers_in_flight_at_the_checkpoint() {
        // Checkpoints every 20 us cut the message stream with transfers
        // in flight and slots free; the kill rolls back to one of them.
        let m = Machine::new(systems::dmz());
        let policy = CheckpointPolicy::new(2e-5, 1e3).with_restart_delay(1e-5);
        let engine = Engine::new(&m).with_recovery(policy);
        let placements = [local_placement(&m, 0), local_placement(&m, 2)];
        let programs = eager_stream(500);
        let fault_free = engine.run(&placements, &programs).unwrap();
        let plan = crate::FaultPlan::new().rank_kill(1.5e-4, RankId::new(1));
        let faults = engine.prepare(&placements, &programs, &plan).unwrap();
        let mut sim = Sim::new(&engine, &placements, &programs, faults, TraceConfig::off());
        let makespan = sim.run_loop().unwrap();
        assert_eq!(sim.metrics.recoveries, 1);
        // Messages are in flight at every cut, the last one included.
        let snapshot = sim.snapshot.as_deref().unwrap();
        assert!(snapshot.transfers.iter().any(|tr| tr.state != TransferState::Done));
        assert_slab_consistent(&sim);
        assert!(sim.transfers.len() <= 4, "{} transfer slots", sim.transfers.len());
        // Replayed messages are counted again; every receive completed.
        assert!(sim.metrics.messages_sent[0] > 500);
        assert_eq!(sim.finish[1], makespan);
        assert!(makespan > fault_free.makespan + 1e-5, "{makespan} vs {}", fault_free.makespan);
        let off = engine.observe(&placements, &programs, &plan, TraceConfig::off());
        let on = engine.observe(&placements, &programs, &plan, TraceConfig::on());
        assert_eq!(off.result.unwrap(), on.result.unwrap());
    }
}
