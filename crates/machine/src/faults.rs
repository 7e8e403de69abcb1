//! Scheduled fault injection: time-ordered plans of resource and rank
//! faults applied mid-simulation.
//!
//! A [`FaultPlan`] is a validated, time-sorted schedule of
//! [`FaultEvent`]s. The engine merges the schedule into its discrete-event
//! loop: when a fault fires, active flow rates are re-solved under the new
//! capacities and every pending completion event is recomputed. Faults
//! therefore interact correctly with in-flight traffic — a link brownout
//! slows the transfers crossing it *from that instant*, and a later
//! restore speeds them back up.
//!
//! Capacity faults are expressed as a `factor` applied to the resource's
//! *nominal* capacity, the one the machine spec gives it. `factor == 0.0`
//! kills the resource outright; restore events return it to nominal. A
//! fault at `t = 0` fires before the first operation is dispatched, so it
//! sets a capacity for the whole run. Rank faults freeze a rank's
//! instruction stream: a stalled rank finishes the operation it is
//! currently executing but dispatches nothing further until a matching
//! [`FaultKind::RankResume`] fires. A rank stalled forever surfaces as
//! [`crate::Error::RankStalled`], never as a hang — the engine's watchdog
//! guarantees every starved configuration returns a typed error.
//!
//! ```
//! use corescope_machine::faults::FaultPlan;
//! use corescope_machine::LinkId;
//!
//! // Brown out link 0 to a quarter of its bandwidth during [1ms, 2ms).
//! let plan = FaultPlan::new()
//!     .link_degrade(1e-3, LinkId::new(0), 0.25)
//!     .link_restore(2e-3, LinkId::new(0));
//! assert_eq!(plan.events().len(), 2);
//! ```

use crate::error::{Error, Result};
use crate::ids::{LinkId, RankId, SocketId};
use crate::Machine;

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Scales a directed link to `factor` × its nominal capacity.
    /// `factor == 0.0` severs the link.
    LinkDegrade {
        /// The affected link.
        link: LinkId,
        /// Multiplier on nominal capacity, in `[0, ∞)`.
        factor: f64,
    },
    /// Returns a link to its nominal capacity.
    LinkRestore {
        /// The restored link.
        link: LinkId,
    },
    /// Scales a socket's memory controller to `factor` × nominal.
    ControllerThrottle {
        /// The affected socket.
        socket: SocketId,
        /// Multiplier on nominal capacity, in `[0, ∞)`.
        factor: f64,
    },
    /// Returns a memory controller to its nominal capacity.
    ControllerRestore {
        /// The restored socket.
        socket: SocketId,
    },
    /// Scales the machine-wide coherence-probe fabric to `factor` ×
    /// nominal. Only meaningful on multi-socket machines (which are the
    /// only ones that have a probe fabric).
    ProbeBrownout {
        /// Multiplier on nominal capacity, in `[0, ∞)`.
        factor: f64,
    },
    /// Returns the probe fabric to its nominal capacity.
    ProbeRestore,
    /// Freezes a rank's instruction stream after its current operation.
    RankStall {
        /// The stalled rank.
        rank: RankId,
    },
    /// Unfreezes a stalled rank.
    RankResume {
        /// The resumed rank.
        rank: RankId,
    },
    /// Kills a rank outright: its in-flight work is lost. Without a
    /// [`crate::recovery::CheckpointPolicy`] the run fails with the typed
    /// [`crate::Error::RankKilled`]; with one, the engine rolls the run
    /// back to the last completed checkpoint and replays.
    RankKill {
        /// The killed rank.
        rank: RankId,
    },
    /// Severs a directed link outright (capacity to zero). Unlike
    /// [`FaultKind::LinkDegrade`] with `factor == 0.0`, a failed link
    /// marks in-flight transfers crossing it as lost: with a
    /// [`crate::recovery::RetryPolicy`] configured they are retransmitted
    /// from scratch after a detection timeout plus backoff, instead of
    /// starving into [`crate::Error::RankStalled`]. A later
    /// [`FaultKind::LinkRestore`] heals the path.
    LinkFail {
        /// The failed link.
        link: LinkId,
    },
}

/// One fault at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time (seconds) at which the fault fires.
    pub at: f64,
    /// The fault applied.
    pub kind: FaultKind,
}

/// A time-sorted schedule of faults.
///
/// Build with the chainable constructors ([`FaultPlan::link_degrade`] and
/// friends) or [`FaultPlan::push`]; events are kept sorted by time with
/// insertion order preserved among equal times. Validation against a
/// concrete machine and rank count happens when the plan is handed to
/// [`crate::Engine::run_with_faults`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (equivalent to a fault-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event, keeping the schedule time-sorted (stable for ties).
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
        self
    }

    /// Chainable [`FaultKind::LinkDegrade`].
    pub fn link_degrade(mut self, at: f64, link: LinkId, factor: f64) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::LinkDegrade { link, factor } });
        self
    }

    /// Chainable [`FaultKind::LinkRestore`].
    pub fn link_restore(mut self, at: f64, link: LinkId) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::LinkRestore { link } });
        self
    }

    /// Chainable [`FaultKind::ControllerThrottle`].
    pub fn controller_throttle(mut self, at: f64, socket: SocketId, factor: f64) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::ControllerThrottle { socket, factor } });
        self
    }

    /// Chainable [`FaultKind::ControllerRestore`].
    pub fn controller_restore(mut self, at: f64, socket: SocketId) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::ControllerRestore { socket } });
        self
    }

    /// Chainable [`FaultKind::ProbeBrownout`].
    pub fn probe_brownout(mut self, at: f64, factor: f64) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::ProbeBrownout { factor } });
        self
    }

    /// Chainable [`FaultKind::ProbeRestore`].
    pub fn probe_restore(mut self, at: f64) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::ProbeRestore });
        self
    }

    /// Chainable [`FaultKind::RankStall`].
    pub fn rank_stall(mut self, at: f64, rank: RankId) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::RankStall { rank } });
        self
    }

    /// Chainable [`FaultKind::RankResume`].
    pub fn rank_resume(mut self, at: f64, rank: RankId) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::RankResume { rank } });
        self
    }

    /// Chainable [`FaultKind::RankKill`].
    pub fn rank_kill(mut self, at: f64, rank: RankId) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::RankKill { rank } });
        self
    }

    /// Chainable [`FaultKind::LinkFail`].
    pub fn link_fail(mut self, at: f64, link: LinkId) -> Self {
        self.push(FaultEvent { at, kind: FaultKind::LinkFail { link } });
        self
    }

    /// The schedule, sorted by firing time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan against a machine and rank count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] for non-finite or negative times,
    /// invalid factors (negative, NaN, or infinite), out-of-range link /
    /// socket / rank targets, or probe faults on a single-socket machine
    /// (which has no probe fabric). The check is also *stateful* over the
    /// time-ordered schedule: restore/resume events with no matching prior
    /// degrade/stall, a second concurrent degrade of an already-degraded
    /// resource, and killing or stalling the same rank twice are all
    /// rejected — such plans are almost always sweep-generator bugs, and
    /// their semantics (which nominal does the restore return to?) would
    /// be ambiguous.
    pub fn validate(&self, machine: &Machine, num_ranks: usize) -> Result<()> {
        let num_links = machine.topology().num_links();
        let num_sockets = machine.num_sockets();
        // Degraded/failed state per resource and per rank, tracked in
        // schedule order.
        let mut link_down = vec![false; num_links];
        let mut controller_down = vec![false; num_sockets];
        let mut probe_down = false;
        let mut stalled = vec![false; num_ranks];
        let mut killed = vec![false; num_ranks];
        for (i, e) in self.events.iter().enumerate() {
            if !e.at.is_finite() || e.at < 0.0 {
                return Err(Error::InvalidSpec(format!(
                    "fault event {i} has invalid time {}",
                    e.at
                )));
            }
            let check_factor = |factor: f64| {
                if !factor.is_finite() || factor < 0.0 {
                    Err(Error::InvalidSpec(format!(
                        "fault event {i} has invalid capacity factor {factor}"
                    )))
                } else {
                    Ok(())
                }
            };
            let check_link = |link: LinkId| {
                if link.index() >= num_links {
                    Err(Error::InvalidSpec(format!(
                        "fault event {i} targets {link} but the machine has {num_links} links"
                    )))
                } else {
                    Ok(())
                }
            };
            let check_socket = |socket: SocketId| {
                if socket.index() >= num_sockets {
                    Err(Error::InvalidSpec(format!(
                        "fault event {i} targets {socket} but the machine has {num_sockets} sockets"
                    )))
                } else {
                    Ok(())
                }
            };
            let check_rank = |rank: RankId| {
                if rank.index() >= num_ranks {
                    Err(Error::InvalidSpec(format!(
                        "fault event {i} targets {rank} but the run has {num_ranks} ranks"
                    )))
                } else {
                    Ok(())
                }
            };
            let check_probe = || {
                if num_sockets <= 1 {
                    Err(Error::InvalidSpec(format!(
                        "fault event {i} targets the probe fabric but a single-socket machine has none"
                    )))
                } else {
                    Ok(())
                }
            };
            let stateful =
                |what: &str| Error::InvalidSpec(format!("fault event {i} ({:?}) {what}", e.kind));
            match e.kind {
                FaultKind::LinkDegrade { link, factor } => {
                    check_link(link)?;
                    check_factor(factor)?;
                    if link_down[link.index()] {
                        return Err(stateful("degrades an already-degraded link"));
                    }
                    link_down[link.index()] = true;
                }
                FaultKind::LinkFail { link } => {
                    check_link(link)?;
                    if link_down[link.index()] {
                        return Err(stateful("fails an already-degraded link"));
                    }
                    link_down[link.index()] = true;
                }
                FaultKind::LinkRestore { link } => {
                    check_link(link)?;
                    if !link_down[link.index()] {
                        return Err(stateful("restores a link with no prior degrade or fail"));
                    }
                    link_down[link.index()] = false;
                }
                FaultKind::ControllerThrottle { socket, factor } => {
                    check_socket(socket)?;
                    check_factor(factor)?;
                    if controller_down[socket.index()] {
                        return Err(stateful("throttles an already-throttled controller"));
                    }
                    controller_down[socket.index()] = true;
                }
                FaultKind::ControllerRestore { socket } => {
                    check_socket(socket)?;
                    if !controller_down[socket.index()] {
                        return Err(stateful("restores a controller with no prior throttle"));
                    }
                    controller_down[socket.index()] = false;
                }
                FaultKind::ProbeBrownout { factor } => {
                    check_probe()?;
                    check_factor(factor)?;
                    if probe_down {
                        return Err(stateful("browns out an already-degraded probe fabric"));
                    }
                    probe_down = true;
                }
                FaultKind::ProbeRestore => {
                    check_probe()?;
                    if !probe_down {
                        return Err(stateful("restores the probe fabric with no prior brownout"));
                    }
                    probe_down = false;
                }
                FaultKind::RankStall { rank } => {
                    check_rank(rank)?;
                    if stalled[rank.index()] {
                        return Err(stateful("stalls an already-stalled rank"));
                    }
                    if killed[rank.index()] {
                        return Err(stateful("stalls a killed rank"));
                    }
                    stalled[rank.index()] = true;
                }
                FaultKind::RankResume { rank } => {
                    check_rank(rank)?;
                    if killed[rank.index()] {
                        return Err(stateful("resumes a killed rank"));
                    }
                    if !stalled[rank.index()] {
                        return Err(stateful("resumes a rank with no prior stall"));
                    }
                    stalled[rank.index()] = false;
                }
                FaultKind::RankKill { rank } => {
                    check_rank(rank)?;
                    if killed[rank.index()] {
                        return Err(stateful("kills an already-killed rank"));
                    }
                    killed[rank.index()] = true;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    #[test]
    fn events_sort_by_time_with_stable_ties() {
        let plan = FaultPlan::new()
            .link_restore(2.0, LinkId::new(0))
            .link_degrade(1.0, LinkId::new(0), 0.5)
            .probe_brownout(1.0, 0.9);
        let times: Vec<f64> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![1.0, 1.0, 2.0]);
        // The two t=1.0 events keep insertion order.
        assert!(matches!(plan.events()[0].kind, FaultKind::LinkDegrade { .. }));
        assert!(matches!(plan.events()[1].kind, FaultKind::ProbeBrownout { .. }));
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let m = Machine::new(systems::dmz());
        let plan = FaultPlan::new()
            .link_degrade(0.0, LinkId::new(0), 0.0)
            .controller_throttle(1.0, SocketId::new(1), 0.5)
            .probe_brownout(2.0, 0.25)
            .rank_stall(3.0, RankId::new(1))
            .rank_resume(4.0, RankId::new(1));
        assert!(plan.validate(&m, 2).is_ok());
    }

    #[test]
    fn validate_rejects_bad_times_and_factors() {
        let m = Machine::new(systems::dmz());
        for plan in [
            FaultPlan::new().link_degrade(-1.0, LinkId::new(0), 0.5),
            FaultPlan::new().link_degrade(f64::NAN, LinkId::new(0), 0.5),
            FaultPlan::new().link_degrade(0.0, LinkId::new(0), -0.5),
            FaultPlan::new().link_degrade(0.0, LinkId::new(0), f64::INFINITY),
        ] {
            assert!(
                matches!(plan.validate(&m, 1), Err(Error::InvalidSpec(_))),
                "{plan:?} should fail validation"
            );
        }
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let m = Machine::new(systems::dmz());
        for plan in [
            FaultPlan::new().link_degrade(0.0, LinkId::new(99), 0.5),
            FaultPlan::new().controller_throttle(0.0, SocketId::new(99), 0.5),
            FaultPlan::new().rank_stall(0.0, RankId::new(5)),
        ] {
            assert!(
                matches!(plan.validate(&m, 2), Err(Error::InvalidSpec(_))),
                "{plan:?} should fail validation"
            );
        }
    }

    #[test]
    fn validate_rejects_restores_with_no_prior_degrade() {
        let m = Machine::new(systems::dmz());
        for plan in [
            FaultPlan::new().link_restore(1.0, LinkId::new(0)),
            FaultPlan::new().controller_restore(1.0, SocketId::new(0)),
            FaultPlan::new().probe_restore(1.0),
            FaultPlan::new().rank_resume(1.0, RankId::new(0)),
            // A restore *before* the degrade is just as unmatched.
            FaultPlan::new()
                .link_degrade(2.0, LinkId::new(0), 0.5)
                .link_restore(1.0, LinkId::new(0)),
        ] {
            assert!(
                matches!(plan.validate(&m, 2), Err(Error::InvalidSpec(_))),
                "{plan:?} should fail validation"
            );
        }
    }

    #[test]
    fn validate_rejects_duplicate_concurrent_degrades() {
        let m = Machine::new(systems::dmz());
        for plan in [
            FaultPlan::new().link_degrade(0.0, LinkId::new(0), 0.5).link_degrade(
                1.0,
                LinkId::new(0),
                0.25,
            ),
            FaultPlan::new().link_degrade(0.0, LinkId::new(0), 0.5).link_fail(1.0, LinkId::new(0)),
            FaultPlan::new().controller_throttle(0.0, SocketId::new(0), 0.5).controller_throttle(
                1.0,
                SocketId::new(0),
                0.25,
            ),
            FaultPlan::new().probe_brownout(0.0, 0.5).probe_brownout(1.0, 0.25),
        ] {
            assert!(
                matches!(plan.validate(&m, 2), Err(Error::InvalidSpec(_))),
                "{plan:?} should fail validation"
            );
        }
        // Degrade → restore → degrade again is a well-formed brownout pair.
        let ok = FaultPlan::new()
            .link_degrade(0.0, LinkId::new(0), 0.5)
            .link_restore(1.0, LinkId::new(0))
            .link_degrade(2.0, LinkId::new(0), 0.25);
        assert!(ok.validate(&m, 2).is_ok());
    }

    #[test]
    fn validate_rejects_repeat_rank_kills_and_stalls() {
        let m = Machine::new(systems::dmz());
        for plan in [
            FaultPlan::new().rank_kill(0.0, RankId::new(1)).rank_kill(1.0, RankId::new(1)),
            FaultPlan::new().rank_stall(0.0, RankId::new(1)).rank_stall(1.0, RankId::new(1)),
            FaultPlan::new().rank_kill(0.0, RankId::new(1)).rank_stall(1.0, RankId::new(1)),
            FaultPlan::new().rank_kill(0.0, RankId::new(1)).rank_resume(1.0, RankId::new(1)),
        ] {
            assert!(
                matches!(plan.validate(&m, 2), Err(Error::InvalidSpec(_))),
                "{plan:?} should fail validation"
            );
        }
        // Distinct ranks, and stall→resume→stall, are fine.
        let ok = FaultPlan::new()
            .rank_kill(0.0, RankId::new(0))
            .rank_stall(1.0, RankId::new(1))
            .rank_resume(2.0, RankId::new(1))
            .rank_stall(3.0, RankId::new(1));
        assert!(ok.validate(&m, 2).is_ok());
        let two_kills =
            FaultPlan::new().rank_kill(0.0, RankId::new(0)).rank_kill(1.0, RankId::new(1));
        assert!(two_kills.validate(&m, 2).is_ok());
    }

    #[test]
    fn validate_accepts_link_fail_then_restore() {
        let m = Machine::new(systems::dmz());
        let plan =
            FaultPlan::new().link_fail(1.0, LinkId::new(0)).link_restore(2.0, LinkId::new(0));
        assert!(plan.validate(&m, 2).is_ok());
        assert!(matches!(plan.events()[0].kind, FaultKind::LinkFail { .. }));
    }

    #[test]
    fn validate_rejects_probe_faults_on_single_socket_machines() {
        let mut spec = systems::tiger();
        spec.sockets.truncate(1);
        spec.edges.clear();
        let m = Machine::new(spec);
        let plan = FaultPlan::new().probe_brownout(0.0, 0.5);
        assert!(matches!(plan.validate(&m, 1), Err(Error::InvalidSpec(_))));
    }
}
