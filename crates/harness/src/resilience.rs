//! Extra X3: fault-injection resilience campaigns.
//!
//! Each campaign takes a representative workload from the paper's
//! artifacts — STREAM (Figures 2/3), IMB PingPong (Figure 14), NAS CG
//! (Table 2) — and runs it five ways against the resource class it is
//! bound by:
//!
//! 1. **healthy** — no faults, the reference makespan;
//! 2. **brownout + restore** — the resources degrade to half capacity
//!    for the middle quarter of the healthy run, then recover;
//! 3. **permanent degrade** — half capacity from `t = 0`, never restored;
//! 4. **kill** — capacity drops to zero mid-run with no restore;
//! 5. **stall** — rank 0 freezes at `t = 0` with no resume.
//!
//! The campaign *checks* the bounded-degradation invariants, not just
//! reports them: the brownout run must land strictly between healthy and
//! permanently-degraded; halving the bounding resource class can at most
//! double the makespan; and the kill/stall runs must fail with typed
//! errors ([`Error::RankStalled`], [`Error::ZeroCapacityRoute`]) rather
//! than hang or complete. Any violation fails the artifact run.
//!
//! Each workload is one [`Scenario`]. The healthy and degraded runs of
//! every campaign go through the scheduler as one batch (and its cache);
//! the brownout, kill and stall runs add their fault plans to the same
//! scenario and run untraced through [`Scenario::observe`], whose fault
//! stamps say which faults fired and when.

use crate::context::makespans;
use crate::observe::{cg, dmz_stream, pingpong};
use crate::report::{Cell, Table};
use corescope_kernels::cg::CgClass;
use corescope_machine::engine::RunReport;
use corescope_machine::trace::FaultStamp;
use corescope_machine::{Error, FaultPlan, LinkId, Machine, RankId, Result, TraceConfig};
use corescope_sched::{Fidelity, Scenario, Scheduler, System};

/// The resource class a campaign degrades — chosen per workload to match
/// what actually bounds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultTarget {
    /// Every socket's memory controller (for bandwidth-bound kernels).
    Controllers,
    /// Every directed HyperTransport link (for communication-bound runs).
    Links,
}

impl FaultTarget {
    fn degrade(self, machine: &Machine, plan: FaultPlan, at: f64, factor: f64) -> FaultPlan {
        match self {
            FaultTarget::Controllers => {
                machine.sockets().fold(plan, |p, s| p.controller_throttle(at, s, factor))
            }
            FaultTarget::Links => (0..machine.topology().num_links())
                .fold(plan, |p, l| p.link_degrade(at, LinkId::new(l), factor)),
        }
    }

    fn restore(self, machine: &Machine, plan: FaultPlan, at: f64) -> FaultPlan {
        match self {
            FaultTarget::Controllers => {
                machine.sockets().fold(plan, |p, s| p.controller_restore(at, s))
            }
            FaultTarget::Links => (0..machine.topology().num_links())
                .fold(plan, |p, l| p.link_restore(at, LinkId::new(l))),
        }
    }

    /// Half capacity over the middle quarter of a `healthy`-second run,
    /// then restored.
    pub(crate) fn brownout(self, machine: &Machine, healthy: f64) -> FaultPlan {
        let degraded = self.degrade(machine, FaultPlan::new(), healthy * 0.25, 0.5);
        self.restore(machine, degraded, healthy * 0.5)
    }
}

/// One campaign: a representative workload and the resource class that
/// bounds it.
struct Campaign {
    name: &'static str,
    scenario: Scenario,
    target: FaultTarget,
}

fn campaigns(fidelity: Fidelity) -> Vec<Campaign> {
    // Class S transfers are setup-dominated and barely notice link
    // bandwidth; class A is the smallest class whose exchanges are
    // link-bound enough for the campaign to measure degradation.
    let cg_class = match fidelity {
        Fidelity::Full => CgClass::B,
        Fidelity::Quick => CgClass::A,
    };
    vec![
        Campaign {
            name: "STREAM triad x4 (F2/F3), DMZ",
            scenario: dmz_stream(fidelity),
            target: FaultTarget::Controllers,
        },
        Campaign {
            name: "IMB PingPong 1 MiB (F14), DMZ cross-socket",
            scenario: pingpong(System::Dmz, 1048576.0, fidelity),
            target: FaultTarget::Links,
        },
        Campaign {
            // CG is memory-bandwidth-bound (the paper's headline result),
            // so its campaign degrades the controllers, not the links.
            name: "NAS CG (T2), Longs x8",
            scenario: cg(System::Longs, 8, cg_class, fidelity),
            target: FaultTarget::Controllers,
        },
    ]
}

/// Names the outcome of a faulted run for the campaign table; `Err(None)`
/// from the caller's perspective means "not a typed fault outcome".
fn fault_outcome(result: Result<RunReport>) -> (String, bool) {
    match result {
        Ok(_) => ("completed".to_string(), false),
        Err(Error::RankStalled { rank, resource: Some(_), .. }) => {
            (format!("RankStalled({rank}, starved)"), true)
        }
        Err(Error::RankStalled { rank, .. }) => (format!("RankStalled({rank})"), true),
        Err(Error::ZeroCapacityRoute { .. }) => ("ZeroCapacityRoute".to_string(), true),
        Err(Error::Deadlock { blocked, .. }) => {
            (format!("Deadlock({} ranks)", blocked.len()), true)
        }
        Err(e) => (e.to_string(), false),
    }
}

fn invariant_violation(scenario: &str, what: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("resilience invariant violated for '{scenario}': {what}"))
}

struct CampaignRow {
    healthy: f64,
    transient: f64,
    degraded: f64,
    kill: String,
    stall: String,
    /// Fault events stamped by the engine vs. events scheduled, across
    /// the brownout, kill, and stall runs.
    stamped: usize,
    scheduled: usize,
}

/// Checks a run's fault stamps against the plan that drove it: every
/// scheduled event must appear, in order, with its scheduled time, fired
/// no earlier than scheduled. Returns the stamp count.
fn check_stamps(scenario: &str, plan: &FaultPlan, stamps: &[FaultStamp]) -> Result<usize> {
    let events = plan.events();
    if stamps.len() != events.len() {
        return Err(invariant_violation(
            scenario,
            format!("{} fault events scheduled but {} stamped", events.len(), stamps.len()),
        ));
    }
    for (stamp, event) in stamps.iter().zip(events) {
        if stamp.kind != event.kind {
            return Err(invariant_violation(
                scenario,
                format!("stamped {:?} where {:?} was scheduled", stamp.kind, event.kind),
            ));
        }
        if stamp.scheduled != event.at || stamp.fired < stamp.scheduled - 1e-12 {
            return Err(invariant_violation(
                scenario,
                format!(
                    "fault {:?} scheduled at {} stamped (scheduled {}, fired {})",
                    event.kind, event.at, stamp.scheduled, stamp.fired
                ),
            ));
        }
    }
    Ok(stamps.len())
}

/// Runs every campaign: the healthy and permanently degraded runs of all
/// of them as one scheduler batch, then each campaign's brownout, kill
/// and stall runs.
fn run_campaigns(cs: &[Campaign], sched: &Scheduler) -> Result<Vec<CampaignRow>> {
    let batch: Vec<Scenario> = cs
        .iter()
        .flat_map(|c| {
            // Half capacity for the whole run.
            let machine = c.scenario.system.machine();
            let permanent = c.target.degrade(&machine, FaultPlan::new(), 0.0, 0.5);
            [c.scenario.clone(), c.scenario.clone().with_faults(permanent)]
        })
        .collect();
    let times = makespans(sched, &batch)?;
    cs.iter().zip(times.chunks(2)).map(|(c, t)| run_campaign(c, t[0], t[1])).collect()
}

fn run_campaign(c: &Campaign, healthy: f64, degraded: f64) -> Result<CampaignRow> {
    let machine = c.scenario.system.machine();
    let mut stamped = 0;
    let mut scheduled = 0;
    // The engine stamps every fault that fires, so the campaign can
    // verify the *sequence* of faults — not just the bare
    // `faults_applied` count — without tracing the run.
    let mut observe = |plan: FaultPlan| {
        let observed = c.scenario.clone().with_faults(plan.clone()).observe(TraceConfig::off())?;
        stamped += check_stamps(c.name, &plan, &observed.faults)?;
        scheduled += plan.events().len();
        Ok::<_, Error>(observed)
    };

    // Half capacity during the middle quarter of the healthy run.
    let brownout = c.target.brownout(&machine, healthy);
    let transient_report = observe(brownout.clone())?.result?;
    if transient_report.metrics.faults_applied != brownout.events().len() {
        return Err(invariant_violation(
            c.name,
            format!(
                "faults_applied {} disagrees with the {} stamped events",
                transient_report.metrics.faults_applied,
                brownout.events().len()
            ),
        ));
    }
    let transient = transient_report.makespan;

    if !(healthy < transient && transient < degraded) {
        return Err(invariant_violation(
            c.name,
            format!(
                "brownout makespan must sit strictly between healthy and degraded \
                 (healthy {healthy:.6}, transient {transient:.6}, degraded {degraded:.6})"
            ),
        ));
    }
    if degraded > 2.0 * healthy * 1.01 {
        return Err(invariant_violation(
            c.name,
            format!(
                "halving the bounding resources more than doubled the makespan \
                 ({degraded:.6} vs healthy {healthy:.6})"
            ),
        ));
    }

    // Capacity hits zero mid-run, never restored: a typed error, not a
    // hang — and the interrupted run must still stamp its faults and
    // account the traffic it actually moved before dying.
    let kill_obs = observe(c.target.degrade(&machine, FaultPlan::new(), healthy * 0.25, 0.0))?;
    let partial: f64 = kill_obs.metrics.resource_bytes.iter().sum();
    if partial <= 0.0 {
        return Err(invariant_violation(
            c.name,
            "a mid-run kill must report the partial resource traffic that moved",
        ));
    }
    let (kill, kill_typed) = fault_outcome(kill_obs.result);
    if !kill_typed {
        return Err(invariant_violation(c.name, format!("kill outcome was '{kill}'")));
    }

    // Rank 0 freezes at t=0, never resumed: likewise a typed error.
    let stall_obs = observe(FaultPlan::new().rank_stall(0.0, RankId::new(0)))?;
    let (stall, stall_typed) = fault_outcome(stall_obs.result);
    if !stall_typed {
        return Err(invariant_violation(c.name, format!("stall outcome was '{stall}'")));
    }

    Ok(CampaignRow { healthy, transient, degraded, kill, stall, stamped, scheduled })
}

/// Extra X3: the fault-injection campaign table.
///
/// # Errors
///
/// Propagates engine errors, and returns [`Error::InvalidSpec`] when a
/// bounded-degradation invariant is violated (that is the point: the
/// artifact doubles as a resilience check).
pub fn extra3(fidelity: Fidelity, sched: &Scheduler) -> Result<Vec<Table>> {
    let mut table = Table::with_columns(
        "Extra X3: fault-injection resilience campaign (seconds; half-capacity faults)",
        &[
            "Workload",
            "Healthy",
            "Brownout+restore",
            "Degraded",
            "Slowdown",
            "Kill outcome",
            "Stall outcome",
            "Faults stamped",
        ],
    );
    let cs = campaigns(fidelity);
    for (c, row) in cs.iter().zip(run_campaigns(&cs, sched)?) {
        table.push_row(
            c.name,
            vec![
                Cell::num_with(row.healthy, 4),
                Cell::num_with(row.transient, 4),
                Cell::num_with(row.degraded, 4),
                Cell::num_with(row.degraded / row.healthy, 3),
                Cell::text(row.kill),
                Cell::text(row.stall),
                Cell::text(format!("{}/{}", row.stamped, row.scheduled)),
            ],
        )?;
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_runs_and_checks_its_invariants() {
        let tables = extra3(Fidelity::Quick, &Scheduler::new(1)).unwrap();
        let t = &tables[0];
        assert_eq!(t.num_rows(), 3);
        for sc in ["STREAM triad x4 (F2/F3), DMZ", "IMB PingPong 1 MiB (F14), DMZ cross-socket"] {
            let healthy = t.value(sc, "Healthy").unwrap();
            let transient = t.value(sc, "Brownout+restore").unwrap();
            let degraded = t.value(sc, "Degraded").unwrap();
            assert!(healthy < transient && transient < degraded, "{sc}");
            let slowdown = t.value(sc, "Slowdown").unwrap();
            assert!(slowdown > 1.0 && slowdown <= 2.02, "{sc}: slowdown {slowdown}");
        }
    }

    #[test]
    fn stream_campaign_kill_is_a_starvation_stall() {
        // The STREAM scenario kills the controllers with traffic in
        // flight: the typed outcome names the starved rank.
        let cs = campaigns(Fidelity::Quick);
        let row = run_campaigns(&cs[..1], &Scheduler::new(1)).unwrap().remove(0);
        assert!(row.kill.starts_with("RankStalled"), "kill outcome: {}", row.kill);
        assert!(row.stall.starts_with("RankStalled"), "stall outcome: {}", row.stall);
        // Brownout (degrade+restore), kill, and stall all stamped fully.
        assert_eq!(row.stamped, row.scheduled);
        assert!(row.scheduled > 0);
    }

    #[test]
    fn a_second_campaign_reuses_the_cache() {
        // Healthy and degraded runs are cached scenarios; the traced
        // brownout, kill and stall runs bypass the scheduler.
        let sched = Scheduler::new(1);
        let cold = extra3(Fidelity::Quick, &sched).unwrap();
        let runs = sched.stats().engine_runs;
        assert_eq!(runs, 6, "healthy + degraded for each of three campaigns");
        let warm = extra3(Fidelity::Quick, &sched).unwrap();
        assert_eq!(sched.stats().engine_runs, runs, "the second pass runs no engine");
        assert_eq!(warm[0].to_csv(), cold[0].to_csv());
    }
}
