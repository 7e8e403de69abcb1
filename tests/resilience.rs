//! Cross-crate resilience tests: broken communication schedules and
//! mid-run faults must produce typed errors or bounded slowdowns — never
//! hangs.

use corescope::affinity::Scheme;
use corescope::machine::{
    systems, CheckpointPolicy, Error, FaultPlan, LinkId, Machine, RankId, RetryPolicy, TraceConfig,
};
use corescope::smpi::{CommWorld, LockLayer, MpiImpl};

fn world(machine: &Machine, n: usize) -> CommWorld<'_> {
    let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, n).unwrap();
    CommWorld::new(machine, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV)
}

/// A four-rank workload that keeps every rank busy: repeated reductions
/// with cross-socket traffic under the packed placement.
fn busy_world(machine: &Machine) -> CommWorld<'_> {
    let mut w = world(machine, 4);
    for _ in 0..40 {
        w.sendrecv(0, 2, 1e5);
        w.allreduce(1e5);
    }
    w
}

#[test]
fn unmatched_recv_in_a_collective_schedule_reports_the_blocked_rank() {
    let m = Machine::new(systems::dmz());
    let mut w = world(&m, 4);
    w.allreduce(1024.0);
    // Rank 2 then waits for a message rank 3 never sends.
    let tag = w.fresh_tag();
    w.recv(2, 3, tag);
    match w.run().unwrap_err() {
        Error::Deadlock { blocked, .. } => assert_eq!(blocked, vec![RankId::new(2)]),
        other => panic!("expected Deadlock naming rank 2, got {other}"),
    }
}

#[test]
fn unmatched_recv_before_a_barrier_blocks_every_rank() {
    let m = Machine::new(systems::dmz());
    let mut w = world(&m, 4);
    w.allreduce(1024.0);
    let tag = w.fresh_tag();
    w.recv(1, 0, tag);
    // The barrier drags everyone else into the deadlock.
    w.barrier();
    match w.run().unwrap_err() {
        Error::Deadlock { blocked, .. } => {
            assert_eq!(blocked.len(), 4, "all ranks should be blocked: {blocked:?}");
        }
        other => panic!("expected Deadlock over all 4 ranks, got {other}"),
    }
}

#[test]
fn link_brownout_and_restore_bounds_a_collective_workload() {
    let m = Machine::new(systems::dmz());
    let mut w = world(&m, 4);
    // Cross-socket traffic: ranks 0/1 sit on socket 0, ranks 2/3 on
    // socket 1 under the packed placement.
    for _ in 0..50 {
        w.sendrecv(0, 2, 1e6);
    }
    let healthy = w.run().unwrap().makespan;

    let degrade_all = |plan: FaultPlan, at: f64, factor: f64| {
        plan.link_degrade(at, LinkId::new(0), factor).link_degrade(at, LinkId::new(1), factor)
    };
    let restore_all = |plan: FaultPlan, at: f64| {
        plan.link_restore(at, LinkId::new(0)).link_restore(at, LinkId::new(1))
    };

    // Quarter-bandwidth links during the middle of the healthy run.
    let transient_plan =
        restore_all(degrade_all(FaultPlan::new(), healthy * 0.25, 0.25), healthy * 0.5);
    let transient = w.run_with_faults(&transient_plan).unwrap();
    // Quarter-bandwidth links for the whole run.
    let permanent_plan = degrade_all(FaultPlan::new(), 0.0, 0.25);
    let permanent = w.run_with_faults(&permanent_plan).unwrap();

    assert!(
        healthy < transient.makespan && transient.makespan < permanent.makespan,
        "expected healthy {healthy:.5} < transient {:.5} < permanent {:.5}",
        transient.makespan,
        permanent.makespan
    );
    assert!(transient.metrics.faults_applied > 0);
}

#[test]
fn rank_kill_is_fatal_without_checkpoints_and_survivable_with_them() {
    let m = Machine::new(systems::dmz());
    let healthy = busy_world(&m).run().unwrap().makespan;
    let plan = FaultPlan::new().rank_kill(healthy * 0.5, RankId::new(2));

    // No checkpoint policy: the kill is a typed failure, not a hang.
    match busy_world(&m).run_with_faults(&plan).unwrap_err() {
        Error::RankKilled { rank, at_time } => {
            assert_eq!(rank, RankId::new(2));
            assert!((at_time - healthy * 0.5).abs() < healthy * 0.1);
        }
        other => panic!("expected RankKilled for rank 2, got {other}"),
    }

    // Armed with checkpoints, the same plan completes; the rollback is
    // stamped into the trace with a consistent timeline.
    let w = busy_world(&m).with_recovery(
        CheckpointPolicy::new(healthy / 5.0, 1e7).with_restart_delay(healthy / 20.0),
    );
    let observed = w.observe(&plan, TraceConfig::on());
    let report = observed.result.unwrap();
    assert_eq!(report.metrics.recoveries, 1);
    assert!(report.metrics.checkpoints_taken >= 1);
    assert!(report.makespan > healthy, "rollback and downtime must cost time");
    let trace = observed.trace.unwrap();
    assert_eq!(trace.recoveries.len(), 1);
    let stamp = &trace.recoveries[0];
    assert_eq!(stamp.rank, RankId::new(2));
    assert!(stamp.restored_to <= stamp.killed_at && stamp.killed_at < stamp.resumed_at);
    assert!(stamp.resumed_at <= trace.end_time);
}

#[test]
fn transfer_retry_rides_out_a_link_failure() {
    let m = Machine::new(systems::dmz());
    let xfers = |w: &mut CommWorld<'_>| {
        for _ in 0..10 {
            w.sendrecv(0, 2, 1e6);
        }
    };
    let mut baseline = world(&m, 4);
    xfers(&mut baseline);
    let healthy = baseline.run().unwrap().makespan;

    // One direction of the socket0<->socket1 pair is severed mid-run and
    // restored later; with a retry policy the transfers retransmit with
    // backoff instead of starving into RankStalled.
    let plan = FaultPlan::new()
        .link_fail(healthy * 0.3, LinkId::new(0))
        .link_restore(healthy * 0.6, LinkId::new(0));
    let mut retried = world(&m, 4).with_retry(RetryPolicy::new(healthy * 0.02));
    xfers(&mut retried);
    let report = retried.run_with_faults(&plan).unwrap();
    assert!(report.metrics.retries >= 1, "severed transfers must retransmit");
    assert!(report.makespan > healthy, "the outage must cost time");
}

#[test]
fn rank_stalled_during_a_collective_is_a_typed_error() {
    let m = Machine::new(systems::dmz());
    let mut w = world(&m, 4);
    w.allreduce(1024.0);
    // Rank 3 never starts; the collective can never complete.
    let plan = FaultPlan::new().rank_stall(0.0, RankId::new(3));
    match w.run_with_faults(&plan).unwrap_err() {
        Error::RankStalled { rank, .. } => assert_eq!(rank, RankId::new(3)),
        other => panic!("expected RankStalled for rank 3, got {other}"),
    }
}
