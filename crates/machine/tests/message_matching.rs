//! Message matching: sends and receives pair up FIFO per
//! `(src, dst, tag)`, including when several messages with the same key
//! are outstanding at once and across a checkpoint rollback.
//!
//! Delivery order is observed through the trace: each receive's span ends
//! when its message lands, so with payloads of very different sizes the
//! span lengths say which message each receive got.

use corescope_machine::engine::RankPlacement;
use corescope_machine::program::MessageCost;
use corescope_machine::trace::{OpSpan, SpanKind};
use corescope_machine::{
    systems, CheckpointPolicy, ComputePhase, CoreId, Engine, FaultPlan, Machine, MemoryLayout,
    Program, RankId, TraceConfig, TrafficProfile,
};

/// Copy-bandwidth cap of every test message, far below any resource
/// capacity on the path so a lone transfer runs exactly at it.
const CAP: f64 = 1e8;

fn eager() -> MessageCost {
    MessageCost { setup: 0.0, cap: CAP, sender_busy: 1e-7, rendezvous: false }
}

fn placement(m: &Machine, core: usize) -> RankPlacement {
    let node = m.node_of_socket(m.socket_of(CoreId::new(core)));
    RankPlacement::new(CoreId::new(core), MemoryLayout::single(node))
}

/// The receive spans of `rank`, in program order.
fn recv_spans(spans: &[OpSpan], rank: usize) -> Vec<&OpSpan> {
    spans.iter().filter(|s| s.rank == rank && s.kind == SpanKind::Recv).collect()
}

/// Asserts the receive spans delivered `sizes` in order, each at `CAP`.
fn assert_delivered_in_order(recvs: &[&OpSpan], sizes: &[f64]) {
    assert_eq!(recvs.len(), sizes.len(), "{recvs:?}");
    for (span, &bytes) in recvs.iter().zip(sizes) {
        let expected = bytes / CAP;
        let got = span.t1 - span.t0;
        assert!(
            (got - expected).abs() <= expected * 1e-6,
            "receive [{}, {}] took {got:e} s, expected {expected:e} s for {bytes} B",
            span.t0,
            span.t1
        );
    }
}

#[test]
fn eager_sends_queued_before_their_receives_match_fifo() {
    let m = Machine::new(systems::dmz());
    let engine = Engine::new(&m);
    // Three same-key sends are all pending before the first receive is
    // posted: the key's queue grows past one entry.
    let sizes = [1e4, 1e6, 1e5];
    let mut p0 = Program::new();
    for &bytes in &sizes {
        p0.send(RankId::new(1), bytes, 7, eager());
    }
    let mut p1 = Program::new();
    p1.delay(1e-3);
    for _ in &sizes {
        p1.recv(RankId::new(0), 7);
    }
    let observed = engine.observe(
        &[placement(&m, 0), placement(&m, 2)],
        &[p0, p1],
        &FaultPlan::new(),
        TraceConfig::on(),
    );
    let report = observed.result.unwrap();
    let trace = observed.trace.unwrap();
    let recvs = recv_spans(&trace.spans, 1);
    assert_delivered_in_order(&recvs, &sizes);
    assert!((recvs[0].t0 - 1e-3).abs() < 1e-12);
    // Receives run back to back from 1 ms: the last lands after the sum
    // of all three transfer times.
    let total: f64 = sizes.iter().map(|b| b / CAP).sum();
    assert!((report.finish_of(RankId::new(1)) - (1e-3 + total)).abs() < total * 1e-6);
    assert_eq!(report.metrics.messages_sent, vec![3, 0]);
}

#[test]
fn receives_posted_before_their_sends_match_fifo() {
    let m = Machine::new(systems::dmz());
    let engine = Engine::new(&m);
    // Each receive is posted before its send: the sender pauses longer
    // than the previous transfer takes, so the receiver is always waiting.
    let sizes = [1e5, 1e4, 1e6];
    let gap = 2e-2;
    let mut p0 = Program::new();
    for &bytes in &sizes {
        p0.delay(gap).send(RankId::new(1), bytes, 3, eager());
    }
    let mut p1 = Program::new();
    for _ in &sizes {
        p1.recv(RankId::new(0), 3);
    }
    let observed = engine.observe(
        &[placement(&m, 0), placement(&m, 1)],
        &[p0, p1],
        &FaultPlan::new(),
        TraceConfig::on(),
    );
    let report = observed.result.unwrap();
    let trace = observed.trace.unwrap();
    let recvs = recv_spans(&trace.spans, 1);
    assert_eq!(recvs.len(), sizes.len());
    // Message k is sent at (k + 1) * gap (plus the sender's busy time
    // for earlier sends) and lands bytes/CAP later.
    let mut send_at = 0.0;
    for (k, (span, &bytes)) in recvs.iter().zip(&sizes).enumerate() {
        send_at += gap;
        let landed = send_at + bytes / CAP;
        assert!((span.t1 - landed).abs() < 1e-9, "message {k} landed at {} not {landed}", span.t1);
        send_at += 1e-7;
    }
    let last = 3.0 * gap + 2e-7 + sizes[2] / CAP;
    assert!((report.finish_of(RankId::new(1)) - last).abs() < 1e-9);
}

#[test]
fn messages_pending_at_a_checkpoint_survive_the_rollback() {
    let m = Machine::new(systems::dmz());
    let policy = CheckpointPolicy::new(0.05, 5e6).with_restart_delay(0.01);
    let engine = Engine::new(&m).with_recovery(policy);
    // Rank 0 posts three same-key eager sends at t = 0 and is done. Rank 1
    // streams for ~0.14 s first, so the checkpoint at 0.05 s captures all
    // three sends unmatched; the kill at 0.08 s rolls back to that cut.
    // The sends are not replayed (rank 0's program counter is past them),
    // so the receives can only complete from the restored queue.
    let sizes = [1e5, 1e7, 1e6];
    let mut p0 = Program::new();
    for &bytes in &sizes {
        p0.send(RankId::new(1), bytes, 0, eager());
    }
    let mut p1 = Program::new();
    p1.compute(ComputePhase::new("stream", 0.0, TrafficProfile::stream(5e8)));
    for _ in &sizes {
        p1.recv(RankId::new(0), 0);
    }
    let placements = [placement(&m, 0), placement(&m, 2)];
    let programs = [p0, p1];
    let plan = FaultPlan::new().rank_kill(0.08, RankId::new(1));

    let off = engine.observe(&placements, &programs, &plan, TraceConfig::off());
    let on = engine.observe(&placements, &programs, &plan, TraceConfig::on());
    let report = off.result.unwrap();
    assert_eq!(report, on.result.unwrap());
    assert_eq!(report.metrics.recoveries, 1);
    assert_eq!(report.metrics.messages_sent, vec![3, 0]);

    let trace = on.trace.unwrap();
    let stamp = &trace.recoveries[0];
    assert!(stamp.restored_to >= 0.05 && stamp.restored_to < stamp.killed_at);
    let recvs = recv_spans(&trace.spans, 1);
    assert_eq!(recvs.len(), sizes.len(), "{recvs:?}");
    // All three receives run after the restart, in send order. Checkpoint
    // writes may share the path briefly, so allow a slowdown but no
    // speedup; the 10x size ratios keep the order unambiguous.
    for (span, &bytes) in recvs.iter().zip(&sizes) {
        assert!(span.t0 >= stamp.resumed_at);
        let got = span.t1 - span.t0;
        let expected = bytes / CAP;
        assert!(got >= expected * (1.0 - 1e-9) && got < expected * 1.5, "{got} vs {expected}");
    }
    assert!((report.finish_of(RankId::new(1)) - recvs[2].t1).abs() < 1e-12);
}

#[test]
fn a_long_queue_of_eager_sends_matches_inside_the_event_budget() {
    let m = Machine::new(systems::dmz());
    let engine = Engine::new(&m);
    // 10⁵ eager sends, each with its own tag, are all posted before rank 1
    // posts its first receive; it then receives them in send order.
    const MESSAGES: u64 = 100_000;
    let mut p0 = Program::new();
    for tag in 0..MESSAGES {
        p0.send(RankId::new(1), 64.0, tag, eager());
    }
    let mut p1 = Program::new();
    p1.delay(1.0);
    for tag in 0..MESSAGES {
        p1.recv(RankId::new(0), tag);
    }
    let report = engine
        .run(&[placement(&m, 0), placement(&m, 2)], &[p0, p1])
        .expect("the run ends inside the default event budget");
    assert_eq!(report.metrics.messages_sent, vec![MESSAGES as usize, 0]);
    // The bits and events of the per-key hash-map matcher this FIFO
    // replaced.
    assert_eq!(report.makespan.to_bits(), 0x3ff1_0624_dd2f_d740);
    assert_eq!(report.metrics.events, 200_001);
}
