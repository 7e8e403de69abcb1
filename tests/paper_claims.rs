//! End-to-end checks of the paper's headline claims, each exercised
//! through the full stack (harness -> sched -> apps/kernels -> smpi ->
//! affinity -> machine engine).
//!
//! Every test runs its artifacts through one process-wide scheduler, so
//! a scenario that several tests (or several artifacts) need runs once
//! and is answered from the result cache afterwards.

use corescope::harness::{Artifact, Fidelity, Table};
use corescope_sched::Scheduler;
use std::sync::OnceLock;

/// Regenerates `artifact` at quick fidelity on the shared scheduler.
fn run(artifact: Artifact) -> Vec<Table> {
    static SCHED: OnceLock<Scheduler> = OnceLock::new();
    let sched = SCHED.get_or_init(|| {
        Scheduler::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    });
    artifact
        .run_with(Fidelity::Quick, sched)
        .unwrap_or_else(|e| panic!("{} failed: {e}", artifact.id()))
}

/// Abstract: "an appropriate selection of MPI task and memory placement
/// schemes can result in over 25% performance improvement for key
/// scientific calculations."
#[test]
fn placement_is_worth_over_25_percent_on_key_kernels() {
    let tables = run(Artifact::T2);
    let t = &tables[0];
    for row in ["8 CG", "8 FT"] {
        let best = ["Default", "One MPI + Local Alloc", "Two MPI + Local Alloc"]
            .iter()
            .filter_map(|c| t.value(row, c))
            .fold(f64::INFINITY, f64::min);
        let worst = ["One MPI + Membind", "Two MPI + Membind", "Interleave"]
            .iter()
            .filter_map(|c| t.value(row, c))
            .fold(0.0_f64, f64::max);
        assert!(
            worst > 1.25 * best,
            "{row}: worst placement {worst:.2}s should exceed best {best:.2}s by >25%"
        );
    }
}

/// Section 1: "the memory and task placement configurations that result
/// in an optimal performance for scientific kernels provide 10-20%
/// performance improvement for full application runs."
#[test]
fn applications_see_double_digit_placement_effects() {
    let tables = run(Artifact::T13);
    let longs = &tables[0];
    let best = longs.value("8 baroclinic", "One MPI + Local Alloc").expect("localalloc cell");
    let worst = longs.value("8 baroclinic", "One MPI + Membind").expect("membind cell");
    assert!(worst > 1.10 * best, "POP baroclinic: membind {worst:.1} vs localalloc {best:.1}");
}

/// Summary: "dual core processors are generally worth the investment in
/// 1, 2, and 4 socket configurations" — compute-heavy workloads keep
/// scaling on DMZ.
#[test]
fn dual_cores_pay_off_on_small_nodes() {
    let tables = run(Artifact::T8);
    let t = &tables[0];
    for bench in ["dhfr", "gb_mb", "JAC"] {
        let s4 = t.value("4 DMZ", bench).expect("4-core cell");
        assert!(s4 > 3.0, "{bench} 4-core DMZ speedup {s4:.2} (paper: 3.35-3.94)");
    }
}

/// Summary: "current 8 socket configurations should be reserved to those
/// application classes which exhibit extremely high cache locality as
/// exemplified by DGEMM."
#[test]
fn eight_socket_node_rewards_cache_locality() {
    let tables = run(Artifact::F9);
    let t = &tables[0];
    // DGEMM: star == single (second core doubles per-socket throughput).
    let dgemm_ratio =
        t.value("usysv", "Single DGEMM").unwrap() / t.value("usysv", "Star DGEMM").unwrap();
    assert!(dgemm_ratio < 1.1, "DGEMM single:star {dgemm_ratio:.2} should be ~1 (cache friendly)");
    // STREAM: single:star per-core ratio is > 2 (figure 10).
    let stream = &run(Artifact::F10)[0];
    let stream_ratio = stream.value("default", "Single:Star").unwrap();
    assert!(
        stream_ratio > 2.0,
        "STREAM single:star {stream_ratio:.2} should exceed 2 on the ladder"
    );
}

/// Section 3.4: three classes of communication channel, with a 10-13%
/// bandwidth benefit inside a multi-core processor.
#[test]
fn intra_socket_communication_is_fastest() {
    let tables = run(Artifact::F16);
    let t = &tables[0];
    let bound = t.value("1048576", "2 procs, bound 0").unwrap();
    let unbound = t.value("1048576", "2 procs, unbound").unwrap();
    let gain = bound / unbound;
    assert!(gain > 1.05 && gain < 1.20, "intra-socket gain {gain:.3}");
}

/// Figure 13: SysV semaphore latency dominates every other communication
/// effect for small messages.
#[test]
fn sysv_semaphores_dominate_small_message_latency() {
    let tables = run(Artifact::F13);
    let t = &tables[0];
    let sysv = t.value("sysv", "PingPong").unwrap();
    let usysv = t.value("usysv", "PingPong").unwrap();
    assert!(sysv > 2.0 * usysv, "sysv {sysv:.2}us vs usysv {usysv:.2}us");
}

/// Every artifact regenerates without error at reduced fidelity (the full
/// sweep is exercised by the repro binary / EXPERIMENTS.md).
#[test]
fn all_artifacts_regenerate() {
    for artifact in Artifact::all() {
        let tables = run(artifact);
        assert!(!tables.is_empty(), "{} produced no tables", artifact.id());
        for table in &tables {
            assert!(table.num_rows() > 0, "{} has an empty table", artifact.id());
        }
    }
}
