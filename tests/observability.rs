//! Cross-crate observability tests: engine tracing must not perturb
//! results, trace exports must be well-formed, and the time-resolved
//! bottleneck attribution must reproduce the paper's narrative end to
//! end through the public facade.

use corescope::harness::{
    chrome_trace_json, representative_trace, utilization_csv, Artifact, Cell, Fidelity,
};
use corescope::kernels::stream::{append_star, StreamParams};
use corescope::machine::{systems, FaultPlan, Machine, TraceConfig};
use corescope::smpi::{CommWorld, LockLayer, MpiImpl};
use corescope_bench::validate_chrome_trace;
use corescope_sched::Encoder;

fn stream_world(machine: &Machine, n: usize) -> CommWorld<'_> {
    let placements = corescope::affinity::Scheme::TwoMpiLocalAlloc.resolve(machine, n).unwrap();
    let mut world = CommWorld::new(machine, placements, MpiImpl::Lam.profile(), LockLayer::USysV);
    append_star(&mut world, &StreamParams { sweeps: 3, ..StreamParams::default() });
    world
}

#[test]
fn tracing_is_invisible_to_the_physics() {
    let m = Machine::new(systems::longs());
    let w = stream_world(&m, 16);
    let plain = w.run().unwrap();
    let traced = w.observe(&FaultPlan::new(), TraceConfig::on());
    let report = traced.result.unwrap();
    assert_eq!(plain, report, "tracing must not change rates, makespan, or metrics");
    let trace = traced.trace.expect("tracing was on");
    assert!(!trace.intervals.is_empty());
    assert!((trace.end_time - report.makespan).abs() <= report.makespan * 1e-12);
}

#[test]
fn longs_stream_trace_blames_the_probe_fabric() {
    let m = Machine::new(systems::longs());
    let observed = stream_world(&m, 16).observe(&FaultPlan::new(), TraceConfig::on());
    observed.result.unwrap();
    let ranking = observed.trace.unwrap().bottleneck_ranking();
    assert_eq!(
        ranking[0].label, "coherence-probe",
        "all-core STREAM on Longs is probe-limited (paper Sec. 3.1): {ranking:?}"
    );
}

/// One digest per distinct traced representative, over its exported
/// Chrome-trace JSON followed by its utilization CSV. The trace export
/// is deterministic, so any change to how a representative is lowered
/// or traced shows up here as a moved digest.
const TRACE_PINS: [(Artifact, &str); 6] = [
    (Artifact::F2, "459eb59c5a170ab4c2fb6499ccbbb8df"),
    (Artifact::F14, "381212bd59bf4603fc977177664bb207"),
    (Artifact::T2, "09ed89e912b76010aaaacaf1c976165d"),
    (Artifact::T3, "3d76c5563909d6e857b6f5045b1db2bb"),
    (Artifact::X3, "d11006786709eacfd251d89d9e4f4043"),
    (Artifact::X5, "61356fa4302c4e9a15ec531d86f8d02f"),
];

#[test]
fn representative_traces_export_valid_chrome_json_and_csv() {
    for (artifact, pinned) in TRACE_PINS {
        let bundle = representative_trace(artifact, Fidelity::Quick)
            .unwrap()
            .unwrap_or_else(|| panic!("{} should have a traced representative", artifact.id()));
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{} trace invalid: {e}", artifact.id()));
        let csv = utilization_csv(&bundle.trace);
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        assert!(header_cols >= 3, "t0,t1 plus at least one resource");
        for line in lines {
            assert_eq!(line.split(',').count(), header_cols, "ragged CSV for {}", artifact.id());
        }
        let digest = Encoder::new().str("json", &json).str("csv", &csv).digest().hex();
        assert_eq!(digest, pinned, "{} trace export moved", artifact.id());
    }
}

#[test]
fn x4_names_the_papers_bottlenecks() {
    let tables = Artifact::X4.run(Fidelity::Quick).unwrap();
    let top = |row: &str| match tables[0]
        .rows()
        .find(|(label, _)| *label == row)
        .map(|(_, cells)| cells[0].clone())
    {
        Some(Cell::Text(s)) => s,
        other => panic!("row '{row}': {other:?}"),
    };
    assert_eq!(top("STREAM triad x8, Longs"), "coherence-probe");
    assert!(top("STREAM triad x4, DMZ").starts_with("mc:"));
    assert_eq!(top("PingPong 8 B, Longs"), "mpi-overhead");
}
