//! Trace export: representative traced runs per artifact, Chrome-trace
//! JSON, and utilization CSV.
//!
//! Each representative is a [`Scenario`] run through
//! [`Scenario::observe`] with tracing on, the same lowering the tables'
//! cached runs use; the scenario constructors here are shared with the X3
//! and X4 artifacts.
//!
//! `repro --trace <dir>` calls [`representative_trace`] for each
//! requested artifact, then writes [`chrome_trace_json`] (loadable in
//! `chrome://tracing` or Perfetto) and [`utilization_csv`] (one row per
//! solver interval, one column per shared resource). The JSON is
//! hand-rolled — the repo vendors no serde — and kept to the small
//! subset of the trace-event format the viewers need: `"X"` complete
//! events for op spans, `"C"` counters for per-resource utilization,
//! `"i"` instants for fault stamps, and `"M"` metadata for names.

use crate::artifacts::Artifact;
use crate::resilience::FaultTarget;
use corescope_affinity::Scheme;
use corescope_calib::cells;
use corescope_kernels::cg::CgClass;
use corescope_machine::{
    CheckpointPolicy, Error, FaultPlan, RankId, Result, RunTrace, TraceConfig,
};
use corescope_sched::json::{escape, num};
use corescope_sched::{Fidelity, Placement, Scenario, System, Workload};
use std::fmt::Write as _;

/// A labelled trace ready for export.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Human-readable description of the traced run.
    pub label: String,
    /// The run's time-resolved trace.
    pub trace: RunTrace,
}

/// lmbench-style STREAM: ranks spread over sockets first (the paper's
/// core-activation order), memory allocated locally, on the LAM stack of
/// the HPCC figures; the cell of Figures 2/3.
pub(crate) fn scatter_stream(system: System, nranks: usize, fidelity: Fidelity) -> Scenario {
    cells::stream_star(system, nranks, Placement::ScatterLocal, fidelity).scenario
}

/// A `bytes` PingPong of `fidelity.steps(20).max(4)` round trips between
/// two ranks on different sockets.
pub(crate) fn pingpong(system: System, bytes: f64, fidelity: Fidelity) -> Scenario {
    let reps = fidelity.steps(20).max(4);
    Scenario::new(system, 2, Workload::PingPong { bytes, reps })
        .with_fidelity(fidelity)
        .with_placement(Placement::Scheme(Scheme::OneMpiLocalAlloc))
}

/// STREAM triad on four DMZ ranks under the scenario defaults: the
/// healthy run the X3 and X5 faults and recoveries are scheduled against.
pub(crate) fn dmz_stream(fidelity: Fidelity) -> Scenario {
    Scenario::new(System::Dmz, 4, cells::stream_workload(fidelity)).with_fidelity(fidelity)
}

/// NAS CG of `class` on the scenario defaults (two MPI per socket,
/// localalloc, MPICH2 with spin locks).
pub(crate) fn cg(system: System, nranks: usize, class: CgClass, fidelity: Fidelity) -> Scenario {
    Scenario::new(system, nranks, Workload::NasCg { class }).with_fidelity(fidelity)
}

/// Produces the traced run that best represents `artifact`: the workload
/// and system whose bottleneck the artifact is about. Returns `Ok(None)`
/// for artifacts with no obvious single representative (static tables,
/// broad sweeps).
///
/// # Errors
///
/// Propagates engine errors from the traced run.
pub fn representative_trace(artifact: Artifact, fidelity: Fidelity) -> Result<Option<TraceBundle>> {
    use Artifact::*;
    // Class A regardless of fidelity: class B's trace would be tens of
    // megabytes and adds nothing to the bottleneck picture.
    let cg = |system, nranks| cg(system, nranks, CgClass::A, fidelity);
    let stream = dmz_stream(fidelity);
    let (label, scenario) = match artifact {
        // STREAM bandwidth artifacts: the probe-fabric-bound 16-core
        // Longs configuration is the paper's headline observation.
        F2 | F3 | F10 | X4 => {
            ("STREAM triad x16, longs".to_string(), scatter_stream(System::Longs, 16, fidelity))
        }
        // IMB artifacts: a small-message cross-socket PingPong on DMZ.
        F14 | F15 | F16 | F17 => (
            format!("IMB PingPong 1 KiB x{}, dmz cross-socket", fidelity.steps(20).max(4)),
            pingpong(System::Dmz, 1024.0, fidelity),
        ),
        // NAS CG tables.
        T2 => ("NAS CG class A x8, longs".to_string(), cg(System::Longs, 8)),
        T3 => ("NAS CG class A x4, dmz".to_string(), cg(System::Dmz, 4)),
        // The resilience campaign: its STREAM brownout run, whose fault
        // stamps land in the trace as instant events.
        X3 => {
            let healthy = stream.run()?.makespan;
            let plan = FaultTarget::Controllers.brownout(&System::Dmz.machine(), healthy);
            ("STREAM triad x4 + controller brownout, dmz".to_string(), stream.with_faults(plan))
        }
        // The recovery campaign: a checkpointed run surviving a rank
        // kill past the halfway mark, its rollback and restart downtime
        // stamped into the trace as a recovery stamp and a
        // zero-utilization gap.
        X5 => {
            let healthy = stream.run()?.makespan;
            let policy =
                CheckpointPolicy::new(healthy / 4.0, 1e7).with_restart_delay(healthy / 50.0);
            let plan = FaultPlan::new().rank_kill(healthy * 0.6, RankId::new(1));
            let scenario = stream.with_recovery(policy).with_faults(plan);
            ("STREAM triad x4 + rank kill & rollback, dmz".to_string(), scenario)
        }
        _ => return Ok(None),
    };
    Ok(Some(TraceBundle { label, trace: traced(&scenario)? }))
}

/// Runs `scenario` traced and returns its trace, propagating run errors.
pub(crate) fn traced(scenario: &Scenario) -> Result<RunTrace> {
    let observed = scenario.observe(TraceConfig::on())?;
    observed.result?;
    observed.trace.ok_or_else(|| Error::InvalidSpec("traced run produced no trace".to_string()))
}

/// Seconds to the trace-event format's microsecond timestamps.
fn us(seconds: f64) -> String {
    num(seconds * 1e6)
}

/// Renders a trace as Chrome-trace/Perfetto JSON.
///
/// Ranks appear as threads of process 0 with one `"X"` event per op
/// span (the span's dominant bottleneck in `args`); per-resource
/// utilization appears as one `"C"` counter series per resource under
/// process 1; fault stamps are `"i"` instant events.
#[must_use]
pub fn chrome_trace_json(label: &str, trace: &RunTrace) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ranks\"}}"
            .to_string(),
    );
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"resources\"}}"
            .to_string(),
    );
    for rank in 0..trace.num_ranks {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"ts\":0,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
    }
    for span in &trace.spans {
        let bottleneck = span
            .dominant_bottleneck()
            .map_or_else(|| "none".to_string(), |b| escape(trace.bottleneck_label(b)));
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"bottleneck\":\"{}\"}}}}",
            span.rank,
            escape(span.label),
            span.kind.name(),
            us(span.t0),
            us(span.duration()),
            bottleneck,
        ));
    }
    for interval in &trace.intervals {
        let mut args = String::new();
        for (r, u) in interval.utilization.iter().enumerate() {
            if r > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":{}", escape(&trace.resource_names[r]), num(*u));
        }
        events.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"utilization\",\"ts\":{},\
             \"args\":{{{args}}}}}",
            us(interval.t0),
        ));
    }
    for stamp in &trace.faults {
        events.push(format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"g\",\"name\":\"{}\",\"ts\":{}}}",
            escape(&format!("{:?}", stamp.kind)),
            us(stamp.fired),
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"label\":\"{}\",\"end_time_s\":{}}},\
         \"traceEvents\":[\n{}\n]}}\n",
        escape(label),
        num(trace.end_time),
        events.join(",\n"),
    )
}

/// Renders the solver-interval utilization table as CSV: `t0,t1` in
/// seconds, then one column per shared resource.
#[must_use]
pub fn utilization_csv(trace: &RunTrace) -> String {
    let mut out = String::from("t0,t1");
    for name in &trace.resource_names {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    for interval in &trace.intervals {
        let _ = write!(out, "{},{}", interval.t0, interval.t1);
        for u in &interval.utilization {
            let _ = write!(out, ",{u}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_artifacts_have_a_representative_trace() {
        let bundle = representative_trace(Artifact::F2, Fidelity::Quick).unwrap().unwrap();
        assert!(bundle.label.contains("STREAM"));
        assert!(!bundle.trace.intervals.is_empty());
        assert!(!bundle.trace.spans.is_empty());
        // The 16-core Longs STREAM is probe-fabric-bound.
        let ranking = bundle.trace.bottleneck_ranking();
        assert_eq!(ranking[0].label, "coherence-probe", "{ranking:?}");
    }

    #[test]
    fn static_tables_have_no_representative_trace() {
        assert!(representative_trace(Artifact::T1, Fidelity::Quick).unwrap().is_none());
    }

    #[test]
    fn x3_trace_carries_fault_stamps() {
        let bundle = representative_trace(Artifact::X3, Fidelity::Quick).unwrap().unwrap();
        // 2 throttles + 2 restores on the two dmz sockets.
        assert_eq!(bundle.trace.faults.len(), 4);
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 4);
    }

    #[test]
    fn x5_trace_carries_a_recovery_stamp() {
        let bundle = representative_trace(Artifact::X5, Fidelity::Quick).unwrap().unwrap();
        assert_eq!(bundle.trace.faults.len(), 1, "one kill stamped");
        assert_eq!(bundle.trace.recoveries.len(), 1, "one rollback stamped");
        let stamp = &bundle.trace.recoveries[0];
        assert!(stamp.restored_to <= stamp.killed_at && stamp.killed_at < stamp.resumed_at);
        assert!(stamp.resumed_at <= bundle.trace.end_time);
    }

    #[test]
    fn chrome_trace_json_has_the_expected_shape() {
        let bundle = representative_trace(Artifact::F14, Fidelity::Quick).unwrap().unwrap();
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"bottleneck\""));
        // Balanced braces (string-aware balance is checked by the bench
        // validator; the export contains no braces inside strings).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn utilization_csv_is_rectangular() {
        let bundle = representative_trace(Artifact::F14, Fidelity::Quick).unwrap().unwrap();
        let csv = utilization_csv(&bundle.trace);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let width = header.split(',').count();
        assert_eq!(width, 2 + bundle.trace.resource_names.len());
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
            rows += 1;
        }
        assert_eq!(rows, bundle.trace.intervals.len());
    }
}
