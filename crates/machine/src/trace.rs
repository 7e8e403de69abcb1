//! Time-resolved run traces: solver intervals, per-rank op spans, and
//! fault stamps.
//!
//! The engine's [`crate::metrics::RunMetrics`] are end-of-run totals; a
//! [`RunTrace`] is the time axis underneath them. Between any two engine
//! events the fluid-flow solver holds every rate constant, so a run is
//! exactly a sequence of [`SolverInterval`]s — each carrying per-resource
//! utilization — plus one [`OpSpan`] per program op
//! actually dispatched, carrying how the span's wall time splits across
//! the bottlenecks ([`Bottleneck`]) that limited its flows.
//!
//! Tracing is opt-in via [`TraceConfig`] and adds nothing to the engine
//! hot loop when off: the engine keeps its trace state as
//! `Option<Box<..>>`, `None` when disabled, and rate solving goes through
//! the same progressive-filling arithmetic either way.

use crate::flow::Bottleneck;
use crate::ids::RankId;
use crate::metrics::ResourceTimeline;
use crate::FaultKind;

/// Utilization at or above this fraction counts as "saturated" in
/// [`ResourceTimeline::saturated_time`]. Just under 1.0 so accumulated
/// f64 slack in the solver cannot hide a genuinely pinned resource.
pub const SATURATION_THRESHOLD: f64 = 0.999;

/// Whether the engine records a [`RunTrace`] for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    enabled: bool,
}

impl TraceConfig {
    /// Tracing disabled: the engine allocates no trace state and the run
    /// is bit-identical to an untraced one.
    #[must_use]
    pub const fn off() -> Self {
        Self { enabled: false }
    }

    /// Tracing enabled: the engine records intervals, spans, and fault
    /// stamps. Rates are still bit-identical to an untraced run —
    /// attribution is observed, never fed back.
    #[must_use]
    pub const fn on() -> Self {
        Self { enabled: true }
    }

    /// True when tracing is enabled.
    #[must_use]
    pub const fn is_on(&self) -> bool {
        self.enabled
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The kind of program op a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A compute phase (with its memory traffic).
    Compute,
    /// A send op, including rendezvous blocking and drain time.
    Send,
    /// A recv op, including waiting for the sender.
    Recv,
    /// An engine barrier.
    Barrier,
    /// A fixed software delay (MPI overhead, lock cost).
    Delay,
}

impl SpanKind {
    /// Short lower-case label, stable for CSV/trace output.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Barrier => "barrier",
            SpanKind::Delay => "delay",
        }
    }
}

/// One piecewise-constant stretch of the run: every flow rate is fixed
/// over `[t0, t1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverInterval {
    /// Interval start (seconds).
    pub t0: f64,
    /// Interval end (seconds).
    pub t1: f64,
    /// Per-resource utilization in `[0, 1]`, indexed like the engine's
    /// resource table. A zero-capacity resource reads 1.0 while any live
    /// flow still routes through it (it is pinning that flow at rate 0).
    pub utilization: Vec<f64>,
}

impl SolverInterval {
    /// Interval length in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// One dispatched program op on one rank, with its wall time split by
/// bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    /// Rank the op ran on.
    pub rank: usize,
    /// Kind of op.
    pub kind: SpanKind,
    /// Label: the compute phase's label, or the op kind's name.
    pub label: &'static str,
    /// Span start (seconds).
    pub t0: f64,
    /// Span end (seconds).
    pub t1: f64,
    /// Seconds of the span attributed to each bottleneck that limited a
    /// flow owned by this op. A transfer charges both endpoints' spans,
    /// so attributed time can legitimately exceed flow-drain time summed
    /// across ranks — within one span it never exceeds the duration.
    pub attributed: Vec<(Bottleneck, f64)>,
}

impl OpSpan {
    /// Span length in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Total seconds attributed to any bottleneck.
    #[must_use]
    pub fn attributed_total(&self) -> f64 {
        self.attributed.iter().map(|&(_, s)| s).sum()
    }

    /// Span time with no flow in flight: software overhead (setup, lock
    /// delays) for communication spans, pure CPU time for compute spans.
    #[must_use]
    pub fn unattributed(&self) -> f64 {
        (self.duration() - self.attributed_total()).max(0.0)
    }

    /// The bottleneck carrying the most attributed time, if any time was
    /// attributed at all.
    #[must_use]
    pub fn dominant_bottleneck(&self) -> Option<Bottleneck> {
        self.attributed.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(b, _)| b)
    }
}

/// A scheduled fault event as it actually fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStamp {
    /// The time the plan asked for.
    pub scheduled: f64,
    /// The engine time at which the fault was applied (`>= scheduled`;
    /// the engine fires faults at event boundaries).
    pub fired: f64,
    /// The fault that fired.
    pub kind: FaultKind,
}

/// One rollback-and-replay recovery as it happened (see
/// [`crate::recovery::CheckpointPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryStamp {
    /// The rank whose [`FaultKind::RankKill`] triggered the recovery.
    pub rank: RankId,
    /// Engine time when the kill fired.
    pub killed_at: f64,
    /// The checkpoint the run rolled back to (time of the last completed
    /// coordinated checkpoint; `0.0` for the implicit initial state).
    pub restored_to: f64,
    /// Engine time when replay resumed (`killed_at` plus the policy's
    /// restart delay).
    pub resumed_at: f64,
}

/// One bucket of a [`RunTrace::bottleneck_ranking`]: seconds of op-span
/// time attributed to one cause.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributedTime {
    /// Human-readable cause: a resource name, `"flow-cap"`, `"cpu"`,
    /// `"mpi-overhead"`, or `"barrier-wait"`.
    pub label: String,
    /// Seconds attributed across all spans.
    pub seconds: f64,
}

/// The full time-resolved record of one engine run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// Resource names, indexed like the engine's resource table.
    pub resource_names: Vec<String>,
    /// Number of ranks in the run.
    pub num_ranks: usize,
    /// Piecewise-constant solver intervals in time order, covering the
    /// run without gaps.
    pub intervals: Vec<SolverInterval>,
    /// Dispatched op spans, closed in completion order.
    pub spans: Vec<OpSpan>,
    /// Fault events that fired, in firing order.
    pub faults: Vec<FaultStamp>,
    /// Rollback-and-replay recoveries, in the order they happened.
    pub recoveries: Vec<RecoveryStamp>,
    /// Engine time when the run ended (successfully or not).
    pub end_time: f64,
}

impl RunTrace {
    /// Human-readable label for a bottleneck: the resource's table name,
    /// or `"flow-cap"`.
    #[must_use]
    pub fn bottleneck_label(&self, b: Bottleneck) -> &str {
        match b {
            Bottleneck::FlowCap => "flow-cap",
            Bottleneck::Resource(r) => {
                self.resource_names.get(r).map_or("resource?", String::as_str)
            }
        }
    }

    /// Per-resource busy/saturation summaries over the whole run.
    #[must_use]
    pub fn resource_timelines(&self) -> Vec<ResourceTimeline> {
        let total: f64 = self.intervals.iter().map(SolverInterval::duration).sum();
        let n = self.resource_names.len();
        let mut busy = vec![0.0; n];
        let mut saturated = vec![0.0; n];
        let mut area = vec![0.0; n];
        for iv in &self.intervals {
            let dt = iv.duration();
            for (r, &u) in iv.utilization.iter().enumerate() {
                if u > 0.0 {
                    busy[r] += dt;
                }
                if u >= SATURATION_THRESHOLD {
                    saturated[r] += dt;
                }
                area[r] += u * dt;
            }
        }
        (0..n)
            .map(|r| ResourceTimeline {
                name: self.resource_names[r].clone(),
                total_time: total,
                busy_time: busy[r],
                saturated_time: saturated[r],
                mean_utilization: if total > 0.0 { area[r] / total } else { 0.0 },
            })
            .collect()
    }

    /// Ranks every cause of elapsed op time, most costly first.
    ///
    /// Attributed span time is bucketed by bottleneck label (resource
    /// name or `"flow-cap"`); unattributed span time — no flow in flight
    /// — is bucketed `"cpu"` for compute spans, `"mpi-overhead"` for
    /// send/recv/delay spans, and `"barrier-wait"` for barrier spans.
    /// Buckets with no time are dropped.
    #[must_use]
    pub fn bottleneck_ranking(&self) -> Vec<AttributedTime> {
        // label -> seconds; small cardinality, linear scan is fine and
        // keeps ordering deterministic without a hash map.
        let mut buckets: Vec<(String, f64)> = Vec::new();
        let add = |label: &str, seconds: f64, buckets: &mut Vec<(String, f64)>| {
            if seconds <= 0.0 {
                return;
            }
            if let Some(slot) = buckets.iter_mut().find(|(l, _)| l == label) {
                slot.1 += seconds;
            } else {
                buckets.push((label.to_string(), seconds));
            }
        };
        for span in &self.spans {
            for &(b, seconds) in &span.attributed {
                let label = match b {
                    Bottleneck::FlowCap => "flow-cap",
                    Bottleneck::Resource(r) => {
                        self.resource_names.get(r).map_or("resource?", String::as_str)
                    }
                };
                add(label, seconds, &mut buckets);
            }
            let overhead = span.unattributed();
            let label = match span.kind {
                SpanKind::Compute => "cpu",
                SpanKind::Send | SpanKind::Recv | SpanKind::Delay => "mpi-overhead",
                SpanKind::Barrier => "barrier-wait",
            };
            add(label, overhead, &mut buckets);
        }
        buckets.sort_by(|a, b| b.1.total_cmp(&a.1));
        buckets.into_iter().map(|(label, seconds)| AttributedTime { label, seconds }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_config_defaults_off() {
        assert!(!TraceConfig::default().is_on());
        assert!(TraceConfig::on().is_on());
        assert!(!TraceConfig::off().is_on());
    }

    fn span(kind: SpanKind, t0: f64, t1: f64, attributed: Vec<(Bottleneck, f64)>) -> OpSpan {
        OpSpan { rank: 0, kind, label: kind.name(), t0, t1, attributed }
    }

    #[test]
    fn ranking_buckets_attributed_and_overhead_time() {
        let trace = RunTrace {
            resource_names: vec!["mc:0".into(), "coherence-probe".into()],
            num_ranks: 1,
            intervals: vec![],
            spans: vec![
                span(SpanKind::Compute, 0.0, 1.0, vec![(Bottleneck::Resource(1), 0.9)]),
                span(SpanKind::Send, 1.0, 1.5, vec![(Bottleneck::Resource(0), 0.2)]),
                span(SpanKind::Barrier, 1.5, 1.6, vec![]),
            ],
            faults: vec![],
            recoveries: vec![],
            end_time: 1.6,
        };
        let ranking = trace.bottleneck_ranking();
        let get = |label: &str| {
            ranking.iter().find(|a| a.label == label).map(|a| a.seconds).unwrap_or(0.0)
        };
        assert!((get("coherence-probe") - 0.9).abs() < 1e-12);
        assert!((get("mc:0") - 0.2).abs() < 1e-12);
        // 0.1 s of compute span with no flow in flight -> cpu; 0.3 s of
        // the send span -> mpi-overhead; the barrier span -> barrier-wait.
        assert!((get("cpu") - 0.1).abs() < 1e-12);
        assert!((get("mpi-overhead") - 0.3).abs() < 1e-12);
        assert!((get("barrier-wait") - 0.1).abs() < 1e-12);
        // Sorted descending.
        assert_eq!(ranking[0].label, "coherence-probe");
    }

    #[test]
    fn resource_timelines_summarize_utilization() {
        let trace = RunTrace {
            resource_names: vec!["mc:0".into()],
            num_ranks: 1,
            intervals: vec![
                SolverInterval { t0: 0.0, t1: 1.0, utilization: vec![1.0] },
                SolverInterval { t0: 1.0, t1: 2.0, utilization: vec![0.5] },
                SolverInterval { t0: 2.0, t1: 3.0, utilization: vec![0.0] },
            ],
            spans: vec![],
            faults: vec![],
            recoveries: vec![],
            end_time: 3.0,
        };
        let tl = &trace.resource_timelines()[0];
        assert!((tl.total_time - 3.0).abs() < 1e-12);
        assert!((tl.busy_time - 2.0).abs() < 1e-12);
        assert!((tl.saturated_time - 1.0).abs() < 1e-12);
        assert!((tl.mean_utilization - 0.5).abs() < 1e-12);
        assert!((tl.busy_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((tl.saturation_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_bottleneck_picks_largest_share() {
        let s = span(
            SpanKind::Compute,
            0.0,
            1.0,
            vec![(Bottleneck::FlowCap, 0.2), (Bottleneck::Resource(3), 0.7)],
        );
        assert_eq!(s.dominant_bottleneck(), Some(Bottleneck::Resource(3)));
        assert!((s.unattributed() - 0.1).abs() < 1e-12);
        let empty = span(SpanKind::Barrier, 0.0, 1.0, vec![]);
        assert_eq!(empty.dominant_bottleneck(), None);
    }
}
