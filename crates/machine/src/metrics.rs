//! Simulation metrics collected by the engine.

use crate::ids::RankId;

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// DRAM bytes actually moved per rank.
    pub dram_bytes: Vec<f64>,
    /// Messages sent per rank.
    pub messages_sent: Vec<usize>,
    /// Payload bytes sent per rank.
    pub bytes_sent: Vec<f64>,
    /// Total bytes that crossed each shared resource (indexed like the
    /// engine's resource table: memory controllers first, then directed
    /// links).
    pub resource_bytes: Vec<f64>,
    /// Number of discrete events processed.
    pub events: usize,
    /// Number of scheduled fault events that fired during the run.
    pub faults_applied: usize,
    /// Coordinated checkpoints completed (see
    /// [`crate::recovery::CheckpointPolicy`]).
    pub checkpoints_taken: usize,
    /// Rollback-and-replay recoveries performed after
    /// [`crate::faults::FaultKind::RankKill`] events.
    pub recoveries: usize,
    /// Transfer retransmissions triggered by failed links (see
    /// [`crate::recovery::RetryPolicy`]).
    pub retries: usize,
    /// Rate solves: one per change to the live flows or to the capacities.
    pub solves: usize,
    /// Rate solves answered from the solver's memo of problems already
    /// solved in this run (see [`crate::flow::Solver`]).
    pub solves_reused: usize,
}

impl RunMetrics {
    /// Creates zeroed metrics for `ranks` ranks and `resources` resources.
    pub fn new(ranks: usize, resources: usize) -> Self {
        Self {
            dram_bytes: vec![0.0; ranks],
            messages_sent: vec![0; ranks],
            bytes_sent: vec![0.0; ranks],
            resource_bytes: vec![0.0; resources],
            events: 0,
            faults_applied: 0,
            checkpoints_taken: 0,
            recoveries: 0,
            retries: 0,
            solves: 0,
            solves_reused: 0,
        }
    }

    /// Total DRAM bytes across all ranks.
    pub fn total_dram_bytes(&self) -> f64 {
        self.dram_bytes.iter().sum()
    }

    /// Total messages across all ranks.
    pub fn total_messages(&self) -> usize {
        self.messages_sent.iter().sum()
    }

    /// Total payload bytes across all ranks.
    pub fn total_bytes_sent(&self) -> f64 {
        self.bytes_sent.iter().sum()
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Time at which the last rank finished (the figure-of-merit for the
    /// paper's runtime tables).
    pub makespan: f64,
    /// Per-rank completion times.
    pub rank_finish: Vec<f64>,
    /// Accumulated counters.
    pub metrics: RunMetrics,
}

impl RunReport {
    /// Finish time of a specific rank.
    pub fn finish_of(&self, rank: RankId) -> f64 {
        self.rank_finish[rank.index()]
    }
}

/// Busy/saturation summary of one shared resource over a traced run
/// (built by [`crate::trace::RunTrace::resource_timelines`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceTimeline {
    /// Resource name from the engine's table (`mc:0`, `link:0->1`,
    /// `coherence-probe`).
    pub name: String,
    /// Total traced run time in seconds.
    pub total_time: f64,
    /// Seconds with any flow drawing on the resource.
    pub busy_time: f64,
    /// Seconds at or above [`crate::trace::SATURATION_THRESHOLD`]
    /// utilization.
    pub saturated_time: f64,
    /// Time-weighted mean utilization in `[0, 1]`.
    pub mean_utilization: f64,
}

impl ResourceTimeline {
    /// Fraction of the run with the resource busy.
    #[must_use]
    pub fn busy_fraction(&self) -> f64 {
        if self.total_time > 0.0 {
            self.busy_time / self.total_time
        } else {
            0.0
        }
    }

    /// Fraction of the run with the resource saturated.
    #[must_use]
    pub fn saturation_fraction(&self) -> f64 {
        if self.total_time > 0.0 {
            self.saturated_time / self.total_time
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_per_rank_values() {
        let mut m = RunMetrics::new(3, 2);
        m.dram_bytes = vec![1.0, 2.0, 3.0];
        m.messages_sent = vec![4, 0, 1];
        m.bytes_sent = vec![10.0, 0.0, 5.0];
        assert_eq!(m.total_dram_bytes(), 6.0);
        assert_eq!(m.total_messages(), 5);
        assert_eq!(m.total_bytes_sent(), 15.0);
    }

    #[test]
    fn timeline_fractions_handle_zero_total_time() {
        let tl = ResourceTimeline {
            name: "mc:0".into(),
            total_time: 0.0,
            busy_time: 0.0,
            saturated_time: 0.0,
            mean_utilization: 0.0,
        };
        assert_eq!(tl.busy_fraction(), 0.0);
        assert_eq!(tl.saturation_fraction(), 0.0);
    }
}
