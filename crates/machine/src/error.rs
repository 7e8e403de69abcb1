//! Error types for machine construction and simulation.

use crate::ids::RankId;
use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building machines or running simulations.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The machine specification is internally inconsistent.
    InvalidSpec(String),
    /// The socket link graph is not connected, so some routes do not exist.
    DisconnectedTopology {
        /// A socket unreachable from socket 0.
        unreachable: usize,
    },
    /// A program referenced a core outside the machine.
    CoreOutOfRange {
        /// The offending core index.
        core: usize,
        /// The number of cores the machine actually has.
        num_cores: usize,
    },
    /// A program referenced a NUMA node outside the machine.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes the machine actually has.
        num_nodes: usize,
    },
    /// Two ranks were bound to the same core but the engine was configured
    /// to forbid oversubscription.
    CoreOversubscribed {
        /// The core with more than one rank.
        core: usize,
    },
    /// The simulation stopped making progress: every live rank is blocked
    /// on a message that will never arrive (e.g. a `Recv` with no matching
    /// `Send`).
    Deadlock {
        /// Ranks blocked at the time of detection.
        blocked: Vec<RankId>,
        /// Simulated time when the deadlock was detected.
        at_time: f64,
    },
    /// A rank's memory layout was missing or had non-positive weight.
    InvalidLayout(String),
    /// A flow was routed through a resource with zero capacity (e.g. a
    /// deliberately failed link in failure-injection tests).
    ZeroCapacityRoute {
        /// Human-readable description of the dead resource.
        resource: String,
    },
    /// The run exceeded the engine's discrete-event budget (see
    /// [`crate::Engine::with_max_events`]) — a runaway-simulation guard.
    EventBudgetExhausted {
        /// The configured budget.
        budget: usize,
        /// Simulated time when the budget was exhausted.
        at_time: f64,
    },
    /// A rank can never finish: it is frozen by an unresumed
    /// [`crate::faults::FaultKind::RankStall`], or its traffic is starved
    /// by a resource degraded to zero capacity with no restore scheduled.
    RankStalled {
        /// The rank that cannot make progress.
        rank: RankId,
        /// Simulated time when the stall was detected.
        at_time: f64,
        /// The starved resource, when the stall is capacity-induced.
        resource: Option<String>,
    },
    /// A [`crate::faults::FaultKind::RankKill`] fired with no
    /// [`crate::recovery::CheckpointPolicy`] configured, so the run cannot
    /// recover.
    RankKilled {
        /// The killed rank.
        rank: RankId,
        /// Simulated time when the kill fired.
        at_time: f64,
    },
    /// A route lookup between two sockets found no next hop — the
    /// topology's routing table does not connect them.
    Disconnected {
        /// The source socket index.
        src: usize,
        /// The unreachable destination socket index.
        dst: usize,
    },
    /// A placement request cannot be satisfied on this machine (e.g. a
    /// socket with no cores, or more ranks than a mapping mode can host).
    InvalidPlacement(String),
    /// A transfer crossing a failed link exhausted its retry budget (see
    /// [`crate::recovery::RetryPolicy`]) without the link being restored.
    RetriesExhausted {
        /// The rank whose transfer gave up.
        rank: RankId,
        /// Retries attempted before giving up.
        attempts: usize,
        /// Simulated time when the transfer gave up.
        at_time: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSpec(msg) => write!(f, "invalid machine spec: {msg}"),
            Error::DisconnectedTopology { unreachable } => {
                write!(f, "socket {unreachable} is unreachable from socket 0")
            }
            Error::CoreOutOfRange { core, num_cores } => {
                write!(f, "core {core} out of range (machine has {num_cores} cores)")
            }
            Error::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (machine has {num_nodes} nodes)")
            }
            Error::CoreOversubscribed { core } => {
                write!(f, "core {core} has more than one rank bound to it")
            }
            Error::Deadlock { blocked, at_time } => {
                write!(f, "deadlock at t={at_time:.6}s: {} rank(s) blocked forever", blocked.len())
            }
            Error::InvalidLayout(msg) => write!(f, "invalid memory layout: {msg}"),
            Error::ZeroCapacityRoute { resource } => {
                write!(f, "flow routed through zero-capacity resource {resource}")
            }
            Error::EventBudgetExhausted { budget, at_time } => {
                write!(f, "event budget {budget} exhausted at t={at_time:.6}s")
            }
            Error::RankStalled { rank, at_time, resource } => match resource {
                Some(r) => {
                    write!(f, "{rank} stalled forever at t={at_time:.6}s: traffic starved by {r}")
                }
                None => write!(f, "{rank} stalled forever at t={at_time:.6}s"),
            },
            Error::RankKilled { rank, at_time } => {
                write!(f, "{rank} killed at t={at_time:.6}s with no checkpoint policy to recover")
            }
            Error::Disconnected { src, dst } => {
                write!(f, "no route from socket {src} to socket {dst}")
            }
            Error::InvalidPlacement(msg) => write!(f, "invalid placement: {msg}"),
            Error::RetriesExhausted { rank, attempts, at_time } => write!(
                f,
                "{rank} exhausted {attempts} transfer retries at t={at_time:.6}s \
                 (failed link never restored)"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_reasonably() {
        let e = Error::CoreOutOfRange { core: 9, num_cores: 4 };
        assert_eq!(e.to_string(), "core 9 out of range (machine has 4 cores)");
        let e = Error::Deadlock { blocked: vec![RankId::new(0)], at_time: 1.5 };
        assert!(e.to_string().contains("deadlock"));
    }

    #[test]
    fn watchdog_errors_name_the_budget_or_culprit() {
        let e = Error::EventBudgetExhausted { budget: 100, at_time: 0.5 };
        assert!(e.to_string().contains("100"));
        let e = Error::RankStalled {
            rank: RankId::new(3),
            at_time: 1.0,
            resource: Some("link:socket0->socket1".into()),
        };
        let s = e.to_string();
        assert!(s.contains("rank3") && s.contains("link:socket0->socket1"), "{s}");
        let e = Error::RankStalled { rank: RankId::new(1), at_time: 1.0, resource: None };
        assert!(e.to_string().contains("rank1"));
    }

    #[test]
    fn recovery_errors_name_the_rank_and_cause() {
        let e = Error::RankKilled { rank: RankId::new(2), at_time: 0.25 };
        let s = e.to_string();
        assert!(s.contains("rank2") && s.contains("checkpoint"), "{s}");
        let e = Error::Disconnected { src: 0, dst: 3 };
        assert!(e.to_string().contains("socket 0") && e.to_string().contains("socket 3"));
        let e = Error::InvalidPlacement("socket 1 has no cores".into());
        assert!(e.to_string().contains("socket 1 has no cores"));
        let e = Error::RetriesExhausted { rank: RankId::new(0), attempts: 4, at_time: 1.0 };
        assert!(e.to_string().contains("4"), "{e}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
