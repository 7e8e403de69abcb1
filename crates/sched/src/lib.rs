//! # corescope-sched
//!
//! The batch-execution layer on top of the deterministic engine: a
//! canonical, content-hashable [`Scenario`] IR that fully determines one
//! engine run, a work-stealing [`executor`] that fans out over individual
//! scenarios while preserving input-order results, a content-addressed
//! [`ResultCache`] (in-memory plus optional on-disk), and the
//! [`Scheduler`] facade that the harness artifacts and the
//! `corescope-serve` batch service drive.
//!
//! The cache is sound because the engine is deterministic: a scenario's
//! canonical byte encoding (see [`encode`]) covers *everything* that
//! feeds the run — the full machine spec, the workload parameters, the
//! placement scheme, the MPI profile and lock layer, the fault plan and
//! the recovery policies — and the digest is additionally salted with
//! [`ENGINE_TAG`], which must be bumped whenever engine behaviour
//! changes.
//!
//! ```
//! use corescope_sched::{Fidelity, Scenario, Scheduler, System, Workload};
//!
//! let scenario = Scenario::new(
//!     System::Dmz,
//!     2,
//!     Workload::Bsp { steps: 4, flops_per_step: 1e6, bytes_per_step: 1e6, sync_bytes: 8.0 },
//! );
//! let sched = Scheduler::new(2);
//! let results = sched.run_batch(&[scenario.clone(), scenario]);
//! assert_eq!(results.len(), 2);
//! // The second entry was deduplicated in-flight: one engine run total.
//! assert_eq!(sched.stats().engine_runs, 1);
//! ```

pub mod cache;
pub mod encode;
pub mod executor;
pub mod fidelity;
pub mod json;
mod machines;
pub mod scenario;
pub mod scheduler;
pub mod serve;
pub mod sink;

pub use cache::{CacheError, CacheStats, CacheTier, ComputeClaim, ResultCache};
pub use encode::{Digest, Encoder};
pub use fidelity::Fidelity;
pub use scenario::{Placement, Scenario, ScenarioResult, System, UnknownSystem, Workload};
pub use scheduler::{BatchOutcome, Completed, SchedStats, Scheduler};
pub use serve::{ArtifactRunner, ServeConfig, ServeStats, Server};
pub use sink::StoreSink;

/// Version tag mixed into every scenario digest and stamped on every
/// on-disk cache entry.
///
/// Cached results are only sound while the engine maps a scenario to the
/// same numbers, so this tag MUST be bumped (the `+sched` suffix) on any
/// change to the simulation semantics of `corescope-machine`,
/// `corescope-smpi`, `corescope-affinity`, `corescope-kernels` or
/// `corescope-apps` (the AMBER, LAMMPS, POP and xslookup workloads
/// lower through it) — a bump orphans every existing cache entry rather
/// than serving stale numbers. `tests/digests.rs` pins the golden
/// scenario set's results under this tag and fails when either moves
/// without the other.
pub const ENGINE_TAG: &str = "corescope-engine-0.1.0+sched1";
