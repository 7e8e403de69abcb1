//! # corescope-calib
//!
//! The calibration subsystem: grades any [`CalibParams`] point against
//! the paper-target registry, searches the parameter box for the point
//! that reproduces the paper, and ranks parameters by influence.
//!
//! Five layers:
//!
//! * [`cells`] — the paper's cells, each defined once: a scenario plus
//!   the reduction of its makespan ([`cells::Observable`]), built by one
//!   constructor per cell family that the harness artifacts and the
//!   probes both call, and run in batches through [`cells::observe`];
//! * [`targets`] — the ~30 scalar targets EXPERIMENTS.md records (with
//!   provenance, tolerance, and the [`targets::Probe`] predicting each
//!   from a parameter point);
//! * [`eval`] — the batched [`eval::Evaluator`]: one
//!   [`corescope_sched::Scheduler::run_batch`] per candidate point, so
//!   a repeated evaluation is pure cache hits;
//! * [`search`] — deterministic Nelder–Mead plus coordinate-descent
//!   polish under an explicit evaluation budget;
//! * [`sensitivity`] — Morris-style elementary effects, plus
//!   one-knob sweeps of a single cell ([`sensitivity::sweep_field`]).
//!
//! ```
//! use corescope_calib::eval::Evaluator;
//! use corescope_calib::targets::Family;
//! use corescope_machine::CalibParams;
//! use corescope_sched::{Fidelity, Scheduler};
//!
//! let sched = Scheduler::new(2);
//! let eval = Evaluator::with_families(&sched, Fidelity::Quick, &[Family::Latency]);
//! let graded = eval.evaluate(&CalibParams::paper_2006()).unwrap();
//! assert!(graded.misses().is_empty(), "the shipped point hits every latency plateau");
//! ```

pub mod cells;
pub mod eval;
pub mod search;
pub mod sensitivity;
pub mod targets;

pub use cells::{observe, Batch, Observable, Reduction};
pub use corescope_machine::{Axis, CalibParams, Error, ParamField, Result};
pub use eval::{Evaluation, Evaluator, TargetOutcome};
pub use search::{fit, FitConfig, FitResult, TrajectoryPoint};
pub use sensitivity::{elementary_effects, ranking, sweep_field, Effect};
pub use targets::{registry, Family, Probe, Target, TargetKind};

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_affinity::policy;
    use corescope_smpi::{LockLayer, MpiProfile};

    /// The paper point must equal the constants it mirrors in the smpi
    /// and affinity crates — if one side drifts, default-parameter runs
    /// silently stop matching the shipped calibration.
    #[test]
    fn paper_point_matches_smpi_and_affinity_constants() {
        let p = CalibParams::paper_2006();
        assert_eq!(p.lock_sysv.to_bits(), LockLayer::SysV.cost().to_bits());
        assert_eq!(p.lock_usysv.to_bits(), LockLayer::USysV.cost().to_bits());
        assert_eq!(p.same_socket_boost.to_bits(), MpiProfile::SAME_SOCKET_BW_BOOST.to_bits());
        assert_eq!(p.misplacement.to_bits(), policy::DEFAULT_MISPLACEMENT.to_bits());
    }
}
