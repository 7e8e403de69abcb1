//! # corescope-apps
//!
//! The full applications of the paper's Section 4:
//!
//! * [`md`] — molecular dynamics: workload models for the five AMBER
//!   benchmarks of Table 6 and the three LAMMPS benchmarks
//!   (LJ / chain / EAM).
//! * [`ocean`] — a POP-like ocean code: the x1-configuration workload
//!   model with its baroclinic and barotropic phases.
//! * [`xs`] — an XSBench-style cross-section lookup proxy: the
//!   irregular-memory workload family. The kernel crate models one
//!   rank's lookup stream; this module decides where the replicated
//!   table's pages land (first-touch with nearest-node spill,
//!   interleave, membind) and exposes the modeled lookup latency whose
//!   NUMA crossover the x10 artifact certifies.
//!
//! As with the kernels of [`corescope_kernels`], each application is a
//! simulator model: it appends its phase structure (flops, memory
//! traffic, message schedule) to a
//! [`CommWorld`](corescope_smpi::CommWorld).

pub mod md;
pub mod ocean;
pub mod xs;
