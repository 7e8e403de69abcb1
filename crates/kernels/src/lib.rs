//! # corescope-kernels
//!
//! Micro-benchmarks and scientific kernels: the workloads of the paper's
//! Section 3 (STREAM, BLAS level 1/3, the HPC Challenge suite, and the
//! NAS CG/FT kernels).
//!
//! Each kernel is a **workload model**: a builder that appends the
//! kernel's phase structure (flops, memory traffic, message schedule) to
//! a [`CommWorld`](corescope_smpi::CommWorld), to be executed by the
//! machine simulator at paper scale. The operation counts follow the
//! kernels' standard complexity formulas; `tests/op_counts.rs` lowers the
//! DGEMM, DAXPY and FFT models and checks each rank's program flops
//! against the closed forms the artifacts divide by.
//!
//! The HPC Challenge kernels follow its two run modes: *Single* runs a
//! kernel on rank 0 while the others sit idle, and *Star*
//! ("embarrassingly parallel") runs it on every rank at once without
//! communication (`append_single` / `append_star` in each module).

pub mod blas;
pub mod cg;
pub mod fft;
pub mod hpl;
pub mod memlat;
pub mod nasft;
pub mod ptrans;
pub mod randomaccess;
pub mod stream;
pub mod xslookup;

/// Bytes per `f64`.
pub const F64: f64 = 8.0;
/// Bytes per complex `f64` pair.
pub const C64: f64 = 16.0;
