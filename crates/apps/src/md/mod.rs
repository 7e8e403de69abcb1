//! Molecular dynamics: the AMBER and LAMMPS workload models of
//! Section 4.1.

pub mod amber;
pub mod lammps;

pub use amber::{AmberBenchmark, AmberMethod};
pub use lammps::LammpsBenchmark;
