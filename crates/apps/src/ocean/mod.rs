//! A POP-like ocean model (Section 4.2): the x1-configuration workload
//! model with its baroclinic and barotropic phases.

pub mod model;

pub use model::PopModel;
