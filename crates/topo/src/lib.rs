//! # corescope-topo
//!
//! The five machine generations of the "then vs now" comparison, as
//! validated [`corescope_machine::MachineSpec`]s at any
//! [`corescope_machine::CalibParams`] point:
//!
//! * the paper's 2006 systems — Tiger, DMZ and Longs — are the
//!   `corescope_machine::systems` presets;
//! * the EPYC-like chiplet machine and the HBM+DRAM tiered node are
//!   two plain builders in [`generations`].
//!
//! ```
//! use corescope_topo::Generation;
//!
//! let epyc = Generation::Epyc.machine();
//! assert_eq!(epyc.num_cores(), 32);
//! // Chiplet NUMA: 8 memory nodes, 2 hops corner to corner.
//! assert_eq!(epyc.topology().diameter(), 2);
//!
//! // The 2006 machines are the hand-rolled presets.
//! let longs = Generation::Longs.spec();
//! assert_eq!(longs, corescope_machine::systems::longs());
//! ```

pub mod generations;

pub use generations::{Generation, UnknownSystem};
