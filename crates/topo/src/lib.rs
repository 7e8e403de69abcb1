//! # corescope-topo
//!
//! Generative machine-topology subsystem: declarative blueprints of
//! chiplet packages and heterogeneous memory tiers, expanded into
//! explicit topology graphs and lowered to validated
//! [`corescope_machine::MachineSpec`]s.
//!
//! Three layers:
//!
//! * [`Blueprint`] — "2 packages × 4 chiplets × 4 cores, HBM on node
//!   0" datasheet form; [`Blueprint::expand`] unrolls it;
//! * [`TopoGraph`] — explicit nodes (compute or memory-only) and
//!   links; [`TopoGraph::lower`] validates (typed [`TopoError`]s,
//!   never panics) and emits a `MachineSpec` with per-node/per-edge
//!   overrides for anything non-uniform;
//! * [`Generation`] — the instantiated machines: the 2006 presets
//!   re-expressed byte-identically, plus the EPYC-like chiplet machine
//!   and the HBM+DRAM tiered node, all parameterized by
//!   [`corescope_machine::CalibParams`].
//!
//! ```
//! use corescope_topo::Generation;
//!
//! let epyc = Generation::Epyc.machine();
//! assert_eq!(epyc.num_cores(), 32);
//! // Chiplet NUMA: 8 memory nodes, 2 hops corner to corner.
//! assert_eq!(epyc.topology().diameter(), 2);
//!
//! // The 2006 machines come out of the generator bit-identical to
//! // the hand-rolled presets.
//! let longs = Generation::Longs.spec();
//! assert_eq!(longs, corescope_machine::systems::longs());
//! ```

pub mod blueprint;
pub mod error;
pub mod generations;
pub mod graph;

pub use blueprint::{Blueprint, MemoryTier};
pub use error::TopoError;
pub use generations::{Generation, UnknownSystem};
pub use graph::{TopoGraph, TopoLink, TopoNode};
