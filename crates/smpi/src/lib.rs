//! # corescope-smpi
//!
//! A simulated MPI runtime over [`corescope_machine`].
//!
//! The paper studies three MPI implementations (MPICH2 1.0.3, LAM 7.1.2,
//! OpenMPI 1.0.1) and two LAM shared-memory lock sub-layers (SysV
//! semaphores vs. "USysV" spin locks) on multi-core Opteron nodes. This
//! crate reproduces that design space:
//!
//! * [`profiles`] — per-implementation cost profiles and lock layers;
//! * [`transport`] — the per-message cost model (software overhead + lock
//!   cost + HyperTransport hop latency + shared-memory copy bandwidth);
//! * [`comm`] / [`collectives`] — a [`CommWorld`] builder that appends
//!   point-to-point and real collective algorithms (recursive doubling,
//!   pairwise exchange, binomial broadcast, rings) to per-rank programs.
//!
//! The paper's benchmarks (IMB PingPong and Exchange, the HPCC ring)
//! are scenario workloads in `corescope-sched`; a world can also be
//! built and run by hand:
//!
//! ```
//! use corescope_machine::{systems, Machine};
//! use corescope_affinity::Scheme;
//! use corescope_smpi::{CommWorld, LockLayer, MpiImpl};
//!
//! # fn main() -> Result<(), corescope_machine::Error> {
//! let machine = Machine::new(systems::dmz());
//! let placements = Scheme::OneMpiLocalAlloc.resolve(&machine, 2)?;
//! let mut world =
//!     CommWorld::new(&machine, placements, MpiImpl::OpenMpi.profile(), LockLayer::USysV);
//! let reps = 10;
//! for _ in 0..reps {
//!     world.p2p(0, 1, 8.0);
//!     world.p2p(1, 0, 8.0);
//! }
//! let t = world.run()?.makespan / (2.0 * reps as f64);
//! // Small-message half-round-trip on one node: a few microseconds.
//! assert!(t > 5e-7 && t < 2e-5);
//! # Ok(())
//! # }
//! ```

pub mod collectives;
pub mod comm;
pub mod profiles;
pub mod transport;

pub use comm::CommWorld;
pub use profiles::{LockLayer, MpiImpl, MpiProfile};
