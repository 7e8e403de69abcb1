//! # corescope
//!
//! Characterization of scientific workloads on simulated multi-core NUMA
//! systems — a full reproduction of *"Characterization of Scientific
//! Workloads on Systems with Multi-Core Processors"* (Alam, Barrett,
//! Kuehn, Roth, Vetter; IISWC 2006) as a Rust library.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`machine`] — the NUMA machine simulator (sockets, cores, caches,
//!   HyperTransport ladder topologies, coherence probes, max-min-fair
//!   bandwidth sharing, fluid-flow discrete-event engine);
//! * [`affinity`] — `numactl`-style page placement and the six Table 5
//!   task/memory schemes;
//! * [`smpi`] — the simulated MPI runtime (MPICH2/LAM/OpenMPI profiles,
//!   SysV vs spin-lock sub-layers, real collective algorithms);
//! * [`kernels`] — STREAM, BLAS 1/3, HPCC (HPL, FFT, RandomAccess,
//!   PTRANS), NAS CG/FT — each as a simulator workload model;
//! * [`apps`] — molecular dynamics (AMBER PME/GB, LAMMPS LJ/chain/EAM)
//!   and a POP-like ocean model;
//! * [`sched`] — the scenario IR every engine run is lowered from, with
//!   its content digest, result cache and work-stealing scheduler;
//! * [`harness`] — one entry point per paper table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use corescope::affinity::Scheme;
//! use corescope::kernels::stream::StreamParams;
//! use corescope::sched::{Placement, Scenario, System, Workload};
//! use corescope::smpi::MpiImpl;
//!
//! # fn main() -> Result<(), corescope::machine::Error> {
//! // STREAM triad on all 16 cores of the 8-socket Iwill H8501 ("Longs")
//! // under the localalloc placement.
//! let params = StreamParams::default();
//! let workload = Workload::StreamStar {
//!     kernel: params.kernel,
//!     elements_per_rank: params.elements_per_rank,
//!     sweeps: params.sweeps,
//! };
//! let scenario = Scenario::new(System::Longs, 16, workload)
//!     .with_placement(Placement::Scheme(Scheme::TwoMpiLocalAlloc))
//!     .with_mpi(MpiImpl::Lam);
//! let bandwidth = 16.0 * params.bytes_per_rank() / scenario.run()?.makespan;
//! // The ladder's coherence probes cap machine-wide streaming well below
//! // the 8 x 4.2 GB/s the controllers could nominally deliver.
//! assert!(bandwidth < 8.0 * 4.2e9);
//! # Ok(())
//! # }
//! ```
//!
//! To regenerate any of the paper's tables or figures:
//!
//! ```
//! use corescope::harness::{Artifact, Fidelity};
//!
//! # fn main() -> Result<(), corescope::machine::Error> {
//! let tables = Artifact::T5.run(Fidelity::Quick)?;
//! println!("{}", tables[0]);
//! # Ok(())
//! # }
//! ```

pub use corescope_affinity as affinity;
pub use corescope_apps as apps;
pub use corescope_harness as harness;
pub use corescope_kernels as kernels;
pub use corescope_machine as machine;
pub use corescope_sched as sched;
pub use corescope_smpi as smpi;
