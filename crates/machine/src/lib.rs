//! # corescope-machine
//!
//! A fluid-flow discrete-event simulator of NUMA multi-core machines, built
//! to reproduce the behaviour of the 2006-era AMD Opteron systems studied in
//! *"Characterization of Scientific Workloads on Systems with Multi-Core
//! Processors"* (Alam et al., IISWC 2006).
//!
//! The simulator models a machine as a set of **sockets**, each containing
//! one or more **cores**, a **memory controller**, and **HyperTransport
//! links** to neighbouring sockets. Workloads are expressed as per-rank
//! [`Program`]s of operations (compute phases, sends, receives, barriers).
//! Every activity that moves bytes becomes a *flow* over a route of shared
//! resources; flow rates are solved with progressive-filling max-min
//! fairness, and the discrete-event [`Engine`] advances simulated time to
//! the next flow completion or timer.
//!
//! Three preset machines mirror Table 1 of the paper: [`systems::tiger`]
//! (2 × single-core Opteron 248), [`systems::dmz`] (2 × dual-core Opteron
//! 275) and [`systems::longs`] (8 × dual-core Opteron 865 on a 4×2
//! HyperTransport ladder).
//!
//! ```
//! use corescope_machine::{systems, Machine};
//!
//! let machine = Machine::new(systems::longs());
//! assert_eq!(machine.num_cores(), 16);
//! assert_eq!(machine.num_sockets(), 8);
//! // The ladder topology means up to 4 hops between distant sockets.
//! assert_eq!(machine.topology().diameter(), 4);
//! ```
//!
//! [`Program`]: crate::program::Program
//! [`Engine`]: crate::engine::Engine

pub mod cache;
pub mod engine;
pub mod error;
mod fabric;
pub mod faults;
pub mod flow;
pub mod ids;
mod keyhash;
pub mod memory;
pub mod metrics;
pub mod params;
pub mod program;
pub mod recovery;
pub mod spec;
pub mod systems;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use engine::{Engine, Observed, RunReport};
pub use error::{Error, Result};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use flow::Bottleneck;
pub use ids::{CoreId, LinkId, NumaNodeId, RankId, SocketId};
pub use memory::MemoryLayout;
pub use metrics::{ResourceTimeline, RunMetrics};
pub use params::{Axis, CalibParams, ParamField};
pub use program::{ComputePhase, Op, Program};
pub use recovery::{young_daly_interval, CheckpointPolicy, CheckpointTarget, RetryPolicy};
pub use spec::{CacheSpec, CoherenceSpec, CoreSpec, LinkSpec, MachineSpec, MemorySpec};
pub use topology::Topology;
pub use trace::{RecoveryStamp, RunTrace, TraceConfig};
pub use traffic::{AccessPattern, TrafficProfile};

use fabric::Fabric;
use flow::ResourceTable;
use std::fmt;

/// A fully-resolved simulated machine: its spec, plus everything derived
/// from the spec alone — the topology, the shared resources and the route
/// of every socket pair over them, and the memory latency from every
/// socket to every NUMA node.
///
/// `Machine` is immutable once constructed; simulations borrow it, so a
/// run rebuilds none of it.
///
/// ```
/// use corescope_machine::{systems, Machine};
/// let m = Machine::new(systems::dmz());
/// assert_eq!(m.num_cores(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    topology: Topology,
    fabric: Fabric,
    /// `latency[socket * num_sockets + node]`: see
    /// [`Machine::memory_latency`].
    latency: Vec<f64>,
}

impl Machine {
    /// Builds a machine from a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation (use [`Machine::try_new`] to get
    /// a `Result` instead).
    pub fn new(spec: MachineSpec) -> Self {
        Self::try_new(spec).expect("invalid machine spec")
    }

    /// Builds a machine, returning an error for invalid specs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] when the spec has no sockets, no
    /// cores, non-positive capacities, or a disconnected link graph.
    pub fn try_new(spec: MachineSpec) -> Result<Self> {
        spec.validate()?;
        let topology = Topology::from_spec(&spec)?;
        let fabric = Fabric::new(&spec, &topology);
        let n = topology.num_sockets();
        let latency = (0..n * n)
            .map(|i| route_latency(&spec, &topology, SocketId::new(i / n), SocketId::new(i % n)))
            .collect();
        Ok(Self { spec, topology, fabric, latency })
    }

    /// The machine's static specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The derived link topology and routing tables.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared resources traffic contends for, with their names and
    /// nominal capacities: every socket's memory controller, then every
    /// directed link, then the coherence-probe fabric on multi-socket
    /// machines. Engine metrics and traces index resources like this
    /// table.
    pub fn resources(&self) -> &ResourceTable {
        &self.fabric.resources
    }

    /// Total number of cores in the machine. Cores live only on compute
    /// sockets; memory-only nodes contribute none.
    pub fn num_cores(&self) -> usize {
        self.spec.num_cores()
    }

    /// Number of sockets (== number of NUMA nodes on these systems).
    pub fn num_sockets(&self) -> usize {
        self.spec.sockets.len()
    }

    /// Number of sockets that carry cores. Equal to [`num_sockets`]
    /// except on machines with trailing memory-only nodes.
    ///
    /// [`num_sockets`]: Machine::num_sockets
    pub fn num_compute_sockets(&self) -> usize {
        self.spec.num_compute_sockets()
    }

    /// The socket that owns a core.
    ///
    /// Cores are numbered socket-major: socket `s` owns cores
    /// `s * cores_per_socket .. (s + 1) * cores_per_socket`.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        SocketId::new(core.index() / self.spec.cores_per_socket)
    }

    /// The NUMA node local to a socket (1:1 on Opteron systems).
    pub fn node_of_socket(&self, socket: SocketId) -> NumaNodeId {
        NumaNodeId::new(socket.index())
    }

    /// The socket local to a NUMA node (1:1 on Opteron systems).
    pub fn socket_of_node(&self, node: NumaNodeId) -> SocketId {
        SocketId::new(node.index())
    }

    /// Iterator over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.num_cores()).map(CoreId::new)
    }

    /// Iterator over all socket ids.
    pub fn sockets(&self) -> impl Iterator<Item = SocketId> + '_ {
        (0..self.num_sockets()).map(SocketId::new)
    }

    /// Iterator over the sockets that carry cores.
    pub fn compute_sockets(&self) -> impl Iterator<Item = SocketId> + '_ {
        (0..self.num_compute_sockets()).map(SocketId::new)
    }

    /// Iterator over all NUMA node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NumaNodeId> + '_ {
        (0..self.num_sockets()).map(NumaNodeId::new)
    }

    /// The cores belonging to a socket, in id order. Empty for
    /// memory-only nodes.
    pub fn cores_of(&self, socket: SocketId) -> impl Iterator<Item = CoreId> + '_ {
        let cps = if socket.index() < self.spec.num_compute_sockets() {
            self.spec.cores_per_socket
        } else {
            0
        };
        (socket.index() * self.spec.cores_per_socket
            ..socket.index() * self.spec.cores_per_socket + cps)
            .map(CoreId::new)
    }

    /// Uncontended DRAM access latency in seconds for a core reaching a
    /// NUMA node, including HyperTransport hops and the coherence probe.
    ///
    /// This is the latency that bounds a single core's achievable memory
    /// bandwidth through the Little's-law concurrency limit — the mechanism
    /// behind the paper's observation that the 8-socket Longs system
    /// achieves less than half the expected per-core STREAM bandwidth.
    /// Heterogeneous machines sum the actual per-link hop latencies
    /// along the route and use the target node's own idle latency;
    /// uniform machines keep the original closed form (bit-identical
    /// floats for the 2006 presets, whose probe term also sees
    /// `num_compute_sockets == num_sockets`).
    ///
    /// The machine tabulates it per (socket, node) pair when it is built.
    pub fn memory_latency(&self, core: CoreId, node: NumaNodeId) -> f64 {
        let src = self.socket_of(core).index();
        self.latency[src * self.num_sockets() + self.socket_of_node(node).index()]
    }
}

/// [`Machine::memory_latency`] from socket `src` to the memory of socket
/// `dst`, walking the route.
fn route_latency(spec: &MachineSpec, topology: &Topology, src: SocketId, dst: SocketId) -> f64 {
    let probe = spec.coherence.probe_latency(spec.num_compute_sockets(), topology.diameter());
    if spec.is_uniform() {
        let hops = topology.hops(src, dst) as f64;
        return spec.memory.idle_latency + hops * spec.link.hop_latency + probe;
    }
    let mut latency = spec.memory_of(dst.index()).idle_latency;
    if let Ok(route) = topology.route(src, dst) {
        for link in route {
            latency += spec.link_of(topology.edge_of(link)).hop_latency;
        }
    }
    latency + probe
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} sockets x {} cores @ {:.1} GHz",
            self.spec.name,
            self.num_sockets(),
            self.spec.cores_per_socket,
            self.spec.core.frequency_hz / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_display_mentions_name() {
        let m = Machine::new(systems::dmz());
        let s = m.to_string();
        assert!(s.contains("dmz"), "display should contain machine name: {s}");
    }

    #[test]
    fn socket_major_core_numbering() {
        let m = Machine::new(systems::longs());
        assert_eq!(m.socket_of(CoreId::new(0)), SocketId::new(0));
        assert_eq!(m.socket_of(CoreId::new(1)), SocketId::new(0));
        assert_eq!(m.socket_of(CoreId::new(2)), SocketId::new(1));
        assert_eq!(m.socket_of(CoreId::new(15)), SocketId::new(7));
    }

    #[test]
    fn cores_of_socket_are_contiguous() {
        let m = Machine::new(systems::longs());
        let cores: Vec<_> = m.cores_of(SocketId::new(3)).collect();
        assert_eq!(cores, vec![CoreId::new(6), CoreId::new(7)]);
    }

    #[test]
    fn memory_only_node_has_no_cores() {
        let mut spec = systems::dmz();
        spec.memory_only_nodes = 1;
        let m = Machine::new(spec);
        assert_eq!(m.num_cores(), 2);
        assert_eq!(m.num_compute_sockets(), 1);
        assert_eq!(m.num_sockets(), 2);
        assert_eq!(m.cores_of(SocketId::new(1)).count(), 0);
        assert_eq!(m.compute_sockets().collect::<Vec<_>>(), vec![SocketId::new(0)]);
        // A single compute socket pays no coherence probe, but reaching
        // the far memory node still pays the link hop.
        let local = m.memory_latency(CoreId::new(0), NumaNodeId::new(0));
        let far = m.memory_latency(CoreId::new(0), NumaNodeId::new(1));
        assert_eq!(local, m.spec().memory.idle_latency);
        assert_eq!(far, local + m.spec().link.hop_latency);
    }

    #[test]
    fn hetero_latency_sums_per_link_overrides() {
        let mut spec = systems::longs();
        // Make the first edge (0-1 rung) ten times slower.
        spec.edge_links = vec![(0, LinkSpec { bandwidth: 1e9, hop_latency: 550e-9 })];
        let m = Machine::new(spec);
        let uniform = Machine::new(systems::longs());
        let over = m.memory_latency(CoreId::new(0), NumaNodeId::new(1));
        let base = uniform.memory_latency(CoreId::new(0), NumaNodeId::new(1));
        assert!((over - base - (550e-9 - 55e-9)).abs() < 1e-12);
        // Routes not using edge 0 are unchanged.
        let same = m.memory_latency(CoreId::new(0), NumaNodeId::new(2));
        assert_eq!(same, uniform.memory_latency(CoreId::new(0), NumaNodeId::new(2)));
    }

    #[test]
    fn remote_latency_exceeds_local() {
        let m = Machine::new(systems::longs());
        let local = m.memory_latency(CoreId::new(0), NumaNodeId::new(0));
        let remote = m.memory_latency(CoreId::new(0), NumaNodeId::new(7));
        assert!(remote > local);
    }

    #[test]
    fn longs_probe_latency_exceeds_dmz() {
        let longs = Machine::new(systems::longs());
        let dmz = Machine::new(systems::dmz());
        let l = longs.memory_latency(CoreId::new(0), NumaNodeId::new(0));
        let d = dmz.memory_latency(CoreId::new(0), NumaNodeId::new(0));
        assert!(
            l > 1.5 * d,
            "8-socket coherence probe should dominate: longs {l:.2e} vs dmz {d:.2e}"
        );
    }
}
