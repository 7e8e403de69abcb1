//! Static machine specifications.
//!
//! A [`MachineSpec`] captures everything the simulator needs to know about
//! a machine: per-core compute capability, cache sizes, per-socket memory
//! controller parameters, the HyperTransport link graph, and the cache-
//! coherence probe model. The preset builders in [`crate::systems`]
//! instantiate the three systems of the paper's Table 1.

use crate::error::{Error, Result};

/// Compute capability of a single core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSpec {
    /// Clock frequency in Hz (2.2 GHz for Opteron 248/275, 1.8 GHz for 865).
    pub frequency_hz: f64,
    /// Peak double-precision floating-point operations per cycle.
    /// The K8 Opteron retires 2 flops/cycle (one add + one multiply).
    pub flops_per_cycle: f64,
}

impl CoreSpec {
    /// Peak double-precision throughput in flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.frequency_hz * self.flops_per_cycle
    }
}

/// Per-core cache hierarchy sizes and the memory-level-parallelism limits
/// that bound a core's achievable DRAM bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSpec {
    /// L1 data cache capacity in bytes (64 KiB on K8).
    pub l1_bytes: f64,
    /// Unified L2 capacity in bytes (1 MiB on K8).
    pub l2_bytes: f64,
    /// Cache line size in bytes (64 B on K8).
    pub line_bytes: f64,
    /// Outstanding line fills a core sustains for sequential (prefetched)
    /// access. Eight MSHRs/prefetch streams is representative of K8.
    pub stream_mlp: f64,
    /// Outstanding line fills for dependent/random access (much lower: the
    /// paper's RandomAccess results are latency-bound).
    pub random_mlp: f64,
    /// Outstanding line fills for large-strided access that defeats the
    /// hardware prefetcher but is not dependent (FFT butterflies,
    /// transposes). Between the other two.
    pub strided_mlp: f64,
    /// Outstanding line fills for dependent table lookups (XSBench-style
    /// cross-section search): each lookup is a short independent chain, so
    /// a core overlaps a few of them — more than pure pointer chasing,
    /// less than prefetched streams.
    pub lookup_mlp: f64,
}

/// Per-socket memory controller parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec {
    /// Peak controller bandwidth in bytes/s. Dual-channel DDR-400 is
    /// 6.4 GB/s peak; sustained STREAM on a 2006 Opteron is ~4 GB/s, which
    /// the latency/MLP model yields without further derating.
    pub controller_bw: f64,
    /// Idle (uncontended, local, no-probe) DRAM access latency in seconds.
    pub idle_latency: f64,
    /// Extra latency a dependent table lookup pays on top of the routed
    /// access latency, in seconds: random addresses miss the open DRAM row
    /// almost every time and walk the TLB for a huge table, where the
    /// streaming numbers above assume a row-hit mix. May be zero.
    pub lookup_latency: f64,
}

/// A bidirectional HyperTransport link between two sockets.
///
/// The simulator splits each entry into two directed resources so that
/// full-duplex traffic does not self-contend.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth per direction in bytes/s (~2 GB/s for the coherent
    /// HT links of these systems, after protocol overhead).
    pub bandwidth: f64,
    /// Per-hop latency contribution in seconds (~50 ns).
    pub hop_latency: f64,
}

/// Cache-coherence probe cost model.
///
/// K8 Opterons broadcast probes on every memory access. The probe response
/// time is bounded by the farthest socket, so the *effective* memory
/// latency grows with the topology diameter. This is the mechanism behind
/// the paper's Longs observations: "the best achievable single core
/// bandwidth on the 8 socket system is less than half of the more than
/// 4 GBytes per second one would typically expect from an Opteron".
#[derive(Debug, Clone, PartialEq)]
pub struct CoherenceSpec {
    /// Fixed probe cost on any multi-socket machine, seconds.
    pub base_probe: f64,
    /// Additional probe cost per hop of topology diameter, seconds.
    pub per_hop_probe: f64,
    /// Machine-wide DRAM traffic the broadcast-probe fabric can sustain,
    /// bytes/s. Every memory access probes every socket, so aggregate
    /// DRAM bandwidth is capped by how fast the slowest point of the
    /// fabric can service probes. On two-socket systems this never binds;
    /// on the eight-socket ladder it is what makes the paper's Star
    /// STREAM *lose* per-socket bandwidth when second cores come online.
    pub probe_capacity: f64,
}

impl CoherenceSpec {
    /// Probe latency added to every DRAM access on a machine with the
    /// given socket count and topology diameter. Single-socket machines
    /// pay nothing.
    pub fn probe_latency(&self, sockets: usize, diameter: usize) -> f64 {
        if sockets <= 1 {
            0.0
        } else {
            self.base_probe + self.per_hop_probe * diameter as f64
        }
    }
}

/// An edge in the socket link graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEdge {
    /// One endpoint (socket index).
    pub a: usize,
    /// The other endpoint (socket index).
    pub b: usize,
}

impl LinkEdge {
    /// Creates an edge between sockets `a` and `b`.
    pub const fn new(a: usize, b: usize) -> Self {
        Self { a, b }
    }
}

/// Complete static description of a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable machine name ("tiger", "dmz", "longs", ...).
    pub name: String,
    /// One entry per socket; the value is the socket's memory node size in
    /// bytes (4 GiB per socket on Longs, for example). The length of this
    /// vector defines the socket count.
    pub sockets: Vec<f64>,
    /// Cores per socket (1 on Tiger, 2 on DMZ/Longs).
    pub cores_per_socket: usize,
    /// Per-core compute capability.
    pub core: CoreSpec,
    /// Per-core cache hierarchy.
    pub cache: CacheSpec,
    /// Per-socket memory controller.
    pub memory: MemorySpec,
    /// HyperTransport link parameters (uniform across links on these
    /// systems).
    pub link: LinkSpec,
    /// Edges of the socket link graph.
    pub edges: Vec<LinkEdge>,
    /// Coherence probe model.
    pub coherence: CoherenceSpec,
    /// Per-node memory controller overrides for heterogeneous memory
    /// tiers: `(node index, spec)` pairs. Nodes without an entry use
    /// `memory`. Empty on the uniform 2006 machines.
    pub node_memory: Vec<(usize, MemorySpec)>,
    /// Per-edge link overrides for non-uniform interconnects: `(index
    /// into edges, spec)` pairs. Edges without an entry use `link`.
    /// Empty on the uniform 2006 machines.
    pub edge_links: Vec<(usize, LinkSpec)>,
    /// Number of trailing sockets that carry a memory node but no cores
    /// (HBM expansion nodes, CXL-style capacity nodes). The first
    /// `sockets.len() - memory_only_nodes` sockets are compute sockets.
    pub memory_only_nodes: usize,
}

fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

impl MachineSpec {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] for empty machines, non-positive
    /// capacities, or edges that reference sockets outside the machine.
    pub fn validate(&self) -> Result<()> {
        if self.sockets.is_empty() {
            return Err(Error::InvalidSpec("machine has no sockets".into()));
        }
        if self.cores_per_socket == 0 {
            return Err(Error::InvalidSpec("cores_per_socket is zero".into()));
        }
        if !positive(self.core.frequency_hz) || !positive(self.core.flops_per_cycle) {
            return Err(Error::InvalidSpec("core spec must be positive".into()));
        }
        if !positive(self.memory.controller_bw) || !positive(self.memory.idle_latency) {
            return Err(Error::InvalidSpec("memory spec must be positive".into()));
        }
        if !(self.memory.lookup_latency.is_finite() && self.memory.lookup_latency >= 0.0) {
            return Err(Error::InvalidSpec("lookup latency must be finite and >= 0".into()));
        }
        if !positive(self.cache.line_bytes)
            || !positive(self.cache.stream_mlp)
            || !positive(self.cache.random_mlp)
            || !positive(self.cache.strided_mlp)
            || !positive(self.cache.lookup_mlp)
            || !positive(self.cache.l1_bytes)
            || self.cache.l2_bytes < self.cache.l1_bytes
            || self.cache.l2_bytes.is_nan()
        {
            return Err(Error::InvalidSpec("cache spec must be positive with l2 >= l1".into()));
        }
        if !positive(self.coherence.probe_capacity) {
            return Err(Error::InvalidSpec("probe capacity must be positive".into()));
        }
        if self.sockets.len() > 1 {
            if !positive(self.link.bandwidth)
                || self.link.hop_latency < 0.0
                || self.link.hop_latency.is_nan()
            {
                return Err(Error::InvalidSpec("link spec must be positive".into()));
            }
            if self.edges.is_empty() {
                return Err(Error::InvalidSpec("multi-socket machine has no links".into()));
            }
        }
        for e in &self.edges {
            if e.a >= self.sockets.len() || e.b >= self.sockets.len() {
                return Err(Error::InvalidSpec(format!(
                    "edge {}-{} references a socket outside the machine",
                    e.a, e.b
                )));
            }
            if e.a == e.b {
                return Err(Error::InvalidSpec(format!("self-loop edge on socket {}", e.a)));
            }
        }
        if self.memory_only_nodes >= self.sockets.len() {
            return Err(Error::InvalidSpec(format!(
                "{} memory-only nodes leave no compute socket on a {}-socket machine",
                self.memory_only_nodes,
                self.sockets.len()
            )));
        }
        for (i, (node, mem)) in self.node_memory.iter().enumerate() {
            if *node >= self.sockets.len() {
                return Err(Error::InvalidSpec(format!(
                    "memory override references node {node} outside the machine"
                )));
            }
            if self.node_memory[..i].iter().any(|(n, _)| n == node) {
                return Err(Error::InvalidSpec(format!(
                    "duplicate memory override for node {node}"
                )));
            }
            let lookup_ok = mem.lookup_latency.is_finite() && mem.lookup_latency >= 0.0;
            if !positive(mem.controller_bw) || !positive(mem.idle_latency) || !lookup_ok {
                return Err(Error::InvalidSpec(format!(
                    "memory override for node {node} must be positive"
                )));
            }
        }
        for (i, (edge, link)) in self.edge_links.iter().enumerate() {
            if *edge >= self.edges.len() {
                return Err(Error::InvalidSpec(format!(
                    "link override references edge {edge} outside the machine"
                )));
            }
            if self.edge_links[..i].iter().any(|(e, _)| e == edge) {
                return Err(Error::InvalidSpec(format!("duplicate link override for edge {edge}")));
            }
            if !positive(link.bandwidth) || link.hop_latency < 0.0 || link.hop_latency.is_nan() {
                return Err(Error::InvalidSpec(format!(
                    "link override for edge {edge} must be positive"
                )));
            }
        }
        Ok(())
    }

    /// Peak double-precision flop/s of the whole machine (cores live
    /// only on compute sockets).
    pub fn peak_flops(&self) -> f64 {
        self.core.peak_flops() * self.num_cores() as f64
    }

    /// Total number of cores; memory-only nodes contribute none.
    pub fn num_cores(&self) -> usize {
        self.num_compute_sockets() * self.cores_per_socket
    }

    /// Number of sockets that carry cores.
    pub fn num_compute_sockets(&self) -> usize {
        self.sockets.len().saturating_sub(self.memory_only_nodes)
    }

    /// Effective memory controller spec for a node, honouring overrides.
    pub fn memory_of(&self, node: usize) -> &MemorySpec {
        self.node_memory.iter().find(|(n, _)| *n == node).map_or(&self.memory, |(_, m)| m)
    }

    /// Effective link spec for an edge (index into `edges`), honouring
    /// overrides.
    pub fn link_of(&self, edge: usize) -> &LinkSpec {
        self.edge_links.iter().find(|(e, _)| *e == edge).map_or(&self.link, |(_, l)| l)
    }

    /// True when the machine has no heterogeneity: every node shares
    /// `memory`, every edge shares `link`, and every socket has cores.
    /// Uniform machines take the exact pre-topo latency formula, which
    /// keeps the 2006 presets byte-identical.
    pub fn is_uniform(&self) -> bool {
        self.memory_only_nodes == 0 && self.node_memory.is_empty() && self.edge_links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    #[test]
    fn presets_validate() {
        for spec in [systems::tiger(), systems::dmz(), systems::longs()] {
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn rejects_empty_machine() {
        let mut spec = systems::dmz();
        spec.sockets.clear();
        assert!(matches!(spec.validate(), Err(Error::InvalidSpec(_))));
    }

    #[test]
    fn rejects_bad_edge() {
        let mut spec = systems::dmz();
        spec.edges.push(LinkEdge::new(0, 9));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn rejects_self_loop() {
        let mut spec = systems::dmz();
        spec.edges.push(LinkEdge::new(1, 1));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn peak_flops_matches_paper() {
        // Tiger node: two 2.2 GHz single-core Opterons, "each capable of
        // 4.4 GFlop/s".
        let tiger = systems::tiger();
        assert!((tiger.core.peak_flops() - 4.4e9).abs() < 1e6);
        assert!((tiger.peak_flops() - 8.8e9).abs() < 1e6);
    }

    #[test]
    fn single_socket_needs_no_links() {
        let mut spec = systems::dmz();
        spec.sockets.truncate(1);
        spec.edges.clear();
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn coherence_free_on_single_socket() {
        let c = CoherenceSpec { base_probe: 1e-8, per_hop_probe: 1e-8, probe_capacity: 1e12 };
        assert_eq!(c.probe_latency(1, 0), 0.0);
        assert!(c.probe_latency(8, 4) > c.probe_latency(2, 1));
    }

    #[test]
    fn rejects_bad_lookup_fields() {
        let mut spec = systems::dmz();
        spec.cache.lookup_mlp = 0.0;
        assert!(spec.validate().is_err());
        let mut spec = systems::dmz();
        spec.memory.lookup_latency = -1e-9;
        assert!(spec.validate().is_err());
        let mut spec = systems::dmz();
        spec.memory.lookup_latency = 0.0; // zero extra cost is legal
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn rejects_zero_probe_capacity() {
        let mut spec = systems::longs();
        spec.coherence.probe_capacity = 0.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn presets_are_uniform() {
        for spec in [systems::tiger(), systems::dmz(), systems::longs()] {
            assert!(spec.is_uniform(), "{} should be uniform", spec.name);
            assert_eq!(spec.num_compute_sockets(), spec.sockets.len());
        }
    }

    #[test]
    fn rejects_all_memory_only() {
        let mut spec = systems::dmz();
        spec.memory_only_nodes = 2;
        assert!(spec.validate().is_err());
        spec.memory_only_nodes = 1;
        assert!(spec.validate().is_ok());
        assert_eq!(spec.num_compute_sockets(), 1);
    }

    #[test]
    fn rejects_bad_memory_override() {
        let mem = |bw| MemorySpec { controller_bw: bw, idle_latency: 1e-7, lookup_latency: 0.0 };
        let mut spec = systems::dmz();
        spec.node_memory = vec![(9, mem(1e9))];
        assert!(spec.validate().is_err());
        spec.node_memory = vec![(1, mem(0.0))];
        assert!(spec.validate().is_err());
        spec.node_memory = vec![(1, mem(1e9)), (1, mem(2e9))];
        assert!(spec.validate().is_err());
        spec.node_memory = vec![(1, mem(1e9))];
        assert!(spec.validate().is_ok());
        assert!(!spec.is_uniform());
        assert_eq!(spec.memory_of(1).controller_bw, 1e9);
        assert_eq!(spec.memory_of(0).controller_bw, spec.memory.controller_bw);
    }

    #[test]
    fn rejects_bad_link_override() {
        let link = |bw| LinkSpec { bandwidth: bw, hop_latency: 1e-8 };
        let mut spec = systems::dmz();
        spec.edge_links = vec![(5, link(1e9))];
        assert!(spec.validate().is_err());
        spec.edge_links = vec![(0, link(0.0))];
        assert!(spec.validate().is_err());
        spec.edge_links = vec![(0, link(1e9)), (0, link(2e9))];
        assert!(spec.validate().is_err());
        spec.edge_links = vec![(0, link(1e9))];
        assert!(spec.validate().is_ok());
        assert_eq!(spec.link_of(0).bandwidth, 1e9);
    }
}
