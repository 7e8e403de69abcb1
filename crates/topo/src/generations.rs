//! The five machine generations: the paper's three 2006 systems and the
//! post-2006 chiplet and HBM-tier machines.
//!
//! Tiger, DMZ and Longs are the `corescope_machine::systems` presets.
//! Epyc and Hbm are built here by two plain builders that read the four
//! `CalibParams` topo axes (`onpkg_bandwidth`, `onpkg_latency`,
//! `tier_dram_bandwidth`, `tier_hbm_bandwidth`), anchored against
//! Bergstrom (arXiv:1103.3225) and RZBENCH (arXiv:0712.3389) numbers in
//! `corescope-calib`. Every spec is validated, so a point outside the
//! calibration box is a typed [`corescope_machine::Error::InvalidSpec`].

use corescope_machine::spec::LinkEdge;
use corescope_machine::systems::{self, GIB};
use corescope_machine::{
    CacheSpec, CalibParams, CoherenceSpec, CoreSpec, Error, LinkSpec, Machine, MachineSpec,
    MemorySpec,
};

/// Fixed (non-axis) constants of the modern generations. The four
/// tunable axes live in `CalibParams`; everything here is datasheet
/// geometry the calibration never moves.
pub mod fixed {
    /// EPYC-like core clock.
    pub const EPYC_FREQUENCY_HZ: f64 = 3.4e9;
    /// HBM-node core clock (wider, slower parts).
    pub const HBM_FREQUENCY_HZ: f64 = 2.4e9;
    /// Double-precision flops/cycle with two 256-bit FMA pipes.
    pub const FLOPS_PER_CYCLE: f64 = 16.0;
    /// L1 data cache: 32 KiB.
    pub const L1_BYTES: f64 = 32.0 * 1024.0;
    /// Per-core share of the chiplet L2/L3: 4 MiB.
    pub const L2_BYTES: f64 = 4.0 * 1024.0 * 1024.0;
    /// Cache line: 64 B.
    pub const LINE_BYTES: f64 = 64.0;
    /// Outstanding line fills under modern prefetchers.
    pub const STREAM_MLP: f64 = 24.0;
    /// Outstanding line fills for dependent random access.
    pub const RANDOM_MLP: f64 = 4.0;
    /// Outstanding line fills for prefetch-defeating strides.
    pub const STRIDED_MLP: f64 = 8.0;
    /// Outstanding dependent table lookups.
    pub const LOOKUP_MLP: f64 = 8.0;
    /// Idle latency of a chiplet's local DRAM: ~90 ns.
    pub const TIER_DRAM_LATENCY: f64 = 90e-9;
    /// Idle latency of the HBM tier: ~110 ns (HBM trades latency for
    /// bandwidth).
    pub const TIER_HBM_LATENCY: f64 = 110e-9;
    /// Row-miss/TLB surcharge per dependent lookup on DDR5-class
    /// controllers.
    pub const LOOKUP_LATENCY: f64 = 40e-9;
    /// Usable cross-package (socket-to-socket) link bandwidth per
    /// direction.
    pub const CROSS_PACKAGE_BANDWIDTH: f64 = 25e9;
    /// Cross-package hop latency.
    pub const CROSS_PACKAGE_LATENCY: f64 = 60e-9;
    /// Directory-filtered probe base cost (no K8-style broadcast).
    pub const PROBE_BASE: f64 = 10e-9;
    /// Directory probe cost per hop of diameter.
    pub const PROBE_PER_HOP: f64 = 5e-9;
    /// Probe fabric capacity: directory coherence does not broadcast,
    /// so the fabric never binds.
    pub const PROBE_CAPACITY: f64 = 1e12;
    /// DRAM capacity per chiplet node on the EPYC-like machine.
    pub const EPYC_NODE_CAPACITY: f64 = 16.0 * super::GIB;
    /// DDR channel pairs feeding the HBM machine's one DRAM node (the
    /// node bandwidth is this many times `tier_dram_bandwidth`).
    pub const HBM_DRAM_CHANNEL_PAIRS: f64 = 4.0;
    /// DRAM capacity of the HBM machine.
    pub const HBM_DRAM_CAPACITY: f64 = 64.0 * super::GIB;
    /// HBM stack capacity.
    pub const HBM_CAPACITY: f64 = 16.0 * super::GIB;
    /// On-package fabric bandwidth between the cores and the HBM
    /// stack.
    pub const HBM_FABRIC_BANDWIDTH: f64 = 400e9;
    /// Fabric hop latency to the HBM stack.
    pub const HBM_FABRIC_LATENCY: f64 = 10e-9;
}

/// A request named a machine generation that does not exist. Carries
/// the requested string so `repro --machine` can report it next to the
/// valid generation list instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSystem {
    /// What the request said, verbatim.
    pub requested: String,
}

impl std::fmt::Display for UnknownSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid: Vec<&str> = Generation::all().iter().map(|g| g.key()).collect();
        write!(
            f,
            "unknown machine '{}' (valid generations are {})",
            self.requested,
            valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownSystem {}

/// A machine generation: the paper's Table 1 systems plus the modern
/// generations. `corescope-sched` re-exports it as `System`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// 2006: Cray XD1 node, 2 × single-core Opteron 248.
    Tiger,
    /// 2006: DMZ cluster node, 2 × dual-core Opteron 275.
    Dmz,
    /// 2006: Iwill H8501, 8 × dual-core Opteron 865 ladder.
    Longs,
    /// Modern: 2 packages × 4 chiplets × 4 cores, meshed on-package.
    Epyc,
    /// Modern: one 16-core node with DRAM plus an HBM memory-only
    /// node.
    Hbm,
}

impl Generation {
    /// Every generation, oldest first.
    pub const fn all() -> [Generation; 5] {
        [Self::Tiger, Self::Dmz, Self::Longs, Self::Epyc, Self::Hbm]
    }

    /// Stable CLI/report key.
    pub const fn key(self) -> &'static str {
        match self {
            Self::Tiger => "tiger",
            Self::Dmz => "dmz",
            Self::Longs => "longs",
            Self::Epyc => "epyc",
            Self::Hbm => "hbm",
        }
    }

    /// Parses a key produced by [`Generation::key`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::all().into_iter().find(|g| g.key() == s)
    }

    /// Parses a machine key, ignoring case, with a typed error for
    /// unknown names. Backs the `repro --machine` axis, so a typo
    /// reports the valid generation list instead of silently running
    /// the default sweep.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSystem`] carrying the requested string.
    pub fn from_key(s: &str) -> Result<Self, UnknownSystem> {
        Self::parse(&s.to_lowercase()).ok_or_else(|| UnknownSystem { requested: s.to_string() })
    }

    /// One-line description for catalogues.
    pub fn describe(self) -> &'static str {
        match self {
            Self::Tiger => "2006: 2x1-core Opteron 248, one HT link",
            Self::Dmz => "2006: 2x2-core Opteron 275, one HT link",
            Self::Longs => "2006: 8x2-core Opteron 865 HT ladder",
            Self::Epyc => "now: 2 packages x 4 chiplets x 4 cores, on-package mesh",
            Self::Hbm => "now: 16-core node with DRAM + HBM memory tiers",
        }
    }

    /// Validated machine spec at a calibration point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSpec`] when the point yields an invalid
    /// spec: impossible inside the calibration bounds, but an out-of-box
    /// point (zero bandwidth) degrades into a typed error instead of a
    /// panic.
    pub fn try_spec_with(self, p: &CalibParams) -> Result<MachineSpec, Error> {
        let spec = match self {
            Self::Tiger => systems::tiger_with(p),
            Self::Dmz => systems::dmz_with(p),
            Self::Longs => systems::longs_with(p),
            Self::Epyc => epyc_spec(p),
            Self::Hbm => hbm_spec(p),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validated machine spec at a calibration point.
    ///
    /// # Panics
    ///
    /// Panics if the point produces an invalid spec (non-positive
    /// bandwidths), which no point inside the calibration bounds does;
    /// use [`Generation::try_spec_with`] to handle that.
    pub fn spec_with(self, p: &CalibParams) -> MachineSpec {
        self.try_spec_with(p).expect("calibration point yields a valid spec")
    }

    /// Validated machine spec at the shipped calibration.
    pub fn spec(self) -> MachineSpec {
        self.spec_with(&CalibParams::paper_2006())
    }

    /// Routable machine at a calibration point.
    ///
    /// # Panics
    ///
    /// As [`Generation::spec_with`].
    pub fn machine_with(self, p: &CalibParams) -> Machine {
        Machine::new(self.spec_with(p))
    }

    /// Routable machine at the shipped calibration.
    pub fn machine(self) -> Machine {
        Machine::new(self.spec())
    }
}

fn modern_cache() -> CacheSpec {
    CacheSpec {
        l1_bytes: fixed::L1_BYTES,
        l2_bytes: fixed::L2_BYTES,
        line_bytes: fixed::LINE_BYTES,
        stream_mlp: fixed::STREAM_MLP,
        random_mlp: fixed::RANDOM_MLP,
        strided_mlp: fixed::STRIDED_MLP,
        lookup_mlp: fixed::LOOKUP_MLP,
    }
}

fn modern_coherence() -> CoherenceSpec {
    CoherenceSpec {
        base_probe: fixed::PROBE_BASE,
        per_hop_probe: fixed::PROBE_PER_HOP,
        probe_capacity: fixed::PROBE_CAPACITY,
    }
}

fn modern_memory(controller_bw: f64, idle_latency: f64) -> MemorySpec {
    MemorySpec { controller_bw, idle_latency, lookup_latency: fixed::LOOKUP_LATENCY }
}

/// The EPYC-like machine: 2 packages × 4 chiplets × 4 cores. Each
/// chiplet is a NUMA node with its own DDR channel pair; the chiplets
/// of a package mesh over Infinity-Fabric-class links, and chiplet `c`
/// links to chiplet `c` of the other package over a slower xGMI-class
/// link.
///
/// Edge order is part of the machine's identity (the digest folds it
/// in): both package meshes in lexicographic pairs, then the four
/// cross-package links. The on-package link is the spec's `link`; a
/// cross-package edge gets an `edge_links` override only when its link
/// differs from it.
fn epyc_spec(p: &CalibParams) -> MachineSpec {
    const CHIPLETS: usize = 4;
    let onpkg = LinkSpec { bandwidth: p.onpkg_bandwidth, hop_latency: p.onpkg_latency };
    let cross = LinkSpec {
        bandwidth: fixed::CROSS_PACKAGE_BANDWIDTH,
        hop_latency: fixed::CROSS_PACKAGE_LATENCY,
    };
    let mut edges = Vec::new();
    for base in [0, CHIPLETS] {
        for a in 0..CHIPLETS {
            edges.extend((a + 1..CHIPLETS).map(|b| LinkEdge::new(base + a, base + b)));
        }
    }
    let mesh = edges.len();
    edges.extend((0..CHIPLETS).map(|c| LinkEdge::new(c, CHIPLETS + c)));
    let edge_links = if cross != onpkg {
        (mesh..edges.len()).map(|e| (e, cross.clone())).collect()
    } else {
        Vec::new()
    };
    MachineSpec {
        name: "epyc".into(),
        sockets: vec![fixed::EPYC_NODE_CAPACITY; 2 * CHIPLETS],
        cores_per_socket: 4,
        core: CoreSpec {
            frequency_hz: fixed::EPYC_FREQUENCY_HZ,
            flops_per_cycle: fixed::FLOPS_PER_CYCLE,
        },
        cache: modern_cache(),
        memory: modern_memory(p.tier_dram_bandwidth, fixed::TIER_DRAM_LATENCY),
        link: onpkg,
        edges,
        coherence: modern_coherence(),
        node_memory: Vec::new(),
        edge_links,
        memory_only_nodes: 0,
    }
}

/// The HBM-tiered node: 16 cores on one DRAM-backed NUMA node, plus an
/// HBM stack as a second, memory-only NUMA node behind an on-package
/// fabric link — the flat-mode tiered-memory machine. The HBM node's
/// idle latency differs from the DRAM node's, so it always carries a
/// `node_memory` override.
fn hbm_spec(p: &CalibParams) -> MachineSpec {
    let hbm = modern_memory(p.tier_hbm_bandwidth, fixed::TIER_HBM_LATENCY);
    MachineSpec {
        name: "hbm".into(),
        sockets: vec![fixed::HBM_DRAM_CAPACITY, fixed::HBM_CAPACITY],
        cores_per_socket: 16,
        core: CoreSpec {
            frequency_hz: fixed::HBM_FREQUENCY_HZ,
            flops_per_cycle: fixed::FLOPS_PER_CYCLE,
        },
        cache: modern_cache(),
        memory: modern_memory(
            fixed::HBM_DRAM_CHANNEL_PAIRS * p.tier_dram_bandwidth,
            fixed::TIER_DRAM_LATENCY,
        ),
        link: LinkSpec {
            bandwidth: fixed::HBM_FABRIC_BANDWIDTH,
            hop_latency: fixed::HBM_FABRIC_LATENCY,
        },
        edges: vec![LinkEdge::new(0, 1)],
        coherence: modern_coherence(),
        node_memory: vec![(1, hbm)],
        edge_links: Vec::new(),
        memory_only_nodes: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_parse_round_trip() {
        for g in Generation::all() {
            assert_eq!(Generation::parse(g.key()), Some(g));
            assert!(!g.describe().is_empty());
            assert!(g.describe().len() < 80, "{}", g.key());
        }
        assert_eq!(Generation::parse("beluga"), None);
    }

    #[test]
    fn unknown_keys_name_every_generation() {
        assert_eq!(Generation::from_key("EPYC"), Ok(Generation::Epyc));
        let err = Generation::from_key("epic").unwrap_err();
        assert_eq!(err.requested, "epic");
        assert!(
            err.to_string().contains("valid generations are tiger, dmz, longs, epyc, hbm"),
            "{err}"
        );
    }

    #[test]
    fn latency_table_matches_the_route_walk_on_every_system() {
        // Every float is summed in route order, as a walk would sum it.
        for g in Generation::all() {
            let m = g.machine();
            let (spec, topo) = (m.spec(), m.topology());
            let probe = spec.coherence.probe_latency(m.num_compute_sockets(), topo.diameter());
            for core in m.cores() {
                let src = m.socket_of(core);
                for node in m.nodes() {
                    let dst = m.socket_of_node(node);
                    let walked = if spec.is_uniform() {
                        let hops = topo.hops(src, dst) as f64;
                        spec.memory.idle_latency + hops * spec.link.hop_latency + probe
                    } else {
                        let mut latency = spec.memory_of(dst.index()).idle_latency;
                        for link in topo.route(src, dst).unwrap() {
                            latency += spec.link_of(topo.edge_of(link)).hop_latency;
                        }
                        latency + probe
                    };
                    let tabled = m.memory_latency(core, node);
                    assert_eq!(
                        tabled.to_bits(),
                        walked.to_bits(),
                        "{} core {core} node {node}",
                        g.key()
                    );
                }
            }
        }
    }

    #[test]
    fn epyc_structure() {
        let m = Generation::Epyc.machine();
        assert_eq!(m.num_cores(), 32);
        assert_eq!(m.num_sockets(), 8);
        assert_eq!(m.num_compute_sockets(), 8);
        assert_eq!(m.topology().diameter(), 2);
        let spec = m.spec();
        // The four cross-package links deviate from the on-package
        // default.
        assert_eq!(spec.edge_links.len(), 4);
        assert!(spec.node_memory.is_empty());
        // Chiplet NUMA factor is far milder than the 2006 ladder:
        // remote/local latency under 2x, where Longs is ~2.5x.
        let local = m.memory_latency(
            corescope_machine::CoreId::new(0),
            corescope_machine::NumaNodeId::new(0),
        );
        let far = m.memory_latency(
            corescope_machine::CoreId::new(0),
            corescope_machine::NumaNodeId::new(7),
        );
        assert!(far / local < 2.0, "epyc NUMA factor {:.2}", far / local);
    }

    #[test]
    fn hbm_structure() {
        let m = Generation::Hbm.machine();
        assert_eq!(m.num_cores(), 16);
        assert_eq!(m.num_sockets(), 2);
        assert_eq!(m.num_compute_sockets(), 1);
        let spec = m.spec();
        assert_eq!(spec.memory_only_nodes, 1);
        assert_eq!(spec.node_memory.len(), 1);
        // The HBM tier trades latency for bandwidth.
        assert!(spec.memory_of(1).controller_bw > 4.0 * spec.memory_of(0).controller_bw);
        assert!(spec.memory_of(1).idle_latency > spec.memory_of(0).idle_latency);
        // No coherence probe on a single compute socket.
        let local = m.memory_latency(
            corescope_machine::CoreId::new(0),
            corescope_machine::NumaNodeId::new(0),
        );
        assert_eq!(local, fixed::TIER_DRAM_LATENCY);
    }

    #[test]
    fn modern_axes_move_the_modern_specs() {
        let mut p = CalibParams::paper_2006();
        p.tier_hbm_bandwidth *= 1.5;
        p.onpkg_latency *= 2.0;
        let epyc = Generation::Epyc.spec_with(&p);
        assert_eq!(epyc.link.hop_latency, p.onpkg_latency);
        let hbm = Generation::Hbm.spec_with(&p);
        assert_eq!(hbm.memory_of(1).controller_bw, p.tier_hbm_bandwidth);
        // And the 2006 machines ignore them entirely.
        assert_eq!(Generation::Longs.spec_with(&p), systems::longs());
    }

    #[test]
    fn out_of_box_point_degrades_to_typed_error() {
        let mut p = CalibParams::paper_2006();
        p.tier_dram_bandwidth = 0.0;
        assert!(matches!(Generation::Epyc.try_spec_with(&p), Err(Error::InvalidSpec(_))));
    }

    #[test]
    fn epyc_links_override_only_where_they_differ() {
        let mut p = CalibParams::paper_2006();
        p.onpkg_bandwidth = fixed::CROSS_PACKAGE_BANDWIDTH;
        p.onpkg_latency = fixed::CROSS_PACKAGE_LATENCY;
        assert!(Generation::Epyc.spec_with(&p).is_uniform());
    }

    /// Every point the calibration bounds admit builds a valid machine,
    /// so a scenario whose parameters pass `CalibParams::in_bounds` can
    /// never reach `spec_with`'s panic. Checked at each field's `lo` and
    /// `hi` (the rest at the paper point) and at the all-`lo` and
    /// all-`hi` corners.
    #[test]
    fn every_in_bounds_point_builds_a_valid_machine() {
        let paper = CalibParams::paper_2006();
        let mut points = Vec::new();
        let (mut all_lo, mut all_hi) = (paper, paper);
        for f in &CalibParams::FIELDS {
            for v in [f.lo, f.hi] {
                let mut p = paper;
                f.write(&mut p, v);
                points.push((f.name, p));
            }
            f.write(&mut all_lo, f.lo);
            f.write(&mut all_hi, f.hi);
        }
        points.push(("all lo", all_lo));
        points.push(("all hi", all_hi));
        for g in Generation::all() {
            for (name, p) in &points {
                assert!(p.in_bounds(), "{name}");
                let spec = g.try_spec_with(p).unwrap_or_else(|e| panic!("{} {name}: {e}", g.key()));
                Machine::try_new(spec).unwrap_or_else(|e| panic!("{} {name}: {e}", g.key()));
            }
        }
    }
}
