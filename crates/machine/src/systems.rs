//! Preset machine specifications matching Table 1 of the paper. Every
//! calibrated value they use comes from a [`CalibParams`] point (the
//! shipped one is [`CalibParams::paper_2006`]); only the Table 1 facts —
//! clock, core and socket counts, node memory, the HT wiring — are
//! written here.
//!
//! | Name  | Opteron | GHz | Cores/socket | Sockets | Memory    |
//! |-------|---------|-----|--------------|---------|-----------|
//! | tiger | 248     | 2.2 | 1            | 2       | 8 GB node |
//! | dmz   | 275     | 2.2 | 2            | 2       | 4 GB node |
//! | longs | 865     | 1.8 | 2            | 8       | 32 GB node|

use crate::params::CalibParams;
use crate::spec::{
    CacheSpec, CoherenceSpec, CoreSpec, LinkEdge, LinkSpec, MachineSpec, MemorySpec,
};

/// One gibibyte, for memory sizes.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

fn k8_cache(p: &CalibParams) -> CacheSpec {
    CacheSpec {
        l1_bytes: p.l1_bytes,
        l2_bytes: p.l2_bytes,
        line_bytes: p.line_bytes,
        stream_mlp: p.stream_mlp,
        random_mlp: p.random_mlp,
        strided_mlp: p.strided_mlp,
        lookup_mlp: p.lookup_mlp,
    }
}

fn k8_memory(p: &CalibParams) -> MemorySpec {
    MemorySpec {
        controller_bw: p.dram_bandwidth,
        idle_latency: p.dram_latency,
        lookup_latency: p.lookup_latency,
    }
}

fn k8_link(p: &CalibParams) -> LinkSpec {
    LinkSpec { bandwidth: p.ht_bandwidth, hop_latency: p.ht_hop_latency }
}

fn k8_coherence(p: &CalibParams, probe_capacity: f64) -> CoherenceSpec {
    CoherenceSpec { base_probe: p.probe_base, per_hop_probe: p.probe_per_hop, probe_capacity }
}

/// "Tiger": a Cray XD1 node — two single-core 2.2 GHz Opteron 248, 8 GB.
///
/// ```
/// let spec = corescope_machine::systems::tiger();
/// assert_eq!(spec.sockets.len() * spec.cores_per_socket, 2);
/// ```
pub fn tiger() -> MachineSpec {
    tiger_with(&CalibParams::paper_2006())
}

/// [`tiger`] built from an arbitrary calibration point.
pub fn tiger_with(p: &CalibParams) -> MachineSpec {
    MachineSpec {
        name: "tiger".into(),
        sockets: vec![4.0 * GIB; 2],
        cores_per_socket: 1,
        core: CoreSpec { frequency_hz: 2.2e9, flops_per_cycle: p.flops_per_cycle },
        cache: k8_cache(p),
        memory: k8_memory(p),
        link: k8_link(p),
        edges: vec![LinkEdge::new(0, 1)],
        coherence: k8_coherence(p, p.probe_capacity_small),
        node_memory: Vec::new(),
        edge_links: Vec::new(),
        memory_only_nodes: 0,
    }
}

/// "DMZ": one node of the DMZ cluster — two dual-core 2.2 GHz Opteron 275,
/// 4 GB shared memory.
///
/// ```
/// let spec = corescope_machine::systems::dmz();
/// assert_eq!(spec.sockets.len() * spec.cores_per_socket, 4);
/// ```
pub fn dmz() -> MachineSpec {
    dmz_with(&CalibParams::paper_2006())
}

/// [`dmz`] built from an arbitrary calibration point.
pub fn dmz_with(p: &CalibParams) -> MachineSpec {
    MachineSpec {
        name: "dmz".into(),
        sockets: vec![2.0 * GIB; 2],
        cores_per_socket: 2,
        core: CoreSpec { frequency_hz: 2.2e9, flops_per_cycle: p.flops_per_cycle },
        cache: k8_cache(p),
        memory: k8_memory(p),
        link: k8_link(p),
        edges: vec![LinkEdge::new(0, 1)],
        coherence: k8_coherence(p, p.probe_capacity_small),
        node_memory: Vec::new(),
        edge_links: Vec::new(),
        memory_only_nodes: 0,
    }
}

/// "Longs": the Iwill H8501 — eight dual-core 1.8 GHz Opteron 865 sockets
/// on a 2×4 HyperTransport **ladder** (two rails of four sockets joined by
/// four rungs), 4 GB of dual-channel DDR-400 per socket.
///
/// Socket numbering: socket `r * 2 + c` sits at row `r` (0–3), column `c`
/// (0–1). Rungs connect the two columns of each row; rails connect
/// adjacent rows within a column.
///
/// ```
/// use corescope_machine::{systems, Machine};
/// let m = Machine::new(systems::longs());
/// assert_eq!(m.topology().diameter(), 4);
/// ```
pub fn longs() -> MachineSpec {
    longs_with(&CalibParams::paper_2006())
}

/// [`longs`] built from an arbitrary calibration point.
pub fn longs_with(p: &CalibParams) -> MachineSpec {
    let mut edges = Vec::new();
    for r in 0..4 {
        edges.push(LinkEdge::new(r * 2, r * 2 + 1)); // rung
        if r + 1 < 4 {
            edges.push(LinkEdge::new(r * 2, (r + 1) * 2)); // left rail
            edges.push(LinkEdge::new(r * 2 + 1, (r + 1) * 2 + 1)); // right rail
        }
    }
    MachineSpec {
        name: "longs".into(),
        sockets: vec![4.0 * GIB; 8],
        cores_per_socket: 2,
        core: CoreSpec { frequency_hz: 1.8e9, flops_per_cycle: p.flops_per_cycle },
        cache: k8_cache(p),
        memory: k8_memory(p),
        link: k8_link(p),
        edges,
        coherence: k8_coherence(p, p.probe_capacity_ladder),
        node_memory: Vec::new(),
        edge_links: Vec::new(),
        memory_only_nodes: 0,
    }
}

/// All three preset specs, in the paper's Table 1 order.
pub fn all() -> Vec<MachineSpec> {
    vec![tiger(), dmz(), longs()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn table1_core_counts() {
        assert_eq!(Machine::new(tiger()).num_cores(), 2);
        assert_eq!(Machine::new(dmz()).num_cores(), 4);
        assert_eq!(Machine::new(longs()).num_cores(), 16);
    }

    #[test]
    fn longs_ladder_has_ten_edges() {
        // 4 rungs + 2 rails x 3 = 10 undirected edges.
        assert_eq!(longs().edges.len(), 10);
    }

    #[test]
    fn longs_runs_slower_clock() {
        assert!(longs().core.frequency_hz < dmz().core.frequency_hz);
    }

    #[test]
    fn single_core_streaming_bandwidth_calibration() {
        // Little's law check: a DMZ core should sustain ~4 GB/s from local
        // memory; a Longs core should sustain under 2.5 GB/s (the paper
        // reports "less than half of the more than 4 GB/s expected").
        for (spec, lo, hi) in [(dmz(), 3.0e9, 5.5e9), (longs(), 1.2e9, 2.5e9)] {
            let m = Machine::new(spec);
            let lat = m.memory_latency(crate::CoreId::new(0), crate::NumaNodeId::new(0));
            let bw = m.spec().cache.stream_mlp * m.spec().cache.line_bytes / lat;
            assert!(
                bw > lo && bw < hi,
                "{}: single-core bw {:.2} GB/s outside [{:.1}, {:.1}]",
                m.spec().name,
                bw / 1e9,
                lo / 1e9,
                hi / 1e9
            );
        }
    }

    #[test]
    fn paper_point_reproduces_every_preset() {
        let p = CalibParams::paper_2006();
        assert_eq!(tiger_with(&p), tiger());
        assert_eq!(dmz_with(&p), dmz());
        assert_eq!(longs_with(&p), longs());
    }

    #[test]
    fn perturbed_point_changes_the_spec() {
        let mut p = CalibParams::paper_2006();
        p.dram_latency *= 1.25;
        assert_ne!(longs_with(&p), longs());
        assert_eq!(longs_with(&p).memory.idle_latency, p.dram_latency);
    }

    #[test]
    fn all_returns_three_systems() {
        let names: Vec<_> = all().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["tiger", "dmz", "longs"]);
    }
}
