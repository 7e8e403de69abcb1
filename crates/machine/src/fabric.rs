//! The shared resources a machine's traffic contends for, and the route
//! of every socket pair over them.
//!
//! Both depend only on the machine's spec and topology, so
//! [`Machine::try_new`](crate::Machine::try_new) derives them once and
//! every engine run borrows them. Faults change capacities, never routes.

use crate::error::{Error, Result};
use crate::flow::{ResourceIndex, ResourceTable};
use crate::ids::{LinkId, SocketId};
use crate::spec::MachineSpec;
use crate::topology::Topology;

/// A machine's resource table with the indices and routes the engine
/// reads.
#[derive(Debug, Clone)]
pub(crate) struct Fabric {
    /// Names and nominal capacities: every socket's memory controller,
    /// then every directed link, then the coherence-probe fabric.
    pub(crate) resources: ResourceTable,
    pub(crate) mc: Vec<ResourceIndex>,
    pub(crate) links: Vec<ResourceIndex>,
    /// Machine-wide coherence-probe fabric (all DRAM traffic shares it on
    /// multi-socket machines).
    pub(crate) probe: Option<ResourceIndex>,
    /// Routes of memory traffic (compute phases, checkpoint writes) from a
    /// core's socket to a NUMA node's controller.
    pub(crate) phase_routes: RouteTable,
    /// Routes of message payloads between two ranks' sockets.
    pub(crate) transfer_routes: RouteTable,
}

impl Fabric {
    pub(crate) fn new(spec: &MachineSpec, topo: &Topology) -> Self {
        let mut resources = ResourceTable::new();
        let mc: Vec<ResourceIndex> = (0..topo.num_sockets())
            .map(|s| {
                let name = format!("mc:{}", SocketId::new(s));
                resources.add(name, spec.memory_of(s).controller_bw)
            })
            .collect();
        let links: Vec<ResourceIndex> = (0..topo.num_links())
            .map(|l| {
                let (a, b) = topo.link_endpoints(LinkId::new(l));
                let bw = spec.link_of(topo.edge_of(LinkId::new(l))).bandwidth;
                resources.add(format!("link:{a}->{b}"), bw)
            })
            .collect();
        let probe = (spec.num_compute_sockets() > 1)
            .then(|| resources.add("coherence-probe", spec.coherence.probe_capacity));
        // Memory traffic: the node's controller, the links to it, then the
        // probe fabric.
        let phase_routes = RouteTable::new(topo, |_, dst, path, route| {
            route.push(mc[dst.index()]);
            route.extend(path.iter().map(|l| links[l.index()]));
            route.extend(probe);
        });
        // Shared-memory copies read the source socket's controller, cross
        // the links, write the destination's controller, and probe the
        // fabric like any other coherent memory access.
        let transfer_routes = RouteTable::new(topo, |src, dst, path, route| {
            route.push(mc[src.index()]);
            route.extend(path.iter().map(|l| links[l.index()]));
            route.push(mc[dst.index()]);
            route.extend(probe);
        });
        Self { resources, mc, links, probe, phase_routes, transfer_routes }
    }
}

/// Resource routes for every ordered pair of sockets, so flow starts look
/// them up instead of walking the routing tables.
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    sockets: usize,
    /// Every pair's route, concatenated.
    flat: Vec<ResourceIndex>,
    /// Pair `src * sockets + dst`'s slice of `flat`, or `None` when the
    /// topology has no path between the two sockets.
    spans: Vec<Option<(usize, usize)>>,
}

impl RouteTable {
    /// Builds the table; `build(src, dst, links, route)` appends the
    /// resources for one pair, given the directed links between them.
    fn new(
        topo: &Topology,
        mut build: impl FnMut(SocketId, SocketId, &[LinkId], &mut Vec<ResourceIndex>),
    ) -> Self {
        let sockets = topo.num_sockets();
        let mut flat = Vec::new();
        let mut spans = Vec::with_capacity(sockets * sockets);
        for src in (0..sockets).map(SocketId::new) {
            for dst in (0..sockets).map(SocketId::new) {
                spans.push(topo.route(src, dst).ok().map(|links| {
                    let start = flat.len();
                    build(src, dst, &links, &mut flat);
                    (start, flat.len())
                }));
            }
        }
        Self { sockets, flat, spans }
    }

    /// The route from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] when the topology has no path.
    pub(crate) fn get(&self, src: SocketId, dst: SocketId) -> Result<&[ResourceIndex]> {
        match self.spans[src.index() * self.sockets + dst.index()] {
            Some((start, end)) => Ok(&self.flat[start..end]),
            None => Err(Error::Disconnected { src: src.index(), dst: dst.index() }),
        }
    }
}
