//! `numactl`-style page-placement policies.
//!
//! Each function resolves to a [`MemoryLayout`] — the fraction of a rank's
//! pages on each NUMA node — for one rank, given where the rank runs.

use corescope_machine::{CoreId, Machine, MemoryLayout, NumaNodeId, Result};

/// How many ranks' working sets fit per node before `membind` spills to
/// the next listed node (see [`membind_packed`]).
pub const MEMBIND_RANKS_PER_NODE: usize = 4;

/// Fraction of a node's DIMM capacity a large data structure (e.g. a
/// replicated cross-section table) can actually claim before first-touch
/// spills off-node: the rest holds the OS, the application image, page
/// cache, and every other allocation.
pub const TABLE_USABLE_FRACTION: f64 = 0.75;

/// `--localalloc`: every page on the node of the socket running the rank.
pub fn local(machine: &Machine, core: CoreId) -> MemoryLayout {
    MemoryLayout::single(machine.node_of_socket(machine.socket_of(core)))
}

/// `--interleave=all`: pages round-robin across every node in the machine.
///
/// # Errors
///
/// Never fails for a valid machine; the `Result` mirrors
/// [`MemoryLayout::uniform`].
pub fn interleave_all(machine: &Machine) -> Result<MemoryLayout> {
    let nodes: Vec<NumaNodeId> = machine.nodes().collect();
    MemoryLayout::uniform(&nodes)
}

/// The default (no `numactl`) policy: first-touch lands pages locally,
/// but a `misplacement` fraction ends up spread over the whole machine
/// (allocations made before the scheduler settled, shared pages, etc.).
///
/// # Errors
///
/// Mirrors [`MemoryLayout::uniform`]; never fails for a valid machine.
pub fn default_first_touch(
    machine: &Machine,
    core: CoreId,
    misplacement: f64,
) -> Result<MemoryLayout> {
    let local_layout = local(machine, core);
    if machine.num_sockets() <= 1 || misplacement <= 0.0 {
        return Ok(local_layout);
    }
    let spread = interleave_all(machine)?;
    Ok(local_layout.mix(&spread, misplacement))
}

/// `--membind=<nodes>` as the paper's experiments exercised it: memory is
/// forced onto the *listed* node set, and Linux fills the list in order —
/// so the working sets of several ranks **concentrate on the first few
/// nodes** instead of spreading with the tasks. We model one node's DIMMs
/// absorbing [`MEMBIND_RANKS_PER_NODE`] ranks' pages before spilling:
/// an `nranks`-task run packs all pages uniformly onto the first
/// `ceil(nranks / MEMBIND_RANKS_PER_NODE)` nodes of `node_order`.
///
/// This is the mechanism behind the paper's finding that "forcing membind
/// ... result\[s\] in worst-case performance for almost all test cases":
/// the packed controllers saturate and most ranks access them remotely
/// over the ladder.
///
/// # Errors
///
/// Mirrors [`MemoryLayout::uniform`]; fails only for an empty
/// `node_order`.
pub fn membind_packed(node_order: &[NumaNodeId], nranks: usize) -> Result<MemoryLayout> {
    let needed = nranks.div_ceil(MEMBIND_RANKS_PER_NODE).max(1);
    let take = needed.min(node_order.len().max(1));
    MemoryLayout::uniform(&node_order[..take.min(node_order.len())])
}

/// Shared FCFS fill state: ranks allocate in rank order, each following
/// its own node-preference order, from a per-node budget of
/// `capacity × usable_fraction` bytes. Whatever finds no free capacity
/// anywhere spreads uniformly over the whole machine (the OS reclaims
/// page cache and swaps cold pages without regard for locality).
fn fcfs_spill(
    machine: &Machine,
    orders: &[Vec<NumaNodeId>],
    bytes: f64,
    usable_fraction: f64,
) -> Result<Vec<MemoryLayout>> {
    let all: Vec<NumaNodeId> = machine.nodes().collect();
    let mut free: Vec<f64> =
        machine.spec().sockets.iter().map(|&cap| cap * usable_fraction.max(0.0)).collect();
    let mut out = Vec::with_capacity(orders.len());
    for order in orders {
        if bytes <= 0.0 {
            out.push(MemoryLayout::uniform(&order[..1])?);
            continue;
        }
        let mut weights: Vec<(NumaNodeId, f64)> = Vec::new();
        let mut remaining = bytes;
        for &node in order {
            if remaining <= 0.0 {
                break;
            }
            let take = remaining.min(free[node.index()]);
            if take > 0.0 {
                weights.push((node, take));
                free[node.index()] -= take;
                remaining -= take;
            }
        }
        if remaining > 0.0 {
            for &node in &all {
                weights.push((node, remaining / all.len() as f64));
            }
        }
        out.push(MemoryLayout::new(weights)?);
    }
    Ok(out)
}

/// First-touch placement of one `bytes`-byte structure per rank,
/// allocated in rank order: each rank claims from its local node first,
/// then spills to the nearest nodes by hop distance (node id breaks
/// ties) with capacity still free. Early ranks stay fully local; late
/// ranks land mostly remote — which is why first-touch loses to
/// interleaving once per-rank tables exceed a node's usable share.
///
/// # Errors
///
/// Mirrors [`MemoryLayout::new`]; never fails for a valid machine.
pub fn first_touch_spill(
    machine: &Machine,
    cores: &[CoreId],
    bytes: f64,
    usable_fraction: f64,
) -> Result<Vec<MemoryLayout>> {
    let orders: Vec<Vec<NumaNodeId>> = cores
        .iter()
        .map(|&core| {
            let home = machine.socket_of(core);
            let mut nodes: Vec<NumaNodeId> = machine.nodes().collect();
            nodes.sort_by_key(|&n| {
                (machine.topology().hops(home, machine.socket_of_node(n)), n.index())
            });
            nodes
        })
        .collect();
    fcfs_spill(machine, &orders, bytes, usable_fraction)
}

/// `membind`-style placement of one `bytes`-byte structure per rank:
/// every rank fills the *listed* node order (then the rest of the
/// machine's zonelist in node order), first-come-first-served in rank
/// order, regardless of where it runs. Rank locality is ignored by
/// construction — the paper's "worst-case performance" mechanism.
///
/// # Errors
///
/// Returns an error for an empty `node_order` (mirroring
/// [`MemoryLayout::uniform`]).
pub fn membind_spill(
    machine: &Machine,
    node_order: &[NumaNodeId],
    nranks: usize,
    bytes: f64,
    usable_fraction: f64,
) -> Result<Vec<MemoryLayout>> {
    // Probe the empty-order error path before cloning per rank.
    MemoryLayout::uniform(node_order)?;
    let mut order = node_order.to_vec();
    for n in machine.nodes() {
        if !order.contains(&n) {
            order.push(n);
        }
    }
    let orders = vec![order; nranks];
    fcfs_spill(machine, &orders, bytes, usable_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_machine::systems;

    fn longs() -> Machine {
        Machine::new(systems::longs())
    }

    #[test]
    fn local_is_fully_on_own_node() {
        let m = longs();
        let l = local(&m, CoreId::new(6)); // socket 3
        assert_eq!(l.fraction(NumaNodeId::new(3)), 1.0);
    }

    #[test]
    fn interleave_spreads_evenly() {
        let m = longs();
        let l = interleave_all(&m).unwrap();
        for n in m.nodes() {
            assert!((l.fraction(n) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn default_mixes_local_and_spread() {
        let m = longs();
        let l = default_first_touch(&m, CoreId::new(0), 0.10).unwrap();
        // 90% local + 10%/8 interleaved share on node 0.
        assert!((l.fraction(NumaNodeId::new(0)) - (0.9 + 0.1 / 8.0)).abs() < 1e-12);
        assert!((l.fraction(NumaNodeId::new(5)) - 0.1 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn default_with_zero_misplacement_is_local() {
        let m = longs();
        let l = default_first_touch(&m, CoreId::new(2), 0.0).unwrap();
        assert_eq!(l, local(&m, CoreId::new(2)));
    }

    #[test]
    fn membind_packs_small_runs_onto_one_node() {
        let nodes: Vec<NumaNodeId> = (0..8).map(NumaNodeId::new).collect();
        for n in 1..=4 {
            let l = membind_packed(&nodes, n).unwrap();
            assert_eq!(l.num_nodes(), 1, "{n} ranks should pack to one node");
            assert_eq!(l.fraction(nodes[0]), 1.0);
        }
    }

    #[test]
    fn membind_spills_with_more_ranks() {
        let nodes: Vec<NumaNodeId> = (0..8).map(NumaNodeId::new).collect();
        assert_eq!(membind_packed(&nodes, 8).unwrap().num_nodes(), 2);
        assert_eq!(membind_packed(&nodes, 16).unwrap().num_nodes(), 4);
    }

    #[test]
    fn membind_never_exceeds_listed_nodes() {
        let nodes: Vec<NumaNodeId> = (0..2).map(NumaNodeId::new).collect();
        let l = membind_packed(&nodes, 32).unwrap();
        assert_eq!(l.num_nodes(), 2);
    }

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn dmz() -> Machine {
        Machine::new(systems::dmz())
    }

    /// DMZ cores 0..4 (two per socket), as the packed mapping pins them.
    fn dmz_cores() -> Vec<CoreId> {
        (0..4).map(CoreId::new).collect()
    }

    #[test]
    fn small_tables_stay_fully_local_under_first_touch() {
        // 0.25 GiB × 2 ranks fits one DMZ node's 1.5 GiB usable share.
        let m = dmz();
        let layouts = first_touch_spill(&m, &dmz_cores(), 0.25 * GIB, 0.75).unwrap();
        for (rank, l) in layouts.iter().enumerate() {
            let home = m.node_of_socket(m.socket_of(CoreId::new(rank)));
            assert_eq!(l.fraction(home), 1.0, "rank {rank} should be fully local");
        }
    }

    #[test]
    fn oversized_tables_spill_later_ranks_remote() {
        // 1.5 GiB each: rank 0 drains node 0, rank 1 lands entirely on
        // node 1, ranks 2 and 3 find nothing free and go uniform.
        let m = dmz();
        let layouts = first_touch_spill(&m, &dmz_cores(), 1.5 * GIB, 0.75).unwrap();
        let (n0, n1) = (NumaNodeId::new(0), NumaNodeId::new(1));
        assert_eq!(layouts[0].fraction(n0), 1.0);
        assert_eq!(layouts[1].fraction(n1), 1.0, "rank 1 must spill fully remote");
        for rank in [2, 3] {
            assert!((layouts[rank].fraction(n0) - 0.5).abs() < 1e-12, "rank {rank} uniform");
        }
    }

    #[test]
    fn first_touch_spill_prefers_nearest_nodes_on_the_ladder() {
        let m = longs();
        // One rank on socket 0 with a table bigger than one node: the
        // spill must land on a 1-hop neighbour, not a far corner.
        let layouts = first_touch_spill(&m, &[CoreId::new(0)], 4.0 * GIB, 0.75).unwrap();
        let l = &layouts[0];
        assert!(l.fraction(NumaNodeId::new(0)) > 0.7);
        let spilled: Vec<_> = l
            .shares()
            .filter(|&(n, _)| n != NumaNodeId::new(0))
            .map(|(n, _)| m.topology().hops(m.socket_of(CoreId::new(0)), m.socket_of_node(n)))
            .collect();
        assert!(spilled.iter().all(|&h| h == 1), "spill hops {spilled:?}");
    }

    #[test]
    fn membind_spill_ignores_rank_locality() {
        let m = dmz();
        let order = vec![NumaNodeId::new(0), NumaNodeId::new(1)];
        let layouts = membind_spill(&m, &order, 4, 0.25 * GIB, 0.75).unwrap();
        // Everything fits the first listed node: even socket-1 ranks'
        // tables land on node 0.
        for (rank, l) in layouts.iter().enumerate() {
            assert_eq!(l.fraction(NumaNodeId::new(0)), 1.0, "rank {rank}");
        }
        assert!(membind_spill(&m, &[], 2, GIB, 0.75).is_err());
    }

    #[test]
    fn membind_spill_fills_the_listed_order_then_the_zonelist() {
        let m = dmz();
        let order = vec![NumaNodeId::new(1)];
        // 2 ranks × 1.5 GiB: node 1's 1.5 GiB usable absorbs rank 0, the
        // zonelist fallback (node 0) takes rank 1.
        let layouts = membind_spill(&m, &order, 2, 1.5 * GIB, 0.75).unwrap();
        assert_eq!(layouts[0].fraction(NumaNodeId::new(1)), 1.0);
        assert_eq!(layouts[1].fraction(NumaNodeId::new(0)), 1.0);
    }

    #[test]
    fn zero_byte_tables_sit_on_the_first_preferred_node() {
        let m = dmz();
        let layouts = first_touch_spill(&m, &dmz_cores(), 0.0, 0.75).unwrap();
        assert_eq!(layouts[3].fraction(NumaNodeId::new(1)), 1.0);
    }
}
