//! The six processor/memory placement schemes of the paper's Table 5.

use crate::{mapping, policy};
use corescope_machine::engine::RankPlacement;
use corescope_machine::{CalibParams, Machine, NumaNodeId, Result};
use std::fmt;

/// A `numactl` task/memory placement scheme (Table 5 of the paper).
///
/// | Scheme | Tasks | Memory |
/// |---|---|---|
/// | `Default` | OS scatter | first-touch (±misplacement) |
/// | `OneMpiLocalAlloc` | one per socket | local |
/// | `OneMpiMembind` | one per socket | packed onto listed nodes |
/// | `TwoMpiLocalAlloc` | two per socket | local |
/// | `TwoMpiMembind` | two per socket | packed onto listed nodes |
/// | `Interleave` | OS scatter | round-robin over all nodes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No `numactl` at all.
    Default,
    /// One MPI task per socket + `--localalloc`.
    OneMpiLocalAlloc,
    /// One MPI task per socket + `--membind` (packed, see
    /// [`policy::membind_packed`]).
    OneMpiMembind,
    /// Two MPI tasks per socket + `--localalloc`.
    TwoMpiLocalAlloc,
    /// Two MPI tasks per socket + `--membind` (packed).
    TwoMpiMembind,
    /// `--interleave=all`, tasks unbound.
    Interleave,
}

impl Scheme {
    /// All six schemes in the paper's column order.
    pub fn all() -> [Scheme; 6] {
        [
            Scheme::Default,
            Scheme::OneMpiLocalAlloc,
            Scheme::OneMpiMembind,
            Scheme::TwoMpiLocalAlloc,
            Scheme::TwoMpiMembind,
            Scheme::Interleave,
        ]
    }

    /// The paper's column heading for this scheme.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Default => "Default",
            Scheme::OneMpiLocalAlloc => "One MPI + Local Alloc",
            Scheme::OneMpiMembind => "One MPI + Membind",
            Scheme::TwoMpiLocalAlloc => "Two MPI + Local Alloc",
            Scheme::TwoMpiMembind => "Two MPI + Membind",
            Scheme::Interleave => "Interleave",
        }
    }

    /// Short identifier for CSV columns.
    pub const fn key(self) -> &'static str {
        match self {
            Scheme::Default => "default",
            Scheme::OneMpiLocalAlloc => "one_localalloc",
            Scheme::OneMpiMembind => "one_membind",
            Scheme::TwoMpiLocalAlloc => "two_localalloc",
            Scheme::TwoMpiMembind => "two_membind",
            Scheme::Interleave => "interleave",
        }
    }

    /// Whether the scheme binds one task per socket (and therefore cannot
    /// run more ranks than sockets — the paper's "—" table cells).
    pub fn is_one_per_socket(self) -> bool {
        matches!(self, Scheme::OneMpiLocalAlloc | Scheme::OneMpiMembind)
    }

    /// Resolves the scheme to concrete rank placements on a machine.
    ///
    /// # Errors
    ///
    /// Returns [`corescope_machine::Error::InvalidSpec`] when the scheme
    /// cannot host `nranks` ranks (e.g. one-task-per-socket schemes with
    /// more ranks than sockets — the paper's dashed-out cells).
    pub fn resolve(self, machine: &Machine, nranks: usize) -> Result<Vec<RankPlacement>> {
        self.resolve_with(machine, nranks, CalibParams::paper_2006().misplacement)
    }

    /// [`Scheme::resolve`] with an explicit first-touch misplacement
    /// fraction. Only [`Scheme::Default`] uses the fraction; every other
    /// scheme pins memory explicitly and ignores it.
    ///
    /// # Errors
    ///
    /// Same as [`Scheme::resolve`].
    pub fn resolve_with(
        self,
        machine: &Machine,
        nranks: usize,
        misplacement: f64,
    ) -> Result<Vec<RankPlacement>> {
        let cores = match self {
            Scheme::Default | Scheme::Interleave => mapping::os_scatter(machine, nranks)?,
            Scheme::OneMpiLocalAlloc | Scheme::OneMpiMembind => {
                mapping::one_per_socket(machine, nranks)?
            }
            Scheme::TwoMpiLocalAlloc | Scheme::TwoMpiMembind => mapping::packed(machine, nranks)?,
        };

        let mut placements = Vec::with_capacity(nranks);
        match self {
            Scheme::Default => {
                for &core in &cores {
                    let layout = policy::default_first_touch(machine, core, misplacement)?;
                    placements.push(RankPlacement::new(core, layout));
                }
            }
            Scheme::Interleave => {
                let layout = policy::interleave_all(machine)?;
                for &core in &cores {
                    placements.push(RankPlacement::new(core, layout.clone()));
                }
            }
            Scheme::OneMpiLocalAlloc | Scheme::TwoMpiLocalAlloc => {
                for &core in &cores {
                    placements.push(RankPlacement::new(core, policy::local(machine, core)));
                }
            }
            Scheme::OneMpiMembind | Scheme::TwoMpiMembind => {
                // Node list in the same centrality order the tasks use.
                let node_order: Vec<NumaNodeId> = mapping::central_socket_order(machine)
                    .into_iter()
                    .map(|s| machine.node_of_socket(s))
                    .collect();
                let layout = policy::membind_packed(&node_order, nranks)?;
                for &core in &cores {
                    placements.push(RankPlacement::new(core, layout.clone()));
                }
            }
        }
        Ok(placements)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_machine::systems;

    fn longs() -> Machine {
        Machine::new(systems::longs())
    }

    #[test]
    fn all_has_six_distinct_schemes() {
        let all = Scheme::all();
        assert_eq!(all.len(), 6);
        let mut keys: Vec<_> = all.iter().map(|s| s.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn one_per_socket_caps_at_socket_count() {
        let m = longs();
        assert!(Scheme::OneMpiLocalAlloc.resolve(&m, 8).is_ok());
        assert!(Scheme::OneMpiLocalAlloc.resolve(&m, 16).is_err());
        // The paper's 16-task Longs rows only exist for Two-MPI schemes.
        assert!(Scheme::TwoMpiLocalAlloc.resolve(&m, 16).is_ok());
    }

    #[test]
    fn localalloc_pages_follow_tasks() {
        let m = longs();
        for scheme in [Scheme::OneMpiLocalAlloc, Scheme::TwoMpiLocalAlloc] {
            for p in scheme.resolve(&m, 8).unwrap() {
                let node = m.node_of_socket(m.socket_of(p.core));
                assert_eq!(p.layout.fraction(node), 1.0);
            }
        }
    }

    #[test]
    fn membind_concentrates_pages() {
        let m = longs();
        let placements = Scheme::TwoMpiMembind.resolve(&m, 8).unwrap();
        // 8 ranks pack onto 2 nodes; every rank shares the same layout.
        for p in &placements {
            assert_eq!(p.layout.num_nodes(), 2);
            assert_eq!(p.layout, placements[0].layout);
        }
    }

    #[test]
    fn interleave_spreads_pages_over_all_nodes() {
        let m = longs();
        let placements = Scheme::Interleave.resolve(&m, 4).unwrap();
        for p in &placements {
            assert_eq!(p.layout.num_nodes(), 8);
        }
    }

    #[test]
    fn default_layout_is_mostly_local() {
        let m = longs();
        for p in Scheme::Default.resolve(&m, 4).unwrap() {
            let node = m.node_of_socket(m.socket_of(p.core));
            assert!(p.layout.fraction(node) > 0.85);
        }
    }

    #[test]
    fn resolve_with_varies_default_misplacement_only() {
        let m = longs();
        let zero = Scheme::Default.resolve_with(&m, 4, 0.0).unwrap();
        for p in &zero {
            let node = m.node_of_socket(m.socket_of(p.core));
            assert_eq!(p.layout.fraction(node), 1.0);
        }
        // The explicit-binding schemes ignore the fraction entirely.
        let a = Scheme::TwoMpiLocalAlloc.resolve_with(&m, 8, 0.0).unwrap();
        let b = Scheme::TwoMpiLocalAlloc.resolve_with(&m, 8, 0.4).unwrap();
        assert_eq!(a, b);
        // And the default fraction matches the plain resolve path.
        let c = Scheme::Default.resolve(&m, 4).unwrap();
        let d =
            Scheme::Default.resolve_with(&m, 4, CalibParams::paper_2006().misplacement).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn display_matches_table5() {
        assert_eq!(Scheme::TwoMpiMembind.to_string(), "Two MPI + Membind");
        assert_eq!(Scheme::Default.to_string(), "Default");
    }

    #[test]
    fn placements_use_distinct_cores() {
        let m = longs();
        for scheme in Scheme::all() {
            let Ok(ps) = scheme.resolve(&m, 8) else { continue };
            let mut cores: Vec<_> = ps.iter().map(|p| p.core).collect();
            cores.sort_unstable();
            cores.dedup();
            assert_eq!(cores.len(), 8, "{scheme} duplicated cores");
        }
    }
}
