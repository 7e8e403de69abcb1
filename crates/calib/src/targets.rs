//! The paper-target registry: every scalar the calibration is graded
//! against, with provenance, tolerance, and a [`Probe`] that knows how
//! to predict it from a [`CalibParams`] point.
//!
//! Values come from the per-artifact "paper vs. measured" columns in
//! `EXPERIMENTS.md` (and are re-asserted against the X7 registry table
//! there by a golden test). Two kinds of rows exist:
//!
//! * **paper** rows — the paper's own numbers (STREAM plateaus, the IMB
//!   latency ladder, the NAS scheme ratios, the X2 latency plateaus);
//! * **model** rows — anchors recorded from the shipped calibration
//!   where the paper gives a shape but no scalar (the DMZ membind
//!   remote-stream anchor that pins the HyperTransport bandwidth).

use crate::cells::{self, BlasKernel, Observable};
use crate::{Error, Result};
use corescope_affinity::Scheme;
use corescope_kernels::blas::BlasVariant;
use corescope_kernels::cg::CgClass;
use corescope_kernels::nasft::FtClass;
use corescope_machine::{CalibParams, CoreId, NumaNodeId};
use corescope_sched::{Fidelity, Placement, System, Workload};
use corescope_smpi::{LockLayer, MpiImpl};
use std::fmt;

/// Target families, used to group scores and sensitivity rankings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// STREAM triad bandwidth (Figures 2/3 and the Longs headline).
    Stream,
    /// DGEMM/DAXPY throughput (Figures 4–7).
    Blas,
    /// IMB PingPong latency and bandwidth (Figures 13/14/16).
    PingPong,
    /// Analytic load-to-use latency plateaus (Extra X2).
    Latency,
    /// NAS CG/FT scheme ratios (Table 2).
    Nas,
    /// XSBench-style cross-section lookup rates (Extra X10): the
    /// latency-bound irregular-read anchors that pin the lookup
    /// concurrency and row-buffer-miss surcharge.
    Lookup,
    /// Modern-generation anchors (Extra X11): the chiplet-latency and
    /// memory-tier-bandwidth scalars that pin the four `corescope-topo`
    /// axes, transcribed from the Bergstrom and RZBENCH measurements.
    Topo,
    /// The paper's headline inequalities.
    Headline,
}

impl Family {
    /// All families, in registry order.
    pub fn all() -> [Family; 8] {
        [
            Family::Stream,
            Family::Blas,
            Family::PingPong,
            Family::Latency,
            Family::Nas,
            Family::Lookup,
            Family::Topo,
            Family::Headline,
        ]
    }

    /// Stable lowercase key (report labels and JSON).
    pub fn key(self) -> &'static str {
        match self {
            Family::Stream => "stream",
            Family::Blas => "blas",
            Family::PingPong => "pingpong",
            Family::Latency => "latency",
            Family::Nas => "nas",
            Family::Lookup => "lookup",
            Family::Topo => "topo",
            Family::Headline => "headline",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// What "hitting" a target means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetKind {
    /// The prediction should equal `value` within relative `tol`.
    Equal {
        /// Target value (units per target description).
        value: f64,
        /// Relative tolerance for [`Target::satisfied`].
        tol: f64,
    },
    /// The prediction must stay at or below `bound` (headline
    /// inequalities; only violations score).
    AtMost {
        /// Upper bound.
        bound: f64,
    },
    /// The prediction must stay at or above `bound`.
    AtLeast {
        /// Lower bound.
        bound: f64,
    },
}

/// Where a target's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// A number printed in the paper (as recorded in EXPERIMENTS.md).
    Paper,
    /// A model-derived anchor recorded from the shipped calibration.
    Model,
}

impl Provenance {
    /// Stable lowercase key.
    pub fn key(self) -> &'static str {
        match self {
            Provenance::Paper => "paper",
            Provenance::Model => "model",
        }
    }
}

/// How a target's prediction is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// STREAM triad bandwidth in GB/s, scatter-local activation order
    /// (Figures 2/3); aggregate or per-core.
    StreamBw {
        /// System under test.
        system: System,
        /// Active cores.
        nranks: usize,
        /// Divide the aggregate by `nranks`.
        per_core: bool,
    },
    /// Star DGEMM GFlop/s per core on DMZ, packed placement (Figure 6/7
    /// at n = 1000).
    DgemmPerCore {
        /// ACML or vanilla.
        variant: BlasVariant,
        /// Concurrent ranks.
        nranks: usize,
    },
    /// Star DAXPY GFlop/s per core on DMZ at n = 10M — out of cache,
    /// bandwidth-bound (Figure 4/5).
    DaxpyPerCore {
        /// ACML or vanilla.
        variant: BlasVariant,
        /// Concurrent ranks.
        nranks: usize,
    },
    /// IMB PingPong one-way latency in µs (Figure 14 layout: DMZ, two
    /// unbound ranks — or Figure 13's Longs sweep when `system` says so).
    PingPongLatencyUs {
        /// System under test.
        system: System,
        /// World size (the probe still ping-pongs ranks 0 and 1).
        nranks: usize,
        /// MPI implementation.
        mpi: MpiImpl,
        /// Lock sub-layer.
        lock: LockLayer,
        /// Payload bytes.
        bytes: f64,
    },
    /// IMB PingPong bandwidth in GB/s (Figure 14b).
    PingPongBwGbs {
        /// MPI implementation.
        mpi: MpiImpl,
        /// Payload bytes.
        bytes: f64,
    },
    /// Same-socket : cross-socket PingPong bandwidth ratio on DMZ at
    /// 1 MB (Figures 16/17's binding benefit).
    PingPongBoostRatio,
    /// Analytic load-to-use latency in ns from core 0 to a node
    /// (`None` = the farthest node), Extra X2. Costs no engine run.
    MemoryLatencyNs {
        /// System under test.
        system: System,
        /// NUMA node, or `None` for the farthest.
        node: Option<usize>,
    },
    /// NAS class-B time ratio between two schemes on Longs (Table 2).
    NasSchemeRatio {
        /// CG or FT.
        workload: NasWorkload,
        /// Ranks.
        nranks: usize,
        /// Numerator scheme.
        num: Scheme,
        /// Denominator scheme.
        den: Scheme,
    },
    /// Star STREAM per-core bandwidth in GB/s under an explicit scheme —
    /// the membind remote-stream anchor that pins `ht_bandwidth`.
    SchemeStreamBw {
        /// System under test.
        system: System,
        /// Ranks.
        nranks: usize,
        /// Placement scheme.
        placement: Placement,
    },
    /// Single-core XSBench-style lookup rate in Mlookups/s with a local
    /// (first-touch) table. Latency-bound dependent reads: the rate is
    /// `lookup_mlp`-proportional and `1/(base latency + lookup_latency)`-
    /// proportional, so the DMZ (140 ns base) / Longs (275 ns base) pair
    /// gives two independent equations that identify both new axes.
    XsLookupRate {
        /// System under test.
        system: System,
    },
}

/// The NAS workloads a [`Probe::NasSchemeRatio`] can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NasWorkload {
    /// Conjugate gradient, class B.
    CgB,
    /// 3-D FFT, class B.
    FtB,
}

/// The packed placement of the BLAS probes (two ranks per socket).
const PACKED: Scheme = Scheme::TwoMpiLocalAlloc;

/// Payload of the [`Probe::PingPongBoostRatio`] pair, bytes.
const BOOST_BYTES: f64 = 1e6;

impl NasWorkload {
    fn workload(self) -> Workload {
        match self {
            NasWorkload::CgB => Workload::NasCg { class: CgClass::B },
            NasWorkload::FtB => Workload::NasFt { class: FtClass::B },
        }
    }
}

impl Probe {
    /// The cells this probe grades, at `params`. Analytic probes return
    /// an empty list.
    pub fn observables(&self, params: &CalibParams, fidelity: Fidelity) -> Vec<Observable> {
        let pingpong = |system, nranks, scheme, mpi, lock, bytes| {
            cells::pingpong(system, nranks, scheme, mpi, lock, bytes, fidelity)
        };
        let cells = match *self {
            Probe::StreamBw { system, nranks, .. } => {
                vec![cells::stream_star(system, nranks, Placement::ScatterLocal, fidelity)]
            }
            Probe::SchemeStreamBw { system, nranks, placement } => {
                vec![cells::stream_star(system, nranks, placement, fidelity)]
            }
            Probe::DgemmPerCore { variant, nranks } => {
                vec![cells::blas_star(BlasKernel::Dgemm, variant, 1000, nranks, PACKED, fidelity)]
            }
            Probe::DaxpyPerCore { variant, nranks } => {
                let n = 10_000_000;
                vec![cells::blas_star(BlasKernel::Daxpy, variant, n, nranks, PACKED, fidelity)]
            }
            Probe::PingPongLatencyUs { system, nranks, mpi, lock, bytes } => {
                vec![pingpong(system, nranks, Scheme::Default, mpi, lock, bytes)]
            }
            Probe::PingPongBwGbs { mpi, bytes } => {
                vec![pingpong(System::Dmz, 2, Scheme::Default, mpi, LockLayer::USysV, bytes)]
            }
            // Bound (same socket) then unbound (across sockets).
            Probe::PingPongBoostRatio => [Scheme::TwoMpiLocalAlloc, Scheme::OneMpiLocalAlloc]
                .map(|s| {
                    pingpong(System::Dmz, 2, s, MpiImpl::OpenMpi, LockLayer::USysV, BOOST_BYTES)
                })
                .into(),
            Probe::MemoryLatencyNs { .. } => Vec::new(),
            Probe::XsLookupRate { system } => vec![cells::xs_lookup(system, fidelity)],
            Probe::NasSchemeRatio { workload, nranks, num, den } => [num, den]
                .map(|scheme| {
                    cells::app(System::Longs, nranks, scheme, workload.workload(), fidelity)
                })
                .into(),
        };
        cells.into_iter().map(|cell| cell.at(*params)).collect()
    }

    /// Combines the reduced observables (in [`Probe::observables`]
    /// order) into the predicted scalar, in the target's units.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] when `reduced` has the wrong arity.
    pub fn predict(&self, params: &CalibParams, reduced: &[f64]) -> Result<f64> {
        let one = || -> Result<f64> {
            match reduced {
                [v] => Ok(*v),
                _ => Err(Error::InvalidSpec("probe expected exactly one observable".to_string())),
            }
        };
        let two = || -> Result<(f64, f64)> {
            match reduced {
                [a, b] => Ok((*a, *b)),
                _ => Err(Error::InvalidSpec("probe expected exactly two observables".to_string())),
            }
        };
        match *self {
            Probe::StreamBw { nranks, per_core, .. } => {
                let bw = one()?;
                Ok(if per_core { bw / nranks as f64 / 1e9 } else { bw / 1e9 })
            }
            Probe::SchemeStreamBw { nranks, .. } => Ok(one()? / nranks as f64 / 1e9),
            Probe::DgemmPerCore { nranks, .. } | Probe::DaxpyPerCore { nranks, .. } => {
                Ok(one()? / 1e9 / nranks as f64)
            }
            Probe::PingPongLatencyUs { .. } => Ok(one()? * 1e6),
            Probe::PingPongBwGbs { bytes, .. } => Ok(bytes / one()? / 1e9),
            Probe::PingPongBoostRatio => {
                let (near, far) = two()?;
                Ok((BOOST_BYTES / near) / (BOOST_BYTES / far))
            }
            Probe::MemoryLatencyNs { system, node } => {
                let machine = system.machine_with(params);
                let core = CoreId::new(0);
                Ok(match node {
                    Some(n) => machine.memory_latency(core, NumaNodeId::new(n)) * 1e9,
                    None => machine
                        .nodes()
                        .map(|n| machine.memory_latency(core, n) * 1e9)
                        .fold(0.0, f64::max),
                })
            }
            Probe::NasSchemeRatio { .. } => {
                let (num, den) = two()?;
                Ok(num / den)
            }
            Probe::XsLookupRate { .. } => Ok(one()? / 1e6),
        }
    }
}

/// One graded calibration target.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Stable dotted id, e.g. `stream.longs.16.percore`.
    pub id: &'static str,
    /// Family for grouping.
    pub family: Family,
    /// Equality-with-tolerance or inequality.
    pub kind: TargetKind,
    /// Weight in the total score.
    pub weight: f64,
    /// Paper number or model-derived anchor.
    pub provenance: Provenance,
    /// How the prediction is computed.
    pub probe: Probe,
    /// Units, for reports.
    pub units: &'static str,
}

impl Target {
    /// Signed relative error for `Equal`, hinge relative overshoot for
    /// the inequalities (zero when the bound holds).
    pub fn rel_err(&self, predicted: f64) -> f64 {
        match self.kind {
            TargetKind::Equal { value, .. } => (predicted - value) / value,
            TargetKind::AtMost { bound } => ((predicted - bound) / bound).max(0.0),
            TargetKind::AtLeast { bound } => ((bound - predicted) / bound).max(0.0),
        }
    }

    /// Weighted squared relative error — the quantity the optimizer
    /// minimizes. Strictly increasing in `|rel_err|`.
    pub fn score(&self, predicted: f64) -> f64 {
        let e = self.rel_err(predicted);
        self.weight * e * e
    }

    /// Whether the prediction lands inside the target's tolerance
    /// (always the bound test for inequalities).
    pub fn satisfied(&self, predicted: f64) -> bool {
        match self.kind {
            TargetKind::Equal { tol, .. } => self.rel_err(predicted).abs() <= tol,
            TargetKind::AtMost { .. } | TargetKind::AtLeast { .. } => {
                self.rel_err(predicted) == 0.0
            }
        }
    }

    /// The nominal value (target value or bound), for reports.
    pub fn nominal(&self) -> f64 {
        match self.kind {
            TargetKind::Equal { value, .. } => value,
            TargetKind::AtMost { bound } | TargetKind::AtLeast { bound } => bound,
        }
    }
}

fn equal(value: f64, tol: f64) -> TargetKind {
    TargetKind::Equal { value, tol }
}

/// The full registry: the ~30 scalars EXPERIMENTS.md grades the
/// reproduction on, in family order.
pub fn registry() -> Vec<Target> {
    let mut t = Vec::new();
    let mut push = |id, family, kind, weight, provenance, probe, units| {
        t.push(Target { id, family, kind, weight, provenance, probe, units });
    };

    // --- STREAM (Figures 2/3): GB/s, scatter-local activation order.
    let stream = |system, nranks, per_core| Probe::StreamBw { system, nranks, per_core };
    push(
        "stream.tiger.1.percore",
        Family::Stream,
        equal(3.66, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Tiger, 1, true),
        "GB/s",
    );
    push(
        "stream.dmz.1.percore",
        Family::Stream,
        equal(3.66, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Dmz, 1, true),
        "GB/s",
    );
    push(
        "stream.dmz.2.aggregate",
        Family::Stream,
        equal(7.31, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Dmz, 2, false),
        "GB/s",
    );
    push(
        "stream.dmz.4.aggregate",
        Family::Stream,
        equal(8.40, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Dmz, 4, false),
        "GB/s",
    );
    push(
        "stream.longs.1.percore",
        Family::Stream,
        equal(1.86, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Longs, 1, true),
        "GB/s",
    );
    push(
        "stream.longs.8.aggregate",
        Family::Stream,
        equal(14.0, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Longs, 8, false),
        "GB/s",
    );
    push(
        "stream.longs.16.aggregate",
        Family::Stream,
        equal(14.0, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Longs, 16, false),
        "GB/s",
    );
    push(
        "stream.longs.16.percore",
        Family::Stream,
        equal(0.88, 0.05),
        1.0,
        Provenance::Paper,
        stream(System::Longs, 16, true),
        "GB/s",
    );
    // Model anchor: DMZ 2 ranks, one per socket, memory packed on node 0
    // — rank 1 streams entirely over HyperTransport, so this per-core
    // number pins `ht_bandwidth`. Value recorded from the shipped
    // calibration (see EXPERIMENTS.md X7).
    push(
        "stream.dmz.membind2.percore",
        Family::Stream,
        equal(ANCHOR_DMZ_MEMBIND2, 0.05),
        2.0,
        Provenance::Model,
        Probe::SchemeStreamBw {
            system: System::Dmz,
            nranks: 2,
            placement: Placement::Scheme(Scheme::OneMpiMembind),
        },
        "GB/s",
    );

    // --- BLAS (Figures 4–7): GFlop/s on DMZ.
    push(
        "dgemm.acml.percore",
        Family::Blas,
        equal(3.87, 0.05),
        1.0,
        Provenance::Paper,
        Probe::DgemmPerCore { variant: BlasVariant::Acml, nranks: 1 },
        "GF/s",
    );
    push(
        "dgemm.vanilla.percore",
        Family::Blas,
        equal(0.572, 0.05),
        1.0,
        Provenance::Paper,
        Probe::DgemmPerCore { variant: BlasVariant::Vanilla, nranks: 1 },
        "GF/s",
    );
    push(
        "daxpy.acml.1core",
        Family::Blas,
        equal(0.305, 0.05),
        1.0,
        Provenance::Paper,
        Probe::DaxpyPerCore { variant: BlasVariant::Acml, nranks: 1 },
        "GF/s",
    );
    push(
        "daxpy.acml.4packed.percore",
        Family::Blas,
        equal(0.175, 0.05),
        1.0,
        Provenance::Paper,
        Probe::DaxpyPerCore { variant: BlasVariant::Acml, nranks: 4 },
        "GF/s",
    );

    // --- PingPong (Figures 13/14/16): µs and GB/s.
    let dmz_latency = |mpi| Probe::PingPongLatencyUs {
        system: System::Dmz,
        nranks: 2,
        mpi,
        lock: LockLayer::USysV,
        bytes: 4.0,
    };
    push(
        "pingpong.lam.4b.us",
        Family::PingPong,
        equal(1.00, 0.10),
        1.0,
        Provenance::Paper,
        dmz_latency(MpiImpl::Lam),
        "µs",
    );
    push(
        "pingpong.openmpi.4b.us",
        Family::PingPong,
        equal(1.70, 0.10),
        1.0,
        Provenance::Paper,
        dmz_latency(MpiImpl::OpenMpi),
        "µs",
    );
    push(
        "pingpong.mpich2.4b.us",
        Family::PingPong,
        equal(3.50, 0.10),
        1.0,
        Provenance::Paper,
        dmz_latency(MpiImpl::Mpich2),
        "µs",
    );
    push(
        "pingpong.longs.sysv.8b.us",
        Family::PingPong,
        equal(5.57, 0.10),
        1.0,
        Provenance::Paper,
        Probe::PingPongLatencyUs {
            system: System::Longs,
            nranks: 16,
            mpi: MpiImpl::Lam,
            lock: LockLayer::SysV,
            bytes: 8.0,
        },
        "µs",
    );
    push(
        "pingpong.longs.usysv.8b.us",
        Family::PingPong,
        equal(1.01, 0.10),
        1.0,
        Provenance::Paper,
        Probe::PingPongLatencyUs {
            system: System::Longs,
            nranks: 16,
            mpi: MpiImpl::Lam,
            lock: LockLayer::USysV,
            bytes: 8.0,
        },
        "µs",
    );
    push(
        "pingpong.mpich2.4mb.gbs",
        Family::PingPong,
        equal(1.41, 0.10),
        1.0,
        Provenance::Paper,
        Probe::PingPongBwGbs { mpi: MpiImpl::Mpich2, bytes: 4.0 * 1024.0 * 1024.0 },
        "GB/s",
    );
    push(
        "pingpong.lam.4mb.gbs",
        Family::PingPong,
        equal(0.97, 0.10),
        1.0,
        Provenance::Paper,
        Probe::PingPongBwGbs { mpi: MpiImpl::Lam, bytes: 4.0 * 1024.0 * 1024.0 },
        "GB/s",
    );
    push(
        "pingpong.boost.ratio",
        Family::PingPong,
        equal(1.148, 0.10),
        1.0,
        Provenance::Paper,
        Probe::PingPongBoostRatio,
        "ratio",
    );

    // --- Latency plateaus (Extra X2): analytic, ns.
    let lat = |system, node| Probe::MemoryLatencyNs { system, node };
    push(
        "latency.tiger.local",
        Family::Latency,
        equal(140.0, 0.05),
        1.0,
        Provenance::Paper,
        lat(System::Tiger, Some(0)),
        "ns",
    );
    push(
        "latency.tiger.remote",
        Family::Latency,
        equal(195.0, 0.05),
        1.0,
        Provenance::Paper,
        lat(System::Tiger, None),
        "ns",
    );
    push(
        "latency.longs.local",
        Family::Latency,
        equal(275.0, 0.05),
        1.0,
        Provenance::Paper,
        lat(System::Longs, Some(0)),
        "ns",
    );
    push(
        "latency.longs.1hop",
        Family::Latency,
        equal(330.0, 0.05),
        1.0,
        Provenance::Paper,
        lat(System::Longs, Some(1)),
        "ns",
    );
    push(
        "latency.longs.2hop",
        Family::Latency,
        equal(385.0, 0.05),
        1.0,
        Provenance::Paper,
        lat(System::Longs, Some(4)),
        "ns",
    );
    push(
        "latency.longs.corner",
        Family::Latency,
        equal(495.0, 0.05),
        1.0,
        Provenance::Paper,
        lat(System::Longs, None),
        "ns",
    );

    // --- NAS scheme ratios (Table 2, class B, Longs, 8 tasks).
    let one_la = Scheme::OneMpiLocalAlloc;
    push(
        "nas.cg8.membind_over_la",
        Family::Nas,
        equal(1.76, 0.10),
        1.0,
        Provenance::Paper,
        Probe::NasSchemeRatio {
            workload: NasWorkload::CgB,
            nranks: 8,
            num: Scheme::OneMpiMembind,
            den: one_la,
        },
        "ratio",
    );
    push(
        "nas.ft8.membind_over_la",
        Family::Nas,
        equal(1.52, 0.10),
        1.0,
        Provenance::Paper,
        Probe::NasSchemeRatio {
            workload: NasWorkload::FtB,
            nranks: 8,
            num: Scheme::OneMpiMembind,
            den: one_la,
        },
        "ratio",
    );
    push(
        "nas.cg8.interleave_over_la",
        Family::Nas,
        equal(1.33, 0.10),
        1.0,
        Provenance::Paper,
        Probe::NasSchemeRatio {
            workload: NasWorkload::CgB,
            nranks: 8,
            num: Scheme::Interleave,
            den: one_la,
        },
        "ratio",
    );

    // --- Lookup-rate anchors (Extra X10): single-core XSBench-style
    // rates recorded from the shipped calibration. Latency-bound, so the
    // DMZ/Longs pair identifies (lookup_mlp, lookup_latency).
    push(
        "lookup.dmz.1.rate",
        Family::Lookup,
        equal(ANCHOR_XS_DMZ_RATE, 0.05),
        2.0,
        Provenance::Model,
        Probe::XsLookupRate { system: System::Dmz },
        "Ml/s",
    );
    push(
        "lookup.longs.1.rate",
        Family::Lookup,
        equal(ANCHOR_XS_LONGS_RATE, 0.05),
        2.0,
        Provenance::Model,
        Probe::XsLookupRate { system: System::Longs },
        "Ml/s",
    );

    // --- Modern-generation anchors (Extra X11): the scalars that pin
    // the four corescope-topo axes. Values recorded from the shipped
    // calibration; the constants they pin were transcribed from the
    // literature tables named in [`anchor_sources`].
    push(
        "topo.epyc.local.ns",
        Family::Topo,
        equal(ANCHOR_EPYC_LOCAL_NS, 0.05),
        1.0,
        Provenance::Model,
        lat(System::Epyc, Some(0)),
        "ns",
    );
    push(
        "topo.epyc.corner.ns",
        Family::Topo,
        equal(ANCHOR_EPYC_CORNER_NS, 0.05),
        1.0,
        Provenance::Model,
        lat(System::Epyc, None),
        "ns",
    );
    push(
        "topo.hbm.tier.ns",
        Family::Topo,
        equal(ANCHOR_HBM_TIER_NS, 0.05),
        1.0,
        Provenance::Model,
        lat(System::Hbm, Some(1)),
        "ns",
    );
    push(
        "topo.epyc.32.aggregate",
        Family::Topo,
        equal(ANCHOR_EPYC_STREAM32, 0.05),
        2.0,
        Provenance::Model,
        stream(System::Epyc, 32, false),
        "GB/s",
    );
    push(
        "topo.hbm.interleave16.percore",
        Family::Topo,
        equal(ANCHOR_HBM_INTERLEAVE16, 0.05),
        2.0,
        Provenance::Model,
        Probe::SchemeStreamBw {
            system: System::Hbm,
            nranks: 16,
            placement: Placement::Scheme(Scheme::Interleave),
        },
        "GB/s",
    );

    // --- Headline inequalities.
    // "best achievable single core bandwidth on the 8 socket system is
    // less than half of the more than 4 GB/s expected".
    push(
        "headline.longs.under_half_expected",
        Family::Headline,
        TargetKind::AtMost { bound: 2.1 },
        2.0,
        Provenance::Paper,
        stream(System::Longs, 1, true),
        "GB/s",
    );
    // Flat 8→16 scaling: the second cores must not add bandwidth.
    push(
        "headline.longs.flat_16",
        Family::Headline,
        TargetKind::AtMost { bound: 14.7 },
        1.0,
        Provenance::Paper,
        stream(System::Longs, 16, false),
        "GB/s",
    );

    t
}

/// The DMZ membind remote-stream anchor (GB/s per core), recorded from
/// the shipped calibration; see the X7 registry table in EXPERIMENTS.md.
/// With both ranks bound to node 0's memory, rank 1 streams entirely
/// over the HyperTransport link, so the slowest-rank (per-core) figure
/// IS the `ht_bandwidth` cap — which is what makes this target identify
/// that axis during fitting.
pub const ANCHOR_DMZ_MEMBIND2: f64 = 2.0;

/// Single-core DMZ lookup rate (Mlookups/s), recorded from the shipped
/// calibration: local table, so the per-lookup DRAM latency is the
/// 140 ns local plateau plus the 60 ns `lookup_latency` surcharge.
pub const ANCHOR_XS_DMZ_RATE: f64 = 0.1516;
/// Single-core Longs lookup rate (Mlookups/s), recorded from the shipped
/// calibration: the 275 ns probe-limited local plateau plus the same
/// 60 ns surcharge — the pair of base latencies is what separates
/// `lookup_mlp` from `lookup_latency` during fitting.
pub const ANCHOR_XS_LONGS_RATE: f64 = 0.0905;

/// EPYC-like chiplet-local load-to-use latency (ns): the 90 ns DDR4
/// plateau plus the 20 ns directory-probe term (base 10 ns + 5 ns/hop
/// over the diameter-2 mesh).
pub const ANCHOR_EPYC_LOCAL_NS: f64 = 110.0;
/// EPYC-like corner-to-corner latency (ns): local plateau plus one
/// on-package hop (`onpkg_latency`, 30 ns) and one cross-package hop
/// (60 ns) — the anchor that identifies `onpkg_latency` during fitting.
pub const ANCHOR_EPYC_CORNER_NS: f64 = 200.0;
/// HBM-tier load-to-use latency (ns) on the tiered node: the 110 ns
/// first-word HBM plateau plus the 10 ns on-package fabric hop, no
/// probe term on the single-socket machine.
pub const ANCHOR_HBM_TIER_NS: f64 = 120.0;
/// Full-pack local STREAM aggregate on the EPYC-like machine (GB/s):
/// eight chiplet controllers at `tier_dram_bandwidth` each — the anchor
/// that pins that axis.
pub const ANCHOR_EPYC_STREAM32: f64 = 256.0;
/// Per-core interleaved STREAM on the tiered node (GB/s): 16 ranks
/// striped over the DRAM and HBM nodes, jointly limited by the two
/// controllers and the interleaved latency mix — the anchor that pins
/// `tier_hbm_bandwidth`.
pub const ANCHOR_HBM_INTERLEAVE16: f64 = 14.63;

/// Literature provenance for the modern-generation anchors: the table
/// each transcribed constant came from, keyed by target id. The golden
/// test `topo_anchors_name_their_source_tables` keeps every `topo.*`
/// anchor pinned to its source.
pub fn anchor_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "topo.epyc.local.ns",
            "Bergstrom, arXiv:1103.3225, Table 1 — local-node latency on the \
             four-socket Opteron 6172 (Magny-Cours MCM), the chiplet-local \
             plateau the 90 ns DDR plateau and 20 ns probe term reproduce",
        ),
        (
            "topo.epyc.corner.ns",
            "Bergstrom, arXiv:1103.3225, Table 1 — worst-pair remote latency \
             across the MCM fabric, the source of the 30 ns on-package and \
             60 ns cross-package hop terms",
        ),
        (
            "topo.hbm.tier.ns",
            "RZBENCH, arXiv:0712.3389, Table 2 — vector-memory first-access \
             latency versus commodity DDR (SX-8 vs Opteron), the precedent \
             for a higher-latency high-bandwidth tier (110 ns + 10 ns fabric)",
        ),
        (
            "topo.epyc.32.aggregate",
            "Bergstrom, arXiv:1103.3225, Table 2 — all-cores local STREAM \
             scaling on the four-socket Opteron, scaled to eight 32 GB/s \
             DDR4 controllers (tier_dram_bandwidth)",
        ),
        (
            "topo.hbm.interleave16.percore",
            "RZBENCH, arXiv:0712.3389, Table 3 — sustained triad bandwidth \
             on the high-bandwidth memory system, the source of the \
             600 GB/s tier_hbm_bandwidth ceiling the interleaved mix draws on",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<_> = reg.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
        assert!(reg.len() >= 33, "a real registry, not a stub: {}", reg.len());
    }

    #[test]
    fn topo_anchors_name_their_source_tables() {
        // Satellite golden: every modern-generation anchor must say which
        // literature table its transcribed constants came from, and the
        // source must actually name the paper's arXiv id and a table.
        let reg = registry();
        let sources = anchor_sources();
        for t in reg.iter().filter(|t| t.family == Family::Topo) {
            let (_, src) = sources
                .iter()
                .find(|(id, _)| *id == t.id)
                .unwrap_or_else(|| panic!("{} has no literature source", t.id));
            assert!(
                src.contains("arXiv:1103.3225") || src.contains("arXiv:0712.3389"),
                "{}: source must cite Bergstrom or RZBENCH: {src}",
                t.id
            );
            assert!(src.contains("Table"), "{}: source must name a table: {src}", t.id);
            assert_eq!(t.provenance, Provenance::Model, "{}", t.id);
        }
        for (id, _) in &sources {
            assert!(reg.iter().any(|t| t.id == *id), "stale source entry {id}");
        }
    }

    #[test]
    fn topo_analytic_anchors_match_the_shipped_machines() {
        let params = CalibParams::paper_2006();
        for (id, want) in [
            ("topo.epyc.local.ns", ANCHOR_EPYC_LOCAL_NS),
            ("topo.epyc.corner.ns", ANCHOR_EPYC_CORNER_NS),
            ("topo.hbm.tier.ns", ANCHOR_HBM_TIER_NS),
        ] {
            let t = registry().into_iter().find(|t| t.id == id).unwrap();
            assert!(t.probe.observables(&params, Fidelity::Full).is_empty(), "{id}");
            let v = t.probe.predict(&params, &[]).unwrap();
            assert!((v - want).abs() <= 1e-9 * want, "{id}: predicted {v} vs {want}");
        }
    }

    #[test]
    fn topo_stream_anchors_match_the_shipped_point() {
        let reg = registry();
        let params = CalibParams::paper_2006();
        for id in ["topo.epyc.32.aggregate", "topo.hbm.interleave16.percore"] {
            let t = reg.iter().find(|t| t.id == id).unwrap();
            let obs = t.probe.observables(&params, Fidelity::Quick);
            let reduced: Vec<f64> =
                obs.iter().map(|o| o.reduce.apply(o.scenario.run().unwrap().makespan)).collect();
            let v = t.probe.predict(&params, &reduced).unwrap();
            assert!(t.satisfied(v), "{id}: predicted {v} vs anchor {}", t.nominal());
        }
    }

    #[test]
    fn every_family_is_populated() {
        let reg = registry();
        for family in Family::all() {
            assert!(reg.iter().any(|t| t.family == family), "{family}");
        }
    }

    #[test]
    fn scoring_is_zero_at_the_target_and_grows_with_error() {
        let t = &registry()[0];
        let v = t.nominal();
        assert_eq!(t.score(v), 0.0);
        assert!(t.score(1.1 * v) > t.score(1.05 * v));
        assert!(t.satisfied(v));
        assert!(!t.satisfied(2.0 * v));
    }

    #[test]
    fn inequalities_score_only_violations() {
        let reg = registry();
        let headline = reg.iter().find(|t| t.id == "headline.longs.under_half_expected").unwrap();
        assert_eq!(headline.score(1.86), 0.0);
        assert_eq!(headline.score(2.1), 0.0);
        assert!(headline.score(3.0) > 0.0);
        assert!(headline.satisfied(1.86));
        assert!(!headline.satisfied(3.0));
    }

    #[test]
    fn analytic_probes_cost_no_engine_runs() {
        let p = Probe::MemoryLatencyNs { system: System::Tiger, node: Some(0) };
        let params = CalibParams::paper_2006();
        assert!(p.observables(&params, Fidelity::Full).is_empty());
        let v = p.predict(&params, &[]).unwrap();
        assert!((v - 140.0).abs() < 1.0, "tiger local plateau: {v}");
    }

    #[test]
    fn probe_arity_is_enforced() {
        let p = Probe::PingPongBoostRatio;
        let params = CalibParams::paper_2006();
        assert_eq!(p.observables(&params, Fidelity::Quick).len(), 2);
        assert!(p.predict(&params, &[1.0]).is_err());
        assert!(p.predict(&params, &[1.2e9, 1.0e9]).is_ok());
    }

    #[test]
    fn lookup_anchors_match_the_shipped_point() {
        let reg = registry();
        let params = CalibParams::paper_2006();
        for id in ["lookup.dmz.1.rate", "lookup.longs.1.rate"] {
            let t = reg.iter().find(|t| t.id == id).unwrap();
            let obs = t.probe.observables(&params, Fidelity::Full);
            assert_eq!(obs.len(), 1, "{id}");
            let reduced: Vec<f64> =
                obs.iter().map(|o| o.reduce.apply(o.scenario.run().unwrap().makespan)).collect();
            let v = t.probe.predict(&params, &reduced).unwrap();
            assert!(t.satisfied(v), "{id}: predicted {v} vs anchor {}", t.nominal());
        }
    }

    #[test]
    fn dmz_looks_up_faster_than_longs() {
        // The probe pair is only identifying because the two systems'
        // base latencies differ; the anchors must preserve that order.
        let nominal =
            |id: &str| registry().into_iter().find(|t| t.id == id).map(|t| t.nominal()).unwrap();
        assert!(nominal("lookup.dmz.1.rate") > 1.3 * nominal("lookup.longs.1.rate"));
    }

    #[test]
    fn observables_carry_the_requested_point() {
        let mut params = CalibParams::paper_2006();
        params.dram_latency *= 1.25;
        let p = Probe::StreamBw { system: System::Dmz, nranks: 2, per_core: false };
        let obs = p.observables(&params, Fidelity::Quick);
        assert_eq!(obs.len(), 1);
        assert_eq!(*obs[0].scenario.params, params);
        assert_eq!(obs[0].scenario.fidelity, Fidelity::Quick);
    }
}
