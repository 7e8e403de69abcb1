//! The calibration point: every DESIGN §6 constant as a value.
//!
//! [`CalibParams::paper_2006`] is the one place a shipped calibration
//! value is written; the machine presets, the MPI profiles, the default
//! placement policy and the kernel models all read it from there. Each
//! field carries documented bounds, so a machine — and the MPI substrate
//! on top of it — can be built from *any* parameter point: the
//! calibration search in `corescope-calib` walks this box.
//!
//! Sources for the 2006 values: AMD Software Optimization Guide for AMD
//! Athlon 64 and Opteron Processors (pub. 25112, 2004) for core and cache
//! parameters, published STREAM and lmbench results for DDR-400 Opterons
//! for the memory numbers, and the paper's own Figures 13–15 for the MPI
//! lock costs and copy boost. The four modern axes are anchored on
//! Bergstrom's NUMA-STREAM study (arXiv:1103.3225) for multi-die
//! on-package scaling and on RZBENCH (arXiv:0712.3389) for the
//! per-generation memory-tier ladder; fixed per-generation constants
//! (cross-package links, tier idle latencies) belong to
//! `corescope-topo::generations`.

/// One point in the calibration box: every tunable constant of the
/// machine, MPI, and placement models.
///
/// Field defaults come from [`CalibParams::paper_2006`]; bounds (used by
/// the search and the sensitivity analysis) are documented per field and
/// exposed through [`CalibParams::FIELDS`]. All fields are plain `f64`
/// so the struct is `Copy` and totally ordered per-field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibParams {
    /// Double-precision flops per cycle (K8 SSE2, 1 add + 1 mul: 2).
    /// Bounds [1, 4].
    pub flops_per_cycle: f64,
    /// L1 data cache bytes (64 KiB). Bounds [16 KiB, 256 KiB].
    pub l1_bytes: f64,
    /// Unified L2 bytes (1 MiB). Bounds [256 KiB, 8 MiB].
    pub l2_bytes: f64,
    /// Cache line bytes (64). Bounds [32, 128].
    pub line_bytes: f64,
    /// Outstanding line fills under hardware prefetch, streaming access
    /// (8). Bounds [2, 16].
    pub stream_mlp: f64,
    /// Outstanding line fills for dependent random access (1.6).
    /// Bounds [1, 4].
    pub random_mlp: f64,
    /// Outstanding line fills for prefetch-defeating strides such as FFT
    /// butterflies and transposes (2). Bounds [1, 4].
    pub strided_mlp: f64,
    /// Sustained dual-channel DDR-400 bandwidth per controller, bytes/s
    /// (4.2e9). The interface peak is 6.4 GB/s; real streaming on a 2006
    /// Opteron tops out near 4.2 GB/s (bank conflicts, refresh,
    /// read/write turnaround). Bounds [2e9, 6.4e9].
    pub dram_bandwidth: f64,
    /// Idle local DRAM latency on K8, row-hit mix, seconds (70 ns).
    /// Bounds [40 ns, 150 ns].
    pub dram_latency: f64,
    /// Usable coherent-HT bandwidth per direction, bytes/s (2e9).
    /// Bounds [0.5e9, 4e9].
    pub ht_bandwidth: f64,
    /// Per-hop HyperTransport latency, seconds (55 ns).
    /// Bounds [20 ns, 120 ns].
    pub ht_hop_latency: f64,
    /// Fixed coherence probe cost on any multi-socket K8, seconds
    /// (25 ns). Bounds [0, 100 ns].
    pub probe_base: f64,
    /// Probe cost per hop of topology diameter, seconds (45 ns). On the
    /// 8-socket ladder (diameter 4) every access pays ~205 ns of probing,
    /// halving single-core streaming bandwidth — the paper's headline
    /// Longs observation. Bounds [0, 120 ns].
    pub probe_per_hop: f64,
    /// Probe-fabric capacity on two-socket machines, bytes/s of DRAM
    /// traffic (1e12 — effectively unlimited: the direct HT link services
    /// probes as fast as the controllers generate them).
    /// Bounds [1e10, 1e13].
    pub probe_capacity_small: f64,
    /// Probe-fabric capacity on the eight-socket ladder, bytes/s of
    /// aggregate DRAM traffic (14e9). Beyond it probe responses queue —
    /// the reason "adding the second core resulted in an overall decrease
    /// ... in per socket (overall) \[STREAM\] performance" on Longs.
    /// Bounds [5e9, 1e12]; the top of the box is "effectively
    /// unlimited", the no-fabric counterfactual the ablation sweeps to.
    pub probe_capacity_ladder: f64,
    /// Per-message SysV semaphore cost, seconds (2.4 µs: two semop
    /// syscalls at ~1.2 µs each on a 2006 kernel).
    /// Bounds [0.5 µs, 10 µs].
    pub lock_sysv: f64,
    /// Per-message user-space spin-lock cost, seconds (0.12 µs).
    /// Bounds [0.01 µs, 1 µs].
    pub lock_usysv: f64,
    /// Shared-memory copy bandwidth boost for messages that stay within
    /// one multi-core socket instead of crossing coherent HyperTransport
    /// (1.12, the paper's "approximately 10 to 13%"). Bounds [1.0, 1.5].
    pub same_socket_boost: f64,
    /// Fraction of pages the default (unbound) first-touch policy leaves
    /// on the wrong node (0.10): early allocations made before the load
    /// balancer settles tasks, shared mappings, and pages touched by rank
    /// 0 during setup. Bounds [0, 0.5].
    pub misplacement: f64,
    /// Outstanding line fills for dependent table lookups (3). Each
    /// XSBench-style lookup is a short independent binary-search chain,
    /// so a K8 overlaps a few across lookups — above pure pointer
    /// chasing, far below prefetched streams. Bounds [1, 8].
    pub lookup_mlp: f64,
    /// Extra latency per dependent table lookup on top of the routed
    /// access latency, seconds (60 ns): row-buffer misses (random
    /// addresses almost never hit the open DRAM row) plus TLB walks over
    /// a multi-GiB table. Bounds [0, 200 ns].
    pub lookup_latency: f64,
    /// Usable on-package (die-to-die) link bandwidth per direction on
    /// the chiplet generations, bytes/s (45e9, an Infinity-Fabric-class
    /// link). Bounds [10e9, 200e9].
    pub onpkg_bandwidth: f64,
    /// Per-hop latency of an on-package link, seconds (30 ns — the
    /// chiplet NUMA factor is far milder than 2006 HyperTransport's).
    /// Bounds [5 ns, 100 ns].
    pub onpkg_latency: f64,
    /// Sustained DRAM bandwidth per chiplet-attached controller pair on
    /// the modern generations, bytes/s (32e9: two DDR channels of a
    /// modern 8-channel socket). Bounds [10e9, 128e9].
    pub tier_dram_bandwidth: f64,
    /// Sustained bandwidth of an on-package HBM stack presented as its
    /// own memory node, bytes/s (600e9). Bounds [100e9, 1600e9].
    pub tier_hbm_bandwidth: f64,
}

/// One axis of the calibration box: name, bounds, and typed accessors
/// for the corresponding [`CalibParams`] field.
#[derive(Clone, Copy)]
pub struct ParamField {
    /// Stable snake_case name (encoding, JSON, and report labels).
    pub name: &'static str,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
    read: fn(&CalibParams) -> f64,
    write: fn(&mut CalibParams, f64),
}

impl ParamField {
    /// Reads this field's value from a parameter point.
    pub fn read(&self, p: &CalibParams) -> f64 {
        (self.read)(p)
    }

    /// Writes this field's value into a parameter point.
    pub fn write(&self, p: &mut CalibParams, value: f64) {
        (self.write)(p, value)
    }

    /// Clamps `value` into the field's bounds.
    pub fn clamp(&self, value: f64) -> f64 {
        value.clamp(self.lo, self.hi)
    }
}

impl std::fmt::Debug for ParamField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamField")
            .field("name", &self.name)
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .finish()
    }
}

/// Generates [`CalibParams::FIELDS`], [`CalibParams::to_bits`] and
/// [`Axis`] from one `Variant name: lo, hi;` line per field, so the field
/// list is written out once. All three keep the list's order; `FIELDS` has
/// an explicit length, so a line that is missing or extra does not
/// compile.
macro_rules! calib_fields {
    ($($axis:ident $name:ident: $lo:expr, $hi:expr;)+) => {
        impl CalibParams {
            /// Every field with its bounds, in declaration order. The
            /// stable index of a field in this table is its axis id
            /// throughout the calibration subsystem.
            pub const FIELDS: [ParamField; 25] = [$(ParamField {
                name: stringify!($name),
                lo: $lo,
                hi: $hi,
                read: |p| p.$name,
                write: |p, v| p.$name = v,
            }),+];

            /// Every field's bit pattern, in [`CalibParams::FIELDS`]
            /// order: an exact identity for the point, under which `0.0`
            /// and `-0.0` (and distinct NaN payloads) differ. Reads the
            /// fields directly, not through the table's accessors.
            pub fn to_bits(&self) -> [u64; CalibParams::FIELDS.len()] {
                [$(self.$name.to_bits()),+]
            }
        }

        /// One calibration axis, named at compile time: `axis as usize`
        /// is the field's index in [`CalibParams::FIELDS`], so code that
        /// names an axis cannot name a field that does not exist.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Axis {
            $(
                #[doc = concat!("The `", stringify!($name), "` field.")]
                $axis,
            )+
        }
    };
}

calib_fields! {
    FlopsPerCycle flops_per_cycle: 1.0, 4.0;
    L1Bytes l1_bytes: 16.0 * 1024.0, 256.0 * 1024.0;
    L2Bytes l2_bytes: 256.0 * 1024.0, 8.0 * 1024.0 * 1024.0;
    LineBytes line_bytes: 32.0, 128.0;
    StreamMlp stream_mlp: 2.0, 16.0;
    RandomMlp random_mlp: 1.0, 4.0;
    StridedMlp strided_mlp: 1.0, 4.0;
    DramBandwidth dram_bandwidth: 2e9, 6.4e9;
    DramLatency dram_latency: 40e-9, 150e-9;
    HtBandwidth ht_bandwidth: 0.5e9, 4e9;
    HtHopLatency ht_hop_latency: 20e-9, 120e-9;
    ProbeBase probe_base: 0.0, 100e-9;
    ProbePerHop probe_per_hop: 0.0, 120e-9;
    ProbeCapacitySmall probe_capacity_small: 1e10, 1e13;
    ProbeCapacityLadder probe_capacity_ladder: 5e9, 1e12;
    LockSysv lock_sysv: 0.5e-6, 10e-6;
    LockUsysv lock_usysv: 0.01e-6, 1e-6;
    SameSocketBoost same_socket_boost: 1.0, 1.5;
    Misplacement misplacement: 0.0, 0.5;
    LookupMlp lookup_mlp: 1.0, 8.0;
    LookupLatency lookup_latency: 0.0, 200e-9;
    OnpkgBandwidth onpkg_bandwidth: 10e9, 200e9;
    OnpkgLatency onpkg_latency: 5e-9, 100e-9;
    TierDramBandwidth tier_dram_bandwidth: 10e9, 128e9;
    TierHbmBandwidth tier_hbm_bandwidth: 100e9, 1600e9;
}

impl CalibParams {
    /// The shipped 2006 calibration, the one place each shipped value is
    /// written (see the field docs for each value's rationale). The
    /// modern-generation axes (`onpkg_*`, `tier_*`) ride along: the 2006
    /// presets never read them, so "paper_2006" still describes every
    /// field the 2006 machines consume.
    pub fn paper_2006() -> Self {
        Self {
            flops_per_cycle: 2.0,
            l1_bytes: 64.0 * 1024.0,
            l2_bytes: 1024.0 * 1024.0,
            line_bytes: 64.0,
            stream_mlp: 8.0,
            random_mlp: 1.6,
            strided_mlp: 2.0,
            dram_bandwidth: 4.2e9,
            dram_latency: 70e-9,
            ht_bandwidth: 2.0e9,
            ht_hop_latency: 55e-9,
            probe_base: 25e-9,
            probe_per_hop: 45e-9,
            probe_capacity_small: 1e12,
            probe_capacity_ladder: 14e9,
            lock_sysv: 2.4e-6,
            lock_usysv: 0.12e-6,
            same_socket_boost: 1.12,
            misplacement: 0.10,
            lookup_mlp: 3.0,
            lookup_latency: 60e-9,
            onpkg_bandwidth: 45e9,
            onpkg_latency: 30e-9,
            tier_dram_bandwidth: 32e9,
            tier_hbm_bandwidth: 600e9,
        }
    }

    /// Looks a field up by its stable name.
    pub fn field(name: &str) -> Option<&'static ParamField> {
        Self::FIELDS.iter().find(|f| f.name == name)
    }

    /// Reads the field at `axis` (index into [`CalibParams::FIELDS`]).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= FIELDS.len()`.
    pub fn get(&self, axis: usize) -> f64 {
        Self::FIELDS[axis].read(self)
    }

    /// Writes the field at `axis` (index into [`CalibParams::FIELDS`]).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= FIELDS.len()`.
    pub fn set(&mut self, axis: usize, value: f64) {
        Self::FIELDS[axis].write(self, value);
    }

    /// Whether every field sits inside its documented bounds.
    pub fn in_bounds(&self) -> bool {
        Self::FIELDS.iter().all(|f| {
            let v = f.read(self);
            v >= f.lo && v <= f.hi
        })
    }

    /// A copy with every field clamped into its bounds.
    #[must_use]
    pub fn clamped(&self) -> Self {
        let mut out = *self;
        for f in &Self::FIELDS {
            let clamped = f.clamp(f.read(&out));
            f.write(&mut out, clamped);
        }
        out
    }
}

impl Default for CalibParams {
    fn default() -> Self {
        Self::paper_2006()
    }
}

impl Axis {
    /// This axis's entry in [`CalibParams::FIELDS`].
    pub fn field(self) -> &'static ParamField {
        &CalibParams::FIELDS[self as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_is_inside_the_box() {
        assert!(CalibParams::paper_2006().in_bounds());
    }

    #[test]
    fn field_names_are_unique_and_resolvable() {
        let mut names: Vec<_> = CalibParams::FIELDS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CalibParams::FIELDS.len());
        for f in &CalibParams::FIELDS {
            assert!(CalibParams::field(f.name).is_some(), "{}", f.name);
        }
        assert!(CalibParams::field("nope").is_none());
    }

    #[test]
    fn axes_index_their_fields() {
        assert_eq!(Axis::FlopsPerCycle.field().name, "flops_per_cycle");
        assert_eq!(Axis::DramLatency.field().name, "dram_latency");
        assert_eq!(Axis::TierHbmBandwidth as usize, CalibParams::FIELDS.len() - 1);
        assert_eq!(Axis::TierHbmBandwidth.field().name, "tier_hbm_bandwidth");
    }

    #[test]
    fn get_set_round_trip_every_axis() {
        let mut p = CalibParams::paper_2006();
        for (i, f) in CalibParams::FIELDS.iter().enumerate() {
            let mid = 0.5 * (f.lo + f.hi);
            p.set(i, mid);
            assert_eq!(p.get(i).to_bits(), mid.to_bits(), "{}", f.name);
        }
    }

    #[test]
    fn to_bits_matches_the_table_accessors_in_order() {
        // A distinct value per axis, so a field read out of order shows.
        let mut p = CalibParams::paper_2006();
        for i in 0..CalibParams::FIELDS.len() {
            p.set(i, i as f64 + 0.5);
        }
        p.misplacement = -0.0;
        let via_table: Vec<u64> =
            CalibParams::FIELDS.iter().map(|f| f.read(&p).to_bits()).collect();
        assert_eq!(p.to_bits().to_vec(), via_table);
    }

    #[test]
    fn clamped_pulls_out_of_range_values_back() {
        let mut p = CalibParams::paper_2006();
        p.dram_latency = 1.0; // absurd: one second
        p.misplacement = -0.5;
        assert!(!p.in_bounds());
        let c = p.clamped();
        assert!(c.in_bounds());
        assert_eq!(c.dram_latency, 150e-9);
        assert_eq!(c.misplacement, 0.0);
    }

    #[test]
    fn bounds_are_well_formed() {
        for f in &CalibParams::FIELDS {
            assert!(f.lo < f.hi, "{}", f.name);
        }
    }
}
