//! Runtime calibration parameters: every DESIGN §6 constant as a value.
//!
//! The compile-time constants in [`crate::systems::calib`] (and their
//! smpi/affinity counterparts) pin the machine model to the shipped
//! 2006-era calibration. [`CalibParams`] lifts each of them into a field
//! with documented bounds so a machine — and the MPI substrate on top of
//! it — can be built from *any* parameter point: the calibration search
//! in `corescope-calib` walks this box, and
//! [`CalibParams::paper_2006`] reproduces the shipped constants exactly
//! (bit-for-bit, so default-parameter runs are byte-identical to the
//! pre-parameterized code).

use crate::systems::{calib, modern};

/// One point in the calibration box: every tunable constant of the
/// machine, MPI, and placement models.
///
/// Field defaults come from [`CalibParams::paper_2006`]; bounds (used by
/// the search and the sensitivity analysis) are documented per field and
/// exposed through [`CalibParams::FIELDS`]. All fields are plain `f64`
/// so the struct is `Copy` and totally ordered per-field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibParams {
    /// Double-precision flops per cycle (K8 SSE2: 2). Bounds [1, 4].
    pub flops_per_cycle: f64,
    /// L1 data cache bytes (64 KiB). Bounds [16 KiB, 256 KiB].
    pub l1_bytes: f64,
    /// Unified L2 bytes (1 MiB). Bounds [256 KiB, 8 MiB].
    pub l2_bytes: f64,
    /// Cache line bytes (64). Bounds [32, 128].
    pub line_bytes: f64,
    /// Outstanding line fills under hardware prefetch (8). Bounds [2, 16].
    pub stream_mlp: f64,
    /// Outstanding line fills for dependent random access (1.6).
    /// Bounds [1, 4].
    pub random_mlp: f64,
    /// Outstanding line fills for prefetch-defeating strides (2).
    /// Bounds [1, 4].
    pub strided_mlp: f64,
    /// Sustained DDR-400 controller bandwidth, bytes/s (4.2e9).
    /// Bounds [2e9, 6.4e9] (6.4 GB/s is the interface peak).
    pub dram_bandwidth: f64,
    /// Idle local DRAM latency, seconds (70 ns). Bounds [40 ns, 150 ns].
    pub dram_latency: f64,
    /// Usable coherent-HT bandwidth per direction, bytes/s (2e9).
    /// Bounds [0.5e9, 4e9].
    pub ht_bandwidth: f64,
    /// Per-hop HyperTransport latency, seconds (55 ns).
    /// Bounds [20 ns, 120 ns].
    pub ht_hop_latency: f64,
    /// Fixed coherence probe cost, seconds (25 ns). Bounds [0, 100 ns].
    pub probe_base: f64,
    /// Probe cost per hop of topology diameter, seconds (45 ns).
    /// Bounds [0, 120 ns].
    pub probe_per_hop: f64,
    /// Probe-fabric capacity on two-socket machines, bytes/s of DRAM
    /// traffic (1e12 — effectively unlimited). Bounds [1e10, 1e13].
    pub probe_capacity_small: f64,
    /// Probe-fabric capacity on the eight-socket ladder, bytes/s (14e9).
    /// Bounds [5e9, 1e12]; the top of the box is "effectively
    /// unlimited", the no-fabric counterfactual the ablation sweeps to.
    pub probe_capacity_ladder: f64,
    /// Per-message SysV semaphore cost, seconds (2.4 µs).
    /// Bounds [0.5 µs, 10 µs].
    pub lock_sysv: f64,
    /// Per-message user-space spin-lock cost, seconds (0.12 µs).
    /// Bounds [0.01 µs, 1 µs].
    pub lock_usysv: f64,
    /// Intra-socket shared-memory copy bandwidth boost (1.12, the
    /// paper's "approximately 10 to 13%"). Bounds [1.0, 1.5].
    pub same_socket_boost: f64,
    /// Fraction of pages the default first-touch policy leaves on the
    /// wrong node (0.10). Bounds [0, 0.5].
    pub misplacement: f64,
    /// Outstanding line fills for dependent table lookups (3).
    /// Bounds [1, 8].
    pub lookup_mlp: f64,
    /// Extra row-buffer-miss/TLB latency per dependent table lookup,
    /// seconds (60 ns). Bounds [0, 200 ns].
    pub lookup_latency: f64,
    /// Usable on-package (die-to-die) link bandwidth per direction on
    /// the chiplet generations, bytes/s (45e9). Bounds [10e9, 200e9].
    pub onpkg_bandwidth: f64,
    /// Per-hop latency of an on-package link, seconds (30 ns).
    /// Bounds [5 ns, 100 ns].
    pub onpkg_latency: f64,
    /// Sustained DRAM bandwidth per chiplet-attached controller pair on
    /// the modern generations, bytes/s (32e9). Bounds [10e9, 128e9].
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
    /// The shipped 2006 calibration: every field equals the constant it
    /// replaces, bit-for-bit. Building a system from this point yields a
    /// spec identical to the preset builders.
    pub fn paper_2006() -> Self {
        Self {
            flops_per_cycle: calib::FLOPS_PER_CYCLE,
            l1_bytes: calib::L1_BYTES,
            l2_bytes: calib::L2_BYTES,
            line_bytes: calib::LINE_BYTES,
            stream_mlp: calib::STREAM_MLP,
            random_mlp: calib::RANDOM_MLP,
            strided_mlp: calib::STRIDED_MLP,
            dram_bandwidth: calib::DDR400_SUSTAINED_BW,
            dram_latency: calib::DRAM_LATENCY,
            ht_bandwidth: calib::HT_BANDWIDTH,
            ht_hop_latency: calib::HT_HOP_LATENCY,
            probe_base: calib::PROBE_BASE,
            probe_per_hop: calib::PROBE_PER_HOP,
            probe_capacity_small: calib::PROBE_CAPACITY_SMALL,
            probe_capacity_ladder: calib::PROBE_CAPACITY_LADDER,
            // smpi: LockLayer::{SysV, USysV} costs and the same-socket
            // copy boost (cross-checked by smpi/calib tests).
            lock_sysv: 2.4e-6,
            lock_usysv: 0.12e-6,
            same_socket_boost: 1.12,
            // affinity: policy::DEFAULT_MISPLACEMENT (cross-checked by a
            // corescope-calib test).
            misplacement: 0.10,
            lookup_mlp: calib::LOOKUP_MLP,
            lookup_latency: calib::LOOKUP_LATENCY,
            // corescope-topo: the modern-generation axes. The 2006
            // presets never read them, so "paper_2006" still describes
            // every field the 2006 machines consume.
            onpkg_bandwidth: modern::ONPKG_BANDWIDTH,
            onpkg_latency: modern::ONPKG_LATENCY,
            tier_dram_bandwidth: modern::TIER_DRAM_BANDWIDTH,
            tier_hbm_bandwidth: modern::TIER_HBM_BANDWIDTH,
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
    fn paper_point_matches_the_shipped_constants() {
        let p = CalibParams::paper_2006();
        assert_eq!(p.dram_latency.to_bits(), calib::DRAM_LATENCY.to_bits());
        assert_eq!(p.ht_bandwidth.to_bits(), calib::HT_BANDWIDTH.to_bits());
        assert_eq!(p.probe_capacity_ladder.to_bits(), calib::PROBE_CAPACITY_LADDER.to_bits());
        assert_eq!(p.stream_mlp.to_bits(), calib::STREAM_MLP.to_bits());
    }

    #[test]
    fn paper_point_is_inside_the_box() {
        assert!(CalibParams::paper_2006().in_bounds());
    }

    #[test]
    fn modern_axes_match_the_shipped_constants() {
        let p = CalibParams::paper_2006();
        assert_eq!(p.onpkg_bandwidth.to_bits(), modern::ONPKG_BANDWIDTH.to_bits());
        assert_eq!(p.onpkg_latency.to_bits(), modern::ONPKG_LATENCY.to_bits());
        assert_eq!(p.tier_dram_bandwidth.to_bits(), modern::TIER_DRAM_BANDWIDTH.to_bits());
        assert_eq!(p.tier_hbm_bandwidth.to_bits(), modern::TIER_HBM_BANDWIDTH.to_bits());
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
