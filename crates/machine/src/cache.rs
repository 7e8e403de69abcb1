//! Analytic cache model: traffic profile → DRAM demand + per-core cap.
//!
//! The paper's computation results divide cleanly into three regimes —
//! cache-resident (DGEMM: "Star DGEMM and Single DGEMM results are almost
//! identical"), bandwidth-bound streaming (STREAM: second core is a net
//! per-socket loss), and latency-bound random access (RandomAccess). The
//! model below reproduces those regimes from working-set size, access
//! pattern, and the machine's latency/MLP parameters.

use crate::spec::CacheSpec;
use crate::traffic::{AccessPattern, TrafficProfile};

/// DRAM-side demand derived from a [`TrafficProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramDemand {
    /// Bytes that must actually move between DRAM and the core.
    pub bytes: f64,
    /// Maximum rate (bytes/s) at which *this core alone* can move them,
    /// given the access latency `latency` (Little's law on outstanding
    /// line fills). Contention may reduce the achieved rate below this.
    pub self_cap: f64,
}

/// Computes the DRAM demand of a phase for a core whose memory accesses
/// experience the given average `latency` (seconds).
///
/// Rules:
/// * Working sets that fit in L2 pay only compulsory misses: each distinct
///   byte is fetched once, re-sweeps hit in cache.
/// * `Stream` traffic with a larger working set misses on every byte but
///   sustains the prefetched MLP.
/// * `Random` traffic fetches a whole line per useful word (×8
///   amplification for 8-byte words) and sustains only the dependent-access
///   MLP — this is what makes RandomAccess latency-bound.
/// * `Blocked` traffic divides by its reuse factor.
///
/// ```
/// use corescope_machine::{systems, cache, TrafficProfile};
/// let spec = systems::dmz();
/// // 1 MiB working set fits in L2: nearly no DRAM traffic on re-sweeps.
/// let hot = cache::dram_demand(
///     &spec.cache,
///     &TrafficProfile::stream_over(64.0 * 1024.0 * 1024.0, 512.0 * 1024.0),
///     140e-9,
/// );
/// assert!(hot.bytes <= 512.0 * 1024.0);
/// ```
pub fn dram_demand(cache: &CacheSpec, profile: &TrafficProfile, latency: f64) -> DramDemand {
    debug_assert!(latency > 0.0, "latency must be positive");
    let line = cache.line_bytes;
    let stream_cap = cache.stream_mlp * line / latency;
    let random_cap = cache.random_mlp * line / latency;
    let strided_cap = cache.strided_mlp * line / latency;
    let lookup_cap = cache.lookup_mlp * line / latency;

    if profile.bytes <= 0.0 {
        return DramDemand { bytes: 0.0, self_cap: stream_cap };
    }

    // Fully cache-resident: compulsory misses only.
    if profile.working_set <= cache.l2_bytes {
        let compulsory = profile.working_set.min(profile.bytes);
        return DramDemand { bytes: compulsory, self_cap: stream_cap };
    }

    match profile.pattern {
        AccessPattern::Stream => DramDemand { bytes: profile.bytes, self_cap: stream_cap },
        AccessPattern::Strided => DramDemand { bytes: profile.bytes, self_cap: strided_cap },
        AccessPattern::Random => {
            // Whole-line fetch per (8-byte) word touched, minus the slice
            // of the table that happens to be cache-resident.
            let hit = (cache.l2_bytes / profile.working_set).min(1.0);
            let amplification = line / 8.0;
            DramDemand { bytes: profile.bytes * amplification * (1.0 - hit), self_cap: random_cap }
        }
        AccessPattern::Blocked => {
            DramDemand { bytes: profile.bytes / profile.reuse, self_cap: stream_cap }
        }
        AccessPattern::Lookup => {
            // The profile's bytes are already whole lines (the workload
            // model counts lines per lookup), so only cache residency
            // filters them; no ×(line/word) amplification.
            let hit = (cache.l2_bytes / profile.working_set).min(1.0);
            DramDemand { bytes: profile.bytes * (1.0 - hit), self_cap: lookup_cap }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CacheSpec;
    use crate::CalibParams;

    fn k8() -> CacheSpec {
        let p = CalibParams::paper_2006();
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

    const LAT: f64 = 140e-9;

    #[test]
    fn cache_resident_pays_only_compulsory() {
        let p = TrafficProfile::stream_over(1e9, 256.0 * 1024.0);
        let d = dram_demand(&k8(), &p, LAT);
        assert_eq!(d.bytes, 256.0 * 1024.0);
    }

    #[test]
    fn streaming_misses_everything() {
        let p = TrafficProfile::stream(1e9);
        let d = dram_demand(&k8(), &p, LAT);
        assert_eq!(d.bytes, 1e9);
        // ~3.7 GB/s single-core cap at 140 ns.
        assert!(d.self_cap > 3.0e9 && d.self_cap < 4.5e9);
    }

    #[test]
    fn random_is_amplified_and_latency_bound() {
        let p = TrafficProfile::random(1e8, 1e9);
        let d = dram_demand(&k8(), &p, LAT);
        assert!(d.bytes > 6.0e8, "8x line amplification expected, got {}", d.bytes);
        assert!(d.self_cap < 1.0e9, "random cap should be far below stream cap");
    }

    #[test]
    fn blocked_divides_by_reuse() {
        let p = TrafficProfile::blocked(1e9, 1e8, 50.0);
        let d = dram_demand(&k8(), &p, LAT);
        assert!((d.bytes - 2e7).abs() < 1.0);
    }

    #[test]
    fn higher_latency_lowers_cap() {
        let p = TrafficProfile::stream(1e9);
        let near = dram_demand(&k8(), &p, 140e-9);
        let far = dram_demand(&k8(), &p, 275e-9);
        assert!(far.self_cap < near.self_cap * 0.6);
    }

    #[test]
    fn zero_traffic_has_zero_bytes() {
        let d = dram_demand(&k8(), &TrafficProfile::none(), LAT);
        assert_eq!(d.bytes, 0.0);
    }

    #[test]
    fn lookup_is_line_granular_and_between_random_and_stream() {
        let p = TrafficProfile::lookup(1e8, 1e9);
        let d = dram_demand(&k8(), &p, LAT);
        // No ×8 amplification: bytes shrink only by the resident slice.
        let hit = CalibParams::paper_2006().l2_bytes / 1e9;
        assert!((d.bytes - 1e8 * (1.0 - hit)).abs() < 1.0);
        let random = dram_demand(&k8(), &TrafficProfile::random(1e8, 1e9), LAT);
        let stream = dram_demand(&k8(), &TrafficProfile::stream(1e8), LAT);
        assert!(d.self_cap > random.self_cap && d.self_cap < stream.self_cap);
    }

    #[test]
    fn random_fully_resident_table_is_cheap() {
        let p = TrafficProfile::random(1e8, 512.0 * 1024.0);
        let d = dram_demand(&k8(), &p, LAT);
        assert!(d.bytes <= 512.0 * 1024.0);
    }
}
