//! Canonical byte encoding and content digests for scenarios.
//!
//! The repo vendors no serde, so the encoding is hand-rolled (like the
//! Chrome-trace JSON in `harness::observe`) and deliberately boring: a
//! flat byte stream of length-prefixed, tagged fields. Two properties
//! matter and are tested:
//!
//! 1. **stability** — encoding is a pure function of the value, so the
//!    same scenario always produces the same bytes (and digest), across
//!    processes and re-encodings;
//! 2. **injectivity in practice** — every field is written as
//!    `name-length ‖ name ‖ payload` with fixed-width scalar payloads and
//!    length-prefixed variable ones, so two different field sequences
//!    cannot concatenate to the same byte stream (no ambiguity at field
//!    boundaries), and any single-field perturbation changes the stream.
//!
//! The digest is 128-bit FNV-1a over the canonical bytes. FNV is not
//! cryptographic, but cache keys here defend against *accidental*
//! collision, not an adversary; 128 bits over kilobyte-scale inputs makes
//! accidental collision astronomically unlikely.
//!
//! The encoder never materializes the byte stream: each byte is folded
//! into the FNV state as it is written. FNV-1a is a left fold over the
//! bytes, so the state after a prefix is all the prefix contributes —
//! [`Encoder::resume`] continues from a saved [`Encoder::digest`] and
//! yields exactly the digest of the concatenated stream.
//!
//! Most of the 8-byte integers in a stream are small: every name
//! length, every string length, list lengths and small counts. A zero
//! byte's xor changes nothing, so folding it is one multiply by the
//! prime, and folding `k` zero bytes is one multiply by `FNV_PRIME^k`.
//! An integer below 256 is seven zero bytes and its low byte, so it
//! folds in two multiplies instead of eight. The bytes hashed and the
//! digest are exactly those of the byte-at-a-time fold; only the number
//! of multiplies drops.

use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;
/// `FNV_PRIME^7`: the fold of seven zero bytes.
const FNV_PRIME_7: u128 = FNV_PRIME.wrapping_pow(7);

/// A 128-bit content digest, printed as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl Digest {
    /// The digest as a lowercase hex string (32 chars), usable as a file
    /// name.
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the output of [`Digest::hex`].
    pub fn parse(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Digest)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Canonical byte encoder: append-only, field-tagged, length-prefixed,
/// hashed as it goes.
#[derive(Debug, Clone)]
pub struct Encoder {
    state: u128,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// An encoder that continues the stream whose bytes so far hash to
    /// `prefix` (a previous [`Encoder::digest`]): the final digest equals
    /// that of one encoder fed the prefix and then everything written
    /// here.
    pub fn resume(prefix: Digest) -> Self {
        Self { state: prefix.0 }
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Folds `v` as 8 big-endian bytes. Below 256 those are seven zero
    /// bytes, folded as one multiply, and then the low byte.
    fn raw_u64(&mut self, v: u64) {
        if v < 256 {
            let h = self.state.wrapping_mul(FNV_PRIME_7) ^ v as u128;
            self.state = h.wrapping_mul(FNV_PRIME);
        } else {
            self.write(&v.to_be_bytes());
        }
    }

    fn name(&mut self, name: &str) {
        self.raw_u64(name.len() as u64);
        self.write(name.as_bytes());
    }

    /// A named unsigned integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.name(name);
        self.write(b"u");
        self.raw_u64(v);
        self
    }

    /// A named `usize` field (encoded as u64).
    pub fn usize(&mut self, name: &str, v: usize) -> &mut Self {
        self.u64(name, v as u64)
    }

    /// A named float field, encoded by bit pattern so `-0.0` and `0.0`
    /// (and every NaN payload) stay distinguishable and the encoding is
    /// exact.
    pub fn f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.name(name);
        self.write(b"f");
        self.raw_u64(v.to_bits());
        self
    }

    /// A named string field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        self.name(name);
        self.write(b"s");
        self.raw_u64(v.len() as u64);
        self.write(v.as_bytes());
        self
    }

    /// A named enum-discriminant field: the variant's stable key string.
    pub fn tag(&mut self, name: &str, variant: &str) -> &mut Self {
        self.name(name);
        self.write(b"t");
        self.raw_u64(variant.len() as u64);
        self.write(variant.as_bytes());
        self
    }

    /// Opens a named list of `len` elements; callers then encode each
    /// element's fields. The length prefix keeps adjacent lists from
    /// bleeding into one another.
    pub fn list(&mut self, name: &str, len: usize) -> &mut Self {
        self.name(name);
        self.write(b"l");
        self.raw_u64(len as u64);
        self
    }

    /// 128-bit FNV-1a over the canonical bytes written so far.
    pub fn digest(&self) -> Digest {
        Digest(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(f: impl FnOnce(&mut Encoder)) -> Digest {
        let mut e = Encoder::new();
        f(&mut e);
        e.digest()
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = digest_of(|e| {
            e.str("name", "dmz").usize("ranks", 4).f64("bytes", 1.5e9);
        });
        let b = digest_of(|e| {
            e.str("name", "dmz").usize("ranks", 4).f64("bytes", 1.5e9);
        });
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_change_changes_the_digest() {
        let base = digest_of(|e| {
            e.str("name", "dmz").usize("ranks", 4).f64("bytes", 1.5e9);
        });
        let name = digest_of(|e| {
            e.str("name", "dmx").usize("ranks", 4).f64("bytes", 1.5e9);
        });
        let ranks = digest_of(|e| {
            e.str("name", "dmz").usize("ranks", 5).f64("bytes", 1.5e9);
        });
        let bytes = digest_of(|e| {
            e.str("name", "dmz").usize("ranks", 4).f64("bytes", 1.5e9 + 1.0);
        });
        assert_ne!(base, name);
        assert_ne!(base, ranks);
        assert_ne!(base, bytes);
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        // "ab" + "c" must not collide with "a" + "bc": the length
        // prefixes land in different places.
        let a = digest_of(|e| {
            e.str("x", "ab").str("y", "c");
        });
        let b = digest_of(|e| {
            e.str("x", "a").str("y", "bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn float_bit_patterns_are_exact() {
        let pos = digest_of(|e| {
            e.f64("v", 0.0);
        });
        let neg = digest_of(|e| {
            e.f64("v", -0.0);
        });
        assert_ne!(pos, neg);
    }

    #[test]
    fn resuming_from_a_prefix_digest_matches_one_stream() {
        let whole = digest_of(|e| {
            e.str("name", "dmz").usize("ranks", 4).f64("bytes", 1.5e9);
        });
        let prefix = digest_of(|e| {
            e.str("name", "dmz");
        });
        let mut rest = Encoder::resume(prefix);
        rest.usize("ranks", 4).f64("bytes", 1.5e9);
        assert_eq!(rest.digest(), whole);
        assert_eq!(Encoder::resume(prefix).digest(), prefix);
        assert_eq!(Encoder::new().digest(), Digest(FNV_OFFSET));
    }

    #[test]
    fn streaming_matches_fnv_over_the_canonical_bytes() {
        // The byte layout, spelled out: name-length ‖ name ‖ type byte ‖
        // payload, big-endian. Hashing it in one pass must agree with the
        // streaming encoder.
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(b"k");
        bytes.push(b's');
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(b"ab");
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(b"v");
        bytes.push(b'f');
        bytes.extend_from_slice(&(-0.0f64).to_bits().to_be_bytes());
        let mut h = FNV_OFFSET;
        for b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        let streamed = digest_of(|e| {
            e.str("k", "ab").f64("v", -0.0);
        });
        assert_eq!(streamed, Digest(h));
    }

    /// The canonical byte stream, materialized: the field layout written
    /// out once more, independently of the folding [`Encoder`].
    #[derive(Default)]
    struct CanonicalBytes(Vec<u8>);

    impl CanonicalBytes {
        fn int(&mut self, v: u64) {
            self.0.extend_from_slice(&v.to_be_bytes());
        }

        fn head(&mut self, name: &str, ty: u8) {
            self.int(name.len() as u64);
            self.0.extend_from_slice(name.as_bytes());
            self.0.push(ty);
        }

        fn text(&mut self, v: &str) {
            self.int(v.len() as u64);
            self.0.extend_from_slice(v.as_bytes());
        }

        /// Textbook FNV-1a, one byte at a time.
        fn fnv(&self) -> Digest {
            let mut h = FNV_OFFSET;
            for &b in &self.0 {
                h ^= b as u128;
                h = h.wrapping_mul(FNV_PRIME);
            }
            Digest(h)
        }
    }

    const EDGE_INTS: [u64; 6] = [0, 1, 255, 256, 65_535, u64::MAX];
    const EDGE_FLOATS: [f64; 8] = [0.0, -0.0, f64::NAN, 1.0, 8.0, 1e6, 1.5e9, -2.5];

    /// `len` ASCII bytes drawn from `seed`.
    fn text(len: usize, seed: u8) -> String {
        (0..len).map(|i| (b'a' + (seed as usize + i) as u8 % 26) as char).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The streaming encoder, with its small-integer fold, equals
        /// FNV-1a over the materialized bytes on random field sequences:
        /// every field kind, names and strings of 0–300 bytes, the integer
        /// edges around one byte, two bytes and `u64::MAX`, random one-
        /// and two-byte integers, signed zeros, NaN, round floats and raw
        /// bit patterns.
        #[test]
        fn encoder_parity_over_random_fields(
            fields in proptest::collection::vec(
                (0u8..6, 0usize..301, 0usize..12, 0u64..u64::MAX, 0usize..301, 0u8..=255),
                0..40,
            ),
        ) {
            let mut enc = Encoder::new();
            let mut bytes = CanonicalBytes::default();
            for &(kind, name_len, pick, raw, len, seed) in &fields {
                let name = text(name_len, seed.wrapping_add(7));
                let int = match pick {
                    0..=5 => EDGE_INTS[pick],
                    6 | 7 => raw & 0xff,
                    8 | 9 => raw & 0xffff,
                    _ => raw,
                };
                let float = EDGE_FLOATS.get(pick).copied().unwrap_or(f64::from_bits(raw));
                let value = text(len, seed);
                match kind {
                    0 => {
                        enc.u64(&name, int);
                        bytes.head(&name, b'u');
                        bytes.int(int);
                    }
                    1 => {
                        enc.usize(&name, int as usize);
                        bytes.head(&name, b'u');
                        bytes.int(int);
                    }
                    2 => {
                        enc.f64(&name, float);
                        bytes.head(&name, b'f');
                        bytes.int(float.to_bits());
                    }
                    3 => {
                        enc.str(&name, &value);
                        bytes.head(&name, b's');
                        bytes.text(&value);
                    }
                    4 => {
                        enc.tag(&name, &value);
                        bytes.head(&name, b't');
                        bytes.text(&value);
                    }
                    _ => {
                        enc.list(&name, int as usize);
                        bytes.head(&name, b'l');
                        bytes.int(int);
                    }
                }
            }
            proptest::prop_assert_eq!(enc.digest(), bytes.fnv());
        }
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = digest_of(|e| {
            e.str("k", "v");
        });
        assert_eq!(Digest::parse(&d.hex()), Some(d));
        assert_eq!(d.hex().len(), 32);
        assert_eq!(Digest::parse("xyz"), None);
    }
}
