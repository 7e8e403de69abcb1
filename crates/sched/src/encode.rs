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
//!
//! Most of a scenario's bytes are fixed at compile time: every field
//! name, with its length, and every variant key. Such a constant run of
//! `k` bytes `s` folds in one multiply-add, by the identity
//!
//! ```text
//! fold(h, s) = h·P^k + C_s[h mod 256]   (mod 2^128, P = FNV_PRIME)
//! ```
//!
//! Xor with a byte `b` changes only the low 8 bits of the state, so
//! `h ^ b = h + δ` where `δ` depends only on `h mod 256` and `b`; and
//! the low byte of `h·P` depends only on the low byte of `h`. By
//! induction over the bytes, folding `s` adds to `h·P^k` a sum of
//! `δ_i·P^(k−i)` whose every term depends only on `h mod 256`: that sum
//! is `C_s[h mod 256]`, a 256-entry table a `const fn` builds at compile
//! time (`ConstRun`). The small-integer fold above is the same argument
//! for a run of zero bytes, whose table is all zeros. Both are exact:
//! the digest of every stream is bit for bit that of FNV-1a over its
//! bytes.

use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;
/// `FNV_PRIME^7`: the fold of seven zero bytes.
const FNV_PRIME_7: u128 = FNV_PRIME.wrapping_pow(7);

/// FNV-1a over `bytes` from state `h`, one byte at a time: the one fold
/// definition, run by the encoder and, at compile time, by [`ConstRun`].
const fn fold(mut h: u128, bytes: &[u8]) -> u128 {
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u128).wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// Folds `v` as 8 big-endian bytes. Below 256 those are seven zero
/// bytes, folded as one multiply, and then the low byte.
const fn fold_u64(h: u128, v: u64) -> u128 {
    if v < 256 {
        (h.wrapping_mul(FNV_PRIME_7) ^ v as u128).wrapping_mul(FNV_PRIME)
    } else {
        fold(h, &v.to_be_bytes())
    }
}

/// Folds the length-prefixed string `be64(len) ‖ bytes`.
const fn fold_text(h: u128, bytes: &[u8]) -> u128 {
    fold(fold_u64(h, bytes.len() as u64), bytes)
}

/// A 128-bit content digest, printed as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl Digest {
    /// The digest as a lowercase hex string (32 chars), usable as a file
    /// name.
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A length-prefixed string of the stream, `be64(len) ‖ bytes`: a field
/// name, a string value or a variant key. Any `str`-like value folds
/// byte by byte; a compile-time constant run folds in one multiply-add.
pub trait Text {
    /// The state after folding `be64(len) ‖ bytes` from `h`.
    fn fold_into(&self, h: u128) -> u128;
}

impl<T: AsRef<str> + ?Sized> Text for T {
    fn fold_into(&self, h: u128) -> u128 {
        fold_text(h, self.as_ref().as_bytes())
    }
}

/// A string known at compile time, as a constant run of the stream:
/// `be64(len) ‖ bytes` folded in one step by the identity in the module
/// docs. Build one per string with [`const_run!`].
pub(crate) struct ConstRun {
    bytes: &'static [u8],
    /// `FNV_PRIME^k` for the run's `k = 8 + len` bytes.
    mul: u128,
    /// `C[l] = fold(l) − l·FNV_PRIME^k`: what folding the run from a
    /// state with low byte `l` adds to `h·FNV_PRIME^k`.
    add: [u128; 256],
}

impl ConstRun {
    /// The run of `bytes`, tabulated.
    pub(crate) const fn new(bytes: &'static [u8]) -> Self {
        let mul = FNV_PRIME.wrapping_pow(8 + bytes.len() as u32);
        let mut add = [0u128; 256];
        let mut l = 0;
        while l < 256 {
            let h = l as u128;
            add[l] = fold_text(h, bytes).wrapping_sub(h.wrapping_mul(mul));
            l += 1;
        }
        Self { bytes, mul, add }
    }
}

impl Text for ConstRun {
    fn fold_into(&self, h: u128) -> u128 {
        let next = h.wrapping_mul(self.mul).wrapping_add(self.add[h as u8 as usize]);
        // Debug builds and unit tests check every table step against the
        // byte fold it stands for.
        if cfg!(any(test, debug_assertions)) {
            assert_eq!(next, fold_text(h, self.bytes), "constant run {:?}", self.bytes);
        }
        next
    }
}

/// `&'static ConstRun` for a string known at compile time: the table is
/// built by the compiler and promoted to read-only data.
macro_rules! const_run {
    ($text:expr) => {{
        const RUN: $crate::encode::ConstRun = $crate::encode::ConstRun::new($text.as_bytes());
        &RUN
    }};
}
pub(crate) use const_run;

/// Canonical byte encoder: append-only, field-tagged, length-prefixed,
/// hashed as it goes.
///
/// Every name, string and variant key is a [`Text`]: a `&str` folds byte
/// by byte, the reference fold, and a compile-time constant run folds in
/// one step to the same state.
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

    fn byte(&mut self, b: u8) {
        self.state = fold(self.state, &[b]);
    }

    fn raw_u64(&mut self, v: u64) {
        self.state = fold_u64(self.state, v);
    }

    fn text(&mut self, text: &(impl Text + ?Sized)) {
        self.state = text.fold_into(self.state);
    }

    /// A named unsigned integer field.
    pub fn u64(&mut self, name: &(impl Text + ?Sized), v: u64) -> &mut Self {
        self.text(name);
        self.byte(b'u');
        self.raw_u64(v);
        self
    }

    /// A named `usize` field (encoded as u64).
    pub fn usize(&mut self, name: &(impl Text + ?Sized), v: usize) -> &mut Self {
        self.u64(name, v as u64)
    }

    /// A named float field, encoded by bit pattern so `-0.0` and `0.0`
    /// (and every NaN payload) stay distinguishable and the encoding is
    /// exact.
    pub fn f64(&mut self, name: &(impl Text + ?Sized), v: f64) -> &mut Self {
        self.text(name);
        self.byte(b'f');
        self.raw_u64(v.to_bits());
        self
    }

    /// A named string field.
    pub fn str(&mut self, name: &(impl Text + ?Sized), v: &(impl Text + ?Sized)) -> &mut Self {
        self.text(name);
        self.byte(b's');
        self.text(v);
        self
    }

    /// A named enum-discriminant field: the variant's stable key string.
    pub fn tag(
        &mut self,
        name: &(impl Text + ?Sized),
        variant: &(impl Text + ?Sized),
    ) -> &mut Self {
        self.text(name);
        self.byte(b't');
        self.text(variant);
        self
    }

    /// Opens a named list of `len` elements; callers then encode each
    /// element's fields. The length prefix keeps adjacent lists from
    /// bleeding into one another.
    pub fn list(&mut self, name: &(impl Text + ?Sized), len: usize) -> &mut Self {
        self.text(name);
        self.byte(b'l');
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

        /// A constant run folds to the state the byte fold of
        /// `be64(len) ‖ bytes` reaches, from random states: strings of
        /// 0–64 bytes, random or all `0x00` or all `0xff`, and the empty
        /// string.
        #[test]
        fn encoder_parity_const_runs(
            states in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..16),
            fill in 0u8..3,
            raw in proptest::collection::vec(0u8..=255, 0..65),
        ) {
            let bytes = match fill {
                0 => raw,
                1 => vec![0x00; raw.len()],
                _ => vec![0xff; raw.len()],
            };
            let mut stream = (bytes.len() as u64).to_be_bytes().to_vec();
            stream.extend_from_slice(&bytes);
            let run = ConstRun::new(Box::leak(bytes.into_boxed_slice()));
            let empty = ConstRun::new(b"");
            for &(high, low) in &states {
                let h = (high as u128) << 64 | low as u128;
                proptest::prop_assert_eq!(run.fold_into(h), fold(h, &stream));
                proptest::prop_assert_eq!(empty.fold_into(h), fold(h, &[0; 8]));
            }
        }
    }
}
