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
//! name, with its length and the field's type byte, and every variant
//! key. A field's head (`be64(len) ‖ name ‖ type byte`) is one constant
//! run, and so is a whole tag field (head ‖ `be64(len) ‖ key`) once the
//! variant is known. Such a constant run of `k` bytes `s` folds in one
//! multiply-add, by the identity
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
//! time (`ConstRun`), one table per distinct run. Every field of a
//! scenario thus folds its constant part in one table step. The
//! small-integer fold above is the same argument for a run of zero
//! bytes, whose table is all zeros. Both are exact: the digest of every
//! stream is bit for bit that of FNV-1a over its bytes.

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

/// A field name as the stream writes it: the head `be64(len) ‖ name ‖
/// type byte` every field starts with. Any `str`-like name folds byte by
/// byte; a compile-time constant run folds in one multiply-add.
pub trait Name {
    /// The state after folding the head of a field of type `ty` from `h`.
    fn fold_head(&self, h: u128, ty: u8) -> u128;
}

impl<T: AsRef<str> + ?Sized> Name for T {
    fn fold_head(&self, h: u128, ty: u8) -> u128 {
        fold(fold_text(h, self.as_ref().as_bytes()), &[ty])
    }
}

/// The bytes a [`ConstRun`] stands for: `be64(len) ‖ name ‖ ty`, then
/// `be64(len) ‖ value` when the field's value is constant too.
#[derive(Debug)]
struct Pieces {
    name: &'static [u8],
    ty: u8,
    value: Option<&'static [u8]>,
}

impl Pieces {
    /// The number of bytes on the stream.
    const fn len(&self) -> usize {
        let value = match self.value {
            Some(value) => 8 + value.len(),
            None => 0,
        };
        8 + self.name.len() + 1 + value
    }

    /// FNV-1a over the pieces' bytes from state `h`.
    const fn fold(&self, h: u128) -> u128 {
        let h = fold(fold_text(h, self.name), &[self.ty]);
        match self.value {
            Some(value) => fold_text(h, value),
            None => h,
        }
    }
}

/// A run of the stream known at compile time, folded in one step by the
/// identity in the module docs: a field's head (name and type byte), or
/// a whole field whose value is constant as well (a tag with its variant
/// key, a string field with a fixed string). Build one per run with
/// [`const_run!`].
///
/// Release builds keep only the table. It holds no pointer, so the
/// compiler places it in read-only data that needs no relocation and is
/// paged in only when a digest reads it.
pub(crate) struct ConstRun {
    /// `FNV_PRIME^k` for the run's `k` bytes.
    mul: u128,
    /// `C[l] = fold(l) − l·FNV_PRIME^k`: what folding the run from a
    /// state with low byte `l` adds to `h·FNV_PRIME^k`.
    add: [u128; 256],
    /// What the table stands for, for the per-step check.
    #[cfg(any(test, debug_assertions))]
    pieces: Pieces,
}

impl ConstRun {
    /// The run `be64(len) ‖ name ‖ ty`, followed by `be64(len) ‖ value`
    /// when `value` is given, tabulated.
    pub(crate) const fn new(name: &'static [u8], ty: u8, value: Option<&'static [u8]>) -> Self {
        let pieces = Pieces { name, ty, value };
        let mul = FNV_PRIME.wrapping_pow(pieces.len() as u32);
        let mut add = [0u128; 256];
        let mut l = 0;
        while l < 256 {
            let h = l as u128;
            add[l] = pieces.fold(h).wrapping_sub(h.wrapping_mul(mul));
            l += 1;
        }
        Self {
            mul,
            add,
            #[cfg(any(test, debug_assertions))]
            pieces,
        }
    }

    /// The state after folding the run from `h`: one table step.
    fn fold_into(&self, h: u128) -> u128 {
        let next = h.wrapping_mul(self.mul).wrapping_add(self.add[h as u8 as usize]);
        // Debug builds and unit tests check every table step against the
        // byte fold it stands for.
        #[cfg(any(test, debug_assertions))]
        assert_eq!(next, self.pieces.fold(h), "constant run {:?}", self.pieces);
        next
    }

    /// The variant key a whole tag run ends with, for checks that the
    /// run belongs to the variant folding it.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn value(&self) -> Option<&'static [u8]> {
        self.pieces.value
    }
}

impl Name for ConstRun {
    // `ty` is read only by the check.
    #[cfg_attr(not(any(test, debug_assertions)), allow(unused_variables))]
    fn fold_head(&self, h: u128, ty: u8) -> u128 {
        #[cfg(any(test, debug_assertions))]
        assert!(
            self.pieces.ty == ty && self.pieces.value.is_none(),
            "constant run {:?} is not the head of a {:?} field",
            self.pieces,
            ty as char
        );
        self.fold_into(h)
    }
}

/// `&'static ConstRun` for a run known at compile time: the table is
/// built by the compiler into a `static`, so it has one copy however
/// many codegen units inline the code that reads it (a promoted constant
/// gets one per unit). `const_run!(name, ty)` is a field head;
/// `const_run!(name, ty, value)` is a whole field with a constant value.
/// Write each distinct run once.
macro_rules! const_run {
    ($name:expr, $ty:expr) => {
        $crate::encode::const_run!(@run $name, $ty, None)
    };
    ($name:expr, $ty:expr, $value:expr) => {
        $crate::encode::const_run!(@run $name, $ty, Some($value.as_bytes()))
    };
    (@run $name:expr, $ty:expr, $value:expr) => {{
        static RUN: $crate::encode::ConstRun =
            $crate::encode::ConstRun::new($name.as_bytes(), $ty, $value);
        &RUN
    }};
}
pub(crate) use const_run;

/// Canonical byte encoder: append-only, field-tagged, length-prefixed,
/// hashed as it goes.
///
/// Every field name is a [`Name`]: a `&str` folds byte by byte, the
/// reference fold, and a compile-time constant run folds its head in one
/// step to the same state. Within the crate, a whole constant field folds
/// in one step too.
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

    fn raw_u64(&mut self, v: u64) {
        self.state = fold_u64(self.state, v);
    }

    fn head(&mut self, name: &(impl Name + ?Sized), ty: u8) {
        self.state = name.fold_head(self.state, ty);
    }

    /// A named unsigned integer field.
    pub fn u64(&mut self, name: &(impl Name + ?Sized), v: u64) -> &mut Self {
        self.head(name, b'u');
        self.raw_u64(v);
        self
    }

    /// A named `usize` field (encoded as u64).
    pub fn usize(&mut self, name: &(impl Name + ?Sized), v: usize) -> &mut Self {
        self.u64(name, v as u64)
    }

    /// A named float field, encoded by bit pattern so `-0.0` and `0.0`
    /// (and every NaN payload) stay distinguishable and the encoding is
    /// exact.
    pub fn f64(&mut self, name: &(impl Name + ?Sized), v: f64) -> &mut Self {
        self.head(name, b'f');
        self.raw_u64(v.to_bits());
        self
    }

    /// A named string field.
    pub fn str(&mut self, name: &(impl Name + ?Sized), v: &str) -> &mut Self {
        self.head(name, b's');
        self.state = fold_text(self.state, v.as_bytes());
        self
    }

    /// A named enum-discriminant field: the variant's stable key string.
    pub fn tag(&mut self, name: &(impl Name + ?Sized), variant: &str) -> &mut Self {
        self.head(name, b't');
        self.state = fold_text(self.state, variant.as_bytes());
        self
    }

    /// A field known whole at compile time, in one table step: a tag
    /// with its variant key, or a string field with a fixed value.
    pub(crate) fn constant(&mut self, run: &ConstRun) -> &mut Self {
        #[cfg(any(test, debug_assertions))]
        assert!(run.pieces.value.is_some(), "constant run {:?} is only a head", run.pieces);
        self.state = run.fold_into(self.state);
        self
    }

    /// Opens a named list of `len` elements; callers then encode each
    /// element's fields. The length prefix keeps adjacent lists from
    /// bleeding into one another.
    pub fn list(&mut self, name: &(impl Name + ?Sized), len: usize) -> &mut Self {
        self.head(name, b'l');
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

        /// A head run folds to the state the byte fold of
        /// `be64(len) ‖ bytes ‖ ty` reaches, from random states: names of
        /// 0–64 bytes, random or all `0x00` or all `0xff`, the empty name,
        /// and every type byte.
        #[test]
        fn encoder_parity_const_runs(
            states in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..16),
            fill in 0u8..3,
            raw in proptest::collection::vec(0u8..=255, 0..65),
            ty in 0u8..=255,
        ) {
            let bytes = match fill {
                0 => raw,
                1 => vec![0x00; raw.len()],
                _ => vec![0xff; raw.len()],
            };
            let mut stream = (bytes.len() as u64).to_be_bytes().to_vec();
            stream.extend_from_slice(&bytes);
            stream.push(ty);
            let run = ConstRun::new(Box::leak(bytes.into_boxed_slice()), ty, None);
            let empty = ConstRun::new(b"", ty, None);
            for &(high, low) in &states {
                let h = (high as u128) << 64 | low as u128;
                proptest::prop_assert_eq!(run.fold_into(h), fold(h, &stream));
                let mut zeros = [0; 9];
                zeros[8] = ty;
                proptest::prop_assert_eq!(empty.fold_into(h), fold(h, &zeros));
            }
        }

        /// Merged runs — a head followed by a constant value — fold, one
        /// after another from a random state, to the state of the byte
        /// fold over their pieces: names and values of 0–40 random bytes,
        /// every type byte, with and without a value. Where name and value
        /// are text, [`Encoder::constant`] matches [`Encoder::tag`] and
        /// [`Encoder::str`].
        #[test]
        fn encoder_parity_merged_runs(
            (high, low) in (0u64..=u64::MAX, 0u64..=u64::MAX),
            fields in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..=255, 0..41),
                    0u8..=255,
                    proptest::option::of(proptest::collection::vec(0u8..=255, 0..41)),
                    0usize..41,
                    0usize..41,
                    0u8..=255,
                ),
                0..24,
            ),
        ) {
            let start = (high as u128) << 64 | low as u128;
            let mut h = start;
            let mut stream = Vec::new();
            for (name, ty, value, name_len, value_len, seed) in fields {
                stream.extend_from_slice(&(name.len() as u64).to_be_bytes());
                stream.extend_from_slice(&name);
                stream.push(ty);
                if let Some(value) = &value {
                    stream.extend_from_slice(&(value.len() as u64).to_be_bytes());
                    stream.extend_from_slice(value);
                }
                let value: Option<&'static [u8]> = value.map(|v| &*Box::leak(v.into_boxed_slice()));
                h = ConstRun::new(Box::leak(name.into_boxed_slice()), ty, value).fold_into(h);
                proptest::prop_assert_eq!(h, fold(start, &stream));

                let (name, key) = (text(name_len, seed), text(value_len, seed.wrapping_add(3)));
                let leak = |s: &String| &*Box::leak(s.clone().into_boxed_str().into_boxed_bytes());
                for ty in [b't', b's'] {
                    let run = ConstRun::new(leak(&name), ty, Some(leak(&key)));
                    let mut by_byte = Encoder::resume(Digest(h));
                    if ty == b't' {
                        by_byte.tag(&name, &key);
                    } else {
                        by_byte.str(&name, &key);
                    }
                    proptest::prop_assert_eq!(
                        Encoder::resume(Digest(h)).constant(&run).digest(),
                        by_byte.digest()
                    );
                }
            }
        }
    }
}
