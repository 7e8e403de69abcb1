//! The keyed hasher behind every map keyed by a scenario digest.
//!
//! A digest is already a 128-bit hash of its scenario, so a map keyed by
//! digests needs no byte-oriented hash like std's SipHash: it only has to
//! fold 128 bits into 64 that spread over buckets. [`DigestHasher`] does
//! that with one folded multiply — the two 64-bit halves, each xored with
//! a key, multiplied to 128 bits, and the product's halves xored — which
//! mixes every input bit into the low bits a table indexes by.
//!
//! The two keys are drawn once per process from std's [`RandomState`].
//! Digests come from requests (`serve` reads them off the wire as
//! scenarios), so an unkeyed fold would let a client pick digests that
//! all land in one bucket. Keyed, the bucket order is as unpredictable as
//! it is under std's default hasher, and differs between processes.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::LazyLock;

/// A map keyed by digest.
pub type DigestMap<V> = HashMap<u128, V, DigestState>;

/// A set of digests.
pub type DigestSet = HashSet<u128, DigestState>;

/// The process's keys, drawn on first use.
static KEYS: LazyLock<(u64, u64)> = LazyLock::new(|| {
    let random = RandomState::new();
    (random.hash_one(0u64), random.hash_one(1u64))
});

/// Builds [`DigestHasher`]s under the process's keys.
#[derive(Debug, Clone, Copy)]
pub struct DigestState {
    keys: (u64, u64),
}

#[cfg(test)]
impl DigestState {
    /// A state under explicit keys.
    fn with_keys(k0: u64, k1: u64) -> Self {
        Self { keys: (k0, k1) }
    }
}

impl Default for DigestState {
    fn default() -> Self {
        Self { keys: *KEYS }
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher { keys: self.keys, hash: 0 }
    }
}

/// Folds a digest in one keyed multiply; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct DigestHasher {
    keys: (u64, u64),
    hash: u64,
}

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write_u128(&mut self, digest: u128) {
        let low = digest as u64 ^ self.keys.0 ^ self.hash;
        let high = (digest >> 64) as u64 ^ self.keys.1;
        let product = u128::from(low) * u128::from(high);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    /// Any other key folds 16 bytes at a time, zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut word = [0; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u128(u128::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N: usize = 10_000;

    /// Digests that share their low 64 bits.
    fn shared_low(low: u64, seed: u64) -> Vec<u128> {
        (0..N as u64).map(|i| u128::from(spread(seed, i)) << 64 | u128::from(low)).collect()
    }

    /// Digests whose two halves xor to `mask`.
    fn shared_xor(mask: u64, seed: u64) -> Vec<u128> {
        (0..N as u64)
            .map(|i| {
                let low = spread(seed, i);
                u128::from(low ^ mask) << 64 | u128::from(low)
            })
            .collect()
    }

    /// A distinct 64-bit value per `i` (an odd multiplier is a bijection).
    fn spread(seed: u64, i: u64) -> u64 {
        (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn hash(state: DigestState, digest: u128) -> u64 {
        state.hash_one(digest)
    }

    /// Distinct values among the low 16 bits of each digest's hash: the
    /// bucket index of a 65,536-bucket table.
    fn low16_buckets(state: DigestState, digests: &[u128]) -> usize {
        let buckets: HashSet<u64> = digests.iter().map(|&d| hash(state, d) & 0xffff).collect();
        buckets.len()
    }

    /// The digests in hash order.
    fn order(state: DigestState, digests: &[u128]) -> Vec<u128> {
        let mut sorted = digests.to_vec();
        sorted.sort_by_key(|&d| hash(state, d));
        sorted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Neither structured set collapses. 10⁴ uniformly random values
        /// fill about 9,274 of 65,536 buckets (`m·(1 − e^(−n/m))`, with a
        /// standard deviation near 24), so a keyed fold must come within a
        /// few deviations of that; a fold that dropped a half, or xored
        /// the halves, would put each set in one bucket. Two key pairs
        /// order each set differently.
        #[test]
        fn parity_digest_hasher_spreads_structured_digests(
            k0 in 0u64..=u64::MAX,
            k1 in 0u64..=u64::MAX,
            other in 0u64..=u64::MAX,
            low in 0u64..=u64::MAX,
            mask in 0u64..=u64::MAX,
            seed in 0u64..=u64::MAX,
        ) {
            let state = DigestState::with_keys(k0, k1);
            let rekeyed = DigestState::with_keys(k0 ^ other.max(1), k1.wrapping_add(other));
            for set in [shared_low(low, seed), shared_xor(mask, seed)] {
                let buckets = low16_buckets(state, &set);
                prop_assert!(buckets >= 9_100, "{buckets} distinct low-16-bit hashes");
                let full: HashSet<u64> = set.iter().map(|&d| hash(state, d)).collect();
                prop_assert!(full.len() >= N - 1, "{} distinct hashes", full.len());
                prop_assert_ne!(order(state, &set), order(rekeyed, &set));
            }
        }
    }
}
