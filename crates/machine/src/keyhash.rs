//! The multiply-rotate hasher behind the engine's integer-keyed maps.

use std::hash::Hasher;

/// Multiply-rotate hasher for integer keys: the rate solver's flow kinds
/// (cap bits and resource indices) and memo keys (kind ids). The keys
/// come from the simulated programs, never bytes from outside the
/// process, so SipHash's flooding resistance buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    pub(crate) fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }
}
