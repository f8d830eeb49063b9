//! Shared utilities for the simulator's hot paths.
//!
//! Two hashing needs, two hashers:
//!
//! * [`FastHasher`] — a multiply-rotate hasher for the per-cycle hash maps
//!   inside the pipeline (`consumers`, `waiters`, MSHR tracking, the
//!   instruction window). Keys there are sequence numbers and small tuples;
//!   SipHash's DoS resistance buys nothing and costs a measurable slice of
//!   every simulated cycle. Use via [`FastHashMap`] / [`FastHashSet`].
//! * [`StableHasher`] — FNV-1a, for digests that must be *stable across
//!   processes and platforms* (configuration digests keying memoized
//!   simulation results). `std`'s `DefaultHasher` is seeded per-process and
//!   documented to change between releases, so it cannot key an on-disk or
//!   cross-run cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod inline_vec;
mod shard;

pub use hist::{render_buckets, Hist, HIST_BOUNDS_MS};
pub use inline_vec::InlineVec;
pub use shard::{ShardBuildHasher, ShardMap};

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher for in-process hash maps on the
/// simulator's hot path (rustc's FxHash construction: rotate, xor,
/// multiply by a 64-bit constant derived from the golden ratio).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(GOLDEN);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `HashMap` using [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` using [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// FNV-1a, a byte-at-a-time hash with a fixed, documented algorithm —
/// stable across processes, platforms and compiler versions, so its output
/// can key caches that outlive the current process.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> StableHasher {
        StableHasher { hash: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }

    /// The accumulated digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_hasher_distinguishes_keys() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for k in 0..1_000u64 {
            m.insert(k, k as u32 * 2);
        }
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(m.get(&k), Some(&(k as u32 * 2)));
        }
    }

    #[test]
    fn fast_hasher_handles_unaligned_tails() {
        let mut a = FastHasher::default();
        a.write(b"hello world");
        let mut b = FastHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stable_hasher_matches_known_fnv1a_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = StableHasher::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StableHasher::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn stable_hasher_is_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
