//! A small multiply-based hasher for the simulator's hot hash maps.
//!
//! The per-reference maps in the one-pass engine and the fully-associative
//! LRU core are keyed by line addresses — small, already well-mixed
//! integers — yet `std`'s default SipHash pays for DoS resistance on every
//! lookup. This module provides an FxHash-style hasher (rotate, xor,
//! multiply by a large odd constant) built only on `core`, so the offline
//! build needs no external crate. It is deterministic across runs and
//! platforms, which the replay-determinism tests rely on.
//!
//! Not exposed for untrusted keys: with attacker-chosen input this hasher
//! is trivially collidable. Every use in this workspace hashes addresses
//! produced by our own generators.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family: a large odd constant close to
/// 2^64 / φ, spreading consecutive keys across the high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one 64-bit word folded with rotate-xor-multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The state rotated so its high bits land in the low ones. The low
    /// bits of a product depend only on the key's low bits, and the map
    /// picks the starting bucket from the low bits: unrotated, keys that
    /// share their low bits (storage line numbers are multiples of 256)
    /// would start probing at only one bucket in 256. rustc-hash 2
    /// rotates the same way.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FastBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`]; drop-in for the simulator's
/// per-reference address maps.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_u64(n: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_u64(0xdead_beef), hash_u64(0xdead_beef));
        let b = FastBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
    }

    #[test]
    fn distinct_small_keys_do_not_collide_in_low_bits() {
        // HashMap uses the low bits for bucket selection; consecutive line
        // addresses must spread, and so must keys sharing their low bits
        // (storage blocks are 4 KiB apart, so their 16-byte line numbers
        // are multiples of 256). 4096 keys into 2^16 low-bit buckets
        // should see nowhere near 4096-way pileups.
        for stride in [1u64, 256] {
            let mut buckets = std::collections::HashSet::new();
            for k in 0u64..4096 {
                buckets.insert(hash_u64(k * stride) & 0xffff);
            }
            assert!(
                buckets.len() > 3000,
                "stride {stride}: only {} distinct buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn byte_stream_matches_itself_and_order_matters() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is a trace");
        let mut b = FxHasher::default();
        b.write(b"hello world, this is a trace");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"ecart a si siht, dlrow olleh");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn short_tails_with_different_lengths_differ() {
        // "ab" and "ab\0" must not hash alike (the tail is length-tagged).
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FastHashMap<u64, usize> = FastHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 16, i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(999 * 16)], 999);
        let mut s: FastHashSet<u64> = FastHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }
}
