//! One fast hasher for maps keyed by simulator ids.
//!
//! The controllers probe per-block maps on almost every message they
//! handle (memory lines, locks, directory entries, recreation serials),
//! and a few maps are keyed by processor or by node pair. Every such key
//! is a small integer the simulator generated itself, so the keyed
//! SipHash of the standard library's `RandomState` buys nothing here
//! and costs a few tens of nanoseconds per probe. [`IdMap`] hashes a key
//! with one folded multiply instead: the 128-bit product of the key and
//! an odd constant, low half xor high half.
//!
//! The fold matters. `SystemConfig::l2_bank_of` and `home_of` select an
//! L2 bank and a home chip by low block bits, so every block an L2 bank
//! or a memory controller sees shares those bits, and its keys arrive
//! at strides of 4, 16 or 64. A plain multiply keeps a stride's zero low
//! bits in the low bits of the product, which pick the table bucket, and
//! reaches only a quarter of the buckets at stride 4. Folding the high
//! half down spreads such keys as a random function would.
//!
//! A fixed hasher is safe here because no key comes from outside the
//! simulator, and no output depends on a map's iteration order: the
//! pinned fingerprints held across processes while every map used a
//! per-process random seed.
//!
//! # Example
//!
//! ```
//! use tokencmp_proto::{Block, IdMap};
//!
//! let mut m: IdMap<Block, u32> = IdMap::default();
//! m.insert(Block(0x40), 7);
//! assert_eq!(m.get(&Block(0x40)), Some(&7));
//! assert_eq!(std::mem::size_of::<IdMap<Block, u32>>(), 32);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a simulator id (block, processor, node or node
/// pair), hashed by [`IdHasher`]. Its `BuildHasher` is zero-sized.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The folded-multiply hasher behind [`IdMap`]. Each written integer is
/// mixed into the state as `fold(state ^ n)`.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher {
    hash: u64,
}

/// An odd multiplier: 2^64 divided by the golden ratio.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 128-bit product of `x` and [`K`], low half xor high half.
#[inline]
fn fold(x: u64) -> u64 {
    let p = u128::from(x) * u128::from(K);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Byte strings (unused by id keys) are taken eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = fold(self.hash ^ n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Distinct low-bit buckets reached by `n` keys `0, stride, 2·stride, …`
    /// under `hash`, out of `n` buckets.
    fn buckets_reached(n: u64, stride: u64, hash: impl Fn(u64) -> u64) -> usize {
        let mut seen = vec![false; n as usize];
        for k in 0..n {
            seen[(hash(k * stride) & (n - 1)) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn strided_keys_spread_over_half_the_buckets() {
        // A random function reaches 1 − 1/e ≈ 63% of the buckets.
        for stride in [1, 4, 64, 4096, 1 << 20] {
            let reached = buckets_reached(4096, stride, hash_of);
            assert!(
                reached >= 2048,
                "stride {stride}: {reached} of 4096 buckets reached"
            );
        }
    }

    #[test]
    fn a_plain_multiply_would_not() {
        // The reason for the fold: without it, a stride's zero low bits
        // survive into the bucket index.
        let plain = |x: u64| x.wrapping_mul(K);
        assert_eq!(buckets_reached(4096, 4, plain), 1024);
        assert_eq!(buckets_reached(4096, 64, plain), 64);
    }

    #[test]
    fn fixed_width_writes_match_the_widened_key() {
        // Every integer width is one fold of the key widened to 64 bits,
        // so a tuple key costs one multiply per field.
        assert_eq!(hash_of(7u16), fold(7));
        assert_eq!(hash_of(7u32), fold(7));
        assert_eq!(hash_of(7u64), fold(7));
        assert_eq!(hash_of((3u32, 9u32)), fold(fold(3) ^ 9));
        assert_ne!(hash_of((3u32, 9u32)), hash_of((9u32, 3u32)));
        // Byte strings take the fallback, eight bytes at a time.
        let mut h = IdHasher::default();
        h.write(&7u64.to_le_bytes());
        assert_eq!(h.finish(), fold(7));
    }
}
