//! Hash tables keyed by cache-block number.
//!
//! Trace ingestion and measurement look up a block's table entry once per
//! reference, so the default SipHash costs more than the work around it.
//! The hasher here is fixed, not keyed: block numbers come from trace files
//! the user names on the command line, so a file crafted to make blocks
//! collide could only slow down the run that reads it. The hasher must
//! still mix every key bit into the low bits: the table picks a bucket by
//! the low bits of the hash, and strided block numbers (every 1024th block,
//! say) share their low bits. A bare multiply leaves those zero bits in
//! place; the splitmix64 finalizer spreads them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map from block number to `V`.
pub(crate) type BlockMap<V> = HashMap<u64, V, BuildHasherDefault<BlockHasher>>;

/// A set of block numbers.
pub(crate) type BlockSet = HashSet<u64, BuildHasherDefault<BlockHasher>>;

/// The splitmix64 finalizer: a bijection on `u64` in which every input
/// bit flips each output bit with probability about one half.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a `u64` key with one [`mix`]. Other writes fold their bytes in
/// eight at a time, so the hasher stays correct for any key type.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<BlockHasher>::default().hash_one(key)
    }

    #[test]
    fn strided_blocks_spread_over_the_low_bits() {
        // 4096 keys 1024 blocks apart share their low ten bits. Thrown
        // into 4096 buckets by their low twelve hash bits, random keys
        // fill about 1 - 1/e of them (2589).
        for stride in [1u64, 1024, 1 << 20, 4096 * 4096] {
            let buckets: BlockSet = (0..4096).map(|i| hash(i * stride) & 4095).collect();
            assert!(buckets.len() > 2400, "stride {stride}: {} buckets", buckets.len());
        }
        // A bare odd multiply keeps the ten zero bits: 4 buckets of 4096.
        let multiplied: BlockSet =
            (0..4096u64).map(|i| (i * 1024).wrapping_mul(0x9e37_79b9_7f4a_7c15) & 4095).collect();
        assert_eq!(multiplied.len(), 4);
    }

    #[test]
    fn each_input_bit_flips_about_half_the_output_bits() {
        for bit in 0..64 {
            let flipped: u32 = (0..256u64)
                .map(|k| (hash(k * 977) ^ hash((k * 977) ^ (1 << bit))).count_ones())
                .sum();
            let mean = f64::from(flipped) / 256.0;
            assert!((mean - 32.0).abs() < 2.0, "bit {bit}: {mean} bits flip on average");
        }
    }

    #[test]
    fn byte_writes_fold_into_the_hash() {
        let mut a = BlockHasher::default();
        a.write(b"block 17");
        let mut b = BlockHasher::default();
        b.write(b"block 18");
        assert_ne!(a.finish(), b.finish());
    }
}
