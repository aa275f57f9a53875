//! Workload generation: deterministic, cheaply verifiable block contents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fill `buf` with a deterministic pseudo-random pattern derived from
/// `seed` and the block index — cheap to generate, and any
/// truncation/reordering/corruption in the transfer is caught by
/// [`verify_pattern`].
pub fn fill_pattern(buf: &mut [u8], seed: u64, block_index: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ block_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Fill 8 bytes at a time; tail byte-wise.
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&rng.gen::<u64>().to_le_bytes());
    }
    for b in chunks.into_remainder() {
        *b = rng.gen();
    }
}

/// Check that `buf` holds exactly the pattern of (`seed`, `block_index`).
pub fn verify_pattern(buf: &[u8], seed: u64, block_index: u64) -> bool {
    let mut expect = vec![0u8; buf.len()];
    fill_pattern(&mut expect, seed, block_index);
    expect == buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_roundtrip() {
        let mut buf = vec![0u8; 10_007];
        fill_pattern(&mut buf, 42, 3);
        assert!(verify_pattern(&buf, 42, 3));
        assert!(!verify_pattern(&buf, 42, 4));
        assert!(!verify_pattern(&buf, 43, 3));
    }

    #[test]
    fn pattern_detects_corruption() {
        let mut buf = vec![0u8; 4096];
        fill_pattern(&mut buf, 1, 1);
        buf[2000] ^= 1;
        assert!(!verify_pattern(&buf, 1, 1));
    }

    #[test]
    fn distinct_blocks_are_distinct() {
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        fill_pattern(&mut a, 7, 0);
        fill_pattern(&mut b, 7, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_buffers() {
        let mut empty: [u8; 0] = [];
        fill_pattern(&mut empty, 0, 0);
        assert!(verify_pattern(&empty, 0, 0));
    }
}
