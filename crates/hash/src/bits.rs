//! Hash-bit consumption, mirroring Listings 1 and 2 of the paper.
//!
//! Blocked Bloom filters address a block, then (optionally) a word within the
//! block, then a bit within the word — each step *consumes* a few hash bits
//! (`h = consume log2(x) hash bits`). Because multiplicative hashing mixes the
//! high bits best, bits are consumed from the most-significant end.
//!
//! [`HashBits`] is a small cursor over a 64-bit hash value. When more bits are
//! requested than remain, the cursor transparently rehashes the remaining
//! state with a second multiplicative constant, so arbitrarily many bits can be
//! drawn (needed e.g. for classic Bloom filters with large `k`). The blocked
//! variants never exceed 64 bits for realistic configurations, which is exactly
//! the computational saving the paper describes in §3.1.

use crate::mul::{ALT64, KNUTH64};

/// A cursor that consumes hash bits from the most-significant end of a 64-bit
/// hash state, rehashing when exhausted.
#[derive(Debug, Clone, Copy)]
pub struct HashBits {
    state: u64,
    /// Number of bits still considered "fresh" in `state`.
    remaining: u32,
    /// Total number of bits consumed so far (including bits obtained after
    /// rehashing); exposed for the hash-cost accounting in the model crate.
    consumed: u32,
}

impl HashBits {
    /// Create a cursor over a 64-bit hash value. All 64 bits are fresh.
    #[inline(always)]
    #[must_use]
    pub fn new(hash: u64) -> Self {
        Self {
            state: hash,
            remaining: 64,
            consumed: 0,
        }
    }

    /// Create a cursor from a 32-bit hash value (only 32 fresh bits).
    #[inline(always)]
    #[must_use]
    pub fn from_u32(hash: u32) -> Self {
        Self {
            state: u64::from(hash) << 32,
            remaining: 32,
            consumed: 0,
        }
    }

    /// Consume `n` bits (0 < n <= 32) and return them in the low bits of the
    /// result.
    ///
    /// # Panics
    /// Panics in debug builds if `n` is 0 or larger than 32.
    #[inline(always)]
    pub fn consume(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0 && n <= 32, "can consume between 1 and 32 bits");
        if self.remaining < n {
            // Refresh the state: remix what is left together with the amount
            // consumed so far so successive refreshes stay independent.
            self.state = (self.state ^ u64::from(self.consumed))
                .wrapping_mul(ALT64)
                .rotate_left(32)
                .wrapping_mul(KNUTH64);
            self.remaining = 64;
        }
        let out = (self.state >> (64 - n)) as u32;
        self.state <<= n;
        self.remaining -= n;
        self.consumed += n;
        out
    }

    /// Number of hash bits consumed so far (including regenerated bits).
    #[inline(always)]
    #[must_use]
    pub fn consumed(&self) -> u32 {
        self.consumed
    }
}

/// Number of bits needed to address `x` distinct values, i.e. `ceil(log2(x))`
/// with the convention that addressing a single value needs 0 bits.
#[inline(always)]
#[must_use]
pub fn address_bits(x: u64) -> u32 {
    debug_assert!(x > 0);
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_takes_top_bits_first() {
        let mut bits = HashBits::new(0xABCD_EF01_2345_6789);
        assert_eq!(bits.consume(8), 0xAB);
        assert_eq!(bits.consume(8), 0xCD);
        assert_eq!(bits.consume(16), 0xEF01);
        assert_eq!(bits.consumed(), 32);
    }

    #[test]
    fn consume_full_width() {
        let mut bits = HashBits::new(u64::MAX);
        assert_eq!(bits.consume(32), u32::MAX);
        assert_eq!(bits.consume(32), u32::MAX);
        assert_eq!(bits.consumed(), 64);
    }

    #[test]
    fn rehash_when_exhausted_produces_differing_values() {
        let mut bits = HashBits::new(0x1234_5678_9ABC_DEF0);
        let mut seen = Vec::new();
        for _ in 0..16 {
            seen.push(bits.consume(16));
        }
        // 16 * 16 = 256 bits consumed; at least some values after the refresh
        // must differ from the first four (the refresh is not an identity).
        assert_eq!(bits.consumed(), 256);
        let first_round = &seen[..4];
        let later = &seen[4..];
        assert!(later.iter().any(|v| !first_round.contains(v)));
    }

    #[test]
    fn from_u32_only_exposes_32_fresh_bits() {
        let mut bits = HashBits::from_u32(0xDEAD_BEEF);
        assert_eq!(bits.consume(16), 0xDEAD);
        assert_eq!(bits.consume(16), 0xBEEF);
        // Next consume triggers a refresh and must not panic.
        let _ = bits.consume(16);
        assert_eq!(bits.consumed(), 48);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = HashBits::new(1);
        let mut b = HashBits::new(2);
        let stream_a: Vec<u32> = (0..8).map(|_| a.consume(32)).collect();
        let stream_b: Vec<u32> = (0..8).map(|_| b.consume(32)).collect();
        assert_ne!(stream_a, stream_b);
    }

    #[test]
    fn address_bits_values() {
        assert_eq!(address_bits(1), 0);
        assert_eq!(address_bits(2), 1);
        assert_eq!(address_bits(3), 2);
        assert_eq!(address_bits(4), 2);
        assert_eq!(address_bits(5), 3);
        assert_eq!(address_bits(64), 6);
        assert_eq!(address_bits(65), 7);
        assert_eq!(address_bits(512), 9);
        assert_eq!(address_bits(1 << 32), 32);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "can consume between 1 and 32 bits")]
    fn consume_zero_bits_panics_in_debug() {
        let mut bits = HashBits::new(0);
        let _ = bits.consume(0);
    }
}
