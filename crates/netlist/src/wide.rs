//! Wide packed simulation words.
//!
//! The bit-parallel simulator historically carried 64 patterns per
//! `u64`. This module generalizes the packed value to any
//! [`PackedWord`] so the same gate-evaluation and fault-propagation
//! kernels monomorphize at two widths:
//!
//! - `u64` — the original single word, 64 patterns per pass. Still used
//!   wherever a 64-slot batch is semantically visible (the engine's
//!   random-phase keep/drop bookkeeping, the 64-cube fault-drop buffer).
//! - [`SimBlock`] — `[u64; 8]`, 512 patterns per pass. The lane-wise
//!   loops below are written so the autovectorizer can lift them to
//!   256/512-bit SIMD; no intrinsics, no new dependencies.
//!
//! Values are stored node-major (struct-of-arrays): a `Vec<SimBlock>`
//! keeps each node's eight words contiguous, so a gate evaluation
//! touches one cache line per fanin instead of gathering strided
//! words — the same CSR-flavoured layout `StructuralIndex` uses for
//! adjacency.

/// Number of `u64` lanes in a [`SimBlock`].
pub const BLOCK_WORDS: usize = 8;

/// Number of pattern slots in a [`SimBlock`] (`BLOCK_WORDS * 64`).
pub const BLOCK_BITS: usize = BLOCK_WORDS * 64;

/// A block of eight packed words: 512 simulation slots evaluated per
/// pass. Plain `[u64; 8]` so it stays `Copy` and the optimizer sees
/// straight-line lane arithmetic.
pub type SimBlock = [u64; BLOCK_WORDS];

/// A packed bundle of two-valued simulation slots.
///
/// Implementations must be slot-wise: every operation applies the
/// boolean op independently per bit, and `ZERO`/`ONES` fill every slot.
/// The fault-simulation kernel is generic over this trait and is
/// instantiated exactly twice (`u64`, [`SimBlock`]).
pub trait PackedWord: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// All slots at logic 0.
    const ZERO: Self;
    /// All slots at logic 1.
    const ONES: Self;

    /// Slot-wise AND.
    #[must_use]
    fn and(self, other: Self) -> Self;
    /// Slot-wise OR.
    #[must_use]
    fn or(self, other: Self) -> Self;
    /// Slot-wise XOR.
    #[must_use]
    fn xor(self, other: Self) -> Self;
    /// Slot-wise NOT.
    #[must_use]
    fn not(self) -> Self;
    /// Whether every slot is 0.
    #[must_use]
    fn is_zero(self) -> bool;
    /// Number of slots at logic 1.
    #[must_use]
    fn count_ones(self) -> u32;
}

impl PackedWord for u64 {
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline(always)]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    #[inline(always)]
    fn not(self) -> Self {
        !self
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
}

impl PackedWord for SimBlock {
    const ZERO: Self = [0; BLOCK_WORDS];
    const ONES: Self = [u64::MAX; BLOCK_WORDS];

    #[inline(always)]
    fn and(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(other) {
            *a &= b;
        }
        self
    }

    #[inline(always)]
    fn or(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(other) {
            *a |= b;
        }
        self
    }

    #[inline(always)]
    fn xor(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(other) {
            *a ^= b;
        }
        self
    }

    #[inline(always)]
    fn not(mut self) -> Self {
        for a in &mut self {
            *a = !*a;
        }
        self
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        self.iter().all(|&w| w == 0)
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        self.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(seed: u64) -> SimBlock {
        let mut b = [0u64; BLOCK_WORDS];
        for (i, w) in b.iter_mut().enumerate() {
            *w = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(i as u32 * 7)
                ^ (i as u64);
        }
        b
    }

    #[test]
    fn block_ops_are_lane_wise() {
        let a = blk(3);
        let b = blk(11);
        for i in 0..BLOCK_WORDS {
            assert_eq!(a.and(b)[i], a[i] & b[i]);
            assert_eq!(a.or(b)[i], a[i] | b[i]);
            assert_eq!(a.xor(b)[i], a[i] ^ b[i]);
            assert_eq!(PackedWord::not(a)[i], !a[i]);
        }
    }

    #[test]
    fn block_zero_ones_and_predicates() {
        assert!(SimBlock::ZERO.is_zero());
        assert!(!SimBlock::ONES.is_zero());
        assert_eq!(PackedWord::count_ones(SimBlock::ZERO), 0);
        assert_eq!(PackedWord::count_ones(SimBlock::ONES), BLOCK_BITS as u32);
        let a = blk(7);
        assert_eq!(
            PackedWord::count_ones(a),
            a.iter().map(|w| w.count_ones()).sum::<u32>()
        );
    }

    #[test]
    fn u64_impl_matches_native_ops() {
        let a = 0x5555_5555_5555_5555u64;
        let b = 0x3333_3333_3333_3333u64;
        assert_eq!(PackedWord::and(a, b), a & b);
        assert_eq!(PackedWord::or(a, b), a | b);
        assert_eq!(PackedWord::xor(a, b), a ^ b);
        assert_eq!(PackedWord::not(a), !a);
        assert!(0u64.is_zero());
        assert!(!1u64.is_zero());
    }
}
