//! Deterministic pseudo-random permutations over `[0, n)`.
//!
//! PDGF needs bijections for two jobs:
//!
//! * **Unique keys in scrambled order** — an ID generator can emit
//!   `permute(row)` instead of `row` so keys are unique but not sorted.
//! * **Consistent references** — a child table can map its rows onto
//!   parent rows so every parent is hit a predictable number of times.
//!
//! We use a balanced Feistel network over the smallest even-bit-width
//! domain covering `n`, with cycle-walking to stay inside `[0, n)`.
//! Expected walk length is < 4 steps because the cover domain is at most
//! 4× the target domain.
//!
//! A round's output depends only on its key and one half of the block, so
//! for half-widths up to 12 bits (`TABLE_HALF_BITS`) the constructor evaluates the
//! round function once per (round, half) and every encryption reads a
//! cache-resident table instead of running four dependent mixes.

use crate::mix::mix64_pair;

/// A keyed pseudo-random bijection over `[0, n)`.
#[derive(Debug, Clone)]
pub struct FeistelPermutation {
    n: u64,
    half_bits: u32,
    half_mask: u64,
    round_keys: [u64; ROUNDS],
    /// `table[round << half_bits | half]` is round `round`'s output on
    /// `half`; empty when `half_bits` exceeds [`TABLE_HALF_BITS`].
    table: Vec<u16>,
}

const ROUNDS: usize = 4;

/// Widest half block whose round outputs are tabulated: 4 rounds × 2^12
/// `u16` entries is 32 KiB and 16K mixes per permutation, covering every
/// domain up to 2^24. A constant rather than an option, so a permutation's
/// speed never depends on configuration; wider domains run the round
/// function directly, the only path that serves `n > 2^24`.
const TABLE_HALF_BITS: u32 = 12;

impl FeistelPermutation {
    /// Create a permutation of `[0, n)` keyed by `seed`. `n` must be >= 1.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n >= 1, "empty domain");
        // Cover domain: 2^(2*half_bits) >= n, smallest such even width.
        let bits = 64 - (n.saturating_sub(1)).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let half_mask = (1u64 << half_bits) - 1;
        let mut round_keys = [0u64; ROUNDS];
        for (i, key) in round_keys.iter_mut().enumerate() {
            *key = mix64_pair(seed, i as u64);
        }
        let mut p = Self {
            n,
            half_bits,
            half_mask,
            round_keys,
            table: Vec::new(),
        };
        if half_bits <= TABLE_HALF_BITS {
            let mut table = Vec::with_capacity(ROUNDS << half_bits);
            for round in 0..ROUNDS {
                table.extend((0..=half_mask).map(|half| p.mix(round, half) as u16));
            }
            p.table = table;
        }
        p
    }

    /// Domain size.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The round function: round `round`'s output on half block `half`.
    #[inline]
    fn mix(&self, round: usize, half: u64) -> u64 {
        mix64_pair(self.round_keys[round], half) & self.half_mask
    }

    /// [`mix`](Self::mix), read from the table when there is one.
    #[inline]
    fn round(&self, round: usize, half: u64) -> u64 {
        match self.table.get((round << self.half_bits) | half as usize) {
            Some(&f) => u64::from(f),
            None => self.mix(round, half),
        }
    }

    #[inline]
    fn encrypt_once(&self, x: u64) -> u64 {
        let mut left = (x >> self.half_bits) & self.half_mask;
        let mut right = x & self.half_mask;
        for round in 0..ROUNDS {
            let f = self.round(round, right);
            let new_left = right;
            right = left ^ f;
            left = new_left;
        }
        (left << self.half_bits) | right
    }

    /// Map `x` in `[0, n)` to its permuted position.
    #[inline]
    pub fn permute(&self, x: u64) -> u64 {
        debug_assert!(x < self.n, "input outside domain");
        // Cycle walk: keep encrypting until we land back inside [0, n).
        let mut y = self.encrypt_once(x);
        while y >= self.n {
            y = self.encrypt_once(y);
        }
        y
    }

    /// Invert the permutation: find `x` such that `permute(x) == y`.
    #[inline]
    pub fn invert(&self, y: u64) -> u64 {
        debug_assert!(y < self.n, "input outside domain");
        let mut x = self.decrypt_once(y);
        while x >= self.n {
            x = self.decrypt_once(x);
        }
        x
    }

    #[inline]
    fn decrypt_once(&self, x: u64) -> u64 {
        let mut left = (x >> self.half_bits) & self.half_mask;
        let mut right = x & self.half_mask;
        for round in (0..ROUNDS).rev() {
            let f = self.round(round, left);
            let new_right = left;
            left = right ^ f;
            right = new_right;
        }
        (left << self.half_bits) | right
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn is_a_bijection_on_assorted_domains() {
        for n in [1u64, 2, 3, 7, 64, 100, 1000, 4096, 10_007] {
            let p = FeistelPermutation::new(n, 42);
            let mut seen = HashSet::with_capacity(n as usize);
            for x in 0..n {
                let y = p.permute(x);
                assert!(y < n, "out of domain: {y} >= {n}");
                assert!(seen.insert(y), "duplicate image for domain {n}");
            }
        }
    }

    #[test]
    fn invert_roundtrips() {
        let p = FeistelPermutation::new(12_345, 7);
        for x in 0..12_345 {
            assert_eq!(p.invert(p.permute(x)), x);
        }
    }

    #[test]
    fn different_seeds_give_different_permutations() {
        let a = FeistelPermutation::new(1000, 1);
        let b = FeistelPermutation::new(1000, 2);
        let diffs = (0..1000).filter(|&x| a.permute(x) != b.permute(x)).count();
        assert!(diffs > 900, "permutations nearly identical: {diffs}");
    }

    #[test]
    fn output_looks_scrambled() {
        // Not a randomness test — just ensure it is far from identity.
        let p = FeistelPermutation::new(10_000, 99);
        let fixed = (0..10_000).filter(|&x| p.permute(x) == x).count();
        assert!(fixed < 30, "too many fixed points: {fixed}");
    }

    #[test]
    fn domain_of_one_maps_zero_to_zero() {
        let p = FeistelPermutation::new(1, 5);
        assert_eq!(p.permute(0), 0);
        assert_eq!(p.invert(0), 0);
        assert_eq!(p.domain(), 1);
    }

    #[test]
    fn large_domain_sanity() {
        let n = 1u64 << 40;
        let p = FeistelPermutation::new(n, 3);
        let mut seen = HashSet::new();
        for x in (0..n).step_by(1 << 30).chain([n - 1]) {
            let y = p.permute(x);
            assert!(y < n);
            assert_eq!(p.invert(y), x);
            seen.insert(y);
        }
        assert!(seen.len() > 1);
    }

    /// `permute` outputs captured before the round table existed, on both
    /// sides of the cap (2^24 tabulates, 2^24 + 1 and up run the rounds).
    #[test]
    fn outputs_match_the_direct_round_function_goldens() {
        #[rustfmt::skip]
        let golden: [(u64, u64, [u64; 5], [u64; 5]); 9] = [
            (1, 5, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]),
            (2, 9, [0, 1, 0, 1, 1], [0, 1, 0, 1, 1]),
            (1000, 42, [0, 1, 333, 500, 999], [315, 164, 701, 632, 917]),
            (75_000, 0x5eed, [0, 1, 25_000, 37_500, 74_999], [32_830, 33_796, 70_147, 36_256, 67_794]),
            (6_000_000, 7, [0, 1, 2_000_000, 3_000_000, 5_999_999], [4_418_764, 2_951_588, 509_015, 2_673_065, 574_561]),
            (1 << 24, 11, [0, 1, 5_592_405, 8_388_608, 16_777_215], [2_666_546, 109_365, 15_086_769, 6_437_665, 12_701_975]),
            ((1 << 24) + 1, 11, [0, 1, 5_592_405, 8_388_608, 16_777_216], [11_994_053, 16_231_851, 11_029_429, 10_448_487, 16_270_038]),
            (1 << 25, 3, [0, 1, 11_184_810, 16_777_216, 33_554_431], [26_596_069, 17_945_787, 31_802_440, 11_148_132, 23_746_447]),
            (1 << 40, 3, [0, 1, 366_503_875_925, 549_755_813_888, 1_099_511_627_775], [296_260_995_621, 59_109_485_456, 806_531_401_131, 755_687_673_696, 529_909_575_116]),
        ];
        for (n, seed, xs, ys) in golden {
            let p = FeistelPermutation::new(n, seed);
            for (x, y) in xs.into_iter().zip(ys) {
                assert_eq!(p.permute(x), y, "n {n} seed {seed} x {x}");
                assert_eq!(p.invert(y), x, "n {n} seed {seed} y {y}");
            }
        }
        // FNV-1a over every image, same capture.
        for (n, seed, digest) in [
            (1000u64, 42u64, 0xad84_b238_0bc9_a74b_u64),
            (4097, 1, 0x36e3_2671_43c4_26ef),
            (75_000, 0x5eed, 0x8beb_239c_8efe_1abf),
        ] {
            let p = FeistelPermutation::new(n, seed);
            let h = (0..n).fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
                (h ^ p.permute(x)).wrapping_mul(0x100_0000_01b3)
            });
            assert_eq!(h, digest, "n {n} seed {seed}");
        }
    }

    #[test]
    fn table_holds_the_round_function() {
        for n in [1u64, 3, 1000, 75_000, 1 << 24] {
            let p = FeistelPermutation::new(n, n ^ 0xabc);
            assert_eq!(p.table.len(), ROUNDS << p.half_bits);
            assert_eq!(p.table.capacity(), p.table.len());
            for round in 0..ROUNDS {
                for half in 0..=p.half_mask {
                    let f = mix64_pair(p.round_keys[round], half) & p.half_mask;
                    assert_eq!(
                        u64::from(p.table[(round << p.half_bits) | half as usize]),
                        f
                    );
                }
            }
        }
    }

    #[test]
    fn domains_past_the_cap_run_the_round_function() {
        let p = FeistelPermutation::new((1 << 24) + 1, 9);
        assert_eq!(p.half_bits, TABLE_HALF_BITS + 1);
        assert!(p.table.is_empty());
        let q = FeistelPermutation::new(1 << 24, 9);
        assert_eq!(q.half_bits, TABLE_HALF_BITS);
        assert!(!q.table.is_empty());
    }

    /// The widest tabulated half below the cap's full domain: 2^22 + 1
    /// covers with 2^12-bit halves like 2^24 does, in a quarter the time.
    #[test]
    fn full_domain_just_under_the_cap_is_a_bijection() {
        let n = (1u64 << 22) + 1;
        let p = FeistelPermutation::new(n, 77);
        assert_eq!(p.half_bits, TABLE_HALF_BITS);
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = p.permute(x);
            assert!(
                !std::mem::replace(&mut seen[y as usize], true),
                "duplicate image {y}"
            );
            assert_eq!(p.invert(y), x);
        }
    }
}
