//! 64-bit avalanche mixing functions.
//!
//! These are the "hash function" heart of PDGF's repeatable generation:
//! a child seed is derived from a parent seed and an index with a single
//! invertible, avalanche-quality mix, so any node of the seeding hierarchy
//! can be reached in O(depth) integer operations without shared state.

/// SplitMix64 finalizer (Vigna). Full avalanche: every input bit affects
/// every output bit with probability close to 1/2.
///
/// This is the canonical seed-stretching function: it turns correlated
/// inputs (e.g. consecutive row numbers) into statistically independent
/// 64-bit values.
#[inline(always)]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stafford's "Mix13" variant of the SplitMix64 finalizer. Slightly better
/// avalanche statistics than [`mix64`]; used where two mixed values are
/// combined (seed-tree child derivation).
#[inline(always)]
pub fn stafford13(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child value from `(parent, index)`.
///
/// The combination is *not* plain XOR of the two mixes (which would make
/// `mix(a, b) == mix(b, a)` and collide sibling subtrees); the golden-ratio
/// offset keeps the pair ordered.
#[inline(always)]
pub fn mix64_pair(parent: u64, index: u64) -> u64 {
    stafford13(parent ^ index_mix(index))
}

/// The half of [`mix64_pair`] that depends on the index alone.
#[inline(always)]
pub(crate) const fn index_mix(index: u64) -> u64 {
    mix64(
        index
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Indices whose [`index_mix`] is tabulated in [`INDEX_MIX`]: a cell's
/// first draws, where nearly every cell stays.
pub(crate) const INDEX_MIX_LEN: usize = 64;

/// `INDEX_MIX[i]` is `index_mix(i)`, so the first [`INDEX_MIX_LEN`] draws
/// of a counter stream cost one load and [`stafford13`]'s two multiplies
/// instead of five.
pub(crate) const INDEX_MIX: [u64; INDEX_MIX_LEN] = {
    let mut table = [0; INDEX_MIX_LEN];
    let mut i = 0;
    while i < INDEX_MIX_LEN {
        table[i] = index_mix(i as u64);
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_eq!(mix64_pair(1, 2), mix64_pair(1, 2));
    }

    #[test]
    fn mix64_zero_is_not_zero() {
        // A zero seed must not propagate a degenerate all-zero stream.
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64_pair(0, 0), 0);
    }

    #[test]
    fn mix64_pair_is_order_sensitive() {
        assert_ne!(mix64_pair(1, 2), mix64_pair(2, 1));
    }

    #[test]
    fn sequential_inputs_have_no_small_collisions() {
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn child_derivation_separates_siblings_and_cousins() {
        // Children of the same parent differ, and the same index under
        // different parents differs.
        let mut seen = HashSet::new();
        for parent in 0..100u64 {
            for index in 0..100u64 {
                assert!(seen.insert(mix64_pair(mix64(parent), index)));
            }
        }
    }

    #[test]
    fn avalanche_single_bit_flip_changes_roughly_half_the_bits() {
        let mut total = 0u32;
        let samples = 4096u64;
        for i in 0..samples {
            let a = mix64(i);
            let b = mix64(i ^ 1);
            total += (a ^ b).count_ones();
        }
        let avg = f64::from(total) / samples as f64;
        assert!((24.0..40.0).contains(&avg), "weak avalanche: {avg}");
    }
}
