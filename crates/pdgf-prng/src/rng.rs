//! PDGF random number generators.
//!
//! The paper: "PDGF uses xorshift random number generators, which behave
//! like hash functions." Concretely that means two properties matter more
//! than raw statistical strength:
//!
//! 1. **Cheap reseeding.** A generator is reseeded for *every field* of
//!    every row, so construction must be a handful of instructions.
//! 2. **Random access.** `PdgfDefaultRandom` is counter-based: the i-th
//!    draw is `mix(seed, i)`, so any position of the stream can be
//!    computed directly — the enabling trick for recomputing references
//!    instead of re-reading generated data.

use crate::mix::{mix64, mix64_pair};

/// A deterministic, reseedable random number generator.
///
/// All PDGF generators draw through this trait. Implementations must be
/// pure functions of their seed: two generators created with the same seed
/// yield identical streams forever.
pub trait PdgfRng {
    /// Create a generator from a 64-bit seed. Seeds are already
    /// avalanche-mixed by the [`SeedTree`](crate::seed::SeedTree), but
    /// implementations must also tolerate raw, correlated seeds.
    fn seed_from(seed: u64) -> Self
    where
        Self: Sized;

    /// Re-point this generator at a new seed without reconstructing it.
    /// This is the per-field hot path.
    fn reseed(&mut self, seed: u64);

    /// Next raw 64-bit draw.
    fn next_u64(&mut self) -> u64;

    /// Next draw in `[0, bound)` using Lemire's multiply-shift reduction
    /// (unbiased enough for data generation; the modulo bias of a 64-bit
    /// source over table-sized bounds is < 2^-40).
    #[inline]
    fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be positive");
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Next `f64` uniformly in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next `i64` uniformly in the inclusive range `[lo, hi]`.
    #[inline]
    fn next_i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span == 1 << 64 {
            return self.next_u64() as i64;
        }
        let draw = self.next_bounded(span as u64);
        (lo as i128 + draw as i128) as i64
    }

    /// Next boolean that is `true` with probability `p`.
    #[inline]
    fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

/// Which PRNG implementation a project uses.
///
/// Mirrors the `<rng name="...">` element of the PDGF XML configuration
/// (Listing 1 in the paper names `PdgfDefaultRandom`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RngKind {
    /// Counter-based hash generator — PDGF's default.
    #[default]
    PdgfDefault,
    /// Classic xorshift64* stream generator.
    XorShift64Star,
    /// xoroshiro128++ stream generator.
    Xoroshiro128PlusPlus,
}

impl RngKind {
    /// Parse the configuration name used in PDGF XML models.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "PdgfDefaultRandom" => Some(Self::PdgfDefault),
            "XorShift64Star" => Some(Self::XorShift64Star),
            "Xoroshiro128PlusPlus" => Some(Self::Xoroshiro128PlusPlus),
            _ => None,
        }
    }

    /// The configuration name used in PDGF XML models.
    pub fn name(self) -> &'static str {
        match self {
            Self::PdgfDefault => "PdgfDefaultRandom",
            Self::XorShift64Star => "XorShift64Star",
            Self::Xoroshiro128PlusPlus => "Xoroshiro128PlusPlus",
        }
    }
}

/// PDGF's default generator: a counter-based ("hash-style") RNG.
///
/// The i-th output for seed `s` is `mix64_pair(s, i)`. Reseeding is a
/// two-word store, and the stream supports O(1) random access via
/// [`PdgfDefaultRandom::at`].
#[derive(Debug, Clone)]
pub struct PdgfDefaultRandom {
    seed: u64,
    counter: u64,
}

impl PdgfDefaultRandom {
    /// O(1) random access: the `i`-th draw of the stream for `seed`.
    #[inline]
    pub fn at(seed: u64, i: u64) -> u64 {
        mix64_pair(seed, i)
    }

    /// The seed this generator currently draws from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws consumed since construction or the last
    /// [`reseed`](PdgfRng::reseed). Because the stream is counter-based,
    /// the counter *is* the draw count — `SchemaRuntime::value_counting`
    /// measures per-cell consumption with it.
    #[inline]
    pub fn draws(&self) -> u64 {
        self.counter
    }
}

impl PdgfRng for PdgfDefaultRandom {
    #[inline]
    fn seed_from(seed: u64) -> Self {
        Self { seed, counter: 0 }
    }

    #[inline]
    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.counter = 0;
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let v = mix64_pair(self.seed, self.counter);
        self.counter = self.counter.wrapping_add(1);
        v
    }
}

/// xorshift64* (Marsaglia xorshift with a multiplicative output scramble).
///
/// A stateful stream generator; faster per draw than the counter-based
/// default but without O(1) random access. Zero seeds are remapped through
/// [`mix64`] because the xorshift state must never be zero.
#[derive(Debug, Clone)]
pub struct XorShift64Star {
    state: u64,
}

impl PdgfRng for XorShift64Star {
    #[inline]
    fn seed_from(seed: u64) -> Self {
        let mut s = Self { state: 0 };
        s.reseed(seed);
        s
    }

    #[inline]
    fn reseed(&mut self, seed: u64) {
        let mixed = mix64(seed);
        self.state = if mixed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            mixed
        };
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// xoroshiro128++ (Blackman & Vigna): 128-bit state, excellent statistical
/// quality, used where longer streams are drawn from a single seed (e.g.
/// Markov text generation).
#[derive(Debug, Clone)]
pub struct Xoroshiro128PlusPlus {
    s0: u64,
    s1: u64,
}

impl PdgfRng for Xoroshiro128PlusPlus {
    #[inline]
    fn seed_from(seed: u64) -> Self {
        let mut s = Self { s0: 0, s1: 0 };
        s.reseed(seed);
        s
    }

    #[inline]
    fn reseed(&mut self, seed: u64) {
        // Two independent SplitMix64 steps, per the reference seeding advice.
        self.s0 = mix64(seed);
        self.s1 = mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        if self.s0 == 0 && self.s1 == 0 {
            self.s0 = 1;
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let (s0, mut s1) = (self.s0, self.s1);
        let result = s0.wrapping_add(s1).rotate_left(17).wrapping_add(s0);
        s1 ^= s0;
        self.s0 = s0.rotate_left(49) ^ s1 ^ (s1 << 21);
        self.s1 = s1.rotate_left(28);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<R: PdgfRng>() {
        let mut a = R::seed_from(12_456_789);
        let mut b = R::seed_from(12_456_789);
        let stream_a: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let stream_b: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(stream_a, stream_b, "same seed must give same stream");

        let mut c = R::seed_from(1);
        let stream_c: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_ne!(stream_a, stream_c, "different seeds must diverge");

        // reseed restarts the stream
        a.reseed(12_456_789);
        let replay: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        assert_eq!(replay, stream_a);
    }

    #[test]
    fn all_rngs_are_repeatable() {
        exercise::<PdgfDefaultRandom>();
        exercise::<XorShift64Star>();
        exercise::<Xoroshiro128PlusPlus>();
    }

    #[test]
    fn default_random_has_random_access() {
        let mut r = PdgfDefaultRandom::seed_from(99);
        let seq: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        for (i, v) in seq.iter().enumerate() {
            assert_eq!(PdgfDefaultRandom::at(99, i as u64), *v);
        }
    }

    #[test]
    fn zero_seed_is_safe() {
        let mut x = XorShift64Star::seed_from(0);
        let mut y = Xoroshiro128PlusPlus::seed_from(0);
        let mut z = PdgfDefaultRandom::seed_from(0);
        // Streams must not be stuck at zero.
        assert!((0..8).map(|_| x.next_u64()).any(|v| v != 0));
        assert!((0..8).map(|_| y.next_u64()).any(|v| v != 0));
        assert!((0..8).map(|_| z.next_u64()).any(|v| v != 0));
    }

    #[test]
    fn bounded_draws_respect_bound() {
        let mut r = PdgfDefaultRandom::seed_from(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_draws_cover_small_domains() {
        let mut r = XorShift64Star::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.next_bounded(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_draws_are_in_unit_interval_and_roughly_uniform() {
        let mut r = Xoroshiro128PlusPlus::seed_from(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / f64::from(n);
        assert!((0.49..0.51).contains(&mean), "mean {mean}");
    }

    #[test]
    fn i64_range_draws_hit_endpoints() {
        let mut r = PdgfDefaultRandom::seed_from(5);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.next_i64_in(-3, 3);
            assert!((-3..=3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 3;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn i64_full_domain_is_supported() {
        let mut r = PdgfDefaultRandom::seed_from(17);
        // Must not overflow / panic.
        for _ in 0..100 {
            let _ = r.next_i64_in(i64::MIN, i64::MAX);
        }
    }

    #[test]
    fn bool_probabilities_are_calibrated() {
        let mut r = PdgfDefaultRandom::seed_from(23);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.next_bool(0.25)).count();
        let frac = hits as f64 / f64::from(n);
        assert!((0.24..0.26).contains(&frac), "frac {frac}");
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
        assert!((0..100).all(|_| r.next_bool(1.0)));
    }

    #[test]
    fn default_random_counter_is_the_draw_count() {
        let mut r = PdgfDefaultRandom::seed_from(3);
        assert_eq!(r.draws(), 0);
        r.next_u64();
        r.next_f64();
        assert_eq!(r.draws(), 2);
        r.reseed(4);
        assert_eq!(r.draws(), 0);
    }

    #[test]
    fn rng_kind_roundtrips_names() {
        for kind in [
            RngKind::PdgfDefault,
            RngKind::XorShift64Star,
            RngKind::Xoroshiro128PlusPlus,
        ] {
            assert_eq!(RngKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(RngKind::parse("nope"), None);
    }
}
