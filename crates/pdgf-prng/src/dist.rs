//! Repeatable probability distributions.
//!
//! PDGF generators parameterize their draws with distributions so that
//! DBSynth-extracted statistics (histograms, skew) can be replayed. All
//! distributions are immutable after construction and draw through any
//! [`PdgfRng`], so the same distribution object can be shared across
//! worker threads.

use crate::rng::PdgfRng;

/// A repeatable distribution over `f64` draws.
pub trait Distribution {
    /// Sample one value using the supplied generator.
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64;

    /// Convenience: sample using a [`PdgfRng`].
    fn sample_with<R: PdgfRng>(&self, rng: &mut R) -> f64
    where
        Self: Sized,
    {
        self.sample(&mut || rng.next_u64())
    }
}

#[inline]
fn unit(rng: &mut dyn FnMut() -> u64) -> f64 {
    (rng() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform distribution over `[lo, hi)` in `f64`.
#[derive(Debug, Clone, Copy)]
pub struct UniformF64 {
    lo: f64,
    hi: f64,
}

impl UniformF64 {
    /// A uniform distribution over `[lo, hi)`. `lo` must be `<= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid uniform range");
        Self { lo, hi }
    }
}

impl Distribution for UniformF64 {
    #[inline]
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.lo + unit(rng) * (self.hi - self.lo)
    }
}

/// Uniform distribution over the inclusive integer range `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub struct UniformI64 {
    lo: i64,
    span: u64,
}

impl UniformI64 {
    /// A uniform distribution over `[lo, hi]`. `lo` must be `<= hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "invalid uniform range");
        Self {
            lo,
            span: (hi as i128 - lo as i128 + 1) as u64,
        }
    }

    /// Sample an integer directly.
    #[inline]
    pub fn sample_i64(&self, rng: &mut dyn FnMut() -> u64) -> i64 {
        // span == 0 encodes the full 2^64 domain.
        if self.span == 0 {
            return rng() as i64;
        }
        let draw = ((u128::from(rng()) * u128::from(self.span)) >> 64) as u64;
        (self.lo as i128 + draw as i128) as i64
    }
}

impl Distribution for UniformI64 {
    #[inline]
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.sample_i64(rng) as f64
    }
}

/// Normal (Gaussian) distribution via the Box–Muller transform.
///
/// Box–Muller draws pairs; for deterministic replay simplicity we discard
/// the second variate instead of caching it (generators reseed per field,
/// so cached state would leak across cells).
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    stddev: f64,
}

impl Normal {
    /// Normal distribution with the given mean and standard deviation.
    pub fn new(mean: f64, stddev: f64) -> Self {
        assert!(stddev >= 0.0, "negative stddev");
        Self { mean, stddev }
    }
}

impl Distribution for Normal {
    #[inline]
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        // Avoid ln(0): map the draw into (0, 1].
        let u1 = 1.0 - unit(rng);
        let u2 = unit(rng);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.stddev * r * theta.cos()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Exponential distribution with the given rate (> 0).
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        Self { lambda }
    }
}

impl Distribution for Exponential {
    #[inline]
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        -(1.0 - unit(rng)).ln() / self.lambda
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `theta`.
///
/// Uses the classic Gray et al. (SIGMOD '94, "Quickly Generating
/// Billion-Record Synthetic Databases") inverse-CDF approximation with a
/// precomputed normalization constant, so sampling is O(1) and the object
/// is shareable across threads.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// CDF threshold (in `zetan` units) below which a draw is rank 2.
    rank2: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Zipf over `1..=n` with skew `theta` in `[0, 1)`.
    ///
    /// `theta = 0` is exactly uniform; values near 1 are highly skewed.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        // For n <= 2 the sampler never leaves the explicit rank-1/rank-2
        // branches (zeta2 == zetan makes their CDF thresholds exhaustive),
        // but the Gray et al. eta formula divides by `1 - zeta2/zetan`,
        // which is 0/0 there. Store a finite placeholder instead of
        // NaN/inf so the struct stays well-formed.
        let eta = if n <= 2 {
            0.0
        } else {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        };
        Self {
            n,
            rank2: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, integral approximation beyond a cutoff: the
        // tail of sum 1/i^theta converges to the integral fast enough for
        // generation purposes.
        const EXACT: u64 = 10_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            let a = EXACT as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Sample a rank in `1..=n`. Rank 1 is the most frequent value.
    #[inline]
    pub fn sample_rank(&self, rng: &mut dyn FnMut() -> u64) -> u64 {
        let u = unit(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if uz < self.rank2 && self.n >= 2 {
            return 2;
        }
        let rank = 1.0 + (self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (rank as u64).clamp(1, self.n)
    }

    /// The domain size.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The normalization constant (exposed for tests).
    pub fn zetan(&self) -> f64 {
        self.zetan
    }

    /// The two-element zeta constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

impl Distribution for Zipf {
    #[inline]
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Walker alias method for O(1) sampling from an arbitrary discrete
/// distribution. This backs dictionary generators whose per-entry
/// probabilities come from DBSynth sampling.
#[derive(Debug, Clone)]
pub struct Alias {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Alias {
    /// Build an alias table from (not necessarily normalized) weights.
    ///
    /// Zero-weight entries are valid and will never be drawn (unless all
    /// weights are zero, in which case the distribution degenerates to
    /// uniform).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table limited to u32 indices"
        );
        let n = weights.len();
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        let scaled: Vec<f64> = if total > 0.0 {
            weights
                .iter()
                .map(|&w| if w > 0.0 { w * n as f64 / total } else { 0.0 })
                .collect()
        } else {
            vec![1.0; n]
        };

        let mut prob = vec![0.0; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        let mut work = scaled;
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s as usize] = work[s as usize];
            alias[s as usize] = l;
            work[l as usize] = (work[l as usize] + work[s as usize]) - 1.0;
            if work[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        Self { prob, alias }
    }

    /// Sample an index into the original weight vector.
    #[inline]
    pub fn sample_index(&self, rng: &mut dyn FnMut() -> u64) -> usize {
        let draw = rng();
        let n = self.prob.len() as u64;
        // Bucket and coin must come from disjoint bits: the bucket claims a
        // contiguous range of the full 64-bit draw, so within one bucket the
        // draw's low bits are *not* uniform (for large n they are pinned to
        // a narrow window), which skews the acceptance coin. High 32 bits
        // pick the bucket, low 32 bits flip the coin.
        let hi = draw >> 32;
        let i = ((hi * n) >> 32) as usize;
        let coin = (draw & 0xFFFF_FFFF) as f64 * (1.0 / 4_294_967_296.0);
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Slot `i` of the table: the probability of keeping bucket `i` and
    /// the index drawn instead. [`sample_index`](Self::sample_index) reads
    /// exactly these, so a caller may lay the slots out its own way.
    pub fn slot(&self, i: usize) -> (f64, u32) {
        (self.prob[i], self.alias[i])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true: construction requires at
    /// least one weight).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

impl Distribution for Alias {
    #[inline]
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.sample_index(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{PdgfDefaultRandom, PdgfRng};

    fn draws<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = PdgfDefaultRandom::seed_from(seed);
        (0..n).map(|_| d.sample_with(&mut rng)).collect()
    }

    #[test]
    fn uniform_f64_bounds_and_mean() {
        let d = UniformF64::new(10.0, 20.0);
        let xs = draws(&d, 50_000, 1);
        assert!(xs.iter().all(|&x| (10.0..20.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((14.9..15.1).contains(&mean), "mean {mean}");
    }

    #[test]
    fn uniform_i64_covers_inclusive_range() {
        let d = UniformI64::new(-2, 2);
        let mut rng = PdgfDefaultRandom::seed_from(2);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            let v = d.sample_i64(&mut || rng.next_u64());
            counts[(v + 2) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 8_000, "bucket {i} undersampled: {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(100.0, 15.0);
        let xs = draws(&d, 100_000, 3);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((99.5..100.5).contains(&mean), "mean {mean}");
        assert!((200.0..250.0).contains(&var), "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.5);
        let xs = draws(&d, 100_000, 4);
        assert!(xs.iter().all(|&x| x >= 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((1.95..2.05).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(1000, 0.8);
        let mut rng = PdgfDefaultRandom::seed_from(5);
        let mut ones = 0;
        let mut max_rank = 0;
        for _ in 0..50_000 {
            let r = d.sample_rank(&mut || rng.next_u64());
            assert!((1..=1000).contains(&r));
            if r == 1 {
                ones += 1;
            }
            max_rank = max_rank.max(r);
        }
        // With theta=0.8, rank 1 has probability zeta-normalized ~ 13%.
        assert!(ones > 3_000, "rank 1 drawn only {ones} times");
        assert!(max_rank > 500, "tail never sampled, max {max_rank}");
    }

    #[test]
    fn zipf_large_domain_uses_integral_tail() {
        // Should construct quickly even with n far above the exact cutoff.
        let d = Zipf::new(100_000_000, 0.5);
        assert!(d.zetan() > Zipf::new(10_000, 0.5).zetan());
        let mut rng = PdgfDefaultRandom::seed_from(6);
        for _ in 0..1000 {
            let r = d.sample_rank(&mut || rng.next_u64());
            assert!((1..=100_000_000).contains(&r));
        }
    }

    #[test]
    fn zipf_tiny_domains_are_finite_and_exact() {
        // n = 1 and n = 2 make the Gray et al. eta denominator 0/0; the
        // constructor must not poison the struct with NaN/inf.
        let one = Zipf::new(1, 0.5);
        assert!(one.zetan().is_finite());
        let mut rng = PdgfDefaultRandom::seed_from(40);
        for _ in 0..1_000 {
            assert_eq!(one.sample_rank(&mut || rng.next_u64()), 1);
        }

        for theta in [0.0, 0.3, 0.99] {
            let two = Zipf::new(2, theta);
            assert!(two.zetan().is_finite(), "theta={theta}");
            let mut rng = PdgfDefaultRandom::seed_from(41);
            let n = 100_000u32;
            let mut ones = 0u32;
            for _ in 0..n {
                match two.sample_rank(&mut || rng.next_u64()) {
                    1 => ones += 1,
                    2 => {}
                    r => panic!("rank {r} out of domain"),
                }
            }
            // P(rank 1) = 1 / (1 + 0.5^theta).
            let expect = 1.0 / (1.0 + 0.5f64.powf(theta));
            let got = f64::from(ones) / f64::from(n);
            assert!(
                (got - expect).abs() < 0.01,
                "theta={theta}: wanted {expect}, got {got}"
            );
        }
    }

    #[test]
    fn alias_matches_weights() {
        let weights = [0.5, 0.25, 0.125, 0.125];
        let a = Alias::new(&weights);
        let mut rng = PdgfDefaultRandom::seed_from(7);
        let n = 200_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[a.sample_index(&mut || rng.next_u64())] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let frac = f64::from(counts[i]) / f64::from(n);
            assert!(
                (frac - w).abs() < 0.01,
                "weight {i}: wanted {w}, got {frac}"
            );
        }
    }

    /// Regression for a bucket/coin correlation: when bucket index and
    /// acceptance coin were carved from overlapping bits of one draw, each
    /// bucket's contiguous draw range pinned its coin to a narrow window
    /// once the table grew past ~2^11 entries, so near-1.0 bucket
    /// probabilities were accepted either always or never. A chi-squared
    /// fit over a large alternating-weight table catches that immediately
    /// (the biased sampler scores in the millions here).
    #[test]
    fn alias_large_table_chi_squared() {
        let n = 1usize << 14;
        let weights: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.9 } else { 1.1 }).collect();
        let total: f64 = weights.iter().sum();
        let a = Alias::new(&weights);

        let mut rng = PdgfDefaultRandom::seed_from(55);
        let samples = 40 * n as u64;
        let mut counts = vec![0u64; n];
        for _ in 0..samples {
            counts[a.sample_index(&mut || rng.next_u64())] += 1;
        }

        let mut chi2 = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let expect = samples as f64 * weights[i] / total;
            let d = c as f64 - expect;
            chi2 += d * d / expect;
        }
        // df = n - 1 = 16383; mean 16383, stddev ~181. Anything under
        // mean + 6 sigma is an excellent fit.
        assert!(chi2 < 17_500.0, "chi-squared {chi2} for {n} buckets");
    }

    #[test]
    fn alias_never_draws_zero_weight_entries() {
        let a = Alias::new(&[1.0, 0.0, 3.0]);
        let mut rng = PdgfDefaultRandom::seed_from(8);
        for _ in 0..10_000 {
            assert_ne!(a.sample_index(&mut || rng.next_u64()), 1);
        }
    }

    #[test]
    fn alias_all_zero_degenerates_to_uniform() {
        let a = Alias::new(&[0.0, 0.0]);
        let mut rng = PdgfDefaultRandom::seed_from(9);
        let hits = (0..1000)
            .filter(|_| a.sample_index(&mut || rng.next_u64()) == 0)
            .count();
        assert!((300..700).contains(&hits));
    }

    #[test]
    fn alias_single_entry() {
        let a = Alias::new(&[42.0]);
        let mut rng = PdgfDefaultRandom::seed_from(10);
        assert_eq!(a.sample_index(&mut || rng.next_u64()), 0);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn distributions_are_repeatable() {
        let d = Normal::new(0.0, 1.0);
        assert_eq!(draws(&d, 100, 77), draws(&d, 100, 77));
        let z = Zipf::new(100, 0.5);
        assert_eq!(draws(&z, 100, 77), draws(&z, 100, 77));
    }
}
