//! Simple (leaf) value generators: IDs, numbers, dates, strings, booleans,
//! and static values.
//!
//! Each generator is one `Kernel`: its `emit` states the per-cell draw
//! sequence once, and `kernel_paths!` runs it on both the point path and
//! the batch path.

use pdgf_prng::{FeistelPermutation, PdgfDefaultRandom, PdgfRng};
use pdgf_schema::model::{DateFormat, HistogramOutput};
use pdgf_schema::value::{Date, Value};

use crate::generator::{
    kernel_paths, Bools, Dates, Decimals, Doubles, Emit, Generator, Kernel, Longs, Timestamps,
};

/// Unique key generator: emits `row + 1`, optionally scrambled through a
/// keyed permutation so keys are unique but unordered.
pub struct IdGenerator {
    permutation: Option<FeistelPermutation>,
}

impl IdGenerator {
    /// Sequential IDs.
    pub fn sequential() -> Self {
        Self { permutation: None }
    }

    /// Permuted IDs over a domain of `size` rows, keyed by `seed`.
    pub fn permuted(size: u64, seed: u64) -> Self {
        Self {
            permutation: Some(FeistelPermutation::new(size.max(1), seed)),
        }
    }

    /// The key emitted for `row` — the whole kernel, since Id generators
    /// draw nothing from the RNG stream. The reference kernel uses this
    /// to recompute parent keys as a pure typed map, skipping per-cell
    /// contexts and `Value` cells entirely.
    #[inline]
    pub fn key_for(&self, row: u64) -> i64 {
        match &self.permutation {
            Some(p) => p.permute(row % p.domain()) as i64 + 1,
            None => row as i64 + 1,
        }
    }
}

impl Kernel for IdGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.typed(Longs, |_, row| self.key_for(row))
    }
}

impl Generator for IdGenerator {
    kernel_paths!();

    fn as_id(&self) -> Option<&IdGenerator> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "IdGenerator"
    }
}

/// Uniform integer in `[min, max]`.
pub struct LongGenerator {
    min: i64,
    max: i64,
}

impl LongGenerator {
    /// Uniform over the inclusive range.
    pub fn new(min: i64, max: i64) -> Self {
        assert!(min <= max, "empty range");
        Self { min, max }
    }
}

impl Kernel for LongGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.typed(Longs, |rng, _| rng.next_i64_in(self.min, self.max))
    }
}

impl Generator for LongGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "LongGenerator"
    }
}

/// Uniform double in `[min, max)`, optionally rounded to a fixed number of
/// decimal places (Figure 9's "Double (4 places)" configuration).
pub struct DoubleGenerator {
    min: f64,
    span: f64,
    round_factor: Option<f64>,
}

impl DoubleGenerator {
    /// Uniform over `[min, max)` with optional rounding.
    pub fn new(min: f64, max: f64, decimals: Option<u8>) -> Self {
        assert!(min <= max, "empty range");
        Self {
            min,
            span: max - min,
            round_factor: decimals.map(|d| 10f64.powi(i32::from(d))),
        }
    }
}

impl Kernel for DoubleGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.typed(Doubles, |rng, _| {
            let v = self.min + rng.next_f64() * self.span;
            match self.round_factor {
                Some(f) => (v * f).round() / f,
                None => v,
            }
        })
    }
}

impl Generator for DoubleGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "DoubleGenerator"
    }
}

/// Uniform fixed-point decimal in `[min, max]` at a given scale. Bounds
/// are unscaled integers (e.g. scale 2, min 100 = 1.00).
pub struct DecimalGenerator {
    min: i64,
    max: i64,
    scale: u8,
}

impl DecimalGenerator {
    /// Uniform decimal generator over unscaled `[min, max]`.
    pub fn new(min: i64, max: i64, scale: u8) -> Self {
        assert!(min <= max, "empty range");
        Self { min, max, scale }
    }
}

impl Kernel for DecimalGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.typed(Decimals(self.scale), |rng, _| {
            rng.next_i64_in(self.min, self.max)
        })
    }
}

impl Generator for DecimalGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "DecimalGenerator"
    }
}

/// Uniform date in `[min, max]`.
///
/// With [`DateFormat::Iso`] the value stays typed ([`Value::Date`]) and is
/// formatted lazily by the output system. Any other format forces eager
/// text rendering — the deliberately expensive case the paper measures in
/// Figure 9 ("formatting a date value increases the generation cost").
pub struct DateGenerator {
    min_day: i32,
    span_days: u32,
    format: DateFormat,
}

impl DateGenerator {
    /// Uniform over `[min, max]` with the given output format.
    pub fn new(min: Date, max: Date, format: DateFormat) -> Self {
        assert!(min <= max, "empty range");
        Self {
            min_day: min.0,
            span_days: (max.0 - min.0) as u32,
            format,
        }
    }
}

impl Kernel for DateGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        let span = u64::from(self.span_days) + 1;
        let day = |rng: &mut PdgfDefaultRandom| self.min_day + rng.next_bounded(span) as i32;
        match self.format {
            DateFormat::Iso => out.typed(Dates, |rng, _| day(rng)),
            other => out.text(|rng, _, buf| other.render_into(Date(day(rng)), buf)),
        }
    }
}

impl Generator for DateGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "DateGenerator"
    }
}

/// Uniform timestamp in `[min, max]` seconds since the epoch.
pub struct TimestampGenerator {
    min: i64,
    max: i64,
}

impl TimestampGenerator {
    /// Uniform over the inclusive range.
    pub fn new(min: i64, max: i64) -> Self {
        assert!(min <= max, "empty range");
        Self { min, max }
    }
}

impl Kernel for TimestampGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.typed(Timestamps, |rng, _| rng.next_i64_in(self.min, self.max))
    }
}

impl Generator for TimestampGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "TimestampGenerator"
    }
}

const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// Random alphanumeric string with length uniform in `[min_len, max_len]`.
pub struct RandomStringGenerator {
    min_len: u32,
    max_len: u32,
}

impl RandomStringGenerator {
    /// String generator over the inclusive length range.
    pub fn new(min_len: u32, max_len: u32) -> Self {
        assert!(min_len <= max_len, "empty length range");
        Self { min_len, max_len }
    }
}

impl Kernel for RandomStringGenerator {
    fn emit<E: Emit>(&self, out: E) {
        let span = u64::from(self.max_len - self.min_len) + 1;
        out.text(|rng, _, buf| {
            let mut remaining = self.min_len + rng.next_bounded(span) as u32;
            // Pack ~10 charset draws (62^10 < 2^64) per u64 to cut RNG calls.
            while remaining > 0 {
                let mut word = rng.next_u64();
                let batch = remaining.min(10);
                for _ in 0..batch {
                    buf.push(CHARSET[(word % 62) as usize] as char);
                    word /= 62;
                }
                remaining -= batch;
            }
        })
    }
}

impl Generator for RandomStringGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "RandomStringGenerator"
    }
}

/// Boolean that is `true` with a configured probability.
pub struct RandomBoolGenerator {
    true_prob: f64,
}

impl RandomBoolGenerator {
    /// `true` with probability `true_prob`.
    pub fn new(true_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&true_prob), "probability out of range");
        Self { true_prob }
    }
}

impl Kernel for RandomBoolGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.typed(Bools, |rng, _| rng.next_bool(self.true_prob))
    }
}

impl Generator for RandomBoolGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "RandomBoolGenerator"
    }
}

/// A constant value. The paper's Figure 7 uses this ("Static Value, no
/// cache") to measure the pure per-cell system overhead; cloning an
/// `Arc`-backed [`Value`] is the cheapest possible generator body.
pub struct StaticValueGenerator {
    value: Value,
}

impl StaticValueGenerator {
    /// Always produce `value`.
    pub fn new(value: Value) -> Self {
        Self { value }
    }
}

impl Kernel for StaticValueGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        match &self.value {
            Value::Long(x) => out.typed(Longs, |_, _| *x),
            Value::Double(x) => out.typed(Doubles, |_, _| *x),
            Value::Decimal { unscaled, scale } => out.typed(Decimals(*scale), |_, _| *unscaled),
            Value::Date(d) => out.typed(Dates, |_, _| d.0),
            Value::Timestamp(t) => out.typed(Timestamps, |_, _| *t),
            Value::Bool(b) => out.typed(Bools, |_, _| *b),
            Value::Text(s) => out.text(|_, _, buf| buf.push_str(s)),
            Value::Null => out.null(),
        }
    }
}

impl Generator for StaticValueGenerator {
    kernel_paths!();

    fn static_value(&self) -> Option<&Value> {
        Some(&self.value)
    }

    fn name(&self) -> &'static str {
        "StaticValueGenerator"
    }
}

/// Numeric values following an extracted equi-width (or arbitrary-bucket)
/// histogram: an alias-method draw picks the bucket, a second draw places
/// the value uniformly inside it. Reproduces distribution *shape* that
/// plain min/max uniform generators flatten out.
pub struct HistogramGenerator {
    bounds: Vec<f64>,
    alias: pdgf_prng::Alias,
    output: HistogramOutput,
}

impl HistogramGenerator {
    /// Histogram generator over `bounds` (len = buckets + 1, strictly
    /// increasing) with relative `weights` per bucket.
    pub fn new(bounds: Vec<f64>, weights: &[f64], output: HistogramOutput) -> Self {
        assert_eq!(bounds.len(), weights.len() + 1, "bounds/buckets mismatch");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        Self {
            bounds,
            alias: pdgf_prng::Alias::new(weights),
            output,
        }
    }
}

impl Kernel for HistogramGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        let sample = |rng: &mut PdgfDefaultRandom| {
            let bucket = self.alias.sample_index(&mut || rng.next_u64());
            let (lo, hi) = (self.bounds[bucket], self.bounds[bucket + 1]);
            lo + rng.next_f64() * (hi - lo)
        };
        match self.output {
            HistogramOutput::Long => out.typed(Longs, |rng, _| sample(rng).round() as i64),
            HistogramOutput::Double => out.typed(Doubles, |rng, _| sample(rng)),
            HistogramOutput::Decimal(scale) => {
                let pow = 10f64.powi(i32::from(scale));
                out.typed(Decimals(scale), |rng, _| (sample(rng) * pow).round() as i64)
            }
        }
    }
}

impl Generator for HistogramGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "HistogramGenerator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::point_cell;

    #[test]
    fn id_generator_is_row_plus_one() {
        let g = IdGenerator::sequential();
        for row in [0u64, 1, 99, 1_000_000] {
            let v = point_cell(&g, 7, row);
            assert_eq!(v, Value::Long(row as i64 + 1));
        }
    }

    #[test]
    fn permuted_ids_are_unique_and_cover_the_domain() {
        let g = IdGenerator::permuted(1000, 42);
        let mut seen = std::collections::HashSet::new();
        for row in 0..1000u64 {
            let v = point_cell(&g, 7, row);
            let id = v.as_i64().unwrap();
            assert!((1..=1000).contains(&id));
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn long_generator_respects_bounds() {
        let g = LongGenerator::new(-5, 5);
        for seed in 0..500u64 {
            let v = point_cell(&g, seed, 0);
            let x = v.as_i64().unwrap();
            assert!((-5..=5).contains(&x));
        }
    }

    #[test]
    fn double_generator_rounds_to_places() {
        let g = DoubleGenerator::new(0.0, 100.0, Some(2));
        for seed in 0..200u64 {
            let v = point_cell(&g, seed, 0);
            let Value::Double(x) = v else { panic!() };
            let scaled = x * 100.0;
            assert!(
                (scaled - scaled.round()).abs() < 1e-9,
                "not rounded to 2 places: {x}"
            );
        }
    }

    #[test]
    fn decimal_generator_bounds_and_scale() {
        let g = DecimalGenerator::new(100, 10_000, 2);
        for seed in 0..200u64 {
            let v = point_cell(&g, seed, 0);
            let Value::Decimal { unscaled, scale } = v else {
                panic!()
            };
            assert_eq!(scale, 2);
            assert!((100..=10_000).contains(&unscaled));
        }
    }

    #[test]
    fn date_generator_stays_in_range_and_is_typed_for_iso() {
        let min = Date::from_ymd(1992, 1, 1);
        let max = Date::from_ymd(1998, 12, 31);
        let g = DateGenerator::new(min, max, DateFormat::Iso);
        let mut hit_min = false;
        let mut hit_late = false;
        for seed in 0..3000u64 {
            let v = point_cell(&g, seed, 0);
            let Value::Date(d) = v else {
                panic!("expected typed date")
            };
            assert!(d >= min && d <= max);
            hit_min |= d.0 - min.0 < 100;
            hit_late |= max.0 - d.0 < 100;
        }
        assert!(hit_min && hit_late, "range edges never sampled");
    }

    #[test]
    fn formatted_date_is_eager_text() {
        let g = DateGenerator::new(
            Date::from_ymd(2014, 11, 30),
            Date::from_ymd(2014, 11, 30),
            DateFormat::SlashMdy,
        );
        let v = point_cell(&g, 1, 0);
        assert_eq!(v.as_text(), Some("11/30/2014"));
    }

    #[test]
    fn random_string_length_and_charset() {
        let g = RandomStringGenerator::new(3, 17);
        for seed in 0..300u64 {
            let v = point_cell(&g, seed, 0);
            let s = v.as_text().unwrap();
            assert!((3..=17).contains(&s.len()), "len {}", s.len());
            assert!(s.bytes().all(|b| b.is_ascii_alphanumeric()));
        }
        let fixed = RandomStringGenerator::new(25, 25);
        let v = point_cell(&fixed, 9, 0);
        assert_eq!(v.as_text().unwrap().len(), 25);
    }

    #[test]
    fn bool_generator_probability() {
        let g = RandomBoolGenerator::new(0.2);
        let trues = (0..10_000u64)
            .filter(|&seed| point_cell(&g, seed, 0) == Value::Bool(true))
            .count();
        let frac = trues as f64 / 10_000.0;
        assert!((0.18..0.22).contains(&frac), "frac {frac}");
    }

    #[test]
    fn static_generator_is_constant() {
        let g = StaticValueGenerator::new(Value::text("fixed"));
        for seed in 0..10u64 {
            assert_eq!(point_cell(&g, seed, seed), Value::text("fixed"));
        }
    }

    #[test]
    fn histogram_generator_follows_bucket_weights() {
        // Two buckets, 9:1 weighting.
        let g =
            HistogramGenerator::new(vec![0.0, 10.0, 20.0], &[9.0, 1.0], HistogramOutput::Double);
        let mut low = 0;
        for seed in 0..10_000u64 {
            let v = point_cell(&g, seed, 0);
            let Value::Double(x) = v else { panic!() };
            assert!((0.0..20.0).contains(&x));
            if x < 10.0 {
                low += 1;
            }
        }
        let frac = f64::from(low) / 10_000.0;
        assert!((0.88..0.92).contains(&frac), "low-bucket fraction {frac}");
    }

    #[test]
    fn histogram_generator_output_types() {
        let long = HistogramGenerator::new(vec![5.0, 6.0], &[1.0], HistogramOutput::Long);
        assert!(matches!(point_cell(&long, 1, 0), Value::Long(5 | 6)));
        let dec = HistogramGenerator::new(vec![1.0, 2.0], &[1.0], HistogramOutput::Decimal(2));
        let Value::Decimal { unscaled, scale } = point_cell(&dec, 1, 0) else {
            panic!()
        };
        assert_eq!(scale, 2);
        assert!((100..=200).contains(&unscaled));
    }

    #[test]
    fn same_seed_same_value_across_generators() {
        let g = LongGenerator::new(0, 1_000_000);
        let a = point_cell(&g, 123, 0);
        let b = point_cell(&g, 123, 0);
        assert_eq!(a, b);
        let c = point_cell(&g, 124, 0);
        // Overwhelmingly likely to differ.
        assert_ne!(a, c);
    }
}
