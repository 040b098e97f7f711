//! The repository's benchmark: six workloads over `pdgf generate` and
//! `pdgf serve`, every number taken from outside the program — the `pdgf`
//! CLI as a subprocess, the `pdgf` facade, and the crates' public calls.
//!
//! `README.md` beside this crate holds the command, the metric glossary
//! and the reasons for each workload. This file holds the statistics
//! every reported number goes through: medians and quartiles rather than
//! best-of-N, and percentiles only where the sample supports them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod batch;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod process;
pub mod serve;
pub mod spec;
pub mod trace;
pub mod verify;

use std::time::{Duration, Instant};

/// Errors here are reported and end the run; nothing matches on them.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Checks made on the program's output, and how many failed: a table
/// that missed the oracle or changed size between repetitions, a request
/// that was refused, came back short or came back with other bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Tally {
    /// Count one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another tally's counts to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Output checks made and failed.
    pub tally: Tally,
    /// The metrics measured.
    pub metrics: spec::Metrics,
}

/// Sort a sample in place; every statistic below wants it ascending.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an ascending, non-empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of a non-empty sample in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median_sorted(&v)
}

/// First, second and third quartile of an ascending sample of at least
/// two values, by the rule of Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) — the rule the driver applies to the ten
/// runs of a workload, so a spread computed here reads the same there.
pub fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// What is reported for a repeated measurement in place of best-of-N.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (the only value, when n is 1).
    pub q1: f64,
    /// Third quartile (the only value, when n is 1).
    pub q3: f64,
}

impl Summary {
    /// Summarise a non-empty sample in any order.
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        sort(&mut v);
        let median = median_sorted(&v);
        let (q1, q3) = if v.len() >= 2 {
            let q = quartiles_sorted(&v);
            (q[0], q[2])
        } else {
            (median, median)
        };
        Self {
            n: v.len(),
            median,
            q1,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending, non-empty
/// sample: the smallest value with at least `p` percent of the sample at
/// or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that keeps at
/// least ten samples beyond it, or `None` below 20 samples. A tail read
/// off fewer than ten samples is one slow request, not a distribution.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Time `op` in batches of `per_batch` calls until `budget` has passed
/// (at least five batches) and summarise the nanoseconds per call of the
/// batches. The caller passes inputs and results through
/// [`std::hint::black_box`].
pub fn time_per_call(budget: Duration, per_batch: u64, mut op: impl FnMut()) -> Summary {
    assert!(per_batch > 0, "a batch holds at least one call");
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    Summary::of(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles_sorted(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            [1.5, 4.0, 12.0]
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(280), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn time_per_call_takes_at_least_five_batches() {
        let mut calls = 0u64;
        let s = time_per_call(Duration::ZERO, 10, || calls += 1);
        assert_eq!(s.n, 5);
        assert_eq!(calls, 50);
        assert!(s.median >= 0.0);
    }
}
