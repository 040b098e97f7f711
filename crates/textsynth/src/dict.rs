//! Weighted dictionaries.
//!
//! DBSynth's data extraction "builds histograms and dictionaries of
//! text-valued data and stores the according probabilities for values".
//! A [`Dictionary`] is exactly that: distinct values with sampling
//! weights, drawable uniformly or weight-proportionally in O(1).
//!
//! On-disk format (one entry per line, UTF-8):
//!
//! ```text
//! <weight>\t<text>
//! ```

use pdgf_prng::Alias;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A weighted list of distinct text values.
#[derive(Debug, Clone)]
pub struct Dictionary {
    entries: Vec<(Arc<str>, f64)>,
    alias: Alias,
}

/// Dictionary parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictError(pub String);

impl fmt::Display for DictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dictionary error: {}", self.0)
    }
}

impl std::error::Error for DictError {}

impl Dictionary {
    /// Build from `(text, weight)` pairs. Weights need not be normalized.
    pub fn new(entries: Vec<(String, f64)>) -> Result<Self, DictError> {
        if entries.is_empty() {
            return Err(DictError("empty dictionary".into()));
        }
        if let Some((text, w)) = entries.iter().find(|(_, w)| !w.is_finite() || *w < 0.0) {
            return Err(DictError(format!("bad weight {w} for {text:?}")));
        }
        let weights: Vec<f64> = entries.iter().map(|(_, w)| *w).collect();
        let alias = Alias::new(&weights);
        Ok(Self {
            entries: entries
                .into_iter()
                .map(|(t, w)| (Arc::from(t.as_str()), w))
                .collect(),
            alias,
        })
    }

    /// Count occurrences in `samples` and build a frequency-weighted
    /// dictionary. Sample order does not affect entry order (entries are
    /// sorted by descending count, then text, for determinism).
    pub fn from_samples<'a>(samples: impl IntoIterator<Item = &'a str>) -> Result<Self, DictError> {
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for s in samples {
            *counts.entry(s).or_insert(0) += 1;
        }
        let mut pairs: Vec<(&str, u64)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        Self::new(
            pairs
                .into_iter()
                .map(|(t, c)| (t.to_string(), c as f64))
                .collect(),
        )
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: empty dictionaries cannot be constructed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry text by index.
    pub fn entry(&self, index: usize) -> &Arc<str> {
        &self.entries[index].0
    }

    /// Entry weight by index.
    pub fn weight(&self, index: usize) -> f64 {
        self.entries[index].1
    }

    /// Iterate `(text, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, f64)> {
        self.entries.iter().map(|(t, w)| (t, *w))
    }

    /// The index of an entry drawn uniformly: one draw.
    #[inline]
    pub fn sample_uniform_index(&self, rng: &mut dyn FnMut() -> u64) -> usize {
        let n = self.entries.len() as u64;
        ((u128::from(rng()) * u128::from(n)) >> 64) as usize
    }

    /// The index of an entry drawn proportionally to its weight (alias
    /// method, O(1)).
    #[inline]
    pub fn sample_weighted_index(&self, rng: &mut dyn FnMut() -> u64) -> usize {
        self.alias.sample_index(rng)
    }

    /// Serialize to the `weight\ttext` line format.
    pub fn to_file_format(&self) -> String {
        let mut out = String::new();
        for (text, weight) in &self.entries {
            out.push_str(&format!("{weight}\t{text}\n"));
        }
        out
    }

    /// Parse the `weight\ttext` line format. Blank lines and `#` comments
    /// are skipped; a line without a tab is an entry with weight 1.
    pub fn from_file_format(data: &str) -> Result<Self, DictError> {
        let mut entries = Vec::new();
        for (lineno, line) in data.lines().enumerate() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once('\t') {
                Some((w, text)) => {
                    let weight: f64 = w
                        .trim()
                        .parse()
                        .map_err(|_| DictError(format!("line {}: bad weight {w:?}", lineno + 1)))?;
                    entries.push((text.to_string(), weight));
                }
                None => entries.push((line.to_string(), 1.0)),
            }
        }
        Self::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_prng::{PdgfDefaultRandom, PdgfRng};

    fn rng_fn(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = PdgfDefaultRandom::seed_from(seed);
        move || rng.next_u64()
    }

    #[test]
    fn from_samples_counts_frequencies() {
        let d = Dictionary::from_samples(["a", "b", "a", "a", "c", "b"]).unwrap();
        assert_eq!(d.len(), 3);
        // Sorted by count descending: a(3), b(2), c(1).
        assert_eq!(d.entry(0).as_ref(), "a");
        assert_eq!(d.weight(0), 3.0);
        assert_eq!(d.entry(2).as_ref(), "c");
    }

    #[test]
    fn weighted_sampling_respects_frequencies() {
        let d = Dictionary::from_samples(
            std::iter::repeat_n("common", 90).chain(std::iter::repeat_n("rare", 10)),
        )
        .unwrap();
        let mut rng = rng_fn(1);
        let n = 50_000;
        let common = (0..n)
            .filter(|_| d.entry(d.sample_weighted_index(&mut rng)).as_ref() == "common")
            .count();
        let frac = common as f64 / f64::from(n);
        assert!((0.88..0.92).contains(&frac), "frac {frac}");
    }

    #[test]
    fn uniform_sampling_ignores_weights() {
        let d = Dictionary::new(vec![("x".into(), 1000.0), ("y".into(), 1.0)]).unwrap();
        let mut rng = rng_fn(2);
        let n = 20_000;
        let xs = (0..n)
            .filter(|_| d.entry(d.sample_uniform_index(&mut rng)).as_ref() == "x")
            .count();
        let frac = xs as f64 / f64::from(n);
        assert!((0.47..0.53).contains(&frac), "frac {frac}");
    }

    #[test]
    fn file_format_roundtrips() {
        let d = Dictionary::new(vec![
            ("red".into(), 5.0),
            ("light blue".into(), 2.5),
            ("green".into(), 1.0),
        ])
        .unwrap();
        let text = d.to_file_format();
        let back = Dictionary::from_file_format(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.entry(1).as_ref(), "light blue");
        assert_eq!(back.weight(1), 2.5);
    }

    #[test]
    fn file_format_tolerates_comments_and_bare_lines() {
        let d = Dictionary::from_file_format("# colors\nred\n2\tblue\n\n").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.weight(0), 1.0);
        assert_eq!(d.entry(1).as_ref(), "blue");
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(Dictionary::new(vec![]).is_err());
        assert!(Dictionary::new(vec![("x".into(), -1.0)]).is_err());
        assert!(Dictionary::new(vec![("x".into(), f64::NAN)]).is_err());
        assert!(Dictionary::from_file_format("abc\tnot-a-number-first\tx").is_err());
    }

    #[test]
    fn determinism_across_clones() {
        let d = Dictionary::from_samples(["a", "b", "c", "a"]).unwrap();
        let d2 = d.clone();
        let mut r1 = rng_fn(42);
        let mut r2 = rng_fn(42);
        for _ in 0..100 {
            assert_eq!(
                d.sample_weighted_index(&mut r1),
                d2.sample_weighted_index(&mut r2)
            );
        }
    }
}
