//! Text generators backed by DBSynth-built models: dictionaries and
//! Markov chains.

use std::sync::Arc;
use textsynth::{Dictionary, MarkovModel};

use crate::generator::{kernel_paths, Emit, Generator, Kernel, ProfileCtx};
use pdgf_prng::PdgfRng;
use pdgf_schema::absint::{self, ResourceInfo, StaticProfile};

/// Entry statistics of an already-resolved dictionary.
fn dict_info(dict: &Dictionary) -> ResourceInfo {
    absint::entries_info(dict.iter().map(|(t, _)| t.as_ref()))
}

/// Draws entries from a dictionary ("DictList" in the paper's figures),
/// uniformly or proportionally to extracted frequencies.
pub struct DictListGenerator {
    dict: Arc<Dictionary>,
    weighted: bool,
}

impl DictListGenerator {
    /// Dictionary generator; `weighted` selects alias-method frequency
    /// sampling over uniform draws.
    pub fn new(dict: Arc<Dictionary>, weighted: bool) -> Self {
        Self { dict, weighted }
    }
}

impl Kernel for DictListGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        out.text(|rng, _, buf| {
            let mut draw = || rng.next_u64();
            buf.push_str(if self.weighted {
                self.dict.sample_weighted(&mut draw)
            } else {
                self.dict.sample_uniform(&mut draw)
            })
        })
    }
}

impl Generator for DictListGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "DictListGenerator"
    }

    fn profile(&self, _ctx: &ProfileCtx<'_>) -> StaticProfile {
        absint::dict_profile(Some(dict_info(&self.dict)))
    }
}

/// Deterministically maps row `r` to dictionary entry `r mod len` —
/// enumeration tables (TPC-H region/nation) whose name is a pure function
/// of the key.
pub struct DictByRowGenerator {
    dict: Arc<Dictionary>,
}

impl DictByRowGenerator {
    /// Row-indexed dictionary generator.
    pub fn new(dict: Arc<Dictionary>) -> Self {
        Self { dict }
    }
}

impl Kernel for DictByRowGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        let len = self.dict.len() as u64;
        out.text(|_, row, buf| buf.push_str(self.dict.entry((row % len) as usize)))
    }
}

impl Generator for DictByRowGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "DictByRowGenerator"
    }

    fn profile(&self, ctx: &ProfileCtx<'_>) -> StaticProfile {
        absint::dict_by_row_profile(Some(dict_info(&self.dict)), ctx.rows)
    }
}

/// Generates free text from a Markov chain model with a word count drawn
/// uniformly from `[min_words, max_words]` — the generator DBSynth
/// configures for sampled free-text columns (Listing 1's `l_comment`).
pub struct MarkovChainGenerator {
    model: Arc<MarkovModel>,
    min_words: u32,
    max_words: u32,
    /// The vocabulary's statistics, read once: every request that sizes
    /// its buffers from the profiles asks for them.
    info: ResourceInfo,
}

impl MarkovChainGenerator {
    /// Markov text generator over the inclusive word-count range.
    pub fn new(model: Arc<MarkovModel>, min_words: u32, max_words: u32) -> Self {
        assert!(min_words <= max_words, "empty word-count range");
        let info = absint::entries_info(model.words());
        Self {
            model,
            min_words,
            max_words,
            info,
        }
    }
}

impl Kernel for MarkovChainGenerator {
    fn emit<E: Emit>(&self, out: E) {
        out.text(|rng, _, buf| {
            self.model
                .generate_range_into(|| rng.next_u64(), self.min_words, self.max_words, buf);
        })
    }
}

impl Generator for MarkovChainGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "MarkovChainGenerator"
    }

    fn profile(&self, _ctx: &ProfileCtx<'_>) -> StaticProfile {
        absint::markov_profile(Some(self.info), self.min_words, self.max_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::point_cell;
    use textsynth::MarkovBuilder;

    fn dict() -> Arc<Dictionary> {
        Arc::new(
            Dictionary::new(vec![
                ("alpha".into(), 8.0),
                ("beta".into(), 1.0),
                ("gamma".into(), 1.0),
            ])
            .unwrap(),
        )
    }

    fn markov() -> Arc<MarkovModel> {
        let mut b = MarkovBuilder::new();
        b.feed("quick deposits sleep quickly");
        b.feed("quick packages haggle");
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn dict_generator_draws_known_entries() {
        let g = DictListGenerator::new(dict(), false);
        for seed in 0..100u64 {
            let v = point_cell(&g, seed, 0);
            assert!(matches!(v.as_text(), Some("alpha" | "beta" | "gamma")));
        }
    }

    #[test]
    fn weighted_dict_prefers_heavy_entries() {
        let g = DictListGenerator::new(dict(), true);
        let alphas = (0..5000u64)
            .filter(|&s| point_cell(&g, s, 0).as_text() == Some("alpha"))
            .count();
        let frac = alphas as f64 / 5000.0;
        assert!((0.75..0.85).contains(&frac), "frac {frac}");
    }

    #[test]
    fn markov_generator_word_counts_in_range() {
        let g = MarkovChainGenerator::new(markov(), 2, 6);
        for seed in 0..200u64 {
            let v = point_cell(&g, seed, 0);
            let n = v.as_text().unwrap().split_whitespace().count();
            assert!((2..=6).contains(&n), "{n} words");
        }
    }

    #[test]
    fn text_generators_are_deterministic() {
        let g = MarkovChainGenerator::new(markov(), 1, 10);
        assert_eq!(point_cell(&g, 99, 0), point_cell(&g, 99, 0));
        let d = DictListGenerator::new(dict(), true);
        assert_eq!(point_cell(&d, 7, 0), point_cell(&d, 7, 0));
    }
}
