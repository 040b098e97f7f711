//! Order-1 word Markov chains.
//!
//! DBSynth "analyzes the word combination frequencies and probabilities"
//! of sampled free text and stores the result as a Markov model linked to
//! the data model (Listing 1 references
//! `markov/l_comment_markovSamples.bin`). For a TPC-H comment field the
//! paper reports ~1500 words and 95 starting states — small enough to keep
//! in memory, which this representation is designed for: a word table,
//! an alias-sampled start distribution, and per-word alias-sampled
//! successor distributions, so generating each word is O(1). The words
//! share one text arena and every alias slot one flat array (a TPC-H
//! comment model is a few tens of KiB), so that O(1) is also a couple of
//! cache-resident reads rather than a pointer chase per word.

use pdgf_prng::Alias;
use std::collections::HashMap;
use std::fmt;

use crate::tokenize::tokenize;

/// Markov model (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkovError(pub String);

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "markov error: {}", self.0)
    }
}

impl std::error::Error for MarkovError {}

/// Incremental frequency analyzer for building a [`MarkovModel`].
#[derive(Debug, Default)]
pub struct MarkovBuilder {
    word_ids: HashMap<String, u32>,
    words: Vec<String>,
    start_counts: HashMap<u32, u64>,
    // (from, to) -> count
    transition_counts: HashMap<(u32, u32), u64>,
    samples_seen: u64,
}

impl MarkovBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.word_ids.get(word) {
            return id;
        }
        let id = u32::try_from(self.words.len()).expect("word table overflow");
        self.word_ids.insert(word.to_string(), id);
        self.words.push(word.to_string());
        id
    }

    /// Analyze one sample text: its first word becomes a starting state,
    /// each adjacent word pair a transition.
    pub fn feed(&mut self, text: &str) {
        let words = tokenize(text);
        if words.is_empty() {
            return;
        }
        self.samples_seen += 1;
        let first = self.intern(words[0]);
        *self.start_counts.entry(first).or_insert(0) += 1;
        for pair in words.windows(2) {
            let from = self.intern(pair[0]);
            let to = self.intern(pair[1]);
            *self.transition_counts.entry((from, to)).or_insert(0) += 1;
        }
    }

    /// Number of samples fed so far.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Finish analysis. Fails if no non-empty sample was fed.
    pub fn build(self) -> Result<MarkovModel, MarkovError> {
        if self.start_counts.is_empty() {
            return Err(MarkovError("no samples analyzed".into()));
        }
        let mut start: Vec<(u32, f64)> = self
            .start_counts
            .into_iter()
            .map(|(id, c)| (id, c as f64))
            .collect();
        start.sort_by_key(|(id, _)| *id);
        let mut successors: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.words.len()];
        let mut transitions: Vec<((u32, u32), u64)> = self.transition_counts.into_iter().collect();
        transitions.sort_by_key(|(k, _)| *k);
        for ((from, to), count) in transitions {
            successors[from as usize].push((to, count as f64));
        }
        MarkovModel::from_parts(&self.words, &start, &successors)
    }
}

/// One alias-table slot: keep `word` when the draw's coin is below
/// `prob`, otherwise take `alias` — [`Alias::sample_index`]'s slot with both
/// indices already resolved to word ids.
#[derive(Debug, Clone, Copy)]
struct Slot {
    prob: f64,
    word: u32,
    alias: u32,
}

/// A run of [`Slot`]s (and of the matching `ids`/`weights` entries):
/// one distribution.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// One vocabulary entry: its bytes in the text arena and the distribution
/// its successor is drawn from. A dead end's is the start distribution,
/// the only span at offset 0 (it is non-empty and laid out first).
#[derive(Debug, Clone, Copy)]
struct Word {
    start: u32,
    end: u32,
    next: Span,
}

/// `n` as a `u32` arena or slot offset.
fn offset(n: usize) -> Result<u32, MarkovError> {
    u32::try_from(n).map_err(|_| MarkovError("model exceeds u32 offsets".into()))
}

/// A ready-to-sample order-1 word Markov chain.
///
/// Every word's text sits in one arena and every distribution — the start
/// distribution first, then each word's successors — in one flat slot
/// array, so a word costs one draw, one slot read and one copy out of the
/// arena. `ids` and `weights` run parallel to the slots and are read only
/// to serialize the model.
#[derive(Debug, Clone)]
pub struct MarkovModel {
    text: String,
    words: Vec<Word>,
    start: Span,
    slots: Vec<Slot>,
    ids: Vec<u32>,
    weights: Vec<f64>,
}

impl MarkovModel {
    fn from_parts<S: AsRef<str>>(
        words: &[S],
        start: &[(u32, f64)],
        successor_lists: &[Vec<(u32, f64)>],
    ) -> Result<Self, MarkovError> {
        if start.is_empty() {
            return Err(MarkovError("empty start distribution".into()));
        }
        if successor_lists.len() != words.len() {
            return Err(MarkovError("successor table size mismatch".into()));
        }
        let mut model = Self {
            text: String::new(),
            words: Vec::with_capacity(words.len()),
            start: Span { offset: 0, len: 0 },
            slots: Vec::new(),
            ids: Vec::new(),
            weights: Vec::new(),
        };
        model.start = model.push_dist(start, words.len())?;
        for (word, list) in words.iter().zip(successor_lists) {
            let begin = offset(model.text.len())?;
            model.text.push_str(word.as_ref());
            let next = match model.push_dist(list, words.len())? {
                Span { len: 0, .. } => model.start,
                next => next,
            };
            model.words.push(Word {
                start: begin,
                end: offset(model.text.len())?,
                next,
            });
        }
        Ok(model)
    }

    /// Append one distribution's ids, weights and slots; an empty list is
    /// an empty span.
    fn push_dist(&mut self, list: &[(u32, f64)], word_count: usize) -> Result<Span, MarkovError> {
        if let Some(&(id, _)) = list.iter().find(|(id, _)| *id as usize >= word_count) {
            return Err(MarkovError(format!("word id {id} out of range")));
        }
        let span = Span {
            offset: offset(self.slots.len())?,
            len: offset(list.len())?,
        };
        if !list.is_empty() {
            self.ids.extend(list.iter().map(|&(id, _)| id));
            self.weights.extend(list.iter().map(|&(_, w)| w));
            let alias = Alias::new(&self.weights[span.range()]);
            let ids = &self.ids[span.range()];
            self.slots.extend((0..ids.len()).map(|i| {
                let (prob, other) = alias.slot(i);
                Slot {
                    prob,
                    word: ids[i],
                    alias: ids[other as usize],
                }
            }));
        }
        Ok(span)
    }

    /// Number of distinct words (the paper's "1500 words" statistic).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `id`'s text.
    #[inline]
    fn word(&self, id: u32) -> &str {
        let w = self.words[id as usize];
        &self.text[w.start as usize..w.end as usize]
    }

    /// The vocabulary, in word-id order (used by static analysis to bound
    /// the rendered width of generated text).
    pub fn words(&self) -> impl Iterator<Item = &str> {
        (0..self.words.len() as u32).map(|id| self.word(id))
    }

    /// Number of starting states (the paper's "95 starting states").
    pub fn start_state_count(&self) -> usize {
        self.start.len as usize
    }

    /// Total number of distinct word-pair transitions.
    pub fn transition_count(&self) -> usize {
        self.slots.len() - self.start.len as usize
    }

    /// Generate a text of exactly `target_words` words. Dead ends (words
    /// that never had a successor in the samples) restart from the start
    /// distribution, mimicking sentence boundaries.
    pub fn generate(&self, rng: impl FnMut() -> u64, target_words: u32) -> String {
        let mut out = String::new();
        self.generate_into(rng, target_words, &mut out);
        out
    }

    /// [`generate`](Self::generate) appending into a caller-provided
    /// buffer — the allocation-free form used on the generation hot path.
    /// Every word, the last included, draws its successor, so a text of
    /// `n` words takes `n + 1` draws.
    pub fn generate_into(&self, mut rng: impl FnMut() -> u64, target_words: u32, out: &mut String) {
        if target_words == 0 {
            return;
        }
        let mut current = self.sample(self.start, rng());
        for i in 0..target_words {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.word(current));
            current = self.sample(self.words[current as usize].next, rng());
        }
    }

    /// Generate with a word count drawn uniformly from
    /// `[min_words, max_words]`.
    pub fn generate_range(
        &self,
        rng: impl FnMut() -> u64,
        min_words: u32,
        max_words: u32,
    ) -> String {
        let mut out = String::new();
        self.generate_range_into(rng, min_words, max_words, &mut out);
        out
    }

    /// [`generate_range`](Self::generate_range) appending into a
    /// caller-provided buffer. Draws the word count *before* generating,
    /// exactly as the owned form does, so the RNG stream position is
    /// identical for both entry points.
    pub fn generate_range_into(
        &self,
        mut rng: impl FnMut() -> u64,
        min_words: u32,
        max_words: u32,
        out: &mut String,
    ) {
        debug_assert!(min_words <= max_words);
        let span = u64::from(max_words - min_words) + 1;
        let extra = ((u128::from(rng()) * u128::from(span)) >> 64) as u32;
        self.generate_into(rng, min_words + extra, out);
    }

    /// The word `draw` picks from the distribution at `span`, split into
    /// bucket and coin exactly as [`Alias::sample_index`] splits it.
    #[inline]
    fn sample(&self, span: Span, draw: u64) -> u32 {
        let bucket = ((draw >> 32) * u64::from(span.len)) >> 32;
        let coin = (draw & 0xFFFF_FFFF) as f64 * (1.0 / 4_294_967_296.0);
        let slot = self.slots[span.offset as usize + bucket as usize];
        if coin < slot.prob {
            slot.word
        } else {
            slot.alias
        }
    }

    /// Word `word`'s observed successors: none for a dead end.
    fn successors(&self, word: Word) -> Span {
        if word.next.offset == self.start.offset {
            Span { offset: 0, len: 0 }
        } else {
            word.next
        }
    }

    /// One distribution's `(id, weight)` pairs, in stored order.
    fn pairs(&self, span: Span) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        self.ids[span.range()]
            .iter()
            .copied()
            .zip(self.weights[span.range()].iter().copied())
    }

    /// Serialize to the binary `*.bin` model format.
    ///
    /// Layout (all integers little-endian):
    /// `"PMKV"`, `u16` version, `u32` word count, words as
    /// (`u32` len, bytes), `u32` start count, starts as (`u32` id,
    /// `f64` weight), then per word `u32` successor count and successors
    /// as (`u32` id, `f64` weight).
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_pairs(buf: &mut Vec<u8>, pairs: impl ExactSizeIterator<Item = (u32, f64)>) {
            buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (id, w) in pairs {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PMKV");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for w in self.words() {
            buf.extend_from_slice(&(w.len() as u32).to_le_bytes());
            buf.extend_from_slice(w.as_bytes());
        }
        put_pairs(&mut buf, self.pairs(self.start));
        for &w in &self.words {
            put_pairs(&mut buf, self.pairs(self.successors(w)));
        }
        buf
    }

    /// Deserialize the binary model format.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, MarkovError> {
        fn truncated() -> MarkovError {
            MarkovError("truncated model".into())
        }
        /// Split the next `N` bytes off the front of `data`.
        fn take<const N: usize>(data: &mut &[u8]) -> Result<[u8; N], MarkovError> {
            let (head, rest) = data.split_first_chunk::<N>().ok_or_else(truncated)?;
            *data = rest;
            Ok(*head)
        }
        fn take_u32(data: &mut &[u8]) -> Result<u32, MarkovError> {
            take(data).map(u32::from_le_bytes)
        }
        fn take_pairs(data: &mut &[u8]) -> Result<Vec<(u32, f64)>, MarkovError> {
            let n = take_u32(data)? as usize;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push((take_u32(data)?, f64::from_le_bytes(take(data)?)));
            }
            Ok(list)
        }
        let header: [u8; 6] = take(&mut data)?;
        if header[..4] != *b"PMKV" {
            return Err(MarkovError("bad magic".into()));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != 1 {
            return Err(MarkovError(format!("unsupported version {version}")));
        }
        let word_count = take_u32(&mut data)? as usize;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            let len = take_u32(&mut data)? as usize;
            let (word, rest) = data.split_at_checked(len).ok_or_else(truncated)?;
            data = rest;
            let s = std::str::from_utf8(word).map_err(|_| MarkovError("non-UTF8 word".into()))?;
            words.push(s);
        }
        let start = take_pairs(&mut data)?;
        let mut successor_lists = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            successor_lists.push(take_pairs(&mut data)?);
        }
        if !data.is_empty() {
            return Err(MarkovError("trailing bytes after model".into()));
        }
        Self::from_parts(&words, &start, &successor_lists)
    }

    /// Serialize to a line-oriented text format, safe to embed in XML
    /// configuration (`<inline>`): a header line, `W` word lines in id
    /// order, `S` start lines, and `T` transition lines.
    pub fn to_text(&self) -> String {
        let mut out = String::from("markov-v1\n");
        for w in self.words() {
            out.push_str("W ");
            out.push_str(w);
            out.push('\n');
        }
        for (id, w) in self.pairs(self.start) {
            out.push_str(&format!("S {id} {w}\n"));
        }
        for (from, &word) in self.words.iter().enumerate() {
            for (to, w) in self.pairs(self.successors(word)) {
                out.push_str(&format!("T {from} {to} {w}\n"));
            }
        }
        out
    }

    /// Parse the text format produced by [`MarkovModel::to_text`].
    pub fn from_text(text: &str) -> Result<Self, MarkovError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("markov-v1") {
            return Err(MarkovError("missing markov-v1 header".into()));
        }
        let mut words: Vec<&str> = Vec::new();
        let mut start: Vec<(u32, f64)> = Vec::new();
        let mut transitions: Vec<(u32, u32, f64)> = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| MarkovError(format!("line {}: {msg}", lineno + 2));
            if let Some(word) = line.strip_prefix("W ") {
                words.push(word);
            } else if let Some(rest) = line.strip_prefix("S ") {
                let mut it = rest.split_whitespace();
                let id: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("bad start id"))?;
                let w: f64 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("bad start weight"))?;
                start.push((id, w));
            } else if let Some(rest) = line.strip_prefix("T ") {
                let mut it = rest.split_whitespace();
                let from: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("bad transition source"))?;
                let to: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("bad transition target"))?;
                let w: f64 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("bad transition weight"))?;
                transitions.push((from, to, w));
            } else {
                return Err(err("unknown line"));
            }
        }
        let mut successor_lists = vec![Vec::new(); words.len()];
        for (from, to, w) in transitions {
            if from as usize >= words.len() {
                return Err(MarkovError(format!("transition from unknown id {from}")));
            }
            successor_lists[from as usize].push((to, w));
        }
        Self::from_parts(&words, &start, &successor_lists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::word_count;
    use pdgf_prng::{PdgfDefaultRandom, PdgfRng};

    const SAMPLES: &[&str] = &[
        "carefully final deposits sleep quickly",
        "carefully regular packages sleep",
        "final deposits haggle carefully",
        "regular deposits sleep blithely",
        "packages haggle quickly",
    ];

    fn model() -> MarkovModel {
        let mut b = MarkovBuilder::new();
        for s in SAMPLES {
            b.feed(s);
        }
        b.build().unwrap()
    }

    fn rng_fn(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = PdgfDefaultRandom::seed_from(seed);
        move || rng.next_u64()
    }

    #[test]
    fn builder_counts_structure() {
        let m = model();
        // Distinct words across the corpus.
        assert_eq!(m.word_count(), 9);
        // Start words: carefully, final, regular, packages.
        assert_eq!(m.start_state_count(), 4);
        assert!(m.transition_count() >= 10);
    }

    #[test]
    fn generates_exact_word_counts() {
        let m = model();
        let mut rng = rng_fn(1);
        for n in [1u32, 2, 5, 10, 50] {
            let text = m.generate(&mut rng, n);
            assert_eq!(word_count(&text) as u32, n, "text: {text:?}");
        }
        assert_eq!(m.generate(&mut rng, 0), "");
    }

    #[test]
    fn generated_words_come_from_the_corpus() {
        let m = model();
        let corpus: std::collections::HashSet<&str> =
            SAMPLES.iter().flat_map(|s| s.split_whitespace()).collect();
        let mut rng = rng_fn(2);
        let text = m.generate(&mut rng, 200);
        for w in text.split_whitespace() {
            assert!(corpus.contains(w), "unknown word {w:?}");
        }
    }

    #[test]
    fn generated_bigrams_follow_observed_transitions_or_restarts() {
        let m = model();
        let observed: std::collections::HashSet<(String, String)> = SAMPLES
            .iter()
            .flat_map(|s| {
                let w: Vec<&str> = s.split_whitespace().collect();
                w.windows(2)
                    .map(|p| (p[0].to_string(), p[1].to_string()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let starts: std::collections::HashSet<&str> = SAMPLES
            .iter()
            .map(|s| s.split_whitespace().next().unwrap())
            .collect();
        let mut rng = rng_fn(3);
        let text = m.generate(&mut rng, 500);
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let ok = observed.contains(&(pair[0].to_string(), pair[1].to_string()))
                || starts.contains(pair[1]);
            assert!(ok, "impossible bigram {pair:?}");
        }
    }

    #[test]
    fn range_generation_stays_in_bounds() {
        let m = model();
        let mut rng = rng_fn(4);
        for _ in 0..200 {
            let text = m.generate_range(&mut rng, 1, 10);
            let n = word_count(&text);
            assert!((1..=10).contains(&n), "{n} words");
        }
    }

    #[test]
    fn binary_roundtrip_preserves_generation() {
        let m = model();
        let bytes = m.to_bytes();
        let back = MarkovModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.word_count(), m.word_count());
        assert_eq!(back.start_state_count(), m.start_state_count());
        assert_eq!(back.transition_count(), m.transition_count());
        let mut r1 = rng_fn(5);
        let mut r2 = rng_fn(5);
        for _ in 0..50 {
            assert_eq!(m.generate(&mut r1, 8), back.generate(&mut r2, 8));
        }
    }

    #[test]
    fn text_roundtrip_preserves_generation() {
        let m = model();
        let text = m.to_text();
        let back = MarkovModel::from_text(&text).unwrap();
        let mut r1 = rng_fn(6);
        let mut r2 = rng_fn(6);
        for _ in 0..50 {
            assert_eq!(m.generate(&mut r1, 8), back.generate(&mut r2, 8));
        }
    }

    #[test]
    fn corrupted_binary_is_rejected() {
        let m = model();
        let bytes = m.to_bytes();
        assert!(MarkovModel::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(MarkovModel::from_bytes(b"NOPE").is_err());
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(MarkovModel::from_bytes(&extended).is_err());
        let mut wrong_version = bytes.to_vec();
        wrong_version[4] = 99;
        assert!(MarkovModel::from_bytes(&wrong_version).is_err());

        // One cut per length check that the cases above do not reach, at
        // offsets read off the layout `binary_layout_is_pinned` spells out.
        let golden = three_word_model().to_bytes();
        for (cut, inside) in [
            (8, "the word count"),
            (12, "a word's length"),
            (20, "a word's bytes"),
            (29, "the start count"),
            (37, "a start entry"),
            (45, "a successor count"),
            (53, "a successor entry"),
        ] {
            let err = MarkovModel::from_bytes(&golden[..cut]).unwrap_err();
            assert_eq!(err.0, "truncated model", "cut inside {inside}");
        }
        let mut not_utf8 = golden.to_vec();
        not_utf8[14] = 0xFF;
        let err = MarkovModel::from_bytes(&not_utf8).unwrap_err();
        assert_eq!(err.0, "non-UTF8 word");
    }

    fn three_word_model() -> MarkovModel {
        let mut b = MarkovBuilder::new();
        b.feed("a bb ccc");
        b.feed("a ccc");
        b.build().unwrap()
    }

    #[test]
    fn binary_layout_is_pinned() {
        let one = 1f64.to_le_bytes();
        let mut expected = Vec::new();
        expected.extend_from_slice(b"PMKV\x01\x00"); // magic, u16 version
        expected.extend_from_slice(b"\x03\0\0\0"); // 3 words: (u32 len, bytes)
        expected.extend_from_slice(b"\x01\0\0\0a\x02\0\0\0bb\x03\0\0\0ccc");
        expected.extend_from_slice(b"\x01\0\0\0"); // 1 start: "a" seen twice
        expected.extend_from_slice(b"\0\0\0\0\0\0\0\0\0\0\0\x40");
        expected.extend_from_slice(b"\x02\0\0\0"); // "a" -> "bb", "ccc"
        expected.extend_from_slice(b"\x01\0\0\0");
        expected.extend_from_slice(&one);
        expected.extend_from_slice(b"\x02\0\0\0");
        expected.extend_from_slice(&one);
        expected.extend_from_slice(b"\x01\0\0\0\x02\0\0\0"); // "bb" -> "ccc"
        expected.extend_from_slice(&one);
        expected.extend_from_slice(b"\0\0\0\0"); // "ccc" ends every sample
        assert_eq!(&three_word_model().to_bytes()[..], &expected[..]);
        assert_eq!(1f64.to_le_bytes(), *b"\0\0\0\0\0\0\xF0\x3F");
    }

    #[test]
    fn corrupted_text_is_rejected() {
        assert!(MarkovModel::from_text("").is_err());
        assert!(MarkovModel::from_text("markov-v1\n").is_err(), "no starts");
        assert!(
            MarkovModel::from_text("markov-v1\nW a\nS 5 1\n").is_err(),
            "bad id"
        );
        assert!(MarkovModel::from_text("markov-v1\nW a\nS 0 1\nT 3 0 1\n").is_err());
        assert!(MarkovModel::from_text("markov-v1\nW a\nX nope\n").is_err());
    }

    #[test]
    fn empty_builder_fails() {
        assert!(MarkovBuilder::new().build().is_err());
        let mut b = MarkovBuilder::new();
        b.feed("   ");
        assert_eq!(b.samples_seen(), 0);
        assert!(b.build().is_err());
    }

    /// The sampler the flat slot array replaced: one [`Alias`] per
    /// distribution over word ids, drawn through `&mut dyn FnMut`.
    struct AliasReference {
        words: Vec<String>,
        start: (Vec<u32>, Alias),
        successors: Vec<Option<(Vec<u32>, Alias)>>,
    }

    impl AliasReference {
        fn new(words: &[String], start: &[(u32, f64)], lists: &[Vec<(u32, f64)>]) -> Self {
            let dist = |list: &[(u32, f64)]| {
                let (ids, weights): (Vec<u32>, Vec<f64>) = list.iter().copied().unzip();
                (ids, Alias::new(&weights))
            };
            Self {
                words: words.to_vec(),
                start: dist(start),
                successors: lists
                    .iter()
                    .map(|l| (!l.is_empty()).then(|| dist(l)))
                    .collect(),
            }
        }

        fn generate_range(&self, rng: &mut dyn FnMut() -> u64, min: u32, max: u32) -> String {
            let span = u64::from(max - min) + 1;
            let n = min + ((u128::from(rng()) * u128::from(span)) >> 64) as u32;
            let mut out = String::new();
            if n == 0 {
                return out;
            }
            let start = |rng: &mut dyn FnMut() -> u64| self.start.0[self.start.1.sample_index(rng)];
            let mut current = start(rng);
            for i in 0..n {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&self.words[current as usize]);
                current = match &self.successors[current as usize] {
                    Some((ids, alias)) => ids[alias.sample_index(rng)],
                    None => start(rng),
                };
            }
            out
        }
    }

    /// Random models with dead ends, single-successor words, zero weights
    /// and (every fourth) a single start state sample the same words, in
    /// the same order, from the same draws as the alias reference.
    #[test]
    fn flat_slots_sample_like_the_alias_reference() {
        let mut shape = PdgfDefaultRandom::seed_from(0x5107);
        let mut below = |n: u64| shape.next_u64() % n;
        for case in 0..64u64 {
            let word_count = 1 + below(40) as usize;
            let words: Vec<String> = (0..word_count).map(|i| format!("w{i}é{case}")).collect();
            let weight = |r: u64| {
                if r.is_multiple_of(5) {
                    0.0
                } else {
                    (r % 97) as f64 + 0.5
                }
            };
            let starts = if case % 4 == 0 {
                1
            } else {
                1 + below(word_count as u64)
            };
            let start: Vec<(u32, f64)> = (0..starts)
                .map(|_| (below(word_count as u64) as u32, weight(below(1000))))
                .collect();
            let lists: Vec<Vec<(u32, f64)>> = (0..word_count)
                .map(|_| {
                    let len = match below(4) {
                        0 => 0,
                        1 => 1,
                        _ => below(word_count as u64 + 1),
                    };
                    (0..len)
                        .map(|_| (below(word_count as u64) as u32, weight(below(1000))))
                        .collect()
                })
                .collect();
            let flat = MarkovModel::from_parts(&words, &start, &lists).unwrap();
            let reference = AliasReference::new(&words, &start, &lists);
            let (mut r1, mut r2) = (rng_fn(case), rng_fn(case));
            for _ in 0..20 {
                let got = flat.generate_range(&mut r1, 0, 30);
                assert_eq!(got, reference.generate_range(&mut r2, 0, 30), "case {case}");
            }
            assert_eq!(r1(), r2(), "case {case}: draw counts diverged");
        }
    }

    #[test]
    fn single_word_corpus_generates_by_restarting() {
        let mut b = MarkovBuilder::new();
        b.feed("alone");
        let m = b.build().unwrap();
        let mut rng = rng_fn(7);
        assert_eq!(m.generate(&mut rng, 3), "alone alone alone");
    }
}
