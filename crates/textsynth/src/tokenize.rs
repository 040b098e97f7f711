//! Word segmentation.
//!
//! Analysis (building models from samples) and generation (counting words
//! of produced text) must agree on what a "word" is, so both go through
//! this module. A word is a maximal run of non-whitespace characters;
//! punctuation stays attached to its word (so generated text keeps commas
//! and periods in natural positions, as the source text had them).
//! [`keep_len`] is the one cut of text to a column's declared width.

/// Split `text` into words.
pub fn tokenize(text: &str) -> Vec<&str> {
    text.split_whitespace().collect()
}

/// Number of words in `text` without allocating.
pub fn word_count(text: &str) -> usize {
    text.split_whitespace().count()
}

/// True if every sample is at most one word — the DBSynth heuristic for
/// choosing a plain dictionary over a Markov chain.
pub fn is_single_word_column<'a>(samples: impl IntoIterator<Item = &'a str>) -> bool {
    samples.into_iter().all(|s| word_count(s) <= 1)
}

/// Byte length of `s` to keep when it is cut to `max_chars` chars, or
/// `None` when it fits. A cut landing exactly on a word end keeps the
/// whole head; otherwise the cut retreats to the last word boundary,
/// unless the first word alone overflows (then it is a hard cut). Only
/// the first `max_chars + 1` chars are read, so a text cut while it is
/// written, once it holds more than `max_chars` chars, cuts the same.
/// Bytes bound chars, so a text whose bytes fit skips the char walk, and
/// so does one whose first `max_chars + 1` bytes are ASCII: there the cut
/// is at byte `max_chars`.
pub fn keep_len(s: &str, max_chars: usize) -> Option<usize> {
    if s.len() <= max_chars {
        return None;
    }
    let (byte_idx, next_char) = if s.as_bytes()[..=max_chars].is_ascii() {
        (max_chars, char::from(s.as_bytes()[max_chars]))
    } else {
        s.char_indices().nth(max_chars)?
    };
    if next_char == ' ' {
        return Some(byte_idx);
    }
    match s[..byte_idx].rfind(' ') {
        Some(pos) if pos > 0 => Some(pos),
        _ => Some(byte_idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_any_whitespace() {
        assert_eq!(
            tokenize("carefully final\tdeposits\n sleep"),
            vec!["carefully", "final", "deposits", "sleep"]
        );
    }

    #[test]
    fn punctuation_stays_attached() {
        assert_eq!(tokenize("wake, quickly."), vec!["wake,", "quickly."]);
    }

    #[test]
    fn empty_and_blank_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
        assert_eq!(word_count(""), 0);
        assert_eq!(word_count(" one "), 1);
    }

    #[test]
    fn single_word_column_detection() {
        assert!(is_single_word_column(["red", "blue", "", "green"]));
        assert!(!is_single_word_column(["red", "light blue"]));
    }
}
