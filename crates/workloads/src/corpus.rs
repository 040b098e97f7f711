//! Shared vocabulary and curated text models.
//!
//! TPC-H's `dbgen` generates comment text from a fixed grammar over word
//! lists (adverbs, adjectives, nouns, verbs, …); `dbgen` and `bigbench`
//! draw from these lists. The Markov model PDGF's TPC-H configuration
//! references was fit on sentences of that grammar and ships as
//! `models/markov/l_comment_markovSamples.bin`; the paper reports its
//! `l_comment` model at ~1500 words and 95 starting states, at a scale
//! the shipped model approximates.

use textsynth::MarkovModel;

/// TPC-H grammar adverbs.
pub const ADVERBS: &[&str] = &[
    "sometimes",
    "always",
    "never",
    "furiously",
    "slyly",
    "carefully",
    "blithely",
    "quickly",
    "fluffily",
    "silently",
    "daringly",
    "busily",
    "ruthlessly",
    "finally",
    "ironically",
    "evenly",
    "boldly",
    "quietly",
];

/// TPC-H grammar adjectives.
pub const ADJECTIVES: &[&str] = &[
    "special",
    "pending",
    "unusual",
    "express",
    "furious",
    "sly",
    "careful",
    "blithe",
    "quick",
    "fluffy",
    "slow",
    "quiet",
    "ruthless",
    "thin",
    "close",
    "dogged",
    "daring",
    "brave",
    "stealthy",
    "permanent",
    "enticing",
    "idle",
    "busy",
    "regular",
    "final",
    "ironic",
    "even",
    "bold",
    "silent",
];

/// TPC-H grammar nouns.
pub const NOUNS: &[&str] = &[
    "foxes",
    "ideas",
    "theodolites",
    "pinto",
    "beans",
    "instructions",
    "dependencies",
    "excuses",
    "platelets",
    "asymptotes",
    "courts",
    "dolphins",
    "multipliers",
    "sauternes",
    "warthogs",
    "frets",
    "dinos",
    "attainments",
    "somas",
    "braids",
    "frays",
    "warhorses",
    "dugouts",
    "notornis",
    "epitaphs",
    "pearls",
    "tithes",
    "waters",
    "orbits",
    "gifts",
    "sheaves",
    "depths",
    "sentiments",
    "decoys",
    "realms",
    "pains",
    "grouches",
    "escapades",
    "hockey",
    "players",
    "requests",
    "accounts",
    "packages",
    "deposits",
    "patterns",
];

/// TPC-H grammar verbs.
pub const VERBS: &[&str] = &[
    "sleep",
    "wake",
    "are",
    "cajole",
    "haggle",
    "nag",
    "use",
    "boost",
    "affix",
    "detect",
    "integrate",
    "maintain",
    "nod",
    "was",
    "lose",
    "sublate",
    "solve",
    "thrash",
    "promise",
    "engage",
    "hinder",
    "print",
    "x-ray",
    "breach",
    "eat",
    "grow",
    "impress",
    "mold",
    "poach",
    "serve",
    "run",
    "dazzle",
    "snooze",
    "doze",
    "unwind",
    "kindle",
    "play",
    "hang",
    "believe",
    "doubt",
];

/// TPC-H part color words (used by `p_name`).
pub const COLORS: &[&str] = &[
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
    "grey",
    "honeydew",
    "hot",
    "hotpink",
    "indian",
    "ivory",
    "khaki",
    "lace",
    "lavender",
    "lawn",
    "lemon",
    "light",
    "lime",
    "linen",
    "magenta",
    "maroon",
    "medium",
    "metallic",
    "midnight",
    "mint",
    "misty",
    "moccasin",
    "navajo",
    "navy",
    "olive",
    "orange",
    "orchid",
    "pale",
    "papaya",
    "peach",
    "peru",
    "pink",
    "plum",
    "powder",
    "puff",
    "purple",
    "red",
    "rose",
    "rosy",
    "royal",
    "saddle",
    "salmon",
    "sandy",
    "seashell",
    "sienna",
    "sky",
    "slate",
    "smoke",
    "snow",
    "spring",
    "steel",
    "tan",
    "thistle",
    "tomato",
    "turquoise",
    "violet",
    "wheat",
    "white",
    "yellow",
];

/// The curated TPC-H comment Markov model that `models/tpch.xml` and
/// `models/ssb.xml` reference, decoded from the embedded
/// `models/markov/l_comment_markovSamples.bin`.
pub fn tpch_comment_model() -> MarkovModel {
    MarkovModel::from_bytes(include_bytes!(
        "../../../models/markov/l_comment_markovSamples.bin"
    ))
    .expect("the shipped comment model decodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_prng::{PdgfDefaultRandom, PdgfRng};

    #[test]
    fn comment_model_statistics_match_paper_scale() {
        let m = tpch_comment_model();
        // "the comment field model contains 1500 words and 95 starting
        // states, which can easily be fit in memory" — our abridged word
        // lists give the same order of magnitude.
        assert!(
            (100..3000).contains(&m.word_count()),
            "word count {}",
            m.word_count()
        );
        assert!(
            (10..200).contains(&m.start_state_count()),
            "start states {}",
            m.start_state_count()
        );
    }

    #[test]
    fn generated_comments_look_like_dbgen_text() {
        let m = tpch_comment_model();
        let mut rng = PdgfDefaultRandom::seed_from(9);
        let text = m.generate_range(&mut || rng.next_u64(), 1, 10);
        assert!(!text.is_empty());
        let n = text.split_whitespace().count();
        assert!((1..=10).contains(&n));
    }
}
