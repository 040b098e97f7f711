//! Dictionary and Markov-chain text synthesis.
//!
//! Big data sets are full of free text, and the paper's central DBSynth
//! claim is that *values themselves* must be synthetic and realistic:
//! "The Markov generator builds dictionaries for single word text fields
//! and Markov chains for free text, the parameters for the Markov model
//! are adjusted based on the original data."
//!
//! * [`tokenize`](mod@tokenize) — word segmentation shared by analysis and
//!   generation, and the cut of text to a column's width,
//! * [`dict`] — weighted dictionaries with alias-method sampling and the
//!   DBSynth on-disk dictionary format,
//! * [`markov`] — order-1 word Markov chains: frequency analysis of word
//!   combinations, start-state distribution, O(1) sampling, and the
//!   binary `*.bin` model format referenced from PDGF configurations.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod dict;
pub mod markov;
pub mod tokenize;

pub use dict::Dictionary;
pub use markov::{MarkovBuilder, MarkovModel};
pub use tokenize::{keep_len, tokenize};
