//! Hash-style pseudo random number generation for PDGF.
//!
//! PDGF's generation strategy (Rabl et al., "Just can't get enough —
//! Synthesizing Big Data", SIGMOD 2015) rests on one idea: every cell of
//! every table is a *pure function* of its coordinates. The paper achieves
//! this with xorshift random number generators that "behave like hash
//! functions" and an elaborate hierarchical seeding strategy:
//!
//! ```text
//! project seed ──► table seed ──► column seed ──► update seed ──► row seed
//!                                                                   │
//!                                                        value generator stream
//! ```
//!
//! This crate provides:
//!
//! * [`mix`] — avalanche-quality 64-bit mixing functions (the "hash" core),
//! * [`rng`] — the [`PdgfRng`] trait and the concrete
//!   generators ([`PdgfDefaultRandom`],
//!   [`XorShift64Star`],
//!   [`Xoroshiro128PlusPlus`]),
//! * [`seed`] — the hierarchical [`SeedTree`] with cached
//!   table/column/update seeds,
//! * [`dist`] — repeatable distributions (uniform, normal, exponential,
//!   Zipf, alias-method discrete) built on any [`PdgfRng`],
//! * [`permute`] — deterministic Feistel permutations over arbitrary
//!   domains `[0, n)`, used for unique-key scrambling and consistent
//!   reference shuffling.
//!
//! Everything in this crate is deterministic, `Send + Sync` friendly, and
//! allocation-free on the hot path.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "test code is exempt"))]

pub mod dist;
pub mod mix;
pub mod permute;
pub mod rng;
pub mod seed;

pub use dist::{Alias, Distribution, Exponential, Normal, UniformF64, UniformI64, Zipf};
pub use mix::{mix64, mix64_pair, stafford13};
pub use permute::FeistelPermutation;
pub use rng::{PdgfDefaultRandom, PdgfRng, RngKind, XorShift64Star, Xoroshiro128PlusPlus};
pub use seed::{FieldCoord, SeedTree};
