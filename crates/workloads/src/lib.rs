//! Workload models for the evaluation.
//!
//! The paper's experiments run on three data sets, all rebuilt here:
//!
//! * [`tpch`] — "our custom implementation of the TPC-H data set" as a
//!   PDGF model: `models/tpch.xml`, embedded and parsed (the paper's
//!   Listing 1 shows an excerpt of exactly this configuration), used by the scale-up (Fig. 5), DBGen-comparison
//!   (Fig. 6), and extraction (Tab. E1) experiments;
//! * [`dbgen`] — a faithful architectural stand-in for TPC-H `dbgen`:
//!   hard-coded, sequential, stateful-RNG, per-instance output files
//!   (Fig. 6's baseline);
//! * [`bigbench`] — a BigBench-style retail model (structured tables +
//!   free-text product reviews with cross-references) for the multi-node
//!   scale-out experiment (Fig. 4);
//! * [`imdb`] — an IMDb-style movie database synthesized into `minidb`,
//!   the demo's "real use case" source for DBSynth extraction;
//! * [`ssb`] — the Star Schema Benchmark (uniform and skewed variants),
//!   which the paper lists among PDGF's implemented benchmarks, parsed
//!   from the embedded `models/ssb.xml`;
//! * [`corpus`] — shared word lists and the curated TPC-H comment Markov
//!   model.
//!
//! The files in `models/` are the only definition of TPC-H and SSB: the
//! two XML models and the comment Markov binary they both reference,
//! `models/markov/l_comment_markovSamples.bin`, which [`corpus`] embeds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod bigbench;
pub mod corpus;
pub mod dbgen;
pub mod imdb;
pub mod ssb;
pub mod tpch;
