//! DBSynth — automatic data-model extraction and database synthesis.
//!
//! "DBSynth is an extension to PDGF that automates the configuration and
//! enables the extraction of data model information from an existing
//! database." (Section 3.) Given a source database, DBSynth:
//!
//! 1. reads **schema information** (types, keys, referential constraints)
//!    and, at configurable depth, **statistics** — min/max, NULL
//!    probabilities, histograms ([`extract`]);
//! 2. applies a **rule based system** that "searches for key words in the
//!    schema information and adds predefined generation rules", e.g.
//!    numeric columns named `key`/`id` get an ID generator ([`rules`]);
//! 3. if sampling is permitted, builds **dictionaries** for single-word
//!    text and **Markov chains** for free text ([`extract`], backed by
//!    `textsynth`);
//! 4. emits a complete **PDGF model** plus resource files, translates it
//!    into a SQL schema for the target database ([`translate`]), and can
//!    run the full extract→generate→load→validate loop ([`workflow`],
//!    [`validate`]).
//!
//! The source/target "database" is the [`minidb`] substrate (the paper's
//! JDBC-attached PostgreSQL/MySQL stand-in; see DESIGN.md).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "unwrap: library code returns its error type instead of panicking"
)]

pub mod extract;
pub mod querygen;
pub mod rules;
pub mod translate;
pub mod validate;
pub mod workflow;

pub use extract::{
    ExtractedModel, ExtractionOptions, ExtractionReport, Extractor, SamplingOptions,
};
pub use querygen::{
    analytic_answer, generate_queries, Answer, GeneratedQuery, QueryGenConfig, QueryKind,
};
pub use rules::RuleEngine;
pub use translate::schema_to_ddl;
pub use validate::{compare_databases, FidelityReport};
pub use workflow::{
    generate_into, load_database_dir, load_generated, load_model_dir, save_database_dir,
    save_model_dir, SynthesisReport,
};
