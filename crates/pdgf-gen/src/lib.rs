//! Field value generators and the executable schema runtime.
//!
//! `pdgf-schema` describes *what* to generate; this crate turns those
//! descriptions into executable [`Generator`]
//! pipelines. The design follows Section 2 of the paper:
//!
//! * **Simple generators** produce values directly (numbers, dates,
//!   dictionary entries, random strings) — see [`basic`] and [`text`].
//! * **Meta generators** "concatenate results from other generators or
//!   execute different generators based on certain conditions", enabling
//!   "a functional definition of complex values and dependencies using
//!   simple building blocks" — see [`meta`].
//! * **Reference generators** recompute the referenced cell instead of
//!   reading previously generated data, the key to fully parallel
//!   generation — see [`reference`](mod@reference).
//!
//! The [`SchemaRuntime`] binds a validated
//! [`Schema`](pdgf_schema::Schema) to concrete generators and exposes the
//! fundamental operation of PDGF: *`value(table, column, update, row)` as
//! a pure function*.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        reason = "test code is exempt"
    )
)]

pub mod basic;
pub mod generator;
pub mod meta;
pub mod reference;
pub mod resolver;
pub mod runtime;
pub mod text;

pub use generator::{ColumnCtx, GenScratch, Generator};
pub use resolver::{FsResolver, MapResolver, ResolveError, ResolverOracle, ResourceResolver};
pub use runtime::{BuildError, SchemaRuntime};
