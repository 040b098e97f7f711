//! Data model and configuration layer of the PDGF reproduction.
//!
//! A PDGF project is described by a *schema configuration* (Listing 1 of
//! the paper shows the XML form): a project seed, a PRNG choice, a set of
//! scale properties (`SF` etc.), and per-table field definitions, where
//! each field names a generator and its parameters.
//!
//! This crate contains everything that is *description*, not execution:
//!
//! * [`value`] — the runtime [`Value`] cell type, its borrowed
//!   [`ValueRef`] view, and calendar helpers,
//! * [`column`](mod@column) — typed columnar batch storage ([`ColumnVec`]) for the
//!   vectorized generation path,
//! * [`types`] — the SQL-92 type system ([`SqlType`]),
//! * [`expr`] — the `${NAME}`-style arithmetic expression language used
//!   by size formulas and properties (`6000000 * ${SF}`),
//! * [`props`] — the ordered property bag with dependency resolution and
//!   command-line overrides,
//! * [`model`] — the schema model: project, tables, fields, and
//!   [`GeneratorSpec`]s,
//! * [`analyze`] — the multi-pass static analyzer behind
//!   `Schema::validate` and `pdgf validate`,
//! * [`absint`] — the abstract interpreter proving value domains, byte
//!   widths, key uniqueness and per-cell draws at a concrete scale
//!   (`pdgf explain`),
//! * [`xml`] — a minimal XML reader/writer,
//! * [`config`] — the mapping between schema model and its XML form,
//! * [`sync`] — the one lock facade of the workspace: poison-recovering
//!   locks that are leaves by construction, predicate-only waits.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_macros,
    reason = "columnar-cell-alloc covers column.rs only, which denies both"
)]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "test code is exempt"))]

pub mod absint;
pub mod analyze;
pub mod column;
pub mod config;
#[cfg(test)]
mod diag_registry;
pub mod expr;
pub mod model;
pub mod props;
pub mod sync;
pub mod types;
pub mod value;
pub mod xml;

pub use analyze::{Analysis, Diagnostic, Severity};
pub use column::{ColumnBatch, ColumnData, ColumnVec, DictColumn, DictTable, TextColumn};
pub use expr::Expr;
pub use model::{Field, GeneratorSpec, Schema, Table};
pub use props::PropertyBag;
pub use types::SqlType;
pub use value::{Date, Value, ValueRef};
