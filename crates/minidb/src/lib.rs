//! minidb — an embedded relational database substrate.
//!
//! The paper's DBSynth "connects to a source database via JDBC" to read
//! schema metadata, statistics, and samples, and loads generated data
//! into a target database. This reproduction has no JDBC or PostgreSQL,
//! so minidb stands in for both ends: a small but real relational engine
//! exposing exactly the surfaces DBSynth exercises —
//!
//! * a **catalog** with SQL-92 column types, nullability, primary keys,
//!   and foreign-key constraints ([`catalog`]),
//! * **row storage** with constraint-checked inserts and scans
//!   ([`table`], [`db`]),
//! * **statistics** like a production system's `ANALYZE`: row counts,
//!   min/max, NULL fractions, distinct counts, equi-width histograms
//!   ([`stats`]),
//! * **sampling scans** with pluggable strategies ([`sample`]),
//! * a **SQL subset** (CREATE TABLE / INSERT / SELECT with WHERE, joins,
//!   GROUP BY, aggregates, ORDER BY, LIMIT) so original and synthetic
//!   databases can be compared by query, as the paper's demo does
//!   ([`sql`]),
//! * **CSV import/export and bulk load** for the generation target path
//!   ([`db`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "unwrap: library code returns its error type instead of panicking"
)]

pub mod catalog;
pub mod db;
pub mod sample;
pub mod sql;
pub mod stats;
pub mod table;

pub use catalog::{ColumnDef, ForeignKey, TableDef};
pub use db::{Database, DbError};
pub use sample::SampleStrategy;
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::TableData;
