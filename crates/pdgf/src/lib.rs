//! PDGF — the Parallel Data Generation Framework (Rust reproduction).
//!
//! This facade crate ties the framework together behind one builder API.
//! A complete run, mirroring the paper's workflow of "two XML
//! configuration files, one for the data model and one for the formatting
//! instructions", looks like:
//!
//! ```
//! use pdgf::{OutputFormat, Pdgf};
//!
//! let model = r#"
//! <schema name="mini">
//!   <seed>12456789</seed>
//!   <rng name="PdgfDefaultRandom"/>
//!   <property name="SF" type="double">1</property>
//!   <table name="t">
//!     <size>100 * ${SF}</size>
//!     <field name="id" type="BIGINT" primary="true"><gen_IdGenerator/></field>
//!     <field name="v" type="INTEGER">
//!       <gen_LongGenerator><min>0</min><max>99</max></gen_LongGenerator>
//!     </field>
//!   </table>
//! </schema>"#;
//!
//! let project = Pdgf::from_xml_str(model).unwrap().build().unwrap();
//! let csv = project.table_to_string("t", OutputFormat::Csv).unwrap();
//! assert_eq!(csv.lines().count(), 100);
//! ```
//!
//! The member crates are re-exported under their roles: [`prng`],
//! [`schema`], [`gen`], [`output`], [`runtime`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub use pdgf_gen as gen;
pub use pdgf_output as output;
pub use pdgf_prng as prng;
pub use pdgf_runtime as runtime;
pub use pdgf_schema as schema;

pub mod explain;
/// The row oracle the byte-identity unit tests compare the engine with.
#[cfg(test)]
#[path = "../../../tests/zoo/oracle.rs"]
mod oracle;
pub mod project;
pub mod serve;

pub use explain::{ColumnExplain, ExplainReport, PerFormat, TableExplain};
pub use project::{OutputFormat, Pdgf, PdgfError, PdgfProject};
pub use serve::{
    FetchRequest, ModelRegistry, ServeClient, ServeError, Server, ServerHandle, ServerOptions,
    ServerOptionsBuilder,
};
