//! Execution layer of the PDGF reproduction.
//!
//! Figure 2 of the paper shows the architecture this crate implements:
//! a controller initializes the system, "the meta scheduler manages
//! multi-node scheduling, while the scheduler assigns work packages to
//! the workers. A work package is a set of rows of a table that need to
//! be generated. The workers then initialize the correct generators using
//! the seeding system and the update black box. Whenever a work package
//! is generated, it is sent to the output system, where it can be
//! formatted and sorted."
//!
//! * [`package`] — table jobs, the framing a row range owns, and the
//!   node shard of a table (the meta-scheduler's whole job: a shard is a
//!   row range of every table),
//! * `engine` — the one execution core: ticket queue, worker loop,
//!   render (generate column-wise, format), ordered package streams with
//!   reader-driven windows; model-checkable under `--cfg loom`,
//! * [`scheduler`] — batch generation: a project's jobs as clients of
//!   the core, drained into sinks in sorted order,
//! * [`update`] — the update black box: deterministic insert/update/
//!   delete batches per abstract time unit,
//! * [`telemetry`] — the one observer a run takes (the demo's Mission
//!   Control substitute): progress counters, phase-latency histograms,
//!   utilization, the stall watchdog, and the one clock they all read,
//! * [`events`] — the structured run-event stream behind it (bounded,
//!   never blocking; a slow subscriber drops events, it cannot stall the
//!   run) and the JSON wire shapes,
//! * [`serve`] — the on-the-fly row service: admission, model table
//!   and statistics over a long-lived instance of the core, answering
//!   row-range and point-lookup requests byte-identical to batch output,
//! * [`driver`] — whole-project generation runs (or one node's shard of
//!   one) and their reports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "unwrap: worker-facing library code propagates an io::Error (or recovers) \
              instead of panicking"
)]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "test code is exempt"))]

pub mod driver;
mod engine;
pub mod events;
/// The row oracle the byte-identity unit tests compare the engine with.
#[cfg(test)]
#[path = "../../../tests/zoo/oracle.rs"]
mod oracle;
pub mod package;
pub mod scheduler;
pub mod serve;
pub mod telemetry;
/// Fixtures shared by this crate's unit tests.
#[cfg(test)]
mod testkit {
    use pdgf_gen::{MapResolver, SchemaRuntime};
    use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

    /// A schema of `(name, rows)` tables, each an `id` key plus a random
    /// integer `v`.
    pub(crate) fn runtime_of(tables: &[(&str, u64)]) -> SchemaRuntime {
        let mut schema = Schema::new("testkit", 23);
        for (name, rows) in tables {
            schema = schema.table(
                Table::new(name, &rows.to_string())
                    .field(
                        Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                            .primary(),
                    )
                    .field(Field::new(
                        "v",
                        SqlType::Integer,
                        GeneratorSpec::Long {
                            min: Expr::parse("0").unwrap(),
                            max: Expr::parse("999999").unwrap(),
                        },
                    )),
            );
        }
        SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
    }

    /// One table `t` of `rows` rows.
    pub(crate) fn runtime(rows: u64) -> SchemaRuntime {
        runtime_of(&[("t", rows)])
    }
}
pub mod update;

pub use driver::{GenerationRun, RunReport, TableReport};
pub use events::{EventSubscriber, RunEvent, StampedEvent};
pub use package::{Framing, TableJob};
pub use scheduler::{
    available_workers, generate_table_range, run_project, table_meta, RunConfig, TableRunStats,
};
pub use serve::{
    Admitted, ResponseStream, RowRequest, RowService, ServeConfig, ServeStats, SubmitError,
};
pub use telemetry::{
    MetricsSnapshot, PackageTimings, PhaseStats, QueueDepthStats, Snapshot, TableSnapshot,
    Telemetry,
};
pub use update::{UpdateBatch, UpdateBlackBox, UpdateConfig, UpdateOp};
