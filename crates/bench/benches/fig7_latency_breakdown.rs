//! Figure 7 — generation latency of independent values, broken into its
//! subparts.
//!
//! Paper: "For a static value … the pure system overhead can be seen. It
//! is in the order of 50 Nanoseconds. If a NULL value generator is
//! wrapped around a static value that is NULL with 100% probability, the
//! overhead of the NULL generator is added … again in the order of 50 ns.
//! Finally, if the NULL probability is 0% the inner static value
//! generator has to be executed in all cases, this adds the base time for
//! the sub-generator and the actual value generation … Thus the total
//! duration for each value is in the order of 200 ns."
//!
//! Expected shape: latency(Static) < latency(Null 100%) < latency(Null 0%),
//! each step adding a small constant. Each configuration is timed per
//! value (`SchemaRuntime::value`) and on the batch path that `generate`
//! runs (`fill_batch`, 4,096-row batches, reported per value).

use std::hint::black_box;
use std::time::Duration;

use bench::{banner, cell, ns_row};
use pdgf_gen::{GenScratch, MapResolver, SchemaRuntime};
use pdgf_schema::{ColumnBatch, Field, GeneratorSpec, Schema, SqlType, Table, Value};

/// Rows per `fill_batch` call on the batch path.
const BATCH_ROWS: u64 = 4_096;

fn runtime_with(generator: GeneratorSpec) -> SchemaRuntime {
    let schema = Schema::new("fig7", 12_456_789).table(
        Table::new("t", "1000000000").field(Field::new("f", SqlType::Varchar(64), generator)),
    );
    SchemaRuntime::build(&schema, &MapResolver::new()).expect("bench model builds")
}

fn bench_value(name: &str, rt: &SchemaRuntime) {
    let mut row = 0u64;
    ns_row(name, || {
        row = row.wrapping_add(1);
        black_box(rt.value(0, 0, 0, black_box(row)));
    });
}

/// Nanoseconds per value of the column filled `BATCH_ROWS` rows at a time,
/// walking the table.
fn bench_fill(name: &str, rt: &SchemaRuntime) {
    let mut batch = ColumnBatch::new();
    let mut scratch = GenScratch::default();
    let mut start = 0u64;
    let ns = benchmark::time_per_call(Duration::from_secs(2), 1, || {
        let rows = black_box(start..start + BATCH_ROWS);
        rt.fill_batch(0, 0, rows, &mut batch, &mut scratch);
        black_box(&batch);
        start += BATCH_ROWS;
    });
    println!("{name:<40} {:>34}", cell(&ns, 1.0 / BATCH_ROWS as f64, 1));
}

fn main() {
    banner(
        "Figure 7: generation latency of independent values, by subpart (ns/value)",
        "static ~50 ns; NULL wrapper adds ~50 ns; NULL(0%) runs the inner generator too, ~200 ns in all",
    );
    let static_value = GeneratorSpec::Static {
        value: Value::text("fixed"),
    };
    let configurations = [
        ("static_value_no_cache", static_value.clone()),
        (
            "null_generator_100pct_null",
            GeneratorSpec::Null {
                probability: 1.0,
                inner: Box::new(static_value.clone()),
            },
        ),
        (
            "null_generator_0pct_null",
            GeneratorSpec::Null {
                probability: 0.0,
                inner: Box::new(static_value),
            },
        ),
    ];
    let runtimes: Vec<_> = configurations
        .into_iter()
        .map(|(name, spec)| (name, runtime_with(spec)))
        .collect();
    for (name, rt) in &runtimes {
        bench_value(&format!("fig7/{name}"), rt);
    }
    for (name, rt) in &runtimes {
        bench_fill(&format!("fig7/batch/{name}"), rt);
    }
}
