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
//! each step adding a small constant.

use std::hint::black_box;

use bench::{banner, ns_row};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_schema::{Field, GeneratorSpec, Schema, SqlType, Table, Value};

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

fn main() {
    banner(
        "Figure 7: generation latency of independent values, by subpart (ns/value)",
        "static ~50 ns; NULL wrapper adds ~50 ns; NULL(0%) runs the inner generator too, ~200 ns in all",
    );
    let static_value = GeneratorSpec::Static {
        value: Value::text("fixed"),
    };

    bench_value(
        "fig7/static_value_no_cache",
        &runtime_with(static_value.clone()),
    );
    bench_value(
        "fig7/null_generator_100pct_null",
        &runtime_with(GeneratorSpec::Null {
            probability: 1.0,
            inner: Box::new(static_value.clone()),
        }),
    );
    bench_value(
        "fig7/null_generator_0pct_null",
        &runtime_with(GeneratorSpec::Null {
            probability: 0.0,
            inner: Box::new(static_value),
        }),
    );
}
