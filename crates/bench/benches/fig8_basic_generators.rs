//! Figure 8 — basic generator latency.
//!
//! Paper: "Picking values from dictionaries, computing random numbers,
//! and generating random strings are all in the range of 100 ns - 500 ns"
//! for unformatted simple values (DictList, Long, Double, Date, String).

use std::hint::black_box;

use bench::{banner, ns_row};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_schema::model::{DateFormat, DictSource};
use pdgf_schema::value::Date;
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

fn runtime_with(generator: GeneratorSpec) -> SchemaRuntime {
    let schema = Schema::new("fig8", 12_456_789).table(
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
        "Figure 8: basic generator latency (ns/value)",
        "dictionary picks, random numbers and random strings all within 100-500 ns",
    );
    bench_value(
        "fig8/dictlist",
        &runtime_with(GeneratorSpec::Dict {
            source: DictSource::Inline {
                entries: (0..64).map(|i| (format!("entry{i}"), 1.0)).collect(),
            },
            weighted: false,
        }),
    );
    bench_value(
        "fig8/long",
        &runtime_with(GeneratorSpec::Long {
            min: Expr::parse("0").expect("literal"),
            max: Expr::parse("1000000").expect("literal"),
        }),
    );
    bench_value(
        "fig8/double",
        &runtime_with(GeneratorSpec::Double {
            min: Expr::parse("0").expect("literal"),
            max: Expr::parse("1").expect("literal"),
            decimals: None,
        }),
    );
    bench_value(
        "fig8/date",
        &runtime_with(GeneratorSpec::DateRange {
            min: Date::from_ymd(1992, 1, 1),
            max: Date::from_ymd(1998, 12, 31),
            format: DateFormat::Iso,
        }),
    );
    bench_value(
        "fig8/string",
        &runtime_with(GeneratorSpec::RandomString {
            min_len: 10,
            max_len: 30,
        }),
    );
}
