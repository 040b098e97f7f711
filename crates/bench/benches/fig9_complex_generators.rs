//! Figure 9 — complex generator latency.
//!
//! Paper: "String formatting is the most expensive operation in data
//! generation … Formatting a date value (e.g., '11/30/2014') increases
//! the generation cost to 1200 ns, which is similar to generating a value
//! that consists of a formula that references 2 double values and
//! concatenates it with a long. … using subgenerators incurs nearly
//! negligible cost (ca. 100 ns)."
//!
//! Series: DictList, Null(100%), Null(0%), Date(formatted),
//! Sequential(2 double + long), Double(4 places). Expected shape: the
//! formatted date and the sequential concatenation dominate, the NULL
//! wrapper costs a small constant.

use std::hint::black_box;

use bench::{banner, ns_row};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_schema::model::{DateFormat, DictSource};
use pdgf_schema::value::Date;
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

fn runtime_with(generator: GeneratorSpec) -> SchemaRuntime {
    let schema = Schema::new("fig9", 12_456_789).table(
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

fn double_gen() -> GeneratorSpec {
    GeneratorSpec::Double {
        min: Expr::parse("0").expect("literal"),
        max: Expr::parse("1000").expect("literal"),
        decimals: None,
    }
}

fn main() {
    banner(
        "Figure 9: complex generator latency (ns/value)",
        "formatted date ~1200 ns, like a 2-double + long concatenation; a sub-generator adds ~100 ns",
    );
    bench_value(
        "fig9/dictlist",
        &runtime_with(GeneratorSpec::Dict {
            source: DictSource::Inline {
                entries: (0..64).map(|i| (format!("entry{i}"), 1.0)).collect(),
            },
            weighted: true,
        }),
    );
    let inner = GeneratorSpec::Static {
        value: pdgf_schema::Value::text("v"),
    };
    bench_value(
        "fig9/null_100pct",
        &runtime_with(GeneratorSpec::Null {
            probability: 1.0,
            inner: Box::new(inner.clone()),
        }),
    );
    bench_value(
        "fig9/null_0pct",
        &runtime_with(GeneratorSpec::Null {
            probability: 0.0,
            inner: Box::new(inner),
        }),
    );
    bench_value(
        "fig9/date_formatted",
        &runtime_with(GeneratorSpec::DateRange {
            min: Date::from_ymd(1992, 1, 1),
            max: Date::from_ymd(2014, 11, 30),
            format: DateFormat::SlashMdy,
        }),
    );
    bench_value(
        "fig9/sequential_2double_plus_long",
        &runtime_with(GeneratorSpec::Sequential {
            parts: vec![
                double_gen(),
                double_gen(),
                GeneratorSpec::Long {
                    min: Expr::parse("0").expect("literal"),
                    max: Expr::parse("1000000").expect("literal"),
                },
            ],
            separator: " ".to_string(),
        }),
    );
    bench_value(
        "fig9/double_4_places",
        &runtime_with(GeneratorSpec::Double {
            min: Expr::parse("0").expect("literal"),
            max: Expr::parse("1000").expect("literal"),
            decimals: Some(4),
        }),
    );
}
