//! Byte-identity of the columnar batch engine against the row oracle.
//!
//! The engine replays exactly the per-cell RNG draw sequence of a
//! row-at-a-time point read, so for every shipped generator kind, every
//! output format, every worker count, and ragged package sizes, it must
//! produce the bytes of `zoo::oracle_bytes` (one row at a time through
//! `row_into_with_scratch`, which runs `emit_cell` per cell, +
//! `Formatter::row` on one thread). The two sides share each generator's
//! kernel but not its loop: the oracle emits one cell at a time, the
//! engine fills a column of a package at a time. These tests are the
//! enforcement of that contract across the full generator zoo (the
//! per-kernel unit tests in `pdgf-gen` check the same thing generator by
//! generator).

mod zoo;

use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::{CsvFormatter, Formatter, JsonFormatter, MemorySink, SqlFormatter, XmlFormatter};
use pdgf_runtime::{generate_table_range, RunConfig};
use pdgf_schema::model::DateFormat;
use pdgf_schema::value::Date;
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};
use proptest::prelude::*;
use zoo::{generator_zoo, inline_dict, oracle_bytes};

fn expr(s: &str) -> Expr {
    Expr::parse(s).expect("literal expression")
}

/// The whole table through the engine at update epoch `update`.
fn render(
    rt: &SchemaRuntime,
    table: u32,
    update: u32,
    formatter: &dyn Formatter,
    workers: usize,
    package_rows: u64,
) -> Vec<u8> {
    let mut sink = MemorySink::new();
    generate_table_range(
        rt,
        table,
        update,
        0..rt.tables()[table as usize].size,
        formatter,
        &mut sink,
        &RunConfig::new().workers(workers).package_rows(package_rows),
        None,
    )
    .expect("generate");
    sink.into_inner()
}

/// The whole table through the row oracle.
fn oracle(rt: &SchemaRuntime, table: u32, update: u32, formatter: &dyn Formatter) -> Vec<u8> {
    let rows = 0..rt.tables()[table as usize].size;
    oracle_bytes(rt, table, update, rows, formatter)
}

/// The full matrix: every generator kind (via the zoo schema) × all four
/// formats × {1, 2, 4} workers (plus inline) × ragged package sizes.
#[test]
fn columnar_matches_row_path_across_generators_formats_and_workers() {
    let schema = generator_zoo();
    let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("zoo builds");
    let formatters: [&dyn Formatter; 4] = [
        &CsvFormatter::new(),
        &JsonFormatter,
        &XmlFormatter,
        &SqlFormatter::new(),
    ];
    for table in 0..rt.tables().len() as u32 {
        for formatter in formatters {
            let reference = oracle(&rt, table, 0, formatter);
            for workers in [0usize, 1, 2, 4] {
                for pkg in [7u64, 61, 100_000] {
                    assert_eq!(
                        render(&rt, table, 0, formatter, workers, pkg),
                        reference,
                        "table={table} format={} workers={workers} pkg={pkg}",
                        formatter.name()
                    );
                }
            }
        }
    }
}

/// Update epochs shift the hoisted seed prefix; identity must hold off
/// epoch 0 too.
#[test]
fn columnar_matches_row_path_on_update_epochs() {
    let schema = generator_zoo();
    let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("zoo builds");
    let csv = CsvFormatter::new();
    for update in [1u32, 5] {
        assert_eq!(
            render(&rt, 1, update, &csv, 2, 31),
            oracle(&rt, 1, update, &csv),
            "update={update}"
        );
    }
}

/// A generator spec drawn from a small pool by index — the pool covers
/// typed kernels, text kernels, and meta wrappers so random mini-schemas
/// exercise mixed batches.
fn spec_from_pool(i: usize) -> GeneratorSpec {
    match i % 10 {
        0 => GeneratorSpec::Id {
            permute: i % 20 >= 10,
        },
        1 => GeneratorSpec::Long {
            min: expr("-100"),
            max: expr("100"),
        },
        2 => GeneratorSpec::Double {
            min: expr("0"),
            max: expr("10"),
            decimals: Some(2),
        },
        3 => GeneratorSpec::Decimal {
            min: expr("0"),
            max: expr("500"),
            scale: 2,
        },
        4 => GeneratorSpec::DateRange {
            min: Date::from_ymd(1995, 1, 1),
            max: Date::from_ymd(1997, 12, 31),
            format: if i % 20 >= 10 {
                DateFormat::SlashMdy
            } else {
                DateFormat::Iso
            },
        },
        5 => GeneratorSpec::RandomString {
            min_len: 1,
            max_len: 12,
        },
        6 => GeneratorSpec::RandomBool { true_prob: 0.5 },
        7 => GeneratorSpec::Dict {
            source: inline_dict(),
            weighted: i % 20 >= 10,
        },
        8 => GeneratorSpec::Null {
            probability: 0.3,
            inner: Box::new(GeneratorSpec::Long {
                min: expr("0"),
                max: expr("99"),
            }),
        },
        _ => GeneratorSpec::Formula {
            expr: expr("${ROW} * 3 % 11"),
            as_long: true,
        },
    }
}

fn sql_type_for(spec: &GeneratorSpec) -> SqlType {
    match spec {
        GeneratorSpec::Id { .. } => SqlType::BigInt,
        GeneratorSpec::Long { .. } | GeneratorSpec::Formula { .. } => SqlType::Integer,
        GeneratorSpec::Double { .. } => SqlType::Double,
        GeneratorSpec::Decimal { .. } => SqlType::Decimal(10, 2),
        GeneratorSpec::DateRange {
            format: DateFormat::Iso,
            ..
        } => SqlType::Date,
        GeneratorSpec::RandomBool { .. } => SqlType::Boolean,
        GeneratorSpec::Null { .. } => SqlType::Integer,
        _ => SqlType::Varchar(20),
    }
}

proptest! {
    /// Random mini-schemas: any combination of pooled generators, rows,
    /// seed, workers, and package size is byte-identical to the oracle.
    #[test]
    fn random_mini_schemas_are_byte_identical_across_paths(
        cols in prop::collection::vec(0usize..40, 1..6),
        rows in 1u64..300,
        seed in any::<u64>(),
        workers in 0usize..4,
        package_rows in 1u64..120,
    ) {
        let mut table = Table::new("t", &rows.to_string());
        for (c, pick) in cols.iter().enumerate() {
            let spec = spec_from_pool(*pick);
            let ty = sql_type_for(&spec);
            table = table.field(Field::new(&format!("c{c}"), ty, spec));
        }
        let schema = Schema::new("mini", seed).table(table);
        let rt = SchemaRuntime::build(&schema, &MapResolver::new()).expect("mini builds");
        let formatters: [&dyn Formatter; 4] = [
            &CsvFormatter::new(),
            &JsonFormatter,
            &XmlFormatter,
            &SqlFormatter::new(),
        ];
        for formatter in formatters {
            let engine = render(&rt, 0, 0, formatter, workers, package_rows);
            let reference = oracle(&rt, 0, 0, formatter);
            prop_assert_eq!(&engine, &reference, "format={}", formatter.name());
        }
    }
}
