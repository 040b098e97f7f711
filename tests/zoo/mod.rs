//! The generator zoo and the row oracle: one schema exercising every
//! shipped generator kind, and (`oracle.rs`) the one-row-at-a-time
//! reference every byte-identity suite compares the engine against.
//! Shared by the cross-path matrix (`columnar_identity.rs`) and the serve
//! matrices (`serve_matrix.rs`, `http_data_plane.rs`).

#![allow(dead_code, unused_imports)] // each test binary uses a subset of these helpers

mod oracle;

pub use oracle::oracle_bytes;

use pdgf_schema::model::{DateFormat, DictSource, HistogramOutput, MarkovSource, RefDistribution};
use pdgf_schema::value::Date;
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table, Value};

pub fn expr(s: &str) -> Expr {
    Expr::parse(s).expect("literal expression")
}

pub fn inline_dict() -> DictSource {
    DictSource::Inline {
        entries: vec![
            ("alpha".to_string(), 1.0),
            ("beta".to_string(), 3.0),
            ("gamma, \"quoted\" & <tagged>".to_string(), 2.0),
            ("delta".to_string(), 0.5),
        ],
    }
}

pub fn inline_markov() -> MarkovSource {
    let samples = [
        "carefully final deposits sleep quickly",
        "furiously regular requests haggle blithely",
        "quickly special packages wake across the ideas",
        "silent platelets detect slyly",
    ];
    let mut builder = textsynth::MarkovBuilder::new();
    for s in samples {
        builder.feed(s);
    }
    MarkovSource::Inline(builder.build().expect("non-empty corpus").to_text())
}

/// One table per shipped generator kind (plus a parent for references),
/// so a matrix over this schema covers every kernel and every fallback
/// in one run.
pub fn generator_zoo() -> Schema {
    let parent = Table::new("parent", "29")
        .field(Field::new("pk", SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary())
        .field(Field::new(
            "name",
            SqlType::Varchar(12),
            GeneratorSpec::Dict {
                source: inline_dict(),
                weighted: false,
            },
        ));

    let kitchen = Table::new("kitchen", "257")
        .field(Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: true }).primary())
        .field(Field::new(
            "long_v",
            SqlType::Integer,
            GeneratorSpec::Long {
                min: expr("-500"),
                max: expr("100000"),
            },
        ))
        .field(Field::new(
            "double_v",
            SqlType::Double,
            GeneratorSpec::Double {
                min: expr("0"),
                max: expr("1000"),
                decimals: Some(3),
            },
        ))
        .field(Field::new(
            "double_raw",
            SqlType::Double,
            GeneratorSpec::Double {
                min: expr("-1"),
                max: expr("1"),
                decimals: None,
            },
        ))
        .field(Field::new(
            "dec_v",
            SqlType::Decimal(12, 2),
            GeneratorSpec::Decimal {
                min: expr("-999"),
                max: expr("999"),
                scale: 2,
            },
        ))
        .field(Field::new(
            "date_iso",
            SqlType::Date,
            GeneratorSpec::DateRange {
                min: Date::from_ymd(1992, 1, 1),
                max: Date::from_ymd(1998, 12, 31),
                format: DateFormat::Iso,
            },
        ))
        .field(Field::new(
            "date_mdy",
            SqlType::Varchar(10),
            GeneratorSpec::DateRange {
                min: Date::from_ymd(2000, 6, 1),
                max: Date::from_ymd(2014, 11, 30),
                format: DateFormat::SlashMdy,
            },
        ))
        .field(Field::new(
            "date_dmy",
            SqlType::Varchar(10),
            GeneratorSpec::DateRange {
                min: Date::from_ymd(1970, 1, 1),
                max: Date::from_ymd(1999, 12, 31),
                format: DateFormat::DotDmy,
            },
        ))
        .field(Field::new(
            "ts_v",
            SqlType::Timestamp,
            GeneratorSpec::TimestampRange {
                min: 0,
                max: 1_500_000_000,
            },
        ))
        .field(Field::new(
            "rstr",
            SqlType::Varchar(24),
            GeneratorSpec::RandomString {
                min_len: 3,
                max_len: 24,
            },
        ))
        // Declared width below max_len forces the truncate wrapper over
        // the random-string kernel.
        .field(Field::new(
            "rstr_trunc",
            SqlType::Varchar(8),
            GeneratorSpec::RandomString {
                min_len: 1,
                max_len: 16,
            },
        ))
        .field(Field::new(
            "flag",
            SqlType::Boolean,
            GeneratorSpec::RandomBool { true_prob: 0.37 },
        ))
        .field(Field::new(
            "dict_w",
            SqlType::Varchar(40),
            GeneratorSpec::Dict {
                source: inline_dict(),
                weighted: true,
            },
        ))
        .field(Field::new(
            "dict_row",
            SqlType::Varchar(40),
            GeneratorSpec::DictByRow {
                source: inline_dict(),
            },
        ))
        .field(Field::new(
            "comment",
            SqlType::Varchar(60),
            GeneratorSpec::Markov {
                source: inline_markov(),
                min_words: 2,
                max_words: 9,
            },
        ))
        .field(Field::new(
            "ref_uniform",
            SqlType::BigInt,
            GeneratorSpec::Reference {
                table: "parent".to_string(),
                field: "pk".to_string(),
                distribution: RefDistribution::Uniform,
            },
        ))
        .field(Field::new(
            "ref_zipf",
            SqlType::Varchar(12),
            GeneratorSpec::Reference {
                table: "parent".to_string(),
                field: "name".to_string(),
                distribution: RefDistribution::Zipf { theta: 0.5 },
            },
        ))
        .field(Field::new(
            "ref_zipf_pk",
            SqlType::BigInt,
            GeneratorSpec::Reference {
                table: "parent".to_string(),
                field: "pk".to_string(),
                distribution: RefDistribution::Zipf { theta: 0.8 },
            },
        ))
        .field(Field::new(
            "ref_perm",
            SqlType::BigInt,
            GeneratorSpec::Reference {
                table: "parent".to_string(),
                field: "pk".to_string(),
                distribution: RefDistribution::Permutation,
            },
        ))
        .field(Field::new(
            "maybe_null",
            SqlType::Integer,
            GeneratorSpec::Null {
                probability: 0.25,
                inner: Box::new(GeneratorSpec::Long {
                    min: expr("1"),
                    max: expr("9"),
                }),
            },
        ))
        .field(Field::new(
            "constant",
            SqlType::Varchar(16),
            GeneratorSpec::Static {
                value: Value::text("fixed \"cell\""),
            },
        ))
        .field(Field::new(
            "concat",
            SqlType::Varchar(40),
            GeneratorSpec::Sequential {
                parts: vec![
                    GeneratorSpec::Dict {
                        source: inline_dict(),
                        weighted: false,
                    },
                    GeneratorSpec::Long {
                        min: expr("10"),
                        max: expr("99"),
                    },
                ],
                separator: "-".to_string(),
            },
        ))
        .field(Field::new(
            "branchy",
            SqlType::Varchar(40),
            GeneratorSpec::Probability {
                branches: vec![
                    (
                        0.6,
                        GeneratorSpec::Long {
                            min: expr("0"),
                            max: expr("9"),
                        },
                    ),
                    (
                        0.4,
                        GeneratorSpec::Dict {
                            source: inline_dict(),
                            weighted: false,
                        },
                    ),
                ],
            },
        ))
        .field(Field::new(
            "formula",
            SqlType::BigInt,
            GeneratorSpec::Formula {
                expr: expr("${ROW} % 7 + 1"),
                as_long: true,
            },
        ))
        .field(Field::new(
            "hist_long",
            SqlType::Integer,
            GeneratorSpec::HistogramNumeric {
                bounds: vec![0.0, 10.0, 100.0, 1000.0],
                weights: vec![5.0, 3.0, 1.0],
                output: HistogramOutput::Long,
            },
        ))
        .field(Field::new(
            "hist_dec",
            SqlType::Decimal(10, 2),
            GeneratorSpec::HistogramNumeric {
                bounds: vec![1.0, 2.5, 9.0],
                weights: vec![1.0, 1.0],
                output: HistogramOutput::Decimal(2),
            },
        ));

    Schema::new("zoo", 0xC01_AB5).table(parent).table(kitchen)
}
