//! The compiled runtime's column profiles must agree with the
//! schema-level abstract interpreter: both fold the same transfer
//! functions, one over compiled generators, one over generator specs.

use pdgf_gen::{MapResolver, ResolverOracle, SchemaRuntime};
use pdgf_schema::absint::{self, Cardinality, Width};
use pdgf_schema::model::{DateFormat, DictSource, HistogramOutput, MarkovSource, RefDistribution};
use pdgf_schema::value::Date;
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table, Value};
use textsynth::{Dictionary, MarkovBuilder};

fn expr(s: &str) -> Expr {
    Expr::parse(s).expect("test expression parses")
}

fn resolver() -> MapResolver {
    let dict = Dictionary::new(vec![
        ("furious".into(), 3.0),
        ("quiet".into(), 1.0),
        ("unusual".into(), 1.0),
    ])
    .expect("non-empty dictionary");
    let mut b = MarkovBuilder::new();
    b.feed("quick deposits sleep quickly across the furious ideas");
    b.feed("quick packages haggle blithely");
    MapResolver::new()
        .with_dictionary("words.dict", dict)
        .with_markov("comments.bin", b.build().expect("markov model"))
}

/// A schema touching every generator family.
fn schema() -> Schema {
    let dict = || DictSource::File("words.dict".to_string());
    Schema::new("profiles", 11)
        .table(
            Table::new("parent", "40")
                .field(
                    Field::new("p_id", SqlType::BigInt, GeneratorSpec::Id { permute: true })
                        .primary(),
                )
                .field(Field::new(
                    "p_word",
                    SqlType::Varchar(25),
                    GeneratorSpec::Dict {
                        source: dict(),
                        weighted: true,
                    },
                ))
                .field(Field::new(
                    "p_comment",
                    SqlType::Varchar(40),
                    GeneratorSpec::Null {
                        probability: 0.2,
                        inner: Box::new(GeneratorSpec::Markov {
                            source: MarkovSource::File("comments.bin".to_string()),
                            min_words: 2,
                            max_words: 5,
                        }),
                    },
                ))
                .field(Field::new(
                    "p_qty",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: expr("1"),
                        max: expr("50"),
                    },
                ))
                .field(Field::new(
                    "p_price",
                    SqlType::Decimal(8, 2),
                    GeneratorSpec::Decimal {
                        min: expr("100"),
                        max: expr("99999"),
                        scale: 2,
                    },
                ))
                .field(Field::new(
                    "p_rate",
                    SqlType::Double,
                    GeneratorSpec::Double {
                        min: expr("0"),
                        max: expr("1"),
                        decimals: Some(4),
                    },
                ))
                .field(Field::new(
                    "p_date",
                    SqlType::Date,
                    GeneratorSpec::DateRange {
                        min: Date::from_ymd(1992, 1, 1),
                        max: Date::from_ymd(1998, 12, 31),
                        format: DateFormat::Iso,
                    },
                ))
                .field(Field::new(
                    "p_ts",
                    SqlType::Timestamp,
                    GeneratorSpec::TimestampRange {
                        min: 694_224_000,
                        max: 915_148_800,
                    },
                ))
                .field(Field::new(
                    "p_flag",
                    SqlType::Boolean,
                    GeneratorSpec::RandomBool { true_prob: 0.3 },
                ))
                .field(Field::new(
                    "p_code",
                    SqlType::Varchar(12),
                    GeneratorSpec::RandomString {
                        min_len: 5,
                        max_len: 12,
                    },
                ))
                .field(Field::new(
                    "p_const",
                    SqlType::Varchar(6),
                    GeneratorSpec::Static {
                        value: Value::text("fixed"),
                    },
                ))
                .field(Field::new(
                    "p_formula",
                    SqlType::BigInt,
                    GeneratorSpec::Formula {
                        expr: expr("${ROW} * 2 + 7"),
                        as_long: true,
                    },
                ))
                .field(Field::new(
                    "p_hist",
                    SqlType::Double,
                    GeneratorSpec::HistogramNumeric {
                        bounds: vec![0.0, 10.0, 20.0],
                        weights: vec![3.0, 1.0],
                        output: HistogramOutput::Double,
                    },
                ))
                .field(Field::new(
                    "p_mix",
                    SqlType::Varchar(20),
                    GeneratorSpec::Probability {
                        branches: vec![
                            (
                                0.5,
                                GeneratorSpec::Dict {
                                    source: dict(),
                                    weighted: false,
                                },
                            ),
                            (
                                0.5,
                                GeneratorSpec::RandomString {
                                    min_len: 3,
                                    max_len: 8,
                                },
                            ),
                        ],
                    },
                ))
                .field(Field::new(
                    "p_seq",
                    SqlType::Varchar(30),
                    GeneratorSpec::Sequential {
                        parts: vec![
                            GeneratorSpec::Static {
                                value: Value::text("ord"),
                            },
                            GeneratorSpec::Long {
                                min: expr("0"),
                                max: expr("999"),
                            },
                        ],
                        separator: "-".to_string(),
                    },
                )),
        )
        .table(
            Table::new("child", "120")
                .field(
                    Field::new(
                        "c_id",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                )
                .field(Field::new(
                    "c_fk",
                    SqlType::BigInt,
                    GeneratorSpec::Reference {
                        table: "parent".to_string(),
                        field: "p_id".to_string(),
                        distribution: RefDistribution::Permutation,
                    },
                ))
                .field(Field::new(
                    "c_fk2",
                    SqlType::BigInt,
                    GeneratorSpec::Reference {
                        table: "parent".to_string(),
                        field: "p_id".to_string(),
                        distribution: RefDistribution::Uniform,
                    },
                )),
        )
}

#[test]
fn runtime_profiles_match_the_abstract_interpreter() {
    let schema = schema();
    let analysis = schema.analyze();
    assert!(
        !analysis.has_errors(),
        "test schema must analyze cleanly: {:?}",
        analysis.diagnostics
    );
    let resolver = resolver();
    let interp = absint::interpret(&schema, &analysis, &ResolverOracle(&resolver));
    let rt = SchemaRuntime::build(&schema, &resolver).expect("runtime builds");
    let rt_profiles = rt.profiles();

    assert_eq!(interp.tables.len(), rt_profiles.len());
    for (table, columns) in interp.tables.iter().zip(rt_profiles) {
        assert_eq!(table.columns.len(), columns.len(), "table {}", table.name);
        for (col, rt_prof) in table.columns.iter().zip(columns) {
            assert_eq!(
                &col.profile, rt_prof,
                "profile mismatch on {}.{}",
                table.name, col.name
            );
        }
    }
}

#[test]
fn profiled_bounds_hold_over_full_generation() {
    let schema = schema();
    let resolver = resolver();
    let rt = SchemaRuntime::build(&schema, &resolver).expect("runtime builds");
    let profiles = rt.profiles();

    for (t, table) in rt.tables().iter().enumerate() {
        for row in 0..table.size {
            for (c, col) in table.columns.iter().enumerate() {
                let v = rt.value(t as u32, c as u32, 0, row);
                let p = &profiles[t][c];
                let rendered = v.to_string();
                match p.width {
                    Width::Exact(w) => assert_eq!(
                        rendered.len() as u32,
                        w,
                        "{}.{} row {row}: {rendered:?}",
                        table.name,
                        col.name
                    ),
                    Width::AtMost(w) => assert!(
                        rendered.len() as u32 <= w,
                        "{}.{} row {row}: {rendered:?} exceeds {w}",
                        table.name,
                        col.name
                    ),
                    Width::Unbounded => {}
                }
                if let (Some(iv), Some(x)) = (p.interval, v.as_f64()) {
                    assert!(
                        iv.lo <= x && x <= iv.hi,
                        "{}.{} row {row}: {x} outside [{}, {}]",
                        table.name,
                        col.name,
                        iv.lo,
                        iv.hi
                    );
                }
                if v.is_null() {
                    assert!(
                        p.null_prob > 0.0,
                        "{}.{} row {row}: unexpected NULL",
                        table.name,
                        col.name
                    );
                }
            }
        }
    }
}

#[test]
fn unique_cardinality_claims_are_honest() {
    let schema = schema();
    let resolver = resolver();
    let rt = SchemaRuntime::build(&schema, &resolver).expect("runtime builds");
    let profiles = rt.profiles();

    let mut checked = 0;
    for (t, table) in rt.tables().iter().enumerate() {
        for (c, col) in table.columns.iter().enumerate() {
            if profiles[t][c].cardinality != Cardinality::Unique {
                continue;
            }
            checked += 1;
            let mut seen = std::collections::BTreeSet::new();
            for row in 0..table.size {
                let v = rt.value(t as u32, c as u32, 0, row).to_string();
                assert!(
                    seen.insert(v.clone()),
                    "{}.{} repeats {v:?}",
                    table.name,
                    col.name
                );
            }
        }
    }
    // At least the two ID columns and the affine formula must be proven
    // unique; a regression to Unbounded everywhere should fail loudly.
    assert!(checked >= 3, "only {checked} columns proven unique");
}
