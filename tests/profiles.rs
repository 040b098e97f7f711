//! Soundness of the column profiles the runtime stores: every value a
//! column emits must honour its profile's width, interval, NULL, ASCII and
//! `Unique` claims. The same two check functions run over a hand-built
//! schema touching every generator family, the generator zoo and the
//! shipped workload models.

mod zoo;

use pdgf_gen::{MapResolver, ResourceResolver, SchemaRuntime};
use pdgf_schema::absint::{Cardinality, Width};
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

/// Checks every cell of the first `rows` rows of every table, at each of
/// `updates`, against its column's width, interval, NULL and ASCII claims.
fn assert_bounds_hold(rt: &SchemaRuntime, rows: u64, updates: &[u32]) {
    let profiles = rt.profiles();
    for (t, table) in rt.tables().iter().enumerate() {
        for &update in updates {
            for row in 0..table.size.min(rows) {
                for (c, col) in table.columns.iter().enumerate() {
                    let v = rt.value(t as u32, c as u32, update, row);
                    let p = &profiles[t][c];
                    let at = format!("{}.{} update {update} row {row}", table.name, col.name);
                    let rendered = v.to_string();
                    match p.width {
                        Width::Exact(w) => {
                            assert_eq!(rendered.len() as u32, w, "{at}: {rendered:?}")
                        }
                        Width::AtMost(w) => {
                            assert!(rendered.len() as u32 <= w, "{at}: {rendered:?} exceeds {w}")
                        }
                        Width::Unbounded => {}
                    }
                    if let (Some(iv), Some(x)) = (p.interval, v.as_f64()) {
                        assert!(
                            iv.lo <= x && x <= iv.hi,
                            "{at}: {x} outside [{}, {}]",
                            iv.lo,
                            iv.hi
                        );
                    }
                    if v.is_null() {
                        assert!(p.null_prob > 0.0, "{at}: unexpected NULL");
                    }
                    if p.ascii {
                        assert!(rendered.is_ascii(), "{at}: {rendered:?} is not ASCII");
                    }
                }
            }
        }
    }
}

/// Checks that every column claimed `Unique` repeats no value over the
/// first `rows` rows of its table, at each of `updates`; returns how many
/// columns carry the claim.
fn assert_unique_claims_hold(rt: &SchemaRuntime, rows: u64, updates: &[u32]) -> usize {
    let profiles = rt.profiles();
    let mut checked = 0;
    for (t, table) in rt.tables().iter().enumerate() {
        for (c, col) in table.columns.iter().enumerate() {
            if profiles[t][c].cardinality != Cardinality::Unique {
                continue;
            }
            checked += 1;
            for &update in updates {
                let mut seen = std::collections::BTreeSet::new();
                for row in 0..table.size.min(rows) {
                    let v = rt.value(t as u32, c as u32, update, row).to_string();
                    assert!(
                        seen.insert(v.clone()),
                        "{}.{} update {update} repeats {v:?}",
                        table.name,
                        col.name
                    );
                }
            }
        }
    }
    checked
}

#[test]
fn profiled_bounds_hold_over_full_generation() {
    let rt = SchemaRuntime::build(&schema(), &resolver()).expect("runtime builds");
    assert_bounds_hold(&rt, u64::MAX, &[0]);
}

#[test]
fn unique_cardinality_claims_are_honest() {
    let rt = SchemaRuntime::build(&schema(), &resolver()).expect("runtime builds");
    let checked = assert_unique_claims_hold(&rt, u64::MAX, &[0]);
    // At least the two ID columns and the affine formula must be proven
    // unique; a regression to Unbounded everywhere should fail loudly.
    assert!(checked >= 3, "only {checked} columns proven unique");
}

/// Rows per table the shipped models are checked over.
const MODEL_ROWS: u64 = 3_000;

/// Builds `schema`, with `SF` overridden when given, and runs both checks
/// over its first [`MODEL_ROWS`] rows per table at updates 0 and 2.
fn assert_model_profiles_hold(
    mut schema: Schema,
    sf: Option<&str>,
    resolver: &dyn ResourceResolver,
) {
    if let Some(sf) = sf {
        schema
            .properties
            .override_value("SF", sf)
            .expect("the model defines SF");
    }
    let rt = SchemaRuntime::build(&schema, resolver).expect("model builds");
    assert_bounds_hold(&rt, MODEL_ROWS, &[0, 2]);
    assert_unique_claims_hold(&rt, MODEL_ROWS, &[0, 2]);
}

#[test]
fn zoo_profiles_hold() {
    assert_model_profiles_hold(zoo::generator_zoo(), None, &MapResolver::new());
}

#[test]
fn tpch_profiles_hold() {
    assert_model_profiles_hold(
        workloads::tpch::schema(12_456_789),
        Some("0.01"),
        &workloads::tpch::resolver(),
    );
}

#[test]
fn ssb_profiles_hold() {
    assert_model_profiles_hold(
        workloads::ssb::schema(12_456_789),
        Some("0.01"),
        &workloads::ssb::resolver(),
    );
}

#[test]
fn bigbench_profiles_hold() {
    assert_model_profiles_hold(
        workloads::bigbench::schema(12_456_789),
        None,
        &workloads::bigbench::resolver(),
    );
}
