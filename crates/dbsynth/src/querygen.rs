//! Query workload generation — the paper's announced extension.
//!
//! Section 7: "In future work, we will extend DBSynth to automate the
//! complete benchmarking process. To this end, we will generate the
//! queries consistently using PDGF … Given the deterministic approach of
//! data generation, our tool will then also be able to directly execute
//! the query without ever generating the data, which can be used to
//! verify results for correctness."
//!
//! This module implements both halves at the scale a model supports:
//!
//! * [`generate_queries`] — a deterministic query workload derived from a
//!   compiled model: point lookups on key columns, range scans on
//!   numeric/date columns with controlled selectivity, group-by counts on
//!   categorical columns, and join counts along reference edges.
//!   Parameters are drawn through the same seeded PRNG machinery as the
//!   data, so workload and data are *consistent*: a generated point
//!   lookup always hits an existing key.
//! * [`analytic_answer`] — answers a generated query *without data*,
//!   exploiting determinism: key lookups are answered by recomputation
//!   (the key exists iff it lies in the table's key space, with exact
//!   multiplicity 1 for unique IDs), and uniform range scans by
//!   closed-form selectivity. Answers are exact where marked, expected
//!   values otherwise.

use pdgf_gen::SchemaRuntime;
use pdgf_prng::{PdgfDefaultRandom, PdgfRng};
use pdgf_schema::model::{DictSource, GeneratorSpec};
use pdgf_schema::value::Date;
use pdgf_schema::Schema;

/// What a generated query does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `SELECT COUNT(*) FROM t WHERE key = k` on a unique ID column.
    PointLookup,
    /// `SELECT COUNT(*) FROM t WHERE col BETWEEN-style range`.
    RangeScan,
    /// `SELECT col, COUNT(*) FROM t GROUP BY col`.
    GroupCount,
    /// `SELECT COUNT(*) FROM child JOIN parent ON fk = pk`.
    JoinCount,
}

/// How an analytic answer should be interpreted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// Provably exact row count.
    Exact(u64),
    /// Expected row count under the generator's distribution.
    Expected(f64),
    /// This query type cannot be answered without data.
    Unknown,
}

/// A generated benchmark query.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// Executable SQL (minidb dialect, a SQL-92 subset).
    pub sql: String,
    /// Query class.
    pub kind: QueryKind,
    /// Primary table.
    pub table: String,
}

/// Configuration of the workload generator.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Workload seed (independent of the data seed; the *parameters* are
    /// still data-consistent because they derive from the model).
    pub seed: u64,
    /// Queries to produce.
    pub count: usize,
    /// Target selectivity of range scans in `(0, 1]`.
    pub range_selectivity: f64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        Self {
            seed: 777,
            count: 20,
            range_selectivity: 0.1,
        }
    }
}

struct Candidate {
    kind: QueryKind,
    table: String,
    build: Box<dyn Fn(&mut PdgfDefaultRandom) -> String>,
}

fn strip_null(g: &GeneratorSpec) -> &GeneratorSpec {
    match g {
        GeneratorSpec::Null { inner, .. } => strip_null(inner),
        other => other,
    }
}

/// Enumerate the query templates a model supports.
fn candidates(schema: &Schema, rt: &SchemaRuntime, selectivity: f64) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let props = schema.properties.resolve_all().unwrap_or_default();
    for table in &schema.tables {
        let size = rt
            .table_by_name(&table.name)
            .map(|(_, t)| t.size)
            .unwrap_or(0);
        if size == 0 {
            continue;
        }
        for field in &table.fields {
            let tname = table.name.clone();
            let fname = field.name.clone();
            match strip_null(&field.generator) {
                GeneratorSpec::Id { .. } if field.primary => {
                    out.push(Candidate {
                        kind: QueryKind::PointLookup,
                        table: tname.clone(),
                        build: Box::new(move |rng| {
                            let key = rng.next_bounded(size) + 1;
                            format!("SELECT COUNT(*) FROM {tname} WHERE {fname} = {key}")
                        }),
                    });
                }
                GeneratorSpec::Long { min, max } => {
                    let env = |n: &str| props.get(n).copied();
                    if let (Ok(lo), Ok(hi)) = (min.eval(&env), max.eval(&env)) {
                        if hi > lo {
                            out.push(range_candidate(tname, fname, lo, hi, selectivity, false));
                        }
                    }
                }
                GeneratorSpec::DateRange { min, max, .. } if max.0 > min.0 => {
                    out.push(range_candidate(
                        tname,
                        fname,
                        f64::from(min.0),
                        f64::from(max.0),
                        selectivity,
                        true,
                    ));
                }
                GeneratorSpec::Dict {
                    source: DictSource::Inline { entries },
                    ..
                } if !entries.is_empty() => {
                    out.push(Candidate {
                        kind: QueryKind::GroupCount,
                        table: tname.clone(),
                        build: Box::new(move |_| {
                            format!(
                                "SELECT {fname}, COUNT(*) AS n FROM {tname} \
                                 GROUP BY {fname} ORDER BY n DESC"
                            )
                        }),
                    });
                }
                GeneratorSpec::Reference {
                    table: ref_table,
                    field: ref_field,
                    ..
                } => {
                    let (rt_name, rf_name) = (ref_table.clone(), ref_field.clone());
                    out.push(Candidate {
                        kind: QueryKind::JoinCount,
                        table: tname.clone(),
                        build: Box::new(move |_| {
                            format!(
                                "SELECT COUNT(*) FROM {tname} JOIN {rt_name} \
                                 ON {tname}.{fname} = {rt_name}.{rf_name}"
                            )
                        }),
                    });
                }
                _ => {}
            }
        }
    }
    out
}

fn range_candidate(
    table: String,
    field: String,
    lo: f64,
    hi: f64,
    selectivity: f64,
    is_date: bool,
) -> Candidate {
    Candidate {
        kind: QueryKind::RangeScan,
        table: table.clone(),
        build: Box::new(move |rng| {
            let span = hi - lo;
            let window = span * selectivity.clamp(0.0, 1.0);
            let start = lo + rng.next_f64() * (span - window).max(0.0);
            let end = start + window;
            if is_date {
                let fmt = |v: f64| Date(v.round() as i32).to_string();
                format!(
                    "SELECT COUNT(*) FROM {table} WHERE {field} >= '{}' AND {field} < '{}'",
                    fmt(start),
                    fmt(end)
                )
            } else {
                format!(
                    "SELECT COUNT(*) FROM {table} WHERE {field} >= {:.0} AND {field} < {:.0}",
                    start.floor(),
                    end.floor()
                )
            }
        }),
    }
}

/// Generate a deterministic query workload for a compiled model.
pub fn generate_queries(
    schema: &Schema,
    rt: &SchemaRuntime,
    config: &QueryGenConfig,
) -> Vec<GeneratedQuery> {
    let templates = candidates(schema, rt, config.range_selectivity);
    if templates.is_empty() {
        return Vec::new();
    }
    let mut rng = PdgfDefaultRandom::seed_from(config.seed);
    (0..config.count)
        .map(|_| {
            let t = &templates[rng.next_bounded(templates.len() as u64) as usize];
            GeneratedQuery {
                sql: (t.build)(&mut rng),
                kind: t.kind,
                table: t.table.clone(),
            }
        })
        .collect()
}

/// Answer a generated `COUNT(*)` query without generating any data.
///
/// * Point lookups on unique, non-permuted ID columns: **exact** — the
///   key exists iff `1 <= k <= size`, with multiplicity 1.
/// * Range scans on uniform columns: **expected** count =
///   `size × overlap(window, domain) / domain`.
/// * Join counts on NOT NULL references: **exact** = child size (every
///   child row references exactly one existing parent).
/// * Everything else: [`Answer::Unknown`].
pub fn analytic_answer(schema: &Schema, rt: &SchemaRuntime, query: &GeneratedQuery) -> Answer {
    let Some((_, table_rt)) = rt.table_by_name(&query.table) else {
        return Answer::Unknown;
    };
    let size = table_rt.size;
    let Some(table) = schema.table_by_name(&query.table) else {
        return Answer::Unknown;
    };
    match query.kind {
        QueryKind::PointLookup => {
            // Parse "… WHERE <field> = <k>".
            let Some(k) = query
                .sql
                .rsplit('=')
                .next()
                .and_then(|t| t.trim().parse::<u64>().ok())
            else {
                return Answer::Unknown;
            };
            Answer::Exact(u64::from((1..=size).contains(&k)))
        }
        QueryKind::JoinCount => {
            // NOT NULL references always resolve: one match per child row.
            let field = query
                .sql
                .split("ON ")
                .nth(1)
                .and_then(|on| on.split('.').nth(1))
                .and_then(|lhs| lhs.split_whitespace().next());
            let is_plain_ref = field
                .and_then(|f| table.fields.iter().find(|fd| fd.name == f))
                .map(|fd| matches!(fd.generator, GeneratorSpec::Reference { .. }))
                .unwrap_or(false);
            if is_plain_ref {
                Answer::Exact(size)
            } else {
                Answer::Unknown
            }
        }
        QueryKind::RangeScan => {
            // Recover the window and the generator's domain.
            let Some(field_name) = query
                .sql
                .split("WHERE ")
                .nth(1)
                .and_then(|w| w.split_whitespace().next())
            else {
                return Answer::Unknown;
            };
            let Some(field) = table.fields.iter().find(|f| f.name == field_name) else {
                return Answer::Unknown;
            };
            let props = schema.properties.resolve_all().unwrap_or_default();
            let env = |n: &str| props.get(n).copied();
            let (domain_lo, domain_hi, parse_date) = match strip_null(&field.generator) {
                GeneratorSpec::Long { min, max } => match (min.eval(&env), max.eval(&env)) {
                    (Ok(lo), Ok(hi)) => (lo, hi + 1.0, false),
                    _ => return Answer::Unknown,
                },
                GeneratorSpec::DateRange { min, max, .. } => {
                    (f64::from(min.0), f64::from(max.0) + 1.0, true)
                }
                _ => return Answer::Unknown,
            };
            let mut bounds = query.sql.split("WHERE ").nth(1).map(|w| {
                w.split("AND")
                    .filter_map(|clause| {
                        let value = clause.split(['>', '<', '=']).next_back()?.trim();
                        if parse_date {
                            Date::parse_iso(value.trim_matches('\'')).map(|d| f64::from(d.0))
                        } else {
                            value.parse::<f64>().ok()
                        }
                    })
                    .collect::<Vec<f64>>()
            });
            let Some(ref mut bs) = bounds else {
                return Answer::Unknown;
            };
            if bs.len() != 2 {
                return Answer::Unknown;
            }
            let (win_lo, win_hi) = (bs[0], bs[1]);
            let overlap = (win_hi.min(domain_hi) - win_lo.max(domain_lo)).max(0.0);
            let frac = overlap / (domain_hi - domain_lo);
            Answer::Expected(size as f64 * frac)
        }
        QueryKind::GroupCount => Answer::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::load_generated;
    use minidb::sql::query;
    use minidb::Database;
    use pdgf_gen::MapResolver;
    use pdgf_schema::model::RefDistribution;
    use pdgf_schema::{Expr, Field, SqlType, Table};

    fn model() -> Schema {
        let mut s = Schema::new("qg", 5);
        s.properties.define("SF", "1").unwrap();
        s.table(
            Table::new("parent", "40").field(
                Field::new(
                    "p_id",
                    SqlType::BigInt,
                    GeneratorSpec::Id { permute: false },
                )
                .primary(),
            ),
        )
        .table(
            Table::new("facts", "1000")
                .field(
                    Field::new(
                        "f_id",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                )
                .field(Field::new(
                    "f_ref",
                    SqlType::BigInt,
                    GeneratorSpec::Reference {
                        table: "parent".into(),
                        field: "p_id".into(),
                        distribution: RefDistribution::Uniform,
                    },
                ))
                .field(Field::new(
                    "f_qty",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").unwrap(),
                        max: Expr::parse("999").unwrap(),
                    },
                ))
                .field(Field::new(
                    "f_date",
                    SqlType::Date,
                    GeneratorSpec::DateRange {
                        min: Date::from_ymd(2000, 1, 1),
                        max: Date::from_ymd(2003, 12, 31),
                        format: pdgf_schema::model::DateFormat::Iso,
                    },
                ))
                .field(Field::new(
                    "f_tag",
                    SqlType::Varchar(4),
                    GeneratorSpec::Dict {
                        source: DictSource::Inline {
                            entries: vec![
                                ("aa".into(), 1.0),
                                ("bb".into(), 1.0),
                                ("cc".into(), 2.0),
                            ],
                        },
                        weighted: true,
                    },
                )),
        )
    }

    fn setup() -> (Schema, SchemaRuntime, Database) {
        let schema = model();
        let rt = SchemaRuntime::build(&schema, &MapResolver::new()).unwrap();
        let mut db = Database::new();
        load_generated(&mut db, &schema, &rt).unwrap();
        (schema, rt, db)
    }

    #[test]
    fn workload_is_deterministic_and_diverse() {
        let (schema, rt, _) = setup();
        let cfg = QueryGenConfig {
            seed: 1,
            count: 40,
            range_selectivity: 0.2,
        };
        let a = generate_queries(&schema, &rt, &cfg);
        let b = generate_queries(&schema, &rt, &cfg);
        assert_eq!(a.len(), 40);
        assert_eq!(
            a.iter().map(|q| q.sql.clone()).collect::<Vec<_>>(),
            b.iter().map(|q| q.sql.clone()).collect::<Vec<_>>()
        );
        let kinds: std::collections::HashSet<_> = a.iter().map(|q| q.kind).collect();
        assert!(kinds.len() >= 3, "workload not diverse: {kinds:?}");
    }

    #[test]
    fn every_generated_query_executes() {
        let (schema, rt, db) = setup();
        let queries = generate_queries(
            &schema,
            &rt,
            &QueryGenConfig {
                seed: 9,
                count: 60,
                range_selectivity: 0.15,
            },
        );
        for q in &queries {
            query(&db, &q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
        }
    }

    #[test]
    fn point_lookups_hit_existing_keys_exactly_once() {
        let (schema, rt, db) = setup();
        let queries = generate_queries(
            &schema,
            &rt,
            &QueryGenConfig {
                seed: 3,
                count: 80,
                range_selectivity: 0.1,
            },
        );
        for q in queries.iter().filter(|q| q.kind == QueryKind::PointLookup) {
            let measured = query(&db, &q.sql).unwrap().rows[0][0].as_i64().unwrap() as u64;
            match analytic_answer(&schema, &rt, q) {
                Answer::Exact(expected) => {
                    assert_eq!(measured, expected, "{}", q.sql);
                    assert_eq!(expected, 1, "generated key must exist");
                }
                other => panic!("point lookup should be exact, got {other:?}"),
            }
        }
    }

    #[test]
    fn join_counts_are_answered_exactly() {
        let (schema, rt, db) = setup();
        let queries = generate_queries(
            &schema,
            &rt,
            &QueryGenConfig {
                seed: 4,
                count: 40,
                range_selectivity: 0.1,
            },
        );
        let join = queries
            .iter()
            .find(|q| q.kind == QueryKind::JoinCount)
            .expect("workload contains a join");
        let measured = query(&db, &join.sql).unwrap().rows[0][0].as_i64().unwrap() as u64;
        assert_eq!(analytic_answer(&schema, &rt, join), Answer::Exact(measured));
        assert_eq!(measured, 1000);
    }

    #[test]
    fn range_scan_expectations_match_measurements() {
        let (schema, rt, db) = setup();
        let queries = generate_queries(
            &schema,
            &rt,
            &QueryGenConfig {
                seed: 8,
                count: 120,
                range_selectivity: 0.3,
            },
        );
        let mut checked = 0;
        for q in queries.iter().filter(|q| q.kind == QueryKind::RangeScan) {
            let measured = query(&db, &q.sql).unwrap().rows[0][0].as_i64().unwrap() as f64;
            if let Answer::Expected(expected) = analytic_answer(&schema, &rt, q) {
                // Binomial noise: allow 4 sigma around the expectation.
                let sigma = (expected.max(1.0)).sqrt() * 4.0 + 10.0;
                assert!(
                    (measured - expected).abs() < sigma,
                    "{}: measured {measured}, expected {expected}±{sigma}",
                    q.sql
                );
                checked += 1;
            }
        }
        assert!(checked >= 5, "too few range scans verified: {checked}");
    }

    #[test]
    fn group_counts_reflect_dictionary_weights() {
        let (schema, rt, db) = setup();
        let queries = generate_queries(
            &schema,
            &rt,
            &QueryGenConfig {
                seed: 6,
                count: 40,
                range_selectivity: 0.1,
            },
        );
        let group = queries
            .iter()
            .find(|q| q.kind == QueryKind::GroupCount)
            .expect("workload contains a group-by");
        let result = query(&db, &group.sql).unwrap();
        assert_eq!(result.rows.len(), 3);
        // cc has weight 2 of 4: the top group.
        assert_eq!(result.rows[0][0].as_text(), Some("cc"));
    }
}
