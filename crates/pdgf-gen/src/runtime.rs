//! The executable schema runtime.
//!
//! [`SchemaRuntime::build`] compiles a validated
//! [`Schema`] into generator pipelines and exposes
//! PDGF's fundamental operation: [`SchemaRuntime::value`], a pure function
//! from `(table, column, update, row)` to a [`Value`]. Everything above
//! (workers, work packages, nodes) is mere orchestration of this function.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use pdgf_prng::{mix64_pair, FieldCoord, PdgfDefaultRandom, PdgfRng, SeedTree, Zipf};
use pdgf_schema::absint::StaticProfile;
use pdgf_schema::model::{DictSource, GeneratorSpec, MarkovSource, RefDistribution};
use pdgf_schema::{ColumnBatch, ColumnVec, Schema, SqlType, Value};
use textsynth::{Dictionary, MarkovModel};

use crate::basic::{
    DateGenerator, DecimalGenerator, DoubleGenerator, IdGenerator, LongGenerator,
    RandomBoolGenerator, RandomStringGenerator, StaticValueGenerator, TimestampGenerator,
};
use crate::generator::{Cell, CellOut, ColumnCtx, GenScratch, Generator, ProfileCtx};
use crate::meta::{FormulaGenerator, NullGenerator, ProbabilityGenerator, SequentialGenerator};
use crate::reference::{RefStrategy, ReferenceGenerator};
use crate::resolver::ResourceResolver;
use crate::text::{DictListGenerator, MarkovChainGenerator};

/// Runtime construction failure.
#[derive(Debug, Clone)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// A compiled column: its metadata plus the generator pipeline.
pub struct ColumnRuntime {
    /// Column name.
    pub name: String,
    /// SQL type.
    pub sql_type: SqlType,
    /// Is this column part of the primary key?
    pub primary: bool,
    /// The compiled generator.
    pub generator: Arc<dyn Generator>,
}

/// A compiled table: resolved size plus compiled columns.
pub struct TableRuntime {
    /// Table name.
    pub name: String,
    /// Resolved row count under the model's properties.
    pub size: u64,
    /// Compiled columns in declaration order.
    pub columns: Vec<ColumnRuntime>,
}

/// A schema bound to concrete generators and a seeding hierarchy.
pub struct SchemaRuntime {
    name: String,
    seed: u64,
    seed_tree: SeedTree,
    tables: Vec<TableRuntime>,
    props: BTreeMap<String, f64>,
    generation_order: Vec<u32>,
    /// Every column's static profile, per table, computed once at build:
    /// the columnar path pre-sizes text arenas from the width bounds, and
    /// each request sizes its buffers from them.
    profiles: Vec<Vec<StaticProfile>>,
}

impl fmt::Debug for SchemaRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemaRuntime")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl SchemaRuntime {
    /// Compile `schema` (validated first) against `resolver` for external
    /// dictionaries and Markov models.
    pub fn build(schema: &Schema, resolver: &dyn ResourceResolver) -> Result<Self, BuildError> {
        let analysis = schema.analyze();
        if let Some(d) = analysis.first_error() {
            return Err(BuildError(format!("schema error: {}", d.message)));
        }
        let generation_order = analysis.generation_order;
        let props = schema
            .properties
            .resolve_all()
            .map_err(|e| BuildError(e.to_string()))?;

        // Resolve all table sizes first: reference generators need them.
        let sizes: Vec<u64> = schema
            .tables
            .iter()
            .map(|t| schema.table_size(t).map_err(|e| BuildError(e.to_string())))
            .collect::<Result<_, _>>()?;

        let column_counts: Vec<u32> = schema
            .tables
            .iter()
            .map(|t| t.fields.len() as u32)
            .collect();
        let seed_tree = SeedTree::new(schema.seed, &column_counts);

        let builder = GeneratorBuilder {
            schema,
            sizes: &sizes,
            props: &props,
            resolver,
            seed_tree: &seed_tree,
        };
        let tables = schema
            .tables
            .iter()
            .enumerate()
            .map(|(t_idx, t)| {
                let columns = t
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(c_idx, f)| {
                        let mut generator = builder
                            .build_spec(
                                &f.generator,
                                t_idx as u32,
                                c_idx as u32,
                                sizes[t_idx],
                                &mut Vec::new(),
                            )
                            .map_err(|e| BuildError(format!("{}.{}: {}", t.name, f.name, e.0)))?;
                        // Text columns truncate overflowing values to the
                        // declared width, as dbgen-style generators do.
                        if f.sql_type.is_text() && f.size > 0 {
                            generator = Arc::new(crate::meta::TruncateGenerator::new(
                                generator,
                                f.size as usize,
                            ));
                        }
                        Ok(ColumnRuntime {
                            name: f.name.clone(),
                            sql_type: f.sql_type,
                            primary: f.primary,
                            generator,
                        })
                    })
                    .collect::<Result<Vec<_>, BuildError>>()?;
                Ok(TableRuntime {
                    name: t.name.clone(),
                    size: sizes[t_idx],
                    columns,
                })
            })
            .collect::<Result<Vec<_>, BuildError>>()?;

        let profiles = profile_columns(&tables, &generation_order);
        Ok(Self {
            name: schema.name.clone(),
            seed: schema.seed,
            seed_tree,
            tables,
            props,
            generation_order,
            profiles,
        })
    }

    /// Testing hook: a runtime with no tables, for unit tests of generators
    /// that never look a column up.
    pub fn empty_for_tests() -> Self {
        Self {
            name: "empty".to_string(),
            seed: 0,
            seed_tree: SeedTree::new(0, &[]),
            tables: Vec::new(),
            props: BTreeMap::new(),
            generation_order: Vec::new(),
            profiles: Vec::new(),
        }
    }

    /// Project name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Project seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolved properties (`SF` and friends).
    pub fn properties(&self) -> &BTreeMap<String, f64> {
        &self.props
    }

    /// Compiled tables.
    pub fn tables(&self) -> &[TableRuntime] {
        &self.tables
    }

    /// Table indices in dependency order: referenced (parent) tables come
    /// before the tables referencing them, derived by the schema
    /// analyzer's toposort. Schedulers start jobs in this order so parent
    /// tables finish earliest, without affecting output bytes (every cell
    /// is position-determined).
    pub fn generation_order(&self) -> &[u32] {
        &self.generation_order
    }

    /// Static profiles of every column, per table in declaration order,
    /// computed once at build. Every bound is proven over everything the
    /// compiled generators can emit.
    pub fn profiles(&self) -> &[Vec<StaticProfile>] {
        &self.profiles
    }

    /// One cell through its generator's
    /// [`emit_cell`](Generator::emit_cell) into `out` (cleared first), from
    /// the RNG a batch fill seeds for the same coordinate; returns the
    /// draws the cell made.
    fn emit_point(&self, coord: FieldCoord, out: &mut ColumnVec) -> u64 {
        let mut rng = PdgfDefaultRandom::seed_from(self.seed_tree.field_seed(coord));
        out.clear();
        let column = &self.tables[coord.table as usize].columns[coord.column as usize];
        column.generator.emit_cell(Cell {
            rng: &mut rng,
            row: coord.row,
            runtime: self,
            out: CellOut::Column(out),
        });
        rng.draws()
    }

    /// The value of one cell together with the number of PRNG draws its
    /// generator consumed from the cell's seed stream, the measured side
    /// of [`StaticProfile::draws`]. Pure in `(self, table, column, update,
    /// row)`.
    pub fn value_counting(&self, table: u32, column: u32, update: u32, row: u64) -> (Value, u64) {
        let coord = FieldCoord {
            table,
            column,
            update,
            row,
        };
        let mut cell = ColumnVec::default();
        let draws = self.emit_point(coord, &mut cell);
        (cell.value(0), draws)
    }

    /// Compiled table by name.
    pub fn table_by_name(&self, name: &str) -> Option<(u32, &TableRuntime)> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .map(|i| (i as u32, &self.tables[i]))
    }

    /// The fundamental operation: the value of one cell, computed from
    /// scratch. Pure in `(self, table, column, update, row)`.
    pub fn value(&self, table: u32, column: u32, update: u32, row: u64) -> Value {
        self.value_counting(table, column, update, row).0
    }

    /// A full row into `out` (cleared first), one [`value`](Self::value)
    /// per column, with each cell emitted into its column's buffer in
    /// `scratch` so the buffers keep their capacity from row to row.
    pub fn row_into_with_scratch(
        &self,
        table: u32,
        update: u32,
        row: u64,
        out: &mut Vec<Value>,
        scratch: &mut GenScratch,
    ) {
        out.clear();
        let columns = self.tables[table as usize].columns.len();
        if scratch.cells.len() < columns {
            scratch.cells.resize_with(columns, ColumnVec::default);
        }
        for (column, cell) in scratch.cells[..columns].iter_mut().enumerate() {
            let coord = FieldCoord {
                table,
                column: column as u32,
                update,
                row,
            };
            self.emit_point(coord, cell);
            out.push(cell.value(0));
        }
    }

    /// Generate a full row, allocating.
    pub fn row(&self, table: u32, update: u32, row: u64) -> Vec<Value> {
        let mut out = Vec::new();
        self.row_into_with_scratch(table, update, row, &mut out, &mut GenScratch::default());
        out
    }

    /// The seed tree (exposed for the seed-cache ablation bench).
    pub fn seed_tree(&self) -> &SeedTree {
        &self.seed_tree
    }

    /// Generate `rows` of `table` at `update` as a batch of columns — the
    /// columnar twin of looping
    /// [`row_into_with_scratch`](Self::row_into_with_scratch) over the
    /// range.
    ///
    /// The seeding prefix `(table, column, update)` is hoisted once per
    /// column into a [`ColumnCtx`], then each generator's
    /// [`fill_column`](Generator::fill_column) fills its typed storage.
    /// Cell values (and therefore formatted bytes) are identical to the
    /// row path for every generator, vectorized or not.
    pub fn fill_batch(
        &self,
        table: u32,
        update: u32,
        rows: std::ops::Range<u64>,
        batch: &mut ColumnBatch,
        scratch: &mut GenScratch,
    ) {
        let t = &self.tables[table as usize];
        let n_rows = rows.end.saturating_sub(rows.start) as usize;
        batch.begin(t.columns.len(), n_rows);
        let profiles = &self.profiles[table as usize];
        for (c, (col, out)) in t.columns.iter().zip(batch.columns_mut()).enumerate() {
            let ctx = ColumnCtx {
                runtime: self,
                update_seed: self.seed_tree.update_seed(table, c as u32, update),
                width_hint: profiles[c].width.bound(),
            };
            col.generator.fill_column(&ctx, rows.clone(), out, scratch);
        }
        debug_assert!(
            batch.is_rectangular(),
            "fill_column produced a ragged batch for table {table}"
        );
    }
}

/// Static profiles of every column of `tables`, per table in declaration
/// order. They are computed bottom-up along `generation_order` so a
/// reference generator can import its target column's already-computed
/// profile; every bound is proven over everything the compiled generators
/// can emit.
fn profile_columns(tables: &[TableRuntime], generation_order: &[u32]) -> Vec<Vec<StaticProfile>> {
    let mut memo: BTreeMap<(u32, u32), StaticProfile> = BTreeMap::new();
    for &t in generation_order {
        let table = &tables[t as usize];
        for (c, col) in table.columns.iter().enumerate() {
            let ctx = ProfileCtx {
                rows: table.size,
                columns: &memo,
            };
            let p = col.generator.profile(&ctx);
            memo.insert((t, c as u32), p);
        }
    }
    tables
        .iter()
        .enumerate()
        .map(|(t, table)| {
            (0..table.columns.len())
                .map(|c| {
                    memo.remove(&(t as u32, c as u32))
                        .unwrap_or_else(StaticProfile::unknown)
                })
                .collect()
        })
        .collect()
}

struct GeneratorBuilder<'a> {
    schema: &'a Schema,
    sizes: &'a [u64],
    props: &'a BTreeMap<String, f64>,
    resolver: &'a dyn ResourceResolver,
    seed_tree: &'a SeedTree,
}

impl GeneratorBuilder<'_> {
    fn eval(&self, expr: &pdgf_schema::Expr) -> Result<f64, BuildError> {
        expr.eval(&|n| self.props.get(n).copied())
            .map_err(|e| BuildError(e.to_string()))
    }

    fn eval_i64(&self, expr: &pdgf_schema::Expr) -> Result<i64, BuildError> {
        Ok(self.eval(expr)?.round() as i64)
    }

    /// The Feistel key of the next consumer of one auxiliary seed path in
    /// a column tree: a permuted Id (`target == None`) or a permutation
    /// reference to one parent column. `aux` lists the consumers built so
    /// far in this column. The first keeps the plain path key and the k-th
    /// mixes in `k`, so two consumers never emit the same stream.
    fn aux_key(
        &self,
        table: u32,
        column: u32,
        target: Option<(u32, u32)>,
        aux: &mut Vec<Option<(u32, u32)>>,
    ) -> u64 {
        let k = aux.iter().filter(|&&seen| seen == target).count() as u64;
        aux.push(target);
        let tag = if target.is_none() { 0x1D } else { 0x2E };
        let key = mix64_pair(self.seed_tree.column_seed(table, column), tag);
        if k == 0 {
            key
        } else {
            mix64_pair(key, k)
        }
    }

    fn build_spec(
        &self,
        spec: &GeneratorSpec,
        table: u32,
        column: u32,
        table_size: u64,
        aux: &mut Vec<Option<(u32, u32)>>,
    ) -> Result<Arc<dyn Generator>, BuildError> {
        Ok(match spec {
            GeneratorSpec::Id { permute } => {
                if *permute {
                    let key = self.aux_key(table, column, None, aux);
                    Arc::new(IdGenerator::permuted(table_size, key))
                } else {
                    Arc::new(IdGenerator::sequential())
                }
            }
            GeneratorSpec::Long { min, max } => {
                Arc::new(LongGenerator::new(self.eval_i64(min)?, self.eval_i64(max)?))
            }
            GeneratorSpec::Double { min, max, decimals } => Arc::new(DoubleGenerator::new(
                self.eval(min)?,
                self.eval(max)?,
                *decimals,
            )),
            GeneratorSpec::Decimal { min, max, scale } => Arc::new(DecimalGenerator::new(
                self.eval_i64(min)?,
                self.eval_i64(max)?,
                *scale,
            )),
            GeneratorSpec::DateRange { min, max, format } => {
                Arc::new(DateGenerator::new(*min, *max, *format))
            }
            GeneratorSpec::TimestampRange { min, max } => {
                Arc::new(TimestampGenerator::new(*min, *max))
            }
            GeneratorSpec::RandomString { min_len, max_len } => {
                Arc::new(RandomStringGenerator::new(*min_len, *max_len))
            }
            GeneratorSpec::RandomBool { true_prob } => {
                Arc::new(RandomBoolGenerator::new(*true_prob))
            }
            GeneratorSpec::Dict { source, weighted } => {
                let dict: Arc<Dictionary> = match source {
                    DictSource::Inline { entries } => Arc::new(
                        Dictionary::new(entries.clone()).map_err(|e| BuildError(e.to_string()))?,
                    ),
                    DictSource::File(path) => self
                        .resolver
                        .dictionary(path)
                        .map_err(|e| BuildError(e.to_string()))?,
                };
                Arc::new(DictListGenerator::new(dict, *weighted))
            }
            GeneratorSpec::DictByRow { source } => {
                let dict: Arc<Dictionary> = match source {
                    DictSource::Inline { entries } => Arc::new(
                        Dictionary::new(entries.clone()).map_err(|e| BuildError(e.to_string()))?,
                    ),
                    DictSource::File(path) => self
                        .resolver
                        .dictionary(path)
                        .map_err(|e| BuildError(e.to_string()))?,
                };
                Arc::new(crate::text::DictByRowGenerator::new(dict))
            }
            GeneratorSpec::Markov {
                source,
                min_words,
                max_words,
            } => {
                let model: Arc<MarkovModel> = match source {
                    MarkovSource::Inline(text) => Arc::new(
                        MarkovModel::from_text(text).map_err(|e| BuildError(e.to_string()))?,
                    ),
                    MarkovSource::File(path) => self
                        .resolver
                        .markov(path)
                        .map_err(|e| BuildError(e.to_string()))?,
                };
                Arc::new(MarkovChainGenerator::new(model, *min_words, *max_words))
            }
            GeneratorSpec::Reference {
                table: t_name,
                field,
                distribution,
            } => {
                let t_idx = self
                    .schema
                    .table_index(t_name)
                    .ok_or_else(|| BuildError(format!("unknown table {t_name:?}")))?;
                let target = &self.schema.tables[t_idx];
                let c_idx = target
                    .field_index(field)
                    .ok_or_else(|| BuildError(format!("unknown field {t_name}.{field}")))?;
                let parent_size = self.sizes[t_idx];
                if parent_size == 0 {
                    return Err(BuildError(format!("reference into empty table {t_name:?}")));
                }
                let strategy = match distribution {
                    RefDistribution::Uniform => RefStrategy::Uniform,
                    RefDistribution::Zipf { theta } => {
                        RefStrategy::Zipf(Zipf::new(parent_size, *theta))
                    }
                    RefDistribution::Permutation => {
                        let target = Some((t_idx as u32, c_idx as u32));
                        let key = self.aux_key(table, column, target, aux);
                        RefStrategy::Permutation(pdgf_prng::FeistelPermutation::new(
                            parent_size,
                            key,
                        ))
                    }
                };
                Arc::new(ReferenceGenerator::new(
                    t_idx as u32,
                    c_idx as u32,
                    parent_size,
                    strategy,
                ))
            }
            GeneratorSpec::Null { probability, inner } => {
                let inner = self.build_spec(inner, table, column, table_size, aux)?;
                Arc::new(NullGenerator::new(*probability, inner))
            }
            GeneratorSpec::Static { value } => Arc::new(StaticValueGenerator::new(value.clone())),
            GeneratorSpec::Sequential { parts, separator } => {
                let parts = parts
                    .iter()
                    .map(|p| self.build_spec(p, table, column, table_size, aux))
                    .collect::<Result<Vec<_>, _>>()?;
                Arc::new(SequentialGenerator::new(parts, separator.clone()))
            }
            GeneratorSpec::Probability { branches } => {
                let branches = branches
                    .iter()
                    .map(|(p, g)| Ok((*p, self.build_spec(g, table, column, table_size, aux)?)))
                    .collect::<Result<Vec<_>, BuildError>>()?;
                Arc::new(ProbabilityGenerator::new(branches))
            }
            GeneratorSpec::Formula { expr, as_long } => Arc::new(FormulaGenerator::new(
                expr.clone(),
                self.props.clone(),
                *as_long,
            )),
            GeneratorSpec::HistogramNumeric {
                bounds,
                weights,
                output,
            } => Arc::new(crate::basic::HistogramGenerator::new(
                bounds.clone(),
                weights,
                *output,
            )),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::MapResolver;
    use pdgf_schema::{Expr, Field, Table};

    fn demo_schema() -> Schema {
        let mut s = Schema::new("demo", 12_456_789);
        s.properties.define("SF", "1").unwrap();
        s.table(
            Table::new("customer", "100 * ${SF}")
                .field(
                    Field::new(
                        "c_id",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                )
                .field(Field::new(
                    "c_balance",
                    SqlType::Decimal(12, 2),
                    GeneratorSpec::Decimal {
                        min: Expr::parse("-99999").unwrap(),
                        max: Expr::parse("999999").unwrap(),
                        scale: 2,
                    },
                )),
        )
        .table(
            Table::new("orders", "1000 * ${SF}")
                .field(
                    Field::new("o_id", SqlType::BigInt, GeneratorSpec::Id { permute: true })
                        .primary(),
                )
                .field(Field::new(
                    "o_cust",
                    SqlType::BigInt,
                    GeneratorSpec::Reference {
                        table: "customer".into(),
                        field: "c_id".into(),
                        distribution: RefDistribution::Uniform,
                    },
                )),
        )
    }

    #[test]
    fn build_resolves_sizes_and_names() {
        let rt = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        assert_eq!(rt.name(), "demo");
        assert_eq!(rt.seed(), 12_456_789);
        assert_eq!(rt.tables().len(), 2);
        assert_eq!(rt.tables()[0].size, 100);
        assert_eq!(rt.tables()[1].size, 1000);
        let (idx, t) = rt.table_by_name("orders").unwrap();
        assert_eq!(idx, 1);
        assert_eq!(t.columns[1].name, "o_cust");
        assert_eq!(rt.properties()["SF"], 1.0);
        assert!(rt.table_by_name("nope").is_none());
    }

    #[test]
    fn values_are_pure_functions_of_coordinates() {
        let rt = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        let rt2 = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        for table in 0..2u32 {
            for row in [0u64, 1, 50, 99] {
                for col in 0..2u32 {
                    assert_eq!(rt.value(table, col, 0, row), rt2.value(table, col, 0, row));
                }
            }
        }
    }

    #[test]
    fn out_of_order_equals_in_order() {
        // Generating rows in any order yields the same data — the property
        // that makes parallel generation trivially correct.
        let rt = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        let forward: Vec<_> = (0..100).map(|r| rt.row(1, 0, r)).collect();
        let mut backward: Vec<_> = (0..100).rev().map(|r| rt.row(1, 0, r)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn changing_project_seed_changes_every_value() {
        let a = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        let mut schema_b = demo_schema();
        schema_b.seed = 1;
        let b = SchemaRuntime::build(&schema_b, &MapResolver::new()).unwrap();
        // Random-valued columns must all differ; ID columns are row-determined.
        let diffs = (0..100u64)
            .filter(|&r| a.value(0, 1, 0, r) != b.value(0, 1, 0, r))
            .count();
        assert!(diffs > 95, "only {diffs} of 100 values changed");
    }

    #[test]
    fn update_epochs_have_independent_values() {
        let rt = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        let diffs = (0..100u64)
            .filter(|&r| rt.value(0, 1, 0, r) != rt.value(0, 1, 1, r))
            .count();
        assert!(diffs > 95, "update epochs too correlated: {diffs}");
    }

    #[test]
    fn row_into_reuses_buffer() {
        let rt = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        let mut buf = Vec::new();
        let mut scratch = GenScratch::default();
        rt.row_into_with_scratch(0, 0, 3, &mut buf, &mut scratch);
        assert_eq!(buf.len(), 2);
        let first = buf.clone();
        rt.row_into_with_scratch(0, 0, 4, &mut buf, &mut scratch);
        assert_eq!(buf.len(), 2);
        assert_ne!(first[0], buf[0]);
    }

    #[test]
    fn generation_order_flips_child_before_parent() {
        // "orders" references "customer"; whatever the declaration order,
        // the derived generation order must put customer first.
        let rt = SchemaRuntime::build(&demo_schema(), &MapResolver::new()).unwrap();
        assert_eq!(rt.generation_order(), &[0, 1]);

        let mut flipped = Schema::new("demo2", 1);
        flipped.properties.define("SF", "1").unwrap();
        let orig = demo_schema();
        let flipped = flipped
            .table(orig.tables[1].clone())
            .table(orig.tables[0].clone());
        let rt = SchemaRuntime::build(&flipped, &MapResolver::new()).unwrap();
        assert_eq!(rt.generation_order(), &[1, 0]);
    }

    #[test]
    fn reference_cycles_are_rejected_at_build() {
        let mut s = Schema::new("cyc", 1);
        s = s
            .table(Table::new("a", "10").field(Field::new(
                "a_ref",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "b".into(),
                    field: "b_ref".into(),
                    distribution: RefDistribution::Uniform,
                },
            )))
            .table(Table::new("b", "10").field(Field::new(
                "b_ref",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "a".into(),
                    field: "a_ref".into(),
                    distribution: RefDistribution::Uniform,
                },
            )));
        let err = SchemaRuntime::build(&s, &MapResolver::new()).unwrap_err();
        assert!(err.0.contains("cycle"), "{err}");
    }

    #[test]
    fn reference_into_empty_table_is_rejected() {
        let mut s = Schema::new("empty", 1);
        s = s
            .table(Table::new("p", "0").field(Field::new(
                "p_id",
                SqlType::BigInt,
                GeneratorSpec::Id { permute: false },
            )))
            .table(Table::new("c", "10").field(Field::new(
                "c_ref",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "p".into(),
                    field: "p_id".into(),
                    distribution: RefDistribution::Uniform,
                },
            )));
        assert!(SchemaRuntime::build(&s, &MapResolver::new()).is_err());
    }

    /// Builds a 64-row child whose one column concatenates `part` twice and
    /// asserts each half is its own bijection over 1..=64.
    fn assert_repeated_part_draws_distinct_bijections(part: GeneratorSpec) {
        let s = Schema::new("aux", 3)
            .table(
                Table::new("p", "64").field(
                    Field::new(
                        "p_id",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                ),
            )
            .table(Table::new("c", "64").field(Field::new(
                "pair",
                SqlType::Varchar(64),
                GeneratorSpec::Sequential {
                    parts: vec![part.clone(), part],
                    separator: "-".into(),
                },
            )));
        let rt = SchemaRuntime::build(&s, &MapResolver::new()).unwrap();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for row in 0..64 {
            let text = rt.value(1, 0, 0, row).to_string();
            let (a, b) = text.split_once('-').unwrap();
            first.push(a.parse::<i64>().unwrap());
            second.push(b.parse::<i64>().unwrap());
        }
        assert_ne!(first, second, "both parts share one key");
        for half in [&mut first, &mut second] {
            half.sort_unstable();
            assert_eq!(*half, (1..=64).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn repeated_permuted_ids_in_one_column_draw_distinct_bijections() {
        assert_repeated_part_draws_distinct_bijections(GeneratorSpec::Id { permute: true });
    }

    #[test]
    fn repeated_permutation_references_in_one_column_draw_distinct_bijections() {
        assert_repeated_part_draws_distinct_bijections(GeneratorSpec::Reference {
            table: "p".into(),
            field: "p_id".into(),
            distribution: RefDistribution::Permutation,
        });
    }

    #[test]
    fn missing_external_resource_fails_build() {
        let mut s = Schema::new("res", 1);
        s = s.table(Table::new("t", "10").field(Field::new(
            "f",
            SqlType::Varchar(44),
            GeneratorSpec::Markov {
                source: MarkovSource::File("missing.bin".into()),
                min_words: 1,
                max_words: 5,
            },
        )));
        let err = SchemaRuntime::build(&s, &MapResolver::new()).unwrap_err();
        assert!(err.0.contains("missing.bin"), "{err}");
    }

    #[test]
    fn two_level_reference_chain_recomputes_transitively() {
        // grandparent <- parent <- child: the child's reference generator
        // recomputes the parent cell, which itself recomputes the
        // grandparent cell.
        let mut s = Schema::new("chain", 5);
        s = s
            .table(
                Table::new("g", "7").field(
                    Field::new(
                        "g_id",
                        SqlType::BigInt,
                        GeneratorSpec::Id { permute: false },
                    )
                    .primary(),
                ),
            )
            .table(Table::new("p", "20").field(Field::new(
                "p_gref",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "g".into(),
                    field: "g_id".into(),
                    distribution: RefDistribution::Uniform,
                },
            )))
            .table(Table::new("c", "100").field(Field::new(
                "c_pref",
                SqlType::BigInt,
                GeneratorSpec::Reference {
                    table: "p".into(),
                    field: "p_gref".into(),
                    distribution: RefDistribution::Uniform,
                },
            )));
        let rt = SchemaRuntime::build(&s, &MapResolver::new()).unwrap();
        // Every child value must be a valid grandparent id.
        let parents: std::collections::HashSet<i64> = (0..20)
            .map(|r| rt.value(1, 0, 0, r).as_i64().unwrap())
            .collect();
        for row in 0..100u64 {
            let v = rt.value(2, 0, 0, row).as_i64().unwrap();
            assert!((1..=7).contains(&v));
            assert!(
                parents.contains(&v),
                "child references non-existent parent value"
            );
        }
    }
}
