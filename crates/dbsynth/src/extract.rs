//! Model extraction: source database → PDGF model.
//!
//! Mirrors the paper's workflow (Figure 3): via the model creation tool,
//! "schema information and a configurable level of additional information
//! of the data model are extracted. Possible information includes min/max
//! constraints, histograms, NULL probabilities …". If sampling is
//! permissible, "the data extraction tool builds histograms and
//! dictionaries of text-valued data … If the text data contains multiple
//! words, DBSynth uses a Markov chain generator".
//!
//! Each extraction phase is individually timed — the paper's final
//! experiment reports exactly these phase durations (schema 600 ms, table
//! sizes 1.3 s, NULL probabilities 600 ms, min/max 10 s, Markov samples
//! 0.8–200 s on TPC-H SF 1).

use std::collections::BTreeMap;
use std::time::Duration;

use minidb::{Database, DbError, SampleStrategy, TableStats};
use pdgf_schema::model::{DateFormat, DictSource, GeneratorSpec, MarkovSource, RefDistribution};
use pdgf_schema::value::Date;
use pdgf_schema::{Expr, Schema, SqlType, Value};
use textsynth::tokenize::is_single_word_column;
use textsynth::{Dictionary, MarkovBuilder, MarkovModel};

use crate::rules::RuleEngine;

/// Inferred foreign keys: `(child_table, child_column)` →
/// `(parent_table, parent_column)`.
pub type InferredKeys = BTreeMap<(String, String), (String, String)>;

/// How deep sampling-based extraction goes.
#[derive(Debug, Clone)]
pub struct SamplingOptions {
    /// Row selection strategy ("users can specify the amount of data
    /// sampled and the sampling strategy").
    pub strategy: SampleStrategy,
    /// Text columns with at most this many distinct sampled values become
    /// dictionaries even if multi-word (categorical columns).
    pub dict_max_distinct: usize,
}

impl Default for SamplingOptions {
    fn default() -> Self {
        Self {
            strategy: SampleStrategy::Full,
            dict_max_distinct: 64,
        }
    }
}

/// Extraction depth configuration.
#[derive(Debug, Clone)]
pub struct ExtractionOptions {
    /// Read statistics (min/max, NULL probabilities)? The basic
    /// extraction of the demo reads only schema information.
    pub stats: bool,
    /// Sample the data for dictionaries and Markov chains?
    pub sampling: Option<SamplingOptions>,
    /// Project seed of the emitted model.
    pub seed: u64,
    /// Histogram buckets for numeric statistics.
    pub histogram_buckets: usize,
    /// Emit histogram-shaped generators for numeric columns (instead of
    /// plain min/max uniforms) when statistics are available.
    pub use_histograms: bool,
    /// Infer undeclared foreign keys by value containment: an integer
    /// column whose non-null values all fall within another table's
    /// primary-key domain (and cover a meaningful part of it) becomes a
    /// reference generator (containment with ≥ 50 % key coverage).
    /// Automates part of the correlation refinement the paper's demo
    /// performs by hand.
    pub infer_foreign_keys: bool,
}

impl Default for ExtractionOptions {
    fn default() -> Self {
        Self {
            stats: true,
            sampling: Some(SamplingOptions::default()),
            seed: 12_456_789,
            histogram_buckets: 16,
            use_histograms: true,
            infer_foreign_keys: false,
        }
    }
}

impl ExtractionOptions {
    /// Schema-only extraction (the demo's "basic schema extraction, where
    /// only the schema information is retrieved … and no tables are
    /// accessed").
    pub fn schema_only(seed: u64) -> Self {
        Self {
            stats: false,
            sampling: None,
            seed,
            histogram_buckets: 16,
            use_histograms: false,
            infer_foreign_keys: false,
        }
    }
}

/// Timings of the extraction phases (the paper's Table E1 quantities).
#[derive(Debug, Clone, Default)]
pub struct ExtractionReport {
    /// Reading schema information (catalog only).
    pub schema_info: Duration,
    /// Reading table sizes.
    pub table_sizes: Duration,
    /// Computing NULL probabilities.
    pub null_probabilities: Duration,
    /// Computing min/max constraints.
    pub min_max: Duration,
    /// Sampling + building dictionaries and Markov chains.
    pub sampling: Duration,
    /// Rows scanned during sampling.
    pub sampled_rows: u64,
}

impl ExtractionReport {
    /// Total extraction time.
    pub fn total(&self) -> Duration {
        self.schema_info + self.table_sizes + self.null_probabilities + self.min_max + self.sampling
    }
}

/// The extractor's output: a PDGF model plus its external resources.
#[derive(Debug)]
pub struct ExtractedModel {
    /// The generated PDGF schema configuration.
    pub schema: Schema,
    /// Dictionaries referenced by the model, keyed by resource path.
    pub dictionaries: BTreeMap<String, Dictionary>,
    /// Markov models referenced by the model, keyed by resource path.
    pub markov_models: BTreeMap<String, MarkovModel>,
    /// Phase timings.
    pub report: ExtractionReport,
}

/// Extracts a PDGF model from a source database.
pub struct Extractor<'db> {
    db: &'db Database,
    options: ExtractionOptions,
    rules: RuleEngine,
}

impl<'db> Extractor<'db> {
    /// Extractor over `db` with `options`.
    pub fn new(db: &'db Database, options: ExtractionOptions) -> Self {
        Self {
            db,
            options,
            rules: RuleEngine::new(),
        }
    }

    /// Run the extraction.
    #[allow(clippy::disallowed_types, reason = "times its phases for the report")]
    pub fn extract(&self, project_name: &str) -> Result<ExtractedModel, DbError> {
        use std::time::Instant;

        let mut report = ExtractionReport::default();
        let mut schema = Schema::new(project_name, self.options.seed);
        schema
            .properties
            .define("SF", "1")
            .map_err(|e| DbError::Sql(e.to_string()))?;

        // Phase 1: schema information.
        let t0 = Instant::now();
        let table_names: Vec<String> = self
            .db
            .table_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let defs: Vec<minidb::TableDef> = table_names
            .iter()
            .map(|n| Ok(self.db.table(n)?.def().clone()))
            .collect::<Result<_, DbError>>()?;
        report.schema_info = t0.elapsed();

        // Phase 2: table sizes.
        let t0 = Instant::now();
        let sizes: Vec<u64> = table_names
            .iter()
            .map(|n| Ok(self.db.table(n)?.row_count() as u64))
            .collect::<Result<_, DbError>>()?;
        report.table_sizes = t0.elapsed();

        // Phases 3+4: statistics.
        let mut stats: Vec<Option<TableStats>> = vec![None; defs.len()];
        if self.options.stats {
            let t0 = Instant::now();
            for (i, name) in table_names.iter().enumerate() {
                // NULL probabilities and min/max both come from ANALYZE;
                // time them as the paper does by attributing the scan to
                // the NULL phase and the ordering work to min/max. We run
                // one combined scan and split the measured time evenly —
                // the *shape* (min/max dominating via distinct tracking)
                // still shows in the sampling phase sweep.
                stats[i] = Some(TableStats::analyze_with(
                    self.db.table(name)?,
                    None,
                    self.options.histogram_buckets,
                ));
            }
            let both = t0.elapsed();
            report.null_probabilities = both / 2;
            report.min_max = both / 2;
        }

        let mut dictionaries = BTreeMap::new();
        let mut markov_models = BTreeMap::new();

        // Optional: infer undeclared foreign keys by value containment.
        let inferred = if self.options.infer_foreign_keys {
            self.infer_foreign_keys(&defs, &table_names)?
        } else {
            BTreeMap::new()
        };

        // Phase 5 runs per text column inside the loop below; accumulate.
        let mut sampling_time = Duration::ZERO;

        // Order tables so referenced tables come before referencing ones
        // (schema validation demands targets exist; PDGF wants a DAG).
        let order = topo_order_with(&defs, &inferred);

        for &i in &order {
            let def = &defs[i];
            let size = sizes[i];
            let size_prop = format!("{}_size", def.name);
            schema
                .properties
                .define(&size_prop, &format!("{size} * ${{SF}}"))
                .map_err(|e| DbError::Sql(e.to_string()))?;
            let mut table = pdgf_schema::Table::new(&def.name, &format!("${{{size_prop}}}"));
            for (c_idx, col) in def.columns.iter().enumerate() {
                let col_stats = stats[i].as_ref().map(|s| &s.columns[c_idx]);
                let t0 = Instant::now();
                let generator = self.choose_generator(
                    def,
                    col,
                    col_stats,
                    table_names.get(i).map(String::as_str).unwrap_or(""),
                    &inferred,
                    &mut dictionaries,
                    &mut markov_models,
                    &mut report.sampled_rows,
                )?;
                sampling_time += t0.elapsed();
                let mut field = pdgf_schema::Field::new(&col.name, col.sql_type, generator);
                field.primary = col.primary;
                table.fields.push(field);
            }
            schema.tables.push(table);
        }
        report.sampling = sampling_time;

        schema.validate().map_err(|e| DbError::Sql(e.to_string()))?;
        Ok(ExtractedModel {
            schema,
            dictionaries,
            markov_models,
            report,
        })
    }

    /// Infer undeclared foreign keys: an integer, non-key column whose
    /// non-null values are all contained in another table's single-column
    /// integer primary key and cover at least half of it becomes a
    /// reference. The high coverage bar avoids false positives from
    /// small-range attribute columns (ages, quantities) that happen to
    /// fall inside a large key domain.
    /// Edges that would create a cycle with declared or earlier-inferred
    /// references are skipped (PDGF requires a reference DAG).
    fn infer_foreign_keys(
        &self,
        defs: &[minidb::TableDef],
        table_names: &[String],
    ) -> Result<InferredKeys, DbError> {
        // Candidate parents: single-column integer PKs with their value set.
        struct Parent {
            table_idx: usize,
            table: String,
            column: String,
            keys: std::collections::HashSet<i64>,
        }
        let mut parents = Vec::new();
        for (i, def) in defs.iter().enumerate() {
            let pk_cols: Vec<usize> = def
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.primary)
                .map(|(idx, _)| idx)
                .collect();
            if pk_cols.len() != 1 || !def.columns[pk_cols[0]].sql_type.is_integer() {
                continue;
            }
            let data = self.db.table(&table_names[i])?;
            let keys: std::collections::HashSet<i64> =
                data.column(pk_cols[0]).filter_map(Value::as_i64).collect();
            if !keys.is_empty() {
                parents.push(Parent {
                    table_idx: i,
                    table: def.name.clone(),
                    column: def.columns[pk_cols[0]].name.clone(),
                    keys,
                });
            }
        }

        // Cycle guard over declared + accepted inferred edges.
        let index_of = |name: &str| defs.iter().position(|d| d.name.eq_ignore_ascii_case(name));
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
        for (i, def) in defs.iter().enumerate() {
            for fk in &def.foreign_keys {
                if let Some(j) = index_of(&fk.ref_table) {
                    edges[i].push(j);
                }
            }
        }
        fn reaches(from: usize, to: usize, edges: &[Vec<usize>], seen: &mut Vec<bool>) -> bool {
            if from == to {
                return true;
            }
            if seen[from] {
                return false;
            }
            seen[from] = true;
            edges[from].iter().any(|&n| reaches(n, to, edges, seen))
        }

        let mut inferred = BTreeMap::new();
        for (i, def) in defs.iter().enumerate() {
            let data = self.db.table(&table_names[i])?;
            for (c_idx, col) in def.columns.iter().enumerate() {
                if !col.sql_type.is_integer()
                    || col.primary
                    || def.foreign_key_for(&col.name).is_some()
                {
                    continue;
                }
                let values: Vec<i64> = data.column(c_idx).filter_map(Value::as_i64).collect();
                if values.is_empty() {
                    continue;
                }
                // Best candidate: smallest parent domain that contains all
                // values (tightest fit) with reasonable coverage.
                let mut best: Option<&Parent> = None;
                for p in &parents {
                    if p.table_idx == i {
                        continue;
                    }
                    if !values.iter().all(|v| p.keys.contains(v)) {
                        continue;
                    }
                    let distinct: std::collections::HashSet<&i64> = values.iter().collect();
                    if (distinct.len() as f64) < p.keys.len() as f64 * 0.5 {
                        continue; // low coverage: likely coincidence
                    }
                    if best.is_none_or(|b| p.keys.len() < b.keys.len()) {
                        best = Some(p);
                    }
                }
                if let Some(p) = best {
                    // Reject cycle-creating edges.
                    let mut seen = vec![false; defs.len()];
                    if reaches(p.table_idx, i, &edges, &mut seen) {
                        continue;
                    }
                    edges[i].push(p.table_idx);
                    inferred.insert(
                        (def.name.clone(), col.name.clone()),
                        (p.table.clone(), p.column.clone()),
                    );
                }
            }
        }
        Ok(inferred)
    }

    /// Generator choice, in the paper's priority order: referential
    /// integrity first, then data type, then keyword rules / sampling.
    #[allow(clippy::too_many_arguments, reason = "the column and the run's state")]
    fn choose_generator(
        &self,
        def: &minidb::TableDef,
        col: &minidb::ColumnDef,
        stats: Option<&minidb::ColumnStats>,
        table_name: &str,
        inferred: &InferredKeys,
        dictionaries: &mut BTreeMap<String, Dictionary>,
        markov_models: &mut BTreeMap<String, MarkovModel>,
        sampled_rows: &mut u64,
    ) -> Result<GeneratorSpec, DbError> {
        // 1. "a reference will always be generated by a reference
        //    generator independent of its type".
        if let Some(fk) = def.foreign_key_for(&col.name) {
            let base = GeneratorSpec::Reference {
                table: fk.ref_table.clone(),
                field: fk.ref_column.clone(),
                distribution: RefDistribution::Uniform,
            };
            return Ok(self.wrap_null(base, col, stats));
        }

        // 1b. Inferred (undeclared) references, when enabled.
        if let Some((p_table, p_col)) = inferred.get(&(def.name.clone(), col.name.clone())) {
            let base = GeneratorSpec::Reference {
                table: p_table.clone(),
                field: p_col.clone(),
                distribution: RefDistribution::Uniform,
            };
            return Ok(self.wrap_null(base, col, stats));
        }

        // 2. Primary keys and id-named numeric columns get ID generators.
        if col.sql_type.is_integer()
            && (col.primary || self.rules.is_id_column(&col.name, col.sql_type))
        {
            return Ok(GeneratorSpec::Id {
                permute: !col.primary,
            });
        }

        // 3. Text columns: sample if permitted, else keyword rules, else
        //    random strings.
        if col.sql_type.is_text() {
            if let Some(sampling) = &self.options.sampling {
                if let Some(spec) = self.extract_text_model(
                    def,
                    col,
                    table_name,
                    sampling,
                    dictionaries,
                    markov_models,
                    sampled_rows,
                )? {
                    return Ok(self.wrap_null(spec, col, stats));
                }
            }
            if let Some(spec) = self.rules.high_level_generator(&col.name, col.sql_type) {
                return Ok(self.wrap_null(spec, col, stats));
            }
            let max_len = col.sql_type.display_size().max(1);
            let spec = GeneratorSpec::RandomString {
                min_len: 1,
                max_len: max_len.min(64),
            };
            return Ok(self.wrap_null(spec, col, stats));
        }

        // 4. Typed generators, bounded by extracted statistics.
        let spec = self.typed_generator(col, stats)?;
        Ok(self.wrap_null(spec, col, stats))
    }

    /// Histogram-shaped generator when the statistics support it.
    fn histogram_generator(
        &self,
        col: &minidb::ColumnDef,
        stats: Option<&minidb::ColumnStats>,
    ) -> Option<GeneratorSpec> {
        use pdgf_schema::model::HistogramOutput;
        if !self.options.use_histograms {
            return None;
        }
        let h = stats?.histogram.as_ref()?;
        // Degenerate (single-point or near-empty) histograms carry no
        // shape information worth a generator.
        if h.hi <= h.lo || h.total() < 8 {
            return None;
        }
        let output = match col.sql_type {
            SqlType::SmallInt | SqlType::Integer | SqlType::BigInt => HistogramOutput::Long,
            SqlType::Real | SqlType::Double => HistogramOutput::Double,
            SqlType::Decimal(_, s) => HistogramOutput::Decimal(s),
            _ => return None,
        };
        let buckets = h.counts.len();
        let width = (h.hi - h.lo) / buckets as f64;
        let bounds: Vec<f64> = (0..=buckets).map(|i| h.lo + width * i as f64).collect();
        let weights: Vec<f64> = h.counts.iter().map(|&c| c as f64).collect();
        Some(GeneratorSpec::HistogramNumeric {
            bounds,
            weights,
            output,
        })
    }

    fn typed_generator(
        &self,
        col: &minidb::ColumnDef,
        stats: Option<&minidb::ColumnStats>,
    ) -> Result<GeneratorSpec, DbError> {
        if let Some(spec) = self.histogram_generator(col, stats) {
            return Ok(spec);
        }
        let min_f = stats.and_then(|s| s.min.as_ref()).and_then(Value::as_f64);
        let max_f = stats.and_then(|s| s.max.as_ref()).and_then(Value::as_f64);
        Ok(match col.sql_type {
            SqlType::Boolean => {
                // True fraction from the histogram when available.
                GeneratorSpec::RandomBool { true_prob: 0.5 }
            }
            SqlType::SmallInt | SqlType::Integer | SqlType::BigInt => GeneratorSpec::Long {
                min: num_expr(min_f.unwrap_or(0.0))?,
                max: num_expr(max_f.unwrap_or(1_000_000.0))?,
            },
            SqlType::Decimal(_, s) => {
                let factor = 10f64.powi(i32::from(s));
                GeneratorSpec::Decimal {
                    min: num_expr(min_f.map_or(0.0, |v| (v * factor).round()))?,
                    max: num_expr(max_f.map_or(factor * 1_000_000.0, |v| (v * factor).round()))?,
                    scale: s,
                }
            }
            SqlType::Real | SqlType::Double => GeneratorSpec::Double {
                min: num_expr(min_f.unwrap_or(0.0))?,
                max: num_expr(max_f.unwrap_or(1.0))?,
                decimals: None,
            },
            SqlType::Date => {
                let min = stats
                    .and_then(|s| s.min.as_ref())
                    .and_then(Value::as_i64)
                    .map(|d| Date(d as i32))
                    .unwrap_or(Date::from_ymd(1992, 1, 1));
                let max = stats
                    .and_then(|s| s.max.as_ref())
                    .and_then(Value::as_i64)
                    .map(|d| Date(d as i32))
                    .unwrap_or(Date::from_ymd(1998, 12, 31));
                GeneratorSpec::DateRange {
                    min,
                    max,
                    format: DateFormat::Iso,
                }
            }
            SqlType::Time | SqlType::Timestamp => GeneratorSpec::TimestampRange {
                min: min_f.map_or(0, |v| v as i64),
                max: max_f.map_or(1_000_000_000, |v| v as i64),
            },
            SqlType::Char(_) | SqlType::Varchar(_) => {
                unreachable!("text handled by caller")
            }
        })
    }

    /// Sample a text column and build a dictionary or Markov model.
    #[allow(clippy::too_many_arguments, reason = "the column and the run's state")]
    fn extract_text_model(
        &self,
        def: &minidb::TableDef,
        col: &minidb::ColumnDef,
        table_name: &str,
        sampling: &SamplingOptions,
        dictionaries: &mut BTreeMap<String, Dictionary>,
        markov_models: &mut BTreeMap<String, MarkovModel>,
        sampled_rows: &mut u64,
    ) -> Result<Option<GeneratorSpec>, DbError> {
        let table = self.db.table(table_name)?;
        let col_idx = def
            .column_index(&col.name)
            .ok_or_else(|| DbError::Sql(format!("no column {} in table {}", col.name, def.name)))?;
        let rows = sampling.strategy.select(table.row_count());
        *sampled_rows += rows.len() as u64;
        let samples: Vec<&str> = rows
            .iter()
            .filter_map(|&r| table.rows()[r][col_idx].as_text())
            .collect();
        if samples.is_empty() {
            return Ok(None);
        }

        let distinct: std::collections::HashSet<&str> = samples.iter().copied().collect();
        let single_word = is_single_word_column(samples.iter().copied());
        let word_counts: Vec<usize> = samples
            .iter()
            .map(|s| s.split_whitespace().count())
            .collect();
        let max_words = word_counts.iter().copied().max().unwrap_or(1).max(1) as u32;
        let min_words = word_counts.iter().copied().min().unwrap_or(1).max(1) as u32;

        if single_word || distinct.len() <= sampling.dict_max_distinct {
            // "The Markov generator builds dictionaries for single word
            // text fields" — weighted by observed frequency.
            let dict = Dictionary::from_samples(samples.iter().copied())
                .map_err(|e| DbError::Sql(e.to_string()))?;
            let path = format!("dicts/{}_{}.dict", def.name, col.name);
            dictionaries.insert(path.clone(), dict);
            return Ok(Some(GeneratorSpec::Dict {
                source: DictSource::File(path),
                weighted: true,
            }));
        }

        // "… and Markov chains for free text, the parameters for the
        // Markov model are adjusted based on the original data."
        let mut builder = MarkovBuilder::new();
        for s in &samples {
            builder.feed(s);
        }
        let model = builder.build().map_err(|e| DbError::Sql(e.to_string()))?;
        let path = format!("markov/{}_{}_markovSamples.bin", def.name, col.name);
        markov_models.insert(path.clone(), model);
        Ok(Some(GeneratorSpec::Markov {
            source: MarkovSource::File(path),
            min_words,
            max_words,
        }))
    }

    /// Wrap in a NULL generator when the column was observed to contain
    /// NULLs (or is nullable with unknown stats — probability 0 keeps the
    /// wrapper visible in the model for later tuning, as Listing 1 shows
    /// `probability=".0000d"`).
    fn wrap_null(
        &self,
        inner: GeneratorSpec,
        col: &minidb::ColumnDef,
        stats: Option<&minidb::ColumnStats>,
    ) -> GeneratorSpec {
        if !col.nullable {
            return inner;
        }
        let probability = stats.map(|s| s.null_fraction()).unwrap_or(0.0);
        GeneratorSpec::Null {
            probability,
            inner: Box::new(inner),
        }
    }
}

/// A statistics bound as a literal expression; a NaN or infinite bound
/// has no literal and is an error.
fn num_expr(v: f64) -> Result<Expr, DbError> {
    let text = if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    };
    Expr::parse(&text).map_err(|e| DbError::Sql(format!("bound {v}: {e}")))
}

/// Order table indices so FK-referenced tables (declared or inferred)
/// precede their referrers.
fn topo_order_with(defs: &[minidb::TableDef], inferred: &InferredKeys) -> Vec<usize> {
    let index_of = |name: &str| defs.iter().position(|d| d.name.eq_ignore_ascii_case(name));
    let mut extra_parents: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
    for ((child_table, _), (parent_table, _)) in inferred {
        if let (Some(c), Some(p)) = (index_of(child_table), index_of(parent_table)) {
            extra_parents[c].push(p);
        }
    }
    let mut visited = vec![0u8; defs.len()];
    let mut order = Vec::with_capacity(defs.len());
    #[allow(clippy::too_many_arguments, reason = "a recursive walk's state")]
    fn dfs(
        i: usize,
        defs: &[minidb::TableDef],
        extra: &[Vec<usize>],
        index_of: &dyn Fn(&str) -> Option<usize>,
        visited: &mut [u8],
        order: &mut Vec<usize>,
    ) {
        if visited[i] != 0 {
            return;
        }
        visited[i] = 1;
        for fk in &defs[i].foreign_keys {
            if let Some(j) = index_of(&fk.ref_table) {
                if visited[j] == 0 {
                    dfs(j, defs, extra, index_of, visited, order);
                }
            }
        }
        for &j in &extra[i] {
            if visited[j] == 0 {
                dfs(j, defs, extra, index_of, visited, order);
            }
        }
        visited[i] = 2;
        order.push(i);
    }
    for i in 0..defs.len() {
        dfs(i, defs, &extra_parents, &index_of, &mut visited, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::ColumnDef;
    use minidb::TableDef;

    /// Customer/orders source with text, nulls, FKs, and free text.
    pub(crate) fn source_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableDef::new("customer")
                .column(ColumnDef::new("c_id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("c_city", SqlType::Varchar(20)).not_null())
                .column(ColumnDef::new("c_balance", SqlType::Decimal(8, 2))),
        )
        .unwrap();
        db.create_table(
            TableDef::new("orders")
                .column(ColumnDef::new("o_id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("o_cust", SqlType::BigInt).not_null())
                .column(ColumnDef::new("o_date", SqlType::Date).not_null())
                .column(ColumnDef::new("o_comment", SqlType::Varchar(60)))
                .foreign_key("o_cust", "customer", "c_id"),
        )
        .unwrap();
        let cities = ["Toronto", "Passau", "Melbourne"];
        for i in 0..60i64 {
            db.insert(
                "customer",
                vec![
                    Value::Long(i + 1),
                    Value::text(cities[(i % 3) as usize]),
                    if i % 10 == 0 {
                        Value::Null
                    } else {
                        Value::decimal(i * 100, 2)
                    },
                ],
            )
            .unwrap();
        }
        let comments = [
            "carefully final deposits sleep quickly",
            "furiously regular requests haggle",
            "quickly special packages wake",
            "pending deposits boost furiously",
        ];
        for i in 0..200i64 {
            db.insert(
                "orders",
                vec![
                    Value::Long(i + 1),
                    Value::Long(i % 60 + 1),
                    Value::Date(Date::from_ymd(1995, 1, 1 + (i % 28) as u32)),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::text(comments[(i % 4) as usize])
                    },
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn schema_only_extraction_touches_no_data() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::schema_only(42))
            .extract("proj")
            .unwrap();
        assert_eq!(model.schema.tables.len(), 2);
        assert!(model.dictionaries.is_empty());
        assert!(model.markov_models.is_empty());
        assert_eq!(model.report.sampled_rows, 0);
        // Sizes are still read (schema info includes row counts).
        let orders = model.schema.table_by_name("orders").unwrap();
        assert_eq!(model.schema.table_size(orders).unwrap(), 200);
    }

    #[test]
    fn foreign_keys_become_reference_generators() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        let orders = model.schema.table_by_name("orders").unwrap();
        let f = &orders.fields[orders.field_index("o_cust").unwrap()];
        match &f.generator {
            GeneratorSpec::Reference { table, field, .. } => {
                assert_eq!(table, "customer");
                assert_eq!(field, "c_id");
            }
            other => panic!("expected reference, got {other:?}"),
        }
    }

    #[test]
    fn primary_keys_become_id_generators() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        let customer = model.schema.table_by_name("customer").unwrap();
        assert_eq!(
            customer.fields[0].generator,
            GeneratorSpec::Id { permute: false }
        );
        assert!(customer.fields[0].primary);
    }

    #[test]
    fn categorical_text_becomes_weighted_dictionary() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        let customer = model.schema.table_by_name("customer").unwrap();
        let f = &customer.fields[customer.field_index("c_city").unwrap()];
        match &f.generator {
            GeneratorSpec::Dict {
                source: DictSource::File(path),
                weighted,
            } => {
                assert!(*weighted);
                let dict = &model.dictionaries[path];
                assert_eq!(dict.len(), 3);
            }
            other => panic!("expected dictionary, got {other:?}"),
        }
    }

    #[test]
    fn free_text_becomes_markov_with_observed_word_bounds() {
        let db = source_db();
        let opts = ExtractionOptions {
            sampling: Some(SamplingOptions {
                strategy: SampleStrategy::Full,
                dict_max_distinct: 2,
            }),
            ..ExtractionOptions::default()
        };
        let model = Extractor::new(&db, opts).extract("proj").unwrap();
        let orders = model.schema.table_by_name("orders").unwrap();
        let f = &orders.fields[orders.field_index("o_comment").unwrap()];
        // Nullable column with observed NULLs: wrapped.
        let GeneratorSpec::Null { probability, inner } = &f.generator else {
            panic!("expected null wrapper, got {:?}", f.generator)
        };
        assert!(
            (*probability - 0.25).abs() < 0.02,
            "null prob {probability}"
        );
        let GeneratorSpec::Markov {
            source: MarkovSource::File(path),
            min_words,
            max_words,
        } = inner.as_ref()
        else {
            panic!("expected markov, got {inner:?}")
        };
        // Sampled comments are the three non-NULL variants, all 4 words.
        assert_eq!(*min_words, 4);
        assert_eq!(*max_words, 4);
        let m = &model.markov_models[path];
        assert!(m.word_count() > 5);
        assert_eq!(model.report.sampled_rows, 260);
    }

    #[test]
    fn stats_bound_numeric_and_date_generators() {
        let db = source_db();
        let opts = ExtractionOptions {
            use_histograms: false,
            ..ExtractionOptions::default()
        };
        let model = Extractor::new(&db, opts).extract("proj").unwrap();
        let customer = model.schema.table_by_name("customer").unwrap();
        let f = &customer.fields[customer.field_index("c_balance").unwrap()];
        let GeneratorSpec::Null { inner, .. } = &f.generator else {
            panic!("nullable decimal should be wrapped: {:?}", f.generator)
        };
        let GeneratorSpec::Decimal { min, max, scale } = inner.as_ref() else {
            panic!("{inner:?}")
        };
        assert_eq!(*scale, 2);
        assert_eq!(min.to_string(), "100", "min balance 1.00 unscaled");
        assert_eq!(max.to_string(), "5900");
        let orders = model.schema.table_by_name("orders").unwrap();
        let d = &orders.fields[orders.field_index("o_date").unwrap()];
        let GeneratorSpec::DateRange { min, max, .. } = &d.generator else {
            panic!("{:?}", d.generator)
        };
        assert_eq!(*min, Date::from_ymd(1995, 1, 1));
        assert_eq!(*max, Date::from_ymd(1995, 1, 28));
    }

    #[test]
    fn histograms_shape_numeric_generators_by_default() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        let customer = model.schema.table_by_name("customer").unwrap();
        let f = &customer.fields[customer.field_index("c_balance").unwrap()];
        let GeneratorSpec::Null { inner, .. } = &f.generator else {
            panic!("nullable decimal should be wrapped: {:?}", f.generator)
        };
        let GeneratorSpec::HistogramNumeric {
            bounds,
            weights,
            output,
        } = inner.as_ref()
        else {
            panic!("expected histogram generator, got {inner:?}")
        };
        assert_eq!(*output, pdgf_schema::model::HistogramOutput::Decimal(2));
        assert_eq!(bounds.len(), weights.len() + 1);
        // Bounds span the observed balances (1.00 .. 59.00 dollars).
        assert!((bounds[0] - 1.0).abs() < 1e-9);
        assert!((bounds[bounds.len() - 1] - 59.0).abs() < 1e-9);
        // The model still validates and generates in-range values.
        model.schema.validate().unwrap();
    }

    #[test]
    fn size_properties_scale_with_sf() {
        let db = source_db();
        let mut model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        model.schema.properties.override_value("SF", "10").unwrap();
        let orders = model.schema.table_by_name("orders").unwrap();
        assert_eq!(model.schema.table_size(orders).unwrap(), 2000);
    }

    #[test]
    fn tables_are_emitted_in_dependency_order() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        let c = model.schema.table_index("customer").unwrap();
        let o = model.schema.table_index("orders").unwrap();
        assert!(c < o, "referenced table must come first");
    }

    #[test]
    fn undeclared_foreign_keys_are_inferred_from_values() {
        // A second source DB whose orders.o_cust has NO declared FK.
        let mut db = Database::new();
        db.create_table(
            minidb::TableDef::new("customer")
                .column(minidb::ColumnDef::new("c_id", SqlType::BigInt).primary_key())
                .column(minidb::ColumnDef::new("c_age", SqlType::Integer).not_null()),
        )
        .unwrap();
        db.create_table(
            minidb::TableDef::new("orders")
                .column(minidb::ColumnDef::new("o_id", SqlType::BigInt).primary_key())
                .column(minidb::ColumnDef::new("o_cust", SqlType::BigInt).not_null())
                .column(minidb::ColumnDef::new("o_qty", SqlType::Integer).not_null()),
        )
        .unwrap();
        for i in 0..50i64 {
            db.insert(
                "customer",
                vec![Value::Long(i + 1), Value::Long(20 + i % 50)],
            )
            .unwrap();
        }
        for i in 0..300i64 {
            db.insert(
                "orders",
                vec![
                    Value::Long(i + 1),
                    Value::Long(i % 50 + 1), // contained in customer keys
                    Value::Long(1000 + i),   // NOT contained (values > 50)
                ],
            )
            .unwrap();
        }
        let opts = ExtractionOptions {
            infer_foreign_keys: true,
            ..ExtractionOptions::default()
        };
        let model = Extractor::new(&db, opts).extract("infer").unwrap();
        let orders = model.schema.table_by_name("orders").unwrap();
        let cust_field = &orders.fields[orders.field_index("o_cust").unwrap()];
        assert_eq!(
            cust_field.generator,
            GeneratorSpec::Reference {
                table: "customer".into(),
                field: "c_id".into(),
                distribution: RefDistribution::Uniform,
            },
            "o_cust should be inferred as a reference"
        );
        // o_qty's values (1000..) lie outside every key domain: no ref.
        let qty_field = &orders.fields[orders.field_index("o_qty").unwrap()];
        assert!(
            !matches!(qty_field.generator, GeneratorSpec::Reference { .. }),
            "o_qty must not become a reference: {:?}",
            qty_field.generator
        );
        // c_age (20..69) is NOT contained in c_id (1..50): no self/coincidence ref.
        let customer = model.schema.table_by_name("customer").unwrap();
        let age_field = &customer.fields[customer.field_index("c_age").unwrap()];
        assert!(!matches!(
            age_field.generator,
            GeneratorSpec::Reference { .. }
        ));
        // The inferred model validates and orders customer before orders.
        assert!(
            model.schema.table_index("customer").unwrap()
                < model.schema.table_index("orders").unwrap()
        );
    }

    #[test]
    fn inference_skips_cycle_creating_edges() {
        // a.val ⊆ b.id and b.val ⊆ a.id: accepting both would cycle.
        let mut db = Database::new();
        for (t, other_max) in [("a", 10i64), ("b", 10i64)] {
            db.create_table(
                minidb::TableDef::new(t)
                    .column(minidb::ColumnDef::new("id", SqlType::BigInt).primary_key())
                    .column(minidb::ColumnDef::new("val", SqlType::BigInt).not_null()),
            )
            .unwrap();
            let _ = other_max;
        }
        for i in 0..10i64 {
            db.insert("a", vec![Value::Long(i + 1), Value::Long(10 - i)])
                .unwrap();
            db.insert("b", vec![Value::Long(i + 1), Value::Long(i + 1)])
                .unwrap();
        }
        let opts = ExtractionOptions {
            infer_foreign_keys: true,
            ..ExtractionOptions::default()
        };
        let model = Extractor::new(&db, opts).extract("cyc").unwrap();
        // At most one direction may be inferred; the model must validate
        // (which extract() already asserts) and build.
        let refs = model
            .schema
            .tables
            .iter()
            .flat_map(|t| t.fields.iter())
            .filter(|f| matches!(strip(&f.generator), GeneratorSpec::Reference { .. }))
            .count();
        assert!(refs <= 1, "cycle not prevented: {refs} references");

        fn strip(g: &GeneratorSpec) -> &GeneratorSpec {
            match g {
                GeneratorSpec::Null { inner, .. } => strip(inner),
                other => other,
            }
        }
    }

    #[test]
    fn report_phases_are_populated() {
        let db = source_db();
        let model = Extractor::new(&db, ExtractionOptions::default())
            .extract("proj")
            .unwrap();
        let r = &model.report;
        assert!(r.total() >= r.sampling);
        assert!(r.sampled_rows > 0);
    }
}
