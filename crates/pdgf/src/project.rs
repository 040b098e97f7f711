//! The high-level project API: configure → build → generate.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use pdgf_gen::{FsResolver, MapResolver, ResolverOracle, ResourceResolver, SchemaRuntime};
use pdgf_output::{
    CsvFormatter, DirSinkFactory, Formatter, JsonFormatter, MemorySink, NullSinkFactory,
    SqlFormatter, XmlFormatter,
};
use pdgf_runtime::{GenerationRun, RunConfig, RunReport, Telemetry, UpdateOp};
use pdgf_schema::config as xmlconfig;
use pdgf_schema::{absint, Schema, Value};

use crate::explain::{ColumnExplain, ExplainReport, PerFormat, TableExplain};

/// Supported output formats ("PDGF can write data in various formats
/// (e.g., CSV, JSON, XML, and SQL)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Comma/pipe-separated values.
    Csv,
    /// Newline-delimited JSON.
    Json,
    /// XML rows.
    Xml,
    /// SQL INSERT statements.
    Sql,
}

impl OutputFormat {
    /// File extension for directory output.
    pub fn extension(self) -> &'static str {
        match self {
            OutputFormat::Csv => "csv",
            OutputFormat::Json => "json",
            OutputFormat::Xml => "xml",
            OutputFormat::Sql => "sql",
        }
    }

    /// Build the matching formatter.
    pub fn formatter(self) -> Box<dyn Formatter> {
        match self {
            OutputFormat::Csv => Box::new(CsvFormatter::new()),
            OutputFormat::Json => Box::new(JsonFormatter),
            OutputFormat::Xml => Box::new(XmlFormatter),
            OutputFormat::Sql => Box::new(SqlFormatter::new()),
        }
    }

    /// Parse a format name (the CLI `--format` values and the serve
    /// protocol's format field).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            "xml" => Some(OutputFormat::Xml),
            "sql" => Some(OutputFormat::Sql),
            _ => None,
        }
    }

    /// All formats, in `--format` listing order.
    pub fn all() -> [Self; 4] {
        [
            OutputFormat::Csv,
            OutputFormat::Json,
            OutputFormat::Xml,
            OutputFormat::Sql,
        ]
    }
}

/// Facade error type.
#[derive(Debug)]
pub enum PdgfError {
    /// Configuration parse/validation failure.
    Config(String),
    /// Runtime construction failure.
    Build(String),
    /// I/O failure during generation.
    Io(io::Error),
}

impl fmt::Display for PdgfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdgfError::Config(m) => write!(f, "configuration error: {m}"),
            PdgfError::Build(m) => write!(f, "build error: {m}"),
            PdgfError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for PdgfError {}

impl From<io::Error> for PdgfError {
    fn from(e: io::Error) -> Self {
        PdgfError::Io(e)
    }
}

/// Builder for a PDGF project.
pub struct Pdgf {
    schema: Schema,
    resolver: Arc<dyn ResourceResolver + Send + Sync>,
    config: RunConfig,
    overrides: Vec<(String, String)>,
    seed_override: Option<u64>,
}

impl Pdgf {
    /// Start from an in-memory schema model.
    pub fn from_schema(schema: Schema) -> Self {
        Self {
            schema,
            resolver: Arc::new(MapResolver::new()),
            config: RunConfig::default(),
            overrides: Vec::new(),
            seed_override: None,
        }
    }

    /// Parse an XML model document.
    pub fn from_xml_str(doc: &str) -> Result<Self, PdgfError> {
        let schema =
            xmlconfig::from_xml_string(doc).map_err(|e| PdgfError::Config(e.to_string()))?;
        Ok(Self::from_schema(schema))
    }

    /// Load an XML model file; external dictionary/Markov paths resolve
    /// relative to the file's directory.
    pub fn from_xml_file(path: impl AsRef<Path>) -> Result<Self, PdgfError> {
        let path = path.as_ref();
        let doc = std::fs::read_to_string(path)?;
        let base = path
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .to_path_buf();
        Ok(Self::from_xml_str(&doc)?.resolver(FsResolver::new(base)))
    }

    /// Replace the resource resolver.
    pub fn resolver(mut self, resolver: impl ResourceResolver + Send + Sync + 'static) -> Self {
        self.resolver = Arc::new(resolver);
        self
    }

    /// Worker thread count (0 = inline generation on the calling thread).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config = self.config.workers(workers);
        self
    }

    /// Rows per work package.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0, like
    /// [`RunConfig::package_rows`](pdgf_runtime::RunConfig::package_rows).
    pub fn package_rows(mut self, rows: u64) -> Self {
        self.config = self.config.package_rows(rows);
        self
    }

    /// Override a model property from "the command line interface"
    /// (e.g. `("SF", "100")`).
    pub fn set_property(mut self, name: &str, value: &str) -> Self {
        self.overrides.push((name.to_string(), value.to_string()));
        self
    }

    /// Override the project seed — "changing the seed will modify every
    /// value of the generated data set".
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed_override = Some(seed);
        self
    }

    /// The schema with the builder's property and seed overrides applied.
    fn resolved_schema(&self) -> Result<Schema, PdgfError> {
        let mut schema = self.schema.clone();
        for (name, value) in &self.overrides {
            schema
                .properties
                .override_value(name, value)
                .map_err(|e| PdgfError::Config(e.to_string()))?;
        }
        if let Some(seed) = self.seed_override {
            schema.seed = seed;
        }
        Ok(schema)
    }

    /// Structural analysis followed by the abstract-interpretation pass
    /// (E040+/W010+), its findings appended. The interpreter resolves
    /// dictionaries and Markov models through the builder's resolver;
    /// unresolvable resources soundly widen to "unknown" instead of
    /// erroring here (the build reports them).
    fn full_analysis(&self, schema: &Schema) -> pdgf_schema::Analysis {
        let mut analysis = schema.analyze();
        let oracle = ResolverOracle(self.resolver.as_ref());
        let interp = absint::interpret(schema, &analysis, &oracle);
        analysis.diagnostics.extend(interp.diagnostics);
        analysis
    }

    /// Run the deep static analyzer on the model — with the builder's
    /// property and seed overrides applied — without compiling a runtime.
    /// Returns every diagnostic (warnings included), unlike [`build`],
    /// which stops at the first error. The result covers both the
    /// structural passes (E001+) and the abstract interpretation of the
    /// generator graph at the current scale (E040+, W010+).
    ///
    /// [`build`]: Pdgf::build
    pub fn analyze(&self) -> Result<pdgf_schema::Analysis, PdgfError> {
        let schema = self.resolved_schema()?;
        Ok(self.full_analysis(&schema))
    }

    /// Statically explain the run this builder would perform: generation
    /// order, per-table row and package counts, the parallelism plan, and
    /// proven upper bounds on output bytes per row / table / data set for
    /// every output format — all without generating a single row.
    ///
    /// When the model has errors the report carries the diagnostics and
    /// no table plans ([`ExplainReport::ok`] is false).
    pub fn explain(&self) -> Result<ExplainReport, PdgfError> {
        let schema = self.resolved_schema()?;
        let analysis = self.full_analysis(&schema);
        let generation_order: Vec<String> = analysis
            .generation_order
            .iter()
            .map(|&t| schema.tables[t as usize].name.clone())
            .collect();
        let workers = self.config.worker_threads();
        let package_rows = self.config.rows_per_package();
        if analysis.has_errors() {
            return Ok(ExplainReport {
                ok: false,
                diagnostics: analysis.diagnostics,
                generation_order,
                workers,
                package_rows,
                tables: Vec::new(),
                total_bytes: PerFormat::build(|_| None),
            });
        }
        let runtime = SchemaRuntime::build(&schema, self.resolver.as_ref())
            .map_err(|e| PdgfError::Build(e.0))?;
        let profiles = runtime.profiles();
        let formatters = PerFormat::build(OutputFormat::formatter);
        let mut tables = Vec::new();
        for (t, rt_table) in runtime.tables().iter().enumerate() {
            let meta = pdgf_runtime::table_meta(&runtime, t as u32);
            let rows = rt_table.size;
            let max_row_bytes =
                PerFormat::build(|f| formatters.get(f).max_row_bytes(&meta, &profiles[t]));
            let max_total_bytes = PerFormat::build(|f| {
                let per_row = (*max_row_bytes.get(f))?;
                let fmt = formatters.get(f);
                let mut frame = Vec::new();
                fmt.begin(&mut frame, &meta);
                fmt.end(&mut frame, &meta);
                let total = u128::from(per_row) * u128::from(rows) + frame.len() as u128;
                u64::try_from(total).ok()
            });
            let columns = rt_table
                .columns
                .iter()
                .zip(&profiles[t])
                .map(|(c, p)| ColumnExplain {
                    name: c.name.clone(),
                    profile: p.clone(),
                })
                .collect();
            tables.push(TableExplain {
                name: rt_table.name.clone(),
                rows,
                packages: rows.div_ceil(package_rows),
                max_row_bytes,
                max_total_bytes,
                columns,
            });
        }
        let total_bytes = PerFormat::build(|f| {
            tables
                .iter()
                .try_fold(0u64, |acc, t| acc.checked_add((*t.max_total_bytes.get(f))?))
        });
        Ok(ExplainReport {
            ok: true,
            diagnostics: analysis.diagnostics,
            generation_order,
            workers,
            package_rows,
            tables,
            total_bytes,
        })
    }

    /// Validate and compile into a runnable project.
    pub fn build(mut self) -> Result<PdgfProject, PdgfError> {
        for (name, value) in &self.overrides {
            self.schema
                .properties
                .override_value(name, value)
                .map_err(|e| PdgfError::Config(e.to_string()))?;
        }
        if let Some(seed) = self.seed_override {
            self.schema.seed = seed;
        }
        let runtime = SchemaRuntime::build(&self.schema, self.resolver.as_ref())
            .map_err(|e| PdgfError::Build(e.0))?;
        Ok(PdgfProject {
            schema: self.schema,
            runtime,
            config: self.config,
        })
    }
}

/// A compiled, runnable project.
pub struct PdgfProject {
    schema: Schema,
    runtime: SchemaRuntime,
    config: RunConfig,
}

impl PdgfProject {
    /// The validated schema model.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The compiled runtime (direct cell access).
    pub fn runtime(&self) -> &SchemaRuntime {
        &self.runtime
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// A whole-project run, observed by `telemetry` when given.
    fn run(&self, telemetry: Option<&Telemetry>) -> GenerationRun<'_> {
        let run = GenerationRun::new(&self.runtime, self.config.clone());
        match telemetry {
            Some(t) => run.with_telemetry(t.clone()),
            None => run,
        }
    }

    /// Generate every table into `dir` as `<table>.<ext>` files. An
    /// attached [`Telemetry`] sees live progress, the event stream and
    /// phase-latency metrics (populating [`RunReport::metrics`]), and its
    /// stall watchdog covers the run.
    ///
    /// `shard: Some((node, nodes))` generates only that node's shard —
    /// the shared-nothing deployment of the paper: every node runs the
    /// same model with a `(node, nodes)` pair and no communication.
    /// With more than one node the files are `<table>.part<node>.<ext>`,
    /// one per table even when the shard owns no rows; concatenating the
    /// part files in node order reproduces the single-node files byte
    /// for byte, framing (XML document tags) included.
    /// `None` is node 0 of 1, the whole project.
    pub fn generate_to_dir(
        &self,
        dir: impl AsRef<Path>,
        format: OutputFormat,
        shard: Option<(usize, usize)>,
        telemetry: Option<&Telemetry>,
    ) -> Result<RunReport, PdgfError> {
        let (node, nodes) = shard.unwrap_or((0, 1));
        if nodes == 0 {
            return Err(PdgfError::Config("need at least one node".into()));
        }
        if node >= nodes {
            return Err(PdgfError::Config(format!(
                "node {node} out of range for {nodes} nodes"
            )));
        }
        let ext = format.extension();
        let factory = if nodes > 1 {
            DirSinkFactory::new(dir.as_ref(), format!("part{node}.{ext}"))
        } else {
            DirSinkFactory::new(dir.as_ref(), ext)
        };
        let run = self.run(telemetry).shard(node, nodes);
        Ok(run.run(format.formatter().as_ref(), factory)?)
    }

    /// Generate every table into counting null sinks — the CPU-bound
    /// configuration of the paper's experiments.
    pub fn generate_to_null(&self, telemetry: Option<&Telemetry>) -> Result<RunReport, PdgfError> {
        Ok(self
            .run(telemetry)
            .run(&CsvFormatter::new(), NullSinkFactory)?)
    }

    /// Render one table to a string (testing and previews).
    pub fn table_to_string(&self, table: &str, format: OutputFormat) -> Result<String, PdgfError> {
        let (idx, t) = self
            .runtime
            .table_by_name(table)
            .ok_or_else(|| PdgfError::Config(format!("unknown table {table:?}")))?;
        let formatter = format.formatter();
        let mut sink = MemorySink::new();
        pdgf_runtime::generate_table_range(
            &self.runtime,
            idx,
            0,
            0..t.size,
            formatter.as_ref(),
            &mut sink,
            &self.config,
            None,
        )?;
        Ok(sink.as_str().to_string())
    }

    /// Generate `epochs` update batches for every table and write each as
    /// an executable SQL change file (`<table>.u<epoch>.sql`) into `dir` —
    /// the ETL/CDC output path (PDGF's update generation is what TPC-DI's
    /// data generator is built on). Returns per-file operation counts.
    ///
    /// UPDATE and DELETE address a row by its primary key. A table with no
    /// primary-key column has no such address (any column may repeat), so
    /// its change files hold its inserts only.
    pub fn generate_updates_to_dir(
        &self,
        dir: impl AsRef<Path>,
        epochs: u32,
        config: pdgf_runtime::UpdateConfig,
    ) -> Result<Vec<(String, u32, usize)>, PdgfError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let rt = &self.runtime;
        let mut out = Vec::new();
        for (t_idx, table) in rt.tables().iter().enumerate() {
            let bb = pdgf_runtime::UpdateBlackBox::new(t_idx as u32, config);
            let columns: Vec<String> = table.columns.iter().map(|c| c.name.clone()).collect();
            let primary = table.columns.iter().position(|c| c.primary);
            let key_column = primary.unwrap_or(0);
            for epoch in 1..=epochs {
                let mut batch = bb.batch(rt, epoch);
                if primary.is_none() {
                    batch.ops.retain(|op| matches!(op, UpdateOp::Insert { .. }));
                }
                let statements = batch.to_sql(&table.name, &columns, key_column, &|row| {
                    rt.value(t_idx as u32, key_column as u32, 0, row)
                });
                let path = dir.join(format!("{}.u{epoch}.sql", table.name));
                let mut body = String::new();
                for s in &statements {
                    body.push_str(s);
                    body.push_str(";\n");
                }
                std::fs::write(path, body)?;
                out.push((table.name.clone(), epoch, statements.len()));
            }
        }
        Ok(out)
    }

    /// Point lookup: the values of one row of `table` at update epoch
    /// `update`, recomputed on the spot from the seeding hierarchy (the
    /// paper's O(1) cell access — no files involved). Byte-agreement of
    /// these values with full-file generation is pinned by the serve
    /// determinism test matrix.
    pub fn row(&self, table: &str, update: u32, row: u64) -> Result<Vec<Value>, PdgfError> {
        let (idx, t) = self
            .runtime
            .table_by_name(table)
            .ok_or_else(|| PdgfError::Config(format!("unknown table {table:?}")))?;
        if row >= t.size {
            return Err(PdgfError::Config(format!(
                "row {row} out of bounds for table {table:?} of {} rows",
                t.size
            )));
        }
        Ok(self.runtime.row(idx, update, row))
    }

    /// Consume the project, keeping only the compiled runtime — what the
    /// serve layer wraps in an `Arc` to share across its worker pool.
    pub fn into_runtime(self) -> SchemaRuntime {
        self.runtime
    }

    /// Instant preview of the first `rows` rows of a table — "PDGF's
    /// preview generation, which shows samples of the generated data
    /// instantaneously".
    pub fn preview(&self, table: &str, rows: u64) -> Result<Vec<Vec<Value>>, PdgfError> {
        let (idx, t) = self
            .runtime
            .table_by_name(table)
            .ok_or_else(|| PdgfError::Config(format!("unknown table {table:?}")))?;
        Ok(self.runtime.rows(idx, 0, 0..rows.min(t.size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_schema::{Expr, Field, GeneratorSpec, SqlType, Table};

    fn schema() -> Schema {
        let mut s = Schema::new("facade", 12_456_789);
        s.properties.define("SF", "1").unwrap();
        s.table(
            Table::new("t", "50 * ${SF}")
                .field(
                    Field::new("id", SqlType::BigInt, GeneratorSpec::Id { permute: false })
                        .primary(),
                )
                .field(Field::new(
                    "v",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").unwrap(),
                        max: Expr::parse("9").unwrap(),
                    },
                )),
        )
    }

    #[test]
    #[should_panic(expected = "package_rows must be at least 1")]
    fn zero_package_rows_panics() {
        let _ = Pdgf::from_schema(schema()).package_rows(0);
    }

    #[test]
    fn build_and_render_each_format() {
        let project = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        let csv = project.table_to_string("t", OutputFormat::Csv).unwrap();
        assert_eq!(csv.lines().count(), 50);
        let json = project.table_to_string("t", OutputFormat::Json).unwrap();
        assert!(json.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let xml = project.table_to_string("t", OutputFormat::Xml).unwrap();
        assert!(xml.starts_with("<t>"));
        let sql = project.table_to_string("t", OutputFormat::Sql).unwrap();
        assert!(sql.starts_with("INSERT INTO t"));
    }

    #[test]
    fn table_output_matches_the_row_oracle() {
        let project = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        let (table, t) = project.runtime().table_by_name("t").unwrap();
        for format in OutputFormat::all() {
            let oracle = crate::oracle::oracle_bytes(
                project.runtime(),
                table,
                0,
                0..t.size,
                format.formatter().as_ref(),
            );
            assert_eq!(
                project.table_to_string("t", format).unwrap().into_bytes(),
                oracle
            );
        }
    }

    #[test]
    fn property_override_rescales() {
        let project = Pdgf::from_schema(schema())
            .set_property("SF", "2")
            .workers(0)
            .build()
            .unwrap();
        let csv = project.table_to_string("t", OutputFormat::Csv).unwrap();
        assert_eq!(csv.lines().count(), 100);
    }

    #[test]
    fn seed_override_changes_data_but_not_shape() {
        let a = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        let b = Pdgf::from_schema(schema())
            .seed(999)
            .workers(0)
            .build()
            .unwrap();
        let csv_a = a.table_to_string("t", OutputFormat::Csv).unwrap();
        let csv_b = b.table_to_string("t", OutputFormat::Csv).unwrap();
        assert_eq!(csv_a.lines().count(), csv_b.lines().count());
        assert_ne!(csv_a, csv_b);
    }

    #[test]
    fn preview_returns_typed_rows() {
        let project = Pdgf::from_schema(schema()).build().unwrap();
        let rows = project.preview("t", 5).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::Long(1));
        assert_eq!(rows[4][0], Value::Long(5));
        assert!(project.preview("missing", 5).is_err());
        // Preview is capped at table size.
        assert_eq!(project.preview("t", 1000).unwrap().len(), 50);
    }

    #[test]
    fn generate_to_dir_writes_files() {
        let dir = std::env::temp_dir().join(format!("pdgf-facade-{}", std::process::id()));
        let project = Pdgf::from_schema(schema()).workers(2).build().unwrap();
        let report = project
            .generate_to_dir(&dir, OutputFormat::Csv, None, None)
            .unwrap();
        assert_eq!(report.total_rows(), 50);
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content.lines().count(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_part_files_concatenate_to_the_whole_table() {
        let base = std::env::temp_dir().join(format!("pdgf-shards-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let project = Pdgf::from_schema(schema()).workers(2).build().unwrap();

        let whole = base.join("whole");
        project
            .generate_to_dir(&whole, OutputFormat::Csv, None, None)
            .unwrap();
        let reference = std::fs::read(whole.join("t.csv")).unwrap();

        let shards = base.join("shards");
        let mut concat = Vec::new();
        let mut rows = 0;
        for node in 0..3 {
            let report = project
                .generate_to_dir(&shards, OutputFormat::Csv, Some((node, 3)), None)
                .unwrap();
            rows += report.total_rows();
            concat.extend(std::fs::read(shards.join(format!("t.part{node}.csv"))).unwrap());
        }
        assert_eq!(rows, 50);
        assert_eq!(concat, reference);

        assert!(project
            .generate_to_dir(&shards, OutputFormat::Csv, Some((3, 3)), None)
            .is_err());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn generate_to_null_reports_bytes() {
        let project = Pdgf::from_schema(schema()).workers(2).build().unwrap();
        let telemetry = Telemetry::new();
        let report = project.generate_to_null(Some(&telemetry)).unwrap();
        assert_eq!(report.total_rows(), 50);
        assert_eq!(telemetry.progress().bytes, report.total_bytes());
    }

    #[test]
    fn update_epochs_write_cdc_sql_files() {
        let dir = std::env::temp_dir().join(format!("pdgf-cdc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let project = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        let report = project
            .generate_updates_to_dir(
                &dir,
                2,
                pdgf_runtime::UpdateConfig {
                    insert_fraction: 0.1,
                    update_fraction: 0.1,
                    delete_fraction: 0.02,
                },
            )
            .unwrap();
        // One file per (table, epoch).
        assert_eq!(report.len(), 2);
        let epoch1 = std::fs::read_to_string(dir.join("t.u1.sql")).unwrap();
        // 50 rows → 5 inserts + 5 updates + 1 delete.
        assert_eq!(epoch1.lines().count(), 11);
        assert!(epoch1.contains("INSERT INTO t (id, v) VALUES ("));
        assert!(epoch1.contains("UPDATE t SET v = "));
        assert!(epoch1.contains("DELETE FROM t WHERE id = "));
        assert!(epoch1.lines().all(|l| l.ends_with(';')));
        // Deterministic: regenerating gives identical files.
        let again = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        let dir2 = std::env::temp_dir().join(format!("pdgf-cdc2-{}", std::process::id()));
        again
            .generate_updates_to_dir(
                &dir2,
                2,
                pdgf_runtime::UpdateConfig {
                    insert_fraction: 0.1,
                    update_fraction: 0.1,
                    delete_fraction: 0.02,
                },
            )
            .unwrap();
        assert_eq!(
            epoch1,
            std::fs::read_to_string(dir2.join("t.u1.sql")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn xml_roundtrip_through_facade() {
        let doc = xmlconfig::to_xml_string(&schema());
        let project = Pdgf::from_xml_str(&doc)
            .unwrap()
            .workers(0)
            .build()
            .unwrap();
        let direct = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        assert_eq!(
            project.table_to_string("t", OutputFormat::Csv).unwrap(),
            direct.table_to_string("t", OutputFormat::Csv).unwrap()
        );
    }

    #[test]
    fn explain_reports_plan_and_proven_bounds() {
        let report = Pdgf::from_schema(schema())
            .workers(0)
            .package_rows(20)
            .explain()
            .unwrap();
        assert!(report.ok);
        assert_eq!(report.generation_order, ["t"]);
        assert_eq!(report.workers, 0);
        assert_eq!(report.package_rows, 20);
        let t = report.table("t").unwrap();
        assert_eq!(t.rows, 50);
        assert_eq!(t.packages, 3);
        assert_eq!(t.columns.len(), 2);
        let per_row = t.max_row_bytes.csv.unwrap();

        // The proven bounds must hold over the real output.
        let project = Pdgf::from_schema(schema()).workers(0).build().unwrap();
        let csv = project.table_to_string("t", OutputFormat::Csv).unwrap();
        for line in csv.lines() {
            assert!((line.len() + 1) as u64 <= per_row, "{line:?}");
        }
        assert!(csv.len() as u64 <= t.max_total_bytes.csv.unwrap());
        // One table, so the data-set bound is the table bound.
        assert_eq!(report.total_bytes.csv, t.max_total_bytes.csv);
    }

    #[test]
    fn explain_json_is_byte_stable() {
        let a = Pdgf::from_schema(schema()).explain().unwrap().to_json("m");
        let b = Pdgf::from_schema(schema()).explain().unwrap().to_json("m");
        assert_eq!(a, b);
        assert!(a.starts_with("{\"model\":\"m\",\"ok\":true,"));
    }

    #[test]
    fn analyze_merges_abstract_interpretation_diagnostics() {
        // A primary key drawn from a random Long range is not provably
        // unique — invisible to the structural passes, caught by the
        // abstract interpreter as E040.
        let s = Schema::new("weakpk", 7).table(
            Table::new("t", "100").field(
                Field::new(
                    "id",
                    SqlType::BigInt,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").unwrap(),
                        max: Expr::parse("9").unwrap(),
                    },
                )
                .primary(),
            ),
        );
        let analysis = Pdgf::from_schema(s.clone()).analyze().unwrap();
        assert!(analysis.diagnostics.iter().any(|d| d.code == "E040"));
        // explain refuses to plan a model with errors.
        let report = Pdgf::from_schema(s).explain().unwrap();
        assert!(!report.ok);
        assert!(report.tables.is_empty());
        assert!(report.total_bytes.csv.is_none());
    }

    #[test]
    fn bad_override_is_reported() {
        assert!(Pdgf::from_schema(schema())
            .set_property("SF", "not an expr !!")
            .build()
            .is_err());
    }
}
