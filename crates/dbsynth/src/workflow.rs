//! End-to-end workflows: model persistence, generation, and target load.
//!
//! DBSynth "integrates workflows, such as data generation, data
//! extraction, etc." (Section 3). This module supplies the glue: saving
//! an extracted model as the XML + dictionary + Markov files PDGF
//! consumes, loading such a directory back, and driving generation
//! straight into a target [`Database`].

use std::io;
use std::path::Path;
use std::time::Duration;

use minidb::{Database, DbError};
use pdgf::{Pdgf, PdgfError};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_schema::Schema;

use crate::extract::ExtractedModel;
use crate::translate::create_target_tables;

/// Outcome of a synthesis run (generate + load).
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// Rows loaded per table, in model order.
    pub rows_loaded: Vec<(String, u64)>,
    /// Wall time for generation + load.
    pub elapsed: Duration,
}

impl SynthesisReport {
    /// Total rows across tables.
    pub fn total_rows(&self) -> u64 {
        self.rows_loaded.iter().map(|(_, n)| n).sum()
    }
}

/// Write a model directory: `model.xml` plus `dicts/*.dict` and
/// `markov/*_markovSamples.bin` resources (Listing 1's file layout).
pub fn save_model_dir(model: &ExtractedModel, dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("model.xml"),
        pdgf_schema::config::to_xml_string(&model.schema),
    )?;
    for (path, dict) in &model.dictionaries {
        let full = dir.join(path);
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(full, dict.to_file_format())?;
    }
    for (path, markov) in &model.markov_models {
        let full = dir.join(path);
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(full, markov.to_bytes())?;
    }
    Ok(())
}

/// Load a model directory saved by [`save_model_dir`] into a configured
/// [`Pdgf`] builder (resources resolve relative to the directory).
pub fn load_model_dir(dir: impl AsRef<Path>) -> Result<Pdgf, PdgfError> {
    Pdgf::from_xml_file(dir.as_ref().join("model.xml"))
}

/// Build a [`Pdgf`] directly from an in-memory extracted model (no
/// filesystem round trip): resources are served from memory.
pub fn pdgf_from_model(model: &ExtractedModel) -> Pdgf {
    let mut resolver = MapResolver::new();
    for (path, dict) in &model.dictionaries {
        resolver = resolver.with_dictionary(path, dict.clone());
    }
    for (path, markov) in &model.markov_models {
        resolver = resolver.with_markov(path, markov.clone());
    }
    Pdgf::from_schema(model.schema.clone()).resolver(resolver)
}

/// Rows per bulk load: each table is generated and loaded in ranges of
/// this many rows, so a load holds one range of owned rows at a time.
const LOAD_CHUNK: u64 = 8_192;

/// Create `schema`'s tables in `target`, then bulk-load every table of
/// `rt` (compiled from `schema`) at update 0, one [`SchemaRuntime::rows`]
/// range of 8,192 rows (`LOAD_CHUNK`) at a time. Returns the rows loaded per
/// table, in model order.
pub fn load_generated(
    target: &mut Database,
    schema: &Schema,
    rt: &SchemaRuntime,
) -> Result<Vec<(String, u64)>, DbError> {
    create_target_tables(target, schema)?;
    let mut loaded = Vec::with_capacity(rt.tables().len());
    for (t_idx, table) in rt.tables().iter().enumerate() {
        for start in (0..table.size).step_by(LOAD_CHUNK as usize) {
            let end = table.size.min(start + LOAD_CHUNK);
            target.bulk_load(&table.name, rt.rows(t_idx as u32, 0, start..end))?;
        }
        loaded.push((table.name.clone(), table.size));
    }
    Ok(loaded)
}

/// Generate the model's data at `scale` and load it into `target`:
/// the full "schema translator → PDGF → JDBC → target database" path of
/// Figure 3, using minidb's bulk-load interface.
#[allow(clippy::disallowed_types, reason = "reports its own duration")]
pub fn generate_into(
    target: &mut Database,
    model: &ExtractedModel,
    scale: f64,
) -> Result<SynthesisReport, DbError> {
    let started = std::time::Instant::now();
    let project = pdgf_from_model(model)
        .set_property("SF", &format!("{scale}"))
        .build()
        .map_err(|e| DbError::Sql(e.to_string()))?;
    let rows_loaded = load_generated(target, &model.schema, project.runtime())?;
    Ok(SynthesisReport {
        rows_loaded,
        elapsed: started.elapsed(),
    })
}

/// Export a database as a directory: `schema.sql` (CREATE TABLE
/// statements) plus one `<table>.csv` per table — the flat-file exchange
/// format the CLI uses in place of a JDBC connection string.
pub fn save_database_dir(db: &Database, dir: impl AsRef<Path>) -> Result<(), DbError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut ddl = String::new();
    for name in db.table_names() {
        ddl.push_str(&db.table(name)?.def().to_ddl());
        ddl.push('\n');
    }
    std::fs::write(dir.join("schema.sql"), ddl)?;
    for name in db.table_names() {
        std::fs::write(dir.join(format!("{name}.csv")), db.export_csv(name)?)?;
    }
    Ok(())
}

/// Load a database from a directory written by [`save_database_dir`]:
/// execute `schema.sql`, then bulk-load each table's CSV (missing CSVs
/// leave the table empty).
pub fn load_database_dir(dir: impl AsRef<Path>) -> Result<Database, DbError> {
    let dir = dir.as_ref();
    let ddl = std::fs::read_to_string(dir.join("schema.sql"))?;
    let mut db = Database::new();
    for stmt in split_sql_statements(&ddl) {
        minidb::sql::execute(&mut db, &stmt)?;
    }
    let names: Vec<String> = db.table_names().into_iter().map(str::to_string).collect();
    for name in names {
        let path = dir.join(format!("{name}.csv"));
        if path.exists() {
            let csv = std::fs::read_to_string(&path)?;
            db.load_csv_str(&name, &csv)?;
        }
    }
    Ok(db)
}

/// Split a SQL script on statement-terminating semicolons (quote-aware).
fn split_sql_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    for c in script.chars() {
        match c {
            '\'' => {
                in_quote = !in_quote;
                current.push(c);
            }
            ';' if !in_quote => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{ExtractionOptions, Extractor};
    use minidb::{ColumnDef, TableDef};
    use pdgf_schema::{SqlType, Value};

    fn source_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableDef::new("person")
                .column(ColumnDef::new("p_id", SqlType::BigInt).primary_key())
                .column(ColumnDef::new("p_city", SqlType::Varchar(20)).not_null())
                .column(ColumnDef::new("p_bio", SqlType::Varchar(80))),
        )
        .unwrap();
        let cities = ["Lyon", "Oslo"];
        let bios = [
            "writes careful code every day",
            "sails quickly across the lake",
            "writes code across the lake",
        ];
        for i in 0..50i64 {
            db.insert(
                "person",
                vec![
                    Value::Long(i + 1),
                    Value::text(cities[(i % 2) as usize]),
                    Value::text(bios[(i % 3) as usize]),
                ],
            )
            .unwrap();
        }
        db
    }

    fn extracted() -> ExtractedModel {
        let db = source_db();
        let opts = ExtractionOptions {
            sampling: Some(crate::extract::SamplingOptions {
                strategy: minidb::SampleStrategy::Full,
                dict_max_distinct: 2,
            }),
            ..ExtractionOptions::default()
        };
        Extractor::new(&db, opts).extract("persons").unwrap()
    }

    #[test]
    fn generate_into_loads_scaled_rows() {
        let model = extracted();
        let mut target = Database::new();
        let report = generate_into(&mut target, &model, 2.0).unwrap();
        assert_eq!(report.total_rows(), 100);
        let t = target.table("person").unwrap();
        assert_eq!(t.row_count(), 100);
        // IDs are dense 1..=100.
        let ids: std::collections::HashSet<i64> =
            t.column(0).map(|v| v.as_i64().unwrap()).collect();
        assert_eq!(ids.len(), 100);
        assert!(ids.contains(&1) && ids.contains(&100));
        // Cities come from the learned dictionary.
        for v in t.column(1) {
            assert!(matches!(v.as_text(), Some("Lyon" | "Oslo")));
        }
    }

    #[test]
    fn model_dir_roundtrip_generates_identically() {
        let model = extracted();
        let dir = std::env::temp_dir().join(format!("dbsynth-wf-{}", std::process::id()));
        save_model_dir(&model, &dir).unwrap();
        assert!(dir.join("model.xml").exists());

        let from_disk = load_model_dir(&dir).unwrap().workers(0).build().unwrap();
        let from_memory = pdgf_from_model(&model).workers(0).build().unwrap();
        let a = from_disk
            .table_to_string("person", pdgf::OutputFormat::Csv)
            .unwrap();
        let b = from_memory
            .table_to_string("person", pdgf::OutputFormat::Csv)
            .unwrap();
        assert_eq!(a, b, "disk and memory models must generate identical data");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn database_dir_roundtrip() {
        let db = source_db();
        let dir = std::env::temp_dir().join(format!("dbdir-{}", std::process::id()));
        save_database_dir(&db, &dir).unwrap();
        assert!(dir.join("schema.sql").exists());
        assert!(dir.join("person.csv").exists());
        let back = load_database_dir(&dir).unwrap();
        assert_eq!(back.table_names(), db.table_names());
        assert_eq!(
            back.table("person").unwrap().rows(),
            db.table("person").unwrap().rows()
        );
        assert_eq!(
            back.table("person").unwrap().def(),
            db.table("person").unwrap().def(),
            "constraints survive the DDL roundtrip"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sql_splitting_respects_quotes() {
        let stmts = split_sql_statements(
            "CREATE TABLE a (x VARCHAR(10));\nINSERT INTO a VALUES ('semi;colon');\n",
        );
        assert_eq!(stmts.len(), 2);
        assert!(stmts[1].contains("semi;colon"));
        assert!(split_sql_statements("  ;; ;").is_empty());
    }

    #[test]
    fn bulk_loaded_rows_respect_constraints() {
        let model = extracted();
        let mut target = Database::new();
        generate_into(&mut target, &model, 1.0).unwrap();
        // Re-running against the same target fails on duplicate tables.
        assert!(generate_into(&mut target, &model, 1.0).is_err());
    }
}
