//! The SQL output format executes in the system's own database: every
//! INSERT that `--format sql` writes for TPC-H loads into minidb tables
//! created from the model, and the result equals a bulk load of the same
//! rows.

use dbsynth_suite::dbsynth::load_generated;
use dbsynth_suite::dbsynth::translate::create_target_tables;
use dbsynth_suite::minidb::{sql, Database};
use dbsynth_suite::pdgf::OutputFormat;
use dbsynth_suite::workloads::tpch;

#[test]
fn tpch_sql_output_replays_into_minidb() {
    let schema = tpch::schema(12_456_789);
    let project = tpch::project(0.001).workers(0).build().expect("builds");

    let mut loaded = Database::new();
    load_generated(&mut loaded, &schema, project.runtime()).expect("bulk load");

    let mut replayed = Database::new();
    create_target_tables(&mut replayed, &schema).expect("tables create");
    for table in &schema.tables {
        let sql_text = project
            .table_to_string(&table.name, OutputFormat::Sql)
            .expect("generates");
        for (i, line) in sql_text.lines().enumerate() {
            if let Err(e) = sql::execute(&mut replayed, line) {
                panic!("{} line {}: {e}\n{line}", table.name, i + 1);
            }
        }
        let want = loaded.table(&table.name).expect("loaded").rows();
        let got = replayed.table(&table.name).expect("replayed").rows();
        assert_eq!(got.len(), want.len(), "{}: row count", table.name);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "{} row {i}", table.name);
        }
    }
}
