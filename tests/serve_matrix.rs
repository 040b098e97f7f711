//! Point-lookup determinism matrix for the on-the-fly row service.
//!
//! The serve path never reads files: every answer is recomputed from the
//! seeding hierarchy. These tests pin the contract for *every shipped
//! generator kind* (via the shared generator zoo) and all four output
//! formats:
//!
//! * tiling a table with point lookups, plus the format's `begin`/`end`
//!   framing, is byte-equal to a full `pdgf generate`-style batch file,
//!   which in turn is byte-equal to the row oracle's;
//! * the public `PdgfProject::row` values, rendered through the same
//!   formatter, are byte-equal to the service's point-lookup response;
//! * both hold off update epoch 0.

mod zoo;

use std::sync::Arc;

use pdgf::{OutputFormat, Pdgf};
use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::{Formatter, MemorySink};
use pdgf_runtime::{generate_table_range, table_meta, RowService, RunConfig, ServeConfig};
use zoo::{generator_zoo, oracle_bytes};

fn runtime() -> Arc<SchemaRuntime> {
    Arc::new(SchemaRuntime::build(&generator_zoo(), &MapResolver::new()).expect("zoo builds"))
}

/// Reference bytes: the whole table as one generated file, checked
/// against the row oracle before anything is compared with it.
fn whole_file(rt: &SchemaRuntime, table: u32, update: u32, formatter: &dyn Formatter) -> Vec<u8> {
    let rows = 0..rt.tables()[table as usize].size;
    let mut sink = MemorySink::new();
    generate_table_range(
        rt,
        table,
        update,
        rows.clone(),
        formatter,
        &mut sink,
        &RunConfig::new().workers(0).package_rows(61),
        None,
    )
    .expect("batch generation");
    let whole = sink.into_inner();
    assert_eq!(
        whole,
        oracle_bytes(rt, table, update, rows, formatter),
        "table={table} update={update} format={}: batch file != row oracle",
        formatter.name()
    );
    whole
}

/// Every generator kind × all four formats: point lookups tile the exact
/// batch file (body rows are unframed fragments; the format's
/// `begin`/`end` bytes are added once around them).
#[test]
fn point_lookups_tile_whole_files_for_every_generator_kind() {
    let rt = runtime();
    let service = RowService::new(
        Arc::clone(&rt),
        ServeConfig::new().workers(2).package_rows(19),
        None,
    );
    for format in OutputFormat::all() {
        let formatter: Arc<dyn Formatter> = Arc::from(format.formatter());
        for table in 0..rt.tables().len() as u32 {
            let meta = table_meta(&rt, table);
            let whole = whole_file(&rt, table, 0, formatter.as_ref());
            let mut tiled = Vec::new();
            formatter.begin(&mut tiled, &meta);
            for row in 0..rt.tables()[table as usize].size {
                tiled.extend_from_slice(
                    &service
                        .row_bytes(table, 0, row, Arc::clone(&formatter))
                        .expect("point lookup"),
                );
            }
            formatter.end(&mut tiled, &meta);
            assert_eq!(
                tiled,
                whole,
                "table={table} format={}: tiled lookups != batch file",
                formatter.name()
            );
        }
    }
}

/// The public API point lookup (`PdgfProject::row`) and the service
/// point lookup are two routes to the same cells; rendered through the
/// same formatter they must agree byte-for-byte — including for repeated
/// calls (nothing is cached, nothing drifts).
#[test]
fn api_row_values_agree_with_serve_bytes() {
    let project = Pdgf::from_schema(generator_zoo()).build().expect("builds");
    let rt = runtime();
    let service = RowService::new(Arc::clone(&rt), ServeConfig::new().workers(1), None);
    let table = service.table_index("kitchen").expect("kitchen exists");
    let meta = table_meta(&rt, table);
    for format in OutputFormat::all() {
        let formatter: Arc<dyn Formatter> = Arc::from(format.formatter());
        for row in [0u64, 1, 128, 256] {
            let values = project.row("kitchen", 0, row).expect("in bounds");
            let mut from_api = Vec::new();
            formatter.row(&mut from_api, &meta, &values);
            let from_serve = service
                .row_bytes(table, 0, row, Arc::clone(&formatter))
                .expect("point lookup");
            assert_eq!(
                from_api,
                from_serve,
                "row={row} format={}: API values != serve bytes",
                formatter.name()
            );
            let again = service
                .row_bytes(table, 0, row, Arc::clone(&formatter))
                .expect("point lookup");
            assert_eq!(from_serve, again, "repeated lookup drifted");
        }
    }
    assert!(project.row("kitchen", 0, 257).is_err(), "row out of bounds");
    assert!(project.row("nope", 0, 0).is_err(), "unknown table");
}

/// Off epoch 0: point lookups at a later update epoch tile that epoch's
/// batch file (CSV has no framing, so the tiles are the whole file).
#[test]
fn update_epoch_lookups_tile_that_epochs_file() {
    let rt = runtime();
    let csv: Arc<dyn Formatter> = Arc::from(OutputFormat::Csv.formatter());
    let service = RowService::new(
        Arc::clone(&rt),
        ServeConfig::new().workers(2).package_rows(19),
        None,
    );
    for update in [1u32, 3] {
        let whole = whole_file(&rt, 1, update, csv.as_ref());
        let mut tiled = Vec::new();
        for row in 0..rt.tables()[1].size {
            tiled.extend_from_slice(
                &service
                    .row_bytes(1, update, row, Arc::clone(&csv))
                    .expect("point lookup"),
            );
        }
        assert_eq!(tiled, whole, "update={update}");
    }
}
