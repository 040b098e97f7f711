//! Cross-crate test of the multi-model data plane: one server hosting
//! TPC-H and SSB in one [`ModelRegistry`], fetched whole over both the
//! TCP frame protocol and the HTTP/1.1 front end, with
//! `max_request_rows` set far below the table sizes so every fetch is a
//! chained sequence of clamped cursor tiles. The chained bytes must be
//! byte-equal to `pdgf generate` output — itself checked against the row
//! oracle — for all four formats: the determinism contract extended
//! across models, protocols, and the cursor tiling.

mod zoo;

use pdgf::runtime::ServeConfig;
use pdgf::{
    FetchRequest, ModelRegistry, OutputFormat, PdgfProject, ServeClient, Server, ServerOptions,
};
use workloads::{ssb, tpch};
use zoo::oracle_bytes;

const SF: f64 = 0.02;
const TPCH_TABLE: &str = "supplier";
const SSB_TABLE: &str = "customer";

/// `table` of `project` as `pdgf generate` writes it, checked against
/// the row oracle before anything is compared with it.
fn generated(project: &PdgfProject, table: &str, format: OutputFormat) -> Vec<u8> {
    let whole = project.table_to_string(table, format).unwrap().into_bytes();
    let (index, t) = project.runtime().table_by_name(table).expect("table");
    let oracle = oracle_bytes(
        project.runtime(),
        index,
        0,
        0..t.size,
        format.formatter().as_ref(),
    );
    assert_eq!(
        whole,
        oracle,
        "{table} {}: generate != row oracle",
        format.extension()
    );
    whole
}

/// Reference bytes per (model, table, format) from the batch path, plus
/// the table sizes, computed from freshly built projects.
#[allow(clippy::type_complexity)]
fn references() -> (
    Vec<(&'static str, &'static str, OutputFormat, Vec<u8>)>,
    ModelRegistry,
    u64,
    u64,
) {
    let tpch_project = tpch::project(SF).build().unwrap();
    let ssb_project = ssb::project(SF).build().unwrap();
    let size_of = |project: &PdgfProject, table| {
        project
            .runtime()
            .table_by_name(table)
            .expect("table")
            .1
            .size
    };
    let tpch_rows = size_of(&tpch_project, TPCH_TABLE);
    let ssb_rows = size_of(&ssb_project, SSB_TABLE);
    let mut refs = Vec::new();
    for format in OutputFormat::all() {
        let tpch_bytes = generated(&tpch_project, TPCH_TABLE, format);
        refs.push(("tpch", TPCH_TABLE, format, tpch_bytes));
        let ssb_bytes = generated(&ssb_project, SSB_TABLE, format);
        refs.push(("ssb", SSB_TABLE, format, ssb_bytes));
    }
    let registry = ModelRegistry::new()
        .register("tpch", tpch_project)
        .unwrap()
        .register("ssb", ssb_project)
        .unwrap();
    (refs, registry, tpch_rows, ssb_rows)
}

#[test]
fn two_model_registry_cursor_chains_tile_byte_equal_to_the_row_oracle() {
    let (refs, registry, tpch_rows, ssb_rows) = references();
    // The cap forces every whole-table fetch through several cursor
    // hops (sizes are in the hundreds at this scale factor).
    assert!(tpch_rows > 97 && ssb_rows > 97, "tables big enough to tile");
    let options = ServerOptions::builder()
        .config(
            ServeConfig::new()
                .workers(2)
                .package_rows(64)
                .window(3)
                .max_request_rows(97),
        )
        .build()
        .unwrap();
    let server = Server::bind_registry(registry, "127.0.0.1:0", options, None)
        .unwrap()
        .with_http("127.0.0.1:0")
        .unwrap();
    let handle = server.spawn().unwrap();

    let mut tcp = ServeClient::connect(handle.addr()).unwrap();
    let mut http = ServeClient::connect_http(handle.http_addr().unwrap()).unwrap();
    for (model, table, format, whole) in &refs {
        let rows = if *model == "tpch" {
            tpch_rows
        } else {
            ssb_rows
        };
        let req = FetchRequest::range(table, 0, rows)
            .format(*format)
            .model(model);
        let over_tcp = tcp.fetch(req.clone()).unwrap();
        let over_http = http.fetch(req).unwrap();
        assert_eq!(
            &over_tcp,
            whole,
            "tcp {model}.{table} {}: chained tiles != generate",
            format.extension()
        );
        assert_eq!(
            over_http,
            over_tcp,
            "http {model}.{table} {}: transports disagree",
            format.extension()
        );
    }

    // The registry keeps per-model books: both slots saw requests,
    // and the model-addressed INFO endpoints resolve by name.
    let tpch_stats = handle.stats_of(0).expect("slot 0 exists");
    let ssb_stats = handle.stats_of(1).expect("slot 1 exists");
    assert!(tpch_stats.completed > 0, "tpch slot served requests");
    assert!(ssb_stats.completed > 0, "ssb slot served requests");
    assert_eq!(
        handle.stats().completed,
        tpch_stats.completed + ssb_stats.completed,
        "global counters are the sum of the per-model ones"
    );
    assert!(tcp.info_of("ssb").unwrap().contains(SSB_TABLE));
    assert!(http.info_of("tpch").unwrap().contains(TPCH_TABLE));
    handle.stop();
}
