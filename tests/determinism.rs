//! Cross-crate determinism guarantees — the property the whole paper
//! rests on: generated data is a pure function of the model and its seed,
//! independent of any execution detail.

use std::collections::BTreeMap;

use dbsynth_suite::pdgf::{OutputFormat, Pdgf};
use dbsynth_suite::workloads::tpch;
use pdgf_output::{CsvFormatter, MemorySinkFactory};
use pdgf_runtime::{GenerationRun, RunConfig};

fn tpch_csv(workers: usize, package_rows: u64, table: &str) -> String {
    tpch::project(0.0005)
        .workers(workers)
        .package_rows(package_rows)
        .build()
        .expect("tpch builds")
        .table_to_string(table, OutputFormat::Csv)
        .expect("render")
}

#[test]
fn output_is_independent_of_worker_count_and_package_size() {
    let reference = tpch_csv(0, 1_000, "orders");
    for (workers, pkg) in [(1, 37), (2, 500), (4, 10_000), (3, 1)] {
        assert_eq!(
            tpch_csv(workers, pkg, "orders"),
            reference,
            "workers={workers} pkg={pkg}"
        );
    }
}

#[test]
fn node_sharding_is_transparent() {
    // The union of N node shards equals the 1-node output, byte for byte,
    // for several N — the meta-scheduler contract.
    let project = tpch::project(0.0005).build().expect("tpch builds");
    let rt = project.runtime();

    // Per-table byte streams: node shards of each table concatenate in
    // node order.
    let collect = |nodes: usize| -> BTreeMap<String, Vec<u8>> {
        let mut tables = BTreeMap::<String, Vec<u8>>::new();
        for node in 0..nodes {
            let factory = MemorySinkFactory::new();
            GenerationRun::new(rt, RunConfig::new().workers(2).package_rows(97))
                .shard(node, nodes)
                .run(&CsvFormatter::new(), factory.clone())
                .expect("shard run");
            for (table, bytes) in factory.outputs() {
                tables.entry(table).or_default().extend(bytes);
            }
        }
        tables
    };

    let single = collect(1);
    for nodes in [2usize, 3, 5] {
        assert_eq!(collect(nodes), single, "nodes={nodes}");
    }
}

#[test]
fn seed_change_modifies_every_random_value() {
    // "changing the seed will modify every value of the generated data
    // set" — check a data-bearing column end to end.
    let a = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", "0.0005")
        .build()
        .expect("build a");
    let b = Pdgf::from_schema(tpch::schema(99))
        .resolver(tpch::resolver())
        .set_property("SF", "0.0005")
        .build()
        .expect("build b");
    let (o_idx, orders) = a.runtime().table_by_name("orders").expect("orders");
    let total_col = 3; // o_totalprice
    let diffs = (0..orders.size)
        .filter(|&r| {
            a.runtime().value(o_idx, total_col, 0, r) != b.runtime().value(o_idx, total_col, 0, r)
        })
        .count();
    assert!(
        diffs as u64 > orders.size * 99 / 100,
        "only {diffs}/{} values changed",
        orders.size
    );
}

#[test]
fn xml_roundtrip_preserves_generated_bytes() {
    let direct = tpch::project(0.0002)
        .workers(0)
        .build()
        .expect("direct build");
    let xml = dbsynth_suite::pdgf::schema::config::to_xml_string(direct.schema());
    let via_xml = Pdgf::from_xml_str(&xml)
        .expect("parse own XML")
        .resolver(tpch::resolver())
        .workers(0)
        .build()
        .expect("build from XML");
    for table in ["customer", "orders", "lineitem"] {
        assert_eq!(
            direct
                .table_to_string(table, OutputFormat::Csv)
                .expect("render"),
            via_xml
                .table_to_string(table, OutputFormat::Csv)
                .expect("render"),
            "{table}"
        );
    }
}

#[test]
fn formats_carry_identical_data() {
    // The same cells must appear in every output format: compare the CSV
    // and JSON renderings of the first rows field by field.
    let project = tpch::project(0.0002).workers(0).build().expect("build");
    let csv = project
        .table_to_string("customer", OutputFormat::Csv)
        .expect("csv");
    let json = project
        .table_to_string("customer", OutputFormat::Json)
        .expect("json");
    let first_csv = csv.lines().next().expect("has rows");
    let first_json = json.lines().next().expect("has rows");
    // The customer key and name must appear verbatim in both.
    let key = first_csv.split(',').next().expect("key field");
    assert!(first_json.contains(&format!("\"c_custkey\":{key}")));
    let sql = project
        .table_to_string("customer", OutputFormat::Sql)
        .expect("sql");
    assert!(sql
        .lines()
        .next()
        .expect("has rows")
        .contains(&format!("VALUES ({key}")));
}
