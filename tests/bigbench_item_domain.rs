//! BigBench pinned at the item domain its benchmark draws from.
//!
//! `tests/fingerprints.rs` pins BigBench at SF 0.1 and SF 1, where the
//! `item` table holds 100 and 1,000 rows. The benchmark's BigBench runs at
//! SF 15, so its three Zipf item references (`ss_item`, `ws_item`,
//! `pr_item`, θ 0.6 and 0.7) draw from 15,000 ranks. These pins hold the
//! FNV-1a-64 hash of the first 20,000 rows of each table that carries one,
//! as JSON. A changed hash means a changed byte; it is never re-pinned to
//! make a refactor pass.

use dbsynth_suite::pdgf::OutputFormat;
use pdgf_output::MemorySink;
use pdgf_runtime::{generate_table_range, RunConfig};

/// FNV-1a-64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn bigbench_sf15_zipf_tables_are_pinned() {
    let project = dbsynth_suite::workloads::bigbench::project(15.0)
        .build()
        .expect("bigbench builds");
    let rt = project.runtime();
    let (_, item) = rt.table_by_name("item").expect("item");
    assert_eq!(item.size, 15_000, "the benchmark's item domain");
    let mut wrong = Vec::new();
    for (name, want) in [
        ("store_sales", 0xf78d_3cf9_e293_2861u64),
        ("web_sales", 0xa4ab_7188_4253_a3bb),
        ("product_reviews", 0xc344_2fd7_f588_b8cd),
    ] {
        let (table, _) = rt.table_by_name(name).expect("table exists");
        let mut sink = MemorySink::new();
        generate_table_range(
            rt,
            table,
            0,
            0..20_000,
            OutputFormat::Json.formatter().as_ref(),
            &mut sink,
            &RunConfig::new().workers(0),
            None,
        )
        .expect("generate");
        let got = fnv1a(&sink.into_inner());
        if got != want {
            wrong.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
