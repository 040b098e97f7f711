//! Every workload and metric name the binary can emit, with its unit.
//! `BENCHMARK.json` declares the same names; `tests/declared.rs` keeps
//! the two lists equal, and [`Metrics::finish`] refuses to print a run
//! that measured a different set.

use std::collections::BTreeMap;

use crate::json::Json;

/// `run_seconds` of `BENCHMARK.json`: how long a run measures when
/// `--seconds` is not given.
pub const RUN_SECONDS: f64 = 12.0;

/// The six workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All TPC-H tables as CSV into null sinks, in process.
    TpchCsvNull,
    /// The `pdgf generate` subprocess writing TPC-H CSV files.
    TpchCsvFile,
    /// All BigBench tables as JSON into null sinks, in process.
    BigbenchJsonNull,
    /// 16,384-row CSV ranges of `lineitem` over one HTTP connection.
    ServeRangeHttp,
    /// 128-row single-package tiles over TCP-protocol connections.
    ServeTileTcp,
    /// Single-row lookups over one HTTP connection.
    ServePointHttp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 6] = [
        Workload::TpchCsvNull,
        Workload::TpchCsvFile,
        Workload::BigbenchJsonNull,
        Workload::ServeRangeHttp,
        Workload::ServeTileTcp,
        Workload::ServePointHttp,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchCsvNull => "tpch_csv_null",
            Workload::TpchCsvFile => "tpch_csv_file",
            Workload::BigbenchJsonNull => "bigbench_json_null",
            Workload::ServeRangeHttp => "serve_range_http",
            Workload::ServeTileTcp => "serve_tile_tcp",
            Workload::ServePointHttp => "serve_point_http",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload talks to a `pdgf serve` subprocess.
    pub fn is_serve(self) -> bool {
        matches!(
            self,
            Workload::ServeRangeHttp | Workload::ServeTileTcp | Workload::ServePointHttp
        )
    }
}

/// End-to-end metrics `(name, unit)`: what a user of the system sees.
/// Every workload reports every one of them; an operation is one complete
/// data set for the batch workloads and one request for the serve ones.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mb_per_s", "MB/s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
];

/// The five tables whose fill and format rungs are reported one by one:
/// the three heaviest TPC-H tables and BigBench's fact and text tables.
pub const RUNG_TABLES: [&str; 5] = [
    "lineitem",
    "orders",
    "partsupp",
    "store_sales",
    "product_reviews",
];

/// Per-layer metrics `(name, unit)`, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // pdgf-prng
    ("prng.draw_ns", "ns"),
    ("prng.seed_ns", "ns"),
    ("prng.zipf_ns", "ns"),
    ("prng.permute_ns", "ns"),
    // textsynth
    ("textsynth.markov_word_ns", "ns"),
    // pdgf-gen
    ("gen.fill_row_ns.lineitem", "ns"),
    ("gen.fill_row_ns.orders", "ns"),
    ("gen.fill_row_ns.partsupp", "ns"),
    ("gen.fill_row_ns.store_sales", "ns"),
    ("gen.fill_row_ns.product_reviews", "ns"),
    ("gen.fill_value_ns", "ns"),
    ("gen.point_row_ns", "ns"),
    ("gen.build_ms", "ms"),
    // pdgf-schema
    ("schema.xml_parse_ms", "ms"),
    ("schema.analyze_ms", "ms"),
    // pdgf-output
    ("fmt.csv_row_ns.lineitem", "ns"),
    ("fmt.csv_row_ns.orders", "ns"),
    ("fmt.csv_row_ns.partsupp", "ns"),
    ("fmt.csv_row_ns.store_sales", "ns"),
    ("fmt.csv_row_ns.product_reviews", "ns"),
    ("fmt.json_row_ns.lineitem", "ns"),
    ("fmt.json_row_ns.orders", "ns"),
    ("fmt.json_row_ns.partsupp", "ns"),
    ("fmt.json_row_ns.store_sales", "ns"),
    ("fmt.json_row_ns.product_reviews", "ns"),
    ("fmt.csv_byte_ns", "ns"),
    ("fmt.json_byte_ns", "ns"),
    ("fmtfast.i64_ns", "ns"),
    ("fmtfast.decimal_ns", "ns"),
    ("fmtfast.date_ns", "ns"),
    ("fmtfast.f64_ns", "ns"),
    ("reorder.push_pop_ns", "ns"),
    ("pool.take_put_ns", "ns"),
    ("sink.file_mb_per_s", "MB/s"),
    ("sink.null_write_ns", "ns"),
    // pdgf-runtime, scheduler
    ("sched.inline_row_ns", "ns"),
    ("sched.w1_row_ns", "ns"),
    ("sched.wN_row_ns", "ns"),
    ("sched.overhead_pct", "%"),
    ("sched.scaling_eff", "ratio"),
    ("sched.utilization", "ratio"),
    // pdgf-runtime, serve core
    ("rowservice.range_ms", "ms"),
    ("rowservice.tile_ms", "ms"),
    ("rowservice.first_package_ms", "ms"),
    ("rowservice.point_us", "us"),
    // pdgf front ends and CLI
    ("http.range_overhead_ms", "ms"),
    ("http.point_overhead_us", "us"),
    ("tcp.tile_overhead_ms", "ms"),
    ("http.ttfb_ms", "ms"),
    ("http.range_mb_per_s", "MB/s"),
    ("tcp.stall_share", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.peak_rss_mb", "MB"),
    ("serve.stats_completed", "count"),
    ("serve.stats_aborted", "count"),
    ("cli.peak_rss_mb", "MB"),
    ("cli.startup_ms", "ms"),
    // reconciliation
    ("ladder.sum_row_ns", "ns"),
    ("ladder.unexplained_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("failed_share", "ratio"),
];

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `name`. Setting a name twice is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} measured twice"
        );
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} read before it was measured"))
    }

    /// The `metrics` object of a result line: exactly the names of
    /// `declared`, in its order, each with its unit.
    ///
    /// # Panics
    ///
    /// Panics if the run measured a different set of names — a run may
    /// not silently drop or invent a metric.
    pub fn finish(&self, declared: &[(&'static str, &'static str)]) -> Json {
        for name in self.0.keys() {
            assert!(
                declared.iter().any(|(d, _)| d == name),
                "metric {name} is not declared"
            );
        }
        Json::obj(declared.iter().map(|&(name, unit)| {
            let value = Json::Num(self.get(name));
            (
                name,
                Json::obj([("value", value), ("unit", Json::str(unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for table in RUNG_TABLES {
            for prefix in ["gen.fill_row_ns", "fmt.csv_row_ns", "fmt.json_row_ns"] {
                let name = format!("{prefix}.{table}");
                assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name} missing");
            }
        }
    }

    #[test]
    fn finish_prints_declared_names_in_order() {
        let mut m = Metrics::new();
        m.set("mb_per_s", 2.5);
        m.set("setup_s", 0.25);
        let j = m.finish(&[("setup_s", "s"), ("mb_per_s", "MB/s")]);
        assert_eq!(
            j.to_line(),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"mb_per_s\": {\"value\": 2.5, \"unit\": \"MB/s\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn finish_rejects_an_undeclared_metric() {
        let mut m = Metrics::new();
        m.set("setup_s", 1.0);
        m.set("qps", 1.0);
        m.finish(&[("setup_s", "s")]);
    }
}
