//! Whole-project generation runs.
//!
//! The [`GenerationRun`] is the controller of Figure 2: it hands every
//! table of a compiled schema to the project-wide scheduler as one job
//! list — a single worker pool generates all tables, overlapping them in
//! time — and collects a [`RunReport`] with the statistics the paper's
//! evaluation plots (bytes, rows, wall time, MB/s) plus, when a
//! [`Telemetry`] is attached, worker utilization and p50/p95/p99 phase
//! latencies.
//!
//! The paper's meta-scheduler is a setting of the same run, not a second
//! driver: in a shared-nothing deployment every node runs the same model
//! with a `(node, nodes)` pair ([`GenerationRun::shard`]) and writes its
//! own contiguous row range of every table. Determinism makes the union
//! of the shards the one-node data set, with no communication.

use std::io;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{Formatter, Sink, SinkFactory};

use crate::package::{node_shard, Framing, TableJob};
use crate::scheduler::{run_project, RunConfig};
use crate::telemetry::{mb_per_s, now_ns, seconds_since, MetricsSnapshot, Telemetry};

/// Statistics for one generated table.
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table name.
    pub table: String,
    /// Rows generated.
    pub rows: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Seconds from run start until this table's output was complete.
    /// Tables share one worker pool and overlap in time, so these do not
    /// sum to the run's wall time.
    pub seconds: f64,
}

/// Statistics for a full project run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-table statistics, in schema order.
    pub tables: Vec<TableReport>,
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Phase latencies, utilization and queue-depth statistics — present
    /// when the run had a [`Telemetry`] attached, `None` otherwise.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Total rows across tables.
    pub fn total_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Total bytes across tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.bytes).sum()
    }

    /// Aggregate throughput in MB/s.
    pub fn throughput_mb_s(&self) -> f64 {
        mb_per_s(self.total_bytes(), self.seconds)
    }
}

/// Drives generation of all tables of one compiled schema through one
/// persistent worker pool.
pub struct GenerationRun<'rt> {
    rt: &'rt SchemaRuntime,
    config: RunConfig,
    telemetry: Option<Telemetry>,
    node: usize,
    nodes: usize,
}

impl<'rt> GenerationRun<'rt> {
    /// Run over `rt` with the given scheduler configuration: the whole
    /// project, node 0 of 1.
    pub fn new(rt: &'rt SchemaRuntime, config: RunConfig) -> Self {
        Self {
            rt,
            config,
            telemetry: None,
            node: 0,
            nodes: 1,
        }
    }

    /// Generate only node `node`'s shard of `nodes`: every table's
    /// [`node_shard`] rows. Framing follows node position — node 0 owns
    /// every table's `begin` bytes, the last node every `end` — so the
    /// shard outputs of one table, concatenated in node order, are the
    /// single-node bytes even for a framed format (XML), and a shard
    /// that owns no rows still gets its (empty) sink.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0 or `node >= nodes`.
    pub fn shard(mut self, node: usize, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(node < nodes, "node {node} out of range for {nodes} nodes");
        self.node = node;
        self.nodes = nodes;
        self
    }

    /// Attach a telemetry handle: the run bumps its progress counters,
    /// publishes lifecycle/package events to its bus, feeds its phase
    /// histograms, and is covered by its stall watchdog. The resulting
    /// [`RunReport::metrics`] is populated from it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Generate every table (this run's shard of it), obtaining each
    /// table's sink from the factory. All sinks are created up front
    /// (tables generate concurrently) and finished after the run.
    ///
    /// Any `FnMut(&str) -> io::Result<Box<dyn Sink>>` closure is a
    /// [`SinkFactory`], as are the provided
    /// [`DirSinkFactory`](pdgf_output::DirSinkFactory) /
    /// [`NullSinkFactory`](pdgf_output::NullSinkFactory) /
    /// [`MemorySinkFactory`](pdgf_output::MemorySinkFactory).
    pub fn run<S: SinkFactory>(
        &self,
        formatter: &dyn Formatter,
        mut factory: S,
    ) -> io::Result<RunReport> {
        let started = now_ns();
        let tables = self.rt.tables();
        // Jobs enter the global package queue in the analyzer-derived
        // generation order (parents before children), so referenced
        // tables complete earliest. Output bytes are unaffected: every
        // cell is position-determined.
        let order: Vec<u32> = if self.rt.generation_order().len() == tables.len() {
            self.rt.generation_order().to_vec()
        } else {
            (0..tables.len() as u32).collect()
        };
        // Not `Framing::for_range`: an empty shard at row 0 (more nodes
        // than rows, or an empty table) would claim `begin` a second time.
        let framing = Framing {
            begin: self.node == 0,
            end: self.node == self.nodes - 1,
        };
        let jobs: Vec<TableJob> = order
            .iter()
            .map(|&t| TableJob {
                table: t,
                update: 0,
                rows: node_shard(tables[t as usize].size, self.node, self.nodes),
                framing,
            })
            .collect();
        // Sinks are created in schema declaration order — the order the
        // factory (and the user behind it) expects — then matched to jobs.
        let mut sinks: Vec<Box<dyn Sink>> = tables
            .iter()
            .map(|t| factory.make_sink(&t.name))
            .collect::<io::Result<_>>()?;
        let stats = {
            // job_of[t] = position of table t in the job list.
            let mut job_of = vec![0usize; order.len()];
            for (j, &t) in order.iter().enumerate() {
                job_of[t as usize] = j;
            }
            let mut by_job: Vec<(usize, &mut dyn Sink)> = sinks
                .iter_mut()
                .enumerate()
                .map(|(t, s)| (job_of[t], &mut **s as &mut dyn Sink))
                .collect();
            by_job.sort_by_key(|(j, _)| *j);
            let mut refs: Vec<&mut dyn Sink> = by_job.into_iter().map(|(_, s)| s).collect();
            run_project(
                self.rt,
                &jobs,
                formatter,
                &mut refs,
                &self.config,
                self.telemetry.as_ref(),
            )?
        };
        for sink in &mut sinks {
            sink.finish()?;
        }
        // stats[j] belongs to table order[j]; report in schema order.
        let mut per_table = vec![crate::scheduler::TableRunStats::default(); tables.len()];
        for (j, s) in stats.into_iter().enumerate() {
            per_table[order[j] as usize] = s;
        }
        let tables = tables
            .iter()
            .zip(per_table)
            .map(|(table, s)| TableReport {
                table: table.name.clone(),
                rows: s.rows,
                bytes: s.bytes,
                seconds: s.seconds,
            })
            .collect();
        Ok(RunReport {
            tables,
            seconds: seconds_since(started),
            metrics: self.telemetry.as_ref().map(|t| t.metrics()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use pdgf_gen::MapResolver;
    use pdgf_output::{CsvFormatter, MemorySinkFactory, NullSink, NullSinkFactory, XmlFormatter};
    use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};
    use std::collections::BTreeMap;

    fn runtime() -> SchemaRuntime {
        let schema = Schema::new("drv", 3)
            .table(Table::new("a", "100").field(Field::new(
                "id",
                SqlType::BigInt,
                GeneratorSpec::Id { permute: false },
            )))
            .table(Table::new("b", "200").field(Field::new(
                "v",
                SqlType::Integer,
                GeneratorSpec::Long {
                    min: Expr::parse("0").unwrap(),
                    max: Expr::parse("9").unwrap(),
                },
            )));
        SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
    }

    #[test]
    fn run_covers_all_tables() {
        let rt = runtime();
        let run = GenerationRun::new(&rt, RunConfig::new().workers(2).package_rows(32));
        let report = run.run(&CsvFormatter::new(), NullSinkFactory).unwrap();
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].table, "a");
        assert_eq!(report.total_rows(), 300);
        assert!(report.total_bytes() > 0);
        assert!(report.seconds >= 0.0);
        assert!(report.metrics.is_none(), "no telemetry attached");
        let _ = report.throughput_mb_s();
    }

    #[test]
    fn monitor_tracks_whole_run() {
        let rt = runtime();
        let telemetry = Telemetry::new();
        let run = GenerationRun::new(&rt, RunConfig::new().workers(1).package_rows(64))
            .with_telemetry(telemetry.clone());
        let report = run.run(&CsvFormatter::new(), NullSinkFactory).unwrap();
        assert_eq!(telemetry.progress().rows, report.total_rows());
        assert_eq!(telemetry.progress().bytes, report.total_bytes());
        // Progress resolves per table as well, in job order.
        let tables = telemetry.table_progress();
        assert_eq!((tables[0].table.as_str(), tables[0].rows), ("a", 100));
        assert_eq!((tables[1].table.as_str(), tables[1].rows), ("b", 200));
    }

    #[test]
    fn telemetry_populates_report_metrics() {
        let rt = runtime();
        let telemetry = Telemetry::new();
        let run = GenerationRun::new(&rt, RunConfig::new().workers(2).package_rows(16))
            .with_telemetry(telemetry.clone());
        let report = run.run(&CsvFormatter::new(), NullSinkFactory).unwrap();
        let m = report.metrics.expect("metrics with telemetry attached");
        assert!(m.generate.count > 0, "sampled generate latencies recorded");
        assert!(m.format.count > 0);
        assert!(m.write.count >= report.tables.len() as u64);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        assert_eq!(m.dropped_events, telemetry.dropped_events());
    }

    #[test]
    fn sink_factory_sees_table_names() {
        let rt = runtime();
        let run = GenerationRun::new(&rt, RunConfig::new().workers(0).package_rows(64));
        let mut names = Vec::new();
        let make = |name: &str| -> io::Result<Box<dyn Sink>> {
            names.push(name.to_string());
            Ok(Box::new(NullSink::new()))
        };
        run.run(&CsvFormatter::new(), make).unwrap();
        assert_eq!(names, vec!["a", "b"]);
    }

    /// The pooled project run produces exactly the bytes of per-table
    /// sequential runs, per sink.
    #[test]
    fn pooled_run_matches_sequential_bytes() {
        let rt = runtime();
        let collect = |workers: usize| -> Vec<(String, Vec<u8>)> {
            let factory = MemorySinkFactory::new();
            let run = GenerationRun::new(&rt, RunConfig::new().workers(workers).package_rows(17));
            run.run(&CsvFormatter::new(), factory.clone()).unwrap();
            factory.outputs()
        };
        let sequential = collect(0);
        assert!(sequential.iter().all(|(_, b)| !b.is_empty()));
        for workers in [1, 3, 8] {
            assert_eq!(collect(workers), sequential, "workers={workers}");
        }
    }

    #[test]
    fn memory_factory_round_trips_table_bytes() {
        let rt = runtime();
        let run = GenerationRun::new(&rt, RunConfig::new().workers(2).package_rows(64));
        let factory = MemorySinkFactory::new();
        let report = run.run(&CsvFormatter::new(), factory.clone()).unwrap();
        assert!(report.total_bytes() > 0);
        let a = factory.output("a").expect("table a captured");
        let b = factory.output("b").expect("table b captured");
        assert_eq!(
            (a.len() + b.len()) as u64,
            report.total_bytes(),
            "captured bytes match the report"
        );
    }

    /// Every shard of `nodes` run one after another; each table's shard
    /// outputs concatenated in node order.
    fn concat_shards(
        rt: &SchemaRuntime,
        formatter: &dyn Formatter,
        config: &RunConfig,
        nodes: usize,
    ) -> BTreeMap<String, Vec<u8>> {
        let mut tables = BTreeMap::<String, Vec<u8>>::new();
        for node in 0..nodes {
            let factory = MemorySinkFactory::new();
            GenerationRun::new(rt, config.clone())
                .shard(node, nodes)
                .run(formatter, factory.clone())
                .unwrap();
            for (table, bytes) in factory.outputs() {
                tables.entry(table).or_default().extend(bytes);
            }
        }
        tables
    }

    #[test]
    fn union_of_node_outputs_equals_single_node_output() {
        let rt = testkit::runtime_of(&[("t", 997), ("u", 3)]);
        let formatter = CsvFormatter::new();
        let config = RunConfig::new().workers(2).package_rows(50);
        let single = concat_shards(&rt, &formatter, &config, 1);
        assert!(single.values().all(|b| !b.is_empty()));
        assert_eq!(concat_shards(&rt, &formatter, &config, 4), single);
    }

    /// For framed formats, concatenating the shard outputs reproduces the
    /// single-node bytes exactly — one document open, one document close,
    /// never mid-stream.
    #[test]
    fn framed_formats_concatenate_across_nodes() {
        for rows in [997u64, 5, 1, 0] {
            let rt = testkit::runtime(rows);
            let config = RunConfig::new().workers(2).package_rows(37);
            let formatters: [&dyn Formatter; 2] = [&CsvFormatter::new(), &XmlFormatter];
            for formatter in formatters {
                let single = concat_shards(&rt, formatter, &config, 1);
                for nodes in [2usize, 3, 8] {
                    assert_eq!(
                        concat_shards(&rt, formatter, &config, nodes),
                        single,
                        "format={} nodes={nodes} rows={rows}",
                        formatter.name()
                    );
                }
            }
        }
    }

    /// More nodes than rows: middle nodes contribute nothing, the first
    /// and last still own their framing, and the XML opener and closer
    /// appear exactly once.
    #[test]
    fn tiny_tables_shard_without_duplicate_headers() {
        let rt = testkit::runtime(3);
        let config = RunConfig::new().workers(1).package_rows(10);
        let out = concat_shards(&rt, &XmlFormatter, &config, 8);
        let out = String::from_utf8(out["t"].clone()).unwrap();
        assert_eq!(out.matches("<t>").count(), 1, "{out}");
        assert_eq!(out.matches("</t>").count(), 1, "{out}");
        assert_eq!(out.lines().count(), 5, "opener + 3 rows + closer: {out}");
    }

    #[test]
    fn node_reports_cover_all_rows() {
        let rt = testkit::runtime(500);
        let reports: Vec<RunReport> = (0..3)
            .map(|node| {
                GenerationRun::new(&rt, RunConfig::new().workers(1).package_rows(64))
                    .shard(node, 3)
                    .run(&CsvFormatter::new(), NullSinkFactory)
                    .unwrap()
            })
            .collect();
        assert_eq!(reports.iter().map(|r| r.total_rows()).sum::<u64>(), 500);
        assert!(reports.iter().all(|r| r.total_bytes() > 0));
    }

    /// Node 1 of 2 reports and writes only the second half of the rows.
    #[test]
    fn memory_sink_per_node_sees_only_its_shard() {
        let rt = testkit::runtime(100);
        let config = RunConfig::new().workers(0).package_rows(10);
        let run = |node, nodes| {
            let factory = MemorySinkFactory::new();
            let report = GenerationRun::new(&rt, config.clone())
                .shard(node, nodes)
                .run(&CsvFormatter::new(), factory.clone())
                .unwrap();
            (
                report,
                String::from_utf8(factory.output("t").unwrap()).unwrap(),
            )
        };
        let (_, whole) = run(0, 1);
        let (report, half) = run(1, 2);
        assert_eq!(report.total_rows(), 50);
        let tail: Vec<&str> = whole.lines().skip(50).collect();
        assert_eq!(half.lines().collect::<Vec<_>>(), tail);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_rejects_a_node_past_the_last() {
        let rt = testkit::runtime(1);
        let _ = GenerationRun::new(&rt, RunConfig::new()).shard(2, 2);
    }
}
