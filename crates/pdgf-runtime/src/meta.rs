//! The meta-scheduler: sharding a project across nodes.
//!
//! "The meta scheduler manages multi-node scheduling." In a shared-nothing
//! deployment every node runs the same binary with the same model and a
//! `(node, node_count)` pair; determinism guarantees the union of the
//! shards is exactly the single-node data set, with no communication.
//! This module computes the shard ranges and — because this reproduction
//! runs on one machine — also *simulates* a cluster by executing node
//! shards one after another, reporting per-node statistics from which the
//! aggregate cluster throughput follows (independent machines: aggregate
//! = sum of node throughputs).
//!
//! Each node's tables run through one project-wide worker pool
//! ([`run_project`]), and framing is assigned by node position: the first
//! node owns every table's `begin` bytes, the last node every `end`, so
//! concatenating shard outputs in node order reproduces the single-node
//! byte stream even for framed formats (CSV with header, XML, SQL).

use std::io;
use std::ops::Range;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{Formatter, Sink};

use crate::package::{Framing, TableJob};
use crate::scheduler::{run_project, RunConfig};
use crate::telemetry::{mb_per_s, now_ns, seconds_since, Telemetry};

/// Factory producing a sink for `(table_name, node)` pairs.
///
/// Distinct from the per-table [`pdgf_output::SinkFactory`] trait: node
/// shards of one table write to different sinks, so the node index is
/// part of the key.
pub type NodeSinkFactory<'a> = &'a mut dyn FnMut(&str, usize) -> io::Result<Box<dyn Sink>>;

/// Shard of table rows assigned to one node: contiguous ranges balance
/// within one row of each other.
pub fn node_shard(total_rows: u64, node: usize, node_count: usize) -> Range<u64> {
    assert!(node_count > 0, "need at least one node");
    assert!(node < node_count, "node index out of range");
    let (node, node_count) = (node as u64, node_count as u64);
    let start = total_rows * node / node_count;
    let end = total_rows * (node + 1) / node_count;
    start..end
}

/// Per-node execution statistics.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Rows generated by this node across all tables.
    pub rows: u64,
    /// Bytes produced by this node.
    pub bytes: u64,
    /// Wall-clock seconds this node ran (one pool over all its tables).
    pub seconds: f64,
}

impl NodeReport {
    /// This node's throughput in MB/s.
    pub fn throughput_mb_s(&self) -> f64 {
        mb_per_s(self.bytes, self.seconds)
    }
}

/// Shards tables across simulated nodes and executes them.
pub struct MetaScheduler {
    node_count: usize,
    run: RunConfig,
}

impl MetaScheduler {
    /// Meta-scheduler for `node_count` nodes, each running `run` workers.
    pub fn new(node_count: usize, run: RunConfig) -> Self {
        assert!(node_count > 0);
        Self { node_count, run }
    }

    /// Number of simulated nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The jobs node `node` executes: one shard per table, skipping
    /// shards that have neither rows nor framing bytes to write. The
    /// first node owns each table's `begin` framing and the last its
    /// `end`, so shard outputs concatenate into the single-node stream.
    pub fn node_jobs(&self, rt: &SchemaRuntime, node: usize) -> Vec<TableJob> {
        let framing = Framing {
            begin: node == 0,
            end: node == self.node_count - 1,
        };
        rt.tables()
            .iter()
            .enumerate()
            .filter_map(|(t_idx, table)| {
                let shard = node_shard(table.size, node, self.node_count);
                if shard.is_empty() && framing == Framing::none() {
                    return None;
                }
                Some(TableJob {
                    table: t_idx as u32,
                    update: 0,
                    rows: shard,
                    framing,
                })
            })
            .collect()
    }

    /// Execute every table's shard for `node` through one worker pool,
    /// creating one sink per table via `make_sink(table_name, node)` and
    /// observed by `telemetry` like any other run.
    pub fn run_node(
        &self,
        rt: &SchemaRuntime,
        node: usize,
        formatter: &dyn Formatter,
        make_sink: NodeSinkFactory<'_>,
        telemetry: Option<&Telemetry>,
    ) -> io::Result<NodeReport> {
        let started = now_ns();
        let jobs = self.node_jobs(rt, node);
        let mut sinks: Vec<Box<dyn Sink>> = jobs
            .iter()
            .map(|j| make_sink(&rt.tables()[j.table as usize].name, node))
            .collect::<io::Result<_>>()?;
        let stats = {
            let mut refs: Vec<&mut dyn Sink> = sinks
                .iter_mut()
                .map(|s| &mut **s as &mut dyn Sink)
                .collect();
            run_project(rt, &jobs, formatter, &mut refs, &self.run, telemetry)?
        };
        for sink in &mut sinks {
            sink.finish()?;
        }
        Ok(NodeReport {
            node,
            rows: stats.iter().map(|s| s.rows).sum(),
            bytes: stats.iter().map(|s| s.bytes).sum(),
            seconds: seconds_since(started),
        })
    }

    /// Simulate the whole cluster: run every node's shard sequentially.
    pub fn run_cluster(
        &self,
        rt: &SchemaRuntime,
        formatter: &dyn Formatter,
        make_sink: NodeSinkFactory<'_>,
    ) -> io::Result<Vec<NodeReport>> {
        (0..self.node_count)
            .map(|node| self.run_node(rt, node, formatter, make_sink, None))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::runtime;
    use pdgf_output::{CsvFormatter, MemorySink, NullSink, XmlFormatter};
    use pdgf_schema::sync::Lock;
    use std::sync::Arc;

    #[test]
    fn shards_partition_the_row_space() {
        for total in [0u64, 1, 7, 100, 1001] {
            for nodes in [1usize, 2, 3, 8, 24] {
                let mut next = 0;
                for n in 0..nodes {
                    let shard = node_shard(total, n, nodes);
                    assert_eq!(shard.start, next, "gap at node {n}");
                    next = shard.end;
                }
                assert_eq!(next, total, "total={total} nodes={nodes}");
            }
        }
    }

    #[test]
    fn shards_are_balanced_within_one_row() {
        for nodes in [2usize, 3, 7, 24] {
            let sizes: Vec<u64> = (0..nodes)
                .map(|n| {
                    let s = node_shard(1000, n, nodes);
                    s.end - s.start
                })
                .collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn union_of_node_outputs_equals_single_node_output() {
        let rt = runtime(997);
        let formatter = CsvFormatter::new();
        let run = RunConfig::new().workers(2).package_rows(50);

        // Single node reference.
        let single: Arc<Lock<Vec<u8>>> = Arc::default();
        {
            let captured = single.clone();
            let mut make = move |_: &str, _: usize| -> io::Result<Box<dyn Sink>> {
                Ok(Box::new(CapturingSink {
                    buf: Vec::new(),
                    dest: captured.clone(),
                }))
            };
            MetaScheduler::new(1, run.clone())
                .run_cluster(&rt, &formatter, &mut make)
                .unwrap();
        }

        // Four nodes, concatenated in node order.
        let multi: Arc<Lock<Vec<u8>>> = Arc::default();
        {
            let captured = multi.clone();
            let mut make = move |_: &str, _: usize| -> io::Result<Box<dyn Sink>> {
                Ok(Box::new(CapturingSink {
                    buf: Vec::new(),
                    dest: captured.clone(),
                }))
            };
            MetaScheduler::new(4, run)
                .run_cluster(&rt, &formatter, &mut make)
                .unwrap();
        }

        let single = single.lock().clone();
        assert_eq!(single, *multi.lock());
    }

    /// The framing fix: for header/framed formats, concatenating the
    /// shard outputs of a cluster run reproduces the single-node bytes
    /// exactly — one header, one document close, never mid-stream.
    #[test]
    fn framed_formats_concatenate_across_nodes() {
        for rows in [997u64, 5, 1] {
            let rt = runtime(rows);
            let formatters: [&dyn Formatter; 2] =
                [&CsvFormatter::new().with_header(), &XmlFormatter];
            for formatter in formatters {
                let collect = |nodes: usize| -> Vec<u8> {
                    let dest: Arc<Lock<Vec<u8>>> = Arc::default();
                    let captured = dest.clone();
                    let mut make = move |_: &str, _: usize| -> io::Result<Box<dyn Sink>> {
                        Ok(Box::new(CapturingSink {
                            buf: Vec::new(),
                            dest: captured.clone(),
                        }))
                    };
                    MetaScheduler::new(nodes, RunConfig::new().workers(2).package_rows(37))
                        .run_cluster(&rt, formatter, &mut make)
                        .unwrap();
                    let result = dest.lock().clone();
                    result
                };
                let single = collect(1);
                for nodes in [2usize, 3, 8] {
                    let multi = collect(nodes);
                    assert_eq!(
                        String::from_utf8_lossy(&multi),
                        String::from_utf8_lossy(&single),
                        "format={} nodes={nodes} rows={rows}",
                        formatter.name()
                    );
                }
            }
        }
    }

    /// More nodes than rows: middle nodes contribute nothing, the first
    /// and last still own their framing, and headers appear exactly once.
    #[test]
    fn tiny_tables_shard_without_duplicate_headers() {
        let rt = runtime(3);
        let dest: Arc<Lock<Vec<u8>>> = Arc::default();
        let captured = dest.clone();
        let mut make = move |_: &str, _: usize| -> io::Result<Box<dyn Sink>> {
            Ok(Box::new(CapturingSink {
                buf: Vec::new(),
                dest: captured.clone(),
            }))
        };
        MetaScheduler::new(8, RunConfig::new().workers(1).package_rows(10))
            .run_cluster(&rt, &CsvFormatter::new().with_header(), &mut make)
            .unwrap();
        let out = String::from_utf8(dest.lock().clone()).unwrap();
        assert_eq!(out.matches("id,v").count(), 1, "{out}");
        assert_eq!(out.lines().count(), 4, "header + 3 rows: {out}");
    }

    #[test]
    fn node_reports_cover_all_rows() {
        let rt = runtime(500);
        let sched = MetaScheduler::new(3, RunConfig::new().workers(1).package_rows(64));
        let mut make =
            |_: &str, _: usize| -> io::Result<Box<dyn Sink>> { Ok(Box::new(NullSink::new())) };
        let reports = sched
            .run_cluster(&rt, &CsvFormatter::new(), &mut make)
            .unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports.iter().map(|r| r.rows).sum::<u64>(), 500);
        assert!(reports.iter().all(|r| r.bytes > 0));
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.node, i);
            let _ = r.throughput_mb_s();
        }
    }

    #[test]
    fn memory_sink_per_node_sees_only_its_shard() {
        let rt = runtime(100);
        let sched = MetaScheduler::new(2, RunConfig::new().workers(0).package_rows(10));
        let mut sinks: Vec<MemorySink> = Vec::new();
        // Collect node 1's output only.
        let mut make = |_: &str, node: usize| -> io::Result<Box<dyn Sink>> {
            let _ = node;
            Ok(Box::new(MemorySink::new()))
        };
        let r1 = sched
            .run_node(&rt, 1, &CsvFormatter::new(), &mut make, None)
            .unwrap();
        assert_eq!(r1.rows, 50);
        drop(sinks.drain(..));
    }

    /// Sink that appends its bytes to a shared buffer on finish, keeping
    /// deterministic order because nodes run sequentially.
    struct CapturingSink {
        buf: Vec<u8>,
        dest: Arc<Lock<Vec<u8>>>,
    }

    impl Sink for CapturingSink {
        fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.buf.extend_from_slice(bytes);
            Ok(())
        }

        fn finish(&mut self) -> io::Result<u64> {
            let n = self.buf.len() as u64;
            self.dest.lock().extend_from_slice(&self.buf);
            self.buf.clear();
            Ok(n)
        }

        fn bytes_written(&self) -> u64 {
            self.buf.len() as u64
        }
    }
}
