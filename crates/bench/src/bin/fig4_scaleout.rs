//! Figure 4 — PDGF BigBench scale-out performance.
//!
//! "In the first experiment, we evaluate the performance of PDGF by
//! generating a BigBench data set … on the 24 node cluster. … PDGF has
//! linear throughput scaling in the number of nodes." The figure has two
//! panels: aggregate throughput (MB/s) vs nodes, and duration (min) vs
//! nodes.
//!
//! Cluster projection (see DESIGN.md): each "node" is one
//! `GenerationRun::shard(node, nodes)` — the same run a `pdgf generate
//! --node i --nodes N` process makes — executed one after another here.
//! Aggregate cluster throughput is the sum of node throughputs
//! (shared-nothing machines run concurrently and independently), and
//! cluster duration is the slowest node's duration.
//!
//! Each node count is run [`REPEATS`] times; the table and the shape
//! checks read the medians.
//!
//! Knobs: `FIG4_SF` (default 8 — BigBench-style model scale),
//! `FIG4_NODES` (comma list, default "1,2,4,8,12,16,20,24"),
//! `FIG4_WORKERS` (per node, default 0: inline).

use bench::{banner, cell, check, knob, linear_fit};
use benchmark::Summary;
use pdgf_gen::SchemaRuntime;
use pdgf_output::{CsvFormatter, NullSinkFactory};
use pdgf_runtime::{GenerationRun, RunConfig, RunReport};
use workloads::bigbench;

/// Cluster runs per node count.
const REPEATS: usize = 5;

/// Every node's shard of the project, run one after another into null
/// sinks.
fn run_shards(rt: &SchemaRuntime, workers: usize, nodes: usize) -> Vec<RunReport> {
    let config = RunConfig::new().workers(workers).package_rows(5_000);
    (0..nodes)
        .map(|node| {
            GenerationRun::new(rt, config.clone())
                .shard(node, nodes)
                .run(&CsvFormatter::new(), NullSinkFactory)
                .expect("node run succeeds")
        })
        .collect()
}

fn main() {
    banner(
        "Figure 4: PDGF BigBench scale-out (aggregate MB/s and duration vs nodes)",
        "linear throughput scaling in the number of nodes; duration ~ 1/nodes",
    );
    let sf: f64 = knob("FIG4_SF", 8.0);
    // Inline generation per node: the experiment varies *nodes*, and on a
    // small host extra worker threads only add scheduling noise.
    let workers: usize = knob("FIG4_WORKERS", 0);
    let nodes_list: Vec<usize> = knob("FIG4_NODES", "1,2,4,8,12,16,20,24".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();

    let project = bigbench::project(sf)
        .workers(workers)
        .build()
        .expect("bigbench model builds");
    let rt = project.runtime();
    // Warm up caches and the allocator before measuring.
    run_shards(rt, workers, 1);
    let total_rows: u64 = rt.tables().iter().map(|t| t.size).sum();
    println!("model: BigBench-style, SF={sf}, {total_rows} rows total, {workers} workers/node\n");

    println!(
        "{:>6} {:>30} {:>30} {:>10}",
        "nodes", "agg MB/s [q1–q3]", "duration s [q1–q3]", "rows"
    );
    let mut tput_series = Vec::new();
    let mut duration_series = Vec::new();
    for &nodes in &nodes_list {
        let mut rows = 0;
        let (agg_mb_s, duration): (Vec<f64>, Vec<f64>) = (0..REPEATS)
            .map(|_| {
                let reports = run_shards(rt, workers, nodes);
                rows = reports.iter().map(|r| r.total_rows()).sum::<u64>();
                // Shared-nothing aggregate: nodes run concurrently in a
                // real cluster, so aggregate throughput is the per-node
                // sum and the cluster finishes with its slowest node.
                (
                    reports.iter().map(|r| r.throughput_mb_s()).sum::<f64>(),
                    reports.iter().map(|r| r.seconds).fold(0.0f64, f64::max),
                )
            })
            .unzip();
        let (agg_mb_s, duration) = (Summary::of(&agg_mb_s), Summary::of(&duration));
        println!(
            "{nodes:>6} {:>30} {:>30} {rows:>10}",
            cell(&agg_mb_s, 1.0, 1),
            cell(&duration, 1.0, 3)
        );
        tput_series.push((nodes as f64, agg_mb_s.median));
        duration_series.push((nodes as f64, duration.median));
    }

    let (slope, intercept, r2) = linear_fit(&tput_series);
    check(
        "throughput-linear-in-nodes",
        slope > 0.0 && r2 > 0.95,
        &format!("fit: {slope:.1} MB/s per node + {intercept:.1}, r2={r2:.3}"),
    );
    // Duration should fall like ~1/n. At laptop scale per-node fixed
    // costs (7 table setups per node) keep n×duration from being exactly
    // constant, so check the end-to-end speedup instead: scaling from the
    // first to the last node count must recover at least half the ideal.
    let (n0, d0) = duration_series.first().copied().expect("sweep ran");
    let (n1, d1) = duration_series.last().copied().expect("sweep ran");
    let ideal = n1 / n0;
    let achieved = d0 / d1;
    check(
        "duration-inverse-in-nodes",
        achieved > ideal / 2.0,
        &format!(
            "{n0:.0}→{n1:.0} nodes: duration {d0:.3}s→{d1:.3}s \
             ({achieved:.1}x of ideal {ideal:.0}x)"
        ),
    );
}
