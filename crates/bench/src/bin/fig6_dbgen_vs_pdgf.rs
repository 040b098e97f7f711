//! Figure 6 — DBGen vs PDGF performance.
//!
//! "A comparison of the data generator DBGen and PDGF … both tools
//! achieve a similar performance. … We also show PDGF's CPU-bound
//! performance, which is 33% higher than its disk-bound performance. …
//! When comparing the single process performance … DBGen achieves
//! 48 MB/s and PDGF 30 MB/s. Thus, PDGF has the same order of
//! performance as DBGen, although being completely generic and
//! adaptable."
//!
//! Series: duration (s) vs scale factor for (a) DBGen to files,
//! (b) PDGF to files, (c) PDGF to null sinks — plus the single-stream
//! MB/s comparison.
//!
//! Every point is five whole runs (half a second of them when they are
//! short): median and quartiles are printed, the checks read the medians.
//!
//! Knobs: `FIG6_SFS` (default "0.001,0.003,0.01,0.03"), `FIG6_WORKERS`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::{banner, cell, check, knob, mb_per_s};
use benchmark::{time_per_call, Summary};
use pdgf::{OutputFormat, Pdgf};
use pdgf_output::{FileSink, NullSink, Sink};
use workloads::dbgen::{DbGen, TpchTable};
use workloads::tpch;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fig6-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Nanoseconds per whole run of `run`.
fn time_runs(run: impl FnMut()) -> Summary {
    time_per_call(Duration::from_millis(500), 1, run)
}

fn dbgen_run(sf: f64, dir: &Path) -> Summary {
    let g = DbGen::new(sf, 7);
    time_runs(|| {
        for table in TpchTable::ALL {
            let mut sink = FileSink::create(dir.join(format!("{}.tbl", table.file_stem())))
                .expect("create .tbl file");
            g.generate_table(table, &mut sink)
                .expect("dbgen generation");
            sink.finish().expect("flush");
        }
    })
}

fn pdgf_run(sf: f64, workers: usize, to_null: bool, dir: &Path) -> Summary {
    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .workers(workers)
        .package_rows(5_000)
        .build()
        .expect("tpch model builds");
    time_runs(|| {
        if to_null {
            project.generate_to_null(None).expect("generation");
        } else {
            project
                .generate_to_dir(
                    dir.join(format!("pdgf-{sf}")),
                    OutputFormat::Csv,
                    None,
                    None,
                )
                .expect("generation");
        }
    })
}

/// Single-stream throughput: one dbgen instance vs one PDGF worker,
/// both CPU-bound (memory/null sinks).
fn single_stream(sf: f64) -> (Summary, Summary) {
    let g = DbGen::new(sf, 7);
    let mut bytes = 0;
    let ns = time_runs(|| {
        let mut sink = NullSink::new();
        for table in TpchTable::ALL {
            g.generate_table(table, &mut sink)
                .expect("dbgen generation");
        }
        bytes = sink.bytes_written();
    });
    let dbgen_mbs = mb_per_s(bytes, &ns);

    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .workers(0)
        .build()
        .expect("tpch model builds");
    let ns = time_runs(|| {
        bytes = project
            .generate_to_null(None)
            .expect("generation")
            .total_bytes();
    });
    (dbgen_mbs, mb_per_s(bytes, &ns))
}

fn main() {
    banner(
        "Figure 6: DBGen vs PDGF (duration s vs scale factor; single-stream MB/s)",
        "similar order of performance; PDGF /dev/null ≈ 33% above disk-bound; \
         single-stream DBGen 48 MB/s vs PDGF 30 MB/s (DBGen somewhat faster)",
    );
    let workers: usize = knob("FIG6_WORKERS", pdgf_runtime::available_workers());
    let sfs: Vec<f64> = knob("FIG6_SFS", "0.001,0.003,0.01,0.03".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let dir = tmpdir();

    println!(
        "\n{:>8} {:>28} {:>28} {:>28}",
        "SF", "DBGen s [q1–q3]", "PDGF s [q1–q3]", "PDGF /dev/null s [q1–q3]"
    );
    let mut last = [1.0; 3];
    for &sf in &sfs {
        let dbgen = dbgen_run(sf, &dir);
        let pdgf = pdgf_run(sf, workers, false, &dir);
        let pdgf_null = pdgf_run(sf, workers, true, &dir);
        println!(
            "{sf:>8} {:>28} {:>28} {:>28}",
            cell(&dbgen, 1e-9, 3),
            cell(&pdgf, 1e-9, 3),
            cell(&pdgf_null, 1e-9, 3)
        );
        last = [dbgen, pdgf, pdgf_null].map(|s| s.median / 1e9);
    }
    std::fs::remove_dir_all(&dir).ok();

    let [dbgen_s, pdgf_s, pdgf_null_s] = last;
    check(
        "same-order-of-performance",
        pdgf_s < dbgen_s * 10.0 && dbgen_s < pdgf_s * 10.0,
        &format!("largest SF: DBGen {dbgen_s:.2}s vs PDGF {pdgf_s:.2}s"),
    );
    check(
        "null-sink-not-slower",
        pdgf_null_s <= pdgf_s * 1.10,
        &format!("PDGF file {pdgf_s:.2}s vs null {pdgf_null_s:.2}s"),
    );

    let (dbgen_mbs, pdgf_mbs) = single_stream(*sfs.last().expect("non-empty sweep"));
    println!(
        "\nsingle-stream MB/s: DBGen {} vs PDGF (1 worker) {} (paper: 48 vs 30)",
        cell(&dbgen_mbs, 1.0, 1),
        cell(&pdgf_mbs, 1.0, 1)
    );
    let (dbgen_mbs, pdgf_mbs) = (dbgen_mbs.median, pdgf_mbs.median);
    check(
        "single-stream-same-order",
        pdgf_mbs > dbgen_mbs / 10.0,
        &format!(
            "ratio {:.2} (paper ratio 30/48 = 0.63)",
            pdgf_mbs / dbgen_mbs
        ),
    );
}
