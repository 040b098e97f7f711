//! Generate a TPC-H data set, the paper's flagship demo scenario:
//! "We will generate a 10 GB TPC-H data set. We will show how the data
//! can be altered by changing the output format. To this end, the data
//! will be written in CSV and XML format."
//!
//! ```text
//! cargo run --release --example tpch_generate [SF] [out_dir]
//! ```
//!
//! Defaults to SF 0.01 (≈10 MB) so the example finishes in seconds; pass
//! a larger scale factor for real runs. Writes CSV and XML side by side
//! and prints per-table statistics plus live progress snapshots.

use dbsynth_suite::pdgf::runtime::Telemetry;
use dbsynth_suite::pdgf::OutputFormat;
use dbsynth_suite::workloads::tpch;

fn main() {
    let mut args = std::env::args().skip(1);
    let sf: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.01);
    let out_dir = args
        .next()
        .unwrap_or_else(|| std::env::temp_dir().join("tpch-out").display().to_string());

    println!("TPC-H at SF {sf} → {out_dir}");
    let project = tpch::project(sf)
        .workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
        )
        .build()
        .expect("TPC-H model validates");

    // CSV pass with telemetry attached (the demo's Mission Control
    // substitute).
    let telemetry = Telemetry::new();
    let report = {
        let t = telemetry.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let ticker = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(400));
                let s = t.progress();
                if s.rows > 0 {
                    println!(
                        "  [progress] {} rows, {:.1} MB, {:.1} MB/s",
                        s.rows,
                        s.bytes as f64 / 1e6,
                        s.throughput_mb_s
                    );
                }
            }
        });
        let report = project
            .generate_to_null(Some(&telemetry))
            .expect("generation succeeds");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        ticker.join().expect("ticker joins");
        report
    };
    println!("\nCPU-bound (null sink) pass:");
    println!(
        "  {} rows, {:.1} MB in {:.2}s = {:.1} MB/s",
        report.total_rows(),
        report.total_bytes() as f64 / 1e6,
        report.seconds,
        report.throughput_mb_s()
    );

    // File passes in two formats.
    for format in [OutputFormat::Csv, OutputFormat::Xml] {
        let dir = std::path::Path::new(&out_dir).join(format.extension());
        let report = project
            .generate_to_dir(&dir, format, None, None)
            .expect("file generation succeeds");
        println!(
            "\n{} files in {}:",
            format.extension().to_uppercase(),
            dir.display()
        );
        for t in &report.tables {
            println!(
                "  {:<10} {:>10} rows {:>12.2} MB",
                t.table,
                t.rows,
                t.bytes as f64 / 1e6
            );
        }
    }
    println!("\ndone. The two formats contain the same data — only the formatting differs.");
}
