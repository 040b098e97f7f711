//! Ablation A1 (§4 text) — reference resolution by recomputation vs.
//! re-reading generated data.
//!
//! "While generating complex values might cost up to 2000 ns, doing a
//! single random read will cost ca. 10 ms on disk, which means the
//! computational approach is 5000 times faster than an approach that
//! reads previously generated data to solve dependencies."
//!
//! We resolve the same set of foreign-key references two ways:
//!
//! 1. **recompute** — PDGF's reference generator recomputes the parent
//!    cell from its coordinates (pure computation);
//! 2. **re-read** — a tracking-style baseline seeks into the previously
//!    generated parent file for every reference (one `seek + read` per
//!    lookup, with an optional simulated seek penalty representing the
//!    paper's 10 ms spinning-disk random read).
//!
//! Each strategy resolves the lookups in [`BATCHES`] timed batches; the
//! table gives the median and quartiles of their ns/reference.
//!
//! Knobs: `ABL1_LOOKUPS` per strategy (default 20000), `ABL1_SEEK_US`
//! simulated extra seek latency in microseconds (default 0 = measure the
//! real filesystem; set 10000 for the paper's 10 ms disk).

use std::io::{Read, Seek, SeekFrom};
use std::time::Duration;

use bench::{banner, cell, check, knob};
use benchmark::time_per_call;
use pdgf::{OutputFormat, Pdgf};
use pdgf_prng::{PdgfDefaultRandom, PdgfRng};
use workloads::tpch;

/// Timed batches the lookups of one strategy are split into.
const BATCHES: usize = 5;

fn main() {
    banner(
        "Ablation A1: reference recomputation vs re-reading generated data",
        "computing values is ~5000x faster than random reads of generated \
         data (2 us computed vs 10 ms disk read)",
    );
    let lookups: usize = knob("ABL1_LOOKUPS", 20_000);
    let seek_us: f64 = knob("ABL1_SEEK_US", 0.0);

    let project = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", "0.01")
        .workers(0)
        .build()
        .expect("tpch model builds");
    let rt = project.runtime();
    let (orders_idx, orders) = rt.table_by_name("orders").expect("orders exists");
    let parent_rows = orders.size;

    // Write the parent table to disk, recording row byte offsets — the
    // "previously generated data" a tracking generator would consult.
    let dir = std::env::temp_dir().join(format!("abl1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = project
        .table_to_string("orders", OutputFormat::Csv)
        .expect("orders render");
    let path = dir.join("orders.csv");
    std::fs::write(&path, &csv).expect("write parent file");
    let mut offsets = Vec::with_capacity(parent_rows as usize);
    let mut pos = 0u64;
    for line in csv.lines() {
        offsets.push(pos);
        pos += line.len() as u64 + 1;
    }

    // The reference targets to resolve (same sequence for both sides).
    let mut rng = PdgfDefaultRandom::seed_from(99);
    let targets: Vec<u64> = (0..lookups)
        .map(|_| rng.next_bounded(parent_rows))
        .collect();

    // Both closures resolve the targets in order, one per call, and sum
    // the keys they find: `lookups` calls in all, as `BATCHES` batches.
    let per_batch = (lookups / BATCHES).max(1);
    let mut next = targets.iter().cycle();

    // 1. Recomputation.
    let mut recomputed = 0i64;
    let recompute = time_per_call(Duration::ZERO, per_batch as u64, || {
        let row = *next.next().expect("targets cycle");
        recomputed =
            recomputed.wrapping_add(rt.value(orders_idx, 0, 0, row).as_i64().expect("order key"));
    });

    // 2. Re-read from the generated file.
    let mut file = std::fs::File::open(&path).expect("open parent file");
    let mut buf = [0u8; 32];
    let mut next = targets.iter().cycle();
    let mut reread_sum = 0i64;
    let reread = time_per_call(Duration::ZERO, per_batch as u64, || {
        let row = *next.next().expect("targets cycle");
        file.seek(SeekFrom::Start(offsets[row as usize]))
            .expect("seek");
        let n = file.read(&mut buf).expect("read");
        let line = std::str::from_utf8(&buf[..n]).unwrap_or("");
        let key: i64 = line
            .split(',')
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        reread_sum = reread_sum.wrapping_add(key);
        if seek_us > 0.0 {
            std::thread::sleep(Duration::from_nanos((seek_us * 1e3) as u64));
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    let (ns_per_recompute, ns_per_reread) = (recompute.median, reread.median);

    check(
        "results-agree",
        recomputed == reread_sum,
        "both strategies resolve identical keys",
    );
    println!("\n{:<32} {:>28}", "strategy", "ns/reference [q1–q3]");
    println!(
        "{:<32} {:>28}",
        "recompute (PDGF)",
        cell(&recompute, 1.0, 0)
    );
    println!(
        "{:<32} {:>28}",
        if seek_us > 0.0 {
            "re-read (simulated disk)"
        } else {
            "re-read (page cache)"
        },
        cell(&reread, 1.0, 0)
    );
    let speedup = ns_per_reread / ns_per_recompute;
    println!("speedup: {speedup:.0}x (paper: ~5000x vs 10 ms spinning disk)");
    check(
        "recompute-wins",
        speedup > 2.0,
        &format!("recompute {ns_per_recompute:.0} ns vs re-read {ns_per_reread:.0} ns"),
    );
    check(
        "recompute-within-paper-budget",
        ns_per_recompute < 2_000.0 * 10.0,
        &format!("paper budget 2000 ns/complex value; measured {ns_per_recompute:.0} ns"),
    );
    if seek_us == 0.0 {
        println!(
            "note: this machine served re-reads from the page cache; rerun with \
             ABL1_SEEK_US=10000 to model the paper's 10 ms random disk read"
        );
    }
}
