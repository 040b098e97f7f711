//! Figure 5 — PDGF TPC-H scale-up performance.
//!
//! "PDGF's throughput increases linearly with the number of cores … and
//! further increases with the number of hardware threads, but not as
//! significantly as for the number of cores. An interesting observation
//! is that scheduling exactly the same number of workers as the number of
//! system cores or threads is not optimal due to the additional internal
//! scheduling and I/O threads."
//!
//! Two curves are produced:
//!
//! * **measured** — real multithreaded runs of the scheduler (workers,
//!   channels, reorder buffer) on this machine, with a null sink. On a
//!   box with few cores the curve flattens at the physical core count —
//!   which is itself the paper's shape.
//! * **simulated paper testbed** — the paper's machine is "a single node
//!   with two sockets and eight cores per socket" (16 cores, 32 hardware
//!   threads). Per the substitution rule in DESIGN.md, we calibrate a
//!   timing model with the *measured* single-worker throughput and
//!   project it onto that machine: effective parallelism grows 1:1 up to
//!   16 cores, at 25% efficiency for SMT threads 17–32, flat beyond; and
//!   scheduling exactly #cores/#threads workers loses a few percent to
//!   the scheduler + output threads displacing a worker (the paper's
//!   "not optimal" observation — our output stage really does occupy a
//!   thread; the penalty models it competing for a full core).
//!
//! Every measured point is at least five whole runs (one second of them
//! when they are short); the table gives median and quartiles, and the
//! projection is calibrated with the single-worker median.
//!
//! Knobs: `FIG5_SF` (default 0.02), `FIG5_MAX_THREADS` (default 48,
//! matching the paper's x-axis).

use std::time::Duration;

use bench::{banner, cell, check, knob, linear_fit, mb_per_s};
use benchmark::{time_per_call, Summary};
use pdgf::Pdgf;
use workloads::tpch;

/// The paper's testbed.
const PAPER_CORES: usize = 16;
const PAPER_HW_THREADS: usize = 32;
/// Marginal efficiency of an SMT sibling thread.
const SMT_EFFICIENCY: f64 = 0.25;
/// Fractional loss when workers exactly fill the cores/threads, from the
/// scheduler and output threads displacing a worker.
const EXACT_FIT_PENALTY: f64 = 0.04;

fn measured_throughput(workers: usize, sf: f64) -> Summary {
    let project: pdgf::PdgfProject = Pdgf::from_schema(tpch::schema(12_456_789))
        .resolver(tpch::resolver())
        .set_property("SF", &format!("{sf}"))
        .workers(workers)
        .package_rows(5_000)
        .build()
        .expect("tpch model builds");
    let mut bytes = 0;
    let ns = time_per_call(Duration::from_secs(1), 1, || {
        let report = project.generate_to_null(None).expect("generation succeeds");
        bytes = report.total_bytes();
    });
    mb_per_s(bytes, &ns)
}

/// Calibrated projection onto the paper's 16-core/32-thread machine.
fn simulated_throughput(workers: usize, single_thread_mb_s: f64) -> f64 {
    let n = workers as f64;
    let cores = PAPER_CORES as f64;
    let hw = PAPER_HW_THREADS as f64;
    let eff = if n <= cores {
        n
    } else if n <= hw {
        cores + (n - cores) * SMT_EFFICIENCY
    } else {
        cores + (hw - cores) * SMT_EFFICIENCY
    };
    let penalty = if workers == PAPER_CORES || workers == PAPER_HW_THREADS {
        1.0 - EXACT_FIT_PENALTY
    } else {
        1.0
    };
    single_thread_mb_s * eff * penalty
}

fn main() {
    banner(
        "Figure 5: PDGF TPC-H scale-up (throughput MB/s vs worker threads)",
        "linear scaling to #cores (16), smaller gains to #hardware-threads (32), \
         dip when workers == cores exactly",
    );
    let sf: f64 = knob("FIG5_SF", 0.02);
    let cores = benchmark::host::nproc();
    let max_threads: usize = knob("FIG5_MAX_THREADS", 48);
    println!("host machine: {cores} core(s); simulated testbed: {PAPER_CORES} cores / {PAPER_HW_THREADS} hardware threads\n");

    let sweep: Vec<usize> = [1usize, 2, 4, 8, 12, 15, 16, 17, 24, 31, 32, 33, 40, 48]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();

    // Warm up, then calibrate the model with single-worker throughput.
    let _ = measured_throughput(1, sf / 4.0);
    let t1 = measured_throughput(1, sf).median;

    println!(
        "{:>8} {:>30} {:>24}",
        "threads", "measured MB/s [q1–q3]", "simulated-16c32t MB/s"
    );
    let mut measured = Vec::new();
    let mut simulated = Vec::new();
    for &workers in &sweep {
        // Real run (exercises scheduler/channel/reorder at this width).
        let m = measured_throughput(workers, sf);
        let s = simulated_throughput(workers, t1);
        println!("{workers:>8} {:>30} {s:>24.1}", cell(&m, 1.0, 1));
        measured.push((workers as f64, m.median));
        simulated.push((workers as f64, s));
    }

    // Shape checks on the simulated curve (the paper's machine).
    let core_region: Vec<(f64, f64)> = simulated
        .iter()
        .copied()
        .filter(|(x, _)| *x <= PAPER_CORES as f64 && *x as usize != PAPER_CORES)
        .collect();
    let (slope, _, r2) = linear_fit(&core_region);
    check(
        "linear-to-cores(simulated)",
        slope > 0.0 && r2 > 0.99,
        &format!("fit to 16 cores: slope={slope:.1} MB/s/thread, r2={r2:.3}"),
    );
    let at16 = simulated_throughput(16, t1);
    let at17 = simulated_throughput(17, t1);
    let at32 = simulated_throughput(32, t1);
    let at48 = simulated_throughput(48, t1);
    check(
        "smt-gains-smaller(simulated)",
        at32 > at17 && (at32 - at17) < (at16 / 16.0) * 15.0 * 0.5,
        &format!(
            "17→32 threads adds {:.1} MB/s (core-region pace would add {:.1})",
            at32 - at17,
            (at16 / 16.0) * 15.0
        ),
    );
    check(
        "exact-core-count-dip(simulated)",
        at17 > at16,
        &format!("16 workers {at16:.1} MB/s < 17 workers {at17:.1} MB/s"),
    );
    check(
        "flat-beyond-hw-threads(simulated)",
        (at48 - simulated_throughput(33, t1)).abs() < at48 * 0.05,
        &format!(
            "33 threads {:.1} vs 48 threads {at48:.1} MB/s",
            simulated_throughput(33, t1)
        ),
    );
    // Measured curve on this host: flat at/after the physical core count.
    let best_measured = measured.iter().map(|p| p.1).fold(0.0, f64::max);
    check(
        "measured-bounded-by-host-cores",
        best_measured <= t1 * (cores as f64) * 1.5,
        &format!("host has {cores} core(s): single {t1:.1} MB/s, best {best_measured:.1} MB/s"),
    );
}
