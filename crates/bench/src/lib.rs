//! What the paper-figure targets share beyond the `benchmark` library.
//!
//! Every binary in `src/bin/` and every target in `benches/` regenerates
//! one table or figure of the paper's evaluation (see DESIGN.md's
//! experiment index) and prints the same rows/series the paper plots, plus
//! explicit *shape checks* (linearity fits, ordering assertions) so a run
//! is self-judging. The clock and the statistics are the `benchmark`
//! library's ([`benchmark::time_per_call`], [`Summary`]); nothing here
//! times anything. Tracked performance numbers live in `benchmark/` only.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

use std::time::Duration;

use benchmark::Summary;

/// Least-squares linear fit `y ≈ a·x + b`, returning `(a, b, r²)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    assert!(n >= 2.0, "need at least two points");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    let a = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a * p.0 + b)).powi(2)).sum();
    let r2 = if ss_tot < 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

/// Print a target's header: what it reproduces, what the paper claims,
/// and the host the numbers below were taken on. The seed in the host
/// line is Listing 1's, which every figure model is built with.
pub fn banner(id: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper: {paper_claim}");
    println!(
        "host: {}",
        benchmark::host::fingerprint(12_456_789).to_line()
    );
    println!("================================================================");
}

/// A target's scale knob: environment variable `name` if it is set and
/// parses, `default` otherwise.
pub fn knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One table cell for a repeated measurement, `median [q1–q3] n=…`,
/// each value multiplied by `scale`: 1e-9 turns the nanoseconds of
/// [`benchmark::time_per_call`] into seconds.
pub fn cell(s: &Summary, scale: f64, decimals: usize) -> String {
    let [median, q1, q3] = [s.median, s.q1, s.q3].map(|v| v * scale);
    format!(
        "{median:.decimals$} [{q1:.decimals$}–{q3:.decimals$}] n={}",
        s.n
    )
}

/// Time `op` for two seconds in batches of 10,000 calls and print its
/// row of a nanoseconds-per-value series. The median is over some
/// hundreds of batches, so it does not see the first, cold ones.
pub fn ns_row(name: &str, op: impl FnMut()) {
    let ns = benchmark::time_per_call(Duration::from_secs(2), 10_000, op);
    println!("{name:<40} {:>34}", cell(&ns, 1.0, 1));
}

/// MB/s of runs that each delivered `bytes`, from their nanoseconds per
/// run. A slower run is a lower rate, so the quartiles trade places.
pub fn mb_per_s(bytes: u64, ns: &Summary) -> Summary {
    let rate = |ns: f64| bytes as f64 * 1e3 / ns;
    Summary {
        n: ns.n,
        median: rate(ns.median),
        q1: rate(ns.q3),
        q3: rate(ns.q1),
    }
}

/// Print one shape-check verdict line.
pub fn check(name: &str, ok: bool, detail: &str) {
    println!("[{}] {name}: {detail}", if ok { "PASS" } else { "WARN" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_lines() {
        let points: Vec<(f64, f64)> = (1..=10).map(|x| (x as f64, 3.0 * x as f64 + 2.0)).collect();
        let (a, b, r2) = linear_fit(&points);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_flags_nonlinear_data() {
        let points: Vec<(f64, f64)> = (1..=10).map(|x| (x as f64, (x as f64).powi(3))).collect();
        let (_, _, r2) = linear_fit(&points);
        assert!(r2 < 0.95, "cubic should not fit a line well: r2={r2}");
    }

    #[test]
    fn knob_falls_back_to_its_default() {
        assert_eq!(knob("BENCH_NO_SUCH_VAR_XYZ", 1.5), 1.5);
        assert_eq!(knob("BENCH_NO_SUCH_VAR_XYZ", 7usize), 7);
        assert_eq!(knob("BENCH_NO_SUCH_VAR_XYZ", "1,2".to_string()), "1,2");
    }

    #[test]
    fn rates_and_cells_read_off_a_summary() {
        // 50 MB in 0.5 s, 0.4 s and 0.625 s.
        let ns = Summary {
            n: 5,
            median: 5e8,
            q1: 4e8,
            q3: 6.25e8,
        };
        let rate = mb_per_s(50_000_000, &ns);
        assert_eq!((rate.median, rate.q1, rate.q3), (100.0, 80.0, 125.0));
        assert_eq!(cell(&ns, 1e-9, 3), "0.500 [0.400–0.625] n=5");
        assert_eq!(cell(&rate, 1.0, 0), "100 [80–125] n=5");
    }
}
