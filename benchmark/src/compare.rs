//! `benchmark --compare A B`: two result files, one row per workload and
//! end-to-end metric, each difference held against the metric's bound in
//! `BENCHMARK.json`. This is the tool for the A/A check of a new
//! benchmark and for before/after runs of a later change.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::{Res, Summary};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the first median by which the second may be worse.
    pub bound: f64,
}

/// The `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn declared_end_to_end(benchmark: &Json) -> Res<Vec<Declared>> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str);
            Ok(Declared {
                name: text("name").ok_or("a metric has no name")?.to_string(),
                higher_is_better: match text("better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("a metric's `better` is neither higher nor lower".into()),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end-to-end metric has no bound")?,
            })
        })
        .collect()
}

/// Timed runs of a result file: workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read a result file: one JSON object per line, as the binary appends
/// them. Traced runs are skipped; they carry no end-to-end metric.
pub fn read_runs(text: &str) -> Res<Runs> {
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line)?;
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run names no workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a run has no metrics")?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// How one metric of one workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Second median no worse than the first by more than the bound.
    Within,
    /// Second median worse than the first by more than the bound.
    Breach,
    /// Run-to-run spread of either side exceeds the bound: the runs
    /// cannot tell a difference of that size from noise.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// First file's runs.
    pub a: Summary,
    /// Second file's runs.
    pub b: Summary,
    /// By how much of the first median the second is worse (negative:
    /// better), in the metric's own direction.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every declared metric on every workload of `a`. A workload or
/// metric missing from `b` is an error: both files must hold the same set
/// of runs.
pub fn compare(declared: &[Declared], a: &Runs, b: &Runs) -> Res<Vec<Row>> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in a {
        let metrics_b = b
            .get(workload)
            .ok_or_else(|| format!("the second file has no run of {workload}"))?;
        for d in declared {
            let values = |m: &BTreeMap<String, Vec<f64>>, which: &str| {
                m.get(&d.name)
                    .map(|v| Summary::of(v))
                    .ok_or_else(|| format!("the {which} file has no {} on {workload}", d.name))
            };
            let (sa, sb) = (values(metrics_a, "first")?, values(metrics_b, "second")?);
            let change = (sb.median - sa.median) / sa.median.abs();
            let worse_by = if d.higher_is_better { -change } else { change };
            let verdict = if sa.spread().max(sb.spread()) > d.bound {
                Verdict::Unresolved
            } else if worse_by > d.bound {
                Verdict::Breach
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: d.name.clone(),
                a: sa,
                b: sb,
                worse_by,
                bound: d.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Read both files and `BENCHMARK.json`, print the table, and return
/// whether any metric breached its bound.
pub fn run(benchmark_json: &Path, a: &Path, b: &Path) -> Res<bool> {
    let declared = declared_end_to_end(&Json::parse(&std::fs::read_to_string(benchmark_json)?)?)?;
    let runs_a = read_runs(&std::fs::read_to_string(a)?)?;
    let runs_b = read_runs(&std::fs::read_to_string(b)?)?;
    let rows = compare(&declared, &runs_a, &runs_b)?;
    println!(
        "{:<20} {:<13} {:>12} {:>7} {:>3} {:>12} {:>7} {:>3} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A iqr%",
        "n",
        "B median",
        "B iqr%",
        "n",
        "worse%",
        "bound%"
    );
    for r in &rows {
        println!(
            "{:<20} {:<13} {:>12.4} {:>7.2} {:>3} {:>12.4} {:>7.2} {:>3} {:>+8.2} {:>6.1}  {}",
            r.workload,
            r.metric,
            r.a.median,
            r.a.spread() * 100.0,
            r.a.n,
            r.b.median,
            r.b.spread() * 100.0,
            r.b.n,
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Within => "within",
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} within bound, {} unresolved, {} breached",
        count(Verdict::Within),
        count(Verdict::Unresolved),
        count(Verdict::Breach)
    );
    Ok(count(Verdict::Breach) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Vec<Declared> {
        vec![
            Declared {
                name: "mb_per_s".into(),
                higher_is_better: true,
                bound: 0.05,
            },
            Declared {
                name: "p50_ms".into(),
                higher_is_better: false,
                bound: 0.05,
            },
        ]
    }

    fn file(values: &[(f64, f64)]) -> Runs {
        let lines: Vec<String> = values
            .iter()
            .map(|(mb, p50)| {
                format!(
                    r#"{{"workload": "w", "trace": false, "metrics": {{"mb_per_s": {{"value": {mb}, "unit": "MB/s"}}, "p50_ms": {{"value": {p50}, "unit": "ms"}}}}}}"#
                )
            })
            .collect();
        read_runs(&lines.join("\n")).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let a = file(&[(100.0, 10.0), (101.0, 10.1), (99.0, 9.9)]);
        // Throughput down 10% is a breach; latency down 10% is a gain.
        let b = file(&[(90.0, 9.0), (90.5, 9.05), (89.5, 8.95)]);
        let rows = compare(&declared(), &a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Breach);
        assert!((rows[0].worse_by - 0.10).abs() < 1e-9);
        assert_eq!(rows[1].verdict, Verdict::Within);
        assert!(rows[1].worse_by < 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = file(&[(100.0, 10.0), (120.0, 10.0), (80.0, 10.0)]);
        let b = file(&[(70.0, 10.0), (71.0, 10.0), (69.0, 10.0)]);
        let rows = compare(&declared(), &a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Within);
    }

    #[test]
    fn traced_runs_are_skipped_and_missing_workloads_are_errors() {
        let traced =
            r#"{"workload": "w", "trace": true, "metrics": {"x": {"value": 1, "unit": "ns"}}}"#;
        assert!(read_runs(traced).unwrap().is_empty());
        let a = file(&[(1.0, 1.0)]);
        assert!(compare(&declared(), &a, &Runs::new()).is_err());
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let j = Json::parse(
            r#"{"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            declared_end_to_end(&j).unwrap(),
            [Declared {
                name: "qps".into(),
                higher_is_better: true,
                bound: 0.1
            }]
        );
    }
}
