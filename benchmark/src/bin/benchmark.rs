//! The benchmark command. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! Without `--workload` every workload runs. `--trace 0` (the default) is
//! the timed run and prints the end-to-end metrics; `--trace 1` (or a
//! bare `--trace`) is the traced run and prints the per-layer metrics.
//! Each run prints its metrics by name and then one JSON object on a
//! line of its own — the last line of output is the last run's result —
//! and appends the same object, with the host fingerprint, to `--out`
//! (default `benchmark/out/results.jsonl`). The exit code is 0 only if
//! every output check of every run passed.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use benchmark::json::Json;
use benchmark::spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use benchmark::{batch, compare, host, layers, serve, Outcome, Res};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: host::out_dir().join("results.jsonl"),
        compare: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                argv.next();
            }
            "--out" => args.out = value("--out")?.into(),
            "--compare" => {
                args.compare = Some((value("--compare")?.into(), value("--compare")?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn run_workload(workload: Workload, args: &Args) -> Res<Outcome> {
    if args.trace {
        return layers::run(workload, args.seed, args.seconds);
    }
    match workload {
        Workload::TpchCsvNull => batch::tpch_csv_null(args.seed, args.seconds),
        Workload::TpchCsvFile => batch::tpch_csv_file(args.seed, args.seconds),
        Workload::BigbenchJsonNull => batch::bigbench_json_null(args.seed, args.seconds),
        _ => serve::run(workload, args.seed, args.seconds),
    }
}

/// Run one workload, print it, append it to the result file; returns
/// whether every output check passed.
fn report(workload: Workload, args: &Args) -> Res<bool> {
    let fingerprint = host::fingerprint(args.seed);
    let outcome = run_workload(workload, args)?;
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.finish(declared);
    let correct = outcome.tally.failed == 0;

    println!(
        "{} ({} run, seed {}, {} s): {} checks, {} failed",
        workload.name(),
        if args.trace { "traced" } else { "timed" },
        args.seed,
        args.seconds,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (name, unit) in declared {
        println!("  {name:<34} {:>16.4} {unit}", outcome.metrics.get(name));
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", metrics),
    ]);

    // The stored record is the result plus what is needed to compare it.
    let mut record = vec![
        ("workload".to_string(), Json::str(workload.name())),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("host".to_string(), fingerprint),
    ];
    record.extend(result.as_obj().expect("built as an object").iter().cloned());
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)?;
    writeln!(file, "{}", Json::Obj(record).to_line())?;

    println!("{}", result.to_line());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                 [--trace [0|1]] [--out FILE]\n       benchmark --compare A.jsonl B.jsonl"
            );
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(&host::repo_root().join("BENCHMARK.json"), a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        match report(workload, &args) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
