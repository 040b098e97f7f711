//! The three batch workloads: a benchmark engineer materialising a data
//! set. One operation is one complete data set at the workload's fixed
//! size; operations run back to back on one thread for the whole window.

use std::time::{Duration, Instant};

use pdgf::output::{CsvFormatter, Formatter, JsonFormatter, NullSinkFactory};
use pdgf::runtime::{GenerationRun, RunReport};
use pdgf::{Pdgf, PdgfProject};

use crate::host;
use crate::process::{self, TempDir};
use crate::spec::{Metrics, Workload};
use crate::verify::{check_generation, Fingerprint, TableCheck};
use crate::{Outcome, Res, Tally};

/// TPC-H scale factor of one operation of the two TPC-H batch workloads
/// (433,030 rows, 55.7 MB of CSV): large enough that every worker has
/// packages for most of the operation, small enough that a 12-second
/// window holds some forty operations.
pub const TPCH_SF: &str = "0.05";
/// BigBench scale factor of one operation (1,245,900 rows of JSON).
pub const BIGBENCH_SF: &str = "15";
/// Scale factor of the cold `pdgf generate` that measures CLI set-up.
const SETUP_SF: &str = "0.0001";
/// Cold set-ups per run; the median is reported.
const IN_PROCESS_SETUPS: usize = 101;
/// Cold set-ups per run of the workloads that start a `pdgf` process.
pub const SUBPROCESS_SETUPS: usize = 51;

/// The TPC-H project every TPC-H path is compared against: the shipped
/// XML model at scale factor `sf`, seeded with the run's seed.
pub fn tpch_project(sf: &str, seed: u64) -> Res<PdgfProject> {
    Ok(Pdgf::from_xml_file(process::tpch_model())?
        .set_property("SF", sf)
        .seed(seed)
        .workers(host::workers())
        .build()?)
}

/// The BigBench project at [`BIGBENCH_SF`], seeded with the run's seed.
pub fn bigbench_project(seed: u64) -> Res<PdgfProject> {
    Ok(Pdgf::from_schema(workloads::bigbench::schema(seed))
        .resolver(workloads::bigbench::resolver())
        .set_property("SF", BIGBENCH_SF)
        .workers(host::workers())
        .build()?)
}

/// Time `n` cold runs of `setup`, in seconds. What a set-up returns is
/// dropped after its clock stops, so tearing it down is not counted.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> Res<T>) -> Res<Vec<f64>> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let ready = setup()?;
            let seconds = t.elapsed().as_secs_f64();
            drop(ready);
            Ok(seconds)
        })
        .collect()
}

/// One operation of a closed loop, as the operation itself reports it.
#[derive(Debug, Clone, Copy)]
pub struct Operation {
    /// Seconds it took, as its caller saw them. Checking the result is
    /// part of the loop but not of this time.
    pub latency: f64,
    /// Bytes it delivered.
    pub bytes: u64,
    /// Output checks made on its result.
    pub checks: Tally,
}

/// What a closed loop of back-to-back operations measured.
pub struct Window {
    /// Every recorded operation of every caller.
    pub operations: Vec<Operation>,
    /// Output checks of every operation, warm-up included.
    pub checks: Tally,
    /// Wall time the operations ran in.
    pub wall: Duration,
}

/// Callers in a closed loop, one thread each: every caller runs its
/// operation back to back for `warmup` seconds unrecorded and at least
/// once, then for `seconds` and at least once. `make` builds caller `i`'s
/// operation on that caller's thread. The window runs from the first
/// caller's first recorded operation to the last caller's last.
pub fn closed_loop<Op>(
    callers: usize,
    warmup: f64,
    seconds: f64,
    make: impl Fn(usize) -> Res<Op> + Sync,
) -> Res<Window>
where
    Op: FnMut() -> Res<Operation>,
{
    struct Caller {
        operations: Vec<Operation>,
        warmup_checks: Tally,
        started: Instant,
        ended: Instant,
    }
    let run = |caller: usize| -> Res<Caller> {
        let mut operation = make(caller)?;
        let warming = Instant::now();
        let mut warmup_checks = operation()?.checks;
        while warming.elapsed().as_secs_f64() < warmup {
            warmup_checks.absorb(operation()?.checks);
        }
        let mut operations = Vec::new();
        let started = Instant::now();
        while operations.is_empty() || started.elapsed().as_secs_f64() < seconds {
            operations.push(operation()?);
        }
        Ok(Caller {
            operations,
            warmup_checks,
            started,
            ended: Instant::now(),
        })
    };
    // A boxed error does not cross threads; its message does.
    let results: Vec<Result<Caller, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| scope.spawn(move || run(c).map_err(|e| e.to_string())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a caller panicked".into())))
            .collect()
    });
    let callers = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let opened = callers.iter().map(|c| c.started).min();
    let closed = callers.iter().map(|c| c.ended).max();
    let (opened, closed) = opened.zip(closed).ok_or("a closed loop needs a caller")?;
    let mut checks = Tally::default();
    for c in &callers {
        checks.absorb(c.warmup_checks);
        c.operations.iter().for_each(|o| checks.absorb(o.checks));
    }
    Ok(Window {
        operations: callers.into_iter().flat_map(|c| c.operations).collect(),
        checks,
        wall: closed - opened,
    })
}

impl Window {
    /// Record the end-to-end metrics of this window.
    pub fn record(&self, metrics: &mut Metrics) {
        let wall = self.wall.as_secs_f64();
        let bytes: u64 = self.operations.iter().map(|o| o.bytes).sum();
        let mut latencies: Vec<f64> = self.operations.iter().map(|o| o.latency).collect();
        crate::sort(&mut latencies);
        metrics.set("mb_per_s", bytes as f64 / 1e6 / wall);
        metrics.set("qps", latencies.len() as f64 / wall);
        metrics.set("p50_ms", crate::median_sorted(&latencies) * 1e3);
        metrics.set("p95_ms", crate::percentile_sorted(&latencies, 95.0) * 1e3);
    }
}

/// Count the tables of the verification run that missed the oracle.
fn tally_oracle(tally: &mut Tally, checks: &[TableCheck]) {
    for c in checks {
        tally.check(c.matches_oracle);
    }
}

/// The two in-process workloads: `generate` runs one data set into null
/// sinks through the measured path.
fn null_sink_workload(
    seconds: f64,
    build: impl Fn() -> Res<PdgfProject>,
    formatter: &dyn Formatter,
    generate: impl Fn(&PdgfProject) -> Res<RunReport> + Sync,
) -> Res<Outcome> {
    let mut metrics = Metrics::new();
    let setups = time_setups(IN_PROCESS_SETUPS, &build)?;
    metrics.set("setup_s", crate::median(&setups));

    let project = build()?;
    let mut tally = Tally::default();
    let tables = check_generation(project.runtime(), project.config(), formatter)?;
    tally_oracle(&mut tally, &tables);

    let window = closed_loop(1, 0.0, seconds, |_| {
        Ok(|| {
            let t = Instant::now();
            let report = generate(&project)?;
            let latency = t.elapsed().as_secs_f64();
            // Every repetition must deliver what the verified run delivered.
            let mut checks = Tally::default();
            for (t, c) in report.tables.iter().zip(&tables) {
                checks.check(t.table == c.table && t.bytes == c.stream.bytes);
            }
            Ok(Operation {
                latency,
                bytes: report.total_bytes(),
                checks,
            })
        })
    })?;
    window.record(&mut metrics);
    tally.absorb(window.checks);
    Ok(Outcome { tally, metrics })
}

/// `tpch_csv_null`: all eight TPC-H tables as CSV through
/// [`PdgfProject::generate_to_null`].
pub fn tpch_csv_null(seed: u64, seconds: f64) -> Res<Outcome> {
    null_sink_workload(
        seconds,
        || tpch_project(TPCH_SF, seed),
        &CsvFormatter::new(),
        |p| Ok(p.generate_to_null(None)?),
    )
}

/// `bigbench_json_null`: all seven BigBench tables as JSON through
/// [`GenerationRun::run`] with null sinks.
pub fn bigbench_json_null(seed: u64, seconds: f64) -> Res<Outcome> {
    null_sink_workload(
        seconds,
        || bigbench_project(seed),
        &JsonFormatter,
        |p| {
            Ok(GenerationRun::new(p.runtime(), p.config().clone())
                .run(&JsonFormatter, NullSinkFactory)?)
        },
    )
}

/// `tpch_csv_file`: the real `pdgf generate` subprocess writing files,
/// process start and model loading included in every operation.
pub fn tpch_csv_file(seed: u64, seconds: f64) -> Res<Outcome> {
    let pdgf = process::pdgf_binary()?;
    let tmp = TempDir::new(Workload::TpchCsvFile.name())?;
    let mut metrics = Metrics::new();
    // Every set-up writes a directory of its own, removed once its clock
    // has stopped (see the operation below for why not the same one).
    let setups = time_setups(SUBPROCESS_SETUPS, || {
        let out = TempDir::adopt(tmp.path().join("setup"));
        process::generate(&pdgf, SETUP_SF, seed, out.path())?;
        Ok(out)
    })?;
    metrics.set("setup_s", crate::median(&setups));

    // The in-process run of the same model, scale and seed is checked
    // against the oracle; the files must then equal that run.
    let reference = tpch_project(TPCH_SF, seed)?;
    let mut tally = Tally::default();
    let tables = check_generation(
        reference.runtime(),
        reference.config(),
        &CsvFormatter::new(),
    )?;
    tally_oracle(&mut tally, &tables);

    let data = tmp.path().join("data");
    let file_of = |c: &TableCheck| data.join(format!("{}.csv", c.table));
    let bytes_per_set: u64 = tables.iter().map(|c| c.stream.bytes).sum();
    let window = closed_loop(1, 0.0, seconds, |_| {
        Ok(|| {
            // A fresh directory every time, as a user's is. Writing over
            // the previous files instead makes ext4 flush each one when
            // it is closed (its guard for replace-by-truncate), 2.7 GB to
            // the disk per run, and the workload then follows the host's
            // disk: one run in five lost a third of its rate, some 60%.
            // Files that are removed before writeback never reach it.
            if data.exists() {
                std::fs::remove_dir_all(&data)?;
            }
            let latency = process::generate(&pdgf, TPCH_SF, seed, &data)?.as_secs_f64();
            let mut checks = Tally::default();
            for c in &tables {
                let len = std::fs::metadata(file_of(c)).map_or(0, |m| m.len());
                checks.check(len == c.stream.bytes);
            }
            Ok(Operation {
                latency,
                bytes: bytes_per_set,
                checks,
            })
        })
    })?;
    window.record(&mut metrics);
    tally.absorb(window.checks);
    for c in &tables {
        tally.check(Fingerprint::of_file(&file_of(c)).is_ok_and(|f| f == c.stream));
    }
    Ok(Outcome { tally, metrics })
}
