//! Batch generation: a project's table jobs as clients of the execution
//! core.
//!
//! [`run_project`] is the batch face of the `engine` module: it submits
//! each [`TableJob`] as one range request carrying the job's [`Framing`]
//! and drains the resulting package streams, in job order, into the
//! jobs' sinks on the calling thread. Workers are scoped threads running
//! the core's one worker loop over the borrowed schema and formatter.
//! `workers == 0` is the same drain with no workers and a window of 0:
//! nothing is ever queued, so the reader renders every package itself.
//! Written buffers go back to the core's pool, so after warm-up the
//! steady state allocates nothing per package.
//!
//! Memory stays bounded however many jobs a project has: the run keeps
//! at most `workers * 4` tickets in flight across all live streams, and
//! admits job *k+1* only once job *k* has issued its last ticket — which
//! is also what lets the next table absorb idle workers during each
//! table's tail. Every stream is byte-identical to a sequential run of
//! its job alone.
//!
//! Framing ([`Framing`]) makes node sharding exact for framed formats: a
//! shard emits the formatter's `begin`/`end` bytes only when it owns the
//! start/end of the table, so concatenated shard outputs equal the
//! single-node byte stream for XML as for the unframed formats.
//!
//! Telemetry rides along without touching the bytes: a run accepts one
//! optional [`Telemetry`]. Phase timings travel with each delivered
//! package and the output stage bumps progress counters and publishes
//! run/job/package events — all copies of counters flowing outward,
//! nothing flowing back into generation, so output stays a pure function
//! of (schema, seed, format) with or without an observer.

use std::collections::VecDeque;
use std::io;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{Formatter, Sink, TableMeta};

use crate::engine::{Engine, Held, Package, StopOnDrop, Stream, WorkerState};
use crate::package::{Framing, TableJob};
use crate::telemetry::{mb_per_s, now_ns, seconds_since, RunScope, Telemetry};

/// Scheduler configuration, built fluently and validated at set time:
///
/// ```
/// use pdgf_runtime::RunConfig;
/// let cfg = RunConfig::new().workers(8).package_rows(16_384);
/// assert_eq!(cfg.worker_threads(), 8);
/// assert_eq!(cfg.rows_per_package(), 16_384);
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads. `0` runs inline: the calling thread renders every
    /// package itself, with no thread or queue overhead.
    pub(crate) workers: usize,
    /// Rows per work package; always ≥ 1.
    pub(crate) package_rows: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            workers: available_workers(),
            package_rows: 10_000,
        }
    }
}

impl RunConfig {
    /// Start from the defaults: one worker per available core, 10 000
    /// rows per package.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count. `0` means inline execution on the
    /// calling thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the rows per work package.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0 — a zero-row package cannot make progress,
    /// and catching the misconfiguration at build time beats an infinite
    /// scheduling loop at run time.
    pub fn package_rows(mut self, rows: u64) -> Self {
        assert!(rows > 0, "RunConfig::package_rows must be at least 1");
        self.package_rows = rows;
        self
    }

    /// Configured worker thread count (`0` = inline).
    pub fn worker_threads(&self) -> usize {
        self.workers
    }

    /// Configured rows per work package.
    pub fn rows_per_package(&self) -> u64 {
        self.package_rows
    }
}

/// Default worker count: one per available core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Result of generating one table (or table shard).
#[derive(Debug, Clone, Default)]
pub struct TableRunStats {
    /// Rows actually written to the sink (counted from the packages the
    /// output stage wrote, not assumed from the requested range).
    pub rows: u64,
    /// Bytes this run wrote to the sink — the delta produced by this job,
    /// not the sink's cumulative total, so reusing one sink across table
    /// runs (single-file multi-table output) does not over-count.
    pub bytes: u64,
    /// Wall-clock seconds from run start until this job's output was
    /// fully written. In a project run tables overlap in time, so this is
    /// a completion time, not an exclusive-occupancy time.
    pub seconds: f64,
}

impl TableRunStats {
    /// Megabytes per second.
    pub fn throughput_mb_s(&self) -> f64 {
        mb_per_s(self.bytes, self.seconds)
    }
}

/// Metadata for a runtime table.
pub fn table_meta(rt: &SchemaRuntime, table: u32) -> TableMeta {
    let t = &rt.tables()[table as usize];
    TableMeta {
        name: t.name.clone(),
        columns: t.columns.iter().map(|c| c.name.clone()).collect(),
    }
}

/// Generate rows `rows` of `table` (update epoch `update`), formatted by
/// `formatter`, into `sink`. Output bytes are identical for any worker
/// count — the determinism contract the test suite checks.
///
/// Framing is positional: `formatter.begin` is emitted only when the
/// range starts at row 0 and `formatter.end` only when it reaches the
/// table's last row, so node shards of framed formats concatenate into
/// exactly the single-node byte stream. Build a [`TableJob`] and call
/// [`run_project`] for explicit control over framing.
///
/// `telemetry` attaches the run's observer: `None` or `&telemetry`.
#[allow(clippy::too_many_arguments, reason = "the coordinate set is the API")]
pub fn generate_table_range<'a>(
    rt: &SchemaRuntime,
    table: u32,
    update: u32,
    rows: std::ops::Range<u64>,
    formatter: &dyn Formatter,
    sink: &mut dyn Sink,
    cfg: &RunConfig,
    telemetry: impl Into<Option<&'a Telemetry>>,
) -> io::Result<TableRunStats> {
    let size = rt.tables()[table as usize].size;
    let job = TableJob {
        table,
        update,
        framing: Framing::for_range(&rows, size),
        rows,
    };
    let stats = run_project(rt, &[job], formatter, &mut [sink], cfg, telemetry)?;
    stats
        .into_iter()
        .next()
        .ok_or_else(|| io::Error::other("run_project returned no stats for its single job"))
}

/// Tickets a batch run keeps in flight across all its live streams: deep
/// enough that workers never idle behind one slow write, shallow enough
/// that rendered-but-unwritten packages stay O(workers).
pub(crate) fn window(workers: usize) -> u64 {
    workers as u64 * 4
}

/// Generate every job of a project through one worker pool.
///
/// `jobs[i]` writes to `sinks[i]`; each sink receives its job's bytes in
/// row order (byte-identical to a sequential run of that job alone),
/// while the pool keeps all workers busy across job boundaries. Sinks are
/// *not* [`finish`](Sink::finish)ed — that stays with the caller, which
/// may reuse a sink across runs.
///
/// On the first sink error the run aborts: the live streams are dropped,
/// which cancels their unrendered packages, the error is returned, and
/// no worker outlives the call — an error on one table cannot deadlock
/// workers that have moved on to the next.
///
/// `telemetry` attaches the run's observer: `None` or `&telemetry`. It
/// sees lifecycle events, counters and timings; it cannot affect
/// generated bytes.
pub fn run_project<'a>(
    rt: &SchemaRuntime,
    jobs: &[TableJob],
    formatter: &dyn Formatter,
    sinks: &mut [&mut dyn Sink],
    cfg: &RunConfig,
    telemetry: impl Into<Option<&'a Telemetry>>,
) -> io::Result<Vec<TableRunStats>> {
    assert_eq!(jobs.len(), sinks.len(), "one sink per job");
    let started = now_ns();
    let scope: Option<RunScope> = telemetry.into().map(|t| {
        let jobs = jobs.iter().map(|j| {
            let table = rt.tables()[j.table as usize].name.as_str();
            (table, j.rows.end.saturating_sub(j.rows.start))
        });
        t.begin_run(jobs, cfg.workers)
    });

    // Written buffers return to the engine's pool and workers take them
    // back out; sized past the window so a full pipeline keeps recycling.
    let idle_buffers = window(cfg.workers) as usize + cfg.workers + 1;
    let mut engine = Engine::new(cfg.package_rows, idle_buffers, scope);
    let (result, stats) = run_jobs(&engine, rt, jobs, formatter, sinks, cfg.workers, started);

    if let Some(scope) = engine.scope.take() {
        // Success or failure, the scope closes with a terminal
        // `RunFinished` carrying whatever was actually written — so a
        // subscriber draining to JSONL always sees a terminated stream
        // (on errors: the `SinkError` from the output stage, then this).
        let rows = stats.iter().map(|s| s.rows).sum();
        let bytes = stats.iter().map(|s| s.bytes).sum();
        scope.finish(rows, bytes, seconds_since(started));
    }
    result?;
    Ok(stats)
}

/// Run `jobs` on `engine` with `workers` scoped worker threads (0 = the
/// reader renders every package). Returns the per-job statistics of
/// whatever was written next to the run's outcome.
fn run_jobs<'a>(
    engine: &Engine<'a>,
    rt: &'a SchemaRuntime,
    jobs: &[TableJob],
    formatter: &'a dyn Formatter,
    sinks: &mut [&mut dyn Sink],
    workers: usize,
    started: u64,
) -> (io::Result<()>, Vec<TableRunStats>) {
    let mut out = Output {
        sinks,
        stats: vec![TableRunStats::default(); jobs.len()],
        scope: engine.scope.as_ref(),
        started,
    };
    let open =
        |job: &TableJob| engine.open(Held::Borrowed(rt), Held::Borrowed(formatter), job.clone());
    let result = std::thread::scope(|threads| {
        // The engine stops however this closure exits, so the scope can
        // always join its workers; a worker that unwinds stops it too, so
        // the drain below ends instead of waiting forever.
        let _stop = StopOnDrop(engine);
        for worker in 0..workers {
            threads.spawn(move || {
                let _stop = StopOnDrop(engine);
                engine.worker_loop(worker)
            });
        }
        drain_streams(engine, jobs, open, window(workers), &mut out)
    });
    (result, out.stats)
}

/// Open each job's stream in job order, keep `window` tickets in flight
/// across the live ones, and write the front stream's packages in order.
/// With a window of 0 nothing is ever issued, so the reader renders every
/// package itself through [`Stream::next`]: the inline run.
fn drain_streams<'a>(
    engine: &Engine<'a>,
    jobs: &[TableJob],
    open: impl Fn(&TableJob) -> Stream<'a>,
    window: u64,
    out: &mut Output<'_, '_>,
) -> io::Result<()> {
    let mut state = WorkerState::default();
    let mut live: VecDeque<(usize, Stream<'a>)> = VecDeque::new();
    let mut admitted = 0;
    loop {
        // Top up: every live stream but the newest is fully issued, so
        // the spare budget goes to the newest, and the next job is
        // admitted once that one has issued its last ticket — or at once
        // when no stream is live.
        let mut budget = window - live.iter().map(|(_, s)| s.in_flight()).sum::<u64>();
        loop {
            if let Some((_, newest)) = live.back_mut() {
                budget -= newest.issue(engine, budget);
                if !newest.is_fully_issued() {
                    break;
                }
            }
            if admitted == jobs.len() || (budget == 0 && !live.is_empty()) {
                break;
            }
            live.push_back((admitted, open(&jobs[admitted])));
            admitted += 1;
        }

        let Some((idx, stream)) = live.front_mut() else {
            return Ok(());
        };
        match stream.next(engine, &mut state) {
            Some(pkg) => {
                let written = out.write(*idx, stream.delivered() - 1, &pkg);
                engine.buffers.put(pkg.bytes);
                written?;
            }
            None if stream.is_exhausted() => {
                out.finish_job(*idx);
                live.pop_front();
            }
            None => {
                return Err(io::Error::other(
                    "worker pool stopped before the run completed",
                ))
            }
        }
    }
}

/// The output stage: the run's sinks and statistics plus its (optional)
/// telemetry scope. Every hook runs on the calling thread, so the order
/// of published events matches the order sinks observe writes.
struct Output<'r, 's> {
    sinks: &'r mut [&'s mut dyn Sink],
    stats: Vec<TableRunStats>,
    scope: Option<&'r RunScope>,
    /// [`now_ns`] at run start.
    started: u64,
}

impl Output<'_, '_> {
    /// Write package `seq` of job `idx` to its sink. A package without
    /// bytes (an empty shard whose format has no framing) is not a write.
    fn write(&mut self, idx: usize, seq: u64, pkg: &Package) -> io::Result<()> {
        if pkg.bytes.is_empty() {
            return Ok(());
        }
        if let Some(scope) = self.scope {
            scope.job_started(idx);
            scope.begin_write(idx);
        }
        let write_started = self.scope.map(|_| now_ns());
        let write_result = self.sinks[idx].write_chunk(&pkg.bytes);
        if let Some(scope) = self.scope {
            scope.end_write();
            if let Err(e) = &write_result {
                scope.sink_error(idx, e);
            }
        }
        write_result?;
        let bytes = pkg.bytes.len() as u64;
        self.stats[idx].rows += pkg.rows;
        self.stats[idx].bytes += bytes;
        if let (Some(scope), Some(w0)) = (self.scope, write_started) {
            let mut timings = pkg.timings;
            timings.write_ns = now_ns().saturating_sub(w0);
            scope.package_completed(idx, seq, pkg.rows, bytes, timings);
        }
        Ok(())
    }

    /// Stamp job `idx`'s completion time. Called exactly once per job,
    /// when its last package is written — or immediately for jobs with no
    /// packages.
    fn finish_job(&mut self, idx: usize) {
        self.stats[idx].seconds = seconds_since(self.started);
        if let Some(scope) = self.scope {
            // Jobs that wrote no bytes have not announced themselves yet;
            // `job_started` is idempotent.
            scope.job_started(idx);
            scope.job_finished(idx, &self.stats[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
    use std::sync::Arc;

    use pdgf_output::{CsvFormatter, JsonFormatter, MemorySink, SqlFormatter, XmlFormatter};

    use crate::oracle::oracle_bytes;
    use crate::testkit::{runtime, runtime_of};

    /// Runtime with several tables `t0`, `t1`, … of the given sizes.
    fn multi_runtime(sizes: &[u64]) -> SchemaRuntime {
        let names: Vec<String> = (0..sizes.len()).map(|i| format!("t{i}")).collect();
        let tables: Vec<(&str, u64)> = names
            .iter()
            .map(String::as_str)
            .zip(sizes.iter().copied())
            .collect();
        runtime_of(&tables)
    }

    fn run_fmt(
        rt: &SchemaRuntime,
        formatter: &dyn Formatter,
        workers: usize,
        package_rows: u64,
    ) -> String {
        let mut sink = MemorySink::new();
        let cfg = RunConfig::new().workers(workers).package_rows(package_rows);
        let stats = generate_table_range(
            rt,
            0,
            0,
            0..rt.tables()[0].size,
            formatter,
            &mut sink,
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(stats.rows, rt.tables()[0].size);
        assert_eq!(stats.bytes, sink.bytes_written());
        sink.as_str().to_string()
    }

    fn run(rt: &SchemaRuntime, workers: usize, package_rows: u64) -> String {
        run_fmt(rt, &CsvFormatter::new(), workers, package_rows)
    }

    #[test]
    fn config_builder_defaults_and_setters() {
        let d = RunConfig::default();
        assert_eq!(d.worker_threads(), available_workers());
        assert_eq!(d.rows_per_package(), 10_000);
        let cfg = RunConfig::new().workers(0).package_rows(1);
        assert_eq!(cfg.worker_threads(), 0, "0 workers = inline is legal");
        assert_eq!(cfg.rows_per_package(), 1);
    }

    #[test]
    #[should_panic(expected = "package_rows must be at least 1")]
    fn config_builder_rejects_zero_package_rows() {
        let _ = RunConfig::new().package_rows(0);
    }

    #[test]
    fn inline_output_has_one_line_per_row() {
        let rt = runtime(100);
        let out = run(&rt, 0, 10);
        assert_eq!(out.lines().count(), 100);
        assert!(out.starts_with("1,"));
    }

    #[test]
    fn parallel_output_is_byte_identical_to_inline() {
        let rt = runtime(5_000);
        let reference = run(&rt, 0, 128);
        for workers in [1, 2, 4, 8] {
            for pkg in [7, 100, 1024, 100_000] {
                assert_eq!(
                    run(&rt, workers, pkg),
                    reference,
                    "workers={workers} pkg={pkg}"
                );
            }
        }
    }

    #[test]
    fn every_format_is_byte_identical_across_parallelism() {
        let rt = runtime(2_000);
        let formatters: [&dyn Formatter; 4] = [
            &CsvFormatter::new(),
            &JsonFormatter,
            &XmlFormatter,
            &SqlFormatter::new(),
        ];
        for formatter in formatters {
            let reference = run_fmt(&rt, formatter, 0, 128);
            for workers in [1, 2, 4] {
                for pkg in [7, 256, 100_000] {
                    assert_eq!(
                        run_fmt(&rt, formatter, workers, pkg),
                        reference,
                        "format={} workers={workers} pkg={pkg}",
                        formatter.name()
                    );
                }
            }
        }
    }

    /// The engine produces the row oracle's bytes for every format,
    /// worker count, and package size — including ragged tails.
    #[test]
    fn columnar_path_matches_row_path_bytes() {
        let rt = runtime(1_500);
        let formatters: [&dyn Formatter; 4] = [
            &CsvFormatter::new(),
            &JsonFormatter,
            &XmlFormatter,
            &SqlFormatter::new(),
        ];
        for formatter in formatters {
            let oracle = oracle_bytes(&rt, 0, 0, 0..rt.tables()[0].size, formatter);
            for workers in [0usize, 2] {
                for pkg in [7u64, 256, 100_000] {
                    assert_eq!(
                        run_fmt(&rt, formatter, workers, pkg).as_bytes(),
                        oracle,
                        "format={} workers={workers} pkg={pkg}",
                        formatter.name()
                    );
                }
            }
        }
    }

    /// The heart of the project pool: every table's stream is byte-
    /// identical to its own sequential run, for every worker count, even
    /// though the pool interleaves tables.
    #[test]
    fn project_run_streams_match_sequential_per_table_runs() {
        let rt = multi_runtime(&[1, 700, 0, 2_500, 35, 1_200]);
        let formatters: [&dyn Formatter; 2] = [&CsvFormatter::new(), &XmlFormatter];
        for formatter in formatters {
            let reference: Vec<String> = (0..rt.tables().len())
                .map(|t| {
                    let mut sink = MemorySink::new();
                    generate_table_range(
                        &rt,
                        t as u32,
                        0,
                        0..rt.tables()[t].size,
                        formatter,
                        &mut sink,
                        &RunConfig::new().workers(0).package_rows(64),
                        None,
                    )
                    .unwrap();
                    sink.as_str().to_string()
                })
                .collect();
            for workers in [0usize, 1, 2, 4, 8] {
                let jobs = full_table_jobs(&rt);
                let mut sinks: Vec<MemorySink> =
                    (0..jobs.len()).map(|_| MemorySink::new()).collect();
                {
                    let mut refs: Vec<&mut dyn Sink> =
                        sinks.iter_mut().map(|s| s as &mut dyn Sink).collect();
                    let stats = run_project(
                        &rt,
                        &jobs,
                        formatter,
                        &mut refs,
                        &RunConfig::new().workers(workers).package_rows(77),
                        None,
                    )
                    .unwrap();
                    for (t, s) in stats.iter().enumerate() {
                        assert_eq!(s.rows, rt.tables()[t].size, "table {t} rows");
                    }
                }
                for (t, sink) in sinks.iter().enumerate() {
                    assert_eq!(
                        sink.as_str(),
                        reference[t],
                        "format={} workers={workers} table={t}",
                        formatter.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sub_ranges_generate_the_matching_slice() {
        let rt = runtime(1000);
        let all = run(&rt, 0, 100);
        let mut sink = MemorySink::new();
        let stats = generate_table_range(
            &rt,
            0,
            0,
            200..300,
            &CsvFormatter::new(),
            &mut sink,
            &RunConfig::new().workers(2).package_rows(17),
            None,
        )
        .unwrap();
        assert_eq!(stats.rows, 100, "rows reflect the requested sub-range");
        let slice: Vec<&str> = all.lines().skip(200).take(100).collect();
        let got: Vec<&str> = sink.as_str().lines().collect();
        assert_eq!(got, slice);
    }

    /// Sharded framing: only the shard containing row 0 emits `begin`,
    /// only the shard reaching the last row emits `end`, so concatenated
    /// shards equal the whole-table bytes for framed formats.
    #[test]
    fn shards_concatenate_to_whole_table_bytes_for_framed_formats() {
        let rt = runtime(100);
        let formatters: [&dyn Formatter; 3] =
            [&CsvFormatter::new(), &XmlFormatter, &SqlFormatter::new()];
        for formatter in formatters {
            let whole = run_fmt(&rt, formatter, 2, 13);
            let mut concat = String::new();
            for shard in [0..40u64, 40..70, 70..100] {
                let mut sink = MemorySink::new();
                generate_table_range(
                    &rt,
                    0,
                    0,
                    shard,
                    formatter,
                    &mut sink,
                    &RunConfig::new().workers(2).package_rows(13),
                    None,
                )
                .unwrap();
                concat.push_str(sink.as_str());
            }
            assert_eq!(concat, whole, "format={}", formatter.name());
        }
    }

    #[test]
    fn monitor_sees_all_rows_and_bytes() {
        let rt = runtime(1000);
        let telemetry = Telemetry::new();
        let mut sink = MemorySink::new();
        generate_table_range(
            &rt,
            0,
            0,
            0..1000,
            &CsvFormatter::new(),
            &mut sink,
            &RunConfig::new().workers(3).package_rows(64),
            &telemetry,
        )
        .unwrap();
        let snap = telemetry.progress();
        assert_eq!(snap.rows, 1000);
        assert_eq!(snap.bytes, sink.bytes_written());
        assert!(snap.packages >= 1000 / 64);
        // Per-table counters agree with the aggregate for a one-table run.
        let tables = telemetry.table_progress();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].table, "t");
        assert_eq!(tables[0].rows, 1000);
        assert_eq!(tables[0].bytes, snap.bytes);
    }

    /// Sink that holds every write for a few milliseconds, so the
    /// watchdog samples the pending-work gauge mid-run.
    struct SlowSink(MemorySink);

    impl Sink for SlowSink {
        fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
            std::thread::sleep(std::time::Duration::from_millis(10));
            self.0.write_chunk(bytes)
        }
        fn finish(&mut self) -> io::Result<u64> {
            self.0.finish()
        }
        fn bytes_written(&self) -> u64 {
            self.0.bytes_written()
        }
    }

    /// An inline run's reader renders every package itself, so none is
    /// ever issued to the engine and the pending-work gauge stays at zero
    /// for the whole run.
    #[test]
    fn inline_packages_are_never_counted_as_queued() {
        let rt = runtime(400);
        // A 20 ms stall timeout makes the watchdog sample every 5 ms.
        let telemetry = Telemetry::with_stall_timeout(std::time::Duration::from_millis(20));
        let mut sink = SlowSink(MemorySink::new());
        let csv = CsvFormatter::new();
        let cfg = RunConfig::new().workers(0).package_rows(50);
        generate_table_range(&rt, 0, 0, 0..400, &csv, &mut sink, &cfg, &telemetry).unwrap();
        assert_eq!(
            sink.0.as_str().as_bytes(),
            oracle_bytes(&rt, 0, 0, 0..400, &csv)
        );
        let depth = telemetry.metrics().queue_depth;
        assert!(depth.samples > 0, "the watchdog sampled the run");
        assert_eq!(depth.max, 0, "an inline package was counted as queued");
    }

    #[test]
    fn monitor_tracks_headers_and_tables_separately() {
        let rt = multi_runtime(&[100, 300]);
        let telemetry = Telemetry::new();
        let jobs = [TableJob::full_table(0, 100), TableJob::full_table(1, 300)];
        let mut s0 = MemorySink::new();
        let mut s1 = MemorySink::new();
        {
            let mut refs: Vec<&mut dyn Sink> = vec![&mut s0, &mut s1];
            run_project(
                &rt,
                &jobs,
                &XmlFormatter,
                &mut refs,
                &RunConfig::new().workers(2).package_rows(32),
                &telemetry,
            )
            .unwrap();
        }
        let tables = telemetry.table_progress();
        let (t0, t1) = (&tables[0], &tables[1]);
        assert_eq!((t0.table.as_str(), t1.table.as_str()), ("t0", "t1"));
        assert_eq!(t0.rows, 100);
        assert_eq!(t1.rows, 300);
        assert_eq!(t0.bytes, s0.bytes_written(), "framing bytes included");
        assert_eq!(t1.bytes, s1.bytes_written());
        let snap = telemetry.progress();
        assert_eq!(snap.rows, 400);
        assert_eq!(snap.bytes, s0.bytes_written() + s1.bytes_written());
    }

    #[test]
    fn empty_table_produces_no_rows() {
        let rt = runtime(0);
        assert_eq!(run(&rt, 2, 10), "");
    }

    #[test]
    fn empty_table_still_owns_its_framing() {
        let rt = runtime(0);
        // An XML empty table is an open+close pair.
        let xml = run_fmt(&rt, &XmlFormatter, 2, 10);
        assert!(xml.starts_with("<t>"), "{xml}");
        assert!(xml.trim_end().ends_with("</t>"), "{xml}");
    }

    #[test]
    fn header_formatter_emits_begin_once() {
        let rt = runtime(10);
        let mut sink = MemorySink::new();
        generate_table_range(
            &rt,
            0,
            0,
            0..10,
            &XmlFormatter,
            &mut sink,
            &RunConfig::new().workers(2).package_rows(3),
            None,
        )
        .unwrap();
        let out = sink.as_str();
        assert!(out.starts_with("<t>\n"));
        assert_eq!(out.matches("<t>").count(), 1);
    }

    /// `TableRunStats::bytes` reports this run's delta, not the sink's
    /// cumulative counter, so reusing one sink across table runs (single-
    /// file multi-table output) does not over-count.
    #[test]
    fn stats_bytes_are_per_run_deltas_on_a_shared_sink() {
        let rt = multi_runtime(&[200, 500]);
        let mut sink = MemorySink::new();
        let cfg = RunConfig::new().workers(2).package_rows(64);
        let first = generate_table_range(
            &rt,
            0,
            0,
            0..200,
            &CsvFormatter::new(),
            &mut sink,
            &cfg,
            None,
        )
        .unwrap();
        let after_first = sink.bytes_written();
        assert_eq!(first.bytes, after_first);
        let second = generate_table_range(
            &rt,
            1,
            0,
            0..500,
            &CsvFormatter::new(),
            &mut sink,
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(
            second.bytes,
            sink.bytes_written() - after_first,
            "second run must report its own bytes, not the sink total"
        );
        assert!(second.bytes > 0);
    }

    struct FailingSink {
        wrote: u64,
        budget: u64,
    }

    impl Sink for FailingSink {
        fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
            if self.wrote + bytes.len() as u64 > self.budget {
                return Err(io::Error::other("disk full"));
            }
            self.wrote += bytes.len() as u64;
            Ok(())
        }
        fn finish(&mut self) -> io::Result<u64> {
            Ok(self.wrote)
        }
        fn bytes_written(&self) -> u64 {
            self.wrote
        }
    }

    #[test]
    fn failing_sink_surfaces_the_error() {
        let rt = runtime(10_000);
        let mut sink = FailingSink {
            wrote: 0,
            budget: 4_096,
        };
        let err = generate_table_range(
            &rt,
            0,
            0,
            0..10_000,
            &CsvFormatter::new(),
            &mut sink,
            &RunConfig::new().workers(2).package_rows(100),
            None,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    /// A sink error on table k must stop the whole pool without
    /// deadlocking workers that are already generating table k+1: the
    /// channel hang-up reaches every worker regardless of which job its
    /// current package belongs to.
    #[test]
    fn failing_sink_on_one_table_does_not_deadlock_the_project_pool() {
        let rt = multi_runtime(&[20_000, 20_000, 20_000]);
        let jobs = full_table_jobs(&rt);
        let mut ok0 = MemorySink::new();
        let mut bad = FailingSink {
            wrote: 0,
            budget: 2_048,
        };
        let mut ok2 = MemorySink::new();
        let mut refs: Vec<&mut dyn Sink> = vec![&mut ok0, &mut bad, &mut ok2];
        let err = run_project(
            &rt,
            &jobs,
            &CsvFormatter::new(),
            &mut refs,
            &RunConfig::new().workers(4).package_rows(100),
            None,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    fn full_table_jobs(rt: &SchemaRuntime) -> Vec<TableJob> {
        rt.tables()
            .iter()
            .enumerate()
            .map(|(t, table)| TableJob::full_table(t as u32, table.size))
            .collect()
    }

    /// Sink that tracks how many package buffers are out of the pool at
    /// each write. The run's first write waits until the pool has taken
    /// every buffer the window allows, then a little longer so a pool
    /// that over-issues shows itself; a correct pool is parked by then.
    struct GaugingSink {
        buffers: Arc<pdgf_output::BufferPool>,
        window: i64,
        gate_passed: Arc<AtomicBool>,
        peak: Arc<AtomicI64>,
    }

    impl Sink for GaugingSink {
        fn write_chunk(&mut self, _bytes: &[u8]) -> io::Result<()> {
            if !self.gate_passed.swap(true, Ordering::SeqCst) {
                let deadline = now_ns() + 30_000_000_000;
                while self.buffers.outstanding() < self.window {
                    assert!(now_ns() < deadline, "pool never filled its window");
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            self.peak
                .fetch_max(self.buffers.outstanding(), Ordering::SeqCst);
            Ok(())
        }
        fn finish(&mut self) -> io::Result<u64> {
            Ok(0)
        }
        fn bytes_written(&self) -> u64 {
            0
        }
    }

    /// Bounded memory across jobs: however many jobs a project has, the
    /// buffers out of the pool — being rendered, waiting for their turn,
    /// or in the writer's hand — never exceed the window plus that one.
    #[test]
    fn rendered_packages_outstanding_stay_proportional_to_workers() {
        let workers = 2;
        let rt = multi_runtime(&[600; 8]);
        let jobs = full_table_jobs(&rt);
        let formatter = CsvFormatter::new();
        let engine = Engine::new(50, 64, None);
        let gate_passed = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicI64::new(0));
        let mut sinks: Vec<GaugingSink> = (0..jobs.len())
            .map(|_| GaugingSink {
                buffers: Arc::clone(&engine.buffers),
                window: window(workers) as i64,
                gate_passed: Arc::clone(&gate_passed),
                peak: Arc::clone(&peak),
            })
            .collect();
        let mut refs: Vec<&mut dyn Sink> = sinks.iter_mut().map(|s| s as &mut dyn Sink).collect();
        let (result, stats) = run_jobs(
            &engine,
            &rt,
            &jobs,
            &formatter,
            &mut refs,
            workers,
            now_ns(),
        );
        result.unwrap();
        assert!(
            stats.iter().all(|s| s.rows == 600),
            "all 96 packages written"
        );
        let peak = peak.load(Ordering::SeqCst);
        let bound = window(workers) as i64 + 1;
        assert!(
            (bound - 1..=bound).contains(&peak),
            "peak {peak} buffers out of the pool, window bound {bound}"
        );
        assert_eq!(engine.buffers.outstanding(), 0, "every buffer came back");
    }

    /// CSV formatting that counts the packages rendered for one table.
    struct WatchingFormatter {
        inner: CsvFormatter,
        watch: &'static str,
        rendered: AtomicU64,
    }

    impl Formatter for WatchingFormatter {
        fn row(&self, out: &mut Vec<u8>, meta: &TableMeta, values: &[pdgf_schema::Value]) {
            self.inner.row(out, meta, values);
        }
        fn rows_columnar(
            &self,
            out: &mut Vec<u8>,
            meta: &TableMeta,
            batch: &pdgf_schema::ColumnBatch,
        ) {
            if meta.name == self.watch {
                self.rendered.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.rows_columnar(out, meta, batch);
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    /// Prompt failure: a sink failing on job 1 of 3 ends the run with
    /// that error before job 2 is ever admitted — its first ticket is
    /// issued only once job 1 has issued its last, and job 1 (200
    /// packages against a window of 8) fails on its first write. Every
    /// buffer the cancelled streams held is back in the pool.
    #[test]
    fn failing_sink_renders_nothing_of_later_jobs_and_strands_no_buffer() {
        let rt = multi_runtime(&[20_000, 20_000, 20_000]);
        let jobs = full_table_jobs(&rt);
        let mut ok0 = MemorySink::new();
        let mut bad = FailingSink {
            wrote: 0,
            budget: 0,
        };
        let mut ok2 = MemorySink::new();
        let mut refs: Vec<&mut dyn Sink> = vec![&mut ok0, &mut bad, &mut ok2];
        let formatter = WatchingFormatter {
            inner: CsvFormatter::new(),
            watch: "t2",
            rendered: AtomicU64::new(0),
        };
        let engine = Engine::new(100, 16, None);
        let (result, stats) = run_jobs(&engine, &rt, &jobs, &formatter, &mut refs, 2, now_ns());
        assert_eq!(result.unwrap_err().to_string(), "disk full");
        assert_eq!(stats[0].rows, 20_000, "job 0 completed before the failure");
        assert_eq!((stats[1].rows, stats[2].rows), (0, 0));
        assert_eq!(
            formatter.rendered.load(Ordering::SeqCst),
            0,
            "no package of job 2 was rendered"
        );
        assert_eq!(engine.buffers.outstanding(), 0, "take/put balance");
    }
}
