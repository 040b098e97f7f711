//! The traced run: every per-layer metric, timed from this crate around
//! the public calls of each layer, plus the ladder that checks the rungs
//! add up to the end-to-end time.
//!
//! A traced run measures three things, in this order:
//!
//! 1. [`rungs`] — each layer alone on fixed inputs (a PRNG draw, one
//!    table's column fill, one formatter on a filled batch, a sink write).
//!    These do not depend on the workload.
//! 2. [`pipeline`] — the workload's own rows, package by package on one
//!    thread with a span around each layer call, against the scheduler
//!    running the same rows inline and on 1 and N workers.
//! 3. [`serve_layers`] — the three request kinds through the socket and
//!    again through an in-process `RowService`, and the CLI's start-up.
//!
//! Every traced run prints every per-layer metric, so a reader of one
//! workload's row sees the whole ladder; `sched.*`, `gen.fill_value_ns`,
//! `ladder.*`, `trace.overhead_pct` and `serve.cpu_ms_per_req` are the
//! ones taken on the named workload's own rows and requests.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdgf::gen::{FsResolver, GenScratch, SchemaRuntime};
use pdgf::output::fmtfast;
use pdgf::output::{
    BufferPool, CsvFormatter, FileSink, Formatter, JsonFormatter, NullSink, ReorderBuffer, Sink,
};
use pdgf::prng::{mix64_pair, FeistelPermutation, PdgfDefaultRandom, PdgfRng, SeedTree, Zipf};
use pdgf::runtime::{
    generate_table_range, table_meta, RowRequest, RowService, RunConfig, ServeConfig, Telemetry,
};
use pdgf::schema::{ColumnBatch, Date};
use pdgf::{PdgfProject, ServeClient};

use crate::batch::{bigbench_project, tpch_project, TPCH_SF};
use crate::json::Json;
use crate::process::{self, TempDir};
use crate::serve::{self, Planned, PACKAGE_ROWS, SERVE_SF};
use crate::spec::{Metrics, Workload, PER_LAYER, RUNG_TABLES};
use crate::trace::{self_times, Tracer};
use crate::verify::Fingerprint;
use crate::{host, median, time_per_call, Outcome, Res, Tally};

/// Rows per package of the batch scheduler's default configuration.
const BATCH_PACKAGE_ROWS: u64 = 10_000;
/// Packages of each table the single-threaded replay covers.
const REPLAY_PACKAGES: u64 = 4;
/// Bytes of one pre-formatted package handed to the sink rungs.
const SINK_PACKAGE_BYTES: usize = 540_000;
/// Requests of each kind the serve layers send (and replay in process).
const TRACED_RANGES: usize = 16;
const TRACED_TILES: usize = 64;
const TRACED_POINTS: usize = 8_192;
/// Requests of a serve workload the pipeline replays as scheduler jobs:
/// a job has a fixed cost, and thousands of one-row jobs would take a
/// minute without telling more than hundreds do.
const PIPELINE_JOBS: usize = 512;
/// Unrecorded requests at the start of each client phase: a fresh
/// connection's first replies are acknowledged at once (Linux quick-ACK
/// mode), which the steady state of the timed run does not see.
const PHASE_WARMUP: usize = 16;

/// The declared (static) name equal to `name`; rung names are built from
/// table names at run time but must be declared ones.
fn declared(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|d| *d == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// One hundredth of the run's seconds: the unit rung budgets are cut in,
/// so a traced run takes about as long as a timed one.
fn slice(seconds: f64, hundredths: f64) -> Duration {
    Duration::from_secs_f64(seconds * hundredths / 100.0)
}

// ------------------------------------------------------------- rungs

/// Layers alone, on fixed inputs: `pdgf-prng`, `textsynth`, `fmtfast`,
/// reorder buffer, buffer pool, sinks, model loading, and per-table fill
/// and format.
fn rungs(metrics: &mut Metrics, seed: u64, seconds: f64, tmp: &TempDir) -> Res<()> {
    let budget = slice(seconds, 0.5);
    let mut rng = PdgfDefaultRandom::seed_from(seed);

    metrics.set(
        "prng.draw_ns",
        time_per_call(budget, 4_096, || {
            black_box(rng.next_u64());
        })
        .median,
    );
    let tree = SeedTree::new(seed, &[16; 8]);
    let mut i = 0u64;
    metrics.set(
        "prng.seed_ns",
        time_per_call(budget, 4_096, || {
            i += 1;
            let base = tree.update_seed((i % 8) as u32, (i % 16) as u32, 0);
            black_box(mix64_pair(black_box(base), i));
        })
        .median,
    );
    let zipf = Zipf::new(200_000, 0.8);
    metrics.set(
        "prng.zipf_ns",
        time_per_call(budget, 4_096, || {
            black_box(zipf.sample_rank(&mut || rng.next_u64()));
        })
        .median,
    );
    let permutation = FeistelPermutation::new(6_000_000, seed);
    metrics.set(
        "prng.permute_ns",
        time_per_call(budget, 4_096, || {
            i += 1;
            black_box(permutation.permute(black_box(i % 6_000_000)));
        })
        .median,
    );

    let markov = workloads::corpus::tpch_comment_model();
    let mut text = String::new();
    const WORDS: u32 = 12;
    metrics.set(
        "textsynth.markov_word_ns",
        time_per_call(budget, 256, || {
            text.clear();
            markov.generate_into(&mut || rng.next_u64(), WORDS, &mut text);
            black_box(&text);
        })
        .median
            / f64::from(WORDS),
    );

    // fmtfast writers on values drawn like the columns that use them.
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut fmt_rung = |name: &'static str, write: &mut dyn FnMut(&mut Vec<u8>, u64)| {
        let s = time_per_call(budget, 4_096, || {
            if out.len() > (1 << 16) - 64 {
                out.clear();
            }
            write(&mut out, rng.next_u64());
        });
        metrics.set(name, s.median);
    };
    fmt_rung("fmtfast.i64_ns", &mut |out, r| {
        fmtfast::write_i64(out, (r % 6_000_000) as i64)
    });
    fmt_rung("fmtfast.decimal_ns", &mut |out, r| {
        fmtfast::write_decimal(out, (r % 10_000_000) as i64, 2)
    });
    fmt_rung("fmtfast.date_ns", &mut |out, r| {
        fmtfast::write_date(out, Date(8_035 + (r % 2_500) as i32))
    });
    fmt_rung("fmtfast.f64_ns", &mut |out, r| {
        fmtfast::write_f64_shortest(out, (r % 1_000_000) as f64 / 100.0)
    });

    // Reorder buffer: packages arrive out of order by up to the window.
    const WINDOW: u64 = 4;
    let mut reorder: ReorderBuffer<u64> = ReorderBuffer::new();
    let mut next = 0u64;
    metrics.set(
        "reorder.push_pop_ns",
        time_per_call(budget, 1_024, || {
            for seq in (next..next + WINDOW).rev() {
                if let Some(ready) = reorder.push(seq, seq) {
                    black_box(ready);
                    while let Some(ready) = reorder.pop_ready() {
                        black_box(ready);
                    }
                }
            }
            next += WINDOW;
        })
        .median
            / WINDOW as f64,
    );
    let pool = BufferPool::new(8);
    metrics.set(
        "pool.take_put_ns",
        time_per_call(budget, 4_096, || {
            pool.put(black_box(pool.take_with_capacity(1 << 16)));
        })
        .median,
    );

    let package = vec![b'x'; SINK_PACKAGE_BYTES];
    let mut null = NullSink::new();
    metrics.set(
        "sink.null_write_ns",
        time_per_call(budget, 4_096, || {
            null.write_chunk(black_box(&package)).expect("null sink");
        })
        .median,
    );
    let file = tmp.path().join("sink.bin");
    let mut rates = Vec::new();
    for _ in 0..3 {
        const PACKAGES: usize = 100;
        let t = Instant::now();
        let mut sink = FileSink::create(&file)?;
        for _ in 0..PACKAGES {
            sink.write_chunk(&package)?;
        }
        let written = sink.finish()?;
        rates.push(written as f64 / 1e6 / t.elapsed().as_secs_f64());
    }
    metrics.set("sink.file_mb_per_s", median(&rates));

    model_rungs(metrics)?;
    table_rungs(metrics, seed, seconds)
}

/// Loading the TPC-H model: XML parse, analysis, runtime build.
fn model_rungs(metrics: &mut Metrics) -> Res<()> {
    const REPEATS: usize = 7;
    let path = process::tpch_model();
    let doc = std::fs::read_to_string(&path)?;
    let resolver = FsResolver::new(path.parent().expect("model has a directory"));
    let mut timings = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        let t = Instant::now();
        let schema = pdgf::schema::config::from_xml_string(&doc)?;
        timings[0].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(schema.analyze());
        timings[1].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(SchemaRuntime::build(&schema, &resolver)?);
        timings[2].push(t.elapsed().as_secs_f64() * 1e3);
    }
    metrics.set("schema.xml_parse_ms", median(&timings[0]));
    metrics.set("schema.analyze_ms", median(&timings[1]));
    metrics.set("gen.build_ms", median(&timings[2]));
    Ok(())
}

/// Fill and format of the five rung tables, 4,096-row batches: fill
/// walks the table batch by batch; each formatter runs on one filled
/// batch again and again.
fn table_rungs(metrics: &mut Metrics, seed: u64, seconds: f64) -> Res<()> {
    let tpch = tpch_project(SERVE_SF, seed)?;
    let bigbench = bigbench_project(seed)?;
    let csv = CsvFormatter::new();
    let formatters: [(&str, &dyn Formatter); 2] = [("csv", &csv), ("json", &JsonFormatter)];
    // Summed over the five tables: formatter nanoseconds and bytes.
    let mut per_byte = [(0.0, 0.0); 2];
    let mut scratch = GenScratch::default();
    let mut batch = ColumnBatch::new();
    for name in RUNG_TABLES {
        let rt = [tpch.runtime(), bigbench.runtime()]
            .into_iter()
            .find(|rt| rt.table_by_name(name).is_some())
            .ok_or_else(|| format!("no model has table {name}"))?;
        let (table, t) = rt.table_by_name(name).expect("found above");
        let batches = t.size / PACKAGE_ROWS;
        let mut k = 0;
        let fill = time_per_call(slice(seconds, 1.5), 1, || {
            let start = (k % batches) * PACKAGE_ROWS;
            k += 1;
            rt.fill_batch(
                table,
                0,
                start..start + PACKAGE_ROWS,
                &mut batch,
                &mut scratch,
            );
            black_box(&batch);
        });
        metrics.set(
            declared(&format!("gen.fill_row_ns.{name}")),
            fill.median / PACKAGE_ROWS as f64,
        );
        if name == serve::TABLE {
            let mut values = Vec::new();
            let mut row = 0;
            let point = time_per_call(slice(seconds, 0.5), 256, || {
                row = mix64_pair(seed, row) % t.size;
                rt.row_into_with_scratch(table, 0, row, &mut values, &mut scratch);
                black_box(&values);
            });
            metrics.set("gen.point_row_ns", point.median);
        }
        let meta = table_meta(rt, table);
        let mut out = Vec::new();
        for (f, (format, formatter)) in formatters.iter().enumerate() {
            let s = time_per_call(slice(seconds, 1.0), 1, || {
                out.clear();
                formatter.rows_columnar(&mut out, &meta, black_box(&batch));
                black_box(&out);
            });
            metrics.set(
                declared(&format!("fmt.{format}_row_ns.{name}")),
                s.median / PACKAGE_ROWS as f64,
            );
            per_byte[f].0 += s.median;
            per_byte[f].1 += out.len() as f64;
        }
    }
    metrics.set("fmt.csv_byte_ns", per_byte[0].0 / per_byte[0].1);
    metrics.set("fmt.json_byte_ns", per_byte[1].0 / per_byte[1].1);
    Ok(())
}

// ---------------------------------------------------------- pipeline

/// The rows a workload generates, as the jobs the scheduler would get.
struct Slice<'a> {
    rt: &'a SchemaRuntime,
    formatter: &'a dyn Formatter,
    package_rows: u64,
    /// `(table, rows)`; a batch workload has one whole-table job per
    /// table, a serve workload one job per planned request.
    jobs: Vec<(u32, Range<u64>)>,
    /// Whether the replay covers only the first [`REPLAY_PACKAGES`]
    /// packages of each job (whole tables) or all of it (requests).
    sample_jobs: bool,
    /// Write to files (the file-sink workload) or count bytes.
    to_files: bool,
}

impl Slice<'_> {
    fn rows(&self) -> u64 {
        self.jobs.iter().map(|(_, r)| r.end - r.start).sum()
    }

    fn sink(&self, tmp: &TempDir, job: usize) -> Res<Box<dyn Sink>> {
        Ok(if self.to_files {
            Box::new(FileSink::create(tmp.path().join(format!("job{job}.out")))?)
        } else {
            Box::new(NullSink::new())
        })
    }

    /// Run every job through the scheduler with `workers` workers
    /// (0 = inline on this thread); returns nanoseconds per row.
    fn scheduled(&self, workers: usize, tmp: &TempDir) -> Res<f64> {
        let config = RunConfig::new()
            .workers(workers)
            .package_rows(self.package_rows);
        let t = Instant::now();
        for (j, (table, rows)) in self.jobs.iter().enumerate() {
            let mut sink = self.sink(tmp, j)?;
            generate_table_range(
                self.rt,
                *table,
                0,
                rows.clone(),
                self.formatter,
                sink.as_mut(),
                &config,
                None,
            )?;
            sink.finish()?;
        }
        Ok(t.elapsed().as_nanos() as f64 / self.rows() as f64)
    }

    /// The part of job `job` the replay covers.
    fn replayed(&self, job: usize) -> Range<u64> {
        let rows = &self.jobs[job].1;
        if self.sample_jobs {
            let cap = rows.start + REPLAY_PACKAGES * self.package_rows;
            rows.start..rows.end.min(cap)
        } else {
            rows.clone()
        }
    }

    /// The same rows package by package on this thread, a span around
    /// each layer call: fill, format, reorder, sink. A span's `op` is
    /// `job << 32 | package`. Returns the wall seconds of the replay.
    fn replay(&self, tracer: &mut Tracer, tmp: &TempDir) -> Res<f64> {
        let mut batch = ColumnBatch::new();
        let mut scratch = GenScratch::default();
        let pool = BufferPool::new(8);
        let t = Instant::now();
        for (j, (table, _)) in self.jobs.iter().enumerate() {
            let meta = table_meta(self.rt, *table);
            let size = self.rt.tables()[*table as usize].size;
            let mut sink = self.sink(tmp, j)?;
            let mut reorder: ReorderBuffer<Vec<u8>> = ReorderBuffer::new();
            let rows = self.replayed(j);
            let mut start = rows.start;
            let mut seq = 0;
            while start < rows.end {
                let package = start..rows.end.min(start + self.package_rows);
                let op = (j as u64) << 32 | seq;
                tracer.span("package", op, |tr| -> Res<()> {
                    let mut out = pool.take();
                    tr.span("gen.fill", op, |_| {
                        self.rt
                            .fill_batch(*table, 0, package.clone(), &mut batch, &mut scratch)
                    });
                    tr.span("fmt.rows_columnar", op, |_| {
                        if package.start == 0 {
                            self.formatter.begin(&mut out, &meta);
                        }
                        self.formatter.rows_columnar(&mut out, &meta, &batch);
                        if package.end == size {
                            self.formatter.end(&mut out, &meta);
                        }
                    });
                    let ready = tr
                        .span("reorder.push_pop", op, |_| reorder.push(seq, out))
                        .expect("packages arrive in order here");
                    tr.span("sink.write", op, |_| sink.write_chunk(&ready))?;
                    pool.put(ready);
                    Ok(())
                })?;
                seq += 1;
                start = package.end;
            }
            sink.finish()?;
        }
        Ok(t.elapsed().as_secs_f64())
    }
}

/// What the pipeline measured, for the ladder, and its last traced
/// replay's spans.
struct Pipeline {
    tracer: Tracer,
    inline_row_ns: f64,
    /// Rows-weighted sum of the replay's fill, format, reorder and sink
    /// self times, per row.
    rungs_row_ns: f64,
}

/// Scheduler and replay over the workload's own rows.
fn pipeline(slice: &Slice<'_>, metrics: &mut Metrics, tmp: &TempDir) -> Res<Pipeline> {
    // Untraced, then traced, three times each: same code, same rows.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(true);
    for _ in 0..3 {
        untraced.push(slice.replay(&mut Tracer::new(false), tmp)?);
        tracer = Tracer::new(true);
        traced.push(slice.replay(&mut tracer, tmp)?);
    }
    metrics.set(
        "trace.overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
    );

    // Self time per layer and job, weighted by the job's full row count:
    // a table replayed in part stands for all of its rows.
    let mut weighted = std::collections::BTreeMap::<&str, f64>::new();
    let by_job = self_times(tracer.spans(), |s| ((s.op >> 32) as usize, s.name));
    for ((job, name), (_, self_ns)) in by_job {
        let (full, replayed) = (&slice.jobs[job].1, slice.replayed(job));
        let scale = (full.end - full.start) as f64 / (replayed.end - replayed.start) as f64;
        *weighted.entry(name).or_default() += self_ns as f64 * scale;
    }
    let total_rows = slice.rows() as f64;
    let row_ns = |name: &str| weighted.get(name).copied().unwrap_or(0.0) / total_rows;
    let fill = row_ns("gen.fill");
    let format = row_ns("fmt.rows_columnar");
    let rungs_row_ns = fill + format + row_ns("reorder.push_pop") + row_ns("sink.write");
    let cells: f64 = slice
        .jobs
        .iter()
        .map(|(t, r)| {
            ((r.end - r.start) * slice.rt.tables()[*t as usize].columns.len() as u64) as f64
        })
        .sum();
    metrics.set("gen.fill_value_ns", fill * total_rows / cells);

    let workers = host::workers();
    let mut runs = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (r, w) in [0, 1, workers].into_iter().enumerate() {
            runs[r].push(slice.scheduled(w, tmp)?);
        }
    }
    let [inline, w1, wn] = runs.map(|r| median(&r));
    metrics.set("sched.inline_row_ns", inline);
    metrics.set("sched.w1_row_ns", w1);
    metrics.set("sched.wN_row_ns", wn);
    metrics.set(
        "sched.overhead_pct",
        (inline - fill - format) / inline * 100.0,
    );
    metrics.set("sched.scaling_eff", w1 / (workers as f64 * wn));

    // Utilization as the program's own telemetry reports it, over the
    // same jobs with N workers.
    let telemetry = Telemetry::new();
    let config = RunConfig::new()
        .workers(workers)
        .package_rows(slice.package_rows);
    for (table, rows) in &slice.jobs {
        generate_table_range(
            slice.rt,
            *table,
            0,
            rows.clone(),
            slice.formatter,
            &mut NullSink::new(),
            &config,
            &telemetry,
        )?;
    }
    telemetry.close();
    metrics.set("sched.utilization", telemetry.metrics().utilization);

    Ok(Pipeline {
        tracer,
        inline_row_ns: inline,
        rungs_row_ns,
    })
}

// ------------------------------------------------------- serve layers

/// Client-side view of one kind of request.
struct Phase {
    /// Caller-observed seconds per request, in request order.
    latencies: Vec<f64>,
    /// Seconds until the first body bytes arrived, per request.
    first_byte: Vec<f64>,
    /// Body bytes received.
    bytes: u64,
    /// Server CPU seconds used during the phase.
    server_cpu: f64,
}

impl Phase {
    fn median_ms(&self) -> f64 {
        median(&self.latencies) * 1e3
    }
}

/// Send every planned request once over `workload`'s protocol, recording
/// `request ⊃ ttfb, drain` spans. The public client has no hook between
/// writing a request and reading the reply, so `ttfb` includes the send.
fn client_phase(
    workload: Workload,
    server: &process::Server,
    requests: &[Planned],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Res<Phase> {
    let mut client = serve::connect(workload, server)?;
    let mut phase = Phase {
        latencies: Vec::with_capacity(requests.len()),
        first_byte: Vec::with_capacity(requests.len()),
        bytes: 0,
        server_cpu: 0.0,
    };
    for planned in requests.iter().cycle().take(PHASE_WARMUP) {
        let (_, _, ok) = serve::fetch_checked(workload, server, &mut client, planned, true)?;
        tally.check(ok);
    }
    let cpu_before = host::process_cpu_seconds(server.pid());
    let mut body = Vec::new();
    for (i, planned) in requests.iter().enumerate() {
        let op = (workload as u64) << 32 | i as u64;
        tracer.span("request", op, |tr| -> Res<()> {
            body.clear();
            let mut first = None;
            let sent = Instant::now();
            let reply = client.fetch_with(serve::request_for(workload, planned), |chunk| {
                first.get_or_insert_with(Instant::now);
                body.extend_from_slice(chunk);
            });
            let done = Instant::now();
            let first = first.unwrap_or(done);
            tr.record("ttfb", op, sent, first);
            tr.record("drain", op, first, done);
            phase.latencies.push((done - sent).as_secs_f64());
            phase.first_byte.push((first - sent).as_secs_f64());
            phase.bytes += body.len() as u64;
            tally.check(reply.is_ok() && Fingerprint::of(&body) == planned.expected);
            if reply.is_err() {
                client = serve::connect(workload, server)?;
            }
            Ok(())
        })?;
    }
    phase.server_cpu = host::process_cpu_seconds(server.pid()) - cpu_before;
    Ok(phase)
}

/// The same requests against an in-process [`RowService`] with the
/// server's configuration and no socket: milliseconds per request, and
/// milliseconds until the first package.
fn service_phase(
    service: &RowService,
    table: u32,
    requests: &[Planned],
    tracer: &mut Tracer,
) -> Res<(Vec<f64>, Vec<f64>)> {
    let formatter: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
    let mut total = Vec::with_capacity(requests.len());
    let mut first_package = Vec::with_capacity(requests.len());
    for (i, planned) in requests.iter().enumerate() {
        let op = 1 << 40 | i as u64;
        tracer.span("rowservice.request", op, |_| -> Res<()> {
            let t = Instant::now();
            let rows = planned.start..planned.start + planned.rows;
            let request = if planned.rows == 1 {
                RowRequest::point(table, 0, planned.start)
            } else {
                RowRequest::range(table, 0, rows)
            };
            let mut stream = service.submit(request, Arc::clone(&formatter))?;
            let mut packages = Vec::new();
            let mut first = None;
            while let Some(package) = stream.next_package() {
                first.get_or_insert_with(|| t.elapsed());
                packages.push(package);
            }
            total.push(t.elapsed().as_secs_f64() * 1e3);
            first_package.push(first.unwrap_or_default().as_secs_f64() * 1e3);
            // Checked after the clock stopped: hashing is not the layer.
            let mut seen = Fingerprint::default();
            packages.iter().for_each(|p| seen.update(p));
            if seen != planned.expected {
                return Err("RowService and generate_table_range disagree".into());
            }
            Ok(())
        })?;
    }
    Ok((total, first_package))
}

/// What the serve layers measured, for a serve workload's ladder.
struct ServeLadder {
    /// Caller-observed median milliseconds of the workload's requests.
    client_ms: f64,
    /// In-process `RowService` median milliseconds of the same requests.
    service_ms: f64,
    /// Median milliseconds of a ping on the workload's protocol: the
    /// socket, framing and admission with no rows generated.
    ping_ms: f64,
}

/// The three kinds of request, in the order [`plans`] returns them.
const KINDS: [(Workload, usize); 3] = [
    (Workload::ServeRangeHttp, TRACED_RANGES),
    (Workload::ServeTileTcp, TRACED_TILES),
    (Workload::ServePointHttp, TRACED_POINTS),
];

/// The traced run's request list of each kind.
fn plans(rt: &SchemaRuntime, seed: u64) -> Res<Vec<Vec<Planned>>> {
    KINDS
        .iter()
        .map(|&(kind, count)| serve::plan(kind, rt, seed, count))
        .collect()
}

/// Socket front ends against the serve core, and the CLI's start-up.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    workload: Workload,
    seed: u64,
    reference: PdgfProject,
    plans: &[Vec<Planned>],
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    tally: &mut Tally,
    tmp: &TempDir,
) -> Res<ServeLadder> {
    let pdgf = process::pdgf_binary()?;
    let (server, _) = serve::ready_server(&pdgf, Workload::ServeTileTcp, seed)?;
    let mut phases = Vec::new();
    for ((kind, _), requests) in KINDS.iter().zip(plans) {
        phases.push(client_phase(*kind, &server, requests, tracer, tally)?);
    }
    let [range, tile, point] = <[Phase; 3]>::try_from(phases).ok().expect("three kinds");

    // Ping round trips on the workload's protocol (the range workload's
    // for a batch workload): transport with no generation.
    let own = if workload.is_serve() {
        workload
    } else {
        Workload::ServeRangeHttp
    };
    let mut pinger = serve::connect(own, &server)?;
    let mut pings = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        pinger.ping()?;
        pings.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let stats = Json::parse(&ServeClient::connect(server.tcp)?.stats()?)?;
    let counter = |name: &str| stats.get(name).and_then(Json::as_f64).unwrap_or(-1.0);
    let sent: usize = plans.iter().map(|p| p.len() + PHASE_WARMUP).sum();
    tally.check(counter("completed") == sent as f64 && counter("aborted") == 0.0);
    metrics.set("serve.stats_completed", counter("completed"));
    metrics.set("serve.stats_aborted", counter("aborted"));
    metrics.set(
        "serve.peak_rss_mb",
        host::peak_rss_mb(server.pid()).ok_or("the server is gone")?,
    );
    drop(server);

    let (table, _) = reference
        .runtime()
        .table_by_name(serve::TABLE)
        .ok_or("the model has no lineitem")?;
    let service = RowService::new(
        Arc::new(reference.into_runtime()),
        ServeConfig::new().workers(host::workers()),
        None,
    );
    let (range_ms, range_first_ms) = service_phase(&service, table, &plans[0], tracer)?;
    let (tile_ms, _) = service_phase(&service, table, &plans[1], tracer)?;
    let (point_ms, _) = service_phase(&service, table, &plans[2], tracer)?;
    drop(service);
    let (range_ms, tile_ms, point_ms) = (median(&range_ms), median(&tile_ms), median(&point_ms));

    metrics.set("rowservice.range_ms", range_ms);
    metrics.set("rowservice.tile_ms", tile_ms);
    metrics.set("rowservice.first_package_ms", median(&range_first_ms));
    metrics.set("rowservice.point_us", point_ms * 1e3);
    metrics.set("http.range_overhead_ms", range.median_ms() - range_ms);
    metrics.set("tcp.tile_overhead_ms", tile.median_ms() - tile_ms);
    metrics.set(
        "http.point_overhead_us",
        (point.median_ms() - point_ms) * 1e3,
    );
    metrics.set("http.ttfb_ms", median(&range.first_byte) * 1e3);
    metrics.set(
        "http.range_mb_per_s",
        range.bytes as f64 / 1e6 / range.latencies.iter().sum::<f64>(),
    );
    let stalled = tile
        .latencies
        .iter()
        .filter(|&&s| s * 1e3 > 10.0 * tile_ms)
        .count();
    metrics.set(
        "tcp.stall_share",
        stalled as f64 / tile.latencies.len() as f64,
    );
    let mut sorted = point.latencies.clone();
    crate::sort(&mut sorted);
    metrics.set(
        "serve.p99_ms",
        crate::percentile_sorted(&sorted, 99.0) * 1e3,
    );

    let (own_phase, own_service_ms) = match own {
        Workload::ServeTileTcp => (&tile, tile_ms),
        Workload::ServePointHttp => (&point, point_ms),
        _ => (&range, range_ms),
    };
    metrics.set(
        "serve.cpu_ms_per_req",
        own_phase.server_cpu * 1e3 / own_phase.latencies.len() as f64,
    );

    let startups = crate::batch::time_setups(7, || {
        process::generate(&pdgf, "0.0001", seed, &tmp.path().join("startup"))
    })?;
    metrics.set("cli.startup_ms", median(&startups) * 1e3);
    metrics.set(
        "cli.peak_rss_mb",
        process::generate_peak_rss_mb(&pdgf, TPCH_SF, seed, &tmp.path().join("rss"))?,
    );
    Ok(ServeLadder {
        client_ms: own_phase.median_ms(),
        service_ms: own_service_ms,
        ping_ms: median(&pings),
    })
}

// ---------------------------------------------------------------- run

/// The traced run of `workload`: every per-layer metric, and the spans
/// written to `benchmark/out/trace.<workload>.jsonl`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    let tmp = TempDir::new(&format!("trace-{}", workload.name()))?;
    let mut metrics = Metrics::new();
    let mut tally = Tally::default();
    rungs(&mut metrics, seed, seconds, &tmp)?;

    let serve_reference = tpch_project(SERVE_SF, seed)?;
    let plans = plans(serve_reference.runtime(), seed)?;
    let csv = CsvFormatter::new();
    let batch_project;
    let slice = if let Some(own) = KINDS.iter().position(|k| k.0 == workload) {
        let (table, _) = serve_reference
            .runtime()
            .table_by_name(serve::TABLE)
            .ok_or("the model has no lineitem")?;
        Slice {
            rt: serve_reference.runtime(),
            formatter: &csv,
            package_rows: PACKAGE_ROWS,
            jobs: plans[own]
                .iter()
                .take(PIPELINE_JOBS)
                .map(|p| (table, p.start..p.start + p.rows))
                .collect(),
            sample_jobs: false,
            to_files: false,
        }
    } else {
        batch_project = if workload == Workload::BigbenchJsonNull {
            bigbench_project(seed)?
        } else {
            tpch_project(TPCH_SF, seed)?
        };
        let rt = batch_project.runtime();
        Slice {
            rt,
            formatter: if workload == Workload::BigbenchJsonNull {
                &JsonFormatter
            } else {
                &csv
            },
            package_rows: BATCH_PACKAGE_ROWS,
            jobs: (0..rt.tables().len())
                .map(|t| (t as u32, 0..rt.tables()[t].size))
                .collect(),
            sample_jobs: true,
            to_files: workload == Workload::TpchCsvFile,
        }
    };
    let pipeline = pipeline(&slice, &mut metrics, &tmp)?;
    drop(slice);
    let mut tracer = pipeline.tracer;
    let ladder = serve_layers(
        workload,
        seed,
        serve_reference,
        &plans,
        &mut metrics,
        &mut tracer,
        &mut tally,
        &tmp,
    )?;

    // The reconciliation. Batch: the replay's rungs against the
    // scheduler running the same rows inline. Serve: the serve core plus
    // a bare round trip against what the caller saw.
    let (sum, whole) = if workload.is_serve() {
        let rows = serve::rows_per_request(workload) as f64;
        (
            (ladder.service_ms + ladder.ping_ms) * 1e6 / rows,
            ladder.client_ms * 1e6 / rows,
        )
    } else {
        (pipeline.rungs_row_ns, pipeline.inline_row_ns)
    };
    metrics.set("ladder.sum_row_ns", sum);
    metrics.set("ladder.unexplained_pct", (whole - sum) / whole * 100.0);
    metrics.set(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    tracer.write_jsonl(&host::out_dir().join(format!("trace.{}.jsonl", workload.name())))?;
    Ok(Outcome { tally, metrics })
}
