//! Telemetry contract tests.
//!
//! Three guarantees the observability layer makes:
//!
//! 1. **Bytes are untouched** — attaching a telemetry handle (with a live
//!    subscriber) changes nothing about the generated output, at any
//!    worker count.
//! 2. **A slow subscriber loses events, never stalls the run** — the
//!    bounded bus drops on overflow and the drop counter reports exactly
//!    the shortfall: `received + dropped == published`.
//! 3. **The watchdog names the stuck table** — a sink that wedges mid-run
//!    raises `StallDetected` carrying the right table name, and the run
//!    completes once the sink is released.

use std::io;
use std::sync::mpsc;
use std::time::Duration;

use pdgf_gen::{MapResolver, SchemaRuntime};
use pdgf_output::{CsvFormatter, MemorySinkFactory, NullSink, Sink};
use pdgf_runtime::{GenerationRun, RunConfig, RunEvent, Telemetry};
use pdgf_schema::{Expr, Field, GeneratorSpec, Schema, SqlType, Table};

fn runtime() -> SchemaRuntime {
    let schema = Schema::new("telemetry", 7)
        .table(Table::new("a", "150").field(Field::new(
            "id",
            SqlType::BigInt,
            GeneratorSpec::Id { permute: false },
        )))
        .table(
            Table::new("b", "400")
                .field(Field::new(
                    "id",
                    SqlType::BigInt,
                    GeneratorSpec::Id { permute: false },
                ))
                .field(Field::new(
                    "v",
                    SqlType::Integer,
                    GeneratorSpec::Long {
                        min: Expr::parse("0").unwrap(),
                        max: Expr::parse("999").unwrap(),
                    },
                )),
        );
    SchemaRuntime::build(&schema, &MapResolver::new()).unwrap()
}

/// Attaching telemetry — with a subscriber actively draining — must not
/// change a single output byte, for any worker count.
#[test]
fn bytes_identical_with_and_without_subscriber() {
    let rt = runtime();
    let collect = |workers: usize, telemetry: Option<Telemetry>| -> Vec<(String, Vec<u8>)> {
        let factory = MemorySinkFactory::new();
        let mut run = GenerationRun::new(&rt, RunConfig::new().workers(workers).package_rows(31));
        if let Some(t) = telemetry {
            run = run.with_telemetry(t);
        }
        run.run(&CsvFormatter::new(), factory.clone()).unwrap();
        factory.outputs()
    };

    let reference = collect(0, None);
    assert!(reference.iter().all(|(_, bytes)| !bytes.is_empty()));
    for workers in [0usize, 1, 2, 4] {
        let telemetry = Telemetry::new();
        let subscriber = telemetry.subscribe();
        let drain = std::thread::spawn(move || {
            let mut n = 0u64;
            while subscriber.recv().is_some() {
                n += 1;
            }
            n
        });
        let observed = collect(workers, Some(telemetry.clone()));
        telemetry.close();
        let events_seen = drain.join().unwrap();
        assert_eq!(observed, reference, "workers={workers}");
        assert!(events_seen > 0, "subscriber saw the event stream");
    }
}

/// A subscriber that never drains while the run is live: the bounded bus
/// fills, overflow is dropped, and the accounting is exact — what the
/// subscriber eventually receives plus the drop counter equals everything
/// published. The publish count itself is deterministic from the job and
/// package structure.
#[test]
fn slow_subscriber_drops_exactly_the_shortfall() {
    let rt = runtime();
    let capacity = Telemetry::BUS_CAPACITY;
    // Effectively disable the watchdog so StallDetected can't add
    // nondeterministic publishes.
    let telemetry = Telemetry::with_stall_timeout(Duration::from_secs(3600));
    let subscriber = telemetry.subscribe();

    // One-row packages, three runs on the one handle: 1,668 events
    // against the bus's 1,024 slots.
    let package_rows = 1u64;
    let runs = 3u64;
    for _ in 0..runs {
        GenerationRun::new(&rt, RunConfig::new().workers(2).package_rows(package_rows))
            .with_telemetry(telemetry.clone())
            .run(&CsvFormatter::new(), MemorySinkFactory::new())
            .unwrap();
    }
    telemetry.close();

    let mut received = 0u64;
    while subscriber.recv().is_some() {
        received += 1;
    }
    assert_eq!(received as usize, capacity, "bus held exactly its capacity");

    // Per run: RunStarted + per-job Started/Finished + one
    // PackageCompleted per package + RunFinished.
    let packages: u64 = rt
        .tables()
        .iter()
        .map(|t| t.size.div_ceil(package_rows))
        .sum();
    let expected = runs * (1 + 2 * rt.tables().len() as u64 + packages + 1);
    assert!(expected > capacity as u64, "the bus must overflow");
    assert_eq!(subscriber.published(), expected);
    assert_eq!(
        received + subscriber.dropped(),
        subscriber.published(),
        "drop counter reports exactly the shortfall"
    );
    assert_eq!(telemetry.dropped_events(), subscriber.dropped());
}

/// Sink whose first write blocks until released through a channel.
struct WedgedSink {
    release: Option<mpsc::Receiver<()>>,
    bytes: u64,
}

impl Sink for WedgedSink {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(rx) = self.release.take() {
            rx.recv().expect("release signal");
        }
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.bytes)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Wedge table `b`'s sink mid-run: the watchdog must raise
/// `StallDetected` naming `b` (not the healthy table), and after release
/// the run completes normally — inline, where the wedged write is the
/// only outstanding work, as with a pool.
#[test]
fn watchdog_names_the_wedged_table() {
    for workers in [0, 2] {
        watchdog_names_the_wedged_table_at(workers);
    }
}

fn watchdog_names_the_wedged_table_at(workers: usize) {
    let telemetry = Telemetry::with_stall_timeout(Duration::from_millis(50));
    let subscriber = telemetry.subscribe();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let run_thread = {
        let telemetry = telemetry.clone();
        let rt = runtime();
        std::thread::spawn(move || {
            let mut release = Some(release_rx);
            let factory = move |table: &str| -> io::Result<Box<dyn Sink>> {
                if table == "b" {
                    Ok(Box::new(WedgedSink {
                        release: release.take(),
                        bytes: 0,
                    }))
                } else {
                    Ok(Box::new(NullSink::new()))
                }
            };
            GenerationRun::new(&rt, RunConfig::new().workers(workers).package_rows(25))
                .with_telemetry(telemetry)
                .run(&CsvFormatter::new(), factory)
                .map(|r| r.total_rows())
        })
    };

    // Wait for the stall report, then release the sink.
    let stalled_table = loop {
        match subscriber.recv_timeout(Duration::from_secs(30)) {
            Some(event) => {
                if let RunEvent::StallDetected { table, stalled_ms } = &event.event {
                    assert!(*stalled_ms >= 50, "stall at least the timeout");
                    break table.clone();
                }
            }
            None => panic!("no StallDetected within 30s (workers={workers})"),
        }
    };
    assert_eq!(stalled_table, "b", "watchdog blames the wedged table");
    release_tx.send(()).unwrap();

    let rows = run_thread.join().unwrap().unwrap();
    assert_eq!(rows, 550, "run completes after release");
    telemetry.close();

    // The stream still ends with a successful RunFinished.
    let mut finished = false;
    while let Some(event) = subscriber.try_recv() {
        if matches!(event.event, RunEvent::RunFinished { .. }) {
            finished = true;
        }
    }
    assert!(finished, "RunFinished published after the stall cleared");
}

/// Sink that fails after a small byte budget, so runs abort mid-stream.
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

/// A run aborted by a sink error must still terminate its event stream:
/// the `SinkError` is followed by a terminal `RunFinished` carrying the
/// partial totals, so a `--metrics-out` JSONL of a failed run is a
/// complete, parseable record rather than a truncated one.
#[test]
fn failed_run_still_publishes_terminal_run_finished() {
    let rt = runtime();
    let telemetry = Telemetry::with_stall_timeout(Duration::from_secs(3600));
    let subscriber = telemetry.subscribe();
    let factory = |table: &str| -> io::Result<Box<dyn Sink>> {
        if table == "b" {
            Ok(Box::new(FailingSink {
                wrote: 0,
                budget: 256,
            }))
        } else {
            Ok(Box::new(NullSink::new()))
        }
    };
    let err = GenerationRun::new(&rt, RunConfig::new().workers(2).package_rows(25))
        .with_telemetry(telemetry.clone())
        .run(&CsvFormatter::new(), factory)
        .unwrap_err();
    assert!(err.to_string().contains("disk full"), "{err}");
    telemetry.close();

    let mut kinds = Vec::new();
    while let Some(event) = subscriber.recv() {
        kinds.push(match event.event {
            RunEvent::SinkError { .. } => "sink_error",
            RunEvent::RunFinished { .. } => "run_finished",
            _ => "other",
        });
    }
    let sink_error = kinds.iter().position(|k| *k == "sink_error");
    assert!(sink_error.is_some(), "SinkError published: {kinds:?}");
    assert_eq!(
        kinds.last().copied(),
        Some("run_finished"),
        "terminal RunFinished closes the failed run's stream: {kinds:?}"
    );
    assert!(
        sink_error.unwrap() < kinds.len() - 1,
        "SinkError precedes the terminal event"
    );
}
