//! The run event stream: structured telemetry the hot path can afford.
//!
//! The PDGF demo visualizes "the progress of single tables and the
//! complete data set as well as general performance parameters" over JMX;
//! this module is the Rust equivalent's transport. A run publishes
//! [`RunEvent`]s — run/job lifecycle, per-package completions with phase
//! timings, sink errors, stall detections — into a bounded bus.
//!
//! The bus **never blocks a publisher**: when the queue is full the event
//! is counted in `dropped_events` and discarded. A slow subscriber can
//! therefore lose events but can never stall generation — the drop
//! counter makes the loss visible and exact — and while no subscriber is
//! alive an event is not even built (publishers pass a closure), so an
//! unsubscribed handle costs no allocation per package. Telemetry is
//! observational by construction: events carry copies of counters and
//! timings, nothing downstream of the bus can reach back into the
//! generate/format/write path, so generated bytes are a pure function of
//! (schema, seed, format) with or without a subscriber.
//!
//! The JSON wire shapes live here too, next to each other: the
//! `--metrics-out` records ([`StampedEvent::to_json`],
//! [`MetricsSnapshot::to_json`]) and the one phase-stats object
//! ([`PhaseStats::to_json`]) every surface embeds.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdgf_schema::sync::{Cond, Lock};

use crate::telemetry::{now_ns, MetricsSnapshot, PackageTimings, PhaseStats};

/// A structured telemetry event emitted during a generation run.
///
/// Table-scoped events carry the table name as an owned `String`: events
/// outlive the run that produced them (a subscriber may drain the bus
/// after the run returns), so they cannot borrow from the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// A run began: `jobs` table jobs totalling `total_rows` rows.
    RunStarted {
        /// Number of table jobs in the run.
        jobs: usize,
        /// Sum of all jobs' row counts.
        total_rows: u64,
    },
    /// The first package of a table job reached the output stage.
    JobStarted {
        /// Table (or shard) name.
        table: String,
        /// Rows the job will generate.
        rows: u64,
    },
    /// A table job's last package (and end framing) was written.
    JobFinished {
        /// Table (or shard) name.
        table: String,
        /// Rows written.
        rows: u64,
        /// Bytes written, including framing.
        bytes: u64,
        /// Seconds from run start to job completion.
        seconds: f64,
    },
    /// One work package was written to its sink, with phase timings.
    PackageCompleted {
        /// Table (or shard) name.
        table: String,
        /// Package sequence number within its job.
        seq: u64,
        /// Rows in the package.
        rows: u64,
        /// Formatted bytes written.
        bytes: u64,
        /// Per-phase timing breakdown.
        timings: PackageTimings,
    },
    /// A sink write failed; the run is aborting.
    SinkError {
        /// Table whose sink failed.
        table: String,
        /// The I/O error's message.
        message: String,
    },
    /// The watchdog saw no package complete for the configured interval.
    StallDetected {
        /// Best guess at the stuck table: the one being written when
        /// progress stopped, else the first unfinished job.
        table: String,
        /// Milliseconds since the last observed progress.
        stalled_ms: u64,
    },
    /// The run finished (successfully or not — errors also emit
    /// [`RunEvent::SinkError`]).
    RunFinished {
        /// Total rows written across all jobs.
        rows: u64,
        /// Total bytes written across all jobs.
        bytes: u64,
        /// Run wall-clock seconds.
        seconds: f64,
    },
    /// A serve request was accepted by the row service.
    RequestStarted {
        /// Service-assigned request id (monotone per service).
        request: u64,
        /// Table the request reads.
        table: String,
        /// Requested row count.
        rows: u64,
    },
    /// A serve request streamed its last package to the reader.
    RequestFinished {
        /// Service-assigned request id.
        request: u64,
        /// Rows delivered.
        rows: u64,
        /// Formatted bytes delivered.
        bytes: u64,
        /// Submit-to-last-package latency in microseconds.
        micros: u64,
    },
    /// A serve request ended before delivering every package (client
    /// hang-up or rejected submission).
    RequestFailed {
        /// Service-assigned request id (0 for rejected submissions that
        /// never got one).
        request: u64,
        /// What went wrong.
        message: String,
    },
}

/// A [`RunEvent`] plus its publication timestamp (nanoseconds since the
/// process-wide anchor every telemetry timestamp is read from).
#[derive(Debug, Clone, PartialEq)]
pub struct StampedEvent {
    /// Publication time, ns since the process clock anchor.
    pub at_ns: u64,
    /// The event.
    pub event: RunEvent,
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl StampedEvent {
    /// Render as a single-line JSON object (the `--metrics-out` JSONL
    /// record shape). Off the hot path — only subscribers call this.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"at_ns\":");
        s.push_str(&self.at_ns.to_string());
        s.push_str(",\"event\":\"");
        let mut table: Option<&str> = None;
        let fields;
        match &self.event {
            RunEvent::RunStarted { jobs, total_rows } => {
                s.push_str("run_started");
                fields = format!(",\"jobs\":{jobs},\"total_rows\":{total_rows}");
            }
            RunEvent::JobStarted { table: t, rows } => {
                s.push_str("job_started");
                table = Some(t);
                fields = format!(",\"rows\":{rows}");
            }
            RunEvent::JobFinished {
                table: t,
                rows,
                bytes,
                seconds,
            } => {
                s.push_str("job_finished");
                table = Some(t);
                fields = format!(",\"rows\":{rows},\"bytes\":{bytes},\"seconds\":{seconds:.6}");
            }
            RunEvent::PackageCompleted {
                table: t,
                seq,
                rows,
                bytes,
                timings,
            } => {
                s.push_str("package_completed");
                table = Some(t);
                fields = format!(
                    ",\"seq\":{seq},\"rows\":{rows},\"bytes\":{bytes},\
                     \"total_ns\":{},\"generate_ns\":{},\"format_ns\":{},\
                     \"write_ns\":{},\"sampled_rows\":{}",
                    timings.total_ns,
                    timings.generate_ns,
                    timings.format_ns,
                    timings.write_ns,
                    timings.sampled_rows,
                );
            }
            RunEvent::SinkError { table: t, message } => {
                s.push_str("sink_error");
                table = Some(t);
                let mut msg = String::new();
                json_escape_into(&mut msg, message);
                fields = format!(",\"message\":\"{msg}\"");
            }
            RunEvent::StallDetected {
                table: t,
                stalled_ms,
            } => {
                s.push_str("stall_detected");
                table = Some(t);
                fields = format!(",\"stalled_ms\":{stalled_ms}");
            }
            RunEvent::RunFinished {
                rows,
                bytes,
                seconds,
            } => {
                s.push_str("run_finished");
                fields = format!(",\"rows\":{rows},\"bytes\":{bytes},\"seconds\":{seconds:.6}");
            }
            RunEvent::RequestStarted {
                request,
                table: t,
                rows,
            } => {
                s.push_str("request_started");
                table = Some(t);
                fields = format!(",\"request\":{request},\"rows\":{rows}");
            }
            RunEvent::RequestFinished {
                request,
                rows,
                bytes,
                micros,
            } => {
                s.push_str("request_finished");
                fields = format!(
                    ",\"request\":{request},\"rows\":{rows},\"bytes\":{bytes},\"micros\":{micros}"
                );
            }
            RunEvent::RequestFailed { request, message } => {
                s.push_str("request_failed");
                let mut msg = String::new();
                json_escape_into(&mut msg, message);
                fields = format!(",\"request\":{request},\"message\":\"{msg}\"");
            }
        }
        s.push('"');
        if let Some(t) = table {
            s.push_str(",\"table\":\"");
            json_escape_into(&mut s, t);
            s.push('"');
        }
        s.push_str(&fields);
        s.push('}');
        s
    }
}

impl PhaseStats {
    /// Render as the JSON object every wire shape embeds for a phase.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
            self.count, self.mean_ns, self.p50_ns, self.p95_ns, self.p99_ns
        )
    }
}

impl MetricsSnapshot {
    /// Render as the trailing `metrics_snapshot` record of a
    /// `--metrics-out` JSONL file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"event\":\"metrics_snapshot\",\"utilization\":{:.4},\
             \"dropped_events\":{},\"generate\":{},\"format\":{},\"write\":{},\
             \"queue_depth\":{{\"samples\":{},\"max\":{},\"mean\":{}}}}}",
            self.utilization,
            self.dropped_events,
            self.generate.to_json(),
            self.format.to_json(),
            self.write.to_json(),
            self.queue_depth.samples,
            self.queue_depth.max,
            self.queue_depth.mean,
        )
    }
}

struct BusState {
    queue: VecDeque<StampedEvent>,
    closed: bool,
}

/// A bounded, never-blocking event queue.
///
/// `publish` is wait-free from the publisher's perspective apart from the
/// queue mutex (held only to push one element): a full queue drops the
/// event and increments [`dropped`](EventBus::dropped) instead of
/// waiting. Subscribers block in [`recv`](EventSubscriber::recv) until an
/// event arrives or the bus is closed and drained.
pub(crate) struct EventBus {
    state: Lock<BusState>,
    available: Cond,
    capacity: usize,
    /// Live [`EventSubscriber`]s; zero turns `publish` into a no-op.
    /// Relaxed: it gates whether an event is built, it publishes no data
    /// (the queue has its mutex).
    subscribers: AtomicUsize,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("capacity", &self.capacity)
            .field("published", &self.published())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventBus {
    /// A bus holding at most `capacity` undelivered events (min 1).
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Lock::new(BusState {
                queue: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                closed: false,
            }),
            available: Cond::new(),
            capacity: capacity.max(1),
            subscribers: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Publish the event `event` builds, stamped with the current time.
    /// While no subscriber is alive nothing is built, queued or counted.
    /// Never blocks: if the queue is at capacity the event is dropped and
    /// counted. Publishing to a closed bus counts as a drop as well.
    pub(crate) fn publish(&self, event: impl FnOnce() -> RunEvent) {
        if self.subscribers.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        let stamped = StampedEvent {
            at_ns: now_ns(),
            event: event(),
        };
        let mut st = self.state.lock();
        if st.closed || st.queue.len() >= self.capacity {
            drop(st);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        st.queue.push_back(stamped);
        drop(st);
        self.available.notify_one();
    }

    /// Close the bus: subscribers drain what is queued, then see `None`.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Events accepted *or* dropped since creation.
    fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Events dropped because the queue was full (or the bus closed).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pop the oldest queued event, waiting until `deadline_ns` (forever
    /// if `None`) for one to arrive; `None` on timeout or once the bus is
    /// closed and fully drained.
    fn recv_until(&self, deadline_ns: Option<u64>) -> Option<StampedEvent> {
        let arrived = |st: &mut BusState| !st.queue.is_empty() || st.closed;
        let mut st = self.state.lock();
        loop {
            if let Some(e) = st.queue.pop_front() {
                return Some(e);
            }
            if st.closed {
                return None;
            }
            st = match deadline_ns {
                None => self.available.wait_until(st, arrived),
                Some(deadline) => {
                    let now = now_ns();
                    if now >= deadline {
                        return None;
                    }
                    let left = Duration::from_nanos(deadline - now);
                    self.available.wait_timeout_until(st, left, arrived)
                }
            };
        }
    }
}

/// The receiving side of the event stream, held by a telemetry consumer
/// (the `--metrics-out` writer thread, a test, a dashboard). Events are
/// built and queued only while at least one subscriber is alive.
#[derive(Debug)]
pub struct EventSubscriber {
    bus: Arc<EventBus>,
}

impl EventSubscriber {
    pub(crate) fn new(bus: Arc<EventBus>) -> Self {
        bus.subscribers.fetch_add(1, Ordering::Relaxed);
        Self { bus }
    }

    /// Blocking receive; `None` once the bus is closed and drained.
    pub fn recv(&self) -> Option<StampedEvent> {
        self.bus.recv_until(None)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<StampedEvent> {
        self.bus.state.lock().queue.pop_front()
    }

    /// Receive with a timeout; `None` on timeout or closed-and-drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<StampedEvent> {
        let deadline = now_ns().saturating_add(timeout.as_nanos() as u64);
        self.bus.recv_until(Some(deadline))
    }

    /// Events dropped so far because this subscriber was too slow.
    pub fn dropped(&self) -> u64 {
        self.bus.dropped()
    }

    /// Events published (delivered + dropped) so far.
    pub fn published(&self) -> u64 {
        self.bus.published()
    }
}

impl Clone for EventSubscriber {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.bus))
    }
}

impl Drop for EventSubscriber {
    fn drop(&mut self) {
        self.bus.subscribers.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::QueueDepthStats;

    fn bus(capacity: usize) -> (Arc<EventBus>, EventSubscriber) {
        let bus = EventBus::new(capacity);
        let sub = EventSubscriber::new(Arc::clone(&bus));
        (bus, sub)
    }

    #[test]
    fn publish_recv_roundtrip_in_order() {
        let (bus, sub) = bus(8);
        bus.publish(|| RunEvent::RunStarted {
            jobs: 2,
            total_rows: 100,
        });
        bus.publish(|| RunEvent::RunFinished {
            rows: 100,
            bytes: 5,
            seconds: 0.1,
        });
        bus.close();
        let a = sub.recv().expect("first event");
        let b = sub.recv().expect("second event");
        assert!(matches!(a.event, RunEvent::RunStarted { jobs: 2, .. }));
        assert!(matches!(b.event, RunEvent::RunFinished { rows: 100, .. }));
        assert!(b.at_ns >= a.at_ns, "stamps are monotone");
        assert!(sub.recv().is_none(), "closed and drained");
        assert_eq!(bus.published(), 2);
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn overflow_drops_exactly_the_shortfall() {
        let (bus, sub) = bus(3);
        for i in 0..10 {
            bus.publish(|| RunEvent::JobStarted {
                table: format!("t{i}"),
                rows: 1,
            });
        }
        bus.close();
        let mut received = 0;
        while sub.recv().is_some() {
            received += 1;
        }
        assert_eq!(received, 3, "capacity bounds delivery");
        assert_eq!(bus.dropped(), 7, "drop counter reports the shortfall");
        assert_eq!(bus.published(), 10);
        assert_eq!(received + bus.dropped(), bus.published());
    }

    #[test]
    fn publish_after_close_counts_as_drop() {
        let (bus, sub) = bus(4);
        bus.close();
        bus.publish(|| RunEvent::RunStarted {
            jobs: 1,
            total_rows: 1,
        });
        assert_eq!(bus.dropped(), 1);
        assert!(sub.recv().is_none());
    }

    /// While nobody subscribes an event is neither built nor counted; a
    /// clone keeps the stream alive after the original handle is gone.
    #[test]
    fn unsubscribed_bus_never_builds_the_event() {
        let bus = EventBus::new(4);
        bus.publish(|| unreachable!("no subscriber: the closure must not run"));
        assert_eq!((bus.published(), bus.dropped()), (0, 0));
        let sub = EventSubscriber::new(Arc::clone(&bus));
        let clone = sub.clone();
        drop(sub);
        bus.publish(|| RunEvent::RunStarted {
            jobs: 1,
            total_rows: 1,
        });
        assert!(clone.try_recv().is_some());
        drop(clone);
        bus.publish(|| unreachable!("last subscriber gone"));
        assert_eq!(bus.published(), 1);
    }

    #[test]
    fn recv_blocks_until_publish() {
        let (bus, sub) = bus(4);
        let handle = std::thread::spawn(move || sub.recv());
        std::thread::sleep(Duration::from_millis(20));
        bus.publish(|| RunEvent::RunFinished {
            rows: 1,
            bytes: 1,
            seconds: 0.0,
        });
        let got = handle.join().expect("join").expect("event");
        assert!(matches!(got.event, RunEvent::RunFinished { .. }));
    }

    #[test]
    fn recv_timeout_returns_none_on_quiet_bus() {
        let (bus, sub) = bus(4);
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
        assert!(!bus.state.lock().closed);
    }

    /// The `--metrics-out` trailer and the phase object on fixed values:
    /// the expected strings are the parent commit's hand-rendered output.
    #[test]
    fn metrics_snapshot_record_is_pinned() {
        let phase = |count| PhaseStats {
            count,
            mean_ns: 1500,
            p50_ns: 1024,
            p95_ns: 2048,
            p99_ns: 4096,
        };
        let m = MetricsSnapshot {
            generate: phase(3),
            format: phase(4),
            write: phase(5),
            utilization: 0.8125,
            queue_depth: QueueDepthStats {
                samples: 6,
                max: 9,
                mean: 4,
            },
            dropped_events: 7,
        };
        assert_eq!(
            phase(3).to_json(),
            r#"{"count":3,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096}"#
        );
        assert_eq!(
            m.to_json(),
            concat!(
                r#"{"event":"metrics_snapshot","utilization":0.8125,"dropped_events":7,"#,
                r#""generate":{"count":3,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096},"#,
                r#""format":{"count":4,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096},"#,
                r#""write":{"count":5,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096},"#,
                r#""queue_depth":{"samples":6,"max":9,"mean":4}}"#
            )
        );
    }

    #[test]
    fn json_lines_are_well_formed() {
        let cases = vec![
            RunEvent::RunStarted {
                jobs: 3,
                total_rows: 42,
            },
            RunEvent::JobStarted {
                table: "line\"item".into(),
                rows: 7,
            },
            RunEvent::JobFinished {
                table: "t".into(),
                rows: 7,
                bytes: 99,
                seconds: 1.5,
            },
            RunEvent::PackageCompleted {
                table: "t".into(),
                seq: 4,
                rows: 100,
                bytes: 1000,
                timings: PackageTimings {
                    total_ns: 5,
                    generate_ns: 2,
                    format_ns: 1,
                    sampled_rows: 3,
                    write_ns: 1,
                },
            },
            RunEvent::SinkError {
                table: "t".into(),
                message: "disk\nfull".into(),
            },
            RunEvent::StallDetected {
                table: "t".into(),
                stalled_ms: 500,
            },
            RunEvent::RunFinished {
                rows: 1,
                bytes: 2,
                seconds: 0.25,
            },
            RunEvent::RequestStarted {
                request: 9,
                table: "t".into(),
                rows: 64,
            },
            RunEvent::RequestFinished {
                request: 9,
                rows: 64,
                bytes: 2048,
                micros: 1500,
            },
            RunEvent::RequestFailed {
                request: 0,
                message: "unknown table \"nope\"".into(),
            },
        ];
        for event in cases {
            let line = StampedEvent { at_ns: 123, event }.to_json();
            assert!(line.starts_with("{\"at_ns\":123,\"event\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "single line: {line}");
            // Escaped quotes must be balanced: strip \" then count.
            let unescaped = line.replace("\\\"", "");
            assert_eq!(unescaped.matches('"').count() % 2, 0, "{line}");
        }
    }
}
