//! The observability spine: one handle, one clock, one registry.
//!
//! The paper's demo watches generation through JMX / Mission Control:
//! "the progress of single tables and the complete data set as well as
//! general performance parameters can be visualized". Here that surface
//! is one [`Telemetry`] handle, created by the caller (CLI, benchmark,
//! test) and passed — as the only observer a run takes — to
//! [`crate::run_project`], [`crate::GenerationRun`] or
//! [`crate::RowService`]. It answers three questions:
//!
//! * **How far along is it?** [`Telemetry::progress`] and
//!   [`Telemetry::table_progress`]: rows, bytes and packages per table and
//!   in total, with a throughput clock that starts at the *first recorded
//!   package* — a handle created long before the run does not understate
//!   MB/s.
//! * **Where does the time go?** [`Telemetry::metrics`]: per-row
//!   generate/format and per-package write latencies in power-of-two
//!   histograms, worker utilization (busy time over `wall × workers` of
//!   every scope) and the sampled count of issued-but-unrendered packages.
//!   The execution core times a package's two stages with three clock
//!   reads, only when a scope is attached; each worker records into its
//!   own slot with relaxed atomics.
//! * **What happened, in order?** [`Telemetry::subscribe`]: the
//!   [`RunEvent`] stream of [`crate::events`], including the watchdog's
//!   [`RunEvent::StallDetected`] naming the stuck table when no package
//!   completes for the stall timeout.
//!
//! Each executor opens a `RunScope` per run. A scope that finishes (or
//! is dropped on an error path) folds its worker slots into the handle's
//! accumulated totals and commits its own `wall × workers` capacity, so a
//! handle reused across any number of runs — overlapping ones included —
//! stays O(live workers) and reports busy / Σ capacity.
//!
//! Everything is strictly observational and read from one clock,
//! `now_ns`, the only wall-clock read in this crate: hooks copy counters
//! outward and nothing here is consulted by the generate/format/write
//! path, so attaching telemetry cannot change generated bytes (a property
//! the byte-identity test suite checks directly).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use pdgf_schema::sync::{Cond, Lock};

use crate::events::{EventBus, EventSubscriber, RunEvent};
use crate::scheduler::TableRunStats;

/// Nanoseconds since the process-wide monotonic anchor.
///
/// Every timestamp and duration this crate reports comes from this single
/// clock so they are mutually comparable; the anchor is the first call
/// site, making early values small and deltas exact.
#[allow(clippy::disallowed_types, reason = "the telemetry clock")]
pub(crate) fn now_ns() -> u64 {
    use std::time::Instant;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds elapsed since the [`now_ns`] reading `start_ns`.
pub(crate) fn seconds_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1e9
}

/// Megabytes per second (0 before any time has passed).
pub(crate) fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        bytes as f64 / 1e6 / seconds
    } else {
        0.0
    }
}

/// Number of histogram buckets. Bucket `i` counts values in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 counts 0 ns), so 40 buckets
/// reach ~9 minutes — beyond any plausible single-package latency.
const BUCKETS: usize = 40;

/// A fixed-bucket, lock-free latency histogram (power-of-two buckets in
/// nanoseconds). Recording is three relaxed atomic adds; snapshotting
/// reads the buckets without stopping writers.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound (ns) of bucket `i` — the value a percentile query reports.
fn bucket_upper_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Record one latency observation.
    #[inline]
    pub(crate) fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, src) in buckets.iter_mut().zip(&self.buckets) {
            *b = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s counters, mergeable across workers
/// and runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Add another snapshot's counts into this one.
    fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Approximate `p`-quantile (`0.0..=1.0`) in nanoseconds: the upper
    /// bound of the power-of-two bucket containing the quantile, i.e.
    /// accurate to a factor of two — enough to tell a 2 µs format from a
    /// 2 ms write stall.
    fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(BUCKETS - 1)
    }

    /// The condensed stats a report carries.
    pub(crate) fn stats(&self) -> PhaseStats {
        PhaseStats {
            count: self.count,
            mean_ns: self.sum_ns.checked_div(self.count).unwrap_or(0),
            p50_ns: self.percentile_ns(0.50),
            p95_ns: self.percentile_ns(0.95),
            p99_ns: self.percentile_ns(0.99),
        }
    }
}

/// Condensed latency statistics for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Observations (packages, for every phase).
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: u64,
    /// Median (bucket-upper-bound approximation), nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// Per-package phase timing attached to `PackageCompleted` events.
///
/// Every field covers the whole package.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackageTimings {
    /// Worker wall time for the whole package (generate + format).
    pub total_ns: u64,
    /// Time filling the package's column batch.
    pub generate_ns: u64,
    /// Time transposing the batch through the formatter (framing included).
    pub format_ns: u64,
    /// Rows the generate/format times cover (all of the package's).
    pub sampled_rows: u64,
    /// Output-stage sink write time for the package's bytes.
    pub write_ns: u64,
}

/// One worker's private histogram set. Workers record into their own
/// instance with relaxed atomics; nothing is shared until snapshot time.
#[derive(Debug, Default)]
pub(crate) struct WorkerPhases {
    /// Per-row generate latency, one package mean per observation.
    pub(crate) generate: Histogram,
    /// Per-row format latency, one package mean per observation.
    pub(crate) format: Histogram,
    busy_ns: AtomicU64,
}

impl WorkerPhases {
    /// Add package-level busy time (the worker was generating/formatting,
    /// not waiting on tickets or channel backpressure).
    #[inline]
    pub(crate) fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Sampled pending-package statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepthStats {
    /// Number of depth samples taken (one per watchdog tick).
    pub samples: u64,
    /// Maximum observed depth.
    pub max: u64,
    /// Mean observed depth (integer floor).
    pub mean: u64,
}

/// The merged point-in-time metrics view a [`crate::RunReport`] carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSnapshot {
    /// Per-row generate latency (package means).
    pub generate: PhaseStats,
    /// Per-row format latency (package means).
    pub format: PhaseStats,
    /// Per-package sink write latency.
    pub write: PhaseStats,
    /// Worker busy time over available worker time, `0.0..=1.0`.
    pub utilization: f64,
    /// Sampled count of packages issued and not yet rendered.
    pub queue_depth: QueueDepthStats,
    /// Events dropped by the bounded event bus (slow subscriber).
    pub dropped_events: u64,
}

/// A point-in-time view of a [`Telemetry`]'s aggregate progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Rows generated so far.
    pub rows: u64,
    /// Output bytes produced so far.
    pub bytes: u64,
    /// Work packages completed so far.
    pub packages: u64,
    /// Seconds since the first recorded package (0 before any).
    pub elapsed_secs: f64,
    /// Megabytes per second since the first recorded package.
    pub throughput_mb_s: f64,
}

/// A point-in-time view of one table's progress.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table name.
    pub table: String,
    /// Rows generated so far for this table.
    pub rows: u64,
    /// Output bytes produced so far for this table (framing included).
    pub bytes: u64,
    /// Work packages completed so far for this table.
    pub packages: u64,
}

/// One table's progress counters, shared by every job of that table the
/// handle ever observes.
#[derive(Debug, Default)]
struct TableCell {
    name: String,
    rows: AtomicU64,
    bytes: AtomicU64,
    packages: AtomicU64,
}

impl TableCell {
    fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            table: self.name.clone(),
            rows: self.rows.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            packages: self.packages.load(Ordering::Relaxed),
        }
    }
}

/// Worker-side totals: histograms, busy time and committed capacity.
#[derive(Clone, Copy, Default)]
struct WorkerTotals {
    generate: HistogramSnapshot,
    format: HistogramSnapshot,
    busy_ns: u64,
    /// Σ (scope wall ns × workers).
    capacity_ns: u64,
}

impl WorkerTotals {
    /// Add `scope`'s slots and its capacity up to `now`.
    fn absorb(&mut self, scope: &ScopeShared, now: u64) {
        for slot in &scope.slots {
            self.generate.merge(&slot.generate.snapshot());
            self.format.merge(&slot.format.snapshot());
            self.busy_ns += slot.busy_ns.load(Ordering::Relaxed);
        }
        let wall = now.saturating_sub(scope.started_ns);
        self.capacity_ns += wall.saturating_mul(scope.slots.len() as u64);
    }
}

/// The live scopes plus everything finished scopes left behind.
#[derive(Default)]
struct Ledger {
    live: Vec<Arc<ScopeShared>>,
    finished: WorkerTotals,
}

/// Shared state behind a [`Telemetry`] handle.
struct Registry {
    bus: Arc<EventBus>,
    stall_timeout: Duration,
    write: Histogram,
    queue_samples: AtomicU64,
    queue_sum: AtomicU64,
    queue_max: AtomicU64,
    ledger: Lock<Ledger>,
    /// [`now_ns`] of the first recorded package: the throughput clock.
    first_package_ns: OnceLock<u64>,
    /// Per-table progress cells, in first-registered order. The lock only
    /// guards the vector; recording bumps the cells' atomics directly.
    tables: Lock<Vec<Arc<TableCell>>>,
}

impl Registry {
    /// The progress cell of `table`, registered on first sight.
    fn table_cell(&self, table: &str) -> Arc<TableCell> {
        let mut tables = self.tables.lock();
        if let Some(cell) = tables.iter().find(|c| c.name == table) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(TableCell {
            name: table.to_string(),
            ..TableCell::default()
        });
        tables.push(Arc::clone(&cell));
        cell
    }

    /// Fold a finished scope into the accumulated totals.
    fn retire(&self, scope: &Arc<ScopeShared>) {
        let mut ledger = self.ledger.lock();
        if let Some(i) = ledger.live.iter().position(|s| Arc::ptr_eq(s, scope)) {
            ledger.live.swap_remove(i);
            ledger.finished.absorb(scope, now_ns());
        }
    }
}

/// A cloneable telemetry handle: progress counters, phase metrics and the
/// event stream of one or more generation runs.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Registry>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("bus", &self.inner.bus)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Undelivered events the bus holds before it drops (and counts).
    pub const BUS_CAPACITY: usize = 1024;

    /// Telemetry with the default 10 s stall timeout.
    pub fn new() -> Self {
        Self::with_stall_timeout(Duration::from_secs(10))
    }

    /// Telemetry whose watchdog raises [`RunEvent::StallDetected`] after
    /// `stall_timeout` without a completed package.
    pub fn with_stall_timeout(stall_timeout: Duration) -> Self {
        Self {
            inner: Arc::new(Registry {
                bus: EventBus::new(Self::BUS_CAPACITY),
                stall_timeout,
                write: Histogram::default(),
                queue_samples: AtomicU64::new(0),
                queue_sum: AtomicU64::new(0),
                queue_max: AtomicU64::new(0),
                ledger: Lock::default(),
                first_package_ns: OnceLock::new(),
                tables: Lock::default(),
            }),
        }
    }

    /// A receiving handle on the event stream. Events are materialized
    /// only while a subscriber is alive, so subscribe before the run.
    /// Multiple subscribers share one queue (each event is delivered
    /// once); most callers want one.
    pub fn subscribe(&self) -> EventSubscriber {
        EventSubscriber::new(Arc::clone(&self.inner.bus))
    }

    /// Close the event bus: subscribers drain what is queued, then see
    /// `None`. Call after the last run completes so drain loops terminate.
    pub fn close(&self) {
        self.inner.bus.close();
    }

    /// Events dropped so far because the bus was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner.bus.dropped()
    }

    /// Aggregate progress across all runs this telemetry observed.
    pub fn progress(&self) -> Snapshot {
        let (mut rows, mut bytes, mut packages) = (0, 0, 0);
        for cell in self.inner.tables.lock().iter() {
            rows += cell.rows.load(Ordering::Relaxed);
            bytes += cell.bytes.load(Ordering::Relaxed);
            packages += cell.packages.load(Ordering::Relaxed);
        }
        let elapsed_secs = self
            .inner
            .first_package_ns
            .get()
            .map_or(0.0, |&t| seconds_since(t));
        Snapshot {
            rows,
            bytes,
            packages,
            elapsed_secs,
            throughput_mb_s: mb_per_s(bytes, elapsed_secs),
        }
    }

    /// Per-table progress, in first-registered order. Tables of a run
    /// that has started but not yet written appear with zero counts.
    pub fn table_progress(&self) -> Vec<TableSnapshot> {
        // Clone the cell list (cheap Arc bumps) so name clones never
        // happen under the lock `begin_run` registers through.
        let cells: Vec<Arc<TableCell>> = self.inner.tables.lock().clone();
        cells.iter().map(|c| c.snapshot()).collect()
    }

    /// Merged metrics across all runs this telemetry observed (callable
    /// mid-run for a live view).
    pub fn metrics(&self) -> MetricsSnapshot {
        let reg = &*self.inner;
        let now = now_ns();
        let workers = {
            let ledger = reg.ledger.lock();
            let mut totals = ledger.finished;
            for scope in &ledger.live {
                totals.absorb(scope, now);
            }
            totals
        };
        let samples = reg.queue_samples.load(Ordering::Relaxed);
        MetricsSnapshot {
            generate: workers.generate.stats(),
            format: workers.format.stats(),
            write: reg.write.snapshot().stats(),
            utilization: if workers.capacity_ns > 0 {
                (workers.busy_ns as f64 / workers.capacity_ns as f64).min(1.0)
            } else {
                0.0
            },
            queue_depth: QueueDepthStats {
                samples,
                max: reg.queue_max.load(Ordering::Relaxed),
                mean: reg
                    .queue_sum
                    .load(Ordering::Relaxed)
                    .checked_div(samples)
                    .unwrap_or(0),
            },
            dropped_events: reg.bus.dropped(),
        }
    }

    /// Publish one event on the bus; `event` is not called while nobody
    /// subscribes. Used by the serving layer for request-scoped events;
    /// run-lifecycle events go through [`RunScope`] instead.
    pub(crate) fn publish(&self, event: impl FnOnce() -> RunEvent) {
        self.inner.bus.publish(event);
    }

    /// Open a scope for one run of `(table, rows)` jobs on `workers`
    /// worker threads (0 = the calling thread, counted as one).
    pub(crate) fn begin_run<'a>(
        &self,
        jobs: impl IntoIterator<Item = (&'a str, u64)>,
        workers: usize,
    ) -> RunScope {
        let reg = &self.inner;
        let jobs: Vec<JobInfo> = jobs
            .into_iter()
            .map(|(table, rows)| JobInfo {
                cell: reg.table_cell(table),
                rows,
                started: AtomicBool::new(false),
                done: AtomicBool::new(false),
            })
            .collect();
        reg.bus.publish(|| RunEvent::RunStarted {
            jobs: jobs.len(),
            total_rows: jobs.iter().map(|j| j.rows).sum(),
        });
        let started_ns = now_ns();
        let shared = Arc::new(ScopeShared {
            jobs,
            slots: (0..workers.max(1))
                .map(|_| WorkerPhases::default())
                .collect(),
            started_ns,
            last_progress_ns: AtomicU64::new(started_ns),
            current_write: AtomicUsize::new(usize::MAX),
            queue_depth: AtomicU64::new(0),
            shutdown: Lock::new(false),
            tick: Cond::new(),
        });
        reg.ledger.lock().live.push(Arc::clone(&shared));
        let watchdog = spawn_watchdog(Arc::clone(reg), Arc::clone(&shared));
        RunScope {
            registry: Arc::clone(reg),
            shared,
            watchdog: Some(watchdog),
        }
    }
}

/// One job of a run: its table's progress cell plus lifecycle flags.
struct JobInfo {
    cell: Arc<TableCell>,
    /// Rows the job will generate.
    rows: u64,
    started: AtomicBool,
    done: AtomicBool,
}

/// State shared between the run scope, its watchdog thread and the
/// registry's ledger.
struct ScopeShared {
    jobs: Vec<JobInfo>,
    /// One private metric slot per worker.
    slots: Vec<WorkerPhases>,
    started_ns: u64,
    /// `now_ns()` of the most recent package/job completion.
    last_progress_ns: AtomicU64,
    /// Job index currently inside `Sink::write_chunk`, or `usize::MAX`.
    current_write: AtomicUsize,
    /// Packages issued to the engine and not yet rendered.
    queue_depth: AtomicU64,
    shutdown: Lock<bool>,
    tick: Cond,
}

impl ScopeShared {
    fn touch(&self) {
        self.last_progress_ns.store(now_ns(), Ordering::Relaxed);
    }

    /// Whether the run has work outstanding. An idle pool (empty ticket
    /// queue, nobody inside a sink write) is healthy no matter how long
    /// it sits — only *wedged* runs (work queued or a write in flight,
    /// yet no completions) are stall candidates.
    fn has_outstanding_work(&self) -> bool {
        self.queue_depth.load(Ordering::Relaxed) > 0
            || self.current_write.load(Ordering::Relaxed) != usize::MAX
    }

    /// Best guess at the stuck table: the job being written right now,
    /// else the first job not yet finished.
    fn stuck_table(&self) -> Option<&str> {
        let writing = self.current_write.load(Ordering::Relaxed);
        self.jobs
            .get(writing)
            .or_else(|| self.jobs.iter().find(|j| !j.done.load(Ordering::Relaxed)))
            .map(|j| j.cell.name.as_str())
    }
}

fn spawn_watchdog(
    registry: Arc<Registry>,
    shared: Arc<ScopeShared>,
) -> std::thread::JoinHandle<()> {
    let stall_timeout = registry.stall_timeout;
    // Tick a few times per timeout so detection latency stays well under
    // 2× the configured interval even with coarse sleeps.
    let tick = (stall_timeout / 4).max(Duration::from_millis(5));
    std::thread::Builder::new()
        .name("pdgf-watchdog".into())
        .spawn(move || {
            let stall_ns = stall_timeout.as_nanos() as u64;
            // The progress stamp we already fired for: one StallDetected
            // per stall episode, re-armed by any new progress.
            let mut fired_at = u64::MAX;
            loop {
                // The predicate wait checks the flag before parking: a run
                // can finish before this thread first gets here, and that
                // notification is not coming again.
                let stopping = shared.shutdown.lock();
                if *shared.tick.wait_timeout_until(stopping, tick, |stop| *stop) {
                    return;
                }
                let depth = shared.queue_depth.load(Ordering::Relaxed);
                registry.queue_samples.fetch_add(1, Ordering::Relaxed);
                registry.queue_sum.fetch_add(depth, Ordering::Relaxed);
                registry.queue_max.fetch_max(depth, Ordering::Relaxed);
                let last = shared.last_progress_ns.load(Ordering::Relaxed);
                let idle = now_ns().saturating_sub(last);
                // Idle-vs-wedged: a quiet run with nothing queued and no
                // write in flight is merely idle (normal for a long-lived
                // server between requests); only fire when work is
                // outstanding yet nothing has completed for the interval.
                if !shared.has_outstanding_work() {
                    // Re-arm: when work arrives later, the stall clock
                    // starts from that moment, not from the idle stretch.
                    shared.touch();
                    continue;
                }
                if idle >= stall_ns && last != fired_at {
                    if let Some(table) = shared.stuck_table() {
                        registry.bus.publish(|| RunEvent::StallDetected {
                            table: table.to_string(),
                            stalled_ms: idle / 1_000_000,
                        });
                    }
                    fired_at = last;
                }
            }
        })
        .unwrap_or_else(|e| panic!("failed to spawn watchdog thread: {e}"))
}

/// Per-run telemetry hooks, opened by the scheduler via
/// [`Telemetry::begin_run`] and closed by [`RunScope::finish`].
///
/// Every event hook is called from the single-threaded output stage, so
/// ordering of published events matches the order sinks observe writes;
/// workers only touch their private metric slot and the pending gauge.
pub(crate) struct RunScope {
    registry: Arc<Registry>,
    shared: Arc<ScopeShared>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl RunScope {
    /// Worker `i`'s private metric slot.
    pub(crate) fn slot(&self, i: usize) -> &WorkerPhases {
        &self.shared.slots[i % self.shared.slots.len()]
    }

    /// Publish `JobStarted` the first time job `idx` produces output.
    pub(crate) fn job_started(&self, idx: usize) {
        let Some(job) = self.shared.jobs.get(idx) else {
            return;
        };
        if !job.started.swap(true, Ordering::Relaxed) {
            self.registry.bus.publish(|| RunEvent::JobStarted {
                table: job.cell.name.clone(),
                rows: job.rows,
            });
        }
    }

    /// Mark job `idx` as inside a sink write (watchdog blame target).
    pub(crate) fn begin_write(&self, idx: usize) {
        self.shared.current_write.store(idx, Ordering::Relaxed);
    }

    /// Clear the in-write marker.
    pub(crate) fn end_write(&self) {
        self.shared
            .current_write
            .store(usize::MAX, Ordering::Relaxed);
    }

    /// Record a completed package: bump its table's progress counters,
    /// feed the write histogram, reset the watchdog's progress stamp and
    /// publish the event.
    pub(crate) fn package_completed(
        &self,
        idx: usize,
        seq: u64,
        rows: u64,
        bytes: u64,
        timings: PackageTimings,
    ) {
        self.registry.write.record(timings.write_ns);
        self.shared.touch();
        let Some(job) = self.shared.jobs.get(idx) else {
            return;
        };
        self.registry.first_package_ns.get_or_init(now_ns);
        job.cell.rows.fetch_add(rows, Ordering::Relaxed);
        job.cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        job.cell.packages.fetch_add(1, Ordering::Relaxed);
        self.registry.bus.publish(|| RunEvent::PackageCompleted {
            table: job.cell.name.clone(),
            seq,
            rows,
            bytes,
            timings,
        });
    }

    /// Publish `JobFinished` for job `idx`.
    pub(crate) fn job_finished(&self, idx: usize, stats: &TableRunStats) {
        let Some(job) = self.shared.jobs.get(idx) else {
            return;
        };
        job.done.store(true, Ordering::Relaxed);
        self.shared.touch();
        self.registry.bus.publish(|| RunEvent::JobFinished {
            table: job.cell.name.clone(),
            rows: stats.rows,
            bytes: stats.bytes,
            seconds: stats.seconds,
        });
    }

    /// Publish `SinkError` for job `idx`.
    pub(crate) fn sink_error(&self, idx: usize, error: &std::io::Error) {
        self.registry.bus.publish(|| RunEvent::SinkError {
            table: self
                .shared
                .jobs
                .get(idx)
                .map(|j| j.cell.name.clone())
                .unwrap_or_default(),
            message: error.to_string(),
        });
    }

    /// `n` more packages were issued for rendering: raise the pending
    /// gauge the watchdog samples.
    pub(crate) fn work_queued(&self, n: u64) {
        self.shared.queue_depth.fetch_add(n, Ordering::Relaxed);
    }

    /// One issued package was rendered (or skipped as cancelled): lower
    /// the pending gauge and reset the watchdog's progress stamp.
    pub(crate) fn work_done(&self) {
        self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.shared.touch();
    }

    /// Stop the watchdog and fold this scope's worker slots and its own
    /// `wall × workers` capacity into the handle's totals. Idempotent.
    fn close(&mut self) {
        let Some(handle) = self.watchdog.take() else {
            return;
        };
        *self.shared.shutdown.lock() = true;
        self.shared.tick.notify_all();
        let _ = handle.join();
        self.registry.retire(&self.shared);
    }

    /// Close the scope and publish `RunFinished`.
    pub(crate) fn finish(mut self, rows: u64, bytes: u64, seconds: f64) {
        self.close();
        self.registry.bus.publish(|| RunEvent::RunFinished {
            rows,
            bytes,
            seconds,
        });
    }
}

impl Drop for RunScope {
    /// Error paths that never reach `finish` must still stop the watchdog
    /// thread and close the utilization accounting.
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_with_jobs(telemetry: &Telemetry, jobs: &[(&str, u64)]) -> RunScope {
        telemetry.begin_run(jobs.iter().copied(), 2)
    }

    /// Record one package of `rows` rows and `bytes` bytes for job `idx`.
    fn record(scope: &RunScope, idx: usize, rows: u64, bytes: u64) {
        scope.package_completed(idx, 0, rows, bytes, PackageTimings::default());
    }

    fn table(telemetry: &Telemetry, name: &str) -> Option<TableSnapshot> {
        telemetry
            .table_progress()
            .into_iter()
            .find(|t| t.table == name)
    }

    fn stats_of(rows: u64, bytes: u64) -> TableRunStats {
        TableRunStats {
            rows,
            bytes,
            seconds: 0.0,
        }
    }

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_land_in_the_right_bucket() {
        let h = Histogram::default();
        // 90 fast observations (~1 µs) and 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.percentile_ns(0.50);
        assert!((1_000..4_096).contains(&p50), "p50={p50}");
        let p99 = s.percentile_ns(0.99);
        assert!(p99 >= 1_000_000, "p99={p99}");
        let mean = s.stats().mean_ns;
        assert!(mean > 1_000 && mean < 1_000_000);
        // Empty histogram reports zeros.
        assert_eq!(Histogram::default().snapshot().percentile_ns(0.99), 0);
        assert_eq!(
            Histogram::default().snapshot().stats(),
            PhaseStats::default()
        );
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(10);
        b.record(10);
        b.record(1 << 20);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert!(m.percentile_ns(1.0) >= 1 << 20);
    }

    #[test]
    fn hub_utilization_is_busy_over_capacity() {
        let telemetry = Telemetry::new();
        let scope = scope_with_jobs(&telemetry, &[("t", 1)]);
        // Make the run's wall clock strictly positive before finishing.
        std::thread::sleep(Duration::from_millis(2));
        scope.slot(0).add_busy_ns(1_000_000);
        scope.finish(0, 0, 0.0);
        let capacity = telemetry.inner.ledger.lock().finished.capacity_ns;
        assert!(capacity >= 2 * 2_000_000, "2 workers x 2 ms: {capacity}");
        assert_eq!(
            telemetry.metrics().utilization,
            1_000_000.0 / capacity as f64
        );
    }

    #[test]
    fn queue_depth_stats_track_max_and_mean() {
        // The watchdog samples the pending gauge on every tick.
        let telemetry = Telemetry::with_stall_timeout(Duration::from_secs(3600));
        assert_eq!(telemetry.metrics().queue_depth, QueueDepthStats::default());
        let reg = &telemetry.inner;
        for depth in [2, 10, 3] {
            reg.queue_samples.fetch_add(1, Ordering::Relaxed);
            reg.queue_sum.fetch_add(depth, Ordering::Relaxed);
            reg.queue_max.fetch_max(depth, Ordering::Relaxed);
        }
        let q = telemetry.metrics().queue_depth;
        assert_eq!((q.samples, q.max, q.mean), (3, 10, 5));
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert!(seconds_since(a) >= 0.0);
    }

    /// The slot leak: a handle reused for many runs keeps only live
    /// scopes' slots, and nothing a finished run measured is lost.
    #[test]
    fn reused_handle_folds_finished_runs_into_one_total() {
        let telemetry = Telemetry::with_stall_timeout(Duration::from_secs(3600));
        let workers = 2;
        let live_slots = |t: &Telemetry| -> usize {
            t.inner
                .ledger
                .lock()
                .live
                .iter()
                .map(|s| s.slots.len())
                .sum()
        };
        for run in 0..1_000u64 {
            let scope = telemetry.begin_run([("t", 1)], workers);
            assert!(live_slots(&telemetry) <= workers);
            for w in 0..workers {
                scope.slot(w).generate.record(100 + run);
                scope.slot(w).format.record(10);
                scope.slot(w).add_busy_ns(1);
            }
            if run % 2 == 0 {
                scope.finish(0, 0, 0.0);
            } else {
                drop(scope); // error paths fold too
            }
        }
        assert_eq!(live_slots(&telemetry), 0);
        let m = telemetry.metrics();
        assert_eq!(m.generate.count, 1_000 * workers as u64);
        assert_eq!(m.format.count, 1_000 * workers as u64);
        let finished = telemetry.inner.ledger.lock().finished;
        assert_eq!(finished.busy_ns, 1_000 * workers as u64);
    }

    /// Overlapping scopes on one handle (a `RowService` scope lives as
    /// long as the service): each commits its own `wall × workers`, and
    /// a live one counts pro rata.
    #[test]
    fn overlapping_scopes_each_commit_their_own_capacity() {
        let telemetry = Telemetry::with_stall_timeout(Duration::from_secs(3600));
        let t0 = now_ns();
        let long = telemetry.begin_run([("serve", 0)], 3);
        std::thread::sleep(Duration::from_millis(10));
        let t1 = now_ns();
        let short = telemetry.begin_run([("batch", 1)], 1);
        std::thread::sleep(Duration::from_millis(10));
        long.slot(0).add_busy_ns(4_000_000);
        short.slot(0).add_busy_ns(2_000_000);
        short.finish(0, 0, 0.0);
        let t2 = now_ns();

        // `long` is still live: its capacity so far counts.
        let live = telemetry.metrics().utilization;
        assert!(live > 0.0 && live < 1.0, "mid-run utilization {live}");

        std::thread::sleep(Duration::from_millis(10));
        long.finish(0, 0, 0.0);
        let t3 = now_ns();
        let finished = telemetry.inner.ledger.lock().finished;
        // 3 workers over the long scope's wall plus 1 over the short one's.
        let at_least = 3 * 30_000_000 + 10_000_000;
        let at_most = 3 * (t3 - t0) + (t2 - t1);
        assert!(
            (at_least..=at_most).contains(&finished.capacity_ns),
            "capacity {} outside {at_least}..={at_most}",
            finished.capacity_ns
        );
        assert_eq!(finished.busy_ns, 6_000_000);
        let utilization = telemetry.metrics().utilization;
        assert_eq!(utilization, 6_000_000.0 / finished.capacity_ns as f64);
        assert!(
            utilization < 0.1,
            "the clamp is nowhere near: {utilization}"
        );
    }

    #[test]
    fn counters_accumulate() {
        let telemetry = Telemetry::new();
        let scope = scope_with_jobs(&telemetry, &[("t", 150)]);
        record(&scope, 0, 100, 4096);
        record(&scope, 0, 50, 1024);
        let s = telemetry.progress();
        assert_eq!((s.rows, s.bytes, s.packages), (150, 5120, 2));
        assert!(s.elapsed_secs >= 0.0);
        assert_eq!(telemetry.metrics().write.count, 2);
    }

    #[test]
    fn clones_share_counters() {
        let telemetry = Telemetry::new();
        let clone = telemetry.clone();
        let a = scope_with_jobs(&telemetry, &[("t", 1)]);
        let b = scope_with_jobs(&clone, &[("t", 2)]);
        record(&a, 0, 1, 10);
        record(&b, 0, 2, 20);
        assert_eq!(telemetry.progress().rows, 3);
        assert_eq!(clone.progress().bytes, 30);
    }

    #[test]
    fn counters_are_thread_safe() {
        let telemetry = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let scope = scope_with_jobs(&telemetry, &[("t", 1000)]);
                    for _ in 0..1000 {
                        record(&scope, 0, 1, 2);
                    }
                });
            }
        });
        let snap = telemetry.progress();
        assert_eq!((snap.rows, snap.bytes, snap.packages), (8000, 16_000, 8000));
    }

    #[test]
    fn clock_starts_at_first_package_not_construction() {
        let telemetry = Telemetry::new();
        let scope = scope_with_jobs(&telemetry, &[("t", 10)]);
        assert_eq!(telemetry.progress().elapsed_secs, 0.0, "no packages");
        assert_eq!(telemetry.progress().throughput_mb_s, 0.0);
        std::thread::sleep(Duration::from_millis(60));
        record(&scope, 0, 10, 1_000_000);
        let s = telemetry.progress();
        // The 60 ms spent idle before the run must not count: a delayed
        // run's throughput is measured from its own first package.
        assert!(
            s.elapsed_secs < 0.05,
            "clock includes pre-run idle time: {}s",
            s.elapsed_secs
        );
    }

    #[test]
    fn per_table_counters_track_each_table() {
        let telemetry = Telemetry::new();
        let scope = scope_with_jobs(&telemetry, &[("a", 15), ("b", 20)]);
        // Registered tables appear immediately, with zero counts, in job
        // order — the shape a progress UI wants up front.
        let all = telemetry.table_progress();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].table.as_str(), all[0].rows), ("a", 0));

        record(&scope, 0, 10, 100);
        record(&scope, 1, 20, 200);
        record(&scope, 0, 5, 50);
        let a = table(&telemetry, "a").expect("table a recorded");
        assert_eq!((a.rows, a.bytes, a.packages), (15, 150, 2));
        let b = table(&telemetry, "b").expect("table b recorded");
        assert_eq!((b.rows, b.bytes, b.packages), (20, 200, 1));
        assert!(table(&telemetry, "c").is_none());

        // Aggregate view includes both tables.
        let s = telemetry.progress();
        assert_eq!((s.rows, s.bytes, s.packages), (35, 350, 3));
    }

    /// Jobs of one table — shards of it, or the same table in a later
    /// run — share its cell, whichever scope records.
    #[test]
    fn scopes_of_one_table_share_its_cell() {
        let telemetry = Telemetry::new();
        let first = scope_with_jobs(&telemetry, &[("a", 1000), ("a", 1000), ("b", 100)]);
        let second = scope_with_jobs(&telemetry, &[("a", 1000)]);
        assert_eq!(telemetry.table_progress().len(), 2, "registered once");
        std::thread::scope(|s| {
            for (scope, idx) in [(&first, 0), (&first, 1), (&second, 0)] {
                s.spawn(move || {
                    for _ in 0..500 {
                        record(scope, idx, 2, 10);
                    }
                });
            }
        });
        for _ in 0..100 {
            record(&first, 2, 1, 1);
        }
        let a = table(&telemetry, "a").expect("a");
        assert_eq!((a.rows, a.packages), (3000, 1500));
        assert_eq!(table(&telemetry, "b").expect("b").bytes, 100);
        let total = telemetry.progress();
        assert_eq!((total.rows, total.bytes), (3100, 15_100));
    }

    #[test]
    fn poisoned_registry_recovers_with_honest_counters() {
        // A thread panicking while it holds the table registry poisons
        // the mutex; later runs keep registering and recording, and the
        // final snapshot counts every completed package exactly once.
        let telemetry = Telemetry::new();
        let scope = scope_with_jobs(&telemetry, &[("lineitem", 20)]);
        record(&scope, 0, 10, 100);
        {
            let telemetry = telemetry.clone();
            let handle = std::thread::spawn(move || {
                let _guard = telemetry.inner.tables.lock();
                panic!("dies holding the registry lock");
            });
            assert!(handle.join().is_err(), "the panic must reach join");
        }
        let later = scope_with_jobs(&telemetry, &[("orders", 5)]);
        record(&later, 0, 5, 50);
        record(&scope, 0, 10, 100);
        let tables = telemetry.table_progress();
        assert_eq!(tables.len(), 2);
        assert_eq!((tables[0].rows, tables[0].bytes), (20, 200));
        assert_eq!((tables[1].rows, tables[1].bytes), (5, 50));
        let total = telemetry.progress();
        assert_eq!((total.rows, total.bytes, total.packages), (25, 250, 3));
    }

    #[test]
    fn scope_publishes_lifecycle_events_in_order() {
        let telemetry = Telemetry::new();
        let sub = telemetry.subscribe();
        let scope = scope_with_jobs(&telemetry, &[("a", 10)]);
        scope.job_started(0);
        scope.job_started(0); // deduplicated
        record(&scope, 0, 10, 55);
        scope.job_finished(0, &stats_of(10, 55));
        scope.finish(10, 55, 0.5);
        telemetry.close();
        let kinds: Vec<String> = std::iter::from_fn(|| sub.recv())
            .map(|e| {
                format!("{:?}", e.event)
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "RunStarted",
                "JobStarted",
                "PackageCompleted",
                "JobFinished",
                "RunFinished"
            ]
        );
        assert_eq!(telemetry.dropped_events(), 0);
    }

    /// The next `StallDetected` on `sub`: `(table, stalled_ms)`.
    fn next_stall(sub: &EventSubscriber) -> (String, u64) {
        loop {
            let e = sub.recv_timeout(Duration::from_secs(5)).expect("an event");
            if let RunEvent::StallDetected { table, stalled_ms } = e.event {
                return (table, stalled_ms);
            }
        }
    }

    /// `StallDetected` events on a closed bus.
    fn stalls(sub: &EventSubscriber) -> usize {
        std::iter::from_fn(|| sub.recv())
            .filter(|e| matches!(e.event, RunEvent::StallDetected { .. }))
            .count()
    }

    #[test]
    fn watchdog_names_the_writing_table() {
        let telemetry = Telemetry::with_stall_timeout(Duration::from_millis(30));
        let sub = telemetry.subscribe();
        let scope = scope_with_jobs(&telemetry, &[("fast", 1), ("wedged", 1)]);
        scope.begin_write(1);
        let (table, stalled_ms) = next_stall(&sub);
        assert_eq!(table, "wedged");
        assert!(stalled_ms >= 30);
        scope.end_write();
        scope.finish(0, 0, 0.0);
    }

    #[test]
    fn watchdog_blames_first_unfinished_job_outside_writes() {
        let telemetry = Telemetry::with_stall_timeout(Duration::from_millis(25));
        let sub = telemetry.subscribe();
        let scope = scope_with_jobs(&telemetry, &[("done", 1), ("pending", 1)]);
        scope.work_queued(1); // work outstanding: a stall is real
        scope.job_finished(0, &stats_of(1, 1));
        assert_eq!(next_stall(&sub).0, "pending");
        scope.finish(1, 1, 0.0);
    }

    #[test]
    fn watchdog_fires_once_per_episode() {
        let telemetry = Telemetry::with_stall_timeout(Duration::from_millis(20));
        let sub = telemetry.subscribe();
        let scope = scope_with_jobs(&telemetry, &[("t", 1)]);
        // Queued work that never completes, then a long wedged stretch:
        // several watchdog ticks past the timeout.
        scope.work_queued(3);
        std::thread::sleep(Duration::from_millis(120));
        scope.finish(0, 0, 0.0);
        telemetry.close();
        assert_eq!(stalls(&sub), 1, "one StallDetected per stall episode");
        let q = telemetry.metrics().queue_depth;
        assert!(q.samples > 0 && q.max == 3, "the ticks sampled the gauge");
    }

    #[test]
    fn idle_scope_never_stalls() {
        // An idle-but-healthy scope (empty ticket queue, no write in
        // flight) must sit well past the stall timeout without a single
        // StallDetected — the long-lived `pdgf serve` posture.
        let telemetry = Telemetry::with_stall_timeout(Duration::from_millis(20));
        let sub = telemetry.subscribe();
        let scope = scope_with_jobs(&telemetry, &[("serve", 0)]);
        std::thread::sleep(Duration::from_millis(120));
        scope.finish(0, 0, 0.0);
        telemetry.close();
        assert_eq!(stalls(&sub), 0, "idle pool is not a stall");
    }

    #[test]
    fn idle_then_wedged_still_fires() {
        // The idle re-arm must not mask a later real stall: after a long
        // idle stretch, queued-but-stuck work fires within ~2 timeouts.
        let telemetry = Telemetry::with_stall_timeout(Duration::from_millis(20));
        let sub = telemetry.subscribe();
        let scope = scope_with_jobs(&telemetry, &[("t", 1)]);
        std::thread::sleep(Duration::from_millis(60)); // idle: no events
        scope.work_queued(1);
        assert_eq!(next_stall(&sub).0, "t");
        scope.finish(0, 0, 0.0);
    }

    #[test]
    fn dropped_scope_still_stops_the_watchdog() {
        let telemetry = Telemetry::new();
        let scope = scope_with_jobs(&telemetry, &[("t", 1)]);
        drop(scope); // must not leak the thread or hang
        let m = telemetry.metrics();
        assert_eq!(m.dropped_events, 0);
        assert!(telemetry.inner.ledger.lock().live.is_empty());
    }
}
