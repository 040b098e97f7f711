//! The execution core: one task queue, one worker loop, one render
//! function, one ordered package stream.
//!
//! The paper's Fig. 2 has a single pipeline — scheduler → workers (seed +
//! generate + format) → output system — and this module is it. Both
//! executors are clients: a batch run ([`crate::scheduler`]) opens one
//! [`Stream`] per table job and drains them into sinks on the calling
//! thread; the row service ([`crate::serve`]) opens one per admitted
//! request and hands the packages to a network reader. A batch file is
//! simply a whole-table range request whose reader is a sink.
//!
//! * A [`Request`] is one row range of one table with the framing it
//!   owns ([`crate::Framing`]). Package `seq` covers rows
//!   `start + seq * package_rows ..` — plain arithmetic, no package list.
//!   The first package carries the formatter's `begin` bytes and the last
//!   its `end` bytes when the request owns them, so a rowless request
//!   that owns framing still has one (empty-bodied) package to carry
//!   them.
//! * [`Stream::issue`] puts package tickets on the engine's FIFO queue;
//!   [`Engine::worker_loop`] pops them, [`Engine::render`]s each into a
//!   buffer from the shared [`BufferPool`] (generate column-wise, then
//!   transpose through the formatter) and delivers it to the request's
//!   [`ReorderBuffer`]; [`Stream::next`] hands the packages out in row
//!   order. Backpressure is reader-driven: only the reader issues
//!   tickets, so workers never block on a full output queue — they run
//!   whatever other tickets exist.
//! * [`Stream::next`] is every reader's one call. With nothing of the
//!   stream in flight it runs the same [`Engine::render`] on the calling
//!   thread; nothing is queued and nobody is woken. An inline batch run
//!   and the service's one-package replies get every package this way.
//! * Dropping a stream cancels its unrendered tickets and returns every
//!   rendered-but-unread buffer to the pool. [`Engine::stop`] ends the
//!   workers once the queue is empty, and ends every unfinished stream.
//!
//! The engine holds its schema and formatter through [`Held`], borrowed
//! for a batch run's scoped threads or reference-counted for the
//! service's long-lived ones. Synchronization comes from
//! [`pdgf_schema::sync`], so every lock here is a leaf and
//! `tests/loom.rs` model-checks this code unmodified.

use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::Arc;
use std::time::Duration;

use pdgf_gen::{GenScratch, SchemaRuntime};
use pdgf_output::{BufferPool, Formatter, ReorderBuffer, TableMeta};
use pdgf_schema::sync::{AtomicBool, Cond, Lock, Ordering};
use pdgf_schema::ColumnBatch;

use crate::package::TableJob;
use crate::scheduler::table_meta;
use crate::telemetry::{now_ns, PackageTimings, RunScope, WorkerPhases};

/// A shared value the core holds either way: borrowed for the span of a
/// batch run, or reference-counted for a service whose threads outlive
/// their creator.
pub(crate) enum Held<'a, T: ?Sized> {
    Borrowed(&'a T),
    Counted(Arc<T>),
}

impl<T: ?Sized> Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Self::Borrowed(r) => r,
            Self::Counted(a) => a,
        }
    }
}

/// Cap on statically sized package buffers: a proven-but-huge bound (wide
/// rows × large packages) must not balloon a single allocation; past this
/// size ordinary growth takes over.
const MAX_PREALLOC_BYTES: u64 = 64 << 20;

/// One rendered package as its reader receives it.
pub(crate) struct Package {
    /// Formatted bytes, in a buffer taken from the engine's pool.
    pub(crate) bytes: Vec<u8>,
    /// Rows the package covers (0 for a framing-only package).
    pub(crate) rows: u64,
    /// Worker-side phase timings; zero unless telemetry is attached.
    pub(crate) timings: PackageTimings,
}

/// Reorder-and-ready state of one in-flight request.
struct Delivery {
    reorder: ReorderBuffer<Package>,
    ready: VecDeque<Package>,
}

/// One row range of one table: everything a worker needs to render any
/// of its packages, shared between the reader and the pool.
pub(crate) struct Request<'a> {
    rt: Held<'a, SchemaRuntime>,
    formatter: Held<'a, dyn Formatter + 'a>,
    job: TableJob,
    meta: TableMeta,
    /// Proven upper bound on formatted bytes per row, from the abstract
    /// interpreter's column profiles; sizes package buffers up front.
    /// Purely an allocation hint: bytes are identical without it.
    row_bound: Option<u64>,
    total_packages: u64,
    /// Set when the reader goes away; unrendered packages are skipped.
    cancelled: AtomicBool,
    delivery: Lock<Delivery>,
    ready: Cond,
}

impl<'a> Request<'a> {
    pub(crate) fn new(
        rt: Held<'a, SchemaRuntime>,
        formatter: Held<'a, dyn Formatter + 'a>,
        job: TableJob,
        package_rows: u64,
    ) -> Self {
        let meta = table_meta(&rt, job.table);
        let row_bound = formatter.max_row_bytes(&meta, &rt.profiles()[job.table as usize]);
        let span = job.rows.end.saturating_sub(job.rows.start);
        let mut total_packages = span.div_ceil(package_rows);
        if total_packages == 0 && (job.framing.begin || job.framing.end) {
            total_packages = 1;
        }
        Self {
            rt,
            formatter,
            job,
            meta,
            row_bound,
            total_packages,
            cancelled: AtomicBool::new(false),
            delivery: Lock::new(Delivery {
                reorder: ReorderBuffer::new(),
                ready: VecDeque::new(),
            }),
            ready: Cond::new(),
        }
    }

    /// Packages this request renders in total.
    pub(crate) fn total_packages(&self) -> u64 {
        self.total_packages
    }

    /// The rows package `seq` covers (the tail package may be short; a
    /// framing-only package covers none).
    fn rows_of(&self, seq: u64, package_rows: u64) -> Range<u64> {
        let rows = &self.job.rows;
        let start = rows
            .start
            .saturating_add(seq.saturating_mul(package_rows))
            .min(rows.end);
        start..start.saturating_add(package_rows).min(rows.end)
    }
}

/// One package ticket on the engine's queue.
struct Task<'a> {
    req: Arc<Request<'a>>,
    seq: u64,
}

/// Reusable render buffers of one worker or rendering reader; after
/// warm-up a renderer allocates nothing per package.
#[derive(Default)]
pub(crate) struct WorkerState {
    batch: ColumnBatch,
    scratch: GenScratch,
}

/// The shared half of the pipeline: ticket queue, buffer pool and (when
/// telemetry is attached) the run scope whose watchdog supervises it.
pub(crate) struct Engine<'a> {
    queue: Lock<VecDeque<Task<'a>>>,
    work: Cond,
    stopped: AtomicBool,
    package_rows: u64,
    /// Package buffers: `render` takes, the stream's consumer puts back.
    pub(crate) buffers: Arc<BufferPool>,
    /// Per-worker metric slots and the pending-work gauge live here.
    pub(crate) scope: Option<RunScope>,
}

/// Stops its engine when dropped — on return and on unwind alike.
pub(crate) struct StopOnDrop<'e, 'a>(pub(crate) &'e Engine<'a>);

impl Drop for StopOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

impl<'a> Engine<'a> {
    /// An engine rendering `package_rows`-row packages, keeping at most
    /// `idle_buffers` recycled buffers.
    pub(crate) fn new(package_rows: u64, idle_buffers: usize, scope: Option<RunScope>) -> Self {
        Self {
            queue: Lock::new(VecDeque::new()),
            work: Cond::new(),
            stopped: AtomicBool::new(false),
            package_rows,
            buffers: Arc::new(BufferPool::new(idle_buffers)),
            scope,
        }
    }

    /// Open the ordered package stream of one request. Nothing renders
    /// until the reader [`issue`](Stream::issue)s tickets.
    pub(crate) fn open(
        &self,
        rt: Held<'a, SchemaRuntime>,
        formatter: Held<'a, dyn Formatter + 'a>,
        job: TableJob,
    ) -> Stream<'a> {
        Stream {
            req: Arc::new(Request::new(rt, formatter, job, self.package_rows)),
            buffers: Arc::clone(&self.buffers),
            issued: 0,
            delivered: 0,
        }
    }

    /// Queue one ticket. Depth is bounded by the readers: each keeps at
    /// most its window of tickets in flight.
    fn push(&self, task: Task<'a>) {
        self.queue.lock().push_back(task);
        if let Some(scope) = &self.scope {
            scope.work_queued(1);
        }
        self.work.notify_one();
    }

    /// Whether [`stop`](Self::stop) was called.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Ask the workers to exit once the queue is empty. The flag is set
    /// under the queue lock: a worker that found the queue empty holds
    /// that lock until it parks, so it cannot miss the wake-up.
    pub(crate) fn stop(&self) {
        let q = self.queue.lock();
        self.stopped.store(true, Ordering::Release);
        drop(q);
        self.work.notify_all();
    }

    /// One worker: pop tickets, render, deliver, until stopped and idle.
    pub(crate) fn worker_loop(&self, worker: usize) {
        let phases = self.scope.as_ref().map(|s| s.slot(worker));
        let mut state = WorkerState::default();
        loop {
            let popped = self
                .work
                .wait_until(self.queue.lock(), |q| !q.is_empty() || self.is_stopped())
                .pop_front();
            let Some(task) = popped else {
                return;
            };
            if !task.req.cancelled.load(Ordering::Relaxed) {
                let pkg = self.render(&task.req, task.seq, &mut state, phases);
                self.deliver(&task.req, task.seq, pkg);
            }
            if let Some(scope) = &self.scope {
                scope.work_done();
            }
        }
    }

    /// Render package `seq` of `req`: fill a typed [`ColumnBatch`] column
    /// by column, then transpose it through the formatter, framed by
    /// position. Byte identity with any other split of the same rows
    /// follows from the formatter contract: `begin` + per-row appends +
    /// `end`, independent of package boundaries. The clock is read only
    /// when a metric slot is attached; the fill/transpose boundary gives
    /// whole-package phase times, fed to the histograms as per-row means.
    pub(crate) fn render(
        &self,
        req: &Request<'_>,
        seq: u64,
        state: &mut WorkerState,
        phases: Option<&WorkerPhases>,
    ) -> Package {
        let rows = req.rows_of(seq, self.package_rows);
        let n = rows.end - rows.start;
        let hint = req
            .row_bound
            .and_then(|b| b.checked_mul(n))
            .map_or(0, |b| b.min(MAX_PREALLOC_BYTES) as usize);
        let mut out = self.buffers.take_with_capacity(hint);
        let clock = || phases.map_or(0, |_| now_ns());

        let started = clock();
        if n > 0 {
            let job = &req.job;
            req.rt.fill_batch(
                job.table,
                job.update,
                rows,
                &mut state.batch,
                &mut state.scratch,
            );
        }
        let filled = clock();
        if seq == 0 && req.job.framing.begin {
            req.formatter.begin(&mut out, &req.meta);
        }
        if n > 0 {
            req.formatter
                .rows_columnar(&mut out, &req.meta, &state.batch);
        }
        if seq + 1 == req.total_packages && req.job.framing.end {
            req.formatter.end(&mut out, &req.meta);
        }

        let mut timings = PackageTimings::default();
        if let Some(phases) = phases {
            let finished = now_ns();
            timings.generate_ns = filled.saturating_sub(started);
            timings.format_ns = finished.saturating_sub(filled);
            timings.total_ns = finished.saturating_sub(started);
            if let (Some(g), Some(f)) = (
                timings.generate_ns.checked_div(n),
                timings.format_ns.checked_div(n),
            ) {
                phases.generate.record(g);
                phases.format.record(f);
                timings.sampled_rows = n;
            }
            phases.add_busy_ns(timings.total_ns);
        }
        Package {
            bytes: out,
            rows: n,
            timings,
        }
    }

    /// Hand one rendered package to its request: slot it into the reorder
    /// buffer, promote whatever became contiguous, and wake the reader
    /// only after the guard is released. A package that lost the race
    /// with its reader's departure goes straight back to the pool.
    fn deliver(&self, req: &Request<'_>, seq: u64, pkg: Package) {
        let mut d = req.delivery.lock();
        if req.cancelled.load(Ordering::Relaxed) {
            drop(d);
            self.buffers.put(pkg.bytes);
            return;
        }
        let mut next = d.reorder.push(seq, pkg);
        while let Some(p) = next {
            d.ready.push_back(p);
            next = d.reorder.pop_ready();
        }
        drop(d);
        req.ready.notify_all();
    }
}

/// A request's ordered package stream. The reader issues tickets and
/// receives rendered packages in row order; how many tickets it keeps in
/// flight is its window. Dropping the stream cancels what is unrendered
/// and recycles what is unread.
pub(crate) struct Stream<'a> {
    req: Arc<Request<'a>>,
    buffers: Arc<BufferPool>,
    issued: u64,
    delivered: u64,
}

impl<'a> Stream<'a> {
    /// The request behind this stream.
    pub(crate) fn request(&self) -> &Request<'a> {
        &self.req
    }

    /// Tickets issued whose packages the reader has not yet received.
    pub(crate) fn in_flight(&self) -> u64 {
        self.issued - self.delivered
    }

    /// Whether every ticket of the request has been issued.
    pub(crate) fn is_fully_issued(&self) -> bool {
        self.issued == self.req.total_packages
    }

    /// Whether the reader has received every package.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.delivered == self.req.total_packages
    }

    /// Packages the reader has received so far.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Put up to `max_new` further tickets on `engine`'s queue; returns
    /// how many were issued.
    pub(crate) fn issue(&mut self, engine: &Engine<'a>, max_new: u64) -> u64 {
        let n = max_new.min(self.req.total_packages - self.issued);
        for _ in 0..n {
            engine.push(Task {
                req: Arc::clone(&self.req),
                seq: self.issued,
            });
            self.issued += 1;
        }
        n
    }

    /// Blocking: the next package in row order, or `None` after the last
    /// one — or when `engine` stops before this request completes, which
    /// [`is_exhausted`](Self::is_exhausted) tells apart. With nothing in
    /// flight the reader renders the package itself, in `state`, with no
    /// ticket and no wake-up; otherwise it waits for delivery.
    pub(crate) fn next(&mut self, engine: &Engine<'a>, state: &mut WorkerState) -> Option<Package> {
        if self.is_exhausted() {
            return None;
        }
        if self.in_flight() == 0 {
            if engine.is_stopped() {
                return None;
            }
            let phases = engine.scope.as_ref().map(|s| s.slot(0));
            let pkg = engine.render(&self.req, self.issued, state, phases);
            self.issued += 1;
            self.delivered += 1;
            return Some(pkg);
        }
        let mut d = self.req.delivery.lock();
        let pkg = loop {
            if let Some(p) = d.ready.pop_front() {
                break p;
            }
            if engine.is_stopped() {
                return None;
            }
            // Timed so a stop while parked is noticed.
            d = self
                .req
                .ready
                .wait_timeout_until(d, Duration::from_millis(50), |d| !d.ready.is_empty());
        };
        drop(d);
        self.delivered += 1;
        Some(pkg)
    }
}

impl Drop for Stream<'_> {
    fn drop(&mut self) {
        // Cancel under the delivery lock, so a worker mid-render either
        // delivered before this point (and is drained here) or sees the
        // flag in `deliver` and recycles its own buffer.
        let stranded: Vec<Package> = {
            let mut d = self.req.delivery.lock();
            self.req.cancelled.store(true, Ordering::Relaxed);
            let d = &mut *d;
            d.ready.drain(..).chain(d.reorder.drain_parked()).collect()
        };
        for pkg in stranded {
            self.buffers.put(pkg.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::Framing;
    use crate::testkit::runtime;
    use pdgf_output::CsvFormatter;

    fn request<'a>(
        rt: &'a SchemaRuntime,
        formatter: &'a CsvFormatter,
        rows: Range<u64>,
        framing: Framing,
        package_rows: u64,
    ) -> Request<'a> {
        let job = TableJob {
            table: 0,
            update: 0,
            rows,
            framing,
        };
        Request::new(
            Held::Borrowed(rt),
            Held::Borrowed(formatter),
            job,
            package_rows,
        )
    }

    #[test]
    fn packages_cover_the_range_exactly_once() {
        let rt = runtime(2_000);
        let csv = CsvFormatter::new();
        let req = request(&rt, &csv, 50..1_063, Framing::none(), 64);
        assert_eq!(req.total_packages(), 16, "1013 rows in 64-row packages");
        let mut expected_start = 50;
        for seq in 0..req.total_packages() {
            let rows = req.rows_of(seq, 64);
            assert_eq!(rows.start, expected_start, "gap or overlap at {seq}");
            assert!(!rows.is_empty() && rows.end - rows.start <= 64);
            expected_start = rows.end;
        }
        assert_eq!(expected_start, 1_063);
        assert_eq!(req.rows_of(15, 64), 1_010..1_063, "short tail package");
        assert!(req.rows_of(16, 64).is_empty(), "nothing past the end");
        assert!(req.rows_of(u64::MAX, u64::MAX).is_empty(), "no overflow");
    }

    #[test]
    fn a_rowless_request_has_a_package_only_to_carry_framing() {
        let rt = runtime(10);
        let csv = CsvFormatter::new();
        assert_eq!(
            request(&rt, &csv, 5..5, Framing::none(), 4).total_packages(),
            0
        );
        let framed = request(&rt, &csv, 0..0, Framing::full(), 4);
        assert_eq!(framed.total_packages(), 1);
        assert!(framed.rows_of(0, 4).is_empty());
    }

    /// Dropping a stream mid-request cancels its queued tickets and
    /// returns every buffer it was holding; the worker then has nothing
    /// left to do and stops promptly.
    #[test]
    fn dropping_a_stream_cancels_and_recycles() {
        let rt = runtime(1_000);
        let csv = CsvFormatter::new().with_header();
        let engine = Engine::new(10, 8, None);
        std::thread::scope(|threads| {
            let _stop = StopOnDrop(&engine);
            threads.spawn(|| engine.worker_loop(0));
            let job = TableJob::full_table(0, 1_000);
            let mut stream = engine.open(Held::Borrowed(&rt), Held::Borrowed(&csv), job);
            assert_eq!(stream.issue(&engine, 6), 6);
            assert_eq!(stream.in_flight(), 6);
            let first = stream
                .next(&engine, &mut WorkerState::default())
                .expect("package 0");
            assert!(first.bytes.starts_with(b"id,v\n1,"), "header, then row 1");
            assert_eq!((first.rows, stream.in_flight()), (10, 5));
            engine.buffers.put(first.bytes);
            drop(stream);
        });
        assert_eq!(engine.buffers.outstanding(), 0);
        assert!(engine.queue.lock().is_empty(), "cancelled tickets drained");
    }

    /// The race `dropping_a_stream_cancels_and_recycles` only sometimes
    /// hits, forced: a package rendered before its reader left and
    /// delivered after goes straight back to the pool.
    #[test]
    fn a_package_delivered_after_its_reader_left_is_recycled() {
        let rt = runtime(100);
        let csv = CsvFormatter::new();
        let engine = Engine::new(10, 8, None);
        let stream = engine.open(
            Held::Borrowed(&rt),
            Held::Borrowed(&csv),
            TableJob::full_table(0, 100),
        );
        let req = Arc::clone(&stream.req);
        let pkg = engine.render(&req, 0, &mut WorkerState::default(), None);
        assert_eq!(engine.buffers.outstanding(), 1);
        drop(stream);
        engine.deliver(&req, 0, pkg);
        assert_eq!(engine.buffers.outstanding(), 0);
        assert!(req.delivery.lock().ready.is_empty());
    }
}
