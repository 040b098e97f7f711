//! On-the-fly row service: the persistent scheduler answering requests.
//!
//! The paper's seeding hierarchy makes any cell recomputable in O(1), so
//! a table never has to be materialized to be read — the "On The Fly"
//! posture: keep one worker pool alive and let clients ask for row
//! ranges and point lookups on demand. [`RowService`] is the serving
//! face of the execution core (the `engine` module): it owns what is
//! serve-specific — admission (validation, clamping), the model table,
//! [`ServeStats`], and long-lived worker threads over `Arc`-held schemas
//! — and leaves queueing, rendering, ordering and cancellation to the
//! same core a batch run uses. A [`RowRequest`] names `(model, table,
//! update, row range)`; its packages stream back in row order through a
//! [`ResponseStream`].
//!
//! One service can host **several models** ([`RowService::with_models`]):
//! every registered schema shares the single engine, so a deployment
//! serves many workloads without multiplying threads. Requests name their model by index; per-model counters are
//! kept alongside the service-wide ones ([`RowService::stats_of`]).
//!
//! Ranges wider than `max_request_rows` are either rejected
//! ([`RowService::submit`], the legacy strict path) or **clamped**
//! ([`RowService::submit_clamped`]): the stream serves the first
//! `max_request_rows` rows and reports where the remainder starts, which
//! is what the serve front ends turn into resumable cursor tokens.
//! Because framing is positional, the clamped tiles concatenate
//! byte-equal to a single-shot response.
//!
//! Determinism is the contract: the same `(table, update, range, format)`
//! request always returns the same bytes, and because framing is
//! positional ([`Framing::for_range`]) concatenating the responses of
//! adjacent ranges is byte-equal to a `pdgf generate` file of the whole
//! table. Nothing here caches rows — every answer is recomputed, which is
//! exactly why answers cannot drift.
//!
//! Backpressure is reader-driven: a request may have at most `window`
//! packages in flight. The next package ticket is issued only when the
//! reader consumes one, so a slow (or stopped) reader starves itself and
//! nobody else. Requests multiplex onto the engine's one FIFO ticket
//! queue; a dropped [`ResponseStream`] cancels its unrendered packages.
//! A reply of exactly one package — every point lookup, every tile of up
//! to `package_rows` rows — never enters the queue: its reader renders
//! it on the calling thread, so a lookup costs no thread hand-off.
//!
//! With a [`Telemetry`] attached the service keeps a long-lived run scope
//! (so the stall watchdog supervises it — see the idle-vs-wedged
//! distinction in [`crate::telemetry`]), publishes request-scoped events
//! (`RequestStarted`/`RequestFinished`/`RequestFailed`), and feeds a
//! lock-free latency histogram surfaced through [`RowService::stats`].

use std::cell::RefCell;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pdgf_gen::SchemaRuntime;
use pdgf_output::Formatter;

use crate::engine::{Engine, Held, Stream, WorkerState};
use crate::events::RunEvent;
use crate::package::{Framing, TableJob};
use crate::telemetry::{now_ns, seconds_since, Histogram, PhaseStats, Telemetry};

thread_local! {
    /// The render buffers of a thread that renders its own one-package
    /// replies; after warm-up a connection thread allocates none per
    /// lookup.
    static READER_STATE: RefCell<WorkerState> = RefCell::new(WorkerState::default());
}

/// Tuning knobs for a [`RowService`], built fluently like
/// [`RunConfig`](crate::RunConfig):
///
/// ```
/// use pdgf_runtime::serve::ServeConfig;
/// let cfg = ServeConfig::new().workers(2).package_rows(512).window(8);
/// assert_eq!(cfg.worker_threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; always ≥ 1 (a service cannot run inline).
    pub(crate) workers: usize,
    /// Rows per work package (response streaming granularity).
    pub(crate) package_rows: u64,
    /// Max in-flight packages per request (backpressure window).
    pub(crate) window: usize,
    /// Reject requests spanning more than this many rows (0 = unlimited).
    pub(crate) max_request_rows: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: crate::scheduler::available_workers(),
            package_rows: 4_096,
            window: 4,
            max_request_rows: 0,
        }
    }
}

impl ServeConfig {
    /// Start from the defaults: one worker per core, 4096-row packages,
    /// a 4-package window, no request-size cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the rows per work package.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0, like
    /// [`RunConfig::package_rows`](crate::RunConfig::package_rows).
    pub fn package_rows(mut self, rows: u64) -> Self {
        assert!(rows > 0, "ServeConfig::package_rows must be at least 1");
        self.package_rows = rows;
        self
    }

    /// Set the per-request in-flight package window (clamped to ≥ 1).
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Reject requests spanning more than `rows` rows (0 = unlimited).
    pub fn max_request_rows(mut self, rows: u64) -> Self {
        self.max_request_rows = rows;
        self
    }

    /// Configured worker thread count.
    pub fn worker_threads(&self) -> usize {
        self.workers
    }

    /// Configured rows per work package.
    pub fn rows_per_package(&self) -> u64 {
        self.package_rows
    }

    /// Configured per-request window.
    pub fn request_window(&self) -> usize {
        self.window
    }
}

/// One row-range request: which rows of which table of which model, and
/// how the response is framed.
#[derive(Debug, Clone)]
pub struct RowRequest {
    /// Model index (0 for single-model services; see
    /// [`RowService::model_index`]).
    pub model: u32,
    /// Table index within the model (see [`RowService::table_index_in`]).
    pub table: u32,
    /// Update epoch.
    pub update: u32,
    /// Row range (global row numbers, end-exclusive).
    pub rows: Range<u64>,
    /// Framing override. `None` (the usual case) frames positionally via
    /// [`Framing::for_range`], which is what makes concatenated range
    /// responses byte-equal to whole-table output.
    pub framing: Option<Framing>,
}

impl RowRequest {
    /// A positionally framed range request against model 0.
    pub fn range(table: u32, update: u32, rows: Range<u64>) -> Self {
        Self {
            model: 0,
            table,
            update,
            rows,
            framing: None,
        }
    }

    /// A point lookup against model 0: one row, no framing (a fragment
    /// of the stream).
    pub fn point(table: u32, update: u32, row: u64) -> Self {
        Self {
            model: 0,
            table,
            update,
            rows: row..row.saturating_add(1),
            framing: Some(Framing::none()),
        }
    }

    /// Redirect this request at another registered model.
    pub fn on_model(mut self, model: u32) -> Self {
        self.model = model;
        self
    }
}

/// Why a [`RowService::submit`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The model index is out of range for the registered models.
    UnknownModel(u32),
    /// The table index is out of range for the loaded schema.
    UnknownTable(u32),
    /// The row range is inverted or extends past the table size.
    RangeOutOfBounds {
        /// The offending range.
        rows: Range<u64>,
        /// Rows in the table.
        table_size: u64,
    },
    /// The range spans more rows than the configured per-request cap.
    TooLarge {
        /// Rows requested.
        requested: u64,
        /// Configured cap.
        max: u64,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel(m) => write!(f, "unknown model index {m}"),
            Self::UnknownTable(t) => write!(f, "unknown table index {t}"),
            Self::RangeOutOfBounds { rows, table_size } => write!(
                f,
                "row range {}..{} out of bounds for table of {table_size} rows",
                rows.start, rows.end
            ),
            Self::TooLarge { requested, max } => {
                write!(f, "request spans {requested} rows, cap is {max}")
            }
            Self::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Monotone counters of a service's lifetime, plus the request-latency
/// histogram surfaced as condensed [`PhaseStats`].
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests accepted by [`RowService::submit`].
    pub requests: u64,
    /// Requests whose reader consumed every package.
    pub completed: u64,
    /// Requests whose [`ResponseStream`] was dropped early.
    pub aborted: u64,
    /// Submissions rejected before a stream existed.
    pub rejected: u64,
    /// Rows delivered to readers.
    pub rows: u64,
    /// Formatted bytes delivered to readers.
    pub bytes: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Completed requests per second over the service lifetime.
    pub qps: f64,
    /// Submit-to-last-package latency of completed requests.
    pub latency: PhaseStats,
}

#[derive(Default)]
struct StatsInner {
    requests: AtomicU64,
    completed: AtomicU64,
    aborted: AtomicU64,
    rejected: AtomicU64,
    rows: AtomicU64,
    bytes: AtomicU64,
    latency: Histogram,
}

impl StatsInner {
    fn snapshot(&self, started_ns: u64) -> ServeStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime_seconds = seconds_since(started_ns);
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            completed,
            aborted: self.aborted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            uptime_seconds,
            qps: if uptime_seconds > 0.0 {
                completed as f64 / uptime_seconds
            } else {
                0.0
            },
            latency: self.latency.snapshot().stats(),
        }
    }
}

/// One registered schema: its compiled runtime plus per-model counters.
/// Every slot's requests run on the same shared worker pool.
struct ModelSlot {
    name: String,
    rt: Arc<SchemaRuntime>,
    stats: StatsInner,
}

struct ServiceShared {
    engine: Engine<'static>,
    models: Vec<ModelSlot>,
    window: u64,
    max_request_rows: u64,
    stats: StatsInner,
    started_ns: u64,
    telemetry: Option<Telemetry>,
    next_request: AtomicU64,
}

impl ServiceShared {
    fn publish(&self, event: impl FnOnce() -> RunEvent) {
        if let Some(t) = &self.telemetry {
            t.publish(event);
        }
    }

    /// The service-wide counters followed by model slot `model`'s.
    fn stats_for(&self, model: u32) -> impl Iterator<Item = &StatsInner> {
        let slot = self.models.get(model as usize).map(|m| &m.stats);
        std::iter::once(&self.stats).chain(slot)
    }
}

/// The persistent on-demand row service: one worker pool answering
/// range and point-lookup requests over one loaded schema. See the
/// module docs for the streaming and backpressure model.
pub struct RowService {
    shared: Arc<ServiceShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl RowService {
    /// Start a single-model service (the model registers as `default`):
    /// spawns the worker pool immediately; workers sleep until requests
    /// arrive. `telemetry` attaches the event bus, metrics and the stall
    /// watchdog for the service's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses a worker thread; a server that must
    /// survive that calls [`with_models`](Self::with_models), which
    /// returns the error.
    pub fn new(rt: Arc<SchemaRuntime>, cfg: ServeConfig, telemetry: Option<&Telemetry>) -> Self {
        Self::with_models(vec![("default".to_string(), rt)], cfg, telemetry)
            .unwrap_or_else(|e| panic!("failed to start the row service: {e}"))
    }

    /// Start a multi-model service: every `(name, runtime)` pair becomes
    /// an addressable model slot, all sharing ONE worker pool and ticket
    /// queue. Slot order is registration order; model 0 is the default
    /// the single-model entry points address. Fails on an empty `models`
    /// (`InvalidInput`) and when a worker thread cannot be spawned; the
    /// workers already started are stopped and joined first.
    pub fn with_models(
        models: Vec<(String, Arc<SchemaRuntime>)>,
        cfg: ServeConfig,
        telemetry: Option<&Telemetry>,
    ) -> io::Result<Self> {
        if models.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot serve an empty model registry",
            ));
        }
        let scope = telemetry.map(|t| t.begin_run([("<serve>", 0)], cfg.workers));
        let models = models
            .into_iter()
            .map(|(name, rt)| ModelSlot {
                name,
                rt,
                stats: StatsInner::default(),
            })
            .collect();
        let shared = Arc::new(ServiceShared {
            // Readers keep the buffers they are handed, so the engine's
            // pool retains none.
            engine: Engine::new(cfg.package_rows, 0, scope),
            models,
            window: cfg.window as u64,
            max_request_rows: cfg.max_request_rows,
            stats: StatsInner::default(),
            started_ns: now_ns(),
            telemetry: telemetry.cloned(),
            next_request: AtomicU64::new(1),
        });
        let mut service = Self {
            shared,
            workers: Vec::new(),
        };
        for i in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&service.shared);
            // On error `service` drops, which stops and joins the rest.
            let worker = std::thread::Builder::new()
                .name(format!("pdgf-serve-{i}"))
                .spawn(move || shared.engine.worker_loop(i))?;
            service.workers.push(worker);
        }
        Ok(service)
    }

    /// The schema runtime of model 0 (the only one for single-model
    /// services).
    pub fn runtime(&self) -> &SchemaRuntime {
        &self.shared.models[0].rt
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        self.shared.models.len()
    }

    /// The registered name of model slot `model`.
    pub fn model_name(&self, model: u32) -> Option<&str> {
        self.shared
            .models
            .get(model as usize)
            .map(|m| m.name.as_str())
    }

    /// Resolve a registered model name to its slot index.
    pub fn model_index(&self, name: &str) -> Option<u32> {
        self.shared
            .models
            .iter()
            .position(|m| m.name == name)
            .map(|i| i as u32)
    }

    /// The schema runtime of model slot `model`.
    pub fn runtime_of(&self, model: u32) -> Option<&Arc<SchemaRuntime>> {
        self.shared.models.get(model as usize).map(|m| &m.rt)
    }

    /// Resolve a table name in model 0 to the index [`RowRequest`] wants.
    pub fn table_index(&self, name: &str) -> Option<u32> {
        self.table_index_in(0, name)
    }

    /// Resolve a table name within model slot `model`.
    pub fn table_index_in(&self, model: u32, name: &str) -> Option<u32> {
        self.shared
            .models
            .get(model as usize)?
            .rt
            .tables()
            .iter()
            .position(|t| t.name == name)
            .map(|i| i as u32)
    }

    /// The configured per-request row cap (0 = unlimited).
    pub fn max_request_rows(&self) -> u64 {
        self.shared.max_request_rows
    }

    /// Submit a request. Validation is synchronous; rendering is not —
    /// the returned [`ResponseStream`] yields formatted packages in row
    /// order as workers finish them (a one-package reply is rendered by
    /// its reader, at the first read). A range wider than
    /// `max_request_rows` is rejected outright; see
    /// [`submit_clamped`](Self::submit_clamped) for the resumable
    /// alternative.
    pub fn submit(
        &self,
        request: RowRequest,
        formatter: Arc<dyn Formatter>,
    ) -> Result<ResponseStream, SubmitError> {
        self.admit(request, formatter, false).map(|a| a.stream)
    }

    /// Submit a request, clamping over-cap ranges instead of rejecting
    /// them: when the range spans more than `max_request_rows`, the
    /// returned stream serves exactly the first `max_request_rows` rows
    /// and [`Admitted::resume_at`] names the row the remainder starts at.
    /// Positional framing makes the clamped tiles concatenate byte-equal
    /// to a single unclamped response — the contract resumable cursors
    /// are built on.
    pub fn submit_clamped(
        &self,
        request: RowRequest,
        formatter: Arc<dyn Formatter>,
    ) -> Result<Admitted, SubmitError> {
        self.admit(request, formatter, true)
    }

    fn admit(
        &self,
        mut request: RowRequest,
        formatter: Arc<dyn Formatter>,
        clamp: bool,
    ) -> Result<Admitted, SubmitError> {
        let shared = &self.shared;
        let reject = |err: SubmitError, shared: &ServiceShared| {
            for stats in shared.stats_for(request.model) {
                stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            shared.publish(|| RunEvent::RequestFailed {
                request: 0,
                message: err.to_string(),
            });
            err
        };
        if shared.engine.is_stopped() {
            return Err(reject(SubmitError::ShuttingDown, shared));
        }
        let Some(slot) = shared.models.get(request.model as usize) else {
            return Err(reject(SubmitError::UnknownModel(request.model), shared));
        };
        let Some(table) = slot.rt.tables().get(request.table as usize) else {
            return Err(reject(SubmitError::UnknownTable(request.table), shared));
        };
        let size = table.size;
        if request.rows.start > request.rows.end || request.rows.end > size {
            return Err(reject(
                SubmitError::RangeOutOfBounds {
                    rows: request.rows.clone(),
                    table_size: size,
                },
                shared,
            ));
        }
        let mut span = request.rows.end - request.rows.start;
        let max = shared.max_request_rows;
        let mut resume_at = None;
        if max > 0 && span > max {
            if !clamp {
                return Err(reject(
                    SubmitError::TooLarge {
                        requested: span,
                        max,
                    },
                    shared,
                ));
            }
            request.rows.end = request.rows.start + max;
            resume_at = Some(request.rows.end);
            span = max;
        }

        let framing = request
            .framing
            .unwrap_or_else(|| Framing::for_range(&request.rows, size));
        let mut stream = shared.engine.open(
            Held::Counted(Arc::clone(&slot.rt)),
            Held::Counted(formatter),
            TableJob {
                table: request.table,
                update: request.update,
                rows: request.rows,
                framing,
            },
        );
        let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        for stats in shared.stats_for(request.model) {
            stats.requests.fetch_add(1, Ordering::Relaxed);
        }
        shared.publish(|| RunEvent::RequestStarted {
            request: id,
            table: table.name.clone(),
            rows: span,
        });
        // Stamped before the first ticket goes out: a worker woken by
        // `issue` can finish a small request before this thread runs again.
        let started_ns = now_ns();
        // A one-package reply gets no ticket: its reader renders it.
        if stream.request().total_packages() > 1 {
            stream.issue(&shared.engine, shared.window);
        }
        let finished = stream.is_exhausted();
        let stream = ResponseStream {
            shared: Arc::clone(shared),
            stream,
            id,
            model: request.model,
            rows: 0,
            bytes: 0,
            started_ns,
            finished,
        };
        Ok(Admitted { stream, resume_at })
    }

    /// Convenience point lookup against model 0: the formatted bytes of
    /// one row, with no framing — exactly the row's slice of the
    /// whole-table byte stream body.
    pub fn row_bytes(
        &self,
        table: u32,
        update: u32,
        row: u64,
        formatter: Arc<dyn Formatter>,
    ) -> Result<Vec<u8>, SubmitError> {
        self.row_bytes_in(0, table, update, row, formatter)
    }

    /// [`row_bytes`](Self::row_bytes) against a named model slot.
    pub fn row_bytes_in(
        &self,
        model: u32,
        table: u32,
        update: u32,
        row: u64,
        formatter: Arc<dyn Formatter>,
    ) -> Result<Vec<u8>, SubmitError> {
        // One row is one package: the reply is that package's buffer.
        let mut stream = self.submit(
            RowRequest::point(table, update, row).on_model(model),
            formatter,
        )?;
        Ok(stream.next_package().unwrap_or_default())
    }

    /// Live service counters and latency percentiles, aggregated across
    /// every model slot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot(self.shared.started_ns)
    }

    /// Counters scoped to one model slot (`None` for an unknown index).
    /// Uptime/qps are computed against the shared service clock.
    pub fn stats_of(&self, model: u32) -> Option<ServeStats> {
        self.shared
            .models
            .get(model as usize)
            .map(|slot| slot.stats.snapshot(self.shared.started_ns))
    }

    /// Package buffers taken from the pool and not put back. Readers keep
    /// the packages they are handed, so once every stream has ended this
    /// equals the packages delivered; anything above that is stranded.
    #[doc(hidden)]
    pub fn buffers_outstanding(&self) -> i64 {
        self.shared.engine.buffers.outstanding()
    }

    /// Stop accepting work and join the pool. Pending tickets of live
    /// streams are drained first; called automatically on drop.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.engine.stop();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.publish(|| {
            let s = self.stats();
            RunEvent::RunFinished {
                rows: s.rows,
                bytes: s.bytes,
                seconds: s.uptime_seconds,
            }
        });
    }
}

impl Drop for RowService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The outcome of clamped admission: the stream serving the (possibly
/// clamped) head of the range, plus — when the request exceeded
/// `max_request_rows` — the row offset the caller must resume from to
/// fetch the remainder. Protocol front ends turn `resume_at` into an
/// opaque cursor token.
pub struct Admitted {
    /// The admitted request's package stream.
    pub stream: ResponseStream,
    /// `Some(row)` when the range was clamped: the first row NOT served
    /// by `stream`; the remainder is `row..original_end`.
    pub resume_at: Option<u64>,
}

/// A request's ordered package stream. Iterate (or call
/// [`next_package`](Self::next_package)) to receive the formatted
/// buffers; each consumption issues the next package ticket, keeping at
/// most `window` packages in flight for this request. Dropping the
/// stream early cancels the request's remaining work.
pub struct ResponseStream {
    shared: Arc<ServiceShared>,
    stream: Stream<'static>,
    id: u64,
    model: u32,
    rows: u64,
    bytes: u64,
    started_ns: u64,
    finished: bool,
}

impl ResponseStream {
    /// Total packages this response will deliver.
    pub fn total_packages(&self) -> u64 {
        self.stream.request().total_packages()
    }

    /// Blocking: the next formatted package, in row order, or `None`
    /// after the last one (or if the service shuts down mid-request).
    pub fn next_package(&mut self) -> Option<Vec<u8>> {
        if self.finished {
            return None;
        }
        let engine = &self.shared.engine;
        let pkg = READER_STATE.with_borrow_mut(|state| self.stream.next(engine, state));
        let Some(pkg) = pkg else {
            // The pool is gone; this request can never complete.
            self.abort("service shut down mid-request");
            return None;
        };
        self.stream
            .issue(engine, self.shared.window - self.stream.in_flight());
        self.rows += pkg.rows;
        self.bytes += pkg.bytes.len() as u64;
        if self.stream.is_exhausted() {
            self.finished = true;
            let latency_ns = now_ns().saturating_sub(self.started_ns);
            for stats in self.shared.stats_for(self.model) {
                stats.completed.fetch_add(1, Ordering::Relaxed);
                stats.rows.fetch_add(self.rows, Ordering::Relaxed);
                stats.bytes.fetch_add(self.bytes, Ordering::Relaxed);
                stats.latency.record(latency_ns);
            }
            self.shared.publish(|| RunEvent::RequestFinished {
                request: self.id,
                rows: self.rows,
                bytes: self.bytes,
                micros: latency_ns / 1_000,
            });
        }
        Some(pkg.bytes)
    }

    /// Book an unfinished request as aborted.
    fn abort(&mut self, message: &str) {
        self.finished = true;
        for stats in self.shared.stats_for(self.model) {
            stats.aborted.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.publish(|| RunEvent::RequestFailed {
            request: self.id,
            message: message.to_string(),
        });
    }
}

impl Iterator for ResponseStream {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        self.next_package()
    }
}

impl Drop for ResponseStream {
    fn drop(&mut self) {
        if !self.finished {
            self.abort("response stream dropped before completion");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_bytes;
    use crate::scheduler::{generate_table_range, RunConfig};
    use pdgf_output::{CsvFormatter, JsonFormatter, MemorySink, SqlFormatter, XmlFormatter};

    fn runtime(rows: u64) -> Arc<SchemaRuntime> {
        Arc::new(crate::testkit::runtime(rows))
    }

    fn batch_bytes(rt: &SchemaRuntime, formatter: &dyn Formatter) -> Vec<u8> {
        let mut sink = MemorySink::new();
        generate_table_range(
            rt,
            0,
            0,
            0..rt.tables()[0].size,
            formatter,
            &mut sink,
            &RunConfig::new().workers(0).package_rows(64),
            None,
        )
        .unwrap();
        sink.as_str().as_bytes().to_vec()
    }

    fn drain(mut stream: ResponseStream) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(chunk) = stream.next_package() {
            out.extend_from_slice(&chunk);
        }
        out
    }

    #[test]
    fn point_and_batch_lineage_routes_agree() {
        let rt = runtime(100);
        let service = RowService::new(Arc::clone(&rt), ServeConfig::new().workers(1), None);
        let tree = service.runtime().seed_tree();
        // Point lookups walk the seeding tree per cell; the columnar
        // kernels hoist the update seed into a ColumnCtx and mix the row
        // in per cell. Serve correctness rests on the two agreeing.
        for column in 0..2 {
            for update in [0u32, 1, 3] {
                let ctx = pdgf_gen::ColumnCtx {
                    runtime: service.runtime(),
                    update_seed: tree.update_seed(0, column, update),
                    width_hint: None,
                };
                for row in [0u64, 1, 17, 99, 1 << 40] {
                    let coord = pdgf_prng::FieldCoord {
                        table: 0,
                        column,
                        update,
                        row,
                    };
                    assert_eq!(
                        tree.field_seed(coord),
                        ctx.cell_seed(row),
                        "column {column} update {update} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_responses_concatenate_to_batch_bytes() {
        let rt = runtime(1_000);
        let formatters: [Arc<dyn Formatter>; 4] = [
            Arc::new(CsvFormatter::new().with_header()),
            Arc::new(JsonFormatter),
            Arc::new(XmlFormatter),
            Arc::new(SqlFormatter::new()),
        ];
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(3).package_rows(37),
            None,
        );
        for formatter in &formatters {
            let whole = batch_bytes(&rt, formatter.as_ref());
            let mut concat = Vec::new();
            for range in [0..311u64, 311..312, 312..1_000] {
                let a = drain(
                    service
                        .submit(
                            RowRequest::range(0, 0, range.clone()),
                            Arc::clone(formatter),
                        )
                        .unwrap(),
                );
                // Same range twice returns identical bytes.
                let b = drain(
                    service
                        .submit(RowRequest::range(0, 0, range), Arc::clone(formatter))
                        .unwrap(),
                );
                assert_eq!(a, b, "determinism: repeated request differs");
                concat.extend_from_slice(&a);
            }
            assert_eq!(
                concat,
                whole,
                "format={}: concatenated ranges != batch file",
                formatter.name()
            );
        }
    }

    #[test]
    fn row_path_matches_columnar_path() {
        let rt = runtime(300);
        let csv: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(2).package_rows(16),
            None,
        );
        let served = drain(
            service
                .submit(RowRequest::range(0, 0, 10..290), Arc::clone(&csv))
                .unwrap(),
        );
        assert_eq!(served, oracle_bytes(&rt, 0, 0, 10..290, csv.as_ref()));
    }

    #[test]
    fn point_lookups_tile_the_whole_table() {
        let rt = runtime(50);
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(2).package_rows(8),
            None,
        );
        let meta = crate::scheduler::table_meta(&rt, 0);
        let formatters: [Arc<dyn Formatter>; 4] = [
            Arc::new(CsvFormatter::new().with_header()),
            Arc::new(JsonFormatter),
            Arc::new(XmlFormatter),
            Arc::new(SqlFormatter::new()),
        ];
        for formatter in &formatters {
            for update in [0u32, 3] {
                let mut tiled = Vec::new();
                formatter.begin(&mut tiled, &meta);
                for row in 0..50 {
                    let bytes = service
                        .row_bytes(0, update, row, Arc::clone(formatter))
                        .unwrap();
                    tiled.extend_from_slice(&bytes);
                }
                formatter.end(&mut tiled, &meta);
                assert_eq!(
                    tiled,
                    oracle_bytes(&rt, 0, update, 0..50, formatter.as_ref()),
                    "format={} update={update}: point lookups tile the body",
                    formatter.name()
                );
            }
        }
    }

    /// The one-package rule: a point lookup is rendered by its reader, so
    /// 1,000 of them leave the pending-ticket gauge at zero while the
    /// stats and latency histogram still see every request.
    #[test]
    fn point_lookups_never_queue_a_ticket() {
        let rt = runtime(100);
        let telemetry = Telemetry::with_stall_timeout(std::time::Duration::from_millis(20));
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(2),
            Some(&telemetry),
        );
        let csv: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
        for i in 0..1_000u64 {
            let row = service.row_bytes(0, 0, i % 100, Arc::clone(&csv)).unwrap();
            assert!(!row.is_empty());
        }
        let stats = service.stats();
        assert_eq!((stats.completed, stats.aborted), (1_000, 0));
        assert_eq!(stats.latency.count, 1_000);
        assert_eq!(
            telemetry.metrics().queue_depth.max,
            0,
            "a ticket was queued"
        );
    }

    /// An unread one-package reply rendered nothing, so dropping it
    /// books an abort and leaves no buffer out of the pool.
    #[test]
    fn dropping_an_unread_one_package_reply_aborts() {
        let rt = runtime(100);
        let service = RowService::new(Arc::clone(&rt), ServeConfig::new().workers(1), None);
        let stream = service
            .submit(RowRequest::point(0, 0, 7), Arc::new(CsvFormatter::new()))
            .unwrap();
        assert_eq!(stream.total_packages(), 1);
        drop(stream);
        let stats = service.stats();
        assert_eq!((stats.completed, stats.aborted), (0, 1));
        assert_eq!(service.buffers_outstanding(), 0);
    }

    /// The backpressure contract: with ONE worker, a reader that never
    /// consumes its stream must not wedge the pool — another request
    /// completes fully while the slow reader sits on its window.
    #[test]
    fn unread_stream_does_not_stall_other_requests() {
        let rt = runtime(10_000);
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(1).package_rows(100).window(2),
            None,
        );
        let csv: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
        // 100 packages total, window 2: only 2 are ever issued because
        // the reader never consumes one.
        let slow = service
            .submit(RowRequest::range(0, 0, 0..10_000), Arc::clone(&csv))
            .unwrap();
        let fast = drain(
            service
                .submit(RowRequest::range(0, 0, 0..10_000), Arc::clone(&csv))
                .unwrap(),
        );
        assert_eq!(fast, batch_bytes(&rt, &CsvFormatter::new()));
        drop(slow);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.aborted, 1);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let rt = runtime(100);
        let service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(1).max_request_rows(50),
            None,
        );
        let csv: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
        assert_eq!(
            service
                .submit(RowRequest::range(9, 0, 0..1), Arc::clone(&csv))
                .err(),
            Some(SubmitError::UnknownTable(9))
        );
        assert!(matches!(
            service
                .submit(RowRequest::range(0, 0, 50..200), Arc::clone(&csv))
                .err(),
            Some(SubmitError::RangeOutOfBounds { .. })
        ));
        assert_eq!(
            service
                .submit(RowRequest::range(0, 0, 0..51), Arc::clone(&csv))
                .err(),
            Some(SubmitError::TooLarge {
                requested: 51,
                max: 50
            })
        );
        assert_eq!(service.stats().rejected, 3);
        assert_eq!(service.table_index("t"), Some(0));
        assert_eq!(service.table_index("nope"), None);
    }

    #[test]
    fn request_events_and_stats_flow_through_telemetry() {
        let rt = runtime(200);
        let telemetry = Telemetry::new();
        let sub = telemetry.subscribe();
        let mut service = RowService::new(
            Arc::clone(&rt),
            ServeConfig::new().workers(2).package_rows(64),
            Some(&telemetry),
        );
        let csv: Arc<dyn Formatter> = Arc::new(CsvFormatter::new());
        let bytes = drain(
            service
                .submit(RowRequest::range(0, 0, 0..200), Arc::clone(&csv))
                .unwrap(),
        );
        assert!(!bytes.is_empty());
        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rows, 200);
        assert_eq!(stats.bytes, bytes.len() as u64);
        assert_eq!(stats.latency.count, 1);
        assert!(stats.qps > 0.0);
        service.shutdown();
        telemetry.close();
        let kinds: Vec<&'static str> = std::iter::from_fn(|| sub.recv())
            .map(|e| match e.event {
                RunEvent::RunStarted { .. } => "run_started",
                RunEvent::RequestStarted { .. } => "request_started",
                RunEvent::RequestFinished { .. } => "request_finished",
                RunEvent::RunFinished { .. } => "run_finished",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "run_started",
                "request_started",
                "request_finished",
                "run_finished"
            ]
        );
    }

    #[test]
    fn empty_table_range_still_owns_framing() {
        let rt = runtime(0);
        let service = RowService::new(Arc::clone(&rt), ServeConfig::new().workers(1), None);
        let xml: Arc<dyn Formatter> = Arc::new(XmlFormatter);
        let got = drain(
            service
                .submit(RowRequest::range(0, 0, 0..0), Arc::clone(&xml))
                .unwrap(),
        );
        assert_eq!(got, batch_bytes(&rt, &XmlFormatter));
    }
}
