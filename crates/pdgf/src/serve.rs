//! `pdgf serve` — the multi-model, on-the-fly data plane.
//!
//! The paper's seeding hierarchy makes every cell recomputable in O(1),
//! so serving rows never touches files: a [`Server`] wraps one
//! [`RowService`] (the persistent scheduler pool in `pdgf-runtime`) and
//! answers range and point-lookup requests by *recomputing* them.
//! Response bytes come from the same formatters as `pdgf generate`,
//! framed positionally, so concatenating the responses for adjacent
//! ranges is byte-equal to a generated file of the whole table — the
//! determinism contract, pinned by the end-to-end tests and the CI
//! smoke job.
//!
//! One server speaks two protocols over one worker pool:
//!
//! * **TCP** ([`tcp`]) — the compact length-prefixed frame protocol
//!   (`RANGE`/`ROW`/`INFO`/`STATS`/`PING`/`CURSOR` commands), for
//!   clients that want minimum overhead.
//! * **HTTP/1.1** ([`http`]) — a hand-rolled front end (`GET
//!   /v1/{model}/{table}/rows`, `.../row/{n}`, `.../info`, `/metrics`)
//!   with keep-alive and chunked transfer streamed package-by-package,
//!   for clients that want no SDK at all.
//!
//! Both share connection admission (`max_connections`), socket
//! timeouts, and the [`ModelRegistry`]: every
//! registered model is a named slot on the same [`RowService`], so
//! `tpch` and `ssb` can be served from one deployment, as BDGS
//! prescribes.
//!
//! Ranges wider than the service's `max_request_rows` cap are clamped,
//! not refused: the response carries the first tile plus an opaque
//! resumable [`Cursor`] token (a `C` frame on TCP, a
//! `Link`/`X-Pdgf-Next` header on HTTP). Chained cursor fetches tile
//! byte-identically to a single `pdgf generate` — positional framing
//! makes the tiles compositional, so the token never carries state
//! beyond the remainder coordinates.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "unwrap: a panic in a serve front end kills a connection thread instead of \
              answering with an error frame or status"
)]

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdgf_gen::SchemaRuntime;
use pdgf_output::{json_escape, Formatter};
use pdgf_runtime::{ResponseStream, RowService, ServeConfig, ServeStats, Telemetry};

use crate::OutputFormat;

pub mod client;
pub mod cursor;
pub mod http;
pub mod registry;
pub mod tcp;

pub use client::{FetchRequest, ServeClient, ServeError, Transport};
pub use cursor::{Cursor, CursorError};
pub use registry::ModelRegistry;
pub use tcp::{MAX_REQUEST_FRAME, TAG_CURSOR, TAG_DATA, TAG_END, TAG_ERROR, TAG_JSON, TAG_QUERY};

/// The read and write timeout of every served socket. An idle
/// keep-alive connection past it is closed, and so is a reader stalled
/// past it (its request window stops the workers long before that).
pub(crate) const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Server tuning: the row-service knobs plus connection admission; every
/// socket gets 30-second read and write timeouts. Private fields;
/// construct the defaults with [`ServerOptions::new`] or validated custom
/// values through [`ServerOptions::builder`] — the builder is the one
/// that rejects nonsense (`0` connections) with an error instead of
/// silently clamping, the convention both run-entry APIs follow (see
/// DESIGN.md, "Validated configuration builders").
#[derive(Debug, Clone)]
pub struct ServerOptions {
    pub(crate) config: ServeConfig,
    pub(crate) max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            config: ServeConfig::new(),
            max_connections: 64,
        }
    }
}

impl ServerOptions {
    /// The defaults: [`ServeConfig::new`], 64 concurrent connections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a validated builder from the defaults.
    pub fn builder() -> ServerOptionsBuilder {
        ServerOptionsBuilder::default()
    }
}

/// Validated builder for [`ServerOptions`]; [`build`] rejects
/// out-of-range values instead of clamping them.
///
/// [`build`]: ServerOptionsBuilder::build
#[derive(Debug, Clone, Default)]
pub struct ServerOptionsBuilder {
    options: ServerOptions,
}

impl ServerOptionsBuilder {
    /// Replace the row-service configuration (workers, package rows,
    /// backpressure window, request-size cap).
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.options.config = config;
        self
    }

    /// Cap concurrent connections across BOTH protocols; excess
    /// connects are refused (TCP `E` frame / HTTP 503). Zero is
    /// rejected at [`build`](Self::build).
    pub fn max_connections(mut self, max: usize) -> Self {
        self.options.max_connections = max;
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> Result<ServerOptions, ServerOptionsError> {
        if self.options.max_connections == 0 {
            return Err(ServerOptionsError("max_connections must be at least 1"));
        }
        Ok(self.options)
    }
}

/// An out-of-range value handed to [`ServerOptionsBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptionsError(&'static str);

impl std::fmt::Display for ServerOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid server options: {}", self.0)
    }
}

impl std::error::Error for ServerOptionsError {}

/// What the accept loops share with every connection handler, across
/// both protocols.
pub(crate) struct ServerShared {
    pub(crate) service: RowService,
    pub(crate) active: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) stopping: AtomicBool,
    pub(crate) telemetry: Option<Telemetry>,
    /// One formatter per [`OutputFormat`], in [`OutputFormat::all`] order.
    formatters: [Arc<dyn Formatter>; 4],
}

impl ServerShared {
    /// Start the row service over `registry`; fails on an empty registry
    /// or when a worker thread cannot be spawned.
    pub(crate) fn new(
        registry: ModelRegistry,
        options: ServerOptions,
        telemetry: Option<&Telemetry>,
    ) -> std::io::Result<Self> {
        Ok(Self {
            service: RowService::with_models(registry.into_models(), options.config, telemetry)?,
            active: AtomicUsize::new(0),
            max_connections: options.max_connections,
            stopping: AtomicBool::new(false),
            telemetry: telemetry.cloned(),
            formatters: OutputFormat::all().map(|f| Arc::from(f.formatter())),
        })
    }

    /// The shared formatter of `format`: a request clones the handle
    /// instead of building its own.
    pub(crate) fn formatter(&self, format: OutputFormat) -> Arc<dyn Formatter> {
        Arc::clone(&self.formatters[format as usize])
    }

    /// Admit a connection against the shared cap; the caller must
    /// [`release`](Self::release) when the handler exits.
    pub(crate) fn admit(&self) -> bool {
        // Optimistic increment; back out over the cap. Two racing
        // connects can both briefly hold a slot, but the cap is a
        // resource bound, not an exact semaphore.
        if self.active.fetch_add(1, Ordering::AcqRel) < self.max_connections {
            true
        } else {
            self.active.fetch_sub(1, Ordering::AcqRel);
            false
        }
    }

    pub(crate) fn release(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// The one per-connection socket setup, applied by the accept loop
    /// before either protocol sees the stream: [`SOCKET_TIMEOUT`] both
    /// ways plus `TCP_NODELAY`. Without it Nagle holds a reply's small
    /// terminator behind unacknowledged data until the client's delayed
    /// ACK (40 ms on Linux) — and a package of 64 KiB or more bypasses
    /// the `BufWriter`, so the terminator is a separate write even under
    /// [`write_packages`]'s one-write rule.
    pub(crate) fn setup_connection(&self, stream: &TcpStream) {
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_nodelay(true);
    }
}

/// Write a response's packages through the protocol's `frame` closure (a
/// TCP `D` frame, an HTTP chunk, or the bytes as they are), flushing
/// *between* packages so a slow reader holds back only its own request
/// window — and not after the last one. The caller then writes its
/// terminator and flushes once, so the last package and the terminator
/// leave in one write (a single-package tile in exactly one).
pub(crate) fn write_packages<W: Write>(
    writer: &mut W,
    stream: ResponseStream,
    mut frame: impl FnMut(&mut W, &[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let total = stream.total_packages();
    for (seq, package) in (1..).zip(stream) {
        frame(writer, &package)?;
        if seq < total {
            writer.flush()?;
        }
    }
    Ok(())
}

/// The serving front: one TCP listener (always), one HTTP listener
/// (optional), one persistent [`RowService`], one handler thread per
/// connection. Build with [`Server::bind`] (single model) or
/// [`Server::bind_registry`] + [`Server::with_http`] (multi-model data
/// plane), then either [`run`](Server::run) the accept loop on the
/// current thread (the CLI does this) or [`spawn`](Server::spawn) it
/// for tests.
pub struct Server {
    listener: TcpListener,
    http: Option<TcpListener>,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Bind `addr` and start the worker pool over a single model
    /// (registered as `default`). Pass port 0 to let the OS pick (read
    /// it back via [`local_addr`](Server::local_addr)). `telemetry`
    /// attaches the event bus and stall watchdog to the service for its
    /// lifetime.
    pub fn bind(
        runtime: Arc<SchemaRuntime>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
        telemetry: Option<&Telemetry>,
    ) -> std::io::Result<Self> {
        let registry = ModelRegistry::new()
            .register_runtime("default", runtime)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        Self::bind_registry(registry, addr, options, telemetry)
    }

    /// Bind `addr` and start one worker pool serving every model in
    /// `registry` (rejects an empty registry). TCP only until
    /// [`with_http`](Server::with_http) adds the HTTP listener.
    pub fn bind_registry(
        registry: ModelRegistry,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
        telemetry: Option<&Telemetry>,
    ) -> std::io::Result<Self> {
        let shared = ServerShared::new(registry, options, telemetry)?;
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            http: None,
            shared: Arc::new(shared),
        })
    }

    /// Add the HTTP/1.1 front end on `addr` (port 0 works here too;
    /// read it back via [`http_addr`](Server::http_addr)). Both
    /// protocols multiplex onto the same pool and connection cap.
    pub fn with_http(mut self, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        self.http = Some(TcpListener::bind(addr)?);
        Ok(self)
    }

    /// The bound TCP address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound HTTP address, when [`with_http`](Server::with_http)
    /// added one.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Live counters of the underlying row service.
    pub fn stats(&self) -> ServeStats {
        self.shared.service.stats()
    }

    /// Accept connections until the handle from [`spawn`](Server::spawn)
    /// stops the server (or the process exits). Each connection is
    /// served on its own thread; admission past `max_connections` is
    /// refused (TCP `E` frame, HTTP 503). When an HTTP listener is
    /// attached its accept loop runs on a background thread for the
    /// same lifetime.
    pub fn run(self) {
        let http_join = self.http.map(|listener| {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("pdgf-serve-http".to_string())
                .spawn(move || {
                    accept_loop(&listener, &shared, http::handle_connection, http::refuse)
                })
        });
        accept_loop(
            &self.listener,
            &self.shared,
            tcp::handle_connection,
            tcp::refuse,
        );
        if let Some(Ok(join)) = http_join {
            let _ = join.join();
        }
    }

    /// Run the accept loop(s) on background threads, returning a
    /// [`ServerHandle`] that can stop them — how the tests and the CI
    /// smoke job drive a server inside one process.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let http_addr = self.http_addr();
        let shared = Arc::clone(&self.shared);
        let join = std::thread::Builder::new()
            .name("pdgf-serve-accept".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            http_addr,
            shared,
            join: Some(join),
        })
    }
}

/// One protocol's accept loop: admission, then one handler thread per
/// connection. `handle` is the protocol's connection function.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    handle: fn(&ServerShared, TcpStream) -> std::io::Result<()>,
    refuse: fn(TcpStream),
) {
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if !shared.admit() {
            refuse(stream);
            continue;
        }
        shared.setup_connection(&stream);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("pdgf-serve-conn".to_string())
            .spawn(move || {
                let _ = handle(&conn_shared, stream);
                conn_shared.release();
            });
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): undo the
            // admission; the stream drops closed.
            shared.release();
        }
    }
}

/// Controls a [`Server`] spawned on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<ServerShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's bound HTTP address, when one was attached.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Live counters of the underlying row service.
    pub fn stats(&self) -> ServeStats {
        self.shared.service.stats()
    }

    /// Per-model counters (`None` for an out-of-range slot).
    pub fn stats_of(&self, model: u32) -> Option<ServeStats> {
        self.shared.service.stats_of(model)
    }

    /// Stop accepting, unblock the accept loops with sentinel connects,
    /// and join. Open connections finish their current request and then
    /// fail; the worker pool shuts down when the handle drops.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(join) = self.join.take() {
            self.shared.stopping.store(true, Ordering::Release);
            // The listeners block in accept(); throwaway connections
            // wake them so they can observe `stopping`.
            let _ = TcpStream::connect(self.addr);
            if let Some(http) = self.http_addr {
                let _ = TcpStream::connect(http);
            }
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Best-effort write of raw refusal bytes before closing an
/// over-capacity connection.
pub(crate) fn write_refusal(mut stream: TcpStream, bytes: &[u8]) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
}

/// The `INFO` payload: schema name, seed, and per-table name/rows/columns.
pub(crate) fn info_json(rt: &SchemaRuntime) -> String {
    let mut s = format!(
        "{{\"schema\":\"{}\",\"seed\":{},\"tables\":[",
        json_escape(rt.name()),
        rt.seed()
    );
    for (i, t) in rt.tables().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"rows\":{},\"columns\":{}}}",
            json_escape(&t.name),
            t.size,
            t.columns.len()
        ));
    }
    s.push_str("]}");
    s
}

/// The `STATS` payload: the service counters plus latency percentiles.
pub(crate) fn stats_json(s: &ServeStats) -> String {
    format!(
        "{{\"requests\":{},\"completed\":{},\"aborted\":{},\"rejected\":{},\
         \"rows\":{},\"bytes\":{},\"uptime_seconds\":{:.3},\"qps\":{:.3},\"latency\":{}}}",
        s.requests,
        s.completed,
        s.aborted,
        s.rejected,
        s.rows,
        s.bytes,
        s.uptime_seconds,
        s.qps,
        s.latency.to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_runtime::PhaseStats;

    /// What reaches the socket: each `flush` cuts one segment — one
    /// write, when a `BufWriter` holds the segment — and a flush with
    /// nothing pending sends nothing.
    #[derive(Default)]
    struct Segments {
        sent: Vec<Vec<u8>>,
        pending: Vec<u8>,
    }

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if !self.pending.is_empty() {
                self.sent.push(std::mem::take(&mut self.pending));
            }
            Ok(())
        }
    }

    /// A 1,000-row model served in 37-row packages, capped at 300 rows
    /// per request.
    fn shared() -> ServerShared {
        let project = crate::Pdgf::from_xml_str(
            r#"<schema name="w"><seed>7</seed><rng name="PdgfDefaultRandom"/>
               <table name="t"><size>1000</size>
                 <field name="id" type="BIGINT" primary="true"><gen_IdGenerator/></field>
               </table></schema>"#,
        )
        .unwrap()
        .build()
        .unwrap();
        let registry = ModelRegistry::new().register("default", project).unwrap();
        let config = ServeConfig::new()
            .workers(1)
            .package_rows(37)
            .window(2)
            .max_request_rows(300);
        let options = ServerOptions::builder()
            .config(config)
            .max_connections(1)
            .build()
            .unwrap();
        ServerShared::new(registry, options, None).unwrap()
    }

    /// One TCP command as `tcp::handle_connection` answers it.
    fn tcp_segments(shared: &ServerShared, command: &str) -> Vec<Vec<u8>> {
        let mut out = Segments::default();
        assert!(tcp::answer(shared, command, &mut out).is_ok());
        out.flush().unwrap();
        out.sent
    }

    /// One HTTP request as `http::handle_connection` answers it.
    fn http_segments(shared: &ServerShared, request: &str) -> Vec<Vec<u8>> {
        let mut out = Segments::default();
        let Ok(Some(req)) = http::read_request(&mut request.as_bytes()) else {
            panic!("unparsable request {request:?}");
        };
        http::route(shared, &req, &mut out).unwrap();
        out.sent
    }

    /// The tags of the frames in one TCP segment.
    fn tags(mut segment: &[u8]) -> Vec<u8> {
        let mut tags = Vec::new();
        while !segment.is_empty() {
            let (len, tag) = (&segment[..4], segment[4]);
            let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
            tags.push(tag);
            segment = &segment[5 + len..];
        }
        tags
    }

    /// `write_packages` flushes between packages, never after the last:
    /// an n-package reply is n writes, and every terminator shares the
    /// last package's write.
    #[test]
    fn terminators_ride_with_the_last_package() {
        let shared = shared();
        // 111 rows = 3 packages; 20 rows = 1.
        let tile = tcp_segments(&shared, "RANGE t 0 0 111 csv");
        assert_eq!(tile.len(), 3);
        assert!(tile[..2].iter().all(|s| tags(s) == [TAG_DATA]));
        assert_eq!(tags(&tile[2]), [TAG_DATA, TAG_END]);
        let single = tcp_segments(&shared, "RANGE t 0 0 20 csv");
        assert_eq!(single.len(), 1);
        assert_eq!(tags(&single[0]), [TAG_DATA, TAG_END]);
        // Clamped to 300 rows = 9 packages, then the cursor.
        let clamped = tcp_segments(&shared, "RANGE t 0 0 1000 csv");
        assert_eq!(clamped.len(), 9);
        assert_eq!(tags(&clamped[8]), [TAG_DATA, TAG_CURSOR, TAG_END]);

        let get = |query: &str, version: &str| {
            http_segments(
                &shared,
                &format!("GET /v1/default/t/rows?{query} {version}\r\nHost: x\r\n\r\n"),
            )
        };
        let chunked = get("start=0&count=111", "HTTP/1.1");
        assert_eq!(chunked.len(), 3);
        assert!(chunked[0].starts_with(b"HTTP/1.1 200 OK\r\n"));
        let last = &chunked[2];
        assert!(last.ends_with(b"\r\n0\r\n\r\n") && last.len() > 7);
        let single = get("start=0&count=20", "HTTP/1.1");
        assert_eq!(single.len(), 1);
        assert!(single[0].ends_with(b"\r\n0\r\n\r\n"));
        // HTTP/1.0: the same writes, unframed, with no terminator.
        let unframed = get("start=0&count=111", "HTTP/1.0");
        assert_eq!(unframed.len(), 3);
        assert!(!unframed[2].ends_with(b"0\r\n\r\n"));
    }

    /// The TCP `STATS` line (and every `"stats"` object of `/metrics`) on
    /// fixed values: the expected string is the parent commit's output.
    #[test]
    fn stats_line_is_pinned() {
        let stats = ServeStats {
            requests: 10,
            completed: 8,
            aborted: 1,
            rejected: 2,
            rows: 4096,
            bytes: 65536,
            uptime_seconds: 2.5,
            qps: 3.2,
            latency: PhaseStats {
                count: 8,
                mean_ns: 1500,
                p50_ns: 1024,
                p95_ns: 2048,
                p99_ns: 4096,
            },
        };
        assert_eq!(
            stats_json(&stats),
            concat!(
                r#"{"requests":10,"completed":8,"aborted":1,"rejected":2,"#,
                r#""rows":4096,"bytes":65536,"uptime_seconds":2.500,"qps":3.200,"#,
                r#""latency":{"count":8,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096}}"#
            )
        );
    }
}
