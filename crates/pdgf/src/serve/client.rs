//! The typed serve client: one [`FetchRequest`] builder, two transports.
//!
//! [`ServeClient`] speaks either the compact TCP frame protocol
//! ([`ServeClient::connect`]) or the HTTP/1.1 front end
//! ([`ServeClient::connect_http`]) behind one [`Transport`] trait; the
//! request you build is transport-agnostic:
//!
//! ```no_run
//! use pdgf::serve::{FetchRequest, ServeClient};
//! use pdgf::OutputFormat;
//!
//! let mut client = ServeClient::connect("127.0.0.1:7447")?;
//! let req = FetchRequest::range("lineitem", 0, 1_000).format(OutputFormat::Json);
//! let bytes = client.fetch(req)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Both transports follow resumable cursors automatically: a fetch
//! whose range exceeds the server's `max_request_rows` cap arrives as a
//! chain of clamped responses that the client concatenates — the
//! determinism contract guarantees the result is byte-equal to an
//! unclamped fetch, so callers never see the tiling.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};

use super::tcp::{read_frame, TAG_CURSOR, TAG_DATA, TAG_END, TAG_ERROR, TAG_JSON, TAG_QUERY};
use crate::project::OutputFormat;

/// What to fetch, independent of transport. Build with
/// [`FetchRequest::range`] or [`FetchRequest::row`], refine with the
/// consuming setters, and hand to [`ServeClient::fetch`].
#[derive(Debug, Clone)]
pub struct FetchRequest {
    pub(crate) table: String,
    pub(crate) model: Option<String>,
    pub(crate) update: u32,
    pub(crate) format: OutputFormat,
    pub(crate) kind: FetchKind,
}

#[derive(Debug, Clone)]
pub(crate) enum FetchKind {
    Range { start: u64, count: u64 },
    Row(u64),
}

impl FetchRequest {
    /// Fetch `count` rows of `table` starting at row `start`, framed
    /// positionally (CSV by default; see [`format`](Self::format)).
    pub fn range(table: &str, start: u64, count: u64) -> Self {
        Self {
            table: table.to_string(),
            model: None,
            update: 0,
            format: OutputFormat::Csv,
            kind: FetchKind::Range { start, count },
        }
    }

    /// Fetch one row of `table`, unframed (the row's exact slice of the
    /// whole-table stream body).
    pub fn row(table: &str, row: u64) -> Self {
        Self {
            table: table.to_string(),
            model: None,
            update: 0,
            format: OutputFormat::Csv,
            kind: FetchKind::Row(row),
        }
    }

    /// Choose the response format (default CSV).
    pub fn format(mut self, format: OutputFormat) -> Self {
        self.format = format;
        self
    }

    /// Address the request at update epoch `update` (default 0).
    pub fn update(mut self, update: u32) -> Self {
        self.update = update;
        self
    }

    /// Address a named model in a multi-model registry (default: the
    /// server's slot-0 model).
    pub fn model(mut self, model: &str) -> Self {
        self.model = Some(model.to_string());
        self
    }
}

/// A client-visible request failure (a server error response, or a
/// protocol violation by the server).
#[derive(Debug)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serve error: {}", self.0)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError(e.to_string())
    }
}

/// One protocol binding of the serve API. [`ServeClient`] holds a boxed
/// transport; implement this to bolt on another protocol.
pub trait Transport {
    /// Execute `req`, streaming body bytes into `each` as they arrive
    /// (following resumable cursors transparently). Returns total bytes.
    fn fetch_with(
        &mut self,
        req: &FetchRequest,
        each: &mut dyn FnMut(&[u8]),
    ) -> Result<u64, ServeError>;

    /// Schema summary (JSON) for `model` (`None` = the default model).
    fn info(&mut self, model: Option<&str>) -> Result<String, ServeError>;

    /// Service counters (JSON).
    fn stats(&mut self) -> Result<String, ServeError>;

    /// Liveness round-trip.
    fn ping(&mut self) -> Result<(), ServeError>;

    /// Tear down the connection.
    fn close(self: Box<Self>);
}

/// A blocking serve client: requests in sequence over one connection.
/// Used by `pdgf fetch`, the end-to-end tests, and the serve benchmark.
pub struct ServeClient {
    transport: Box<dyn Transport>,
}

impl ServeClient {
    /// Connect over the TCP frame protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            transport: Box::new(TcpTransport::connect(addr)?),
        })
    }

    /// Connect over the HTTP/1.1 front end.
    pub fn connect_http(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            transport: Box::new(HttpTransport::connect(addr)?),
        })
    }

    /// Wrap a custom [`Transport`].
    pub fn from_transport(transport: Box<dyn Transport>) -> Self {
        Self { transport }
    }

    /// Execute `req`, buffering the body into one `Vec`.
    pub fn fetch(&mut self, req: FetchRequest) -> Result<Vec<u8>, ServeError> {
        let mut out = Vec::new();
        self.fetch_with(req, |chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// Execute `req`, streaming body bytes into `each` as they arrive
    /// (ideal for writing straight to a file without buffering the
    /// response). Returns total bytes.
    pub fn fetch_with(
        &mut self,
        req: FetchRequest,
        mut each: impl FnMut(&[u8]),
    ) -> Result<u64, ServeError> {
        self.transport.fetch_with(&req, &mut each)
    }

    /// The default model's schema summary (JSON).
    pub fn info(&mut self) -> Result<String, ServeError> {
        self.transport.info(None)
    }

    /// A named model's schema summary (JSON).
    pub fn info_of(&mut self, model: &str) -> Result<String, ServeError> {
        self.transport.info(Some(model))
    }

    /// The server's live counters and latency percentiles (JSON).
    pub fn stats(&mut self) -> Result<String, ServeError> {
        self.transport.stats()
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.transport.ping()
    }

    /// Close the connection (also happens on drop).
    pub fn close(self) {
        self.transport.close();
    }
}

// ---------------------------------------------------------------- TCP

/// The frame-protocol transport.
struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpTransport {
    fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, command: &str) -> std::io::Result<()> {
        let payload = command.as_bytes();
        let mut header = [0u8; 5];
        header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[4] = TAG_QUERY;
        self.writer.write_all(&header)?;
        self.writer.write_all(payload)?;
        self.writer.flush()
    }

    /// Collect a response: `D`/`J` payloads fed to `each` until `Z`; an
    /// `E` frame becomes an error. Returns the `C` cursor token when
    /// the server clamped the range.
    fn collect(&mut self, each: &mut dyn FnMut(&[u8])) -> Result<Option<String>, ServeError> {
        let mut cursor = None;
        loop {
            // Response frames are data-sized; no request-side cap applies.
            let (tag, payload) = read_frame(&mut self.reader, u32::MAX)?;
            match tag {
                TAG_DATA | TAG_JSON => each(&payload),
                TAG_CURSOR => {
                    cursor = Some(String::from_utf8_lossy(&payload).into_owned());
                }
                TAG_END => return Ok(cursor),
                TAG_ERROR => {
                    return Err(ServeError(String::from_utf8_lossy(&payload).into_owned()))
                }
                other => {
                    return Err(ServeError(format!(
                        "protocol violation: unexpected tag {:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn json(&mut self, command: &str) -> Result<String, ServeError> {
        self.send(command)?;
        let mut out = Vec::new();
        self.collect(&mut |chunk| out.extend_from_slice(chunk))?;
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// The protocol's table word: `table` or `model/table`.
    fn table_word(req: &FetchRequest) -> String {
        match &req.model {
            Some(model) => format!("{model}/{}", req.table),
            None => req.table.clone(),
        }
    }
}

impl Transport for TcpTransport {
    fn fetch_with(
        &mut self,
        req: &FetchRequest,
        each: &mut dyn FnMut(&[u8]),
    ) -> Result<u64, ServeError> {
        let mut total = 0u64;
        let mut count_bytes = |chunk: &[u8]| {
            total += chunk.len() as u64;
            each(chunk);
        };
        match req.kind {
            FetchKind::Range { start, count } => {
                let end = start.saturating_add(count);
                self.send(&format!(
                    "RANGE {} {} {start} {end} {}",
                    Self::table_word(req),
                    req.update,
                    req.format.extension()
                ))?;
                let mut cursor = self.collect(&mut count_bytes)?;
                // Follow the clamped chain; each resume is one command.
                while let Some(token) = cursor {
                    self.send(&format!("CURSOR {token}"))?;
                    cursor = self.collect(&mut count_bytes)?;
                }
            }
            FetchKind::Row(row) => {
                self.send(&format!(
                    "ROW {} {} {row} {}",
                    Self::table_word(req),
                    req.update,
                    req.format.extension()
                ))?;
                self.collect(&mut count_bytes)?;
            }
        }
        Ok(total)
    }

    fn info(&mut self, model: Option<&str>) -> Result<String, ServeError> {
        match model {
            Some(m) => self.json(&format!("INFO {m}")),
            None => self.json("INFO"),
        }
    }

    fn stats(&mut self) -> Result<String, ServeError> {
        self.json("STATS")
    }

    fn ping(&mut self) -> Result<(), ServeError> {
        self.json("PING").map(|_| ())
    }

    fn close(self: Box<Self>) {
        if let Ok(stream) = self.writer.into_inner() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

// --------------------------------------------------------------- HTTP

/// The HTTP/1.1 transport: keep-alive GETs against the front end,
/// reconnecting transparently when the server closed the idle
/// connection between requests.
struct HttpTransport {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, BufWriter<TcpStream>)>,
}

/// One parsed HTTP response.
struct HttpResponse {
    status: u16,
    next_cursor: Option<String>,
    keep_alive: bool,
    body: Vec<u8>,
}

impl HttpTransport {
    fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved")
        })?;
        let mut t = Self { addr, conn: None };
        t.reconnect()?;
        Ok(t)
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        self.conn = Some((BufReader::new(stream.try_clone()?), BufWriter::new(stream)));
        Ok(())
    }

    /// Issue one GET, streaming 200-response body chunks into `each`.
    /// Retries once on a dead keep-alive connection.
    fn get(&mut self, path: &str, each: &mut dyn FnMut(&[u8])) -> Result<HttpResponse, ServeError> {
        for attempt in 0..2 {
            if self.conn.is_none() {
                self.reconnect()?;
            }
            match self.try_get(path, each) {
                Ok(resp) => {
                    if !resp.keep_alive {
                        self.conn = None;
                    }
                    return Ok(resp);
                }
                Err(RequestError::Dead(_)) if attempt == 0 => {
                    // Server closed the idle connection; retry fresh.
                    self.conn = None;
                }
                Err(RequestError::Dead(e)) => return Err(ServeError(e.to_string())),
                Err(RequestError::Protocol(e)) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
        unreachable!("two attempts always return");
    }

    fn try_get(
        &mut self,
        path: &str,
        each: &mut dyn FnMut(&[u8]),
    ) -> Result<HttpResponse, RequestError> {
        let (reader, writer) = self.conn.as_mut().ok_or_else(|| {
            RequestError::Dead(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no connection",
            ))
        })?;
        write!(
            writer,
            "GET {path} HTTP/1.1\r\nHost: pdgf\r\nConnection: keep-alive\r\n\r\n"
        )
        .map_err(RequestError::Dead)?;
        writer.flush().map_err(RequestError::Dead)?;

        let status_line = read_crlf_line(reader).map_err(RequestError::Dead)?;
        let mut parts = status_line.split(' ');
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return Err(RequestError::Protocol(ServeError(format!(
                "malformed status line {status_line:?}"
            ))));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(RequestError::Protocol(ServeError(format!(
                "unexpected protocol {version:?}"
            ))));
        }
        let status: u16 = code
            .parse()
            .map_err(|_| RequestError::Protocol(ServeError(format!("bad status code {code:?}"))))?;

        let mut content_length: Option<u64> = None;
        let mut chunked = false;
        let mut keep_alive = true;
        let mut next_cursor = None;
        loop {
            let line = read_crlf_line(reader).map_err(RequestError::Dead)?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.parse().ok(),
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                "x-pdgf-next" => next_cursor = Some(value.to_string()),
                _ => {}
            }
        }

        // Stream 200 bodies to the caller; buffer error bodies for the
        // message.
        let mut body = Vec::new();
        let mut deliver = |chunk: &[u8]| {
            if status == 200 {
                each(chunk);
            } else {
                body.extend_from_slice(chunk);
            }
        };
        if chunked {
            loop {
                let size_line = read_crlf_line(reader).map_err(RequestError::Dead)?;
                let size = u64::from_str_radix(size_line.trim(), 16).map_err(|_| {
                    RequestError::Protocol(ServeError(format!("bad chunk size {size_line:?}")))
                })?;
                if size == 0 {
                    let _ = read_crlf_line(reader); // trailing CRLF
                    break;
                }
                let mut chunk = vec![0u8; size as usize];
                reader.read_exact(&mut chunk).map_err(RequestError::Dead)?;
                let mut crlf = [0u8; 2];
                reader.read_exact(&mut crlf).map_err(RequestError::Dead)?;
                deliver(&chunk);
            }
        } else {
            let len = content_length.ok_or_else(|| {
                RequestError::Protocol(ServeError(
                    "response with neither Content-Length nor chunked body".to_string(),
                ))
            })?;
            let mut buf = vec![0u8; len as usize];
            reader.read_exact(&mut buf).map_err(RequestError::Dead)?;
            deliver(&buf);
        }
        Ok(HttpResponse {
            status,
            next_cursor,
            keep_alive,
            body,
        })
    }

    fn model_segment(req: &FetchRequest) -> String {
        req.model.clone().unwrap_or_else(|| "default".to_string())
    }

    /// A GET that must return 200, with the error body as the message.
    fn expect_ok(&mut self, path: &str) -> Result<Vec<u8>, ServeError> {
        let mut out = Vec::new();
        let resp = self.get(path, &mut |chunk| out.extend_from_slice(chunk))?;
        if resp.status != 200 {
            return Err(ServeError(format!(
                "HTTP {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body).trim()
            )));
        }
        Ok(out)
    }
}

/// Distinguishes "connection died" (retryable once) from a server that
/// answered with garbage.
enum RequestError {
    Dead(std::io::Error),
    Protocol(ServeError),
}

fn read_crlf_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut buf = Vec::new();
    let n = reader.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

impl Transport for HttpTransport {
    fn fetch_with(
        &mut self,
        req: &FetchRequest,
        each: &mut dyn FnMut(&[u8]),
    ) -> Result<u64, ServeError> {
        let model = Self::model_segment(req);
        let mut total = 0u64;
        let mut count_bytes = |chunk: &[u8]| {
            total += chunk.len() as u64;
            each(chunk);
        };
        let first_path = match req.kind {
            FetchKind::Range { start, count } => format!(
                "/v1/{model}/{}/rows?start={start}&count={count}&format={}&update={}",
                req.table,
                req.format.extension(),
                req.update
            ),
            FetchKind::Row(row) => format!(
                "/v1/{model}/{}/row/{row}?format={}&update={}",
                req.table,
                req.format.extension(),
                req.update
            ),
        };
        let mut resp = self.get(&first_path, &mut count_bytes)?;
        if resp.status != 200 {
            return Err(ServeError(format!(
                "HTTP {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body).trim()
            )));
        }
        // Follow the cursor chain: each hop is a fresh clamped tile.
        while let Some(token) = resp.next_cursor.take() {
            let path = format!("/v1/{model}/{}/rows?cursor={token}", req.table);
            resp = self.get(&path, &mut count_bytes)?;
            if resp.status != 200 {
                return Err(ServeError(format!(
                    "HTTP {} on cursor hop: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body).trim()
                )));
            }
        }
        Ok(total)
    }

    fn info(&mut self, model: Option<&str>) -> Result<String, ServeError> {
        let path = format!("/v1/{}/info", model.unwrap_or("default"));
        let body = self.expect_ok(&path)?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    fn stats(&mut self) -> Result<String, ServeError> {
        let body = self.expect_ok("/metrics")?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    fn ping(&mut self) -> Result<(), ServeError> {
        self.expect_ok("/metrics").map(|_| ())
    }

    fn close(self: Box<Self>) {
        if let Some((_, writer)) = self.conn {
            if let Ok(stream) = writer.into_inner() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}
