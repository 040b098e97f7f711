//! The hand-rolled HTTP/1.1 front end.
//!
//! No external dependencies: request parsing, routing, and chunked
//! responses are written against `std::net` directly, sized for the
//! data plane's needs rather than general-purpose serving. The
//! endpoints:
//!
//! ```text
//! GET /v1/{model}/{table}/rows?start=..&count=..&format=csv|json|xml|sql[&update=..]
//! GET /v1/{model}/{table}/rows?cursor={token}
//! GET /v1/{model}/{table}/row/{n}?format=..[&update=..]
//! GET /v1/{model}/info
//! GET /metrics
//! ```
//!
//! Range responses stream with `Transfer-Encoding: chunked`, one chunk
//! per work package, flushed between packages — the reader's
//! consumption rate drives the per-request window exactly as on the TCP
//! protocol, so a slow HTTP client stalls only its own request — while
//! the last chunk and the `0\r\n\r\n` terminator leave in one write
//! (`write_packages`). An HTTP/1.0 request gets
//! the same body unframed, `Connection: close`, and the close ends it
//! (RFC 9112 §6.1 forbids `Transfer-Encoding` towards 1.0); 1.0
//! connections serve one request each. When the range
//! was clamped to `max_request_rows` the response carries the
//! remainder's cursor in both a `Link: <...>; rel="next"` header and
//! `X-Pdgf-Next` (the bare token); chaining the links concatenates
//! byte-equal to a single `pdgf generate`.
//!
//! Error mapping (also in DESIGN.md): malformed syntax → `400` +
//! `Connection: close` (the parser cannot trust the stream any more);
//! semantic errors keep the connection: unknown model/table or row off
//! the end → `404`, bad parameters → `400`, range out of bounds →
//! `416`, method other than GET → `405`, service shutting down → `503`.
//! Over-capacity connects are refused with `503` before parsing.
//! Responses carry no `Date` header: the data plane is deliberately
//! clock-free (see the `wall-clock` audit rule).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pdgf_output::json_escape;
use pdgf_runtime::{MetricsSnapshot, RowRequest, SubmitError};

use super::cursor::Cursor;
use super::{info_json, stats_json, write_packages, ServerShared};
use crate::project::OutputFormat;

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: u64 = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;

/// Media type for each body format.
fn content_type(format: OutputFormat) -> &'static str {
    match format {
        OutputFormat::Csv => "text/csv",
        OutputFormat::Json => "application/x-ndjson",
        OutputFormat::Xml => "application/xml",
        OutputFormat::Sql => "application/sql",
    }
}

/// Over-capacity refusal: best-effort `503`, then close.
pub(crate) fn refuse(stream: TcpStream) {
    super::write_refusal(
        stream,
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
          Content-Length: 44\r\nConnection: close\r\n\r\n\
          server at connection capacity, retry later\r\n",
    );
}

/// One parsed request. Only what the router needs survives parsing.
pub(super) struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    /// `HTTP/1.1` rather than `HTTP/1.0`: whether a range body may be
    /// chunked.
    http11: bool,
    /// Always `false` for HTTP/1.0, whose connections serve one request.
    keep_alive: bool,
}

impl Request {
    fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why parsing failed (or legitimately ended).
pub(super) enum ParseEnd {
    /// Clean EOF or idle timeout before a request line: close quietly.
    Closed,
    /// Malformed request: answer `400` and close.
    Bad(&'static str),
    /// Socket error mid-request.
    Io(std::io::Error),
}

impl From<std::io::Error> for ParseEnd {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::ConnectionReset => ParseEnd::Closed,
            _ => ParseEnd::Io(e),
        }
    }
}

/// Read one CRLF-terminated line, bounded by [`MAX_LINE`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ParseEnd> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(MAX_LINE).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        // Either the line overflowed the cap or the peer died mid-line.
        return Err(if n as u64 == MAX_LINE {
            ParseEnd::Bad("header line too long")
        } else {
            ParseEnd::Closed
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ParseEnd::Bad("non-UTF-8 header bytes"))
}

/// Parse one request (request line + headers). `Ok(None)` is a clean
/// end of the connection.
pub(super) fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, ParseEnd> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    if line.is_empty() {
        return Err(ParseEnd::Bad("empty request line"));
    }
    let mut words = line.split(' ');
    let (method, target, version) = match (words.next(), words.next(), words.next(), words.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseEnd::Bad("malformed request line")),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseEnd::Bad("unsupported HTTP version")),
    };
    // HTTP/1.0 connections are not persistent here (RFC 9112 §9.3 makes
    // honouring a 1.0 `keep-alive` optional): an unchunked range body
    // ends by closing the connection.
    let mut keep_alive = http11;
    let mut headers = 0usize;
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(ParseEnd::Closed);
        };
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(ParseEnd::Bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseEnd::Bad("malformed header (missing colon)"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseEnd::Bad("malformed header name"));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                keep_alive &= !value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"));
            }
            // The data plane is GET-only; any body signals confusion.
            "transfer-encoding" => return Err(ParseEnd::Bad("request bodies not supported")),
            "content-length" if value != "0" => {
                return Err(ParseEnd::Bad("request bodies not supported"))
            }
            _ => {}
        }
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        http11,
        keep_alive,
    }))
}

/// Write a complete non-streamed response.
fn respond(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    keep_alive: bool,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    )?;
    for (name, value) in extra {
        write!(writer, "{name}: {value}\r\n")?;
    }
    let conn = if keep_alive { "keep-alive" } else { "close" };
    write!(writer, "Connection: {conn}\r\n\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

fn error_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    keep_alive: bool,
    message: &str,
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    let body = format!("{message}\r\n");
    respond(
        writer,
        status,
        reason,
        keep_alive,
        "text/plain",
        body.as_bytes(),
        extra,
    )
}

/// One connection: parse requests and answer until close, timeout, or a
/// malformed request.
pub(crate) fn handle_connection(shared: &ServerShared, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) | Err(ParseEnd::Closed) => return Ok(()),
            Err(ParseEnd::Bad(why)) => {
                // The byte stream is unparseable from here on: answer
                // and drop the connection, per the module error map.
                let _ = error_response(&mut writer, 400, "Bad Request", false, why, &[]);
                return Ok(());
            }
            Err(ParseEnd::Io(e)) => return Err(e),
        };
        let keep_alive = request.keep_alive;
        route(shared, &request, &mut writer)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Dispatch one well-formed request.
pub(super) fn route(
    shared: &ServerShared,
    req: &Request,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let keep = req.keep_alive;
    if req.method != "GET" {
        return error_response(
            writer,
            405,
            "Method Not Allowed",
            keep,
            "only GET is supported",
            &[("Allow", "GET")],
        );
    }
    if req.path == "/metrics" {
        let body = metrics_json(shared);
        return respond(
            writer,
            200,
            "OK",
            keep,
            "application/json",
            body.as_bytes(),
            &[],
        );
    }
    let Some(rest) = req.path.strip_prefix("/v1/") else {
        return error_response(writer, 404, "Not Found", keep, "unknown path", &[]);
    };
    let segments: Vec<&str> = rest.split('/').collect();
    match segments.as_slice() {
        [model, "info"] => {
            let Some(slot) = shared.service.model_index(model) else {
                return error_response(writer, 404, "Not Found", keep, "unknown model", &[]);
            };
            // The slot just resolved, so the runtime is present.
            let Some(rt) = shared.service.runtime_of(slot).map(Arc::clone) else {
                return error_response(writer, 404, "Not Found", keep, "unknown model", &[]);
            };
            respond(
                writer,
                200,
                "OK",
                keep,
                "application/json",
                info_json(&rt).as_bytes(),
                &[],
            )
        }
        [model, table, "rows"] => rows(shared, req, writer, model, table),
        [model, table, "row", row] => point(shared, req, writer, model, table, row),
        _ => error_response(writer, 404, "Not Found", keep, "unknown path", &[]),
    }
}

/// Resolve `{model}/{table}` path segments, answering 404 on a miss.
fn resolve(
    shared: &ServerShared,
    writer: &mut impl Write,
    keep: bool,
    model: &str,
    table: &str,
) -> std::io::Result<Option<(u32, u32)>> {
    let Some(model_idx) = shared.service.model_index(model) else {
        error_response(writer, 404, "Not Found", keep, "unknown model", &[])?;
        return Ok(None);
    };
    let Some(table_idx) = shared.service.table_index_in(model_idx, table) else {
        error_response(writer, 404, "Not Found", keep, "unknown table", &[])?;
        return Ok(None);
    };
    Ok(Some((model_idx, table_idx)))
}

/// `GET /v1/{model}/{table}/rows` — the streaming range endpoint.
fn rows(
    shared: &ServerShared,
    req: &Request,
    writer: &mut impl Write,
    model: &str,
    table: &str,
) -> std::io::Result<()> {
    let keep = req.keep_alive;
    let Some((model_idx, table_idx)) = resolve(shared, writer, keep, model, table)? else {
        return Ok(());
    };
    let (update, start, end, format) = if let Some(token) = req.param("cursor") {
        let c = match Cursor::decode(token) {
            Ok(c) => c,
            Err(e) => return error_response(writer, 400, "Bad Request", keep, &e.to_string(), &[]),
        };
        if c.model != model_idx || c.table != table_idx {
            return error_response(
                writer,
                400,
                "Bad Request",
                keep,
                "cursor does not match the requested model/table",
                &[],
            );
        }
        (c.update, c.start, c.end, c.format)
    } else {
        let table_rows = match shared.service.runtime_of(model_idx) {
            Some(rt) => rt.tables()[table_idx as usize].size,
            None => 0,
        };
        let update = match parse_param(req, "update", 0u32) {
            Ok(v) => v,
            Err(e) => return error_response(writer, 400, "Bad Request", keep, e, &[]),
        };
        let start = match parse_param(req, "start", 0u64) {
            Ok(v) => v,
            Err(e) => return error_response(writer, 400, "Bad Request", keep, e, &[]),
        };
        let count = match parse_param(req, "count", table_rows.saturating_sub(start)) {
            Ok(v) => v,
            Err(e) => return error_response(writer, 400, "Bad Request", keep, e, &[]),
        };
        let format = match req.param("format") {
            None => OutputFormat::Csv,
            Some(name) => match OutputFormat::parse(name) {
                Some(f) => f,
                None => {
                    return error_response(writer, 400, "Bad Request", keep, "unknown format", &[])
                }
            },
        };
        (update, start, start.saturating_add(count), format)
    };
    let admitted = match shared.service.submit_clamped(
        RowRequest::range(table_idx, update, start..end).on_model(model_idx),
        shared.formatter(format),
    ) {
        Ok(a) => a,
        Err(e) => return submit_error(writer, keep, &e),
    };
    // The cursor is known before the body starts (clamping happens at
    // admission), so it travels as headers on a normal 200.
    let mut extra: Vec<(String, String)> = Vec::new();
    if let Some(resume_at) = admitted.resume_at {
        let token = Cursor {
            model: model_idx,
            table: table_idx,
            update,
            start: resume_at,
            end,
            format,
        }
        .encode();
        extra.push((
            "Link".to_string(),
            format!("</v1/{model}/{table}/rows?cursor={token}>; rel=\"next\""),
        ));
        extra.push(("X-Pdgf-Next".to_string(), token));
    }
    write!(
        writer,
        "HTTP/1.1 200 OK\r\nContent-Type: {}\r\n",
        content_type(format)
    )?;
    if req.http11 {
        writer.write_all(b"Transfer-Encoding: chunked\r\n")?;
    }
    for (name, value) in &extra {
        write!(writer, "{name}: {value}\r\n")?;
    }
    let conn = if keep { "keep-alive" } else { "close" };
    write!(writer, "Connection: {conn}\r\n\r\n")?;
    if req.http11 {
        write_packages(writer, admitted.stream, write_chunk)?;
        writer.write_all(b"0\r\n\r\n")?;
    } else {
        // RFC 9112 §6.1: no `Transfer-Encoding` in a reply to HTTP/1.0.
        // The body goes unframed and ends when the connection closes
        // (`keep` is false for every 1.0 request).
        write_packages(writer, admitted.stream, |w, package| w.write_all(package))?;
    }
    writer.flush()
}

/// One package as one HTTP chunk.
fn write_chunk(writer: &mut impl Write, package: &[u8]) -> std::io::Result<()> {
    if package.is_empty() {
        // A zero-length chunk would terminate the body early.
        return Ok(());
    }
    write!(writer, "{:x}\r\n", package.len())?;
    writer.write_all(package)?;
    writer.write_all(b"\r\n")
}

/// `GET /v1/{model}/{table}/row/{n}` — the point-lookup endpoint.
fn point(
    shared: &ServerShared,
    req: &Request,
    writer: &mut impl Write,
    model: &str,
    table: &str,
    row: &str,
) -> std::io::Result<()> {
    let keep = req.keep_alive;
    let Some((model_idx, table_idx)) = resolve(shared, writer, keep, model, table)? else {
        return Ok(());
    };
    let Ok(row) = row.parse::<u64>() else {
        return error_response(writer, 400, "Bad Request", keep, "bad row number", &[]);
    };
    let update = match parse_param(req, "update", 0u32) {
        Ok(v) => v,
        Err(e) => return error_response(writer, 400, "Bad Request", keep, e, &[]),
    };
    let format = match req.param("format") {
        None => OutputFormat::Csv,
        Some(name) => match OutputFormat::parse(name) {
            Some(f) => f,
            None => return error_response(writer, 400, "Bad Request", keep, "unknown format", &[]),
        },
    };
    match shared
        .service
        .row_bytes_in(model_idx, table_idx, update, row, shared.formatter(format))
    {
        Ok(bytes) => respond(writer, 200, "OK", keep, content_type(format), &bytes, &[]),
        Err(SubmitError::RangeOutOfBounds { .. }) => {
            error_response(writer, 404, "Not Found", keep, "row beyond table end", &[])
        }
        Err(e) => submit_error(writer, keep, &e),
    }
}

/// Map a [`SubmitError`] to its HTTP status (the DESIGN.md error map).
fn submit_error(writer: &mut impl Write, keep: bool, e: &SubmitError) -> std::io::Result<()> {
    let (status, reason) = match e {
        SubmitError::UnknownModel(_) | SubmitError::UnknownTable(_) => (404, "Not Found"),
        SubmitError::RangeOutOfBounds { .. } => (416, "Range Not Satisfiable"),
        SubmitError::TooLarge { .. } => (400, "Bad Request"),
        SubmitError::ShuttingDown => (503, "Service Unavailable"),
    };
    error_response(writer, status, reason, keep, &e.to_string(), &[])
}

fn parse_param<T: std::str::FromStr>(
    req: &Request,
    name: &'static str,
    default: T,
) -> Result<T, &'static str> {
    match req.param(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| name),
    }
}

/// The `/metrics` body: aggregate counters, per-model counters, and the
/// telemetry snapshot when the server runs with telemetry attached.
fn metrics_json(shared: &ServerShared) -> String {
    let service = &shared.service;
    let mut s = format!("{{\"server\":{},\"models\":[", stats_json(&service.stats()));
    for model in 0..service.model_count() as u32 {
        if model > 0 {
            s.push(',');
        }
        let name = service.model_name(model).unwrap_or("?");
        let stats = service.stats_of(model).unwrap_or_default();
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"stats\":{}}}",
            json_escape(name),
            stats_json(&stats)
        ));
    }
    s.push_str("],\"telemetry\":");
    match &shared.telemetry {
        Some(t) => s.push_str(&telemetry_json(&t.metrics())),
        None => s.push_str("null"),
    }
    s.push('}');
    s
}

/// The `"telemetry"` object of the `/metrics` body (its field order is
/// this endpoint's own; the phase objects are the shared renderer's).
fn telemetry_json(m: &MetricsSnapshot) -> String {
    format!(
        "{{\"generate\":{},\"format\":{},\"write\":{},\"utilization\":{:.4},\
         \"queue_depth\":{{\"max\":{},\"mean\":{}}},\"dropped_events\":{}}}",
        m.generate.to_json(),
        m.format.to_json(),
        m.write.to_json(),
        m.utilization,
        m.queue_depth.max,
        m.queue_depth.mean,
        m.dropped_events
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_runtime::{PhaseStats, QueueDepthStats};

    /// The `/metrics` `"telemetry"` object on fixed values: the expected
    /// string is the parent commit's hand-rendered output.
    #[test]
    fn metrics_telemetry_object_is_pinned() {
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
            telemetry_json(&m),
            concat!(
                r#"{"generate":{"count":3,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096},"#,
                r#""format":{"count":4,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096},"#,
                r#""write":{"count":5,"mean_ns":1500,"p50_ns":1024,"p95_ns":2048,"p99_ns":4096},"#,
                r#""utilization":0.8125,"queue_depth":{"max":9,"mean":4},"dropped_events":7}"#
            )
        );
    }
}
