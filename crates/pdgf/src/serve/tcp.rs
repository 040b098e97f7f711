//! The length-prefixed TCP protocol.
//!
//! # Wire protocol
//!
//! Every frame, in both directions, is
//!
//! ```text
//! [u32 big-endian payload length][u8 tag][payload bytes]
//! ```
//!
//! Clients send `Q` (query) frames whose payload is one ASCII command:
//!
//! ```text
//! RANGE <table> <update> <start> <end> <format>   rows start..end
//! ROW   <table> <update> <row> <format>           one row, unframed
//! CURSOR <token>                                  resume a clamped range
//! INFO  [model]                                   schema summary (JSON)
//! STATS [model]                                   service counters (JSON)
//! PING                                            liveness check
//! ```
//!
//! `<table>` is either a bare table name (model slot 0) or
//! `model/table` against a multi-model registry.
//!
//! The server answers with zero or more `D` (data) or `J` (JSON) frames
//! followed by a terminal `Z` (end, empty payload) — or a single `E`
//! (error, message payload) instead, which ends the request but not the
//! connection. Each `D` frame carries one work package's formatted
//! bytes; concatenating a request's `D` payloads in arrival order
//! yields the response body. When a `RANGE` was clamped to the
//! service's `max_request_rows` cap, a `C` (cursor) frame precedes the
//! `Z`: its payload is the opaque token a follow-up `CURSOR` command
//! resumes from, and the chained bodies concatenate byte-equal to the
//! unclamped range. A connection handles any number of requests in
//! sequence; framing the stream per package is what lets the server
//! apply reader-driven backpressure (the `RowService` window) to slow
//! clients without buffering whole tables.
//!
//! A range reply is flushed between packages, never after the last:
//! the last `D` frame, the `C` frame if any and the `Z` leave in one
//! write (`write_packages`), on a socket the
//! accept loop set to `TCP_NODELAY` — so no terminator waits on the
//! client's delayed ACK.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pdgf_runtime::{RowRequest, RowService};

use super::cursor::Cursor;
use super::{info_json, stats_json, write_packages, ServerShared};
use crate::project::OutputFormat;

/// Frame tag: client request (ASCII command payload).
pub const TAG_QUERY: u8 = b'Q';
/// Frame tag: response data (formatted rows).
pub const TAG_DATA: u8 = b'D';
/// Frame tag: response metadata (JSON payload).
pub const TAG_JSON: u8 = b'J';
/// Frame tag: resumable cursor token for the clamped remainder of a
/// range; arrives between the data frames and the terminal `Z`.
pub const TAG_CURSOR: u8 = b'C';
/// Frame tag: request failed (message payload); terminal for the request.
pub const TAG_ERROR: u8 = b'E';
/// Frame tag: end of a successful response (empty payload).
pub const TAG_END: u8 = b'Z';

/// Largest accepted request frame. Commands are one short line; anything
/// bigger is a confused or hostile client.
pub const MAX_REQUEST_FRAME: u32 = 64 * 1024;

/// Write one `[len][tag][payload]` frame.
pub(crate) fn write_frame(writer: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4] = tag;
    writer.write_all(&header)?;
    writer.write_all(payload)
}

/// Read one frame; `max_len` bounds the payload length.
pub(crate) fn read_frame<R: Read>(reader: &mut R, max_len: u32) -> std::io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    reader.read_exact(&mut header)?;
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok((header[4], payload))
}

/// Over-capacity refusal: best-effort `E` frame, then close.
pub(crate) fn refuse(stream: TcpStream) {
    let message = b"server at connection capacity, retry later";
    let mut bytes = Vec::with_capacity(5 + message.len());
    bytes.extend_from_slice(&(message.len() as u32).to_be_bytes());
    bytes.push(TAG_ERROR);
    bytes.extend_from_slice(message);
    super::write_refusal(stream, &bytes);
}

/// One connection: read `Q` frames, answer each, until EOF or error.
/// A socket-timeout expiry (idle keep-alive client) closes quietly.
pub(crate) fn handle_connection(shared: &ServerShared, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    loop {
        let (tag, payload) = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(frame) => frame,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Read timeout: an idle connection, not a protocol error.
                return Ok(());
            }
            Err(e) => {
                let _ = write_frame(&mut writer, TAG_ERROR, e.to_string().as_bytes());
                let _ = writer.flush();
                return Err(e);
            }
        };
        if tag != TAG_QUERY {
            write_frame(
                &mut writer,
                TAG_ERROR,
                format!("unexpected frame tag {:?}", tag as char).as_bytes(),
            )?;
            writer.flush()?;
            continue;
        }
        let command = String::from_utf8_lossy(&payload).into_owned();
        match answer(shared, command.trim(), &mut writer) {
            Ok(()) => {}
            Err(AnswerError::Request(message)) => {
                write_frame(&mut writer, TAG_ERROR, message.as_bytes())?;
            }
            Err(AnswerError::Io(e)) => return Err(e),
        }
        // The reply's last flush: its terminator rides with its last
        // package (see `write_packages`).
        writer.flush()?;
    }
}

/// A request either fails cleanly (`E` frame, connection survives) or
/// the socket itself is gone.
pub(crate) enum AnswerError {
    Request(String),
    Io(std::io::Error),
}

impl From<std::io::Error> for AnswerError {
    fn from(e: std::io::Error) -> Self {
        AnswerError::Io(e)
    }
}

/// Parse and answer one command, writing the full response (data frames
/// plus terminal `Z`) to `writer`; the caller flushes.
pub(super) fn answer(
    shared: &ServerShared,
    command: &str,
    writer: &mut impl Write,
) -> Result<(), AnswerError> {
    let words: Vec<&str> = command.split_whitespace().collect();
    let service = &shared.service;
    match words.first().copied() {
        Some("RANGE") if words.len() == 6 => {
            let (model, table) = lookup(service, words[1])?;
            let update = int32(words[2], "update")?;
            let start = int(words[3], "start")?;
            let end = int(words[4], "end")?;
            let format = format_of(words[5])?;
            stream_range(shared, writer, model, table, update, start, end, format)
        }
        Some("CURSOR") if words.len() == 2 => {
            let c = Cursor::decode(words[1]).map_err(|e| AnswerError::Request(e.to_string()))?;
            if service.runtime_of(c.model).is_none() {
                return Err(AnswerError::Request(format!(
                    "cursor names unknown model slot {}",
                    c.model
                )));
            }
            stream_range(
                shared, writer, c.model, c.table, c.update, c.start, c.end, c.format,
            )
        }
        Some("ROW") if words.len() == 5 => {
            let (model, table) = lookup(service, words[1])?;
            let update = int32(words[2], "update")?;
            let row = int(words[3], "row")?;
            let format = format_of(words[4])?;
            let bytes = service
                .row_bytes_in(model, table, update, row, shared.formatter(format))
                .map_err(|e| AnswerError::Request(e.to_string()))?;
            write_frame(writer, TAG_DATA, &bytes)?;
            write_frame(writer, TAG_END, b"")?;
            Ok(())
        }
        Some("INFO") if words.len() <= 2 => {
            let rt = match words.get(1) {
                Some(name) => {
                    let model = service
                        .model_index(name)
                        .ok_or_else(|| AnswerError::Request(format!("unknown model {name:?}")))?;
                    // The slot just resolved; runtime_of cannot miss.
                    service.runtime_of(model).map(Arc::clone)
                }
                None => service.runtime_of(0).map(Arc::clone),
            };
            let rt = rt.ok_or_else(|| AnswerError::Request("no models registered".into()))?;
            write_frame(writer, TAG_JSON, info_json(&rt).as_bytes())?;
            write_frame(writer, TAG_END, b"")?;
            Ok(())
        }
        Some("STATS") if words.len() <= 2 => {
            let stats = match words.get(1) {
                Some(name) => {
                    let model = service
                        .model_index(name)
                        .ok_or_else(|| AnswerError::Request(format!("unknown model {name:?}")))?;
                    service
                        .stats_of(model)
                        .ok_or_else(|| AnswerError::Request(format!("unknown model {name:?}")))?
                }
                None => service.stats(),
            };
            write_frame(writer, TAG_JSON, stats_json(&stats).as_bytes())?;
            write_frame(writer, TAG_END, b"")?;
            Ok(())
        }
        Some("PING") if words.len() == 1 => {
            write_frame(writer, TAG_JSON, b"{\"ok\":true}")?;
            write_frame(writer, TAG_END, b"")?;
            Ok(())
        }
        _ => Err(AnswerError::Request(format!(
            "unknown command {command:?} (expected RANGE/ROW/CURSOR/INFO/STATS/PING)"
        ))),
    }
}

/// Serve `start..end` with clamped admission: data frames, then — when
/// the range exceeded the per-request cap — a `C` frame carrying the
/// remainder's token, then `Z`.
#[allow(clippy::too_many_arguments)]
fn stream_range(
    shared: &ServerShared,
    writer: &mut impl Write,
    model: u32,
    table: u32,
    update: u32,
    start: u64,
    end: u64,
    format: OutputFormat,
) -> Result<(), AnswerError> {
    let admitted = shared
        .service
        .submit_clamped(
            RowRequest::range(table, update, start..end).on_model(model),
            shared.formatter(format),
        )
        .map_err(|e| AnswerError::Request(e.to_string()))?;
    write_packages(writer, admitted.stream, |w, package| {
        write_frame(w, TAG_DATA, package)
    })?;
    if let Some(resume_at) = admitted.resume_at {
        let token = Cursor {
            model,
            table,
            update,
            start: resume_at,
            end,
            format,
        }
        .encode();
        write_frame(writer, TAG_CURSOR, token.as_bytes())?;
    }
    write_frame(writer, TAG_END, b"")?;
    Ok(())
}

/// Resolve a `table` or `model/table` word to (model, table) indices.
fn lookup(service: &RowService, word: &str) -> Result<(u32, u32), AnswerError> {
    let (model, table) = match word.split_once('/') {
        Some((model_name, table_name)) => {
            let model = service
                .model_index(model_name)
                .ok_or_else(|| AnswerError::Request(format!("unknown model {model_name:?}")))?;
            (model, table_name)
        }
        None => (0, word),
    };
    let idx = service
        .table_index_in(model, table)
        .ok_or_else(|| AnswerError::Request(format!("unknown table {table:?}")))?;
    Ok((model, idx))
}

fn int(word: &str, what: &str) -> Result<u64, AnswerError> {
    word.parse()
        .map_err(|_| AnswerError::Request(format!("bad {what} {word:?}")))
}

fn int32(word: &str, what: &str) -> Result<u32, AnswerError> {
    word.parse()
        .map_err(|_| AnswerError::Request(format!("bad {what} {word:?}")))
}

fn format_of(word: &str) -> Result<OutputFormat, AnswerError> {
    OutputFormat::parse(word)
        .ok_or_else(|| AnswerError::Request(format!("unknown format {word:?}")))
}
