//! Byte sinks.
//!
//! The output stage hands each completed (and reordered) work package's
//! bytes to a [`Sink`]. Sinks are sequential by construction — the
//! reorder buffer serializes packages — so implementations need no
//! internal locking.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A destination for formatted output bytes.
pub trait Sink: Send {
    /// Write one chunk.
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flush and finalize. Returns the number of bytes written in total.
    fn finish(&mut self) -> io::Result<u64>;

    /// Bytes written so far.
    fn bytes_written(&self) -> u64;
}

/// Discards bytes but counts them — the `/dev/null` of the paper's
/// CPU-bound throughput experiments.
#[derive(Debug, Default)]
pub struct NullSink {
    bytes: u64,
}

impl NullSink {
    /// New counting null sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for NullSink {
    #[inline]
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
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

/// Buffered file sink.
pub struct FileSink {
    writer: BufWriter<File>,
    bytes: u64,
}

impl FileSink {
    /// Create (truncate) `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self {
            writer: BufWriter::with_capacity(1 << 20, File::create(path)?),
            bytes: 0,
        })
    }
}

impl Sink for FileSink {
    #[inline]
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        self.writer.flush()?;
        Ok(self.bytes)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Collects output in memory; used by tests, the preview feature, and the
/// database bulk-load path.
#[derive(Debug, Default)]
pub struct MemorySink {
    data: Vec<u8>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The collected bytes as UTF-8 (output formats are all UTF-8).
    pub fn as_str(&self) -> &str {
        // audit:allow(unwrap) test-facing accessor; every built-in formatter
        // emits valid UTF-8 by the crate's byte-API contract
        std::str::from_utf8(&self.data).expect("formatters emit UTF-8")
    }

    /// Consume the sink, returning its buffer.
    pub fn into_inner(self) -> Vec<u8> {
        self.data
    }
}

impl Sink for MemorySink {
    #[inline]
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.data.len() as u64)
    }

    fn bytes_written(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_counts_bytes() {
        let mut s = NullSink::new();
        s.write_chunk(b"hello").unwrap();
        s.write_chunk(b" world").unwrap();
        assert_eq!(s.bytes_written(), 11);
        assert_eq!(s.finish().unwrap(), 11);
    }

    #[test]
    fn memory_sink_collects() {
        let mut s = MemorySink::new();
        s.write_chunk(b"ab").unwrap();
        s.write_chunk(b"cd").unwrap();
        assert_eq!(s.as_str(), "abcd");
        assert_eq!(s.finish().unwrap(), 4);
        assert_eq!(s.into_inner(), b"abcd");
    }

    #[test]
    fn file_sink_writes_to_disk() {
        let path = std::env::temp_dir().join(format!("pdgf-sink-{}.txt", std::process::id()));
        {
            let mut s = FileSink::create(&path).unwrap();
            s.write_chunk(b"line1\n").unwrap();
            s.write_chunk(b"line2\n").unwrap();
            assert_eq!(s.finish().unwrap(), 12);
            assert_eq!(s.bytes_written(), 12);
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "line1\nline2\n");
        std::fs::remove_file(&path).ok();
    }
}
