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

/// HDFS-style partitioned directory sink: output rolls into numbered
/// part files (`part-00000`, `part-00001`, …) once a part exceeds the
/// configured size — the layout "modern big data storage systems" expect
/// (the paper lists HDFS among PDGF's targets). Chunks are never split
/// across parts, so each part holds whole rows/packages.
pub struct PartitionedDirSink {
    dir: std::path::PathBuf,
    part_bytes: u64,
    current: Option<BufWriter<File>>,
    current_bytes: u64,
    parts: u32,
    total: u64,
}

impl PartitionedDirSink {
    /// Create a sink writing parts of roughly `part_bytes` into `dir`
    /// (created if missing).
    pub fn create(dir: impl AsRef<Path>, part_bytes: u64) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            part_bytes: part_bytes.max(1),
            current: None,
            current_bytes: 0,
            parts: 0,
            total: 0,
        })
    }

    /// Number of part files written so far.
    pub fn part_count(&self) -> u32 {
        self.parts
    }

    fn roll(&mut self) -> io::Result<&mut BufWriter<File>> {
        if self.current.is_none() || self.current_bytes >= self.part_bytes {
            if let Some(mut old) = self.current.take() {
                old.flush()?;
            }
            let path = self.dir.join(format!("part-{:05}", self.parts));
            self.current = Some(BufWriter::new(File::create(path)?));
            self.parts += 1;
            self.current_bytes = 0;
        }
        match &mut self.current {
            Some(w) => Ok(w),
            None => Err(io::Error::other("part file vanished after roll")),
        }
    }
}

impl Sink for PartitionedDirSink {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        let writer = self.roll()?;
        writer.write_all(bytes)?;
        self.current_bytes += bytes.len() as u64;
        self.total += bytes.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        if let Some(mut w) = self.current.take() {
            w.flush()?;
        }
        Ok(self.total)
    }

    fn bytes_written(&self) -> u64 {
        self.total
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
    fn partitioned_sink_rolls_parts() {
        let dir = std::env::temp_dir().join(format!("pdgf-parts-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut s = PartitionedDirSink::create(&dir, 10).unwrap();
            for i in 0..6 {
                s.write_chunk(format!("chunk{i}\n").as_bytes()).unwrap();
            }
            assert_eq!(s.finish().unwrap(), 42);
            // 7 bytes per chunk, 10-byte parts: rolls after every 2nd chunk.
            assert_eq!(s.part_count(), 3);
            assert_eq!(s.bytes_written(), 42);
        }
        // Concatenating parts in order reconstructs the stream.
        let mut all = String::new();
        for i in 0..3 {
            all.push_str(&std::fs::read_to_string(dir.join(format!("part-{i:05}"))).unwrap());
        }
        assert_eq!(all, "chunk0\nchunk1\nchunk2\nchunk3\nchunk4\nchunk5\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partitioned_sink_never_splits_a_chunk() {
        let dir = std::env::temp_dir().join(format!("pdgf-parts2-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut s = PartitionedDirSink::create(&dir, 4).unwrap();
        s.write_chunk(b"0123456789").unwrap(); // bigger than a part
        s.write_chunk(b"ab").unwrap();
        s.finish().unwrap();
        assert_eq!(s.part_count(), 2);
        assert_eq!(
            std::fs::read_to_string(dir.join("part-00000")).unwrap(),
            "0123456789"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("part-00001")).unwrap(),
            "ab"
        );
        std::fs::remove_dir_all(&dir).ok();
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
