//! Output verification: the oracle every measured path is compared with,
//! and the fingerprints that carry that comparison to files on disk and
//! to responses from a server.
//!
//! The oracle is the one ROADMAP keeps when the row path goes:
//! [`SchemaRuntime::row_into_with_scratch`] plus [`Formatter::row`], one
//! row at a time on one thread. It is slow, so it covers the first
//! [`HEAD_ROWS`] rows and the last [`TAIL_ROWS`] rows (with end framing)
//! of every table; an FNV-1a fingerprint of the whole stream, taken on
//! the same run the oracle checked, covers the rest by equality between
//! repetitions, files and in-process runs.

use std::io::{self, Read as _};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use pdgf::gen::{GenScratch, SchemaRuntime};
use pdgf::output::{Formatter, Sink, SinkFactory};
use pdgf::runtime::{table_meta, GenerationRun, RunConfig};

/// Rows from the start of each table compared with the oracle.
pub const HEAD_ROWS: u64 = 20_000;
/// Rows from the end of each table compared with the oracle.
pub const TAIL_ROWS: u64 = 1_000;

/// Length and FNV-1a-64 hash of a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Bytes seen.
    pub bytes: u64,
    /// FNV-1a-64 of those bytes.
    pub hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self {
            bytes: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    /// Fold `bytes` into the fingerprint.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
        self.bytes += bytes.len() as u64;
    }

    /// Fingerprint of one buffer.
    pub fn of(bytes: &[u8]) -> Self {
        let mut f = Self::default();
        f.update(bytes);
        f
    }

    /// Fingerprint of a file's contents.
    pub fn of_file(path: &Path) -> io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut f = Self::default();
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(f);
            }
            f.update(&buf[..n]);
        }
    }
}

/// A sink that keeps only the fingerprint of what it was given.
#[derive(Debug, Default)]
pub struct HashSink(pub Fingerprint);

impl Sink for HashSink {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.update(bytes);
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.0.bytes)
    }

    fn bytes_written(&self) -> u64 {
        self.0.bytes
    }
}

/// The oracle's bytes for `rows` of `table`, framed positionally like
/// every production path: `begin` when the range starts the table, `end`
/// when it reaches the last row.
pub fn oracle_range(
    rt: &SchemaRuntime,
    table: u32,
    rows: Range<u64>,
    formatter: &dyn Formatter,
) -> Vec<u8> {
    let meta = table_meta(rt, table);
    let size = rt.tables()[table as usize].size;
    let mut out = Vec::new();
    let mut values = Vec::new();
    let mut scratch = GenScratch::default();
    if rows.start == 0 {
        formatter.begin(&mut out, &meta);
    }
    for row in rows.clone() {
        rt.row_into_with_scratch(table, 0, row, &mut values, &mut scratch);
        formatter.row(&mut out, &meta, &values);
    }
    if rows.end == size {
        formatter.end(&mut out, &meta);
    }
    out
}

/// The row ranges of a table of `size` rows the oracle covers.
pub fn oracle_ranges(size: u64) -> (Range<u64>, Range<u64>) {
    (0..size.min(HEAD_ROWS), size.saturating_sub(TAIL_ROWS)..size)
}

/// What one table's stream looked like against the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCheck {
    /// Table name.
    pub table: String,
    /// Fingerprint of the whole stream.
    pub stream: Fingerprint,
    /// Whether the stream began with the oracle's head and ended with
    /// the oracle's tail.
    pub matches_oracle: bool,
}

/// Compares a table's stream with the oracle's head and tail while it
/// passes, fingerprints all of it, and files a [`TableCheck`] on finish.
struct CheckSink {
    table: String,
    head: Vec<u8>,
    tail: Vec<u8>,
    head_ok: bool,
    /// The last bytes seen, at least `tail.len()` of them once that many
    /// have passed.
    recent: Vec<u8>,
    stream: Fingerprint,
    dest: Arc<Mutex<Vec<TableCheck>>>,
}

impl Sink for CheckSink {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        let pos = self.stream.bytes as usize;
        if pos < self.head.len() {
            let n = bytes.len().min(self.head.len() - pos);
            self.head_ok &= bytes[..n] == self.head[pos..pos + n];
        }
        self.stream.update(bytes);
        self.recent.extend_from_slice(bytes);
        if self.recent.len() > 2 * self.tail.len() + (1 << 16) {
            let cut = self.recent.len() - self.tail.len();
            self.recent.drain(..cut);
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<u64> {
        let matches_oracle = self.head_ok
            && self.stream.bytes as usize >= self.head.len()
            && self.recent.ends_with(&self.tail);
        self.dest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(TableCheck {
                table: std::mem::take(&mut self.table),
                stream: self.stream,
                matches_oracle,
            });
        Ok(self.stream.bytes)
    }

    fn bytes_written(&self) -> u64 {
        self.stream.bytes
    }
}

/// Hands each table a [`CheckSink`] primed with that table's oracle.
struct CheckFactory<'a> {
    rt: &'a SchemaRuntime,
    formatter: &'a dyn Formatter,
    dest: Arc<Mutex<Vec<TableCheck>>>,
}

impl SinkFactory for CheckFactory<'_> {
    fn make_sink(&mut self, table: &str) -> io::Result<Box<dyn Sink>> {
        let (index, t) = self
            .rt
            .table_by_name(table)
            .ok_or_else(|| io::Error::other(format!("unknown table {table}")))?;
        let (head, tail) = oracle_ranges(t.size);
        Ok(Box::new(CheckSink {
            table: table.to_string(),
            head: oracle_range(self.rt, index, head, self.formatter),
            tail: oracle_range(self.rt, index, tail, self.formatter),
            head_ok: true,
            recent: Vec::new(),
            stream: Fingerprint::default(),
            dest: Arc::clone(&self.dest),
        }))
    }
}

/// Generate every table once through the measured in-process path (one
/// pool, columnar, `config`'s workers) into checking sinks. Returns one
/// [`TableCheck`] per table, in schema order.
pub fn check_generation(
    rt: &SchemaRuntime,
    config: &RunConfig,
    formatter: &dyn Formatter,
) -> io::Result<Vec<TableCheck>> {
    let dest = Arc::new(Mutex::new(Vec::new()));
    let factory = CheckFactory {
        rt,
        formatter,
        dest: Arc::clone(&dest),
    };
    GenerationRun::new(rt, config.clone()).run(formatter, factory)?;
    let mut checks = std::mem::take(&mut *dest.lock().unwrap_or_else(PoisonError::into_inner));
    let position = |c: &TableCheck| rt.table_by_name(&c.table).map(|(i, _)| i);
    checks.sort_by_key(position);
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf::output::{CsvFormatter, JsonFormatter, XmlFormatter};
    use pdgf::Pdgf;

    fn project(sf: &str) -> pdgf::PdgfProject {
        workloads::tpch::project(1.0)
            .set_property("SF", sf)
            .workers(2)
            .build()
            .unwrap()
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(Fingerprint::of(b"").hash, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fingerprint::of(b"a").hash, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fingerprint::of(b"foobar").hash, 0x8594_4171_f739_67e8);
        let mut split = Fingerprint::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split, Fingerprint::of(b"foobar"));
    }

    #[test]
    fn measured_path_matches_the_oracle_for_framed_and_unframed_formats() {
        // lineitem at SF 0.005 has 30,000 rows: more than HEAD_ROWS, so
        // head and tail are separate ranges.
        let p = project("0.005");
        let formatters: [&dyn Formatter; 3] = [&CsvFormatter::new(), &JsonFormatter, &XmlFormatter];
        for formatter in formatters {
            let checks = check_generation(p.runtime(), p.config(), formatter).unwrap();
            assert_eq!(checks.len(), p.runtime().tables().len());
            assert!(checks.iter().all(|c| c.matches_oracle), "{checks:?}");
            let (i, t) = p.runtime().table_by_name("nation").unwrap();
            let whole = oracle_range(p.runtime(), i, 0..t.size, formatter);
            assert_eq!(checks[i as usize].stream, Fingerprint::of(&whole));
        }
    }

    #[test]
    fn a_different_stream_fails_the_check() {
        let p = project("0.001");
        let other = Pdgf::from_schema(workloads::tpch::schema(99))
            .resolver(workloads::tpch::resolver())
            .set_property("SF", "0.001")
            .build()
            .unwrap();
        let dest = Arc::new(Mutex::new(Vec::new()));
        let formatter = CsvFormatter::new();
        // Oracle from one seed, stream from another.
        let mut factory = CheckFactory {
            rt: p.runtime(),
            formatter: &formatter,
            dest: Arc::clone(&dest),
        };
        let mut sink = factory.make_sink("orders").unwrap();
        let (i, t) = other.runtime().table_by_name("orders").unwrap();
        sink.write_chunk(&oracle_range(other.runtime(), i, 0..t.size, &formatter))
            .unwrap();
        sink.finish().unwrap();
        assert!(!dest.lock().unwrap()[0].matches_oracle);
    }

    #[test]
    fn file_fingerprint_equals_buffer_fingerprint() {
        let dir = crate::host::out_dir().join(format!("verify-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        assert_eq!(Fingerprint::of_file(&path).unwrap(), Fingerprint::of(&data));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
