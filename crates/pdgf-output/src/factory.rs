//! Sink factories: how a run obtains one [`Sink`] per table.
//!
//! A project run creates its sinks up front — tables generate
//! concurrently, so the driver asks a factory for every table's sink
//! before any package runs. [`SinkFactory`] names that contract as a
//! trait instead of the bare `FnMut(&str) -> io::Result<Box<dyn Sink>>`
//! closure parameter earlier revisions passed around: closures still work
//! through a blanket impl, and the common destinations ship as ready-made
//! factories ([`DirSinkFactory`], [`NullSinkFactory`],
//! [`MemorySinkFactory`]) so callers stop hand-rolling the closure dance.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pdgf_schema::sync::Lock;

use crate::sink::{FileSink, MemorySink, NullSink, Sink};

/// Produces the sink a table's output stream writes to.
///
/// Implemented by anything callable as `FnMut(&str) -> io::Result<Box<dyn
/// Sink>>` (blanket impl), so existing closure call sites keep working:
///
/// ```
/// use pdgf_output::{NullSink, Sink, SinkFactory};
/// let mut factory = |_table: &str| -> std::io::Result<Box<dyn Sink>> {
///     Ok(Box::new(NullSink::new()))
/// };
/// let sink = factory.make_sink("lineitem").unwrap();
/// assert_eq!(sink.bytes_written(), 0);
/// ```
pub trait SinkFactory {
    /// Create the sink for `table`. Called once per table, before
    /// generation starts.
    fn make_sink(&mut self, table: &str) -> io::Result<Box<dyn Sink>>;
}

impl<F> SinkFactory for F
where
    F: FnMut(&str) -> io::Result<Box<dyn Sink>>,
{
    fn make_sink(&mut self, table: &str) -> io::Result<Box<dyn Sink>> {
        self(table)
    }
}

/// One file per table in a directory: `<dir>/<table>.<extension>`.
#[derive(Debug, Clone)]
pub struct DirSinkFactory {
    dir: PathBuf,
    extension: String,
}

impl DirSinkFactory {
    /// Factory writing `<table>.<extension>` files into `dir` (created if
    /// missing at first sink creation).
    pub fn new(dir: impl Into<PathBuf>, extension: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            extension: extension.into(),
        }
    }

    /// The path this factory gives `table`'s sink.
    pub fn path_for(&self, table: &str) -> PathBuf {
        self.dir.join(format!("{table}.{}", self.extension))
    }

    /// Target directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl SinkFactory for DirSinkFactory {
    fn make_sink(&mut self, table: &str) -> io::Result<Box<dyn Sink>> {
        std::fs::create_dir_all(&self.dir)?;
        Ok(Box::new(FileSink::create(self.path_for(table))?))
    }
}

/// A byte-counting [`NullSink`] per table — the CPU-bound benchmarking
/// configuration ("generated data was written to /dev/null").
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSinkFactory;

impl SinkFactory for NullSinkFactory {
    fn make_sink(&mut self, _table: &str) -> io::Result<Box<dyn Sink>> {
        Ok(Box::new(NullSink::new()))
    }
}

/// Captures every table's bytes in memory, keyed by table name — the
/// test/inspection configuration.
///
/// Clones share storage; call [`outputs`](Self::outputs) (or
/// [`output`](Self::output)) after the run's sinks have been
/// [`finish`](Sink::finish)ed.
#[derive(Debug, Clone, Default)]
pub struct MemorySinkFactory {
    // BTreeMap keeps table iteration deterministic (the determinism
    // audit bans randomized-order maps crate-wide).
    outputs: Arc<Lock<BTreeMap<String, Vec<u8>>>>,
}

impl MemorySinkFactory {
    /// New factory with empty shared storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// All captured outputs, keyed by table, in name order.
    pub fn outputs(&self) -> Vec<(String, Vec<u8>)> {
        self.outputs
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// One table's captured bytes, if finished.
    pub fn output(&self, table: &str) -> Option<Vec<u8>> {
        self.outputs.lock().get(table).cloned()
    }
}

/// Sink that moves its bytes into the factory's shared map on finish.
struct CapturingMemorySink {
    table: String,
    inner: MemorySink,
    dest: Arc<Lock<BTreeMap<String, Vec<u8>>>>,
}

impl Sink for CapturingMemorySink {
    fn write_chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_chunk(bytes)
    }

    fn finish(&mut self) -> io::Result<u64> {
        let n = self.inner.finish()?;
        let bytes = std::mem::take(&mut self.inner).into_inner();
        self.dest.lock().insert(self.table.clone(), bytes);
        Ok(n)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

impl SinkFactory for MemorySinkFactory {
    fn make_sink(&mut self, table: &str) -> io::Result<Box<dyn Sink>> {
        Ok(Box::new(CapturingMemorySink {
            table: table.to_string(),
            inner: MemorySink::new(),
            dest: Arc::clone(&self.outputs),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_factories() {
        let mut seen = Vec::new();
        let mut factory = |table: &str| -> io::Result<Box<dyn Sink>> {
            seen.push(table.to_string());
            Ok(Box::new(NullSink::new()))
        };
        factory.make_sink("a").unwrap();
        factory.make_sink("b").unwrap();
        assert_eq!(seen, vec!["a", "b"]);
    }

    #[test]
    fn null_factory_counts_bytes() {
        let mut f = NullSinkFactory;
        let mut sink = f.make_sink("t").unwrap();
        sink.write_chunk(b"hello").unwrap();
        assert_eq!(sink.finish().unwrap(), 5);
    }

    #[test]
    fn memory_factory_captures_per_table_bytes_on_finish() {
        let factory = MemorySinkFactory::new();
        let mut handle = factory.clone();
        let mut a = handle.make_sink("a").unwrap();
        let mut b = handle.make_sink("b").unwrap();
        a.write_chunk(b"aaa").unwrap();
        b.write_chunk(b"bb").unwrap();
        assert!(factory.output("a").is_none(), "not captured until finish");
        a.finish().unwrap();
        b.finish().unwrap();
        assert_eq!(factory.output("a").as_deref(), Some(&b"aaa"[..]));
        let all = factory.outputs();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "a", "name order");
        assert_eq!(all[1].1, b"bb");
    }

    #[test]
    fn dir_factory_writes_table_files() {
        let dir = std::env::temp_dir().join(format!("pdgf-factory-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut f = DirSinkFactory::new(&dir, "csv");
        assert_eq!(f.path_for("t"), dir.join("t.csv"));
        assert_eq!(f.dir(), dir.as_path());
        {
            let mut sink = f.make_sink("t").unwrap();
            sink.write_chunk(b"1,2\n").unwrap();
            sink.finish().unwrap();
        }
        assert_eq!(std::fs::read(dir.join("t.csv")).unwrap(), b"1,2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
