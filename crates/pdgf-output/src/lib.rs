//! The PDGF output system.
//!
//! "Whenever a work package is generated, it is sent to the output system,
//! where it can be formatted and sorted." (Section 2.) This crate holds
//! the pieces of that sentence:
//!
//! * [`formatter`] — converting typed [`Value`](pdgf_schema::Value) rows
//!   into bytes, once per emitted cell (*lazy formatting*): CSV, JSON,
//!   XML, and SQL `INSERT` formats, matching the paper's "PDGF can write
//!   data in various formats (e.g., CSV, JSON, XML, and SQL)";
//! * [`fmtfast`] — the byte-oriented numeric/date/float kernels the
//!   formatters are built on, each byte-identical to the `std::fmt`
//!   rendering it replaces;
//! * [`sink`] — byte destinations: files, memory, and the byte-counting
//!   null sink used by the paper's CPU-bound experiments ("generated data
//!   was written to /dev/null to ensure the throughput was not I/O
//!   bound");
//! * [`reorder`] — the sequence buffer that turns out-of-order work
//!   package completions into sorted single-file output ("PDGF writes
//!   sorted output into a single file");
//! * [`pool`] — package-buffer recycling between the output stage and
//!   the workers, which removes per-package allocation from the steady
//!   state;
//! * [`factory`] — [`SinkFactory`]: how a run obtains one sink per
//!   table, with ready-made directory/null/memory factories and a
//!   blanket impl for plain closures.
//!
//! # The byte API
//!
//! [`Formatter`] renders into `&mut Vec<u8>`, not `&mut String`. Rows are
//! bytes the moment they are formatted; sinks consume `&[u8]` unchanged.
//! Formatter implementations must uphold two invariants:
//!
//! 1. **UTF-8 output** — every formatter emits valid UTF-8 (all built-in
//!    formats do; escaping operates on `char` boundaries).
//! 2. **No row-path allocation** — `row` may only append to `out`;
//!    scratch strings are forbidden. The built-in formatters render every
//!    [`Value`](pdgf_schema::Value) variant directly into the buffer via
//!    [`fmtfast`].
//!
//! # Determinism contract
//!
//! Output bytes are a pure function of `(schema, seed, format)`: for any
//! worker count and package size, the concatenated package buffers are
//! byte-identical to a single-threaded render. The scheduler's
//! byte-identity tests enforce this for every built-in format, and the
//! [`fmtfast`] round-trip tests pin each kernel to the exact `std::fmt`
//! bytes it replaces, so the contract survives kernel changes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod factory;
pub mod fmtfast;
pub mod formatter;
pub mod pool;
pub mod reorder;
pub mod sink;

pub use factory::{DirSinkFactory, MemorySinkFactory, NullSinkFactory, SinkFactory};
pub use formatter::{
    CsvFormatter, Formatter, JsonFormatter, SqlFormatter, TableMeta, XmlFormatter,
};
pub use pool::BufferPool;
pub use reorder::ReorderBuffer;
pub use sink::{FileSink, MemorySink, NullSink, PartitionedDirSink, Sink};
