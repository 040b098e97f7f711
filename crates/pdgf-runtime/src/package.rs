//! Table jobs: what a batch run asks the execution core to generate.
//!
//! "A work package is a set of rows of a table that need to be generated."
//! Packages are contiguous row ranges whose sequence number doubles as
//! the sort key for ordered output; which rows package `seq` of a range
//! covers is arithmetic (the `engine` module), so no package list is ever
//! built. A [`TableJob`] describes one table shard — rows, update epoch —
//! with its [`Framing`] obligations; each job has its own sink and its
//! own ordered package stream.

use std::ops::Range;

/// Which of the formatter's `begin`/`end` bytes a table shard owns.
///
/// A whole-table run owns both. A node shard of a framed format (CSV with
/// header, XML document, SQL script) owns `begin` only when it starts at
/// row 0 and `end` only when it finishes the table, so that concatenating
/// shard outputs in node order reproduces the single-node byte stream
/// exactly — headers appear once, documents close once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Emit the formatter's `begin` bytes before the first row.
    pub begin: bool,
    /// Emit the formatter's `end` bytes after the last row.
    pub end: bool,
}

impl Framing {
    /// Both `begin` and `end`: a self-contained document.
    pub fn full() -> Self {
        Self {
            begin: true,
            end: true,
        }
    }

    /// Neither: a middle fragment of a larger stream.
    pub fn none() -> Self {
        Self {
            begin: false,
            end: false,
        }
    }

    /// Framing implied by a row range of a `table_size`-row table: `begin`
    /// iff the range starts at row 0, `end` iff it reaches the table end.
    pub fn for_range(rows: &Range<u64>, table_size: u64) -> Self {
        Self {
            begin: rows.start == 0,
            end: rows.end >= table_size,
        }
    }
}

/// One table shard in a project run: the rows to generate plus the
/// framing bytes this shard is responsible for. A project run drains the
/// packages of every job through one worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableJob {
    /// Table index.
    pub table: u32,
    /// Update epoch.
    pub update: u32,
    /// Row range (global row numbers).
    pub rows: Range<u64>,
    /// Framing obligations of this shard.
    pub framing: Framing,
}

impl TableJob {
    /// Job covering all `size` rows of `table` at update epoch 0, with
    /// full framing.
    pub fn full_table(table: u32, size: u64) -> Self {
        Self {
            table,
            update: 0,
            rows: 0..size,
            framing: Framing::full(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_from_range_position() {
        assert_eq!(Framing::for_range(&(0..100), 100), Framing::full());
        assert!(Framing::for_range(&(0..50), 100).begin);
        assert!(!Framing::for_range(&(0..50), 100).end);
        assert!(!Framing::for_range(&(50..100), 100).begin);
        assert!(Framing::for_range(&(50..100), 100).end);
        assert_eq!(Framing::for_range(&(25..75), 100), Framing::none());
        // Empty table: the full range is 0..0, a complete document.
        assert_eq!(Framing::for_range(&(0..0), 0), Framing::full());
    }
}
