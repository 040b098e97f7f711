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
/// A whole-table run owns both. A shard of a framed format (an XML
/// document) owns `begin` only as the first of its sequence and `end`
/// only as the last, so that concatenating shard outputs in order
/// reproduces the single-node byte stream exactly — a document opens
/// once and closes once.
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

/// Shard of table rows assigned to node `node` of `node_count`:
/// contiguous ranges in node order, balanced within one row of each other.
/// The products are taken in `u128`, so no row count or node count
/// overflows them.
pub fn node_shard(total_rows: u64, node: usize, node_count: usize) -> Range<u64> {
    assert!(node_count > 0, "need at least one node");
    assert!(node < node_count, "node index out of range");
    let (total, node, node_count) = (u128::from(total_rows), node as u128, node_count as u128);
    let bound = |node: u128| (total * node / node_count) as u64;
    bound(node)..bound(node + 1)
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

    #[test]
    fn shards_partition_the_row_space() {
        for total in [0u64, 1, 7, 100, 1001] {
            for nodes in [1usize, 2, 3, 8, 24] {
                let mut next = 0;
                for n in 0..nodes {
                    let shard = node_shard(total, n, nodes);
                    assert_eq!(shard.start, next, "gap at node {n}");
                    next = shard.end;
                }
                assert_eq!(next, total, "total={total} nodes={nodes}");
            }
        }
    }

    /// The last of 10^8 shards of TPC-H `lineitem` at SF 100000: the
    /// product of rows and node index passes `u64::MAX`.
    #[test]
    fn shard_arithmetic_does_not_overflow_at_paper_scale() {
        assert_eq!(
            node_shard(600_000_000_000, 99_999_999, 100_000_000),
            599_999_994_000..600_000_000_000
        );
    }

    proptest::proptest! {
        /// Any row count up to 2^63 over up to 2^32 nodes: sampled shards
        /// meet their neighbours, the first starts at 0, the last ends at
        /// the total, and every length is the floor or the ceiling of the
        /// mean.
        #[test]
        fn shards_tile_any_row_count(
            total in 0u64..=1 << 63,
            nodes in 1u64..=1 << 32,
            picks in proptest::collection::vec(proptest::any::<u64>(), 1..8),
        ) {
            let nodes = nodes as usize;
            proptest::prop_assert_eq!(node_shard(total, 0, nodes).start, 0);
            proptest::prop_assert_eq!(node_shard(total, nodes - 1, nodes).end, total);
            let floor = total / nodes as u64;
            for pick in picks {
                let node = (pick % nodes as u64) as usize;
                let shard = node_shard(total, node, nodes);
                let len = shard.end - shard.start;
                proptest::prop_assert!(len == floor || len == floor + 1, "node {} len {}", node, len);
                if node + 1 < nodes {
                    proptest::prop_assert_eq!(shard.end, node_shard(total, node + 1, nodes).start);
                }
            }
        }
    }

    #[test]
    fn shards_are_balanced_within_one_row() {
        for nodes in [2usize, 3, 7, 24] {
            let sizes: Vec<u64> = (0..nodes)
                .map(|n| {
                    let s = node_shard(1000, n, nodes);
                    s.end - s.start
                })
                .collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "{sizes:?}");
        }
    }
}
