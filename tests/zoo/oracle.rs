//! The row oracle. Its own file so the unit tests of `pdgf-runtime` and
//! `pdgf` can include it by path without the zoo schema's dependencies.

use std::ops::Range;

use pdgf_gen::{GenScratch, SchemaRuntime};
use pdgf_output::{Formatter, TableMeta};

/// The row oracle: `rows` of `table` at epoch `update`, one row at a
/// time on this thread through the point-read path
/// (`row_into_with_scratch`, which runs each column's `emit_cell` once
/// per cell) and `Formatter::row`, framed by position — `begin` iff the
/// range starts the table, `end` iff it finishes it. Shares nothing with
/// the engine under test but the generators' kernels and the formatter's
/// per-row method; the engine's `fill_column` loops over rows in packages.
pub fn oracle_bytes(
    rt: &SchemaRuntime,
    table: u32,
    update: u32,
    rows: Range<u64>,
    formatter: &dyn Formatter,
) -> Vec<u8> {
    let t = &rt.tables()[table as usize];
    let meta = TableMeta {
        name: t.name.clone(),
        columns: t.columns.iter().map(|c| c.name.clone()).collect(),
    };
    let owns_end = rows.end >= t.size;
    let mut out = Vec::new();
    let mut values = Vec::new();
    let mut scratch = GenScratch::default();
    if rows.start == 0 {
        formatter.begin(&mut out, &meta);
    }
    for row in rows {
        rt.row_into_with_scratch(table, update, row, &mut values, &mut scratch);
        formatter.row(&mut out, &meta, &values);
    }
    if owns_end {
        formatter.end(&mut out, &meta);
    }
    out
}
