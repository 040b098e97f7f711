//! Columnar batch storage: typed per-column vectors for batch generation.
//!
//! The row path materializes one [`Value`] per cell — an enum with an
//! `Arc<str>` payload for text — and pays that materialization (plus a
//! virtual dispatch and a seed-tree walk) per cell. The columnar path
//! instead fills one [`ColumnVec`] per column for a whole work package:
//! primitives land in flat `Vec<i64>`/`Vec<f64>`/… storage and text lands
//! in a shared byte arena ([`TextColumn`]) with offsets, so the steady
//! state allocates nothing per cell. A NULL of any kind is a bit in the
//! column's NULL mask over a placeholder in its lane (an empty entry in a
//! text arena). Formatters then transpose columns→rows through
//! [`ColumnVec::value_ref`], which hands out borrowed [`ValueRef`]s without
//! touching reference counts.
//!
//! A column drawn from a finite set of text entries (a dictionary, or a
//! choice between fixed strings) is a [`ColumnData::Dict`] lane: one `u32`
//! code per cell into the generator's [`DictTable`], laid out once, so a
//! cell's text is copied only when it is written out.
//!
//! [`ColumnData::Cells`] holds boxed [`Value`]s for the one case no lane
//! fits: a column whose cells change kind within a package (a choice
//! between branches of different kinds). A column reaches it only through
//! [`ColumnVec::promote`].

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_macros))]

use std::sync::Arc;

use crate::value::{Date, Value, ValueRef};

/// A text column stored as one contiguous UTF-8 arena plus per-cell end
/// offsets (cell `i` spans `ends[i-1]..ends[i]`, with `ends[-1]` = 0).
///
/// The arena is a `String` rather than `Vec<u8>` so slicing cells back out
/// needs no UTF-8 revalidation and no `unsafe` (the crate forbids it).
/// Offsets are `u32`: a package arena is bounded by rows-per-package ×
/// the column's proven width, far below 4 GiB (builders panic past it).
#[derive(Debug, Default, Clone)]
pub struct TextColumn {
    data: String,
    ends: Vec<u32>,
}

impl TextColumn {
    /// Remove all cells, keeping both the arena and offset capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Reserve room for `cells` more cells totalling ~`bytes` more bytes.
    pub fn reserve(&mut self, cells: usize, bytes: usize) {
        self.ends.reserve(cells);
        self.data.reserve(bytes);
    }

    /// Append one complete cell.
    #[inline]
    pub fn push_str(&mut self, s: &str) {
        self.data.push_str(s);
        self.seal();
    }

    /// The arena tail for incremental cell building. Append-only: callers
    /// may push onto the buffer and must finish the cell with
    /// [`seal`](Self::seal); truncating below the last sealed end corrupts
    /// the column.
    #[inline]
    pub fn buf(&mut self) -> &mut String {
        &mut self.data
    }

    /// Seal the bytes appended since the last seal as one cell.
    #[inline]
    pub fn seal(&mut self) {
        debug_assert!(
            self.data.len() >= self.ends.last().map_or(0, |&e| e as usize),
            "arena truncated below a sealed cell"
        );
        assert!(
            u32::try_from(self.data.len()).is_ok(),
            "text arena exceeds u32 offsets; shrink the package size"
        );
        self.ends.push(self.data.len() as u32);
    }

    /// The whole arena as one contiguous string (all cells concatenated).
    /// Lets formatters pre-scan a column for escape-triggering bytes in
    /// one pass instead of per cell.
    #[inline]
    pub fn arena(&self) -> &str {
        &self.data
    }

    /// Cell `i` as a string slice.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let (start, end) = self.span(i);
        &self.data[start..end]
    }

    /// Cell `i`'s byte range in [`arena`](Self::arena), as `(start, end)`.
    #[inline]
    pub fn span(&self, i: usize) -> (usize, usize) {
        let end = self.ends[i] as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (start, end)
    }

    /// Shorten the last cell to its first `len` bytes (a char boundary).
    pub fn truncate_last(&mut self, len: usize) {
        let n = self.ends.len();
        let start = if n < 2 { 0 } else { self.ends[n - 2] as usize };
        self.data.truncate(start + len);
        self.ends[n - 1] = self.data.len() as u32;
    }

    /// Shorten cells in place: `keep(cell)` returns the byte length to
    /// keep, or `None` to keep the cell whole. Rebuilds through `scratch`
    /// (swapped in as the new arena) only when at least one cell shrinks,
    /// so the no-truncation common case is a read-only scan.
    pub fn truncate_cells(&mut self, keep: impl Fn(&str) -> Option<usize>, scratch: &mut String) {
        let any = (0..self.len()).any(|i| keep(self.get(i)).is_some());
        if !any {
            return;
        }
        scratch.clear();
        scratch.reserve(self.data.len());
        let mut start = 0usize;
        for i in 0..self.ends.len() {
            let end = self.ends[i] as usize;
            let cell = &self.data[start..end];
            let kept = match keep(cell) {
                Some(k) => &cell[..k],
                None => cell,
            };
            scratch.push_str(kept);
            self.ends[i] = scratch.len() as u32;
            start = end;
        }
        std::mem::swap(&mut self.data, scratch);
    }
}

/// A finite list of text entries laid out once in one arena, for the
/// cells of [`ColumnData::Dict`] columns: entry `i` spans
/// `bounds[i]..bounds[i + 1]`, and [`PAD`](Self::PAD) bytes follow the
/// last entry, so a reader may copy a window of up to that many bytes
/// starting at any entry.
#[derive(Debug)]
pub struct DictTable {
    /// Every entry, then `PAD` spaces.
    bytes: String,
    /// 0, then each entry's end: a code's span takes no branch on the code.
    bounds: Vec<u32>,
    /// Bit `b` set: byte `b` occurs in some entry.
    present: [u64; 4],
}

impl DictTable {
    /// Bytes of padding past the last entry.
    pub const PAD: usize = 32;

    /// The table of `entries`, in order: entry `i` is code `i`.
    pub fn new<'a>(entries: impl IntoIterator<Item = &'a str>) -> Self {
        #[allow(clippy::disallowed_methods, reason = "laid out once per generator")]
        let mut bytes = String::new();
        let mut bounds = vec![0];
        for entry in entries {
            bytes.push_str(entry);
            bounds.push(u32::try_from(bytes.len()).expect("dictionary exceeds u32 offsets"));
        }
        assert!(
            u32::try_from(bounds.len() - 1).is_ok(),
            "dictionary exceeds u32 codes"
        );
        let mut present = [0u64; 4];
        for b in bytes.bytes() {
            present[usize::from(b >> 6)] |= 1 << (b & 63);
        }
        bytes.extend(std::iter::repeat_n(' ', Self::PAD));
        Self {
            bytes,
            bounds,
            present,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `code`'s byte range in [`padded`](Self::padded), as
    /// `(start, end)`.
    #[inline]
    pub fn span(&self, code: u32) -> (usize, usize) {
        let i = code as usize;
        (self.bounds[i] as usize, self.bounds[i + 1] as usize)
    }

    /// Entry `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let (start, end) = self.span(code);
        &self.bytes[start..end]
    }

    /// Every entry, then [`PAD`](Self::PAD) bytes.
    #[inline]
    pub fn padded(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// Whether some entry holds a byte `pred` marks: one test per distinct
    /// byte of the table, however many entries it has.
    pub fn holds_any(&self, pred: impl Fn(u8) -> bool) -> bool {
        (0..=255u8).any(|b| (self.present[usize::from(b >> 6)] >> (b & 63)) & 1 == 1 && pred(b))
    }
}

/// A text column of codes into a shared [`DictTable`]: cell `i` is entry
/// `codes[i]`.
#[derive(Debug, Clone)]
pub struct DictColumn {
    codes: Vec<u32>,
    table: Arc<DictTable>,
}

impl DictColumn {
    /// Each cell's code.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The entries the codes index.
    #[inline]
    pub fn table(&self) -> &DictTable {
        &self.table
    }

    /// Cell `i` as a string slice.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.table.get(self.codes[i])
    }

    /// Cell `i`'s byte range in the table's
    /// [`padded`](DictTable::padded) bytes, as `(start, end)`.
    #[inline]
    pub fn span(&self, i: usize) -> (usize, usize) {
        self.table.span(self.codes[i])
    }
}

/// The storage of one [`ColumnVec`]: one lane per cell kind.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// One boxed [`Value`] per cell, any mix of kinds: only a column
    /// [promoted](ColumnVec::promote) on a kind change.
    Cells(Vec<Value>),
    /// `Value::Long` cells.
    Long(Vec<i64>),
    /// `Value::Double` cells.
    Double(Vec<f64>),
    /// `Value::Decimal` cells at one shared scale.
    Decimal {
        /// Unscaled integer per cell.
        unscaled: Vec<i64>,
        /// Shared digits-right-of-point.
        scale: u8,
    },
    /// `Value::Date` cells as days since the epoch.
    Date(Vec<i32>),
    /// `Value::Timestamp` cells as seconds since the epoch.
    Timestamp(Vec<i64>),
    /// `Value::Bool` cells.
    Bool(Vec<bool>),
    /// Text cells in an arena.
    Text(TextColumn),
    /// Text cells as codes into a shared table of entries.
    Dict(DictColumn),
}

/// One column of a generated batch: typed storage plus a NULL mask.
///
/// Kernels that fill a whole column pick their lane through the `*_mut`
/// accessors (which clear the column and its mask, re-typing it and
/// keeping capacity when the lane already matches). Wrappers append one
/// cell at a time through the `*_tail` accessors and
/// [`push_null`](Self::push_null): a column whose cells so far are all
/// NULL takes the lane of its first other cell, and a cell of a different
/// kind [promotes](Self::promote) the column to [`ColumnData::Cells`].
#[derive(Debug, Clone)]
pub struct ColumnVec {
    data: ColumnData,
    /// Bit `i` set: cell `i` is NULL, over a placeholder in its lane. Only
    /// [`push_null`](Self::push_null) grows it, so a column without a NULL
    /// never writes it.
    nulls: Vec<u64>,
    /// Set bits in `nulls`.
    null_count: usize,
}

impl Default for ColumnVec {
    /// An empty `Long` lane; any lane's first cell re-types it.
    fn default() -> Self {
        ColumnData::Long(Vec::new()).into()
    }
}

impl From<ColumnData> for ColumnVec {
    fn from(data: ColumnData) -> Self {
        Self {
            data,
            nulls: Vec::new(),
            null_count: 0,
        }
    }
}

/// The typed lanes' accessors: `$mut_fn` re-types and clears, `$tail_fn`
/// appends.
macro_rules! lanes {
    ($($variant:ident($cell:ty): $mut_fn:ident, $tail_fn:ident;)*) => {$(
        #[doc = concat!("Re-type to [`", stringify!($variant), "`](ColumnData::",
            stringify!($variant), ") and return the cleared storage.")]
        pub fn $mut_fn(&mut self) -> &mut Vec<$cell> {
            self.clear();
            self.$tail_fn().expect("an empty column takes any lane")
        }

        #[doc = concat!("The [`", stringify!($variant), "`](ColumnData::",
            stringify!($variant), ") storage to append one more cell to, or \
            `None` when the column holds a non-NULL cell of another kind.")]
        pub fn $tail_fn(&mut self) -> Option<&mut Vec<$cell>> {
            if !matches!(self.data, ColumnData::$variant(_))
                && !self.adopt(ColumnData::$variant(Vec::new()))
            {
                return None;
            }
            match &mut self.data {
                ColumnData::$variant(v) => Some(v),
                _ => unreachable!(),
            }
        }
    )*};
}

impl ColumnVec {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Cells(v) => v.len(),
            ColumnData::Long(v) | ColumnData::Timestamp(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Decimal { unscaled, .. } => unscaled.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text(t) => t.len(),
            ColumnData::Dict(d) => d.codes.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is cell `i` NULL by the mask?
    #[inline]
    fn masked(&self, i: usize) -> bool {
        self.nulls
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Borrowed view of cell `i`.
    #[inline]
    pub fn value_ref(&self, i: usize) -> ValueRef<'_> {
        if self.masked(i) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Cells(v) => ValueRef::from(&v[i]),
            ColumnData::Long(v) => ValueRef::Long(v[i]),
            ColumnData::Double(v) => ValueRef::Double(v[i]),
            ColumnData::Decimal { unscaled, scale } => ValueRef::Decimal {
                unscaled: unscaled[i],
                scale: *scale,
            },
            ColumnData::Date(v) => ValueRef::Date(Date(v[i])),
            ColumnData::Timestamp(v) => ValueRef::Timestamp(v[i]),
            ColumnData::Bool(v) => ValueRef::Bool(v[i]),
            ColumnData::Text(t) => ValueRef::Text(t.get(i)),
            ColumnData::Dict(d) => ValueRef::Text(d.get(i)),
        }
    }

    /// Cell `i` as an owned [`Value`] (allocates for text).
    pub fn value(&self, i: usize) -> Value {
        match &self.data {
            ColumnData::Cells(v) => v[i].clone(),
            _ => self.value_ref(i).to_value(),
        }
    }

    /// Remove every cell and the mask, keeping the lane and its capacity.
    pub fn clear(&mut self) {
        match &mut self.data {
            ColumnData::Cells(v) => v.clear(),
            ColumnData::Long(v) | ColumnData::Timestamp(v) => v.clear(),
            ColumnData::Double(v) => v.clear(),
            ColumnData::Decimal { unscaled, .. } => unscaled.clear(),
            ColumnData::Date(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Text(t) => t.clear(),
            ColumnData::Dict(d) => d.codes.clear(),
        }
        self.nulls.clear();
        self.null_count = 0;
    }

    /// Append one NULL: a placeholder in the current lane, masked.
    pub fn push_null(&mut self) {
        let i = self.len();
        self.pad_to(i + 1);
        let word = i / 64;
        if self.nulls.len() <= word {
            self.nulls.resize(word + 1, 0);
        }
        self.nulls[word] |= 1 << (i % 64);
        self.null_count += 1;
    }

    /// Grow the lane to `len` cells with placeholders (the mask says which
    /// of them are NULL).
    fn pad_to(&mut self, len: usize) {
        match &mut self.data {
            ColumnData::Cells(v) => v.resize(len, Value::Null),
            ColumnData::Long(v) | ColumnData::Timestamp(v) => v.resize(len, 0),
            ColumnData::Double(v) => v.resize(len, 0.0),
            ColumnData::Decimal { unscaled, .. } => unscaled.resize(len, 0),
            ColumnData::Date(v) => v.resize(len, 0),
            ColumnData::Bool(v) => v.resize(len, false),
            ColumnData::Text(t) => {
                while t.len() < len {
                    t.seal();
                }
            }
            ColumnData::Dict(d) => d.codes.resize(len, 0),
        }
    }

    /// Re-type to `fresh`'s lane when every cell so far is NULL (so when
    /// the column is empty), keeping those cells as masked placeholders.
    /// `false` when a non-NULL cell pins the current lane.
    fn adopt(&mut self, fresh: ColumnData) -> bool {
        let len = self.len();
        if self.null_count < len {
            return false;
        }
        self.data = fresh;
        self.pad_to(len);
        true
    }

    lanes! {
        Long(i64): longs_mut, longs_tail;
        Double(f64): doubles_mut, doubles_tail;
        Date(i32): dates_mut, dates_tail;
        Timestamp(i64): timestamps_mut, timestamps_tail;
        Bool(bool): bools_mut, bools_tail;
    }

    /// Re-type to [`Decimal`](ColumnData::Decimal) at `scale` and return
    /// the cleared unscaled storage.
    pub fn decimals_mut(&mut self, scale: u8) -> &mut Vec<i64> {
        self.clear();
        self.decimals_tail(scale)
            .expect("an empty column takes any lane")
    }

    /// The [`Decimal`](ColumnData::Decimal) storage at `scale` to append
    /// one more cell to, or `None` when the column holds a non-NULL cell of
    /// another kind or scale.
    pub fn decimals_tail(&mut self, scale: u8) -> Option<&mut Vec<i64>> {
        let same = matches!(self.data, ColumnData::Decimal { scale: s, .. } if s == scale);
        if !same
            && !self.adopt(ColumnData::Decimal {
                unscaled: Vec::new(),
                scale,
            })
        {
            return None;
        }
        match &mut self.data {
            ColumnData::Decimal { unscaled, .. } => Some(unscaled),
            _ => unreachable!(),
        }
    }

    /// Re-type to [`Text`](ColumnData::Text) and return the cleared arena.
    pub fn text_mut(&mut self) -> &mut TextColumn {
        self.clear();
        self.text_tail().expect("an empty column takes any lane")
    }

    /// The text arena to append one more cell to, or `None` when the column
    /// holds a non-NULL cell of another kind.
    pub fn text_tail(&mut self) -> Option<&mut TextColumn> {
        if !matches!(self.data, ColumnData::Text(_))
            && !self.adopt(ColumnData::Text(TextColumn::default()))
        {
            return None;
        }
        match &mut self.data {
            ColumnData::Text(t) => Some(t),
            _ => unreachable!(),
        }
    }

    /// Re-type to [`Dict`](ColumnData::Dict) over `table` and return the
    /// cleared codes.
    pub fn codes_mut(&mut self, table: &Arc<DictTable>) -> &mut Vec<u32> {
        self.clear();
        self.codes_tail(table)
            .expect("an empty column takes any lane")
    }

    /// The [`Dict`](ColumnData::Dict) codes over `table` to append one
    /// more cell to, or `None` when the column holds a non-NULL cell of
    /// another kind or of another table.
    pub fn codes_tail(&mut self, table: &Arc<DictTable>) -> Option<&mut Vec<u32>> {
        let same = matches!(&self.data, ColumnData::Dict(d) if Arc::ptr_eq(&d.table, table));
        if !same
            && !self.adopt(ColumnData::Dict(DictColumn {
                codes: Vec::new(),
                table: Arc::clone(table),
            }))
        {
            return None;
        }
        match &mut self.data {
            ColumnData::Dict(d) => Some(&mut d.codes),
            _ => unreachable!(),
        }
    }

    /// Re-type a [`Dict`](ColumnData::Dict) column to
    /// [`Text`](ColumnData::Text), each cell its entry and a NULL an empty
    /// one, keeping the mask: for a pass that edits cells in an arena. Any
    /// other lane stays. Returns the column.
    pub fn spill_dict(&mut self) -> &mut Self {
        if let ColumnData::Dict(d) = &self.data {
            let mut text = TextColumn::default();
            for i in 0..d.codes.len() {
                text.push_str(if self.masked(i) { "" } else { d.get(i) });
            }
            self.data = ColumnData::Text(text);
        }
        self
    }

    /// Promote to [`Cells`](ColumnData::Cells), keeping every cell (a NULL
    /// as `Value::Null`), and return the list, to append a cell whose kind
    /// no lane of this column holds. The only way a column reaches `Cells`.
    pub fn promote(&mut self) -> &mut Vec<Value> {
        if !matches!(self.data, ColumnData::Cells(_)) {
            let cells = (0..self.len()).map(|i| self.value(i)).collect();
            self.data = ColumnData::Cells(cells);
        }
        match &mut self.data {
            ColumnData::Cells(v) => v,
            _ => unreachable!(),
        }
    }

    /// The lane itself when no cell is NULL, for readers that take a
    /// whole column at a time; `None` when the mask marks any cell.
    pub fn unmasked(&self) -> Option<&ColumnData> {
        (self.null_count == 0).then_some(&self.data)
    }

    /// The text arena, if this column currently holds one.
    pub fn as_text(&self) -> Option<&TextColumn> {
        match &self.data {
            ColumnData::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The text arena, if this column currently holds one (non-clearing —
    /// used by in-place post-passes such as truncation).
    pub fn as_text_mut(&mut self) -> Option<&mut TextColumn> {
        match &mut self.data {
            ColumnData::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The dictionary column, if this column currently holds one.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match &self.data {
            ColumnData::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// The promoted cell list, if this column currently holds one
    /// (non-clearing).
    pub fn as_cells_mut(&mut self) -> Option<&mut Vec<Value>> {
        match &mut self.data {
            ColumnData::Cells(v) => Some(v),
            _ => None,
        }
    }
}

/// One work package's worth of generated columns.
///
/// Owned by a worker and recycled across packages, so after warm-up the
/// per-package storage (vectors, arenas, offsets) is reused in place.
#[derive(Debug, Default)]
pub struct ColumnBatch {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shape the batch for `columns` columns × `rows` rows. Existing
    /// column storage is kept (kernels clear it on re-type); surplus
    /// columns are dropped.
    pub fn begin(&mut self, columns: usize, rows: usize) {
        self.columns.resize_with(columns, ColumnVec::default);
        self.rows = rows;
    }

    /// Rows this batch was shaped for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The columns, read-only.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// The columns, mutably (for fill kernels).
    pub fn columns_mut(&mut self) -> &mut [ColumnVec] {
        &mut self.columns
    }

    /// Every column holds exactly [`rows`](Self::rows) cells — the
    /// contract between fill and transpose, checked by the runtime after
    /// a fill.
    pub fn is_rectangular(&self) -> bool {
        self.columns.iter().all(|c| c.len() == self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_column_roundtrips_cells() {
        let mut t = TextColumn::default();
        t.push_str("alpha");
        t.push_str("");
        t.buf().push_str("be");
        t.buf().push('t');
        t.buf().push('a');
        t.seal();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), "alpha");
        assert_eq!(t.get(1), "");
        assert_eq!(t.get(2), "beta");
        t.truncate_last(2);
        assert_eq!(t.get(2), "be");
        assert_eq!(t.arena(), "alphabe");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn truncate_cells_shortens_only_flagged_cells() {
        let mut t = TextColumn::default();
        t.push_str("hello world");
        t.push_str("ok");
        t.push_str("wide cell here");
        let mut scratch = String::new();
        t.truncate_cells(|s| if s.len() > 5 { Some(5) } else { None }, &mut scratch);
        assert_eq!(t.get(0), "hello");
        assert_eq!(t.get(1), "ok");
        assert_eq!(t.get(2), "wide ");
        // No-op pass leaves everything untouched.
        let before: Vec<String> = (0..t.len()).map(|i| t.get(i).to_string()).collect();
        t.truncate_cells(|_| None, &mut scratch);
        let after: Vec<String> = (0..t.len()).map(|i| t.get(i).to_string()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn column_vec_retypes_and_roundtrips_value_refs() {
        let mut c = ColumnVec::default();
        c.longs_mut().extend([1i64, -2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_ref(1), ValueRef::Long(-2));
        assert_eq!(c.value(2), Value::Long(3));

        c.decimals_mut(2).push(12345);
        assert_eq!(
            c.value_ref(0),
            ValueRef::Decimal {
                unscaled: 12345,
                scale: 2
            }
        );
        assert_eq!(c.value(0), Value::decimal(12345, 2));

        let t = c.text_mut();
        t.push_str("hi");
        assert_eq!(c.value_ref(0), ValueRef::Text("hi"));
        assert_eq!(c.value(0), Value::text("hi"));

        c.dates_mut().push(10_000);
        assert_eq!(c.value_ref(0), ValueRef::Date(Date(10_000)));
        c.bools_mut().push(true);
        assert_eq!(c.value_ref(0), ValueRef::Bool(true));
        c.timestamps_mut().push(77);
        assert_eq!(c.value_ref(0), ValueRef::Timestamp(77));
        c.doubles_mut().push(1.5);
        assert_eq!(c.value_ref(0), ValueRef::Double(1.5));
    }

    fn long_capacity(c: &ColumnVec) -> usize {
        match &c.data {
            ColumnData::Long(v) => v.capacity(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn retype_keeps_capacity_when_variant_matches() {
        let mut c = ColumnVec::default();
        c.longs_mut().extend(0..100i64);
        let cap = long_capacity(&c);
        let v = c.longs_mut();
        assert!(v.is_empty());
        assert_eq!(long_capacity(&c), cap);
    }

    #[test]
    fn masked_cells_read_null_in_every_lane() {
        let mut c = ColumnVec::default();
        c.text_mut().push_str("a");
        c.push_null();
        c.text_tail().unwrap().push_str("b");
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_ref(0), ValueRef::Text("a"));
        assert_eq!(c.value_ref(1), ValueRef::Null);
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value_ref(2), ValueRef::Text("b"));
        // A NULL is an empty arena entry, so the arena holds only text.
        assert_eq!(c.as_text().unwrap().arena(), "ab");

        c.decimals_mut(2).push(5);
        for _ in 0..70 {
            c.push_null();
        }
        c.decimals_tail(2).unwrap().push(7);
        assert_eq!(c.len(), 72);
        assert_eq!(c.value_ref(70), ValueRef::Null);
        assert_eq!(
            c.value_ref(71),
            ValueRef::Decimal {
                unscaled: 7,
                scale: 2
            }
        );
    }

    #[test]
    fn retyping_clears_the_mask_and_keeps_capacity() {
        let mut c = ColumnVec::default();
        c.longs_mut().extend(0..100i64);
        for _ in 0..100 {
            c.push_null();
        }
        let (cap, mask_cap) = (long_capacity(&c), c.nulls.capacity());
        c.longs_mut().extend(0..200i64);
        assert!((0..200).all(|i| c.value_ref(i) == ValueRef::Long(i as i64)));
        assert_eq!(long_capacity(&c), cap);
        assert_eq!(c.nulls.capacity(), mask_cap);
        assert_eq!(c.null_count, 0);
    }

    #[test]
    fn an_all_null_column_takes_the_lane_of_its_first_value() {
        let mut c = ColumnVec::default();
        c.push_null();
        c.push_null();
        c.text_tail().unwrap().push_str("x");
        assert!(c.as_text().is_some());
        assert_eq!(
            (0..3).map(|i| c.value(i)).collect::<Vec<_>>(),
            [Value::Null, Value::Null, Value::text("x")]
        );
    }

    #[test]
    fn a_cell_of_another_kind_promotes_to_cells() {
        let mut c = ColumnVec::default();
        c.longs_mut().push(4);
        c.push_null();
        assert!(c.text_tail().is_none());
        c.promote().push(Value::text("t"));
        assert!(c.longs_tail().is_none());
        c.promote().push(Value::Long(5));
        c.push_null();
        assert_eq!(
            (0..5).map(|i| c.value(i)).collect::<Vec<_>>(),
            [
                Value::Long(4),
                Value::Null,
                Value::text("t"),
                Value::Long(5),
                Value::Null
            ]
        );
        // Cleared, the column takes a lane again.
        c.clear();
        c.longs_tail().unwrap().push(1);
        assert!(c.as_cells_mut().is_none());
    }

    #[test]
    fn dict_table_lays_out_entries_with_padding() {
        let t = DictTable::new(["R", "", "a\"b"]);
        assert_eq!(t.len(), 3);
        assert_eq!((t.get(0), t.get(1), t.get(2)), ("R", "", "a\"b"));
        assert_eq!(t.span(2), (1, 4));
        assert_eq!(t.padded().len(), 4 + DictTable::PAD);
        assert!(t.holds_any(|b| b == b'"'));
        assert!(!t.holds_any(|b| b == b','));
        assert!(DictTable::new([]).is_empty());
    }

    #[test]
    fn dict_column_keeps_its_table_and_reads_null_and_text() {
        let table = Arc::new(DictTable::new(["x", "yy"]));
        let mut c = ColumnVec::default();
        c.codes_mut(&table).extend([1, 0]);
        c.push_null();
        c.codes_tail(&table).unwrap().push(1);
        assert_eq!(c.len(), 4);
        assert_eq!(
            (0..4).map(|i| c.value(i)).collect::<Vec<_>>(),
            [
                Value::text("yy"),
                Value::text("x"),
                Value::Null,
                Value::text("yy")
            ]
        );
        let d = c.as_dict().unwrap();
        assert_eq!(
            (d.codes(), d.get(1), d.span(0)),
            (&[1, 0, 0, 1][..], "x", (1, 3))
        );
        // Codes of another table do not join a column holding a code.
        let other = Arc::new(DictTable::new(["x", "yy"]));
        assert!(c.codes_tail(&other).is_none());
        assert!(c.text_tail().is_none());
        // A column of only NULLs takes the other table.
        c.clear();
        c.push_null();
        c.codes_tail(&other).unwrap().push(0);
        assert_eq!(c.value(1), Value::text("x"));
        // Spilled, every cell is its entry in an arena, a NULL empty.
        c.spill_dict();
        assert_eq!(c.as_text().unwrap().arena(), "x");
        assert_eq!((c.value(0), c.value(1)), (Value::Null, Value::text("x")));
        c.spill_dict();
        assert!(c.as_text().is_some(), "spilling an arena keeps it");
    }

    #[test]
    fn batch_shapes_and_checks_rectangularity() {
        let mut b = ColumnBatch::new();
        b.begin(2, 3);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.columns().len(), 2);
        assert!(!b.is_rectangular());
        b.columns_mut()[0].longs_mut().extend([1, 2, 3]);
        b.columns_mut()[1].text_mut();
        for s in ["a", "b", "c"] {
            b.columns_mut()[1].as_text_mut().unwrap().push_str(s);
        }
        assert!(b.is_rectangular());
        b.begin(1, 3);
        assert_eq!(b.columns().len(), 1, "surplus columns dropped");
    }
}
