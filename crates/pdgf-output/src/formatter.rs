//! Row formatters: typed values to bytes, exactly once per cell.
//!
//! Generators hand the output system *typed* [`Value`]s; the paper calls
//! the resulting strategy lazy formatting — "even very complex values will
//! only be formatted once", and formatting cost (the dominant cost in
//! Figure 9) is paid only for cells that are actually emitted.
//!
//! Formatters append straight to a `Vec<u8>` package buffer through the
//! [`fmtfast`] kernels. No formatter allocates on the row path: numeric,
//! date, and timestamp values are built in registers and stored once into
//! the output buffer, and text values are copied (and escaped) directly
//! from their backing storage.
//!
//! A package reaches every format the same way: one resolver turns each
//! column, once per package, into a lane view — a typed slice, a text
//! arena with no byte the format escapes, or a generic column read cell
//! by cell. A format tells the resolver which bytes its text escapes and
//! (CSV only) whether typed renderings can collide with its delimiter;
//! beyond that it supplies only its row framing and its per-kind cell
//! writers, which its one-row [`Formatter::row`] path shares.

use crate::fmtfast;
use pdgf_schema::absint::{KindSet, StaticProfile};
use pdgf_schema::{ColumnBatch, ColumnData, ColumnVec, Date, TextColumn, Value, ValueRef};

/// Static description of the table being formatted.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name (used by XML/SQL formats).
    pub name: String,
    /// Column names in emission order.
    pub columns: Vec<String>,
}

impl TableMeta {
    /// Convenience constructor.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Self {
            // audit:allow(std-fmt) schema-time construction, once per table;
            // the per-row hot path below never allocates through std fmt
            name: name.to_string(),
            // audit:allow(std-fmt) schema-time construction, once per table
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }
}

/// Converts rows of values into output bytes.
///
/// Formatters are stateless and shared across worker threads; all output
/// goes through the caller-provided byte buffer so the steady-state hot
/// path performs no allocation at all (buffer growth amortizes to zero
/// once package buffers recycle through the
/// [`BufferPool`](crate::BufferPool)).
///
/// [`rows_columnar`](Self::rows_columnar) is the path every package takes;
/// [`row`](Self::row) is the one-row reference it must match byte for
/// byte.
pub trait Formatter: Send + Sync {
    /// Emit anything that precedes the first row (headers, openers).
    fn begin(&self, out: &mut Vec<u8>, meta: &TableMeta) {
        let _ = (out, meta);
    }

    /// Emit one row.
    fn row(&self, out: &mut Vec<u8>, meta: &TableMeta, values: &[Value]);

    /// Emit every row of a columnar batch, transposing columns to rows.
    ///
    /// Must produce exactly the bytes of calling [`row`](Self::row) once
    /// per batch row, and may not allocate. The shipped formatters read
    /// each column through one lane view resolved per package.
    fn rows_columnar(&self, out: &mut Vec<u8>, meta: &TableMeta, batch: &ColumnBatch);

    /// Emit anything that follows the last row (closers).
    fn end(&self, out: &mut Vec<u8>, meta: &TableMeta) {
        let _ = (out, meta);
    }

    /// A proven upper bound on the bytes one [`row`](Self::row) call can
    /// append, given each column's abstract-interpretation profile.
    ///
    /// `None` when no finite bound is known (a column width is unbounded,
    /// or the profiles don't match the column list). The default claims
    /// nothing, which is always sound.
    fn max_row_bytes(&self, meta: &TableMeta, profiles: &[StaticProfile]) -> Option<u64> {
        let _ = (meta, profiles);
        None
    }

    /// Format name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Append one `char` as UTF-8: a CSV delimiter outside the byte paths.
#[inline]
fn push_char(out: &mut Vec<u8>, c: char) {
    let mut buf = [0u8; 4];
    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
}

/// The one escaping walk every text format shares: call `emit` with each
/// clean run of `s`, unchanged, and with `escape_of(b)` in place of each
/// byte it escapes. `escape_of` may only escape ASCII bytes; those never
/// occur inside a multi-byte UTF-8 sequence, so the scan runs over raw
/// bytes and every run is still a `&str`.
#[inline]
fn escape_runs(
    s: &str,
    escape_of: impl Fn(u8) -> Option<&'static str>,
    mut emit: impl FnMut(&str),
) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(esc) = escape_of(b) {
            emit(&s[start..i]);
            emit(esc);
            start = i + 1;
        }
    }
    emit(&s[start..]);
}

/// `write`'s rendering between two `quote` bytes.
#[inline]
fn quoted(out: &mut Vec<u8>, quote: u8, write: impl FnOnce(&mut Vec<u8>)) {
    out.push(quote);
    write(out);
    out.push(quote);
}

/// Cell `r` of `t`, unchanged: a window of the arena cut to the cell
/// where one fits ([`fmtfast::write_span`]).
#[inline]
fn copy_cell(out: &mut Vec<u8>, t: &TextColumn, r: usize) {
    let (start, end) = t.span(r);
    fmtfast::write_span(out, t.arena().as_bytes(), start, end);
}

/// [`escape_runs`] into a byte buffer: one copy per clean run.
#[inline]
fn escape_into(out: &mut Vec<u8>, s: &str, escape_of: impl Fn(u8) -> Option<&'static str>) {
    escape_runs(s, escape_of, |run| out.extend_from_slice(run.as_bytes()));
}

/// One column of a package as a formatter reads it, resolved once per
/// package by [`Lane::of`]: a typed lane or a clean text arena, written
/// cell by cell without a decision, or (`Generic`) a column read through
/// [`ValueRef`] — one with NULLs, promoted cells, text the format may
/// escape, or (CSV) typed cells that may hold the delimiter.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Long(&'a [i64]),
    Double(&'a [f64]),
    Decimal(&'a [i64], u8),
    Date(&'a [i32]),
    Timestamp(&'a [i64]),
    Bool(&'a [bool]),
    Text(&'a TextColumn),
    Generic(&'a ColumnVec),
}

impl<'a> Lane<'a> {
    /// Columns of a package that get a view; the rest go cell by cell.
    const MAX: usize = 64;

    /// `col`'s view for a format whose text escapes exactly the bytes
    /// `dirty` marks, and whose typed renderings need a decision unless
    /// `typed` (a long never does).
    fn of(col: &'a ColumnVec, dirty: impl Fn(u8) -> bool, typed: bool) -> Self {
        let Some(data) = col.unmasked() else {
            return Self::Generic(col);
        };
        match data {
            ColumnData::Long(v) => Self::Long(v),
            ColumnData::Text(t) if is_clean(t.arena().as_bytes(), dirty) => Self::Text(t),
            ColumnData::Text(_) | ColumnData::Cells(_) => Self::Generic(col),
            _ if !typed => Self::Generic(col),
            ColumnData::Double(v) => Self::Double(v),
            ColumnData::Decimal { unscaled, scale } => Self::Decimal(unscaled, *scale),
            ColumnData::Date(v) => Self::Date(v),
            ColumnData::Timestamp(v) => Self::Timestamp(v),
            ColumnData::Bool(v) => Self::Bool(v),
        }
    }

    /// Cell `r`: the bytes `w.cell` writes for it. Only a `Generic` view
    /// decides per cell; every other view calls one writer.
    #[inline]
    fn write(self, w: &impl CellWriter, out: &mut Vec<u8>, r: usize) {
        match self {
            Self::Long(v) => w.long(out, v[r]),
            Self::Double(v) => w.double(out, v[r]),
            Self::Decimal(v, scale) => w.decimal(out, v[r], scale),
            Self::Date(v) => w.date(out, Date(v[r])),
            Self::Timestamp(v) => w.timestamp(out, v[r]),
            Self::Bool(v) => w.bool(out, v[r]),
            Self::Text(t) => w.clean_text(out, t, r),
            Self::Generic(col) => generic_cell(w, out, col, r),
        }
    }
}

/// A `Generic` view's cell, out of line: inlining the whole per-kind
/// dispatch here would crowd the typed arms' registers in every row loop.
#[inline(never)]
fn generic_cell(w: &impl CellWriter, out: &mut Vec<u8>, col: &ColumnVec, r: usize) {
    w.cell(out, col.value_ref(r));
}

/// Whether no byte of `arena` is `dirty`. Each 256-byte block is folded
/// without a branch per byte, which the compiler vectorizes; a dirty
/// arena stops at the first block that holds a dirty byte.
#[inline]
fn is_clean(arena: &[u8], dirty: impl Fn(u8) -> bool) -> bool {
    arena
        .chunks(256)
        .all(|block| !block.iter().fold(false, |hit, &b| hit | dirty(b)))
}

/// A package's lane views: the first [`Lane::MAX`] columns resolved once,
/// on the stack so a package allocates nothing; later columns are read
/// cell by cell as `Generic`.
struct Lanes<'a> {
    views: [Lane<'a>; Lane::MAX],
    columns: &'a [ColumnVec],
}

impl<'a> Lanes<'a> {
    fn new(batch: &'a ColumnBatch, resolve: impl Fn(&'a ColumnVec) -> Lane<'a>) -> Self {
        let mut views = [Lane::Long(&[]); Lane::MAX];
        for (view, col) in views.iter_mut().zip(batch.columns()) {
            *view = resolve(col);
        }
        Self {
            views,
            columns: batch.columns(),
        }
    }

    fn len(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`'s view. Indexing beats a chained iterator here: the row
    /// loop stays one loop with no per-cell iterator state.
    #[inline]
    fn get(&self, i: usize) -> Lane<'a> {
        if i < Lane::MAX {
            self.views[i]
        } else {
            Lane::Generic(&self.columns[i])
        }
    }
}

/// A format's cell writers, one per kind of cell: the row path reaches
/// them through [`cell`](Self::cell), a lane view calls its kind's writer
/// directly.
trait CellWriter {
    fn null(&self, out: &mut Vec<u8>);
    fn long(&self, out: &mut Vec<u8>, x: i64);
    fn double(&self, out: &mut Vec<u8>, x: f64);
    fn decimal(&self, out: &mut Vec<u8>, unscaled: i64, scale: u8);
    fn date(&self, out: &mut Vec<u8>, d: Date);
    fn timestamp(&self, out: &mut Vec<u8>, t: i64);
    fn bool(&self, out: &mut Vec<u8>, b: bool);
    /// Text, escaped as the format requires.
    fn text(&self, out: &mut Vec<u8>, s: &str);
    /// [`text`](Self::text) of cell `r` of a column whose arena the
    /// resolver found clean: the escape walk is skipped, and the cell is
    /// copied by [`copy_cell`].
    fn clean_text(&self, out: &mut Vec<u8>, t: &TextColumn, r: usize);

    /// One cell, exactly as the format's [`Formatter::row`] writes it.
    #[inline]
    fn cell(&self, out: &mut Vec<u8>, v: ValueRef<'_>) {
        match v {
            ValueRef::Null => self.null(out),
            ValueRef::Long(x) => self.long(out, x),
            ValueRef::Double(x) => self.double(out, x),
            ValueRef::Decimal { unscaled, scale } => self.decimal(out, unscaled, scale),
            ValueRef::Date(d) => self.date(out, d),
            ValueRef::Timestamp(t) => self.timestamp(out, t),
            ValueRef::Bool(b) => self.bool(out, b),
            ValueRef::Text(s) => self.text(out, s),
        }
    }
}

/// `\n`, `\r` and `\t` in their short forms; every other control byte as
/// `\u00XX`.
const JSON_CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
    "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
    "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// What JSON writes for byte `b` inside a string, if `b` must be escaped.
#[inline]
fn json_escape_of(b: u8) -> Option<&'static str> {
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1f => Some(JSON_CONTROL_ESCAPES[usize::from(b)]),
        _ => None,
    }
}

/// JSON's clean-byte predicate, negated: the bytes [`json_escape_of`]
/// escapes, without a branch.
#[inline]
fn json_dirty(b: u8) -> bool {
    (b < 0x20) | (b == b'"') | (b == b'\\')
}

/// Append `s` escaped as the body of a JSON string (no surrounding
/// quotes). Every byte JSON escapes is ASCII, so clean runs — multi-byte
/// UTF-8 included — are copied unchanged.
pub fn json_escape_into(out: &mut Vec<u8>, s: &str) {
    escape_into(out, s, json_escape_of);
}

/// [`json_escape_into`] for control-plane text: the escaped body of `s`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_runs(s, json_escape_of, |run| out.push_str(run));
    out
}

/// Every byte a non-text [`Value`] rendering can contain: digits, sign,
/// point, time separators, and the letters of `true`/`false`/`NaN`/`inf`.
/// Used to decide whether typed CSV fields can ever need quoting.
const TYPED_VALUE_CHARS: &str = "0123456789-.: truefalsNni";

/// Delimiter-separated values. Fields containing the delimiter, quotes,
/// or newlines are quoted with `"` and embedded quotes doubled (RFC 4180).
pub struct CsvFormatter {
    delimiter: char,
    header: bool,
    /// Whether a typed (non-text) rendering could contain the delimiter.
    /// False for every sane delimiter (`,`, `|`, tab, `;`), letting typed
    /// fields skip the quoting scan entirely.
    scan_typed: bool,
}

impl CsvFormatter {
    /// Standard comma-separated output without a header row (DBGen-style).
    pub fn new() -> Self {
        Self {
            delimiter: ',',
            header: false,
            scan_typed: false,
        }
    }

    /// Customize the delimiter (e.g. `'|'` for TPC-H tbl files).
    pub fn with_delimiter(mut self, delimiter: char) -> Self {
        self.delimiter = delimiter;
        self.scan_typed = TYPED_VALUE_CHARS.contains(delimiter);
        self
    }

    /// Emit a header row with column names.
    pub fn with_header(mut self) -> Self {
        self.header = true;
        self
    }

    /// The delimiter as a single byte, when it is ASCII (the overwhelming
    /// common case). ASCII bytes never occur inside a multi-byte UTF-8
    /// sequence, so quoting scans can run over raw bytes instead of
    /// decoding chars.
    #[inline]
    fn ascii_delimiter(&self) -> Option<u8> {
        self.delimiter.is_ascii().then_some(self.delimiter as u8)
    }

    fn push_field(&self, out: &mut Vec<u8>, text: &str) {
        let needs_quoting = match self.ascii_delimiter() {
            Some(d) => text
                .bytes()
                .any(|b| b == d || b == b'"' || b == b'\n' || b == b'\r'),
            None => text
                .chars()
                .any(|c| c == self.delimiter || c == '"' || c == '\n' || c == '\r'),
        };
        if needs_quoting {
            out.push(b'"');
            escape_into(out, text, |b| (b == b'"').then_some("\"\""));
            out.push(b'"');
        } else {
            out.extend_from_slice(text.as_bytes());
        }
    }

    /// A typed (non-text) cell that `write` renders. Typed renderings can
    /// never contain `"`, `\n`, or `\r`, so quoting is only needed when the
    /// delimiter itself appears — and that in turn is only possible when
    /// the delimiter is drawn from [`TYPED_VALUE_CHARS`].
    #[inline]
    fn typed(&self, out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        write(out);
        if self.scan_typed {
            self.quote_if_delimited(out, start);
        }
    }

    /// Wrap `out[start..]` in quotes when it holds the delimiter. Typed
    /// renderings contain no embedded quotes, so no doubling is needed.
    #[cold]
    #[inline(never)]
    fn quote_if_delimited(&self, out: &mut Vec<u8>, start: usize) {
        let mut delim = [0u8; 4];
        let delim = self.delimiter.encode_utf8(&mut delim).as_bytes();
        if out[start..].windows(delim.len()).any(|w| w == delim) {
            out.insert(start, b'"');
            out.push(b'"');
        }
    }

    /// The delimiter; `delim` is [`ascii_delimiter`](Self::ascii_delimiter).
    #[inline]
    fn push_delimiter(&self, out: &mut Vec<u8>, delim: Option<u8>) {
        match delim {
            Some(d) => out.push(d),
            None => push_char(out, self.delimiter),
        }
    }

    /// `col`'s lane view. A text byte is dirty when it forces quoting:
    /// a quote, CR, LF, the delimiter — or, for a non-ASCII delimiter,
    /// any non-ASCII byte. Typed lanes other than longs are generic when
    /// the delimiter can occur in a typed rendering.
    fn lane<'a>(&self, col: &'a ColumnVec) -> Lane<'a> {
        let quotes = |b: u8| (b == b'"') | (b == b'\n') | (b == b'\r');
        let typed = !self.scan_typed;
        match self.ascii_delimiter() {
            Some(d) => Lane::of(col, |b| quotes(b) | (b == d), typed),
            None => Lane::of(col, |b| quotes(b) | !b.is_ascii(), typed),
        }
    }
}

impl CellWriter for CsvFormatter {
    #[inline]
    fn null(&self, _out: &mut Vec<u8>) {}

    /// Longs are written bare, like NULL, whatever the delimiter.
    #[inline]
    fn long(&self, out: &mut Vec<u8>, x: i64) {
        fmtfast::write_i64(out, x);
    }

    #[inline]
    fn double(&self, out: &mut Vec<u8>, x: f64) {
        self.typed(out, |out| fmtfast::write_f64_display(out, x));
    }

    #[inline]
    fn decimal(&self, out: &mut Vec<u8>, unscaled: i64, scale: u8) {
        self.typed(out, |out| fmtfast::write_decimal(out, unscaled, scale));
    }

    #[inline]
    fn date(&self, out: &mut Vec<u8>, d: Date) {
        self.typed(out, |out| fmtfast::write_date(out, d));
    }

    #[inline]
    fn timestamp(&self, out: &mut Vec<u8>, t: i64) {
        self.typed(out, |out| fmtfast::write_timestamp(out, t));
    }

    #[inline]
    fn bool(&self, out: &mut Vec<u8>, b: bool) {
        self.typed(out, |out| fmtfast::write_bool(out, b));
    }

    #[inline]
    fn text(&self, out: &mut Vec<u8>, s: &str) {
        self.push_field(out, s);
    }

    #[inline]
    fn clean_text(&self, out: &mut Vec<u8>, t: &TextColumn, r: usize) {
        copy_cell(out, t, r);
    }
}

impl Default for CsvFormatter {
    fn default() -> Self {
        Self::new()
    }
}

impl Formatter for CsvFormatter {
    fn begin(&self, out: &mut Vec<u8>, meta: &TableMeta) {
        if self.header {
            for (i, c) in meta.columns.iter().enumerate() {
                if i > 0 {
                    push_char(out, self.delimiter);
                }
                self.push_field(out, c);
            }
            out.push(b'\n');
        }
    }

    fn row(&self, out: &mut Vec<u8>, _meta: &TableMeta, values: &[Value]) {
        let delim = self.ascii_delimiter();
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.push_delimiter(out, delim);
            }
            self.cell(out, ValueRef::from(v));
        }
        out.push(b'\n');
    }

    fn rows_columnar(&self, out: &mut Vec<u8>, _meta: &TableMeta, batch: &ColumnBatch) {
        let delim = self.ascii_delimiter();
        let lanes = Lanes::new(batch, |col| self.lane(col));
        for r in 0..batch.rows() {
            for i in 0..lanes.len() {
                if i > 0 {
                    self.push_delimiter(out, delim);
                }
                lanes.get(i).write(self, out, r);
            }
            out.push(b'\n');
        }
    }

    fn max_row_bytes(&self, meta: &TableMeta, profiles: &[StaticProfile]) -> Option<u64> {
        if meta.columns.len() != profiles.len() {
            return None;
        }
        let delim = self.delimiter.len_utf8() as u64;
        let mut total = 1; // trailing newline
        for (i, p) in profiles.iter().enumerate() {
            if i > 0 {
                total += delim;
            }
            let w = u64::from(p.width.bound()?);
            total += if p.kinds.contains(KindSet::TEXT) {
                // Quoted worst case: every byte doubled, plus the quotes.
                2 * w + 2
            } else if self.scan_typed && !p.kinds.without_null().is_subset(KindSet::LONG) {
                // Typed renderings may collide with the delimiter and get
                // wrapped in quotes; bare longs and NULLs never do.
                w + 2
            } else {
                w
            };
        }
        Some(total)
    }

    fn name(&self) -> &'static str {
        "CSV"
    }
}

/// Newline-delimited JSON: one object per row.
pub struct JsonFormatter;

/// `s` as a quoted JSON string.
#[inline]
fn json_string_into(out: &mut Vec<u8>, s: &str) {
    quoted(out, b'"', |out| json_escape_into(out, s));
}

/// The bytes [`json_string_into`] writes for `s`.
fn json_string_len(s: &str) -> u64 {
    let body: usize = s
        .bytes()
        .map(|b| json_escape_of(b).map_or(1, str::len))
        .sum();
    body as u64 + 2
}

impl JsonFormatter {
    /// `col`'s lane view: every typed lane, and text with nothing to
    /// escape.
    fn lane<'a>(&self, col: &'a ColumnVec) -> Lane<'a> {
        Lane::of(col, json_dirty, true)
    }
}

impl CellWriter for JsonFormatter {
    #[inline]
    fn null(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"null");
    }

    #[inline]
    fn long(&self, out: &mut Vec<u8>, x: i64) {
        fmtfast::write_i64(out, x);
    }

    /// The shortest round-trip rendering, with no forced trailing `.0`;
    /// JSON has no number for NaN or the infinities.
    #[inline]
    fn double(&self, out: &mut Vec<u8>, x: f64) {
        if x.is_finite() {
            fmtfast::write_f64_shortest(out, x);
        } else {
            self.null(out);
        }
    }

    #[inline]
    fn decimal(&self, out: &mut Vec<u8>, unscaled: i64, scale: u8) {
        fmtfast::write_decimal(out, unscaled, scale);
    }

    #[inline]
    fn date(&self, out: &mut Vec<u8>, d: Date) {
        fmtfast::write_quoted_date(out, d, b'"');
    }

    #[inline]
    fn timestamp(&self, out: &mut Vec<u8>, t: i64) {
        quoted(out, b'"', |out| fmtfast::write_timestamp(out, t));
    }

    #[inline]
    fn bool(&self, out: &mut Vec<u8>, b: bool) {
        fmtfast::write_bool(out, b);
    }

    #[inline]
    fn text(&self, out: &mut Vec<u8>, s: &str) {
        json_string_into(out, s);
    }

    #[inline]
    fn clean_text(&self, out: &mut Vec<u8>, t: &TextColumn, r: usize) {
        quoted(out, b'"', |out| copy_cell(out, t, r));
    }
}

/// Each column's key exactly as JSON writes it before the value —
/// `"name":` for the first column and `,"name":` after it, escaped — laid
/// out once per package on the stack, so a cell's key is one copy: a
/// window cut to the key ([`fmtfast::write_span`]), which the padding
/// past the laid-out keys gives every key. The keys of columns past [`Lane::MAX`], or past
/// [`CAP`](Self::CAP) bytes, are written cell by cell.
struct JsonKeys {
    bytes: [u8; Self::CAP + fmtfast::WINDOW],
    ends: [u16; Lane::MAX],
    laid_out: usize,
}

impl JsonKeys {
    const CAP: usize = 2048;

    fn new(names: &[String]) -> Self {
        let mut keys = Self {
            bytes: [0; Self::CAP + fmtfast::WINDOW],
            ends: [0; Lane::MAX],
            laid_out: 0,
        };
        let mut end = 0;
        for (i, name) in names.iter().take(Lane::MAX).enumerate() {
            let start = end;
            end += usize::from(i > 0) + json_string_len(name) as usize + 1;
            let Some(key) = keys.bytes[..Self::CAP].get_mut(start..end) else {
                break;
            };
            let mut at = 0;
            let mut put = |bytes: &[u8]| {
                key[at..at + bytes.len()].copy_from_slice(bytes);
                at += bytes.len();
            };
            if i > 0 {
                put(b",");
            }
            put(b"\"");
            escape_runs(name, json_escape_of, |run| put(run.as_bytes()));
            put(b"\":");
            keys.ends[i] = end as u16;
            keys.laid_out = i + 1;
        }
        keys
    }

    /// Append column `i`'s key; false when it is not laid out.
    #[inline]
    fn write(&self, out: &mut Vec<u8>, i: usize) -> bool {
        if i >= self.laid_out {
            return false;
        }
        let start = if i == 0 {
            0
        } else {
            usize::from(self.ends[i - 1])
        };
        fmtfast::write_span(out, &self.bytes, start, usize::from(self.ends[i]));
        true
    }
}

impl Formatter for JsonFormatter {
    fn row(&self, out: &mut Vec<u8>, meta: &TableMeta, values: &[Value]) {
        out.push(b'{');
        for (i, (col, v)) in meta.columns.iter().zip(values).enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json_string_into(out, col);
            out.push(b':');
            self.cell(out, ValueRef::from(v));
        }
        out.extend_from_slice(b"}\n");
    }

    fn rows_columnar(&self, out: &mut Vec<u8>, meta: &TableMeta, batch: &ColumnBatch) {
        let lanes = Lanes::new(batch, |col| self.lane(col));
        let keys = JsonKeys::new(&meta.columns);
        for r in 0..batch.rows() {
            out.push(b'{');
            for (i, col) in meta.columns.iter().take(lanes.len()).enumerate() {
                if !keys.write(out, i) {
                    if i > 0 {
                        out.push(b',');
                    }
                    json_string_into(out, col);
                    out.push(b':');
                }
                lanes.get(i).write(self, out, r);
            }
            out.extend_from_slice(b"}\n");
        }
    }

    fn max_row_bytes(&self, meta: &TableMeta, profiles: &[StaticProfile]) -> Option<u64> {
        if meta.columns.len() != profiles.len() {
            return None;
        }
        let mut total = 3; // '{' plus "}\n"
        for (i, (col, p)) in meta.columns.iter().zip(profiles).enumerate() {
            if i > 0 {
                total += 1; // comma
            }
            total += json_string_len(col) + 1; // escaped key plus colon
            let w = u64::from(p.width.bound()?);
            let k = p.kinds;
            let mut b = 0u64;
            if k.contains(KindSet::NULL) {
                b = b.max(4); // "null"
            }
            if k.contains(KindSet::BOOL) {
                b = b.max(5); // "false"
            }
            if k.contains(KindSet::LONG) || k.contains(KindSet::DECIMAL) {
                b = b.max(w);
            }
            if k.contains(KindSet::DOUBLE) {
                // Shortest round-trip rendering never exceeds the display
                // rendering; non-finite doubles become "null".
                b = b.max(w.max(4));
            }
            if k.contains(KindSet::DATE) || k.contains(KindSet::TIMESTAMP) {
                b = b.max(w + 2); // quoted
            }
            if k.contains(KindSet::TEXT) {
                // Worst case: every byte a control character (`\u00XX`).
                b = b.max(6 * w + 2);
            }
            total += b;
        }
        Some(total)
    }

    fn name(&self) -> &'static str {
        "JSON"
    }
}

/// XML rows: `<table><row><col>value</col>…</row>…</table>`.
pub struct XmlFormatter;

/// What XML writes for byte `b` in element content, if `b` must be
/// escaped.
#[inline]
fn xml_escape_of(b: u8) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    }
}

fn xml_escape_into(out: &mut Vec<u8>, s: &str) {
    escape_into(out, s, xml_escape_of);
}

/// XML's clean-byte predicate, negated: the bytes [`xml_escape_of`]
/// escapes.
#[inline]
fn xml_dirty(b: u8) -> bool {
    (b == b'&') | (b == b'<') | (b == b'>')
}

/// XML cells of one column: `<col>…</col>`, or `<col null="true"/>`.
struct XmlElement<'a>(&'a str);

impl XmlElement<'_> {
    /// `write`'s rendering as the element's content.
    #[inline]
    fn element(&self, out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
        out.push(b'<');
        out.extend_from_slice(self.0.as_bytes());
        out.push(b'>');
        write(out);
        out.extend_from_slice(b"</");
        out.extend_from_slice(self.0.as_bytes());
        out.push(b'>');
    }
}

/// Typed renderings never contain markup characters, so only text takes
/// the escaping walk.
impl CellWriter for XmlElement<'_> {
    #[inline]
    fn null(&self, out: &mut Vec<u8>) {
        out.push(b'<');
        out.extend_from_slice(self.0.as_bytes());
        out.extend_from_slice(b" null=\"true\"/>");
    }

    #[inline]
    fn long(&self, out: &mut Vec<u8>, x: i64) {
        self.element(out, |out| fmtfast::write_i64(out, x));
    }

    #[inline]
    fn double(&self, out: &mut Vec<u8>, x: f64) {
        self.element(out, |out| fmtfast::write_f64_display(out, x));
    }

    #[inline]
    fn decimal(&self, out: &mut Vec<u8>, unscaled: i64, scale: u8) {
        self.element(out, |out| fmtfast::write_decimal(out, unscaled, scale));
    }

    #[inline]
    fn date(&self, out: &mut Vec<u8>, d: Date) {
        self.element(out, |out| fmtfast::write_date(out, d));
    }

    #[inline]
    fn timestamp(&self, out: &mut Vec<u8>, t: i64) {
        self.element(out, |out| fmtfast::write_timestamp(out, t));
    }

    #[inline]
    fn bool(&self, out: &mut Vec<u8>, b: bool) {
        self.element(out, |out| fmtfast::write_bool(out, b));
    }

    #[inline]
    fn text(&self, out: &mut Vec<u8>, s: &str) {
        self.element(out, |out| xml_escape_into(out, s));
    }

    #[inline]
    fn clean_text(&self, out: &mut Vec<u8>, t: &TextColumn, r: usize) {
        self.element(out, |out| copy_cell(out, t, r));
    }
}

impl XmlFormatter {
    /// `col`'s lane view: every typed lane, and text with no markup
    /// character.
    fn lane<'a>(&self, col: &'a ColumnVec) -> Lane<'a> {
        Lane::of(col, xml_dirty, true)
    }
}

impl Formatter for XmlFormatter {
    fn begin(&self, out: &mut Vec<u8>, meta: &TableMeta) {
        out.push(b'<');
        out.extend_from_slice(meta.name.as_bytes());
        out.extend_from_slice(b">\n");
    }

    fn row(&self, out: &mut Vec<u8>, meta: &TableMeta, values: &[Value]) {
        out.extend_from_slice(b"  <row>");
        for (col, v) in meta.columns.iter().zip(values) {
            XmlElement(col).cell(out, ValueRef::from(v));
        }
        out.extend_from_slice(b"</row>\n");
    }

    fn rows_columnar(&self, out: &mut Vec<u8>, meta: &TableMeta, batch: &ColumnBatch) {
        let lanes = Lanes::new(batch, |col| self.lane(col));
        for r in 0..batch.rows() {
            out.extend_from_slice(b"  <row>");
            for (i, col) in meta.columns.iter().take(lanes.len()).enumerate() {
                lanes.get(i).write(&XmlElement(col), out, r);
            }
            out.extend_from_slice(b"</row>\n");
        }
    }

    fn end(&self, out: &mut Vec<u8>, meta: &TableMeta) {
        out.extend_from_slice(b"</");
        out.extend_from_slice(meta.name.as_bytes());
        out.extend_from_slice(b">\n");
    }

    fn max_row_bytes(&self, meta: &TableMeta, profiles: &[StaticProfile]) -> Option<u64> {
        if meta.columns.len() != profiles.len() {
            return None;
        }
        let mut total = 14; // "  <row>" plus "</row>\n"
        for (col, p) in meta.columns.iter().zip(profiles) {
            let name = col.len() as u64;
            let w = u64::from(p.width.bound()?);
            let content = if p.kinds.contains(KindSet::TEXT) {
                5 * w // worst case: every byte expands to "&amp;"
            } else {
                w
            };
            let open_close = 2 * name + 5 + content; // <c>…</c>
            let null_case = if p.kinds.contains(KindSet::NULL) {
                name + 15 // <c null="true"/>
            } else {
                0
            };
            total += open_close.max(null_case);
        }
        Some(total)
    }

    fn name(&self) -> &'static str {
        "XML"
    }
}

/// SQL `INSERT` statements, loadable through any SQL interface (the
/// paper: "data can be loaded into the target database either using SQL
/// statements generated by PDGF or a bulk load option"). One `INSERT` per
/// row.
#[derive(Default)]
pub struct SqlFormatter;

impl SqlFormatter {
    /// One `INSERT` per row.
    pub fn new() -> Self {
        Self
    }

    /// `v` as a SQL literal, byte for byte as an `INSERT` writes the cell:
    /// numbers bare, text, dates and timestamps in single quotes with `'`
    /// doubled, `TRUE`/`FALSE`, and `NULL` for NULL, NaN and the
    /// infinities. The one SQL literal writer, which the CDC change files
    /// share.
    pub fn literal(&self, out: &mut Vec<u8>, v: ValueRef<'_>) {
        self.cell(out, v);
    }
}

/// What SQL writes for byte `b` inside a string literal, if `b` must be
/// escaped.
#[inline]
fn sql_escape_of(b: u8) -> Option<&'static str> {
    (b == b'\'').then_some("''")
}

/// SQL's clean-byte predicate, negated: the byte [`sql_escape_of`]
/// escapes.
#[inline]
fn sql_dirty(b: u8) -> bool {
    b == b'\''
}

impl CellWriter for SqlFormatter {
    #[inline]
    fn null(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"NULL");
    }

    #[inline]
    fn long(&self, out: &mut Vec<u8>, x: i64) {
        fmtfast::write_i64(out, x);
    }

    /// SQL has no literal for NaN or the infinities.
    #[inline]
    fn double(&self, out: &mut Vec<u8>, x: f64) {
        if x.is_finite() {
            fmtfast::write_f64_display(out, x);
        } else {
            self.null(out);
        }
    }

    #[inline]
    fn decimal(&self, out: &mut Vec<u8>, unscaled: i64, scale: u8) {
        fmtfast::write_decimal(out, unscaled, scale);
    }

    #[inline]
    fn date(&self, out: &mut Vec<u8>, d: Date) {
        fmtfast::write_quoted_date(out, d, b'\'');
    }

    #[inline]
    fn timestamp(&self, out: &mut Vec<u8>, t: i64) {
        quoted(out, b'\'', |out| fmtfast::write_timestamp(out, t));
    }

    #[inline]
    fn bool(&self, out: &mut Vec<u8>, b: bool) {
        out.extend_from_slice(if b { b"TRUE" } else { b"FALSE" });
    }

    #[inline]
    fn text(&self, out: &mut Vec<u8>, s: &str) {
        quoted(out, b'\'', |out| escape_into(out, s, sql_escape_of));
    }

    #[inline]
    fn clean_text(&self, out: &mut Vec<u8>, t: &TextColumn, r: usize) {
        quoted(out, b'\'', |out| copy_cell(out, t, r));
    }
}

impl SqlFormatter {
    /// `col`'s lane view: every typed lane, and text with no quote.
    fn lane<'a>(&self, col: &'a ColumnVec) -> Lane<'a> {
        Lane::of(col, sql_dirty, true)
    }

    /// The exact `INSERT INTO name (cols, …) VALUES (` prefix.
    fn insert_prefix(&self, out: &mut Vec<u8>, meta: &TableMeta) {
        out.extend_from_slice(b"INSERT INTO ");
        out.extend_from_slice(meta.name.as_bytes());
        out.extend_from_slice(b" (");
        for (i, c) in meta.columns.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            out.extend_from_slice(c.as_bytes());
        }
        out.extend_from_slice(b") VALUES (");
    }
}

impl Formatter for SqlFormatter {
    fn row(&self, out: &mut Vec<u8>, meta: &TableMeta, values: &[Value]) {
        self.insert_prefix(out, meta);
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            self.cell(out, ValueRef::from(v));
        }
        out.extend_from_slice(b");\n");
    }

    fn rows_columnar(&self, out: &mut Vec<u8>, meta: &TableMeta, batch: &ColumnBatch) {
        let lanes = Lanes::new(batch, |col| self.lane(col));
        for r in 0..batch.rows() {
            self.insert_prefix(out, meta);
            for i in 0..lanes.len() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                lanes.get(i).write(self, out, r);
            }
            out.extend_from_slice(b");\n");
        }
    }

    fn max_row_bytes(&self, meta: &TableMeta, profiles: &[StaticProfile]) -> Option<u64> {
        if meta.columns.len() != profiles.len() {
            return None;
        }
        let n = meta.columns.len() as u64;
        let names: u64 = meta.columns.iter().map(|c| c.len() as u64).sum();
        // "INSERT INTO t (a, b) VALUES (" … ");\n" — everything around the
        // values is exact.
        let mut total = 12
            + meta.name.len() as u64
            + 2
            + names
            + 2 * n.saturating_sub(1)
            + 10
            + 2 * n.saturating_sub(1)
            + 3;
        for p in profiles {
            let w = u64::from(p.width.bound()?);
            let k = p.kinds;
            let mut b = 0u64;
            if k.contains(KindSet::NULL) {
                b = b.max(4); // "NULL"
            }
            if k.contains(KindSet::BOOL) {
                b = b.max(5); // "FALSE"
            }
            if k.contains(KindSet::LONG) || k.contains(KindSet::DECIMAL) {
                b = b.max(w);
            }
            if k.contains(KindSet::DOUBLE) {
                b = b.max(w.max(4)); // non-finite doubles become "NULL"
            }
            if k.contains(KindSet::DATE) || k.contains(KindSet::TIMESTAMP) {
                b = b.max(w + 2); // quoted
            }
            if k.contains(KindSet::TEXT) {
                b = b.max(2 * w + 2); // every quote doubled, plus quotes
            }
            total += b;
        }
        Some(total)
    }

    fn name(&self) -> &'static str {
        "SQL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_schema::value::Date;
    use pdgf_schema::ColumnData;

    fn meta() -> TableMeta {
        TableMeta::new("t", &["a", "b", "c"])
    }

    fn run(f: &dyn Formatter, rows: &[Vec<Value>]) -> String {
        let m = meta();
        let mut out = Vec::new();
        f.begin(&mut out, &m);
        for r in rows {
            f.row(&mut out, &m, r);
        }
        f.end(&mut out, &m);
        String::from_utf8(out).expect("formatter output is UTF-8")
    }

    fn sample_row() -> Vec<Value> {
        vec![Value::Long(7), Value::text("hi"), Value::Null]
    }

    #[test]
    fn csv_basic_row() {
        let out = run(&CsvFormatter::new(), &[sample_row()]);
        assert_eq!(out, "7,hi,\n");
    }

    #[test]
    fn csv_header_and_pipe_delimiter() {
        let out = run(
            &CsvFormatter::new().with_delimiter('|').with_header(),
            &[sample_row()],
        );
        assert_eq!(out, "a|b|c\n7|hi|\n");
    }

    #[test]
    fn csv_quotes_special_fields() {
        let row = vec![
            Value::text("has,comma"),
            Value::text("has\"quote"),
            Value::text("has\nnewline"),
        ];
        let out = run(&CsvFormatter::new(), &[row]);
        assert_eq!(out, "\"has,comma\",\"has\"\"quote\",\"has\nnewline\"\n");
    }

    #[test]
    fn csv_formats_typed_values() {
        let row = vec![
            Value::decimal(12345, 2),
            Value::Date(Date::from_ymd(1995, 6, 17)),
            Value::Double(2.5),
        ];
        let out = run(&CsvFormatter::new(), &[row]);
        assert_eq!(out, "123.45,1995-06-17,2.5\n");
    }

    #[test]
    fn csv_quotes_typed_values_containing_the_delimiter() {
        // A '-' delimiter collides with date and sign renderings; the
        // affected typed fields must be quoted like any other field.
        // (Longs are emitted bare by contract, like Null — only fields
        // that historically went through the quoting scan still do.)
        let row = vec![
            Value::Date(Date::from_ymd(1995, 6, 17)),
            Value::decimal(-425, 1),
            Value::Long(7),
        ];
        let out = run(&CsvFormatter::new().with_delimiter('-'), &[row]);
        assert_eq!(out, "\"1995-06-17\"-\"-42.5\"-7\n");
    }

    #[test]
    fn json_rows_are_parseable_objects() {
        let out = run(&JsonFormatter, &[sample_row()]);
        assert_eq!(out, "{\"a\":7,\"b\":\"hi\",\"c\":null}\n");
    }

    #[test]
    fn json_escapes_strings() {
        let row = vec![
            Value::text("say \"hi\"\n"),
            Value::text("tab\there"),
            Value::Bool(true),
        ];
        let out = run(&JsonFormatter, &[row]);
        assert_eq!(
            out,
            "{\"a\":\"say \\\"hi\\\"\\n\",\"b\":\"tab\\there\",\"c\":true}\n"
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let row = vec![
            Value::text("a\u{1}b\u{1f}c"),
            Value::Long(1),
            Value::Long(2),
        ];
        let out = run(&JsonFormatter, &[row]);
        assert!(out.contains("a\\u0001b\\u001fc"), "{out}");
    }

    #[test]
    fn json_nonfinite_doubles_become_null() {
        let row = vec![
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(1.5),
        ];
        let out = run(&JsonFormatter, &[row]);
        assert_eq!(out, "{\"a\":null,\"b\":null,\"c\":1.5}\n");
    }

    #[test]
    fn json_quotes_dates_and_timestamps() {
        let row = vec![
            Value::Date(Date::from_ymd(1995, 6, 17)),
            Value::Timestamp(86_400 + 3_723),
            Value::Null,
        ];
        let out = run(&JsonFormatter, &[row]);
        assert_eq!(
            out,
            "{\"a\":\"1995-06-17\",\"b\":\"1970-01-02 01:02:03\",\"c\":null}\n"
        );
    }

    #[test]
    fn xml_wraps_table_and_rows() {
        let out = run(&XmlFormatter, &[sample_row()]);
        assert_eq!(
            out,
            "<t>\n  <row><a>7</a><b>hi</b><c null=\"true\"/></row>\n</t>\n"
        );
    }

    #[test]
    fn xml_escapes_content() {
        let row = vec![Value::text("a<b&c"), Value::Long(1), Value::Long(2)];
        let out = run(&XmlFormatter, &[row]);
        assert!(out.contains("<a>a&lt;b&amp;c</a>"), "{out}");
    }

    #[test]
    fn sql_insert_statements() {
        let out = run(&SqlFormatter::new(), &[sample_row()]);
        assert_eq!(out, "INSERT INTO t (a, b, c) VALUES (7, 'hi', NULL);\n");
    }

    #[test]
    fn sql_escapes_quotes_and_types() {
        let row = vec![
            Value::text("O'Brien"),
            Value::Date(Date::from_ymd(2014, 11, 30)),
            Value::decimal(-50, 2),
        ];
        let out = run(&SqlFormatter::new(), &[row]);
        assert_eq!(
            out,
            "INSERT INTO t (a, b, c) VALUES ('O''Brien', '2014-11-30', -0.50);\n"
        );
    }

    fn formatters() -> Vec<Box<dyn Formatter>> {
        vec![
            Box::new(CsvFormatter::new()),
            Box::new(CsvFormatter::new().with_delimiter('-')),
            Box::new(JsonFormatter),
            Box::new(XmlFormatter),
            Box::new(SqlFormatter::new()),
        ]
    }

    fn adversarial_rows() -> Vec<Vec<Value>> {
        vec![
            sample_row(),
            vec![
                Value::decimal(-50, 2),
                Value::text("O'Brien \"x\"<&>\nnew"),
                Value::Bool(true),
            ],
            vec![
                Value::Double(2.5),
                Value::Date(Date::from_ymd(1995, 6, 17)),
                Value::Timestamp(86_400 + 3_723),
            ],
        ]
    }

    #[test]
    fn columnar_transpose_matches_row_path_on_cells_batches() {
        let m = meta();
        let rows = adversarial_rows();
        let mut batch = pdgf_schema::ColumnBatch::new();
        batch.begin(3, rows.len());
        for (c, col) in batch.columns_mut().iter_mut().enumerate() {
            *col = ColumnData::Cells(rows.iter().map(|r| r[c].clone()).collect()).into();
        }
        for f in formatters() {
            let mut by_row = Vec::new();
            for r in &rows {
                f.row(&mut by_row, &m, r);
            }
            let mut by_col = Vec::new();
            f.rows_columnar(&mut by_col, &m, &batch);
            assert_eq!(
                String::from_utf8_lossy(&by_row),
                String::from_utf8_lossy(&by_col),
                "{} columnar transpose diverged",
                f.name()
            );
        }
    }

    #[test]
    fn columnar_transpose_matches_row_path_on_typed_batches() {
        let m = meta();
        let mut batch = pdgf_schema::ColumnBatch::new();
        batch.begin(3, 3);
        batch.columns_mut()[0].longs_mut().extend([1, -2, 3]);
        {
            let t = batch.columns_mut()[1].text_mut();
            for s in ["plain", "with,comma 'q' \"d\"", "<markup&>"] {
                t.push_str(s);
            }
        }
        batch.columns_mut()[2]
            .decimals_mut(2)
            .extend([0, -12345, 99]);
        let rows: Vec<Vec<Value>> = (0..3)
            .map(|i| batch.columns().iter().map(|c| c.value(i)).collect())
            .collect();
        for f in formatters() {
            let mut by_row = Vec::new();
            for r in &rows {
                f.row(&mut by_row, &m, r);
            }
            let mut by_col = Vec::new();
            f.rows_columnar(&mut by_col, &m, &batch);
            assert_eq!(
                String::from_utf8_lossy(&by_row),
                String::from_utf8_lossy(&by_col),
                "{} typed transpose diverged",
                f.name()
            );
        }
    }

    /// A masked NULL in a typed lane or in a clean text arena (where CSV
    /// copies cells straight from the arena) renders as the row path's NULL.
    #[test]
    fn columnar_masked_nulls_match_row_path() {
        let m = meta();
        let mut batch = pdgf_schema::ColumnBatch::new();
        batch.begin(3, 3);
        let [longs, texts, decimals] = batch.columns_mut() else {
            unreachable!()
        };
        longs.longs_mut().push(1);
        longs.push_null();
        longs.longs_tail().unwrap().push(3);
        texts.push_null();
        texts.text_tail().unwrap().push_str("plain");
        texts.push_null();
        decimals.push_null();
        decimals.push_null();
        decimals.push_null();
        let rows: Vec<Vec<Value>> = (0..3)
            .map(|i| batch.columns().iter().map(|c| c.value(i)).collect())
            .collect();
        assert!(rows[0][1].is_null() && rows[1][0].is_null() && rows[2][2].is_null());
        for f in formatters() {
            let mut by_row = Vec::new();
            for r in &rows {
                f.row(&mut by_row, &m, r);
            }
            let mut by_col = Vec::new();
            f.rows_columnar(&mut by_col, &m, &batch);
            assert_eq!(
                String::from_utf8_lossy(&by_row),
                String::from_utf8_lossy(&by_col),
                "{} masked NULLs diverged",
                f.name()
            );
        }
    }

    /// `columns` columns × `rows` rows cycling through every lane kind:
    /// typed lanes (a double lane with NaN, ±inf and −0.0), clean text and
    /// text holding a byte every format escapes, a promoted column, and a
    /// NULL mask on every fourth column (from column 1).
    fn lane_batch(rows: usize, columns: usize) -> pdgf_schema::ColumnBatch {
        const DIRTY: [&str; 11] = [
            "a,b", "q\"t", "d.e-f", "é¦→", "plain", "n\nl", "t\tab|p", "b\\s", "c\u{1}x", "&<>",
            "O'K",
        ];
        const DOUBLES: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let mut batch = pdgf_schema::ColumnBatch::new();
        batch.begin(columns, rows);
        for (c, col) in batch.columns_mut().iter_mut().enumerate() {
            for r in 0..rows {
                let i = (r * 7 + c * 13) as i64;
                if c % 4 == 1 && (r + c) % 3 == 0 {
                    col.push_null();
                    continue;
                }
                match c % 9 {
                    0 => col.longs_tail().unwrap().push(i - 50),
                    1 => col.doubles_tail().unwrap().push(match DOUBLES.get(r % 6) {
                        Some(&x) => x,
                        None => i as f64 / 4.0 - 3.0,
                    }),
                    2 => col.decimals_tail(2).unwrap().push(-i * 31),
                    3 => col.dates_tail().unwrap().push(9_000 + i as i32),
                    4 => col.timestamps_tail().unwrap().push(86_400 * i - 3_723),
                    5 => col.bools_tail().unwrap().push(i % 2 == 0),
                    6 => col.text_tail().unwrap().push_str(&format!("w{i} x")),
                    7 => col
                        .text_tail()
                        .unwrap()
                        .push_str(DIRTY[(r + c) % DIRTY.len()]),
                    _ if r % 2 == 0 => match col.longs_tail() {
                        Some(v) => v.push(i),
                        None => col.promote().push(Value::Long(i)),
                    },
                    _ => col.promote().push(Value::text("c")),
                }
            }
        }
        batch
    }

    /// Every format over `lane_batch`, CSV with an ASCII, a non-ASCII, and
    /// a typed-colliding (`.`, `-`, `:`) delimiter.
    fn lane_formatters() -> Vec<Box<dyn Formatter>> {
        let mut all: Vec<Box<dyn Formatter>> = [',', '|', '\t', '.', '-', ':', '¦']
            .into_iter()
            .map(|d| Box::new(CsvFormatter::new().with_delimiter(d)) as Box<dyn Formatter>)
            .collect();
        all.push(Box::new(JsonFormatter));
        all.push(Box::new(XmlFormatter));
        all.push(Box::new(SqlFormatter::new()));
        all
    }

    /// The lane views write exactly what a `row` loop writes, for every
    /// format: masked NULLs in typed and text lanes, non-finite doubles, a
    /// promoted column, columns past the 64 views, a column name JSON
    /// escapes, and an empty batch.
    #[test]
    fn lane_views_match_row_path() {
        for (rows, columns) in [(12, 70), (3, 9), (0, 70)] {
            let batch = lane_batch(rows, columns);
            let names: Vec<String> = (0..columns)
                .map(|c| match c {
                    3 => "c\"3\\".to_owned(),
                    c => format!("c{c}"),
                })
                .collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let m = TableMeta::new("t", &names);
            for f in lane_formatters() {
                let mut by_row = Vec::new();
                for r in 0..rows {
                    let row: Vec<Value> = batch.columns().iter().map(|c| c.value(r)).collect();
                    f.row(&mut by_row, &m, &row);
                }
                let mut by_col = Vec::new();
                f.rows_columnar(&mut by_col, &m, &batch);
                assert_eq!(
                    String::from_utf8_lossy(&by_row),
                    String::from_utf8_lossy(&by_col),
                    "{} {rows}x{columns}",
                    f.name()
                );
            }
        }
    }

    fn lane_kind(lane: Lane<'_>) -> &'static str {
        match lane {
            Lane::Long(_) => "long",
            Lane::Double(_) => "double",
            Lane::Decimal(..) => "decimal",
            Lane::Date(_) => "date",
            Lane::Timestamp(_) => "timestamp",
            Lane::Bool(_) => "bool",
            Lane::Text(_) => "text",
            Lane::Generic(_) => "generic",
        }
    }

    /// Each format resolves every kind of view it can, so each writer ran
    /// in `lane_views_match_row_path`: masked, promoted and dirty columns
    /// are generic, clean text and unmasked typed lanes are not.
    #[test]
    fn every_format_resolves_typed_and_clean_text_views() {
        let batch = lane_batch(12, 19);
        let kinds = |resolve: &dyn Fn(&ColumnVec) -> Lane<'_>| -> String {
            let kinds: Vec<&str> = batch
                .columns()
                .iter()
                .map(|c| lane_kind(resolve(c)))
                .collect();
            kinds.join(" ")
        };
        let all = "long generic decimal date timestamp generic text generic generic \
                   generic double decimal date generic bool text generic generic long";
        let all: String = all.split_whitespace().collect::<Vec<_>>().join(" ");
        let csv = CsvFormatter::new();
        assert_eq!(kinds(&|c| csv.lane(c)), all, "CSV ,");
        assert_eq!(kinds(&|c| JsonFormatter.lane(c)), all, "JSON");
        assert_eq!(kinds(&|c| XmlFormatter.lane(c)), all, "XML");
        assert_eq!(kinds(&|c| SqlFormatter.lane(c)), all, "SQL");
        // A '-' delimiter can occur in every typed rendering but a bare long's.
        let dash = CsvFormatter::new().with_delimiter('-');
        assert_eq!(
            kinds(&|c| dash.lane(c)),
            "long generic generic generic generic generic text generic generic \
             generic generic generic generic generic generic text generic generic long"
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" "),
            "CSV -"
        );
    }

    /// Each format's clean-byte predicate marks exactly the bytes its
    /// escaper rewrites, over all 256 byte values, and each format's
    /// resolver finds a one-byte arena clean exactly when its escaper
    /// leaves that byte alone. Escapers rewrite only ASCII, so multi-byte
    /// UTF-8 is clean — except for CSV with a non-ASCII delimiter, whose
    /// resolver treats every non-ASCII byte as a possible delimiter.
    #[test]
    fn clean_byte_predicates_match_escapers() {
        fn clean(lane: impl Fn(&ColumnVec) -> Lane<'_>, s: &str) -> bool {
            let mut col = ColumnVec::default();
            col.text_mut().push_str(s);
            matches!(lane(&col), Lane::Text(_))
        }
        fn rewrites(escape: impl Fn(&mut Vec<u8>, &str), s: &str) -> bool {
            let mut out = Vec::new();
            escape(&mut out, s);
            out != s.as_bytes()
        }
        let csvs = [',', '|', '\t', '¦'].map(|d| CsvFormatter::new().with_delimiter(d));
        for b in 0..=255u8 {
            assert_eq!(json_dirty(b), json_escape_of(b).is_some(), "JSON {b:#x}");
            assert_eq!(xml_dirty(b), xml_escape_of(b).is_some(), "XML {b:#x}");
            assert_eq!(sql_dirty(b), sql_escape_of(b).is_some(), "SQL {b:#x}");
            if !b.is_ascii() {
                continue; // no one-byte string holds it
            }
            let s = char::from(b).to_string();
            let json = rewrites(json_escape_into, &s);
            assert_eq!(clean(|c| JsonFormatter.lane(c), &s), !json, "JSON {b:#x}");
            let xml = rewrites(xml_escape_into, &s);
            assert_eq!(clean(|c| XmlFormatter.lane(c), &s), !xml, "XML {b:#x}");
            let sql = rewrites(|out, s| escape_into(out, s, sql_escape_of), &s);
            assert_eq!(clean(|c| SqlFormatter.lane(c), &s), !sql, "SQL {b:#x}");
            for csv in &csvs {
                let quoted = rewrites(|out, s| csv.push_field(out, s), &s);
                assert_eq!(clean(|c| csv.lane(c), &s), !quoted, "CSV {b:#x}");
            }
        }
        for s in ["é", "§", "中", "🙂"] {
            assert!(clean(|c| JsonFormatter.lane(c), s), "{s}");
            assert!(clean(|c| XmlFormatter.lane(c), s), "{s}");
            assert!(clean(|c| SqlFormatter.lane(c), s), "{s}");
            assert!(clean(|c| csvs[0].lane(c), s), "{s}");
            assert!(!clean(|c| csvs[3].lane(c), s), "{s}");
        }
        // The arena scan finds a dirty byte anywhere, across blocks too.
        for at in [0, 255, 256, 700] {
            let mut arena = vec![b'a'; 701];
            assert!(is_clean(&arena, json_dirty));
            arena[at] = b'"';
            assert!(!is_clean(&arena, json_dirty), "dirty byte at {at}");
        }
    }

    #[test]
    fn sql_formatter_literals_escape_text() {
        let literal = |v: Value| {
            let mut out = Vec::new();
            SqlFormatter.literal(&mut out, ValueRef::from(&v));
            String::from_utf8(out).unwrap()
        };
        assert_eq!(literal(Value::Null), "NULL");
        assert_eq!(literal(Value::Bool(true)), "TRUE");
        assert_eq!(literal(Value::Long(-3)), "-3");
        assert_eq!(literal(Value::decimal(150, 2)), "1.50");
        assert_eq!(literal(Value::text("O'Brien")), "'O''Brien'");
        assert_eq!(literal(Value::Double(0.5)), "0.5");
        for d in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(literal(Value::Double(d)), "NULL", "{d}");
        }
    }

    #[test]
    fn sql_nonfinite_doubles_become_null_on_both_paths() {
        let m = TableMeta::new("t", &["x"]);
        let mut batch = pdgf_schema::ColumnBatch::new();
        batch.begin(1, 4);
        batch.columns_mut()[0].doubles_tail().unwrap().extend([
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0,
        ]);
        let want =
            "INSERT INTO t (x) VALUES (NULL);\n".repeat(3) + "INSERT INTO t (x) VALUES (2.0);\n";
        let mut by_row = Vec::new();
        for r in 0..4 {
            SqlFormatter.row(&mut by_row, &m, &[batch.columns()[0].value(r)]);
        }
        assert_eq!(String::from_utf8_lossy(&by_row), want);
        let mut by_col = Vec::new();
        SqlFormatter.rows_columnar(&mut by_col, &m, &batch);
        assert_eq!(String::from_utf8_lossy(&by_col), want);
    }

    /// JSON `rows_columnar` copies each key from the package's laid-out
    /// keys, escaped or not, and writes a key that does not fit the buffer
    /// (the first, or a later one) cell by cell; all must match the `row`
    /// path byte for byte.
    #[test]
    fn json_columnar_keys_match_row_path_with_and_without_escaping() {
        let mut batch = pdgf_schema::ColumnBatch::new();
        batch.begin(3, 2);
        batch.columns_mut()[0].longs_mut().extend([1, -2]);
        {
            let t = batch.columns_mut()[1].text_mut();
            t.push_str("plain");
            t.push_str("q\"b\\s\n\u{1}é中🙂");
        }
        batch.columns_mut()[2] = ColumnData::Cells(vec![Value::Null, Value::text("\t")]).into();
        let rows: Vec<Vec<Value>> = (0..2)
            .map(|i| batch.columns().iter().map(|c| c.value(i)).collect())
            .collect();
        let long = "k\"".repeat(JsonKeys::CAP / 2);
        for m in [
            TableMeta::new("t", &["id", "name", "note"]),
            TableMeta::new("t", &["id", "na\"me", "no\\te\u{1f}"]),
            TableMeta::new("t", &[&long, "name", "note"]),
            TableMeta::new("t", &["id", &long, "note"]),
        ] {
            let mut by_row = Vec::new();
            for r in &rows {
                JsonFormatter.row(&mut by_row, &m, r);
            }
            let mut by_col = Vec::new();
            JsonFormatter.rows_columnar(&mut by_col, &m, &batch);
            assert_eq!(
                String::from_utf8_lossy(&by_row),
                String::from_utf8_lossy(&by_col),
                "keys {:?}",
                m.columns
            );
        }
    }

    /// Clean text cells copy as 32-byte windows where the arena has 32
    /// bytes past a cell's start and plainly elsewhere: a one-row package,
    /// whose cells all sit at their arenas' ends, and a five-row one, where
    /// the early cells take windows, render as the row path does in every
    /// format, with cells of 0, 1, 31, 32 and 33 bytes (multi-byte UTF-8
    /// included) and a JSON key longer than one window.
    #[test]
    fn text_cells_with_and_without_a_window_match_row_path() {
        let cells = [
            String::new(),
            "x".to_owned(),
            "w".repeat(31),
            "é".repeat(16),
            "w".repeat(33),
        ];
        let m = TableMeta::new(
            "t",
            &["a", "a_key_name_past_one_32_byte_window", "c", "d", "e"],
        );
        for rows in [1, 5] {
            let mut batch = pdgf_schema::ColumnBatch::new();
            batch.begin(5, rows);
            for (c, col) in batch.columns_mut().iter_mut().enumerate() {
                let t = col.text_mut();
                for r in 0..rows {
                    t.push_str(&cells[(r + c) % cells.len()]);
                }
            }
            assert!(matches!(
                JsonFormatter.lane(&batch.columns()[4]),
                Lane::Text(_)
            ));
            for f in lane_formatters() {
                let mut by_row = Vec::new();
                for r in 0..rows {
                    let row: Vec<Value> = batch.columns().iter().map(|c| c.value(r)).collect();
                    f.row(&mut by_row, &m, &row);
                }
                let mut by_col = Vec::new();
                f.rows_columnar(&mut by_col, &m, &batch);
                assert_eq!(
                    String::from_utf8_lossy(&by_row),
                    String::from_utf8_lossy(&by_col),
                    "{} {rows} rows",
                    f.name()
                );
            }
        }
    }

    /// The char-by-char escapers the byte-run walk replaced, kept as
    /// reference models.
    mod char_models {
        use super::super::push_char;

        pub fn json(s: &str) -> Vec<u8> {
            let mut out = Vec::new();
            for c in s.chars() {
                match c {
                    '"' => out.extend_from_slice(b"\\\""),
                    '\\' => out.extend_from_slice(b"\\\\"),
                    '\n' => out.extend_from_slice(b"\\n"),
                    '\r' => out.extend_from_slice(b"\\r"),
                    '\t' => out.extend_from_slice(b"\\t"),
                    c if (c as u32) < 0x20 => {
                        const HEX: &[u8; 16] = b"0123456789abcdef";
                        let n = c as usize;
                        out.extend_from_slice(b"\\u00");
                        out.push(HEX[(n >> 4) & 0xF]);
                        out.push(HEX[n & 0xF]);
                    }
                    c => push_char(&mut out, c),
                }
            }
            out
        }

        pub fn xml(s: &str) -> Vec<u8> {
            let mut out = Vec::new();
            for c in s.chars() {
                match c {
                    '&' => out.extend_from_slice(b"&amp;"),
                    '<' => out.extend_from_slice(b"&lt;"),
                    '>' => out.extend_from_slice(b"&gt;"),
                    c => push_char(&mut out, c),
                }
            }
            out
        }

        pub fn csv_field(delimiter: char, text: &str) -> Vec<u8> {
            let mut out = Vec::new();
            if text
                .chars()
                .any(|c| c == delimiter || c == '"' || c == '\n' || c == '\r')
            {
                out.push(b'"');
                for c in text.chars() {
                    if c == '"' {
                        out.push(b'"');
                    }
                    push_char(&mut out, c);
                }
                out.push(b'"');
            } else {
                out.extend_from_slice(text.as_bytes());
            }
            out
        }
    }

    fn assert_escapers_match_char_models(s: &str) {
        let mut json = Vec::new();
        json_escape_into(&mut json, s);
        assert_eq!(json, char_models::json(s), "JSON {s:?}");
        assert_eq!(json_escape(s).as_bytes(), json, "JSON String entry {s:?}");
        assert_eq!(
            json_string_len(s),
            json.len() as u64 + 2,
            "JSON length {s:?}"
        );
        let mut xml = Vec::new();
        xml_escape_into(&mut xml, s);
        assert_eq!(xml, char_models::xml(s), "XML {s:?}");
        for d in [',', '|', '§'] {
            let mut csv = Vec::new();
            CsvFormatter::new()
                .with_delimiter(d)
                .push_field(&mut csv, s);
            assert_eq!(csv, char_models::csv_field(d, s), "CSV {d:?} {s:?}");
        }
    }

    /// Pieces random strings are mixed from: every byte some format
    /// escapes, multi-byte UTF-8 of each width, and plain runs.
    const PIECES: [&str; 20] = [
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "&",
        "<",
        ">",
        ",",
        "|",
        "'",
        "é",
        "§",
        "中",
        "🙂",
        "a",
        "plain text",
    ];

    #[test]
    fn escapers_match_char_models_on_every_ascii_byte() {
        for b in 0u8..0x80 {
            let c = char::from(b);
            assert_escapers_match_char_models(&c.to_string());
            assert_escapers_match_char_models(&format!("é{c}中{c}🙂"));
        }
    }

    #[test]
    fn escapers_match_char_models_on_edge_strings() {
        for s in [
            "",
            "\"",
            "\"\\\n\r\t\u{1}\u{1f}",
            "&<>&<>",
            "\"\"\"\"",
            "é\"",
            "\\中",
            "🙂\n🙂",
            "\u{1}é\u{1f}",
            "§,§",
        ] {
            assert_escapers_match_char_models(s);
        }
    }

    proptest::proptest! {
        #[test]
        fn escapers_match_char_models_on_mixed_strings(
            picks in proptest::collection::vec(0usize..PIECES.len(), 0..24)
        ) {
            let s: String = picks.iter().map(|&i| PIECES[i]).collect();
            assert_escapers_match_char_models(&s);
        }
    }

    #[test]
    fn formatters_report_names() {
        assert_eq!(CsvFormatter::new().name(), "CSV");
        assert_eq!(JsonFormatter.name(), "JSON");
        assert_eq!(XmlFormatter.name(), "XML");
        assert_eq!(SqlFormatter::new().name(), "SQL");
    }

    mod row_bounds {
        use super::*;
        use pdgf_schema::absint::{
            self, null_wrap, Cardinality, Draws, KindSet, StaticProfile, Width,
        };

        /// Profiles and matching adversarial sample rows: every value stays
        /// within its column's profile, chosen to stress the escaping worst
        /// cases (quotes, control characters, markup, the delimiter).
        fn columns() -> (TableMeta, Vec<StaticProfile>, Vec<Vec<Value>>) {
            let meta = TableMeta::new("bounds", &["k", "txt", "price", "d", "flag", "opt"]);
            let text_profile = StaticProfile {
                kinds: KindSet::TEXT,
                interval: None,
                width: Width::AtMost(8),
                ascii: true,
                null_prob: 0.0,
                cardinality: Cardinality::Unbounded,
                draws: Draws::exact(1),
            };
            let profiles = vec![
                absint::long_profile(-9999, 9999),
                text_profile,
                absint::decimal_profile(-99999, 99999, 2),
                absint::date_profile(8000, 11000, pdgf_schema::model::DateFormat::Iso),
                absint::random_bool_profile(0.5),
                null_wrap(0.5, absint::long_profile(0, 500), 100),
            ];
            let rows = vec![
                vec![
                    Value::Long(-9999),
                    Value::text("\"\"\"\"\"\"\"\""), // 8 quotes: CSV doubles all
                    Value::decimal(-99999, 2),
                    Value::Date(pdgf_schema::value::Date(11000)),
                    Value::Bool(false),
                    Value::Null,
                ],
                vec![
                    Value::Long(0),
                    Value::text("\u{1}\u{2}\u{3}\u{1f}\u{1}\u{2}\u{3}\u{1f}"), // JSON \u00XX
                    Value::decimal(0, 2),
                    Value::Date(pdgf_schema::value::Date(8000)),
                    Value::Bool(true),
                    Value::Long(500),
                ],
                vec![
                    Value::Long(42),
                    Value::text("&&&&&&&&"), // XML &amp; expansion
                    Value::decimal(12345, 2),
                    Value::Date(pdgf_schema::value::Date(9500)),
                    Value::Bool(true),
                    Value::Long(7),
                ],
                vec![
                    Value::Long(7),
                    Value::text("''''''''"), // SQL quote doubling
                    Value::decimal(-1, 2),
                    Value::Date(pdgf_schema::value::Date(10000)),
                    Value::Bool(false),
                    Value::Null,
                ],
            ];
            (meta, profiles, rows)
        }

        fn assert_bound_holds(f: &dyn Formatter) {
            let (meta, profiles, rows) = columns();
            let bound = f
                .max_row_bytes(&meta, &profiles)
                .expect("all widths bounded");
            for row in &rows {
                let mut out = Vec::new();
                f.row(&mut out, &meta, row);
                assert!(
                    out.len() as u64 <= bound,
                    "{}: row rendered {} bytes, bound {bound}: {:?}",
                    f.name(),
                    out.len(),
                    String::from_utf8_lossy(&out)
                );
            }
        }

        #[test]
        fn csv_bound_holds() {
            assert_bound_holds(&CsvFormatter::new());
            assert_bound_holds(&CsvFormatter::new().with_delimiter('|'));
            // '-' appears in typed renderings, forcing the quoting scan.
            assert_bound_holds(&CsvFormatter::new().with_delimiter('-'));
        }

        #[test]
        fn json_bound_holds() {
            assert_bound_holds(&JsonFormatter);
        }

        #[test]
        fn xml_bound_holds() {
            assert_bound_holds(&XmlFormatter);
        }

        #[test]
        fn sql_bound_holds() {
            assert_bound_holds(&SqlFormatter::new());
        }

        /// JSON and SQL write a non-finite double as `null`/`NULL`, which
        /// can be wider than every finite rendering the profile allows.
        #[test]
        fn nonfinite_double_bound_holds() {
            let meta = TableMeta::new("t", &["x"]);
            let p = StaticProfile {
                kinds: KindSet::DOUBLE,
                width: Width::AtMost(3),
                ..StaticProfile::unknown()
            };
            for f in [&JsonFormatter as &dyn Formatter, &SqlFormatter] {
                let bound = f.max_row_bytes(&meta, std::slice::from_ref(&p)).unwrap();
                for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5] {
                    let mut out = Vec::new();
                    f.row(&mut out, &meta, &[Value::Double(x)]);
                    assert!(out.len() as u64 <= bound, "{} {x}: {bound}", f.name());
                }
            }
        }

        #[test]
        fn unbounded_width_yields_no_bound() {
            let meta = TableMeta::new("t", &["a"]);
            let p = StaticProfile::unknown();
            let p = std::slice::from_ref(&p);
            assert_eq!(CsvFormatter::new().max_row_bytes(&meta, p), None);
            assert_eq!(JsonFormatter.max_row_bytes(&meta, p), None);
            assert_eq!(XmlFormatter.max_row_bytes(&meta, p), None);
            assert_eq!(SqlFormatter::new().max_row_bytes(&meta, p), None);
        }

        #[test]
        fn mismatched_profile_count_yields_no_bound() {
            let meta = TableMeta::new("t", &["a", "b"]);
            let p = absint::long_profile(0, 9);
            assert_eq!(CsvFormatter::new().max_row_bytes(&meta, &[p]), None);
        }

        #[test]
        fn bounds_are_reasonably_tight_for_plain_numbers() {
            // A single bounded long: "9999\n" is 5 bytes; the CSV bound
            // must not balloon past the worst rendering.
            let meta = TableMeta::new("t", &["a"]);
            let p = absint::long_profile(0, 9999);
            let bound = CsvFormatter::new().max_row_bytes(&meta, &[p]).unwrap();
            assert_eq!(bound, 5);
        }
    }
}
