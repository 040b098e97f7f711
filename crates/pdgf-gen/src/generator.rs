//! The [`Generator`] trait, the per-column and per-cell generation
//! contexts, and the lane adapters that run one kernel per generator kind
//! on both paths.

use std::fmt::Write as _;
use std::ops::Range;

use pdgf_prng::{mix64_pair, PdgfDefaultRandom, PdgfRng};
use pdgf_schema::{ColumnVec, Date, Value};

use crate::runtime::SchemaRuntime;

/// Buffers a caller threads through consecutive calls, so after warm-up
/// they reuse capacity: one per worker on the batch path, one per reader
/// of [`SchemaRuntime::row_into_with_scratch`].
#[derive(Debug, Default)]
pub struct GenScratch {
    /// Scratch for rebuilding a text arena whose cells a truncating
    /// wrapper cuts.
    pub(crate) text: String,
    /// One column per column of the table last read by
    /// `row_into_with_scratch`, each holding one cell: a column keeps its
    /// lane and capacity from row to row.
    pub(crate) cells: Vec<ColumnVec>,
}

/// Per-column generation context for the batch path.
///
/// A point read re-derives the full seeding hierarchy per cell
/// (`field_seed = mix(update_seed(table, column, update), row)`); the
/// columnar path hoists the `(table, column, update)` prefix once per
/// column so each cell pays exactly one [`mix64_pair`]. The seeds — and
/// therefore every RNG draw — are bit-identical to a point read's.
pub struct ColumnCtx<'rt> {
    /// The schema runtime (reference generators recompute parents).
    pub runtime: &'rt SchemaRuntime,
    /// The hoisted `(table, column, update)` seed prefix.
    pub update_seed: u64,
    /// Proven per-cell rendered-width bound from the column's
    /// [`StaticProfile`](pdgf_schema::absint::StaticProfile), when finite
    /// — used by text kernels to pre-size the arena.
    pub width_hint: Option<u32>,
}

impl ColumnCtx<'_> {
    /// Bytes to pre-reserve in a text arena for `rows` cells, capped so a
    /// large proven bound cannot balloon a single allocation.
    #[inline]
    pub fn arena_hint(&self, rows: usize) -> usize {
        const MAX_ARENA_PREALLOC: usize = 16 << 20;
        self.width_hint
            .map_or(0, |w| (w as usize).saturating_mul(rows))
            .min(MAX_ARENA_PREALLOC)
    }

    /// The field seed of `row` — identical to
    /// `SeedTree::field_seed` for the same coordinate.
    #[inline]
    pub fn cell_seed(&self, row: u64) -> u64 {
        mix64_pair(self.update_seed, row)
    }

    /// A freshly seeded per-cell RNG, ready for the generator's draw
    /// sequence.
    #[inline]
    pub fn cell_rng(&self, row: u64) -> PdgfDefaultRandom {
        PdgfDefaultRandom::seed_from(self.cell_seed(row))
    }
}

/// Where one cell goes.
pub enum CellOut<'a> {
    /// Appended to a column, which is never cleared.
    Column(&'a mut ColumnVec),
    /// Appended to a text buffer as the cell's `Display` text, a NULL as
    /// nothing: one part of a concatenation.
    Text(&'a mut String),
}

impl CellOut<'_> {
    /// Append the text cell that `build` writes: into the column's arena,
    /// or onto the buffer.
    pub(crate) fn text(self, build: impl FnOnce(&mut String)) {
        match self {
            CellOut::Column(out) => match out.text_tail() {
                Some(arena) => {
                    build(arena.buf());
                    arena.seal();
                }
                None => {
                    // audit:allow(columnar-cell-alloc) a column whose cells
                    // changed kind holds boxed cells already
                    let mut text = String::new();
                    build(&mut text);
                    out.promote().push(Value::text(text));
                }
            },
            CellOut::Text(buf) => build(buf),
        }
    }

    /// Append `cell` of `lane`: to the column's lane, or onto the buffer as
    /// its `Display` text.
    fn typed<L: Lane>(self, lane: L, cell: L::Cell) {
        match self {
            CellOut::Column(out) => match lane.tail(out) {
                Some(cells) => cells.push(cell),
                None => out.promote().push(lane.value(cell)),
            },
            CellOut::Text(buf) => {
                write!(buf, "{}", lane.value(cell)).expect("writing to a String cannot fail")
            }
        }
    }
}

/// One cell, handed to [`Generator::emit_cell`]: a point read, or a cell
/// a wrapper, concatenation or reference emits on the batch path.
pub struct Cell<'a, 'rt> {
    /// The cell's RNG: seeded by the caller and advanced past the
    /// caller's own draws (a wrapper's NULL or branch draw).
    pub rng: &'a mut PdgfDefaultRandom,
    /// Row number within the (table, update) pair.
    pub row: u64,
    /// The schema runtime, used by reference generators to recompute
    /// other tables' cells.
    pub runtime: &'rt SchemaRuntime,
    /// Where the cell goes.
    pub out: CellOut<'a>,
}

/// A field value generator.
///
/// Implementations must be pure given their configuration, the cell's
/// seed and its row (the update epoch reaches a generator only through
/// the seed), and are shared across worker threads, so `&self` methods
/// plus `Send + Sync` are required.
pub trait Generator: Send + Sync {
    /// Human-readable name for diagnostics and latency reports.
    fn name(&self) -> &'static str;

    /// This generator as an [`IdGenerator`](crate::basic::IdGenerator),
    /// when it is one. Id cells are a pure row→key map with no RNG
    /// draws, so the reference kernel recomputes parent keys through
    /// [`key_for`](crate::basic::IdGenerator::key_for) into a typed Long
    /// column without seeding a parent RNG per cell. The default (`None`)
    /// keeps every other generator on the generic recompute path.
    fn as_id(&self) -> Option<&crate::basic::IdGenerator> {
        None
    }

    /// The single fixed [`Value`] this generator emits for every cell,
    /// when it is context-free (ignores the row and draws nothing).
    /// Wrapper kernels use this to specialize: the probability generator
    /// collapses all-static text branches into one draw plus one arena
    /// append per cell. The default claims nothing, which is always sound.
    fn static_value(&self) -> Option<&Value> {
        None
    }

    /// Produce the cells for `rows` of one column into `out`, replacing
    /// what it held.
    ///
    /// There is no default: a generator without a batch path does not
    /// compile. A generator written as a `Kernel` gets this and
    /// [`emit_cell`](Self::emit_cell) from its one `Kernel::emit`, so the
    /// per-cell RNG stream of both paths is the same by construction.
    fn fill_column(
        &self,
        ctx: &ColumnCtx<'_>,
        rows: Range<u64>,
        out: &mut ColumnVec,
        scratch: &mut GenScratch,
    );

    /// Emit exactly one cell of this generator from `cell.rng` onto
    /// `cell.out`: how a point read runs a column, and how, on the batch
    /// path, a wrapper runs its inner generator, a concatenation its parts
    /// and a reference its parent.
    fn emit_cell(&self, cell: Cell<'_, '_>);
}

/// A generator written as one kernel. `emit` hands its whole per-cell
/// draw sequence to exactly one [`Emit`] method; [`kernel_paths`] turns
/// that into `fill_column` (on a [`Fill`]) and `emit_cell` (on a
/// [`Cell`]), so there is no second body to keep in step.
pub(crate) trait Kernel {
    /// Run this generator's cell kernel into `out`.
    fn emit<E: Emit>(&self, out: E);
}

/// `fill_column` and `emit_cell` of a [`Kernel`] generator: both are its
/// `emit`, on a column of rows or on one cell.
macro_rules! kernel_paths {
    () => {
        fn fill_column(
            &self,
            ctx: &$crate::generator::ColumnCtx<'_>,
            rows: std::ops::Range<u64>,
            out: &mut pdgf_schema::ColumnVec,
            _scratch: &mut $crate::generator::GenScratch,
        ) {
            $crate::generator::Kernel::emit(self, $crate::generator::Fill { ctx, rows, out })
        }

        #[inline]
        fn emit_cell(&self, cell: $crate::generator::Cell<'_, '_>) {
            $crate::generator::Kernel::emit(self, cell)
        }
    };
}
pub(crate) use kernel_paths;

/// A typed lane of [`ColumnVec`]: the storage a column of cells fills,
/// and the [`Value`] one cell becomes in a promoted column or as a part of
/// a concatenation.
pub(crate) trait Lane: Copy {
    /// The unboxed cell.
    type Cell;
    /// One cell as a `Value`.
    fn value(self, cell: Self::Cell) -> Value;
    /// The column re-typed to this lane, cleared.
    fn storage(self, out: &mut ColumnVec) -> &mut Vec<Self::Cell>;
    /// The column's storage in this lane to append one cell to, or `None`
    /// when the column holds a cell of another kind.
    fn tail(self, out: &mut ColumnVec) -> Option<&mut Vec<Self::Cell>>;
}

macro_rules! lane {
    ($(#[$doc:meta])* $name:ident, $cell:ty, $value:expr, $storage:ident, $tail:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        pub(crate) struct $name;

        impl Lane for $name {
            type Cell = $cell;
            #[inline]
            fn value(self, cell: $cell) -> Value {
                $value(cell)
            }
            #[inline]
            fn storage(self, out: &mut ColumnVec) -> &mut Vec<$cell> {
                out.$storage()
            }
            #[inline]
            fn tail(self, out: &mut ColumnVec) -> Option<&mut Vec<$cell>> {
                out.$tail()
            }
        }
    };
}

lane!(/// `Value::Long` cells.
    Longs, i64, Value::Long, longs_mut, longs_tail);
lane!(/// `Value::Double` cells.
    Doubles, f64, Value::Double, doubles_mut, doubles_tail);
lane!(/// `Value::Date` cells, as days since the epoch.
    Dates, i32, |d| Value::Date(Date(d)), dates_mut, dates_tail);
lane!(/// `Value::Timestamp` cells.
    Timestamps, i64, Value::Timestamp, timestamps_mut, timestamps_tail);
lane!(/// `Value::Bool` cells.
    Bools, bool, Value::Bool, bools_mut, bools_tail);

/// `Value::Decimal` cells at one scale, as unscaled integers.
#[derive(Clone, Copy)]
pub(crate) struct Decimals(pub u8);

impl Lane for Decimals {
    type Cell = i64;
    #[inline]
    fn value(self, unscaled: i64) -> Value {
        Value::Decimal {
            unscaled,
            scale: self.0,
        }
    }
    #[inline]
    fn storage(self, out: &mut ColumnVec) -> &mut Vec<i64> {
        out.decimals_mut(self.0)
    }
    #[inline]
    fn tail(self, out: &mut ColumnVec) -> Option<&mut Vec<i64>> {
        out.decimals_tail(self.0)
    }
}

/// Where a [`Kernel`]'s cells go. A kernel calls one method with a
/// closure over `(cell RNG, row)` that is its whole draw sequence: the
/// batch path ([`Fill`]) runs it once per row into typed storage or the
/// text arena, and a [`Cell`] once onto a column or a concatenation.
pub(crate) trait Emit {
    /// Typed cells.
    fn typed<L: Lane>(self, lane: L, cell: impl FnMut(&mut PdgfDefaultRandom, u64) -> L::Cell);

    /// Text cells, each appended to `buf` (never cleared by the kernel).
    fn text(self, cell: impl FnMut(&mut PdgfDefaultRandom, u64, &mut String));

    /// NULL cells: masked placeholders in a column, nothing in a
    /// concatenation.
    fn null(self);

    /// Cells of another generator: `pick` makes the wrapper's own draws
    /// and names the generator whose cell the same RNG goes on to draw,
    /// or `None` for a NULL.
    fn delegate<'g>(
        self,
        pick: impl FnMut(&mut PdgfDefaultRandom, u64) -> Option<&'g dyn Generator>,
    );
}

/// The batch path: `rows` of one column into `out`, each cell drawing
/// from [`ColumnCtx::cell_rng`].
pub(crate) struct Fill<'a, 'rt> {
    /// The column's hoisted context.
    pub ctx: &'a ColumnCtx<'rt>,
    /// Rows to fill.
    pub rows: Range<u64>,
    /// The column's storage.
    pub out: &'a mut ColumnVec,
}

impl Fill<'_, '_> {
    fn count(&self) -> usize {
        self.rows.end.saturating_sub(self.rows.start) as usize
    }
}

impl Emit for Fill<'_, '_> {
    #[inline]
    fn typed<L: Lane>(self, lane: L, mut cell: impl FnMut(&mut PdgfDefaultRandom, u64) -> L::Cell) {
        let count = self.count();
        let ctx = self.ctx;
        let v = lane.storage(self.out);
        v.reserve(count);
        v.extend(self.rows.map(|row| cell(&mut ctx.cell_rng(row), row)));
    }

    #[inline]
    fn text(self, mut cell: impl FnMut(&mut PdgfDefaultRandom, u64, &mut String)) {
        let count = self.count();
        let tc = self.out.text_mut();
        tc.reserve(count, self.ctx.arena_hint(count));
        for row in self.rows {
            cell(&mut self.ctx.cell_rng(row), row, tc.buf());
            tc.seal();
        }
    }

    fn null(self) {
        self.out.clear();
        for _ in self.rows {
            self.out.push_null();
        }
    }

    fn delegate<'g>(
        self,
        mut pick: impl FnMut(&mut PdgfDefaultRandom, u64) -> Option<&'g dyn Generator>,
    ) {
        let Fill { ctx, rows, out } = self;
        out.clear();
        for row in rows {
            let rng = &mut ctx.cell_rng(row);
            match pick(rng, row) {
                Some(g) => g.emit_cell(Cell {
                    rng,
                    row,
                    runtime: ctx.runtime,
                    out: CellOut::Column(&mut *out),
                }),
                None => out.push_null(),
            }
        }
    }
}

/// One cell onto a column or a concatenation, from an RNG the caller has
/// already advanced.
impl Emit for Cell<'_, '_> {
    #[inline]
    fn typed<L: Lane>(self, lane: L, mut cell: impl FnMut(&mut PdgfDefaultRandom, u64) -> L::Cell) {
        let value = cell(self.rng, self.row);
        self.out.typed(lane, value);
    }

    #[inline]
    fn text(self, mut cell: impl FnMut(&mut PdgfDefaultRandom, u64, &mut String)) {
        let Cell { rng, row, out, .. } = self;
        out.text(|buf| cell(rng, row, buf));
    }

    #[inline]
    fn null(self) {
        if let CellOut::Column(out) = self.out {
            out.push_null();
        }
    }

    #[inline]
    fn delegate<'g>(
        self,
        mut pick: impl FnMut(&mut PdgfDefaultRandom, u64) -> Option<&'g dyn Generator>,
    ) {
        match pick(self.rng, self.row) {
            Some(g) => g.emit_cell(self),
            None => self.null(),
        }
    }
}

/// One cell of `g` at `row`, from an RNG seeded with `seed`, through
/// [`Generator::emit_cell`] into a one-cell column: a point read without
/// a schema around it.
#[cfg(test)]
pub(crate) fn point_cell(g: &dyn Generator, seed: u64, row: u64) -> Value {
    let runtime = SchemaRuntime::empty_for_tests();
    let mut out = ColumnVec::default();
    g.emit_cell(Cell {
        rng: &mut PdgfDefaultRandom::seed_from(seed),
        row,
        runtime: &runtime,
        out: CellOut::Column(&mut out),
    });
    out.value(0)
}
