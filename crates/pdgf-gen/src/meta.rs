//! Meta generators — generators that wrap other generators.
//!
//! "These can be … meta generators, which can concatenate results from
//! other generators or execute different generators based on certain
//! conditions. The concept of meta generators enables a functional
//! definition of complex values and dependencies using simple building
//! blocks." (Section 2.)
//!
//! The paper's Figure 7 measures exactly this composition: a NULL wrapper
//! adds its own base cost, and executing the sub-generator adds the
//! sub-generator's base cost plus its value computation.

use pdgf_prng::{PdgfDefaultRandom, PdgfRng};
use pdgf_schema::expr::{BinOp, Expr, Func};
use pdgf_schema::{ColumnVec, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use crate::generator::{
    kernel_paths, Cell, CellOut, ColumnCtx, Doubles, Emit, GenScratch, Generator, Kernel, Longs,
};
use crate::runtime::SchemaRuntime;

/// Emits NULL with a configured probability, otherwise delegates to the
/// wrapped generator. Listing 1 wraps `l_comment`'s Markov generator in a
/// `gen_NullGenerator`.
pub struct NullGenerator {
    probability: f64,
    inner: Arc<dyn Generator>,
}

impl NullGenerator {
    /// NULL with probability `probability`, else `inner`'s value.
    pub fn new(probability: f64, inner: Arc<dyn Generator>) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        Self { probability, inner }
    }
}

impl Kernel for NullGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        // One draw decides NULL-ness even at probability 0 or 1, keeping
        // the wrapped generator's stream position independent of the
        // configured probability.
        out.delegate(|rng, _| {
            if rng.next_f64() < self.probability {
                None
            } else {
                Some(self.inner.as_ref())
            }
        })
    }
}

impl Generator for NullGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "NullGenerator"
    }
}

/// Concatenates the textual renderings of its parts — the paper's
/// "value that consists of a formula that references 2 double values and
/// concatenates it with a long" is a `SequentialGenerator` of three parts.
pub struct SequentialGenerator {
    parts: Vec<Arc<dyn Generator>>,
    separator: String,
}

impl SequentialGenerator {
    /// Concatenate `parts` joined by `separator`.
    pub fn new(parts: Vec<Arc<dyn Generator>>, separator: String) -> Self {
        assert!(!parts.is_empty(), "no parts");
        Self { parts, separator }
    }

    /// One cell, appended to `buf`: each part's cell as its `Display`
    /// text, joined by the separator.
    fn concat(
        &self,
        rng: &mut PdgfDefaultRandom,
        row: u64,
        runtime: &SchemaRuntime,
        buf: &mut String,
    ) {
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                buf.push_str(&self.separator);
            }
            part.emit_cell(Cell {
                rng: &mut *rng,
                row,
                runtime,
                out: CellOut::Text(&mut *buf),
            });
        }
    }
}

impl Generator for SequentialGenerator {
    fn fill_column(
        &self,
        ctx: &ColumnCtx<'_>,
        rows: Range<u64>,
        out: &mut ColumnVec,
        _scratch: &mut GenScratch,
    ) {
        let count = rows.end.saturating_sub(rows.start) as usize;
        let arena = out.text_mut();
        arena.reserve(count, ctx.arena_hint(count));
        for row in rows {
            self.concat(&mut ctx.cell_rng(row), row, ctx.runtime, arena.buf());
            arena.seal();
        }
    }

    fn emit_cell(&self, cell: Cell<'_, '_>) {
        let Cell {
            rng,
            row,
            runtime,
            out,
        } = cell;
        out.text(|buf| self.concat(rng, row, runtime, buf));
    }

    fn name(&self) -> &'static str {
        "SequentialGenerator"
    }
}

/// Executes one of several generators chosen by probability ("execute
/// different generators based on certain conditions").
pub struct ProbabilityGenerator {
    /// Cumulative upper bounds paired with branch generators.
    cumulative: Vec<(f64, Arc<dyn Generator>)>,
    /// The same table as fixed strings, when every branch is a static
    /// text value — the dbgen idiom of `l_returnflag` (R/A/N). A cell is
    /// then one draw plus one fixed string, with no branch dispatch.
    texts: Option<Vec<(f64, Arc<str>)>>,
}

impl ProbabilityGenerator {
    /// Branches as `(probability, generator)`; probabilities must sum to
    /// approximately 1.
    pub fn new(branches: Vec<(f64, Arc<dyn Generator>)>) -> Self {
        assert!(!branches.is_empty(), "no branches");
        let total: f64 = branches.iter().map(|(p, _)| *p).sum();
        assert!((total - 1.0).abs() < 1e-6, "probabilities sum to {total}");
        let mut acc = 0.0;
        let cumulative: Vec<_> = branches
            .into_iter()
            .map(|(p, g)| {
                acc += p;
                (acc, g)
            })
            .collect();
        let texts = cumulative
            .iter()
            .map(|(bound, g)| match g.static_value() {
                Some(Value::Text(s)) => Some((*bound, Arc::clone(s))),
                _ => None,
            })
            .collect();
        Self { cumulative, texts }
    }
}

/// The branch a selector draw lands in: the first whose cumulative bound
/// exceeds the draw, with the last catching the residual mass
/// floating-point rounding leaves below 1.
#[inline]
fn pick<T>(branches: &[(f64, T)], draw: f64) -> &T {
    let i = branches
        .iter()
        .position(|(bound, _)| draw < *bound)
        .unwrap_or(branches.len() - 1);
    &branches[i].1
}

impl Kernel for ProbabilityGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        match &self.texts {
            Some(texts) => {
                out.text(|rng, _, buf| buf.push_str(pick::<Arc<str>>(texts, rng.next_f64())))
            }
            None => out.delegate(|rng, _| Some(pick(&self.cumulative, rng.next_f64()).as_ref())),
        }
    }
}

impl Generator for ProbabilityGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "ProbabilityGenerator"
    }
}

/// One step of a compiled formula over a value stack.
#[derive(Clone, Copy)]
enum Op {
    /// Push a literal or a property resolved at construction.
    Const(f64),
    /// Push the row number.
    Row,
    /// Negate the top of the stack.
    Neg,
    /// Apply a one-argument function to the top of the stack.
    Call1(Func),
    /// Pop two operands, push `x op y`; `swapped` when `y` was pushed
    /// first.
    Bin(BinOp, bool),
    /// Pop two arguments, push `f(x, y)`; `swapped` as for `Bin`.
    Call2(Func, bool),
}

/// A formula compiled once, at construction: postfix [`Op`]s with every
/// `${NAME}` but `${ROW}` resolved. Of two operands the deeper is pushed
/// first (Sethi–Ullman order), so the stack depth grows with the
/// logarithm of the operand count and a fixed [`Tape::STACK`]-slot array
/// holds any formula: evaluation never allocates.
struct Tape(Vec<Op>);

impl Tape {
    /// Stack slots; a formula needing more has over 2^31 operands.
    const STACK: usize = 32;

    /// `None` when `expr` names an unknown property: `Expr::eval` then
    /// fails for every row, so every cell is NaN.
    fn compile(expr: &Expr, props: &BTreeMap<String, f64>) -> Option<Self> {
        let mut ops = Vec::new();
        let depth = Self::push(expr, props, &mut ops)?;
        assert!(depth <= Self::STACK, "formula needs {depth} stack slots");
        Some(Tape(ops))
    }

    /// Append `e`'s ops; returns the stack depth they need.
    fn push(e: &Expr, props: &BTreeMap<String, f64>, ops: &mut Vec<Op>) -> Option<usize> {
        let op = match e {
            Expr::Num(v) => Op::Const(*v),
            Expr::Prop(name) if name == "ROW" => Op::Row,
            Expr::Prop(name) => Op::Const(*props.get(name)?),
            Expr::Neg(a) => {
                let depth = Self::push(a, props, ops)?;
                ops.push(Op::Neg);
                return Some(depth);
            }
            Expr::Bin(op, a, b) => return Self::pair(a, b, props, ops, |s| Op::Bin(*op, s)),
            Expr::Call(f, args) => match args.as_slice() {
                [a] => {
                    let depth = Self::push(a, props, ops)?;
                    ops.push(Op::Call1(*f));
                    return Some(depth);
                }
                [a, b] => return Self::pair(a, b, props, ops, |s| Op::Call2(*f, s)),
                // The parser rejects any other arity.
                _ => return None,
            },
        };
        ops.push(op);
        Some(1)
    }

    /// Both operands of a two-operand step, the deeper one first.
    fn pair(
        a: &Expr,
        b: &Expr,
        props: &BTreeMap<String, f64>,
        ops: &mut Vec<Op>,
        op: impl FnOnce(bool) -> Op,
    ) -> Option<usize> {
        let (mut first, mut second) = (Vec::new(), Vec::new());
        let da = Self::push(a, props, &mut first)?;
        let db = Self::push(b, props, &mut second)?;
        let swapped = db > da;
        if swapped {
            std::mem::swap(&mut first, &mut second);
        }
        ops.append(&mut first);
        ops.append(&mut second);
        ops.push(op(swapped));
        Some(da.max(db) + usize::from(da == db))
    }

    /// The formula at `row`. The same f64 operations as `Expr::eval`, so
    /// results are bit-equal; division or remainder by zero is NaN, as
    /// `eval`'s error is.
    #[inline]
    fn eval(&self, row: u64, stack: &mut [f64; Self::STACK]) -> f64 {
        let mut top = 0;
        for op in &self.0 {
            let v = match *op {
                Op::Const(v) => v,
                Op::Row => row as f64,
                Op::Neg => {
                    top -= 1;
                    -stack[top]
                }
                Op::Call1(f) => {
                    top -= 1;
                    call(f, stack[top], f64::NAN)
                }
                Op::Bin(op, swapped) => {
                    top -= 2;
                    let (x, y) = operands(stack, top, swapped);
                    match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div | BinOp::Rem if y == 0.0 => return f64::NAN,
                        BinOp::Div => x / y,
                        BinOp::Rem => rem(x, y),
                    }
                }
                Op::Call2(f, swapped) => {
                    top -= 2;
                    let (x, y) = operands(stack, top, swapped);
                    call(f, x, y)
                }
            };
            stack[top] = v;
            top += 1;
        }
        stack[0]
    }
}

/// The two operands at `stack[top..top + 2]`, in source order.
#[inline]
fn operands(stack: &[f64], top: usize, swapped: bool) -> (f64, f64) {
    if swapped {
        (stack[top + 1], stack[top])
    } else {
        (stack[top], stack[top + 1])
    }
}

/// `x % y`, bit for bit, without libm's `fmod` when both operands are
/// integers no wider than 2^53 (so exact as `i64`, and `y != 0`). The
/// integer remainder takes the dividend's sign as `fmod` does; only a zero
/// needs that sign put back.
#[inline]
fn rem(x: f64, y: f64) -> f64 {
    const EXACT: f64 = (1u64 << 53) as f64;
    let exact = |v: f64| v.abs() <= EXACT && (v as i64) as f64 == v;
    if y != 0.0 && exact(x) && exact(y) {
        let r = ((x as i64) % (y as i64)) as f64;
        if r == 0.0 {
            0.0f64.copysign(x)
        } else {
            r
        }
    } else {
        x % y
    }
}

/// `f(x, y)`; one-argument functions ignore `y`.
#[inline]
fn call(f: Func, x: f64, y: f64) -> f64 {
    match f {
        Func::Ceil => x.ceil(),
        Func::Floor => x.floor(),
        Func::Round => x.round(),
        Func::Sqrt => x.sqrt(),
        Func::Log => x.ln(),
        Func::Pow => x.powf(y),
        Func::Min => x.min(y),
        Func::Max => x.max(y),
    }
}

/// Evaluates an arithmetic formula over the project properties and the
/// current row number (bound to `${ROW}`, zero-based).
pub struct FormulaGenerator {
    tape: Option<Tape>,
    as_long: bool,
}

impl FormulaGenerator {
    /// Formula generator over pre-resolved properties.
    pub fn new(expr: &Expr, props: &BTreeMap<String, f64>, as_long: bool) -> Self {
        Self {
            tape: Tape::compile(expr, props),
            as_long,
        }
    }
}

impl Kernel for FormulaGenerator {
    #[inline]
    fn emit<E: Emit>(&self, out: E) {
        let mut stack = [0.0; Tape::STACK];
        let mut eval = |row| match &self.tape {
            Some(tape) => tape.eval(row, &mut stack),
            None => f64::NAN,
        };
        if self.as_long {
            out.typed(Longs, |_, row| eval(row).round() as i64)
        } else {
            out.typed(Doubles, |_, row| eval(row))
        }
    }
}

impl Generator for FormulaGenerator {
    kernel_paths!();

    fn name(&self) -> &'static str {
        "FormulaGenerator"
    }
}

/// Truncates text values to a column's declared character width — the
/// behaviour of dbgen-style generators writing into CHAR/VARCHAR columns.
/// Applied automatically by the schema runtime to text-typed fields.
/// Truncation never splits a word unless the first word alone overflows.
pub struct TruncateGenerator {
    inner: Arc<dyn Generator>,
    max_chars: usize,
}

impl TruncateGenerator {
    /// Cap `inner`'s text output at `max_chars` characters.
    pub fn new(inner: Arc<dyn Generator>, max_chars: usize) -> Self {
        assert!(max_chars > 0, "zero-width text column");
        Self { inner, max_chars }
    }

    /// Byte length of `s` to keep, or `None` when it fits. A cut landing
    /// exactly on a word end keeps the whole head; otherwise the cut
    /// retreats to the last word boundary, unless the first word alone
    /// overflows (then it is a hard cut). Bytes bound chars, so a cell
    /// whose bytes fit skips the char walk, and so does a cell whose first
    /// `max_chars + 1` bytes are ASCII: there the cut is at byte
    /// `max_chars`.
    fn keep_len(&self, s: &str) -> Option<usize> {
        if s.len() <= self.max_chars {
            return None;
        }
        let (byte_idx, next_char) = if s.as_bytes()[..=self.max_chars].is_ascii() {
            (self.max_chars, char::from(s.as_bytes()[self.max_chars]))
        } else {
            s.char_indices().nth(self.max_chars)?
        };
        if next_char == ' ' {
            return Some(byte_idx);
        }
        match s[..byte_idx].rfind(' ') {
            Some(pos) if pos > 0 => Some(pos),
            _ => Some(byte_idx),
        }
    }

    /// Cut `v` to the width when it is text; any other value stays.
    fn cut(&self, v: &mut Value) {
        if let Value::Text(s) = v {
            if let Some(keep) = self.keep_len(s) {
                *v = Value::text(&s[..keep]);
            }
        }
    }
}

impl Generator for TruncateGenerator {
    /// Runs the inner kernel, then shortens overflowing text cells in
    /// place. Arena columns rebuild through the scratch buffer only when
    /// something actually truncates; non-text columns pass through.
    fn fill_column(
        &self,
        ctx: &ColumnCtx<'_>,
        rows: Range<u64>,
        out: &mut ColumnVec,
        scratch: &mut GenScratch,
    ) {
        self.inner.fill_column(ctx, rows, out, scratch);
        if let Some(tc) = out.as_text_mut() {
            tc.truncate_cells(|s| self.keep_len(s), &mut scratch.text);
        } else if let Some(cells) = out.as_cells_mut() {
            cells.iter_mut().for_each(|cell| self.cut(cell));
        }
    }

    /// The inner cell, cut as [`fill_column`](Generator::fill_column) cuts
    /// it: only a text cell shortens.
    fn emit_cell(&self, cell: Cell<'_, '_>) {
        let Cell {
            rng,
            row,
            runtime,
            out,
        } = cell;
        match out {
            CellOut::Column(out) => {
                self.inner.emit_cell(Cell {
                    rng,
                    row,
                    runtime,
                    out: CellOut::Column(&mut *out),
                });
                if let Some(arena) = out.as_text_mut() {
                    if let Some(keep) = self.keep_len(arena.get(arena.len() - 1)) {
                        arena.truncate_last(keep);
                    }
                } else if let Some(last) = out.as_cells_mut().and_then(|c| c.last_mut()) {
                    self.cut(last);
                }
            }
            // Text in a buffer no longer says whether its cell was text,
            // so the cell takes a one-cell column first.
            CellOut::Text(buf) => {
                let mut one = ColumnVec::default();
                self.emit_cell(Cell {
                    rng,
                    row,
                    runtime,
                    out: CellOut::Column(&mut one),
                });
                write!(buf, "{}", one.value(0)).expect("writing to a String cannot fail");
            }
        }
    }

    fn name(&self) -> &'static str {
        "TruncateGenerator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{
        DateGenerator, DecimalGenerator, DoubleGenerator, LongGenerator, RandomBoolGenerator,
        StaticValueGenerator,
    };
    use crate::generator::point_cell;
    use crate::runtime::SchemaRuntime;
    use crate::text::MarkovChainGenerator;
    use pdgf_schema::model::DateFormat;
    use pdgf_schema::{Date, ValueRef};

    fn static_text(s: &str) -> Arc<dyn Generator> {
        Arc::new(StaticValueGenerator::new(Value::text(s)))
    }

    fn long(min: i64, max: i64) -> Arc<dyn Generator> {
        Arc::new(LongGenerator::new(min, max))
    }

    fn markov() -> Arc<dyn Generator> {
        let mut b = textsynth::MarkovBuilder::new();
        b.feed("carefully final deposits sleep quickly");
        b.feed("furiously regular requests haggle blithely");
        Arc::new(MarkovChainGenerator::new(
            Arc::new(b.build().unwrap()),
            1,
            10,
        ))
    }

    /// `g`'s column of 300 rows through `fill_column`, into a column left
    /// over from another package, after asserting it equals `emit_cell`
    /// row by row.
    fn batch_matches_point(g: &dyn Generator) -> ColumnVec {
        let rt = SchemaRuntime::empty_for_tests();
        let ctx = ColumnCtx {
            runtime: &rt,
            update_seed: 0x5EED,
            width_hint: None,
        };
        let mut out = ColumnVec::default();
        out.text_mut().push_str("stale");
        let rows = 7..307u64;
        g.fill_column(&ctx, rows.clone(), &mut out, &mut GenScratch::default());
        assert_eq!(out.len(), 300);
        for (i, row) in rows.enumerate() {
            assert_eq!(
                out.value(i),
                point_cell(g, ctx.cell_seed(row), row),
                "{} row {row}",
                g.name()
            );
        }
        out
    }

    fn nulls(out: &ColumnVec) -> usize {
        (0..out.len())
            .filter(|&i| out.value_ref(i).is_null())
            .count()
    }

    #[test]
    fn null_over_text_fills_the_arena_at_every_probability() {
        for (p, expect) in [(0.0, "none"), (0.3, "some"), (1.0, "all")] {
            let mut out = batch_matches_point(&NullGenerator::new(p, markov()));
            let n = nulls(&out);
            let got = match n {
                0 => "none",
                300 => "all",
                _ => "some",
            };
            assert_eq!(got, expect, "p={p}: {n} NULLs");
            assert!(out.as_text().is_some(), "p={p} left the arena");
            assert!(out.as_cells_mut().is_none());
        }
    }

    #[test]
    fn null_over_a_decimal_stays_in_its_lane() {
        let g = NullGenerator::new(0.3, Arc::new(DecimalGenerator::new(-999, 999, 2)));
        let mut out = batch_matches_point(&g);
        assert!((1..300).contains(&nulls(&out)));
        assert!(out.as_cells_mut().is_none());
        assert!(out.decimals_tail(2).is_some(), "not a scale-2 decimal lane");
    }

    #[test]
    fn sequential_renders_every_part_kind_as_display_on_both_paths() {
        let nested: Arc<dyn Generator> = Arc::new(SequentialGenerator::new(
            vec![long(0, 99), Arc::new(NullGenerator::new(0.5, long(1, 9)))],
            "/".to_string(),
        ));
        let date = DateGenerator::new(
            Date::from_ymd(1992, 1, 1),
            Date::from_ymd(1998, 12, 31),
            DateFormat::Iso,
        );
        let g = SequentialGenerator::new(
            vec![
                Arc::new(DoubleGenerator::new(-1.0, 1e6, None)),
                Arc::new(DecimalGenerator::new(-99_999, 99_999, 2)),
                Arc::new(date),
                Arc::new(RandomBoolGenerator::new(0.5)),
                nested,
            ],
            "|".to_string(),
        );
        assert!(batch_matches_point(&g).as_text().is_some());

        let fixed = |v: Value| -> Arc<dyn Generator> { Arc::new(StaticValueGenerator::new(v)) };
        let g = SequentialGenerator::new(
            vec![
                fixed(Value::Double(1.0)),
                fixed(Value::decimal(-5, 2)),
                fixed(Value::Date(Date::from_ymd(1995, 6, 17))),
                fixed(Value::Bool(true)),
                fixed(Value::Null),
                fixed(Value::Long(-7)),
            ],
            "|".to_string(),
        );
        let out = batch_matches_point(&g);
        assert_eq!(out.value(0), Value::text("1.0|-0.05|1995-06-17|true||-7"));
    }

    #[test]
    fn same_kind_dynamic_branches_stay_in_their_lane() {
        let g = ProbabilityGenerator::new(vec![(0.5, long(0, 9)), (0.5, long(100, 199))]);
        let mut out = batch_matches_point(&g);
        assert!(out.as_cells_mut().is_none());
        assert!(out.longs_tail().is_some(), "not a long lane");
    }

    #[test]
    fn mixed_kind_branches_promote_to_cells_mid_package() {
        let nullable: Arc<dyn Generator> = Arc::new(NullGenerator::new(0.5, long(0, 9)));
        for first in [long(0, 9), nullable] {
            let g = ProbabilityGenerator::new(vec![(0.6, first), (0.4, markov())]);
            let mut out = batch_matches_point(&g);
            let texts = (0..out.len())
                .filter(|&i| matches!(out.value_ref(i), ValueRef::Text(_)))
                .count();
            assert!((1..300).contains(&texts), "{texts} text cells");
            assert!(out.as_cells_mut().is_some(), "mixed kinds did not promote");
        }
    }

    #[test]
    fn null_generator_extremes() {
        let all_null = NullGenerator::new(1.0, static_text("x"));
        let never_null = NullGenerator::new(0.0, static_text("x"));
        for seed in 0..100u64 {
            assert!(point_cell(&all_null, seed, 0).is_null());
            assert_eq!(point_cell(&never_null, seed, 0), Value::text("x"));
        }
    }

    #[test]
    fn null_generator_calibration() {
        let g = NullGenerator::new(0.25, static_text("x"));
        let nulls = (0..10_000u64)
            .filter(|&s| point_cell(&g, s, 0).is_null())
            .count();
        let frac = nulls as f64 / 10_000.0;
        assert!((0.23..0.27).contains(&frac), "frac {frac}");
    }

    #[test]
    fn null_wrapper_keeps_inner_stream_aligned() {
        // The inner generator must see the same stream position whether
        // the probability is 0.0 or 0.4 (on non-null draws the wrapper
        // consumed exactly one draw in both cases).
        let inner = Arc::new(LongGenerator::new(0, i64::MAX));
        let p0 = NullGenerator::new(0.0, inner.clone());
        let p4 = NullGenerator::new(0.4, inner);
        for seed in 0..200u64 {
            let v4 = point_cell(&p4, seed, 0);
            if !v4.is_null() {
                assert_eq!(point_cell(&p0, seed, 0), v4);
            }
        }
    }

    #[test]
    fn sequential_concatenates_with_separator() {
        let g = SequentialGenerator::new(
            vec![static_text("a"), static_text("b"), static_text("c")],
            "-".to_string(),
        );
        assert_eq!(point_cell(&g, 1, 0), Value::text("a-b-c"));
    }

    #[test]
    fn sequential_renders_numbers_canonically() {
        let g = SequentialGenerator::new(
            vec![
                Arc::new(StaticValueGenerator::new(Value::Double(1.5))),
                Arc::new(StaticValueGenerator::new(Value::Long(7))),
            ],
            " ".to_string(),
        );
        assert_eq!(point_cell(&g, 1, 0), Value::text("1.5 7"));
    }

    #[test]
    fn probability_branches_are_calibrated() {
        let g =
            ProbabilityGenerator::new(vec![(0.7, static_text("hot")), (0.3, static_text("cold"))]);
        let hots = (0..10_000u64)
            .filter(|&s| point_cell(&g, s, 0) == Value::text("hot"))
            .count();
        let frac = hots as f64 / 10_000.0;
        assert!((0.68..0.72).contains(&frac), "frac {frac}");
    }

    #[test]
    fn formula_generator_uses_row_and_props() {
        let props: BTreeMap<String, f64> = [("BASE".to_string(), 100.0)].into();
        let g = FormulaGenerator::new(&Expr::parse("${BASE} + ${ROW} % 7").unwrap(), &props, true);
        assert_eq!(point_cell(&g, 1, 0), Value::Long(100));
        assert_eq!(point_cell(&g, 1, 13), Value::Long(106));
    }

    #[test]
    #[should_panic(expected = "probabilities sum")]
    fn probability_generator_rejects_bad_weights() {
        let _ = ProbabilityGenerator::new(vec![(0.5, static_text("x"))]);
    }

    #[test]
    fn truncate_cuts_at_word_boundaries() {
        let g = TruncateGenerator::new(static_text("carefully final deposits"), 15);
        assert_eq!(point_cell(&g, 1, 0), Value::text("carefully final"));
        let g2 = TruncateGenerator::new(static_text("carefully final deposits"), 12);
        assert_eq!(point_cell(&g2, 1, 0), Value::text("carefully"));
        // First word longer than the cap: hard cut.
        let g3 = TruncateGenerator::new(static_text("incomprehensibilities"), 6);
        assert_eq!(point_cell(&g3, 1, 0), Value::text("incomp"));
        // Short text and non-text pass through untouched.
        let g4 = TruncateGenerator::new(static_text("ok"), 10);
        assert_eq!(point_cell(&g4, 1, 0), Value::text("ok"));
        let g5 =
            TruncateGenerator::new(Arc::new(StaticValueGenerator::new(Value::Long(1234567))), 3);
        assert_eq!(point_cell(&g5, 1, 0), Value::Long(1234567));
    }

    /// Integer pairs on both sides of zero up to ±2^53, signed zeros, and
    /// operands the fast path must leave to `%`.
    fn rem_operand(pick: u64, int: i64) -> f64 {
        const EDGES: [f64; 10] = [
            0.0,
            -0.0,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            0.5,
            -7.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match pick % 4 {
            0 => EDGES[(pick / 4 % 10) as usize],
            1 => (int % 64) as f64,
            _ => (int >> 11) as f64,
        }
    }

    proptest::proptest! {
        #[test]
        fn rem_is_bit_equal_to_fmod(
            px in proptest::any::<u64>(),
            py in proptest::any::<u64>(),
            ix in proptest::any::<i64>(),
            iy in proptest::any::<i64>(),
        ) {
            let (x, y) = (rem_operand(px, ix), rem_operand(py, iy));
            proptest::prop_assert_eq!(rem(x, y).to_bits(), (x % y).to_bits(), "{} % {}", x, y);
        }
    }

    #[test]
    fn rem_keeps_fmod_signs_at_the_edges() {
        let big = 9_007_199_254_740_992.0;
        for x in [0.0, -0.0, 4.0, -4.0, 7.0, -7.0, big, -big, big - 1.0] {
            for y in [1.0, -1.0, 2.0, -2.0, 3.0, -3.0, big, -big, 0.0, -0.0] {
                assert_eq!(rem(x, y).to_bits(), (x % y).to_bits(), "{x} % {y}");
            }
        }
    }

    #[test]
    fn keep_len_ascii_shortcut_matches_the_char_walk() {
        let walk = |max_chars: usize, s: &str| -> Option<usize> {
            if s.chars().count() <= max_chars {
                return None;
            }
            let (byte_idx, next_char) = s.char_indices().nth(max_chars)?;
            if next_char == ' ' {
                return Some(byte_idx);
            }
            match s[..byte_idx].rfind(' ') {
                Some(pos) if pos > 0 => Some(pos),
                _ => Some(byte_idx),
            }
        };
        let cells = [
            "carefully final deposits sleep",
            "exactly ten",
            "exactlyten",
            "eleven char",
            "ten chars!x",
            "ten chars! x",
            "nospacesatallinthisword",
            " leading space here",
            "ünïcödé wörds gö hérë",
            "ascii head then é",
            "é at the start of it",
            "ten chars é",
            "日本語のテキストです",
            "mixed 日本 words here",
        ];
        let inner = Arc::new(StaticValueGenerator::new(Value::Null));
        for max_chars in [1, 5, 9, 10, 11, 12, 40] {
            let g = TruncateGenerator::new(inner.clone(), max_chars);
            for s in cells {
                assert_eq!(g.keep_len(s), walk(max_chars, s), "{max_chars} {s:?}");
            }
        }
    }
}
