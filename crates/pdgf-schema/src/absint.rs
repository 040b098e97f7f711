//! Bottom-up abstract interpretation over the generator graph.
//!
//! PDGF's O(1) cell recomputability means a model's entire behaviour is
//! statically decidable: every generator admits a *transfer function* from
//! the abstract profiles of its inputs to the abstract profile of its
//! output. This module defines the abstract domains ([`StaticProfile`] and
//! its components), the per-generator transfer functions, and
//! [`interpret`], a whole-schema pass that runs them at a concrete scale
//! factor — after [`Schema::analyze`] has proven the model structurally
//! sound — and proves facts no sampled test run can: key uniqueness at the
//! *requested* table size, foreign-key domain containment, absence of
//! numeric overflow, and a hard upper bound on every cell's rendered byte
//! width.
//!
//! The width bounds are *proven*: for every value a generator can emit,
//! the canonical [`Value`] rendering is no wider than the profile claims.
//! The output layer feeds them into formatter-specific row bounds and
//! buffer pre-sizing, so the analysis pays for itself in the hot path.
//! [`interpret`] is the only profile fold: `validate` and `explain` read
//! its diagnostics, and the compiled runtime stores its column profiles at
//! build.
//!
//! Diagnostics continue the stable registry started in [`crate::analyze`]:
//!
//! | code   | meaning                                                  |
//! |--------|----------------------------------------------------------|
//! | `E040` | primary key not provably unique (or nullable) at size    |
//! | `E041` | FK branch domain not contained in parent key domain      |
//! | `E042` | numeric value overflows i64 at the requested scale       |
//! | `E043` | row-indexed dictionary smaller than the table            |
//! | `E044` | numeric column whose generator only produces text        |
//! | `E052` | reference closure reads a table with zero rows           |
//! | `W010` | no finite width bound for a field                        |
//! | `W011` | reference targets a column that is not provably unique   |
//! | `W012` | probability branches mix text with non-text kinds        |
//! | `W020` | per-cell draw bound exceeds [`DRAW_BUDGET`]              |
//! | `W021` | reference target itself reads through the closure        |

use crate::analyze::{Analysis, Diagnostic, Severity};
use crate::expr::{BinOp, Expr, Func};
use crate::model::{
    DateFormat, DictSource, GeneratorSpec, HistogramOutput, MarkovSource, RefDistribution, Schema,
};
use crate::value::{Date, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Soft ceiling on per-cell draws: beyond this a single cell consumes so
/// much of its seed stream that generation cost is dominated by PRNG
/// mixing. Exceeding it is `W020`, not an error.
pub const DRAW_BUDGET: u64 = 4096;

// ---------------------------------------------------------------------------
// Abstract domains
// ---------------------------------------------------------------------------

/// A set of possible runtime [`Value`] kinds, as a bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSet(u16);

impl KindSet {
    /// SQL NULL.
    pub const NULL: KindSet = KindSet(1);
    /// [`Value::Bool`].
    pub const BOOL: KindSet = KindSet(2);
    /// [`Value::Long`].
    pub const LONG: KindSet = KindSet(4);
    /// [`Value::Double`].
    pub const DOUBLE: KindSet = KindSet(8);
    /// [`Value::Decimal`].
    pub const DECIMAL: KindSet = KindSet(16);
    /// [`Value::Date`].
    pub const DATE: KindSet = KindSet(32);
    /// [`Value::Timestamp`].
    pub const TIMESTAMP: KindSet = KindSet(64);
    /// [`Value::Text`].
    pub const TEXT: KindSet = KindSet(128);

    /// The empty set.
    pub const fn empty() -> Self {
        KindSet(0)
    }

    /// Every kind (the top element: nothing is known).
    pub const fn all() -> Self {
        KindSet(255)
    }

    /// Set union.
    pub const fn union(self, other: KindSet) -> Self {
        KindSet(self.0 | other.0)
    }

    /// Does this set include every kind in `other`?
    pub const fn contains(self, other: KindSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// This set with NULL removed (the kinds of non-null values).
    pub const fn without_null(self) -> Self {
        KindSet(self.0 & !Self::NULL.0)
    }

    /// Is the set empty?
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Stable lower-case names of the member kinds, in declaration order.
    pub fn names(self) -> Vec<&'static str> {
        const ALL: [(KindSet, &str); 8] = [
            (KindSet::NULL, "null"),
            (KindSet::BOOL, "bool"),
            (KindSet::LONG, "long"),
            (KindSet::DOUBLE, "double"),
            (KindSet::DECIMAL, "decimal"),
            (KindSet::DATE, "date"),
            (KindSet::TIMESTAMP, "timestamp"),
            (KindSet::TEXT, "text"),
        ];
        ALL.iter()
            .filter(|(k, _)| self.contains(*k))
            .map(|&(_, n)| n)
            .collect()
    }
}

/// A closed numeric interval `[lo, hi]` over the [`Value::as_f64`] view.
///
/// Endpoints may be infinite (a genuine f64 overflow at scale *is* an
/// interval reaching infinity) but never NaN; constructors return `None`
/// instead of producing NaN endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Interval {
    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Interval from ordered endpoints.
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// Smallest interval containing every candidate; `None` if any
    /// candidate is NaN or the iterator is empty.
    pub fn from_candidates(vals: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut any = false;
        for v in vals {
            if v.is_nan() {
                return None;
            }
            lo = lo.min(v);
            hi = hi.max(v);
            any = true;
        }
        any.then_some(Interval { lo, hi })
    }

    /// Smallest interval containing both.
    pub fn hull(self, other: Interval) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Does this interval contain every point of `other`?
    pub fn contains(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Largest absolute value in the interval.
    pub fn max_abs(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }
}

/// Proven bound on the rendered byte width of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Every rendering is exactly this many bytes.
    Exact(u32),
    /// No rendering exceeds this many bytes.
    AtMost(u32),
    /// No finite bound is known.
    Unbounded,
}

impl Width {
    /// The numeric upper bound, if finite.
    pub fn bound(self) -> Option<u32> {
        match self {
            Width::Exact(w) | Width::AtMost(w) => Some(w),
            Width::Unbounded => None,
        }
    }

    /// Forget exactness: `Exact(w)` becomes `AtMost(w)`.
    pub fn demote(self) -> Self {
        match self {
            Width::Exact(w) => Width::AtMost(w),
            other => other,
        }
    }

    /// Join for alternatives (max bound; exact only when both sides are
    /// exact and equal).
    pub fn join(self, other: Width) -> Self {
        match (self, other) {
            (Width::Exact(a), Width::Exact(b)) if a == b => Width::Exact(a),
            (a, b) => match (a.bound(), b.bound()) {
                (Some(x), Some(y)) => Width::AtMost(x.max(y)),
                _ => Width::Unbounded,
            },
        }
    }

    /// Sum for concatenation (exact only when both sides are exact).
    pub fn plus(self, other: Width) -> Self {
        match (self, other) {
            (Width::Exact(a), Width::Exact(b)) => Width::Exact(a.saturating_add(b)),
            (a, b) => match (a.bound(), b.bound()) {
                (Some(x), Some(y)) => Width::AtMost(x.saturating_add(y)),
                _ => Width::Unbounded,
            },
        }
    }
}

/// How many distinct values a column can hold over a table run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// All rows provably hold pairwise-distinct values.
    Unique,
    /// At most this many distinct values.
    AtMost(u64),
    /// Nothing is known.
    Unbounded,
}

impl Cardinality {
    /// Distinct-value count bound over `rows` rows, if finite.
    pub fn count(self, rows: u64) -> Option<u64> {
        match self {
            Cardinality::Unique => Some(rows),
            Cardinality::AtMost(n) => Some(n.min(rows)),
            Cardinality::Unbounded => None,
        }
    }
}

/// PRNG draws a generator consumes from its column seed stream per cell
/// (the seed-subspace consumption of the paper's hierarchical seeding).
/// `u64::MAX` means "unbounded".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draws {
    /// Fewest draws any cell consumes.
    pub min: u64,
    /// Most draws any cell consumes.
    pub max: u64,
}

impl Draws {
    /// Exactly `n` draws per cell.
    pub fn exact(n: u64) -> Self {
        Draws { min: n, max: n }
    }

    /// Sequential composition: both parts draw.
    pub fn plus(self, other: Draws) -> Self {
        Draws {
            min: self.min.saturating_add(other.min),
            max: self.max.saturating_add(other.max),
        }
    }

    /// Alternative composition: one of the parts draws.
    pub fn join(self, other: Draws) -> Self {
        Draws {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Everything statically known about one generator's output.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticProfile {
    /// Possible runtime value kinds. Formatters must consult this (not
    /// [`StaticProfile::null_prob`]) for whether NULL can appear: a
    /// wrapped probability of 0.0 still proves NULL impossible only when
    /// the NULL bit is absent here.
    pub kinds: KindSet,
    /// Value range under the numeric view, when every possible value has
    /// one and the range is known.
    pub interval: Option<Interval>,
    /// Proven bound on the canonical rendered byte width.
    pub width: Width,
    /// Every rendering is pure ASCII (one byte per char).
    pub ascii: bool,
    /// Probability of SQL NULL in `[0, 1]`.
    pub null_prob: f64,
    /// Distinct-value bound over the table run.
    pub cardinality: Cardinality,
    /// Seed-stream draws per cell.
    pub draws: Draws,
}

impl StaticProfile {
    /// The top element: nothing is known. Sound for any generator.
    pub fn unknown() -> Self {
        StaticProfile {
            kinds: KindSet::all(),
            interval: None,
            width: Width::Unbounded,
            ascii: false,
            null_prob: 0.0,
            cardinality: Cardinality::Unbounded,
            draws: Draws {
                min: 0,
                max: u64::MAX,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Proven width bounds for the canonical Value rendering
// ---------------------------------------------------------------------------

fn digits_u64(x: u64) -> u32 {
    if x == 0 {
        1
    } else {
        x.ilog10() + 1
    }
}

fn digits_u128(x: u128) -> u32 {
    if x == 0 {
        1
    } else {
        x.ilog10() + 1
    }
}

/// Rendered byte width of one i64 (digits plus sign).
fn long_display_width(v: i64) -> u32 {
    digits_u64(v.unsigned_abs()) + u32::from(v < 0)
}

/// Width bound for any i64 in `[lo, hi]`; exact when every member renders
/// at the same width (same digit count and uniform sign).
fn long_range_width(lo: i64, hi: i64) -> Width {
    let (wl, wh) = (long_display_width(lo), long_display_width(hi));
    let w = wl.max(wh);
    if wl == wh && (lo >= 0 || hi < 0) {
        Width::Exact(w)
    } else {
        Width::AtMost(w)
    }
}

/// Digits needed for the integer part of any `|x| <= max_abs`. The
/// verification loop guards against `log10` rounding *down* at powers of
/// ten; overestimating is sound.
fn int_digits_f64(max_abs: f64) -> u32 {
    if !max_abs.is_finite() {
        // f64::MAX has 309 integer digits; infinities render shorter.
        return 309;
    }
    if max_abs < 1.0 {
        return 1;
    }
    let mut d = max_abs.log10().floor() as i32 + 1;
    while d < 310 && 10f64.powi(d) <= max_abs {
        d += 1;
    }
    d.max(1) as u32
}

/// Longest possible canonical rendering of an arbitrary finite f64:
/// sign + 309 integer digits + point + 340 fractional digits.
const DOUBLE_WIDTH_MAX: u32 = 651;

/// Shortest-round-trip f64 renderings carry at most 17 significant digits
/// with a decimal exponent no smaller than -324, so at most 340 digits
/// follow the point.
const DOUBLE_FRAC_MAX: u32 = 340;

/// Width bound for a double known to lie in `interval`, optionally rounded
/// to `decimals` places at generation time. `None` interval means any
/// finite double (or NaN, which renders shorter).
fn double_range_width(interval: Option<Interval>, decimals: Option<u8>) -> Width {
    let Some(iv) = interval else {
        return Width::AtMost(DOUBLE_WIDTH_MAX);
    };
    let max_abs = iv.max_abs();
    let sign = u32::from(iv.lo < 0.0);
    if let Some(d) = decimals {
        let pow = 10f64.powi(i32::from(d));
        // Rounding computes `(v * 10^d).round() / 10^d`; when the scaled
        // magnitude stays below 2^53 the result is the nearest double to
        // `k / 10^d`, whose shortest rendering is no longer than writing
        // k's digits out (with a carry digit for rounding up at the top).
        if max_abs.is_finite() && max_abs * pow < 9_007_199_254_740_992.0 {
            let w = sign + int_digits_f64(max_abs + 1.0) + 1 + u32::from(d).max(1);
            return Width::AtMost(w);
        }
    }
    if !max_abs.is_finite() {
        return Width::AtMost(DOUBLE_WIDTH_MAX);
    }
    Width::AtMost(sign + int_digits_f64(max_abs) + 1 + DOUBLE_FRAC_MAX)
}

/// Width bound for a fixed-point decimal with unscaled value in
/// `[lo, hi]` at `scale` digits.
fn decimal_range_width(lo: i64, hi: i64, scale: u8) -> Width {
    if scale == 0 {
        return long_range_width(lo, hi);
    }
    let s = u32::from(scale);
    let one = |u: i64| -> u32 {
        let mag = u128::from(u.unsigned_abs());
        // The integer part is |unscaled| / 10^scale; past 38 digits of
        // scale it is always zero for an i64 unscaled value.
        let int_digits = if s >= 39 {
            1
        } else {
            digits_u128(mag / 10u128.pow(s))
        };
        u32::from(u < 0) + int_digits + 1 + s
    };
    let (wl, wh) = (one(lo), one(hi));
    let w = wl.max(wh);
    if wl == wh && (lo >= 0 || hi < 0) {
        Width::Exact(w)
    } else {
        Width::AtMost(w)
    }
}

/// Rendered width of a year under `{y:04}`: zero padding counts the sign,
/// so year -5 renders "-005" (4 bytes) and year -12345 renders 6.
fn year_width(y: i32) -> u32 {
    if y >= 0 {
        digits_u64(u64::from(y.unsigned_abs())).max(4)
    } else {
        (digits_u64(u64::from(y.unsigned_abs())) + 1).max(4)
    }
}

fn year_span_width(y_lo: i32, y_hi: i32, base: u32) -> Width {
    let (wl, wh) = (year_width(y_lo) + base, year_width(y_hi) + base);
    let w = wl.max(wh);
    // Year width is nonincreasing below zero and nondecreasing above, so
    // interior years can only be *narrower* than the endpoints — equal
    // endpoint widths are exact when the sign is uniform, or when both
    // are the 4-byte padded minimum (which every interior year then hits).
    if wl == wh && (y_lo >= 0 || y_hi < 0 || w == base + 4) {
        Width::Exact(w)
    } else {
        Width::AtMost(w)
    }
}

/// Width bound for a date in `[min_day, max_day]` (days since epoch).
/// All supported [`DateFormat`]s render year + 6 fixed bytes.
fn date_range_width(min_day: i32, max_day: i32) -> Width {
    let (y_lo, _, _) = Date(min_day).to_ymd();
    let (y_hi, _, _) = Date(max_day).to_ymd();
    year_span_width(y_lo, y_hi, 6)
}

/// Width bound for a timestamp in `[min, max]` seconds since epoch:
/// the date width plus 9 bytes of `" HH:MM:SS"`.
fn timestamp_range_width(min: i64, max: i64) -> Width {
    let day = |t: i64| i32::try_from(t.div_euclid(86_400)).unwrap_or(i32::MAX);
    let (y_lo, _, _) = Date(day(min)).to_ymd();
    let (y_hi, _, _) = Date(day(max)).to_ymd();
    year_span_width(y_lo, y_hi, 6 + 9)
}

/// Width of a boolean with the given probability of `true`.
fn bool_width(true_prob: f64) -> Width {
    if true_prob >= 1.0 {
        Width::Exact(4)
    } else if true_prob <= 0.0 {
        Width::Exact(5)
    } else {
        Width::AtMost(5)
    }
}

// ---------------------------------------------------------------------------
// Interval arithmetic over the expression language
// ---------------------------------------------------------------------------

fn mul_iv(x: Interval, y: Interval) -> Option<Interval> {
    Interval::from_candidates([x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi])
}

/// Conservative interval for `expr` under resolved `props`, with `${ROW}`
/// bound to `row` (pass `None` outside a per-row context). Returns `None`
/// when no finite fact is provable (unknown property, possible division
/// by zero, domain error).
fn expr_interval(
    expr: &Expr,
    props: &BTreeMap<String, f64>,
    row: Option<Interval>,
) -> Option<Interval> {
    match expr {
        Expr::Num(v) => Interval::from_candidates([*v]),
        Expr::Prop(name) if name == "ROW" => row,
        Expr::Prop(name) => Interval::from_candidates(props.get(name).copied()),
        Expr::Neg(e) => {
            let iv = expr_interval(e, props, row)?;
            Interval::from_candidates([-iv.hi, -iv.lo])
        }
        Expr::Bin(op, a, b) => {
            let x = expr_interval(a, props, row)?;
            let y = expr_interval(b, props, row)?;
            match op {
                BinOp::Add => Interval::from_candidates([x.lo + y.lo, x.hi + y.hi]),
                BinOp::Sub => Interval::from_candidates([x.lo - y.hi, x.hi - y.lo]),
                BinOp::Mul => mul_iv(x, y),
                BinOp::Div => {
                    if y.lo <= 0.0 && y.hi >= 0.0 {
                        // Division by zero is a runtime eval error (NaN
                        // downstream); no finite interval is provable.
                        None
                    } else {
                        Interval::from_candidates([
                            x.lo / y.lo,
                            x.lo / y.hi,
                            x.hi / y.lo,
                            x.hi / y.hi,
                        ])
                    }
                }
                BinOp::Rem => {
                    if y.lo <= 0.0 && y.hi >= 0.0 {
                        None
                    } else {
                        // |x % y| <= min(max|x|, max|y|), sign follows x.
                        let m = x.max_abs().min(y.max_abs());
                        let lo = if x.lo < 0.0 { -m } else { 0.0 };
                        let hi = if x.hi > 0.0 { m } else { 0.0 };
                        Interval::from_candidates([lo, hi])
                    }
                }
            }
        }
        Expr::Call(func, args) => {
            let unary = |f: fn(f64) -> f64| -> Option<Interval> {
                let [a] = args.as_slice() else { return None };
                let iv = expr_interval(a, props, row)?;
                Interval::from_candidates([f(iv.lo), f(iv.hi)])
            };
            match func {
                Func::Ceil => unary(f64::ceil),
                Func::Floor => unary(f64::floor),
                Func::Round => unary(f64::round),
                Func::Sqrt => {
                    let [a] = args.as_slice() else { return None };
                    let iv = expr_interval(a, props, row)?;
                    if iv.lo < 0.0 {
                        None
                    } else {
                        Interval::from_candidates([iv.lo.sqrt(), iv.hi.sqrt()])
                    }
                }
                Func::Log => {
                    let [a] = args.as_slice() else { return None };
                    let iv = expr_interval(a, props, row)?;
                    if iv.lo <= 0.0 {
                        None
                    } else {
                        Interval::from_candidates([iv.lo.ln(), iv.hi.ln()])
                    }
                }
                Func::Pow => {
                    let [a, b] = args.as_slice() else { return None };
                    let x = expr_interval(a, props, row)?;
                    let y = expr_interval(b, props, row)?;
                    if x.lo <= 0.0 {
                        // Negative or zero bases mix domain errors and
                        // sign flips; stay unknown.
                        None
                    } else {
                        // For a positive base, x^y is monotone along each
                        // axis, so the extrema sit at the corners.
                        Interval::from_candidates([
                            x.lo.powf(y.lo),
                            x.lo.powf(y.hi),
                            x.hi.powf(y.lo),
                            x.hi.powf(y.hi),
                        ])
                    }
                }
                Func::Min | Func::Max => {
                    if args.is_empty() {
                        return None;
                    }
                    let mut acc: Option<Interval> = None;
                    for a in args {
                        let iv = expr_interval(a, props, row)?;
                        acc = Some(match (acc, func) {
                            (None, _) => iv,
                            (Some(p), Func::Min) => Interval::new(p.lo.min(iv.lo), p.hi.min(iv.hi)),
                            (Some(p), _) => Interval::new(p.lo.max(iv.lo), p.hi.max(iv.hi)),
                        });
                    }
                    acc
                }
            }
        }
    }
}

/// Recognize `expr` as the affine map `a * ROW + b` under resolved
/// properties. The backbone of formula uniqueness proofs.
fn affine(expr: &Expr, props: &BTreeMap<String, f64>) -> Option<(f64, f64)> {
    match expr {
        Expr::Num(v) => Some((0.0, *v)),
        Expr::Prop(name) if name == "ROW" => Some((1.0, 0.0)),
        Expr::Prop(name) => props.get(name).map(|v| (0.0, *v)),
        Expr::Neg(e) => affine(e, props).map(|(a, b)| (-a, -b)),
        Expr::Bin(BinOp::Add, x, y) => {
            let (ax, bx) = affine(x, props)?;
            let (ay, by) = affine(y, props)?;
            Some((ax + ay, bx + by))
        }
        Expr::Bin(BinOp::Sub, x, y) => {
            let (ax, bx) = affine(x, props)?;
            let (ay, by) = affine(y, props)?;
            Some((ax - ay, bx - by))
        }
        Expr::Bin(BinOp::Mul, x, y) => {
            let (ax, bx) = affine(x, props)?;
            let (ay, by) = affine(y, props)?;
            if ax == 0.0 {
                Some((bx * ay, bx * by))
            } else if ay == 0.0 {
                Some((ax * by, bx * by))
            } else {
                None
            }
        }
        Expr::Bin(BinOp::Div, x, y) => {
            let (ax, bx) = affine(x, props)?;
            let (ay, by) = affine(y, props)?;
            if ay == 0.0 && by != 0.0 {
                Some((ax / by, bx / by))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Is `round(a * row + b)` provably injective over rows `0..rows`?
///
/// A slope of magnitude >= 1 separates consecutive values by at least one
/// whole unit, so rounding preserves distinctness — provided every value
/// stays well inside the exactly-representable integer range of f64.
fn affine_unique(a: f64, b: f64, rows: u64) -> bool {
    const SAFE: f64 = 4.5e15; // 2^52, with margin for evaluation rounding
    if rows < 2 {
        return a.is_finite() && b.is_finite();
    }
    let end = a * ((rows - 1) as f64) + b;
    a.abs() >= 1.0 && b.abs() < SAFE && end.abs() < SAFE
}

// ---------------------------------------------------------------------------
// External resource oracle
// ---------------------------------------------------------------------------

/// Statically known facts about an external dictionary or Markov model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceInfo {
    /// Entry count (dictionary entries, or distinct Markov words).
    pub entries: u64,
    /// Longest entry (or word) in bytes.
    pub max_entry_bytes: u32,
    /// Every entry is pure ASCII.
    pub ascii: bool,
}

/// Answers "what is statically known about the resource at this path?"
/// during interpretation. A `None` answer is always sound: the profile
/// degrades to unbounded width and cardinality.
pub trait ResourceOracle {
    /// Facts about the dictionary file at `path`, if resolvable.
    fn dictionary(&self, path: &str) -> Option<ResourceInfo>;
    /// Facts about the Markov model file at `path`, if resolvable.
    fn markov(&self, path: &str) -> Option<ResourceInfo>;
}

/// An oracle that resolves nothing — for contexts without resource access.
pub struct NoResources;

impl ResourceOracle for NoResources {
    fn dictionary(&self, _path: &str) -> Option<ResourceInfo> {
        None
    }

    fn markov(&self, _path: &str) -> Option<ResourceInfo> {
        None
    }
}

/// Facts about an explicit entry list (inline dictionaries).
pub fn entries_info<'a>(entries: impl IntoIterator<Item = &'a str>) -> ResourceInfo {
    let mut info = ResourceInfo {
        entries: 0,
        max_entry_bytes: 0,
        ascii: true,
    };
    for e in entries {
        info.entries += 1;
        info.max_entry_bytes = info.max_entry_bytes.max(e.len() as u32);
        info.ascii &= e.is_ascii();
    }
    info
}

/// Facts about an inline Markov model, read straight off its `markov-v1`
/// text serialization (`W <word>` lines) without building the model.
fn inline_markov_info(text: &str) -> Option<ResourceInfo> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("markov-v1") {
        return None;
    }
    Some(entries_info(
        lines.filter_map(|l| l.trim_end().strip_prefix("W ")),
    ))
}

// ---------------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------------

/// Profile of an [`GeneratorSpec::Id`] generator over `rows` rows.
/// Permutation does not change the value set — the Feistel network is a
/// bijection — so sequential and permuted ids profile identically.
fn id_profile(rows: u64) -> StaticProfile {
    let hi = rows.max(1).min(i64::MAX as u64) as i64;
    StaticProfile {
        kinds: KindSet::LONG,
        interval: Some(Interval::new(1.0, hi as f64)),
        width: long_range_width(1, hi),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::Unique,
        draws: Draws::exact(0),
    }
}

/// Profile of a uniform i64 in `[lo, hi]`.
pub fn long_profile(lo: i64, hi: i64) -> StaticProfile {
    StaticProfile {
        kinds: KindSet::LONG,
        interval: Some(Interval::new(lo as f64, hi as f64)),
        width: long_range_width(lo, hi),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::AtMost(hi.wrapping_sub(lo).unsigned_abs().saturating_add(1)),
        draws: Draws::exact(1),
    }
}

/// Profile of a uniform double in `[lo, hi]`, optionally rounded.
fn double_profile(lo: f64, hi: f64, decimals: Option<u8>) -> StaticProfile {
    let interval = Interval::from_candidates([lo, hi]);
    StaticProfile {
        kinds: KindSet::DOUBLE,
        interval,
        width: double_range_width(interval, decimals),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::Unbounded,
        draws: Draws::exact(1),
    }
}

/// Profile of a fixed-point decimal with unscaled bounds `[lo, hi]`.
pub fn decimal_profile(lo: i64, hi: i64, scale: u8) -> StaticProfile {
    let pow = 10f64.powi(i32::from(scale));
    StaticProfile {
        kinds: KindSet::DECIMAL,
        interval: Some(Interval::new(lo as f64 / pow, hi as f64 / pow)),
        width: decimal_range_width(lo, hi, scale),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::AtMost(hi.wrapping_sub(lo).unsigned_abs().saturating_add(1)),
        draws: Draws::exact(1),
    }
}

/// Profile of a uniform date in `[min_day, max_day]` under `format`.
pub fn date_profile(min_day: i32, max_day: i32, format: DateFormat) -> StaticProfile {
    let iso = format == DateFormat::Iso;
    StaticProfile {
        // Non-ISO formats render eagerly to text at generation time.
        kinds: if iso { KindSet::DATE } else { KindSet::TEXT },
        interval: iso.then(|| Interval::new(f64::from(min_day), f64::from(max_day))),
        width: date_range_width(min_day, max_day),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::AtMost(
            i64::from(max_day)
                .wrapping_sub(i64::from(min_day))
                .unsigned_abs()
                .saturating_add(1),
        ),
        draws: Draws::exact(1),
    }
}

/// Profile of a uniform timestamp in `[min, max]` seconds since epoch.
fn timestamp_profile(min: i64, max: i64) -> StaticProfile {
    StaticProfile {
        kinds: KindSet::TIMESTAMP,
        interval: Some(Interval::new(min as f64, max as f64)),
        width: timestamp_range_width(min, max),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::AtMost(max.wrapping_sub(min).unsigned_abs().saturating_add(1)),
        draws: Draws::exact(1),
    }
}

/// Profile of a random alphanumeric string with length in
/// `[min_len, max_len]`.
fn random_string_profile(min_len: u32, max_len: u32) -> StaticProfile {
    StaticProfile {
        kinds: KindSet::TEXT,
        interval: None,
        width: if min_len == max_len {
            Width::Exact(max_len)
        } else {
            Width::AtMost(max_len)
        },
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::Unbounded,
        // One length draw, then one u64 per 10 characters.
        draws: Draws {
            min: 1 + u64::from(min_len.div_ceil(10)),
            max: 1 + u64::from(max_len.div_ceil(10)),
        },
    }
}

/// Profile of a boolean that is `true` with probability `true_prob`.
pub fn random_bool_profile(true_prob: f64) -> StaticProfile {
    let (lo, hi) = if true_prob >= 1.0 {
        (1.0, 1.0)
    } else if true_prob <= 0.0 {
        (0.0, 0.0)
    } else {
        (0.0, 1.0)
    };
    StaticProfile {
        kinds: KindSet::BOOL,
        interval: Some(Interval::new(lo, hi)),
        width: bool_width(true_prob),
        ascii: true,
        null_prob: 0.0,
        cardinality: Cardinality::AtMost(if lo == hi { 1 } else { 2 }),
        // `next_bool` short-circuits degenerate probabilities without
        // touching the stream.
        draws: Draws::exact(u64::from(lo != hi)),
    }
}

/// Profile of a dictionary draw (uniform or weighted): the oracle's facts
/// about the entry list, or the unbounded degradation when unresolved.
fn dict_profile(info: Option<ResourceInfo>) -> StaticProfile {
    match info {
        Some(i) => StaticProfile {
            kinds: KindSet::TEXT,
            interval: None,
            width: Width::AtMost(i.max_entry_bytes),
            ascii: i.ascii,
            null_prob: 0.0,
            cardinality: Cardinality::AtMost(i.entries),
            draws: Draws::exact(1),
        },
        None => StaticProfile {
            kinds: KindSet::TEXT,
            interval: None,
            width: Width::Unbounded,
            ascii: false,
            null_prob: 0.0,
            cardinality: Cardinality::Unbounded,
            draws: Draws::exact(1),
        },
    }
}

/// Profile of a row-indexed dictionary lookup (`row mod entries`): unique
/// exactly when the table fits inside the dictionary.
fn dict_by_row_profile(info: Option<ResourceInfo>, rows: u64) -> StaticProfile {
    let mut p = dict_profile(info);
    p.draws = Draws::exact(0);
    if let Some(i) = info {
        p.cardinality = if rows <= i.entries && i.entries > 0 {
            Cardinality::Unique
        } else {
            Cardinality::AtMost(i.entries)
        };
    }
    p
}

/// Per-cell draw count of Markov text with exactly `words` words: one
/// length draw, then for a non-empty body one start draw plus one draw per
/// emitted word.
fn markov_draws(words: u32) -> u64 {
    if words == 0 {
        1
    } else {
        2 + u64::from(words)
    }
}

/// Profile of Markov chain text with `[min_words, max_words]` words:
/// words joined by single spaces, so at most
/// `max_words * longest_word + (max_words - 1)` bytes.
fn markov_profile(info: Option<ResourceInfo>, min_words: u32, max_words: u32) -> StaticProfile {
    let width = match info {
        Some(i) if max_words > 0 => Width::AtMost(
            max_words
                .saturating_mul(i.max_entry_bytes)
                .saturating_add(max_words - 1),
        ),
        Some(_) => Width::Exact(0),
        None => Width::Unbounded,
    };
    StaticProfile {
        kinds: KindSet::TEXT,
        interval: None,
        width,
        ascii: info.is_some_and(|i| i.ascii),
        null_prob: 0.0,
        cardinality: Cardinality::Unbounded,
        // One length draw; a non-empty body then costs one start draw plus
        // exactly one draw per word (transition or dead-end restart).
        draws: Draws {
            min: markov_draws(min_words),
            max: markov_draws(max_words),
        },
    }
}

/// Profile of a constant value.
fn static_profile(value: &Value) -> StaticProfile {
    let kinds = match value {
        Value::Null => KindSet::NULL,
        Value::Bool(_) => KindSet::BOOL,
        Value::Long(_) => KindSet::LONG,
        Value::Double(_) => KindSet::DOUBLE,
        Value::Decimal { .. } => KindSet::DECIMAL,
        Value::Date(_) => KindSet::DATE,
        Value::Timestamp(_) => KindSet::TIMESTAMP,
        Value::Text(_) => KindSet::TEXT,
    };
    let rendered = value.to_string();
    StaticProfile {
        kinds,
        interval: value.as_f64().and_then(|v| Interval::from_candidates([v])),
        width: Width::Exact(rendered.len() as u32),
        ascii: rendered.is_ascii(),
        null_prob: if value.is_null() { 1.0 } else { 0.0 },
        cardinality: Cardinality::AtMost(1),
        draws: Draws::exact(0),
    }
}

/// Profile of a formula `expr` over rows `0..rows` under resolved
/// `props`, with `${ROW}` bound per row. `as_long` mirrors the runtime's
/// round-and-saturate to i64.
fn formula_profile(
    expr: &Expr,
    props: &BTreeMap<String, f64>,
    rows: u64,
    as_long: bool,
) -> StaticProfile {
    let row_iv = Interval::new(0.0, rows.saturating_sub(1).min(1 << 53) as f64);
    let iv = expr_interval(expr, props, Some(row_iv));
    if !as_long {
        return StaticProfile {
            kinds: KindSet::DOUBLE,
            interval: iv,
            width: double_range_width(iv, None),
            ascii: true,
            null_prob: 0.0,
            cardinality: Cardinality::Unbounded,
            draws: Draws::exact(0),
        };
    }
    let (interval, width) = match iv {
        Some(iv) => {
            // Saturating round-to-i64, exactly like the runtime.
            let lo = iv.lo.round() as i64;
            let hi = iv.hi.round() as i64;
            (
                Some(Interval::new(lo as f64, hi as f64)),
                long_range_width(lo, hi).demote(),
            )
        }
        // Evaluation failure yields NaN, rounded to 0 — covered.
        None => (None, Width::AtMost(20)),
    };
    let unique = affine(expr, props).is_some_and(|(a, b)| affine_unique(a, b, rows));
    let cardinality = if unique && rows > 0 {
        Cardinality::Unique
    } else {
        match interval {
            Some(iv) => {
                Cardinality::AtMost(((iv.hi - iv.lo).abs().min(u64::MAX as f64)) as u64 + 1)
            }
            None => Cardinality::Unbounded,
        }
    };
    StaticProfile {
        kinds: KindSet::LONG,
        interval,
        width,
        ascii: true,
        null_prob: 0.0,
        cardinality,
        draws: Draws::exact(0),
    }
}

/// Profile of a reference generator importing `parent`'s column profile:
/// the child sees the parent's values, but only keeps uniqueness under a
/// permutation assignment into a table no larger than its parent.
fn reference_profile(
    parent: &StaticProfile,
    parent_rows: u64,
    child_rows: u64,
    permutation: bool,
) -> StaticProfile {
    let cardinality =
        if permutation && child_rows <= parent_rows && parent.cardinality == Cardinality::Unique {
            Cardinality::Unique
        } else {
            match parent.cardinality.count(parent_rows) {
                Some(n) => Cardinality::AtMost(n),
                None => Cardinality::Unbounded,
            }
        };
    StaticProfile {
        kinds: parent.kinds,
        interval: parent.interval,
        width: parent.width.demote(),
        ascii: parent.ascii,
        null_prob: parent.null_prob,
        cardinality,
        draws: if permutation {
            Draws::exact(0)
        } else {
            Draws::exact(1)
        },
    }
}

// ---------------------------------------------------------------------------
// Meta-generator folds
// ---------------------------------------------------------------------------

/// Fold a NULL wrapper over `inner`: NULL with probability `p`, the inner
/// value otherwise. The wrapper always consumes one draw, even at p = 0.
pub fn null_wrap(p: f64, inner: StaticProfile, rows: u64) -> StaticProfile {
    let mut out = inner;
    // One coin draw always happens; the inner stream is only consumed when
    // the coin picks the wrapped value. At p >= 1 the inner never runs; at
    // p <= 0 it always runs; otherwise both outcomes are possible.
    out.draws = if p >= 1.0 {
        Draws::exact(1)
    } else if p <= 0.0 {
        out.draws.plus(Draws::exact(1))
    } else {
        Draws::exact(1).join(out.draws.plus(Draws::exact(1)))
    };
    if p > 0.0 {
        out.kinds = out.kinds.union(KindSet::NULL);
        out.width = out.width.join(Width::Exact(0)).demote();
        out.null_prob = p + (1.0 - p) * out.null_prob;
        out.cardinality = match out.cardinality.count(rows) {
            Some(n) => Cardinality::AtMost(n.saturating_add(1)),
            None => Cardinality::Unbounded,
        };
    }
    out
}

/// Fold a sequential concatenation: parts rendered left to right with
/// `sep_bytes` of separator between them (NULL parts render empty).
fn concat(parts: &[StaticProfile], sep_bytes: u32, sep_ascii: bool, rows: u64) -> StaticProfile {
    let mut width = Width::Exact(0);
    let mut ascii = sep_ascii;
    let mut draws = Draws::exact(0);
    for (i, p) in parts.iter().enumerate() {
        let mut w = p.width;
        if p.kinds.contains(KindSet::NULL) {
            // NULL renders as the empty string — byte-variable.
            w = w.demote();
        }
        width = width.plus(w);
        if i > 0 {
            width = width.plus(Width::Exact(sep_bytes));
        }
        ascii &= p.ascii;
        draws = draws.plus(p.draws);
    }
    // The concatenation is injective when some part is unique, everything
    // left of it has a fixed byte width (so the unique part starts at a
    // fixed offset), and the unique part either has a fixed width itself
    // or is the last part.
    let unique = parts.iter().enumerate().any(|(i, p)| {
        p.cardinality == Cardinality::Unique
            && !p.kinds.contains(KindSet::NULL)
            && parts[..i]
                .iter()
                .all(|q| matches!(q.width, Width::Exact(_)) && !q.kinds.contains(KindSet::NULL))
            && (matches!(p.width, Width::Exact(_)) || i == parts.len() - 1)
    });
    let cardinality = if unique {
        Cardinality::Unique
    } else {
        let mut combos: u64 = 1;
        let mut known = true;
        for p in parts {
            match p.cardinality.count(rows) {
                Some(n) => combos = combos.saturating_mul(n.max(1)),
                None => known = false,
            }
        }
        if known {
            Cardinality::AtMost(combos)
        } else {
            Cardinality::Unbounded
        }
    };
    StaticProfile {
        kinds: KindSet::TEXT,
        interval: None,
        width,
        ascii,
        null_prob: 0.0,
        cardinality,
        draws,
    }
}

/// Fold a probability choice over `(probability, profile)` branches.
fn choose(branches: &[(f64, StaticProfile)], rows: u64) -> StaticProfile {
    if branches.is_empty() {
        return StaticProfile::unknown();
    }
    if branches.len() == 1 {
        let mut only = branches[0].1.clone();
        only.draws = only.draws.plus(Draws::exact(1));
        return only;
    }
    let mut kinds = KindSet::empty();
    let mut interval: Option<Interval> = None;
    let mut interval_known = true;
    let mut width: Option<Width> = None;
    let mut ascii = true;
    let mut null_prob = 0.0;
    let mut card: u64 = 0;
    let mut card_known = true;
    let mut draws: Option<Draws> = None;
    for (p, prof) in branches {
        kinds = kinds.union(prof.kinds);
        match prof.interval {
            Some(iv) => interval = Some(interval.map_or(iv, |acc| acc.hull(iv))),
            None => interval_known = false,
        }
        width = Some(width.map_or(prof.width, |w| w.join(prof.width)));
        ascii &= prof.ascii;
        null_prob += p * prof.null_prob;
        match prof.cardinality.count(rows) {
            Some(n) => card = card.saturating_add(n),
            None => card_known = false,
        }
        draws = Some(draws.map_or(prof.draws, |d| d.join(prof.draws)));
    }
    StaticProfile {
        kinds,
        interval: if interval_known { interval } else { None },
        width: width.unwrap_or(Width::Unbounded),
        ascii,
        null_prob: null_prob.clamp(0.0, 1.0),
        cardinality: if card_known {
            Cardinality::AtMost(card)
        } else {
            Cardinality::Unbounded
        },
        // One draw selects the branch, then the branch draws.
        draws: draws.unwrap_or(Draws::exact(0)).plus(Draws::exact(1)),
    }
}

/// Is every value of `profile` provably at most `max_chars` chars, so a
/// cut to that width never fires? A byte bound within the limit implies a
/// char bound within it.
fn fits(profile: &StaticProfile, max_chars: u32) -> bool {
    profile.width.bound().is_some_and(|w| w <= max_chars)
}

/// Fold the implicit truncation the runtime applies to text fields with a
/// declared size: values at most `max_chars` *characters* long.
fn truncate(profile: StaticProfile, max_chars: u32) -> StaticProfile {
    if fits(&profile, max_chars) {
        return profile;
    }
    let mut out = profile;
    if out.kinds.without_null().is_subset(KindSet::TEXT) {
        // Only text values are cut; chars may be multi-byte.
        out.width = Width::AtMost(if out.ascii {
            max_chars
        } else {
            max_chars.saturating_mul(4)
        });
    } else {
        out.width = out.width.demote();
    }
    // Cutting can collide previously-distinct values.
    if out.cardinality == Cardinality::Unique {
        out.cardinality = Cardinality::Unbounded;
    }
    out
}

/// Fold the same cut made by a Markov leaf as it writes, which the
/// runtime asks of the leaf of a text field with a declared size when only
/// `Null` wrappers stand between them. Where the cut can fire, the word
/// loop stops before the successor draw of the word that overflows, so a
/// cell takes from 2 draws.
fn markov_cut(profile: StaticProfile, max_chars: u32) -> StaticProfile {
    if fits(&profile, max_chars) {
        return profile;
    }
    let mut out = truncate(profile, max_chars);
    out.draws.min = out.draws.min.min(2);
    out
}

/// The `(table, field)` columns the generator tree of column `(ti, fi)`
/// reads through the reference closure, under any evaluation condition
/// (an always-NULL wrapper still builds its inner reference).
fn closure_reads(schema: &Schema, (ti, fi): (usize, usize)) -> BTreeSet<(usize, usize)> {
    let mut reads = BTreeSet::new();
    schema.tables[ti].fields[fi].generator.walk(&mut |g| {
        if let GeneratorSpec::Reference { table, field, .. } = g {
            if let Some(pt) = schema.table_index(table) {
                if let Some(pf) = schema.tables[pt].field_index(field) {
                    reads.insert((pt, pf));
                }
            }
        }
    });
    reads
}

impl KindSet {
    /// Is this set a subset of `other`?
    pub const fn is_subset(self, other: KindSet) -> bool {
        self.0 & !other.0 == 0
    }
}

// ---------------------------------------------------------------------------
// The whole-schema pass
// ---------------------------------------------------------------------------

/// Per-column result of [`interpret`].
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// Field name.
    pub name: String,
    /// The field's final profile (after the implicit truncation fold).
    pub profile: StaticProfile,
    /// Can the runtime's cut of a text field to its declared width shorten
    /// a value of its generator? Where not, no truncating wrapper is built.
    pub truncates: bool,
}

/// Per-table result of [`interpret`].
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// Table name.
    pub name: String,
    /// Resolved row count at the interpreted scale.
    pub rows: u64,
    /// Column profiles in declaration order.
    pub columns: Vec<ColumnProfile>,
}

/// Result of interpreting a schema at a concrete scale.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// Findings from the abstract-interpretation checks (E040+, W010+).
    pub diagnostics: Vec<Diagnostic>,
    /// Table profiles in schema declaration order. Empty when the
    /// structural analysis already failed (profiles would be unreliable).
    pub tables: Vec<TableProfile>,
}

impl Interpretation {
    /// Look up a table profile by name.
    pub fn table(&self, name: &str) -> Option<&TableProfile> {
        self.tables.iter().find(|t| t.name == name)
    }
}

struct Pass<'a> {
    schema: &'a Schema,
    props: BTreeMap<String, f64>,
    sizes: Vec<u64>,
    oracle: &'a dyn ResourceOracle,
    memo: BTreeMap<(usize, usize), StaticProfile>,
    truncates: BTreeSet<(usize, usize)>,
    diagnostics: Vec<Diagnostic>,
    table: usize,
    field: usize,
}

/// Run the abstract interpretation over `schema` at its current property
/// values (the scale factor lives in the property bag). Requires the
/// structural [`Analysis`] — when that already has errors the pass bails
/// out with no profiles, since sizes and reference targets are unreliable.
pub fn interpret(
    schema: &Schema,
    analysis: &Analysis,
    oracle: &dyn ResourceOracle,
) -> Interpretation {
    if analysis.has_errors() {
        return Interpretation {
            diagnostics: Vec::new(),
            tables: Vec::new(),
        };
    }
    let props = schema.properties.resolve_all().unwrap_or_default();
    let sizes: Vec<u64> = schema
        .tables
        .iter()
        .map(|t| t.rows(&props).unwrap_or(0))
        .collect();
    let mut pass = Pass {
        schema,
        props,
        sizes,
        oracle,
        memo: BTreeMap::new(),
        truncates: BTreeSet::new(),
        diagnostics: Vec::new(),
        table: 0,
        field: 0,
    };
    for &t in &analysis.generation_order {
        pass.run_table(t as usize);
    }
    pass.check_closures_and_draws(&analysis.generation_order);
    let tables = schema
        .tables
        .iter()
        .enumerate()
        .map(|(ti, t)| TableProfile {
            name: t.name.clone(),
            rows: pass.sizes[ti],
            columns: t
                .fields
                .iter()
                .enumerate()
                .map(|(fi, f)| ColumnProfile {
                    name: f.name.clone(),
                    profile: pass
                        .memo
                        .get(&(ti, fi))
                        .cloned()
                        .unwrap_or_else(StaticProfile::unknown),
                    truncates: pass.truncates.contains(&(ti, fi)),
                })
                .collect(),
        })
        .collect();
    Interpretation {
        diagnostics: pass.diagnostics,
        tables,
    }
}

impl Pass<'_> {
    fn rows(&self) -> u64 {
        self.sizes[self.table]
    }

    fn diag(&mut self, code: &'static str, severity: Severity, message: String) {
        let table = &self.schema.tables[self.table];
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            table: Some(table.name.clone()),
            field: table.fields.get(self.field).map(|f| f.name.clone()),
            message,
        });
    }

    fn location(&self) -> String {
        let table = &self.schema.tables[self.table];
        match table.fields.get(self.field) {
            Some(f) => format!("{}.{}", table.name, f.name),
            None => table.name.clone(),
        }
    }

    fn run_table(&mut self, ti: usize) {
        self.table = ti;
        let schema = self.schema;
        for (fi, field) in schema.tables[ti].fields.iter().enumerate() {
            self.field = fi;
            // The runtime cuts text fields with a declared size to it;
            // mirror it so widths match reality.
            let limit = (field.sql_type.is_text() && field.size > 0).then_some(field.size);
            let mut profile = self.fold_field(&field.generator, limit);
            if let Some(limit) = limit {
                if !fits(&profile, limit) {
                    self.truncates.insert((ti, fi));
                }
                profile = truncate(profile, limit);
            }
            if profile.width == Width::Unbounded {
                let loc = self.location();
                self.diag(
                    "W010",
                    Severity::Warning,
                    format!("no finite width bound for field {loc}"),
                );
            }
            if field.sql_type.is_numeric()
                && !profile.kinds.without_null().is_empty()
                && profile.kinds.without_null().is_subset(KindSet::TEXT)
            {
                let loc = self.location();
                let ty = field.sql_type;
                self.diag(
                    "E044",
                    Severity::Error,
                    format!("field {loc} is declared {ty} but its generator only produces text"),
                );
            }
            self.memo.insert((ti, fi), profile);
        }
        self.check_primary_key(ti);
    }

    fn check_primary_key(&mut self, ti: usize) {
        let table = &self.schema.tables[ti];
        let rows = self.sizes[ti];
        let primaries: Vec<usize> = (0..table.fields.len())
            .filter(|&fi| table.fields[fi].primary)
            .collect();
        for &fi in &primaries {
            self.field = fi;
            let profile = self.memo[&(ti, fi)].clone();
            let loc = self.location();
            if profile.null_prob > 0.0 || profile.kinds.contains(KindSet::NULL) {
                self.diag(
                    "E040",
                    Severity::Error,
                    format!("primary key field {loc} can be NULL"),
                );
            } else if primaries.len() == 1 && profile.cardinality != Cardinality::Unique && rows > 1
            {
                self.diag(
                    "E040",
                    Severity::Error,
                    format!("primary key field {loc} is not provably unique over {rows} rows"),
                );
            }
        }
    }

    /// The checks that need every column folded: per column in generation
    /// order, closure reads into an empty table (E052) and a draw bound
    /// past [`DRAW_BUDGET`] (W020); then every reference whose target
    /// column itself reads through the closure (W021).
    fn check_closures_and_draws(&mut self, order: &[u32]) {
        let schema = self.schema;
        let columns: Vec<(usize, usize)> = order
            .iter()
            .flat_map(|&t| {
                (0..schema.tables[t as usize].fields.len()).map(move |f| (t as usize, f))
            })
            .collect();
        let reads: BTreeMap<(usize, usize), BTreeSet<(usize, usize)>> = columns
            .iter()
            .map(|&c| (c, closure_reads(schema, c)))
            .collect();
        let name = |(t, f): (usize, usize)| {
            let table = &schema.tables[t];
            format!("{}.{}", table.name, table.fields[f].name)
        };
        for &(ti, fi) in &columns {
            self.table = ti;
            self.field = fi;
            for &read in &reads[&(ti, fi)] {
                if self.sizes[read.0] == 0 {
                    let loc = name((ti, fi));
                    let pt = &schema.tables[read.0].name;
                    let target = name(read);
                    self.diag(
                        "E052",
                        Severity::Error,
                        format!(
                            "{loc} references {target} but table {pt} has zero rows at the \
                             current scale — the closure read has no row to land on"
                        ),
                    );
                }
            }
            let max = self.memo[&(ti, fi)].draws.max;
            if max > DRAW_BUDGET {
                let loc = name((ti, fi));
                self.diag(
                    "W020",
                    Severity::Warning,
                    format!(
                        "{loc} may draw up to {max} values per cell, exceeding the draw \
                         budget of {DRAW_BUDGET}"
                    ),
                );
            }
        }
        for &(ti, fi) in &columns {
            self.table = ti;
            self.field = fi;
            for &read in &reads[&(ti, fi)] {
                let grand = &reads[&read];
                if grand.is_empty() {
                    continue;
                }
                let loc = name((ti, fi));
                let target = name(read);
                let grand = grand
                    .iter()
                    .map(|&g| name(g))
                    .collect::<Vec<_>>()
                    .join(", ");
                self.diag(
                    "W021",
                    Severity::Warning,
                    format!(
                        "reference closure depth >= 2: {loc} reads {target}, which itself \
                         reads {grand} — every cell pays the whole chain"
                    ),
                );
            }
        }
    }

    fn eval(&self, expr: &Expr) -> Option<f64> {
        expr.eval(&|n| self.props.get(n).copied()).ok()
    }

    /// Check a statically known value against the i64 range (E042).
    fn check_i64(&mut self, what: &str, v: f64) -> i64 {
        if v > i64::MAX as f64 || v < i64::MIN as f64 {
            let loc = self.location();
            self.diag(
                "E042",
                Severity::Error,
                format!("{what} of field {loc} is {v} at the requested scale, outside i64 range"),
            );
        }
        // Saturating cast, exactly like the runtime's eval_i64.
        v.round() as i64
    }

    fn dict_info(&self, source: &DictSource) -> Option<ResourceInfo> {
        match source {
            DictSource::Inline { entries } => {
                Some(entries_info(entries.iter().map(|(t, _)| t.as_str())))
            }
            DictSource::File(path) => self.oracle.dictionary(path),
        }
    }

    fn markov_info(&self, source: &MarkovSource) -> Option<ResourceInfo> {
        match source {
            MarkovSource::Inline(text) => inline_markov_info(text),
            MarkovSource::File(path) => self.oracle.markov(path),
        }
    }

    fn column_profile(&self, table: &str, field: &str) -> Option<&StaticProfile> {
        let ti = self.schema.table_index(table)?;
        let fi = self.schema.tables[ti].field_index(field)?;
        self.memo.get(&(ti, fi))
    }

    /// `spec`'s profile as the runtime builds it for a field cut to
    /// `limit` chars: a Markov leaf reached through `Null` wrappers only
    /// cuts as it writes; any other generator folds as it stands.
    fn fold_field(&mut self, spec: &GeneratorSpec, limit: Option<u32>) -> StaticProfile {
        match (spec, limit) {
            (GeneratorSpec::Markov { .. }, Some(max_chars)) => {
                markov_cut(self.fold_spec(spec), max_chars)
            }
            (GeneratorSpec::Null { probability, inner }, Some(_)) => {
                let inner = self.fold_field(inner, limit);
                null_wrap(*probability, inner, self.rows())
            }
            _ => self.fold_spec(spec),
        }
    }

    fn fold_spec(&mut self, spec: &GeneratorSpec) -> StaticProfile {
        match spec {
            GeneratorSpec::Id { .. } => id_profile(self.rows()),
            GeneratorSpec::Long { min, max } => match (self.eval(min), self.eval(max)) {
                (Some(lo), Some(hi)) => {
                    let lo = self.check_i64("lower bound", lo);
                    let hi = self.check_i64("upper bound", hi);
                    long_profile(lo, hi)
                }
                _ => StaticProfile {
                    kinds: KindSet::LONG,
                    interval: None,
                    width: Width::AtMost(20),
                    ascii: true,
                    null_prob: 0.0,
                    cardinality: Cardinality::Unbounded,
                    draws: Draws::exact(1),
                },
            },
            GeneratorSpec::Double { min, max, decimals } => {
                match (self.eval(min), self.eval(max)) {
                    (Some(lo), Some(hi)) => double_profile(lo, hi, *decimals),
                    _ => StaticProfile {
                        kinds: KindSet::DOUBLE,
                        interval: None,
                        width: Width::AtMost(DOUBLE_WIDTH_MAX),
                        ascii: true,
                        null_prob: 0.0,
                        cardinality: Cardinality::Unbounded,
                        draws: Draws::exact(1),
                    },
                }
            }
            GeneratorSpec::Decimal { min, max, scale } => match (self.eval(min), self.eval(max)) {
                (Some(lo), Some(hi)) => {
                    let lo = self.check_i64("unscaled lower bound", lo);
                    let hi = self.check_i64("unscaled upper bound", hi);
                    decimal_profile(lo, hi, *scale)
                }
                _ => StaticProfile {
                    kinds: KindSet::DECIMAL,
                    interval: None,
                    width: Width::AtMost(21 + u32::from(*scale)),
                    ascii: true,
                    null_prob: 0.0,
                    cardinality: Cardinality::Unbounded,
                    draws: Draws::exact(1),
                },
            },
            GeneratorSpec::DateRange { min, max, format } => date_profile(min.0, max.0, *format),
            GeneratorSpec::TimestampRange { min, max } => timestamp_profile(*min, *max),
            GeneratorSpec::RandomString { min_len, max_len } => {
                random_string_profile(*min_len, *max_len)
            }
            GeneratorSpec::RandomBool { true_prob } => random_bool_profile(*true_prob),
            GeneratorSpec::Dict { source, .. } => dict_profile(self.dict_info(source)),
            GeneratorSpec::DictByRow { source } => {
                let info = self.dict_info(source);
                let rows = self.rows();
                if let Some(i) = info {
                    if rows > i.entries {
                        let loc = self.location();
                        self.diag(
                            "E043",
                            Severity::Error,
                            format!(
                                "field {loc} indexes a {}-entry dictionary by row over {rows} \
                                 rows: indices wrap and repeat",
                                i.entries
                            ),
                        );
                    }
                }
                dict_by_row_profile(info, rows)
            }
            GeneratorSpec::Markov {
                source,
                min_words,
                max_words,
            } => markov_profile(self.markov_info(source), *min_words, *max_words),
            GeneratorSpec::Reference {
                table,
                field,
                distribution,
            } => self.fold_reference(table, field, distribution),
            GeneratorSpec::Null { probability, inner } => {
                let inner = self.fold_spec(inner);
                null_wrap(*probability, inner, self.rows())
            }
            GeneratorSpec::Static { value } => static_profile(value),
            GeneratorSpec::Sequential { parts, separator } => {
                let profiles: Vec<StaticProfile> =
                    parts.iter().map(|p| self.fold_spec(p)).collect();
                concat(
                    &profiles,
                    separator.len() as u32,
                    separator.is_ascii(),
                    self.rows(),
                )
            }
            GeneratorSpec::Probability { branches } => self.fold_probability(branches),
            GeneratorSpec::Formula { expr, as_long } => self.fold_formula(expr, *as_long),
            GeneratorSpec::HistogramNumeric { bounds, output, .. } => {
                self.fold_histogram(bounds, *output)
            }
        }
    }

    fn fold_reference(
        &mut self,
        table: &str,
        field: &str,
        distribution: &RefDistribution,
    ) -> StaticProfile {
        let Some(parent) = self.column_profile(table, field).cloned() else {
            return StaticProfile::unknown();
        };
        let parent_rows = self
            .schema
            .table_index(table)
            .map(|ti| self.sizes[ti])
            .unwrap_or(0);
        if parent.cardinality != Cardinality::Unique {
            let loc = self.location();
            self.diag(
                "W011",
                Severity::Warning,
                format!(
                    "field {loc} references {table}.{field}, which is not provably unique — \
                     foreign keys may be ambiguous"
                ),
            );
        }
        reference_profile(
            &parent,
            parent_rows,
            self.rows(),
            matches!(distribution, RefDistribution::Permutation),
        )
    }

    fn fold_probability(&mut self, branches: &[(f64, GeneratorSpec)]) -> StaticProfile {
        let profiles: Vec<(f64, StaticProfile)> = branches
            .iter()
            .map(|(p, s)| (*p, self.fold_spec(s)))
            .collect();
        // E041: branches alongside a direct reference branch must stay
        // inside the referenced parent key's value domain, or the mix
        // breaks foreign-key containment.
        let mut parent_hull: Option<Interval> = None;
        let mut parents_known = true;
        let mut ref_count = 0usize;
        for (p, spec) in branches {
            if *p <= 0.0 {
                continue;
            }
            if let GeneratorSpec::Reference { table, field, .. } = spec {
                ref_count += 1;
                match self.column_profile(table, field).and_then(|pr| pr.interval) {
                    Some(iv) => {
                        parent_hull = Some(parent_hull.map_or(iv, |acc| acc.hull(iv)));
                    }
                    None => parents_known = false,
                }
            }
        }
        let live = branches.iter().filter(|(p, _)| *p > 0.0).count();
        if ref_count > 0 && ref_count < live && parents_known {
            if let Some(hull) = parent_hull {
                for ((p, spec), (_, prof)) in branches.iter().zip(&profiles) {
                    if *p <= 0.0 || matches!(spec, GeneratorSpec::Reference { .. }) {
                        continue;
                    }
                    if let Some(iv) = prof.interval {
                        if !hull.contains(iv) {
                            let loc = self.location();
                            self.diag(
                                "E041",
                                Severity::Error,
                                format!(
                                    "field {loc} mixes a reference branch with values in \
                                     [{}, {}], outside the parent key domain [{}, {}]",
                                    iv.lo, iv.hi, hull.lo, hull.hi
                                ),
                            );
                        }
                    }
                }
            }
        }
        // W012: mixing text and non-text branches makes the column's type
        // depend on the coin flip.
        let has_text = profiles
            .iter()
            .filter(|(p, _)| *p > 0.0)
            .any(|(_, pr)| pr.kinds.contains(KindSet::TEXT));
        let has_non_text = profiles
            .iter()
            .filter(|(p, _)| *p > 0.0)
            .any(|(_, pr)| !pr.kinds.without_null().is_subset(KindSet::TEXT));
        if has_text && has_non_text {
            let loc = self.location();
            self.diag(
                "W012",
                Severity::Warning,
                format!("field {loc} mixes text and non-text branches in one column"),
            );
        }
        choose(&profiles, self.rows())
    }

    fn fold_formula(&mut self, expr: &Expr, as_long: bool) -> StaticProfile {
        let rows = self.rows();
        if as_long {
            // Diagnose overflow here; the shared transfer function applies
            // the same saturating cast without reporting.
            let row_iv = Interval::new(0.0, rows.saturating_sub(1).min(1 << 53) as f64);
            if let Some(iv) = expr_interval(expr, &self.props, Some(row_iv)) {
                self.check_i64("formula minimum", iv.lo);
                self.check_i64("formula maximum", iv.hi);
            }
        }
        formula_profile(expr, &self.props, rows, as_long)
    }

    fn fold_histogram(&mut self, bounds: &[f64], output: HistogramOutput) -> StaticProfile {
        let (Some(&lo), Some(&hi)) = (bounds.first(), bounds.last()) else {
            return StaticProfile::unknown();
        };
        match output {
            HistogramOutput::Long => {
                let li = self.check_i64("histogram lower bound", lo);
                let hi = self.check_i64("histogram upper bound", hi);
                let mut p = long_profile(li, hi);
                p.width = p.width.demote();
                p.draws = Draws::exact(2);
                p
            }
            HistogramOutput::Double => {
                let mut p = double_profile(lo, hi, None);
                p.draws = Draws::exact(2);
                p
            }
            HistogramOutput::Decimal(scale) => {
                let pow = 10f64.powi(i32::from(scale));
                let li = self.check_i64("histogram unscaled lower bound", lo * pow);
                let hu = self.check_i64("histogram unscaled upper bound", hi * pow);
                let mut p = decimal_profile(li, hu, scale);
                p.width = p.width.demote();
                p.draws = Draws::exact(2);
                p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Field, Schema, Table};
    use crate::types::SqlType;

    fn id_field(name: &str) -> Field {
        Field::new(name, SqlType::BigInt, GeneratorSpec::Id { permute: false }).primary()
    }

    fn reference(table: &str, field: &str) -> GeneratorSpec {
        GeneratorSpec::Reference {
            table: table.to_string(),
            field: field.to_string(),
            distribution: RefDistribution::Uniform,
        }
    }

    fn two_table_schema() -> Schema {
        Schema::new("abs", 7)
            .table(Table::new("parent", "10").field(id_field("id")))
            .table(
                Table::new("child", "20")
                    .field(id_field("id"))
                    .field(Field::new("fk", SqlType::BigInt, reference("parent", "id"))),
            )
    }

    fn run(schema: &Schema) -> Interpretation {
        interpret(schema, &schema.analyze(), &NoResources)
    }

    fn codes(i: &Interpretation) -> Vec<&'static str> {
        i.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn long_widths_are_sound_and_exact_when_uniform() {
        assert_eq!(long_range_width(1, 9), Width::Exact(1));
        assert_eq!(long_range_width(10, 99), Width::Exact(2));
        assert_eq!(long_range_width(1, 10), Width::AtMost(2));
        assert_eq!(long_range_width(-99, -10), Width::Exact(3));
        assert_eq!(long_range_width(-5, 5), Width::AtMost(2));
        for &(lo, hi) in &[
            (0i64, 0i64),
            (-1, 1),
            (i64::MIN, i64::MAX),
            (i64::MAX - 3, i64::MAX),
            (i64::MIN, i64::MIN + 3),
        ] {
            let bound = long_range_width(lo, hi).bound().unwrap();
            for v in [lo, hi, lo.midpoint(hi)] {
                assert!(
                    Value::Long(v).to_string().len() as u32 <= bound,
                    "{v} exceeds {bound}"
                );
            }
        }
    }

    #[test]
    fn int_digits_covers_powers_of_ten() {
        assert_eq!(int_digits_f64(0.5), 1);
        assert_eq!(int_digits_f64(9.0), 1);
        for d in 1..=15 {
            let p = 10f64.powi(d);
            assert!(int_digits_f64(p) > d as u32, "10^{d}");
            assert!(int_digits_f64(p - 1.0) >= d as u32, "10^{d}-1");
        }
    }

    #[test]
    fn decimal_widths_match_rendering() {
        for &(lo, hi, s) in &[
            (100i64, 9999i64, 2u8),
            (-5000, 5000, 3),
            (0, 0, 1),
            (i64::MIN, i64::MAX, 4),
            (1, 1_000_000, 0),
        ] {
            let bound = decimal_range_width(lo, hi, s).bound().unwrap();
            for u in [lo, hi, lo.midpoint(hi)] {
                // Display panics past scale 18; these stay below.
                let shown = Value::decimal(u, s).to_string();
                assert!(shown.len() as u32 <= bound, "{shown:?} exceeds {bound}");
            }
        }
        assert_eq!(decimal_range_width(100, 999, 2), Width::Exact(4));
        assert_eq!(decimal_range_width(-999, -100, 2), Width::Exact(5));
    }

    #[test]
    fn date_and_timestamp_widths_match_rendering() {
        let cases = [
            (Date::from_ymd(1992, 1, 1).0, Date::from_ymd(1998, 12, 31).0),
            (Date::from_ymd(-44, 3, 15).0, Date::from_ymd(14, 8, 19).0),
            (Date::from_ymd(9999, 1, 1).0, Date::from_ymd(99999, 1, 1).0),
        ];
        for &(lo, hi) in &cases {
            let bound = date_range_width(lo, hi).bound().unwrap();
            for d in [lo, hi, lo.midpoint(hi)] {
                let shown = Value::Date(Date(d)).to_string();
                assert!(shown.len() as u32 <= bound, "{shown:?} exceeds {bound}");
            }
        }
        assert_eq!(
            date_range_width(Date::from_ymd(1992, 1, 1).0, Date::from_ymd(1998, 12, 31).0),
            Width::Exact(10)
        );
        // Sign-spanning 4-digit years are still all 10 bytes wide.
        assert_eq!(
            date_range_width(Date::from_ymd(-100, 1, 1).0, Date::from_ymd(100, 1, 1).0),
            Width::Exact(10)
        );
        let (lo, hi) = (0i64, 4_102_444_799i64); // 1970..2099
        let bound = timestamp_range_width(lo, hi).bound().unwrap();
        for t in [lo, hi, lo.midpoint(hi)] {
            let shown = Value::Timestamp(t).to_string();
            assert!(shown.len() as u32 <= bound, "{shown:?} exceeds {bound}");
        }
        assert_eq!(timestamp_range_width(lo, hi), Width::Exact(19));
    }

    #[test]
    fn rounded_double_width_covers_all_roundings() {
        // decimals=2 over [0, 100): values are k/100 for k in 0..=10000.
        let bound = double_range_width(Some(Interval::new(0.0, 100.0)), Some(2))
            .bound()
            .unwrap();
        for k in 0..=10_000i64 {
            let v = (k as f64) / 100.0;
            let shown = Value::Double(v).to_string();
            assert!(shown.len() as u32 <= bound, "{shown:?} exceeds {bound}");
        }
        // Unrounded intervals still get a finite (if huge) bound.
        assert!(double_range_width(Some(Interval::new(-1.0, 1.0)), None)
            .bound()
            .is_some());
        assert_eq!(double_range_width(None, None), Width::AtMost(651));
    }

    #[test]
    fn expr_intervals_are_conservative() {
        let props: BTreeMap<String, f64> = [("SF".to_string(), 10.0)].into();
        let iv = |src: &str| {
            expr_interval(
                &Expr::parse(src).unwrap(),
                &props,
                Some(Interval::new(0.0, 99.0)),
            )
        };
        assert_eq!(iv("2 + 3"), Some(Interval::new(5.0, 5.0)));
        assert_eq!(iv("${ROW} * ${SF}"), Some(Interval::new(0.0, 990.0)));
        assert_eq!(iv("${ROW} % 7"), Some(Interval::new(0.0, 7.0)));
        assert_eq!(iv("0 - ${ROW}"), Some(Interval::new(-99.0, 0.0)));
        assert_eq!(iv("${UNKNOWN} + 1"), None);
        assert_eq!(iv("1 / (${ROW} - 5)"), None, "divisor spans zero");
        assert_eq!(iv("min(${ROW}, 10)"), Some(Interval::new(0.0, 10.0)));
        let sq = iv("(${ROW} + 1) * (${ROW} + 1)").unwrap();
        assert_eq!(sq.hi, 10_000.0);
    }

    #[test]
    fn affine_detection_and_uniqueness() {
        let props: BTreeMap<String, f64> = [("SF".to_string(), 2.0)].into();
        let aff = |src: &str| affine(&Expr::parse(src).unwrap(), &props);
        assert_eq!(aff("${ROW} + 1"), Some((1.0, 1.0)));
        assert_eq!(aff("3 * ${ROW} - ${SF}"), Some((3.0, -2.0)));
        assert_eq!(aff("${ROW} * ${ROW}"), None);
        assert!(affine_unique(1.0, 1.0, 1_000_000));
        assert!(!affine_unique(0.5, 0.0, 10), "sub-unit slope can collide");
        assert!(!affine_unique(1.0, 9.0e15, 10), "out of exact f64 range");
    }

    #[test]
    fn clean_schema_interprets_without_diagnostics() {
        let s = two_table_schema();
        let i = run(&s);
        assert!(i.diagnostics.is_empty(), "{:?}", i.diagnostics);
        let parent = i.table("parent").unwrap();
        assert_eq!(parent.rows, 10);
        let id = &parent.columns[0].profile;
        assert_eq!(id.cardinality, Cardinality::Unique);
        assert_eq!(id.kinds, KindSet::LONG);
        assert_eq!(id.interval, Some(Interval::new(1.0, 10.0)));
        assert_eq!(id.width.bound(), Some(2));
        let fk = &i.table("child").unwrap().columns[1].profile;
        assert_eq!(fk.interval, Some(Interval::new(1.0, 10.0)));
        assert_eq!(fk.cardinality, Cardinality::AtMost(10));
    }

    #[test]
    fn structural_errors_suppress_interpretation() {
        let s = Schema::new("bad", 7).table(Table::new("t", "1"));
        let i = run(&s);
        assert!(i.diagnostics.is_empty());
        assert!(i.tables.is_empty());
    }

    #[test]
    fn structural_errors_suppress_lineage_codes() {
        // An empty parent would be E052 on its own; a dangling reference
        // elsewhere in the schema is a structural error, so no column
        // is interpreted and no E052/W020/W021 is emitted.
        let mut s = two_table_schema();
        s.tables[0].size = Expr::parse("0").unwrap();
        s.tables[1].fields.push(Field::new(
            "dangling",
            SqlType::BigInt,
            reference("nope", "x"),
        ));
        let analysis = s.analyze();
        assert!(analysis.has_errors());
        let i = interpret(&s, &analysis, &NoResources);
        assert!(i.diagnostics.is_empty(), "{:?}", i.diagnostics);
        assert!(i.tables.is_empty());
    }

    #[test]
    fn random_primary_key_is_e040() {
        let s = Schema::new("pk", 7).table(
            Table::new("t", "50").field(
                Field::new(
                    "id",
                    SqlType::BigInt,
                    GeneratorSpec::Long {
                        min: Expr::parse("1").unwrap(),
                        max: Expr::parse("100").unwrap(),
                    },
                )
                .primary(),
            ),
        );
        assert_eq!(codes(&run(&s)), vec!["E040"]);
    }

    #[test]
    fn composite_primary_keys_only_require_non_null() {
        let long = GeneratorSpec::Long {
            min: Expr::parse("1").unwrap(),
            max: Expr::parse("100").unwrap(),
        };
        let s = Schema::new("cpk", 7).table(
            Table::new("t", "50")
                .field(Field::new("a", SqlType::BigInt, long.clone()).primary())
                .field(Field::new("b", SqlType::BigInt, long.clone()).primary()),
        );
        assert!(codes(&run(&s)).is_empty());
        let s = Schema::new("cpkn", 7).table(
            Table::new("t", "50")
                .field(
                    Field::new(
                        "a",
                        SqlType::BigInt,
                        GeneratorSpec::Null {
                            probability: 0.1,
                            inner: Box::new(long.clone()),
                        },
                    )
                    .primary(),
                )
                .field(Field::new("b", SqlType::BigInt, long).primary()),
        );
        assert_eq!(codes(&run(&s)), vec!["E040"]);
    }

    #[test]
    fn fk_domain_escape_is_e041() {
        let mut s = two_table_schema();
        s.tables[1].fields[1].generator = GeneratorSpec::Probability {
            branches: vec![
                (0.9, reference("parent", "id")),
                (
                    0.1,
                    GeneratorSpec::Long {
                        min: Expr::parse("9").unwrap(),
                        max: Expr::parse("15").unwrap(),
                    },
                ),
            ],
        };
        assert!(codes(&run(&s)).contains(&"E041"));
        // A branch inside the parent domain is fine.
        s.tables[1].fields[1].generator = GeneratorSpec::Probability {
            branches: vec![
                (0.9, reference("parent", "id")),
                (
                    0.1,
                    GeneratorSpec::Long {
                        min: Expr::parse("1").unwrap(),
                        max: Expr::parse("10").unwrap(),
                    },
                ),
            ],
        };
        assert!(!codes(&run(&s)).contains(&"E041"));
    }

    #[test]
    fn scale_dependent_overflow_is_e042() {
        let mut s = Schema::new("ovf", 7).table(Table::new("t", "10").field(Field::new(
            "v",
            SqlType::BigInt,
            GeneratorSpec::Long {
                min: Expr::parse("1").unwrap(),
                max: Expr::parse("${SF} * 2000000000000000000").unwrap(),
            },
        )));
        s.properties.define("SF", "1").unwrap();
        assert!(codes(&run(&s)).is_empty(), "clean at SF 1");
        s.properties.override_value("SF", "10").unwrap();
        assert!(codes(&run(&s)).contains(&"E042"), "overflows at SF 10");
    }

    #[test]
    fn formula_overflow_at_scale_is_e042() {
        let mut s =
            Schema::new("fml", 7).table(Table::new("t", "1000000 * ${SF}").field(Field::new(
                "v",
                SqlType::BigInt,
                GeneratorSpec::Formula {
                    expr: Expr::parse("(${ROW} + 1) * (${ROW} + 1)").unwrap(),
                    as_long: true,
                },
            )));
        s.properties.define("SF", "1").unwrap();
        assert!(codes(&run(&s)).is_empty(), "1e12 fits");
        s.properties.override_value("SF", "10000").unwrap();
        assert!(codes(&run(&s)).contains(&"E042"), "1e20 does not");
    }

    #[test]
    fn dictionary_index_wrap_is_e043() {
        let entries = vec![
            ("red".to_string(), 1.0),
            ("green".to_string(), 1.0),
            ("blue".to_string(), 1.0),
        ];
        let s = Schema::new("dbr", 7).table(Table::new("t", "10").field(Field::new(
            "name",
            SqlType::Varchar(10),
            GeneratorSpec::DictByRow {
                source: DictSource::Inline {
                    entries: entries.clone(),
                },
            },
        )));
        assert_eq!(codes(&run(&s)), vec!["E043"]);
        let s = Schema::new("dbr2", 7).table(Table::new("t", "3").field(Field::new(
            "name",
            SqlType::Varchar(10),
            GeneratorSpec::DictByRow {
                source: DictSource::Inline { entries },
            },
        )));
        let i = run(&s);
        assert!(codes(&i).is_empty());
        assert_eq!(
            i.table("t").unwrap().columns[0].profile.cardinality,
            Cardinality::Unique
        );
    }

    #[test]
    fn text_into_numeric_column_is_e044() {
        let s = Schema::new("tin", 7).table(Table::new("t", "5").field(Field::new(
            "n",
            SqlType::BigInt,
            GeneratorSpec::Static {
                value: Value::text("not a number"),
            },
        )));
        assert_eq!(codes(&run(&s)), vec!["E044"]);
    }

    #[test]
    fn unresolved_markov_is_w010_unbounded() {
        let s = Schema::new("mkv", 7).table(Table::new("t", "5").field(Field::new(
            "c",
            SqlType::Varchar(0),
            GeneratorSpec::Markov {
                source: MarkovSource::File("markov/missing.bin".into()),
                min_words: 2,
                max_words: 5,
            },
        )));
        let i = run(&s);
        assert_eq!(codes(&i), vec!["W010"]);
        assert_eq!(
            i.table("t").unwrap().columns[0].profile.width,
            Width::Unbounded
        );
    }

    #[test]
    fn truncation_bounds_unresolved_markov() {
        // Same model, but with a declared size: the truncation fold caps it.
        let s = Schema::new("mkv2", 7).table(Table::new("t", "5").field(Field::new(
            "c",
            SqlType::Varchar(44),
            GeneratorSpec::Markov {
                source: MarkovSource::File("markov/missing.bin".into()),
                min_words: 2,
                max_words: 5,
            },
        )));
        let i = run(&s);
        assert!(codes(&i).is_empty());
        // Unknown origin may be non-ASCII: 4 bytes per char.
        assert_eq!(
            i.table("t").unwrap().columns[0].profile.width,
            Width::AtMost(176)
        );
    }

    #[test]
    fn inline_markov_width_comes_from_word_lines() {
        let text = "markov-v1\nW alpha\nW bet\nS 0 1\nT 0 1 1\n";
        let info = inline_markov_info(text).unwrap();
        assert_eq!(info.entries, 2);
        assert_eq!(info.max_entry_bytes, 5);
        assert!(info.ascii);
        let p = markov_profile(Some(info), 1, 3);
        assert_eq!(p.width, Width::AtMost(17)); // 3 * 5 + 2
    }

    #[test]
    fn non_unique_reference_target_is_w011() {
        let mut s = two_table_schema();
        s.tables[0].fields[0] = Field::new(
            "id",
            SqlType::BigInt,
            GeneratorSpec::Long {
                min: Expr::parse("1").unwrap(),
                max: Expr::parse("100").unwrap(),
            },
        );
        let i = run(&s);
        assert!(codes(&i).contains(&"W011"));
    }

    #[test]
    fn mixed_branch_kinds_are_w012() {
        let s = Schema::new("mix", 7).table(Table::new("t", "5").field(Field::new(
            "c",
            SqlType::Varchar(20),
            GeneratorSpec::Probability {
                branches: vec![
                    (
                        0.5,
                        GeneratorSpec::Static {
                            value: Value::text("hello"),
                        },
                    ),
                    (
                        0.5,
                        GeneratorSpec::Long {
                            min: Expr::parse("1").unwrap(),
                            max: Expr::parse("9").unwrap(),
                        },
                    ),
                ],
            },
        )));
        assert_eq!(codes(&run(&s)), vec!["W012"]);
    }

    #[test]
    fn null_wrap_always_draws_and_joins_null() {
        let inner = long_profile(1, 9);
        let same = null_wrap(0.0, inner.clone(), 100);
        assert_eq!(same.kinds, KindSet::LONG);
        assert_eq!(same.draws, Draws::exact(2));
        assert_eq!(same.width, Width::Exact(1));
        let nullable = null_wrap(0.5, inner.clone(), 100);
        assert!(nullable.kinds.contains(KindSet::NULL));
        // NULL short-circuits the inner stream: coin only vs coin + inner.
        assert_eq!(nullable.draws, Draws { min: 1, max: 2 });
        assert_eq!(null_wrap(1.0, inner, 100).draws, Draws::exact(1));
        assert_eq!(nullable.width, Width::AtMost(1));
        assert_eq!(nullable.null_prob, 0.5);
        assert_eq!(nullable.cardinality, Cardinality::AtMost(10));
    }

    #[test]
    fn null_wrap_short_circuits_a_multi_draw_inner() {
        let inner = StaticProfile {
            draws: Draws::exact(3),
            ..long_profile(1, 9)
        };
        assert_eq!(null_wrap(0.0, inner.clone(), 100).draws, Draws::exact(4));
        assert_eq!(null_wrap(1.0, inner.clone(), 100).draws, Draws::exact(1));
        assert_eq!(null_wrap(0.5, inner, 100).draws, Draws { min: 1, max: 4 });
    }

    #[test]
    fn leaf_draw_counts_match_runtime() {
        assert_eq!(id_profile(10).draws, Draws::exact(0));
        assert_eq!(
            long_profile(1, 1).draws,
            Draws::exact(1),
            "degenerate ranges still draw"
        );
        assert_eq!(
            random_bool_profile(1.0).draws,
            Draws::exact(0),
            "next_bool short-circuits certainty"
        );
        assert_eq!(random_bool_profile(0.5).draws, Draws::exact(1));
        assert_eq!(random_string_profile(5, 25).draws, Draws { min: 2, max: 4 });
        assert_eq!(
            markov_profile(None, 0, 3).draws,
            Draws { min: 1, max: 5 },
            "length draw, then start + one per word"
        );
        assert_eq!(dict_by_row_profile(None, 10).draws, Draws::exact(0));
    }

    #[test]
    fn choose_adds_selector_draw_and_joins_branches() {
        let branches = [
            (0.5, static_profile(&Value::Null)),
            (0.5, random_string_profile(10, 10)),
        ];
        assert_eq!(choose(&branches, 10).draws, Draws { min: 1, max: 3 });
    }

    #[test]
    fn reference_into_empty_table_is_e052() {
        let mut s = two_table_schema();
        s.tables[0].size = Expr::parse("0").unwrap();
        let i = run(&s);
        assert!(codes(&i).contains(&"E052"), "{:?}", i.diagnostics);
    }

    #[test]
    fn draw_budget_overflow_is_w020() {
        let s = Schema::new("deep", 7).table(Table::new("t", "10").field(Field::new(
            "x",
            SqlType::Varchar(64),
            GeneratorSpec::Markov {
                source: MarkovSource::File("m.bin".to_string()),
                min_words: 1,
                max_words: 8000,
            },
        )));
        assert!(codes(&run(&s)).contains(&"W020"));
        assert!(!codes(&run(&two_table_schema())).contains(&"W020"));
    }

    #[test]
    fn closure_depth_two_is_w021() {
        let s = two_table_schema().table(Table::new("grandchild", "10").field(Field::new(
            "fkfk",
            SqlType::BigInt,
            reference("child", "fk"),
        )));
        let i = run(&s);
        let w021: Vec<_> = i.diagnostics.iter().filter(|d| d.code == "W021").collect();
        assert_eq!(w021.len(), 1, "{:?}", i.diagnostics);
        assert!(
            w021[0]
                .message
                .contains("grandchild.fkfk reads child.fk, which itself reads parent.id"),
            "{}",
            w021[0].message
        );
    }

    #[test]
    fn concat_is_unique_with_fixed_prefix_and_unique_tail() {
        let prefix = static_profile(&Value::text("row-"));
        let uniq = id_profile(100);
        let p = concat(&[prefix.clone(), uniq.clone()], 0, true, 100);
        assert_eq!(p.cardinality, Cardinality::Unique);
        // Variable-width prefix kills the proof.
        let var = dict_profile(Some(ResourceInfo {
            entries: 3,
            max_entry_bytes: 5,
            ascii: true,
        }));
        let p = concat(&[var, uniq], 0, true, 100);
        assert_ne!(p.cardinality, Cardinality::Unique);
    }

    #[test]
    fn truncation_is_identity_when_provably_narrower() {
        let p = long_profile(1, 999);
        assert_eq!(truncate(p.clone(), 5), p);
        let text = random_string_profile(10, 50);
        let t = truncate(text, 20);
        assert_eq!(t.width, Width::AtMost(20));
    }
}
