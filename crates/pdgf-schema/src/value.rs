//! The runtime cell type.
//!
//! Generators produce [`Value`]s; formatting to bytes happens once, later,
//! in the output system ("lazy formatting" in the paper). `Value` therefore
//! stays *typed*: a date is a day count, a decimal is an unscaled integer,
//! and only the formatter decides how they look.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A calendar date, stored as days since 1970-01-01 (can be negative).
///
/// [`to_ymd`](Self::to_ymd) is Neri & Schneider's civil-from-days
/// ("Euclidean affine functions and their application to calendar
/// algorithms"); [`from_ymd`](Self::from_ymd) is Howard Hinnant's
/// days-from-civil. Both cover every `i32` day of the proleptic Gregorian
/// calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

/// Whole 400-year eras [`Date::to_ymd`] shifts a day count by, so that
/// every `i32` day lands on a non-negative count: 14,700 eras are
/// 2,147,625,900 days, more than `-i32::MIN` minus the epoch offset.
const SHIFT_ERAS: u64 = 14_700;

impl Date {
    /// Build from a civil year/month/day triple. Panics on out-of-range
    /// month/day (callers validate configuration, not data).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        let y = i64::from(year) - i64::from(month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as u64;
        let doy = (153 * (if month > 2 { month - 3 } else { month + 9 }) as u64 + 2) / 5
            + u64::from(day)
            - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date((era * 146_097 + doe as i64 - 719_468) as i32)
    }

    /// Decompose into (year, month, day).
    ///
    /// Neri–Schneider: shift the day count to March 1 of year
    /// `-400 * SHIFT_ERAS`, split it into centuries and then years with
    /// Euclidean affine maps (a multiply and a shift each), read month and
    /// day off the day of the March-based year with one more, and map back
    /// to January-based years.
    #[inline]
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let n = (i64::from(self.0) + 719_468 + 146_097 * SHIFT_ERAS as i64) as u64;
        // Century and day of century.
        let n1 = 4 * n + 3;
        let century = n1 / 146_097;
        let day_of_century = (n1 % 146_097 / 4) as u32;
        // Year of century and day of (March-based) year.
        let p2 = 2_939_745 * u64::from(4 * day_of_century + 3);
        let year_of_century = p2 >> 32;
        // The low 32 bits of p2 carry the day of the year.
        let day_of_year = (p2 as u32) / 2_939_745 / 4;
        // Month (3..=14) and day of month.
        let n3 = 2_141 * day_of_year + 197_913;
        let (month, day) = (n3 >> 16, (n3 & 0xFFFF) / 2_141 + 1);
        let january = day_of_year >= 306;
        let year = 100 * century + year_of_century + u64::from(january);
        let month = if january { month - 12 } else { month };
        ((year as i64 - 400 * SHIFT_ERAS as i64) as i32, month, day)
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse_iso(s: &str) -> Option<Self> {
        let mut parts = s.splitn(3, '-');
        // A leading '-' would make the first part empty; negative years are
        // not produced by any supported source, so reject them.
        let y: i32 = parts.next()?.parse().ok()?;
        let m: u32 = parts.next()?.parse().ok()?;
        let d: u32 = parts.next()?.parse().ok()?;
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(Self::from_ymd(y, m, d))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A generated cell value.
///
/// Text is reference counted so dictionary and static generators can hand
/// out shared entries without copying on every row.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any integer type (SMALLINT..BIGINT).
    Long(i64),
    /// Floating point (REAL/DOUBLE).
    Double(f64),
    /// Fixed-point DECIMAL: `unscaled * 10^-scale`.
    Decimal {
        /// The unscaled integer value.
        unscaled: i64,
        /// Number of digits right of the decimal point.
        scale: u8,
    },
    /// Calendar date.
    Date(Date),
    /// Timestamp as seconds since 1970-01-01 00:00:00.
    Timestamp(i64),
    /// Character data.
    Text(Arc<str>),
}

impl Value {
    /// Text value from anything string-like.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// Decimal constructor.
    pub fn decimal(unscaled: i64, scale: u8) -> Self {
        Value::Decimal { unscaled, scale }
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers, doubles, decimals, bools, dates, and
    /// timestamps all have a natural numeric interpretation (used by
    /// statistics and aggregates). Text and NULL do not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Null | Value::Text(_) => None,
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            Value::Long(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Decimal { unscaled, scale } => {
                Some(*unscaled as f64 / 10f64.powi(i32::from(*scale)))
            }
            Value::Date(d) => Some(f64::from(d.0)),
            Value::Timestamp(t) => Some(*t as f64),
        }
    }

    /// Integer view, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Long(v) => Some(*v),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Date(d) => Some(i64::from(d.0)),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// String view of text values.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style comparison: NULLs sort first and compare equal to each
    /// other, numerics compare numerically across type families, text
    /// compares lexicographically. Cross-family (numeric vs text)
    /// comparisons order numerics first to keep sorting total.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Text(a), Text(b)) => a.as_ref().cmp(b.as_ref()),
            (Text(_), _) => Ordering::Greater,
            (_, Text(_)) => Ordering::Less,
            (a, b) => {
                let (x, y) = (
                    a.as_f64().expect("non-null non-text is numeric"),
                    b.as_f64().expect("non-null non-text is numeric"),
                );
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// SQL equality under [`Value::sql_cmp`].
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Ordering::Equal
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_eq(other)
    }
}

/// A borrowed view of a cell value.
///
/// The columnar engine stores primitives unboxed and text in shared
/// arenas; `ValueRef` is the common currency formatters consume, so the
/// row path (via [`From<&Value>`]) and the columnar path (via
/// [`ColumnVec::value_ref`](crate::column::ColumnVec::value_ref)) feed the
/// exact same per-cell byte kernels — byte identity by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any integer type.
    Long(i64),
    /// Floating point.
    Double(f64),
    /// Fixed-point DECIMAL: `unscaled * 10^-scale`.
    Decimal {
        /// The unscaled integer value.
        unscaled: i64,
        /// Number of digits right of the decimal point.
        scale: u8,
    },
    /// Calendar date.
    Date(Date),
    /// Timestamp as seconds since the epoch.
    Timestamp(i64),
    /// Character data, borrowed from a `Value` or a column arena.
    Text(&'a str),
}

impl ValueRef<'_> {
    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Materialize an owned [`Value`] (allocates for text).
    pub fn to_value(&self) -> Value {
        match *self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Long(v) => Value::Long(v),
            ValueRef::Double(v) => Value::Double(v),
            ValueRef::Decimal { unscaled, scale } => Value::Decimal { unscaled, scale },
            ValueRef::Date(d) => Value::Date(d),
            ValueRef::Timestamp(t) => Value::Timestamp(t),
            ValueRef::Text(s) => Value::text(s),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Long(v) => ValueRef::Long(*v),
            Value::Double(v) => ValueRef::Double(*v),
            Value::Decimal { unscaled, scale } => ValueRef::Decimal {
                unscaled: *unscaled,
                scale: *scale,
            },
            Value::Date(d) => ValueRef::Date(*d),
            Value::Timestamp(t) => ValueRef::Timestamp(*t),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

impl fmt::Display for Value {
    /// Canonical textual form — what the CSV formatter emits for a cell.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Decimal { unscaled, scale } => {
                if *scale == 0 {
                    return write!(f, "{unscaled}");
                }
                let pow = 10i64.pow(u32::from(*scale));
                let sign = if *unscaled < 0 { "-" } else { "" };
                let mag = unscaled.unsigned_abs();
                let int = mag / pow.unsigned_abs();
                let frac = mag % pow.unsigned_abs();
                write!(f, "{sign}{int}.{frac:0width$}", width = usize::from(*scale))
            }
            Value::Date(d) => write!(f, "{d}"),
            Value::Timestamp(t) => {
                let days = t.div_euclid(86_400);
                let secs = t.rem_euclid(86_400);
                let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
                write!(
                    f,
                    "{} {h:02}:{m:02}:{s:02}",
                    Date(i32::try_from(days).expect("timestamp out of date range"))
                )
            }
            Value::Text(s) => f.write_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrips_ymd() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2014, 11, 30),
            (1992, 2, 29),
            (2000, 2, 29),
            (1900, 12, 31),
            (1, 1, 1),
            (9999, 12, 31),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.to_ymd(), (y, m, d));
        }
    }

    /// Hinnant's civil-from-days, the `to_ymd` Neri–Schneider replaced:
    /// an independent reference, since `Date`'s `Display` (and every
    /// formatter test pinned to it) calls `to_ymd` itself.
    fn hinnant_to_ymd(days: i32) -> (i32, u32, u32) {
        let z = i64::from(days) + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = (z - era * 146_097) as u64;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe as i64 + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        ((y + i64::from(m <= 2)) as i32, m, d)
    }

    /// `to_ymd` equals the Hinnant reference, and `from_ymd` inverts it,
    /// on every day within ±3,000,000 of the epoch (years −6244 to 10183),
    /// at both ends of `i32`, and on 10,000 seeded days anywhere in `i32`.
    #[test]
    fn to_ymd_matches_hinnant_and_round_trips() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let far = std::iter::repeat_with(|| {
            // SplitMix64, folded to an i32 day.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as i32
        })
        .take(10_000);
        let days = (-3_000_000..=3_000_000)
            .chain([i32::MIN, i32::MIN + 1, i32::MAX - 1, i32::MAX])
            .chain(far);
        for day in days {
            let ymd = Date(day).to_ymd();
            assert_eq!(ymd, hinnant_to_ymd(day), "day {day}");
            assert_eq!(Date::from_ymd(ymd.0, ymd.1, ymd.2), Date(day), "day {day}");
        }
    }

    #[test]
    fn date_epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).0, 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).0, -1);
    }

    #[test]
    fn date_display_and_parse() {
        let d = Date::from_ymd(1998, 12, 1);
        assert_eq!(d.to_string(), "1998-12-01");
        assert_eq!(Date::parse_iso("1998-12-01"), Some(d));
        assert_eq!(Date::parse_iso("not-a-date"), None);
        assert_eq!(Date::parse_iso("1998-13-01"), None);
        assert_eq!(Date::parse_iso("1998-00-01"), None);
    }

    #[test]
    fn date_ordering_is_chronological() {
        assert!(Date::from_ymd(1995, 1, 1) < Date::from_ymd(1995, 1, 2));
        assert!(Date::from_ymd(1994, 12, 31) < Date::from_ymd(1995, 1, 1));
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Value::decimal(12345, 2).to_string(), "123.45");
        assert_eq!(Value::decimal(-12345, 2).to_string(), "-123.45");
        assert_eq!(Value::decimal(5, 2).to_string(), "0.05");
        assert_eq!(Value::decimal(500, 0).to_string(), "500");
        assert_eq!(Value::decimal(0, 4).to_string(), "0.0000");
    }

    #[test]
    fn double_display_keeps_trailing_point() {
        assert_eq!(Value::Double(3.0).to_string(), "3.0");
        assert_eq!(Value::Double(3.25).to_string(), "3.25");
    }

    #[test]
    fn timestamp_display() {
        // 1970-01-02 01:02:03
        let t = Value::Timestamp(86_400 + 3723);
        assert_eq!(t.to_string(), "1970-01-02 01:02:03");
        let neg = Value::Timestamp(-1);
        assert_eq!(neg.to_string(), "1969-12-31 23:59:59");
    }

    #[test]
    fn null_displays_empty() {
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Long(7).as_f64(), Some(7.0));
        assert_eq!(Value::decimal(150, 2).as_f64(), Some(1.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::text("x").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Date(Date(10)).as_i64(), Some(10));
        assert_eq!(Value::Double(1.5).as_i64(), None);
    }

    #[test]
    fn sql_cmp_orders_nulls_first_and_mixed_types() {
        let mut vals = [
            Value::text("b"),
            Value::Long(2),
            Value::Null,
            Value::Double(1.5),
            Value::text("a"),
        ];
        vals.sort_by(|a, b| a.sql_cmp(b));
        let shown: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
        assert_eq!(shown, vec!["", "1.5", "2", "a", "b"]);
    }

    #[test]
    fn sql_eq_crosses_numeric_families() {
        assert!(Value::Long(3).sql_eq(&Value::Double(3.0)));
        assert!(Value::decimal(300, 2).sql_eq(&Value::Long(3)));
        assert!(!Value::Long(3).sql_eq(&Value::text("3")));
        assert!(Value::Null.sql_eq(&Value::Null));
    }
}
