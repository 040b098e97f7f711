//! Byte-oriented formatting kernels for the row hot path.
//!
//! Every function appends to a `Vec<u8>` and produces **exactly** the
//! bytes `std::fmt` would — that is the whole contract. The scheduler's
//! byte-identity tests compare parallel output against an inline
//! reference render, and the fuzz tests in this module compare each
//! kernel against the `format!` rendering it replaces, so the kernels
//! can never drift from the std formatting they shadow.
//!
//! Why not `write!(out, ...)`? Every `write!` on the row path funnels
//! through `core::fmt` — a `dyn`-dispatched state machine with padding
//! and alignment logic that the output path never uses. Here a cell is
//! built in registers and stored once: up to eight digits come out of
//! one SWAR word (a value below 10^8 split into 4+4, 2+2 and 1+1 digit
//! lanes), a date is Neri–Schneider's `Date::to_ymd` plus one such word
//! with its dashes (and quotes) put in place, and the whole rendering is
//! appended as one fixed-width copy cut back to its length
//! (`write_cut`). Short text spans take the same route as 32-byte
//! windows (`write_span`). Buffers that hold the fixed-width overshoot
//! never grow for it; the engine reserves that slack.
//!
//! Floating point takes the first of three tiers that fits:
//! 1. exact integers below 2^53 print their integer digits directly,
//! 2. values with at most nine fractional digits below 2^20 (the common
//!    case for rounded `Double` generators) print via a verified
//!    scaled-integer round trip,
//! 3. everything else is one `write!` through core's float formatter,
//!    the reference itself.
//!
//! Tiers 1–2 are two to three times faster than core on their values;
//! full-precision uniform doubles land in tier 3.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_macros))]

use pdgf_schema::Date;
use std::io::Write as _;

/// Powers of ten that fit in a `u64` (10^0 ..= 10^19).
const POW10_U64: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// 10^8: the values one SWAR digit word holds.
const E8: u64 = 100_000_000;

/// `'0'` in every byte: or-ed onto a word of digit lanes (0..=9 each), it
/// turns them into ASCII digits.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// Append the first `len` bytes of `bytes` as one `N`-byte copy cut back
/// to `len`: a fixed-width store the compiler keeps in registers, where a
/// `len`-byte copy would be a variable-length `memcpy`.
#[inline]
pub(crate) fn write_cut<const N: usize>(out: &mut Vec<u8>, bytes: &[u8; N], len: usize) {
    debug_assert!(len <= N);
    let end = out.len() + len;
    out.extend_from_slice(bytes);
    out.truncate(end);
}

/// Bytes [`write_span`] copies at once.
pub(crate) const WINDOW: usize = 32;

/// Append `bytes[start..end]`: one [`WINDOW`]-byte copy cut back to the
/// span when the span is at most that long and that many bytes of `bytes`
/// remain past `start`, a plain copy otherwise.
#[inline]
pub(crate) fn write_span(out: &mut Vec<u8>, bytes: &[u8], start: usize, end: usize) {
    match bytes.get(start..).and_then(<[u8]>::first_chunk::<WINDOW>) {
        Some(window) if end - start <= WINDOW => write_cut(out, window, end - start),
        _ => out.extend_from_slice(&bytes[start..end]),
    }
}

/// Four 16-bit lanes, each below 100, split into eight byte lanes of one
/// digit each, tens before units: `x / 10` per lane is `x * 103 >> 10`,
/// exact below 100, and no lane's product reaches the next lane.
#[inline]
fn split_pairs(x: u64) -> u64 {
    let tens = ((x * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | ((x - tens * 10) << 8)
}

/// The eight digits of `v < 10^8`, zero-padded, as byte lanes with the
/// first digit in the lowest byte, so the word's little-endian bytes
/// print in order. Two 4-digit halves in 32-bit lanes split into 2-digit
/// lanes (`x / 100` is `x * 10486 >> 20`, exact below 10^4), then into
/// digits.
#[inline]
fn digits8(v: u32) -> u64 {
    debug_assert!(u64::from(v) < E8);
    let x = u64::from(v / 10_000) | (u64::from(v % 10_000) << 32);
    let hundreds = ((x * 10_486) >> 20) & 0x0000_007F_0000_007F;
    split_pairs(hundreds | ((x - hundreds * 100) << 16))
}

/// `v < 10^8` as its digit word in ASCII with the leading zeros shifted
/// out (one digit stays for 0), zero bytes above it, and its length.
#[inline]
fn short_digits(v: u32) -> (u64, usize) {
    let digits = digits8(v);
    // The leading zero digits are the word's low zero bytes.
    let zeros = (digits.trailing_zeros() / 8).min(7);
    ((digits | ZEROS) >> (8 * zeros), 8 - zeros as usize)
}

/// Append the decimal digits of `v`.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    if v < E8 {
        let (word, len) = short_digits(v as u32);
        write_cut(out, &word.to_le_bytes(), len);
    } else {
        write_u64_long(out, v);
    }
}

/// [`write_u64`] of `v >= 10^8`: its leading digits, then one or two
/// full 8-digit words.
#[inline(never)]
fn write_u64_long(out: &mut Vec<u8>, v: u64) {
    let (high, low) = (v / E8, v % E8);
    if high < E8 {
        write_u64(out, high);
    } else {
        // u64::MAX / 10^16 is 1844: the leading digits are one short word.
        write_u64(out, high / E8);
        out.extend_from_slice(&(digits8((high % E8) as u32) | ZEROS).to_le_bytes());
    }
    out.extend_from_slice(&(digits8(low as u32) | ZEROS).to_le_bytes());
}

/// Append the decimal rendering of `v` (sign included), matching
/// `write!("{v}")`.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Append `v` zero-padded on the left to at least `width` digits,
/// matching `write!("{v:0width$}")` for non-negative values.
#[inline]
pub fn write_u64_padded(out: &mut Vec<u8>, v: u64, width: usize) {
    let digits = dec_len(v);
    for _ in digits..width {
        out.push(b'0');
    }
    write_u64(out, v);
}

/// Number of decimal digits in `v` (1 for 0).
#[inline]
fn dec_len(v: u64) -> usize {
    // 20-entry linear scan beats ilog10 on the short values dates and
    // decimals produce; the table is tiny and the loop exits early.
    let mut n = 1;
    while n < 20 && v >= POW10_U64[n] {
        n += 1;
    }
    n
}

/// Append `"true"` / `"false"`, matching `write!("{b}")`.
#[inline]
pub fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Append a fixed-point decimal, matching the `Display` of
/// [`Value::Decimal`](pdgf_schema::Value::Decimal): `unscaled / 10^scale`
/// with exactly `scale` fractional digits.
#[inline]
pub fn write_decimal(out: &mut Vec<u8>, unscaled: i64, scale: u8) {
    if scale == 0 {
        write_i64(out, unscaled);
        return;
    }
    if unscaled < 0 {
        out.push(b'-');
    }
    let mag = unscaled.unsigned_abs();
    // Scale 2 (money columns) below 10^10: the integer part's digit word
    // and `.dd` behind it, stored once.
    if scale == 2 && mag < 100 * E8 {
        let (int, len) = short_digits((mag / 100) as u32);
        let cents = (mag % 100) as u32;
        let point = u32::from(b'.')
            | (cents / 10 + u32::from(b'0')) << 8
            | (cents % 10 + u32::from(b'0')) << 16;
        let word = u128::from(int) | u128::from(point) << (8 * len);
        write_cut(out, &word.to_le_bytes(), len + 3);
        return;
    }
    let pow = 10i64.pow(u32::from(scale)).unsigned_abs();
    write_u64(out, mag / pow);
    out.push(b'.');
    write_u64_padded(out, mag % pow, usize::from(scale));
}

/// `YYYY-MM-DD` of a year in `0..=9999` as ASCII in the low ten bytes.
#[inline]
fn date_word(y: u32, m: u32, d: u32) -> u128 {
    let lanes =
        u64::from(y / 100) | u64::from(y % 100) << 16 | u64::from(m) << 32 | u64::from(d) << 48;
    let digits = split_pairs(lanes) | ZEROS;
    u128::from(digits & 0xFFFF_FFFF)
        | u128::from(b'-') << 32
        | u128::from((digits >> 32) & 0xFFFF) << 40
        | u128::from(b'-') << 56
        | u128::from(digits >> 48) << 64
}

/// Append `YYYY-MM-DD`, matching [`Date`]'s `Display` (`{y:04}-{m:02}-{d:02}`,
/// where negative years keep std's sign-inside-the-padding rendering).
#[inline]
pub fn write_date(out: &mut Vec<u8>, date: Date) {
    let (y, m, d) = date.to_ymd();
    match u32::try_from(y) {
        Ok(y) if y <= 9999 => write_cut(out, &date_word(y, m, d).to_le_bytes(), 10),
        _ => write_date_padded(out, y, m, d),
    }
}

/// [`write_date`] between two `quote` bytes, in the same store for the
/// years it writes as one word.
#[inline]
pub fn write_quoted_date(out: &mut Vec<u8>, date: Date, quote: u8) {
    let (y, m, d) = date.to_ymd();
    match u32::try_from(y) {
        Ok(y) if y <= 9999 => {
            let word = u128::from(quote) | date_word(y, m, d) << 8 | u128::from(quote) << 88;
            write_cut(out, &word.to_le_bytes(), 12);
        }
        _ => {
            out.push(quote);
            write_date_padded(out, y, m, d);
            out.push(quote);
        }
    }
}

/// A date whose year is negative or past 9999, digit by digit.
#[cold]
#[inline(never)]
fn write_date_padded(out: &mut Vec<u8>, y: i32, m: u32, d: u32) {
    if y < 0 {
        // `{:04}` counts the sign toward the width: -5 → "-005".
        out.push(b'-');
        write_u64_padded(out, y.unsigned_abs().into(), 3);
    } else {
        write_u64_padded(out, y as u64, 4);
    }
    out.push(b'-');
    write_u64_padded(out, u64::from(m), 2);
    out.push(b'-');
    write_u64_padded(out, u64::from(d), 2);
}

/// Append `YYYY-MM-DD HH:MM:SS`, matching the `Display` of
/// [`Value::Timestamp`](pdgf_schema::Value::Timestamp) (seconds since the
/// epoch, Euclidean split so pre-1970 instants work).
#[inline]
pub fn write_timestamp(out: &mut Vec<u8>, t: i64) {
    let days = t.div_euclid(86_400);
    let secs = t.rem_euclid(86_400) as u32;
    // Saturate instead of panicking on day counts beyond the i32 calendar:
    // the schema analyzer rejects such TimestampRange bounds (E028), so
    // this clamp is unreachable through validated models.
    write_date(
        out,
        Date(days.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32),
    );
    // ` HH:MM:SS` from the digit word of hours, minutes and seconds.
    let lanes =
        u64::from(secs / 3600) | u64::from(secs % 3600 / 60) << 16 | u64::from(secs % 60) << 32;
    let digits = split_pairs(lanes) | ZEROS;
    let time = u64::from(b' ')
        | (digits & 0xFFFF) << 8
        | u64::from(b':') << 24
        | (digits & 0xFFFF_0000) << 16
        | u64::from(b':') << 48;
    let word = u128::from(time) | u128::from((digits >> 32) & 0xFFFF) << 56;
    write_cut(out, &word.to_le_bytes(), 9);
}

/// Append `v` exactly as `write!("{v}")` renders a raw `f64` — the
/// shortest decimal that round-trips, in std's always-positional form
/// (`NaN`, `inf`, `-inf`, `-0` included).
pub fn write_f64_shortest(out: &mut Vec<u8>, v: f64) {
    if v.is_nan() {
        // std prints NaN unsigned regardless of the sign bit.
        out.extend_from_slice(b"NaN");
        return;
    }
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let v = v.abs();
    if v == 0.0 {
        out.push(b'0');
        return;
    }
    if v.is_infinite() {
        out.extend_from_slice(b"inf");
        return;
    }
    // Tier 1: exact integers below 2^53. The rounding interval around an
    // integral double this small is narrower than ±0.5, so it contains
    // exactly one integer and the shortest decimal is its digit string.
    if v < 9_007_199_254_740_992.0 && v.fract() == 0.0 {
        write_u64(out, v as u64);
        return;
    }
    // Tier 2: at most nine fractional digits, verified by round trip.
    // The magnitude guard keeps the candidate unique (decimal grid step
    // 10^-9 exceeds the rounding interval for |v| < 2^20) and the f64
    // product exact enough that `.round()` lands on that candidate.
    if v < 1_048_576.0 {
        for (p, &pow10) in POW10_U64.iter().enumerate().take(10).skip(1) {
            let pow = pow10 as f64;
            let n = (v * pow).round();
            if n / pow == v {
                let n = n as u64;
                write_u64(out, n / pow10);
                out.push(b'.');
                write_u64_padded(out, n % pow10, p);
                return;
            }
        }
    }
    // Tier 3: core's own shortest-round-trip conversion, the reference
    // the tiers above copy. Writing into a `Vec<u8>` cannot fail.
    #[allow(
        clippy::disallowed_macros,
        reason = "full-precision doubles only: core takes 105-175 ns each, a hand-rolled \
                  Dragon4 took 1.0-1.45 us (uniform doubles in [0, 1000), 2-core x86-64 VM); \
                  same bytes, no allocation"
    )]
    let _ = write!(out, "{v}");
}

/// Append `v` exactly as the `Display` of
/// [`Value::Double`](pdgf_schema::Value::Double) renders it: integral
/// magnitudes below 1e15 keep a trailing `.0` (`{v:.1}`), everything
/// else uses the shortest round-trip form.
pub fn write_f64_display(out: &mut Vec<u8>, v: f64) {
    // NaN/inf fail the fract()==0.0 test (NaN comparisons are false), so
    // they take the shortest-form branch exactly as Value's Display does.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        // |v| < 1e15 < 2^53: the integer is exact in both f64 and i64.
        if v == 0.0 {
            out.extend_from_slice(if v.is_sign_negative() {
                b"-0.0"
            } else {
                b"0.0"
            });
        } else {
            write_i64(out, v as i64);
            out.extend_from_slice(b".0");
        }
    } else {
        write_f64_shortest(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgf_schema::Value;
    use proptest::proptest;

    fn s(f: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        f(&mut out);
        String::from_utf8(out).unwrap()
    }

    /// Every power of ten and its neighbours: both sides of one digit
    /// word's eight digits and of the 16-digit split of longer values.
    #[test]
    fn u64_matches_std_on_boundaries() {
        let mut edges = vec![0u64, 12_345, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for &p in &POW10_U64[1..] {
            edges.extend([p - 1, p, p + 1]);
        }
        for v in edges {
            assert_eq!(s(|o| write_u64(o, v)), format!("{v}"));
        }
    }

    #[test]
    fn i64_matches_std_on_boundaries() {
        for v in [
            0i64,
            1,
            -1,
            -7,
            42,
            -42,
            1_000_000,
            -1_000_000,
            99_999_999,
            -99_999_999,
            100_000_000,
            -100_000_000,
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(s(|o| write_i64(o, v)), format!("{v}"));
        }
    }

    #[test]
    fn padded_matches_std() {
        for (v, w) in [(0u64, 2), (5, 2), (5, 1), (123, 2), (123, 6), (0, 0)] {
            assert_eq!(s(|o| write_u64_padded(o, v, w)), format!("{v:0w$}"));
        }
    }

    #[test]
    fn decimal_matches_value_display() {
        for (unscaled, scale) in [
            (12345i64, 2u8),
            (-12345, 2),
            (5, 2),
            (500, 0),
            (0, 4),
            (-1, 6),
            (i64::MAX, 4),
            (i64::MIN, 4),
            (i64::MIN, 0),
            (99, 2),
            (-99, 2),
            (100, 2),
            // Both sides of scale 2's one-store path (|unscaled| < 10^10).
            (9_999_999_999, 2),
            (-9_999_999_999, 2),
            (10_000_000_000, 2),
            (-10_000_000_000, 2),
            (i64::MAX, 2),
            (i64::MIN, 2),
        ] {
            let v = Value::Decimal { unscaled, scale };
            assert_eq!(s(|o| write_decimal(o, unscaled, scale)), format!("{v}"));
        }
    }

    /// Dates on both sides of the one-word path's years (0 to 9999),
    /// plain and quoted, against `std::fmt` of the civil triple.
    #[test]
    fn dates_match_std_at_the_word_edges() {
        for (y, m, d) in [
            (0, 1, 1),
            (0, 3, 1),
            (999, 12, 31),
            (1000, 1, 1),
            (1970, 1, 1),
            (9999, 12, 31),
            (10_000, 1, 1),
            (123_456, 7, 8),
            (-1, 12, 31),
            (-5, 6, 7),
            (-999, 1, 1),
            (-1000, 1, 1),
            (-10_000, 2, 29),
        ] {
            let date = Date::from_ymd(y, m, d);
            let want = format!("{y:04}-{m:02}-{d:02}");
            assert_eq!(s(|o| write_date(o, date)), want);
            for q in [b'"', b'\''] {
                let q = char::from(q);
                assert_eq!(
                    s(|o| write_quoted_date(o, date, q as u8)),
                    format!("{q}{want}{q}")
                );
            }
            for (h, mi, sec) in [(0, 0, 0), (9, 5, 7), (12, 34, 56), (23, 59, 59)] {
                let t = i64::from(date.0) * 86_400 + h * 3600 + mi * 60 + sec;
                assert_eq!(
                    s(|o| write_timestamp(o, t)),
                    format!("{want} {h:02}:{mi:02}:{sec:02}")
                );
            }
        }
    }

    /// A span is its bytes whether a 32-byte window fits past its start
    /// or not: every span of a 70-byte buffer, those at its end included.
    #[test]
    fn spans_copy_exactly_their_bytes() {
        let bytes: Vec<u8> = (0..70u8).map(|b| b'!' + b).collect();
        for start in 0..=bytes.len() {
            for end in start..=bytes.len() {
                let mut out = b"pre".to_vec();
                write_span(&mut out, &bytes, start, end);
                assert_eq!(out[..3], *b"pre");
                assert_eq!(out[3..], bytes[start..end], "{start}..{end}");
            }
        }
    }

    #[test]
    fn date_matches_value_display_incl_extreme_years() {
        for days in [
            0i32,
            1,
            -1,
            365,
            -365,
            16_238,
            i32::MAX,
            i32::MIN,
            -719_468, // 0000-03-01
            -719_529, // 1-BCE territory: negative year rendering
        ] {
            let v = Value::Date(Date(days));
            assert_eq!(
                s(|o| write_date(o, Date(days))),
                format!("{v}"),
                "days {days}"
            );
        }
    }

    #[test]
    fn timestamp_matches_value_display() {
        for t in [
            0i64,
            1,
            -1,
            86_400 + 3_723,
            -86_400,
            1_700_000_000,
            -62_167_219_200, // year 0
            i64::from(i32::MAX) * 86_400 + 86_399,
            i64::from(i32::MIN) * 86_400,
        ] {
            let v = Value::Timestamp(t);
            assert_eq!(s(|o| write_timestamp(o, t)), format!("{v}"), "t {t}");
        }
    }

    #[test]
    fn f64_shortest_matches_std_on_special_and_boundary_values() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            3.0,
            3.25,
            2.5,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            5e-324,                  // smallest subnormal
            2.2e-308,                // near the subnormal boundary
            9_007_199_254_740_992.0, // 2^53
            9_007_199_254_740_994.0, // 2^53 + 2
            1e15,
            1e16,
            1e22,
            1e-22,
            123_456.789_012_345,
            0.000_123_456,
            1e300,
            1e-300,
            std::f64::consts::PI,
            std::f64::consts::E,
            // Tier 2's magnitude guard, 2^20, and its neighbours.
            1_048_576.0,
            1_048_576f64.next_down(),
            1_048_576f64.next_up(),
            // Nine fractional digits (tier 2) against ten (tier 3).
            0.123_456_789,
            0.123_456_789_1,
            // Tier 1's largest integers.
            9_007_199_254_740_991.0,
            -9_007_199_254_740_991.0,
            // A negative value for tier 3, which writes only the magnitude.
            -0.123_456_789_123_456_78,
        ] {
            assert_eq!(s(|o| write_f64_shortest(o, v)), format!("{v}"), "v = {v:e}");
        }
    }

    #[test]
    fn f64_display_matches_value_display() {
        for v in [
            3.0,
            3.25,
            -0.0,
            0.0,
            -2.0,
            1e14,
            -1e14,
            1e15,
            1e16,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            -123.75,
            2.5,
        ] {
            let val = Value::Double(v);
            assert_eq!(
                s(|o| write_f64_display(o, v)),
                format!("{val}"),
                "v = {v:e}"
            );
        }
    }

    #[test]
    fn f64_shortest_matches_std_across_exponent_sweep() {
        // One value per binary exponent, all with one dense mantissa: the
        // tier guards and tier 3 over every magnitude from the subnormals
        // to 2^1023.
        for exp in -1074i32..=1023 {
            let v = f64::from_bits(((exp + 1074).max(1) as u64) << 52 | 0x000F_F0F0_1234_5678);
            if !v.is_finite() || v == 0.0 {
                continue;
            }
            assert_eq!(s(|o| write_f64_shortest(o, v)), format!("{v}"), "v = {v:e}");
        }
    }

    #[test]
    fn bool_matches_value_display() {
        for b in [true, false] {
            assert_eq!(s(|o| write_bool(o, b)), format!("{}", Value::Bool(b)));
        }
    }

    proptest! {
        #[test]
        fn prop_u64_matches_std(v in proptest::any::<u64>()) {
            proptest::prop_assert_eq!(s(|o| write_u64(o, v)), format!("{v}"));
        }

        #[test]
        fn prop_i64_matches_std(v in proptest::any::<i64>()) {
            proptest::prop_assert_eq!(s(|o| write_i64(o, v)), format!("{v}"));
        }

        #[test]
        fn prop_decimal_matches_value_display(
            unscaled in proptest::any::<i64>(),
            scale in 0u8..18,
        ) {
            let v = Value::Decimal { unscaled, scale };
            proptest::prop_assert_eq!(
                s(|o| write_decimal(o, unscaled, scale)),
                format!("{v}")
            );
        }

        #[test]
        fn prop_date_matches_value_display(days in proptest::any::<i32>()) {
            let v = Value::Date(Date(days));
            proptest::prop_assert_eq!(s(|o| write_date(o, Date(days))), format!("{v}"));
        }

        #[test]
        fn prop_timestamp_matches_value_display(
            days in -5_000_000i64..5_000_000,
            secs in 0i64..86_400,
        ) {
            let t = days * 86_400 + secs;
            let v = Value::Timestamp(t);
            proptest::prop_assert_eq!(s(|o| write_timestamp(o, t)), format!("{v}"));
        }

        #[test]
        fn prop_f64_uniform_matches_std(x in -1.0e6f64..1.0e6) {
            proptest::prop_assert_eq!(s(|o| write_f64_shortest(o, x)), format!("{x}"));
            let val = Value::Double(x);
            proptest::prop_assert_eq!(s(|o| write_f64_display(o, x)), format!("{val}"));
        }

        #[test]
        fn prop_f64_rounded_matches_std(x in -1.0e5f64..1.0e5, p in 0u32..6) {
            // The shape Double generators with `decimals` produce.
            let pow = 10f64.powi(p as i32);
            let x = (x * pow).round() / pow;
            proptest::prop_assert_eq!(s(|o| write_f64_shortest(o, x)), format!("{x}"));
        }

        #[test]
        fn prop_f64_bit_pattern_matches_std(bits in proptest::any::<u64>()) {
            // Any bit pattern: NaNs, infinities, subnormals, the lot.
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(s(|o| write_f64_shortest(o, x)), format!("{x}"));
            let val = Value::Double(x);
            proptest::prop_assert_eq!(s(|o| write_f64_display(o, x)), format!("{val}"));
        }
    }

    /// Exhaustive sweep over many random bit patterns — slower than the
    /// proptest cases, still well under a second in release.
    #[test]
    fn f64_bit_pattern_sweep_matches_std() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..20_000 {
            // SplitMix64 stream of arbitrary bit patterns.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let v = f64::from_bits(z ^ (z >> 31));
            assert_eq!(
                s(|o| write_f64_shortest(o, v)),
                format!("{v}"),
                "bits {:#018x}",
                v.to_bits()
            );
        }
    }
}
