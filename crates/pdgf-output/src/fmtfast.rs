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
//! Floating point uses a three-tier strategy:
//! 1. exact integers below 2^53 print their integer digits directly,
//! 2. values with at most nine fractional digits (the common case for
//!    rounded `Double` generators) print via a verified scaled-integer
//!    round trip,
//! 3. everything else falls back to an exact Dragon4 / Burger–Dybvig
//!    shortest-round-trip conversion over a fixed-size bignum.
//!
//! Tier 3 is slower than tiers 1–2 but allocation-free and byte-exact;
//! full-precision uniform doubles land there.

use pdgf_schema::{Date, Value, ValueRef};

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

/// Append a fixed-point decimal, matching [`Value::Decimal`]'s `Display`:
/// `unscaled / 10^scale` with exactly `scale` fractional digits.
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

/// Append `YYYY-MM-DD HH:MM:SS`, matching [`Value::Timestamp`]'s `Display`
/// (seconds since the epoch, Euclidean split so pre-1970 instants work).
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
    // Tier 3: exact shortest-round-trip conversion.
    let mut digits = [0u8; 20];
    let (len, k) = dragon::shortest(v, &mut digits);
    render_positional(out, &digits[..len], k);
}

/// Append `v` exactly as [`Value::Double`]'s `Display` renders it:
/// integral magnitudes below 1e15 keep a trailing `.0` (`{v:.1}`),
/// everything else uses the shortest round-trip form.
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

/// Render shortest digits `d[0..n]` with value `0.d₁d₂…dₙ × 10^k` the way
/// std's float `Display` does: always positional, never scientific.
fn render_positional(out: &mut Vec<u8>, digits: &[u8], k: i32) {
    let n = digits.len() as i32;
    if k <= 0 {
        out.extend_from_slice(b"0.");
        for _ in k..0 {
            out.push(b'0');
        }
        out.extend_from_slice(digits);
    } else if k >= n {
        out.extend_from_slice(digits);
        for _ in n..k {
            out.push(b'0');
        }
    } else {
        out.extend_from_slice(&digits[..k as usize]);
        out.push(b'.');
        out.extend_from_slice(&digits[k as usize..]);
    }
}

/// Append the exact `Display` rendering of any [`Value`].
#[inline]
pub fn write_value(out: &mut Vec<u8>, v: &Value) {
    write_value_ref(out, ValueRef::from(v));
}

/// Append the exact `Display` rendering of a borrowed [`ValueRef`] — the
/// shared per-cell kernel of the row and columnar formatting paths.
#[inline]
pub fn write_value_ref(out: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => {}
        ValueRef::Bool(b) => write_bool(out, b),
        ValueRef::Long(n) => write_i64(out, n),
        ValueRef::Double(x) => write_f64_display(out, x),
        ValueRef::Decimal { unscaled, scale } => write_decimal(out, unscaled, scale),
        ValueRef::Date(d) => write_date(out, d),
        ValueRef::Timestamp(t) => write_timestamp(out, t),
        ValueRef::Text(s) => out.extend_from_slice(s.as_bytes()),
    }
}

/// Exact shortest-round-trip decimal conversion (Burger–Dybvig "free
/// format" / Dragon4) over a fixed-size 1280-bit integer, allocation-free.
mod dragon {
    /// 20 × 64-bit little-endian limbs: enough for `f · 2^1026 · 10^17`
    /// at the large end and `f · 2 · 10^323 · 10` at the subnormal end.
    #[derive(Clone, Copy)]
    struct Big {
        limbs: [u64; 20],
        /// Number of limbs in use (limbs[len..] are zero).
        len: usize,
    }

    impl Big {
        fn from_u64(v: u64) -> Self {
            let mut limbs = [0u64; 20];
            limbs[0] = v;
            Big {
                limbs,
                len: usize::from(v != 0),
            }
        }

        fn is_zero(&self) -> bool {
            self.len == 0
        }

        fn mul_small(&mut self, m: u64) {
            let mut carry = 0u128;
            for limb in self.limbs[..self.len].iter_mut() {
                let prod = u128::from(*limb) * u128::from(m) + carry;
                *limb = prod as u64;
                carry = prod >> 64;
            }
            while carry != 0 {
                assert!(self.len < 20, "bignum overflow");
                self.limbs[self.len] = carry as u64;
                self.len += 1;
                carry >>= 64;
            }
            if m == 0 {
                self.len = 0;
            }
            self.trim();
        }

        fn shl(&mut self, bits: u32) {
            let words = (bits / 64) as usize;
            let rem = bits % 64;
            if self.is_zero() {
                return;
            }
            let new_len = self.len + words + usize::from(rem != 0);
            assert!(new_len <= 20, "bignum overflow");
            if rem == 0 {
                for i in (0..self.len).rev() {
                    self.limbs[i + words] = self.limbs[i];
                }
            } else {
                self.limbs[self.len + words] = self.limbs[self.len - 1] >> (64 - rem);
                for i in (1..self.len).rev() {
                    self.limbs[i + words] =
                        (self.limbs[i] << rem) | (self.limbs[i - 1] >> (64 - rem));
                }
                self.limbs[words] = self.limbs[0] << rem;
            }
            for limb in &mut self.limbs[..words] {
                *limb = 0;
            }
            self.len = new_len;
            self.trim();
        }

        /// Multiply by 10^p in u64-sized chunks (10^19 fits a limb).
        fn mul_pow10(&mut self, mut p: u32) {
            while p >= 19 {
                self.mul_small(super::POW10_U64[19]);
                p -= 19;
            }
            if p > 0 {
                self.mul_small(super::POW10_U64[p as usize]);
            }
        }

        fn trim(&mut self) {
            while self.len > 0 && self.limbs[self.len - 1] == 0 {
                self.len -= 1;
            }
        }

        fn cmp(&self, other: &Big) -> std::cmp::Ordering {
            self.len.cmp(&other.len).then_with(|| {
                for i in (0..self.len).rev() {
                    let ord = self.limbs[i].cmp(&other.limbs[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            })
        }

        /// `self -= other`; requires `self >= other`.
        fn sub(&mut self, other: &Big) {
            let mut borrow = false;
            for i in 0..self.len {
                let rhs = if i < other.len { other.limbs[i] } else { 0 };
                let (d, b1) = self.limbs[i].overflowing_sub(rhs);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                self.limbs[i] = d;
                borrow = b1 || b2;
            }
            debug_assert!(!borrow, "bignum sub underflow");
            self.trim();
        }

        /// `self + other` (by value — both fit comfortably in 20 limbs).
        fn add(&self, other: &Big) -> Big {
            let mut out = *self;
            let mut carry = false;
            let n = out.len.max(other.len);
            for i in 0..n {
                let rhs = if i < other.len { other.limbs[i] } else { 0 };
                let (s, c1) = out.limbs[i].overflowing_add(rhs);
                let (s, c2) = s.overflowing_add(u64::from(carry));
                out.limbs[i] = s;
                carry = c1 || c2;
            }
            out.len = n;
            if carry {
                assert!(n < 20, "bignum overflow");
                out.limbs[n] = 1;
                out.len = n + 1;
            }
            out
        }
    }

    /// Shortest round-trip digits for finite positive `v`: fills `digits`
    /// with ASCII digits and returns `(len, k)` where the value is
    /// `0.d₁…dₙ × 10^k`. Matches std's `Display` digit selection: the
    /// fewest digits that parse back to `v`, ties on the last digit
    /// broken toward the nearer candidate (half-way rounds up).
    pub(super) fn shortest(v: f64, digits: &mut [u8; 20]) -> (usize, i32) {
        debug_assert!(v.is_finite() && v > 0.0);
        let bits = v.to_bits();
        let exp_field = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // (f, e) with v = f · 2^e; subnormals have no hidden bit.
        let (f, e) = if exp_field == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp_field - 1075)
        };
        // Round-trip interval boundaries are inclusive iff the mantissa
        // is even (IEEE round-half-even admits the boundary itself).
        let inclusive = f & 1 == 0;
        // The gap to the next-lower float halves when f is a power of
        // two (except at the bottom exponent): boundary_minus = gap/4.
        let narrow_below = frac == 0 && exp_field > 1;

        // Scale everything to integers: v = r/s, half-gaps m±/s.
        let (mut r, mut s, mut m_plus, mut m_minus);
        if e >= 0 {
            let be_shift = e as u32;
            if !narrow_below {
                r = Big::from_u64(f);
                r.shl(be_shift + 1);
                s = Big::from_u64(2);
                m_plus = Big::from_u64(1);
                m_plus.shl(be_shift);
                m_minus = m_plus;
            } else {
                r = Big::from_u64(f);
                r.shl(be_shift + 2);
                s = Big::from_u64(4);
                m_plus = Big::from_u64(1);
                m_plus.shl(be_shift + 1);
                m_minus = Big::from_u64(1);
                m_minus.shl(be_shift);
            }
        } else if !narrow_below {
            r = Big::from_u64(f);
            r.shl(1);
            s = Big::from_u64(1);
            s.shl((1 - e) as u32);
            m_plus = Big::from_u64(1);
            m_minus = Big::from_u64(1);
        } else {
            r = Big::from_u64(f);
            r.shl(2);
            s = Big::from_u64(1);
            s.shl((2 - e) as u32);
            m_plus = Big::from_u64(2);
            m_minus = Big::from_u64(1);
        }

        // `in_hi(a, s)`: does a/s reach past the upper scaling bound?
        let past = |a: &Big, s: &Big| {
            let ord = a.cmp(s);
            ord == std::cmp::Ordering::Greater || (inclusive && ord == std::cmp::Ordering::Equal)
        };

        // Estimate k = ceil(log10(v)) and fix up exactly: find the k with
        // 10^(k-1) <= v+ < 10^k (bounds per `inclusive`), scaling s or
        // r/m± so the first generated digit is the leading digit.
        let mut k = (v.log10().floor() as i32) + 1;
        if k > 0 {
            s.mul_pow10(k as u32);
        } else if k < 0 {
            let p = (-k) as u32;
            r.mul_pow10(p);
            m_plus.mul_pow10(p);
            m_minus.mul_pow10(p);
        }
        loop {
            if past(&r.add(&m_plus), &s) {
                s.mul_small(10);
                k += 1;
                continue;
            }
            let mut hi10 = r.add(&m_plus);
            hi10.mul_small(10);
            if !past(&hi10, &s) {
                r.mul_small(10);
                m_plus.mul_small(10);
                m_minus.mul_small(10);
                k -= 1;
                continue;
            }
            break;
        }

        // Digit generation: emit while neither boundary is crossed.
        let mut len = 0usize;
        loop {
            r.mul_small(10);
            m_plus.mul_small(10);
            m_minus.mul_small(10);
            let mut d = 0u8;
            while r.cmp(&s) != std::cmp::Ordering::Less {
                r.sub(&s);
                d += 1;
            }
            debug_assert!(d <= 9, "digit overflow");
            let low = {
                let ord = r.cmp(&m_minus);
                ord == std::cmp::Ordering::Less || (inclusive && ord == std::cmp::Ordering::Equal)
            };
            let high = past(&r.add(&m_plus), &s);
            if !low && !high {
                digits[len] = b'0' + d;
                len += 1;
                continue;
            }
            let rounded_up = if low && !high {
                false
            } else if high && !low {
                true
            } else {
                // Both candidates round-trip: take the nearer one
                // (remainder vs half a digit unit; halfway rounds up).
                let mut twice = r;
                twice.mul_small(2);
                twice.cmp(&s) != std::cmp::Ordering::Less
            };
            digits[len] = b'0' + d + u8::from(rounded_up);
            len += 1;
            // Rounding 9 up would need a carry into earlier digits; it
            // cannot happen: if d == 9 the emitted window sits at the
            // top of the decade, and the scaling invariant keeps v+
            // under the next power of ten, so `high` selects d+1 only
            // for d <= 8.
            debug_assert!(digits[len - 1] <= b'9', "digit carry");
            return (len, k);
        }
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
        // One value per binary exponent, plus neighbors: exercises the
        // dragon fallback's scaling estimate over the whole range.
        for exp in -1074i32..=1023 {
            let v = f64::from_bits(((exp + 1074).max(1) as u64) << 52 | 0x000F_F0F0_1234_5678);
            if !v.is_finite() || v == 0.0 {
                continue;
            }
            assert_eq!(s(|o| write_f64_shortest(o, v)), format!("{v}"), "v = {v:e}");
        }
    }

    #[test]
    fn value_writer_matches_display_for_every_variant() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Long(-7),
            Value::Double(2.5),
            Value::Decimal {
                unscaled: -12345,
                scale: 2,
            },
            Value::Date(Date(16_238)),
            Value::Timestamp(86_400 + 3_723),
            Value::text("héllo → world"),
        ];
        for v in &values {
            assert_eq!(s(|o| write_value(o, v)), format!("{v}"), "{v:?}");
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
