//! The type system shared by tables, expressions and join keys.
//!
//! TPC-H needs exactly: 32/64-bit integers, fixed-point decimals (money),
//! dates, strings and booleans. Floats exist for completeness of the
//! expression evaluator. All types are `Copy` except strings, which live in
//! column-owned arenas (see [`crate::column::StrColumn`]).

use std::fmt;

/// Physical data type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 1-byte boolean.
    Bool,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// Days since 1970-01-01, stored as `i32`.
    Date,
    /// Fixed-point decimal with two fractional digits, stored as `i64`
    /// (TPC-H money type: `DECIMAL(15,2)`).
    Decimal,
    /// Variable-length UTF-8 string.
    Str,
}

impl DataType {
    /// Width of one value when materialized into a fixed-width row slot.
    ///
    /// Strings are materialized out-of-line; their in-row slot is an 8-byte
    /// arena reference (offset + length packed), which is how Umbra stores
    /// long strings in materialized tuples as well.
    pub fn slot_width(self) -> usize {
        match self {
            DataType::Bool => 1,
            DataType::Int32 | DataType::Date => 4,
            DataType::Int64 | DataType::Float64 | DataType::Decimal | DataType::Str => 8,
        }
    }

    /// True for types whose comparison/grouping is integer-like.
    pub fn is_integer_like(self) -> bool {
        matches!(
            self,
            DataType::Int32 | DataType::Int64 | DataType::Date | DataType::Decimal
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int32 => "INT",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Date => "DATE",
            DataType::Decimal => "DECIMAL(15,2)",
            DataType::Str => "VARCHAR",
        };
        f.write_str(s)
    }
}

/// A date, stored as days since the Unix epoch (1970-01-01).
///
/// TPC-H only needs construction from year/month/day literals, comparison,
/// year extraction and interval arithmetic in whole days/months/years; this
/// type implements a proleptic Gregorian calendar sufficient for the
/// benchmark's 1992–1998 date range (and far beyond).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

const DAYS_PER_400Y: i64 = 146_097;
const DAYS_PER_100Y: i64 = 36_524;
const DAYS_PER_4Y: i64 = 1_461;

impl Date {
    /// Construct from a calendar date. Panics on out-of-range month/day.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            (1..=31).contains(&day),
            "day out of range: {day} ({year}-{month})"
        );
        // Days since epoch via the civil-from-days inverse (Howard Hinnant's
        // algorithm), which is exact for the whole proleptic calendar.
        let y = i64::from(year) - i64::from(month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = i64::from((month + 9) % 12);
        let doy = (153 * mp + 2) / 5 + i64::from(day) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Date((era * DAYS_PER_400Y + doe - 719_468) as i32)
    }

    /// Decompose into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        let z = i64::from(self.0) + 719_468;
        let era = if z >= 0 { z } else { z - DAYS_PER_400Y + 1 } / DAYS_PER_400Y;
        let doe = z - era * DAYS_PER_400Y;
        let yoe =
            (doe - doe / (DAYS_PER_4Y - 1) + doe / DAYS_PER_100Y - doe / (DAYS_PER_400Y - 1)) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        ((y + i64::from(m <= 2)) as i32, m, d)
    }

    /// Calendar year of this date.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Add whole days (may be negative).
    pub fn add_days(self, days: i32) -> Date {
        Date(self.0 + days)
    }

    /// Add whole months, clamping the day-of-month (SQL interval semantics).
    pub fn add_months(self, months: i32) -> Date {
        let (y, m, d) = self.ymd();
        let total = y * 12 + (m as i32 - 1) + months;
        let ny = total.div_euclid(12);
        let nm = (total.rem_euclid(12) + 1) as u32;
        let max_d = days_in_month(ny, nm);
        Date::from_ymd(ny, nm, d.min(max_d))
    }

    /// Add whole years (clamping Feb 29 → Feb 28 when needed).
    pub fn add_years(self, years: i32) -> Date {
        self.add_months(years * 12)
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("invalid month {month}"),
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// Fixed-point decimal with two fractional digits, stored as scaled `i64`.
///
/// `Decimal(12345)` represents `123.45`. Multiplication of two decimals
/// rescales (rounding toward zero), matching how TPC-H reference answers are
/// computed with `DECIMAL(15,2)` arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Decimal(pub i64);

impl Decimal {
    pub const SCALE: i64 = 100;

    /// From an integral value (e.g. `Decimal::from_int(5)` is `5.00`).
    pub fn from_int(v: i64) -> Decimal {
        Decimal(v * Self::SCALE)
    }

    /// From cents, i.e. the raw scaled representation.
    pub fn from_scaled(v: i64) -> Decimal {
        Decimal(v)
    }

    /// Parse from `whole.frac` with up to two fractional digits.
    pub fn from_parts(whole: i64, cents: i64) -> Decimal {
        debug_assert!((0..100).contains(&cents));
        Decimal(whole * Self::SCALE + if whole < 0 { -cents } else { cents })
    }

    /// Lossy conversion to `f64` (display / final result rows only).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE as f64
    }

    /// Decimal × decimal with rescaling (truncating, like integer SQL engines).
    #[allow(clippy::should_implement_trait)] // rescaling semantics differ from Mul
    pub fn mul(self, rhs: Decimal) -> Decimal {
        Decimal((i128::from(self.0) * i128::from(rhs.0) / i128::from(Self::SCALE)) as i64)
    }

    /// Decimal ÷ decimal with rescaling (truncating).
    #[allow(clippy::should_implement_trait)] // rescaling semantics differ from Div
    pub fn div(self, rhs: Decimal) -> Decimal {
        Decimal((i128::from(self.0) * i128::from(Self::SCALE) / i128::from(rhs.0)) as i64)
    }
}

impl std::ops::Add for Decimal {
    type Output = Decimal;
    fn add(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Decimal {
    type Output = Decimal;
    fn sub(self, rhs: Decimal) -> Decimal {
        Decimal(self.0 - rhs.0)
    }
}

impl std::ops::Neg for Decimal {
    type Output = Decimal;
    fn neg(self) -> Decimal {
        Decimal(-self.0)
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}{}.{:02}", abs / 100, abs % 100)
    }
}

/// A single dynamically-typed value. Used at the *edges* of the system
/// (constants in expressions, final result rows, test assertions) — never on
/// the per-tuple hot path.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    Bool(bool),
    Int32(i32),
    Int64(i64),
    Float64(f64),
    Date(Date),
    Decimal(Decimal),
    Str(String),
    /// SQL NULL (produced by outer joins and empty aggregates).
    #[default]
    Null,
}

impl Value {
    /// The data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int32(_) => Some(DataType::Int32),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Date(_) => Some(DataType::Date),
            Value::Decimal(_) => Some(DataType::Decimal),
            Value::Str(_) => Some(DataType::Str),
            Value::Null => None,
        }
    }

    /// Interpret as `i64` for integer-like types; panics otherwise.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int32(v) => i64::from(*v),
            Value::Int64(v) => *v,
            Value::Date(d) => i64::from(d.0),
            Value::Decimal(d) => d.0,
            Value::Bool(b) => i64::from(*b),
            other => panic!("as_i64 on non-integer value {other:?}"),
        }
    }

    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Float64(v) => *v,
            other => panic!("as_f64 on non-float value {other:?}"),
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("as_str on non-string value {other:?}"),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v:.4}"),
            Value::Date(v) => write!(f, "{v}"),
            Value::Decimal(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_epoch() {
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date(0).ymd(), (1970, 1, 1));
    }

    #[test]
    fn date_roundtrip_tpch_range() {
        // Every day of the TPC-H date range must round-trip exactly.
        let start = Date::from_ymd(1992, 1, 1);
        let end = Date::from_ymd(1998, 12, 31);
        for d in start.0..=end.0 {
            let (y, m, day) = Date(d).ymd();
            assert_eq!(Date::from_ymd(y, m, day).0, d);
        }
    }

    #[test]
    fn date_known_values() {
        // Cross-checked against `date -d ... +%s / 86400`.
        assert_eq!(Date::from_ymd(1995, 3, 15).0, 9204);
        assert_eq!(Date::from_ymd(1998, 12, 1).0, 10561);
        assert_eq!(Date::from_ymd(2000, 2, 29).0, 11016);
    }

    #[test]
    fn date_year_extraction() {
        assert_eq!(Date::from_ymd(1996, 7, 4).year(), 1996);
        assert_eq!(Date::from_ymd(1992, 1, 1).year(), 1992);
        assert_eq!(Date::from_ymd(1992, 12, 31).year(), 1992);
    }

    #[test]
    fn date_interval_arithmetic() {
        let d = Date::from_ymd(1995, 1, 31);
        assert_eq!(d.add_months(1), Date::from_ymd(1995, 2, 28));
        assert_eq!(d.add_months(3), Date::from_ymd(1995, 4, 30));
        assert_eq!(d.add_years(1), Date::from_ymd(1996, 1, 31));
        assert_eq!(
            Date::from_ymd(1996, 2, 29).add_years(1),
            Date::from_ymd(1997, 2, 28)
        );
        assert_eq!(d.add_days(1), Date::from_ymd(1995, 2, 1));
        assert_eq!(
            Date::from_ymd(1995, 3, 15).add_months(-3),
            Date::from_ymd(1994, 12, 15)
        );
    }

    #[test]
    fn date_ordering_matches_calendar() {
        assert!(Date::from_ymd(1994, 12, 31) < Date::from_ymd(1995, 1, 1));
        assert!(Date::from_ymd(1995, 1, 1) < Date::from_ymd(1995, 1, 2));
    }

    #[test]
    fn decimal_arithmetic() {
        let a = Decimal::from_parts(12, 34); // 12.34
        let b = Decimal::from_int(2); // 2.00
        assert_eq!((a + b).0, 1434);
        assert_eq!((a - b).0, 1034);
        assert_eq!(a.mul(b).0, 2468);
        assert_eq!(a.div(b).0, 617);
        assert_eq!((-a).0, -1234);
    }

    #[test]
    fn decimal_mul_no_overflow_on_large_money() {
        // SF-100 revenue sums exceed i64 when squared naively; mul must go
        // through i128.
        let a = Decimal::from_int(3_000_000_000);
        let b = Decimal::from_parts(0, 90);
        assert_eq!(a.mul(b), Decimal::from_int(2_700_000_000));
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Decimal::from_parts(12, 5).to_string(), "12.05");
        assert_eq!(Decimal(-7).to_string(), "-0.07");
        assert_eq!(Decimal::from_int(0).to_string(), "0.00");
    }

    #[test]
    fn value_as_i64_covers_integer_like() {
        assert_eq!(Value::Int32(-5).as_i64(), -5);
        assert_eq!(Value::Int64(1 << 40).as_i64(), 1 << 40);
        assert_eq!(Value::Date(Date(123)).as_i64(), 123);
        assert_eq!(Value::Decimal(Decimal(456)).as_i64(), 456);
        assert_eq!(Value::Bool(true).as_i64(), 1);
    }

    #[test]
    fn slot_widths() {
        assert_eq!(DataType::Int32.slot_width(), 4);
        assert_eq!(DataType::Date.slot_width(), 4);
        assert_eq!(DataType::Str.slot_width(), 8);
        assert_eq!(DataType::Decimal.slot_width(), 8);
        assert_eq!(DataType::Bool.slot_width(), 1);
    }
}
