//! Vectorized expression evaluation.
//!
//! Covers exactly the scalar machinery the paper's TPC-H plans and
//! microbenchmark queries need: column references, typed constants,
//! comparisons (including strings and dates), boolean connectives,
//! decimal/integer arithmetic, `BETWEEN`, `IN`, SQL `LIKE`, `substring`,
//! `EXTRACT(YEAR ...)` and a numeric `CASE WHEN`.
//!
//! Expressions are evaluated batch-at-a-time into a fresh [`ColumnData`];
//! predicates additionally have a fast path producing a selection vector.
//! Intermediate results are assumed non-NULL (TPC-H base data is NOT NULL
//! and our plans route outer-join padding around expressions), which matches
//! how the paper's plans are structured.

use crate::batch::Batch;
use joinstudy_storage::column::{ColumnData, StrColumn};
use joinstudy_storage::table::Schema;
use joinstudy_storage::types::{DataType, Date, Decimal, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators. Semantics: integer ops wrap like the underlying
/// machine type; decimal multiplication/division rescale (see [`Decimal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A scalar expression over the columns of a batch.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Column by position in the input schema.
    Col(usize),
    /// Typed constant.
    Const(Value),
    /// Binary comparison → Bool.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction (short-circuits per vector) → Bool.
    And(Vec<Expr>),
    /// Disjunction → Bool.
    Or(Vec<Expr>),
    /// Negation → Bool.
    Not(Box<Expr>),
    /// Arithmetic on numeric types.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `expr BETWEEN lo AND hi` (inclusive) → Bool.
    Between(Box<Expr>, Value, Value),
    /// `expr IN (v1, v2, ...)` → Bool.
    InList(Box<Expr>, Vec<Value>),
    /// SQL LIKE with `%` and `_` wildcards → Bool.
    Like(Box<Expr>, String),
    /// `substring(expr, start, len)` with 1-based `start` → Str.
    Substr(Box<Expr>, usize, usize),
    /// `EXTRACT(YEAR FROM date_expr)` → Int32.
    ExtractYear(Box<Expr>),
    /// Cast an integer expression to Decimal (`5` → `5.00`).
    ToDecimal(Box<Expr>),
    /// `col IS NULL` → Bool. Evaluates the *column's* validity mask; only
    /// meaningful on direct column references (computed expressions are
    /// never NULL in this engine — outer-join padding arrives as columns).
    IsNull(usize),
    /// `CASE WHEN cond THEN a ELSE b END`; `a`/`b` must share a type.
    CaseWhen(Box<Expr>, Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // `add`/`mul`/`not` mirror SQL, not std ops
impl Expr {
    // Convenience constructors keep plan builders readable.

    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn i64(v: i64) -> Expr {
        Expr::Const(Value::Int64(v))
    }

    pub fn i32(v: i32) -> Expr {
        Expr::Const(Value::Int32(v))
    }

    pub fn dec(v: Decimal) -> Expr {
        Expr::Const(Value::Decimal(v))
    }

    pub fn date(d: Date) -> Expr {
        Expr::Const(Value::Date(d))
    }

    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Const(Value::Str(s.into()))
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    pub fn and(conds: Vec<Expr>) -> Expr {
        Expr::And(conds)
    }

    pub fn or(conds: Vec<Expr>) -> Expr {
        Expr::Or(conds)
    }

    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
    }

    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }

    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }

    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
    }

    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like(Box::new(self), pattern.into())
    }

    pub fn between(self, lo: Value, hi: Value) -> Expr {
        Expr::Between(Box::new(self), lo, hi)
    }

    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }

    pub fn to_decimal(self) -> Expr {
        Expr::ToDecimal(Box::new(self))
    }

    /// `column IS NULL` (by position).
    pub fn is_null(col: usize) -> Expr {
        Expr::IsNull(col)
    }

    /// `column IS NOT NULL` (by position).
    pub fn is_not_null(col: usize) -> Expr {
        Expr::IsNull(col).not()
    }

    pub fn extract_year(self) -> Expr {
        Expr::ExtractYear(Box::new(self))
    }

    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Substr(Box::new(self), start, len)
    }

    pub fn case_when(cond: Expr, then_e: Expr, else_e: Expr) -> Expr {
        Expr::CaseWhen(Box::new(cond), Box::new(then_e), Box::new(else_e))
    }

    /// Result type given the input schema.
    pub fn dtype(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Col(i) => schema.dtype(*i),
            Expr::Const(v) => v.data_type().expect("NULL constant has no type"),
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Between(..)
            | Expr::InList(..)
            | Expr::Like(..) => DataType::Bool,
            Expr::Arith(_, l, _) => l.dtype(schema),
            Expr::Substr(..) => DataType::Str,
            Expr::ExtractYear(_) => DataType::Int32,
            Expr::ToDecimal(_) => DataType::Decimal,
            Expr::IsNull(_) => DataType::Bool,
            Expr::CaseWhen(_, t, _) => t.dtype(schema),
        }
    }

    /// The input columns this expression reads, ascending, each once.
    pub fn columns(&self) -> Vec<usize> {
        fn walk(e: &Expr, out: &mut Vec<usize>) {
            match e {
                Expr::Col(i) | Expr::IsNull(i) => out.push(*i),
                Expr::Const(_) => {}
                Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| walk(e, out)),
                Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                Expr::CaseWhen(c, t, f) => [c, t, f].into_iter().for_each(|e| walk(e, out)),
                Expr::Not(e)
                | Expr::Between(e, ..)
                | Expr::InList(e, _)
                | Expr::Like(e, _)
                | Expr::Substr(e, ..)
                | Expr::ExtractYear(e)
                | Expr::ToDecimal(e) => walk(e, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate over a batch into a fresh column of `batch.num_rows()` rows.
    pub fn eval(&self, batch: &Batch) -> ColumnData {
        let n = batch.num_rows();
        match self {
            Expr::Col(i) => batch.column(*i).clone(),
            Expr::Const(v) => broadcast(v, n),
            Expr::Cmp(op, l, r) => ColumnData::Bool(eval_cmp(*op, &l.eval(batch), &r.eval(batch))),
            Expr::And(conds) => {
                let mut acc = vec![true; n];
                for c in conds {
                    let v = c.eval_bool(batch);
                    for (a, b) in acc.iter_mut().zip(&v) {
                        *a &= *b;
                    }
                }
                ColumnData::Bool(acc)
            }
            Expr::Or(conds) => {
                let mut acc = vec![false; n];
                for c in conds {
                    let v = c.eval_bool(batch);
                    for (a, b) in acc.iter_mut().zip(&v) {
                        *a |= *b;
                    }
                }
                ColumnData::Bool(acc)
            }
            Expr::Not(e) => {
                let mut v = e.eval_bool(batch);
                for b in &mut v {
                    *b = !*b;
                }
                ColumnData::Bool(v)
            }
            Expr::Arith(op, l, r) => eval_arith(*op, &l.eval(batch), &r.eval(batch)),
            Expr::Between(e, lo, hi) => {
                let v = e.eval(batch);
                let ge = eval_cmp(CmpOp::Ge, &v, &broadcast(lo, n));
                let le = eval_cmp(CmpOp::Le, &v, &broadcast(hi, n));
                ColumnData::Bool(ge.iter().zip(&le).map(|(a, b)| *a && *b).collect())
            }
            Expr::InList(e, values) => {
                let v = e.eval(batch);
                let mut acc = vec![false; n];
                for val in values {
                    let eq = eval_cmp(CmpOp::Eq, &v, &broadcast(val, n));
                    for (a, b) in acc.iter_mut().zip(&eq) {
                        *a |= *b;
                    }
                }
                ColumnData::Bool(acc)
            }
            Expr::Like(e, pattern) => {
                let v = e.eval(batch);
                let col = v.as_str();
                let matcher = LikeMatcher::new(pattern);
                ColumnData::Bool((0..n).map(|i| matcher.matches(col.get(i))).collect())
            }
            Expr::Substr(e, start, len) => {
                let v = e.eval(batch);
                let col = v.as_str();
                let mut out = StrColumn::new();
                for i in 0..n {
                    let s = col.get(i);
                    let from = (*start - 1).min(s.len());
                    let to = (from + *len).min(s.len());
                    out.push(&s[from..to]);
                }
                ColumnData::Str(out)
            }
            Expr::ExtractYear(e) => {
                let v = e.eval(batch);
                match v {
                    ColumnData::Date(days) => {
                        ColumnData::Int32(days.iter().map(|&d| Date(d).year()).collect())
                    }
                    other => panic!("EXTRACT(YEAR) on {:?}", other.data_type()),
                }
            }
            Expr::IsNull(col) => ColumnData::Bool(match batch.validity(*col) {
                None => vec![false; n],
                Some(mask) => mask.iter().map(|&v| !v).collect(),
            }),
            Expr::ToDecimal(e) => match e.eval(batch) {
                ColumnData::Int32(v) => {
                    ColumnData::Decimal(v.iter().map(|&x| i64::from(x) * 100).collect())
                }
                ColumnData::Int64(v) => ColumnData::Decimal(v.iter().map(|&x| x * 100).collect()),
                ColumnData::Decimal(v) => ColumnData::Decimal(v),
                other => panic!("ToDecimal on {:?}", other.data_type()),
            },
            Expr::CaseWhen(cond, then_e, else_e) => {
                let c = cond.eval_bool(batch);
                let t = then_e.eval(batch);
                let f = else_e.eval(batch);
                select_columns(&c, &t, &f)
            }
        }
    }

    /// Evaluate a predicate into a boolean vector.
    pub fn eval_bool(&self, batch: &Batch) -> Vec<bool> {
        match self.eval(batch) {
            ColumnData::Bool(v) => v,
            other => panic!("predicate evaluated to {:?}", other.data_type()),
        }
    }

    /// Evaluate a predicate into a selection vector of passing row indices.
    pub fn eval_sel(&self, batch: &Batch) -> Vec<u32> {
        self.eval_bool(batch)
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u32))
            .collect()
    }
}

/// Materialize a constant as an `n`-row column.
fn broadcast(v: &Value, n: usize) -> ColumnData {
    match v {
        Value::Bool(x) => ColumnData::Bool(vec![*x; n]),
        Value::Int32(x) => ColumnData::Int32(vec![*x; n]),
        Value::Int64(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float64(x) => ColumnData::Float64(vec![*x; n]),
        Value::Date(x) => ColumnData::Date(vec![x.0; n]),
        Value::Decimal(x) => ColumnData::Decimal(vec![x.0; n]),
        Value::Str(x) => {
            let mut c = StrColumn::new();
            for _ in 0..n {
                c.push(x);
            }
            ColumnData::Str(c)
        }
        Value::Null => panic!("cannot broadcast NULL"),
    }
}

fn cmp_vec<T: PartialOrd>(op: CmpOp, l: &[T], r: &[T]) -> Vec<bool> {
    let f: fn(&T, &T) -> bool = match op {
        CmpOp::Eq => |a, b| a == b,
        CmpOp::Ne => |a, b| a != b,
        CmpOp::Lt => |a, b| a < b,
        CmpOp::Le => |a, b| a <= b,
        CmpOp::Gt => |a, b| a > b,
        CmpOp::Ge => |a, b| a >= b,
    };
    l.iter().zip(r).map(|(a, b)| f(a, b)).collect()
}

fn eval_cmp(op: CmpOp, l: &ColumnData, r: &ColumnData) -> Vec<bool> {
    use ColumnData as C;
    match (l, r) {
        (C::Int32(a), C::Int32(b))
        | (C::Date(a), C::Date(b))
        | (C::Int32(a), C::Date(b))
        | (C::Date(a), C::Int32(b)) => cmp_vec(op, a, b),
        (C::Int64(a), C::Int64(b))
        | (C::Decimal(a), C::Decimal(b))
        | (C::Int64(a), C::Decimal(b))
        | (C::Decimal(a), C::Int64(b)) => cmp_vec(op, a, b),
        (C::Float64(a), C::Float64(b)) => cmp_vec(op, a, b),
        (C::Bool(a), C::Bool(b)) => cmp_vec(op, a, b),
        (C::Str(a), C::Str(b)) => {
            let f: fn(&str, &str) -> bool = match op {
                CmpOp::Eq => |x, y| x == y,
                CmpOp::Ne => |x, y| x != y,
                CmpOp::Lt => |x, y| x < y,
                CmpOp::Le => |x, y| x <= y,
                CmpOp::Gt => |x, y| x > y,
                CmpOp::Ge => |x, y| x >= y,
            };
            (0..a.len()).map(|i| f(a.get(i), b.get(i))).collect()
        }
        (a, b) => panic!(
            "comparing incompatible columns {:?} vs {:?}",
            a.data_type(),
            b.data_type()
        ),
    }
}

fn eval_arith(op: ArithOp, l: &ColumnData, r: &ColumnData) -> ColumnData {
    use ColumnData as C;
    match (l, r) {
        (C::Int64(a), C::Int64(b)) => {
            let f: fn(i64, i64) -> i64 = match op {
                ArithOp::Add => |x, y| x.wrapping_add(y),
                ArithOp::Sub => |x, y| x.wrapping_sub(y),
                ArithOp::Mul => |x, y| x.wrapping_mul(y),
                ArithOp::Div => |x, y| x / y,
            };
            C::Int64(a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect())
        }
        (C::Int32(a), C::Int32(b)) => {
            let f: fn(i32, i32) -> i32 = match op {
                ArithOp::Add => |x, y| x.wrapping_add(y),
                ArithOp::Sub => |x, y| x.wrapping_sub(y),
                ArithOp::Mul => |x, y| x.wrapping_mul(y),
                ArithOp::Div => |x, y| x / y,
            };
            C::Int32(a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect())
        }
        (C::Float64(a), C::Float64(b)) => {
            let f: fn(f64, f64) -> f64 = match op {
                ArithOp::Add => |x, y| x + y,
                ArithOp::Sub => |x, y| x - y,
                ArithOp::Mul => |x, y| x * y,
                ArithOp::Div => |x, y| x / y,
            };
            C::Float64(a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect())
        }
        (C::Decimal(a), C::Decimal(b)) => {
            let f: fn(i64, i64) -> i64 = match op {
                ArithOp::Add => |x, y| x + y,
                ArithOp::Sub => |x, y| x - y,
                ArithOp::Mul => |x, y| Decimal(x).mul(Decimal(y)).0,
                ArithOp::Div => |x, y| Decimal(x).div(Decimal(y)).0,
            };
            C::Decimal(a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect())
        }
        (a, b) => panic!(
            "arithmetic on incompatible columns {:?} vs {:?}",
            a.data_type(),
            b.data_type()
        ),
    }
}

/// Per-row select between two equally-typed columns.
fn select_columns(cond: &[bool], t: &ColumnData, f: &ColumnData) -> ColumnData {
    use ColumnData as C;
    match (t, f) {
        (C::Int64(a), C::Int64(b)) => C::Int64(
            cond.iter()
                .enumerate()
                .map(|(i, &c)| if c { a[i] } else { b[i] })
                .collect(),
        ),
        (C::Int32(a), C::Int32(b)) => C::Int32(
            cond.iter()
                .enumerate()
                .map(|(i, &c)| if c { a[i] } else { b[i] })
                .collect(),
        ),
        (C::Decimal(a), C::Decimal(b)) => C::Decimal(
            cond.iter()
                .enumerate()
                .map(|(i, &c)| if c { a[i] } else { b[i] })
                .collect(),
        ),
        (C::Float64(a), C::Float64(b)) => C::Float64(
            cond.iter()
                .enumerate()
                .map(|(i, &c)| if c { a[i] } else { b[i] })
                .collect(),
        ),
        (a, b) => panic!(
            "CASE branches have incompatible types {:?} vs {:?}",
            a.data_type(),
            b.data_type()
        ),
    }
}

/// Compiled SQL LIKE pattern (`%` = any run, `_` = any single byte).
pub struct LikeMatcher {
    tokens: Vec<LikeToken>,
}

#[derive(Debug, PartialEq)]
enum LikeToken {
    /// Literal byte sequence.
    Lit(Vec<u8>),
    /// `_`
    AnyOne,
    /// `%`
    AnyRun,
}

impl LikeMatcher {
    pub fn new(pattern: &str) -> LikeMatcher {
        let mut tokens = Vec::new();
        let mut lit = Vec::new();
        for &b in pattern.as_bytes() {
            match b {
                b'%' | b'_' => {
                    if !lit.is_empty() {
                        tokens.push(LikeToken::Lit(std::mem::take(&mut lit)));
                    }
                    if b == b'%' {
                        // Collapse consecutive %%.
                        if tokens.last() != Some(&LikeToken::AnyRun) {
                            tokens.push(LikeToken::AnyRun);
                        }
                    } else {
                        tokens.push(LikeToken::AnyOne);
                    }
                }
                _ => lit.push(b),
            }
        }
        if !lit.is_empty() {
            tokens.push(LikeToken::Lit(lit));
        }
        LikeMatcher { tokens }
    }

    pub fn matches(&self, s: &str) -> bool {
        match_tokens(&self.tokens, s.as_bytes())
    }
}

fn match_tokens(tokens: &[LikeToken], s: &[u8]) -> bool {
    match tokens.first() {
        None => s.is_empty(),
        Some(LikeToken::Lit(lit)) => {
            s.len() >= lit.len()
                && &s[..lit.len()] == lit.as_slice()
                && match_tokens(&tokens[1..], &s[lit.len()..])
        }
        Some(LikeToken::AnyOne) => !s.is_empty() && match_tokens(&tokens[1..], &s[1..]),
        Some(LikeToken::AnyRun) => {
            // Try all suffixes; recursion depth is bounded by the number of
            // `%` tokens, which is tiny in practice.
            if tokens.len() == 1 {
                return true;
            }
            (0..=s.len()).any(|skip| match_tokens(&tokens[1..], &s[skip..]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        let mut names = StrColumn::new();
        for n in ["forest green", "red rose", "greenish", "blue"] {
            names.push(n);
        }
        Batch::new(vec![
            ColumnData::Int64(vec![1, 2, 3, 4]),
            ColumnData::Decimal(vec![100, 250, 500, 1000]),
            ColumnData::Str(names),
            ColumnData::Date(vec![
                Date::from_ymd(1994, 1, 1).0,
                Date::from_ymd(1995, 6, 15).0,
                Date::from_ymd(1996, 12, 31).0,
                Date::from_ymd(1997, 3, 3).0,
            ]),
        ])
    }

    #[test]
    fn col_and_const() {
        let b = batch();
        assert_eq!(Expr::col(0).eval(&b).as_i64(), &[1, 2, 3, 4]);
        assert_eq!(Expr::i64(7).eval(&b).as_i64(), &[7, 7, 7, 7]);
    }

    #[test]
    fn columns_read_are_sorted_and_distinct() {
        let e = Expr::and(vec![
            Expr::col(5).ne(Expr::col(1)),
            Expr::case_when(Expr::is_null(3), Expr::col(1), Expr::i64(0)).lt(Expr::col(0)),
        ]);
        assert_eq!(e.columns(), vec![0, 1, 3, 5]);
        assert!(Expr::i64(1).columns().is_empty());
    }

    #[test]
    fn comparisons_int() {
        let b = batch();
        let sel = Expr::col(0).gt(Expr::i64(2)).eval_sel(&b);
        assert_eq!(sel, vec![2, 3]);
        let sel = Expr::col(0).le(Expr::i64(1)).eval_sel(&b);
        assert_eq!(sel, vec![0]);
        let sel = Expr::col(0).ne(Expr::i64(2)).eval_sel(&b);
        assert_eq!(sel, vec![0, 2, 3]);
    }

    #[test]
    fn comparisons_date() {
        let b = batch();
        let cutoff = Date::from_ymd(1995, 1, 1);
        let sel = Expr::col(3).lt(Expr::date(cutoff)).eval_sel(&b);
        assert_eq!(sel, vec![0]);
        let sel = Expr::col(3).ge(Expr::date(cutoff)).eval_sel(&b);
        assert_eq!(sel, vec![1, 2, 3]);
    }

    #[test]
    fn comparisons_string() {
        let b = batch();
        let sel = Expr::col(2).eq(Expr::str("blue")).eval_sel(&b);
        assert_eq!(sel, vec![3]);
    }

    #[test]
    fn boolean_connectives() {
        let b = batch();
        let e = Expr::and(vec![
            Expr::col(0).gt(Expr::i64(1)),
            Expr::col(0).lt(Expr::i64(4)),
        ]);
        assert_eq!(e.eval_sel(&b), vec![1, 2]);
        let e = Expr::or(vec![
            Expr::col(0).eq(Expr::i64(1)),
            Expr::col(0).eq(Expr::i64(4)),
        ]);
        assert_eq!(e.eval_sel(&b), vec![0, 3]);
        let e = Expr::col(0).eq(Expr::i64(1)).not();
        assert_eq!(e.eval_sel(&b), vec![1, 2, 3]);
    }

    #[test]
    fn arithmetic_decimal_rescales() {
        let b = batch();
        // price * 2.00
        let e = Expr::col(1).mul(Expr::dec(Decimal::from_int(2)));
        assert_eq!(e.eval(&b).as_i64(), &[200, 500, 1000, 2000]);
        // price - 0.50
        let e = Expr::col(1).sub(Expr::dec(Decimal::from_parts(0, 50)));
        assert_eq!(e.eval(&b).as_i64(), &[50, 200, 450, 950]);
    }

    #[test]
    fn arithmetic_int() {
        let b = batch();
        let e = Expr::col(0).mul(Expr::i64(10)).add(Expr::i64(5));
        assert_eq!(e.eval(&b).as_i64(), &[15, 25, 35, 45]);
    }

    #[test]
    fn between_inclusive() {
        let b = batch();
        let e = Expr::col(1).between(Value::Decimal(Decimal(250)), Value::Decimal(Decimal(500)));
        assert_eq!(e.eval_sel(&b), vec![1, 2]);
    }

    #[test]
    fn in_list_strings() {
        let b = batch();
        let e = Expr::col(2).in_list(vec![
            Value::Str("blue".into()),
            Value::Str("red rose".into()),
        ]);
        assert_eq!(e.eval_sel(&b), vec![1, 3]);
    }

    #[test]
    fn like_patterns() {
        let b = batch();
        assert_eq!(Expr::col(2).like("%green%").eval_sel(&b), vec![0, 2]);
        assert_eq!(Expr::col(2).like("green%").eval_sel(&b), vec![2]);
        assert_eq!(Expr::col(2).like("%rose").eval_sel(&b), vec![1]);
        assert_eq!(Expr::col(2).like("blue").eval_sel(&b), vec![3]);
        assert_eq!(Expr::col(2).like("b_ue").eval_sel(&b), vec![3]);
        assert_eq!(Expr::col(2).like("%").eval_sel(&b), vec![0, 1, 2, 3]);
    }

    #[test]
    fn like_edge_cases() {
        let m = LikeMatcher::new("a%b%c");
        assert!(m.matches("abc"));
        assert!(m.matches("aXbYc"));
        assert!(!m.matches("acb"));
        let m = LikeMatcher::new("");
        assert!(m.matches(""));
        assert!(!m.matches("x"));
        let m = LikeMatcher::new("%%");
        assert!(m.matches(""));
        assert!(m.matches("anything"));
    }

    #[test]
    fn substring_one_based() {
        let b = batch();
        let e = Expr::Substr(Box::new(Expr::col(2)), 1, 3);
        let out = e.eval(&b);
        let s = out.as_str();
        assert_eq!(s.get(0), "for");
        assert_eq!(s.get(3), "blu");
    }

    #[test]
    fn extract_year() {
        let b = batch();
        let e = Expr::ExtractYear(Box::new(Expr::col(3)));
        assert_eq!(e.eval(&b).as_i32(), &[1994, 1995, 1996, 1997]);
    }

    #[test]
    fn case_when_numeric() {
        let b = batch();
        let e = Expr::CaseWhen(
            Box::new(Expr::col(0).gt(Expr::i64(2))),
            Box::new(Expr::col(1)),
            Box::new(Expr::dec(Decimal::from_int(0))),
        );
        assert_eq!(e.eval(&b).as_i64(), &[0, 0, 500, 1000]);
    }

    #[test]
    fn is_null_reads_validity() {
        let b = Batch::with_validity(
            vec![ColumnData::Int64(vec![1, 2, 3])],
            vec![Some(vec![true, false, true])],
        );
        assert_eq!(Expr::is_null(0).eval_sel(&b), vec![1]);
        assert_eq!(Expr::is_not_null(0).eval_sel(&b), vec![0, 2]);
        // All-valid column: IS NULL selects nothing.
        let b2 = Batch::new(vec![ColumnData::Int64(vec![1, 2])]);
        assert!(Expr::is_null(0).eval_sel(&b2).is_empty());
    }

    #[test]
    fn to_decimal_cast() {
        let b = Batch::new(vec![
            ColumnData::Int32(vec![5, -2]),
            ColumnData::Int64(vec![7, 0]),
        ]);
        assert_eq!(Expr::col(0).to_decimal().eval(&b).as_i64(), &[500, -200]);
        assert_eq!(Expr::col(1).to_decimal().eval(&b).as_i64(), &[700, 0]);
        let schema = Schema::of(&[("a", DataType::Int32), ("b", DataType::Int64)]);
        assert_eq!(Expr::col(0).to_decimal().dtype(&schema), DataType::Decimal);
    }

    #[test]
    fn dtype_inference() {
        let schema = Schema::of(&[
            ("a", DataType::Int64),
            ("p", DataType::Decimal),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ]);
        assert_eq!(Expr::col(0).dtype(&schema), DataType::Int64);
        assert_eq!(Expr::col(0).gt(Expr::i64(1)).dtype(&schema), DataType::Bool);
        assert_eq!(
            Expr::col(1)
                .mul(Expr::dec(Decimal::from_int(2)))
                .dtype(&schema),
            DataType::Decimal
        );
        assert_eq!(
            Expr::ExtractYear(Box::new(Expr::col(3))).dtype(&schema),
            DataType::Int32
        );
        assert_eq!(
            Expr::Substr(Box::new(Expr::col(2)), 1, 2).dtype(&schema),
            DataType::Str
        );
    }
}
