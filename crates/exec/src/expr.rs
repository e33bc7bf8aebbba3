//! Vectorized expression evaluation.
//!
//! Covers exactly the scalar machinery the paper's TPC-H plans and
//! microbenchmark queries need: column references, typed constants,
//! comparisons (including strings and dates), boolean connectives,
//! decimal/integer arithmetic, `BETWEEN`, `IN`, SQL `LIKE`, `substring`,
//! `EXTRACT(YEAR ...)` and a numeric `CASE WHEN`.
//!
//! Everything evaluates over a [`Rows`] view of borrowed columns: a batch's
//! own, or a table's over a morsel's range, in place. A predicate narrows a
//! selection vector ([`Expr::select`]): each kernel keeps the candidates
//! that pass, so each conjunct of an `AND` tests only the rows the earlier
//! ones kept, and each disjunct of an `OR` only the rows the earlier ones
//! rejected. Columns are read where they lie and constants stay scalars.
//! Value expressions compute a fresh [`ColumnData`] of the view's rows; a
//! Bool-typed one's value is its selection as bits.
//!
//! Intermediate results are assumed non-NULL (TPC-H base data is NOT NULL
//! and our plans route outer-join padding around expressions), which matches
//! how the paper's plans are structured: comparisons read a NULL slot's
//! stored value, and only `IS NULL` reads validity.

use crate::batch::{slice_column, Batch};
use joinstudy_storage::column::{ColumnData, StrColumn};
use joinstudy_storage::table::{Schema, Table};
use joinstudy_storage::types::{DataType, Date, Decimal, Value};
use std::borrow::Cow;

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
    /// Conjunction → Bool. Each conjunct tests only the rows the earlier
    /// ones kept.
    And(Vec<Expr>),
    /// Disjunction → Bool. Each disjunct tests only the rows the earlier
    /// ones rejected.
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
        self.eval_rows(&batch.rows())
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
        self.select(&batch.rows())
    }

    /// The rows of the view this predicate holds for: positions from the
    /// view's first row, ascending.
    pub fn select(&self, rows: &Rows) -> Vec<u32> {
        let mut sel = (0..rows.len as u32).collect();
        self.narrow(rows, &mut sel);
        sel
    }

    /// Keep those of the candidates `sel` (ascending rows of the view) this
    /// predicate holds for.
    fn narrow(&self, rows: &Rows, sel: &mut Vec<u32>) {
        let n = rows.len;
        match self {
            Expr::And(conds) => {
                for c in conds {
                    if sel.is_empty() {
                        break;
                    }
                    c.narrow(rows, sel);
                }
            }
            Expr::Or(conds) => {
                // The candidates no disjunct has accepted yet.
                let mut open = sel.clone();
                for c in conds {
                    if open.is_empty() {
                        break;
                    }
                    let mut pass = open.clone();
                    c.narrow(rows, &mut pass);
                    remove(&mut open, &pass);
                }
                remove(sel, &open);
            }
            Expr::Not(e) => {
                let mut pass = sel.clone();
                e.narrow(rows, &mut pass);
                remove(sel, &pass);
            }
            Expr::Cmp(op, l, r) => cmp(*op, sel, &rows.operand(l), &rows.operand(r), n),
            Expr::Between(e, lo, hi) => {
                let v = rows.operand(e);
                cmp(CmpOp::Ge, sel, &v, &Operand::Value(lo), n);
                cmp(CmpOp::Le, sel, &v, &Operand::Value(hi), n);
            }
            Expr::InList(e, list) => in_list(sel, &rows.operand(e), list, n),
            Expr::Like(e, pattern) => {
                let (like, s) = (LikeMatcher::new(pattern), rows.operand(e));
                let s = s.strs();
                retain(sel, |i| like.matches(s(i)));
            }
            Expr::IsNull(c) => match rows.validity[*c] {
                None => sel.clear(),
                Some(mask) => retain(sel, |i| !mask[rows.start + i]),
            },
            // A Bool column or constant.
            e => retain(sel, rows.operand(e).bools(n)),
        }
    }

    /// Evaluate over a view into a fresh column of its rows.
    fn eval_rows(&self, rows: &Rows) -> ColumnData {
        let n = rows.len;
        match self {
            Expr::Col(i) => slice_column(rows.columns[*i], rows.start, rows.start + n),
            // Only a constant projected as a column of its own gets here;
            // every operator takes constants as scalars.
            Expr::Const(v) => {
                let mut c = ColumnData::with_capacity(v.data_type().expect("NULL constant"), n);
                (0..n).for_each(|_| c.push_value(v));
                c
            }
            Expr::Arith(op, l, r) => arith(*op, &rows.operand(l), &rows.operand(r), n),
            Expr::Substr(e, start, len) => {
                let (c, o) = rows.values(e);
                let mut out = StrColumn::new();
                for s in (o..o + n).map(|i| c.as_str().get(i)) {
                    let from = (*start - 1).min(s.len());
                    out.push(&s[from..(from + *len).min(s.len())]);
                }
                ColumnData::Str(out)
            }
            Expr::ExtractYear(e) => {
                let (c, o) = rows.values(e);
                let days = &c.as_i32()[o..o + n];
                ColumnData::Int32(days.iter().map(|&d| Date(d).year()).collect())
            }
            Expr::ToDecimal(e) => {
                let (c, o) = rows.values(e);
                ColumnData::Decimal(match &*c {
                    ColumnData::Int32(v) => {
                        v[o..o + n].iter().map(|&x| i64::from(x) * 100).collect()
                    }
                    ColumnData::Int64(v) => v[o..o + n].iter().map(|&x| x * 100).collect(),
                    ColumnData::Decimal(v) => v[o..o + n].to_vec(),
                    other => panic!("ToDecimal on {:?}", other.data_type()),
                })
            }
            Expr::CaseWhen(cond, then_e, else_e) => {
                let sel = cond.select(rows);
                case(&sel, &rows.operand(then_e), &rows.operand(else_e), n)
            }
            // Every other expression is a predicate: its selection as bits.
            _ => {
                let mut bits = vec![false; n];
                for i in self.select(rows) {
                    bits[i as usize] = true;
                }
                ColumnData::Bool(bits)
            }
        }
    }
}

/// A borrowed view of rows `start..start + len` of some columns and their
/// validity masks (each indexed like its column, from row 0): a batch's own
/// columns ([`Batch::rows`]) or a table's over one morsel's range.
/// Expressions address its columns by position; making one copies nothing.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    columns: Vec<&'a ColumnData>,
    validity: Vec<Option<&'a [bool]>>,
    start: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// Rows `start..start + len` of `columns`, with one mask slot each.
    pub fn new(
        columns: Vec<&'a ColumnData>,
        validity: Vec<Option<&'a [bool]>>,
        start: usize,
        len: usize,
    ) -> Rows<'a> {
        assert!(
            columns.iter().all(|c| start + len <= c.len()),
            "view past the end"
        );
        Rows {
            columns,
            validity,
            start,
            len,
        }
    }

    /// Rows `start..start + len` of `table`'s columns `cols`, in place.
    pub fn of_table(table: &'a Table, cols: &[usize], start: usize, len: usize) -> Rows<'a> {
        let columns = cols.iter().map(|&c| table.column(c)).collect();
        Rows::new(
            columns,
            cols.iter().map(|&c| table.validity(c)).collect(),
            start,
            len,
        )
    }

    /// `e` over the view's rows, as a column and the position of the view's
    /// first row in it: a referenced column is borrowed where it lies,
    /// anything else computed.
    fn values(&self, e: &Expr) -> (Cow<'a, ColumnData>, usize) {
        match e {
            Expr::Col(i) => (Cow::Borrowed(self.columns[*i]), self.start),
            e => (Cow::Owned(e.eval_rows(self)), 0),
        }
    }

    /// `e` as one side of a kernel: a constant stays a scalar.
    fn operand<'s>(&'s self, e: &'s Expr) -> Operand<'s> {
        match e {
            Expr::Const(v) => Operand::Value(v),
            e => {
                let (c, o) = self.values(e);
                Operand::Rows(c, o)
            }
        }
    }
}

/// One side of a kernel: a column's rows from an offset (borrowed in place,
/// or computed), or one constant for every row.
enum Operand<'a> {
    Rows(Cow<'a, ColumnData>, usize),
    Value(&'a Value),
}

impl Operand<'_> {
    fn dtype(&self) -> DataType {
        match self {
            Operand::Rows(c, _) => c.data_type(),
            Operand::Value(v) => v.data_type().expect("NULL constant has no type"),
        }
    }

    /// Row `i` of the view's `n`, as one type.
    fn src<'s, T: Copy + 's>(
        &'s self,
        n: usize,
        rows: fn(&ColumnData) -> &[T],
        one: fn(&Value) -> T,
    ) -> impl Fn(usize) -> T + 's {
        let (rows, one) = match self {
            Operand::Rows(c, o) => (&rows(c)[*o..o + n], None),
            Operand::Value(v) => (&[][..], Some(one(v))),
        };
        move |i| one.unwrap_or_else(|| rows[i])
    }

    fn i32s(&self, n: usize) -> impl Fn(usize) -> i32 + '_ {
        self.src(n, ColumnData::as_i32, int32)
    }

    fn i64s(&self, n: usize) -> impl Fn(usize) -> i64 + '_ {
        self.src(n, ColumnData::as_i64, Value::as_i64)
    }

    fn f64s(&self, n: usize) -> impl Fn(usize) -> f64 + '_ {
        self.src(n, ColumnData::as_f64, Value::as_f64)
    }

    fn bools(&self, n: usize) -> impl Fn(usize) -> bool + '_ {
        self.src(n, ColumnData::as_bool, |v| v.as_i64() != 0)
    }

    fn strs<'s>(&'s self) -> impl Fn(usize) -> &'s str + 's {
        let (rows, o, one) = match self {
            Operand::Rows(c, o) => (Some(c.as_str()), *o, ""),
            Operand::Value(v) => (None, 0, v.as_str()),
        };
        move |i| rows.map_or(one, |c| c.get(o + i))
    }
}

fn int32(v: &Value) -> i32 {
    i32::try_from(v.as_i64()).expect("an Int32/Date constant fits in i32")
}

/// Keep the candidates `i` of `sel` for which `keep(i)` holds, in order.
/// Branch-free: every candidate is written, and the cursor advances past
/// the ones kept.
#[inline]
fn retain(sel: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut kept = 0;
    for j in 0..sel.len() {
        let i = sel[j];
        sel[kept] = i;
        kept += usize::from(keep(i as usize));
    }
    sel.truncate(kept);
}

/// Remove from the ascending `sel` the rows of `drop`, an ascending subset.
fn remove(sel: &mut Vec<u32>, drop: &[u32]) {
    let mut drop = drop.iter().peekable();
    sel.retain(|i| drop.next_if_eq(&i).is_none());
}

/// Keep the candidates where `l(i) op r(i)`, one loop per operator.
#[inline]
fn retain_cmp<T: PartialOrd>(
    op: CmpOp,
    sel: &mut Vec<u32>,
    l: impl Fn(usize) -> T,
    r: impl Fn(usize) -> T,
) {
    match op {
        CmpOp::Eq => retain(sel, |i| l(i) == r(i)),
        CmpOp::Ne => retain(sel, |i| l(i) != r(i)),
        CmpOp::Lt => retain(sel, |i| l(i) < r(i)),
        CmpOp::Le => retain(sel, |i| l(i) <= r(i)),
        CmpOp::Gt => retain(sel, |i| l(i) > r(i)),
        CmpOp::Ge => retain(sel, |i| l(i) >= r(i)),
    }
}

/// The comparison kernel, a column or a constant on either side. Int32 and
/// Date compare among themselves, as do Int64 and Decimal.
fn cmp(op: CmpOp, sel: &mut Vec<u32>, l: &Operand, r: &Operand, n: usize) {
    match l.dtype() {
        DataType::Int32 | DataType::Date => retain_cmp(op, sel, l.i32s(n), r.i32s(n)),
        DataType::Int64 | DataType::Decimal => retain_cmp(op, sel, l.i64s(n), r.i64s(n)),
        DataType::Float64 => retain_cmp(op, sel, l.f64s(n), r.f64s(n)),
        DataType::Bool => retain_cmp(op, sel, l.bools(n), r.bools(n)),
        DataType::Str => retain_cmp(op, sel, l.strs(), r.strs()),
    }
}

/// The `IN` kernel: each candidate's value is looked up in the list
/// directly, strings as `&str`.
fn in_list(sel: &mut Vec<u32>, v: &Operand, list: &[Value], n: usize) {
    fn keep<'a, T: PartialEq>(
        sel: &mut Vec<u32>,
        at: impl Fn(usize) -> T,
        list: &'a [Value],
        one: impl Fn(&'a Value) -> T,
    ) {
        let list: Vec<T> = list.iter().map(one).collect();
        retain(sel, |i| list.contains(&at(i)));
    }
    match v.dtype() {
        DataType::Int32 | DataType::Date => keep(sel, v.i32s(n), list, int32),
        DataType::Int64 | DataType::Decimal => keep(sel, v.i64s(n), list, Value::as_i64),
        DataType::Float64 => keep(sel, v.f64s(n), list, Value::as_f64),
        DataType::Bool => keep(sel, v.bools(n), list, |x| x.as_i64() != 0),
        DataType::Str => keep(sel, v.strs(), list, Value::as_str),
    }
}

fn arith(op: ArithOp, l: &Operand, r: &Operand, n: usize) -> ColumnData {
    fn zip<T>(
        n: usize,
        a: impl Fn(usize) -> T,
        b: impl Fn(usize) -> T,
        f: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        (0..n).map(|i| f(a(i), b(i))).collect()
    }
    use ArithOp::{Add, Div, Mul, Sub};
    use ColumnData as C;
    match (l.dtype(), r.dtype()) {
        (DataType::Int64, DataType::Int64) => C::Int64(match op {
            Add => zip(n, l.i64s(n), r.i64s(n), i64::wrapping_add),
            Sub => zip(n, l.i64s(n), r.i64s(n), i64::wrapping_sub),
            Mul => zip(n, l.i64s(n), r.i64s(n), i64::wrapping_mul),
            Div => zip(n, l.i64s(n), r.i64s(n), |x, y| x / y),
        }),
        (DataType::Int32, DataType::Int32) => C::Int32(match op {
            Add => zip(n, l.i32s(n), r.i32s(n), i32::wrapping_add),
            Sub => zip(n, l.i32s(n), r.i32s(n), i32::wrapping_sub),
            Mul => zip(n, l.i32s(n), r.i32s(n), i32::wrapping_mul),
            Div => zip(n, l.i32s(n), r.i32s(n), |x, y| x / y),
        }),
        (DataType::Float64, DataType::Float64) => C::Float64(match op {
            Add => zip(n, l.f64s(n), r.f64s(n), |x, y| x + y),
            Sub => zip(n, l.f64s(n), r.f64s(n), |x, y| x - y),
            Mul => zip(n, l.f64s(n), r.f64s(n), |x, y| x * y),
            Div => zip(n, l.f64s(n), r.f64s(n), |x, y| x / y),
        }),
        (DataType::Decimal, DataType::Decimal) => C::Decimal(match op {
            Add => zip(n, l.i64s(n), r.i64s(n), |x, y| x + y),
            Sub => zip(n, l.i64s(n), r.i64s(n), |x, y| x - y),
            Mul => zip(n, l.i64s(n), r.i64s(n), |x, y| Decimal(x).mul(Decimal(y)).0),
            Div => zip(n, l.i64s(n), r.i64s(n), |x, y| Decimal(x).div(Decimal(y)).0),
        }),
        (a, b) => panic!("arithmetic on incompatible columns {a:?} vs {b:?}"),
    }
}

/// `CASE WHEN`: the else branch's rows, overwritten at the rows `sel`
/// selects by the then branch's.
fn case(sel: &[u32], t: &Operand, f: &Operand, n: usize) -> ColumnData {
    fn pick<T>(sel: &[u32], t: impl Fn(usize) -> T, f: impl Fn(usize) -> T, n: usize) -> Vec<T> {
        let mut out: Vec<T> = (0..n).map(f).collect();
        sel.iter().for_each(|&i| out[i as usize] = t(i as usize));
        out
    }
    use ColumnData as C;
    match (t.dtype(), f.dtype()) {
        (DataType::Int64, DataType::Int64) => C::Int64(pick(sel, t.i64s(n), f.i64s(n), n)),
        (DataType::Decimal, DataType::Decimal) => C::Decimal(pick(sel, t.i64s(n), f.i64s(n), n)),
        (DataType::Int32, DataType::Int32) => C::Int32(pick(sel, t.i32s(n), f.i32s(n), n)),
        (DataType::Float64, DataType::Float64) => C::Float64(pick(sel, t.f64s(n), f.f64s(n), n)),
        (a, b) => panic!("CASE branches have incompatible types {a:?} vs {b:?}"),
    }
}

/// Compiled SQL LIKE pattern: `%` matches any run of characters, `_` any
/// one character.
///
/// The pattern splits on `%` into segments of fixed width in characters.
/// The first must match at the start of the string and the last at its
/// end; each one between is found leftmost-first in what lies between
/// (the earliest match leaves the most room for the rest, so nothing
/// backtracks), by `str::find` when it has no `_`.
pub struct LikeMatcher {
    segments: Vec<String>,
}

impl LikeMatcher {
    pub fn new(pattern: &str) -> LikeMatcher {
        LikeMatcher {
            segments: pattern.split('%').map(str::to_string).collect(),
        }
    }

    pub fn matches(&self, s: &str) -> bool {
        let [first, middle @ .., last] = &self.segments[..] else {
            return prefix(&self.segments[0], s) == Some(s.len());
        };
        let (Some(from), Some(to)) = (prefix(first, s), suffix(last, s)) else {
            return false;
        };
        // Each middle segment matches leftmost, after the one before it.
        let mut rest = s.get(from..to);
        for segment in middle {
            rest = rest.and_then(|rest| Some(&rest[find(segment, rest)?..]));
        }
        rest.is_some()
    }
}

/// The end, in bytes, of `segment`'s leftmost match in `s`.
fn find(segment: &str, s: &str) -> Option<usize> {
    if !segment.contains('_') {
        return s.find(segment).map(|at| at + segment.len());
    }
    s.char_indices()
        .find_map(|(at, _)| Some(at + prefix(segment, &s[at..])?))
}

/// How many bytes of `s`'s first characters `segment` matches, `_`
/// matching any one character; `None` if it does not match them.
fn fits(segment: impl Iterator<Item = char>, mut s: impl Iterator<Item = char>) -> Option<usize> {
    let one = |p: char| s.next().filter(|&c| p == '_' || p == c).map(char::len_utf8);
    segment.map(one).sum()
}

/// If `s` starts with `segment`, the byte length of the match.
fn prefix(segment: &str, s: &str) -> Option<usize> {
    fits(segment.chars(), s.chars())
}

/// If `s` ends with `segment`, the byte offset where the match starts.
fn suffix(segment: &str, s: &str) -> Option<usize> {
    fits(segment.chars().rev(), s.chars().rev()).map(|len| s.len() - len)
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
    fn like_underscore_is_one_character() {
        assert!(LikeMatcher::new("caf_").matches("café"));
        assert!(LikeMatcher::new("_").matches("é"));
        assert!(!LikeMatcher::new("__").matches("é"));
        assert!(LikeMatcher::new("%_é%").matches("aéé"));
        assert!(LikeMatcher::new("é%_").matches("éé"));
        assert!(!LikeMatcher::new("é%_").matches("é"));
        assert!(LikeMatcher::new("%a_c%").matches("xxabxa€cx"));
        // Prefix and suffix must not overlap.
        assert!(!LikeMatcher::new("ab%ba").matches("aba"));
    }

    #[test]
    fn select_reads_a_view_in_place() {
        let b = batch();
        let cols: Vec<&ColumnData> = b.columns().iter().collect();
        let view = Rows::new(cols, vec![None; 4], 1, 3);
        // Rows 1..4: ids 2, 3, 4.
        assert_eq!(Expr::col(0).ge(Expr::i64(3)).select(&view), vec![1, 2]);
        let e = Expr::or(vec![
            Expr::col(2).like("%green%"),
            Expr::col(0).eq(Expr::i64(4)),
        ]);
        assert_eq!(e.select(&view), vec![1, 2]);
        assert_eq!(e.not().select(&view), vec![0]);
        assert_eq!(Expr::i64(2).lt(Expr::col(0)).select(&view), vec![1, 2]);
        assert!(Expr::i64(2).gt(Expr::i64(3)).select(&view).is_empty());
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
