//! Property tests for predicate evaluation over borrowed views: a random
//! predicate tree selected over a view at a non-zero row offset must pick
//! exactly the rows a row-at-a-time oracle over `Batch::value` picks; a
//! filtered `TableScan` must emit what the unfiltered scan followed by the
//! same selection emits; LIKE must agree with a character-level reference.

use joinstudy_exec::batch::Batch;
use joinstudy_exec::expr::{CmpOp, Expr, LikeMatcher, Rows};
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::ops::scan::TableScan;
use joinstudy_exec::Source;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, Table};
use joinstudy_storage::types::{DataType, Date, Decimal, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// A small deterministic generator (splitmix64) for trees and tables.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn int(&mut self) -> i64 {
        self.below(9) as i64 - 4
    }

    /// Short strings over an alphabet with a multi-byte character.
    fn word(&mut self) -> String {
        let len = self.below(4);
        (0..len).map(|_| ['a', 'b', 'é'][self.below(3)]).collect()
    }

    fn pattern(&mut self) -> String {
        let len = self.below(5);
        (0..len)
            .map(|_| ['a', 'é', '%', '_'][self.below(4)])
            .collect()
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int32,
    DataType::Int64,
    DataType::Decimal,
    DataType::Date,
    DataType::Str,
];

fn value(g: &mut Gen, t: DataType) -> Value {
    match t {
        DataType::Int32 => Value::Int32(g.int() as i32),
        DataType::Int64 => Value::Int64(g.int()),
        DataType::Decimal => Value::Decimal(Decimal(g.int())),
        DataType::Date => Value::Date(Date(g.int() as i32)),
        DataType::Str => Value::Str(g.word()),
        other => unreachable!("{other:?}"),
    }
}

/// What a NULL slot stores, as `BatchBuilder` writes it.
fn default_of(t: DataType) -> Value {
    match t {
        DataType::Int32 => Value::Int32(0),
        DataType::Int64 => Value::Int64(0),
        DataType::Decimal => Value::Decimal(Decimal(0)),
        DataType::Date => Value::Date(Date(0)),
        DataType::Str => Value::Str(String::new()),
        other => unreachable!("{other:?}"),
    }
}

/// One column of each type in [`TYPES`], twice over (so column-vs-column
/// comparisons have partners), `rows` long; every other column nullable.
fn columns(g: &mut Gen, rows: usize) -> (Vec<ColumnData>, Vec<Option<Vec<bool>>>) {
    let mut columns = Vec::new();
    let mut validity = Vec::new();
    for (i, &t) in TYPES.iter().chain(&TYPES).enumerate() {
        let mask: Option<Vec<bool>> =
            (i % 2 == 1).then(|| (0..rows).map(|_| g.below(4) > 0).collect());
        let mut col = ColumnData::new(t);
        for r in 0..rows {
            let null = mask.as_ref().is_some_and(|m| !m[r]);
            col.push_value(&if null { default_of(t) } else { value(g, t) });
        }
        columns.push(col);
        validity.push(mask);
    }
    (columns, validity)
}

fn dtype(c: usize) -> DataType {
    TYPES[c % TYPES.len()]
}

/// A column comparable with column `c`: Int32/Date and Int64/Decimal
/// compare among themselves.
fn partner(g: &mut Gen, c: usize) -> usize {
    let family = |t: DataType| match t {
        DataType::Int32 | DataType::Date => 0,
        DataType::Int64 | DataType::Decimal => 1,
        _ => 2,
    };
    let options: Vec<usize> = (0..2 * TYPES.len())
        .filter(|&d| family(dtype(d)) == family(dtype(c)))
        .collect();
    options[g.below(options.len())]
}

fn op(g: &mut Gen) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][g.below(6)]
}

fn leaf(g: &mut Gen) -> Expr {
    let c = g.below(2 * TYPES.len());
    let t = dtype(c);
    let cmp = |op, l, r| Expr::Cmp(op, Box::new(l), Box::new(r));
    match g.below(7) {
        0 => cmp(op(g), Expr::col(c), Expr::Const(value(g, t))),
        1 => cmp(op(g), Expr::Const(value(g, t)), Expr::col(c)),
        2 => cmp(op(g), Expr::col(c), Expr::col(partner(g, c))),
        3 => Expr::col(c).between(value(g, t), value(g, t)),
        4 => {
            let list = (0..1 + g.below(3)).map(|_| value(g, t)).collect();
            Expr::col(c).in_list(list)
        }
        5 => Expr::col(4 + 5 * g.below(2)).like(g.pattern()),
        _ => Expr::is_null(c),
    }
}

fn tree(g: &mut Gen, depth: usize) -> Expr {
    if depth == 0 || g.below(3) == 0 {
        return leaf(g);
    }
    let children = |g: &mut Gen| (0..2 + g.below(2)).map(|_| tree(g, depth - 1)).collect();
    match g.below(3) {
        0 => Expr::and(children(g)),
        1 => Expr::or(children(g)),
        _ => tree(g, depth - 1).not(),
    }
}

/// The value a predicate reads at `(c, row)`: `Batch::value`, with a NULL
/// read as the slot's stored default, as the evaluator compares it.
fn read(batch: &Batch, c: usize, row: usize) -> Value {
    match batch.value(c, row) {
        Value::Null => default_of(dtype(c)),
        v => v,
    }
}

fn order(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => a.as_i64().cmp(&b.as_i64()),
    }
}

fn holds(op: CmpOp, o: Ordering) -> bool {
    match op {
        CmpOp::Eq => o == Ordering::Equal,
        CmpOp::Ne => o != Ordering::Equal,
        CmpOp::Lt => o == Ordering::Less,
        CmpOp::Le => o != Ordering::Greater,
        CmpOp::Gt => o == Ordering::Greater,
        CmpOp::Ge => o != Ordering::Less,
    }
}

/// Row-at-a-time reference evaluation of the trees [`tree`] builds.
fn oracle(e: &Expr, batch: &Batch, row: usize) -> bool {
    let operand = |e: &Expr| match e {
        Expr::Col(c) => read(batch, *c, row),
        Expr::Const(v) => v.clone(),
        other => unreachable!("{other:?}"),
    };
    match e {
        Expr::And(es) => es.iter().all(|e| oracle(e, batch, row)),
        Expr::Or(es) => es.iter().any(|e| oracle(e, batch, row)),
        Expr::Not(e) => !oracle(e, batch, row),
        Expr::Cmp(op, l, r) => holds(*op, order(&operand(l), &operand(r))),
        Expr::Between(e, lo, hi) => {
            let v = operand(e);
            order(&v, lo) != Ordering::Less && order(&v, hi) != Ordering::Greater
        }
        Expr::InList(e, list) => {
            let v = operand(e);
            list.iter().any(|x| order(&v, x) == Ordering::Equal)
        }
        Expr::Like(e, pattern) => {
            let p: Vec<char> = pattern.chars().collect();
            let s: Vec<char> = operand(e).as_str().chars().collect();
            naive_like(&p, &s)
        }
        Expr::IsNull(c) => batch.value(*c, row).is_null(),
        other => unreachable!("{other:?}"),
    }
}

/// Character-by-character reference LIKE (exponential, fine for tiny inputs).
fn naive_like(p: &[char], s: &[char]) -> bool {
    match (p.first(), s.first()) {
        (None, None) => true,
        (None, Some(_)) => false,
        (Some('%'), _) => naive_like(&p[1..], s) || (!s.is_empty() && naive_like(p, &s[1..])),
        (Some('_'), Some(_)) => naive_like(&p[1..], &s[1..]),
        (Some(c), Some(d)) if c == d => naive_like(&p[1..], &s[1..]),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn select_over_an_offset_view_matches_the_oracle(seed: u64) {
        let mut g = Gen(seed);
        let (offset, len) = (1 + g.below(40), g.below(120));
        let (cols, masks) = columns(&mut g, offset + len);
        let batch = Batch::with_validity(cols, masks);
        let pred = tree(&mut g, 3);
        let view = Rows::new(
            batch.columns().iter().collect(),
            (0..batch.num_columns()).map(|c| batch.validity(c).as_deref()).collect(),
            offset,
            len,
        );
        let want: Vec<u32> = (0..len)
            .filter(|&i| oracle(&pred, &batch, offset + i))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(&pred.select(&view), &want, "{:?}", pred);
        // The same rows as a batch of their own: selection and bits agree.
        let rows: Vec<u32> = (offset as u32..(offset + len) as u32).collect();
        let own = batch.take(&rows);
        prop_assert_eq!(&pred.eval_sel(&own), &want, "{:?}", pred);
        let bits = pred.eval_bool(&own);
        prop_assert_eq!(bits.len(), len);
        prop_assert!(bits.iter().enumerate().all(|(i, &b)| b == want.contains(&(i as u32))));
    }

    #[test]
    fn like_matches_a_char_level_reference(
        s in "[ab_%é]{0,8}",
        pattern in "[abé%_]{0,6}",
    ) {
        let p: Vec<char> = pattern.chars().collect();
        let chars: Vec<char> = s.chars().collect();
        let got = LikeMatcher::new(&pattern).matches(&s);
        prop_assert_eq!(got, naive_like(&p, &chars), "s={:?} pattern={:?}", s, pattern);
    }
}

/// Every row a scan emits, in order, each batch first narrowed by `then`
/// (a selection and a `take`) if given: the cells, validity and `@tid`
/// included; and the read bytes the scan recorded.
fn drain(scan: &TableScan, then: Option<&Expr>) -> (Vec<Vec<Value>>, u64) {
    metrics::reset();
    let mut rows = Vec::new();
    for task in 0..scan.task_count() {
        scan.poll_task(task, &mut |b| {
            assert!(b.num_rows() > 0, "a scan emits no empty batch");
            let b = then.map_or(b.clone(), |pred| b.take(&pred.eval_sel(&b)));
            for r in 0..b.num_rows() {
                rows.push((0..b.num_columns()).map(|c| b.value(c, r)).collect());
            }
        })
        .unwrap();
    }
    let read: u64 = metrics::snapshot().iter().map(|&(_, r, _)| r).sum();
    (rows, read)
}

/// The filtered scan equals the unfiltered scan followed by the same
/// predicate's selection and a `take` of each batch, in rows, tids,
/// validity and recorded read bytes. Tables span several morsels and
/// batches, with nullable columns and strings; the projection reorders the
/// columns so that projected column `i` has the type the trees expect.
#[test]
fn filtered_scan_equals_scan_then_take() {
    metrics::set_enabled(true);
    let projection: Vec<usize> = (5..10).chain(0..5).collect();
    for seed in 0..12u64 {
        let mut g = Gen(seed);
        let rows = [0, 1, 1023, 1025, 70_000][g.below(5)] + g.below(3000);
        let (cols, masks) = columns(&mut g, rows);
        let names: Vec<String> = (0..cols.len()).map(|c| format!("c{c}")).collect();
        let fields: Vec<(&str, DataType)> = names
            .iter()
            .zip(&cols)
            .map(|(n, c)| (n.as_str(), c.data_type()))
            .collect();
        let table = Arc::new(Table::with_validity(Schema::of(&fields), cols, masks));
        let pred = Expr::and(vec![tree(&mut g, 2), leaf(&mut g)]);
        for tid in [false, true] {
            let scan = |filter: Option<Expr>| {
                let s = TableScan::new(table.clone(), projection.clone(), filter)
                    .with_phase(MemPhase::Build);
                if tid {
                    s.with_tid()
                } else {
                    s
                }
            };
            let (got, got_read) = drain(&scan(Some(pred.clone())), None);
            let (want, want_read) = drain(&scan(None), Some(&pred));
            assert_eq!(got, want, "seed {seed}, tid {tid}, {pred:?}");
            assert_eq!(got_read, want_read, "seed {seed}, tid {tid}: read bytes");
            assert_eq!(got_read == 0, rows == 0);
        }
    }
    metrics::set_enabled(false);
}
