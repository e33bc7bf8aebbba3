//! Hash aggregation (GROUP BY) with thread-local pre-aggregation.
//!
//! Each worker aggregates into a private table; at pipeline end the locals
//! are merged into the global table under a lock — the standard
//! morsel-driven aggregation strategy of the paper's host system. A fast
//! path handles global (ungrouped) aggregates such as the microbenchmarks'
//! `SELECT count(*)` / `SELECT sum(p1)` without touching a hash table.

use crate::batch::Batch;
use crate::error::ExecResult;
use crate::pipeline::{LocalState, Sink};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Field, Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Decimal, Value};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Aggregate functions supported by the TPC-H plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(col)` — result type follows the input (Int64/Decimal/Float64).
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `COUNT(*)` — `input` is ignored.
    CountStar,
    /// `COUNT(DISTINCT col)` over an integer-like column.
    CountDistinct,
    /// `AVG(col)` over a Decimal column.
    Avg,
}

/// One aggregate column: function + input column index in the batch.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Input column; unused for `CountStar` (use 0).
    pub input: usize,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: usize, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            input,
            name: name.into(),
        }
    }

    fn output_type(&self, input_schema: &Schema) -> DataType {
        match self.func {
            AggFunc::CountStar | AggFunc::CountDistinct => DataType::Int64,
            AggFunc::Avg => DataType::Decimal,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input_schema.dtype(self.input),
        }
    }
}

/// Per-group, per-aggregate running state.
#[derive(Debug, Clone)]
enum AggState {
    SumI64(i64),
    SumDec(i64),
    SumF64(f64),
    Count(i64),
    Distinct(HashSet<i64>),
    Min(Option<Value>),
    Max(Option<Value>),
    AvgDec { sum: i64, count: i64 },
}

impl AggState {
    fn new(func: AggFunc, dtype: DataType) -> AggState {
        match func {
            AggFunc::Sum => match dtype {
                DataType::Int64 | DataType::Int32 => AggState::SumI64(0),
                DataType::Decimal => AggState::SumDec(0),
                DataType::Float64 => AggState::SumF64(0.0),
                other => panic!("SUM over {other:?}"),
            },
            AggFunc::CountStar => AggState::Count(0),
            AggFunc::CountDistinct => AggState::Distinct(HashSet::new()),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::AvgDec { sum: 0, count: 0 },
        }
    }

    fn update(&mut self, col: Option<&ColumnData>, row: usize) {
        match self {
            // Integer sums wrap on overflow (64-bit modular arithmetic),
            // which is what release-mode engines effectively do.
            AggState::SumI64(acc) => match col.unwrap() {
                ColumnData::Int64(v) => *acc = acc.wrapping_add(v[row]),
                ColumnData::Int32(v) => *acc = acc.wrapping_add(i64::from(v[row])),
                other => panic!("SUM i64 over {:?}", other.data_type()),
            },
            AggState::SumDec(acc) => *acc = acc.wrapping_add(col.unwrap().as_i64()[row]),
            AggState::SumF64(acc) => *acc += col.unwrap().as_f64()[row],
            AggState::Count(acc) => *acc += 1,
            AggState::Distinct(set) => {
                set.insert(col.unwrap().value(row).as_i64());
            }
            AggState::Min(cur) => {
                let v = col.unwrap().value(row);
                if cur
                    .as_ref()
                    .is_none_or(|c| value_cmp(&v, c) == Ordering::Less)
                {
                    *cur = Some(v);
                }
            }
            AggState::Max(cur) => {
                let v = col.unwrap().value(row);
                if cur
                    .as_ref()
                    .is_none_or(|c| value_cmp(&v, c) == Ordering::Greater)
                {
                    *cur = Some(v);
                }
            }
            AggState::AvgDec { sum, count } => {
                *sum += col.unwrap().as_i64()[row];
                *count += 1;
            }
        }
    }

    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::SumI64(a), AggState::SumI64(b)) => *a = a.wrapping_add(b),
            (AggState::SumDec(a), AggState::SumDec(b)) => *a = a.wrapping_add(b),
            (AggState::SumF64(a), AggState::SumF64(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Distinct(a), AggState::Distinct(b)) => a.extend(b),
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref()
                        .is_none_or(|av| value_cmp(&bv, av) == Ordering::Less)
                    {
                        *a = Some(bv);
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref()
                        .is_none_or(|av| value_cmp(&bv, av) == Ordering::Greater)
                    {
                        *a = Some(bv);
                    }
                }
            }
            (AggState::AvgDec { sum: s1, count: c1 }, AggState::AvgDec { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            _ => panic!("merging incompatible aggregate states"),
        }
    }

    fn finalize(self) -> Value {
        match self {
            AggState::SumI64(v) => Value::Int64(v),
            AggState::SumDec(v) => Value::Decimal(Decimal(v)),
            AggState::SumF64(v) => Value::Float64(v),
            AggState::Count(v) => Value::Int64(v),
            AggState::Distinct(set) => Value::Int64(set.len() as i64),
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::AvgDec { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Decimal(Decimal(sum).div(Decimal::from_int(count)))
                }
            }
        }
    }
}

/// Total order over same-typed values (aggregation min/max and sorting).
pub fn value_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int32(x), Value::Int32(y)) => x.cmp(y),
        (Value::Int64(x), Value::Int64(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Decimal(x), Value::Decimal(y)) => x.cmp(y),
        (Value::Float64(x), Value::Float64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        // NULLs sort last (SQL default for ASC in most engines).
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        _ => panic!("comparing values of different types: {a:?} vs {b:?}"),
    }
}

/// A hash-aggregation table: encoded group key → group slot.
struct AggTable {
    map: HashMap<Vec<u8>, usize>,
    keys: Vec<Vec<Value>>,
    states: Vec<Vec<AggState>>,
}

impl AggTable {
    fn new() -> AggTable {
        AggTable {
            map: HashMap::new(),
            keys: Vec::new(),
            states: Vec::new(),
        }
    }
}

/// Encode the group-key cells of `row` into `buf` (type-tagged, unambiguous).
fn encode_key(buf: &mut Vec<u8>, batch: &Batch, group_cols: &[usize], row: usize) {
    buf.clear();
    for &c in group_cols {
        match batch.column(c) {
            ColumnData::Bool(v) => buf.push(v[row] as u8),
            ColumnData::Int32(v) | ColumnData::Date(v) => {
                buf.extend_from_slice(&v[row].to_le_bytes())
            }
            ColumnData::Int64(v) | ColumnData::Decimal(v) => {
                buf.extend_from_slice(&v[row].to_le_bytes())
            }
            ColumnData::Float64(v) => buf.extend_from_slice(&v[row].to_bits().to_le_bytes()),
            ColumnData::Str(v) => {
                let s = v.get(row);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// The aggregation pipeline breaker.
pub struct AggSink {
    input_schema: Schema,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    global: Mutex<AggTable>,
}

impl AggSink {
    pub fn new(input_schema: Schema, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> AggSink {
        AggSink {
            input_schema,
            group_cols,
            aggs,
            global: Mutex::new(AggTable::new()),
        }
    }

    /// Schema of the result: group columns followed by aggregate columns.
    pub fn output_schema(&self) -> Schema {
        AggSink::schema_of(&self.input_schema, &self.group_cols, &self.aggs)
    }

    /// What aggregating `input` by `group_cols` yields. The one derivation,
    /// for plan nodes and sinks alike.
    pub fn schema_of(input: &Schema, group_cols: &[usize], aggs: &[AggSpec]) -> Schema {
        let mut fields: Vec<Field> = group_cols
            .iter()
            .map(|&i| input.fields[i].clone())
            .collect();
        for a in aggs {
            fields.push(Field::new(a.name.clone(), a.output_type(input)));
        }
        Schema::new(fields)
    }

    fn new_states(&self) -> Vec<AggState> {
        self.aggs
            .iter()
            .map(|a| {
                let dtype = match a.func {
                    AggFunc::CountStar => DataType::Int64,
                    _ => self.input_schema.dtype(a.input),
                };
                AggState::new(a.func, dtype)
            })
            .collect()
    }

    /// Extract the final result (consumes the accumulated state).
    pub fn into_table(&self) -> Table {
        let schema = self.output_schema();
        let mut table = std::mem::replace(&mut *self.global.lock(), AggTable::new());
        // SQL: a global aggregate over zero rows still yields one row.
        if table.keys.is_empty() && self.group_cols.is_empty() {
            table.keys.push(Vec::new());
            table.states.push(self.new_states());
        }
        let mut builder = TableBuilder::with_capacity(schema, table.keys.len());
        for (key, states) in table.keys.into_iter().zip(table.states) {
            let mut row = key;
            for s in states {
                row.push(s.finalize());
            }
            builder.push_row(&row);
        }
        builder.finish()
    }
}

impl Sink for AggSink {
    fn create_local(&self) -> LocalState {
        Box::new(AggTable::new())
    }

    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult {
        let table = local.downcast_mut::<AggTable>().unwrap();
        let n = input.num_rows();

        if self.group_cols.is_empty() {
            // Global aggregate fast path: one group, no key encoding.
            if table.keys.is_empty() {
                table.keys.push(Vec::new());
                table.states.push(self.new_states());
            }
            let states = &mut table.states[0];
            for row in 0..n {
                for (state, spec) in states.iter_mut().zip(&self.aggs) {
                    let col = (spec.func != AggFunc::CountStar).then(|| input.column(spec.input));
                    state.update(col, row);
                }
            }
            return Ok(());
        }

        let mut keybuf = Vec::new();
        for row in 0..n {
            encode_key(&mut keybuf, &input, &self.group_cols, row);
            let slot = match table.map.get(&keybuf) {
                Some(&s) => s,
                None => {
                    let s = table.keys.len();
                    table.map.insert(keybuf.clone(), s);
                    table.keys.push(
                        self.group_cols
                            .iter()
                            .map(|&c| input.value(c, row))
                            .collect(),
                    );
                    table.states.push(self.new_states());
                    s
                }
            };
            for (state, spec) in table.states[slot].iter_mut().zip(&self.aggs) {
                let col = (spec.func != AggFunc::CountStar).then(|| input.column(spec.input));
                state.update(col, row);
            }
        }
        Ok(())
    }

    fn finish_local(&self, local: LocalState) -> ExecResult {
        let local = *local.downcast::<AggTable>().unwrap();
        let mut global = self.global.lock();
        if self.group_cols.is_empty() {
            if let Some(states) = local.states.into_iter().next() {
                if global.states.is_empty() {
                    global.keys.push(Vec::new());
                    global.states.push(states);
                } else {
                    for (g, l) in global.states[0].iter_mut().zip(states) {
                        g.merge(l);
                    }
                }
            }
            return Ok(());
        }
        for (key_bytes, &local_slot) in &local.map {
            match global.map.get(key_bytes) {
                Some(&gslot) => {
                    for (g, l) in global.states[gslot]
                        .iter_mut()
                        .zip(local.states[local_slot].clone())
                    {
                        g.merge(l);
                    }
                }
                None => {
                    let gslot = global.keys.len();
                    global.map.insert(key_bytes.clone(), gslot);
                    global.keys.push(local.keys[local_slot].clone());
                    global.states.push(local.states[local_slot].clone());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::column::StrColumn;

    fn sample_batch() -> Batch {
        let mut grp = StrColumn::new();
        for g in ["a", "b", "a", "a", "b"] {
            grp.push(g);
        }
        Batch::new(vec![
            ColumnData::Str(grp),
            ColumnData::Int64(vec![1, 2, 3, 4, 5]),
            ColumnData::Decimal(vec![100, 200, 300, 400, 500]),
        ])
    }

    fn run(sink: &AggSink, batches: Vec<Batch>) -> Table {
        let mut local = sink.create_local();
        for b in batches {
            sink.consume(&mut local, b).unwrap();
        }
        sink.finish_local(local).unwrap();
        sink.finish();
        sink.into_table()
    }

    fn schema() -> Schema {
        Schema::of(&[
            ("g", DataType::Str),
            ("v", DataType::Int64),
            ("d", DataType::Decimal),
        ])
    }

    #[test]
    fn global_count_and_sum() {
        let sink = AggSink::new(
            schema(),
            vec![],
            vec![
                AggSpec::new(AggFunc::CountStar, 0, "cnt"),
                AggSpec::new(AggFunc::Sum, 1, "total"),
            ],
        );
        let t = run(&sink, vec![sample_batch(), sample_batch()]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column_by_name("cnt").as_i64(), &[10]);
        assert_eq!(t.column_by_name("total").as_i64(), &[30]);
    }

    #[test]
    fn global_agg_over_empty_input_yields_one_row() {
        let sink = AggSink::new(
            schema(),
            vec![],
            vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")],
        );
        let t = run(&sink, vec![]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column_by_name("cnt").as_i64(), &[0]);
    }

    #[test]
    fn grouped_sums() {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, 1, "sv"),
                AggSpec::new(AggFunc::CountStar, 0, "cnt"),
            ],
        );
        let t = run(&sink, vec![sample_batch()]);
        assert_eq!(t.num_rows(), 2);
        let mut rows: Vec<(String, i64, i64)> = (0..2)
            .map(|i| {
                (
                    t.column(0).as_str().get(i).to_owned(),
                    t.column(1).as_i64()[i],
                    t.column(2).as_i64()[i],
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("a".into(), 8, 3), ("b".into(), 7, 2)]);
    }

    #[test]
    fn min_max_avg() {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Min, 2, "lo"),
                AggSpec::new(AggFunc::Max, 2, "hi"),
                AggSpec::new(AggFunc::Avg, 2, "avg"),
            ],
        );
        let t = run(&sink, vec![sample_batch()]);
        let idx_a = (0..2)
            .find(|&i| t.column(0).as_str().get(i) == "a")
            .unwrap();
        assert_eq!(t.column_by_name("lo").as_i64()[idx_a], 100);
        assert_eq!(t.column_by_name("hi").as_i64()[idx_a], 400);
        // avg(1.00, 3.00, 4.00) = 2.66
        assert_eq!(t.column_by_name("avg").as_i64()[idx_a], 266);
    }

    #[test]
    fn count_distinct() {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![AggSpec::new(AggFunc::CountDistinct, 1, "dv")],
        );
        let mut grp = StrColumn::new();
        for g in ["a", "a", "a", "b"] {
            grp.push(g);
        }
        let batch = Batch::new(vec![
            ColumnData::Str(grp),
            ColumnData::Int64(vec![7, 7, 8, 7]),
            ColumnData::Decimal(vec![0, 0, 0, 0]),
        ]);
        let t = run(&sink, vec![batch]);
        let idx_a = (0..2)
            .find(|&i| t.column(0).as_str().get(i) == "a")
            .unwrap();
        assert_eq!(t.column_by_name("dv").as_i64()[idx_a], 2);
        assert_eq!(t.column_by_name("dv").as_i64()[1 - idx_a], 1);
    }

    #[test]
    fn parallel_merge_equals_serial() {
        let sink = AggSink::new(schema(), vec![0], vec![AggSpec::new(AggFunc::Sum, 1, "sv")]);
        // Two workers each with a local table.
        let mut l1 = sink.create_local();
        let mut l2 = sink.create_local();
        sink.consume(&mut l1, sample_batch()).unwrap();
        sink.consume(&mut l2, sample_batch()).unwrap();
        sink.finish_local(l1).unwrap();
        sink.finish_local(l2).unwrap();
        let t = sink.into_table();
        let mut rows: Vec<(String, i64)> = (0..t.num_rows())
            .map(|i| {
                (
                    t.column(0).as_str().get(i).to_owned(),
                    t.column(1).as_i64()[i],
                )
            })
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("a".into(), 16), ("b".into(), 14)]);
    }

    #[test]
    fn multi_column_group_keys() {
        let sink = AggSink::new(
            Schema::of(&[("a", DataType::Int32), ("b", DataType::Int32)]),
            vec![0, 1],
            vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")],
        );
        let batch = Batch::new(vec![
            ColumnData::Int32(vec![1, 1, 2, 1]),
            ColumnData::Int32(vec![1, 2, 1, 1]),
        ]);
        let t = run(&sink, vec![batch]);
        assert_eq!(t.num_rows(), 3);
        let cnt_total: i64 = t.column_by_name("cnt").as_i64().iter().sum();
        assert_eq!(cnt_total, 4);
    }

    #[test]
    fn value_cmp_total_order() {
        assert_eq!(
            value_cmp(&Value::Int64(1), &Value::Int64(2)),
            Ordering::Less
        );
        assert_eq!(
            value_cmp(&Value::Str("abc".into()), &Value::Str("abd".into())),
            Ordering::Less
        );
        assert_eq!(value_cmp(&Value::Null, &Value::Int64(0)), Ordering::Greater);
        assert_eq!(
            value_cmp(&Value::Float64(1.5), &Value::Float64(1.5)),
            Ordering::Equal
        );
    }
}
