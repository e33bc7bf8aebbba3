//! Property tests: hash aggregation against a HashMap reference, sorting
//! against std's sort, across arbitrary inputs and worker splits. Every
//! aggregation runs split over 1–4 worker locals whose `finish_local` order
//! is shuffled, so the merge is exercised as much as the per-worker table.

use joinstudy_exec::batch::Batch;
use joinstudy_exec::ops::{AggFunc, AggSink, AggSpec, SortKey, SortSink};
use joinstudy_exec::pipeline::{LocalState, Sink};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, Table};
use joinstudy_storage::types::{DataType, Date, Decimal, Value};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn schema() -> Schema {
    Schema::of(&[("g", DataType::Int64), ("v", DataType::Int64)])
}

fn batch(rows: &[(i64, i64)]) -> Batch {
    Batch::new(vec![
        ColumnData::Int64(rows.iter().map(|r| r.0).collect()),
        ColumnData::Int64(rows.iter().map(|r| r.1).collect()),
    ])
}

/// Feed `batches` round-robin to `workers` locals, finish them in an order
/// shuffled by `order`, and take the result.
fn aggregate(sink: &AggSink, batches: Vec<Batch>, workers: usize, order: u64) -> Table {
    let mut locals: Vec<LocalState> = (0..workers).map(|_| sink.create_local()).collect();
    for (i, b) in batches.into_iter().enumerate() {
        sink.consume(&mut locals[i % workers], b).unwrap();
    }
    let mut state = order;
    for i in (1..locals.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        locals.swap(i, (state >> 33) as usize % (i + 1));
    }
    for local in locals {
        sink.finish_local(local).unwrap();
    }
    sink.finish();
    sink.into_table()
}

/// SplitMix64: the cells of one generated row, drawn from its seed.
fn mix(x: u64) -> u64 {
    let z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key columns (one of each type the issue names) and value columns.
const KEYS: [DataType; 6] = [
    DataType::Str,
    DataType::Int32,
    DataType::Date,
    DataType::Decimal,
    DataType::Bool,
    DataType::Float64,
];
const VALS: [DataType; 7] = [
    DataType::Int64,
    DataType::Decimal,
    DataType::Float64,
    DataType::Str,
    DataType::Bool,
    DataType::Date,
    DataType::Int32,
];

/// A cell of `dtype` from a few bits: small domains so groups and distinct
/// values repeat; Float64 holds small integers so sums are exact in any
/// merge order.
fn cell(dtype: DataType, bits: u64) -> Value {
    let small = (bits % 7) as i64 - 3;
    match dtype {
        DataType::Str => Value::Str(["", "a", "bb", "ccc"][(bits % 4) as usize].to_string()),
        DataType::Int32 => Value::Int32(small as i32),
        DataType::Date => Value::Date(Date(9_000 + small as i32)),
        DataType::Decimal => Value::Decimal(Decimal(small * 25)),
        DataType::Bool => Value::Bool(bits.is_multiple_of(2)),
        DataType::Float64 => Value::Float64(small as f64),
        DataType::Int64 => Value::Int64(small * 1_000),
    }
}

/// One generated row: the key cells then the value cells, each NULL with
/// probability 1/8 — as outer-join padding is, with an arbitrary value
/// under the mask.
fn row(seed: u64) -> (Vec<Value>, Vec<Value>) {
    let types = KEYS.iter().chain(&VALS);
    let cells: Vec<(Value, bool)> = types
        .enumerate()
        .map(|(i, &t)| {
            let bits = mix(seed ^ (i as u64) << 56);
            (cell(t, bits >> 8), bits & 7 == 0)
        })
        .collect();
    let nulled = cells
        .into_iter()
        .map(|(v, null)| if null { Value::Null } else { v });
    let all: Vec<Value> = nulled.collect();
    (all[..KEYS.len()].to_vec(), all[KEYS.len()..].to_vec())
}

/// A batch of generated rows. NULL cells hold a value drawn from `seed`, not
/// the type's default, and a column without NULLs still carries an all-true
/// mask when `seed` says so: neither may change a key's group.
fn generated_batch(seeds: &[u64]) -> Batch {
    let rows: Vec<Vec<Value>> = seeds
        .iter()
        .map(|&s| {
            let (k, v) = row(s);
            k.into_iter().chain(v).collect()
        })
        .collect();
    let (mut columns, mut validity) = (Vec::new(), Vec::new());
    for (c, &dtype) in KEYS.iter().chain(&VALS).enumerate() {
        let mut col = ColumnData::new(dtype);
        let mut valid = Vec::new();
        for (r, cells) in rows.iter().enumerate() {
            match &cells[c] {
                Value::Null => col.push_value(&cell(dtype, mix(seeds[r]))),
                v => col.push_value(v),
            }
            valid.push(!cells[c].is_null());
        }
        let masked = !valid.iter().all(|&v| v) || mix(seeds[0] ^ c as u64).is_multiple_of(3);
        columns.push(col);
        validity.push(masked.then_some(valid));
    }
    Batch::with_validity(columns, validity)
}

fn generated_schema() -> Schema {
    let names = ["k_str", "k_i32", "k_date", "k_dec", "k_bool", "k_f64"]
        .into_iter()
        .chain([
            "v_i64", "v_dec", "v_f64", "v_str", "v_bool", "v_date", "v_i32",
        ]);
    let fields: Vec<(&str, DataType)> = names.zip(KEYS.iter().chain(&VALS).copied()).collect();
    Schema::of(&fields)
}

/// Every function over every value column it accepts.
fn every_agg() -> Vec<AggSpec> {
    let k = KEYS.len();
    let mut aggs = vec![AggSpec::new(AggFunc::CountStar, 0, "n")];
    for (i, &t) in VALS.iter().enumerate() {
        let col = k + i;
        for func in [AggFunc::Min, AggFunc::Max, AggFunc::CountDistinct] {
            aggs.push(AggSpec::new(func, col, format!("{func:?}_{t}")));
        }
        if matches!(
            t,
            DataType::Int64 | DataType::Decimal | DataType::Float64 | DataType::Int32
        ) {
            aggs.push(AggSpec::new(AggFunc::Sum, col, format!("sum_{t}")));
        }
    }
    aggs.push(AggSpec::new(AggFunc::Avg, k + 1, "avg_dec"));
    aggs
}

/// The reference: per group (keyed by the cells' debug form), the output
/// row of `every_agg` computed with std collections.
fn reference(seeds: &[u64]) -> HashMap<Vec<String>, Vec<Value>> {
    let mut groups: HashMap<Vec<String>, Vec<Vec<Value>>> = HashMap::new();
    for &s in seeds {
        let (keys, vals) = row(s);
        let key = keys.iter().map(|v| format!("{v:?}")).collect();
        groups.entry(key).or_default().push(vals);
    }
    let extreme = |vals: Vec<&Value>, want: std::cmp::Ordering| {
        let mut best: Option<&Value> = None;
        for v in vals {
            if best.is_none_or(|b| joinstudy_exec::ops::aggregate::value_cmp(v, b) == want) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Value::Null)
    };
    let mut want = HashMap::new();
    for (key, rows) in groups {
        let mut out = vec![Value::Int64(rows.len() as i64)];
        for (i, &t) in VALS.iter().enumerate() {
            let valid: Vec<&Value> = rows
                .iter()
                .map(|r| &r[i])
                .filter(|v| !v.is_null())
                .collect();
            out.push(extreme(valid.clone(), std::cmp::Ordering::Less));
            out.push(extreme(valid.clone(), std::cmp::Ordering::Greater));
            let distinct: HashSet<String> = valid.iter().map(|v| format!("{v:?}")).collect();
            out.push(Value::Int64(distinct.len() as i64));
            match t {
                DataType::Int64 | DataType::Int32 => {
                    out.push(Value::Int64(valid.iter().map(|v| v.as_i64()).sum()))
                }
                DataType::Decimal => out.push(Value::Decimal(Decimal(
                    valid.iter().map(|v| v.as_i64()).sum(),
                ))),
                DataType::Float64 => out.push(Value::Float64(
                    valid
                        .iter()
                        .map(|v| match v {
                            Value::Float64(f) => *f,
                            _ => unreachable!(),
                        })
                        .sum(),
                )),
                _ => {}
            }
        }
        let decs: Vec<i64> = rows
            .iter()
            .filter(|r| !r[1].is_null())
            .map(|r| r[1].as_i64())
            .collect();
        out.push(match decs.len() {
            0 => Value::Null,
            n => Value::Decimal(Decimal(decs.iter().sum()).div(Decimal::from_int(n as i64))),
        });
        want.insert(key, out);
    }
    want
}

/// Compare a grouped result against `reference` row by row.
fn check_against_reference(t: &Table, seeds: &[u64]) -> Result<(), TestCaseError> {
    let want = reference(seeds);
    prop_assert_eq!(t.num_rows(), want.len());
    for r in 0..t.num_rows() {
        let got = t.row(r);
        let key: Vec<String> = got[..KEYS.len()].iter().map(|v| format!("{v:?}")).collect();
        let expected = want.get(&key);
        prop_assert!(expected.is_some(), "unexpected group {:?}", key);
        prop_assert_eq!(
            &got[KEYS.len()..],
            &expected.unwrap()[..],
            "group {:?}",
            key
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouped_sum_count_min_max_match_reference(
        rows in prop::collection::vec((-6i64..6, -100i64..100), 0..300),
        workers in 1usize..5,
        order in any::<u64>(),
    ) {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, 1, "s"),
                AggSpec::new(AggFunc::CountStar, 0, "c"),
                AggSpec::new(AggFunc::Min, 1, "lo"),
                AggSpec::new(AggFunc::Max, 1, "hi"),
            ],
        );
        let batches = rows.chunks(37).map(batch).collect();
        let t = aggregate(&sink, batches, workers, order);

        let mut want: HashMap<i64, (i64, i64, i64, i64)> = HashMap::new();
        for &(g, v) in &rows {
            let e = want.entry(g).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += v;
            e.1 += 1;
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
        prop_assert_eq!(t.num_rows(), want.len());
        for r in 0..t.num_rows() {
            let g = t.column(0).as_i64()[r];
            let (s, c, lo, hi) = want[&g];
            prop_assert_eq!(t.column_by_name("s").as_i64()[r], s);
            prop_assert_eq!(t.column_by_name("c").as_i64()[r], c);
            prop_assert_eq!(t.column_by_name("lo").as_i64()[r], lo);
            prop_assert_eq!(t.column_by_name("hi").as_i64()[r], hi);
        }
    }

    /// `COUNT(DISTINCT)` across several locals: a value two workers both saw
    /// for a group counts once.
    #[test]
    fn count_distinct_matches_reference(
        rows in prop::collection::vec((-4i64..4, -8i64..8), 0..200),
        workers in 1usize..5,
        order in any::<u64>(),
    ) {
        let sink = AggSink::new(
            schema(),
            vec![0],
            vec![AggSpec::new(AggFunc::CountDistinct, 1, "d")],
        );
        let batches = rows.chunks(23).map(batch).collect();
        let t = aggregate(&sink, batches, workers, order);
        let mut want: HashMap<i64, HashSet<i64>> = HashMap::new();
        for &(g, v) in &rows {
            want.entry(g).or_default().insert(v);
        }
        prop_assert_eq!(t.num_rows(), want.len());
        for r in 0..t.num_rows() {
            let g = t.column(0).as_i64()[r];
            prop_assert_eq!(t.column(1).as_i64()[r] as usize, want[&g].len());
        }
    }

    /// Every `AggFunc` over every column type it takes, grouped by six
    /// columns mixing Str, Int32, Date, Decimal, Bool and Float64, with NULL
    /// keys and values.
    #[test]
    fn every_function_over_mixed_nullable_keys_matches_reference(
        seeds in prop::collection::vec(any::<u64>(), 0..400),
        chunk in 1usize..130,
        workers in 1usize..5,
        order in any::<u64>(),
    ) {
        let sink = AggSink::new(generated_schema(), (0..KEYS.len()).collect(), every_agg());
        let batches = seeds.chunks(chunk).map(generated_batch).collect();
        let t = aggregate(&sink, batches, workers, order);
        check_against_reference(&t, &seeds)?;
    }

    /// SQL: a global aggregate over zero rows still yields one row — COUNTs
    /// and SUMs 0, MIN/MAX/AVG NULL — however many locals saw nothing.
    #[test]
    fn global_aggregate_over_zero_rows_yields_one_row(
        workers in 1usize..5,
        order in any::<u64>(),
    ) {
        let sink = AggSink::new(generated_schema(), vec![], every_agg());
        let t = aggregate(&sink, vec![generated_batch(&[1]).take(&[])], workers, order);
        prop_assert_eq!(t.num_rows(), 1);
        for (spec, v) in every_agg().iter().zip(t.row(0)) {
            match spec.func {
                AggFunc::CountStar | AggFunc::CountDistinct => prop_assert_eq!(v, Value::Int64(0)),
                AggFunc::Sum => prop_assert!(
                    matches!(v, Value::Int64(0) | Value::Decimal(Decimal(0)))
                        || v == Value::Float64(0.0),
                    "{} = {:?}", spec.name, v
                ),
                _ => prop_assert_eq!(v, Value::Null, "{}", spec.name),
            }
        }
    }

    #[test]
    fn sort_matches_std_sort(
        rows in prop::collection::vec((-50i64..50, -50i64..50), 0..300),
        limit in prop::option::of(0usize..50),
        asc: bool,
    ) {
        let keys = if asc {
            vec![SortKey::asc(0), SortKey::asc(1)]
        } else {
            vec![SortKey::desc(0), SortKey::desc(1)]
        };
        let sink = SortSink::new(schema(), keys, limit);
        let mut local = sink.create_local();
        if !rows.is_empty() {
            sink.consume(&mut local, batch(&rows)).unwrap();
        }
        sink.finish_local(local).unwrap();
        let t = sink.into_table();

        let mut want = rows.clone();
        want.sort();
        if !asc {
            want.reverse();
        }
        if let Some(l) = limit {
            want.truncate(l);
        }
        let got: Vec<(i64, i64)> = (0..t.num_rows())
            .map(|r| (t.column(0).as_i64()[r], t.column(1).as_i64()[r]))
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// 120 000 distinct keys, each seen twice with two values, split over three
/// locals: the tables double many times, and the merge meets every key.
#[test]
fn a_hundred_thousand_groups_force_table_doublings() {
    const N: i64 = 120_000;
    let keys: Vec<i64> = (0..2 * N).map(|i| (i * 7_919) % N).collect();
    // N % 7 == 6, so the two rows of a key (i and i + N) differ in value.
    let vals: Vec<i64> = (0..2 * N).map(|i| i % 7).collect();
    let batches = keys
        .chunks(1_024)
        .zip(vals.chunks(1_024))
        .map(|(k, v)| {
            Batch::new(vec![
                ColumnData::Int64(k.to_vec()),
                ColumnData::Int64(v.to_vec()),
            ])
        })
        .collect();
    let sink = AggSink::new(
        schema(),
        vec![0],
        vec![
            AggSpec::new(AggFunc::Sum, 1, "s"),
            AggSpec::new(AggFunc::CountDistinct, 1, "d"),
        ],
    );
    let t = aggregate(&sink, batches, 3, 7);
    let mut want: HashMap<i64, (i64, HashSet<i64>)> = HashMap::new();
    for (&k, &v) in keys.iter().zip(&vals) {
        let e = want.entry(k).or_default();
        e.0 += v;
        e.1.insert(v);
    }
    assert_eq!(t.num_rows(), N as usize);
    for r in 0..t.num_rows() {
        let (s, d) = &want[&t.column(0).as_i64()[r]];
        assert_eq!(t.column(1).as_i64()[r], *s);
        assert_eq!(d.len(), 2);
        assert_eq!(t.column(2).as_i64()[r], 2);
    }
}
