//! Determinism guarantees of the streaming TPC-H generator: every (scale,
//! seed) pair produces identical rows regardless of chunk size — and hence
//! regardless of worker count or poll order, since each chunk derives its
//! rows from per-unit RNG streams — and the materializing `dbgen` facade
//! (which is built on the same streams) agrees exactly, row counts included.
//! A projected chunk holds exactly the requested columns of the full one,
//! for uniform and skewed keys alike, and so does a stream scan's output.

use joinstudy_exec::batch::{slice_column, Batch};
use joinstudy_exec::pipeline::Source;
use joinstudy_exec::BATCH_ROWS;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::gen::Rng;
use joinstudy_storage::table::Table;
use joinstudy_storage::types::Value;
use joinstudy_tpch::stream::TABLES;
use joinstudy_tpch::{dbgen, StreamGen, StreamScan, TpchTable};
use proptest::prelude::*;
use std::sync::Arc;

const SF: f64 = 0.004;
const SEED: u64 = 42;
const ZIPF: f64 = 1.5;

/// Flatten a sequence of tables into one row-major value matrix so chunked
/// and materialized outputs compare directly.
fn rows_of<'a>(tables: impl IntoIterator<Item = &'a Table>) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for t in tables {
        for r in 0..t.num_rows() {
            out.push(
                (0..t.columns().len())
                    .map(|c| t.column(c).value(r))
                    .collect(),
            );
        }
    }
    out
}

fn chunked(gen: &StreamGen, table: TpchTable) -> Vec<Vec<Value>> {
    let chunks: Vec<Table> = (0..gen.chunk_count(table))
        .map(|i| gen.chunk(table, i))
        .collect();
    rows_of(&chunks)
}

fn values(col: &ColumnData) -> Vec<Value> {
    (0..col.len()).map(|r| col.value(r)).collect()
}

/// A stream's key distribution, the stream, and the materializing
/// generator it must match.
type Variant = (&'static str, StreamGen, fn() -> dbgen::TpchData);

/// The uniform and the skewed stream of `(SF, SEED)`, with `chunk_units`
/// units per chunk.
fn variants(chunk_units: usize) -> [Variant; 2] {
    [
        (
            "uniform",
            StreamGen::new(SF, SEED).with_chunk_units(chunk_units),
            || dbgen::generate(SF, SEED),
        ),
        (
            "skewed",
            StreamGen::skewed(SF, SEED, ZIPF).with_chunk_units(chunk_units),
            || dbgen::generate_skewed(SF, SEED, ZIPF),
        ),
    ]
}

#[test]
fn chunk_size_does_not_change_row_content() {
    for ((keys, small, _), (_, large, _)) in variants(37).into_iter().zip(variants(4096)) {
        for table in TABLES {
            assert_eq!(
                chunked(&small, table),
                chunked(&large, table),
                "{keys} {} rows must not depend on chunk size",
                table.name()
            );
        }
    }
}

#[test]
fn chunked_stream_matches_materializing_generator() {
    for (keys, gen, generate) in variants(53) {
        let data = generate();
        for table in TABLES {
            assert_eq!(
                chunked(&gen, table),
                rows_of([data.table(table.name()).as_ref()]),
                "{keys} streamed {} must equal dbgen output",
                table.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any non-empty projection, in any order, of any chunk of any table,
    /// under uniform or skewed keys and any chunk size, equals the same
    /// columns of the full chunk, value for value and validity included.
    #[test]
    fn projected_chunk_equals_the_full_chunks_columns(seed: u64) {
        let mut g = Rng::new(seed);
        let gen_seed = g.next_u64();
        let gen = if g.bool(0.5) {
            StreamGen::skewed(SF, gen_seed, ZIPF)
        } else {
            StreamGen::new(SF, gen_seed)
        }
        .with_chunk_units(1 + g.u64_below(400) as usize);
        let table = *g.pick(&TABLES);
        let schema = table.schema();
        let mut cols: Vec<usize> = g
            .permutation(schema.len())
            .into_iter()
            .map(|c| c as usize)
            .collect();
        cols.truncate(1 + g.u64_below(schema.len() as u64) as usize);
        let idx = g.u64_below(gen.chunk_count(table) as u64) as usize;

        let full = gen.chunk(table, idx);
        let projected = gen.chunk_cols(table, idx, &cols);
        prop_assert_eq!(projected.num_columns(), cols.len());
        prop_assert_eq!(projected.num_rows(), full.num_rows());
        for (i, &c) in cols.iter().enumerate() {
            prop_assert_eq!(&projected.schema().fields[i], &schema.fields[c]);
            prop_assert_eq!(
                values(projected.column(i)),
                values(full.column(c)),
                "{} column {}",
                table.name(),
                c
            );
            prop_assert_eq!(projected.validity(i), full.validity(c));
        }
    }
}

#[test]
fn stream_scan_emits_the_full_chunks_sliced() {
    for (keys, gen, _) in variants(700) {
        let gen = Arc::new(gen);
        let names = ["l_comment", "l_orderkey", "l_shipdate", "l_extendedprice"];
        let scan = StreamScan::by_names(Arc::clone(&gen), TpchTable::Lineitem, &names);
        let schema = TpchTable::Lineitem.schema();
        let cols: Vec<usize> = names.iter().map(|n| schema.index_of(n)).collect();
        assert!(scan.task_count() > 1);
        for task in 0..scan.task_count() {
            let mut emitted: Vec<Batch> = Vec::new();
            scan.poll_task(task, &mut |b: Batch| emitted.push(b))
                .unwrap();
            let full = gen.chunk(TpchTable::Lineitem, task);
            let starts: Vec<usize> = (0..full.num_rows()).step_by(BATCH_ROWS).collect();
            assert!(starts.len() > 1, "a chunk must span several batches");
            assert_eq!(emitted.len(), starts.len(), "{keys} task {task}");
            for (batch, &start) in emitted.iter().zip(&starts) {
                let end = (start + BATCH_ROWS).min(full.num_rows());
                assert_eq!(batch.num_columns(), cols.len());
                for (i, &c) in cols.iter().enumerate() {
                    assert_eq!(
                        values(batch.column(i)),
                        values(&slice_column(full.column(c), start, end)),
                        "{keys} task {task} rows {start}..{end} column {}",
                        names[i]
                    );
                    assert!(batch.validity(i).is_none() && full.validity(c).is_none());
                }
            }
        }
    }
}

#[test]
fn lineitem_stream_is_identical_with_and_without_orders() {
    // A lineitem-only stream must draw the same per-order values as the
    // combined orders+lineitem materialization: the order-level draws its
    // dates derive from come before the lineitem loop, and the ones it
    // skips (priority, clerk, comment) come after it.
    let gen = StreamGen::new(SF, SEED).with_chunk_units(61);
    let (_, lineitem) = gen.materialize_orders_lineitem();
    assert_eq!(chunked(&gen, TpchTable::Lineitem), rows_of([&lineitem]));
}

#[test]
fn row_counts_match_spec_cardinalities() {
    let sf = 0.01;
    let gen = StreamGen::new(sf, SEED);
    let data = dbgen::generate(sf, SEED);
    for table in TABLES {
        let streamed: usize = (0..gen.chunk_count(table))
            .map(|i| gen.chunk(table, i).num_rows())
            .sum();
        assert_eq!(
            streamed,
            data.table(table.name()).num_rows(),
            "{} cardinality",
            table.name()
        );
    }
}

#[test]
fn est_rows_brackets_actual_rows() {
    let gen = StreamGen::new(0.01, SEED);
    for table in TABLES {
        let actual: usize = (0..gen.chunk_count(table))
            .map(|i| gen.chunk(table, i).num_rows())
            .sum();
        let est = gen.est_rows(table);
        assert!(
            est >= actual as f64 * 0.5 && est <= actual as f64 * 2.0,
            "{}: est {} vs actual {}",
            table.name(),
            est,
            actual
        );
    }
}
