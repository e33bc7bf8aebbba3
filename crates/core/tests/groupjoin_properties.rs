//! Property test: the groupjoin must agree with its relational
//! decomposition — aggregate-the-probe-side, then left-outer-join — on
//! arbitrary inputs, and must be invariant to the probe's worker split.

use joinstudy_core::groupjoin::GroupAggSpec;
use joinstudy_core::{Engine, Plan};
use joinstudy_exec::ops::SortKey;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::DataType;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn kv_table(rows: &[(i64, i64)]) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows.len());
    *b.column_mut(0) = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
    *b.column_mut(1) = ColumnData::Int64(rows.iter().map(|r| r.1).collect());
    Arc::new(b.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn groupjoin_matches_reference(
        build in prop::collection::vec((-10i64..10, -100i64..100), 0..150),
        probe in prop::collection::vec((-10i64..10, -100i64..100), 0..300),
        threads in 1usize..4,
    ) {
        let bt = kv_table(&build);
        let pt = kv_table(&probe);
        let plan = Plan::scan(&bt, &["k", "v"], None)
            .group_join(
                Plan::scan(&pt, &["k", "v"], None),
                &[0],
                &[0],
                vec![
                    GroupAggSpec::count("n"),
                    GroupAggSpec::sum(
                        joinstudy_core::groupjoin::GroupAggFunc::SumInt64,
                        1,
                        "s",
                    ),
                ],
            )
            .sort(vec![SortKey::asc(0), SortKey::asc(1)], None);
        let t = Engine::new(threads).run(&plan);

        // Reference: per-key match count and sum over the probe side.
        let mut per_key: HashMap<i64, (i64, i64)> = HashMap::new();
        for &(k, v) in &probe {
            let e = per_key.entry(k).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        // One output row per build row, sorted like the plan's ORDER BY.
        let mut want: Vec<(i64, i64, i64, i64)> = build
            .iter()
            .map(|&(k, v)| {
                let (n, s) = per_key.get(&k).copied().unwrap_or((0, 0));
                (k, v, n, s)
            })
            .collect();
        want.sort();

        prop_assert_eq!(t.num_rows(), want.len());
        for (r, w) in want.iter().enumerate() {
            let got = (
                t.column(0).as_i64()[r],
                t.column(1).as_i64()[r],
                t.column(2).as_i64()[r],
                t.column(3).as_i64()[r],
            );
            prop_assert_eq!(got, *w, "row {}", r);
        }
    }
}

/// A build side past the inline-link threshold on two workers links its
/// table as a pipeline of its own, run under the query's context: it shows
/// in the query's trace, the groupjoin's build stays uncharged, and the
/// rows are those of the untraced run.
#[test]
fn groupjoin_link_runs_under_the_query_context() {
    let n = 160_000i64;
    let build: Vec<(i64, i64)> = (0..n).map(|k| (k, k)).collect();
    let probe: Vec<(i64, i64)> = (0..2 * n).map(|i| (i % n, i)).collect();
    let (bt, pt) = (kv_table(&build), kv_table(&probe));
    let plan = Plan::scan(&bt, &["k", "v"], None).group_join(
        Plan::scan(&pt, &["k", "v"], None),
        &[0],
        &[0],
        vec![GroupAggSpec::count("n")],
    );
    let engine = Engine::new(2);
    let rows = |t: &Table| {
        let mut rows: Vec<Vec<i64>> = (0..t.num_rows())
            .map(|r| (0..3).map(|c| t.column(c).as_i64()[r]).collect())
            .collect();
        rows.sort();
        rows
    };
    let untraced = rows(&engine.run(&plan));
    assert_eq!(untraced.len(), n as usize);
    assert!(untraced.iter().all(|r| r[2] == 2), "two probe rows per key");

    engine.ctx.set_tracing(true);
    let traced = rows(&engine.run(&plan));
    let trace = engine.take_trace().expect("traced run");
    assert_eq!(traced, untraced);
    assert!(
        trace.pipelines.iter().any(|p| p.label == "hash table link"),
        "no link pipeline in {:?}",
        trace.pipelines.iter().map(|p| &p.label).collect::<Vec<_>>()
    );
    trace.validate().unwrap();
    assert_eq!(engine.ctx.used(), 0);
}
