//! Configuration-matrix stress: every join algorithm must stay correct
//! under extreme radix configurations, adversarial keys, long strings and
//! engine-knob combinations — the "it's just a tuning knob, not a
//! correctness knob" guarantee.

use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan, RadixConfig};
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use std::sync::Arc;

fn kv_table(rows: &[(i64, i64)]) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows.len());
    *b.column_mut(0) = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
    *b.column_mut(1) = ColumnData::Int64(rows.iter().map(|r| r.1).collect());
    Arc::new(b.finish())
}

fn count_join(engine: &Engine, bt: &Arc<Table>, pt: &Arc<Table>, algo: JoinAlgo) -> i64 {
    let plan = Plan::scan(bt, &["k", "v"], None)
        .join(
            Plan::scan(pt, &["k", "v"], None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")]);
    engine.run(&plan).column_by_name("cnt").as_i64()[0]
}

#[test]
fn radix_config_extremes_are_correct() {
    let build: Vec<(i64, i64)> = (0..5000).map(|i| (i % 700, i)).collect();
    let probe: Vec<(i64, i64)> = (0..20_000).map(|i| (i % 1400, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    let expected = count_join(&Engine::new(1), &bt, &pt, JoinAlgo::Bhj);

    let configs = [
        RadixConfig {
            bits_pass1: 1,
            max_bits_pass2: 0,
            ..RadixConfig::default()
        },
        RadixConfig {
            bits_pass1: 1,
            max_bits_pass2: 8,
            target_partition_bytes: 256,
            ..RadixConfig::default()
        },
        RadixConfig {
            bits_pass1: 10,
            max_bits_pass2: 2,
            ..RadixConfig::default()
        },
        RadixConfig {
            bits_pass1: 6,
            max_bits_pass2: 8,
            target_partition_bytes: 1 << 30,
            ..RadixConfig::default()
        },
        RadixConfig {
            use_swwcb: false,
            use_nt_stores: false,
            ..RadixConfig::default()
        },
        RadixConfig {
            use_swwcb: true,
            use_nt_stores: false,
            ..RadixConfig::default()
        },
    ];
    for (i, cfg) in configs.iter().enumerate() {
        for threads in [1, 3] {
            let mut engine = Engine::new(threads);
            engine.radix = *cfg;
            for algo in [JoinAlgo::Rj, JoinAlgo::Brj] {
                assert_eq!(
                    count_join(&engine, &bt, &pt, algo),
                    expected,
                    "config {i} {algo:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn adversarial_identical_keys() {
    // Everything hashes to one partition / one bucket chain.
    let build: Vec<(i64, i64)> = (0..300).map(|i| (42, i)).collect();
    let probe: Vec<(i64, i64)> = (0..500).map(|i| (42, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        assert_eq!(
            count_join(&Engine::new(2), &bt, &pt, algo),
            300 * 500,
            "{algo:?}"
        );
    }
}

#[test]
fn near_limit_strings_flow_through_joins() {
    // Strings close to the 64 KiB StrRef length limit must survive
    // materialization, partitioning and decoding.
    let schema = Schema::of(&[("k", DataType::Int64), ("s", DataType::Str)]);
    let big = "x".repeat(60_000);
    let mut b = TableBuilder::new(schema.clone());
    for i in 0..20i64 {
        b.push_row(&[Value::Int64(i), Value::Str(format!("{big}-{i}"))]);
    }
    let bt = Arc::new(b.finish());
    let mut p = TableBuilder::new(schema);
    for i in 0..40i64 {
        p.push_row(&[Value::Int64(i % 20), Value::Str("probe".into())]);
    }
    let pt = Arc::new(p.finish());

    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        let plan = Plan::scan(&bt, &["k", "s"], None).join(
            Plan::scan(&pt, &["k"], None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        );
        let t = Engine::new(2).run(&plan);
        assert_eq!(t.num_rows(), 40, "{algo:?}");
        for r in 0..t.num_rows() {
            let s = t.column(1).as_str().get(r);
            assert_eq!(
                s.len(),
                big.len() + 2 + (t.column(0).as_i64()[r] >= 10) as usize
            );
            assert!(s.starts_with("xxx"), "{algo:?}: corrupted string");
        }
    }
}

#[test]
fn bhj_without_prefetch_is_equivalent() {
    // Duplicates on both sides, a quarter of the build keys never probed
    // and half of the probe keys without a partner, so that every join
    // type has rows to keep and rows to drop.
    let build: Vec<(i64, i64)> = (0..4000).map(|i| (i % 2000, i)).collect();
    let probe: Vec<(i64, i64)> = (0..16_000).map(|i| (500 + i % 3000, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    for kind in [
        JoinType::Inner,
        JoinType::ProbeOuter,
        JoinType::ProbeSemi,
        JoinType::ProbeAnti,
        JoinType::ProbeMark,
        JoinType::BuildSemi,
        JoinType::BuildAnti,
    ] {
        let plan = Plan::scan(&bt, &["k", "v"], None).join(
            Plan::scan(&pt, &["k", "v"], None),
            JoinAlgo::Bhj,
            kind,
            &[0],
            &[0],
        );
        let rows = |prefetch: bool| {
            let mut engine = Engine::new(2);
            engine.bhj_prefetch = prefetch;
            let table = engine.run(&plan);
            let mut rows: Vec<String> = (0..table.num_rows())
                .map(|r| format!("{:?}", table.row(r)))
                .collect();
            rows.sort_unstable();
            rows
        };
        let with = rows(true);
        assert!(!with.is_empty(), "{kind:?}");
        assert_eq!(with, rows(false), "{kind:?}");
    }
}

#[test]
fn adaptive_bloom_is_result_transparent() {
    for sel_keys in [100i64, 5000] {
        let build: Vec<(i64, i64)> = (0..5000).map(|i| (i, i)).collect();
        let probe: Vec<(i64, i64)> = (0..200_000).map(|i| (i % sel_keys, i)).collect();
        let bt = kv_table(&build);
        let pt = kv_table(&probe);
        let mut adaptive = Engine::new(2);
        adaptive.adaptive_bloom = true;
        let plain = Engine::new(2);
        assert_eq!(
            count_join(&adaptive, &bt, &pt, JoinAlgo::Brj),
            count_join(&plain, &bt, &pt, JoinAlgo::Brj),
            "sel_keys={sel_keys}"
        );
    }
}

#[test]
fn multi_column_composite_keys_all_algorithms() {
    // (k, v) used as a composite key with partial collisions on each part.
    let schema = Schema::of(&[("a", DataType::Int64), ("b", DataType::Int32)]);
    let mk = |rows: &[(i64, i32)]| -> Arc<Table> {
        let mut t = TableBuilder::new(schema.clone());
        for &(a, b) in rows {
            t.push_row(&[Value::Int64(a), Value::Int32(b)]);
        }
        Arc::new(t.finish())
    };
    let build: Vec<(i64, i32)> = (0..1000).map(|i| (i % 50, (i % 20) as i32)).collect();
    let probe: Vec<(i64, i32)> = (0..3000).map(|i| (i % 100, (i % 40) as i32)).collect();
    let bt = mk(&build);
    let pt = mk(&probe);

    // Reference count via nested loop.
    let expected: usize = build
        .iter()
        .map(|b| probe.iter().filter(|p| *p == b).count())
        .sum();

    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        let plan = Plan::scan(&bt, &["a", "b"], None)
            .join(
                Plan::scan(&pt, &["a", "b"], None),
                algo,
                JoinType::Inner,
                &[0, 1],
                &[0, 1],
            )
            .aggregate(&[], vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")]);
        let t = Engine::new(2).run(&plan);
        assert_eq!(
            t.column_by_name("cnt").as_i64()[0] as usize,
            expected,
            "{algo:?}"
        );
    }
}
