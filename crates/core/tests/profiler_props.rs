//! Property tests on profiler accounting: tuple counts must obey
//! conservation laws on arbitrary inputs under every join algorithm and
//! thread count. A filter never manufactures rows, a join's reported
//! output equals the actual result cardinality (cross-checked against a
//! hash-map reference), the sink sees exactly the result, and no
//! operator's aggregate busy time exceeds what the worker pool could have
//! spent inside the measured wall clock. The same bound is checked one
//! level down, per pipeline, on TPC-H Q3: the first half of the wall-time
//! decomposition invariant.

use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::expr::Expr;
use joinstudy_exec::WorkerPool;
use joinstudy_storage::table::{Schema, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use joinstudy_tpch::queries::{all_queries, QueryConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn int_table(values: &[i64]) -> Arc<joinstudy_storage::table::Table> {
    let mut b = TableBuilder::new(Schema::of(&[("k", DataType::Int64)]));
    for &v in values {
        b.push_row(&[Value::Int64(v)]);
    }
    Arc::new(b.finish())
}

/// Nothing a pipeline reports can exceed the time it had: a pipeline's
/// source time (inclusive of everything downstream) is at most its wall
/// time on each of its workers, and pipelines of one query run one after
/// another, so their wall times sum to at most the query's.
#[test]
fn q3_pipeline_times_fit_inside_wall_time() {
    let data = joinstudy_tpch::generate(0.01, 20260706);
    let q3 = all_queries().into_iter().find(|q| q.id == 3).unwrap();
    for pooled in [false, true] {
        let mut engine = Engine::new(2);
        if pooled {
            engine.set_worker_pool(Some(WorkerPool::new(2)));
        }
        engine.ctx.set_profiling(true);
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj, JoinAlgo::Hybrid] {
            let case = format!("Q3 {algo:?} pooled={pooled}");
            (q3.run)(&data, &QueryConfig::new(algo), &engine);
            let profile = engine.take_profile().expect("profiling on");
            let pipelines = engine.take_pipelines();
            // At least a build per join, the aggregate, the sort, the output.
            assert!(
                pipelines.len() >= 5,
                "{case}: {} pipelines",
                pipelines.len()
            );
            for p in &pipelines {
                assert!(
                    (1..=2).contains(&p.workers()),
                    "{case}: {} ran on {} workers",
                    p.label,
                    p.workers()
                );
                assert!(
                    p.source.busy_ns() <= p.workers() * p.wall_ns(),
                    "{case}: {} source busy {}ns exceeds {} workers x wall {}ns",
                    p.label,
                    p.source.busy_ns(),
                    p.workers(),
                    p.wall_ns()
                );
            }
            let sum: u64 = pipelines.iter().map(|p| p.wall_ns()).sum();
            assert!(
                sum <= profile.wall_ns,
                "{case}: pipeline wall times sum to {sum}ns, query took {}ns",
                profile.wall_ns
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn profiled_counts_obey_conservation_laws(
        build in prop::collection::vec(-40i64..40, 0..500),
        probe in prop::collection::vec(-40i64..40, 0..1000),
        threshold in -40i64..41,
        algo_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let algo = [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj][algo_pick];

        // Reference: join size after filtering the probe side.
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for k in &build {
            *counts.entry(*k).or_default() += 1;
        }
        let kept: Vec<i64> = probe.iter().copied().filter(|k| *k < threshold).collect();
        let expected: usize = kept
            .iter()
            .map(|k| counts.get(k).copied().unwrap_or(0))
            .sum();

        let bt = int_table(&build);
        let pt = int_table(&probe);
        let plan = Plan::scan(&bt, &["k"], None).join(
            Plan::scan(&pt, &["k"], None).filter(Expr::col(0).lt(Expr::i64(threshold))),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        );

        let engine = Engine::new(threads);
        engine.ctx.set_profiling(true);
        let result = engine.run(&plan);
        let profile = engine.take_profile().expect("profiling on");
        prop_assert_eq!(result.num_rows(), expected, "{:?} result size", algo);

        // Sink conservation: the Output node consumed exactly the result.
        prop_assert_eq!(profile.root.rows_in, expected as u64);

        let nodes = profile.nodes();
        let filter = nodes
            .iter()
            .find(|n| n.label.starts_with("Filter"))
            .expect("plan has a Filter node");
        prop_assert_eq!(filter.rows_in, probe.len() as u64);
        prop_assert_eq!(filter.rows_out, kept.len() as u64);
        prop_assert!(filter.rows_out <= filter.rows_in);

        let join = nodes
            .iter()
            .find(|n| n.label.starts_with("Join"))
            .expect("plan has a Join node");
        prop_assert_eq!(join.rows_out, expected as u64, "{:?} join rows_out", algo);

        // Busy-time bound: each node's busy is summed over at most
        // `threads` workers per pipeline and pipelines run sequentially,
        // so it can never exceed wall * threads.
        let budget = profile.wall_ns.saturating_mul(profile.threads as u64);
        for n in &nodes {
            prop_assert!(
                n.busy_ns <= budget,
                "node {} busy {}ns exceeds wall {}ns x {} threads",
                n.label, n.busy_ns, profile.wall_ns, profile.threads
            );
        }
    }

    #[test]
    fn profiling_is_result_transparent(
        build in prop::collection::vec(-24i64..24, 0..300),
        probe in prop::collection::vec(-24i64..24, 0..600),
        algo_pick in 0usize..3,
    ) {
        let algo = [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj][algo_pick];
        let bt = int_table(&build);
        let pt = int_table(&probe);
        let plan = Plan::scan(&bt, &["k"], None).join(
            Plan::scan(&pt, &["k"], None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        );
        let engine = Engine::new(2);

        let plain = engine.run(&plan);
        prop_assert!(engine.take_profile().is_none());

        engine.ctx.set_profiling(true);
        let profiled = engine.run(&plan);
        prop_assert!(engine.take_profile().is_some());

        let canon = |t: &joinstudy_storage::table::Table| {
            let mut rows: Vec<i64> = (0..t.num_rows())
                .flat_map(|r| t.row(r).iter().map(|v| match v {
                    Value::Int64(x) => *x,
                    other => panic!("unexpected value {other:?}"),
                }).collect::<Vec<_>>())
                .collect();
            rows.sort_unstable();
            rows
        };
        prop_assert_eq!(canon(&plain), canon(&profiled), "{:?}", algo);
    }
}
