//! Property tests on profiler accounting: tuple counts must obey
//! conservation laws on arbitrary inputs under every join algorithm and
//! thread count. A filter never manufactures rows, a join's reported
//! output equals the actual result cardinality (cross-checked against a
//! hash-map reference), the sink sees exactly the result, and no
//! operator's aggregate busy time exceeds what the worker pool could have
//! spent inside the measured wall clock. The same bound is checked one
//! level down, per pipeline, on every TPC-H query, together with the
//! wall-time identity of the query's record.

use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::expr::Expr;
use joinstudy_exec::{QueryRecord, SegmentKind, WorkerPool};
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

/// Nothing a pipeline reports can exceed the time it had, and the query's
/// record accounts for all of it. A pipeline's source time (inclusive of
/// everything downstream) is at most its wall time on each of its
/// workers. The record's segments — the stretches the submitting thread
/// spends between pipelines and each top-level pipeline — tile the query's
/// wall time, and the pipelines' own clocks plus the time between them add
/// up to it within 2 %: the wall-time identity, on every TPC-H query, traced
/// and untraced, inline, on a private pool and on a shared one.
#[test]
fn tpch_pipeline_times_add_up_to_wall_time() {
    let data = joinstudy_tpch::generate(0.01, 20260706);
    let algos = [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj, JoinAlgo::Hybrid];
    for (threads, pooled) in [(1, false), (2, false), (2, true)] {
        let mut engine = Engine::new(threads);
        if pooled {
            engine.set_worker_pool(Some(WorkerPool::new(threads)));
        }
        engine.ctx.set_profiling(true);
        for traced in [false, true] {
            engine.ctx.set_tracing(traced);
            for q in all_queries() {
                let algo = algos[q.id as usize % algos.len()];
                let case = format!(
                    "Q{} {algo:?} threads={threads} pooled={pooled} traced={traced}",
                    q.id
                );
                let t0 = std::time::Instant::now();
                (q.run)(&data, &QueryConfig::new(algo), &engine);
                let outer = t0.elapsed().as_nanos() as u64;
                let record = engine.take_record().expect("every query leaves its record");
                assert_eq!(record.trace.is_some(), traced, "{case}");
                let profile = record.profile.as_ref().expect("profiling on");
                assert_eq!(profile.wall_ns, record.wall_ns, "{case}");
                assert!(record.wall_ns <= outer, "{case}: record outlasts the call");
                // A build per join and the output; Q3 adds its aggregate
                // and sort.
                let floor = if q.id == 3 { 5 } else { q.main_joins + 1 };
                assert_identity(&record, threads as u64, floor, &case);
            }
        }
    }
}

/// The record's segments follow one another without gap or overlap up to
/// its wall time, it holds at least `floor` pipelines, and the pipelines'
/// own wall times plus every other segment add up to it within 2 %.
fn assert_identity(record: &QueryRecord, threads: u64, floor: usize, case: &str) {
    let mut at = 0;
    for s in &record.segments {
        assert_eq!(
            s.start_ns, at,
            "{case}: a gap or overlap before {:?}",
            s.kind
        );
        at = s.end_ns.expect("a closed record runs nothing");
    }
    assert_eq!(at, record.wall_ns, "{case}");
    let mut pipelines = 0;
    for (_, p) in record.pipelines() {
        pipelines += 1;
        assert!(
            (1..=threads).contains(&p.workers()),
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
    assert!(pipelines >= floor, "{case}: {pipelines} pipelines");
    let own: u64 = record
        .segments
        .iter()
        .map(|s| match &s.kind {
            SegmentKind::Pipeline(p) => p.wall_ns(),
            _ => s.dur_ns(),
        })
        .sum();
    let eps = record.wall_ns / 50;
    assert!(
        own.abs_diff(record.wall_ns) <= eps,
        "{case}: admission + parse/plan + pipelines + between = {own}ns, query wall {}ns",
        record.wall_ns
    );
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
