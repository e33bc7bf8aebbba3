//! Out-of-core hybrid hash join properties: exact result equivalence with
//! the in-memory BHJ under arbitrary memory budgets (including recursion
//! depth ≥ 2 and Zipf-skewed keys), the fault-injection matrix with
//! zero-orphan cleanup, and mid-spill cancellation hygiene.
//!
//! The spill fault shim is process-global, so every test in this binary
//! serializes on [`TEST_LOCK`] — a fault armed by one test must never leak
//! into another's I/O.

use joinstudy_core::hash::hash_columns;
use joinstudy_core::hybrid::{largest_resident, min_working_set, HybridJoin};
use joinstudy_core::radix::{ClosedSet, Eviction, PartitionSink, PhaseSet, RadixConfig};
use joinstudy_core::row::RowLayout;
use joinstudy_core::spill::{fault, SpillDir};
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::batch::{Batch, BatchBuilder};
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecError;
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_exec::pipeline::{Operator, Sink};
use joinstudy_exec::pool::WorkerPool;
use joinstudy_exec::profile::DetailValue;
use joinstudy_exec::Executor;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::gen::{Rng, Zipf};
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex, OnceLock};

fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match TEST_LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

const ALL_KINDS: [JoinType; 7] = [
    JoinType::Inner,
    JoinType::ProbeSemi,
    JoinType::ProbeAnti,
    JoinType::ProbeMark,
    JoinType::ProbeOuter,
    JoinType::BuildSemi,
    JoinType::BuildAnti,
];

fn kv_table(rows: &[(i64, i64)]) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows.len());
    *b.column_mut(0) = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
    *b.column_mut(1) = ColumnData::Int64(rows.iter().map(|r| r.1).collect());
    Arc::new(b.finish())
}

fn join_plan(bt: &Arc<Table>, pt: &Arc<Table>, algo: JoinAlgo, kind: JoinType) -> Plan {
    Plan::scan(bt, &["k", "v"], None).join(
        Plan::scan(pt, &["k", "v"], None),
        algo,
        kind,
        &[0],
        &[0],
    )
}

/// Canonical multiset of result rows (order-independent, validity-aware).
fn rows_sorted(t: &Table) -> Vec<String> {
    let mut out: Vec<String> = (0..t.num_rows())
        .map(|r| {
            let cells: Vec<String> = (0..t.num_columns())
                .map(|c| {
                    if t.is_valid(c, r) {
                        format!("{:?}", t.row(r)[c])
                    } else {
                        "NULL".into()
                    }
                })
                .collect();
            cells.join(",")
        })
        .collect();
    out.sort_unstable();
    out
}

/// Run `kind` with the unbounded BHJ and with the budgeted hybrid join and
/// require identical result multisets; returns the hybrid engine for
/// post-hoc counter assertions.
fn check_equivalence(bt: &Arc<Table>, pt: &Arc<Table>, kind: JoinType, budget: usize) -> Engine {
    let expected = rows_sorted(&Engine::new(2).run(&join_plan(bt, pt, JoinAlgo::Bhj, kind)));
    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(Some(budget));
    let got = engine
        .execute(&join_plan(bt, pt, JoinAlgo::Hybrid, kind))
        .unwrap_or_else(|e| panic!("{kind:?} under {budget} B: {e}"));
    assert_eq!(
        rows_sorted(&got),
        expected,
        "{kind:?} under a {budget} B budget diverged from the BHJ"
    );
    assert_eq!(engine.ctx.used(), 0, "{kind:?}: leaked budget reservations");
    engine
}

#[test]
fn all_join_kinds_match_bhj_under_tiny_budget() {
    let _guard = test_lock();
    let build: Vec<(i64, i64)> = (0..8_000).map(|i| (i % 900, i)).collect();
    let probe: Vec<(i64, i64)> = (0..24_000).map(|i| (i % 1800, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    for kind in ALL_KINDS {
        let engine = check_equivalence(&bt, &pt, kind, 256 * 1024);
        assert!(
            engine.ctx.spill_write_bytes() > 0,
            "{kind:?}: a 256 KiB budget over ~500 KiB of input must spill"
        );
    }
}

#[test]
fn recursion_depth_two_is_reached_and_correct() {
    let _guard = test_lock();
    // A build side over ten times the budget: on two workers 128 KiB fits
    // only a 4-way level 0, and each reload of a closed pair gets a part of
    // what the resident sides leave — still too little, so its pairs close
    // again and depth ≥ 2 is forced before partitions fit (or the nested
    // loop finishes the stragglers).
    let build: Vec<(i64, i64)> = (0..60_000).map(|i| (i % 50_000, i)).collect();
    let probe: Vec<(i64, i64)> = (0..60_000).map(|i| (i % 50_000, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    let engine = check_equivalence(&bt, &pt, JoinType::Inner, 128 * 1024);
    assert!(
        engine.ctx.spill_max_depth() >= 2,
        "expected recursive repartitioning depth >= 2, got {}",
        engine.ctx.spill_max_depth()
    );
}

#[test]
fn degenerate_keys_fall_back_to_nested_loop() {
    let _guard = test_lock();
    // Every row carries the same key: repartitioning can never shrink the
    // partition, so the join must detect the lack of progress and stream
    // through the block nested loop instead of recursing to the cap.
    let build: Vec<(i64, i64)> = (0..3_000).map(|i| (7, i)).collect();
    let probe: Vec<(i64, i64)> = (0..300).map(|i| (7, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    for kind in [JoinType::Inner, JoinType::ProbeOuter, JoinType::BuildAnti] {
        let engine = check_equivalence(&bt, &pt, kind, 96 * 1024);
        assert!(
            engine.ctx.spill_bnl_fallbacks() > 0,
            "{kind:?}: a single-key build must reach the nested loop"
        );
    }
}

/// A query's spill counts are its own: two budgeted hybrid joins, one of
/// which only the block nested loop can finish, started together on one
/// shared two-worker pool, count on their contexts exactly what each counts
/// when it runs alone, run after run.
#[test]
fn concurrent_spilling_joins_on_one_pool_count_their_own_spill() {
    let _guard = test_lock();
    let spread = kv_table(&(0..8_000).map(|i| (i % 900, i)).collect::<Vec<_>>());
    let probe = kv_table(&(0..24_000).map(|i| (i % 1800, i)).collect::<Vec<_>>());
    let one_key = kv_table(&(0..3_000).map(|i| (7, i)).collect::<Vec<_>>());
    let few = kv_table(&(0..300).map(|i| (7, i)).collect::<Vec<_>>());
    let pool = WorkerPool::new(2);
    let engine = |budget: usize| {
        let mut engine = Engine::new(2);
        engine.set_worker_pool(Some(Arc::clone(&pool)));
        engine.ctx.set_memory_budget(Some(budget));
        engine
    };
    let spill = |ctx: &QueryContext| {
        [
            ctx.spill_write_bytes(),
            ctx.spill_read_bytes(),
            ctx.spill_partitions(),
            ctx.spill_recursions(),
            ctx.spill_bnl_fallbacks(),
        ]
    };
    let hybrid = |bt, pt| join_plan(bt, pt, JoinAlgo::Hybrid, JoinType::Inner);
    let queries = [
        (hybrid(&spread, &probe), 256 * 1024),
        (hybrid(&one_key, &few), 96 * 1024),
    ];
    let alone = queries.each_ref().map(|(plan, budget)| {
        let engine = engine(*budget);
        engine.run(plan);
        spill(&engine.ctx)
    });
    assert!(alone[0][0] > 0, "the spread join spills: {:?}", alone[0]);
    assert_eq!(alone[0][4], 0, "the spread join needs no nested loop");
    assert!(
        alone[1][4] > 0,
        "the single-key join reaches the nested loop"
    );

    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for ((plan, budget), expected) in queries.iter().zip(alone) {
            let (engine, start) = (engine(*budget), &start);
            s.spawn(move || {
                for run in 0..4 {
                    start.wait();
                    engine.run(plan);
                    assert_eq!(spill(&engine.ctx), expected, "run {run}");
                }
            });
        }
    });
}

#[test]
fn zipf_skewed_keys_match_bhj() {
    let _guard = test_lock();
    // Zipf-ish key frequencies (rank r appears ~N/r times): a few huge key
    // groups plus a long tail, the classic radix-partitioning stressor.
    let mut build = Vec::new();
    for rank in 1i64..=400 {
        for c in 0..(20_000 / rank).min(2_000) {
            build.push((rank, rank * 100_000 + c));
        }
    }
    let probe: Vec<(i64, i64)> = (0..30_000).map(|i| (i % 600, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    for kind in [JoinType::Inner, JoinType::ProbeSemi, JoinType::ProbeMark] {
        check_equivalence(&bt, &pt, kind, 192 * 1024);
    }
}

/// A build side that fits under a budget the probe side does not: the HHJ
/// partitions only its build side, so it keeps every partition resident,
/// writes nothing, and streams the probe side through the table as the BHJ
/// does — for every join type.
#[test]
fn a_build_side_that_fits_spills_nothing_however_large_the_probe_side() {
    let _guard = test_lock();
    fault::set_for_test(None);
    // 2 000 build rows are ~64 KiB; 60 000 probe rows are ~960 KiB.
    let build: Vec<(i64, i64)> = (0..2_000).map(|i| (i, i)).collect();
    let probe: Vec<(i64, i64)> = (0..60_000).map(|i| (i % 8_000, i)).collect();
    let (bt, pt) = (kv_table(&build), kv_table(&probe));
    let budget = 512 * 1024;
    for kind in ALL_KINDS {
        let expected = rows_sorted(&Engine::new(2).run(&join_plan(&bt, &pt, JoinAlgo::Bhj, kind)));
        let engine = Engine::new(2);
        engine.ctx.set_memory_budget(Some(budget));
        let (got, profile) = engine
            .execute_profiled(&join_plan(&bt, &pt, JoinAlgo::Hybrid, kind))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(
            rows_sorted(&got),
            expected,
            "{kind:?}: diverged from the BHJ"
        );
        assert_eq!(engine.ctx.used(), 0, "{kind:?}: leaked budget reservations");
        assert_eq!(engine.ctx.spill_write_bytes(), 0, "{kind:?}: spilled");
        let node = profile
            .root
            .iter()
            .into_iter()
            .find(|n| n.label.starts_with("Join HHJ"));
        let node = node.unwrap_or_else(|| panic!("{kind:?}: no HHJ node"));
        let detail = |key: &str| {
            node.details
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        for key in ["spill_bytes", "evictions"] {
            assert_eq!(detail(key), Some(DetailValue::Int(0)), "{kind:?}: {key}");
        }
        assert_eq!(
            detail("probe_rows"),
            Some(DetailValue::Int(probe.len() as i64)),
            "{kind:?}: every probe row probes the resident table"
        );
    }
}

/// An evicting inner join of `(k, v)` rows on `k`, driven level by level.
fn kv_hybrid_join(ctx: &Arc<QueryContext>) -> HybridJoin {
    let types = vec![DataType::Int64, DataType::Int64];
    let mut join = HybridJoin {
        ctx: Arc::clone(ctx),
        dir: None,
        radix: RadixConfig::default(),
        build_types: types.clone(),
        probe_types: types,
        build_keys: vec![0],
        probe_keys: vec![0],
        kind: JoinType::Inner,
        residual: None,
        prefetch: true,
        seq: Default::default(),
        reload_depth: Default::default(),
        spill_runs: Default::default(),
        spill_bytes: Default::default(),
    };
    join.open_spill_dir().unwrap();
    join
}

/// `(i % keys, i)` rows for `i` in `rows`, as batches.
fn kv_batches(rows: std::ops::Range<i64>, keys: i64) -> Vec<Batch> {
    let mut bb = BatchBuilder::new(vec![DataType::Int64, DataType::Int64]);
    let mut out = Vec::new();
    for i in rows {
        bb.push_row(&[Value::Int64(i % keys), Value::Int64(i)]);
        if bb.is_full() {
            out.extend(bb.flush());
        }
    }
    out.extend(bb.flush());
    out
}

/// Under a partial fit the probe side writes exactly the rows of the
/// pre-partitions its build side closed, and probes the table with the
/// rest: the rows of open partitions never reach a run.
#[test]
fn only_probe_rows_of_closed_partitions_are_written() {
    let _guard = test_lock();
    fault::set_for_test(None);
    let budget = 256 * 1024;
    let ctx = QueryContext::unbounded();
    ctx.set_memory_budget(Some(budget));
    let join = kv_hybrid_join(&ctx);
    let level = join.top_level(Some(budget), 1).unwrap();
    let closed = ClosedSet::new(level.fanout());

    // ~640 KiB of build rows under a 256 KiB budget.
    let sink = join.build_sink(&level, &closed);
    let mut local = sink.create_local();
    for batch in kv_batches(0..20_000, 20_000) {
        sink.consume(&mut local, batch).unwrap();
    }
    sink.finish_local(local).unwrap();
    let table = join
        .table(&level, &sink, &closed, &Executor::new(1))
        .unwrap();
    let shut = table.closed_partitions();
    assert!(
        shut > 0 && shut < level.fanout(),
        "a partial fit closes {shut} of {}",
        level.fanout()
    );

    let route = join.route(&table, &sink);
    let mut local = route.create_local();
    let (mut closed_rows, mut open_rows, mut emitted) = (0u64, 0u64, 0u64);
    let mut hashes = Vec::new();
    for batch in kv_batches(0..40_000, 40_000) {
        hash_columns(&[batch.column(0)], batch.num_rows(), &mut hashes);
        for &h in &hashes {
            match closed.is_closed((h & (level.fanout() as u64 - 1)) as usize) {
                true => closed_rows += 1,
                false => open_rows += 1,
            }
        }
        route
            .process(&mut local, batch, &mut |b| emitted += b.num_rows() as u64)
            .unwrap();
    }
    route
        .flush(&mut local, &mut |b| emitted += b.num_rows() as u64)
        .unwrap();
    let mut written = 0;
    for p in 0..level.fanout() {
        let run = route.take_run(p).unwrap();
        assert_eq!(run.is_some(), closed.is_closed(p), "p{p}: a run iff closed");
        if let Some(run) = run {
            written += run.rows();
            run.remove();
        }
    }
    assert!(closed_rows > 0 && open_rows > 0);
    assert_eq!(written, closed_rows, "probe rows written to runs");
    let probed = route.with_probe(|probe| probe.walker.counters.rows.load(Ordering::Relaxed));
    assert_eq!(probed, open_rows, "probe rows probed in flight");
    // Keys 0..20 000 of the probe side match once each; those of open
    // partitions have matched already.
    assert!(
        emitted > 0 && emitted < 20_000,
        "{emitted} rows joined in flight"
    );
    drop((route, table, sink));
    assert_eq!(ctx.used(), 0, "leaked budget reservations");
}

/// A level's table keeps to the level's share however many workers filled
/// its build sink. A pipeline with continuations runs the sink's workers
/// once per source, each under a cap of its own, and the budget may have
/// room beyond the share (a neighbour's half): the table must still leave
/// the level's reloads their part.
#[test]
fn a_level_table_keeps_to_its_share_across_runs() {
    let _guard = test_lock();
    fault::set_for_test(None);
    let share = 256 * 1024;
    let ctx = QueryContext::unbounded();
    ctx.set_memory_budget(Some(4 * share));
    let join = kv_hybrid_join(&ctx);
    let level = join.top_level(Some(share), 1).unwrap();
    let closed = ClosedSet::new(level.fanout());
    let sink = join.build_sink(&level, &closed);
    // Three runs of one worker each, ~640 KiB of rows apiece.
    for run in 0..3 {
        let mut local = sink.create_local();
        for batch in kv_batches(run * 20_000..(run + 1) * 20_000, 60_000) {
            sink.consume(&mut local, batch).unwrap();
        }
        sink.finish_local(local).unwrap();
    }
    let table = join
        .table(&level, &sink, &closed, &Executor::new(1))
        .unwrap();
    let state = &table.state;
    let held = state.rows * state.layout.stride() + state.table.num_buckets() * 8;
    assert!(table.closed_partitions() > 0);
    assert!(
        held <= share,
        "the table holds {held} B of a {share} B share"
    );
    drop((table, sink));
    assert_eq!(ctx.used(), 0, "leaked budget reservations");
}

/// The HHJ's closed partitions join after its probe pipeline has drained,
/// as a continuation of that pipeline: a parent aggregate, a parent BHJ's
/// probe fused above the HHJ and a parent HHJ's build sink must see their
/// output too.
#[test]
fn closed_partitions_reach_the_parent_operators() {
    let _guard = test_lock();
    fault::set_for_test(None);
    let build: Vec<(i64, i64)> = (0..20_000).map(|i| (i % 10_000, i)).collect();
    let probe: Vec<(i64, i64)> = (0..30_000).map(|i| (i % 20_000, i)).collect();
    let parent: Vec<(i64, i64)> = (0..20_000).step_by(7).map(|i| (i, -i)).collect();
    let (bt, pt, qt) = (kv_table(&build), kv_table(&probe), kv_table(&parent));
    for kind in ALL_KINDS {
        // A column of the join's output that is never NULL: the probe key
        // of a probe outer join, else the first key.
        let key = if kind == JoinType::ProbeOuter { 2 } else { 0 };
        let aggregated = |algo| {
            join_plan(&bt, &pt, algo, kind)
                .aggregate(&[key], vec![AggSpec::new(AggFunc::CountStar, 0, "n")])
        };
        let probed = |algo| {
            Plan::scan(&qt, &["k", "v"], None).join(
                join_plan(&bt, &pt, algo, kind),
                JoinAlgo::Bhj,
                JoinType::Inner,
                &[0],
                &[key],
            )
        };
        // The continuation feeds a parent join's build sink too.
        let built = |algo| {
            join_plan(&bt, &pt, algo, kind).join(
                Plan::scan(&qt, &["k", "v"], None),
                algo,
                JoinType::Inner,
                &[key],
                &[0],
            )
        };
        for (shape, plan) in [
            ("aggregate", &aggregated as &dyn Fn(_) -> Plan),
            ("BHJ probe", &probed),
            ("HHJ build", &built),
        ] {
            let expected = rows_sorted(&Engine::new(2).run(&plan(JoinAlgo::Bhj)));
            let engine = Engine::new(2);
            engine.ctx.set_memory_budget(Some(512 * 1024));
            let got = engine
                .execute(&plan(JoinAlgo::Hybrid))
                .unwrap_or_else(|e| panic!("{kind:?} under a parent {shape}: {e}"));
            assert!(
                engine.ctx.spill_write_bytes() > 0,
                "{kind:?} under a parent {shape}: nothing closed"
            );
            assert_eq!(
                rows_sorted(&got),
                expected,
                "{kind:?} under a parent {shape}"
            );
            assert_eq!(engine.ctx.used(), 0, "{kind:?}: leaked budget reservations");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for random inputs, random budgets and every
    /// join variant, the budgeted hybrid join is indistinguishable from the
    /// unbounded in-memory BHJ. On two workers the budgets span levels from
    /// 2-way (under ≈ 76 KiB) to the capped 16-way (from ≈ 304 KiB).
    #[test]
    fn hybrid_equals_bhj_for_random_budgets(
        build_rows in 1usize..6_000,
        probe_rows in 1usize..12_000,
        key_mod in 1i64..3_000,
        budget_kib in 40usize..768,
        kind_idx in 0usize..7,
    ) {
        let _guard = test_lock();
        let build: Vec<(i64, i64)> = (0..build_rows as i64).map(|i| (i % key_mod, i)).collect();
        let probe: Vec<(i64, i64)> = (0..probe_rows as i64).map(|i| (i % (key_mod * 2), i)).collect();
        let bt = kv_table(&build);
        let pt = kv_table(&probe);
        check_equivalence(&bt, &pt, ALL_KINDS[kind_idx], budget_kib * 1024);
    }
}

/// `(k, v, s)` rows with a string payload: `rows` keys drawn from `domain`
/// values with Zipf exponent `z`, the most frequent key being 1 or, with
/// `reversed`, `domain` (two sides skewed towards different keys keep the
/// join's output small).
fn zipf_table(rows: usize, domain: u64, z: f64, reversed: bool) -> Arc<Table> {
    let schema = Schema::of(&[
        ("k", DataType::Int64),
        ("v", DataType::Int64),
        ("s", DataType::Str),
    ]);
    let mut rng = Rng::new(rows as u64);
    let zipf = Zipf::new(domain, z);
    let mut b = TableBuilder::with_capacity(schema, rows);
    for i in 0..rows {
        let rank = zipf.sample(&mut rng);
        let k = if reversed { domain + 1 - rank } else { rank } as i64;
        b.push_row(&[
            Value::Int64(k),
            Value::Int64(i as i64),
            Value::Str(format!("payload-{k}-{i}")),
        ]);
    }
    Arc::new(b.finish())
}

/// The robustness grid of "Design Trade-offs for a Robust Dynamic Hybrid
/// Hash Join": every join type × memory budget (none, half the build side,
/// a sixteenth of it, the join's stated floor) × key skew × thread count,
/// over rows that carry a string, against the BHJ as multisets — with the
/// budget back at zero and the spill directory empty after every run.
#[test]
fn grid_of_kinds_budgets_skews_and_threads_matches_bhj() {
    let _guard = test_lock();
    fault::set_for_test(None);
    let base = std::env::temp_dir().join(format!("joinstudy-grid-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let (build_rows, probe_rows) = (1_500, 3_000);
    // Materialized build rows: hash + three 8 B slots, padded to 32 B.
    let build_bytes = build_rows * 32;
    for z in [0.0, 1.0, 2.0] {
        let bt = zipf_table(build_rows, 1_000, z, false);
        let pt = zipf_table(probe_rows, 1_000, z, true);
        let plan = |algo, kind| {
            Plan::scan(&bt, &["k", "v", "s"], None).join(
                Plan::scan(&pt, &["k", "v", "s"], None),
                algo,
                kind,
                &[0],
                &[0],
            )
        };
        for kind in ALL_KINDS {
            let expected = rows_sorted(&Engine::new(2).run(&plan(JoinAlgo::Bhj, kind)));
            for threads in [1, 2] {
                let floor = 2 * min_working_set(2, threads);
                for budget in [
                    None,
                    Some(build_bytes / 2),
                    Some(build_bytes / 16),
                    Some(floor),
                ] {
                    // A budget under the floor is the floor test's subject.
                    let budget = budget.map(|b| b.max(floor));
                    let engine = Engine::new(threads);
                    engine.ctx.set_spill_dir(Some(base.clone()));
                    engine.ctx.set_memory_budget(budget);
                    let case = format!("{kind:?} z={z} threads={threads} budget={budget:?}");
                    let got = engine
                        .execute(&plan(JoinAlgo::Hybrid, kind))
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!(rows_sorted(&got), expected, "{case}: diverged from the BHJ");
                    assert_eq!(engine.ctx.used(), 0, "{case}: leaked budget reservations");
                    assert_eq!(
                        std::fs::read_dir(&base).unwrap().count(),
                        0,
                        "{case}: spill files left behind"
                    );
                    if budget.is_none() {
                        assert_eq!(engine.ctx.spill_write_bytes(), 0, "{case}: spilled");
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A budget under the join's minimum working set fails before any work is
/// done, and the error names the floor.
#[test]
fn budget_below_the_floor_names_the_floor() {
    let _guard = test_lock();
    let bt = kv_table(&[(1, 1)]);
    let pt = kv_table(&[(1, 2)]);
    let floor = 2 * min_working_set(2, 2);
    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(Some(floor - 1));
    match engine.execute(&join_plan(&bt, &pt, JoinAlgo::Hybrid, JoinType::Inner)) {
        Err(ExecError::BudgetExceeded {
            requested, budget, ..
        }) => {
            assert_eq!(requested, floor, "the error must name the floor");
            assert_eq!(budget, floor - 1);
        }
        other => panic!(
            "expected the floor breach, got {:?}",
            other.map(|t| t.num_rows())
        ),
    }
    assert_eq!(engine.ctx.used(), 0);
    engine.ctx.set_memory_budget(Some(floor));
    let t = engine
        .execute(&join_plan(&bt, &pt, JoinAlgo::Hybrid, JoinType::Inner))
        .expect("the floor itself is enough");
    assert_eq!(t.num_rows(), 1);
}

#[test]
fn fault_matrix_yields_typed_errors_and_zero_orphans() {
    let _guard = test_lock();
    let build: Vec<(i64, i64)> = (0..20_000).map(|i| (i % 2_000, i)).collect();
    let probe: Vec<(i64, i64)> = (0..40_000).map(|i| (i % 4_000, i)).collect();
    let bt = kv_table(&build);
    let pt = kv_table(&probe);
    let base = std::env::temp_dir().join(format!("joinstudy-fault-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();

    for spec in [
        "create:enospc",
        "create:eio:2",
        "write:enospc",
        "write:eio:3",
        "read:eio",
        "read:short",
        "read:short:2",
    ] {
        fault::set_for_test(fault::FaultSpec::parse(spec));
        let engine = Engine::new(2);
        engine.ctx.set_spill_dir(Some(base.clone()));
        engine.ctx.set_memory_budget(Some(256 * 1024));
        let err = engine
            .execute(&join_plan(&bt, &pt, JoinAlgo::Hybrid, JoinType::Inner))
            .expect_err("the armed fault must surface");
        assert!(
            matches!(err, ExecError::SpillIo { .. }),
            "{spec}: expected a typed spill error, got {err:?}"
        );
        assert_eq!(engine.ctx.used(), 0, "{spec}: leaked budget reservations");
        let orphans: Vec<_> = std::fs::read_dir(&base).unwrap().flatten().collect();
        assert!(
            orphans.is_empty(),
            "{spec}: orphan spill files left behind: {orphans:?}"
        );
    }
    fault::set_for_test(None);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cancellation_mid_spill_cleans_dir_and_budget() {
    let _guard = test_lock();
    fault::set_for_test(None);
    // Drive the partitioning sink directly so the cancel lands
    // deterministically *between* two spill writes.
    let ctx = joinstudy_exec::context::QueryContext::unbounded();
    ctx.set_memory_budget(Some(256 * 1024));
    let base = std::env::temp_dir().join(format!("joinstudy-cancel-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let dir = SpillDir::create(Some(base.clone())).unwrap();
    let spill_path = dir.path().to_path_buf();

    let radix = RadixConfig {
        bits_pass1: 1,
        ..RadixConfig::default()
    };
    let layout = RowLayout::new(&[DataType::Int64, DataType::Int64], false);
    let sink = PartitionSink::new(layout, vec![0], radix, PhaseSet::build())
        .with_context(Arc::clone(&ctx))
        .with_eviction(Eviction {
            closed: ClosedSet::new(2),
            dir: Arc::clone(&dir),
            tag: "build".into(),
            worker_cap: 64 * 1024,
            write_buf: 4 * 1024,
            victim: largest_resident,
        });
    let mut local = sink.create_local();
    let feed = |sink: &PartitionSink, local: &mut joinstudy_exec::pipeline::LocalState| {
        let mut bb = BatchBuilder::new(vec![DataType::Int64, DataType::Int64]);
        for i in 0..4_096i64 {
            bb.push_row(&[Value::Int64(i % 512), Value::Int64(i)]);
        }
        sink.consume(local, bb.flush().unwrap())
    };
    // Fill past the budget so at least one partition is mid-spill.
    for _ in 0..8 {
        feed(&sink, &mut local).unwrap();
    }
    assert!(
        sink.spilled_partitions() > 0,
        "setup must reach the spill path"
    );

    ctx.cancel();
    let err = feed(&sink, &mut local).expect_err("post-cancel write must stop");
    assert_eq!(err, ExecError::Cancelled);

    // Abandon everything exactly as the executor would on error.
    drop(local);
    drop(sink);
    drop(dir);
    assert_eq!(ctx.used(), 0, "cancelled sink leaked budget reservations");
    assert!(
        !spill_path.exists(),
        "cancelled spill directory must be removed"
    );
    std::fs::remove_dir_all(&base).ok();
}
