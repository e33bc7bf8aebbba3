//! Out-of-core hybrid hash join properties: exact result equivalence with
//! the in-memory BHJ under arbitrary memory budgets (including recursion
//! depth ≥ 2 and Zipf-skewed keys), the fault-injection matrix with
//! zero-orphan cleanup, and mid-spill cancellation hygiene.
//!
//! The spill fault shim is process-global, so every test in this binary
//! serializes on [`TEST_LOCK`] — a fault armed by one test must never leak
//! into another's I/O.

use joinstudy_core::hybrid::{largest_resident, min_working_set};
use joinstudy_core::radix::{ClosedSet, Eviction, PartitionSink, PhaseSet, RadixConfig};
use joinstudy_core::row::RowLayout;
use joinstudy_core::spill::{fault, SpillDir};
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::batch::BatchBuilder;
use joinstudy_exec::error::ExecError;
use joinstudy_exec::pipeline::Sink;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::gen::{Rng, Zipf};
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, OnceLock};

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
        check_equivalence(&bt, &pt, kind, 96 * 1024);
    }
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
