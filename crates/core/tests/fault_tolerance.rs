//! Fault-tolerance integration tests: cancellation, timeouts, and the
//! memory-budget degradation path (RJ → BHJ) through the full engine.
//!
//! The spill fault shim is process-global: a test that arms it and one
//! whose joins may reach the spilling rung serialize on [`fault_lock`].

use joinstudy_core::spill::fault;
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::error::ExecError;
use joinstudy_exec::metrics;
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_exec::profile::{DetailValue, ProfileNode};
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn table_kv(rows: usize, key_mod: usize) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows);
    for i in 0..rows {
        b.push_row(&[Value::Int64((i % key_mod) as i64), Value::Int64(i as i64)]);
    }
    Arc::new(b.finish())
}

fn count_join_plan(build: &Arc<Table>, probe: &Arc<Table>, algo: JoinAlgo) -> Plan {
    Plan::scan(build, &["k", "v"], None)
        .join(
            Plan::scan(probe, &["k", "v"], None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")])
}

#[test]
fn cross_thread_cancellation_stops_the_query() {
    let build = table_kv(60_000, 60_000);
    let probe = table_kv(400_000, 60_000);
    let plan = count_join_plan(&build, &probe, JoinAlgo::Rj);
    let engine = Engine::new(2);
    let ctx = Arc::clone(&engine.ctx);

    // `execute` re-arms the context, so the cancel must land mid-flight.
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        ctx.cancel();
    });
    let err = engine.execute(&plan).err();
    canceller.join().unwrap();
    assert_eq!(err, Some(ExecError::Cancelled));

    // All workers joined, all budget released, engine stays usable.
    assert_eq!(engine.ctx.used(), 0);
    let t = engine.run(&count_join_plan(&build, &probe, JoinAlgo::Bhj));
    assert_eq!(t.column_by_name("cnt").as_i64()[0], 400_000);
}

#[test]
fn deadline_surfaces_as_timeout() {
    let build = table_kv(60_000, 60_000);
    let probe = table_kv(400_000, 60_000);
    let plan = count_join_plan(&build, &probe, JoinAlgo::Bhj);
    let engine = Engine::new(2);
    engine.ctx.set_timeout(Some(Duration::from_millis(1)));
    match engine.execute(&plan) {
        Err(ExecError::Timeout { budget_ms: 1 }) => {}
        other => panic!("expected 1 ms timeout, got {:?}", other.err()),
    }
    assert_eq!(engine.ctx.used(), 0);

    // Clearing the deadline makes the same engine succeed again.
    engine.ctx.set_timeout(None);
    let t = engine.run(&plan);
    assert_eq!(t.column_by_name("cnt").as_i64()[0], 400_000);
}

#[test]
fn radix_join_degrades_to_bhj_under_memory_budget() {
    let _guard = fault_lock();
    // The paper's trade-off, exercised as a fallback: the radix join
    // materializes BOTH sides, the BHJ only the build side. A budget that
    // holds the build side but not the partitioned probe side must degrade
    // RJ → BHJ and still produce the exact result.
    let build = table_kv(1_000, 1_000); // 16 KiB of build rows
    let probe = table_kv(200_000, 1_000); // 3.2 MiB of probe rows
    let plan = count_join_plan(&build, &probe, JoinAlgo::Rj);

    let unbudgeted = Engine::new(2).run(&plan);
    let expected = unbudgeted.column_by_name("cnt").as_i64()[0];
    assert_eq!(expected, 200_000);

    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(Some(512 * 1024));
    let before = metrics::degradations();
    let t = engine.run(&plan);
    assert_eq!(t.column_by_name("cnt").as_i64()[0], expected);
    assert_eq!(
        metrics::degradations(),
        before + 1,
        "budgeted RJ should have fallen back to BHJ exactly once"
    );
    assert_eq!(engine.ctx.used(), 0, "all leases released after the query");

    // An impossible budget still fails — but with the typed error.
    engine.ctx.set_memory_budget(Some(1024));
    match engine.execute(&plan) {
        Err(ExecError::BudgetExceeded { budget, .. }) => assert_eq!(budget, 1024),
        other => panic!("expected budget breach, got {:?}", other.err()),
    }
    assert_eq!(engine.ctx.used(), 0);
}

#[test]
fn brj_also_degrades_and_bloom_budget_is_charged() {
    let build = table_kv(1_000, 1_000);
    let probe = table_kv(200_000, 1_000);
    let plan = count_join_plan(&build, &probe, JoinAlgo::Brj);
    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(Some(512 * 1024));
    let before = metrics::degradations();
    let t = engine.run(&plan);
    assert_eq!(t.column_by_name("cnt").as_i64()[0], 200_000);
    assert_eq!(metrics::degradations(), before + 1);
    assert_eq!(engine.ctx.used(), 0);
}

#[test]
fn budget_high_water_tracks_peak_reservation() {
    let build = table_kv(5_000, 5_000);
    let probe = table_kv(20_000, 5_000);
    let plan = count_join_plan(&build, &probe, JoinAlgo::Rj);
    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(Some(64 * 1024 * 1024));
    engine.run(&plan);
    // Both sides were materialized at some point: the peak must cover at
    // least the contiguous copies of build + probe rows (16 B stride).
    assert!(
        engine.ctx.high_water() >= (5_000 + 20_000) * 16,
        "high water {} too low",
        engine.ctx.high_water()
    );
    assert_eq!(engine.ctx.used(), 0);
}

/// The groupjoin's build is not charged against the budget (it has no
/// cheaper rung to fall back to): Q13 at SF 0.05 — 7 500 customers, 32 B
/// rows and an 8 192-bucket table, more than 256 KiB if it were charged —
/// returns the unbudgeted rows under 256 KiB.
#[test]
fn groupjoin_build_is_not_charged() {
    let data = joinstudy_tpch::generate(0.05, 20260706);
    let q13 = joinstudy_tpch::query(13);
    let cfg = joinstudy_tpch::queries::QueryConfig::new(JoinAlgo::Bhj);
    let expected = (q13.run)(&data, &cfg, &Engine::new(2));
    let engine = Engine::new(2);
    engine.ctx.set_memory_budget(Some(256 << 10));
    let got = (q13.run)(&data, &cfg, &engine);
    assert_eq!(got.num_rows(), expected.num_rows());
    for r in 0..got.num_rows() {
        assert_eq!(got.row(r), expected.row(r), "row {r}");
    }
    assert_eq!(engine.ctx.used(), 0);
}

/// Only the ladder's last rung evicts. An RJ and a BRJ whose budget holds
/// them open no spill directory — with `create:eio` armed, opening one
/// would fail the query — and partition at their unbudgeted fan-out; the
/// HHJ's node carries every spill detail, with a budget and without one.
#[test]
fn only_the_hybrid_rung_evicts() {
    let _guard = fault_lock();
    let build = table_kv(5_000, 5_000);
    let probe = table_kv(20_000, 5_000);
    let base = std::env::temp_dir().join(format!("joinstudy-rungs-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let join_node = |algo: JoinAlgo, budget: Option<usize>| -> ProfileNode {
        let engine = Engine::new(2);
        engine.ctx.set_spill_dir(Some(base.clone()));
        engine.ctx.set_memory_budget(budget);
        let plan = count_join_plan(&build, &probe, algo);
        let (t, profile) = engine
            .execute_profiled(&plan)
            .unwrap_or_else(|e| panic!("{} under {budget:?}: {e}", algo.name()));
        assert_eq!(t.column_by_name("cnt").as_i64()[0], 20_000);
        assert_eq!(profile.degradations, 0, "{}", profile.render());
        assert_eq!(engine.ctx.used(), 0);
        let label = format!("Join {} ", algo.name());
        let node = profile
            .root
            .iter()
            .into_iter()
            .find(|n| n.label.starts_with(&label));
        node.expect("the join's node").clone()
    };
    let detail = |node: &ProfileNode, key: &str| -> Option<DetailValue> {
        let found = node.details.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.clone())
    };

    let unbudgeted = join_node(JoinAlgo::Rj, None);
    fault::set_for_test(fault::FaultSpec::parse("create:eio"));
    for algo in [JoinAlgo::Rj, JoinAlgo::Brj] {
        let node = join_node(algo, Some(64 << 20));
        for key in ["bits1", "bits2"] {
            let (got, want) = (detail(&node, key), detail(&unbudgeted, key));
            assert!(got.is_some(), "{}: no {key}", algo.name());
            assert_eq!(got, want, "{}: {key}", algo.name());
        }
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 0);
    }
    fault::set_for_test(None);

    // 384 KiB closes some of the build side's pre-partitions and keeps the
    // rest resident, at the capped 16-way fan-out; without a budget the
    // HHJ keeps the RJ's 64.
    for (budget, fanout) in [(None, 64), (Some(384 << 10), 16)] {
        let node = join_node(JoinAlgo::Hybrid, budget);
        let mut keys: Vec<&str> = node.details.iter().map(|(k, _)| k.as_str()).collect();
        keys.retain(|k| !k.starts_with("hw_"));
        assert_eq!(keys, HHJ_DETAILS, "under {budget:?}");
        assert_eq!(
            detail(&node, "spill_fanout"),
            Some(DetailValue::Int(fanout))
        );
        let spilled = detail(&node, "spill_partitions") != Some(DetailValue::Int(0));
        assert_eq!(spilled, budget.is_some(), "under {budget:?}");
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The HHJ node's EXPLAIN ANALYZE details in order, hardware counters
/// aside.
const HHJ_DETAILS: [&str; 16] = [
    "bits1",
    "spill_fanout",
    "resident_partitions",
    "evictions",
    "build_rows",
    "build_bytes",
    "ht_buckets",
    "ht_load_factor",
    "ht_max_chain",
    "ht_avg_chain",
    "probe_rows",
    "probe_tag_rejects",
    "probe_chain_visits",
    "spill_partitions",
    "spill_bytes",
    "reload_depth",
];
