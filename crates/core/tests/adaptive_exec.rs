//! End-to-end tests of `JoinAlgo::Adaptive`: the engine answers the join
//! question itself, records the decision on the join's EXPLAIN ANALYZE
//! node, and a mis-predicted radix join falls back to the BHJ at runtime
//! when the first partitioning pass's measured histogram contradicts the
//! estimate (the skew escape hatch).

use joinstudy_core::cost::{Calibration, CostModel};
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, TableBuilder};
use joinstudy_storage::types::DataType;
use std::sync::Arc;

fn table_kv(keys: impl Iterator<Item = i64>) -> Arc<joinstudy_storage::table::Table> {
    let keys: Vec<i64> = keys.collect();
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, keys.len());
    let vals: Vec<i64> = (0..keys.len() as i64).collect();
    *b.column_mut(0) = ColumnData::Int64(keys);
    *b.column_mut(1) = ColumnData::Int64(vals);
    Arc::new(b.finish())
}

/// Rows of the adaptive inner join of `build` and `probe`, and how many of
/// its Join nodes carry the profile detail `key`.
fn count_inner(engine: &Engine, build: &Plan, probe: &Plan, key: &str) -> (usize, usize) {
    let plan = build.clone().join(
        probe.clone(),
        JoinAlgo::Adaptive,
        JoinType::Inner,
        &[0],
        &[0],
    );
    let (table, profile) = engine.execute_profiled(&plan).unwrap();
    let joins = profile
        .nodes()
        .into_iter()
        .filter(|n| n.label.starts_with("Join "));
    let marked = joins.filter(|n| n.details.iter().any(|(k, _)| k == key));
    (table.num_rows(), marked.count())
}

/// A calibration whose tiny LLC makes any non-trivial hash table "too big",
/// so the model predicts partitioning pays off (forcing the radix path).
fn radix_happy_calibration() -> Calibration {
    Calibration {
        llc_bytes: 64.0 * 1024.0,
        ..Calibration::default_constants()
    }
}

#[test]
fn adaptive_join_matches_static_results() {
    let build = table_kv(0..3_000);
    let probe = table_kv((0..30_000).map(|i| i % 3_000));
    let bp = Plan::scan(&build, &["k", "v"], None);
    let pp = Plan::scan(&probe, &["k", "v"], None);
    let engine = Engine::new(2);
    let (rows, decisions) = count_inner(&engine, &bp, &pp, "adaptive_choice");
    assert_eq!(rows, 30_000);
    assert_eq!(decisions, 1, "one join, one decision");
}

#[test]
fn explain_analyze_records_the_decision_and_reason() {
    let build = table_kv(0..2_000);
    let probe = table_kv((0..8_000).map(|i| i % 2_000));
    let plan = Plan::scan(&build, &["k", "v"], None).join(
        Plan::scan(&probe, &["k", "v"], None),
        JoinAlgo::Adaptive,
        JoinType::Inner,
        &[0],
        &[0],
    );
    let engine = Engine::new(2);
    let (table, profile) = engine.execute_profiled(&plan).unwrap();
    assert_eq!(table.num_rows(), 8_000);
    let text = profile.render();
    assert!(text.contains("adaptive_choice"), "missing choice: {text}");
    assert!(text.contains("adaptive_reason"), "missing reason: {text}");
    // 2k × 32 B fits any plausible LLC: the BHJ must have been chosen.
    assert!(text.contains("Join BHJ"), "expected BHJ pick: {text}");
}

#[test]
fn skewed_build_falls_back_to_bhj_at_runtime() {
    // Every build row hashes to the same partition; the plan-time model
    // (with a tiny calibrated LLC) still predicts partitioning pays off.
    let build = table_kv(std::iter::repeat_n(42, 120_000));
    let probe = table_kv(0..10_000);
    let bp = Plan::scan(&build, &["k", "v"], None);
    let pp = Plan::scan(&probe, &["k", "v"], None);
    let engine = Engine::new(2).with_cost_model(CostModel::new(radix_happy_calibration()));

    let model = CostModel::new(radix_happy_calibration());
    let decision = joinstudy_core::adaptive::decide(&model, JoinType::Inner, &bp, &pp, &[0], &[0]);
    assert_ne!(
        decision.algo,
        JoinAlgo::Bhj,
        "plan-time choice must be a radix variant for this test: {decision}"
    );

    // Key 42 matches exactly one probe row; every build row pairs with it.
    let (rows, fallbacks) = count_inner(&engine, &bp, &pp, "adaptive_fallback");
    assert_eq!(rows, 120_000);
    assert_eq!(
        fallbacks, 1,
        "skewed build must trigger the regime-mismatch fallback"
    );
}

#[test]
fn fallback_leaves_a_consistent_profile() {
    let build = table_kv(std::iter::repeat_n(7, 120_000));
    let probe = table_kv(0..5_000);
    let plan = Plan::scan(&build, &["k", "v"], None).join(
        Plan::scan(&probe, &["k", "v"], None),
        JoinAlgo::Adaptive,
        JoinType::Inner,
        &[0],
        &[0],
    );
    let engine = Engine::new(2).with_cost_model(CostModel::new(radix_happy_calibration()));
    let (table, profile) = engine.execute_profiled(&plan).unwrap();
    assert_eq!(table.num_rows(), 120_000);
    let text = profile.render();
    assert!(
        text.contains("adaptive_fallback"),
        "missing fallback annotation: {text}"
    );
    assert!(
        text.contains("Join BHJ"),
        "fallback must re-trace as BHJ: {text}"
    );
}
