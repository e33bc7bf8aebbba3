//! Property-based cross-validation: every join algorithm × every join
//! variant × every residual must agree with a naive nested-loop reference
//! on arbitrary inputs — the load-bearing correctness property of the
//! whole study.

use joinstudy::core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy::exec::expr::Expr;
use joinstudy::storage::column::ColumnData;
use joinstudy::storage::table::{Schema, Table, TableBuilder};
use joinstudy::storage::types::{DataType, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn kv_table(rows: &[(i64, i64)]) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows.len());
    *b.column_mut(0) = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
    *b.column_mut(1) = ColumnData::Int64(rows.iter().map(|r| r.1).collect());
    Arc::new(b.finish())
}

/// A join's residual predicate beside `b.k = p.k`, over the payloads.
#[derive(Debug, Clone, Copy)]
enum Residual {
    None,
    /// `b.v <> p.v`
    Ne,
    /// `b.v < p.v`
    Lt,
}

const RESIDUALS: [Residual; 3] = [Residual::None, Residual::Ne, Residual::Lt];

impl Residual {
    fn passes(self, b: &(i64, i64), p: &(i64, i64)) -> bool {
        match self {
            Residual::None => true,
            Residual::Ne => b.1 != p.1,
            Residual::Lt => b.1 < p.1,
        }
    }

    /// The predicate over the join's `build ++ probe` = `[k, v, k, v]`.
    fn expr(self) -> Option<Expr> {
        let (bv, pv) = (Expr::col(1), Expr::col(3));
        match self {
            Residual::None => None,
            Residual::Ne => Some(bv.ne(pv)),
            Residual::Lt => Some(bv.lt(pv)),
        }
    }
}

/// Naive reference for every join variant: a pair joins when the keys are
/// equal and the residual passes. Output rows are rendered as strings
/// (NULL-aware) and sorted.
fn reference(
    build: &[(i64, i64)],
    probe: &[(i64, i64)],
    kind: JoinType,
    residual: Residual,
) -> Vec<String> {
    let joins = |b: &(i64, i64), p: &(i64, i64)| b.0 == p.0 && residual.passes(b, p);
    let mut out = Vec::new();
    match kind {
        JoinType::Inner => {
            for b in build {
                for p in probe {
                    if joins(b, p) {
                        out.push(format!("{}|{}|{}|{}", b.0, b.1, p.0, p.1));
                    }
                }
            }
        }
        JoinType::ProbeOuter => {
            for p in probe {
                let mut any = false;
                for b in build {
                    if joins(b, p) {
                        out.push(format!("{}|{}|{}|{}", b.0, b.1, p.0, p.1));
                        any = true;
                    }
                }
                if !any {
                    out.push(format!("NULL|NULL|{}|{}", p.0, p.1));
                }
            }
        }
        JoinType::ProbeSemi | JoinType::ProbeAnti | JoinType::ProbeMark => {
            for p in probe {
                let any = build.iter().any(|b| joins(b, p));
                match kind {
                    JoinType::ProbeSemi if any => out.push(format!("{}|{}", p.0, p.1)),
                    JoinType::ProbeAnti if !any => out.push(format!("{}|{}", p.0, p.1)),
                    JoinType::ProbeMark => out.push(format!("{}|{}|{}", p.0, p.1, any)),
                    _ => {}
                }
            }
        }
        JoinType::BuildSemi | JoinType::BuildAnti => {
            for b in build {
                let any = probe.iter().any(|p| joins(b, p));
                if (kind == JoinType::BuildSemi) == any {
                    out.push(format!("{}|{}", b.0, b.1));
                }
            }
        }
    }
    out.sort();
    out
}

fn join_plan(
    build: &[(i64, i64)],
    probe: &[(i64, i64)],
    algo: JoinAlgo,
    kind: JoinType,
    residual: Residual,
) -> Plan {
    let plan = Plan::scan(&kv_table(build), &["k", "v"], None).join(
        Plan::scan(&kv_table(probe), &["k", "v"], None),
        algo,
        kind,
        &[0],
        &[0],
    );
    match residual.expr() {
        Some(pred) => plan.with_residual(pred),
        None => plan,
    }
}

fn run_join(
    build: &[(i64, i64)],
    probe: &[(i64, i64)],
    algo: JoinAlgo,
    kind: JoinType,
    threads: usize,
) -> Vec<String> {
    let plan = join_plan(build, probe, algo, kind, Residual::None);
    rows_of(&Engine::new(threads).run(&plan))
}

/// A result table's rows rendered as the reference renders them, sorted.
fn rows_of(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            (0..t.num_columns())
                .map(|c| match t.row(r)[c].clone() {
                    Value::Null => "NULL".to_string(),
                    v => v.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// Key distributions that stress duplicates and misses. Half the payloads
/// come from -3..=3, so that `b.v <> p.v` rejects some key partners too.
fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    let payload = any::<i16>().prop_map(|v| i64::from(if v % 2 == 0 { v % 4 } else { v }));
    prop::collection::vec((-8i64..24, payload), 0..120)
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

/// Every algorithm a join node may name. Without a budget the hybrid join
/// keeps every partition resident; `hybrid_spill_matches_nested_loop`
/// makes it spill.
const ALL_ALGOS: [JoinAlgo; 5] = [
    JoinAlgo::Bhj,
    JoinAlgo::Rj,
    JoinAlgo::Brj,
    JoinAlgo::Adaptive,
    JoinAlgo::Hybrid,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_match_nested_loop(
        build in rows_strategy(),
        probe in rows_strategy(),
    ) {
        for kind in ALL_KINDS {
            for residual in RESIDUALS {
                let expected = reference(&build, &probe, kind, residual);
                for algo in ALL_ALGOS {
                    let plan = join_plan(&build, &probe, algo, kind, residual);
                    let got = rows_of(&Engine::new(1).run(&plan));
                    prop_assert_eq!(&got, &expected, "{:?} {:?} {:?}", algo, kind, residual);
                }
            }
        }
    }

    #[test]
    fn parallel_execution_is_equivalent(
        build in rows_strategy(),
        probe in rows_strategy(),
    ) {
        for kind in [JoinType::Inner, JoinType::ProbeAnti, JoinType::BuildAnti] {
            for algo in [JoinAlgo::Bhj, JoinAlgo::Brj] {
                let serial = run_join(&build, &probe, algo, kind, 1);
                let parallel = run_join(&build, &probe, algo, kind, 4);
                prop_assert_eq!(&serial, &parallel, "{:?} {:?}", algo, kind);
            }
        }
    }

    #[test]
    fn duplicate_heavy_inner_join_counts(
        // All keys identical: worst-case N×M duplication.
        build_n in 1usize..40,
        probe_n in 1usize..40,
    ) {
        let build: Vec<(i64, i64)> = (0..build_n as i64).map(|i| (7, i)).collect();
        let probe: Vec<(i64, i64)> = (0..probe_n as i64).map(|i| (7, i)).collect();
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
            let got = run_join(&build, &probe, algo, JoinType::Inner, 2);
            prop_assert_eq!(got.len(), build_n * probe_n, "{:?}", algo);
        }
    }
}

/// The hybrid join under a budget it must spill at, with every join type
/// and residual, over two inputs: duplicate-heavy keys (13–15 build rows
/// each, pairs that only some partners pass) whose closed partitions are
/// reloaded, and a single key, which no reload can split, so the block
/// nested loop joins it.
#[test]
fn hybrid_spill_matches_nested_loop() {
    let payload = |i: i64, m: i64| (i * m) % 20;
    let spread: Vec<(i64, i64)> = (0..2_000).map(|i| (i % 150, payload(i, 7_919))).collect();
    let one_key: Vec<(i64, i64)> = (0..3_000).map(|i| (7, payload(i, 7_919))).collect();
    let probe: Vec<(i64, i64)> = (0..3_000).map(|i| (i % 200, payload(i, 104_729))).collect();
    let few: Vec<(i64, i64)> = (0..300).map(|i| (7 + i % 2, payload(i, 104_729))).collect();
    for (build, probe) in [(&spread, &probe), (&one_key, &few)] {
        let mut nested_loops = 0;
        for kind in ALL_KINDS {
            for residual in RESIDUALS {
                let engine = Engine::new(2);
                // Above the two-way floor of two workers (≈ 38 KiB), below
                // the build sides' 64 and 96 KiB of rows.
                engine.ctx.set_memory_budget(Some(64 * 1024));
                let plan = join_plan(build, probe, JoinAlgo::Hybrid, kind, residual);
                let got = rows_of(&engine.run(&plan));
                let case = format!("{} build rows, {kind:?} {residual:?}", build.len());
                assert!(engine.ctx.spill_write_bytes() > 0, "{case}: did not spill");
                assert_eq!(got, reference(build, probe, kind, residual), "{case}");
                nested_loops += engine.ctx.spill_bnl_fallbacks();
            }
        }
        let one_key = build.iter().all(|b| b.0 == 7);
        assert_eq!(nested_loops > 0, one_key, "nested loop reached");
    }
}

#[test]
fn mark_join_null_free_semantics() {
    // Mark join: every probe row appears exactly once with a correct flag.
    let build = vec![(1, 0), (2, 0)];
    let probe = vec![(2, 10), (3, 11), (2, 12)];
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj] {
        let got = run_join(&build, &probe, algo, JoinType::ProbeMark, 1);
        assert_eq!(got, vec!["2|10|true", "2|12|true", "3|11|false"]);
    }
}

/// A map over a probe-outer join keeps its NULL padding under every
/// algorithm: a bare column moves with its mask (also when it is referenced
/// twice), and a computed value is NULL wherever a column it reads is.
#[test]
fn map_over_a_probe_outer_join_keeps_nulls() {
    let build = vec![(1, 5)];
    let probe = vec![(1, 10), (2, 20)];
    for algo in ALL_ALGOS {
        // Over `[b.k, b.v, p.k, p.v]`: p.k, b.v, b.v + p.v, p.v * 2, b.v.
        let exprs = vec![
            Expr::col(2),
            Expr::col(1),
            Expr::col(1).add(Expr::col(3)),
            Expr::col(3).mul(Expr::i64(2)),
            Expr::col(1),
        ];
        let names = ["pk", "bv", "sum", "pv2", "bv_again"];
        let plan = join_plan(&build, &probe, algo, JoinType::ProbeOuter, Residual::None);
        let got = rows_of(&Engine::new(1).run(&plan.map(exprs, &names)));
        assert_eq!(got, vec!["1|5|15|20|5", "2|NULL|NULL|40|NULL"], "{algo:?}");
    }
}
