//! TPC-H Q21 — suppliers who kept orders waiting (SAUDI ARABIA, status F).
//! The paper's deep-dive query (Figure 13): a left-deep five-join tree
//! whose joins span the full spectrum of build/probe characteristics.
//!
//! One plan. Joins 1–3 find the Saudi suppliers' late lineitems `l1` on
//! finalized orders. The correlated `EXISTS (l2: same order, other
//! supplier)` and `NOT EXISTS (l3: same order, other supplier, late)` are
//! joins 4 and 5: a build-side semi and a build-side anti join of that
//! small result against lineitem on `l_orderkey`, each with the residual
//! `build.l_suppkey <> probe.l_suppkey`. They build on the l1 side, as
//! Q4's semi join builds on orders, and preserve it row for row.

use super::*;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    // Join 1: nation(SAUDI ARABIA) ⋈ supplier — a 12 B build side.
    let nation = scan_where(&data.nation, &["n_nationkey", "n_name"], |s| {
        cx(s, "n_name").eq(Expr::str("SAUDI ARABIA"))
    });
    let supplier = Plan::scan(
        &data.supplier,
        &["s_suppkey", "s_name", "s_nationkey"],
        None,
    );
    let ns = join_on(
        nation,
        supplier,
        JoinType::Inner,
        &["n_nationkey"],
        &["s_nationkey"],
    );

    // Join 2: the supplier's own late lineitems (1 MB ⋈ 6 GB in Fig 13).
    let late = |s: &Schema| cx(s, "l_receiptdate").gt(cx(s, "l_commitdate"));
    let l1 = scan_where(
        &data.lineitem,
        &["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"],
        late,
    );
    let t = join_on(ns, l1, JoinType::Inner, &["s_suppkey"], &["l_suppkey"]);

    // Join 3: only finalized orders.
    let orders = scan_where(&data.orders, &["o_orderkey", "o_orderstatus"], |s| {
        cx(s, "o_orderstatus").eq(Expr::str("F"))
    });
    let t = join_on(t, orders, JoinType::Inner, &["l_orderkey"], &["o_orderkey"]);

    // Joins 4 and 5 keep the l1 rows for which a lineitem of the same order
    // from another supplier exists (l2) and none that is also late does
    // (l3): `build.l_suppkey <> probe.l_suppkey` over `t ++ lineitem`.
    let other_supplier = |t: &Plan| {
        let ts = t.schema();
        Expr::col(ts.index_of("l_suppkey")).ne(Expr::col(ts.len() + 1))
    };
    let l2 = Plan::scan(&data.lineitem, &["l_orderkey", "l_suppkey"], None);
    let residual = other_supplier(&t);
    let t = join_on(t, l2, JoinType::BuildSemi, &["l_orderkey"], &["l_orderkey"])
        .with_residual(residual);
    let l3 = scan_where(
        &data.lineitem,
        &["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"],
        late,
    );
    let residual = other_supplier(&t);
    let t = join_on(t, l3, JoinType::BuildAnti, &["l_orderkey"], &["l_orderkey"])
        .with_residual(residual);

    let ts = t.schema();
    let mut plan = t
        .aggregate(
            &[ts.index_of("s_name")],
            vec![AggSpec::new(AggFunc::CountStar, 0, "numwait")],
        )
        .sort(vec![SortKey::desc(1), SortKey::asc(0)], Some(100));
    cfg.apply(&mut plan);
    engine.run(&plan)
}
