//! TPC-H Q17 — small-quantity-order revenue (Brand#23, MED BOX). Umbra's
//! plan, in one: a groupjoin of the filtered parts with lineitem yields
//! each part's quantity sum and count, and that small result is the build
//! side of one join with lineitem on the part key, whose residual keeps
//! `l_quantity < 0.2 × sum / count` — the correlated average, by the same
//! `Decimal::div` as `AVG`. Grouping dominates the runtime (§5.3.1).

use super::*;
use joinstudy_core::groupjoin::{GroupAggFunc, GroupAggSpec};
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_storage::types::Decimal;

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    let part = scan_where(&data.part, &["p_partkey", "p_brand", "p_container"], |s| {
        Expr::and(vec![
            cx(s, "p_brand").eq(Expr::str("Brand#23")),
            cx(s, "p_container").eq(Expr::str("MED BOX")),
        ])
    });
    let lineitem = |cols: &[&str]| Plan::scan(&data.lineitem, cols, None);
    let quantities = part.group_join(
        lineitem(&["l_partkey", "l_quantity"]),
        &[0],
        &[0],
        vec![
            GroupAggSpec::sum(GroupAggFunc::SumDecimal, 1, "sum_qty"),
            GroupAggSpec::count("n"),
        ],
    );
    // Over `quantities ++ lineitem`; a part without lineitems has no
    // key-equal candidate, so `n` is never 0 here.
    let qs = quantities.schema();
    let avg = Expr::col(qs.index_of("sum_qty")).div(Expr::col(qs.index_of("n")).to_decimal());
    let small = Expr::col(qs.len() + 1).lt(avg.mul(Expr::dec(Decimal::from_parts(0, 20))));
    let joined = join_on(
        quantities,
        lineitem(&["l_partkey", "l_quantity", "l_extendedprice"]),
        JoinType::Inner,
        &["p_partkey"],
        &["l_partkey"],
    )
    .with_residual(small);
    let price_idx = joined.schema().index_of("l_extendedprice");
    let agg = joined.aggregate(&[], vec![AggSpec::new(AggFunc::Sum, price_idx, "total")]);
    // `total` is column 0 of the global aggregate; divide by 7 for the
    // average yearly figure.
    let mut plan = agg.map(
        vec![Expr::col(0).div(Expr::dec(Decimal::from_int(7)))],
        &["avg_yearly"],
    );
    cfg.apply(&mut plan);
    engine.run(&plan)
}
