//! TPC-H Q18 — large-volume customers (sum(l_quantity) > 300). The
//! `IN (… HAVING …)` subquery is an aggregate of lineitem per order, and
//! the tiny key set it leaves is the build side of the first of three
//! joins in the one plan; grouping dominates (§5.3.1).

use super::*;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};
use joinstudy_storage::types::Decimal;

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    // Orders whose total quantity exceeds 300.
    let big = filter_where(
        Plan::scan(&data.lineitem, &["l_orderkey", "l_quantity"], None)
            .aggregate(&[0], vec![AggSpec::new(AggFunc::Sum, 1, "sum_qty")]),
        |s| cx(s, "sum_qty").gt(Expr::dec(Decimal::from_int(300))),
    )
    .map(vec![Expr::col(0)], &["l_orderkey"]);

    let orders = Plan::scan(
        &data.orders,
        &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        None,
    );
    let t = join_on(
        big,
        orders,
        JoinType::Inner,
        &["l_orderkey"],
        &["o_orderkey"],
    );
    let customer = Plan::scan(&data.customer, &["c_custkey", "c_name"], None);
    let t2 = join_on(t, customer, JoinType::Inner, &["o_custkey"], &["c_custkey"]);
    let lineitem = Plan::scan(&data.lineitem, &["l_orderkey", "l_quantity"], None);
    let t3 = join_on(
        t2,
        lineitem,
        JoinType::Inner,
        &["o_orderkey"],
        &["l_orderkey"],
    );

    let ts = t3.schema();
    let mut plan = t3
        .aggregate(
            &[
                ts.index_of("c_name"),
                ts.index_of("c_custkey"),
                ts.index_of("o_orderkey"),
                ts.index_of("o_orderdate"),
                ts.index_of("o_totalprice"),
            ],
            vec![AggSpec::new(
                AggFunc::Sum,
                ts.index_of("l_quantity"),
                "sum_qty",
            )],
        )
        .sort(vec![SortKey::desc(4), SortKey::asc(3)], Some(100));
    cfg.apply(&mut plan);
    engine.run(&plan)
}
