//! TPC-H Q15 — top supplier. One plan: the revenue view is computed twice
//! from one `fn`, once as the probe side and once under `MAX` as a one-row
//! build side ([`scalar_join`]) keeping the rows with `total_revenue = m`;
//! the join with supplier follows.
//!
//! The view is recomputed, not shared: a shared-subplan node would turn
//! the plan tree into a DAG that every walk over it (override numbering,
//! EXPLAIN, the profile, the trace) would have to learn. The second
//! lineitem scan and aggregate cost that: under the BHJ at SF 0.05 on a
//! 2-vCPU VM (2 threads, medians of 31 runs), Q15 takes 4.4–6.0 ms
//! against 2.3–2.9 ms when the view was run once into a table.

use super::*;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};
use joinstudy_storage::types::Date;

/// The `revenue` view: supplier → total revenue in 1996's first quarter.
fn revenue(data: &TpchData) -> Plan {
    let lo = Date::from_ymd(1996, 1, 1);
    let hi = lo.add_months(3);
    map_where(
        scan_where(
            &data.lineitem,
            &["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
            |s| {
                Expr::and(vec![
                    cx(s, "l_shipdate").ge(Expr::date(lo)),
                    cx(s, "l_shipdate").lt(Expr::date(hi)),
                ])
            },
        ),
        |s| {
            vec![
                (cx(s, "l_suppkey"), "supplier_no"),
                (revenue_expr(s), "rev"),
            ]
        },
    )
    .aggregate(&[0], vec![AggSpec::new(AggFunc::Sum, 1, "total_revenue")])
}

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    let max = revenue(data).aggregate(&[], vec![AggSpec::new(AggFunc::Max, 1, "m")]);
    let best = scalar_join(max, revenue(data), |s| {
        cx(s, "total_revenue").eq(cx(s, "m"))
    });
    let supplier = Plan::scan(
        &data.supplier,
        &["s_suppkey", "s_name", "s_address", "s_phone"],
        None,
    );
    let joined = join_on(
        best,
        supplier,
        JoinType::Inner,
        &["supplier_no"],
        &["s_suppkey"],
    );
    let projected = map_where(joined, |s| {
        vec![
            (cx(s, "s_suppkey"), "s_suppkey"),
            (cx(s, "s_name"), "s_name"),
            (cx(s, "s_address"), "s_address"),
            (cx(s, "s_phone"), "s_phone"),
            (cx(s, "total_revenue"), "total_revenue"),
        ]
    });
    let mut plan = projected.sort(vec![SortKey::asc(0)], None);
    cfg.apply(&mut plan);
    engine.run(&plan)
}
