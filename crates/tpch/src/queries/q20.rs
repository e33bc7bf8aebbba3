//! TPC-H Q20 — potential part promotion (forest% parts, CANADA, 1994).
//! The paper's LM showcase: the result's two text columns (s_name,
//! s_address) are only needed in the output, so late materialization cuts
//! the probe side by two thirds (§5.3.1).
//!
//! One plan: the uncorrelated half-sum of shipped quantity per (part,
//! supplier) is the build side of the join with the forest% partsupp rows.

use super::*;
use joinstudy_exec::ops::scan::TID_COLUMN;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};
use joinstudy_storage::types::{Date, Decimal};
use std::sync::Arc;

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    let lo = Date::from_ymd(1994, 1, 1);
    let hi = lo.add_years(1);

    // Half the shipped quantity per (part, supplier).
    let qty_plan = scan_where(
        &data.lineitem,
        &["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        |s| {
            Expr::and(vec![
                cx(s, "l_shipdate").ge(Expr::date(lo)),
                cx(s, "l_shipdate").lt(Expr::date(hi)),
            ])
        },
    )
    .aggregate(&[0, 1], vec![AggSpec::new(AggFunc::Sum, 2, "sum_qty")]);
    let half = map_where(qty_plan, |s| {
        vec![
            (cx(s, "l_partkey"), "q_partkey"),
            (cx(s, "l_suppkey"), "q_suppkey"),
            (
                cx(s, "sum_qty").mul(Expr::dec(Decimal::from_parts(0, 50))),
                "half_qty",
            ),
        ]
    });

    // partsupp rows whose part is a forest% part (semi preserving partsupp).
    let forest = scan_where(&data.part, &["p_partkey", "p_name"], |s| {
        cx(s, "p_name").like("forest%")
    });
    let partsupp = Plan::scan(
        &data.partsupp,
        &["ps_partkey", "ps_suppkey", "ps_availqty"],
        None,
    );
    let ps = join_on(
        forest,
        partsupp,
        JoinType::ProbeSemi,
        &["p_partkey"],
        &["ps_partkey"],
    );

    // availqty > half of shipped quantity.
    let mut t = join_on(
        half,
        ps,
        JoinType::Inner,
        &["q_partkey", "q_suppkey"],
        &["ps_partkey", "ps_suppkey"],
    );
    t = filter_where(t, |s| {
        cx(s, "ps_availqty").to_decimal().gt(cx(s, "half_qty"))
    });
    let tk = t.schema();
    let suppkeys = t.aggregate(
        &[tk.index_of("ps_suppkey")],
        vec![AggSpec::new(AggFunc::CountStar, 0, "n")],
    );

    // CANADA suppliers, optionally with late-materialized text columns.
    let nation = scan_where(&data.nation, &["n_nationkey", "n_name"], |s| {
        cx(s, "n_name").eq(Expr::str("CANADA"))
    });
    let supplier = if cfg.lm {
        Plan::scan_tid(&data.supplier, &["s_suppkey", "s_nationkey"], None)
    } else {
        Plan::scan(
            &data.supplier,
            &["s_suppkey", "s_name", "s_address", "s_nationkey"],
            None,
        )
    };
    let ns = join_on(
        nation,
        supplier,
        JoinType::Inner,
        &["n_nationkey"],
        &["s_nationkey"],
    );

    // Semi join preserving the supplier side.
    let mut result = join_on(
        suppkeys,
        ns,
        JoinType::ProbeSemi,
        &["ps_suppkey"],
        &["s_suppkey"],
    );
    if cfg.lm {
        let rs = result.schema();
        result = Plan::LateLoad {
            input: Box::new(result),
            table: Arc::clone(&data.supplier),
            tid_col: rs.index_of(TID_COLUMN),
            cols: vec![
                data.supplier.schema().index_of("s_name"),
                data.supplier.schema().index_of("s_address"),
            ],
        };
    }
    let projected = map_where(result, |s| {
        vec![
            (cx(s, "s_name"), "s_name"),
            (cx(s, "s_address"), "s_address"),
        ]
    });
    let mut plan = projected.sort(vec![SortKey::asc(0)], None);
    cfg.apply(&mut plan);
    engine.run(&plan)
}
