//! TPC-H Q22 — global sales opportunity. The one join in all of TPC-H
//! where the Bloom radix join beats the BHJ (by ~30% at SF 100): an anti
//! join preserving the 155 MB customer build side, probed by the unfiltered
//! orders relation with narrow 12 B probe tuples (§5.3.2).
//!
//! One plan: the scalar subquery's average balance is a one-row build side
//! ([`scalar_join`], join 1) whose residual keeps the customers above it;
//! they are the build side of that anti join (join 2).

use super::*;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};
use joinstudy_storage::types::{Decimal, Value};

const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];

fn code_list() -> Vec<Value> {
    CODES.iter().map(|c| Value::Str((*c).into())).collect()
}

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    // Scalar subquery: average positive balance among the country codes.
    let avg = scan_where(&data.customer, &["c_phone", "c_acctbal"], |s| {
        Expr::and(vec![
            cx(s, "c_acctbal").gt(Expr::dec(Decimal::from_int(0))),
            cx(s, "c_phone").substr(1, 2).in_list(code_list()),
        ])
    })
    .aggregate(&[], vec![AggSpec::new(AggFunc::Avg, 1, "avg_bal")]);

    // Rich, idle customers: above the average, with NO orders (build-side
    // anti join).
    let coded = scan_where(
        &data.customer,
        &["c_custkey", "c_phone", "c_acctbal"],
        |s| cx(s, "c_phone").substr(1, 2).in_list(code_list()),
    );
    let customer = scalar_join(avg, coded, |s| cx(s, "c_acctbal").gt(cx(s, "avg_bal")));
    let orders = Plan::scan(&data.orders, &["o_custkey"], None);
    let anti = join_on(
        customer,
        orders,
        JoinType::BuildAnti,
        &["c_custkey"],
        &["o_custkey"],
    );

    let projected = map_where(anti, |s| {
        vec![
            (cx(s, "c_phone").substr(1, 2), "cntrycode"),
            (cx(s, "c_acctbal"), "c_acctbal"),
        ]
    });
    let mut plan = projected
        .aggregate(
            &[0],
            vec![
                AggSpec::new(AggFunc::CountStar, 0, "numcust"),
                AggSpec::new(AggFunc::Sum, 1, "totacctbal"),
            ],
        )
        .sort(vec![SortKey::asc(0)], None);
    cfg.apply(&mut plan);
    engine.run(&plan)
}
