//! TPC-H Q11 — important stock identification (GERMANY). The largest
//! build side is ~480 KB, fitting L2 entirely: the paper's example of a
//! query where partitioning is redundant by construction (§5.3.1).
//!
//! One plan of 2 + 2 + 1 joins: the German stock value per part, and the
//! scalar subquery's total over the same join chain as a one-row build
//! side ([`scalar_join`]) whose residual keeps the parts above the spec's
//! `total × 0.0001 / SF`.

use super::*;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};
use joinstudy_storage::types::Decimal;

/// nation(GERMANY) ⋈ supplier ⋈ partsupp → (ps_partkey, value).
fn germany_chain(data: &TpchData) -> Plan {
    let nation = scan_where(&data.nation, &["n_nationkey", "n_name"], |s| {
        cx(s, "n_name").eq(Expr::str("GERMANY"))
    });
    let supplier = Plan::scan(&data.supplier, &["s_suppkey", "s_nationkey"], None);
    let ns = join_on(
        nation,
        supplier,
        JoinType::Inner,
        &["n_nationkey"],
        &["s_nationkey"],
    );
    let partsupp = Plan::scan(
        &data.partsupp,
        &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
        None,
    );
    let t = join_on(
        ns,
        partsupp,
        JoinType::Inner,
        &["s_suppkey"],
        &["ps_suppkey"],
    );
    map_where(t, |s| {
        vec![
            (cx(s, "ps_partkey"), "ps_partkey"),
            (
                cx(s, "ps_supplycost").mul(cx(s, "ps_availqty").to_decimal()),
                "value",
            ),
        ]
    })
}

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    let total = germany_chain(data).aggregate(&[], vec![AggSpec::new(AggFunc::Sum, 1, "total")]);
    let value = germany_chain(data).aggregate(&[0], vec![AggSpec::new(AggFunc::Sum, 1, "value")]);
    // `value > total × 0.0001 / SF` as `value × K > total`, K = SF / 0.0001,
    // in exact decimal arithmetic. That is exact whenever K is an integer,
    // i.e. SF is a multiple of 0.0001 (every SF we run); otherwise K is
    // rounded to one.
    let k = Decimal::from_int((data.sf / 0.0001).round() as i64);
    let mut plan = scalar_join(total, value, |s| {
        cx(s, "value").mul(Expr::dec(k)).gt(cx(s, "total"))
    })
    .sort(vec![SortKey::desc(1)], None);
    cfg.apply(&mut plan);
    engine.run(&plan)
}
