//! TPC-H Q13 — customer distribution. EXTENSION beyond the paper's
//! measured set: the paper excludes Q13 because its system evaluates it
//! with a *groupjoin* (footnote 6) rather than a swappable hash join — so
//! we implement exactly that: customer ⟕ᵍ orders with a per-customer match
//! count (empty groups = customers without orders), then the distribution
//! aggregate on top. The groupjoin has one fixed implementation — the BHJ's
//! build sink and staged chain walk, with a count cell in every customer
//! row — so the `QueryConfig` algorithm selection deliberately has no
//! effect here, and the customer table is not charged to a memory budget.

use super::*;
use joinstudy_core::groupjoin::GroupAggSpec;
use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    let customer = Plan::scan(&data.customer, &["c_custkey"], None);
    let orders = scan_where(&data.orders, &["o_custkey", "o_comment"], |s| {
        cx(s, "o_comment").like("%special%requests%").not()
    });
    let gj = customer.group_join(orders, &[0], &[0], vec![GroupAggSpec::count("c_count")]);

    let gs = gj.schema();
    let mut plan = gj
        .aggregate(
            &[gs.index_of("c_count")],
            vec![AggSpec::new(AggFunc::CountStar, 0, "custdist")],
        )
        .sort(vec![SortKey::desc(1), SortKey::desc(0)], None);
    cfg.apply(&mut plan);
    engine.run(&plan)
}
