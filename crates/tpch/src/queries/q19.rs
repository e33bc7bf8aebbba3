//! TPC-H Q19 — discounted revenue (three brand/container/quantity
//! brackets). The build side is ~2 MB and cache-resident, yet the Bloom
//! filter drops 90% of probes before partitioning, so BHJ and BRJ end up
//! close (§5.3.1).

use super::*;
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_storage::types::{Decimal, Value};

struct Bracket {
    brand: &'static str,
    containers: [&'static str; 4],
    qty_lo: i64,
    qty_hi: i64,
    size_hi: i32,
}

const BRACKETS: [Bracket; 3] = [
    Bracket {
        brand: "Brand#12",
        containers: ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
        qty_lo: 1,
        qty_hi: 11,
        size_hi: 5,
    },
    Bracket {
        brand: "Brand#23",
        containers: ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
        qty_lo: 10,
        qty_hi: 20,
        size_hi: 10,
    },
    Bracket {
        brand: "Brand#34",
        containers: ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
        qty_lo: 20,
        qty_hi: 30,
        size_hi: 15,
    },
];

fn part_bracket(s: &Schema, b: &Bracket) -> Expr {
    Expr::and(vec![
        cx(s, "p_brand").eq(Expr::str(b.brand)),
        cx(s, "p_container").in_list(
            b.containers
                .iter()
                .map(|c| Value::Str((*c).into()))
                .collect(),
        ),
        cx(s, "p_size").ge(Expr::i32(1)),
        cx(s, "p_size").le(Expr::i32(b.size_hi)),
    ])
}

fn full_bracket(s: &Schema, b: &Bracket) -> Expr {
    Expr::and(vec![
        part_bracket(s, b),
        cx(s, "l_quantity").ge(Expr::dec(Decimal::from_int(b.qty_lo))),
        cx(s, "l_quantity").le(Expr::dec(Decimal::from_int(b.qty_hi))),
    ])
}

/// The lineitem columns Q19 scans.
pub const LINEITEM_COLUMNS: [&str; 6] = [
    "l_partkey",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_shipinstruct",
    "l_shipmode",
];

/// The predicate Q19 pushes into its lineitem scan, over
/// [`LINEITEM_COLUMNS`].
pub fn lineitem_filter(s: &Schema) -> Expr {
    Expr::and(vec![
        cx(s, "l_shipmode").in_list(vec![Value::Str("AIR".into()), Value::Str("REG AIR".into())]),
        cx(s, "l_shipinstruct").eq(Expr::str("DELIVER IN PERSON")),
    ])
}

pub fn run(data: &TpchData, cfg: &QueryConfig, engine: &Engine) -> Table {
    let part = scan_where(
        &data.part,
        &["p_partkey", "p_brand", "p_size", "p_container"],
        |s| Expr::or(BRACKETS.iter().map(|b| part_bracket(s, b)).collect()),
    );
    let lineitem = scan_where(&data.lineitem, &LINEITEM_COLUMNS, lineitem_filter);
    let t = join_on(
        part,
        lineitem,
        JoinType::Inner,
        &["p_partkey"],
        &["l_partkey"],
    );
    // Residual predicate: the OR of the full brand × container × quantity
    // × size brackets.
    let t = filter_where(t, |s| {
        Expr::or(BRACKETS.iter().map(|b| full_bracket(s, b)).collect())
    });
    let projected = map_where(t, |s| vec![(revenue_expr(s), "revenue")]);
    let mut plan = projected.aggregate(&[], vec![AggSpec::new(AggFunc::Sum, 0, "revenue")]);
    cfg.apply(&mut plan);
    engine.run(&plan)
}
