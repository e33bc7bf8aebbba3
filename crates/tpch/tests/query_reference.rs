#![allow(clippy::needless_range_loop)] // reference code indexes many parallel columns

//! Exact cross-validation of TPC-H queries against independent,
//! hand-written Rust reference implementations that scan the raw generated
//! tables directly — no shared engine code beyond the data itself. If the
//! engine's scans, expressions, joins or aggregates are subtly wrong, these
//! disagree.

use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_storage::table::Table;
use joinstudy_storage::types::Date;
use joinstudy_tpch::queries::QueryConfig;
use joinstudy_tpch::{generate, TpchData};
use std::collections::HashMap;
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| generate(0.01, 424242))
}

fn run(id: u32) -> Table {
    let engine = Engine::new(2);
    (joinstudy_tpch::query(id).run)(data(), &QueryConfig::new(JoinAlgo::Brj), &engine)
}

#[test]
fn q4_matches_reference() {
    let d = data();
    // Reference: orders in [1993-07-01, +3m) with EXISTS(lineitem where
    // commit < receipt), counted per priority.
    let lo = Date::from_ymd(1993, 7, 1).0;
    let hi = Date::from_ymd(1993, 10, 1).0;
    let l_ok = d.lineitem.column_by_name("l_orderkey").as_i64();
    let l_commit = d.lineitem.column_by_name("l_commitdate").as_i32();
    let l_receipt = d.lineitem.column_by_name("l_receiptdate").as_i32();
    let mut late_orders = std::collections::HashSet::new();
    for i in 0..d.lineitem.num_rows() {
        if l_commit[i] < l_receipt[i] {
            late_orders.insert(l_ok[i]);
        }
    }
    let o_key = d.orders.column_by_name("o_orderkey").as_i64();
    let o_date = d.orders.column_by_name("o_orderdate").as_i32();
    let o_prio = d.orders.column_by_name("o_orderpriority").as_str();
    let mut want: HashMap<String, i64> = HashMap::new();
    for i in 0..d.orders.num_rows() {
        if o_date[i] >= lo && o_date[i] < hi && late_orders.contains(&o_key[i]) {
            *want.entry(o_prio.get(i).to_owned()).or_default() += 1;
        }
    }

    let t = run(4);
    assert_eq!(t.num_rows(), want.len());
    for r in 0..t.num_rows() {
        let prio = t.column(0).as_str().get(r);
        assert_eq!(t.column(1).as_i64()[r], want[prio], "priority {prio}");
    }
}

#[test]
fn q21_matches_reference() {
    let d = data();
    // Reference: TPC-H Q21 as written — for each late lineitem l1 of a
    // SAUDI ARABIA supplier on an 'F' order, EXISTS l2 (same order, other
    // supplier) and NOT EXISTS l3 (same order, other supplier, late) —
    // evaluated per l1 over the order's lineitems.
    let n = &d.nation;
    let saudi = (0..n.num_rows())
        .find(|&i| n.column_by_name("n_name").as_str().get(i) == "SAUDI ARABIA")
        .map(|i| n.column_by_name("n_nationkey").as_i64()[i])
        .unwrap();
    let s = &d.supplier;
    let s_name = s.column_by_name("s_name").as_str();
    let s_nation = s.column_by_name("s_nationkey").as_i64();
    let names: HashMap<i64, &str> = s
        .column_by_name("s_suppkey")
        .as_i64()
        .iter()
        .enumerate()
        .filter(|&(i, _)| s_nation[i] == saudi)
        .map(|(i, &k)| (k, s_name.get(i)))
        .collect();
    let o = &d.orders;
    let status = o.column_by_name("o_orderstatus").as_str();
    let finalized: std::collections::HashSet<i64> = o
        .column_by_name("o_orderkey")
        .as_i64()
        .iter()
        .enumerate()
        .filter(|&(i, _)| status.get(i) == "F")
        .map(|(_, &k)| k)
        .collect();
    let l = &d.lineitem;
    let ok = l.column_by_name("l_orderkey").as_i64();
    let sk = l.column_by_name("l_suppkey").as_i64();
    let commit = l.column_by_name("l_commitdate").as_i32();
    let receipt = l.column_by_name("l_receiptdate").as_i32();
    let late = |i: usize| receipt[i] > commit[i];
    let mut by_order: HashMap<i64, Vec<usize>> = HashMap::new();
    for i in 0..l.num_rows() {
        by_order.entry(ok[i]).or_default().push(i);
    }
    let mut numwait: HashMap<&str, i64> = HashMap::new();
    for l1 in 0..l.num_rows() {
        let Some(&name) = names.get(&sk[l1]) else {
            continue;
        };
        if !late(l1) || !finalized.contains(&ok[l1]) {
            continue;
        }
        let order = &by_order[&ok[l1]];
        let exists = order.iter().any(|&l2| sk[l2] != sk[l1]);
        let not_exists = !order.iter().any(|&l3| sk[l3] != sk[l1] && late(l3));
        if exists && not_exists {
            *numwait.entry(name).or_default() += 1;
        }
    }
    let mut want: Vec<(&str, i64)> = numwait.into_iter().collect();
    want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    want.truncate(100);
    assert!(!want.is_empty(), "the reference finds no waiting supplier");

    for algo in [
        JoinAlgo::Bhj,
        JoinAlgo::Rj,
        JoinAlgo::Brj,
        JoinAlgo::Adaptive,
        JoinAlgo::Hybrid,
    ] {
        let t = (joinstudy_tpch::query(21).run)(d, &QueryConfig::new(algo), &Engine::new(2));
        let got: Vec<(&str, i64)> = (0..t.num_rows())
            .map(|r| (t.column(0).as_str().get(r), t.column(1).as_i64()[r]))
            .collect();
        assert_eq!(got, want, "{}", algo.name());
    }
}

#[test]
fn q12_matches_reference() {
    let d = data();
    let lo = Date::from_ymd(1994, 1, 1).0;
    let hi = Date::from_ymd(1995, 1, 1).0;
    let l = &d.lineitem;
    let ok = l.column_by_name("l_orderkey").as_i64();
    let mode = l.column_by_name("l_shipmode").as_str();
    let ship = l.column_by_name("l_shipdate").as_i32();
    let commit = l.column_by_name("l_commitdate").as_i32();
    let receipt = l.column_by_name("l_receiptdate").as_i32();
    let prio_by_order: HashMap<i64, String> = {
        let keys = d.orders.column_by_name("o_orderkey").as_i64();
        let p = d.orders.column_by_name("o_orderpriority").as_str();
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, p.get(i).to_owned()))
            .collect()
    };
    let mut want: HashMap<&str, (i64, i64)> = HashMap::new();
    for i in 0..l.num_rows() {
        let m = mode.get(i);
        if (m == "MAIL" || m == "SHIP")
            && commit[i] < receipt[i]
            && ship[i] < commit[i]
            && receipt[i] >= lo
            && receipt[i] < hi
        {
            let prio = &prio_by_order[&ok[i]];
            let high = prio == "1-URGENT" || prio == "2-HIGH";
            let e = want
                .entry(if m == "MAIL" { "MAIL" } else { "SHIP" })
                .or_default();
            if high {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
    }

    let t = run(12);
    assert_eq!(t.num_rows(), want.len());
    for r in 0..t.num_rows() {
        let m = t.column(0).as_str().get(r);
        let (h, lo_c) = want[m];
        assert_eq!(t.column_by_name("high_line_count").as_i64()[r], h, "{m}");
        assert_eq!(t.column_by_name("low_line_count").as_i64()[r], lo_c, "{m}");
    }
}

#[test]
fn q14_matches_reference() {
    let d = data();
    let lo = Date::from_ymd(1995, 9, 1).0;
    let hi = Date::from_ymd(1995, 10, 1).0;
    let l = &d.lineitem;
    let pk = l.column_by_name("l_partkey").as_i64();
    let ship = l.column_by_name("l_shipdate").as_i32();
    let price = l.column_by_name("l_extendedprice").as_i64();
    let disc = l.column_by_name("l_discount").as_i64();
    let type_by_part: HashMap<i64, bool> = {
        let keys = d.part.column_by_name("p_partkey").as_i64();
        let types = d.part.column_by_name("p_type").as_str();
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, types.get(i).starts_with("PROMO")))
            .collect()
    };
    let mut promo = 0i64;
    let mut total = 0i64;
    for i in 0..l.num_rows() {
        if ship[i] >= lo && ship[i] < hi {
            // revenue = price * (1 - disc), decimal arithmetic (truncating).
            let rev = (i128::from(price[i]) * i128::from(100 - disc[i]) / 100) as i64;
            total += rev;
            if type_by_part[&pk[i]] {
                promo += rev;
            }
        }
    }
    // 100.00 * promo / total in decimal arithmetic.
    let want = (i128::from(10_000i64) * i128::from(promo) * 100 / i128::from(total) / 100) as i64;

    let t = run(14);
    assert_eq!(t.num_rows(), 1);
    let got = t.column_by_name("promo_revenue").as_i64()[0];
    assert_eq!(got, want, "promo revenue mismatch: {got} vs {want}");
}

#[test]
fn q22_matches_reference() {
    let d = data();
    const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];
    let c = &d.customer;
    let phone = c.column_by_name("c_phone").as_str();
    let bal = c.column_by_name("c_acctbal").as_i64();
    let key = c.column_by_name("c_custkey").as_i64();

    // avg positive balance among the codes.
    let mut sum: i64 = 0;
    let mut cnt: i64 = 0;
    for i in 0..c.num_rows() {
        let code = &phone.get(i)[..2];
        if bal[i] > 0 && CODES.contains(&code) {
            sum += bal[i];
            cnt += 1;
        }
    }
    let avg = sum * 100 / cnt * 100 / 10_000; // Decimal::div semantics: (sum*100)/cnt_scaled
                                              // Recompute exactly as Decimal::div would: (sum * 100) / (cnt * 100).
    let avg = {
        let _ = avg;
        (i128::from(sum) * 100 / i128::from(cnt * 100)) as i64
    };

    let has_order: std::collections::HashSet<i64> = d
        .orders
        .column_by_name("o_custkey")
        .as_i64()
        .iter()
        .copied()
        .collect();

    let mut want: HashMap<String, (i64, i64)> = HashMap::new();
    for i in 0..c.num_rows() {
        let code = &phone.get(i)[..2];
        if CODES.contains(&code) && bal[i] > avg && !has_order.contains(&key[i]) {
            let e = want.entry(code.to_owned()).or_default();
            e.0 += 1;
            e.1 += bal[i];
        }
    }

    let t = run(22);
    assert_eq!(t.num_rows(), want.len());
    for r in 0..t.num_rows() {
        let code = t.column(0).as_str().get(r);
        let (n, total) = want[code];
        assert_eq!(t.column_by_name("numcust").as_i64()[r], n, "code {code}");
        assert_eq!(
            t.column_by_name("totacctbal").as_i64()[r],
            total,
            "code {code}"
        );
    }
}

#[test]
fn q3_matches_reference_top_rows() {
    let d = data();
    let cutoff = Date::from_ymd(1995, 3, 15).0;
    let building: std::collections::HashSet<i64> = {
        let c = &d.customer;
        let seg = c.column_by_name("c_mktsegment").as_str();
        c.column_by_name("c_custkey")
            .as_i64()
            .iter()
            .enumerate()
            .filter(|(i, _)| seg.get(*i) == "BUILDING")
            .map(|(_, &k)| k)
            .collect()
    };
    struct OrderInfo {
        date: i32,
        prio: i32,
    }
    let orders: HashMap<i64, OrderInfo> = {
        let o = &d.orders;
        let key = o.column_by_name("o_orderkey").as_i64();
        let cust = o.column_by_name("o_custkey").as_i64();
        let date = o.column_by_name("o_orderdate").as_i32();
        let ship = o.column_by_name("o_shippriority").as_i32();
        (0..o.num_rows())
            .filter(|&i| date[i] < cutoff && building.contains(&cust[i]))
            .map(|i| {
                (
                    key[i],
                    OrderInfo {
                        date: date[i],
                        prio: ship[i],
                    },
                )
            })
            .collect()
    };
    let l = &d.lineitem;
    let ok = l.column_by_name("l_orderkey").as_i64();
    let ship = l.column_by_name("l_shipdate").as_i32();
    let price = l.column_by_name("l_extendedprice").as_i64();
    let disc = l.column_by_name("l_discount").as_i64();
    let mut revenue: HashMap<i64, i64> = HashMap::new();
    for i in 0..l.num_rows() {
        if ship[i] > cutoff && orders.contains_key(&ok[i]) {
            let rev = (i128::from(price[i]) * i128::from(100 - disc[i]) / 100) as i64;
            *revenue.entry(ok[i]).or_default() += rev;
        }
    }
    let mut want: Vec<(i64, i64, i32, i32)> = revenue
        .iter()
        .map(|(&k, &r)| {
            let o = &orders[&k];
            (k, r, o.date, o.prio)
        })
        .collect();
    // ORDER BY revenue DESC, o_orderdate ASC, LIMIT 10 (ties broken the
    // same way is not guaranteed; compare as sets of (revenue, date)).
    want.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
    want.truncate(10);

    let t = run(3);
    assert_eq!(t.num_rows(), want.len().min(10));
    for r in 0..t.num_rows() {
        assert_eq!(
            t.column_by_name("revenue").as_i64()[r],
            want[r].1,
            "row {r}"
        );
        assert_eq!(
            t.column_by_name("o_orderdate").as_i32()[r],
            want[r].2,
            "row {r}"
        );
    }
}

#[test]
fn q5_matches_reference() {
    let d = data();
    let lo = Date::from_ymd(1994, 1, 1).0;
    let hi = Date::from_ymd(1995, 1, 1).0;

    // ASIA nations.
    let asia_region: i64 = {
        let r = &d.region;
        let names = r.column_by_name("r_name").as_str();
        (0..r.num_rows())
            .find(|&i| names.get(i) == "ASIA")
            .map(|i| r.column_by_name("r_regionkey").as_i64()[i])
            .unwrap()
    };
    let asia_nations: HashMap<i64, String> = {
        let n = &d.nation;
        let names = n.column_by_name("n_name").as_str();
        let regions = n.column_by_name("n_regionkey").as_i64();
        (0..n.num_rows())
            .filter(|&i| regions[i] == asia_region)
            .map(|i| {
                (
                    n.column_by_name("n_nationkey").as_i64()[i],
                    names.get(i).to_owned(),
                )
            })
            .collect()
    };
    // Customers in ASIA: custkey → nationkey.
    let cust_nation: HashMap<i64, i64> = {
        let c = &d.customer;
        let nk = c.column_by_name("c_nationkey").as_i64();
        c.column_by_name("c_custkey")
            .as_i64()
            .iter()
            .enumerate()
            .filter(|(i, _)| asia_nations.contains_key(&nk[*i]))
            .map(|(i, &k)| (k, nk[i]))
            .collect()
    };
    // Orders in 1994 by those customers: orderkey → customer nation.
    let order_nation: HashMap<i64, i64> = {
        let o = &d.orders;
        let date = o.column_by_name("o_orderdate").as_i32();
        let cust = o.column_by_name("o_custkey").as_i64();
        o.column_by_name("o_orderkey")
            .as_i64()
            .iter()
            .enumerate()
            .filter(|(i, _)| date[*i] >= lo && date[*i] < hi)
            .filter_map(|(i, &k)| cust_nation.get(&cust[i]).map(|&n| (k, n)))
            .collect()
    };
    // Supplier nations.
    let supp_nation: HashMap<i64, i64> = {
        let s = &d.supplier;
        s.column_by_name("s_suppkey")
            .as_i64()
            .iter()
            .zip(s.column_by_name("s_nationkey").as_i64())
            .map(|(&k, &n)| (k, n))
            .collect()
    };
    // Lineitems where supplier nation == customer nation.
    let l = &d.lineitem;
    let ok = l.column_by_name("l_orderkey").as_i64();
    let sk = l.column_by_name("l_suppkey").as_i64();
    let price = l.column_by_name("l_extendedprice").as_i64();
    let disc = l.column_by_name("l_discount").as_i64();
    let mut want: HashMap<String, i64> = HashMap::new();
    for i in 0..l.num_rows() {
        if let Some(&cn) = order_nation.get(&ok[i]) {
            if supp_nation[&sk[i]] == cn {
                let rev = (i128::from(price[i]) * i128::from(100 - disc[i]) / 100) as i64;
                *want.entry(asia_nations[&cn].clone()).or_default() += rev;
            }
        }
    }

    let t = run(5);
    assert_eq!(t.num_rows(), want.len(), "nation count");
    for r in 0..t.num_rows() {
        let nation = t.column(0).as_str().get(r);
        assert_eq!(
            t.column_by_name("revenue").as_i64()[r],
            want[nation],
            "{nation}"
        );
    }
    // Sorted by revenue descending.
    let rev = t.column_by_name("revenue").as_i64();
    assert!(rev.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn q16_matches_reference() {
    let d = data();
    const SIZES: [i32; 8] = [49, 14, 23, 45, 19, 3, 36, 9];
    // Complaint suppliers.
    let bad: std::collections::HashSet<i64> = {
        let s = &d.supplier;
        let comments = s.column_by_name("s_comment").as_str();
        s.column_by_name("s_suppkey")
            .as_i64()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let c = comments.get(*i);
                // %Customer%Complaints%
                c.find("Customer")
                    .map(|p| c[p..].contains("Complaints"))
                    .unwrap_or(false)
            })
            .map(|(_, &k)| k)
            .collect()
    };
    // Qualifying parts.
    struct PartInfo {
        brand: String,
        ptype: String,
        size: i32,
    }
    let parts: HashMap<i64, PartInfo> = {
        let p = &d.part;
        let brand = p.column_by_name("p_brand").as_str();
        let ptype = p.column_by_name("p_type").as_str();
        let size = p.column_by_name("p_size").as_i32();
        (0..p.num_rows())
            .filter(|&i| {
                brand.get(i) != "Brand#45"
                    && !ptype.get(i).starts_with("MEDIUM POLISHED")
                    && SIZES.contains(&size[i])
            })
            .map(|i| {
                (
                    p.column_by_name("p_partkey").as_i64()[i],
                    PartInfo {
                        brand: brand.get(i).to_owned(),
                        ptype: ptype.get(i).to_owned(),
                        size: size[i],
                    },
                )
            })
            .collect()
    };
    // Distinct good suppliers per (brand, type, size).
    let ps = &d.partsupp;
    let ps_pk = ps.column_by_name("ps_partkey").as_i64();
    let ps_sk = ps.column_by_name("ps_suppkey").as_i64();
    let mut groups: HashMap<(String, String, i32), std::collections::HashSet<i64>> = HashMap::new();
    for i in 0..ps.num_rows() {
        if bad.contains(&ps_sk[i]) {
            continue;
        }
        if let Some(info) = parts.get(&ps_pk[i]) {
            groups
                .entry((info.brand.clone(), info.ptype.clone(), info.size))
                .or_default()
                .insert(ps_sk[i]);
        }
    }

    let t = run(16);
    assert_eq!(t.num_rows(), groups.len(), "group count");
    for r in 0..t.num_rows() {
        let key = (
            t.column_by_name("p_brand").as_str().get(r).to_owned(),
            t.column_by_name("p_type").as_str().get(r).to_owned(),
            t.column_by_name("p_size").as_i32()[r],
        );
        assert_eq!(
            t.column_by_name("supplier_cnt").as_i64()[r] as usize,
            groups[&key].len(),
            "{key:?}"
        );
    }
}
