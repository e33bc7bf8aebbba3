//! The central correctness property of the whole study: every TPC-H query
//! must return the same result no matter which join implementation runs it
//! (BHJ / RJ / BRJ, the §5.3 drop-in-replacement requirement), at any
//! thread count, and with late materialization on or off.

use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_storage::table::Table;
use joinstudy_tpch::queries::{all_queries, QueryConfig};
use joinstudy_tpch::{generate, TpchData};
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| generate(0.01, 20260706))
}

/// Canonical form: the multiset of row renderings, sorted. Row order from
/// parallel execution is nondeterministic for tied sort keys, so results
/// are compared order-insensitively.
fn canonical(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            t.row(r)
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn all_queries_agree_across_join_algorithms() {
    let data = data();
    let engine = Engine::new(2);
    for q in all_queries() {
        let reference = canonical(&(q.run)(data, &QueryConfig::new(JoinAlgo::Bhj), &engine));
        // Q11's threshold is 0.0001/SF of total value: at SF 0.01 the spec
        // fraction legitimately filters everything out. Q18 qualifies
        // ~0.004% of orders even in official TPC-H (expected < 1 row here);
        // Q15/Q20 may also be empty at tiny scale.
        assert!(
            !reference.is_empty() || [11, 15, 18, 20].contains(&q.id),
            "Q{} returned an empty result at SF 0.01 — suspicious",
            q.id
        );
        for algo in [JoinAlgo::Rj, JoinAlgo::Brj] {
            let got = canonical(&(q.run)(data, &QueryConfig::new(algo), &engine));
            assert_eq!(got, reference, "Q{} differs under {:?}", q.id, algo);
        }
    }
}

#[test]
fn queries_agree_across_thread_counts() {
    let data = data();
    let serial = Engine::new(1);
    let parallel = Engine::new(4);
    for q in all_queries() {
        let cfg = QueryConfig::new(JoinAlgo::Brj);
        let a = canonical(&(q.run)(data, &cfg, &serial));
        let b = canonical(&(q.run)(data, &cfg, &parallel));
        assert_eq!(a, b, "Q{} differs between 1 and 4 threads", q.id);
    }
}

#[test]
fn late_materialization_is_result_transparent() {
    let data = data();
    let engine = Engine::new(2);
    for id in [3u32, 5, 7, 8, 9, 10, 14, 20] {
        let q = joinstudy_tpch::query(id);
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
            let em = canonical(&(q.run)(data, &QueryConfig::new(algo), &engine));
            let lm = canonical(&(q.run)(data, &QueryConfig::new(algo).with_lm(), &engine));
            assert_eq!(em, lm, "Q{id} LM deviates under {algo:?}");
        }
    }
}

#[test]
fn join_overrides_do_not_change_results() {
    // The Fig 12 permutation study flips single joins between BHJ and BRJ;
    // results must be invariant.
    let data = data();
    let engine = Engine::new(2);
    for id in [5u32, 21, 22] {
        let q = joinstudy_tpch::query(id);
        let reference = canonical(&(q.run)(data, &QueryConfig::new(JoinAlgo::Bhj), &engine));
        for j in 0..q.main_joins {
            let cfg = QueryConfig::new(JoinAlgo::Bhj).with_override(j, JoinAlgo::Brj);
            let got = canonical(&(q.run)(data, &cfg, &engine));
            assert_eq!(got, reference, "Q{id} join {j} override changed the result");
        }
    }
}

#[test]
fn selected_queries_satisfy_semantic_invariants() {
    let data = data();
    let engine = Engine::new(2);
    let cfg = QueryConfig::new(JoinAlgo::Bhj);

    // Q4: one row per order priority, counts positive.
    let q4 = (joinstudy_tpch::query(4).run)(data, &cfg, &engine);
    assert_eq!(q4.num_rows(), 5);
    assert!(q4
        .column_by_name("order_count")
        .as_i64()
        .iter()
        .all(|&c| c > 0));

    // Q12: exactly MAIL and SHIP rows, high + low = all counted lines.
    let q12 = (joinstudy_tpch::query(12).run)(data, &cfg, &engine);
    assert_eq!(q12.num_rows(), 2);
    let modes = q12.column(0).as_str();
    assert_eq!(modes.get(0), "MAIL");
    assert_eq!(modes.get(1), "SHIP");

    // Q14: promo share is a percentage.
    let q14 = (joinstudy_tpch::query(14).run)(data, &cfg, &engine);
    let share = q14.column_by_name("promo_revenue").as_i64()[0];
    assert!(
        share > 0 && share < 100 * 100,
        "promo share {share} out of range"
    );

    // Q22: country codes restricted to the 7-code list.
    let q22 = (joinstudy_tpch::query(22).run)(data, &cfg, &engine);
    assert!(q22.num_rows() > 0 && q22.num_rows() <= 7);
    for r in 0..q22.num_rows() {
        let code = q22.column(0).as_str().get(r);
        assert!(["13", "31", "23", "29", "30", "18", "17"].contains(&code));
    }

    // Q13 (groupjoin): the distribution must cover every customer exactly
    // once, and exactly one third of the customers (spec: custkey % 3 == 0)
    // have zero orders.
    let q13 = (joinstudy_tpch::query(13).run)(data, &cfg, &engine);
    let total: i64 = q13.column_by_name("custdist").as_i64().iter().sum();
    assert_eq!(total as usize, data.customer.num_rows());
    let zero_row = (0..q13.num_rows())
        .find(|&r| q13.column_by_name("c_count").as_i64()[r] == 0)
        .expect("some customers have no orders");
    let zero_customers = q13.column_by_name("custdist").as_i64()[zero_row];
    assert_eq!(zero_customers, 500, "custkey % 3 == 0 customers at SF 0.01");

    // Q2: result capped at 100, sorted by s_acctbal descending.
    let q2 = (joinstudy_tpch::query(2).run)(data, &cfg, &engine);
    assert!(q2.num_rows() <= 100);
    let bal = q2.column_by_name("s_acctbal").as_i64();
    assert!(
        bal.windows(2).all(|w| w[0] >= w[1]),
        "Q2 not sorted by balance"
    );
}

/// The budget floor: the join-heaviest queries (Q9's five-join chain with
/// wide string-carrying tuples, Q21's semi/anti joins, Q18) with every join
/// forced to the hybrid join return the BHJ's rows down to 256 KiB — where
/// Q9 used to die with `BudgetExceeded` in "partition pass 1" at 1 MiB.
#[test]
fn hybrid_joins_complete_under_tiny_budgets() {
    let data = generate(0.05, 20260706);
    let reference = Engine::new(2);
    for id in [9u32, 21, 18] {
        let q = joinstudy_tpch::query(id);
        let expected = canonical(&(q.run)(
            &data,
            &QueryConfig::new(JoinAlgo::Bhj),
            &reference,
        ));
        for budget in [4 << 20, 1 << 20, 256 << 10] {
            let engine = Engine::new(2);
            engine.ctx.set_memory_budget(Some(budget));
            let got = canonical(&(q.run)(
                &data,
                &QueryConfig::new(JoinAlgo::Hybrid),
                &engine,
            ));
            assert_eq!(got, expected, "Q{id} under {budget} B differs from the BHJ");
            assert_eq!(engine.ctx.used(), 0, "Q{id} under {budget} B leaked budget");
        }
    }
}
