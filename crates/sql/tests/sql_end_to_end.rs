//! End-to-end SQL: the paper's own statements run verbatim, results
//! cross-validated against hand-built plans and references.

use joinstudy_core::JoinAlgo;
use joinstudy_sql::Session;
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::gen::Rng;
use joinstudy_storage::table::{Schema, TableBuilder};
use joinstudy_storage::types::DataType;
use std::sync::Arc;

/// Register Workload-A'-shaped tables b(key, pay) / r(k, p1).
fn microbench_session(build_n: usize, probe_n: usize, seed: u64) -> Session {
    let mut rng = Rng::new(seed);
    let mut session = Session::new(2);

    let bschema = Schema::of(&[("key", DataType::Int64), ("pay", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(bschema, build_n);
    let keys = rng.permutation(build_n);
    *b.column_mut(0) = ColumnData::Int64(keys.iter().map(|&k| k as i64).collect());
    *b.column_mut(1) = ColumnData::Int64(keys.iter().map(|&k| k as i64).collect());
    session.register("build", Arc::new(b.finish()));

    let pschema = Schema::of(&[("k", DataType::Int64), ("p1", DataType::Int64)]);
    let mut p = TableBuilder::with_capacity(pschema, probe_n);
    *p.column_mut(0) = ColumnData::Int64(
        (0..probe_n)
            .map(|_| rng.u64_below(build_n as u64) as i64)
            .collect(),
    );
    *p.column_mut(1) = ColumnData::Int64((0..probe_n as i64).collect());
    session.register("probe", Arc::new(p.finish()));
    session
}

#[test]
fn papers_count_query_runs_verbatim() {
    // §5.2: "SELECT count(*) FROM probe r, build s WHERE r.k = s.k;"
    let mut session = microbench_session(1000, 16_000, 1);
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        session.set_join_algo(algo);
        let t = session
            .execute("SELECT count(*) FROM probe r, build s WHERE r.k = s.key;")
            .unwrap();
        assert_eq!(t.column(0).as_i64(), &[16_000], "{algo:?}");
    }
}

#[test]
fn papers_sum_query_runs_verbatim() {
    // §5.4.2: "SELECT sum(s.p1) FROM build r, probe s WHERE r.k = s.k;"
    let mut session = microbench_session(500, 4_000, 2);
    let reference: i64 = {
        // Every probe row matches exactly once → sum of all p1 values.
        let t = session.table("probe").unwrap();
        t.column_by_name("p1").as_i64().iter().sum()
    };
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        session.set_join_algo(algo);
        let t = session
            .execute("SELECT sum(s.p1) FROM build r, probe s WHERE r.key = s.k")
            .unwrap();
        assert_eq!(t.column(0).as_i64(), &[reference], "{algo:?}");
    }
}

#[test]
fn papers_create_table_and_insert() {
    // §5.1.2: "CREATE TABLE b(key BIGINT NOT NULL, pay BIGINT NOT NULL);"
    let mut session = Session::new(1);
    session
        .execute("CREATE TABLE b(key BIGINT NOT NULL, pay BIGINT NOT NULL);")
        .unwrap();
    session
        .execute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let t = session.execute("SELECT count(*), sum(pay) FROM b").unwrap();
    assert_eq!(t.column(0).as_i64(), &[3]);
    assert_eq!(t.column(1).as_i64(), &[60]);
}

#[test]
fn group_by_order_by_limit() {
    let mut session = Session::new(2);
    session
        .execute("CREATE TABLE s (cat VARCHAR, amount DECIMAL(15,2))")
        .unwrap();
    session
        .execute(
            "INSERT INTO s VALUES ('a', 1.50), ('b', 2.00), ('a', 0.50), ('c', 9.99), ('b', 1.00)",
        )
        .unwrap();
    let t = session
        .execute(
            "SELECT cat, count(*) AS n, sum(amount) AS total FROM s \
             GROUP BY cat ORDER BY total DESC LIMIT 2",
        )
        .unwrap();
    assert_eq!(t.num_rows(), 2);
    assert_eq!(t.column_by_name("cat").as_str().get(0), "c");
    assert_eq!(t.column_by_name("total").as_i64(), &[999, 300]);
    assert_eq!(t.column_by_name("n").as_i64(), &[1, 2]);
}

#[test]
fn three_table_join_with_filters() {
    let mut session = Session::new(2);
    session
        .execute("CREATE TABLE region (rid BIGINT, rname VARCHAR)")
        .unwrap();
    session
        .execute("INSERT INTO region VALUES (1, 'ASIA'), (2, 'EUROPE')")
        .unwrap();
    session
        .execute("CREATE TABLE nation (nid BIGINT, nregion BIGINT)")
        .unwrap();
    session
        .execute("INSERT INTO nation VALUES (10, 1), (11, 1), (12, 2)")
        .unwrap();
    session
        .execute("CREATE TABLE city (cid BIGINT, cnation BIGINT, pop BIGINT)")
        .unwrap();
    session
        .execute("INSERT INTO city VALUES (100, 10, 5), (101, 10, 7), (102, 11, 11), (103, 12, 2)")
        .unwrap();
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        session.set_join_algo(algo);
        let t = session
            .execute(
                "SELECT count(*), sum(c.pop) FROM city c, nation n, region r \
                 WHERE c.cnation = n.nid AND n.nregion = r.rid AND r.rname = 'ASIA'",
            )
            .unwrap();
        assert_eq!(t.column(0).as_i64(), &[3], "{algo:?}");
        assert_eq!(t.column(1).as_i64(), &[23], "{algo:?}");
    }
}

#[test]
fn tpch_query_in_sql_matches_reference() {
    // A simplified TPC-H Q3 over the real generated data, in SQL.
    let data = joinstudy_tpch_testdata();
    let mut session = Session::new(2);
    session.register("customer", Arc::clone(&data.customer));
    session.register("orders", Arc::clone(&data.orders));
    session.register("lineitem", Arc::clone(&data.lineitem));

    session.set_join_algo(JoinAlgo::Brj);
    let t = session
        .execute(
            "SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
               AND l_orderkey = o_orderkey \
               AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
             GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 5",
        )
        .unwrap();
    assert!(t.num_rows() > 0 && t.num_rows() <= 5);
    let rev = t.column_by_name("revenue").as_i64();
    assert!(
        rev.windows(2).all(|w| w[0] >= w[1]),
        "not sorted by revenue"
    );

    // Same result under a different join implementation.
    session.set_join_algo(JoinAlgo::Bhj);
    let t2 = session
        .execute(
            "SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
               AND l_orderkey = o_orderkey \
               AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
             GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 5",
        )
        .unwrap();
    assert_eq!(t.column(0).as_i64(), t2.column(0).as_i64());
    assert_eq!(rev, t2.column_by_name("revenue").as_i64());
}

fn joinstudy_tpch_testdata() -> joinstudy_tpch::TpchData {
    joinstudy_tpch::generate(0.01, 99)
}

#[test]
fn explain_shows_the_join_tree() {
    let mut session = microbench_session(100, 1000, 3);
    session.set_join_algo(JoinAlgo::Brj);
    let text = session
        .explain("SELECT count(*) FROM probe r, build s WHERE r.k = s.key")
        .unwrap();
    assert!(text.contains("Join #1 BRJ Inner"), "{text}");
    assert!(text.contains("Scan"), "{text}");
    // The smaller table (build, 100 rows) must be the build side:
    // its scan line appears directly under the join header.
    let join_line = text.lines().position(|l| l.contains("Join #1")).unwrap();
    let next = text.lines().nth(join_line + 1).unwrap();
    assert!(
        next.contains("(100 rows)"),
        "build side should be the smaller table: {text}"
    );
}

#[test]
fn error_messages_are_helpful() {
    let mut session = Session::new(1);
    session.execute("CREATE TABLE t (a BIGINT)").unwrap();
    let err = session.execute("SELECT b FROM t").unwrap_err().to_string();
    assert!(err.contains("unknown column"), "{err}");
    let err = session
        .execute("SELECT a FROM missing")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown table"), "{err}");
    let err = session
        .execute("SELECT a, count(*) FROM t")
        .unwrap_err()
        .to_string();
    assert!(err.contains("GROUP BY"), "{err}");
    let err = session
        .execute("SELECT a FROM t, t")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate"), "{err}");
}

#[test]
fn case_when_and_residual_predicates() {
    let mut session = Session::new(2);
    session
        .execute("CREATE TABLE a (x BIGINT, y BIGINT)")
        .unwrap();
    session
        .execute("INSERT INTO a VALUES (1, 5), (2, 1), (3, 9)")
        .unwrap();
    session
        .execute("CREATE TABLE b (x BIGINT, z BIGINT)")
        .unwrap();
    session
        .execute("INSERT INTO b VALUES (1, 4), (2, 3), (3, 10)")
        .unwrap();
    // Residual non-equi predicate a.y < b.z survives above the equi join.
    let t = session
        .execute(
            "SELECT sum(CASE WHEN a.y > 4 THEN 1 ELSE 0 END) AS big, count(*) AS n \
             FROM a, b WHERE a.x = b.x AND a.y < b.z",
        )
        .unwrap();
    // Matching rows: (2: y=1 < z=3), (3: y=9 < z=10) → n=2, big=1 (y=9).
    assert_eq!(t.column_by_name("n").as_i64(), &[2]);
    assert_eq!(t.column_by_name("big").as_i64(), &[1]);
}

#[test]
fn set_join_algo_statement_switches_the_session() {
    let mut session = microbench_session(200, 2_000, 7);
    // The session answers the join question itself out of the box.
    assert_eq!(session.join_algo(), JoinAlgo::Adaptive);
    for (value, algo) in [
        ("bhj", JoinAlgo::Bhj),
        ("rj", JoinAlgo::Rj),
        ("brj", JoinAlgo::Brj),
        ("adaptive", JoinAlgo::Adaptive),
        ("hybrid", JoinAlgo::Hybrid),
    ] {
        session
            .execute(&format!("SET join_algo = {value};"))
            .unwrap();
        assert_eq!(session.join_algo(), algo, "SET join_algo = {value}");
        let t = session
            .execute("SELECT count(*) FROM probe r, build s WHERE r.k = s.key")
            .unwrap();
        assert_eq!(t.column(0).as_i64(), &[2_000], "{value}");
    }

    let err = session
        .execute("SET join_algo = quantum")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown join_algo"), "{err}");
    for unknown in ["SET partition_bits = 6", "SET slow_query_ns = 1000"] {
        let err = session.execute(unknown).unwrap_err().to_string();
        assert!(err.contains("unknown session variable"), "{unknown}: {err}");
    }
}
