//! End-to-end tests for the telemetry surface of an embedded session:
//! `jsys.*` virtual system tables queried through plain SQL and statement
//! fingerprint folding.

use joinstudy_sql::Session;
use joinstudy_storage::types::Value;

fn session_with_data() -> Session {
    let mut s = Session::new(2);
    s.execute("CREATE TABLE r (k BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    s.execute("INSERT INTO r VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    s.execute("CREATE TABLE b (key BIGINT NOT NULL, pay BIGINT NOT NULL)")
        .unwrap();
    s.execute("INSERT INTO b VALUES (1, 100), (3, 300)")
        .unwrap();
    s
}

/// Column index by name, so the tests survive schema column reordering.
fn col(t: &joinstudy_storage::table::Table, name: &str) -> usize {
    t.schema()
        .fields
        .iter()
        .position(|f| f.name == name)
        .unwrap_or_else(|| panic!("no column {name:?}"))
}

#[test]
fn statements_table_counts_every_statement() {
    let mut s = session_with_data();
    // Two literal variants of the same statement → one fingerprint, 2 calls.
    s.execute("SELECT v FROM r WHERE k = 1").unwrap();
    s.execute("SELECT v FROM r WHERE k = 2").unwrap();
    // One failing statement → errors = 1 under its own fingerprint.
    assert!(s.execute("SELECT nope FROM r").is_err());

    let t = s
        .execute("SELECT fingerprint, calls, errors FROM jsys.statements")
        .unwrap();
    let (fp, calls, errors) = (col(&t, "fingerprint"), col(&t, "calls"), col(&t, "errors"));

    let mut total_calls = 0i64;
    let mut saw_folded = false;
    let mut saw_error = false;
    for r in 0..t.num_rows() {
        let row = t.row(r);
        let c = match row[calls] {
            Value::Int64(c) => c,
            ref other => panic!("calls should be Int64, got {other:?}"),
        };
        total_calls += c;
        if let Value::Str(f) = &row[fp] {
            if f == "select v from r where k = ?" {
                assert_eq!(c, 2, "literal variants must fold into one fingerprint");
                saw_folded = true;
            }
            if f == "select nope from r" {
                assert_eq!(row[errors], Value::Int64(1));
                saw_error = true;
            }
        }
    }
    assert!(saw_folded, "folded fingerprint row missing");
    assert!(saw_error, "error fingerprint row missing");
    // Everything executed so far is accounted for: 4 setup statements,
    // 2 folded SELECTs, 1 error. The jsys query itself snapshots before
    // its own recording, so it is not in its own result.
    assert_eq!(total_calls, 7);
}

#[test]
fn plan_failed_statement_does_not_inherit_engine_counters() {
    let mut s = session_with_data();
    // A join leaves a join-shape mask on the query context ...
    s.execute("SELECT count(*) FROM r, b WHERE r.k = b.key")
        .unwrap();
    // ... which a statement that fails *before* arming the context (plan
    // error) must not pick up as its own.
    assert!(s.execute("SELECT r.v, b.pay FROM r, b").is_err());

    let t = s
        .execute("SELECT fingerprint, errors, algos FROM jsys.statements")
        .unwrap();
    let (fp, algos) = (col(&t, "fingerprint"), col(&t, "algos"));
    let row = (0..t.num_rows())
        .find(|&r| t.row(r)[fp] == Value::Str("select r.v, b.pay from r, b".into()))
        .expect("plan-error fingerprint row");
    assert_eq!(
        t.row(row)[algos],
        Value::Str("-".into()),
        "a statement that never armed the context must not report the \
         previous query's join shapes"
    );
}

#[test]
fn recent_queries_ring_and_active_queries() {
    let mut s = session_with_data();
    s.execute("SELECT count(*) FROM r, b WHERE r.k = b.key")
        .unwrap();

    let t = s
        .execute("SELECT seq, sql, ok, rows_out FROM jsys.recent_queries")
        .unwrap();
    let sql_col = col(&t, "sql");
    let texts: Vec<String> = (0..t.num_rows())
        .map(|r| match &t.row(r)[sql_col] {
            Value::Str(s) => s.clone(),
            other => panic!("sql should be Str, got {other:?}"),
        })
        .collect();
    assert!(
        texts.iter().any(|q| q.contains("count(*)")),
        "recent ring should hold the join query, got {texts:?}"
    );

    // Nothing is in flight while the jsys.active_queries statement itself
    // runs — except that statement, which upserted itself before planning.
    let t = s
        .execute("SELECT conn, state, sql FROM jsys.active_queries")
        .unwrap();
    assert_eq!(t.num_rows(), 1);
    assert_eq!(t.row(0)[col(&t, "state")], Value::Str("running".into()));
}

#[test]
fn statements_table_supports_wildcard_and_joins_with_limits() {
    let mut s = session_with_data();
    s.execute("SELECT v FROM r WHERE k = 1").unwrap();
    // `SELECT *` exercises the planner's wildcard expansion over a
    // materialized system table; ORDER BY + LIMIT run the normal operator
    // pipeline on top of it.
    let t = s
        .execute("SELECT * FROM jsys.statements ORDER BY total_ns DESC LIMIT 3")
        .unwrap();
    assert!(t.num_rows() >= 1 && t.num_rows() <= 3);
    assert_eq!(t.schema().fields.len(), 15);
    assert_eq!(t.schema().fields[0].name, "fingerprint");
}

#[test]
fn metrics_and_pool_tables_materialize() {
    let mut s = session_with_data();
    s.execute("SELECT count(*) FROM r, b WHERE r.k = b.key")
        .unwrap();
    let t = s.execute("SELECT name, value FROM jsys.metrics").unwrap();
    let names: Vec<String> = (0..t.num_rows())
        .map(|r| match &t.row(r)[0] {
            Value::Str(s) => s.clone(),
            other => panic!("name should be Str, got {other:?}"),
        })
        .collect();
    // The global registry is process-wide and other tests feed it too, so
    // assert only on presence of this crate's own counters.
    assert!(!names.is_empty(), "metrics table should not be empty");

    let t = s.execute("SELECT name, value FROM jsys.pool").unwrap();
    let names: Vec<String> = (0..t.num_rows())
        .map(|r| match &t.row(r)[0] {
            Value::Str(s) => s.clone(),
            other => panic!("name should be Str, got {other:?}"),
        })
        .collect();
    // Embedded session: no shared pool, no admission controller — only
    // the in-flight pipeline gauge is known.
    assert!(names.contains(&"pool.active_pipelines".to_string()));
}

#[test]
fn unknown_system_table_is_a_plan_error() {
    let mut s = session_with_data();
    for table in ["jsys.nope", "jsys.timeseries"] {
        let err = s.execute(&format!("SELECT * FROM {table}")).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown system table") && msg.contains("jsys.statements"),
            "error should list the valid system tables, got: {msg}"
        );
    }
}
