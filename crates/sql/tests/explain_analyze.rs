//! End-to-end EXPLAIN ANALYZE through the SQL session: the statement
//! executes the query, returns the annotated plan as a one-column table,
//! and the same text is reachable through [`Session::explain_analyze`].
//! Plain EXPLAIN stays execution-free.

use joinstudy_sql::Session;
use joinstudy_storage::table::{Schema, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use std::sync::Arc;

fn session_with_data() -> Session {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut t = TableBuilder::new(schema.clone());
    for i in 0..600i64 {
        t.push_row(&[Value::Int64(i % 50), Value::Int64(i)]);
    }
    let mut u = TableBuilder::new(schema);
    for i in 0..200i64 {
        u.push_row(&[Value::Int64(i % 50), Value::Int64(i)]);
    }
    let mut session = Session::new(2);
    session.register("t", Arc::new(t.finish()));
    session.register("u", Arc::new(u.finish()));
    session
}

const JOIN_SQL: &str = "SELECT count(*) AS c FROM t, u WHERE t.k = u.k";

fn plan_text(t: &joinstudy_storage::table::Table) -> String {
    assert_eq!(t.schema().fields[0].name, "plan");
    (0..t.num_rows())
        .map(|r| match &t.row(r)[0] {
            Value::Str(s) => s.clone(),
            other => panic!("plan column holds {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_analyze_statement_returns_annotated_plan() {
    let mut session = session_with_data();
    let result = session
        .execute(&format!("EXPLAIN ANALYZE {JOIN_SQL}"))
        .unwrap();
    let text = plan_text(&result);

    // Header + per-operator annotations prove the query actually ran.
    assert!(text.contains("wall="), "missing header: {text}");
    assert!(text.contains("Join BHJ"), "missing join node: {text}");
    // 600 x 200 rows sharing 50 keys -> 12 x 4 x 50 = 2400 join tuples.
    assert!(
        text.contains("rows_out=2400"),
        "join output count not annotated: {text}"
    );
    assert!(
        text.contains("ht_load_factor"),
        "missing join details: {text}"
    );
    // The Output root carries the query's time between pipelines.
    assert!(
        text.contains("between_ns="),
        "missing between total: {text}"
    );
    // The profile is the statement's result; with profiling off nothing is
    // left behind for take_profile to print a second time.
    assert!(session.take_profile().is_none());
}

/// The counters switch is the session's own: turning it on leaves the
/// process-wide switch off, and another session's EXPLAIN ANALYZE shows no
/// hardware counters.
#[test]
fn counters_switch_is_per_session() {
    let mut counted = session_with_data();
    counted.set_counters(true);
    assert!(!joinstudy_exec::pmu::enabled());
    counted.execute(JOIN_SQL).unwrap();
    let mut other = session_with_data();
    let result = other.execute(&format!("EXPLAIN ANALYZE {JOIN_SQL}"));
    let text = plan_text(&result.unwrap());
    assert!(!text.contains("hw_"), "{text}");
}

#[test]
fn plain_explain_does_not_execute() {
    let mut session = session_with_data();
    let result = session.execute(&format!("EXPLAIN {JOIN_SQL}")).unwrap();
    let text = plan_text(&result);
    assert!(text.contains("Join"), "plan tree expected: {text}");
    assert!(
        !text.contains("rows_out=") && !text.contains("wall="),
        "plain EXPLAIN must not carry runtime stats: {text}"
    );
    // No profile is stashed by either variant's EXPLAIN result path.
    assert!(session.take_profile().is_none());
}

#[test]
fn explain_analyze_method_accepts_bare_and_prefixed_select() {
    let session_text = |sql: &str| {
        let session = {
            let mut s = session_with_data();
            s.set_join_algo(joinstudy_core::JoinAlgo::Brj);
            s
        };
        session.explain_analyze(sql).unwrap()
    };
    for sql in [
        JOIN_SQL.to_string(),
        format!("EXPLAIN {JOIN_SQL}"),
        format!("EXPLAIN ANALYZE {JOIN_SQL};"),
    ] {
        let text = session_text(&sql);
        assert!(text.contains("Join BRJ"), "{sql:?} -> {text}");
        assert!(text.contains("bloom_selectivity"), "{sql:?} -> {text}");
    }
}

#[test]
fn profiling_session_flag_records_profiles_per_statement() {
    let mut session = session_with_data();
    session.set_profiling(true);

    let result = session.execute(JOIN_SQL).unwrap();
    assert_eq!(result.column_by_name("c").as_i64(), &[2400]);
    let profile = session.take_profile().expect("profile recorded");
    assert_eq!(profile.root.rows_in, 1); // one aggregated row collected
    assert!(session.take_profile().is_none(), "take_profile drains");

    session.set_profiling(false);
    session.execute(JOIN_SQL).unwrap();
    assert!(
        session.take_profile().is_none(),
        "profiling off records nothing"
    );
}
