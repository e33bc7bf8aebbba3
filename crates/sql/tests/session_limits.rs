//! Session-level resource limits: typed errors for timeouts, cancellation
//! and budget breaches, the transparent RJ→BHJ degradation, and the
//! guarantee that a failed statement leaves the session fully usable.

use joinstudy_core::JoinAlgo;
use joinstudy_sql::{Session, SqlError};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, TableBuilder};
use joinstudy_storage::types::DataType;
use std::sync::Arc;
use std::time::Duration;

const COUNT_SQL: &str = "SELECT count(*) FROM probe r, build s WHERE r.k = s.key;";

/// b(key, pay) with unique keys 0..build_n, r(k, p1) with k = i % build_n:
/// every probe row matches exactly once.
fn joined_session(build_n: usize, probe_n: usize) -> Session {
    let mut session = Session::new(2);
    let bschema = Schema::of(&[("key", DataType::Int64), ("pay", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(bschema, build_n);
    *b.column_mut(0) = ColumnData::Int64((0..build_n as i64).collect());
    *b.column_mut(1) = ColumnData::Int64((0..build_n as i64).collect());
    session.register("build", Arc::new(b.finish()));

    let pschema = Schema::of(&[("k", DataType::Int64), ("p1", DataType::Int64)]);
    let mut p = TableBuilder::with_capacity(pschema, probe_n);
    *p.column_mut(0) = ColumnData::Int64((0..probe_n).map(|i| (i % build_n) as i64).collect());
    *p.column_mut(1) = ColumnData::Int64((0..probe_n as i64).collect());
    session.register("probe", Arc::new(p.finish()));
    session
}

#[test]
fn timeout_is_typed_and_session_recovers() {
    let mut session = joined_session(60_000, 400_000);
    session.set_timeout(Some(Duration::from_millis(1)));
    let err = session.execute(COUNT_SQL).unwrap_err();
    assert_eq!(err, SqlError::Timeout { budget_ms: 1 });
    assert!(err.to_string().contains("1 ms"), "{err}");

    session.set_timeout(None);
    let t = session.execute(COUNT_SQL).unwrap();
    assert_eq!(t.column(0).as_i64(), &[400_000]);
}

#[test]
fn cancellation_from_another_thread_is_typed() {
    let mut session = joined_session(60_000, 400_000);
    session.set_join_algo(JoinAlgo::Rj);
    let ctx = session.context();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        ctx.cancel();
    });
    let err = session.execute(COUNT_SQL).unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err, SqlError::Cancelled);

    // The cancel flag is re-armed per statement: the session still works.
    session.set_join_algo(JoinAlgo::Bhj);
    let t = session.execute(COUNT_SQL).unwrap();
    assert_eq!(t.column(0).as_i64(), &[400_000]);
}

#[test]
fn budget_degradation_is_transparent_in_sql() {
    // 16 KiB build side, 3.2 MiB probe side: a 512 KiB budget kills the
    // radix join's probe partitioning but fits the BHJ's build-only
    // materialization, so the statement silently degrades and succeeds.
    let mut session = joined_session(1_000, 200_000);
    session.set_join_algo(JoinAlgo::Rj);
    session.set_memory_budget(Some(512 * 1024));
    let t = session.execute(COUNT_SQL).unwrap();
    assert_eq!(t.column(0).as_i64(), &[200_000]);
    assert_eq!(session.context().degradations(), 1);

    // A budget too small even for the BHJ surfaces the typed error.
    session.set_memory_budget(Some(1024));
    match session.execute(COUNT_SQL) {
        Err(SqlError::BudgetExceeded { budget, .. }) => assert_eq!(budget, 1024),
        other => panic!("expected budget breach, got {other:?}"),
    }
    session.set_memory_budget(None);
    let t = session.execute(COUNT_SQL).unwrap();
    assert_eq!(t.column(0).as_i64(), &[200_000]);
}

#[test]
fn plan_and_parse_errors_are_distinguishable() {
    let mut session = joined_session(10, 10);
    assert!(matches!(
        session.execute("SELEC count(*) FROM build"),
        Err(SqlError::Parse(_))
    ));
    assert!(matches!(
        session.execute("SELECT nope FROM build"),
        Err(SqlError::Plan(_))
    ));
    // Both failures leave the session usable.
    let t = session.execute("SELECT count(*) FROM build").unwrap();
    assert_eq!(t.column(0).as_i64(), &[10]);
}
