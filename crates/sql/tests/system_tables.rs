//! End-to-end tests for the telemetry surface of an embedded session:
//! `jsys.*` virtual system tables queried through plain SQL and statement
//! fingerprint folding.

use joinstudy_exec::admission::AdmissionController;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::metrics::MemPhase;
use joinstudy_exec::{Executor, PipelineLabel, SegmentKind, WaitState};
use joinstudy_sql::stats::StatLog;
use joinstudy_sql::Session;
use joinstudy_storage::types::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    // The registry is process-wide and other tests feed it too, so assert
    // on what it holds, not on values: the scan above counted its source
    // rows there, and nothing one query measures is registered at all.
    assert!(
        names.contains(&"exec.source_rows".to_string()),
        "missing exec.source_rows: {names:?}"
    );
    for per_query in ["spill.", "adaptive.", "admission.", "sched."] {
        assert!(
            !names.iter().any(|n| n.starts_with(per_query)),
            "a per-query {per_query}* count in the process registry: {names:?}"
        );
    }

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

/// One spilling statement reports one `spill_bytes`, written plus read: a
/// Q3-shaped join forced onto the hybrid join under 256 KiB shows the same
/// value in `jsys.recent_queries` as in its profile (EXPLAIN ANALYZE's
/// `spill=`), and more than its written bytes alone, since the join reads
/// back what it spilled.
#[test]
fn recent_queries_and_explain_analyze_agree_on_spill_bytes() {
    const Q3: &str = "SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem \
         WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
           AND l_orderkey = o_orderkey \
           AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
         GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 5";
    let data = joinstudy_tpch::generate(0.01, 99);
    let mut s = Session::new(2);
    s.register("customer", data.customer);
    s.register("orders", data.orders);
    s.register("lineitem", data.lineitem);
    s.execute("SET join_algo = hybrid").unwrap();
    s.set_memory_budget(Some(256 << 10));
    s.set_profiling(true);
    s.execute(Q3).unwrap();
    let written = s.context().spill_write_bytes();
    let profile = s.take_profile().expect("the statement was profiled");
    s.set_profiling(false);
    assert!(written > 0, "{}", profile.render());
    assert!(profile.spill_bytes > written, "{}", profile.render());

    let t = s
        .execute("SELECT sql, spill_bytes FROM jsys.recent_queries")
        .unwrap();
    let (sql, spill) = (col(&t, "sql"), col(&t, "spill_bytes"));
    let row = (0..t.num_rows())
        .map(|r| t.row(r))
        .find(|row| row[sql] == Value::Str(Q3.into()))
        .expect("the Q3 statement in the recent-query ring");
    assert_eq!(row[spill], Value::Int64(profile.spill_bytes as i64));
}

/// `jsys.query_progress` rows of `s`: `(conn, pipeline)` per stage row.
fn progress_rows(s: &mut Session) -> Vec<(Value, Value)> {
    let t = s
        .execute("SELECT conn, pipeline FROM jsys.query_progress")
        .unwrap();
    (0..t.num_rows())
        .map(|r| (t.row(r)[0].clone(), t.row(r)[1].clone()))
        .collect()
}

/// Run a one-task pipeline named "held" on `ctx` until `release` is set,
/// as connection `conn`'s running statement in `log`; returns once it runs.
fn hold(
    log: &Arc<StatLog>,
    conn: u64,
    ctx: Arc<QueryContext>,
    release: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    log.active_upsert(conn, "held", "running", 0, Some(&ctx));
    let release = Arc::clone(release);
    let running = Arc::clone(&ctx);
    let held = std::thread::spawn(move || {
        let label = PipelineLabel::new("held", WaitState::CpuScan, MemPhase::Other);
        Executor::new(1)
            .run_tasks(&ctx, label, 1, |_| {
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            })
            .unwrap();
    });
    while running.running_pipeline().is_none() {
        std::thread::yield_now();
    }
    held
}

/// A context's running pipeline is live progress for the sessions that
/// share its log, and for no other session: two sessions on one log see
/// each other's held pipeline while it runs and neither sees it once it
/// retired; a fresh embedded session sees nothing.
#[test]
fn query_progress_shows_the_running_pipelines_of_its_log_only() {
    let log = Arc::new(StatLog::new());
    let mut sessions = [session_with_data(), session_with_data()];
    for (conn, s) in sessions.iter_mut().enumerate() {
        s.set_statlog(Arc::clone(&log));
        s.set_conn_id(conn as u64 + 1);
    }
    let mut fresh = session_with_data();
    for holder in 0..2 {
        let release = Arc::new(AtomicBool::new(false));
        let conn = holder as u64 + 1;
        let held = hold(&log, conn, sessions[holder].context(), &release);
        let watcher = &mut sessions[1 - holder];
        let stage = (Value::Int64(conn as i64), Value::Str("held".into()));
        assert_eq!(
            progress_rows(watcher),
            [stage.clone(), stage],
            "source and sink"
        );
        assert!(
            progress_rows(&mut fresh).is_empty(),
            "another log's pipeline"
        );
        release.store(true, Ordering::Release);
        held.join().unwrap();
        assert!(progress_rows(watcher).is_empty(), "a retired pipeline");
        log.active_end(conn);
    }
}

/// A statement's record starts with its admission wait and its parse/plan;
/// with its pipelines and the stretches between them it tiles the
/// statement's wall time, and the pipelines' own clocks plus the rest add
/// up to that wall within 2 %.
#[test]
fn statement_record_tiles_admission_parse_plan_and_pipelines() {
    let mut s = session_with_data();
    let admission = AdmissionController::new(1 << 20, 1 << 10);
    let held = admission
        .admit(1 << 20, &QueryContext::unbounded())
        .unwrap();
    let t0 = Instant::now();
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        drop(held);
    });
    let grant = admission.admit(1 << 20, &s.context()).unwrap();
    s.execute("SELECT count(*) FROM r, b WHERE r.k = b.key")
        .unwrap();
    let outer = t0.elapsed().as_nanos() as u64;
    drop(grant);
    releaser.join().unwrap();

    let record = s.take_record().expect("the statement leaves its record");
    assert!(record.wall_ns <= outer, "the record outlasts the statement");
    let kinds: Vec<_> = record.segments.iter().map(|s| &s.kind).collect();
    assert!(matches!(
        kinds[..2],
        [SegmentKind::Admission, SegmentKind::ParsePlan]
    ));
    assert_eq!(record.segments[0].dur_ns(), s.context().admission_wait_ns());
    assert!(
        record.segments[0].dur_ns() >= 4_000_000,
        "it queued behind the held grant"
    );
    assert!(
        record.pipelines().count() >= 2,
        "a build and the probe into the output"
    );
    let mut at = 0;
    for seg in &record.segments {
        assert_eq!(seg.start_ns, at, "a gap or overlap before {:?}", seg.kind);
        at = seg.end_ns.unwrap();
    }
    assert_eq!(at, record.wall_ns);
    let own: u64 = record
        .segments
        .iter()
        .map(|s| match &s.kind {
            SegmentKind::Pipeline(p) => p.wall_ns(),
            _ => s.dur_ns(),
        })
        .sum();
    assert!(
        own.abs_diff(record.wall_ns) <= record.wall_ns / 50,
        "{own} vs {}",
        record.wall_ns
    );
}
