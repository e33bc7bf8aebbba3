//! Concurrent-session stress for the profiler: two sessions on separate
//! threads, each over tables of a different cardinality, both profiling.
//! Every profile must describe its own session's data (no
//! cross-contamination through the engine or global metrics), and
//! interleaved `metrics::reset()` / `metrics::set_enabled` calls from a
//! third thread must never panic a profiled query.

use joinstudy_exec::metrics;
use joinstudy_sql::Session;
use joinstudy_storage::table::{Schema, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn keyed_table(rows: usize) -> Arc<joinstudy_storage::table::Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows);
    for i in 0..rows {
        b.push_row(&[Value::Int64(i as i64 % 100), Value::Int64(i as i64)]);
    }
    Arc::new(b.finish())
}

/// One session's workload: `rows` drives both the expected COUNT(*) and
/// the expected profiler tuple counts, so any cross-talk between the two
/// sessions is caught by either assertion.
fn session_loop(rows: usize, iters: usize) {
    let mut session = Session::new(2);
    session.register("t", keyed_table(rows));
    session.register("u", keyed_table(rows));
    session.set_profiling(true);

    for i in 0..iters {
        let sql = "SELECT count(*) AS c FROM t, u WHERE t.k = u.k";
        let result = session.execute(sql).expect("query failed");
        let expected = (rows / 100) as i64 * (rows / 100) as i64 * 100;
        assert_eq!(
            result.column_by_name("c").as_i64()[0],
            expected,
            "iter {i}: wrong join count for {rows}-row session"
        );

        let profile = session
            .take_profile()
            .expect("profiling on but no profile recorded");
        assert_eq!(
            profile.root.rows_in, 1,
            "iter {i}: COUNT(*) collects exactly one row"
        );
        let nodes = profile.nodes();
        let join = nodes
            .iter()
            .find(|n| n.label.starts_with("Join"))
            .expect("join node present");
        assert_eq!(
            join.rows_out, expected as u64,
            "iter {i}: profile describes another session's data ({rows} rows)"
        );
        for scan in nodes.iter().filter(|n| n.label.starts_with("Scan")) {
            assert_eq!(
                scan.rows_out, rows as u64,
                "iter {i}: scan count from the wrong session"
            );
        }

        assert_eq!(
            profile.degradations, 0,
            "iter {i}: a query without a budget degraded"
        );

        // A second take must drain: profiles never leak across statements.
        assert!(session.take_profile().is_none());
    }
}

#[test]
fn concurrent_profiled_sessions_do_not_cross_contaminate() {
    let stop = Arc::new(AtomicBool::new(false));
    // Third thread: thrash the global metrics registry while both
    // sessions profile. QueryProfile must be unaffected (its counts come
    // from per-query observation, not the global registry).
    let chaos = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                metrics::reset();
                metrics::set_enabled(true);
                metrics::set_enabled(false);
                std::thread::yield_now();
            }
        })
    };

    let big = std::thread::spawn(|| session_loop(10_000, 20));
    let small = std::thread::spawn(|| session_loop(1_000, 20));
    big.join().expect("big session panicked");
    small.join().expect("small session panicked");

    stop.store(true, Ordering::Relaxed);
    chaos.join().expect("metrics thread panicked");
    metrics::reset();
    metrics::set_enabled(true);
}
