//! Live-server tests for the active-session-history surface: the
//! wait-state sampler (`jsys.ash`) and live per-operator progress
//! (`jsys.query_progress`), both answered over plain SQL through the line
//! protocol, exactly as the shell's `.top` reads them.
//!
//! The second test is the acceptance scenario from DESIGN.md §14: a
//! deliberately spill-heavy join under a 16 MiB budget must surface
//! `spill_io` wait samples in the ASH ring and strictly monotone
//! per-operator progress counters while the query is in flight.

use joinstudy_sql::server::Client;
use joinstudy_sql::{ServerConfig, SqlServer};
use joinstudy_storage::table::{Schema, Table, TableBuilder};
use joinstudy_storage::types::{DataType, Value};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT_STATES: [&str; 9] = [
    "other",
    "admission_queued",
    "pool_wait",
    "cpu_build",
    "cpu_partition",
    "cpu_probe",
    "cpu_scan",
    "spill_io",
    "finalizing",
];

fn keyed_table(rows: usize) -> Arc<Table> {
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::with_capacity(schema, rows);
    for i in 0..rows {
        b.push_row(&[Value::Int64(i as i64), Value::Int64(i as i64 * 2)]);
    }
    Arc::new(b.finish())
}

/// Run `sql`, assert success, and parse the framed body into rows of
/// tab-separated fields (header dropped).
fn rows(client: &mut Client, sql: &str) -> Vec<Vec<String>> {
    let response = client.query(sql).expect("round trip");
    assert!(
        response.starts_with("OK"),
        "query {sql:?} failed: {}",
        response.lines().next().unwrap_or("")
    );
    response
        .lines()
        .skip(2) // OK header + column names
        .take_while(|l| *l != ".")
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect()
}

/// Column-name header of a successful response.
fn header(client: &mut Client, sql: &str) -> Vec<String> {
    let response = client.query(sql).expect("round trip");
    assert!(response.starts_with("OK"), "query {sql:?} failed");
    response
        .lines()
        .nth(1)
        .unwrap_or("")
        .split('\t')
        .map(str::to_string)
        .collect()
}

fn spawn_server(
    config: ServerConfig,
    tables: &[(&str, Arc<Table>)],
) -> joinstudy_sql::server::ServerHandle {
    let mut server = SqlServer::new(config);
    for (name, table) in tables {
        server.register(*name, Arc::clone(table));
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    Arc::new(server).spawn(listener).expect("spawn server")
}

#[test]
fn ash_and_progress_answer_over_plain_sql() {
    let config = ServerConfig {
        threads: 2,
        pool_bytes: 64 << 20,
        query_bytes: 16 << 20,
        min_grant_bytes: 1 << 20,
        ash_interval: Duration::from_millis(2),
    };
    let t = keyed_table(50_000);
    let handle = spawn_server(config, &[("t", Arc::clone(&t)), ("u", t)]);
    let addr = handle.addr();

    // Concurrent load: two clients, enough statements that the 2 ms
    // sampler catches plenty of them in flight.
    let mut clients = Vec::new();
    for _ in 0..2 {
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            for _ in 0..15 {
                let body = rows(&mut c, "SELECT count(*) FROM t, u WHERE t.k = u.k");
                assert_eq!(body[0][0], "50000");
            }
            c.query(".quit").ok();
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    let mut observer = Client::connect(addr).expect("connect observer");

    // jsys.ash: non-empty, every wait state from the taxonomy, and
    // joinable to jsys.statements on fingerprint.
    let ash = rows(
        &mut observer,
        "SELECT at_ms, conn, query_id, fingerprint, wait_state, pipeline, rows, \
         granted_bytes FROM jsys.ash",
    );
    assert!(!ash.is_empty(), "sampler took no samples under load");
    for sample in &ash {
        assert!(
            WAIT_STATES.contains(&sample[4].as_str()),
            "unknown wait state {:?}",
            sample[4]
        );
    }
    let statement_fps: Vec<String> = rows(&mut observer, "SELECT fingerprint FROM jsys.statements")
        .into_iter()
        .map(|mut r| r.remove(0))
        .collect();
    assert!(
        ash.iter().any(|s| statement_fps.contains(&s[3])),
        "ash samples must join to jsys.statements on fingerprint"
    );
    assert!(
        ash.iter().any(|s| s[4].starts_with("cpu_") && s[2] != "0"),
        "load this heavy must be caught on-CPU with an armed query id"
    );

    // jsys.query_progress: answers with the full column set (the load has
    // drained, so it is usually empty — the shape is the contract here).
    let cols = header(&mut observer, "SELECT * FROM jsys.query_progress");
    assert_eq!(
        cols,
        [
            "query_id",
            "conn",
            "pipeline",
            "stage",
            "batches",
            "rows_in",
            "rows_out",
            "morsels_done",
            "morsels_total",
            "est_rows",
            "fraction",
            "spill_bytes"
        ]
    );

    observer.query(".quit").ok();
    handle.stop();
}

#[test]
fn spill_heavy_query_shows_spill_io_samples_and_monotone_progress() {
    // 16 MiB query budget, build side ~19 MiB raw: the join must degrade
    // to the spilling HHJ. The pool is bigger than one grant so the
    // observer connection's jsys statements are admitted mid-join.
    let config = ServerConfig {
        threads: 2,
        pool_bytes: 24 << 20,
        query_bytes: 16 << 20,
        min_grant_bytes: 1 << 20,
        ash_interval: Duration::from_millis(1),
    };
    let rows_n = 1_200_000usize;
    let big = keyed_table(rows_n);
    let handle = spawn_server(config, &[("big_r", Arc::clone(&big)), ("big_s", big)]);
    let addr = handle.addr();

    let runner = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect runner");
        let body = rows(
            &mut c,
            "SELECT count(*) FROM big_r, big_s WHERE big_r.k = big_s.k",
        );
        c.query(".quit").ok();
        body[0][0].clone()
    });

    // Poll live progress while the join runs. Counters are relaxed
    // atomics, but per (query_id, pipeline, stage) they must only grow.
    let mut observer = Client::connect(addr).expect("connect observer");
    let mut last: BTreeMap<(String, String, String), (i64, i64, i64)> = BTreeMap::new();
    let mut saw_live = false;
    let mut advanced = 0usize;
    let deadline = Instant::now() + Duration::from_secs(120);
    while !runner.is_finished() {
        assert!(Instant::now() < deadline, "spill join did not finish");
        let snapshot = rows(
            &mut observer,
            "SELECT query_id, pipeline, stage, rows_in, rows_out, morsels_done \
             FROM jsys.query_progress",
        );
        for row in snapshot {
            saw_live = true;
            let key = (row[0].clone(), row[1].clone(), row[2].clone());
            let now: (i64, i64, i64) = (
                row[3].parse().unwrap(),
                row[4].parse().unwrap(),
                row[5].parse().unwrap(),
            );
            if let Some(prev) = last.get(&key) {
                assert!(
                    now.0 >= prev.0 && now.1 >= prev.1 && now.2 >= prev.2,
                    "progress went backwards for {key:?}: {prev:?} -> {now:?}"
                );
                if now != *prev {
                    advanced += 1;
                }
            }
            last.insert(key, now);
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    let count = runner.join().expect("runner thread");
    assert_eq!(count, rows_n.to_string(), "join result wrong");
    assert!(saw_live, "never observed a live pipeline mid-join");
    assert!(
        advanced > 0,
        "progress counters never advanced between polls"
    );

    // The statement really spilled ...
    let stmts = rows(
        &mut observer,
        "SELECT fingerprint, spill_bytes FROM jsys.statements",
    );
    let spill_bytes: i64 = stmts
        .iter()
        .find(|r| r[0].contains("big_r"))
        .expect("join fingerprint row")[1]
        .parse()
        .unwrap();
    assert!(
        spill_bytes > 0,
        "16 MiB budget over a ~19 MiB build side must spill"
    );

    // ... and the sampler caught it doing spill I/O, with live pipeline
    // attribution on at least some samples.
    let ash = rows(&mut observer, "SELECT wait_state, pipeline FROM jsys.ash");
    assert!(
        ash.iter().any(|s| s[0] == "spill_io"),
        "no spill_io wait samples; states seen: {:?}",
        ash.iter()
            .map(|s| s[0].as_str())
            .collect::<std::collections::BTreeSet<_>>()
    );
    assert!(
        ash.iter().any(|s| !s[1].is_empty()),
        "no ash sample carried a pipeline label"
    );

    observer.query(".quit").ok();
    handle.stop();
}
