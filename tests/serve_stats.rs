//! Serving telemetry under concurrency: N TCP clients drive a mixed
//! workload, and afterwards `jsys.statements` must account for every
//! statement exactly once (call counts sum to N×M — the conservation
//! invariant from the statement-statistics design), a `METRICS` scrape
//! must parse as valid Prometheus text exposition, and the active-query
//! registry must drain to empty. A statement turned away while it queues
//! for admission is accounted for too.

use joinstudy::exec::context::QueryContext;
use joinstudy::sql::server::Client;
use joinstudy::sql::stats::validate_exposition;
use joinstudy::sql::{ServerConfig, SqlServer};
use joinstudy::storage::column::ColumnData;
use joinstudy::storage::table::{Schema, TableBuilder};
use joinstudy::storage::types::DataType;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLES: [&str; 4] = ["nation", "supplier", "customer", "orders"];

/// M statements per client: SELECTs (some sharing fingerprints across
/// clients, some per-client literals), a SET, and a failing statement.
fn script(client: usize) -> Vec<String> {
    vec![
        "SET join_algo = adaptive".to_string(),
        "SELECT count(*) FROM customer, nation WHERE c_nationkey = n_nationkey".to_string(),
        format!(
            "SELECT count(*) FROM orders WHERE o_custkey = {}",
            client + 1
        ),
        "SELECT count(*) FROM supplier, nation WHERE s_nationkey = n_nationkey".to_string(),
        "SELECT * FROM nosuch".to_string(),
        format!("SELECT count(*) FROM customer WHERE c_custkey > {client}"),
    ]
}

fn parse_rows(response: &str) -> Vec<Vec<String>> {
    let mut lines = response.lines();
    let header = lines.next().expect("response header");
    assert!(
        header.starts_with("OK "),
        "expected OK response: {response}"
    );
    lines.next(); // column-name line
    lines
        .take_while(|l| *l != ".")
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect()
}

#[test]
fn statement_stats_conserve_counts_across_clients() {
    let data = joinstudy::tpch::generate(0.01, 7);
    let clients = 6usize;
    let per_client = script(0).len();

    let mut server = SqlServer::new(ServerConfig {
        threads: 4,
        pool_bytes: 1 << 30,
        query_bytes: 64 << 20,
        min_grant_bytes: 8 << 20,
        ..ServerConfig::default()
    });
    for name in TABLES {
        server.register(name, Arc::clone(data.table(name)));
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = Arc::new(server).spawn(listener).expect("spawn server");
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for stmt in script(c) {
                    // A mid-run METRICS scrape from one client must be
                    // valid exposition even while others are executing.
                    if c == 0 {
                        let scrape = client.query("METRICS").expect("scrape");
                        let body = scrape.trim_end_matches(".\n").trim_end_matches("\n.");
                        let series = validate_exposition(body)
                            .unwrap_or_else(|e| panic!("invalid exposition: {e}"));
                        assert!(series > 0, "scrape should carry at least one sample");
                    }
                    client.query(&stmt).expect("round trip");
                }
                client.query(".quit").ok();
            });
        }
    });

    // Conservation: a fresh connection reads the shared statlog. The read
    // snapshots *before* recording itself, so the sum of calls is exactly
    // clients × statements-per-client.
    let mut observer = Client::connect(addr).expect("connect observer");
    let resp = observer
        .query("SELECT fingerprint, calls, errors FROM jsys.statements")
        .expect("jsys.statements");
    let rows = parse_rows(&resp);
    let total_calls: i64 = rows.iter().map(|r| r[1].parse::<i64>().unwrap()).sum();
    let total_errors: i64 = rows.iter().map(|r| r[2].parse::<i64>().unwrap()).sum();
    assert_eq!(
        total_calls,
        (clients * per_client) as i64,
        "every statement recorded exactly once: {rows:?}"
    );
    // One deliberately failing statement per client.
    assert_eq!(total_errors, clients as i64);

    // The shared-fingerprint SELECT folded across all clients.
    let folded = rows
        .iter()
        .find(|r| r[0].contains("from customer, nation"))
        .expect("shared fingerprint row");
    assert_eq!(folded[1].parse::<i64>().unwrap(), clients as i64);

    // Per-client literals folded into one parameterized fingerprint.
    let param = rows
        .iter()
        .find(|r| r[0].contains("o_custkey = ?"))
        .expect("parameterized fingerprint row");
    assert_eq!(param[1].parse::<i64>().unwrap(), clients as i64);

    // All clients are gone: only the observer's own statement is active.
    let resp = observer
        .query("SELECT conn, state FROM jsys.active_queries")
        .expect("jsys.active_queries");
    assert_eq!(parse_rows(&resp).len(), 1);

    // Post-run scrape still parses and reflects the recorded statements.
    let scrape = observer.query("METRICS").expect("final scrape");
    let body = scrape.trim_end_matches(".\n").trim_end_matches("\n.");
    validate_exposition(body).expect("final scrape parses");
    assert!(
        body.contains("joinstudy_statements_recorded"),
        "scrape should carry the statement-log gauge: {body}"
    );

    observer.query(".quit").ok();
    handle.stop();
}

/// A statement cancelled while it queues for admission — its client gone
/// before any memory was free — is still a call, and an error, in
/// `jsys.statements`, like every statement that ran and failed.
#[test]
fn statement_cancelled_in_the_admission_queue_counts_as_an_error() {
    let schema = Schema::of(&[("qk", DataType::Int64)]);
    let mut table = TableBuilder::with_capacity(schema, 3);
    *table.column_mut(0) = ColumnData::Int64(vec![1, 2, 3]);
    let mut server = SqlServer::new(ServerConfig {
        threads: 2,
        pool_bytes: 1 << 20,
        query_bytes: 1 << 20,
        min_grant_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    server.register("queued_t", Arc::new(table.finish()));
    let admission = server.admission();
    let statlog = server.statlog();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = Arc::new(server).spawn(listener).expect("spawn server");

    // Hold the whole pool, so the statement below can only queue.
    let held = admission
        .admit(1 << 20, &QueryContext::unbounded())
        .expect("an idle pool admits");
    let before = statlog.total_recorded();
    Client::connect(handle.addr())
        .expect("connect")
        .fire_and_disconnect("SELECT count(*) FROM queued_t")
        .expect("fire and disconnect");
    let t0 = Instant::now();
    while statlog.total_recorded() == before {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the statement turned away in the queue was never recorded"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(admission.admitted(), 1, "only the pool's holder got memory");
    drop(held);

    let mut observer = Client::connect(handle.addr()).expect("connect observer");
    let resp = observer
        .query("SELECT fingerprint, calls, errors FROM jsys.statements")
        .expect("jsys.statements");
    let rows = parse_rows(&resp);
    let queued = rows
        .iter()
        .find(|r| r[0].contains("queued_t"))
        .unwrap_or_else(|| panic!("no row for the cancelled statement: {rows:?}"));
    assert_eq!((queued[1].as_str(), queued[2].as_str()), ("1", "1"));
    observer.query(".quit").ok();
    handle.stop();
}
