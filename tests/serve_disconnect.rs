//! Mid-query disconnect hygiene: a client that vanishes while its
//! spilling hybrid join is running must leave nothing behind — the
//! watchdog cancels the session's [`QueryContext`], the join unwinds
//! through the normal error path, spill files are removed by their
//! directory guards, and the admission grant is returned by RAII.
//!
//! Also exercises the spill fault shim through the server: an armed
//! `read:eio` fault must surface as a framed `ERR` response (the
//! connection survives), again with zero orphan spill files and the
//! admission pool byte-for-byte whole.
//!
//! Both scenarios run under a 1-worker pool and a multi-worker pool;
//! they share one `#[test]` because the fault shim is process-global.

use joinstudy::core::spill::fault;
use joinstudy::sql::server::Client;
use joinstudy::sql::{ServerConfig, SqlServer};
use joinstudy::storage::column::ColumnData;
use joinstudy::storage::table::{Schema, Table, TableBuilder};
use joinstudy::storage::types::DataType;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn kv_table(prefix: &str, rows: usize, key_mod: i64) -> Arc<Table> {
    let schema = Schema::of(&[
        (format!("{prefix}k").as_str(), DataType::Int64),
        (format!("{prefix}v").as_str(), DataType::Int64),
    ]);
    let mut b = TableBuilder::with_capacity(schema, rows);
    *b.column_mut(0) = ColumnData::Int64((0..rows as i64).map(|i| i % key_mod).collect());
    *b.column_mut(1) = ColumnData::Int64((0..rows as i64).collect());
    Arc::new(b.finish())
}

/// The heavy statement: a hybrid join whose ~480 KiB build side cannot
/// fit the 256 KiB admission grant, so it must spill.
const HEAVY: &str = "SELECT count(*) FROM build_t, probe_t WHERE bk = pk";

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn orphans(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

#[test]
fn disconnect_and_fault_leak_nothing() {
    let build = kv_table("b", 60_000, 3_000);
    let probe = kv_table("p", 120_000, 6_000);

    for pool_threads in [1, 4] {
        let mut server = SqlServer::new(ServerConfig {
            threads: pool_threads,
            pool_bytes: 1 << 20,
            // 256 KiB grants force the hybrid join out of core.
            query_bytes: 256 * 1024,
            min_grant_bytes: 64 * 1024,
            ..ServerConfig::default()
        });
        server.register("build_t", Arc::clone(&build));
        server.register("probe_t", Arc::clone(&probe));
        let admission = server.admission();
        let statlog = server.statlog();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let handle = Arc::new(server).spawn(listener).expect("spawn server");
        let addr = handle.addr();

        let spill_base = std::env::temp_dir().join(format!(
            "joinstudy-serve-disconnect-{}-{pool_threads}",
            std::process::id()
        ));
        std::fs::create_dir_all(&spill_base).unwrap();
        let set_spill = format!("SET spill_dir = '{}'", spill_base.display());

        // Sanity: the workload completes and spills when the client stays.
        let mut client = Client::connect(addr).expect("connect");
        assert!(client
            .query("SET join_algo = hybrid")
            .unwrap()
            .starts_with("OK"));
        assert!(client.query(&set_spill).unwrap().starts_with("OK"));
        let response = client.query(HEAVY).expect("heavy join round trip");
        assert!(
            response.starts_with("OK 1 1"),
            "heavy join should succeed under a 256 KiB grant: {}",
            response.lines().next().unwrap_or("")
        );
        let spilled: u64 = statlog
            .statements_snapshot()
            .iter()
            .map(|s| s.spill_bytes)
            .sum();
        assert!(
            spilled > 0,
            "a ~960 KiB build under a 256 KiB grant must take the spill path"
        );
        drop(client);

        // Scenario A: the client fires the heavy join and vanishes. The
        // watchdog cancels the query; everything must be reclaimed.
        let mut client = Client::connect(addr).expect("connect");
        client.query("SET join_algo = hybrid").unwrap();
        client.query(&set_spill).unwrap();
        // Snapshot *after* the SETs: they are recorded too, so an earlier
        // snapshot lets this wait pass before the heavy statement is done —
        // and scenario B would then race against the still-running
        // abandoned query.
        let recorded_before = statlog.total_recorded();
        client
            .fire_and_disconnect(HEAVY)
            .expect("fire and disconnect");

        // The watchdog's cancel may land before the statement is admitted
        // (it is then turned away in the queue) or while it runs; either
        // way it is recorded once it is over.
        wait_until(
            "the abandoned statement to be recorded",
            Duration::from_secs(30),
            || statlog.total_recorded() > recorded_before,
        );
        // An admitted statement is recorded just before its grant returns.
        wait_until(
            "the abandoned grant to return",
            Duration::from_secs(30),
            || admission.available() == admission.total(),
        );
        // The grant came back through RAII (zero leaked budget), and the
        // spill directory guard removed every run directory.
        wait_until(
            "spill cleanup after disconnect",
            Duration::from_secs(30),
            || orphans(&spill_base).is_empty(),
        );
        assert_eq!(admission.queued(), 0);

        // Scenario B: an injected read fault. The server shares this
        // process, so the shim reaches its spill I/O. The client stays
        // connected and must get a framed ERR, not a dropped session.
        fault::set_for_test(fault::FaultSpec::parse("read:eio"));
        let mut client = Client::connect(addr).expect("connect");
        client.query("SET join_algo = hybrid").unwrap();
        client.query(&set_spill).unwrap();
        let response = client.query(HEAVY).expect("faulted round trip");
        fault::set_for_test(None);
        assert!(
            response.starts_with("ERR"),
            "armed read fault must surface as ERR ({pool_threads}-thread pool): {}",
            response.lines().next().unwrap_or("")
        );
        // The session survives the error: the next statement still runs.
        let after = client.query("SELECT count(*) FROM build_t").unwrap();
        assert!(
            after.starts_with("OK 1 1"),
            "session must survive a spill fault"
        );
        drop(client);

        wait_until(
            "grants to return after the fault",
            Duration::from_secs(30),
            || admission.available() == admission.total(),
        );
        let left = orphans(&spill_base);
        assert!(left.is_empty(), "orphan spill files after fault: {left:?}");

        handle.stop();
        std::fs::remove_dir_all(&spill_base).ok();
    }
}
