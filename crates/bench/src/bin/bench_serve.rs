//! Multi-client serving benchmark: latency percentiles and throughput of
//! the concurrent SQL server under a mixed TPC-H workload.
//!
//! ```text
//! cargo run --release -p joinstudy-bench --bin bench_serve -- \
//!     [--sf 0.05] [--clients 8] [--queries 40] [--threads N] \
//!     [--mode closed|open] [--rate 20] [--pool-mb 256] [--quick]
//! ```
//!
//! Spins up an in-process [`SqlServer`] on an ephemeral port, then drives
//! it with `--clients` TCP clients, each issuing `--queries` statements
//! from a rotating mixed TPC-H set (aggregates, two-table joins, and the
//! three-way Q3). Two load models:
//!
//! * **closed** (default): each client waits for its response before
//!   sending the next statement — latency measures server residence time
//!   under full back-pressure.
//! * **open**: each client fires on a fixed schedule of `--rate`
//!   queries/second regardless of completions; latency is measured from
//!   the *scheduled* send time, so admission queueing delay is included
//!   (the paper-adjacent "heavy traffic" view).
//!
//! Reports p50/p95/p99/max latency and aggregate throughput on stdout and
//! as JSON in `results/bench_serve.json` (the CI artifact). While the
//! clients run, a scraper connection polls the `METRICS` protocol command
//! (validating each response as Prometheus text exposition) and the last
//! scrape lands in `results/metrics_scrape.txt`; after the run the
//! server-wide statement statistics are dumped to
//! `results/jsys_statements.tsv`, the active-session-history ring to
//! `results/ash_dump.tsv`, and the 1-second gauge ring to
//! `results/jsys_timeseries.tsv` — all via plain `SELECT ... FROM jsys.*`.
//! `--quick` shrinks everything for a smoke run.
//!
//! Two ASH-specific flags:
//!
//! * `--no-ash` disables the server's wait-state sampler — the off arm of
//!   the sampler-overhead A/B (DESIGN.md §14 commits to a <2% closed-loop
//!   p50 difference between the arms).
//! * `--ash` joins the p99 latency tail against the ASH samples taken
//!   while those requests ran (same connection, sample time inside the
//!   request's `[end - latency, end]` window) and prints a per-wait-state
//!   straggler attribution table, also recorded in the JSON.

use joinstudy_bench::harness::{banner, Args};
use joinstudy_bench::top;
use joinstudy_sql::server::Client;
use joinstudy_sql::stats::validate_exposition;
use joinstudy_sql::{ServerConfig, SqlServer};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

/// The mixed workload: one statement per line-protocol request. Clients
/// rotate through this list starting at their client index.
const MIX: [&str; 6] = [
    "SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey",
    "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_shipdate > DATE '1995-03-15'",
    "SELECT count(*) FROM supplier, nation WHERE s_nationkey = n_nationkey",
    "SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM customer, orders, lineitem \
     WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
     AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15' \
     GROUP BY o_orderkey ORDER BY revenue DESC, o_orderkey LIMIT 5",
    "SELECT n_name, count(*) FROM customer, nation WHERE c_nationkey = n_nationkey \
     GROUP BY n_name ORDER BY n_name",
];

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Run `sql` and return the response body (column header + rows) as TSV.
fn dump_tsv(client: &mut Client, sql: &str) -> String {
    let response = client.query(sql).expect("jsys round trip");
    assert!(
        response.starts_with("OK"),
        "jsys dump failed: {}",
        response.lines().next().unwrap_or("")
    );
    response
        .lines()
        .skip(1) // OK header
        .take_while(|l| *l != ".")
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Straggler attribution: join the p99 latency tail of the recent-query
/// ring against the ASH samples taken while those requests ran (same
/// connection, sample inside `[end - latency, end]`). Returns the p99
/// threshold (ms), the tail size, and samples per wait state.
fn attribute_tail(
    recent_rows: &[Vec<String>],
    ash_rows: &[Vec<String>],
) -> (f64, usize, BTreeMap<String, u64>) {
    // (ts_ms, conn, latency_ns) of every recorded request.
    let recent: Vec<(i64, i64, i64)> = recent_rows
        .iter()
        .map(|r| {
            (
                r[0].parse().unwrap_or(0),
                r[1].parse().unwrap_or(0),
                r[2].parse().unwrap_or(0),
            )
        })
        .collect();
    let mut latencies: Vec<i64> = recent.iter().map(|r| r.2).collect();
    latencies.sort_unstable();
    if latencies.is_empty() {
        return (0.0, 0, BTreeMap::new());
    }
    let p99_idx = ((latencies.len() as f64 - 1.0) * 0.99).round() as usize;
    let p99_ns = latencies[p99_idx.min(latencies.len() - 1)];
    let tail: Vec<&(i64, i64, i64)> = recent.iter().filter(|r| r.2 >= p99_ns).collect();
    let mut by_state: BTreeMap<String, u64> = BTreeMap::new();
    for (end_ms, conn, latency_ns) in tail.iter().copied() {
        let start_ms = end_ms - (latency_ns / 1_000_000).max(1);
        for row in ash_rows {
            let at: i64 = row[0].parse().unwrap_or(0);
            let sample_conn: i64 = row[1].parse().unwrap_or(-1);
            if sample_conn == *conn && at >= start_ms && at <= *end_ms {
                *by_state.entry(row[2].clone()).or_default() += 1;
            }
        }
    }
    (p99_ns as f64 / 1e6, tail.len(), by_state)
}

fn main() {
    let args = Args::parse(&[
        "quick",
        "sf",
        "clients",
        "queries",
        "mode",
        "rate",
        "ash",
        "no-ash",
        "threads",
        "pool-mb",
        "query-mb",
        "min-grant-mb",
    ]);
    let quick = args.flag("quick");
    let sf = args.f64("sf", if quick { 0.01 } else { 0.05 });
    let clients = args.usize("clients", 8);
    let queries = args.usize("queries", if quick { 6 } else { 40 });
    let mode = args.str("mode", "closed");
    let rate = args.f64("rate", 20.0);
    let open_loop = mode == "open";
    let ash_report = args.flag("ash");
    let ash_enabled = !args.flag("no-ash");
    let config = ServerConfig {
        threads: args.threads(),
        pool_bytes: args.usize("pool-mb", 256) << 20,
        query_bytes: args.usize("query-mb", 64) << 20,
        min_grant_bytes: args.usize("min-grant-mb", 8) << 20,
        ash_enabled,
        ..ServerConfig::default()
    };

    banner(
        "bench_serve",
        &format!(
            "SF {sf}, {clients} clients x {queries} queries, {} workers, {} loop",
            config.threads,
            if open_loop { "open" } else { "closed" }
        ),
    );

    let data = joinstudy_tpch::generate(sf, 42);
    let mut server = SqlServer::new(config.clone());
    for name in TABLES {
        server.register(name, Arc::clone(data.table(name)));
    }
    let admission = server.admission();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let handle = Arc::new(server).spawn(listener).expect("spawn server");
    let addr = handle.addr();

    let t0 = Instant::now();
    let mut per_client: Vec<Vec<f64>> = Vec::new();
    let stop_scraper = AtomicBool::new(false);
    let mut last_scrape = String::new();
    let mut scrapes = 0usize;
    std::thread::scope(|scope| {
        // A monitoring connection alongside the load: poll METRICS like a
        // Prometheus scraper would, and fail loudly if any scrape is not
        // valid text exposition.
        let scraper = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect scraper");
            let mut last;
            let mut n = 0usize;
            loop {
                let response = client.query("METRICS").expect("METRICS round trip");
                let body = response.trim_end_matches(".\n").trim_end_matches("\n.");
                validate_exposition(body)
                    .unwrap_or_else(|e| panic!("scrape {n} is invalid exposition: {e}"));
                last = format!("{body}\n");
                n += 1;
                // One final scrape after the load drains, so the saved
                // exposition covers the whole run.
                if stop_scraper.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            client.query(".quit").ok();
            (last, n)
        });
        let mut joins = Vec::new();
        for c in 0..clients {
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(queries);
                let start = Instant::now();
                let period = Duration::from_secs_f64(1.0 / rate.max(0.01));
                for q in 0..queries {
                    let stmt = MIX[(c + q) % MIX.len()];
                    let scheduled = start + period * q as u32;
                    if open_loop {
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                    }
                    let sent = if open_loop { scheduled } else { Instant::now() };
                    let response = client.query(stmt).expect("query round trip");
                    assert!(
                        response.starts_with("OK"),
                        "client {c} query {q} failed: {}",
                        response.lines().next().unwrap_or("")
                    );
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            }));
        }
        for j in joins {
            per_client.push(j.join().expect("client thread"));
        }
        stop_scraper.store(true, Ordering::Release);
        (last_scrape, scrapes) = scraper.join().expect("scraper thread");
    });
    let elapsed = t0.elapsed();

    // Dump serving telemetry through plain SQL before shutting down: the
    // CI artifacts showing what actually ran. The recent-query ring is
    // fetched on the observer's *first* statement so its own jsys queries
    // cannot pollute the attribution join (system tables materialize
    // before the reading statement records itself).
    let (recent_rows, ash_rows, stats_tsv, ash_tsv, ts_tsv) = {
        let mut observer = Client::connect(addr).expect("connect observer");
        let recent_rows = top::query_rows(
            &mut observer,
            "SELECT ts_ms, conn, latency_ns, fingerprint FROM jsys.recent_queries",
        )
        .expect("jsys.recent_queries round trip");
        let ash_rows = top::query_rows(
            &mut observer,
            "SELECT at_ms, conn, wait_state FROM jsys.ash",
        )
        .expect("jsys.ash round trip");
        let stats_tsv = dump_tsv(
            &mut observer,
            "SELECT fingerprint, calls, errors, total_ns, p50_ns, p95_ns, p99_ns, \
             rows_out, spill_bytes, admission_wait_ns, degradations, algos \
             FROM jsys.statements",
        );
        let ash_tsv = dump_tsv(
            &mut observer,
            "SELECT at_ms, conn, query_id, fingerprint, wait_state, pipeline, rows, \
             granted_bytes FROM jsys.ash",
        );
        let ts_tsv = dump_tsv(
            &mut observer,
            "SELECT at_ms, queue_depth, available_bytes, admitted_bytes, pool_threads, \
             active_pipelines, active_queries, spill_write_bytes, spill_read_bytes \
             FROM jsys.timeseries",
        );
        observer.query(".quit").ok();
        (recent_rows, ash_rows, stats_tsv, ash_tsv, ts_tsv)
    };
    handle.stop();

    let mut all: Vec<f64> = per_client.into_iter().flatten().collect();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total = all.len();
    let qps = total as f64 / elapsed.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&all, 0.50),
        percentile(&all, 0.95),
        percentile(&all, 0.99),
    );
    let max = all.last().copied().unwrap_or(0.0);

    println!(
        "{total} queries in {:.2} s  ->  {qps:.1} q/s  \
         p50 {p50:.2} ms  p95 {p95:.2} ms  p99 {p99:.2} ms  max {max:.2} ms",
        elapsed.as_secs_f64()
    );
    println!(
        "admission: {} admitted, peak grant {} MiB of {} MiB pool",
        admission.admitted(),
        admission.peak_granted() >> 20,
        admission.total() >> 20
    );

    // Straggler attribution (--ash): which wait states the p99 latency
    // tail actually spent its time in, according to the sampler.
    let mut ash_json = format!(
        ",\n  \"ash_enabled\": {ash_enabled},\n  \"ash_samples\": {}",
        ash_rows.len()
    );
    if ash_report {
        let (p99_ms, tail_n, by_state) = attribute_tail(&recent_rows, &ash_rows);
        let tail_total: u64 = by_state.values().sum();
        println!(
            "p99 tail attribution: {tail_n} request(s) >= {p99_ms:.2} ms, \
             {tail_total} ASH sample(s) in their windows"
        );
        if tail_total == 0 {
            println!("  (tail too fast for the sampler — no samples landed in its windows)");
        }
        for (state, n) in &by_state {
            println!(
                "  {state:<18} {n:>6} samples  {:>5.1}%",
                *n as f64 * 100.0 / tail_total.max(1) as f64
            );
        }
        let states: Vec<String> = by_state
            .iter()
            .map(|(s, n)| format!("\"{s}\": {n}"))
            .collect();
        ash_json.push_str(&format!(
            ",\n  \"tail_p99_ms\": {p99_ms:.3},\n  \"tail_requests\": {tail_n},\n  \
             \"tail_wait_samples\": {{{}}}",
            states.join(", ")
        ));
    }

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"sf\": {sf},\n  \"clients\": {clients},\n  \"queries_per_client\": {queries},\n  \
         \"threads\": {},\n  \"mode\": \"{}\",\n  \"total_queries\": {total},\n  \
         \"elapsed_s\": {:.4},\n  \"qps\": {qps:.2},\n  \"p50_ms\": {p50:.3},\n  \
         \"p95_ms\": {p95:.3},\n  \"p99_ms\": {p99:.3},\n  \"max_ms\": {max:.3},\n  \
         \"admitted\": {},\n  \"peak_granted_bytes\": {},\n  \"pool_bytes\": {}{ash_json}\n}}\n",
        config.threads,
        if open_loop { "open" } else { "closed" },
        elapsed.as_secs_f64(),
        admission.admitted(),
        admission.peak_granted(),
        admission.total(),
    );
    std::fs::write("results/bench_serve.json", json).expect("write results/bench_serve.json");
    println!("wrote results/bench_serve.json");

    std::fs::write("results/metrics_scrape.txt", &last_scrape)
        .expect("write results/metrics_scrape.txt");
    std::fs::write("results/jsys_statements.tsv", &stats_tsv)
        .expect("write results/jsys_statements.tsv");
    std::fs::write("results/ash_dump.tsv", &ash_tsv).expect("write results/ash_dump.tsv");
    std::fs::write("results/jsys_timeseries.tsv", &ts_tsv)
        .expect("write results/jsys_timeseries.tsv");
    println!(
        "wrote results/metrics_scrape.txt ({scrapes} mid-run scrapes, all valid exposition), \
         results/jsys_statements.tsv ({} fingerprints), results/ash_dump.tsv ({} samples), \
         results/jsys_timeseries.tsv ({} ticks)",
        stats_tsv.lines().count().saturating_sub(1),
        ash_tsv.lines().count().saturating_sub(1),
        ts_tsv.lines().count().saturating_sub(1)
    );
}
