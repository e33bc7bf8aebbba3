//! Interactive SQL shell over generated TPC-H data.
//!
//! ```text
//! cargo run --release -p joinstudy-bench --bin sql_shell -- [--sf 0.05] [--zipf Z]
//! joinstudy> .algo brj
//! joinstudy> SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority;
//! joinstudy> .explain SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;
//! joinstudy> .quit
//! ```
//!
//! Dot-commands: `.algo bhj|rj|brj|adaptive|hybrid` picks the join
//! implementation (`hybrid` is the out-of-core spilling join),
//! `.spill <dir>|default` picks where hybrid-join spill runs live,
//! `.explain <select>` prints the plan, `.profile on|off` records a
//! per-operator [`QueryProfile`] for every statement (printed after the
//! result; `EXPLAIN ANALYZE <select>` does the same for a single query;
//! after a failed statement the partial profile of the pipelines that
//! completed is printed under a `-- partial profile --` header),
//! `.trace on|off` records a per-worker timeline for every statement and
//! writes it as Chrome/Perfetto `trace_event` JSON under `results/`,
//! `.counters on|off` samples hardware PMU counters (cycles, LLC/dTLB
//! misses) per worker where `perf_event_open` is permitted — EXPLAIN
//! ANALYZE then shows per-join counter deltas and misses/tuple,
//! `.tables` lists relations, `.timing on|off` toggles wall-clock
//! reporting, `.timeout <ms>|off` sets a per-statement deadline,
//! `.budget <mb>|off` caps per-statement materialization memory (joins
//! degrade RJ → BHJ → spilling HHJ before failing), `.stats` prints the
//! session's statement statistics (the same aggregates behind `SELECT *
//! FROM jsys.statements`), `.top <addr> [frames]` renders the live
//! dashboard of a *running server* — pool and admission gauges, the ASH
//! wait-state window, active queries and pipeline progress, one frame a
//! second (the embedded shell has no sampler of its own) — and `.quit`
//! exits.

use joinstudy_bench::harness::Args;
use joinstudy_core::JoinAlgo;
use joinstudy_sql::Session;
use joinstudy_storage::table::Table;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

fn print_table(t: &Table, max_rows: usize) {
    let header: Vec<String> = t.schema().fields.iter().map(|f| f.name.clone()).collect();
    if header.is_empty() {
        return;
    }
    println!("{}", header.join(" | "));
    println!(
        "{}",
        header
            .iter()
            .map(|h| "-".repeat(h.len()))
            .collect::<Vec<_>>()
            .join("-+-")
    );
    for r in 0..t.num_rows().min(max_rows) {
        let row: Vec<String> = t.row(r).iter().map(|v| v.to_string()).collect();
        println!("{}", row.join(" | "));
    }
    if t.num_rows() > max_rows {
        println!("... ({} more rows)", t.num_rows() - max_rows);
    }
    println!("({} rows)", t.num_rows());
}

/// Drain the session's trace (if a traced statement just ran) and write it
/// as Chrome/Perfetto JSON. Traces survive statement failure, so this runs
/// on both the success and the error path.
fn write_trace(session: &Session, seq: &mut usize) {
    if let Some(trace) = session.take_trace() {
        let path = format!("results/shell_{seq:03}.trace.json");
        *seq += 1;
        match std::fs::create_dir_all("results")
            .and_then(|_| std::fs::write(&path, trace.to_chrome_json()))
        {
            Ok(()) => println!(
                "trace: {} -> {path} (open in ui.perfetto.dev)",
                trace.summary()
            ),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}

fn main() {
    let args = Args::parse(&["sf", "zipf", "threads"]);
    let sf = args.f64("sf", 0.05);
    let zipf = args.f64("zipf", 0.0);
    let threads = args.threads();

    eprintln!(
        "generating TPC-H SF {sf}{} ...",
        if zipf > 0.0 {
            format!(" (zipf {zipf})")
        } else {
            String::new()
        }
    );
    let data = if zipf > 0.0 {
        joinstudy_tpch::generate_skewed(sf, 42, zipf)
    } else {
        joinstudy_tpch::generate(sf, 42)
    };
    let mut session = Session::new(threads);
    for name in TABLES {
        session.register(name, Arc::clone(data.table(name)));
    }
    eprintln!(
        "ready — {} tables, {} threads, join algo ADAPTIVE. '.algo bhj' to pin, '.quit' to exit.",
        TABLES.len(),
        threads
    );

    let stdin = std::io::stdin();
    let mut timing = true;
    let mut trace_seq = 0usize;
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("joinstudy> ");
        } else {
            print!("........ > ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            let mut parts = trimmed.splitn(2, ' ');
            match parts.next().unwrap() {
                ".quit" | ".exit" => break,
                ".tables" => {
                    for t in TABLES {
                        println!(
                            "  {t:<10} {:>9} rows",
                            session.table(t).map(|t| t.num_rows()).unwrap_or(0)
                        );
                    }
                }
                ".timing" => {
                    timing = parts.next().map(str::trim) != Some("off");
                    println!("timing {}", if timing { "on" } else { "off" });
                }
                ".algo" => match parts.next().map(|s| s.trim().to_ascii_lowercase()) {
                    Some(a) if a == "bhj" => session.set_join_algo(JoinAlgo::Bhj),
                    Some(a) if a == "rj" => session.set_join_algo(JoinAlgo::Rj),
                    Some(a) if a == "brj" => session.set_join_algo(JoinAlgo::Brj),
                    Some(a) if a == "adaptive" => session.set_join_algo(JoinAlgo::Adaptive),
                    Some(a) if a == "hybrid" || a == "hhj" => {
                        session.set_join_algo(JoinAlgo::Hybrid)
                    }
                    _ => println!("usage: .algo bhj|rj|brj|adaptive|hybrid"),
                },
                ".spill" => match parts.next().map(str::trim) {
                    Some("default") => {
                        session.context().set_spill_dir(None);
                        println!("spill dir: engine default (temp dir)");
                    }
                    Some(dir) if !dir.is_empty() => {
                        session
                            .context()
                            .set_spill_dir(Some(std::path::PathBuf::from(dir)));
                        println!("spill dir: {dir}");
                    }
                    _ => println!("usage: .spill <dir>|default"),
                },
                ".timeout" => match parts.next().map(str::trim) {
                    Some("off") => {
                        session.set_timeout(None);
                        println!("timeout off");
                    }
                    Some(ms) => match ms.parse::<u64>() {
                        Ok(ms) if ms > 0 => {
                            session.set_timeout(Some(std::time::Duration::from_millis(ms)));
                            println!("timeout {ms} ms");
                        }
                        _ => println!("usage: .timeout <ms>|off"),
                    },
                    None => println!("usage: .timeout <ms>|off"),
                },
                ".budget" => match parts.next().map(str::trim) {
                    Some("off") => {
                        session.set_memory_budget(None);
                        println!("budget off");
                    }
                    Some(mb) => match mb.parse::<usize>() {
                        Ok(mb) if mb > 0 => {
                            session.set_memory_budget(Some(mb * 1024 * 1024));
                            println!("budget {mb} MiB");
                        }
                        _ => println!("usage: .budget <mb>|off"),
                    },
                    None => println!("usage: .budget <mb>|off"),
                },
                ".explain" => match parts.next() {
                    Some(sql) => match session.explain(sql) {
                        Ok(text) => print!("{text}"),
                        Err(e) => println!("{e}"),
                    },
                    None => println!("usage: .explain SELECT ..."),
                },
                ".profile" => match parts.next().map(str::trim) {
                    Some("on") => {
                        session.set_profiling(true);
                        println!("profiling on");
                    }
                    Some("off") => {
                        session.set_profiling(false);
                        println!("profiling off");
                    }
                    _ => println!("usage: .profile on|off"),
                },
                ".trace" => match parts.next().map(str::trim) {
                    Some("on") => {
                        session.set_tracing(true);
                        println!("tracing on (Perfetto JSON written to results/ per statement)");
                    }
                    Some("off") => {
                        session.set_tracing(false);
                        println!("tracing off");
                    }
                    _ => println!("usage: .trace on|off"),
                },
                ".stats" => {
                    let stats = session.statlog().statements_snapshot();
                    if stats.is_empty() {
                        println!("(no statements recorded)");
                    }
                    for s in stats.iter().take(20) {
                        let fp: String = s.fingerprint.chars().take(48).collect();
                        println!(
                            "{:<48} calls={} err={} total={:.1}ms p95={:.1}ms max={:.1}ms \
                             rows={} spill={} algos={}",
                            fp,
                            s.calls,
                            s.errors,
                            s.total_ns as f64 / 1e6,
                            s.p95_ns as f64 / 1e6,
                            s.max_ns as f64 / 1e6,
                            s.rows_out,
                            s.spill_bytes,
                            s.algos,
                        );
                    }
                    if stats.len() > 20 {
                        println!("... ({} more fingerprints)", stats.len() - 20);
                    }
                }
                ".top" => match parts.next().map(str::trim) {
                    Some(arg) if !arg.is_empty() => {
                        let mut it = arg.split_whitespace();
                        let addr = it.next().unwrap();
                        let frames = it.next().and_then(|f| f.parse::<usize>().ok()).unwrap_or(1);
                        match addr.parse::<std::net::SocketAddr>() {
                            Ok(sock) => match joinstudy_sql::server::Client::connect(sock) {
                                Ok(mut client) => {
                                    for frame in 0..frames.max(1) {
                                        match joinstudy_bench::top::fetch(&mut client) {
                                            Ok(f) => {
                                                print!("{}", joinstudy_bench::top::render(&f, addr))
                                            }
                                            Err(e) => {
                                                println!("server went away: {e}");
                                                break;
                                            }
                                        }
                                        if frame + 1 < frames {
                                            std::thread::sleep(std::time::Duration::from_secs(1));
                                        }
                                    }
                                }
                                Err(e) => println!("cannot connect to {addr}: {e}"),
                            },
                            Err(e) => println!("bad address {addr:?}: {e}"),
                        }
                    }
                    _ => println!("usage: .top <host:port> [frames]"),
                },
                ".counters" => match parts.next().map(str::trim) {
                    Some("on") => {
                        session.set_counters(true);
                        if joinstudy_exec::pmu::probe() {
                            println!(
                                "hardware counters on (cycles/cache/TLB deltas in \
                                 EXPLAIN ANALYZE, profiles, and traces)"
                            );
                        } else {
                            println!(
                                "hardware counters on, but the PMU is unavailable here \
                                 (perf_event_paranoid {}); results are unaffected and \
                                 no counter data will appear",
                                joinstudy_exec::pmu::paranoid_level()
                                    .map(|l| l.to_string())
                                    .unwrap_or_else(|| "unknown".into())
                            );
                        }
                    }
                    Some("off") => {
                        session.set_counters(false);
                        println!("hardware counters off");
                    }
                    _ => println!("usage: .counters on|off"),
                },
                other => {
                    println!(
                        "unknown command {other:?} \
                         (.tables .algo .spill .explain .profile .trace .counters .timing \
                          .timeout .budget .stats .top .quit)"
                    )
                }
            }
            continue;
        }
        buffer.push_str(&line);
        // Execute once a statement terminator (or blank line) arrives.
        if !trimmed.ends_with(';') && !trimmed.is_empty() {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        if sql.trim().is_empty() {
            continue;
        }
        let start = Instant::now();
        match session.execute(&sql) {
            Ok(t) => {
                print_table(&t, 40);
                if let Some(profile) = session.take_profile() {
                    print!("{}", profile.render());
                }
                write_trace(&session, &mut trace_seq);
                if timing {
                    println!("time: {:.1} ms", start.elapsed().as_secs_f64() * 1e3);
                }
            }
            Err(e) => {
                println!("{e}");
                // The engine flushes whatever profiling data it gathered
                // before the failure; show it instead of dropping it.
                if let Some(profile) = session.take_profile() {
                    println!("-- partial profile --");
                    print!("{}", profile.render());
                }
                write_trace(&session, &mut trace_seq);
            }
        }
    }
}
