//! Line-protocol SQL server over generated TPC-H data.
//!
//! ```text
//! cargo run --release -p joinstudy-bench --bin joinstudy_serve -- \
//!     [--sf 0.05] [--port 5433] [--threads N] \
//!     [--pool-mb 256] [--query-mb 64] [--min-grant-mb 8]
//! ```
//!
//! One TCP connection is one SQL session; all connections share one
//! worker pool (`--threads` workers interleaving morsels across queries)
//! and one admission memory pool (`--pool-mb`; each query asks for
//! `--query-mb` and may be granted less under pressure, degrading its
//! joins RJ → BHJ → spilling HHJ — never failing for lack of memory while
//! at least `--min-grant-mb` is available).
//!
//! Protocol: one statement per line, response framed `OK <rows> <cols>` /
//! `ERR <msg>` + tab-separated rows + a lone `.` line; `.quit` closes.
//! Try it with `nc localhost 5433`.

use joinstudy_bench::harness::Args;
use joinstudy_sql::{ServerConfig, SqlServer};
use std::net::TcpListener;
use std::sync::Arc;

const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
];

fn main() {
    let args = Args::parse(&[
        "sf",
        "port",
        "threads",
        "pool-mb",
        "query-mb",
        "min-grant-mb",
    ]);
    let sf = args.f64("sf", 0.05);
    let port = args.usize("port", 5433);
    let config = ServerConfig {
        threads: args.threads(),
        pool_bytes: args.usize("pool-mb", 256) << 20,
        query_bytes: args.usize("query-mb", 64) << 20,
        min_grant_bytes: args.usize("min-grant-mb", 8) << 20,
        ..ServerConfig::default()
    };

    eprintln!("generating TPC-H SF {sf} ...");
    let data = joinstudy_tpch::generate(sf, 42);
    let mut server = SqlServer::new(config.clone());
    for name in TABLES {
        server.register(name, Arc::clone(data.table(name)));
    }

    let listener = match TcpListener::bind(("0.0.0.0", port as u16)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind port {port}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "serving on port {port} — {} workers shared across connections, \
         admission pool {} MiB ({} MiB/query desired, {} MiB floor). \
         One statement per line; '.quit' to close a session.",
        config.threads,
        config.pool_bytes >> 20,
        config.query_bytes >> 20,
        config.min_grant_bytes >> 20,
    );
    if let Err(e) = Arc::new(server).serve(listener) {
        eprintln!("accept loop failed: {e}");
        std::process::exit(1);
    }
}
