//! `top` for a running joinstudy SQL server.
//!
//! ```text
//! cargo run --release -p joinstudy-bench --bin joinstudy_top -- \
//!     --addr 127.0.0.1:4444 [--frames 0] [--interval-ms 1000] [--once]
//! ```
//!
//! Connects as an ordinary line-protocol client and redraws one dashboard
//! frame per interval: pool/admission gauges, the ASH wait-state
//! breakdown over the last 5 seconds, active queries, live per-operator
//! pipeline progress, and sparklines over the 1-second time-series ring.
//! Every number comes from `SELECT ... FROM jsys.*` — the dashboard has
//! no privileged channel into the server. `--frames 0` (default) runs
//! until the server goes away or ctrl-C; `--once` prints a single frame
//! without clearing the screen (the mode CI and the README capture use).

use joinstudy_bench::harness::Args;
use joinstudy_bench::top;
use joinstudy_sql::server::Client;
use std::time::Duration;

fn main() {
    let args = Args::parse(&["addr", "once", "frames", "interval-ms"]);
    let addr = args.str("addr", "127.0.0.1:4444");
    let once = args.flag("once");
    let frames = args.usize("frames", if once { 1 } else { 0 });
    let interval = Duration::from_millis(args.usize("interval-ms", 1000) as u64);

    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .unwrap_or_else(|e| panic!("bad --addr {addr:?}: {e}"));
    let mut client = match Client::connect(sock_addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("joinstudy_top: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let mut n = 0usize;
    loop {
        let frame = match top::fetch(&mut client) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("joinstudy_top: server went away: {e}");
                std::process::exit(1);
            }
        };
        let text = top::render(&frame, &addr);
        if once || frames == 1 {
            print!("{text}");
        } else {
            // Clear screen + home, like top(1).
            print!("\x1b[2J\x1b[H{text}");
        }
        use std::io::Write;
        std::io::stdout().flush().ok();
        n += 1;
        if frames > 0 && n >= frames {
            break;
        }
        std::thread::sleep(interval);
    }
}
