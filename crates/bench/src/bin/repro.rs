//! `repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! repro list                         the 24 rows, their titles and flags
//! repro fig14 --build 65536          one row, text to stdout
//! repro fig14 fig15 --reps 5         several rows; a flag goes to every row that declares it
//! repro all [--reps 2 --sf 0.1 ...]  every row, text to results/logs/<row>.txt
//! ```
//!
//! CSV and JSON artifacts land in `results/`. A flag none of the chosen rows
//! declares is an error (exit 2) that prints those rows' flags and defaults;
//! exit 1 when a row failed.

use joinstudy_bench::figures::{select, Host, Params, FIGURES};
use joinstudy_bench::report::Report;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["list"] {
        for figure in FIGURES {
            println!("{}", figure.usage());
        }
        return;
    }
    let (rows, args) = select(&argv).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2);
    });
    let to_logs = args.words == ["all"];
    if to_logs {
        std::fs::create_dir_all("results/logs").expect("create results/logs");
    }
    let host = Host::detect();
    let mut failed = Vec::new();
    for figure in rows {
        let out: Box<dyn Write> = if to_logs {
            let path = format!("results/logs/{}.txt", figure.name);
            Box::new(std::fs::File::create(path).expect("create row log"))
        } else {
            Box::new(std::io::stdout())
        };
        let mut report = Report::new(out, ".");
        let params = Params::new(&args, figure, host);
        let started = Instant::now();
        // A row fails by panicking (a lost tuple, an engine error); the
        // remaining rows still run.
        let ok = catch_unwind(AssertUnwindSafe(|| (figure.run)(&mut report, &params))).is_ok();
        if to_logs {
            let verdict = if ok { "ok" } else { "FAILED" };
            println!(
                "{:<10} {verdict} ({:.1} s)",
                figure.name,
                started.elapsed().as_secs_f64()
            );
        }
        if !ok {
            failed.push(figure.name);
        }
    }
    if !failed.is_empty() {
        eprintln!("failed rows: {}", failed.join(" "));
        std::process::exit(1);
    }
}
