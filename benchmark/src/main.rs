//! Command line of the benchmark.
//!
//! ```text
//! joinstudy-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                     [--record <file>]
//! joinstudy-benchmark compare <set A> <set B>
//! joinstudy-benchmark pin             # the content of expected.json
//! ```

use joinstudy_benchmark::json::Json;
use joinstudy_benchmark::manifest::manifest;
use joinstudy_benchmark::run::{run, RunConfig, PINNED_SEED};
use joinstudy_benchmark::{compare, host, workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Span files, recorded result sets and spill files, relative to the
/// directory the benchmark is started from (the root of a checkout).
const OUT_DIR: &str = "benchmark/out";

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let workload: String =
        flag(args, "--workload")?.ok_or("--workload is required (see BENCHMARK.json)")?;
    let cfg = RunConfig {
        workload,
        seed: flag(args, "--seed")?.unwrap_or(PINNED_SEED),
        seconds: flag(args, "--seconds")?.unwrap_or(manifest().run_seconds),
        trace: flag::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        scale: 1.0,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let outcome = run(&cfg)?;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "# {}", outcome.header.render()).map_err(io)?;
    for (name, value) in &outcome.metrics {
        let unit = manifest().unit_of(name).unwrap_or("");
        writeln!(out, "{name:<44} {value:>16.6} {unit}").map_err(io)?;
    }
    writeln!(
        out,
        "{:<44} {:>16.6} ratio ({} of {} operations)",
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    )
    .map_err(io)?;
    for w in &outcome.warnings {
        writeln!(out, "# WARNING: {w}").map_err(io)?;
    }
    let line = outcome.result_line();
    if let Some(path) = flag::<String>(args, "--record")? {
        let record = Json::obj(vec![
            ("workload", Json::Str(cfg.workload.clone())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("trace", Json::Bool(cfg.trace)),
            ("header", outcome.header.clone()),
            (
                "result",
                joinstudy_benchmark::json::parse(&line).expect("the result line is valid JSON"),
            ),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", record.render()).map_err(io)?;
    }
    writeln!(out, "{line}").map_err(io)?;
    Ok(ExitCode::SUCCESS)
}

fn pin_command() -> Result<ExitCode, String> {
    let mut fields = Vec::new();
    for name in &manifest().workloads {
        let mut wl = workload::setup(name, PINNED_SEED, 1.0, host::threads())?;
        fields.push((name.clone(), wl.pinned()));
    }
    // One workload per line keeps diffs of the pinned file readable.
    println!("{{");
    for (i, (name, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        println!(
            "  {}: {}{comma}",
            Json::Str(name.clone()).render(),
            value.render()
        );
    }
    println!("}}");
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare <result set A> <result set B>".into());
    };
    let (text, regressions) = compare::report(&compare::load(a)?, &compare::load(b)?);
    println!("A = {a}\nB = {b}{text}");
    println!("{regressions} metric(s) worse than their bound");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("pin") => pin_command(),
        _ => run_command(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("joinstudy-benchmark: {e}");
        ExitCode::FAILURE
    })
}
