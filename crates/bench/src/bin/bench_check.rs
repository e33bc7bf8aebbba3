//! Benchmark regression gate: run TPC-H Q3 under every join implementation
//! at a tiny pinned scale, record the engine's deterministic counters, and
//! compare them, exactly, against the committed `results/baseline.json`.
//!
//! ```text
//! cargo run --release -p joinstudy-bench --bin bench_check              # gate
//! cargo run --release -p joinstudy-bench --bin bench_check -- --trace   # + Perfetto JSON
//! ```
//!
//! Each of the four passes (BHJ, RJ, BRJ, and the hybrid join under a
//! 256 KiB budget) records its result rows, and from its query context its
//! degradations and its five spill counts (`spill.write_bytes`,
//! `.read_bytes`, `.partitions`, `.recursions`, `.bnl_fallbacks`), plus
//! every process-wide `mem.<phase>.{read,write}_bytes` counter (spill
//! included). On the pinned workload (SF 0.01, seed 20260706, 4 threads,
//! Q3) every one is a function of the code alone, so the gate fails on any
//! unequal value, missing or extra counter or changed workload, when the
//! hybrid pass spilled nothing, and when a pass's context spill bytes
//! differ from its `mem.spill.{write,read}_bytes`: the two accountings of
//! the same bytes must agree. Wall time, hardware
//! counters and the SIMD path are host properties, measured by the
//! yardstick under `benchmark/` and by `repro fig07` and `fig10 --hw`.
//!
//! Every run writes `results/bench_current.json` in the baseline's format:
//! rebaselining an intended change is copying it over the baseline.
//! `--trace` also exports one Perfetto file per pass, `results/q03_<algo>.trace.json`.

use joinstudy_bench::harness::{banner, Args};
use joinstudy_bench::regress::{compare, Run};
use joinstudy_bench::workloads::engine;
use joinstudy_core::JoinAlgo;
use joinstudy_exec::metrics;
use joinstudy_exec::registry;
use joinstudy_tpch::queries::{query, QueryConfig};
use std::path::Path;
use std::time::Instant;

const SF: f64 = 0.01;
const SEED: u64 = 20260706;
const THREADS: usize = 4;
const QUERY_ID: u32 = 3;
/// Memory budget for the hybrid-join pass: far below Q3's working set at
/// SF 0.01, so the run only completes by spilling partitions to disk.
const SPILL_BUDGET: usize = 256 * 1024;

fn main() {
    let with_trace = Args::parse(&["trace"]).flag("trace");
    banner(
        "bench_check: metrics regression gate",
        &format!("TPC-H Q{QUERY_ID} at SF {SF}, {THREADS} threads, seed {SEED}"),
    );
    let data = joinstudy_tpch::generate(SF, SEED);
    let query = query(QUERY_ID);
    let engine = engine(THREADS, false);
    engine.ctx.set_tracing(with_trace);
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");

    let workload = [
        ("sf", SF),
        ("threads", THREADS as f64),
        ("query", QUERY_ID as f64),
        ("seed", SEED as f64),
        ("spill_budget", SPILL_BUDGET as f64),
    ];
    let mut current = Run {
        workload: workload.map(|(k, v)| (k.to_string(), v)).into(),
        ..Run::default()
    };
    let reg = registry::global();
    metrics::set_enabled(true);
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj, JoinAlgo::Hybrid] {
        metrics::reset_all();
        let tag = algo.name().to_ascii_lowercase();
        let hybrid = algo == JoinAlgo::Hybrid;
        engine.ctx.set_memory_budget(hybrid.then_some(SPILL_BUDGET));
        let t0 = Instant::now();
        let result = (query.run)(&data, &QueryConfig::new(algo), &engine);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut gate = |name: &str, value: f64| {
            current
                .metrics
                .insert(format!("q{QUERY_ID:02}.{tag}.{name}"), value)
        };
        gate("rows", result.num_rows() as f64);
        gate("degradations", engine.ctx.degradations() as f64);
        for (name, value) in reg.snapshot() {
            if name.starts_with("mem.") && name.ends_with("_bytes") {
                gate(&name, value);
            }
        }
        let ctx = &engine.ctx;
        let (written, read) = (ctx.spill_write_bytes(), ctx.spill_read_bytes());
        let spill = [
            ("spill.write_bytes", written),
            ("spill.read_bytes", read),
            ("spill.partitions", ctx.spill_partitions()),
            ("spill.recursions", ctx.spill_recursions()),
            ("spill.bnl_fallbacks", ctx.spill_bnl_fallbacks()),
        ];
        for (name, value) in spill {
            gate(name, value as f64);
        }
        if hybrid && written == 0 {
            eprintln!("FAIL: the {SPILL_BUDGET} B hybrid pass completed without spilling");
            std::process::exit(1);
        }
        let mem = |name: &str| reg.counter(&format!("mem.spill.{name}_bytes")).get();
        if (written, read) != (mem("write"), mem("read")) {
            eprintln!(
                "FAIL: {tag}: the context spilled {written} B written / {read} B read, \
                 mem.spill counted {} / {}",
                mem("write"),
                mem("read")
            );
            std::process::exit(1);
        }

        if with_trace {
            let trace = engine
                .take_trace()
                .expect("tracing enabled but no trace recorded");
            let path = dir.join(format!("q{QUERY_ID:02}_{tag}.trace.json"));
            std::fs::write(&path, trace.to_chrome_json()).expect("write trace json");
            println!("{}: {} -> {}", tag, trace.summary(), path.display());
        }
        println!("{tag}: {} rows in {wall_ms:.1} ms", result.num_rows());
    }
    metrics::set_enabled(false);

    let current_path = dir.join("bench_current.json");
    std::fs::write(&current_path, current.to_json()).expect("write current metrics json");
    println!("current metrics: {}", current_path.display());

    let baseline_path = dir.join("baseline.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Run::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("cannot read the baseline {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
    let failures = compare(&baseline, &current);
    if failures.is_empty() {
        println!(
            "PASS: all {} counters equal the baseline",
            baseline.metrics.len()
        );
    } else {
        for failure in &failures {
            eprintln!("  FAIL: {failure}");
        }
        eprintln!(
            "FAIL: {} difference(s); after an intended change, copy {} over {}",
            failures.len(),
            current_path.display(),
            baseline_path.display()
        );
        std::process::exit(1);
    }
}
