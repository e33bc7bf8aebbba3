//! Benchmark regression gate: run TPC-H Q3 under every join implementation
//! at a tiny fixed scale factor, snapshot the metrics registry, and compare
//! against the committed `results/baseline.json`.
//!
//! ```text
//! cargo run --release -p joinstudy-bench --bin bench_check              # gate
//! cargo run --release -p joinstudy-bench --bin bench_check -- --write-baseline
//! cargo run --release -p joinstudy-bench --bin bench_check -- --trace   # + Perfetto JSON
//! ```
//!
//! The gate exits nonzero when any gated metric (result-row counts,
//! memory-traffic byte counters, degradation counts) drifts outside its
//! tolerance, when a baseline metric disappears, or when the workload
//! parameters don't match the baseline's. Wall-clock entries are recorded
//! informational (`tol: null`) because CI machines vary. The `hhj` pass
//! re-runs Q3 through the out-of-core hybrid hash join under a deliberately
//! tiny memory budget: its row count is gated exactly, its `spill.*`
//! counters ride along informationally, and the run hard-fails if nothing
//! spilled (a budget that small must hit disk). The current run's
//! metrics are always written to `results/bench_current.json` so a failed
//! gate can be diffed; `--trace` additionally exports one Chrome/Perfetto
//! `trace_event` file per algorithm (`results/q03_<algo>.trace.json`).
//!
//! The workload is pinned (SF 0.01, seed 20260706, 4 threads, Q3) so byte
//! counters — recorded at rows x stride granularity — are deterministic
//! and can be gated at an exact-match tolerance.

use joinstudy_bench::harness::{banner, Args};
use joinstudy_bench::regress::{compare, Baseline, BaselineEntry};
use joinstudy_core::JoinAlgo;
use joinstudy_exec::metrics::MemPhase;
use joinstudy_exec::pmu::{self, CounterKind};
use joinstudy_exec::{metrics, registry};
use joinstudy_tpch::queries::{all_queries, QueryConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const SF: f64 = 0.01;
const SEED: u64 = 20260706;
const THREADS: usize = 4;
const QUERY_ID: u32 = 3;
/// Memory budget for the hybrid-join pass: far below Q3's working set at
/// SF 0.01, so the run only completes by spilling partitions to disk.
const SPILL_BUDGET: usize = 256 * 1024;
/// Gated byte counters get a little slack: morsel boundaries can shift
/// with scheduling, moving a few rows between phase attributions.
const BYTES_TOL: f64 = 0.02;

fn main() {
    let args = Args::parse(&["write-baseline", "trace"]);
    let write_baseline = args.flag("write-baseline");
    let with_trace = args.flag("trace");
    let baseline_path = PathBuf::from("results/baseline.json");

    banner(
        "bench_check: metrics regression gate",
        &format!("TPC-H Q{QUERY_ID} at SF {SF}, {THREADS} threads, seed {SEED}"),
    );

    let data = joinstudy_tpch::generate(SF, SEED);
    let query = all_queries()
        .into_iter()
        .find(|q| q.id == QUERY_ID)
        .expect("Q3 is registered");
    let engine = joinstudy_bench::workloads::engine(THREADS, false);
    engine.ctx.set_tracing(with_trace);
    // Hardware counters ride along informationally: where the PMU is
    // unavailable every pmu.* metric reads 0 and the gate is unaffected
    // (they are recorded with `tol: null`).
    engine.ctx.set_counters(true);
    pmu::set_enabled(true);

    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");

    let mut current: BTreeMap<String, f64> = BTreeMap::new();
    let mut informational: Vec<String> = Vec::new();
    metrics::set_enabled(true);

    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj, JoinAlgo::Hybrid] {
        metrics::reset_all();
        let tag = algo.name().to_ascii_lowercase();
        let cfg = QueryConfig::new(algo);
        // The hybrid pass runs under a tiny budget so it exercises the
        // out-of-core path; the in-memory algorithms stay unbounded.
        engine.ctx.set_memory_budget(if algo == JoinAlgo::Hybrid {
            Some(SPILL_BUDGET)
        } else {
            None
        });

        let t0 = Instant::now();
        let result = (query.run)(&data, &cfg, &engine);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Flush the control thread's tail counter delta into a phase so
        // per-algo pmu totals are complete before the snapshot.
        metrics::mark_phase(MemPhase::Other);

        let prefix = format!("q{QUERY_ID:02}.{tag}");
        current.insert(format!("{prefix}.rows"), result.num_rows() as f64);
        current.insert(format!("{prefix}.wall_ms"), wall_ms);
        informational.push(format!("{prefix}.wall_ms"));
        // Hardware-counter totals, emitted *unconditionally* (0 where the
        // PMU is unavailable): a baseline metric missing from a run is a
        // gate failure, so these must exist on every host.
        for kind in [
            CounterKind::Cycles,
            CounterKind::LlcMisses,
            CounterKind::DtlbMisses,
        ] {
            let total: u64 = MemPhase::ALL
                .iter()
                .map(|p| {
                    registry::global()
                        .counter(&format!("pmu.{}.{}", p.slug(), kind.slug()))
                        .get()
                })
                .sum();
            let name = format!("{prefix}.pmu.{}", kind.slug());
            current.insert(name.clone(), total as f64);
            informational.push(name);
        }
        let samples = format!("{prefix}.pmu.worker_samples");
        current.insert(
            samples.clone(),
            registry::global().counter("pmu.worker_samples").get() as f64,
        );
        informational.push(samples);
        for (name, value) in registry::global().snapshot() {
            // Byte counters and degradations are gate-worthy; scheduler
            // histograms only populate on the traced path and stay out of
            // the baseline so `--trace` doesn't change the gate.
            if name.starts_with("mem.") && name.ends_with("_bytes") {
                let full = format!("{prefix}.{name}");
                // Spill-phase traffic is informational like the raw spill.*
                // counters: how much hits disk depends on eviction order.
                if name.starts_with("mem.spill.") {
                    informational.push(full.clone());
                }
                current.insert(full, value);
            } else if name == "exec.degradations" {
                current.insert(format!("{prefix}.degradations"), value);
            } else if name.starts_with("simd.") {
                // Which kernel path ran is a host property (AVX2 presence,
                // `JOINSTUDY_NO_SIMD`), so the per-path row counts ride
                // along informationally rather than gating.
                let full = format!("{prefix}.{name}");
                informational.push(full.clone());
                current.insert(full, value);
            }
        }
        // Spill counters, emitted *unconditionally* (0 for the in-memory
        // algorithms) so the baseline keys exist on every run. They stay
        // informational: spill volume shifts with eviction order, which
        // depends on morsel scheduling.
        for spill_name in [
            "spill.write_bytes",
            "spill.read_bytes",
            "spill.partitions",
            "spill.recursions",
            "spill.bnl_fallbacks",
        ] {
            let name = format!("{prefix}.{spill_name}");
            current.insert(
                name.clone(),
                registry::global().counter(spill_name).get() as f64,
            );
            informational.push(name);
        }
        if algo == JoinAlgo::Hybrid && registry::global().counter("spill.write_bytes").get() == 0 {
            eprintln!("FAIL: the {SPILL_BUDGET} B hybrid pass completed without spilling");
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
        println!(
            "{tag}: {} rows in {wall_ms:.1} ms",
            result.num_rows() as u64
        );
    }
    metrics::set_enabled(false);
    pmu::set_enabled(false);

    let workload: BTreeMap<String, f64> = [
        ("sf".to_string(), SF),
        ("threads".to_string(), THREADS as f64),
        ("query".to_string(), QUERY_ID as f64),
        ("seed".to_string(), SEED as f64),
        ("spill_budget".to_string(), SPILL_BUDGET as f64),
    ]
    .into();

    let current_path = dir.join("bench_current.json");
    std::fs::write(
        &current_path,
        joinstudy_bench::regress::metrics_json(&workload, &current),
    )
    .expect("write current metrics json");
    println!("current metrics: {}", current_path.display());

    if write_baseline {
        let metrics = current
            .iter()
            .map(|(name, &value)| {
                let tol = if informational.contains(name) {
                    None
                } else if name.ends_with("_bytes") {
                    Some(BYTES_TOL)
                } else {
                    Some(0.0)
                };
                (name.clone(), BaselineEntry { value, tol })
            })
            .collect();
        let baseline = Baseline { workload, metrics };
        std::fs::write(&baseline_path, baseline.render()).expect("write baseline");
        println!("baseline written: {}", baseline_path.display());
        return;
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!(
            "cannot read {} ({e}); run with --write-baseline first",
            baseline_path.display()
        );
        std::process::exit(2);
    });
    let baseline = Baseline::parse(&text).unwrap_or_else(|e| {
        eprintln!("bad baseline {}: {e}", baseline_path.display());
        std::process::exit(2);
    });

    let report = compare(&baseline, &workload, &current);
    for note in &report.notes {
        println!("  note: {note}");
    }
    if report.passed() {
        println!(
            "PASS: {} gated metrics within tolerance",
            baseline.metrics.len()
        );
    } else {
        for failure in &report.failures {
            eprintln!("  FAIL: {failure}");
        }
        eprintln!("FAIL: {} regression(s)", report.failures.len());
        std::process::exit(1);
    }
}
