//! EXPLAIN ANALYZE showcase: run TPC-H Q3 under every join implementation
//! with the per-operator profiler enabled, print the annotated plan trees,
//! and export each [`QueryProfile`] as stable JSON under `results/`.
//!
//! This is the acceptance demo for the execution profiler: the BHJ tree
//! shows hash-table load factors and chain lengths, the RJ tree shows
//! partition histograms and skew, and the BRJ tree additionally reports
//! Bloom-filter selectivity.
//!
//! `cargo run --release -p joinstudy-bench --bin explain_analyze --
//!  [--sf 0.01] [--query 3] [--threads T] [--trace]`
//!
//! With `--trace`, each run additionally records a per-worker timeline and
//! exports it as Chrome/Perfetto `trace_event` JSON
//! (`results/q<id>_<algo>.trace.json`, loadable in ui.perfetto.dev).

use joinstudy_bench::harness::{banner, Args, ProfileLog};
use joinstudy_core::JoinAlgo;
use joinstudy_tpch::queries::{all_queries, QueryConfig};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args = Args::parse(&["sf", "query", "threads", "trace"]);
    let sf = args.f64("sf", 0.01);
    let query_id = args.usize("query", 3) as u32;
    let threads = args.threads();
    let with_trace = args.flag("trace");

    banner(
        "EXPLAIN ANALYZE: per-operator profiles across join implementations",
        &format!("TPC-H Q{query_id} at SF {sf}, {threads} threads"),
    );

    let data = joinstudy_tpch::generate(sf, 20260706);
    let query = all_queries()
        .into_iter()
        .find(|q| q.id == query_id)
        .unwrap_or_else(|| panic!("no TPC-H query with id {query_id}"));

    let engine = joinstudy_bench::workloads::engine(threads, false);
    engine.ctx.set_profiling(true);
    engine.ctx.set_tracing(with_trace);

    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let mut log = ProfileLog::create(&format!("q{query_id:02}"));

    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        let cfg = QueryConfig::new(algo);
        let result = (query.run)(&data, &cfg, &engine);
        let profile = engine
            .take_profile()
            .expect("profiling enabled but no profile recorded");

        println!(
            "\n=== Q{query_id} / {} ({} result rows) ===",
            algo.name(),
            result.num_rows()
        );
        print!("{}", profile.render());

        let json = profile.to_json();
        log.row(algo.name(), &json);
        let path = dir.join(format!(
            "q{query_id:02}_{}.json",
            algo.name().to_ascii_lowercase()
        ));
        let mut f = std::fs::File::create(&path).expect("create profile json");
        writeln!(f, "{json}").unwrap();
        println!("JSON: {}", path.display());

        if with_trace {
            let trace = engine
                .take_trace()
                .expect("tracing enabled but no trace recorded");
            let tpath = dir.join(format!(
                "q{query_id:02}_{}.trace.json",
                algo.name().to_ascii_lowercase()
            ));
            std::fs::write(&tpath, trace.to_chrome_json()).expect("write trace json");
            println!("trace: {} -> {}", trace.summary(), tpath.display());
        }
    }
    println!("\nJSONL: {}", log.path().display());
}
