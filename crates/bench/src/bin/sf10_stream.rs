//! "SF 10 on a laptop" — stream `orders ⋈ lineitem` through the out-of-core
//! hybrid hash join under a tight memory budget, without ever materializing
//! the base tables.
//!
//! The streaming TPC-H generator ([`joinstudy_tpch::StreamGen`]) produces
//! rows chunk-by-chunk from per-unit RNG streams, so generation memory is
//! bounded by one chunk per worker regardless of scale factor; the hybrid
//! hash join keeps what fits in the budget and spills the rest. Together
//! they join ~60 M lineitem rows against 15 M orders at SF 10 inside a
//! 256 MiB budget — the configuration CI's `sf10` smoke leg runs.
//!
//! Emits the EXPLAIN ANALYZE artifact (`results/sf10_stream.explain.txt`)
//! and a JSON summary (`results/sf10_stream.json`) with row counts, peak
//! memory, spill traffic, and the active SIMD path.
//!
//! `cargo run --release -p joinstudy-bench --bin sf10_stream --
//!  [--sf S] [--budget-mib M] [--threads T] [--seed N] [--verify]`
//!
//! `--verify` re-runs the same join from fully materialized tables through
//! the regular scan path and asserts identical aggregates (feasible at the
//! small scale factors the local test uses, not at SF 10).

use joinstudy_bench::harness::{banner, fmt_bytes, Args};
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::ops::aggregate::{AggFunc, AggSpec};
use joinstudy_storage::types::Value;
use joinstudy_tpch::{dbgen, StreamGen, StreamScan, TpchTable};
use std::sync::Arc;
use std::time::Instant;

/// Build `orders ⋈ lineitem → (count(*), sum(l_extendedprice))` over
/// streaming leaves. Orders is the build side (the smaller input).
fn stream_plan(gen: &Arc<StreamGen>) -> Plan {
    let orders = StreamScan::by_names(Arc::clone(gen), TpchTable::Orders, &["o_orderkey"]);
    let lineitem = StreamScan::by_names(
        Arc::clone(gen),
        TpchTable::Lineitem,
        &["l_orderkey", "l_extendedprice"],
    );
    let (schema, est, label) = (orders.output_schema(), orders.est_rows(), orders.label());
    let build = Plan::stream_source(Arc::new(orders), schema, est, label);
    let (schema, est, label) = (
        lineitem.output_schema(),
        lineitem.est_rows(),
        lineitem.label(),
    );
    let probe = Plan::stream_source(Arc::new(lineitem), schema, est, label);
    aggregate_join(build, probe)
}

/// Same plan shape over materialized tables (the `--verify` reference).
fn materialized_plan(data: &dbgen::TpchData) -> Plan {
    let build = Plan::scan(data.table("orders"), &["o_orderkey"], None);
    let probe = Plan::scan(
        data.table("lineitem"),
        &["l_orderkey", "l_extendedprice"],
        None,
    );
    aggregate_join(build, probe)
}

fn aggregate_join(build: Plan, probe: Plan) -> Plan {
    let joined = build.join(probe, JoinAlgo::Hybrid, JoinType::Inner, &[0], &[0]);
    let price = joined.schema().index_of("l_extendedprice");
    joined.aggregate(
        &[],
        vec![
            AggSpec::new(AggFunc::CountStar, 0, "cnt"),
            AggSpec::new(AggFunc::Sum, price, "revenue"),
        ],
    )
}

fn main() {
    let args = Args::parse(&["sf", "budget-mib", "threads", "seed", "verify"]);
    let sf = args.f64("sf", 1.0);
    let budget_mib = args.usize("budget-mib", 256);
    let threads = args.threads();
    let seed = args.usize("seed", 42) as u64;

    banner(
        "SF 10 on a laptop: streaming orders ⋈ lineitem, out-of-core HHJ",
        &format!(
            "sf={sf} budget={budget_mib} MiB threads={threads} seed={seed} simd={}",
            joinstudy_core::simd::active().name()
        ),
    );

    let gen = Arc::new(StreamGen::new(sf, seed));
    println!(
        "streaming ~{:.0} orders + ~{:.0} lineitem rows (never materialized)",
        gen.est_rows(TpchTable::Orders),
        gen.est_rows(TpchTable::Lineitem),
    );

    let engine = Engine::new(threads);
    engine.ctx.set_memory_budget(Some(budget_mib << 20));
    engine.ctx.set_profiling(true);

    let plan = stream_plan(&gen);
    let t0 = Instant::now();
    let result = engine.execute(&plan).expect("streaming join failed");
    let wall = t0.elapsed();
    let profile = engine.take_profile().expect("profiling was enabled");

    let cnt = match result.column_by_name("cnt").value(0) {
        Value::Int64(v) => v,
        other => panic!("unexpected count value {other:?}"),
    };
    let revenue = result.column_by_name("revenue").value(0);
    println!(
        "joined {cnt} rows in {:.2}s — peak_mem={} spill={} simd={}",
        wall.as_secs_f64(),
        fmt_bytes(profile.peak_bytes),
        fmt_bytes(profile.spill_bytes as usize),
        profile.simd,
    );
    assert!(cnt > 0, "join produced no rows");
    assert!(
        profile.peak_bytes <= budget_mib << 20,
        "peak memory {} exceeded the {budget_mib} MiB budget",
        fmt_bytes(profile.peak_bytes)
    );

    let explain = profile.render();
    print!("{explain}");
    let dir = std::path::PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("sf10_stream.explain.txt"), &explain).expect("write explain artifact");
    std::fs::write(
        dir.join("sf10_stream.json"),
        format!(
            "{{\"sf\":{sf},\"budget_mib\":{budget_mib},\"threads\":{threads},\
             \"rows\":{cnt},\"revenue\":\"{revenue:?}\",\"wall_s\":{:.3},\
             \"peak_bytes\":{},\"spill_bytes\":{},\"simd\":\"{}\",\
             \"profile\":{}}}\n",
            wall.as_secs_f64(),
            profile.peak_bytes,
            profile.spill_bytes,
            profile.simd,
            profile.to_json(),
        ),
    )
    .expect("write json artifact");
    println!("artifacts: results/sf10_stream.explain.txt, results/sf10_stream.json");

    if args.flag("verify") {
        println!("--verify: re-running from materialized tables through the scan path");
        let data = dbgen::generate(sf, seed);
        let reference = engine
            .execute(&materialized_plan(&data))
            .expect("materialized join failed");
        let ref_cnt = reference.column_by_name("cnt").value(0);
        let ref_revenue = reference.column_by_name("revenue").value(0);
        assert_eq!(Value::Int64(cnt), ref_cnt, "row counts diverge");
        assert_eq!(revenue, ref_revenue, "revenue sums diverge");
        println!("verify PASS: streamed and materialized aggregates match");
    }
}
