//! Table 4, asked at plan time — does the adaptive planner answer the join
//! question the way the measurements do?
//!
//! Two experiments, one JSON artifact (`results/table4_adaptive.json`):
//!
//! 1. **Synthetic regime boundary.** Sweep the build-side hash-table size
//!    across the LLC boundary (fixed probe ratio), measure BHJ/RJ/BRJ, and
//!    overlay the cost model's *predicted* regime boundary (the smallest
//!    hash table for which it answers "partition") on the *measured*
//!    crossover (where the best radix variant first beats the BHJ).
//! 2. **TPC-H regret.** At SF 0.1 run every join-bearing query under the
//!    three static configs and under `JoinAlgo::Adaptive` (reps interleaved
//!    round-robin, per-config minimum kept); report the adaptive regret
//!    against the best static config per query and the share of per-join
//!    decisions that answered "do not partition" (the paper's Table 4:
//!    58 of 59 joins).
//!
//! `--check` turns the acceptance thresholds into assertions (exit 1):
//! regret ≤ 1.10 on every query with at least one swappable join (with a
//! small absolute floor for sub-ms noise) and a BHJ-pick share ≥ 55/59.
//!
//! `cargo run --release -p joinstudy-bench --bin table4_adaptive --
//!  [--sf 0.1] [--threads T] [--reps R] [--queries 2,3] [--check]`

use joinstudy_bench::harness::{banner, fmt_bytes, measure, Args};
use joinstudy_bench::workloads::{count_plan, engine, tables, ProbeKeys};
use joinstudy_core::cost::{detect_llc_bytes, CostModel, JoinEstimate};
use joinstudy_core::JoinAlgo;
use joinstudy_exec::registry::{self, json_string};
use joinstudy_tpch::queries::{all_queries, QueryConfig};
use joinstudy_tpch::{generate, TpchData};
use std::fmt::Write as _;

/// Probe:build ratio for the synthetic sweep (a mid-range FK fan-out).
const SWEEP_PROBE_RATIO: usize = 4;
/// Hash-table bytes per 8 B build key in the model (key + bucket overhead).
const HT_ROW_BYTES: f64 = 8.0 + joinstudy_core::cost::HT_OVERHEAD_BYTES;
/// Sub-millisecond queries drown a 10% regret bound in timer noise; treat
/// anything within this absolute gap of the best static config as on-par.
const REGRET_FLOOR_MS: f64 = 2.0;

struct SweepPoint {
    ht_bytes: f64,
    build_rows: usize,
    bhj_ms: f64,
    rj_ms: f64,
    brj_ms: f64,
    predicted: JoinAlgo,
}

struct QueryRow {
    id: u32,
    main_joins: usize,
    bhj_ms: f64,
    rj_ms: f64,
    brj_ms: f64,
    adaptive_ms: f64,
    best_static: JoinAlgo,
    regret: f64,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Smallest hash-table size (bytes) for which `model` answers "partition",
/// on the sweep's workload shape. Scans a fine geometric grid so the
/// boundary is located independently of the coarse measured points.
fn predicted_boundary(model: &CostModel, lo: f64, hi: f64) -> Option<f64> {
    let mut h = lo;
    while h <= hi {
        let build_rows = (h / HT_ROW_BYTES).max(1.0);
        let mut est = JoinEstimate::new(build_rows, build_rows * SWEEP_PROBE_RATIO as f64);
        est.build_width = 8.0;
        est.probe_width = 8.0;
        let d = model.decide(&est);
        if d.algo != JoinAlgo::Bhj {
            return Some(h);
        }
        h *= 1.05;
    }
    None
}

/// First measured point where the best radix variant beats the BHJ,
/// interpolated geometrically against the previous point.
fn measured_crossover(points: &[SweepPoint]) -> Option<f64> {
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let gap_a = a.bhj_ms - a.rj_ms.min(a.brj_ms);
        let gap_b = b.bhj_ms - b.rj_ms.min(b.brj_ms);
        if gap_a < 0.0 && gap_b >= 0.0 {
            let t = -gap_a / (gap_b - gap_a);
            return Some(a.ht_bytes * (b.ht_bytes / a.ht_bytes).powf(t));
        }
    }
    points
        .first()
        .filter(|p| p.bhj_ms >= p.rj_ms.min(p.brj_ms))
        .map(|p| p.ht_bytes)
}

fn main() {
    let args = Args::parse(&["sf", "threads", "reps", "check", "queries"]);
    let sf = args.f64("sf", 0.1);
    let threads = args.threads();
    let reps = args.reps();
    let check = args.flag("check");
    let query_filter: Option<Vec<u32>> = {
        let raw = args.str("queries", "");
        (!raw.is_empty()).then(|| {
            raw.split(',')
                .map(|s| s.trim().parse().expect("query id"))
                .collect()
        })
    };

    let model = CostModel::global();
    let cal_source = model.calibration().source.clone();
    banner(
        "Table 4, adaptive: predicted regime boundary vs measured crossover",
        &format!(
            "SF {sf}, {threads} threads, {reps} reps (sweep: median; TPC-H: \
             interleaved min); calibration source \"{cal_source}\", model LLC {}",
            fmt_bytes(model.calibration().llc_bytes as usize)
        ),
    );

    let e = engine(threads, false);

    // --- 1. Synthetic sweep across the LLC boundary -----------------------
    // Virtualized hosts report absurd LLC sizes; clamp like table4_synthesis
    // so the sweep stays tractable on one core.
    let sweep_llc = detect_llc_bytes().min(16 * 1024 * 1024) as f64;
    println!("\nSynthetic build-size sweep (probe = {SWEEP_PROBE_RATIO}x build):");
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10}   {:<9} predicted",
        "ht", "build rows", "BHJ[ms]", "RJ[ms]", "BRJ[ms]", "measured"
    );
    let mut points = Vec::new();
    for factor in [0.125f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let ht_bytes = sweep_llc * factor;
        let n = ((ht_bytes / HT_ROW_BYTES) as usize).max(1024);
        let m = tables(
            n,
            SWEEP_PROBE_RATIO * n,
            joinstudy_storage::types::DataType::Int64,
            0,
            ProbeKeys::UniformFk,
            400,
        );
        let mut t = [0.0f64; 3];
        for (i, algo) in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj]
            .iter()
            .enumerate()
        {
            let plan = count_plan(&m, *algo);
            let _ = e.run(&plan); // warm-up
            let (d, _) = measure(reps, || e.run(&plan));
            t[i] = ms(d);
        }
        let mut est = JoinEstimate::new(n as f64, (SWEEP_PROBE_RATIO * n) as f64);
        est.build_width = 8.0;
        est.probe_width = 8.0;
        let predicted = model.decide(&est).algo;
        let measured_best = if t[0] <= t[1].min(t[2]) {
            JoinAlgo::Bhj
        } else if t[1] <= t[2] {
            JoinAlgo::Rj
        } else {
            JoinAlgo::Brj
        };
        println!(
            "{:>10} {:>12} {:>10.1} {:>10.1} {:>10.1}   {:<9} {}",
            fmt_bytes(ht_bytes as usize),
            n,
            t[0],
            t[1],
            t[2],
            measured_best.name(),
            predicted.name()
        );
        points.push(SweepPoint {
            ht_bytes,
            build_rows: n,
            bhj_ms: t[0],
            rj_ms: t[1],
            brj_ms: t[2],
            predicted,
        });
    }
    let boundary = predicted_boundary(&model, sweep_llc * 0.05, sweep_llc * 64.0);
    let crossover = measured_crossover(&points);
    let fmt_opt = |v: Option<f64>| {
        v.map(|b| fmt_bytes(b as usize))
            .unwrap_or_else(|| "none in range".into())
    };
    println!(
        "predicted regime boundary: ht ≈ {}   measured crossover: ht ≈ {}",
        fmt_opt(boundary),
        fmt_opt(crossover)
    );

    // --- 2. TPC-H regret vs the best static config ------------------------
    println!("\n--- TPC-H SF {sf} (generating) ---");
    let data: TpchData = generate(sf, 20260706);
    println!(
        "{:>5} {:>6} {:>10} {:>10} {:>10} {:>12} {:>8} {:>7}",
        "query", "joins", "BHJ[ms]", "RJ[ms]", "BRJ[ms]", "ADAPTIVE[ms]", "best", "regret"
    );
    let reg = registry::global();
    let decisions0 = reg.counter("adaptive.decisions").get();
    let bhj_picks0 = reg.counter("adaptive.choice.bhj").get();
    let fallbacks0 = reg.counter("adaptive.fallbacks").get();
    let mut rows: Vec<QueryRow> = Vec::new();
    for q in all_queries() {
        if let Some(f) = &query_filter {
            if !f.contains(&q.id) {
                continue;
            }
        }
        // Interleave the four configs round-robin and keep each config's
        // minimum: on a shared host interference only ever adds time, and
        // back-to-back reps would let a slow phase land entirely on
        // whichever config happened to run during it.
        let cfgs = [
            JoinAlgo::Bhj,
            JoinAlgo::Rj,
            JoinAlgo::Brj,
            JoinAlgo::Adaptive,
        ]
        .map(QueryConfig::new);
        for cfg in &cfgs {
            let _ = (q.run)(&data, cfg, &e); // warm-up
        }
        let mut best_ms = [f64::INFINITY; 4];
        for _ in 0..reps {
            for (i, cfg) in cfgs.iter().enumerate() {
                let start = std::time::Instant::now();
                let _ = (q.run)(&data, cfg, &e);
                best_ms[i] = best_ms[i].min(ms(start.elapsed()));
            }
        }
        let [bhj, rj, brj, adaptive] = best_ms;
        let (best_static, best_ms) = [
            (JoinAlgo::Bhj, bhj),
            (JoinAlgo::Rj, rj),
            (JoinAlgo::Brj, brj),
        ]
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
        let regret = adaptive / best_ms;
        println!(
            "{:>5} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>8} {:>7.2}",
            format!("Q{}", q.id),
            q.main_joins,
            bhj,
            rj,
            brj,
            adaptive,
            best_static.name(),
            regret
        );
        rows.push(QueryRow {
            id: q.id,
            main_joins: q.main_joins,
            bhj_ms: bhj,
            rj_ms: rj,
            brj_ms: brj,
            adaptive_ms: adaptive,
            best_static,
            regret,
        });
    }
    let decisions = reg.counter("adaptive.decisions").get() - decisions0;
    let bhj_picks = reg.counter("adaptive.choice.bhj").get() - bhj_picks0;
    let fallbacks = reg.counter("adaptive.fallbacks").get() - fallbacks0;
    let bhj_share = if decisions > 0 {
        bhj_picks as f64 / decisions as f64
    } else {
        0.0
    };
    let joins_total: usize = rows.iter().map(|r| r.main_joins).sum();
    let worst = rows.iter().max_by(|a, b| a.regret.total_cmp(&b.regret));
    println!(
        "\n{joins_total} swappable joins; adaptive answered \"do not partition\" on \
         {bhj_picks}/{decisions} per-join decisions ({:.1}%), {fallbacks} runtime fallbacks",
        bhj_share * 100.0
    );
    if let Some(w) = worst {
        println!(
            "worst regret vs best static: Q{} at {:.2}x ({:.1} ms vs {:.1} ms)",
            w.id,
            w.regret,
            w.adaptive_ms,
            w.bhj_ms.min(w.rj_ms).min(w.brj_ms)
        );
    }

    // --- JSON artifact ----------------------------------------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"sf\": {sf},");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"reps\": {reps},");
    let _ = writeln!(j, "  \"calibration_source\": {},", json_string(&cal_source));
    let _ = writeln!(
        j,
        "  \"model_llc_bytes\": {},",
        model.calibration().llc_bytes
    );
    let _ = writeln!(j, "  \"synthetic_sweep\": {{");
    let _ = writeln!(j, "    \"probe_ratio\": {SWEEP_PROBE_RATIO},");
    let _ = writeln!(j, "    \"sweep_llc_bytes\": {sweep_llc},");
    let _ = writeln!(j, "    \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let measured_best = if p.bhj_ms <= p.rj_ms.min(p.brj_ms) {
            JoinAlgo::Bhj
        } else if p.rj_ms <= p.brj_ms {
            JoinAlgo::Rj
        } else {
            JoinAlgo::Brj
        };
        let _ = writeln!(
            j,
            "      {{\"ht_bytes\": {}, \"build_rows\": {}, \"bhj_ms\": {:.3}, \
             \"rj_ms\": {:.3}, \"brj_ms\": {:.3}, \"measured_best\": \"{}\", \
             \"predicted\": \"{}\"}}{}",
            p.ht_bytes,
            p.build_rows,
            p.bhj_ms,
            p.rj_ms,
            p.brj_ms,
            measured_best.name(),
            p.predicted.name(),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "    ],");
    let opt_num = |v: Option<f64>| {
        v.map(|b| format!("{b:.0}"))
            .unwrap_or_else(|| "null".into())
    };
    let _ = writeln!(
        j,
        "    \"predicted_boundary_ht_bytes\": {},",
        opt_num(boundary)
    );
    let _ = writeln!(
        j,
        "    \"measured_crossover_ht_bytes\": {}",
        opt_num(crossover)
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"tpch\": {{");
    let _ = writeln!(j, "    \"queries\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "      {{\"id\": {}, \"main_joins\": {}, \"bhj_ms\": {:.3}, \"rj_ms\": {:.3}, \
             \"brj_ms\": {:.3}, \"adaptive_ms\": {:.3}, \"best_static\": \"{}\", \
             \"regret\": {:.4}}}{}",
            r.id,
            r.main_joins,
            r.bhj_ms,
            r.rj_ms,
            r.brj_ms,
            r.adaptive_ms,
            r.best_static.name(),
            r.regret,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "    ],");
    let _ = writeln!(j, "    \"joins_total\": {joins_total},");
    let _ = writeln!(j, "    \"adaptive_decisions\": {decisions},");
    let _ = writeln!(j, "    \"adaptive_bhj_picks\": {bhj_picks},");
    let _ = writeln!(j, "    \"bhj_pick_share\": {bhj_share:.4},");
    let _ = writeln!(j, "    \"adaptive_fallbacks\": {fallbacks}");
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/table4_adaptive.json", &j).expect("write results");
    println!("\nJSON: results/table4_adaptive.json");

    // --- Acceptance checks ------------------------------------------------
    if check {
        let mut failures = Vec::new();
        for r in &rows {
            // A query with no swappable joins (Q13: its joins compile to
            // group-joins) runs an identical plan under all four configs;
            // any measured difference is scheduler noise, not a planning
            // decision — there is nothing to gate.
            if r.main_joins == 0 {
                continue;
            }
            let best = r.bhj_ms.min(r.rj_ms).min(r.brj_ms);
            if r.regret > 1.10 && r.adaptive_ms - best > REGRET_FLOOR_MS {
                failures.push(format!(
                    "Q{}: adaptive {:.1} ms is {:.2}x the best static ({:.1} ms)",
                    r.id, r.adaptive_ms, r.regret, best
                ));
            }
        }
        // Paper's Table 4 at this scale: ≥55 of 59 joins answer BHJ.
        if query_filter.is_none() && bhj_share < 55.0 / 59.0 {
            failures.push(format!(
                "BHJ pick share {:.1}% is below the {:.1}% (≥55/59) threshold",
                bhj_share * 100.0,
                100.0 * 55.0 / 59.0
            ));
        }
        if failures.is_empty() {
            println!("--check: all acceptance thresholds met.");
        } else {
            eprintln!("--check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
