//! Table 4 asked at plan time: does the cost model answer the join question
//! the way the measurements do on this host (`adaptive`), and which
//! constants does this host fit it to (`calibrate`)? Both time the same
//! `count(*)` micro-join through [`micro`](super::micro)'s point function
//! and size it from [`Params::host`]'s LLC.

use super::micro::count_series;
use super::tpch::{queries, run_ms, tpch};
use super::{Params, Report};
use crate::harness::fmt_bytes;
use crate::report::Col;
use crate::report::Fmt::{Bytes, Fixed, Plain, Tagged};
use crate::row;
use crate::workloads::ProbeKeys::{self, Selectivity, UniformFk};
use crate::workloads::{engine, tables, Micro};
use joinstudy_core::cost::{Calibration, CostModel, JoinEstimate, HT_OVERHEAD_BYTES};
use joinstudy_core::JoinAlgo::{self, Adaptive, Bhj, Brj, Rj};
use joinstudy_exec::QueryProfile;
use joinstudy_storage::types::DataType::Int64;
use joinstudy_tpch::queries::QueryConfig;

/// `count_plan` scans the 8 B key columns only, so each build row costs
/// `8 + HT_OVERHEAD_BYTES` bytes of hash table.
const HT_ROW_BYTES: f64 = 8.0 + HT_OVERHEAD_BYTES;
/// Probe:build ratio of the adaptive sweep (a mid-range FK fan-out).
const SWEEP_PROBE_RATIO: usize = 4;
/// Sub-millisecond queries drown a 10% regret bound in timer noise: a query
/// within this many ms of the best static config is on par.
const REGRET_FLOOR_MS: f64 = 2.0;
/// Probe:build ratios of the calibration's two-point solves.
const RATIOS: [usize; 2] = [2, 8];
/// Probe-key match fraction of the BRJ solve: selective enough that the
/// Bloom terms dominate, non-zero so σ·(partition + probe) still counts.
const BRJ_SIGMA: f64 = 0.25;

/// The model's answer for the sweep's `count_plan` join (8 B rows, probe =
/// 4× build) whose hash table takes `ht_bytes`.
fn predicted(model: &CostModel, ht_bytes: f64) -> JoinAlgo {
    let build_rows = (ht_bytes / HT_ROW_BYTES).max(1.0);
    let mut est = JoinEstimate::new(build_rows, build_rows * SWEEP_PROBE_RATIO as f64);
    (est.build_width, est.probe_width) = (8.0, 8.0);
    model.decide(&est).algo
}

/// Milliseconds of `count(*)` over `m` under each algorithm.
fn count_ms<const N: usize>(p: &Params, m: &Micro, algos: [JoinAlgo; N]) -> [f64; N] {
    count_series(p, m, algos).map(|tps| m.total_tuples() as f64 / tps * 1e3)
}

/// The fastest of `times`; the first on a tie.
fn fastest<const N: usize>(times: [(JoinAlgo, f64); N]) -> (JoinAlgo, f64) {
    let by_time = |a: &(JoinAlgo, f64), b: &(JoinAlgo, f64)| a.1.total_cmp(&b.1);
    times
        .into_iter()
        .min_by(by_time)
        .expect("at least one time")
}

/// Smallest hash table (bytes) in `lo..=hi` for which `model` answers
/// "partition" on the sweep's shape, scanned on a 5% geometric grid so the
/// boundary does not depend on where the sweep measured.
pub fn predicted_boundary(model: &CostModel, lo: f64, hi: f64) -> Option<f64> {
    let grid = std::iter::successors(Some(lo), |h| Some(h * 1.05));
    grid.take_while(|&h| h <= hi)
        .find(|&h| predicted(model, h) != Bhj)
}

/// Where the best radix join first beats the BHJ, over `(ht_bytes, bhj_ms,
/// radix_ms)` points of growing size: interpolated geometrically between
/// the last BHJ win and the first radix win, else the first point when the
/// radix join wins there already, else `None`.
pub fn measured_crossover(points: &[(f64, f64, f64)]) -> Option<f64> {
    let gap = |&(_, bhj, radix): &(f64, f64, f64)| bhj - radix;
    let crossing = points.windows(2).find_map(|w| {
        let (a, b) = (gap(&w[0]), gap(&w[1]));
        (a < 0.0 && b >= 0.0).then(|| w[0].0 * (w[1].0 / w[0].0).powf(-a / (b - a)))
    });
    crossing.or_else(|| points.first().filter(|p| gap(p) >= 0.0).map(|p| p.0))
}

/// Table 4 at plan time: a build-size sweep across the LLC with the cost
/// model's answer beside the measured one, then every join-bearing TPC-H
/// query under the three static joins and `JoinAlgo::Adaptive`. The row
/// states whether the adaptive planner's regret and BHJ share held; it
/// sets no exit status.
pub fn adaptive(r: &mut Report, p: &Params) {
    let (sf, reps, model) = (p.get::<f64>("sf"), p.reps(), CostModel::global());
    let cal = model.calibration();
    let from = format!("{}, LLC {}", cal.source, fmt_bytes(cal.llc_bytes as usize));
    let detail = format!("SF {sf}, {}; calibration {}", p.run_line(), r.m(from));
    p.banner(r, &detail);

    // Virtualized hosts report absurd LLC sizes; clamp so the sweep stays
    // tractable.
    let llc = p.host.llc_bytes.min(16 << 20) as f64;
    let ms = |title, csv| Col::val(title, csv, 10, Fixed(1, 3, ""));
    let cols = [
        Col::key("ht", "ht_bytes", 10, Bytes),
        Col::key("build rows", "build_rows", 12, Plain),
        ms("BHJ[ms]", "bhj_ms"),
        ms("RJ[ms]", "rj_ms"),
        ms("BRJ[ms]", "brj_ms"),
        Col::val("measured", "measured_best", -9, Plain),
        Col::val("predicted", "predicted", -9, Plain),
    ];
    let mut sweep = r.table("adaptive_sweep", &cols);
    r.line(format!(
        "\nSynthetic build-size sweep (probe = {SWEEP_PROBE_RATIO}x build):"
    ));
    sweep.header(r);
    let mut points = Vec::new();
    for factor in [0.125, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let ht_bytes = llc * factor;
        let n = ((ht_bytes / HT_ROW_BYTES) as usize).max(1024);
        let m = tables(n, SWEEP_PROBE_RATIO * n, Int64, 0, UniformFk, 400);
        let [bhj, rj, brj] = count_ms(p, &m, [Bhj, Rj, Brj]);
        let best = fastest([(Bhj, bhj), (Rj, rj), (Brj, brj)]).0.name();
        let guess = predicted(&model, n as f64 * HT_ROW_BYTES).name();
        row!(sweep, r, ht_bytes, n, bhj, rj, brj, best, guess);
        points.push((ht_bytes, bhj, rj.min(brj)));
    }
    let shown = |v: Option<f64>| r.m(v.map_or("none in range".into(), |b| fmt_bytes(b as usize)));
    let boundary = shown(predicted_boundary(&model, llc * 0.05, llc * 64.0));
    let crossover = shown(measured_crossover(&points));
    r.line(format!(
        "predicted regime boundary: ht ≈ {boundary}   measured crossover: ht ≈ {crossover}\n\
         CSV: {}",
        sweep.path()
    ));

    r.line(format!("\n--- TPC-H SF {sf} ---"));
    let (data, e) = (tpch(sf), engine(p.threads(), false));
    let cols = [
        Col::key("query", "query", 5, Tagged("Q")),
        Col::key("joins", "main_joins", 6, Plain),
        ms("BHJ[ms]", "bhj_ms"),
        ms("RJ[ms]", "rj_ms"),
        ms("BRJ[ms]", "brj_ms"),
        Col::val("ADAPTIVE[ms]", "adaptive_ms", 12, Fixed(1, 3, "")),
        Col::val("best", "best_static", 8, Plain),
        Col::val("regret", "regret", 7, Fixed(2, 4, "")),
    ];
    let mut t = r.table("adaptive_tpch", &cols);
    t.header(r);
    let (mut joins, mut missed, mut selector) = (0, Vec::new(), [0; 3]);
    for q in queries(p) {
        let mut profile = None;
        let run = |algo| {
            let cfg = QueryConfig::new(algo);
            // The adaptive warm-up is profiled: its Join nodes record what
            // the selector decided, once per join.
            e.ctx.set_profiling(algo == Adaptive);
            let _ = (q.run)(&data, &cfg, &e); // warm-up
            e.ctx.set_profiling(false);
            profile = profile.take().or_else(|| e.take_profile());
            run_ms(&q, &data, &cfg, &e, reps)
        };
        let [bhj, rj, brj, adpt] = [Bhj, Rj, Brj, Adaptive].map(run);
        let profile = profile.expect("a profiled adaptive run");
        for (total, n) in selector.iter_mut().zip(selector_counts(&profile)) {
            *total += n;
        }
        let (best, best_ms) = fastest([(Bhj, bhj), (Rj, rj), (Brj, brj)]);
        let (best, regret) = (best.name(), adpt / best_ms);
        row!(t, r, q.id, q.main_joins, bhj, rj, brj, adpt, best, regret);
        joins += q.main_joins;
        // A query without swappable joins (Q13's compile to group-joins)
        // runs one plan under all four configs: nothing to judge.
        if q.main_joins > 0 && regret > 1.10 && adpt - best_ms > REGRET_FLOOR_MS {
            missed.push(format!("Q{} at {regret:.2}x", q.id));
        }
    }
    let [decisions, picks, fallbacks] = selector;
    let share = picks as f64 / decisions.max(1) as f64;
    let held = |ok: bool, why: String| r.m(if ok { "held".into() } else { why });
    let regret_held = held(
        missed.is_empty(),
        format!("missed on {}", missed.join(", ")),
    );
    let share_held = match p.given_list::<u32>("queries") {
        Some(_) => "not judged on a --queries subset".into(),
        None => held(share >= 55.0 / 59.0, "missed".into()),
    };
    let picked = format!("{picks}/{decisions} ({:.1}%)", share * 100.0);
    r.line(format!(
        "\n{joins} swappable joins; adaptive answered \"do not partition\" on {} per-join \
         decisions, {} runtime fallbacks\n\
         regret <= 1.10 wherever the gap exceeds {REGRET_FLOOR_MS} ms: {regret_held}\n\
         BHJ share >= 55/59: {share_held}",
        r.m(picked),
        r.m(fallbacks)
    ));
    let note = "Paper shape (Table 4): 58 of 59 TPC-H joins answer \"do not partition\"; the \
                predicted regime boundary should sit near the measured crossover.";
    r.footer(&t, note);
}

/// What the selector did on the Join nodes of one profiled adaptive run:
/// `[decisions, BHJ picks, runtime fallbacks]`, one decision per join.
fn selector_counts(profile: &QueryProfile) -> [usize; 3] {
    let mut counts = [0; 3];
    let joins = profile.nodes().into_iter();
    for n in joins.filter(|n| n.label.starts_with("Join ")) {
        let detail = |key| n.details.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if let Some(choice) = detail("adaptive_choice") {
            counts[0] += 1;
            counts[1] += usize::from(choice.to_string() == Bhj.name());
        }
        counts[2] += usize::from(detail("adaptive_fallback").is_some());
    }
    counts
}

/// Time one join at both probe ratios and solve `t = B·per_build +
/// P·per_probe` for its two per-tuple costs (ns).
fn two_point(p: &Params, algo: JoinAlgo, keys: ProbeKeys, build_n: usize, seed: u64) -> (f64, f64) {
    let [t1, t2] = [0, 1].map(|i| {
        let seed = seed + i as u64;
        let m = tables(build_n, RATIOS[i] * build_n, Int64, 0, keys, seed);
        count_ms(p, &m, [algo])[0] * 1e6
    });
    let (b, [r1, r2]) = (build_n as f64, RATIOS.map(|ratio| ratio as f64));
    let per_probe = ((t2 - t1) / ((r2 - r1) * b)).max(0.05);
    let per_build = (t1 / b - r1 * per_probe).max(0.05);
    (per_build, per_probe)
}

/// Fit the cost model's per-tuple constants to this host: the BHJ's from
/// two-point solves in each cache regime, the RJ's from the same pair at the
/// out-of-cache size (partitioning and partition-local probing both scale
/// with the probe side, so their measured sum is split in the default
/// constants' proportion), the Bloom filter's from a selective BRJ run with
/// the partition terms subtracted. The fit goes to
/// `results/calibration_fit.json`; `results/calibration.json`, which
/// `Calibration::global` loads, is left alone.
pub fn calibrate(r: &mut Report, p: &Params) {
    let llc = p.host.llc_bytes.min(64 << 20) as f64;
    // A hash table at LLC/8 (every access hits) and at 6×LLC (the miss ramp
    // saturates at the default width of 4 LLCs).
    let small_n = (llc / 8.0 / HT_ROW_BYTES) as usize;
    let large_n = (llc * 6.0 / HT_ROW_BYTES) as usize;
    let [r1, r2] = RATIOS;
    let detail = format!(
        "LLC {} -> cache-resident build {small_n} rows, out-of-cache build {large_n} rows; \
         probe ratios {r1}x/{r2}x; {}",
        fmt_bytes(llc as usize),
        p.run_line()
    );
    p.banner(r, &detail);
    let d = Calibration::default_constants();
    let (bhj_build_hit, bhj_probe_hit) = two_point(p, Bhj, UniformFk, small_n, 900);
    let (bhj_build_miss, bhj_probe_miss) = two_point(p, Bhj, UniformFk, large_n, 910);
    // With 8 B tuples each RJ side costs `0.5·partition_pass·passes +
    // rh_{build,probe}` per tuple.
    let (rj_build, rj_probe) = two_point(p, Rj, UniformFk, large_n, 920);
    let default_sched = 0.5 * d.partition_pass * d.partition_passes;
    let probe_split = default_sched / (default_sched + 0.5 * d.rh_probe);
    let partition_pass = (rj_probe * probe_split / (0.5 * d.partition_passes)).max(0.05);
    let rh_probe = (rj_probe * (1.0 - probe_split) / 0.5).max(0.05);
    let rh_build = (rj_build - 0.5 * partition_pass * d.partition_passes).max(0.05);
    // Per probe tuple the BRJ costs `bloom_probe + σ·(partition + rh_probe)`,
    // per build tuple `partition + rh_build + bloom_build`. A degenerate
    // solve falls back to the default constant rescaled into this host's
    // units: at default magnitude the model would over-favor the BRJ.
    let (brj_build, brj_probe) = two_point(p, Brj, Selectivity(BRJ_SIGMA), large_n, 930);
    let sched = 0.5 * partition_pass * d.partition_passes;
    let unit_scale = (bhj_probe_hit / d.bhj_probe_hit).max(1.0);
    let solved = |v: f64, default: f64| if v > 0.0 { v } else { default * unit_scale };
    let cal = Calibration {
        llc_bytes: llc,
        bhj_build_hit,
        bhj_build_miss,
        bhj_probe_hit,
        bhj_probe_miss,
        partition_pass,
        rh_build,
        rh_probe,
        bloom_build: solved(brj_build - sched - rh_build, d.bloom_build),
        bloom_probe: solved(brj_probe - BRJ_SIGMA * (sched + rh_probe), d.bloom_probe),
        source: "measured".into(),
        ..d.clone()
    }
    .sanitize();

    let cols = [
        Col::key("constant", "constant", -16, Plain),
        Col::val("fitted[ns]", "fitted_ns", 11, Fixed(2, 4, "")),
        Col::key("default[ns]", "default_ns", 12, Fixed(2, 4, "")),
    ];
    let mut t = r.table("calibration_fit", &cols);
    r.line("\nPer-tuple constants, after sanitize:");
    t.header(r);
    for (name, fitted, default) in [
        ("bhj_build_hit", cal.bhj_build_hit, d.bhj_build_hit),
        ("bhj_build_miss", cal.bhj_build_miss, d.bhj_build_miss),
        ("bhj_probe_hit", cal.bhj_probe_hit, d.bhj_probe_hit),
        ("bhj_probe_miss", cal.bhj_probe_miss, d.bhj_probe_miss),
        ("partition_pass", cal.partition_pass, d.partition_pass),
        ("rh_build", cal.rh_build, d.rh_build),
        ("rh_probe", cal.rh_probe, d.rh_probe),
        ("bloom_build", cal.bloom_build, d.bloom_build),
        ("bloom_probe", cal.bloom_probe, d.bloom_probe),
    ] {
        row!(t, r, name, fitted, default);
    }
    let json = r.write_file("calibration_fit.json", &r.m(cal.to_json()));
    let note = format!(
        "JSON: {json}\nThe fit does not replace results/calibration.json, which adaptive \
         engines load: to adopt it, point JOINSTUDY_CALIBRATION at {json} or copy it over."
    );
    r.footer(&t, &note);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_crossover_interpolates_geometrically_between_a_bhj_win_and_a_radix_win() {
        // BHJ 1 ms ahead at 1 MiB, radix 3 ms ahead at 4 MiB: a quarter of
        // the way from 1 to 4 MiB on a log scale, √2 MiB.
        let points = [(1.0, 9.0, 10.0), (4.0, 12.0, 9.0), (16.0, 30.0, 10.0)];
        let at = measured_crossover(&points).unwrap();
        assert!((at - 4f64.powf(0.25)).abs() < 1e-12, "{at}");
    }

    #[test]
    fn the_crossover_is_the_first_point_when_radix_wins_from_the_start() {
        let points = [(2.0, 10.0, 9.0), (8.0, 20.0, 12.0)];
        assert_eq!(measured_crossover(&points), Some(2.0));
    }

    #[test]
    fn no_crossing_in_range_gives_none() {
        let points = [(1.0, 5.0, 6.0), (4.0, 7.0, 9.0), (16.0, 11.0, 20.0)];
        assert_eq!(measured_crossover(&points), None);
        assert_eq!(measured_crossover(&[]), None);
    }

    #[test]
    fn the_predicted_boundary_is_where_the_model_first_partitions() {
        let model = CostModel::new(Calibration::default_constants());
        let llc = model.calibration().llc_bytes;
        let at = predicted_boundary(&model, llc * 0.05, llc * 64.0).unwrap();
        assert!(at > llc, "partitioning a cache-resident table: {at}");
        assert_ne!(predicted(&model, at), Bhj);
        assert_eq!(predicted(&model, at / 1.05), Bhj);
        // Radix from the first point; BHJ throughout a cache-resident range.
        assert_eq!(predicted_boundary(&model, at, at * 2.0), Some(at));
        assert_eq!(predicted_boundary(&model, llc * 0.05, llc * 0.5), None);
    }
}
