//! Calibrate the Table-4 regime cost model on this host and write
//! `results/calibration.json` (picked up by `Calibration::global`, i.e. by
//! every `JoinAlgo::Adaptive` engine started from this directory).
//!
//! Method: the per-tuple BHJ constants come from the §5.2 count query at
//! two probe:build ratios in each cache regime — two measurements, two
//! unknowns (`t = B·build + P·probe` solves exactly). The partitioned-side
//! constants come from the same pair of runs under the RJ; partitioning
//! and partition-local probing both scale with the probe side, so their
//! measured sum is split in the documented default proportion. The Bloom
//! constants come from a BRJ run with a selective probe side, with the
//! already-solved partition terms subtracted out.
//!
//! `cargo run --release -p joinstudy-bench --bin calibrate --
//!  [--threads T] [--reps R] [--dry-run]`

use joinstudy_bench::harness::{banner, fmt_bytes, measure, Args};
use joinstudy_bench::workloads::{count_plan, engine, tables, ProbeKeys};
use joinstudy_core::cost::{detect_llc_bytes, Calibration, CostModel, JoinEstimate};
use joinstudy_core::{Engine, JoinAlgo, Plan};
use joinstudy_storage::types::DataType;

/// `count_plan` scans only the 8 B key columns.
const SCAN_WIDTH: f64 = 8.0;
/// ... so each build row costs `8 + HT_OVERHEAD` bytes of hash table.
const HT_ROW_BYTES: f64 = SCAN_WIDTH + joinstudy_core::cost::HT_OVERHEAD_BYTES;
/// Probe:build ratios for the two-point solves.
const R1: usize = 2;
const R2: usize = 8;
/// Probe-key match fraction for the BRJ solve (must be selective enough
/// that the Bloom terms dominate, but non-zero so σ·(partition+probe)
/// still contributes as modeled).
const BRJ_SIGMA: f64 = 0.25;

/// Median wall time of `plan`, in nanoseconds.
fn time_ns(e: &Engine, plan: &Plan, reps: usize) -> f64 {
    let _ = e.run(plan); // warm-up
    let (d, _) = measure(reps, || e.run(plan));
    d.as_nanos() as f64
}

/// Run one join algorithm at both ratios and solve
/// `t = B·per_build + P·per_probe` for the two per-tuple costs (ns).
fn two_point(
    e: &Engine,
    algo: JoinAlgo,
    keys: ProbeKeys,
    build_n: usize,
    reps: usize,
    seed: u64,
) -> (f64, f64) {
    let m1 = tables(build_n, R1 * build_n, DataType::Int64, 0, keys, seed);
    let m2 = tables(build_n, R2 * build_n, DataType::Int64, 0, keys, seed + 1);
    let t1 = time_ns(e, &count_plan(&m1, algo), reps);
    let t2 = time_ns(e, &count_plan(&m2, algo), reps);
    let b = build_n as f64;
    let per_probe = ((t2 - t1) / ((R2 - R1) as f64 * b)).max(0.05);
    let per_build = (t1 / b - R1 as f64 * per_probe).max(0.05);
    (per_build, per_probe)
}

fn main() {
    let args = Args::parse(&["threads", "reps", "dry-run"]);
    let threads = args.threads();
    let reps = args.reps();
    let dry_run = args.flag("dry-run");
    let llc = detect_llc_bytes().min(64 * 1024 * 1024);

    // Hash table at LLC/8 (every access hits) vs 6×LLC (the miss ramp is
    // saturated at the default ramp width of 4 LLCs).
    let small_n = (llc as f64 / 8.0 / HT_ROW_BYTES) as usize;
    let large_n = (llc as f64 * 6.0 / HT_ROW_BYTES) as usize;

    banner(
        "Calibrating the Table-4 regime cost model",
        &format!(
            "LLC {} -> cache-resident build {small_n} rows, out-of-cache build \
             {large_n} rows; probe ratios {R1}x/{R2}x; {threads} threads, median of {reps}",
            fmt_bytes(llc)
        ),
    );

    let e = engine(threads, false);
    let defaults = Calibration::default_constants();

    println!("BHJ, cache-resident regime ...");
    let (bhj_build_hit, bhj_probe_hit) =
        two_point(&e, JoinAlgo::Bhj, ProbeKeys::UniformFk, small_n, reps, 900);
    println!("BHJ, out-of-cache regime ...");
    let (bhj_build_miss, bhj_probe_miss) =
        two_point(&e, JoinAlgo::Bhj, ProbeKeys::UniformFk, large_n, reps, 910);

    // RJ per-side costs at the out-of-cache size (where partitioning is a
    // candidate at all). With `count_plan`'s 8 B tuples, each side's cost is
    // `0.5·partition_pass·passes + rh_{build,probe}` per tuple; split the
    // measured sums in the default constants' proportion.
    println!("RJ, out-of-cache regime ...");
    let (rj_build, rj_probe) =
        two_point(&e, JoinAlgo::Rj, ProbeKeys::UniformFk, large_n, reps, 920);
    let default_sched = 0.5 * defaults.partition_pass * defaults.partition_passes;
    let probe_split = default_sched / (default_sched + 0.5 * defaults.rh_probe);
    let partition_pass = (rj_probe * probe_split / (0.5 * defaults.partition_passes)).max(0.05);
    let rh_probe = (rj_probe * (1.0 - probe_split) / 0.5).max(0.05);
    let rh_build = (rj_build - 0.5 * partition_pass * defaults.partition_passes).max(0.05);

    // BRJ at the same size with a selective probe side: the per-probe cost
    // decomposes as `bloom_probe + σ·(partition + rh_probe)` and the
    // per-build cost as `partition + rh_build + bloom_build`, with every
    // non-Bloom term known from the RJ solve above. A degenerate solve
    // (noise driving a term negative) falls back to the default constants
    // rescaled into this host's measured per-tuple units — leaving them at
    // default *magnitude* would make the model wildly over-favor the BRJ.
    println!("BRJ, out-of-cache regime, selective probe ...");
    let (brj_build, brj_probe) = two_point(
        &e,
        JoinAlgo::Brj,
        ProbeKeys::Selectivity(BRJ_SIGMA),
        large_n,
        reps,
        930,
    );
    let sched = 0.5 * partition_pass * defaults.partition_passes;
    let unit_scale = (bhj_probe_hit / defaults.bhj_probe_hit).max(1.0);
    let mut bloom_probe = brj_probe - BRJ_SIGMA * (sched + rh_probe);
    let mut bloom_build = brj_build - sched - rh_build;
    if bloom_probe <= 0.0 {
        bloom_probe = defaults.bloom_probe * unit_scale;
    }
    if bloom_build <= 0.0 {
        bloom_build = defaults.bloom_build * unit_scale;
    }

    let cal = Calibration {
        llc_bytes: llc as f64,
        bhj_build_hit,
        bhj_build_miss,
        bhj_probe_hit,
        bhj_probe_miss,
        partition_pass,
        partition_passes: defaults.partition_passes,
        rh_build,
        rh_probe,
        bloom_build,
        bloom_probe,
        ramp_llc_multiple: defaults.ramp_llc_multiple,
        spill_ns_per_byte: defaults.spill_ns_per_byte,
        source: "measured".into(),
    }
    .sanitize();

    println!("\nCalibration (per-tuple ns, after sanitize):");
    println!("  llc_bytes        {}", fmt_bytes(cal.llc_bytes as usize));
    println!(
        "  bhj_build  hit {:>6.2}   miss {:>6.2}",
        cal.bhj_build_hit, cal.bhj_build_miss
    );
    println!(
        "  bhj_probe  hit {:>6.2}   miss {:>6.2}",
        cal.bhj_probe_hit, cal.bhj_probe_miss
    );
    println!(
        "  partition_pass {:>6.2}   x{} passes",
        cal.partition_pass, cal.partition_passes
    );
    println!(
        "  rh_build       {:>6.2}   rh_probe {:>6.2}",
        cal.rh_build, cal.rh_probe
    );
    println!(
        "  bloom_build    {:>6.2}   bloom_probe {:>6.2}",
        cal.bloom_build, cal.bloom_probe
    );

    // Sanity check the decision surface at three canonical points.
    let model = CostModel::new(cal.clone());
    println!("\nDecision spot-checks:");
    for (what, build_rows) in [
        ("build = LLC/8", small_n as f64),
        ("build = 6xLLC", large_n as f64),
        ("build = 20xLLC", llc as f64 * 20.0 / HT_ROW_BYTES),
    ] {
        let mut est = JoinEstimate::new(build_rows, 8.0 * build_rows);
        est.build_width = SCAN_WIDTH;
        est.probe_width = SCAN_WIDTH;
        let d = model.decide(&est);
        println!("  {what:<16} -> {d}");
    }

    if dry_run {
        println!("\n--dry-run: not writing results/calibration.json");
        return;
    }
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/calibration.json", cal.to_json()).expect("write calibration");
    println!("\nWrote results/calibration.json (source = \"measured\").");
    println!("Adaptive engines started from this directory now use these constants.");
}
