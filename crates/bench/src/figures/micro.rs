//! The microbenchmark rows (§5.2, §5.4, Table 4): Balkesen et al.'s
//! Workloads A/B as real tables inside the engine, one factor varied per row.
//!
//! Each §5.4 factor has one *point function* — workload in, tuples/s per
//! join out — that its figure sweeps densely and `table4` re-reads at a
//! handful of points.

use super::{Params, Report};
use crate::harness::{measure, throughput};
use crate::report::Fmt::{Bytes, Fixed, Plain, Si};
use crate::report::{Cell, Col, Table};
use crate::workloads::ProbeKeys::{Selectivity, UniformFk, Zipf};
use crate::workloads::{bench_plan, count_plan, engine, star_plan, star_schema, sum_plan};
use crate::workloads::{tables, Micro};
use crate::{hw, row};
use joinstudy_baseline::workload as blw;
use joinstudy_baseline::{npj_count, prj_count, JoinTuple, PrjConfig, Tuple16, Tuple8};
use joinstudy_core::JoinAlgo::{self, Bhj, Brj, Rj};
use joinstudy_core::{Engine, Plan};
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::pmu::{self, CounterKind};
use joinstudy_exec::registry;
use joinstudy_storage::gen::Rng;
use joinstudy_storage::types::DataType::{self, Int32, Int64};
use std::time::Instant;

/// Workload A (8 B key/payload, 1:16) and Workload B (4 B, 1:1):
/// (name, probe tuples per build tuple, column type).
const WORKLOADS: [(&str, usize, DataType); 2] = [("A", 16, Int64), ("B", 1, Int32)];

/// Tuples/s of each plan over `m`, median of `reps` (the paper's throughput:
/// tuples counted at all pipeline sources over runtime).
fn series<const N: usize>(e: &Engine, m: &Micro, reps: usize, plans: [Plan; N]) -> [f64; N] {
    plans.map(|plan| bench_plan(e, &plan, m.total_tuples(), reps).0)
}

/// Tuples/s of `count(*)` over `m` under each algorithm.
pub fn count_series<const N: usize>(p: &Params, m: &Micro, algos: [JoinAlgo; N]) -> [f64; N] {
    let e = engine(p.threads(), false);
    series(&e, m, p.reps(), algos.map(|a| count_plan(m, a)))
}

/// The stand-alone Balkesen-style pair over materialized arrays: [NPJ, PRJ].
fn standalone<T: JoinTuple>(data: (Vec<T>, Vec<T>), threads: usize, reps: usize) -> [f64; 2] {
    let (build, probe) = data;
    let cfg = PrjConfig::default();
    let npj = measure(reps, || npj_count(&build, &probe, threads)).0;
    let prj = measure(reps, || prj_count(&build, &probe, threads, cfg)).0;
    [npj, prj].map(|d| throughput(build.len() + probe.len(), d))
}

/// A measured tuples/s column.
fn rate(title: &'static str, csv: &'static str) -> Col {
    Col::val(title, csv, 12, Si)
}

/// Table 1 — the microbenchmark workloads of prior work, at full scale and
/// at this harness's scale (§5.1.2).
pub fn table1(r: &mut Report, p: &Params) {
    let n: usize = p.get("build");
    p.banner(r, "sizes at paper scale and harness scale");
    let cols = [
        Col::key("workload", "workload", -10, Plain),
        Col::key("key/pay[B]", "key_pay_bytes", 10, Plain),
        Col::key("build tuples", "build_tuples", 14, Plain),
        Col::key("probe tuples", "probe_tuples", 14, Plain),
        Col::key("build", "build_bytes", 12, Bytes),
        Col::key("probe", "probe_bytes", 12, Bytes),
    ];
    let mut t = r.table("table1_workloads", &cols);
    t.header(r);
    // (name, key = payload bytes, build tuples, probe tuples): paper scale
    // per Table 1, then harness scale preserving the build:probe ratios.
    for (name, kp, build, probe) in [
        ("A (paper)", 8, 16 << 20, 256 << 20),
        ("B (paper)", 4, 128_000_000, 128_000_000),
        ("A (here)", 8, n, 16 * n),
        ("B (here)", 4, n, n),
    ] {
        let (kp_text, w) = (format!("{kp}/{kp}"), 2 * kp);
        row!(t, r, name, kp_text, build, probe, build * w, probe * w);
    }
    let note = "Workload A: 16 B tuples, unique build keys, FK probe (Balkesen et al., Blanas \
                et al.). Workload B: 8 B tuples, equal relation sizes (Kim et al., Balkesen et al.).";
    r.footer(&t, note);
}

/// Table 2 — the hardware platform this reproduction runs on, in the
/// paper's format, with the paper's three machines alongside.
pub fn table2(r: &mut Report, p: &Params) {
    p.banner(r, "detecting host + measuring copy bandwidth...");
    let cols = [
        Col::key("", "property", -22, Plain),
        Col::val("this host", "this_host", -28, Plain),
        Col::key("Skylake-X", "", -12, Plain),
        Col::key("Ryzen 9", "", -12, Plain),
        Col::key("Sandy Bridge", "", -14, Plain),
    ];
    let mut t = r.table("table2_hardware", &cols);
    t.header(r);
    for (property, here) in hw::describe() {
        let [skylake, ryzen, sandy] = match property {
            "vendor" => ["Intel", "AMD", "Intel"],
            "model" => ["i9-9900x", "3950X", "E5-2660v2"],
            "sockets" | "NUMA nodes" => ["1", "1", "2"],
            "cores (SMT)" => ["10 (x2)", "16 (x2)", "20 (x2)"],
            "clock rate [GHz]" => ["3.5-4.4", "3.5-4.7", "2.2-3.0"],
            "L1 data cache [KiB]" => ["32", "32", "16"],
            "L2 cache [KiB]" => ["1024", "512", "256"],
            "LLC cache [KiB]" => ["19456", "16384 (x4)", "25600"],
            "DRAM speed [GiB/s]" => ["79.4", "47.8", "59.9"],
            "PMU counters" => ["yes", "yes", "yes"],
            _ => ["-", "-", "-"],
        };
        row!(t, r, property, here, skylake, ryzen, sandy);
    }
    let note = "Note: DRAM speed here is a single-threaded memcpy stream, a lower bound on the \
                paper's aggregate-bandwidth numbers.";
    r.footer(&t, note);
}

/// Table 3 — throughput with and without late materialization at 5%
/// selectivity and 40 B probe tuples (§5.4.3: payload size and selectivity
/// combined, the one regime where LM shines).
pub fn table3(r: &mut Report, p: &Params) {
    let (n, run) = (p.get::<usize>("build"), p.run_line());
    // Four 8 B payload columns → 40 B probe tuples incl. hash (§5.4.3).
    let m = tables(n, 16 * n, Int64, 4, Selectivity(0.05), 17);
    let workload = "5% selectivity, 4x8 B payload (40 B probe tuples)";
    p.banner(r, &format!("{workload}, {n} ⋈ {}, {run}", m.probe_n));
    let cols = [
        Col::key("", "algo", -6, Plain),
        rate("LM[T/s]", "lm_tps"),
        rate("no LM[T/s]", "em_tps"),
        Col::val("benefit", "benefit_pct", 10, Fixed(0, 1, "%")),
    ];
    let mut t = r.table("table3_late_mat", &cols);
    t.header(r);
    let e = engine(p.threads(), false);
    for algo in [Bhj, Brj, Rj] {
        let plans = [true, false].map(|lm| sum_plan(&m, algo, 4, lm));
        let [lm, em] = series(&e, &m, p.reps(), plans);
        row!(t, r, algo.name(), lm, em, (lm / em - 1.0) * 100.0);
    }
    let note = "Paper: BHJ ±0% (nothing to materialize), BRJ +35%, RJ +122% — LM halves the RJ's \
                materialization, yet the BRJ without LM still beats the RJ with it (sideways \
                information passing prunes rows before partitioning).";
    r.footer(&t, note);
}

/// Thread-count sweep over Workloads A and B: in-system BHJ/RJ per thread
/// count (Figure 9), between the stand-alone NPJ/PRJ when `baselines`
/// (Figure 8).
fn thread_sweep(r: &mut Report, p: &Params, threads: &[usize], baselines: bool) -> Table {
    let (n, reps) = (p.get::<usize>("build"), p.reps());
    let name = if baselines {
        "fig08_scalability"
    } else {
        "fig09_numa"
    };
    let mut cols = vec![
        Col::key("", "workload", 0, Plain),
        Col::key("threads", "threads", 8, Plain),
        rate("BHJ[T/s]", "bhj_tps"),
        rate("RJ[T/s]", "rj_tps"),
    ];
    if baselines {
        cols.insert(2, rate("NPJ[T/s]", "npj_tps"));
        cols.insert(4, rate("PRJ[T/s]", "prj_tps"));
    }
    let mut t = r.table(name, &cols);
    for (wl, ratio, key_type) in WORKLOADS {
        let probe_n = n * ratio;
        r.line(format!("\nWorkload {wl} ({n} ⋈ {probe_n}):"));
        t.header(r);
        let m = tables(n, probe_n, key_type, 0, UniformFk, 77);
        let mut rng = Rng::new(78);
        for &k in threads {
            let plans = [Bhj, Rj].map(|a| count_plan(&m, a));
            let [bhj, rj] = series(&engine(k, false), &m, reps, plans);
            let mut cells: Vec<Cell> = vec![wl.into(), k.into(), bhj.into(), rj.into()];
            if baselines {
                let [npj, prj] = match key_type {
                    Int64 => {
                        let data = blw::gen_workload_a::<Tuple16>(n, probe_n, &mut rng);
                        standalone(data, k, reps)
                    }
                    _ => standalone(blw::gen_workload_b::<Tuple8>(n, &mut rng), k, reps),
                };
                cells.insert(2, npj.into());
                cells.insert(4, prj.into());
            }
            t.row(r, &cells);
        }
    }
    t
}

/// 1, 2, 4, … up to `max` threads.
fn doubling(max: usize) -> Vec<usize> {
    let powers = std::iter::successors(Some(1), |t| Some(t * 2));
    powers.take_while(|&t| t <= max.max(1)).collect()
}

/// Figure 8 — thread scalability and comparison against the stand-alone
/// Balkesen-style joins (§5.2.1). Expected shape: every implementation
/// scales with physical cores, radix joins speed up more; the NPJ (knowing
/// table size and distribution in advance) beats the in-system BHJ. On a
/// single-core container the curves flatten immediately.
pub fn fig08(r: &mut Report, p: &Params) {
    let given = p.given_list("threads-list");
    let threads = given.unwrap_or_else(|| doubling(2 * p.host.threads));
    let (n, reps) = (p.get::<usize>("build"), p.reps());
    let detail = format!("build {n}, threads {threads:?}, median of {reps}");
    p.banner(r, &detail);
    let t = thread_sweep(r, p, &threads, true);
    let note = "Paper shape: all joins scale with hardware contexts; RJ speeds up 7.5–9.5x on 10 \
                cores; hyperthreads help the non-partitioned joins more (they hide probe latency).";
    r.footer(&t, note);
}

/// Figure 9 — scalability on the NUMA machines (§5.2.2), reproduced as
/// oversubscription on the host.
///
/// SUBSTITUTION (DESIGN.md §1): the paper uses a dual-socket Sandy Bridge
/// and a chiplet-based Ryzen 9. What *is* reproduced is the NUMA-awareness
/// mechanism itself (Schuh et al.'s worker-local output chunks — pass 1
/// writes only worker-local pages, pass 2 task-private regions) plus the
/// saturation behaviour as thread counts exceed physical cores.
pub fn fig09(r: &mut Report, p: &Params) {
    let cores = p.host.threads;
    let detail = format!(
        "host has {cores} hardware thread(s); sweeping 1..4x oversubscription. The paper's NUMA \
         machines are simulated per DESIGN.md: the write-local chunked partitioning is \
         implemented, the socket topology is not."
    );
    p.banner(r, &detail);
    let t = thread_sweep(r, p, &doubling(4 * cores), false);
    let note = "Paper shape: RJ scales 10–16x on the 20-core NUMA box but hits the bandwidth wall \
                early on the Ryzen (60% of Skylake's per-core bandwidth) and *degrades* under \
                contention; BHJ scales more uniformly across machines and workloads.";
    r.footer(&t, note);
}

/// One run of `plan` with byte accounting (and the PMU, when enabled) on,
/// after a warm-up run (paper: "we warmed up the system"): seconds taken.
fn accounted_run(e: &Engine, plan: &Plan) -> f64 {
    e.run(plan);
    metrics::reset_all();
    metrics::set_enabled(true);
    let start = Instant::now();
    let result = e.run(plan);
    let secs = start.elapsed().as_secs_f64();
    metrics::set_enabled(false);
    std::hint::black_box(result);
    secs
}

/// One phase's `pmu.<phase>.*` registry totals, indexed by counter kind.
type Counters = [u64; pmu::NUM_COUNTERS];

/// The totals of every phase that counted anything in the last accounted run.
fn pmu_phases() -> Vec<(MemPhase, Counters)> {
    let total = |phase: MemPhase, kind: CounterKind| {
        let name = format!("pmu.{}.{}", phase.slug(), kind.slug());
        registry::global().counter(&name).get()
    };
    let phases = MemPhase::ALL.into_iter();
    let counted = phases.map(|phase| (phase, CounterKind::ALL.map(|k| total(phase, k))));
    counted
        .filter(|(_, row)| row.iter().any(|&v| v != 0))
        .collect()
}

/// Cycles, instructions, LLC misses and dTLB misses of one counter row.
fn counter_cells(row: &Counters) -> [Cell; 4] {
    use CounterKind::{Cycles, DtlbMisses, Instructions, LlcMisses};
    [Cycles, Instructions, LlcMisses, DtlbMisses].map(|k| row[k.index()].into())
}

/// Figure 10 — memory traffic of the radix join's phases for 24 B-wide
/// tuples (§5.2.3).
///
/// The paper samples hardware counters with Intel PCM. The portable default
/// here accounts bytes in software at every materializing primitive,
/// attributed to the paper's phases, and combines them with the phase
/// bands of the run's trace (each pipeline span carries its phase):
/// per-phase volumes are exact; rates are averages per phase rather than
/// 100 ms samples. With `--hw` the run
/// additionally samples real PMU counters per phase (`perf_event_open`),
/// degrading to a note when the syscall is unavailable (DESIGN.md §9).
pub fn fig10(r: &mut Report, p: &Params) {
    // Paper: probe side 30x larger than build, 24 B probe tuples
    // (hash + key + one payload column).
    let n: usize = p.get("build");
    let (probe_n, threads, hw) = (p.probe(n, 30), p.threads(), p.switch("hw"));
    let counters = match hw {
        true => " + hardware counters (--hw)",
        false => "; pass --hw for measured PMU counters",
    };
    let detail = format!(
        "{n} build ⋈ {probe_n} probe, sum(p1) query, {threads} thread(s); software byte \
         accounting{counters} (DESIGN.md §1, §9)"
    );
    p.banner(r, &detail);
    if hw && !p.host.pmu {
        let level = pmu::paranoid_level().map(|l| l.to_string());
        let level = r.m(level.as_deref().unwrap_or("unknown"));
        r.line(format!(
            "--hw requested but perf_event_open is unavailable (perf_event_paranoid {level}); \
             falling back to software accounting only"
        ));
    }
    let m = tables(n, probe_n, Int64, 1, UniformFk, 31);
    pmu::set_enabled(hw && p.host.pmu);
    let plan = sum_plan(&m, Rj, 1, false);
    let e = engine(threads, false);
    let total_secs = accounted_run(&e, &plan);
    pmu::set_enabled(false);

    // Phase bands (phase, start, end): from one pipeline's start in the
    // accounted run's record to the next.
    let record = e
        .take_record()
        .expect("the accounted run leaves its record");
    let starts = record.pipelines().map(|(s, _)| s.start_ns as f64 / 1e9);
    let ends = starts.clone().skip(1).chain([total_secs]);
    let phases = record.pipelines().map(|(_, p)| p.phase);
    let bands: Vec<_> = phases.zip(starts.zip(ends)).collect();

    let total_ms = r.m(format!("{:.1}", total_secs * 1e3));
    r.line(format!("\nTotal runtime: {total_ms} ms\n"));
    let cols = [
        Col::key("phase", "phase", -18, Plain),
        Col::val("time[ms]", "time_ms", 10, Fixed(1, 2, "")),
        Col::key("read", "read_bytes", 12, Bytes),
        Col::key("write", "write_bytes", 12, Bytes),
        Col::val("read[GB/s]", "read_gbs", 12, Fixed(2, 3, "")),
        Col::val("write[GB/s]", "write_gbs", 12, Fixed(2, 3, "")),
    ];
    let mut t = r.table("fig10_bandwidth", &cols);
    t.header(r);
    for (phase, read, write) in metrics::snapshot() {
        let own = bands.iter().filter(|band| band.0 == phase);
        let banded: f64 = own.map(|(_, (start, end))| end - start).sum();
        // "other" (base-table scan reads feeding the pipelines) has no own
        // timeline band; spread it over the full run.
        let secs = if banded > 0.0 { banded } else { total_secs };
        let gbs = |bytes: u64| bytes as f64 / secs / 1e9;
        let (phase, ms, read_gbs, write_gbs) = (phase.name(), secs * 1e3, gbs(read), gbs(write));
        if read != 0 || write != 0 {
            row!(t, r, phase, ms, read, write, read_gbs, write_gbs);
        }
    }

    // Measured counters per phase (the paper's actual methodology), next to
    // the software accounting above.
    if hw && p.host.pmu {
        let count = |title, csv| Col::val(title, csv, 12, Si);
        let cols = [
            Col::key("phase (hw)", "", -18, Plain),
            Col::key("", "phase", 0, Plain),
            count("cycles", "cycles"),
            count("instr", "instructions"),
            count("llc_miss", "llc_misses"),
            count("dtlb_miss", "dtlb_misses"),
        ];
        let mut hw_t = r.table("fig10_bandwidth_hw", &cols);
        r.line("");
        hw_t.header(r);
        for (phase, totals) in pmu_phases() {
            let [cycles, instr, llc, tlb] = counter_cells(&totals);
            row!(hw_t, r, phase.name(), phase.slug(), cycles, instr, llc, tlb);
        }
        r.line(format!("hw CSV: {}", hw_t.path()));
    }

    r.line("\nPhase timeline:");
    for (phase, (start, end)) in bands {
        let ms = |secs: f64| r.m(format!("{:>8.1}", secs * 1e3));
        let (start, end, phase) = (ms(start), ms(end), phase.name());
        r.line(format!("  {start} ms .. {end} ms  {phase}"));
    }
    let note = "Paper shape: the build pipeline is a small fraction of runtime (probe side is 30x \
                larger); both partitioning passes and the join are bandwidth-bound, with \
                partitioning writes dominating.";
    r.footer(&t, note);
}

/// One Figure 7 run: wall time plus the `pmu.*` totals per phase.
struct CounterRun {
    algo: JoinAlgo,
    build_n: usize,
    tuples: usize,
    wall_ms: f64,
    phases: Vec<(MemPhase, Counters)>,
}

/// Events of `kind` per input tuple over the whole run.
fn per_tuple(run: &CounterRun, kind: CounterKind) -> f64 {
    let total: u64 = run.phases.iter().map(|(_, row)| row[kind.index()]).sum();
    total as f64 / run.tuples as f64
}

/// Figure 7 / Table 4 — per-phase hardware-counter profile of the three
/// join implementations, from *measured* PMU counters (§5.2.2, §6).
///
/// The paper samples LLC and TLB misses with Intel PCM to explain when
/// partitioning pays off: the non-partitioned join misses LLC on almost
/// every probe once the hash table outgrows the cache, while the radix join
/// trades those misses for partitioning passes. For each build size and
/// algorithm this runs the paper's `sum(p1)` micro-join with counters on,
/// reports per-phase cycles / LLC misses / dTLB misses plus misses per
/// tuple, then derives a Table-4-style regime table from the measured
/// misses. Where `perf_event_open` is unavailable (containers,
/// `perf_event_paranoid >= 2`, `JOINSTUDY_NO_PMU=1`) the sweep still runs
/// and `results/fig07_counters.json` says `"pmu_available": false`.
pub fn fig07(r: &mut Report, p: &Params) {
    let (threads, ratio, available) = (p.threads(), p.get::<usize>("ratio"), p.host.pmu);
    // --quick trims the sweep for CI (the artifact still covers all three
    // cache regimes relative to a typical LLC at the small sizes).
    let build_sizes: &[usize] = match p.switch("quick") {
        true => &[1 << 13, 1 << 16, 1 << 19],
        false => &[1 << 14, 1 << 17, 1 << 20, 1 << 22],
    };
    let level = pmu::paranoid_level().map(|l| l.to_string());
    let shown_level = r.m(level.as_deref().unwrap_or("?"));
    let unavailable = format!(
        "UNAVAILABLE (perf_event_paranoid {shown_level}) — running for the record, all counters \
         will read 0"
    );
    let state = if available { "available" } else { &unavailable };
    let workload = format!("probe = {ratio}x build, {threads} thread(s)");
    p.banner(r, &format!("sum(p1) micro-join, {workload}; PMU {state}"));

    pmu::set_enabled(available);
    let mut runs: Vec<CounterRun> = Vec::new();
    for &build_n in build_sizes {
        let m = tables(build_n, ratio * build_n, Int64, 1, UniformFk, 7);
        for algo in [Bhj, Rj, Brj] {
            let plan = sum_plan(&m, algo, 1, false);
            let wall_ms = accounted_run(&engine(threads, false), &plan) * 1e3;
            let (tuples, phases) = (m.total_tuples(), pmu_phases());
            runs.push(CounterRun {
                algo,
                build_n,
                tuples,
                wall_ms,
                phases,
            });
        }
    }
    pmu::set_enabled(false);

    // Figure 7: per-phase counter table.
    let count = |title| Col::val(title, "", 10, Si);
    let cols = [
        Col::key("algo", "", -5, Plain),
        Col::key("build", "", 9, Si),
        Col::key("phase", "", -18, Plain),
        count("cycles"),
        count("instr"),
        count("llc_miss"),
        count("dtlb_miss"),
        Col::val("llc_miss/t", "", 12, Fixed(3, 3, "")),
    ];
    let mut per_phase = r.table("", &cols);
    r.line("");
    per_phase.header(r);
    for run in &runs {
        for (phase, row) in &run.phases {
            let [cycles, instr, llc, tlb] = counter_cells(row);
            let misses = row[CounterKind::LlcMisses.index()] as f64 / run.tuples as f64;
            let (algo, build, phase) = (run.algo.name(), run.build_n, phase.name());
            row!(per_phase, r, algo, build, phase, cycles, instr, llc, tlb, misses);
        }
    }
    if !available {
        r.line("  (no rows: PMU unavailable, every counter read 0)");
    }

    // Table 4: regimes from measured misses per tuple.
    let llc = p.host.llc_bytes;
    let by = if available {
        "LLC misses/tuple"
    } else {
        "wall time"
    };
    let heading = format!("LLC ≈ {} MiB; winner by measured {by}", llc >> 20);
    r.line(format!("\nTable-4-style regimes ({heading}):"));
    let miss = |title| Col::val(title, "", 12, Fixed(3, 3, ""));
    let cols = [
        Col::key("build", "", 9, Si),
        Col::key("ht_bytes", "", 12, Si),
        miss("BHJ miss/t"),
        miss("RJ miss/t"),
        miss("BRJ miss/t"),
        Col::val("winner", "", 7, Plain),
        Col::key("regime", "", -6, Plain),
    ];
    let mut regimes = r.table("", &cols);
    regimes.header(r);
    let mut regime_json: Vec<String> = Vec::new();
    for group in runs.chunks(3) {
        let build_n = group[0].build_n;
        let misses = |run: &CounterRun| per_tuple(run, CounterKind::LlcMisses);
        let score = |run: &&CounterRun| if available { misses(run) } else { run.wall_ms };
        let best = group.iter().min_by(|a, b| score(a).total_cmp(&score(b)));
        let winner = best.map_or("-", |run| run.algo.name());
        // ~16 B per build tuple materialized into the hash table.
        let ht_bytes = build_n * 16;
        let regime = match ht_bytes <= llc {
            true => "cache-resident build: don't partition",
            false => "build exceeds LLC: partitioning amortizes",
        };
        let [bhj, rj, brj] = [0, 1, 2].map(|i| misses(&group[i]));
        row!(regimes, r, build_n, ht_bytes, bhj, rj, brj, winner, regime);
        let winner = r.m(winner);
        regime_json.push(format!(
            "    {{\"build_n\": {build_n}, \"ht_bytes\": {ht_bytes}, \"winner\": \"{winner}\", \
             \"regime\": \"{regime}\"}}"
        ));
    }

    // JSON artifact.
    let phase_json = |(phase, row): &(MemPhase, Counters)| {
        let kinds = CounterKind::ALL.map(|k| format!("\"{}\": {}", k.slug(), row[k.index()]));
        format!("\"{}\": {{{}}}", phase.slug(), kinds.join(", "))
    };
    let run_json = |run: &CounterRun| {
        let (algo, build_n, probe_n) = (run.algo.name(), run.build_n, run.tuples - run.build_n);
        let phases: Vec<String> = run.phases.iter().map(phase_json).collect();
        let (wall_ms, phases) = (r.m(format!("{:.3}", run.wall_ms)), r.m(phases.join(", ")));
        let per_tuple = |kind| r.m(format!("{:.4}", per_tuple(run, kind)));
        let llc = per_tuple(CounterKind::LlcMisses);
        let tlb = per_tuple(CounterKind::DtlbMisses);
        format!(
            "    {{\"algo\": \"{algo}\", \"build_n\": {build_n}, \"probe_n\": {probe_n}, \
             \"wall_ms\": {wall_ms}, \"llc_miss_per_tuple\": {llc}, \
             \"dtlb_miss_per_tuple\": {tlb}, \"phases\": {{{phases}}}}}"
        )
    };
    let run_json: Vec<String> = runs.iter().map(run_json).collect();
    let (run_json, regime_json) = (run_json.join(",\n"), regime_json.join(",\n"));
    let level = r.m(level.as_deref().unwrap_or("null"));
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"pmu_available\": {available},\n  \
         \"perf_event_paranoid\": {level},\n  \
         \"workload\": {{\"ratio\": {ratio}, \"threads\": {threads}}},\n  \
         \"runs\": [\n{run_json}\n  ],\n  \"regimes\": [\n{regime_json}\n  ]\n}}\n"
    );
    let path = r.write_file("fig07_counters.json", &json);
    r.line(format!(
        "\nJSON: {path}\nPaper shape: once the build side outgrows the LLC the BHJ pays one miss \
         per probe while the radix join keeps misses/tuple flat, which is exactly the Table 4 \
         partition/don't-partition boundary."
    ));
}

/// §5.4.1 point: Workload A′ with `pct`% of probe tuples finding a partner
/// (cardinality constant) → [BRJ, BHJ, RJ, adaptive BRJ].
fn selectivity(p: &Params, n: usize, probe_n: usize, pct: u64) -> [f64; 4] {
    let keys = Selectivity(pct as f64 / 100.0);
    let m = tables(n, probe_n, Int64, 0, keys, 42 + pct);
    let [brj, bhj, rj] = count_series(p, &m, [Brj, Bhj, Rj]);
    let adaptive = engine(p.threads(), true);
    let [adpt] = series(&adaptive, &m, p.reps(), [count_plan(&m, Brj)]);
    [brj, bhj, rj, adpt]
}

/// Figure 14 — effect of foreign-key selectivity on BRJ / BHJ / RJ /
/// adaptive BRJ (§5.4.1). Expected shape: BRJ clearly ahead of RJ at low
/// selectivity (up to ~50%), RJ overtaking BRJ once most probes match; the
/// adaptive BRJ tracks the winner with a small sampling overhead.
pub fn fig14(r: &mut Report, p: &Params) {
    let n: usize = p.get("build");
    let (probe_n, run) = (p.probe(n, 16), p.run_line());
    let sizes = format!("{n} build x {probe_n} probe tuples, 8B key/pay");
    p.banner(r, &format!("Workload A' ({sizes}), {run}"));
    let cols = [
        Col::key("partners[%]", "join_partners_pct", 12, Plain),
        rate("BRJ[T/s]", "brj_tps"),
        rate("BHJ[T/s]", "bhj_tps"),
        rate("RJ[T/s]", "rj_tps"),
        Col::val("BRJ adpt[T/s]", "brj_adaptive_tps", 14, Si),
    ];
    let mut t = r.table("fig14_selectivity", &cols);
    t.header(r);
    for pct in [0, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let [brj, bhj, rj, adpt] = selectivity(p, n, probe_n, pct);
        row!(t, r, pct, brj, bhj, rj, adpt);
    }
    let note = "Paper shape: BRJ up to ~50% faster than RJ at low selectivity; RJ overtakes BRJ \
                above ~50% join partners; adaptive BRJ switches off (≤10% overhead) near 100%.";
    r.footer(&t, note);
}

/// §5.4.2 point: Workload A at 100% selectivity with `cols` extra 8 B probe
/// columns, early or late materialized → [BHJ, RJ].
fn payload(p: &Params, n: usize, probe_n: usize, cols: usize, lm: bool) -> [f64; 2] {
    let m = tables(n, probe_n, Int64, cols, UniformFk, 7 + cols as u64);
    let plans = [Bhj, Rj].map(|algo| match cols {
        0 => count_plan(&m, algo),
        _ => sum_plan(&m, algo, cols, lm),
    });
    series(&engine(p.threads(), false), &m, p.reps(), plans)
}

/// Figure 15 — effect of probe payload size on RJ vs BHJ, with and without
/// late materialization (§5.4.2). The probe tuple grows by 8 B columns
/// (16 B → 80 B materialized; the SWWCB power-of-two padding steps show in
/// the RJ line). Expected shape: RJ degrades steeply with width
/// (bandwidth-bound materialization) while BHJ stays nearly flat
/// (latency-bound), crossover near 32 B; LM hurts at 100% selectivity.
pub fn fig15(r: &mut Report, p: &Params) {
    let n: usize = p.get("build");
    let (probe_n, run) = (p.probe(n, 16), p.run_line());
    let sizes = format!("{n} build x {probe_n} probe), payload 0..8 columns");
    p.banner(r, &format!("Workload A2' ({sizes}, {run}"));
    let cols = [
        Col::key("width[B]", "probe_width_bytes", 10, Plain),
        rate("BHJ[T/s]", "bhj_tps"),
        rate("BHJ LM[T/s]", "bhj_lm_tps"),
        rate("RJ[T/s]", "rj_tps"),
        rate("RJ LM[T/s]", "rj_lm_tps"),
    ];
    let mut t = r.table("fig15_payload", &cols);
    t.header(r);
    for cols in 0..=8usize {
        let [bhj, rj] = payload(p, n, probe_n, cols, false);
        // LM is meaningless without payload columns; report the EM number.
        let [bhj_lm, rj_lm] = match cols {
            0 => [bhj, rj],
            _ => payload(p, n, probe_n, cols, true),
        };
        // Materialized probe width: 8 B hash + 8 B key + 8 B per payload.
        row!(t, r, 16 + 8 * cols, bhj, bhj_lm, rj, rj_lm);
    }
    let note = "Paper shape: RJ degrades ~7x over the width range while BHJ stays flat; RJ loses \
                its advantage beyond 32 B tuples; LM strictly hurts at 100% selectivity.";
    r.footer(&t, note);
}

/// §5.4.4 point: a star query chaining `depth` joins over one fact table at
/// 100% selectivity → per-join tuples/s of [BHJ, RJ]. Each of the `depth`
/// joins processes all fact tuples, so constant ⇔ runtime linear in depth.
fn pipeline(p: &Params, dim_n: usize, fact_n: usize, depth: usize) -> [f64; 2] {
    let star = star_schema(depth, dim_n, fact_n, 99 + depth as u64);
    let e = engine(p.threads(), false);
    [Bhj, Rj].map(|algo| {
        let plan = star_plan(&star, algo);
        let (d, result) = measure(p.reps(), || e.run(&plan));
        let joined = result.column(0).as_i64()[0] as usize;
        assert_eq!(joined, fact_n, "lost tuples");
        throughput(fact_n * depth, d)
    })
}

/// Figure 16 — effect of pipeline depth (§5.4.4). The BHJ passes tuples
/// through all joins in one pipeline (per-join throughput stays constant);
/// every RJ in the chain breaks the pipeline and re-materializes a tuple
/// that grows by one payload column per level, so its per-join throughput
/// decays with depth.
pub fn fig16(r: &mut Report, p: &Params) {
    let (dim_n, fact_n): (usize, usize) = (p.get("dim"), p.get("fact"));
    let (depths, run) = (p.get::<usize>("depth"), p.run_line());
    let sizes = format!("{dim_n} rows per dimension, {fact_n} fact rows");
    let detail = format!("Workload A3' ({sizes}), depth 1..{depths}, {run}");
    p.banner(r, &detail);
    let cols = [
        Col::key("depth", "depth", 7, Plain),
        Col::val("BHJ[T/s/join]", "bhj_tps_per_join", 16, Si),
        Col::val("RJ[T/s/join]", "rj_tps_per_join", 16, Si),
    ];
    let mut t = r.table("fig16_pipeline", &cols);
    t.header(r);
    for depth in 1..=depths {
        let [bhj, rj] = pipeline(p, dim_n, fact_n, depth);
        row!(t, r, depth, bhj, rj);
    }
    let note = "Paper shape: BHJ per-join throughput ~constant with depth; RJ decreases \
                proportionally (materialization overhead accumulates).";
    r.footer(&t, note);
}

/// §5.4.5 point: probe keys Zipf(`step`/4) over the build domain → in-system
/// [BHJ, RJ].
fn skew(p: &Params, n: usize, probe_n: usize, key_type: DataType, step: u64) -> [f64; 2] {
    let keys = Zipf(step as f64 * 0.25);
    let m = tables(n, probe_n, key_type, 0, keys, 1000 + step);
    count_series(p, &m, [Bhj, Rj])
}

/// The stand-alone pair on Zipf(`step`/4) probe keys.
fn standalone_zipf<T: JoinTuple>(p: &Params, n: usize, probe_n: usize, step: u64) -> [f64; 2] {
    let mut rng = Rng::new(2000 + step);
    let build = blw::gen_build::<T>(n, &mut rng);
    let probe = blw::gen_probe_zipf::<T>(n, probe_n, step as f64 * 0.25, &mut rng);
    standalone((build, probe), p.threads(), p.reps())
}

/// Figure 17 — effect of Zipf skew, including the stand-alone Balkesen
/// baselines (§5.4.5), z ∈ [0, 2]. Expected shape: NPJ/BHJ *benefit* from
/// skew (hot build tuples become cache-resident) while PRJ/RJ collapse
/// beyond z ≈ 1 (partition sizes and scheduling fall apart).
pub fn fig17(r: &mut Report, p: &Params) {
    let n: usize = p.get("build");
    p.banner(r, &format!("build {n}, {}", p.run_line()));
    let cols = [
        Col::key("", "workload", 0, Plain),
        Col::key("zipf", "zipf", 6, Fixed(2, 2, "")),
        rate("NPJ[T/s]", "npj_tps"),
        rate("BHJ[T/s]", "bhj_tps"),
        rate("PRJ[T/s]", "prj_tps"),
        rate("RJ[T/s]", "rj_tps"),
    ];
    let mut t = r.table("fig17_skew", &cols);
    for (wl, ratio, key_type) in WORKLOADS {
        let probe_n = n * ratio;
        r.line(format!("\nWorkload {wl} ({n} ⋈ {probe_n}):"));
        t.header(r);
        for step in 0..=8u64 {
            let [bhj, rj] = skew(p, n, probe_n, key_type, step);
            let [npj, prj] = match key_type {
                Int64 => standalone_zipf::<Tuple16>(p, n, probe_n, step),
                _ => standalone_zipf::<Tuple8>(p, n, probe_n, step),
            };
            row!(t, r, wl, step as f64 * 0.25, npj, bhj, prj, rj);
        }
    }
    let note = "Paper shape: NPJ/BHJ improve with skew (cache locality); radix joins lose \
                performance for z ≥ 1 (unbalanced partitions), BHJ >5x faster than RJ at z = 2 on \
                workload A.";
    r.footer(&t, note);
}

/// One measured Table 4 point: (x label, [BHJ, best radix variant]).
type Point = (String, [f64; 2]);

/// Table 4 — the workload-characteristic ranges where partitioned joins are
/// *workable* / *beneficial* (§6), synthesised from the §5.4 point functions
/// at a handful of points each: "workable" = best radix variant within 80%
/// of the BHJ, "beneficial" = it beats the BHJ.
pub fn table4(r: &mut Report, p: &Params) {
    let (n, llc) = (p.get::<usize>("build"), p.host.llc_bytes);
    let (run, llc_kib) = (p.run_line(), llc / 1024);
    let detail = format!(
        "derived from compact sweeps (build {n}, {run}); 'workable' = best radix ≥ 80% of BHJ, \
         'beneficial' = best radix ≥ BHJ; host LLC = {llc_kib} KiB"
    );
    p.banner(r, &detail);
    // Foreign-key joins of the given sizes: [BHJ, best of RJ/BRJ].
    let fk = |build_n: usize, probe_n: usize, seed: u64| {
        let m = tables(build_n, probe_n, Int64, 0, UniformFk, seed);
        let [bhj, rj, brj] = count_series(p, &m, [Bhj, Rj, Brj]);
        [bhj, rj.max(brj)]
    };
    let bloomed = |pct: u64| {
        let [brj, bhj, rj, adpt] = selectivity(p, n, 16 * n, pct);
        (format!("{pct}%"), [bhj, rj.max(brj).max(adpt)])
    };
    let wide = |cols: usize| {
        let width = 16 + 8 * cols;
        (format!("{width}B"), payload(p, n, 16 * n, cols, false))
    };
    let deep = |depth: usize| (format!("{depth} joins"), pipeline(p, n / 2, n * 4, depth));
    let skewed = |step: u64| {
        let z = step as f64 * 0.25;
        (format!("z={z:.1}"), skew(p, n, 16 * n, Int64, step))
    };
    // Build size relative to the LLC (16 B build tuples). Virtualized hosts
    // sometimes report absurd LLC sizes; clamp so the sweep stays tractable.
    let sized = |factor: f64| {
        let tuples = llc.min(16 << 20) as f64 * factor / 16.0;
        let build_n = (tuples as usize).max(1024);
        (format!("{factor}xLLC"), fk(build_n, 4 * build_n, 340))
    };
    let lopsided = |ratio: usize| (format!("1:{ratio}"), fk(n, ratio * n, 350));
    let selectivities = [5, 25, 50, 75, 100].map(bloomed).into();
    let widths = [0, 1, 2, 4, 8].map(wide).into();
    let depths = [1, 2, 4, 8].map(deep).into();
    let skews = [0, 2, 4, 6, 8].map(skewed).into();
    let builds = [0.25, 1.0, 4.0, 8.0].map(sized).into();
    let ratios = [1, 10, 50, 100].map(lopsided).into();
    // (factor, paper workable, paper beneficial, measured points).
    let bloom = "handled by Bloom filter";
    let factors: [(&str, &str, &str, Vec<Point>); 6] = [
        ("Selectivity", bloom, bloom, selectivities),
        ("Payload Size", "<= 32B", "<= 16B", widths),
        ("Pipeline Depth", "< 8 joins", "< 2 joins", depths),
        ("Skew (Zipf)", "<= 1", "<= 0.5", skews),
        ("Build Size", "> LLC", ">> LLC", builds),
        ("Size Difference", "< x50", "< x10", ratios),
    ];

    let cols = [
        Col::key("Factor", "factor", -16, Plain),
        Col::val("measured workable", "measured_workable", -26, Plain),
        Col::val("measured beneficial", "measured_beneficial", -26, Plain),
        Col::key("paper workable", "paper_workable", -22, Plain),
        Col::key("paper beneficial", "paper_beneficial", -20, Plain),
    ];
    let mut t = r.table("table4_synthesis", &cols);
    r.line("");
    t.header(r);
    for &(factor, workable, beneficial, ref points) in &factors {
        // First .. last x where the best radix variant reaches `share` of BHJ.
        let range = |share: f64| {
            let reaches = |(_, [bhj, radix]): &&Point| *radix >= bhj * share;
            let mut hits = points.iter().filter(reaches).map(|hit| &hit.0);
            let first = hits.next();
            let ends = first.map(|first| (first, hits.next_back().unwrap_or(first)));
            ends.map_or("none".into(), |(first, last)| format!("{first} .. {last}"))
        };
        row!(t, r, factor, range(0.8), range(1.0), workable, beneficial);
    }
    r.line("\nPer-point detail:");
    for (factor, _, _, points) in &factors {
        r.line(format!("  {factor}:"));
        for (x, [bhj, radix]) in points {
            let ratio = radix / bhj;
            let rates = format!("BHJ {bhj:>10.0} T/s   best radix {radix:>10.0} T/s");
            let detail = r.m(format!("{rates}   ratio {ratio:.2}"));
            r.line(format!("    {x:<10} {detail}"));
        }
    }
    let note = "Note: on a small host the BHJ's cache-resident builds make radix wins rarer than \
                on the paper's 10-core machine — which only sharpens the paper's conclusion.";
    r.footer(&t, note);
}

/// Ablations of the joins' design choices on Workload A′ at 100% join
/// partners (§3.3, §4): software write-combine buffers and non-temporal
/// streaming stores in the radix join, software prefetching in the BHJ, and
/// the adaptive Bloom filter on its worst case (every probe hits). Each
/// variant is compared with the first of its join.
pub fn ablations(r: &mut Report, p: &Params) {
    let n: usize = p.get("build");
    let (probe_n, run) = (p.probe(n, 16), p.run_line());
    let sizes = format!("{n} build x {probe_n} probe tuples, 8B key/pay");
    p.banner(r, &format!("{sizes}, 100% join partners, {run}"));
    let cols = [
        Col::key("join", "join", -5, Plain),
        Col::key("variant", "variant", -12, Plain),
        rate("tput[T/s]", "tps"),
        Col::val("vs first", "vs_first_pct", 10, Fixed(1, 1, "%")),
    ];
    let mut t = r.table("ablations", &cols);
    t.header(r);
    type Configure = fn(&mut Engine);
    let no_swwcb: Configure = |e| {
        e.radix.use_swwcb = false;
        e.radix.use_nt_stores = false;
    };
    let variants: [(JoinAlgo, &str, Configure); 7] = [
        (Rj, "swwcb+nt", |_| {}),
        (Rj, "no_nt", |e| e.radix.use_nt_stores = false),
        (Rj, "no_swwcb", no_swwcb),
        (Bhj, "prefetch", |e| e.bhj_prefetch = true),
        (Bhj, "no_prefetch", |e| e.bhj_prefetch = false),
        (Brj, "static", |e| e.adaptive_bloom = false),
        (Brj, "adaptive", |e| e.adaptive_bloom = true),
    ];
    let m = tables(n, probe_n, Int64, 0, UniformFk, 11);
    let mut first: Option<(JoinAlgo, f64)> = None;
    for (algo, variant, configure) in variants {
        let mut e = Engine::new(p.threads());
        configure(&mut e);
        let [tps] = series(&e, &m, p.reps(), [count_plan(&m, algo)]);
        let base = match first {
            Some((join, base)) if join == algo => base,
            _ => first.insert((algo, tps)).1,
        };
        row!(t, r, algo.name(), variant, tps, (tps / base - 1.0) * 100.0);
    }
    let note = "Expected: write-combining is what makes two-pass partitioning affordable \
                (no_swwcb is the slowest RJ); non-temporal stores only pay off under multi-core \
                bandwidth contention; prefetching hides part of the BHJ's probe latency once the \
                table outgrows the cache; the adaptive filter switches itself off when every probe \
                hits, so it should not trail the static one.";
    r.footer(&t, note);
}
