//! One benchmark run: set-up, rounds, metrics, output.
//!
//! Work is fixed: a round is one pass per algorithm over the workload's
//! query list, plus the latency phase where there is one, and a run measures
//! a number of rounds that depends on the workload and on `--seconds` only,
//! never on how fast the rounds went. Every timed figure is a median over
//! rounds (`setup_s`: over three set-ups); percentiles are over the
//! latencies of all rounds pooled where there are enough of them. End-to-end
//! numbers always come from untraced rounds; `--trace 1` alternates untraced
//! rounds with the same rounds under spans, profiles and byte accounting,
//! then runs the kernel loops.

use crate::fold::LayerAcc;
use crate::json::Json;
use crate::manifest::{manifest, Metric};
use crate::span::Tracer;
use crate::stats::{median, percentile_sorted};
use crate::workload::{algo_key, Mode, PassObs, Workload, ALGOS};
use crate::{host, kernels, workload};
use joinstudy_core::JoinAlgo;
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::registry;
use std::path::PathBuf;
use std::time::Instant;

/// Seed whose generator output `expected.json` pins (at scale 1).
pub const PINNED_SEED: u64 = 42;
const EXPECTED: &str = include_str!("../expected.json");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1.0 for benchmark runs; smoke tests shrink the inputs.
    pub scale: f64,
    /// Where the span file and spill files go (inside the checkout).
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    /// `(name, value)` for every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run), in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host fingerprint and workload facts.
    pub header: Json,
    /// Human-readable findings (regime flags, pinned-value mismatches).
    pub warnings: Vec<String>,
}

impl Outcome {
    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = manifest().unit_of(name).unwrap_or("");
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// One pass as the runner saw it.
#[derive(Default, Clone)]
struct PassResult {
    /// The pass's own wall time: the sum of its operations, or the wall of
    /// its concurrent clients.
    wall_s: f64,
    /// Wall and CPU time around the whole call, checks included.
    outer_s: f64,
    cpu_s: f64,
    lat_ms: Vec<f64>,
    layers: LayerAcc,
    partition_write_bytes: u64,
    source_rows: u64,
}

struct Round {
    /// Indexed like [`ALGOS`].
    passes: Vec<PassResult>,
    latency_wall_s: f64,
    latency_ms: Vec<f64>,
}

impl Round {
    fn pass(&self, algo: JoinAlgo) -> &PassResult {
        let i = ALGOS
            .iter()
            .position(|a| *a == algo)
            .expect("a known algorithm");
        &self.passes[i]
    }

    fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum::<f64>() + self.latency_wall_s
    }
}

#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
}

fn run_pass(
    wl: &mut dyn Workload,
    algo: JoinAlgo,
    mode: Mode,
    tracer: &mut Tracer,
    totals: &mut Totals,
) -> PassResult {
    let traced = mode == Mode::Layers { traced: true };
    if traced {
        metrics::reset();
        metrics::take_source_rows();
    }
    let (t0, cpu0) = (Instant::now(), host::process_cpu_s());
    let op = tracer.next_op();
    // A no-op when the tracer is off; otherwise the pass's operations nest
    // under one span per pass.
    let (wall_s, obs) = tracer.scope(&format!("pass.{}", algo_key(algo)), op, |tracer| {
        let mut obs = PassObs::new(tracer);
        let wall_s = wl.pass(algo, mode, &mut obs);
        (wall_s, (obs.lat_ms, obs.attempted, obs.failed, obs.layers))
    });
    let (lat_ms, attempted, failed, layers) = obs;
    let outer_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    totals.attempted += attempted;
    totals.failed += failed;
    let mut result = PassResult {
        wall_s,
        outer_s,
        cpu_s,
        lat_ms,
        layers,
        ..PassResult::default()
    };
    if traced {
        result.partition_write_bytes = metrics::snapshot()
            .iter()
            .filter(|(phase, _, _)| {
                matches!(
                    phase,
                    MemPhase::Build | MemPhase::PartitionPass1 | MemPhase::PartitionPass2
                )
            })
            .map(|(_, _, written)| written)
            .sum();
        result.source_rows = metrics::take_source_rows();
    }
    result
}

/// One pass per algorithm, then the latency phase where there is one.
fn run_round(wl: &mut dyn Workload, mode: Mode, tracer: &mut Tracer, totals: &mut Totals) -> Round {
    let passes = ALGOS
        .iter()
        .map(|&algo| run_pass(wl, algo, mode, tracer, totals))
        .collect();
    let mut round = Round {
        passes,
        latency_wall_s: 0.0,
        latency_ms: Vec::new(),
    };
    if mode == Mode::EndToEnd {
        let mut obs = PassObs::new(tracer);
        round.latency_wall_s = wl.latency_phase(&mut obs);
        totals.attempted += obs.attempted;
        totals.failed += obs.failed;
        round.latency_ms = obs.lat_ms;
    }
    round
}

/// Rounds a run of `seconds` measures: the workload's count for a standard
/// run, scaled with the run length. The work depends on nothing measured,
/// so a faster program does not get more rounds.
fn rounds_for(workload: &str, seconds: f64) -> usize {
    let share = seconds / manifest().run_seconds;
    ((workload::standard_rounds(workload) as f64 * share).round() as usize).max(1)
}

/// Every untraced round's values, for the header: how steady the run was
/// inside, which the medians alone do not show.
fn pass_walls(rounds: &[Round]) -> Json {
    let per_round =
        |f: &dyn Fn(&Round) -> f64| Json::Arr(rounds.iter().map(|r| Json::Num(f(r))).collect());
    let mut fields: Vec<(String, Json)> = ALGOS
        .iter()
        .map(|&algo| {
            (
                format!("{}_s", algo_key(algo)),
                per_round(&|r| r.pass(algo).wall_s),
            )
        })
        .collect();
    fields.push(("qps".into(), per_round(&qps)));
    Json::Obj(fields)
}

fn over_rounds(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// One round's operations under the default algorithm (the adaptive pass
/// and, where the workload has one, its latency phase): their latencies
/// and the wall time they took.
fn default_ops(round: &Round) -> (Vec<f64>, f64) {
    let adaptive = round.pass(JoinAlgo::Adaptive);
    let mut lat = adaptive.lat_ms.clone();
    lat.extend(&round.latency_ms);
    (lat, adaptive.wall_s + round.latency_wall_s)
}

fn qps(round: &Round) -> f64 {
    let (lat, wall_s) = default_ops(round);
    lat.len() as f64 / wall_s
}

/// Samples that must lie beyond a percentile for the pooled latencies to
/// give it (choosing-metrics asks for ten).
const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of the default-algorithm latencies: over all
/// rounds pooled, so that a stall in one round stays in the tail it belongs
/// to, when at least [`MIN_BEYOND`] samples lie beyond it; else the median
/// over rounds of each round's own. With fewer samples the pooled figure is
/// the run's one or two slowest operations, which on a shared host is the
/// neighbours' doing, not the program's.
fn latency_percentile(rounds: &[Round], p: f64) -> f64 {
    let sorted = |mut lat: Vec<f64>| {
        lat.sort_by(f64::total_cmp);
        lat
    };
    let per_round: Vec<Vec<f64>> = rounds.iter().map(|r| sorted(default_ops(r).0)).collect();
    let pooled = sorted(per_round.concat());
    if pooled.len() as f64 * (1.0 - p) >= MIN_BEYOND {
        percentile_sorted(&pooled, p)
    } else {
        let each: Vec<f64> = per_round.iter().map(|l| percentile_sorted(l, p)).collect();
        median(&each)
    }
}

fn end_to_end(setup_s: f64, rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let pass_s = |algo| over_rounds(rounds, |r| r.pass(algo).wall_s);
    vec![
        ("setup_s", setup_s),
        ("bhj_s", pass_s(JoinAlgo::Bhj)),
        ("rj_s", pass_s(JoinAlgo::Rj)),
        ("brj_s", pass_s(JoinAlgo::Brj)),
        ("adaptive_s", pass_s(JoinAlgo::Adaptive)),
        ("hybrid_s", pass_s(JoinAlgo::Hybrid)),
        ("qps", over_rounds(rounds, qps)),
        ("p50_ms", latency_percentile(rounds, 0.50)),
        ("p99_ms", latency_percentile(rounds, 0.99)),
        ("peak_rss_mib", host::peak_rss_mib()),
    ]
}

/// `values` in the manifest's order; a metric the manifest names and the
/// run did not measure is an error, not a gap.
fn in_manifest_order(
    values: &[(&'static str, f64)],
    declared: &[Metric],
) -> Result<Vec<(&'static str, f64)>, String> {
    declared
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(name, _)| *name == m.name)
                .copied()
                .ok_or_else(|| format!("no value measured for {}", m.name))
        })
        .collect()
}

fn simd_calls() -> (f64, f64) {
    let (mut avx2, mut scalar) = (0.0, 0.0);
    for (name, value) in registry::global().snapshot() {
        if name.starts_with("simd.") {
            if name.ends_with(".avx2") {
                avx2 += value;
            } else if name.ends_with(".scalar") {
                scalar += value;
            }
        }
    }
    (avx2, scalar)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The profile-derived per-layer metrics (source **P** in the README).
fn profile_layers(
    untraced: &[Round],
    traced: &[Round],
    threads: usize,
    simd_before: (f64, f64),
) -> Vec<(&'static str, f64)> {
    const MIB: f64 = (1 << 20) as f64;
    let layer = |algo, f: &dyn Fn(&PassResult) -> f64| over_rounds(traced, |r| f(r.pass(algo)));
    let busy = |algo, f: &dyn Fn(&LayerAcc) -> u64| layer(algo, &|p| f(&p.layers) as f64 / 1e9);
    let pass_s = |algo| over_rounds(untraced, |r| r.pass(algo).wall_s);
    let best_fixed = [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj]
        .into_iter()
        .map(pass_s)
        .fold(f64::INFINITY, f64::min);
    let (cpu, capacity) = untraced
        .iter()
        .flat_map(|r| &r.passes)
        .fold((0.0, 0.0), |(c, w), p| {
            (c + p.cpu_s, w + p.outer_s * threads as f64)
        });
    let (avx2, scalar) = simd_calls();
    let (avx2, scalar) = (avx2 - simd_before.0, scalar - simd_before.1);
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(plain, spans)| (spans.wall_s() - plain.wall_s()) / plain.wall_s())
        .collect();
    use JoinAlgo::{Adaptive, Bhj, Brj, Hybrid, Rj};
    vec![
        (
            "tpch.queries.plan_build_ms",
            layer(Adaptive, &|p| p.layers.plan_build_ns as f64 / 1e6),
        ),
        ("exec.scan.busy_s", busy(Adaptive, &|l| l.scan_ns)),
        (
            "exec.filter_map.busy_s",
            busy(Adaptive, &|l| l.filter_map_ns),
        ),
        ("exec.aggregate.busy_s", busy(Adaptive, &|l| l.aggregate_ns)),
        ("exec.sort.busy_s", busy(Adaptive, &|l| l.sort_ns)),
        (
            "core.radix.write_bytes_per_tuple",
            layer(Rj, &|p| {
                ratio(p.partition_write_bytes as f64, p.source_rows as f64)
            }),
        ),
        (
            "core.bloom.false_pass_ratio",
            layer(Brj, &|p| {
                ratio(p.layers.bloom_false as f64, p.layers.bloom_probed as f64)
            }),
        ),
        ("core.bhj.join_busy_s", busy(Bhj, &|l| l.join_ns)),
        ("core.rj.join_busy_s", busy(Rj, &|l| l.join_ns)),
        ("core.brj.join_busy_s", busy(Brj, &|l| l.join_ns)),
        ("core.hybrid.join_busy_s", busy(Hybrid, &|l| l.join_ns)),
        (
            "core.hybrid.spilled_partitions",
            layer(Hybrid, &|p| p.layers.spilled_partitions as f64),
        ),
        (
            "core.spill.write_mib",
            layer(Hybrid, &|p| p.layers.spill_write_bytes as f64 / MIB),
        ),
        (
            "core.spill.read_mib",
            layer(Hybrid, &|p| p.layers.spill_read_bytes as f64 / MIB),
        ),
        ("core.spill.io_s", busy(Hybrid, &|l| l.spill_io_ns)),
        (
            "core.context.budget_peak_mib",
            layer(Hybrid, &|p| p.layers.budget_peak_bytes as f64 / MIB),
        ),
        ("core.adaptive.regret", pass_s(Adaptive) / best_fixed),
        (
            "core.plan.degradations",
            over_rounds(traced, |r| {
                r.passes.iter().map(|p| p.layers.degradations as f64).sum()
            }),
        ),
        ("core.simd.avx2_calls_frac", ratio(avx2, avx2 + scalar)),
        ("trace.unaccounted_frac", 1.0 - ratio(cpu, capacity)),
        ("trace.overhead_frac", median(&overhead)),
    ]
}

/// How `wl`'s pinned values differ from what `expected.json` holds for the
/// workload `name`; empty when they agree. Meaningful only for a workload
/// set up with [`PINNED_SEED`] at scale 1.
pub fn pinned_mismatches(name: &str, wl: &mut dyn Workload) -> Vec<String> {
    let expected = crate::json::parse(EXPECTED).expect("expected.json is valid JSON");
    let Some(expected) = expected.get(name) else {
        return vec![format!("expected.json pins nothing for {name}")];
    };
    let got = wl.pinned();
    expected
        .as_object()
        .iter()
        .filter(|(key, want)| got.get(key) != Some(want))
        .map(|(key, want)| {
            format!(
                "pinned value {key}: expected {}, got {}",
                want.render(),
                got.get(key).map_or("nothing".into(), Json::render)
            )
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let threads = host::threads();
    // Spill files of every engine in this process (the server's sessions
    // included) go under the run's own directory, never the system's.
    let spill_dir = cfg.out_dir.join("spill");
    std::env::set_var("JOINSTUDY_SPILL_DIR", &spill_dir);

    let timed_setup = || -> Result<(f64, Box<dyn Workload>), String> {
        let t0 = Instant::now();
        let wl = workload::setup(&cfg.workload, cfg.seed, cfg.scale, threads)?;
        Ok((t0.elapsed().as_secs_f64(), wl))
    };
    let (first_setup_s, mut wl) = timed_setup()?;

    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    // One unmeasured pass: first touch of the inputs, lazy initialisation
    // (calibration file, SIMD dispatch), and the BHJ reference results.
    run_pass(
        wl.as_mut(),
        JoinAlgo::Bhj,
        Mode::EndToEnd,
        &mut tracer,
        &mut totals,
    );

    let rounds = rounds_for(&cfg.workload, cfg.seconds);
    let (metrics, rounds, pass_walls) = if !cfg.trace {
        let rounds: Vec<Round> = (0..rounds)
            .map(|_| run_round(wl.as_mut(), Mode::EndToEnd, &mut tracer, &mut totals))
            .collect();
        let values = end_to_end(first_setup_s, &rounds);
        (
            in_manifest_order(&values, &manifest().end_to_end)?,
            rounds.len(),
            pass_walls(&rounds),
        )
    } else {
        // Half the rounds, each once untraced and once traced, so drift in
        // the host hits both alike; then the kernel loops.
        let simd_before = simd_calls();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..(rounds / 2).max(1) {
            let plain = Mode::Layers { traced: false };
            untraced.push(run_round(wl.as_mut(), plain, &mut tracer, &mut totals));
            tracer.set_enabled(true);
            metrics::set_enabled(true);
            let spans = Mode::Layers { traced: true };
            traced.push(run_round(wl.as_mut(), spans, &mut tracer, &mut totals));
            metrics::set_enabled(false);
            tracer.set_enabled(false);
        }
        tracer.set_enabled(true);
        let mut values = profile_layers(&untraced, &traced, threads, simd_before);
        let inputs = kernels::KernelInputs {
            seed: cfg.seed,
            scale: cfg.scale,
            threads,
            tpch: wl.tpch(),
        };
        values.extend(kernels::run_all(&inputs, &mut tracer)?);
        tracer.set_enabled(false);
        (
            in_manifest_order(&values, &manifest().per_layer)?,
            traced.len(),
            pass_walls(&untraced),
        )
    };

    // A generator whose output changed fails the run instead of silently
    // shifting the baseline: each mismatch counts as a failed operation.
    let mut warnings = Vec::new();
    if cfg.seed == PINNED_SEED && cfg.scale == 1.0 {
        warnings = pinned_mismatches(&cfg.workload, wl.as_mut());
        totals.attempted += warnings.len() as u64;
        totals.failed += warnings.len() as u64;
    }

    let notes = wl.notes();
    if notes
        .iter()
        .any(|(k, v)| *k == "regime_holds" && *v == Json::Bool(false))
    {
        warnings.push(
            "the BHJ table is under 2x the LLC size this host reports: the workload may \
             be outside the regime it was chosen for (compare rj_s with bhj_s)"
                .into(),
        );
    }
    drop(wl);

    // The remaining set-ups come after the measurement, so that peak RSS
    // (read above) never includes what an earlier set-up left behind.
    // Set-up time is an end-to-end metric only; a traced run sets up once.
    let mut metrics = metrics;
    if !cfg.trace {
        let mut setup_s = vec![first_setup_s];
        for _ in 1..SETUPS {
            setup_s.push(timed_setup()?.0);
        }
        let slot = metrics.iter_mut().find(|(name, _)| *name == "setup_s");
        slot.expect("setup_s is an end-to-end metric").1 = median(&setup_s);
    }

    if cfg.trace {
        std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
        let path = cfg.out_dir.join(format!("{}.trace.json", cfg.workload));
        let doc = Json::obj(vec![
            ("workload", Json::Str(cfg.workload.clone())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("spans", tracer.to_json()),
        ]);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Every spill directory removes itself; the parent is ours to remove.
    std::fs::remove_dir(&spill_dir).ok();

    let header = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("scale", Json::Num(cfg.scale)),
        ("rounds", Json::Num(rounds as f64)),
        ("per_round", pass_walls),
        ("host", host::fingerprint()),
        ("inputs", Json::obj(notes)),
        (
            "top_self_time",
            Json::Arr(
                tracer
                    .self_time_by_name()
                    .into_iter()
                    .take(8)
                    .map(|(name, ns, calls)| {
                        Json::obj(vec![
                            ("span", Json::Str(name)),
                            ("self_s", Json::Num(ns as f64 / 1e9)),
                            ("calls", Json::Num(calls as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        rounds,
        metrics,
        header,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round whose only default-algorithm operations are `latency_ms`.
    fn round(latency_ms: Vec<f64>) -> Round {
        Round {
            passes: vec![PassResult::default(); ALGOS.len()],
            latency_wall_s: 1.0,
            latency_ms,
        }
    }

    #[test]
    fn percentiles_pool_only_with_ten_samples_beyond() {
        // 2 x 600 samples, 12 beyond p99: pooled, so the stalled round's
        // tail is the run's tail.
        let calm: Vec<f64> = (0..600).map(|i| 1.0 + i as f64 / 600.0).collect();
        let stalled: Vec<f64> = calm.iter().map(|l| l * 10.0).collect();
        let rounds = [round(calm.clone()), round(stalled)];
        assert!(latency_percentile(&rounds, 0.99) > 19.0);
        // 3 x 20 samples, none to speak of beyond p99: the median over
        // rounds of each round's slowest, whatever one round's outlier.
        let mut spiked = calm[..20].to_vec();
        spiked[19] = 100.0;
        let few = [
            round(calm[..20].to_vec()),
            round(spiked),
            round(calm[..20].to_vec()),
        ];
        assert_eq!(latency_percentile(&few, 0.99), calm[19]);
        assert_eq!(latency_percentile(&few, 0.50), calm[10]);
    }
}
