//! The Table-4 regime cost model: "to partition, or not to partition",
//! answered at plan time.
//!
//! The paper's synthesis (Table 4) reduces the BHJ/RJ/BRJ choice to a few
//! workload characteristics: does the build-side hash table fit in the
//! last-level cache, how many probe tuples amortize each partitioned build
//! tuple, and how many probe tuples the Bloom reducer can drop. This module
//! turns that decision surface into an explicit, calibrated cost model:
//!
//! * [`Calibration`] holds per-tuple costs (nanoseconds) for every
//!   primitive the three joins are made of, plus the LLC size. Defaults are
//!   documented below; the bench crate's `repro calibrate` row measures the
//!   host and writes `results/calibration_fit.json`, which
//!   [`Calibration::global`] picks up when `JOINSTUDY_CALIBRATION` names it
//!   or once it is copied to `results/calibration.json`.
//! * [`CostModel::decide`] evaluates the three contenders on a
//!   [`JoinEstimate`] and returns a [`Decision`] carrying the chosen
//!   algorithm, all three modeled costs, and a human-readable "why" that
//!   EXPLAIN ANALYZE surfaces per join node.
//!
//! # Model
//!
//! Let `B`/`P` be build/probe cardinalities, `w_b`/`w_p` the materialized
//! row widths, `H = B · (w_b + HT_OVERHEAD)` the hash-table footprint and
//! `m(H) ∈ [0, 1]` the cache-miss ramp (0 while `H ≤ LLC`, saturating at
//! `ramp_llc_multiple` LLCs — the paper's Figure 7 shape, piecewise linear
//! so costs stay piecewise linear in `B`):
//!
//! ```text
//! BHJ = B·lerp(build_hit, build_miss, m) + P·lerp(probe_hit, probe_miss, m)
//! RJ  = part(B, w_b) + part(P, w_p) + B·rh_build + P·rh_probe
//! BRJ = part(B, w_b) + B·(rh_build + bloom_build) + P·bloom_probe
//!       + σ·(part(P, w_p) + P·rh_probe)          (σ = Bloom selectivity)
//! part(n, w) = n · partition_pass · passes · max(w/16, 0.5)
//! ```
//!
//! Partitioning is bandwidth-bound, so its per-tuple cost scales with row
//! width (16 B = the Workload-A tuple the constants are calibrated on);
//! hash-table operations are latency-bound, so they do not.
//!
//! # Monotonicity
//!
//! [`Calibration::sanitize`] enforces `build_miss ≥ passes·partition_pass +
//! rh_build` (an out-of-cache table insert costs at least one partitioning
//! write plus a cache-resident insert — this holds on every machine the
//! paper or we measured). Under that invariant the BHJ-vs-RJ cost gap is
//! piecewise linear in `B` with slopes ordered so the *partition question*
//! flips at most once as the build side grows across the LLC boundary:
//! BHJ below the crossover, partitioned above, never back. The
//! `cost_props` property test pins this.

use crate::plan::JoinAlgo;
use joinstudy_exec::registry::{json_string, parse_json, Json};
use std::fmt;
use std::sync::OnceLock;

/// Bytes of hash-table overhead per build tuple (chain pointer + hash tag
/// + directory amortization) on top of the materialized row.
pub const HT_OVERHEAD_BYTES: f64 = 16.0;

/// Reference tuple width (bytes) the partitioning constants are calibrated
/// on (Workload A: 8 B key + 8 B payload).
pub const REF_TUPLE_BYTES: f64 = 16.0;

/// Prefer the BHJ unless a partitioned plan is predicted to win by more
/// than this relative margin. The paper's bottom line is that partitioning
/// pays off only in a narrow regime (1 of 59 TPC-H joins); when the model
/// says "roughly a tie", the robust choice is the one that cannot blow up
/// on skew or mis-estimated cardinalities.
pub const BHJ_PREFERENCE_MARGIN: f64 = 0.10;

/// Per-tuple primitive costs in nanoseconds plus the cache geometry —
/// everything [`CostModel`] needs. Field-by-field defaults (documented
/// here, used when no `results/calibration.json` exists) are conservative
/// figures for a ~3 GHz x86 with a 16–32 MiB LLC.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Last-level cache size in bytes.
    pub llc_bytes: f64,
    /// BHJ hash-table insert, table cache-resident. Default 4 ns.
    pub bhj_build_hit: f64,
    /// BHJ hash-table insert, table ≫ LLC (miss-bound). Default 28 ns.
    pub bhj_build_miss: f64,
    /// BHJ probe, table cache-resident. Default 3 ns.
    pub bhj_probe_hit: f64,
    /// BHJ probe, table ≫ LLC. Default 22 ns.
    pub bhj_probe_miss: f64,
    /// One radix-partitioning pass over one 16-byte tuple (SWWCB write +
    /// histogram share). Default 3.5 ns.
    pub partition_pass: f64,
    /// Number of partitioning passes (this engine always runs two).
    pub partition_passes: f64,
    /// Partition-local (cache-resident) robin-hood build insert. Default 3 ns.
    pub rh_build: f64,
    /// Partition-local robin-hood probe. Default 2.5 ns.
    pub rh_probe: f64,
    /// Bloom-filter insert per build tuple. Default 1.5 ns.
    pub bloom_build: f64,
    /// Bloom-filter probe per probe tuple. Default 1.2 ns.
    pub bloom_probe: f64,
    /// Width of the miss ramp, in multiples of the LLC: `m` saturates at
    /// `H = (1 + ramp) · LLC`. Default 4.
    pub ramp_llc_multiple: f64,
    /// Sequential spill I/O cost per byte (one direction) for the hybrid
    /// join's out-of-core regime term. Default 0.5 ns (≈ 2 GB/s, a
    /// buffered-SSD figure).
    pub spill_ns_per_byte: f64,
    /// Where these constants came from (`"default"`, a file path, or
    /// `"measured"` for freshly calibrated values).
    pub source: String,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            llc_bytes: detect_llc_bytes() as f64,
            ..Calibration::default_constants()
        }
    }
}

/// Best-effort LLC size in bytes, 16 MiB when sysfs is unreadable — the
/// workspace's one LLC probe; the bench harnesses size workloads with it.
pub fn detect_llc_bytes() -> usize {
    for idx in 0..6 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let level: Option<u32> = std::fs::read_to_string(format!("{base}/level"))
            .ok()
            .and_then(|s| s.trim().parse().ok());
        if level == Some(3) {
            if let Ok(raw) = std::fs::read_to_string(format!("{base}/size")) {
                let raw = raw.trim();
                let kib: Option<usize> = if let Some(k) = raw.strip_suffix('K') {
                    k.parse().ok()
                } else if let Some(m) = raw.strip_suffix('M') {
                    m.parse::<usize>().ok().map(|v| v * 1024)
                } else {
                    raw.parse().ok()
                };
                if let Some(kib) = kib {
                    return kib * 1024;
                }
            }
        }
    }
    16 * 1024 * 1024
}

impl Calibration {
    /// Clamp the constants into the physically sensible region and enforce
    /// the monotonicity invariant (see module docs): costs positive,
    /// `miss ≥ hit`, an out-of-cache hash-table operation costs at least a
    /// full partitioning schedule plus the cache-resident equivalent, and
    /// a Bloom probe costs at least a cache-resident hash-table probe.
    /// Returns `self` for chaining.
    pub fn sanitize(mut self) -> Calibration {
        let pos = |v: f64, fallback: f64| {
            if v.is_finite() && v > 0.0 {
                v
            } else {
                fallback
            }
        };
        let d = Calibration::default_constants();
        self.llc_bytes = pos(self.llc_bytes, d.llc_bytes);
        self.bhj_build_hit = pos(self.bhj_build_hit, d.bhj_build_hit);
        self.bhj_probe_hit = pos(self.bhj_probe_hit, d.bhj_probe_hit);
        self.partition_pass = pos(self.partition_pass, d.partition_pass);
        self.partition_passes = pos(self.partition_passes, d.partition_passes).max(1.0);
        self.rh_build = pos(self.rh_build, d.rh_build);
        self.rh_probe = pos(self.rh_probe, d.rh_probe);
        self.bloom_build = pos(self.bloom_build, d.bloom_build);
        // A Bloom probe is a hash plus a cache-line load plus the engine's
        // per-tuple overhead — it cannot beat a *cache-resident* hash-table
        // probe, which is the same operations plus a key compare. Without
        // this floor a calibration measured in the out-of-cache regime
        // (where `bhj_probe_hit` absorbs the host's per-tuple floor but
        // `bloom_probe` is solved residually) makes the model pick the BRJ
        // for cache-resident joins, where filtering cannot pay: the only
        // thing the reducer skips there is work that was already cheap.
        self.bloom_probe = pos(self.bloom_probe, d.bloom_probe).max(self.bhj_probe_hit);
        self.ramp_llc_multiple = pos(self.ramp_llc_multiple, d.ramp_llc_multiple).max(0.25);
        self.spill_ns_per_byte = pos(self.spill_ns_per_byte, d.spill_ns_per_byte);
        let sched = self.partition_passes * self.partition_pass;
        self.bhj_build_miss = pos(self.bhj_build_miss, d.bhj_build_miss)
            .max(self.bhj_build_hit)
            .max(sched + self.rh_build);
        self.bhj_probe_miss = pos(self.bhj_probe_miss, d.bhj_probe_miss)
            .max(self.bhj_probe_hit)
            .max(sched + self.rh_probe);
        self
    }

    /// The default constants with a fixed 16 MiB LLC (no sysfs probing) —
    /// deterministic, for tests and for `sanitize` fallbacks.
    pub fn default_constants() -> Calibration {
        Calibration {
            llc_bytes: (16 * 1024 * 1024) as f64,
            bhj_build_hit: 4.0,
            bhj_build_miss: 28.0,
            bhj_probe_hit: 3.0,
            bhj_probe_miss: 22.0,
            partition_pass: 3.5,
            partition_passes: 2.0,
            rh_build: 3.0,
            rh_probe: 2.5,
            bloom_build: 1.5,
            bloom_probe: 1.2,
            ramp_llc_multiple: 4.0,
            spill_ns_per_byte: 0.5,
            source: "default".into(),
        }
    }

    /// Serialize as a flat JSON object (the `results/calibration.json`
    /// format; `repro calibrate` writes it to `results/calibration_fit.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let mut field = |name: &str, v: f64| {
            s.push_str(&format!("  \"{name}\": {v},\n"));
        };
        field("llc_bytes", self.llc_bytes);
        field("bhj_build_hit", self.bhj_build_hit);
        field("bhj_build_miss", self.bhj_build_miss);
        field("bhj_probe_hit", self.bhj_probe_hit);
        field("bhj_probe_miss", self.bhj_probe_miss);
        field("partition_pass", self.partition_pass);
        field("partition_passes", self.partition_passes);
        field("rh_build", self.rh_build);
        field("rh_probe", self.rh_probe);
        field("bloom_build", self.bloom_build);
        field("bloom_probe", self.bloom_probe);
        field("ramp_llc_multiple", self.ramp_llc_multiple);
        field("spill_ns_per_byte", self.spill_ns_per_byte);
        s.push_str(&format!(
            "  \"source\": {}\n}}\n",
            json_string(&self.source)
        ));
        s
    }

    /// Parse the flat JSON object written by [`Calibration::to_json`].
    /// Unknown keys are ignored; missing keys keep their defaults; the
    /// result is sanitized. Errors only on malformed JSON.
    pub fn from_json(text: &str) -> Result<Calibration, String> {
        let mut cal = Calibration::default();
        let Json::Obj(members) = parse_json(text)? else {
            return Err("calibration file: expected a JSON object".into());
        };
        for (key, value) in members {
            let num = || {
                value
                    .as_f64()
                    .ok_or_else(|| format!("calibration key {key:?}: not a number: {value:?}"))
            };
            match key.as_str() {
                "llc_bytes" => cal.llc_bytes = num()?,
                "bhj_build_hit" => cal.bhj_build_hit = num()?,
                "bhj_build_miss" => cal.bhj_build_miss = num()?,
                "bhj_probe_hit" => cal.bhj_probe_hit = num()?,
                "bhj_probe_miss" => cal.bhj_probe_miss = num()?,
                "partition_pass" => cal.partition_pass = num()?,
                "partition_passes" => cal.partition_passes = num()?,
                "rh_build" => cal.rh_build = num()?,
                "rh_probe" => cal.rh_probe = num()?,
                "bloom_build" => cal.bloom_build = num()?,
                "bloom_probe" => cal.bloom_probe = num()?,
                "ramp_llc_multiple" => cal.ramp_llc_multiple = num()?,
                "spill_ns_per_byte" => cal.spill_ns_per_byte = num()?,
                "source" => {
                    if let Json::Str(source) = value {
                        cal.source = source;
                    }
                }
                _ => {}
            }
        }
        Ok(cal.sanitize())
    }

    /// Load a calibration file, or `None` when the file does not exist.
    pub fn load(path: &std::path::Path) -> Option<Calibration> {
        let text = std::fs::read_to_string(path).ok()?;
        match Calibration::from_json(&text) {
            Ok(mut cal) => {
                cal.source = path.display().to_string();
                Some(cal)
            }
            Err(_) => None,
        }
    }

    /// The process-wide calibration the adaptive planner uses: the file
    /// named by `JOINSTUDY_CALIBRATION`, else `results/calibration.json`
    /// under the current directory, else the documented defaults with the
    /// detected LLC size. Resolved once per process.
    pub fn global() -> &'static Calibration {
        static GLOBAL: OnceLock<Calibration> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            if let Ok(path) = std::env::var("JOINSTUDY_CALIBRATION") {
                if let Some(cal) = Calibration::load(std::path::Path::new(&path)) {
                    return cal.sanitize();
                }
            }
            Calibration::load(std::path::Path::new("results/calibration.json"))
                .map(Calibration::sanitize)
                .unwrap_or_default()
        })
    }
}

/// What the planner believes about one join before running it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinEstimate {
    /// Estimated build-side cardinality.
    pub build_rows: f64,
    /// Estimated probe-side cardinality.
    pub probe_rows: f64,
    /// Materialized build row width in bytes.
    pub build_width: f64,
    /// Materialized probe row width in bytes.
    pub probe_width: f64,
    /// Estimated fraction of probe tuples that survive the Bloom reducer
    /// (1.0 = the filter drops nothing).
    pub bloom_selectivity: f64,
    /// Whether the BRJ is admissible for this join variant (the Bloom
    /// reducer may only drop probe tuples when unmatched probe tuples
    /// leave the join anyway).
    pub allow_bloom: bool,
}

impl JoinEstimate {
    pub fn new(build_rows: f64, probe_rows: f64) -> JoinEstimate {
        JoinEstimate {
            build_rows: build_rows.max(1.0),
            probe_rows: probe_rows.max(1.0),
            build_width: REF_TUPLE_BYTES,
            probe_width: REF_TUPLE_BYTES,
            bloom_selectivity: 1.0,
            allow_bloom: true,
        }
    }
}

/// The three modeled costs, in nanoseconds of single-threaded work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    pub bhj: f64,
    pub rj: f64,
    pub brj: f64,
}

impl CostBreakdown {
    pub fn of(&self, algo: JoinAlgo) -> f64 {
        match algo {
            JoinAlgo::Bhj => self.bhj,
            JoinAlgo::Rj => self.rj,
            JoinAlgo::Brj => self.brj,
            JoinAlgo::Adaptive | JoinAlgo::Hybrid => f64::INFINITY,
        }
    }
}

/// The outcome of one plan-time adaptive choice.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The algorithm the join will run with (never `Adaptive`).
    pub algo: JoinAlgo,
    /// All three modeled costs, for EXPLAIN ANALYZE and regret analysis.
    pub costs: CostBreakdown,
    /// The estimate the decision was made from.
    pub estimate: JoinEstimate,
    /// Modeled hash-table footprint of the BHJ build side, in bytes.
    pub ht_bytes: f64,
    /// Whether that footprint fits the calibrated LLC.
    pub fits_llc: bool,
    /// Human-readable decision rationale (shown by EXPLAIN ANALYZE).
    pub reason: String,
}

/// A calibrated instance of the Table-4 regime model.
#[derive(Debug, Clone)]
pub struct CostModel {
    cal: Calibration,
}

impl CostModel {
    pub fn new(cal: Calibration) -> CostModel {
        CostModel {
            cal: cal.sanitize(),
        }
    }

    /// The model backed by [`Calibration::global`].
    pub fn global() -> CostModel {
        CostModel::new(Calibration::global().clone())
    }

    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Modeled BHJ hash-table footprint for a build side.
    pub fn ht_bytes(&self, build_rows: f64, build_width: f64) -> f64 {
        build_rows.max(0.0) * (build_width.max(8.0) + HT_OVERHEAD_BYTES)
    }

    /// Cache-miss ramp `m ∈ [0, 1]` for a hash table of `bytes`.
    pub fn miss_ratio(&self, bytes: f64) -> f64 {
        if bytes <= self.cal.llc_bytes {
            0.0
        } else {
            ((bytes - self.cal.llc_bytes) / (self.cal.ramp_llc_multiple * self.cal.llc_bytes))
                .min(1.0)
        }
    }

    fn part_cost(&self, rows: f64, width: f64) -> f64 {
        rows * self.cal.partition_pass
            * self.cal.partition_passes
            * (width / REF_TUPLE_BYTES).max(0.5)
    }

    /// Modeled BHJ cost (ns).
    pub fn bhj_cost(&self, e: &JoinEstimate) -> f64 {
        let m = self.miss_ratio(self.ht_bytes(e.build_rows, e.build_width));
        let lerp = |hit: f64, miss: f64| hit + (miss - hit) * m;
        e.build_rows * lerp(self.cal.bhj_build_hit, self.cal.bhj_build_miss)
            + e.probe_rows * lerp(self.cal.bhj_probe_hit, self.cal.bhj_probe_miss)
    }

    /// Modeled RJ cost (ns).
    pub fn rj_cost(&self, e: &JoinEstimate) -> f64 {
        self.part_cost(e.build_rows, e.build_width)
            + self.part_cost(e.probe_rows, e.probe_width)
            + e.build_rows * self.cal.rh_build
            + e.probe_rows * self.cal.rh_probe
    }

    /// Modeled BRJ cost (ns). The Bloom filter is built during the build
    /// side's second pass and probed *before* the probe side is
    /// materialized, so only the surviving `σ·P` tuples pay partitioning.
    pub fn brj_cost(&self, e: &JoinEstimate) -> f64 {
        let sigma = e.bloom_selectivity.clamp(0.0, 1.0);
        self.part_cost(e.build_rows, e.build_width)
            + e.build_rows * (self.cal.rh_build + self.cal.bloom_build)
            + e.probe_rows * self.cal.bloom_probe
            + sigma
                * (self.part_cost(e.probe_rows, e.probe_width) + e.probe_rows * self.cal.rh_probe)
    }

    /// The hybrid join's I/O regime term (ns): the fraction of both sides
    /// that cannot stay memory-resident under `budget` is written to a
    /// spill run once and read back once. The fraction is the build side's
    /// alone, and so is the join's: its probe side streams, and only the
    /// probe rows of closed build partitions are written
    /// ([`crate::hybrid`]).
    pub fn hybrid_io_cost(&self, e: &JoinEstimate, budget: f64) -> f64 {
        let build_bytes = e.build_rows * e.build_width.max(8.0);
        let probe_bytes = e.probe_rows * e.probe_width.max(8.0);
        let footprint = self.ht_bytes(e.build_rows, e.build_width);
        if footprint <= 0.0 {
            return 0.0;
        }
        let spilled_frac = 1.0 - (budget / footprint).clamp(0.0, 1.0);
        2.0 * spilled_frac * (build_bytes + probe_bytes) * self.cal.spill_ns_per_byte
    }

    /// Memory-budget override on a plan-time decision: when the modeled
    /// build-side hash table cannot fit the budget, every in-memory
    /// contender is doomed to degrade at runtime, so the decision is
    /// rewritten to the out-of-core hybrid join ([`JoinAlgo::Hybrid`]) up
    /// front, with the spill I/O regime term in the rationale.
    pub fn apply_budget(&self, d: &mut Decision, budget: Option<usize>) {
        let Some(budget) = budget else { return };
        let budget = budget as f64;
        if d.ht_bytes <= budget {
            return;
        }
        let io = self.hybrid_io_cost(&d.estimate, budget);
        d.algo = JoinAlgo::Hybrid;
        d.reason = format!(
            "ht {} exceeds the {} memory budget: out-of-core HHJ (modeled spill I/O {:.2} ms)",
            fmt_bytes(d.ht_bytes),
            fmt_bytes(budget),
            io / 1e6,
        );
    }

    /// All three costs at once.
    pub fn costs(&self, e: &JoinEstimate) -> CostBreakdown {
        CostBreakdown {
            bhj: self.bhj_cost(e),
            rj: self.rj_cost(e),
            brj: if e.allow_bloom {
                self.brj_cost(e)
            } else {
                f64::INFINITY
            },
        }
    }

    /// Answer the join question for one estimated join. Picks the modeled
    /// minimum, except that a partitioned plan must beat the BHJ by more
    /// than [`BHJ_PREFERENCE_MARGIN`] (robustness tie-break — the BHJ
    /// cannot blow up on skew or bad estimates).
    pub fn decide(&self, e: &JoinEstimate) -> Decision {
        let costs = self.costs(e);
        let ht = self.ht_bytes(e.build_rows, e.build_width);
        let fits = ht <= self.cal.llc_bytes;
        let best_radix = if costs.brj < costs.rj {
            JoinAlgo::Brj
        } else {
            JoinAlgo::Rj
        };
        let radix_cost = costs.of(best_radix);
        let ratio = e.probe_rows / e.build_rows.max(1.0);
        let (algo, reason) = if radix_cost < costs.bhj * (1.0 - BHJ_PREFERENCE_MARGIN) {
            let why = format!(
                "ht {} {} LLC {}, probe/build {:.1}, σ≈{:.2}: partitioning predicted {:.0}% faster",
                fmt_bytes(ht),
                if fits { "fits" } else { "exceeds" },
                fmt_bytes(self.cal.llc_bytes),
                ratio,
                e.bloom_selectivity,
                (1.0 - radix_cost / costs.bhj) * 100.0,
            );
            (best_radix, why)
        } else {
            let why = if fits {
                format!(
                    "ht {} fits LLC {}: BHJ probe stays cache-resident",
                    fmt_bytes(ht),
                    fmt_bytes(self.cal.llc_bytes),
                )
            } else if radix_cost < costs.bhj {
                format!(
                    "partitioning predicted only {:.0}% faster (< {:.0}% margin): BHJ is the robust choice",
                    (1.0 - radix_cost / costs.bhj) * 100.0,
                    BHJ_PREFERENCE_MARGIN * 100.0,
                )
            } else {
                format!(
                    "ht {} exceeds LLC but probe/build {:.1} does not amortize two partition passes",
                    fmt_bytes(ht),
                    ratio,
                )
            };
            (JoinAlgo::Bhj, why)
        };
        Decision {
            algo,
            costs,
            estimate: *e,
            ht_bytes: ht,
            fits_llc: fits,
            reason,
        }
    }
}

/// `1.5 KiB` / `3.2 MiB`-style rendering for decision reasons.
fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (bhj {:.2} ms, rj {:.2} ms, brj {:.2} ms): {}",
            self.algo.name(),
            self.costs.bhj / 1e6,
            self.costs.rj / 1e6,
            if self.costs.brj.is_finite() {
                self.costs.brj / 1e6
            } else {
                f64::NAN
            },
            self.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(Calibration::default_constants())
    }

    #[test]
    fn small_build_picks_bhj() {
        let m = model();
        // 10k × 16 B rows → 320 KB table, far inside a 16 MiB LLC.
        let d = m.decide(&JoinEstimate::new(10_000.0, 1_000_000.0));
        assert_eq!(d.algo, JoinAlgo::Bhj, "{d}");
        assert!(d.fits_llc);
        assert!(d.reason.contains("fits LLC"), "{}", d.reason);
    }

    #[test]
    fn huge_build_with_big_probe_partition_pays() {
        let m = model();
        // 32M build rows → 1 GiB hash table, 16× probe: the paper's narrow
        // beneficial regime.
        let d = m.decide(&JoinEstimate::new(32e6, 512e6));
        assert!(
            matches!(d.algo, JoinAlgo::Rj | JoinAlgo::Brj),
            "expected a partitioned choice: {d}"
        );
        assert!(!d.fits_llc);
    }

    #[test]
    fn selective_bloom_prefers_brj_over_rj() {
        let m = model();
        let mut e = JoinEstimate::new(32e6, 512e6);
        e.bloom_selectivity = 0.1;
        let c = m.costs(&e);
        assert!(c.brj < c.rj, "σ=0.1 must favor the Bloom reducer: {c:?}");
    }

    #[test]
    fn bloom_disallowed_never_picks_brj() {
        let m = model();
        let mut e = JoinEstimate::new(32e6, 512e6);
        e.bloom_selectivity = 0.05;
        e.allow_bloom = false;
        let d = m.decide(&e);
        assert_ne!(d.algo, JoinAlgo::Brj, "{d}");
    }

    #[test]
    fn chosen_algo_is_cost_minimal_or_margin_bhj() {
        let m = model();
        for (b, p) in [
            (1e3, 1e4),
            (1e5, 1e6),
            (1e6, 4e6),
            (1e7, 1e8),
            (5e7, 5e7),
            (1e8, 1e9),
        ] {
            let d = m.decide(&JoinEstimate::new(b, p));
            let min = d.costs.bhj.min(d.costs.rj).min(d.costs.brj);
            let chosen = d.costs.of(d.algo);
            assert!(
                chosen <= min / (1.0 - BHJ_PREFERENCE_MARGIN) + 1e-9,
                "B={b} P={p}: chose {} at {chosen}, min {min}",
                d.algo.name()
            );
        }
    }

    #[test]
    fn json_round_trip() {
        let mut cal = Calibration::default_constants();
        cal.bhj_probe_miss = 31.25;
        cal.source = "measured".into();
        let parsed = Calibration::from_json(&cal.to_json()).unwrap();
        assert_eq!(parsed.bhj_probe_miss, 31.25);
        assert_eq!(parsed.source, "measured");
        assert_eq!(parsed.llc_bytes, cal.llc_bytes);
    }

    #[test]
    fn from_json_rejects_garbage_and_ignores_unknown_keys() {
        assert!(Calibration::from_json("not json").is_err());
        assert!(Calibration::from_json("{\"llc_bytes\": \"x\"}").is_err());
        let cal = Calibration::from_json("{\"future_knob\": 7, \"rh_probe\": 2.0}").unwrap();
        assert_eq!(cal.rh_probe, 2.0);
    }

    #[test]
    fn sanitize_enforces_monotonicity_floor() {
        let mut cal = Calibration::default_constants();
        cal.bhj_build_miss = 0.1; // absurd: misses cheaper than partitioning
        cal.bhj_probe_miss = -3.0;
        let cal = cal.sanitize();
        let sched = cal.partition_passes * cal.partition_pass;
        assert!(cal.bhj_build_miss >= sched + cal.rh_build);
        assert!(cal.bhj_probe_miss >= sched + cal.rh_probe);
        // A Bloom probe is floored at a cache-resident hash-table probe,
        // including for the default constants themselves.
        assert!(cal.bloom_probe >= cal.bhj_probe_hit);
    }
}
