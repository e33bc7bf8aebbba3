//! Plan-time estimation for the adaptive join planner.
//!
//! [`crate::cost`] answers "to partition, or not" given a
//! [`JoinEstimate`](crate::cost::JoinEstimate); this module produces that
//! estimate from a [`Plan`] subtree *before* any pipeline runs:
//!
//! * **Cardinalities** walk the plan bottom-up from exact base-table row
//!   counts. Scan filters are not guessed — the predicate is evaluated on a
//!   sampled prefix of the table (one `select` over a view of ≤ 4096 rows, memoized
//!   per (table, predicate) so nested joins and repeated executions pay it
//!   once), which is exact for the pushed-down TPC-H predicates. Derived
//!   nodes use documented coarse heuristics (FK joins emit ≈ probe rows,
//!   semi/anti halve, aggregations keep a tenth).
//! * **Row widths** come from the schema (slot width per column, plus a
//!   heap allowance for strings).
//! * **Bloom selectivity** is estimated by *sampling probe keys*: when both
//!   join keys trace through Filter/Map/LateLoad chains to base-table
//!   columns, up to [`PROBE_SAMPLE`] probe keys are tested for membership
//!   in a (possibly sampled) set of build keys. Untraceable keys fall back
//!   to σ = 1 — conservative, since it removes the BRJ's modeled advantage
//!   rather than inventing one.
//!
//! Estimates feed [`CostModel::decide`](crate::cost::CostModel::decide);
//! the runtime escape hatch in the pipeline compiler re-checks the decision
//! against the *measured* build side after the first radix pass (see
//! `DESIGN.md` §10).

use crate::cost::{CostModel, Decision, JoinEstimate};
use crate::join_common::JoinType;
use crate::plan::{JoinAlgo, Plan};
use joinstudy_exec::expr::{Expr, Rows};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::{Schema, Table};
use joinstudy_storage::types::DataType;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, LazyLock};

/// Rows sampled when evaluating a scan predicate at plan time.
pub const FILTER_SAMPLE: usize = 4096;
/// Probe-side keys sampled for the Bloom selectivity estimate.
pub const PROBE_SAMPLE: usize = 2048;
/// Build sides up to this many rows contribute *all* their keys to the
/// membership set (exact containment); larger ones are sampled. Kept small
/// deliberately: this set is rebuilt on every planned join, so its cost is
/// the planner's overhead floor — the sampled-membership scale correction
/// below keeps the estimate usable at this size.
pub const BUILD_EXACT: usize = 1 << 14;
/// Build-side key sample size beyond [`BUILD_EXACT`].
pub const BUILD_SAMPLE: usize = 1 << 14;

/// Selectivity assumed for an in-pipeline `Filter` node (its predicate is
/// expressed against a derived schema, so it cannot be sampled cheaply).
const DERIVED_FILTER_SELECTIVITY: f64 = 0.5;
/// Output fraction assumed for semi/anti join variants.
const SEMI_SELECTIVITY: f64 = 0.5;
/// Groups-per-input fraction assumed for hash aggregation.
const AGG_GROUP_FRACTION: f64 = 0.1;

/// Estimated output cardinality of a plan subtree. A join's residual is
/// ignored, as if every key-equal pair passed it. A residual only removes
/// pairs, so for inner, outer and semi joins this estimates an upper bound
/// of what the join emits (for anti joins, a lower one).
pub fn estimate_rows(plan: &Plan) -> f64 {
    match plan {
        Plan::Scan { table, filter, .. } => {
            let rows = table.num_rows() as f64;
            match filter {
                None => rows,
                Some(pred) => rows * scan_filter_selectivity(table, plan, pred),
            }
        }
        Plan::Stream { est_rows, .. } => *est_rows,
        Plan::Filter { input, .. } => estimate_rows(input) * DERIVED_FILTER_SELECTIVITY,
        Plan::Map { input, .. } | Plan::LateLoad { input, .. } => estimate_rows(input),
        Plan::Join {
            kind, build, probe, ..
        } => {
            let b = estimate_rows(build);
            let p = estimate_rows(probe);
            match kind {
                // FK joins dominate TPC-H: every probe tuple finds at most
                // one (PK) build partner.
                JoinType::Inner | JoinType::ProbeOuter | JoinType::ProbeMark => p,
                JoinType::ProbeSemi | JoinType::ProbeAnti => p * SEMI_SELECTIVITY,
                JoinType::BuildSemi | JoinType::BuildAnti => b * SEMI_SELECTIVITY,
            }
        }
        Plan::GroupJoin { build, .. } => estimate_rows(build),
        Plan::Aggregate {
            input, group_cols, ..
        } => {
            let rows = estimate_rows(input);
            if group_cols.is_empty() {
                1.0
            } else {
                (rows * AGG_GROUP_FRACTION).max(1.0)
            }
        }
        Plan::Sort { input, limit, .. } => {
            let rows = estimate_rows(input);
            limit.map_or(rows, |l| rows.min(l as f64))
        }
    }
    .max(1.0)
}

/// Sampled scan-predicate selectivities, keyed by table identity and the
/// printed form of (projection, predicate). A pushed-down predicate's
/// selectivity is a pure function of the immutable base table, but the
/// planner re-estimates every subtree once per enclosing join and once per
/// execution — uncached, the repeated [`FILTER_SAMPLE`]-row predicate
/// evaluations are the adaptive planner's dominant overhead on multi-join
/// queries. Bounded: cleared wholesale past [`SELECTIVITY_CACHE_CAP`]
/// (workloads cycle through a small fixed set of scan predicates).
type SelectivityKey = (usize, usize, String);
static SELECTIVITY_CACHE: LazyLock<Mutex<HashMap<SelectivityKey, f64>>> =
    LazyLock::new(Mutex::default);
const SELECTIVITY_CACHE_CAP: usize = 256;

/// Evaluate a pushed-down scan predicate on a prefix sample of the table.
/// The predicate is expressed against the scan's *projected* schema, so the
/// sampled batch projects the same columns in the same order.
fn scan_filter_selectivity(table: &Arc<Table>, scan: &Plan, pred: &Expr) -> f64 {
    let Plan::Scan { cols, .. } = scan else {
        return 1.0;
    };
    let rows = table.num_rows();
    if rows == 0 {
        return 1.0;
    }
    // The pointer alone could be reused by a later table; the row count and
    // the printed predicate make a stale hit practically impossible (and a
    // hit only ever feeds an estimate, never a result).
    let key = (
        Arc::as_ptr(table) as usize,
        rows,
        format!("{cols:?}|{pred:?}"),
    );
    if let Some(&cached) = SELECTIVITY_CACHE.lock().get(&key) {
        return cached;
    }
    let n = rows.min(FILTER_SAMPLE);
    let hits = pred.select(&Rows::of_table(table, cols, 0, n)).len();
    // Clamp away from 0 so downstream estimates never collapse entirely on
    // a sample that happened to miss (the prefix is not a random sample).
    let sel = (hits as f64 / n as f64).clamp(1.0 / n as f64, 1.0);
    let mut cache = SELECTIVITY_CACHE.lock();
    if cache.len() >= SELECTIVITY_CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, sel);
    sel
}

/// Estimated materialized row width in bytes for a schema: fixed slot
/// widths plus a heap allowance for strings.
pub fn row_width(schema: &Schema) -> f64 {
    schema
        .fields
        .iter()
        .map(|f| match f.dtype {
            DataType::Str => f.dtype.slot_width() as f64 + 16.0,
            other => other.slot_width() as f64,
        })
        .sum::<f64>()
        .max(8.0)
}

/// Trace an output column of `plan` back to a base-table column through
/// width-preserving operators. Returns the table and its column index, or
/// `None` when the column is computed or crosses a pipeline breaker.
fn trace_to_base(plan: &Plan, col: usize) -> Option<(Arc<Table>, usize)> {
    match plan {
        Plan::Scan { table, cols, .. } => cols.get(col).map(|&base| (Arc::clone(table), base)),
        // Streamed sources have no materialized base table to sample.
        Plan::Stream { .. } => None,
        Plan::Filter { input, .. } => trace_to_base(input, col),
        Plan::Map { input, exprs, .. } => match exprs.get(col)? {
            Expr::Col(c) => trace_to_base(input, *c),
            _ => None,
        },
        Plan::LateLoad {
            input, table, cols, ..
        } => {
            let in_arity = input.schema().len();
            if col < in_arity {
                trace_to_base(input, col)
            } else {
                cols.get(col - in_arity).map(|&c| (Arc::clone(table), c))
            }
        }
        // Joins, group-joins, aggregates and sorts re-materialize; tracing
        // through them would need the breaker's output, which does not
        // exist at plan time.
        _ => None,
    }
}

/// Hashable key image of one cell; `None` for types joins never key on.
fn cell_key(col: &ColumnData, row: usize) -> Option<u64> {
    Some(match col {
        ColumnData::Int64(v) => v[row] as u64,
        ColumnData::Int32(v) => v[row] as u64,
        ColumnData::Date(v) => v[row] as u64,
        ColumnData::Decimal(v) => v[row] as u64,
        ColumnData::Str(s) => {
            // FNV-1a over the bytes; only equality matters here.
            let mut h: u64 = 0xcbf29ce484222325;
            for b in s.get(row).bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
            h
        }
        ColumnData::Bool(_) | ColumnData::Float64(_) => return None,
    })
}

/// Stride-sample up to `n` key images from a column.
fn sample_keys(col: &ColumnData, n: usize) -> Option<Vec<u64>> {
    let rows = col.len();
    if rows == 0 {
        return Some(Vec::new());
    }
    let take = n.min(rows);
    let mut out = Vec::with_capacity(take);
    for i in 0..take {
        // Evenly spaced over the whole column (integer interpolation): a
        // flooring stride would degenerate to a prefix sample whenever
        // `rows < 2n`, badly biased for sorted key columns.
        let r = i * rows / take;
        out.push(cell_key(col, r)?);
    }
    Some(out)
}

/// Estimate the fraction of probe tuples whose key appears on the build
/// side, by sampling both sides' base-table key columns. `None` when either
/// key cannot be traced to a base column (multi-column keys included: their
/// combined image cannot be sampled independently per side).
pub fn sample_bloom_selectivity(
    build: &Plan,
    probe: &Plan,
    build_keys: &[usize],
    probe_keys: &[usize],
) -> Option<f64> {
    if build_keys.len() != 1 || probe_keys.len() != 1 {
        return None;
    }
    let (btable, bcol) = trace_to_base(build, build_keys[0])?;
    let (ptable, pcol) = trace_to_base(probe, probe_keys[0])?;
    let build_rows = btable.num_rows();
    if build_rows == 0 || ptable.num_rows() == 0 {
        return Some(if build_rows == 0 { 0.0 } else { 1.0 });
    }
    let (build_sample_n, scale) = if build_rows <= BUILD_EXACT {
        (build_rows, 1.0)
    } else {
        // Sampled membership under-counts: a probe key missing from the
        // sample may still be in the full build set. Scale the match rate
        // by the sampling fraction's inverse, capped at 1 (biased but
        // directionally right; documented in DESIGN.md §10).
        (BUILD_SAMPLE, build_rows as f64 / BUILD_SAMPLE as f64)
    };
    let build_set: HashSet<u64> = sample_keys(btable.column(bcol), build_sample_n)?
        .into_iter()
        .collect();
    let probe_sample = sample_keys(ptable.column(pcol), PROBE_SAMPLE)?;
    if probe_sample.is_empty() {
        return Some(1.0);
    }
    let hits = probe_sample
        .iter()
        .filter(|k| build_set.contains(k))
        .count();
    let rate = hits as f64 / probe_sample.len() as f64;
    Some((rate * scale).clamp(0.0, 1.0))
}

/// Assemble the [`JoinEstimate`] for one join node and ask the model.
pub fn decide(
    model: &CostModel,
    kind: JoinType,
    build: &Plan,
    probe: &Plan,
    build_keys: &[usize],
    probe_keys: &[usize],
) -> Decision {
    let build_rows = estimate_rows(build);
    let probe_rows = estimate_rows(probe);
    let allow_bloom = !kind.probe_tuples_survive_unmatched();
    let mut estimate = JoinEstimate {
        build_rows,
        probe_rows,
        build_width: row_width(&build.schema()),
        probe_width: row_width(&probe.schema()),
        bloom_selectivity: 0.0,
        allow_bloom,
    };
    // Ask with σ = 0 first — the best case for the Bloom variant (σ only
    // ever makes the BRJ more expensive, the BHJ and RJ don't see it). If
    // the answer is still "do not partition", it is final, and the probe
    // key sampling — the only costly part of planning, a hash-set build
    // over up to [`BUILD_EXACT`] build keys — is skipped. This keeps the
    // planner overhead negligible in exactly the regime the paper says
    // dominates real workloads: hash tables that fit the cache.
    if allow_bloom {
        let optimistic = model.decide(&estimate);
        if optimistic.algo == JoinAlgo::Bhj {
            return optimistic;
        }
        estimate.bloom_selectivity =
            sample_bloom_selectivity(build, probe, build_keys, probe_keys).unwrap_or(1.0);
    } else {
        estimate.bloom_selectivity = 1.0;
    }
    model.decide(&estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Calibration;
    use crate::plan::JoinAlgo;
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::Value;

    fn table_kv(rows: impl Iterator<Item = (i64, i64)>) -> Arc<Table> {
        let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for (k, v) in rows {
            b.push_row(&[Value::Int64(k), Value::Int64(v)]);
        }
        Arc::new(b.finish())
    }

    #[test]
    fn scan_estimate_is_exact_without_filter() {
        let t = table_kv((0..1000).map(|i| (i, i)));
        let plan = Plan::scan(&t, &["k", "v"], None);
        assert_eq!(estimate_rows(&plan), 1000.0);
    }

    #[test]
    fn filtered_scan_estimate_samples_the_predicate() {
        let t = table_kv((0..2000).map(|i| (i, i)));
        // k < 500 keeps exactly a quarter; the 2000-row table fits the
        // sample entirely, so the estimate is exact.
        let plan = Plan::scan(&t, &["k", "v"], Some(Expr::col(0).lt(Expr::i64(500))));
        let est = estimate_rows(&plan);
        assert!((est - 500.0).abs() < 1.0, "estimate {est}");
    }

    #[test]
    fn selectivity_cache_distinguishes_predicates_on_one_table() {
        let t = table_kv((0..2000).map(|i| (i, i)));
        let quarter = Plan::scan(&t, &["k", "v"], Some(Expr::col(0).lt(Expr::i64(500))));
        let half = Plan::scan(&t, &["k", "v"], Some(Expr::col(0).lt(Expr::i64(1000))));
        let (e_quarter, e_half) = (estimate_rows(&quarter), estimate_rows(&half));
        assert!((e_quarter - 500.0).abs() < 1.0, "estimate {e_quarter}");
        assert!((e_half - 1000.0).abs() < 1.0, "estimate {e_half}");
        // Second walk hits the memoized path and must agree.
        assert_eq!(estimate_rows(&quarter), e_quarter);
        assert_eq!(estimate_rows(&half), e_half);
    }

    #[test]
    fn key_tracing_survives_filter_and_identity_map() {
        let t = table_kv((0..100).map(|i| (i, i)));
        let plan = Plan::scan(&t, &["k", "v"], None)
            .filter(Expr::col(1).ge(Expr::i64(0)))
            .map(vec![Expr::col(0), Expr::col(1)], &["k2", "v2"]);
        let (base, col) = trace_to_base(&plan, 0).expect("traceable");
        assert_eq!(base.num_rows(), 100);
        assert_eq!(col, 0);
        // A computed column is not traceable.
        let plan2 =
            Plan::scan(&t, &["k", "v"], None).map(vec![Expr::col(0).mul(Expr::i64(2))], &["kk"]);
        assert!(trace_to_base(&plan2, 0).is_none());
    }

    #[test]
    fn bloom_selectivity_sampling_matches_overlap() {
        // Build keys 0..1000; probe keys 0..4000 → 25% overlap.
        let build = table_kv((0..1000).map(|i| (i, i)));
        let probe = table_kv((0..4000).map(|i| (i % 4000, i)));
        let bp = Plan::scan(&build, &["k", "v"], None);
        let pp = Plan::scan(&probe, &["k", "v"], None);
        let sigma = sample_bloom_selectivity(&bp, &pp, &[0], &[0]).expect("traceable");
        assert!((sigma - 0.25).abs() < 0.05, "sigma {sigma}");
    }

    #[test]
    fn adaptive_decision_on_tiny_join_is_bhj() {
        let build = table_kv((0..500).map(|i| (i, i)));
        let probe = table_kv((0..5000).map(|i| (i % 500, i)));
        let bp = Plan::scan(&build, &["k", "v"], None);
        let pp = Plan::scan(&probe, &["k", "v"], None);
        let model = CostModel::new(Calibration::default_constants());
        let d = decide(&model, JoinType::Inner, &bp, &pp, &[0], &[0]);
        assert_eq!(d.algo, JoinAlgo::Bhj, "{d}");
    }
}
