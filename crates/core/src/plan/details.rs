//! Rendering of the algorithm-specific statistics EXPLAIN ANALYZE attaches
//! to a plan node: hardware counters, radix partition histograms, chaining
//! hash-table shape, a residual's pass counts, and the adaptive selector's
//! decision.

use crate::bhj::BhjWalker;
use crate::cost::Decision;
use crate::ht_chain::ChainStats;
use crate::join_common::Residual;
use crate::qprof::ProfCtx;
use crate::radix::PartitionedSide;
use joinstudy_exec::pmu::CounterKind;
use joinstudy_exec::profile::PipelineStats;
use std::sync::Arc;

/// Attach the hardware counter deltas sampled by a pipeline's workers to a
/// trace node, one detail per counter kind (`<prefix><kind>`), plus an
/// LLC-misses-per-tuple figure when the tuple count is known. A no-op when
/// the PMU was unavailable or counters were off for this query (the slot's
/// snapshot is `None`), so EXPLAIN ANALYZE output is byte-identical then.
pub(super) fn hw_details(pc: &mut ProfCtx, node: usize, prefix: &str, stats: &PipelineStats) {
    let Some(hw) = stats.hw.snapshot() else {
        return;
    };
    for kind in CounterKind::ALL {
        if let Some(v) = hw.get(kind) {
            pc.detail(node, &format!("{prefix}{}", kind.slug()), v);
        }
    }
    let tuples = stats.sink.rows_in().max(stats.source.rows_out());
    if tuples > 0 {
        if let Some(misses) = hw.get(CounterKind::LlcMisses) {
            pc.detail(
                node,
                &format!("{prefix}llc_miss_per_tuple"),
                misses as f64 / tuples as f64,
            );
        }
    }
}

/// Attach one radix-partitioned side's size distribution to a trace node:
/// partition count, total rows, max/avg partition size, skew (max/avg), and
/// a min/p25/p50/p75/max quantile sketch of the per-partition histogram.
pub(super) fn partition_details(
    pc: &mut ProfCtx,
    node: usize,
    prefix: &str,
    side: &PartitionedSide,
) {
    let n = side.num_partitions();
    let mut sizes: Vec<usize> = (0..n).map(|p| side.partition_row_range(p).len()).collect();
    sizes.sort_unstable();
    let total: usize = sizes.iter().sum();
    let max = sizes.last().copied().unwrap_or(0);
    let avg = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    pc.detail(node, &format!("{prefix}_partitions"), n);
    pc.detail(node, &format!("{prefix}_rows"), total);
    pc.detail(node, &format!("{prefix}_bytes"), side.byte_size());
    pc.detail(node, &format!("{prefix}_max_part"), max);
    pc.detail(node, &format!("{prefix}_avg_part"), avg);
    if avg > 0.0 {
        pc.detail(node, &format!("{prefix}_skew"), max as f64 / avg);
    }
    if !sizes.is_empty() {
        let q = |f: f64| sizes[((sizes.len() - 1) as f64 * f) as usize];
        pc.detail(
            node,
            &format!("{prefix}_part_sizes"),
            format!("{}/{}/{}/{}/{}", sizes[0], q(0.25), q(0.5), q(0.75), max),
        );
    }
}

/// Attach the shape of a BHJ's chaining hash table to its trace node.
pub(super) fn chain_details(pc: &mut ProfCtx, node: usize, chain: &ChainStats) {
    pc.detail(node, "ht_buckets", chain.buckets);
    pc.detail(node, "ht_load_factor", chain.load_factor());
    pc.detail(node, "ht_max_chain", chain.max_chain);
    pc.detail(node, "ht_avg_chain", chain.avg_chain());
}

/// Attach what a chain walk over a BHJ-built table — the BHJ's or the
/// groupjoin's — saw: the build side, the table's shape, and the probe's
/// effort, which the probe pipeline's workers publish as they flush.
pub(super) fn walk_details(pc: &mut ProfCtx, node: usize, walker: &BhjWalker) {
    let (state, probe) = (&walker.state, &walker.counters);
    pc.detail(node, "build_rows", state.rows);
    pc.detail(node, "build_bytes", state.byte_size());
    chain_details(pc, node, &state.chain_stats());
    pc.live_detail(node, "probe_rows", &probe.rows);
    pc.live_detail(node, "probe_tag_rejects", &probe.tag_rejects);
    pc.live_detail(node, "probe_chain_visits", &probe.visits);
}

/// Attach what a join's residual saw, if it has one: the key-equal
/// candidate pairs it tested and those that passed, published as the
/// probing workers flush (BHJ) or the join tasks finish (RJ, BRJ, HHJ).
pub(super) fn residual_details(pc: &mut ProfCtx, node: usize, residual: Option<&Arc<Residual>>) {
    if let Some(residual) = residual {
        pc.live_detail(node, "residual_candidates", &residual.candidates);
        pc.live_detail(node, "residual_passed", &residual.passed);
    }
}

/// Attach the adaptive selector's decision and its "why" to the trace node
/// of the join it was made for.
pub(super) fn adaptive_details(pc: &mut ProfCtx, node: usize, decision: &Decision) {
    pc.detail(node, "adaptive_choice", decision.algo.name());
    pc.detail(node, "adaptive_reason", decision.reason.clone());
    pc.detail(node, "adaptive_cost_bhj_ms", decision.costs.bhj / 1e6);
    pc.detail(node, "adaptive_cost_rj_ms", decision.costs.rj / 1e6);
    if decision.costs.brj.is_finite() {
        pc.detail(node, "adaptive_cost_brj_ms", decision.costs.brj / 1e6);
    }
    let estimate = &decision.estimate;
    pc.detail(node, "adaptive_est_build_rows", estimate.build_rows as i64);
    pc.detail(node, "adaptive_est_probe_rows", estimate.probe_rows as i64);
    pc.detail(
        node,
        "adaptive_est_bloom_selectivity",
        estimate.bloom_selectivity,
    );
    pc.detail(node, "adaptive_ht_bytes", decision.ht_bytes as i64);
}
