//! Folding the engine's per-query profiles into per-layer totals.
//!
//! A traced pass runs every plan through `Engine::execute_profiled` (or, for
//! TPC-H, with profiling switched on in the `QueryContext`) and folds each
//! resulting tree by operator kind. Busy times are the profile's own, the
//! figures EXPLAIN ANALYZE prints: an operator's or sink's time is
//! exclusive, a *source's* (Scan, Stream) includes the operators fused
//! behind it, so the kinds overlap and do not sum to CPU time. The share of
//! worker capacity nothing ran on is measured separately, from process CPU
//! time (`trace.unaccounted_frac`).

use joinstudy_exec::context::QueryContext;
use joinstudy_exec::profile::{DetailValue, ProfileNode, QueryProfile};

/// Per-layer totals of one pass (one run of a workload's query list under
/// one join algorithm).
#[derive(Debug, Default, Clone)]
pub struct LayerAcc {
    pub scan_ns: u64,
    pub filter_map_ns: u64,
    pub aggregate_ns: u64,
    pub sort_ns: u64,
    pub join_ns: u64,
    /// Wall time the harness spent building plans (or, where the product
    /// builds them behind one call, that call minus the engine's own wall).
    pub plan_build_ns: u64,
    pub bloom_probed: u64,
    pub bloom_passed: u64,
    /// Probe tuples the Bloom filter let through that found no partner.
    pub bloom_false: u64,
    pub spill_write_bytes: u64,
    pub spill_read_bytes: u64,
    pub spill_io_ns: u64,
    pub spilled_partitions: u64,
    pub budget_peak_bytes: u64,
    pub degradations: u64,
}

fn detail_int(node: &ProfileNode, key: &str) -> Option<u64> {
    node.details
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            DetailValue::Int(n) => Some(*n as u64),
            _ => None,
        })
}

impl LayerAcc {
    /// Fold one profiled execution. `ctx` is the context it ran under,
    /// read for the spill and budget counters the profile does not break
    /// out (they describe the same execution: both reset on `arm`).
    pub fn fold(&mut self, profile: &QueryProfile, ctx: &QueryContext) {
        for node in profile.root.iter() {
            let label = node.label.as_str();
            let slot = if label.starts_with("Scan") || label.starts_with("Stream") {
                &mut self.scan_ns
            } else if label.starts_with("Filter")
                || label.starts_with("Project")
                || label.starts_with("LateLoad")
            {
                &mut self.filter_map_ns
            } else if label.starts_with("Aggregate") || label.starts_with("GroupJoin") {
                &mut self.aggregate_ns
            } else if label.starts_with("Sort") {
                &mut self.sort_ns
            } else if label.starts_with("Join") {
                &mut self.join_ns
            } else {
                // "Output": result collection, not a layer of its own.
                continue;
            };
            *slot += node.busy_ns;

            if let (Some(probed), Some(passed)) = (
                detail_int(node, "bloom_probed"),
                detail_int(node, "bloom_passed"),
            ) {
                self.bloom_probed += probed;
                self.bloom_passed += passed;
                // With unique build keys (the micro workloads, TPC-H's
                // key-side builds) a reduced join emits one row per matched
                // probe tuple, so what passed beyond the output was a false
                // positive; with duplicate build keys this undercounts.
                self.bloom_false += passed.saturating_sub(node.rows_out);
            }
        }
        self.degradations += profile.degradations;
        self.spill_write_bytes += ctx.spill_write_bytes();
        self.spill_read_bytes += ctx.spill_read_bytes();
        self.spill_io_ns += ctx.spill_io_ns();
        self.spilled_partitions += ctx.spill_partitions();
        self.budget_peak_bytes = self.budget_peak_bytes.max(profile.peak_bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(label: &str, busy_ns: u64, children: Vec<ProfileNode>) -> ProfileNode {
        ProfileNode {
            label: label.into(),
            busy_ns,
            children,
            ..ProfileNode::default()
        }
    }

    #[test]
    fn folds_by_operator_kind() {
        let mut join = node("Join BRJ Inner on build[k] = probe[k]", 70, vec![]);
        join.rows_out = 90;
        join.details = vec![
            ("bloom_probed".into(), DetailValue::Int(1000)),
            ("bloom_passed".into(), DetailValue::Int(100)),
        ];
        join.children = vec![
            node("Scan [k] (10 rows)", 5, vec![]),
            node(
                "Filter",
                3,
                vec![node("Scan [k] filtered (1000 rows)", 20, vec![])],
            ),
        ];
        let root = node(
            "Output",
            1,
            vec![node("Aggregate by[] aggs[cnt]", 11, vec![join])],
        );
        let profile = QueryProfile {
            root,
            wall_ns: 100,
            threads: 2,
            degradations: 1,
            peak_bytes: 4096,
            spill_bytes: 0,
            admission_wait_ns: 0,
            admission_granted: 0,
            simd: "scalar",
        };
        let mut acc = LayerAcc::default();
        acc.fold(&profile, &QueryContext::default());
        assert_eq!(acc.scan_ns, 25);
        assert_eq!(acc.filter_map_ns, 3);
        assert_eq!(acc.aggregate_ns, 11);
        assert_eq!(acc.join_ns, 70);
        assert_eq!((acc.bloom_probed, acc.bloom_false), (1000, 10));
        assert_eq!(acc.degradations, 1);
        assert_eq!(acc.budget_peak_bytes, 4096);
    }
}
