//! Engine-side assembly of [`QueryProfile`] trees.
//!
//! The pipeline compiler ([`crate::plan::Engine`]) walks the plan and runs
//! pipeline breakers as it goes, so the mapping from *plan nodes* to
//! *stage slots of the pipelines' counter blocks* is built incrementally:
//!
//! * every compiled plan node allocates a [`TraceNode`] in a flat arena;
//! * stages of the pipeline **currently being composed** are parked in
//!   `pending` — when the pipeline's breaker finally runs, the run's
//!   [`PipelineStats`] is bound to all pending entries at once
//!   ([`ProfCtx::bind_pending`]);
//! * breakers that run *inside* compilation (build sides, partitioning,
//!   aggregation) bind their own block directly.
//!
//! A node may end up bound to several slots (a join aggregates its build
//! sink, probe operator, and result source), and [`ProfCtx::build`] sums
//! them into one [`ProfileNode`] per plan node.
//!
//! A pipeline whose [`StreamSpec`](joinstudy_exec::StreamSpec) has
//! continuations runs as several blocks, the main one and one per
//! continuation (whose operator slots start at its entry). A stage bound to
//! the main block is bound to the continuations' too where they ran it, and
//! the node that added a continuation reads its source through
//! [`Slot::Continued`].
//!
//! [`ProfCtx::save`]/[`ProfCtx::restore`] give the degradation ladder
//! (`plan::join`) transactional semantics: the failed rung's subtree is
//! rolled back and the next rung re-traces it. This is sound because `pending`
//! is always empty when a join compile starts (parents pend their own ops
//! only after recursing, and every breaker drains `pending` completely).

use joinstudy_exec::profile::{DetailValue, PipelineStats, ProfileNode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which stage slot of a pipeline's block a trace node reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Source,
    Op(usize),
    Sink,
    /// The source of the pipeline's `n`-th continuation.
    Continued(usize),
}

/// One plan node under construction.
struct TraceNode {
    label: String,
    children: Vec<usize>,
    bound: Vec<(Arc<PipelineStats>, Slot)>,
    details: Vec<(String, DetailValue)>,
    /// Details whose value is only final once the node's pipelines ran.
    live: Vec<(String, Arc<AtomicU64>)>,
}

/// Trace arena built while the engine compiles and runs pipelines.
#[derive(Default)]
pub(crate) struct ProfCtx {
    nodes: Vec<TraceNode>,
    /// Stages of the pipeline currently being composed, waiting for their
    /// breaker: `(node id, slot)` pairs.
    pending: Vec<(usize, Slot)>,
    /// The block of every pipeline run so far, in run order. Not rolled
    /// back by [`ProfCtx::restore`]: an abandoned compile's pipelines still
    /// spent the query's wall time.
    pub runs: Vec<Arc<PipelineStats>>,
    /// Main blocks with continuations: each continuation's block and entry.
    continued: Vec<(Arc<PipelineStats>, Continued)>,
}

/// The blocks of a pipeline's continuations that ran, each with the index
/// of the operator it entered at.
pub(crate) type Continued = Vec<(Arc<PipelineStats>, usize)>;

impl ProfCtx {
    /// Allocate a trace node with the given children (already allocated).
    pub fn node(&mut self, label: impl Into<String>, children: Vec<usize>) -> usize {
        self.nodes.push(TraceNode {
            label: label.into(),
            children,
            bound: Vec::new(),
            details: Vec::new(),
            live: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Park `(node, slot)` until the current pipeline's breaker runs.
    pub fn pend(&mut self, node: usize, slot: Slot) {
        self.pending.push((node, slot));
    }

    /// Bind one slot of a finished (or running) pipeline to a node — and
    /// of its continuations, where they ran the same stage.
    pub fn bind(&mut self, node: usize, stats: &Arc<PipelineStats>, slot: Slot) {
        let continued = self.continued.iter().filter(|(m, _)| Arc::ptr_eq(m, stats));
        let mut bound = Vec::new();
        for (c, entry) in continued.flat_map(|(_, c)| c) {
            match slot {
                Slot::Op(i) if i >= *entry => bound.push((Arc::clone(c), Slot::Op(i - entry))),
                Slot::Sink => bound.push((Arc::clone(c), Slot::Sink)),
                _ => {}
            }
        }
        let node = &mut self.nodes[node];
        node.bound.push((Arc::clone(stats), slot));
        node.bound.extend(bound);
    }

    /// The breaker ran: bind every pending stage to the run's block, and
    /// to the blocks of its `continued` runs.
    pub fn bind_pending(&mut self, stats: &Arc<PipelineStats>, continued: Continued) {
        self.runs.push(Arc::clone(stats));
        self.runs
            .extend(continued.iter().map(|(c, _)| Arc::clone(c)));
        let sources: Vec<_> = continued.iter().map(|(c, _)| Arc::clone(c)).collect();
        if !continued.is_empty() {
            self.continued.push((Arc::clone(stats), continued));
        }
        for (node, slot) in std::mem::take(&mut self.pending) {
            match slot {
                // A continuation that never ran (its pipeline failed first)
                // leaves nothing to read.
                Slot::Continued(n) => {
                    if let Some(c) = sources.get(n) {
                        self.nodes[node].bound.push((Arc::clone(c), Slot::Source));
                    }
                }
                slot => self.bind(node, stats, slot),
            }
        }
    }

    /// Attach an algorithm-specific statistic to a node.
    pub fn detail(&mut self, node: usize, key: &str, value: impl Into<DetailValue>) {
        self.nodes[node]
            .details
            .push((key.to_string(), value.into()));
    }

    /// Attach a statistic that is still being counted: read when the
    /// profile tree is built, after every pipeline has run.
    pub fn live_detail(&mut self, node: usize, key: &str, value: &Arc<AtomicU64>) {
        self.nodes[node]
            .live
            .push((key.to_string(), Arc::clone(value)));
    }

    /// Transaction mark for [`ProfCtx::restore`].
    pub fn save(&self) -> (usize, usize) {
        (self.nodes.len(), self.pending.len())
    }

    /// Roll back to a [`ProfCtx::save`] mark (degradation fallback). Only
    /// valid when no node allocated before the mark references a node
    /// allocated after it — true for the join-compile transaction because
    /// children are allocated before their parent.
    pub fn restore(&mut self, mark: (usize, usize)) {
        self.nodes.truncate(mark.0);
        self.pending.truncate(mark.1);
        debug_assert!(
            self.pending.iter().all(|&(n, _)| n < mark.0),
            "pending entry references a rolled-back node"
        );
    }

    /// Node ids not referenced as anyone's child — the forest tops of a
    /// partially compiled plan. Used to assemble a partial profile when
    /// compilation or execution fails mid-way: the surviving subtrees hang
    /// off a synthetic "partial" root in allocation order.
    pub fn roots(&self) -> Vec<usize> {
        let mut referenced = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &c in &n.children {
                referenced[c] = true;
            }
        }
        (0..self.nodes.len()).filter(|&i| !referenced[i]).collect()
    }

    /// Assemble the finished profile tree rooted at `root`, summing every
    /// bound stage slot into its node.
    pub fn build(&self, root: usize) -> ProfileNode {
        let t = &self.nodes[root];
        let mut node = ProfileNode::new(t.label.clone());
        for (stats, slot) in &t.bound {
            node.add_stats(match slot {
                Slot::Source | Slot::Continued(_) => &stats.source,
                Slot::Op(i) => &stats.ops[*i],
                Slot::Sink => &stats.sink,
            });
        }
        node.details = t.details.clone();
        for (key, value) in &t.live {
            let value = value.load(Ordering::Relaxed) as i64;
            node.details.push((key.clone(), value.into()));
        }
        node.children = t.children.iter().map(|&c| self.build(c)).collect();
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_exec::profile::{LocalSlot, WorkerProf};
    use joinstudy_exec::QueryContext;

    fn slot(morsels: u64, batches: u64, rows_in: u64, rows_out: u64, busy_ns: u64) -> LocalSlot {
        LocalSlot {
            morsels,
            batches,
            rows_in,
            rows_out,
            busy_ns,
        }
    }

    /// A finished run's block with `ops` operator slots, holding the counts
    /// `fill` sets on one worker record.
    fn block(ops: usize, fill: impl FnOnce(&mut WorkerProf)) -> Arc<PipelineStats> {
        let ctx = QueryContext::unbounded();
        let stats = PipelineStats::new(&ctx, "test".into(), ops, 0, true);
        let mut w = WorkerProf::new(ops);
        fill(&mut w);
        stats.add(&w);
        Arc::new(stats)
    }

    #[test]
    fn pending_binds_and_builds_tree() {
        let mut pc = ProfCtx::default();
        let scan = pc.node("Scan", vec![]);
        pc.pend(scan, Slot::Source);
        let filter = pc.node("Filter", vec![scan]);
        pc.pend(filter, Slot::Op(0));

        let obs = block(1, |w| {
            w.source = slot(2, 2, 0, 100, 10);
            w.ops[0] = slot(0, 2, 100, 40, 5);
            w.sink = slot(0, 2, 40, 0, 1);
        });
        pc.bind_pending(&obs, Vec::new());
        assert!(pc.save().1 == 0, "pending drained");

        let root = pc.node("Output", vec![filter]);
        pc.bind(root, &obs, Slot::Sink);
        pc.detail(root, "note", 7i64);

        let tree = pc.build(root);
        assert_eq!(tree.label, "Output");
        assert_eq!(tree.rows_in, 40);
        assert_eq!(tree.details[0].0, "note");
        assert_eq!(tree.children.len(), 1);
        let filter = &tree.children[0];
        assert_eq!(filter.rows_in, 100);
        assert_eq!(filter.rows_out, 40);
        assert_eq!(filter.children[0].rows_out, 100);
        assert_eq!(filter.children[0].morsels, 2);
    }

    #[test]
    fn restore_rolls_back_nodes_and_pending() {
        let mut pc = ProfCtx::default();
        let keep = pc.node("keep", vec![]);
        let mark = pc.save();
        let gone = pc.node("gone", vec![]);
        pc.pend(gone, Slot::Source);
        pc.restore(mark);
        // Re-traced subtree reuses the freed arena slots.
        let redo = pc.node("redo", vec![]);
        assert_eq!(redo, gone);
        let root = pc.node("root", vec![keep, redo]);
        let tree = pc.build(root);
        assert_eq!(tree.children[1].label, "redo");
    }

    #[test]
    fn roots_finds_unreferenced_forest_tops() {
        let mut pc = ProfCtx::default();
        let scan = pc.node("Scan", vec![]);
        let filter = pc.node("Filter", vec![scan]);
        let orphan = pc.node("Scan2", vec![]);
        assert_eq!(pc.roots(), vec![filter, orphan]);
        // A synthetic partial root over the forest builds cleanly.
        let tops = pc.roots();
        let out = pc.node("Output -- partial --", tops);
        let tree = pc.build(out);
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].label, "Filter");
    }

    #[test]
    fn multiple_slots_sum_into_one_node() {
        let mut pc = ProfCtx::default();
        let join = pc.node("Join", vec![]);
        let build_obs = block(0, |w| w.sink = slot(0, 1, 300, 0, 7));
        let probe_obs = block(1, |w| w.ops[0] = slot(0, 4, 900, 500, 9));
        pc.bind(join, &build_obs, Slot::Sink);
        pc.bind(join, &probe_obs, Slot::Op(0));
        let tree = pc.build(join);
        assert_eq!(tree.rows_in, 1200);
        assert_eq!(tree.rows_out, 500);
        assert_eq!(tree.busy_ns, 16);
    }
}
