//! Compiling one join node into pipelines, under whichever algorithm.
//!
//! [`Engine::compile_join`] is the only place a [`JoinAlgo`] is dispatched
//! on, and the only place a join that cannot run as compiled is recompiled
//! as something cheaper. The two builders below it — [`Engine::bhj`] for
//! the non-partitioned join, [`Engine::radix`] for the joins that
//! radix-partition their build side (the RJ, the BRJ, and the HHJ, which is
//! the BHJ compiled with an eviction) — turn a [`JoinNode`] into pipelines
//! and know nothing about fallback: they return the error and the ladder
//! decides. The BHJ's build half, [`Engine::build_table`], is also the
//! groupjoin's.

use super::details::{
    adaptive_details, hw_details, partition_details, residual_details, walk_details,
};
use super::engine::{Compiled, DiscardSink};
use super::{joinlog, Engine, JoinAlgo, JoinNode, Plan};
use crate::bhj::{BhjBuildSink, BhjProbeOp, BhjState, BhjUnmatchedSource};
use crate::cost::Decision;
use crate::groupjoin::{self, GroupAggSpec};
use crate::hybrid::{HybridJoin, HybridJoinSource};
use crate::join_common::{JoinStats, Residual};
use crate::qprof::{ProfCtx, Slot};
use crate::radix::{ClosedSet, PartitionedSide};
use crate::rj::BloomProbeOp;
use joinstudy_exec::context::algo_bits;
use joinstudy_exec::error::{ExecError, ExecResult};
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::pipeline::{Source, StreamSpec};
use joinstudy_exec::profile::PipelineStats;
use joinstudy_exec::{registry, trace, PipelineLabel, WaitState};
use joinstudy_storage::table::Schema;
use std::sync::Arc;

/// How far past [`RadixConfig::target_partition_bytes`] the largest build
/// partition may grow before an adaptively-chosen radix join concludes the
/// key distribution is skewed and falls back to the BHJ.
///
/// [`RadixConfig::target_partition_bytes`]: crate::radix::RadixConfig::target_partition_bytes
const REGIME_SKEW_FACTOR: usize = 8;

/// The degradation ladder: what a join that cannot run as compiled is
/// recompiled as, one rung down at a time. Each rung materializes less than
/// the one above it — the radix joins both sides, the BHJ only the build
/// side (the paper's central trade-off, read in reverse), the hybrid join —
/// the BHJ again, this time allowed to evict — only what its share of the
/// budget holds of the build side, spilling the rest and the probe rows
/// that belong to it. The BRJ stands on the RJ's rung; the last rung is
/// correct under any budget that holds its minimum working set, so below it
/// an error (naming that floor) is the caller's.
const LADDER: [JoinAlgo; 3] = [JoinAlgo::Rj, JoinAlgo::Bhj, JoinAlgo::Hybrid];

/// What [`Engine::build_table`] leaves behind: the table, the build schema
/// its rows have, the build pipeline's counters and the build side's node.
pub(super) type BuiltTable = (Arc<BhjState>, Schema, Arc<PipelineStats>, Option<usize>);

impl Engine {
    /// Compile `node` as `algo`, walking down the [`LADDER`] for as long as
    /// the rung just tried fails in a way the next one can absorb:
    ///
    /// * [`ExecError::BudgetExceeded`] — the memory budget cannot hold what
    ///   this rung materializes. Counted as a degradation on the process
    ///   metrics and the query context.
    /// * [`ExecError::RegimeMismatch`] — an *adaptively chosen* radix join
    ///   measured its build side and found the plan-time estimate wrong
    ///   ([`Engine::check_regime`]). Counted in `adaptive.fallbacks`.
    ///
    /// Each failed rung's trace nodes are rolled back — the next rung
    /// re-runs the join's whole subtree and re-traces it — and the node of
    /// the rung that succeeded records the path taken in one `degraded`
    /// and/or one `adaptive_fallback` detail.
    pub(super) fn compile_join(
        &self,
        node: &JoinNode<'_>,
        mut algo: JoinAlgo,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<Compiled> {
        let mark = prof.as_deref_mut().map(|pc| pc.save());
        let mut decision = None;
        let mut degraded = String::new();
        let mut fallback = None;
        let (spec, id) = loop {
            let attempt = match algo {
                JoinAlgo::Adaptive => {
                    let chosen = self.decide(node);
                    algo = chosen.algo;
                    decision = Some(chosen);
                    continue;
                }
                JoinAlgo::Bhj => self.bhj(node, prof.as_deref_mut()),
                JoinAlgo::Rj | JoinAlgo::Brj | JoinAlgo::Hybrid => {
                    self.radix(node, algo, decision.as_ref(), prof.as_deref_mut())
                }
            };
            let err = match attempt {
                Ok(compiled) => break compiled,
                Err(err) => err,
            };
            let rung = LADDER.iter().position(|&r| r == algo).unwrap_or(0);
            let Some(&next) = LADDER.get(rung + 1) else {
                return Err(err);
            };
            let step = format!("{} -> {}", algo.name(), next.name());
            match &err {
                ExecError::BudgetExceeded { .. } => {
                    metrics::record_degradation();
                    self.ctx.note_degradation();
                    trace::instant(format!("degradation: {step} (memory budget)"));
                    degraded = if degraded.is_empty() {
                        step
                    } else {
                        format!("{degraded} -> {}", next.name())
                    };
                }
                ExecError::RegimeMismatch { detail } => {
                    registry::global().counter("adaptive.fallbacks").add(1);
                    trace::instant(format!("adaptive fallback: {step} ({detail})"));
                    fallback = Some(format!("{step}: {detail}"));
                }
                _ => return Err(err),
            }
            if let (Some(pc), Some(mark)) = (prof.as_deref_mut(), mark) {
                pc.restore(mark);
            }
            algo = next;
        };
        if let (Some(pc), Some(id)) = (prof, id) {
            if !degraded.is_empty() {
                pc.detail(id, "degraded", degraded);
            }
            if let Some(fallback) = fallback {
                pc.detail(id, "adaptive_fallback", fallback);
            }
            if let Some(decision) = &decision {
                adaptive_details(pc, id, decision);
            }
        }
        Ok((spec, id))
    }

    /// Answer the join question for one `Adaptive` join node: estimate,
    /// decide, and record the decision (registry counters + trace instant).
    fn decide(&self, node: &JoinNode<'_>) -> Decision {
        let model = self.cost_model();
        let mut decision = crate::adaptive::decide(
            &model,
            node.kind,
            node.build,
            node.probe,
            node.build_keys,
            node.probe_keys,
        );
        // The memory budget trumps the regime model: a build side that
        // cannot fit goes straight to the out-of-core hybrid join instead
        // of degrading its way there at runtime.
        model.apply_budget(&mut decision, self.ctx.memory_budget());
        let reg = registry::global();
        reg.counter("adaptive.decisions").add(1);
        reg.counter(match decision.algo {
            JoinAlgo::Rj => "adaptive.choice.rj",
            JoinAlgo::Brj => "adaptive.choice.brj",
            JoinAlgo::Hybrid => "adaptive.choice.hybrid",
            _ => "adaptive.choice.bhj",
        })
        .add(1);
        trace::instant(format!(
            "adaptive: {} — {}",
            decision.algo.name(),
            decision.reason
        ));
        decision
    }

    /// The hash-table build the BHJ and the groupjoin share: `build`'s
    /// pipeline, widened by one zero cell per aggregate of `aggs` (none for
    /// the BHJ), runs as `name` into a [`BhjBuildSink`] on `keys`, then the
    /// chaining table is linked over its rows. Only the BHJ's build is
    /// `charged`: its sink leases from the query context and its pipeline
    /// runs in the `Build` memory phase.
    pub(super) fn build_table(
        &self,
        build: &Plan,
        keys: &[usize],
        aggs: &[GroupAggSpec],
        name: &str,
        charged: bool,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<BuiltTable> {
        let (mut spec, child) = self.stream(build, prof.as_deref_mut())?;
        if !aggs.is_empty() {
            let widened = groupjoin::output_schema(&spec.schema, aggs);
            let cells = groupjoin::cells_op(spec.schema.len(), aggs);
            spec = spec.push_op(Arc::new(cells), widened);
        }
        let types: Vec<_> = spec.schema.fields.iter().map(|f| f.dtype).collect();
        let mut sink = BhjBuildSink::new(&types, keys.to_vec());
        if charged {
            sink = sink.with_context(Arc::clone(&self.ctx));
            metrics::mark_phase(MemPhase::Build);
        }
        let label = PipelineLabel::new(name, WaitState::CpuBuild);
        let stats = self.run_breaker(label, &spec, &sink, prof)?;
        let _span = trace::phase_scope(format!("{name} finalize (hash table)"));
        Ok((sink.into_state(self.threads)?, spec.schema, stats, child))
    }

    /// The buffered non-partitioned hash join: the build side is a pipeline
    /// breaker, the probe is fused into the probe side's pipeline.
    fn bhj(&self, node: &JoinNode<'_>, mut prof: Option<&mut ProfCtx>) -> ExecResult<Compiled> {
        let kind = node.kind;
        self.ctx.note_join_algo(algo_bits::BHJ);
        // Pipeline 1: materialize the build side + parallel table build.
        let (state, build_schema, build_stats, bchild) = self.build_table(
            node.build,
            node.build_keys,
            &[],
            "BHJ build",
            true,
            prof.as_deref_mut(),
        )?;
        joinlog::record(joinlog::JoinSizes {
            algo: JoinAlgo::Bhj.name(),
            build_rows: state.rows,
            build_bytes: state.byte_size(),
            // The probe side is never materialized.
            ..Default::default()
        });

        // Pipeline 2: the probe side, with the probe fused in.
        let (probe_spec, pchild) = self.stream(node.probe, prof.as_deref_mut())?;
        let out_schema = kind.output_schema(&build_schema, &probe_spec.schema);
        let op_idx = probe_spec.ops.len();
        let residual = node.residual.cloned().map(Residual::new);
        let probe_op = Arc::new(BhjProbeOp::new(
            Arc::clone(&state),
            node.probe_keys.to_vec(),
            kind,
            self.bhj_prefetch,
            residual.clone(),
        ));

        let id = prof.as_deref_mut().map(|pc| {
            let label = node.label(JoinAlgo::Bhj.name());
            let id = pc.node(label, bchild.into_iter().chain(pchild).collect());
            pc.bind(id, &build_stats, Slot::Sink);
            hw_details(pc, id, "hw_build_", &build_stats);
            walk_details(pc, id, &probe_op.walker);
            residual_details(pc, id, residual.as_ref());
            pc.pend(id, Slot::Op(op_idx));
            id
        });

        metrics::mark_phase(MemPhase::Other);
        let mut spec = probe_spec.push_op(probe_op, out_schema.clone());
        // Whatever breaker this pipeline ends in, what it mostly does is
        // probe.
        spec.cpu = WaitState::CpuProbe;
        if !kind.preserves_build() {
            return Ok((spec, id));
        }
        // The probe pipeline only marks; the result pipeline scans the
        // hash table (how real systems start an anti-join's output).
        let label = PipelineLabel::new("BHJ probe (mark)", WaitState::CpuProbe);
        self.run_breaker(label, &spec, &DiscardSink, prof.as_deref_mut())?;
        if let (Some(pc), Some(id)) = (prof, id) {
            pc.pend(id, Slot::Source);
        }
        let source = Arc::new(BhjUnmatchedSource::new(state, kind));
        Ok((StreamSpec::new(source, out_schema), id))
    }

    /// The joins whose build side is radix-partitioned, one rung each: the
    /// radix join (`algo` = RJ), its Bloom-filtered variant (BRJ), and the
    /// out-of-core dynamic hybrid hash join (HHJ), which is the BHJ
    /// compiled with an eviction. The build side is a full pipeline breaker
    /// (Algorithm 1) into the sink of one [`HybridJoin`]. Then:
    ///
    /// * The RJ and BRJ partition their probe side the same way and start
    ///   the next pipeline with the partition-wise join. Their sinks lease
    ///   what they hold at the full fan-out and fail when the budget
    ///   refuses. The BRJ's build side builds the Bloom filter its probe
    ///   pipeline drops tuples with. One picked *adaptively* (`adaptive`
    ///   carries the plan-time [`Decision`]) has its row estimates ride on
    ///   the partitioning pipelines' labels, and the build side's measured
    ///   histogram held against the estimate before the probe side is
    ///   touched ([`Engine::check_regime`]).
    /// * The HHJ's build sink evicts: when its share of the budget runs out
    ///   it closes pre-partitions to spill runs, at a pass-1 fan-out fitted
    ///   to that share and capped. What stayed open becomes one BHJ table,
    ///   and the probe side is not a breaker: a [`RouteOp`] fused into its
    ///   pipeline writes the rows of closed pre-partitions to runs and
    ///   probes the table with the rest, as [`Engine::bhj`] does. The
    ///   closed pairs are reloaded by a [`HybridJoinSource`], which
    ///   continues that pipeline — or, for a build-preserving join type,
    ///   starts the next one after the resident table's build rows.
    ///
    /// [`RouteOp`]: crate::radix::RouteOp
    fn radix(
        &self,
        node: &JoinNode<'_>,
        algo: JoinAlgo,
        adaptive: Option<&Decision>,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<Compiled> {
        let kind = node.kind;
        let tag = algo.name();
        let evicting = algo == JoinAlgo::Hybrid;
        let adaptive = adaptive.filter(|_| !evicting);
        self.ctx.note_join_algo(match algo {
            JoinAlgo::Brj => algo_bits::BRJ,
            JoinAlgo::Hybrid => algo_bits::HHJ,
            _ => algo_bits::RJ,
        });
        // The Bloom reducer may only *drop* probe tuples when unmatched
        // probe tuples leave the join anyway; for anti/mark/outer variants
        // it must stay out of the way (the optimizer would pick RJ there).
        let use_bloom = algo == JoinAlgo::Brj && !kind.probe_tuples_survive_unmatched();
        // The HHJ's share of the budget: all that is free when it is the
        // plan's only join, else half. Joins hold memory pairwise — a join
        // phase streams into its parent's sink, while joins further up hold
        // at most a resident build side, which `used` already counts — so
        // the other half is the neighbour's.
        let budget = self.ctx.memory_budget();
        let ways = self.live_joins().min(2);
        let share = budget
            .filter(|_| evicting)
            .map(|b| b.saturating_sub(self.ctx.used()) / ways);
        let types = |schema: &Schema| -> Vec<_> { schema.fields.iter().map(|f| f.dtype).collect() };

        // The join's level — fan-out and memory split — is fixed before any
        // child runs, so a budget below the floor fails before work is spent.
        let (build_schema, probe_schema) = (node.build.schema(), node.probe.schema());
        let out_schema = kind.output_schema(&build_schema, &probe_schema);
        let mut join = HybridJoin {
            ctx: Arc::clone(&self.ctx),
            dir: None,
            radix: self.radix,
            build_types: types(&build_schema),
            probe_types: types(&probe_schema),
            build_keys: node.build_keys.to_vec(),
            probe_keys: node.probe_keys.to_vec(),
            kind,
            residual: node.residual.cloned().map(Residual::new),
            prefetch: self.bhj_prefetch,
            seq: Default::default(),
            reload_depth: Default::default(),
            spill_runs: Default::default(),
            spill_bytes: Default::default(),
        };
        if evicting {
            join.open_spill_dir()?;
        }
        let level =
            join.top_level(share, self.threads)
                .map_err(|floor| ExecError::BudgetExceeded {
                    requested: floor * ways,
                    in_use: self.ctx.used(),
                    budget: budget.unwrap_or(usize::MAX),
                    phase: "hybrid join floor",
                })?;
        let closed = ClosedSet::new(level.fanout());

        // Pipeline 1: build side → radix partitions (full breaker).
        let (build_spec, bchild) = self.stream(node.build, prof.as_deref_mut())?;
        let build_sink = join.build_sink(&level, &closed);
        metrics::mark_phase(MemPhase::Build);
        // The cost model's cardinality estimate rides along so
        // `jsys.query_progress` can report an est-vs-actual fraction.
        let label = PipelineLabel {
            name: &format!("{tag} partition (build)"),
            cpu: WaitState::CpuPartition,
            est_rows: adaptive.map_or(0, |d| d.estimate.build_rows as u64),
        };
        let build_stats = self.run_breaker(label, &build_spec, &build_sink, prof.as_deref_mut())?;
        // The build side's own joins are done: what they held goes now.
        drop(build_spec);

        if evicting {
            let table = join.table(&level, &build_sink, &closed, self.threads)?;
            let build_rows = table.build_rows();
            joinlog::record(joinlog::JoinSizes {
                algo: tag,
                build_rows: build_rows as usize,
                build_bytes: build_rows as usize * build_sink.layout().stride(),
                // The probe side is never materialized.
                ..Default::default()
            });
            // Pipeline 2: the probe side, routed and probed in flight.
            let (probe_spec, pchild) = self.stream(node.probe, prof.as_deref_mut())?;
            let op_idx = probe_spec.ops.len();
            let route = Arc::new(join.route(&table, &build_sink));
            let join = Arc::new(join);
            let id = prof.as_deref_mut().map(|pc| {
                let id = pc.node(node.label(tag), bchild.into_iter().chain(pchild).collect());
                pc.bind(id, &build_stats, Slot::Sink);
                hw_details(pc, id, "hw_build_", &build_stats);
                pc.detail(id, "bits1", level.bits1());
                pc.detail(id, "spill_fanout", level.fanout());
                pc.detail(
                    id,
                    "resident_partitions",
                    level.fanout() - table.closed_partitions(),
                );
                pc.detail(id, "evictions", table.evictions());
                route.with_probe(|probe| walk_details(pc, id, &probe.walker));
                pc.live_detail(id, "spill_partitions", &join.spill_runs);
                pc.live_detail(id, "spill_bytes", &join.spill_bytes);
                pc.live_detail(id, "reload_depth", &join.reload_depth);
                residual_details(pc, id, join.residual.as_ref());
                pc.pend(id, Slot::Op(op_idx));
                id
            });
            metrics::mark_phase(MemPhase::Join);
            let mut spec = probe_spec.push_op(Arc::clone(&route) as _, out_schema.clone());
            spec.cpu = WaitState::CpuProbe;
            let reloads = HybridJoinSource::new(join, &level, table, route);
            if !kind.preserves_build() {
                // What was closed joins after the probe side, in the same
                // pipeline.
                if reloads.task_count() > 0 {
                    if let (Some(pc), Some(id)) = (prof, id) {
                        pc.pend(id, Slot::Continued(spec.continuations.len()));
                    }
                    spec = spec.continue_with(Arc::new(reloads));
                }
                return Ok((spec, id));
            }
            let label = PipelineLabel::new("HHJ probe (mark)", WaitState::CpuProbe);
            self.run_breaker(label, &spec, &DiscardSink, prof.as_deref_mut())?;
            if let (Some(pc), Some(id)) = (prof, id) {
                pc.pend(id, Slot::Source);
            }
            return Ok((StreamSpec::new(Arc::new(reloads), out_schema), id));
        }

        let (build, bloom) = HybridJoin::finish(&build_sink, self.threads, None, use_bloom)?;
        if let Some(decision) = adaptive {
            self.check_regime(decision, &build)?;
        }
        let bits2 = build.bits2();

        // Pipeline 2: probe side (+ Bloom reducer) → radix partitions.
        let (mut probe_spec, pchild) = self.stream(node.probe, prof.as_deref_mut())?;
        let mut bloom_op: Option<(usize, Arc<BloomProbeOp>, usize)> = None;
        if let Some(bloom) = bloom {
            let bloom_bytes = bloom.byte_size();
            let schema = probe_spec.schema.clone();
            let op = Arc::new(BloomProbeOp::new(
                Arc::new(bloom),
                node.probe_keys.to_vec(),
                build.bits1(),
                bits2,
                self.adaptive_bloom,
            ));
            bloom_op = Some((probe_spec.ops.len(), Arc::clone(&op), bloom_bytes));
            probe_spec = probe_spec.push_op(op, schema);
        }
        let probe_sink = join.probe_sink(&level);
        metrics::mark_phase(MemPhase::PartitionPass1);
        let bloom_suffix = if bloom_op.is_some() {
            " + bloom probe"
        } else {
            ""
        };
        let label = PipelineLabel {
            name: &format!("{tag} partition (probe){bloom_suffix}"),
            cpu: WaitState::CpuPartition,
            est_rows: adaptive.map_or(0, |d| d.estimate.probe_rows as u64),
        };
        let probe_stats = self.run_breaker(label, &probe_spec, &probe_sink, prof.as_deref_mut())?;
        drop(probe_spec);
        let (probe, _) = HybridJoin::finish(&probe_sink, self.threads, Some(bits2), false)?;
        let stats = Arc::new(JoinStats::default());
        let source = join.radix_join(build, probe).with_stats(Arc::clone(&stats));
        let (build, probe) = (source.build(), source.probe());
        joinlog::record(joinlog::JoinSizes {
            algo: tag,
            build_rows: build.total_rows(),
            build_bytes: build.byte_size(),
            probe_rows: probe.total_rows(),
            probe_bytes: probe.byte_size(),
            stats: Some(stats),
        });

        // Pipeline 3 starts here: the partition-wise join.
        metrics::mark_phase(MemPhase::Join);
        let id = prof.map(|pc| {
            let id = pc.node(node.label(tag), bchild.into_iter().chain(pchild).collect());
            pc.bind(id, &build_stats, Slot::Sink);
            hw_details(pc, id, "hw_build_", &build_stats);
            pc.bind(id, &probe_stats, Slot::Sink);
            hw_details(pc, id, "hw_probe_", &probe_stats);
            pc.detail(id, "bits1", level.bits1());
            pc.detail(id, "bits2", bits2);
            partition_details(pc, id, "build", build);
            partition_details(pc, id, "probe", probe);
            residual_details(pc, id, join.residual.as_ref());
            if let Some((idx, op, bytes)) = &bloom_op {
                pc.detail(id, "bloom_bytes", *bytes);
                let probed = probe_stats.ops[*idx].rows_in();
                let passed = probe_stats.ops[*idx].rows_out();
                pc.detail(id, "bloom_probed", probed);
                pc.detail(id, "bloom_passed", passed);
                if probed > 0 {
                    pc.detail(id, "bloom_selectivity", passed as f64 / probed as f64);
                }
                if op.was_disabled() {
                    pc.detail(id, "bloom_disabled", "adaptive");
                }
            }
            pc.pend(id, Slot::Source);
            id
        });
        Ok((StreamSpec::new(Arc::new(source), out_schema), id))
    }

    /// The adaptive escape hatch's measurement check, run right after the
    /// build side's partitioning passes: re-ask the cost model with the
    /// *measured* build cardinality and tuple width, and inspect the
    /// partition histogram for skew. Returns [`ExecError::RegimeMismatch`]
    /// when the measurement contradicts the plan-time choice — i.e. the
    /// model would now answer "do not partition", or one partition blew
    /// past [`REGIME_SKEW_FACTOR`]× the configured target size (a skewed
    /// key whose partition-local table will not be cache-resident anyway).
    fn check_regime(&self, decision: &Decision, build_side: &PartitionedSide) -> ExecResult<()> {
        let measured_rows = build_side.total_rows();
        let measured_width = if measured_rows > 0 {
            build_side.byte_size() as f64 / measured_rows as f64
        } else {
            decision.estimate.build_width
        };
        let mut e = decision.estimate;
        e.build_rows = (measured_rows as f64).max(1.0);
        e.build_width = measured_width;
        let re = self.cost_model().decide(&e);
        if re.algo == JoinAlgo::Bhj {
            return Err(ExecError::RegimeMismatch {
                detail: format!(
                    "measured build side {} rows × {:.0} B (estimated {:.0} × {:.0} B); {}",
                    measured_rows,
                    measured_width,
                    decision.estimate.build_rows,
                    decision.estimate.build_width,
                    re.reason,
                ),
            });
        }
        let max_part_bytes = (0..build_side.num_partitions())
            .map(|p| build_side.partition_row_range(p).len())
            .max()
            .unwrap_or(0) as f64
            * measured_width;
        let limit = (REGIME_SKEW_FACTOR * self.radix.target_partition_bytes) as f64;
        if max_part_bytes > limit {
            return Err(ExecError::RegimeMismatch {
                detail: format!(
                    "skew: largest build partition {:.0} B exceeds {REGIME_SKEW_FACTOR}x \
                     the {} B target",
                    max_part_bytes, self.radix.target_partition_bytes,
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod profile_tests {
    use super::super::{find, join_plan, table_kv, Plan};
    use super::*;
    use crate::join_common::JoinType;
    use joinstudy_exec::profile::DetailValue;

    #[test]
    fn profiled_join_counts_match_result_all_algos() {
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
            for threads in [1, 4] {
                let plan = join_plan(algo);
                let engine = Engine::new(threads);
                let (table, profile) = engine.execute_profiled(&plan).unwrap();
                assert_eq!(table.num_rows(), 4000, "{} t={threads}", algo.name());
                assert_eq!(profile.threads, threads);
                assert!(profile.wall_ns > 0);
                let join = find(&profile.root, "Join").unwrap();
                assert_eq!(
                    join.rows_out,
                    4000,
                    "{} t={threads}: join rows_out\n{}",
                    algo.name(),
                    profile.render()
                );
                // Output node consumes exactly the join's output.
                assert_eq!(profile.root.rows_in, 4000);
                // Both scans report their emitted rows.
                let scans: Vec<_> = profile
                    .root
                    .iter()
                    .into_iter()
                    .filter(|n| n.label.starts_with("Scan"))
                    .map(|n| n.rows_out)
                    .collect();
                let mut sorted = scans.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![2000, 6000], "{}", algo.name());
            }
        }
    }

    #[test]
    fn bhj_profile_reports_hash_table_stats() {
        let plan = join_plan(JoinAlgo::Bhj);
        let (_, profile) = Engine::new(2).execute_profiled(&plan).unwrap();
        let join = find(&profile.root, "Join BHJ").unwrap();
        let keys: Vec<&str> = join.details.iter().map(|(k, _)| k.as_str()).collect();
        for expected in ["build_rows", "ht_buckets", "ht_load_factor", "ht_max_chain"] {
            assert!(keys.contains(&expected), "missing {expected}: {keys:?}");
        }
        // What the probe cost, published by both workers' flushes: 6000 probe
        // rows, 4000 of which have exactly one partner to dereference.
        let count = |k: &str| match join.details.iter().find(|(key, _)| key == k) {
            Some((_, DetailValue::Int(n))) => *n,
            other => panic!("{k}: {other:?}"),
        };
        assert_eq!(count("probe_rows"), 6000);
        assert!(count("probe_chain_visits") >= 4000);
        assert!(count("probe_tag_rejects") + count("probe_chain_visits") >= 6000);
        assert!((1..=2000).contains(&count("probe_tag_rejects")));
    }

    #[test]
    fn rj_profile_reports_partition_histograms() {
        let plan = join_plan(JoinAlgo::Rj);
        let (_, profile) = Engine::new(2).execute_profiled(&plan).unwrap();
        let join = find(&profile.root, "Join RJ").unwrap();
        let detail = |k: &str| join.details.iter().find(|(key, _)| key == k);
        assert!(detail("build_partitions").is_some());
        assert!(detail("probe_part_sizes").is_some());
        match detail("build_rows").map(|(_, v)| v) {
            Some(DetailValue::Int(n)) => assert_eq!(*n, 2000),
            other => panic!("build_rows: {other:?}"),
        }
        match detail("probe_skew").map(|(_, v)| v) {
            Some(DetailValue::Float(s)) => assert!(*s >= 1.0),
            other => panic!("probe_skew: {other:?}"),
        }
    }

    #[test]
    fn brj_profile_reports_bloom_selectivity() {
        let plan = join_plan(JoinAlgo::Brj);
        let (_, profile) = Engine::new(2).execute_profiled(&plan).unwrap();
        let join = find(&profile.root, "Join BRJ").unwrap();
        let detail = |k: &str| {
            join.details
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
        };
        match detail("bloom_probed") {
            Some(DetailValue::Int(n)) => assert_eq!(*n, 6000),
            other => panic!("bloom_probed: {other:?}"),
        }
        match detail("bloom_selectivity") {
            Some(DetailValue::Float(s)) => {
                // 4000 of 6000 probe tuples have a build partner; the Bloom
                // filter passes those plus some false positives.
                assert!(*s >= 4000.0 / 6000.0 && *s <= 1.0, "selectivity {s}");
            }
            other => panic!("bloom_selectivity: {other:?}"),
        }
    }

    #[test]
    fn degradation_rolls_back_trace_and_reports_fallback() {
        let plan = join_plan(JoinAlgo::Rj);
        let engine = Engine::new(2);
        // Budget fits the BHJ build side but not both partitioned sides.
        engine.ctx.set_memory_budget(Some(100 * 1024));
        let (table, profile) = match engine.execute_profiled(&plan) {
            Ok(ok) => ok,
            Err(e) => panic!("expected degradation, got {e}"),
        };
        assert_eq!(table.num_rows(), 4000);
        assert_eq!(profile.degradations, 1, "{}", profile.render());
        let join = find(&profile.root, "Join BHJ").expect("fallback BHJ node");
        assert!(
            join.details
                .iter()
                .any(|(k, v)| k == "degraded"
                    && matches!(v, DetailValue::Str(s) if s == "RJ -> BHJ")),
            "{}",
            profile.render()
        );
        assert!(find(&profile.root, "Join RJ").is_none(), "rolled back");
    }

    #[test]
    fn two_rung_degradation_leaves_one_node_and_one_detail() {
        let build: Vec<(i64, i64)> = (0..8_000).map(|i| (i, i)).collect();
        let probe: Vec<(i64, i64)> = (0..24_000).map(|i| (i % 12_000, i)).collect();
        let plan = Plan::scan(&table_kv(&build), &["k", "v"], None).join(
            Plan::scan(&table_kv(&probe), &["k", "v"], None),
            JoinAlgo::Rj,
            JoinType::Inner,
            &[0],
            &[0],
        );
        let engine = Engine::new(2);
        // Too small for the partitioned sides and for the BHJ's build side.
        engine.ctx.set_memory_budget(Some(256 * 1024));
        let (table, profile) = engine.execute_profiled(&plan).unwrap();
        assert_eq!(table.num_rows(), 16_000);
        assert_eq!(profile.degradations, 2, "{}", profile.render());
        let join = find(&profile.root, "Join HHJ").expect("last-rung node");
        assert!(
            join.details.iter().any(|(k, v)| k == "degraded"
                && matches!(v, DetailValue::Str(s) if s == "RJ -> BHJ -> HHJ")),
            "{}",
            profile.render()
        );
        for gone in ["Join RJ", "Join BHJ"] {
            assert!(find(&profile.root, gone).is_none(), "{gone} rolled back");
        }
        for node in profile.nodes() {
            let mut keys: Vec<&str> = node.details.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            let all = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), all, "{}: repeated detail key", node.label);
        }
        // And so the JSON export has no object with a duplicate key.
        assert_eq!(profile.to_json().matches("\"degraded\":").count(), 1);
    }
}
