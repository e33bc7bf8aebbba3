//! The query engine: configuration, the execute entry points, the one
//! place a pipeline is submitted ([`Engine::run_breaker`]), and the
//! compilation of every plan node that is not a swappable join.

use super::details::{hw_details, walk_details};
use super::Plan;
use crate::bhj::{BhjUnmatchedSource, BhjWalker};
use crate::groupjoin::GroupJoinProbeOp;
use crate::qprof::{ProfCtx, Slot};
use crate::radix::RadixConfig;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::ops::{
    AggSink, CollectSink, FilterOp, LateLoadOp, ProjectOp, SortSink, TableScan,
};
use joinstudy_exec::pipeline::{LocalState, Operator, Sink, Source, StreamSpec};
use joinstudy_exec::profile::{PipelineStats, QueryProfile};
use joinstudy_exec::trace::{self, QueryTrace};
use joinstudy_exec::{Batch, Executor, PipelineLabel, WaitState};
use joinstudy_storage::table::{Schema, Table};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A compiled subtree: its topmost pipeline, still open for more fused
/// operators or a breaker, and — when profiling — the trace node of the
/// subtree's root (its pipeline stages left pending for that breaker).
pub(super) type Compiled = (StreamSpec, Option<usize>);

/// A sink that drops everything (used for the probe pipeline of
/// build-preserving BHJ variants, whose output pipeline starts elsewhere).
pub(super) struct DiscardSink;

impl Sink for DiscardSink {
    fn consume(&self, _local: &mut LocalState, _input: Batch) -> ExecResult {
        Ok(())
    }
}

/// The query engine: executes plans with a fixed thread count and join
/// configuration.
#[derive(Clone)]
pub struct Engine {
    pub threads: usize,
    pub radix: RadixConfig,
    /// Adaptive Bloom-filter switch-off (§5.4.1).
    pub adaptive_bloom: bool,
    /// Software prefetching in the BHJ probe (ablation switch).
    pub bhj_prefetch: bool,
    /// Shared cancellation / deadline / memory-budget context. Cloning the
    /// engine shares the context (same session semantics).
    pub ctx: Arc<QueryContext>,
    /// Profile of the most recent profiled [`Engine::execute`], stashed so
    /// callers that only see result tables (TPC-H query closures, the SQL
    /// session) can retrieve it afterwards. Shared across clones like `ctx`.
    profile: Arc<Mutex<Option<QueryProfile>>>,
    /// Counter blocks of the most recent [`Engine::execute_profiled`], one
    /// per pipeline in run order. Shared across clones.
    pipelines: Arc<Mutex<Vec<Arc<PipelineStats>>>>,
    /// Worker-timeline trace of the most recent traced [`Engine::execute`]
    /// (enabled via [`QueryContext::set_tracing`]). Shared across clones.
    trace_out: Arc<Mutex<Option<QueryTrace>>>,
    /// Cost model used by [`JoinAlgo::Adaptive`] join nodes. `None` means
    /// the process-wide calibration ([`crate::cost::Calibration::global`]);
    /// tests and benchmarks inject a specific one via
    /// [`Engine::with_cost_model`].
    cost_model: Option<Arc<crate::cost::CostModel>>,
    /// Shared worker pool for concurrent serving. `None` (the default)
    /// gives every query its own scoped worker team; `Some` submits all
    /// pipelines to the pool so workers interleave morsels across queries.
    pool: Option<Arc<joinstudy_exec::pool::WorkerPool>>,
    /// [`Plan::live_joins`] of the plan being executed: whether a hybrid
    /// join has the memory budget to itself. Shared across clones.
    live_joins: Arc<AtomicUsize>,
}

impl Engine {
    pub fn new(threads: usize) -> Engine {
        let ctx = QueryContext::unbounded();
        // `JOINSTUDY_MEMORY_BUDGET=<bytes>` caps every engine built with
        // `Engine::new` (CI's spill job runs the whole suite under a tiny
        // budget this way). Explicit `with_context` calls override it.
        if let Ok(v) = std::env::var("JOINSTUDY_MEMORY_BUDGET") {
            if let Ok(bytes) = v.trim().parse::<usize>() {
                ctx.set_memory_budget(Some(bytes));
            }
        }
        Engine {
            threads,
            radix: RadixConfig::default(),
            adaptive_bloom: false,
            bhj_prefetch: true,
            ctx,
            profile: Arc::new(Mutex::new(None)),
            pipelines: Arc::new(Mutex::new(Vec::new())),
            trace_out: Arc::new(Mutex::new(None)),
            cost_model: None,
            pool: None,
            live_joins: Arc::new(AtomicUsize::new(1)),
        }
    }

    /// Joins of the running plan that can hold memory at the same time.
    pub(super) fn live_joins(&self) -> usize {
        self.live_joins.load(Ordering::Relaxed)
    }

    /// Route every pipeline of this engine through a shared worker pool
    /// (`None` restores private scoped worker teams). The engine's
    /// `threads` is updated to the pool's worker count so plan-time
    /// parallelism decisions (radix fan-out, morsel sizing) match the
    /// workers that will actually run the query.
    pub fn set_worker_pool(&mut self, pool: Option<Arc<joinstudy_exec::pool::WorkerPool>>) {
        if let Some(p) = &pool {
            self.threads = p.threads();
        }
        self.pool = pool;
    }

    /// The shared worker pool this engine submits pipelines to, if any.
    /// Telemetry surfaces (the `jsys.pool` system table, the `METRICS`
    /// scrape) read pool gauges through this.
    pub fn worker_pool(&self) -> Option<Arc<joinstudy_exec::pool::WorkerPool>> {
        self.pool.clone()
    }

    /// Pin the cost model consulted by [`JoinAlgo::Adaptive`] join nodes
    /// instead of the process-wide calibrated one.
    pub fn with_cost_model(mut self, model: crate::cost::CostModel) -> Engine {
        self.cost_model = Some(Arc::new(model));
        self
    }

    /// The cost model for adaptive decisions.
    pub(super) fn cost_model(&self) -> crate::cost::CostModel {
        match &self.cost_model {
            Some(m) => (**m).clone(),
            None => crate::cost::CostModel::global(),
        }
    }

    /// Replace the engine's query context (cancellation handle, deadline,
    /// memory budget). The context is re-armed at the start of every
    /// [`Engine::execute`].
    pub fn with_context(mut self, ctx: Arc<QueryContext>) -> Engine {
        self.ctx = ctx;
        self
    }

    fn executor(&self) -> Executor {
        match &self.pool {
            Some(pool) => Executor::pooled(Arc::clone(pool)),
            None => Executor::new(self.threads),
        }
    }

    /// Execute a plan to a materialized result table, honouring the
    /// engine's [`QueryContext`]: cooperative cancellation, wall-clock
    /// deadline, and memory budget all surface as typed [`ExecError`]s. The
    /// context is re-armed (cancel flag cleared, deadline timer restarted,
    /// budget accounting zeroed) at the start of every call.
    pub fn execute(&self, plan: &Plan) -> ExecResult<Table> {
        if self.ctx.profiling() {
            let (table, profile) = self.execute_profiled(plan)?;
            *self.profile.lock() = Some(profile);
            return Ok(table);
        }
        self.traced(|| Ok(self.run_plan(plan, None)?.0))
    }

    /// The one body of [`Engine::execute`] and [`Engine::execute_profiled`]:
    /// arm the context, compile (running every pipeline below the last
    /// breaker), then run the output pipeline. With a trace arena the
    /// second result is its `Output` root.
    fn run_plan(
        &self,
        plan: &Plan,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(Table, Option<usize>)> {
        self.ctx.arm();
        self.live_joins
            .store(plan.live_joins().max(1), Ordering::Relaxed);
        let (spec, root) = self.stream(plan, prof.as_deref_mut())?;
        // The plan node's schema and the operators' agree, on every plan
        // any debug-mode test or run executes.
        debug_assert_eq!(plan.schema(), spec.schema);
        let sink = CollectSink::new(spec.schema.clone());
        let label = PipelineLabel::new("output", spec.cpu);
        let stats = self.run_breaker(label, &spec, &sink, prof.as_deref_mut())?;
        let out = prof.map(|pc| {
            let out = pc.node("Output", root.into_iter().collect());
            pc.bind(out, &stats, Slot::Sink);
            hw_details(pc, out, "hw_", &stats);
            out
        });
        Ok((sink.into_table(), out))
    }

    /// Record a worker-timeline trace around `f` when the context asks for
    /// one ([`QueryContext::set_tracing`]); the finished trace is stashed
    /// for [`Engine::take_trace`]. The tracer records one query at a time:
    /// if another trace is already active, `f` runs untraced.
    fn traced<R>(&self, f: impl FnOnce() -> R) -> R {
        let tracing = self.ctx.tracing() && trace::begin("query");
        if tracing {
            trace::instant(format!("simd path: {}", crate::simd::active().name()));
        }
        let result = f();
        if tracing {
            *self.trace_out.lock() = trace::end();
        }
        result
    }

    /// Execute a plan with per-operator profiling, returning the result and
    /// its [`QueryProfile`] tree (the engine half of EXPLAIN ANALYZE).
    /// Profiles regardless of [`QueryContext::profiling`].
    ///
    /// On error the partial profile — every pipeline that drained before
    /// the failure flushed its counts — is stashed for
    /// [`Engine::take_profile`], so interactive callers can show where a
    /// failed query spent its time.
    pub fn execute_profiled(&self, plan: &Plan) -> ExecResult<(Table, QueryProfile)> {
        self.traced(|| {
            let t0 = Instant::now();
            let mut pc = ProfCtx::default();
            let run = self.run_plan(plan, Some(&mut pc));
            let out = match &run {
                Ok((_, out)) => out.expect("profiled run returns its Output node"),
                Err(_) => {
                    let roots = pc.roots();
                    pc.node("Output -- partial --", roots)
                }
            };
            let ctx = &self.ctx;
            let profile = QueryProfile {
                root: pc.build(out),
                wall_ns: t0.elapsed().as_nanos() as u64,
                threads: self.threads,
                degradations: ctx.degradations(),
                peak_bytes: ctx.high_water(),
                spill_bytes: ctx.spill_write_bytes() + ctx.spill_read_bytes(),
                admission_wait_ns: ctx.admission_wait_ns(),
                admission_granted: ctx.admission_granted(),
                simd: crate::simd::active().name(),
            };
            *self.pipelines.lock() = pc.runs;
            match run {
                Ok((table, _)) => Ok((table, profile)),
                Err(e) => {
                    *self.profile.lock() = Some(profile);
                    Err(e)
                }
            }
        })
    }

    /// Take the profile stashed by the most recent profiled
    /// [`Engine::execute`] (enabled via [`QueryContext::set_profiling`]).
    /// After a *failed* profiled execution this returns the partial profile
    /// of the pipelines that ran before the error.
    pub fn take_profile(&self) -> Option<QueryProfile> {
        self.profile.lock().take()
    }

    /// Take the counter blocks of the pipelines the most recent profiled
    /// execution ran (failed ones included), in run order: per pipeline the
    /// label, wall time, worker count and every stage's counts — the
    /// pipeline-level reading the [`QueryProfile`] tree folds away.
    pub fn take_pipelines(&self) -> Vec<Arc<PipelineStats>> {
        std::mem::take(&mut *self.pipelines.lock())
    }

    /// Take the worker-timeline trace stashed by the most recent traced
    /// [`Engine::execute`] (enabled via [`QueryContext::set_tracing`]).
    pub fn take_trace(&self) -> Option<QueryTrace> {
        self.trace_out.lock().take()
    }

    /// Infallible convenience for benchmarks and tests that run without
    /// budgets or cancellation: panics on any execution error.
    pub fn run(&self, plan: &Plan) -> Table {
        self.execute(plan).expect("query execution failed")
    }

    /// Run one pipeline under `label` into `sink` and return its counter
    /// block, timed when profiling. The spec's continuations follow, in
    /// order, into the same sink, each as a run of its own. The blocks are
    /// bound to all pending trace slots *before* the error check so a failed
    /// pipeline still leaves the trace arena consistent (the degradation
    /// fallback relies on this).
    pub(super) fn run_breaker(
        &self,
        label: PipelineLabel<'_>,
        spec: &StreamSpec,
        sink: &dyn Sink,
        pc: Option<&mut ProfCtx>,
    ) -> ExecResult<Arc<PipelineStats>> {
        let timed = pc.is_some();
        let run = |label, source: &dyn Source, ops: &[Arc<dyn Operator>]| {
            let tasks = source.task_count() as u64;
            let stats = Arc::new(PipelineStats::new(
                &self.ctx,
                label,
                ops.len(),
                tasks,
                timed,
            ));
            let run = self
                .executor()
                .run_pipeline_obs(&self.ctx, source, ops, sink, &stats);
            (stats, run)
        };
        let (stats, mut result) = run(label, spec.source.as_ref(), &spec.ops);
        let mut continued = Vec::new();
        let name = match spec.continuations.is_empty() {
            true => String::new(),
            false => format!("{} (continued)", label.name),
        };
        for c in &spec.continuations {
            if result.is_err() {
                break;
            }
            let label = PipelineLabel {
                name: &name,
                ..label
            };
            let (block, run) = run(label, c.source.as_ref(), &spec.ops[c.entry..]);
            continued.push((block, c.entry));
            result = run;
        }
        if let Some(pc) = pc {
            pc.bind_pending(&stats, continued);
        }
        result?;
        Ok(stats)
    }

    /// Compile a plan into its topmost pipeline, running every pipeline
    /// below the last breaker. When `prof` is given, every plan node gets a
    /// trace node labeled [`Plan::label`]; the returned id refers to the
    /// topmost one (its pipeline stages are left pending for the caller's
    /// breaker).
    pub(super) fn stream(
        &self,
        plan: &Plan,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<Compiled> {
        match plan {
            Plan::Scan {
                table,
                cols,
                filter,
                tid,
            } => {
                let mut scan = TableScan::new(Arc::clone(table), cols.clone(), filter.clone());
                if *tid {
                    scan = scan.with_tid();
                }
                let schema = scan.output_schema();
                let node = trace_node(prof, plan, None, Slot::Source);
                Ok((StreamSpec::new(Arc::new(scan), schema), node))
            }
            Plan::Stream { source, schema, .. } => {
                let node = trace_node(prof, plan, None, Slot::Source);
                Ok((StreamSpec::new(Arc::clone(source), schema.clone()), node))
            }
            Plan::Filter { input, pred } => {
                let below = self.stream(input, prof.as_deref_mut())?;
                let schema = below.0.schema.clone();
                let op = Arc::new(FilterOp::new(pred.clone()));
                Ok(fuse(plan, below, op, schema, prof))
            }
            Plan::Map {
                input,
                exprs,
                names,
            } => {
                let below = self.stream(input, prof.as_deref_mut())?;
                let schema = ProjectOp::schema_of(exprs, &below.0.schema, names);
                let op = Arc::new(ProjectOp::new(exprs.clone()));
                Ok(fuse(plan, below, op, schema, prof))
            }
            Plan::LateLoad {
                input,
                table,
                tid_col,
                cols,
            } => {
                let below = self.stream(input, prof.as_deref_mut())?;
                let op = LateLoadOp::new(Arc::clone(table), *tid_col, cols.clone());
                let schema = op.output_schema(&below.0.schema);
                Ok(fuse(plan, below, Arc::new(op), schema, prof))
            }
            Plan::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let sink = AggSink::new(spec.schema.clone(), group_cols.clone(), aggs.clone());
                let label = PipelineLabel::new("aggregate", spec.cpu);
                let stats = self.run_breaker(label, &spec, &sink, prof.as_deref_mut())?;
                let table_bytes = sink.table_bytes();
                let result = sink.into_table();
                let groups = result.num_rows();
                let (spec, node) = rescan(plan, child, &stats, result, prof.as_deref_mut());
                if let (Some(pc), Some(id)) = (prof, node) {
                    pc.detail(id, "groups", groups);
                    pc.detail(id, "merge_us", sink.merge_us());
                    pc.detail(id, "table_bytes", table_bytes);
                }
                Ok((spec, node))
            }
            Plan::Sort { input, keys, limit } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let sink = SortSink::new(spec.schema.clone(), keys.clone(), *limit);
                let label = PipelineLabel::new("sort", spec.cpu);
                let stats = self.run_breaker(label, &spec, &sink, prof.as_deref_mut())?;
                Ok(rescan(plan, child, &stats, sink.into_table(), prof))
            }
            Plan::GroupJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                aggs,
            } => {
                // Pipeline 1: the build side, one zero cell per aggregate
                // appended to its rows, into a BHJ table. Not charged.
                let (state, out_schema, build_stats, bchild) = self.build_table(
                    build,
                    build_keys,
                    aggs,
                    "groupjoin build",
                    false,
                    prof.as_deref_mut(),
                )?;

                // Pipeline 2: the probe adds into the cells, emits nothing.
                let (probe_spec, pchild) = self.stream(probe, prof.as_deref_mut())?;
                let op_idx = probe_spec.ops.len();
                let walker =
                    BhjWalker::new(Arc::clone(&state), probe_keys.clone(), self.bhj_prefetch);
                let op = Arc::new(GroupJoinProbeOp::new(walker, aggs));
                let node = prof.as_deref_mut().map(|pc| {
                    let id = pc.node(plan.label(), bchild.into_iter().chain(pchild).collect());
                    pc.bind(id, &build_stats, Slot::Sink);
                    pc.detail(id, "groups", state.rows);
                    walk_details(pc, id, &op.walker);
                    // The probe op's slot (bound when the probe pipeline
                    // drains) carries the probe-side tuple counts.
                    pc.pend(id, Slot::Op(op_idx));
                    id
                });
                let spec = probe_spec.push_op(op, out_schema.clone());
                let label = PipelineLabel::new("groupjoin probe", WaitState::CpuProbe);
                self.run_breaker(label, &spec, &DiscardSink, prof.as_deref_mut())?;

                // Pipeline 3: every build row, i.e. one row per group.
                if let (Some(pc), Some(id)) = (prof, node) {
                    pc.pend(id, Slot::Source);
                }
                let source = BhjUnmatchedSource::every_row(state);
                Ok((StreamSpec::new(Arc::new(source), out_schema), node))
            }
            Plan::Join { .. } => {
                let (algo, join) = plan.as_join().expect("matched a join");
                self.compile_join(&join, algo, prof)
            }
        }
    }
}

/// Under profiling, allocate `plan`'s trace node over its already compiled
/// `children` and park `slot` — the stage `plan` occupies in the pipeline
/// being composed — until that pipeline's breaker runs.
fn trace_node(
    prof: Option<&mut ProfCtx>,
    plan: &Plan,
    children: Option<usize>,
    slot: Slot,
) -> Option<usize> {
    prof.map(|pc| {
        let id = pc.node(plan.label(), children.into_iter().collect());
        pc.pend(id, slot);
        id
    })
}

/// Fuse `plan`'s operator onto the pipeline compiled for its input.
fn fuse(
    plan: &Plan,
    (spec, child): Compiled,
    op: Arc<dyn Operator>,
    schema: Schema,
    prof: Option<&mut ProfCtx>,
) -> Compiled {
    let node = trace_node(prof, plan, child, Slot::Op(spec.ops.len()));
    (spec.push_op(op, schema), node)
}

/// What follows a materializing breaker (aggregate, sort) whose pipeline
/// ran as `stats`: the next pipeline starts as a scan of `result`, and
/// `plan`'s trace node reads the breaker's sink as its input and that
/// rescan — the source slot of whichever pipeline comes next — as its
/// output.
fn rescan(
    plan: &Plan,
    child: Option<usize>,
    stats: &Arc<PipelineStats>,
    result: Table,
    prof: Option<&mut ProfCtx>,
) -> Compiled {
    let node = prof.map(|pc| {
        let id = pc.node(plan.label(), child.into_iter().collect());
        pc.bind(id, stats, Slot::Sink);
        hw_details(pc, id, "hw_", stats);
        pc.pend(id, Slot::Source);
        id
    });
    let cols = (0..result.schema().len()).collect();
    let scan = TableScan::new(Arc::new(result), cols, None);
    let schema = scan.output_schema();
    (StreamSpec::new(Arc::new(scan), schema), node)
}

#[cfg(test)]
mod tests {
    use super::super::{find, join_plan, table_kv, JoinAlgo};
    use super::*;
    use crate::join_common::JoinType;
    use joinstudy_exec::expr::Expr;
    use joinstudy_exec::ops::{AggFunc, AggSpec, SortKey};
    use joinstudy_exec::profile::DetailValue;

    fn join_count(algo: JoinAlgo, threads: usize) -> i64 {
        let build: Vec<(i64, i64)> = (0..3000).map(|i| (i, i)).collect();
        let probe: Vec<(i64, i64)> = (0..9000).map(|i| (i % 4500, i)).collect();
        let bt = table_kv(&build);
        let pt = table_kv(&probe);
        let plan = Plan::scan(&bt, &["k", "v"], None)
            .join(
                Plan::scan(&pt, &["k", "v"], None),
                algo,
                JoinType::Inner,
                &[0],
                &[0],
            )
            .aggregate(&[], vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")]);
        let engine = Engine::new(threads);
        let result = engine.run(&plan);
        result.column_by_name("cnt").as_i64()[0]
    }

    #[test]
    fn all_three_algorithms_agree_on_count() {
        // probe keys are i % 4500 for i in 0..9000 → keys 0..4500, each
        // twice; matches = keys 0..3000, twice each = 6000.
        for threads in [1, 4] {
            assert_eq!(join_count(JoinAlgo::Bhj, threads), 6000, "BHJ t={threads}");
            assert_eq!(join_count(JoinAlgo::Rj, threads), 6000, "RJ t={threads}");
            assert_eq!(join_count(JoinAlgo::Brj, threads), 6000, "BRJ t={threads}");
        }
    }

    #[test]
    fn pipelined_two_joins_bhj() {
        // Two chained BHJs stay in one pipeline and still produce the right
        // answer: fact → dim1 → dim2.
        let dim1 = table_kv(&[(1, 100), (2, 200)]);
        let dim2 = table_kv(&[(100, 7), (200, 8)]);
        let fact = table_kv(&[(1, 0), (2, 0), (2, 0), (3, 0)]);
        // join1: dim1 ⋈ fact on k; output [d1.k, d1.v, f.k, f.v]
        let j1 = Plan::scan(&dim1, &["k", "v"], None).join(
            Plan::scan(&fact, &["k", "v"], None),
            JoinAlgo::Bhj,
            JoinType::Inner,
            &[0],
            &[0],
        );
        // join2: dim2 ⋈ j1 on dim2.k = d1.v; output [d2.k, d2.v, ...j1]
        let j2 = Plan::scan(&dim2, &["k", "v"], None).join(
            j1,
            JoinAlgo::Bhj,
            JoinType::Inner,
            &[0],
            &[1],
        );
        let plan = j2.aggregate(
            &[],
            vec![
                AggSpec::new(AggFunc::CountStar, 0, "cnt"),
                AggSpec::new(AggFunc::Sum, 1, "s"),
            ],
        );
        let t = Engine::new(2).run(&plan);
        assert_eq!(t.column_by_name("cnt").as_i64()[0], 3);
        // d2.v: one row with 7 (fact key 1) + two rows with 8 (fact key 2).
        assert_eq!(t.column_by_name("s").as_i64()[0], 7 + 8 + 8);
    }

    #[test]
    fn filter_map_sort_pipeline() {
        let t = table_kv(&[(5, 50), (1, 10), (3, 30), (4, 40)]);
        let plan = Plan::scan(&t, &["k", "v"], None)
            .filter(Expr::col(0).gt(Expr::i64(1)))
            .map(
                vec![Expr::col(0), Expr::col(1).mul(Expr::i64(2))],
                &["k", "v2"],
            )
            .sort(vec![SortKey::desc(1)], Some(2));
        let result = Engine::new(1).run(&plan);
        assert_eq!(result.column_by_name("v2").as_i64(), &[100, 80]);
    }

    #[test]
    fn build_anti_join_via_engine_all_algos() {
        let cust = table_kv(&[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let orders = table_kv(&[(2, 0), (2, 0), (4, 0)]);
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
            let plan = Plan::scan(&cust, &["k"], None)
                .join(
                    Plan::scan(&orders, &["k"], None),
                    algo,
                    JoinType::BuildAnti,
                    &[0],
                    &[0],
                )
                .sort(vec![SortKey::asc(0)], None);
            let result = Engine::new(2).run(&plan);
            assert_eq!(result.column(0).as_i64(), &[1, 3], "{}", algo.name());
        }
    }

    #[test]
    fn late_load_via_engine() {
        let t = table_kv(&[(10, 100), (20, 200), (30, 300)]);
        let plan = Plan::scan_tid(&t, &["k"], Some(Expr::col(0).ge(Expr::i64(20))))
            .late_load(&t, 1, &["v"])
            .sort(vec![SortKey::asc(0)], None);
        let result = Engine::new(1).run(&plan);
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.column(2).as_i64(), &[200, 300]);
    }

    #[test]
    fn profiling_flag_stashes_profile_on_engine() {
        let plan = join_plan(JoinAlgo::Bhj);
        let engine = Engine::new(2);
        assert!(engine.take_profile().is_none());
        engine.run(&plan);
        assert!(
            engine.take_profile().is_none(),
            "unprofiled run must not record"
        );
        engine.ctx.set_profiling(true);
        engine.run(&plan);
        let profile = engine.take_profile().expect("profile recorded");
        assert!(engine.take_profile().is_none(), "take drains the slot");
        assert_eq!(profile.root.rows_in, 4000);
        // JSON export round-trips the tree shape.
        let json = profile.to_json();
        assert!(json.contains("\"label\":\"Output\""));
        assert!(json.contains("Join BHJ"));
    }

    #[test]
    fn aggregate_and_sort_nodes_compose() {
        let t = table_kv(&[(1, 10), (2, 20), (1, 30), (2, 40), (3, 50)]);
        let plan = Plan::scan(&t, &["k", "v"], None)
            .aggregate(&[0], vec![AggSpec::new(AggFunc::Sum, 1, "s")])
            .sort(vec![SortKey::desc(1)], Some(2));
        let (table, profile) = Engine::new(1).execute_profiled(&plan).unwrap();
        assert_eq!(table.num_rows(), 2);
        let agg = find(&profile.root, "Aggregate").unwrap();
        assert_eq!(agg.rows_in, 5);
        assert_eq!(agg.rows_out, 3, "three groups rescanned");
        assert!(agg
            .details
            .iter()
            .any(|(k, v)| k == "groups" && matches!(v, DetailValue::Int(3))));
        let detail = |key: &str| agg.details.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert!(matches!(detail("merge_us"), Some(DetailValue::Int(us)) if *us >= 0));
        assert!(
            matches!(detail("table_bytes"), Some(DetailValue::Int(b)) if *b > 0),
            "the merged group table holds three groups"
        );
        let sort = find(&profile.root, "Sort").unwrap();
        assert_eq!(sort.rows_in, 3);
        assert_eq!(sort.rows_out, 2, "limit 2 rescan");
    }

    /// The groupjoin's node shows the BHJ-built table it probes: build size,
    /// chain shape and probe effort beside its group count, and it reads
    /// the build and probe rows in and one row per group out.
    #[test]
    fn groupjoin_profile_reports_its_hash_table() {
        let build: Vec<(i64, i64)> = (0..2000).map(|i| (i, i)).collect();
        let probe: Vec<(i64, i64)> = (0..6000).map(|i| (i % 3000, i)).collect();
        let plan = Plan::scan(&table_kv(&build), &["k", "v"], None).group_join(
            Plan::scan(&table_kv(&probe), &["k", "v"], None),
            &[0],
            &[0],
            vec![crate::groupjoin::GroupAggSpec::count("n")],
        );
        let (table, profile) = Engine::new(2).execute_profiled(&plan).unwrap();
        assert_eq!(table.num_rows(), 2000);
        let gj = find(&profile.root, "GroupJoin").unwrap();
        assert_eq!(gj.rows_in, 2000 + 6000, "{}", profile.render());
        assert_eq!(gj.rows_out, 2000, "{}", profile.render());
        let count = |k: &str| match gj.details.iter().find(|(key, _)| key == k) {
            Some((_, DetailValue::Int(n))) => *n,
            other => panic!("{k}: {other:?}"),
        };
        assert_eq!(count("groups"), 2000);
        assert_eq!(count("build_rows"), 2000);
        // Header, hash, k, v and the count cell: 40 B, padded to 64.
        assert_eq!(count("build_bytes"), 2000 * 64);
        assert_eq!(count("ht_buckets"), 2048);
        assert!(count("ht_max_chain") >= 1);
        assert!(gj.details.iter().any(|(k, _)| k == "ht_load_factor"));
        // 6000 probe rows, 4000 of which have exactly one partner.
        assert_eq!(count("probe_rows"), 6000);
        assert!(count("probe_chain_visits") >= 4000);
        assert!(count("probe_tag_rejects") + count("probe_chain_visits") >= 6000);
    }

    /// The ASH CPU state of every pipeline is what the compiler stamped on
    /// it: a pipeline carrying a fused BHJ probe is sampled as probing even
    /// when the breaker it ends in is an aggregate, a sort or the output.
    #[test]
    fn pipelines_carry_the_cpu_state_the_compiler_stamped() {
        let states = |plan: &Plan| -> Vec<(String, WaitState)> {
            let engine = Engine::new(2);
            engine.execute_profiled(plan).unwrap();
            let runs = engine.take_pipelines();
            runs.iter()
                .map(|p| (p.label.clone(), p.cpu_state))
                .collect()
        };
        let named = |expected: &[(&str, WaitState)]| -> Vec<(String, WaitState)> {
            expected.iter().map(|&(n, s)| (n.to_string(), s)).collect()
        };
        let count = vec![AggSpec::new(AggFunc::CountStar, 0, "cnt")];
        assert_eq!(
            states(&join_plan(JoinAlgo::Bhj).aggregate(&[], count.clone())),
            named(&[
                ("BHJ build", WaitState::CpuBuild),
                ("aggregate", WaitState::CpuProbe),
                ("output", WaitState::CpuScan),
            ])
        );
        assert_eq!(
            states(&join_plan(JoinAlgo::Bhj)),
            named(&[
                ("BHJ build", WaitState::CpuBuild),
                ("output", WaitState::CpuProbe),
            ])
        );
        assert_eq!(
            states(&join_plan(JoinAlgo::Brj).aggregate(&[], count)),
            named(&[
                ("BRJ partition (build)", WaitState::CpuPartition),
                (
                    "BRJ partition (probe) + bloom probe",
                    WaitState::CpuPartition
                ),
                ("aggregate", WaitState::CpuScan),
                ("output", WaitState::CpuScan),
            ])
        );
    }
}
