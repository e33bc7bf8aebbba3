//! Physical plans and the pipeline compiler.
//!
//! A [`Plan`] is the tree an optimizer would emit; [`Engine::execute`]
//! decomposes it into pipelines exactly like the paper's data-centric host
//! system (§4.1, Figure 4):
//!
//! * scans, filters, projections, late loads, **BHJ probes** and **Bloom
//!   probes** are fused into one pipeline — tuples flow through them in
//!   batches without materialization;
//! * **BHJ build sides**, **radix partitioning** (both sides!),
//!   aggregation and sorting are pipeline breakers;
//! * the radix join is *both* a full pipeline breaker and a pipeline
//!   starter (Algorithm 1): the build pipeline runs to completion and is
//!   partitioned, then the probe pipeline runs and is partitioned, then the
//!   partition-wise join starts the next pipeline.
//!
//! Swapping `JoinAlgo` on a join node is all it takes to re-run a query
//! with a different join implementation — the drop-in-replacement property
//! the paper's evaluation methodology depends on (§5.3).

use crate::bhj::{BhjBuildSink, BhjProbeOp, BhjUnmatchedSource};
use crate::groupjoin::{GroupAggSpec, GroupJoinBuildSink, GroupJoinProbeOp, GroupJoinSource};
use crate::hybrid::{HybridJoinSource, PartitionSpillSink, SpillConfig};
use crate::join_common::JoinType;
use crate::qprof::{ProfCtx, Slot};
use crate::radix::{PartitionSink, PartitionedSide, PhaseSet, RadixConfig};
use crate::rj::{BloomProbeOp, RadixJoinSource};
use crate::row::RowLayout;
use crate::spill::SpillDir;
use joinstudy_exec::context::{algo_bits, QueryContext};
use joinstudy_exec::error::{ExecError, ExecResult};
use joinstudy_exec::expr::Expr;
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::ops::{
    AggSink, AggSpec, CollectSink, FilterOp, LateLoadOp, ProjectOp, SortKey, SortSink, TableScan,
};
use joinstudy_exec::pipeline::{LocalState, Sink, Source, StreamSpec};
use joinstudy_exec::profile::{DetailValue, PipelineStats, QueryProfile};
use joinstudy_exec::registry;
use joinstudy_exec::trace::{self, QueryTrace};
use joinstudy_exec::{Batch, Executor, PipelineLabel};
use joinstudy_storage::table::{Field, Schema, Table};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// How far past [`RadixConfig::target_partition_bytes`] the largest build
/// partition may grow before an adaptively-chosen radix join concludes the
/// key distribution is skewed and falls back to the BHJ.
const REGIME_SKEW_FACTOR: usize = 8;

/// Which join implementation a join node uses (the paper's §5.1.1 contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Buffered non-partitioned hash join.
    Bhj,
    /// Radix-partitioned join.
    Rj,
    /// Bloom-filtered radix-partitioned join.
    Brj,
    /// Let the engine pick among the three per join node, from the
    /// calibrated regime model ([`crate::cost`]) over plan-time cardinality
    /// and selectivity estimates ([`crate::adaptive`]). A mis-predicted
    /// partitioned join falls back to the BHJ at runtime when the first
    /// radix pass contradicts the estimate.
    Adaptive,
    /// Out-of-core dynamic hybrid hash join ([`crate::hybrid`]): partitions
    /// both sides, keeps as many build partitions memory-resident as the
    /// budget allows, spills the rest ([`crate::spill`]), and recursively
    /// repartitions oversized spilled partitions. Correct under any memory
    /// budget; the fallback of last resort for [`JoinAlgo::Adaptive`].
    Hybrid,
}

impl JoinAlgo {
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgo::Bhj => "BHJ",
            JoinAlgo::Rj => "RJ",
            JoinAlgo::Brj => "BRJ",
            JoinAlgo::Adaptive => "ADAPTIVE",
            JoinAlgo::Hybrid => "HHJ",
        }
    }
}

/// A physical query plan.
#[derive(Clone)]
pub enum Plan {
    /// Base-table scan with projection and pushed-down predicate. `tid`
    /// additionally emits the `@tid` column (late materialization).
    Scan {
        table: Arc<Table>,
        cols: Vec<usize>,
        filter: Option<Expr>,
        tid: bool,
    },
    /// Streaming source: batches produced on the fly by an external
    /// [`Source`] (e.g. the TPC-H chunk generator), so a pipeline can
    /// consume data that never exists as a materialized table. The engine
    /// treats it exactly like a scan whose table it cannot see: `est_rows`
    /// feeds the adaptive cost model in place of a table row count.
    Stream {
        source: Arc<dyn Source>,
        schema: Schema,
        est_rows: f64,
        label: String,
    },
    /// In-pipeline filter.
    Filter { input: Box<Plan>, pred: Expr },
    /// In-pipeline projection (expressions + output names).
    Map {
        input: Box<Plan>,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    /// Hash join; output schema is `build ++ probe` for inner/outer
    /// variants (see [`JoinType::output_schema`]).
    Join {
        algo: JoinAlgo,
        kind: JoinType,
        build: Box<Plan>,
        probe: Box<Plan>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
    },
    /// Fused join + group-by (Moerkotte & Neumann): one output row per
    /// build tuple with aggregates over its probe matches, empty groups
    /// included (the paper's Q13 operator, footnote 6).
    GroupJoin {
        build: Box<Plan>,
        probe: Box<Plan>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        aggs: Vec<GroupAggSpec>,
    },
    /// Hash aggregation (pipeline breaker).
    Aggregate {
        input: Box<Plan>,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
    },
    /// Sort / top-k (pipeline breaker).
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
        limit: Option<usize>,
    },
    /// Late materialization: fetch `cols` of `table` by the tuple id in
    /// column `tid_col` of the input.
    LateLoad {
        input: Box<Plan>,
        table: Arc<Table>,
        tid_col: usize,
        cols: Vec<usize>,
    },
}

impl Plan {
    // Ergonomic builders, so TPC-H plan code stays readable.

    pub fn scan(table: &Arc<Table>, cols: &[&str], filter: Option<Expr>) -> Plan {
        let idx = cols.iter().map(|n| table.schema().index_of(n)).collect();
        Plan::Scan {
            table: Arc::clone(table),
            cols: idx,
            filter,
            tid: false,
        }
    }

    pub fn scan_tid(table: &Arc<Table>, cols: &[&str], filter: Option<Expr>) -> Plan {
        let idx = cols.iter().map(|n| table.schema().index_of(n)).collect();
        Plan::Scan {
            table: Arc::clone(table),
            cols: idx,
            filter,
            tid: true,
        }
    }

    /// A streaming-source leaf (see [`Plan::Stream`]).
    pub fn stream_source(
        source: Arc<dyn Source>,
        schema: Schema,
        est_rows: f64,
        label: impl Into<String>,
    ) -> Plan {
        Plan::Stream {
            source,
            schema,
            est_rows,
            label: label.into(),
        }
    }

    pub fn filter(self, pred: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            pred,
        }
    }

    pub fn map(self, exprs: Vec<Expr>, names: &[&str]) -> Plan {
        Plan::Map {
            input: Box::new(self),
            exprs,
            names: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn join(
        self,
        probe: Plan,
        algo: JoinAlgo,
        kind: JoinType,
        build_keys: &[usize],
        probe_keys: &[usize],
    ) -> Plan {
        Plan::Join {
            algo,
            kind,
            build: Box::new(self),
            probe: Box::new(probe),
            build_keys: build_keys.to_vec(),
            probe_keys: probe_keys.to_vec(),
        }
    }

    pub fn group_join(
        self,
        probe: Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        aggs: Vec<GroupAggSpec>,
    ) -> Plan {
        Plan::GroupJoin {
            build: Box::new(self),
            probe: Box::new(probe),
            build_keys: build_keys.to_vec(),
            probe_keys: probe_keys.to_vec(),
            aggs,
        }
    }

    pub fn aggregate(self, group_cols: &[usize], aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_cols: group_cols.to_vec(),
            aggs,
        }
    }

    pub fn sort(self, keys: Vec<SortKey>, limit: Option<usize>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
            limit,
        }
    }

    pub fn late_load(self, table: &Arc<Table>, tid_col: usize, cols: &[&str]) -> Plan {
        let idx = cols.iter().map(|n| table.schema().index_of(n)).collect();
        Plan::LateLoad {
            input: Box::new(self),
            table: Arc::clone(table),
            tid_col,
            cols: idx,
        }
    }

    /// The schema this plan produces.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan {
                table, cols, tid, ..
            } => {
                let mut fields: Vec<Field> = cols
                    .iter()
                    .map(|&c| table.schema().fields[c].clone())
                    .collect();
                if *tid {
                    fields.push(Field::new(
                        joinstudy_exec::ops::scan::TID_COLUMN,
                        joinstudy_storage::types::DataType::Int64,
                    ));
                }
                Schema::new(fields)
            }
            Plan::Stream { schema, .. } => schema.clone(),
            Plan::Filter { input, .. } => input.schema(),
            Plan::Map {
                input,
                exprs,
                names,
            } => {
                let in_schema = input.schema();
                Schema::new(
                    exprs
                        .iter()
                        .zip(names)
                        .map(|(e, n)| Field::new(n.clone(), e.dtype(&in_schema)))
                        .collect(),
                )
            }
            Plan::Join {
                kind, build, probe, ..
            } => kind.output_schema(&build.schema(), &probe.schema()),
            Plan::GroupJoin { build, aggs, .. } => {
                let mut fields = build.schema().fields;
                for a in aggs {
                    fields.push(Field::new(
                        a.name.clone(),
                        match a.func {
                            crate::groupjoin::GroupAggFunc::SumDecimal => {
                                joinstudy_storage::types::DataType::Decimal
                            }
                            _ => joinstudy_storage::types::DataType::Int64,
                        },
                    ));
                }
                Schema::new(fields)
            }
            Plan::Aggregate {
                input,
                group_cols,
                aggs,
            } => AggSink::new(input.schema(), group_cols.clone(), aggs.clone()).output_schema(),
            Plan::Sort { input, .. } => input.schema(),
            Plan::LateLoad {
                input, table, cols, ..
            } => {
                let mut fields = input.schema().fields;
                for &c in cols {
                    fields.push(table.schema().fields[c].clone());
                }
                Schema::new(fields)
            }
        }
    }

    /// Number of join nodes (used by the Fig 12 permutation harness).
    pub fn count_joins(&self) -> usize {
        match self {
            Plan::Scan { .. } | Plan::Stream { .. } => 0,
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::LateLoad { input, .. } => input.count_joins(),
            // The groupjoin has one fixed implementation (it is not part of
            // the BHJ/RJ/BRJ swap), so it does not count as an overridable join.
            Plan::GroupJoin { build, probe, .. } => build.count_joins() + probe.count_joins(),
            Plan::Join { build, probe, .. } => 1 + build.count_joins() + probe.count_joins(),
        }
    }

    /// Override the algorithm of join number `idx` (post-order numbering,
    /// build side first — the paper's Figure 12/13 numbering). Returns the
    /// number of joins seen in this subtree.
    pub fn override_join_algo(&mut self, idx: usize, algo: JoinAlgo) -> usize {
        fn walk(plan: &mut Plan, idx: usize, algo: JoinAlgo, counter: &mut usize) {
            match plan {
                Plan::Scan { .. } | Plan::Stream { .. } => {}
                Plan::Filter { input, .. }
                | Plan::Map { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Sort { input, .. }
                | Plan::LateLoad { input, .. } => walk(input, idx, algo, counter),
                Plan::GroupJoin { build, probe, .. } => {
                    walk(build, idx, algo, counter);
                    walk(probe, idx, algo, counter);
                }
                Plan::Join {
                    build,
                    probe,
                    algo: a,
                    ..
                } => {
                    walk(build, idx, algo, counter);
                    walk(probe, idx, algo, counter);
                    if *counter == idx {
                        *a = algo;
                    }
                    *counter += 1;
                }
            }
        }
        let mut counter = 0;
        walk(self, idx, algo, &mut counter);
        counter
    }

    /// Set every join node's algorithm (the §5.3 methodology: "replacing
    /// all joins in the query tree with the join under testing").
    pub fn set_all_join_algos(&mut self, algo: JoinAlgo) {
        match self {
            Plan::Scan { .. } | Plan::Stream { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::LateLoad { input, .. } => input.set_all_join_algos(algo),
            Plan::GroupJoin { build, probe, .. } => {
                build.set_all_join_algos(algo);
                probe.set_all_join_algos(algo);
            }
            Plan::Join {
                build,
                probe,
                algo: a,
                ..
            } => {
                *a = algo;
                build.set_all_join_algos(algo);
                probe.set_all_join_algos(algo);
            }
        }
    }

    /// Render the plan as an indented operator tree (EXPLAIN). Joins carry
    /// their algorithm, variant, key columns, and post-order join number
    /// (the numbering used by Figures 12/13 and the override API).
    pub fn explain(&self) -> String {
        fn fmt_cols(schema: &Schema, cols: &[usize]) -> String {
            cols.iter()
                .map(|&c| schema.fields[c].name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        }
        fn walk(plan: &Plan, depth: usize, join_no: &mut usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match plan {
                Plan::Scan {
                    table,
                    cols,
                    filter,
                    tid,
                } => {
                    let names = fmt_cols(table.schema(), cols);
                    out.push_str(&format!(
                        "{pad}Scan [{names}]{}{} ({} rows)\n",
                        if filter.is_some() { " filtered" } else { "" },
                        if *tid { " +tid" } else { "" },
                        table.num_rows()
                    ));
                }
                Plan::Stream {
                    label, est_rows, ..
                } => {
                    out.push_str(&format!("{pad}Stream [{label}] (~{est_rows:.0} rows)\n"));
                }
                Plan::Filter { input, .. } => {
                    out.push_str(&format!("{pad}Filter\n"));
                    walk(input, depth + 1, join_no, out);
                }
                Plan::Map { input, names, .. } => {
                    out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                    walk(input, depth + 1, join_no, out);
                }
                Plan::Join {
                    algo,
                    kind,
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                } => {
                    // Children first: the printed number matches the
                    // post-order numbering of override_join_algo.
                    let mut child_text = String::new();
                    walk(build, depth + 1, join_no, &mut child_text);
                    walk(probe, depth + 1, join_no, &mut child_text);
                    *join_no += 1;
                    out.push_str(&format!(
                        "{pad}Join #{} {} {:?} on build[{}] = probe[{}]\n",
                        join_no,
                        algo.name(),
                        kind,
                        fmt_cols(&build.schema(), build_keys),
                        fmt_cols(&probe.schema(), probe_keys),
                    ));
                    out.push_str(&child_text);
                }
                Plan::GroupJoin {
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    aggs,
                } => {
                    out.push_str(&format!(
                        "{pad}GroupJoin on build[{}] = probe[{}] aggs[{}]\n",
                        fmt_cols(&build.schema(), build_keys),
                        fmt_cols(&probe.schema(), probe_keys),
                        aggs.iter()
                            .map(|a| a.name.clone())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ));
                    walk(build, depth + 1, join_no, out);
                    walk(probe, depth + 1, join_no, out);
                }
                Plan::Aggregate {
                    input,
                    group_cols,
                    aggs,
                } => {
                    out.push_str(&format!(
                        "{pad}Aggregate by[{}] aggs[{}]\n",
                        fmt_cols(&input.schema(), group_cols),
                        aggs.iter()
                            .map(|a| a.name.clone())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ));
                    walk(input, depth + 1, join_no, out);
                }
                Plan::Sort { input, keys, limit } => {
                    let keys: Vec<String> = keys
                        .iter()
                        .map(|k| {
                            format!(
                                "{}{}",
                                input.schema().fields[k.col].name,
                                if k.ascending { "" } else { " desc" }
                            )
                        })
                        .collect();
                    out.push_str(&format!(
                        "{pad}Sort [{}]{}\n",
                        keys.join(", "),
                        limit.map(|l| format!(" limit {l}")).unwrap_or_default()
                    ));
                    walk(input, depth + 1, join_no, out);
                }
                Plan::LateLoad {
                    input, table, cols, ..
                } => {
                    out.push_str(&format!(
                        "{pad}LateLoad [{}]\n",
                        fmt_cols(table.schema(), cols)
                    ));
                    walk(input, depth + 1, join_no, out);
                }
            }
        }
        let mut out = String::new();
        let mut join_no = 0;
        walk(self, 0, &mut join_no, &mut out);
        out
    }
}

/// Per-join size accounting for the Figure-1 scatter plot (build × probe
/// side bytes of every executed join). Enabled explicitly by the harness;
/// sizes are exact for RJ/BRJ (both sides materialized) and build-only for
/// the BHJ (its probe side is never materialized — the point of the paper).
pub mod joinlog {
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// One executed join's materialization footprint.
    #[derive(Debug, Clone)]
    pub struct JoinSizes {
        pub algo: &'static str,
        pub build_rows: usize,
        pub build_bytes: usize,
        pub probe_rows: usize,
        /// 0 for BHJ (probe side not materialized).
        pub probe_bytes: usize,
        /// Probe-match statistics, filled lazily while the consuming
        /// pipeline runs (RJ/BRJ only).
        pub stats: Option<std::sync::Arc<crate::join_common::JoinStats>>,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static LOG: Mutex<Vec<JoinSizes>> = Mutex::new(Vec::new());

    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    pub(crate) fn record(entry: JoinSizes) {
        if ENABLED.load(Ordering::Relaxed) {
            LOG.lock().push(entry);
        }
    }

    /// Drain the recorded entries (execution order).
    pub fn take() -> Vec<JoinSizes> {
        std::mem::take(&mut *LOG.lock())
    }
}

/// A sink that drops everything (used for the probe pipeline of
/// build-preserving BHJ variants, whose output pipeline starts elsewhere).
struct DiscardSink;

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
    /// Spill configuration for [`JoinAlgo::Hybrid`] join nodes (partition
    /// fanout per recursion level, recursion depth cap).
    pub spill: SpillConfig,
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
            spill: SpillConfig::default(),
            ctx,
            profile: Arc::new(Mutex::new(None)),
            pipelines: Arc::new(Mutex::new(Vec::new())),
            trace_out: Arc::new(Mutex::new(None)),
            cost_model: None,
            pool: None,
        }
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
    fn cost_model(&self) -> crate::cost::CostModel {
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
        let (spec, root) = self.stream(plan, prof.as_deref_mut())?;
        let sink = CollectSink::new(spec.schema.clone());
        let stats = self.run_breaker("output", &spec, &sink, prof.as_deref_mut())?;
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
            let mut pc = ProfCtx::new();
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
    /// block, timed when profiling. The block is bound to all pending trace
    /// slots *before* the error check so a failed pipeline still leaves the
    /// trace arena consistent (the degradation fallback relies on this).
    fn run_breaker<'l>(
        &self,
        label: impl Into<PipelineLabel<'l>>,
        spec: &StreamSpec,
        sink: &dyn Sink,
        pc: Option<&mut ProfCtx>,
    ) -> ExecResult<Arc<PipelineStats>> {
        let source = spec.source.as_ref();
        let tasks = source.task_count() as u64;
        let stats = Arc::new(PipelineStats::new(
            &self.ctx,
            label.into(),
            spec.ops.len(),
            tasks,
            pc.is_some(),
        ));
        let run = self
            .executor()
            .run_pipeline_obs(&self.ctx, source, &spec.ops, sink, &stats);
        if let Some(pc) = pc {
            pc.bind_pending(&stats);
        }
        run?;
        Ok(stats)
    }

    /// Compile a plan into its topmost pipeline, running every pipeline
    /// below the last breaker. When `prof` is given, every plan node gets a
    /// trace node; the returned id refers to the topmost one (its pipeline
    /// stages are left pending for the caller's breaker).
    fn stream(
        &self,
        plan: &Plan,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
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
                let node = prof.map(|pc| {
                    let label = format!(
                        "Scan [{}]{}{} ({} rows)",
                        fmt_col_names(table.schema(), cols),
                        if filter.is_some() { " filtered" } else { "" },
                        if *tid { " +tid" } else { "" },
                        table.num_rows()
                    );
                    let id = pc.node(label, vec![]);
                    pc.pend(id, Slot::Source);
                    id
                });
                Ok((StreamSpec::new(Arc::new(scan), schema), node))
            }
            Plan::Stream {
                source,
                schema,
                est_rows,
                label,
            } => {
                let node = prof.map(|pc| {
                    let id = pc.node(format!("Stream [{label}] (~{est_rows:.0} rows)"), vec![]);
                    pc.pend(id, Slot::Source);
                    id
                });
                Ok((StreamSpec::new(Arc::clone(source), schema.clone()), node))
            }
            Plan::Filter { input, pred } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let schema = spec.schema.clone();
                let op_idx = spec.ops.len();
                let node = prof.map(|pc| {
                    let id = pc.node("Filter", child.into_iter().collect());
                    pc.pend(id, Slot::Op(op_idx));
                    id
                });
                Ok((
                    spec.push_op(Arc::new(FilterOp::new(pred.clone())), schema),
                    node,
                ))
            }
            Plan::Map {
                input,
                exprs,
                names,
            } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let op = ProjectOp::new(exprs.clone());
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let schema = op.output_schema(&spec.schema, &name_refs);
                let op_idx = spec.ops.len();
                let node = prof.map(|pc| {
                    let id = pc.node(
                        format!("Project [{}]", names.join(", ")),
                        child.into_iter().collect(),
                    );
                    pc.pend(id, Slot::Op(op_idx));
                    id
                });
                Ok((spec.push_op(Arc::new(op), schema), node))
            }
            Plan::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let sink = AggSink::new(spec.schema.clone(), group_cols.clone(), aggs.clone());
                let schema = sink.output_schema();
                let obs = self.run_breaker("aggregate", &spec, &sink, prof.as_deref_mut())?;
                let result = Arc::new(sink.into_table());
                let node = prof.map(|pc| {
                    let label = format!(
                        "Aggregate by[{}] aggs[{}]",
                        fmt_col_names(&spec.schema, group_cols),
                        aggs.iter()
                            .map(|a| a.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    let id = pc.node(label, child.into_iter().collect());
                    pc.bind(id, &obs, Slot::Sink);
                    hw_details(pc, id, "hw_", &obs);
                    pc.detail(id, "groups", DetailValue::Int(result.num_rows() as i64));
                    // The rescan of the materialized groups feeds the next
                    // pipeline: its source slot is this node's output.
                    pc.pend(id, Slot::Source);
                    id
                });
                let cols = (0..schema.len()).collect();
                let scan = TableScan::new(result, cols, None);
                Ok((StreamSpec::new(Arc::new(scan), schema), node))
            }
            Plan::Sort { input, keys, limit } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let sink = SortSink::new(spec.schema.clone(), keys.clone(), *limit);
                let obs = self.run_breaker("sort", &spec, &sink, prof.as_deref_mut())?;
                let schema = sink.output_schema();
                let result = Arc::new(sink.into_table());
                let node = prof.map(|pc| {
                    let key_names: Vec<String> = keys
                        .iter()
                        .map(|k| {
                            format!(
                                "{}{}",
                                spec.schema.fields[k.col].name,
                                if k.ascending { "" } else { " desc" }
                            )
                        })
                        .collect();
                    let label = format!(
                        "Sort [{}]{}",
                        key_names.join(", "),
                        limit.map(|l| format!(" limit {l}")).unwrap_or_default()
                    );
                    let id = pc.node(label, child.into_iter().collect());
                    pc.bind(id, &obs, Slot::Sink);
                    hw_details(pc, id, "hw_", &obs);
                    pc.pend(id, Slot::Source);
                    id
                });
                let cols = (0..schema.len()).collect();
                let scan = TableScan::new(result, cols, None);
                Ok((StreamSpec::new(Arc::new(scan), schema), node))
            }
            Plan::LateLoad {
                input,
                table,
                tid_col,
                cols,
            } => {
                let (spec, child) = self.stream(input, prof.as_deref_mut())?;
                let op = LateLoadOp::new(Arc::clone(table), *tid_col, cols.clone());
                let schema = op.output_schema(&spec.schema);
                let op_idx = spec.ops.len();
                let node = prof.map(|pc| {
                    let id = pc.node(
                        format!("LateLoad [{}]", fmt_col_names(table.schema(), cols)),
                        child.into_iter().collect(),
                    );
                    pc.pend(id, Slot::Op(op_idx));
                    id
                });
                Ok((spec.push_op(Arc::new(op), schema), node))
            }
            Plan::GroupJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                aggs,
            } => {
                // Pipeline 1: materialize + index the build side.
                let (build_spec, bchild) = self.stream(build, prof.as_deref_mut())?;
                let build_types: Vec<_> =
                    build_spec.schema.fields.iter().map(|f| f.dtype).collect();
                let sink = GroupJoinBuildSink::new(&build_types, build_keys.clone());
                let build_obs =
                    self.run_breaker("groupjoin build", &build_spec, &sink, prof.as_deref_mut())?;
                let state = sink.into_state(aggs.clone());
                let out_schema = state.output_schema(&build_spec.schema);

                // Pipeline 2: probe updates the aggregate cells, emits nothing.
                let (probe_spec, pchild) = self.stream(probe, prof.as_deref_mut())?;
                let probe_schema = probe_spec.schema.clone();
                let op_idx = probe_spec.ops.len();
                let op = Arc::new(GroupJoinProbeOp::new(
                    Arc::clone(&state),
                    probe_keys.clone(),
                ));
                let spec = probe_spec.push_op(op, out_schema.clone());
                let node = prof.as_deref_mut().map(|pc| {
                    let label = format!(
                        "GroupJoin on build[{}] = probe[{}]",
                        fmt_col_names(&build_spec.schema, build_keys),
                        fmt_col_names(&probe_schema, probe_keys),
                    );
                    let id = pc.node(label, bchild.into_iter().chain(pchild).collect());
                    pc.bind(id, &build_obs, Slot::Sink);
                    pc.detail(id, "groups", DetailValue::Int(state.rows() as i64));
                    // The probe op updates aggregate cells in place; its
                    // slot (bound when the probe pipeline drains) carries
                    // the probe-side tuple counts.
                    pc.pend(id, Slot::Op(op_idx));
                    id
                });
                self.run_breaker("groupjoin probe", &spec, &DiscardSink, prof.as_deref_mut())?;

                // Pipeline 3: one row per group.
                if let (Some(pc), Some(id)) = (prof.as_deref_mut(), node) {
                    pc.pend(id, Slot::Source);
                }
                Ok((
                    StreamSpec::new(Arc::new(GroupJoinSource::new(state)), out_schema),
                    node,
                ))
            }
            Plan::Join {
                algo,
                kind,
                build,
                probe,
                build_keys,
                probe_keys,
            } => match algo {
                JoinAlgo::Bhj => {
                    self.compile_bhj_or_spill(*kind, build, probe, build_keys, probe_keys, prof)
                }
                JoinAlgo::Rj => self.compile_radix(
                    *kind, build, probe, build_keys, probe_keys, false, None, prof,
                ),
                JoinAlgo::Brj => self.compile_radix(
                    *kind, build, probe, build_keys, probe_keys, true, None, prof,
                ),
                JoinAlgo::Adaptive => {
                    self.compile_adaptive(*kind, build, probe, build_keys, probe_keys, prof)
                }
                JoinAlgo::Hybrid => {
                    self.compile_hybrid(*kind, build, probe, build_keys, probe_keys, prof)
                }
            },
        }
    }

    /// Answer the join question for one `Adaptive` join node: estimate,
    /// decide, record the decision (registry counters + trace instant), and
    /// dispatch to the chosen compilation path. The decision and its "why"
    /// are attached to the join's profile node for EXPLAIN ANALYZE.
    #[allow(clippy::too_many_arguments)]
    fn compile_adaptive(
        &self,
        kind: JoinType,
        build: &Plan,
        probe: &Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
        let model = self.cost_model();
        let mut decision =
            crate::adaptive::decide(&model, kind, build, probe, build_keys, probe_keys);
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
        let (spec, node) = match decision.algo {
            JoinAlgo::Rj => self.compile_radix(
                kind,
                build,
                probe,
                build_keys,
                probe_keys,
                false,
                Some(&decision),
                prof.as_deref_mut(),
            )?,
            JoinAlgo::Brj => self.compile_radix(
                kind,
                build,
                probe,
                build_keys,
                probe_keys,
                true,
                Some(&decision),
                prof.as_deref_mut(),
            )?,
            JoinAlgo::Hybrid => self.compile_hybrid(
                kind,
                build,
                probe,
                build_keys,
                probe_keys,
                prof.as_deref_mut(),
            )?,
            _ => self.compile_bhj_or_spill(
                kind,
                build,
                probe,
                build_keys,
                probe_keys,
                prof.as_deref_mut(),
            )?,
        };
        if let (Some(pc), Some(id)) = (prof, node) {
            pc.detail(
                id,
                "adaptive_choice",
                DetailValue::Str(decision.algo.name().into()),
            );
            pc.detail(
                id,
                "adaptive_reason",
                DetailValue::Str(decision.reason.clone()),
            );
            pc.detail(
                id,
                "adaptive_cost_bhj_ms",
                DetailValue::Float(decision.costs.bhj / 1e6),
            );
            pc.detail(
                id,
                "adaptive_cost_rj_ms",
                DetailValue::Float(decision.costs.rj / 1e6),
            );
            if decision.costs.brj.is_finite() {
                pc.detail(
                    id,
                    "adaptive_cost_brj_ms",
                    DetailValue::Float(decision.costs.brj / 1e6),
                );
            }
            pc.detail(
                id,
                "adaptive_est_build_rows",
                DetailValue::Int(decision.estimate.build_rows as i64),
            );
            pc.detail(
                id,
                "adaptive_est_probe_rows",
                DetailValue::Int(decision.estimate.probe_rows as i64),
            );
            pc.detail(
                id,
                "adaptive_est_bloom_selectivity",
                DetailValue::Float(decision.estimate.bloom_selectivity),
            );
            pc.detail(
                id,
                "adaptive_ht_bytes",
                DetailValue::Int(decision.ht_bytes as i64),
            );
        }
        Ok((spec, node))
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_bhj(
        &self,
        kind: JoinType,
        build: &Plan,
        probe: &Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
        self.ctx.note_join_algo(algo_bits::BHJ);
        // Pipeline 1: materialize the build side + parallel table build.
        let (build_spec, bchild) = self.stream(build, prof.as_deref_mut())?;
        let build_types: Vec<_> = build_spec.schema.fields.iter().map(|f| f.dtype).collect();
        let sink = BhjBuildSink::new(&build_types, build_keys.to_vec())
            .with_context(Arc::clone(&self.ctx));
        metrics::mark_phase(MemPhase::Build);
        let build_obs = self.run_breaker("BHJ build", &build_spec, &sink, prof.as_deref_mut())?;
        let state = {
            let _span = trace::phase_scope("BHJ build finalize (hash table)");
            sink.into_state(self.threads)?
        };
        joinlog::record(joinlog::JoinSizes {
            algo: "BHJ",
            build_rows: state.rows,
            build_bytes: state.byte_size(),
            probe_rows: 0,
            probe_bytes: 0,
            stats: None,
        });

        // Pipeline 2: the probe side, with the probe fused in.
        let (probe_spec, pchild) = self.stream(probe, prof.as_deref_mut())?;
        let out_schema = kind.output_schema(&build_spec.schema, &probe_spec.schema);
        let op_idx = probe_spec.ops.len();
        let probe_op = Arc::new(BhjProbeOp::new(
            Arc::clone(&state),
            probe_keys.to_vec(),
            kind,
            self.bhj_prefetch,
        ));

        let node = prof.as_deref_mut().map(|pc| {
            let label = format!(
                "Join BHJ {:?} on build[{}] = probe[{}]",
                kind,
                fmt_col_names(&build_spec.schema, build_keys),
                fmt_col_names(&probe_spec.schema, probe_keys),
            );
            let id = pc.node(label, bchild.into_iter().chain(pchild).collect());
            pc.bind(id, &build_obs, Slot::Sink);
            hw_details(pc, id, "hw_build_", &build_obs);
            pc.detail(id, "build_rows", DetailValue::Int(state.rows as i64));
            pc.detail(
                id,
                "build_bytes",
                DetailValue::Int(state.byte_size() as i64),
            );
            let chain = state.chain_stats();
            pc.detail(id, "ht_buckets", DetailValue::Int(chain.buckets as i64));
            pc.detail(
                id,
                "ht_load_factor",
                DetailValue::Float(chain.load_factor()),
            );
            pc.detail(id, "ht_max_chain", DetailValue::Int(chain.max_chain as i64));
            pc.detail(id, "ht_avg_chain", DetailValue::Float(chain.avg_chain()));
            pc.pend(id, Slot::Op(op_idx));
            id
        });

        if kind.preserves_build() {
            // The probe pipeline only marks; the result pipeline scans the
            // hash table (how real systems start an anti-join's output).
            metrics::mark_phase(MemPhase::Other);
            let spec = probe_spec.push_op(probe_op, out_schema.clone());
            self.run_breaker("BHJ probe (mark)", &spec, &DiscardSink, prof.as_deref_mut())?;
            if let (Some(pc), Some(id)) = (prof, node) {
                pc.pend(id, Slot::Source);
            }
            let source = Arc::new(BhjUnmatchedSource::new(state, kind));
            Ok((StreamSpec::new(source, out_schema), node))
        } else {
            metrics::mark_phase(MemPhase::Other);
            Ok((probe_spec.push_op(probe_op, out_schema), node))
        }
    }

    /// Compile a BHJ, degrading to the out-of-core hybrid hash join when
    /// the memory budget cannot even hold the build side's hash table (the
    /// end of the degradation chain: RJ → BHJ → HHJ; the HHJ is correct
    /// under any budget that fits its spill write buffers).
    #[allow(clippy::too_many_arguments)]
    fn compile_bhj_or_spill(
        &self,
        kind: JoinType,
        build: &Plan,
        probe: &Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
        let mark = prof.as_deref_mut().map(|pc| pc.save());
        match self.compile_bhj(
            kind,
            build,
            probe,
            build_keys,
            probe_keys,
            prof.as_deref_mut(),
        ) {
            Err(ExecError::BudgetExceeded { .. }) => {
                if let (Some(pc), Some(mark)) = (prof.as_deref_mut(), mark) {
                    pc.restore(mark);
                }
                metrics::record_degradation();
                self.ctx.note_degradation();
                trace::instant("degradation: BHJ -> HHJ (memory budget)");
                let (spec, node) = self.compile_hybrid(
                    kind,
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    prof.as_deref_mut(),
                )?;
                if let (Some(pc), Some(id)) = (prof, node) {
                    pc.detail(id, "degraded", DetailValue::Str("BHJ -> HHJ".into()));
                }
                Ok((spec, node))
            }
            other => other,
        }
    }

    /// Compile the out-of-core dynamic hybrid hash join: both sides are
    /// hash-partitioned by [`PartitionSpillSink`] (spilling partition by
    /// partition under budget pressure), then [`HybridJoinSource`] joins
    /// each partition pair, recursing on oversized spilled partitions.
    #[allow(clippy::too_many_arguments)]
    fn compile_hybrid(
        &self,
        kind: JoinType,
        build: &Plan,
        probe: &Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
        self.ctx.note_join_algo(algo_bits::HHJ);
        let dir = SpillDir::create(self.ctx.spill_dir())?;
        let fanout_bits = self.spill.effective_fanout_bits(self.ctx.memory_budget());

        // Pipeline 1: partition (and spill) the build side.
        let (build_spec, bchild) = self.stream(build, prof.as_deref_mut())?;
        let build_types: Vec<_> = build_spec.schema.fields.iter().map(|f| f.dtype).collect();
        let build_sink = PartitionSpillSink::new(
            build_keys.to_vec(),
            fanout_bits,
            MemPhase::Build,
            "build",
            Arc::clone(&self.ctx),
            Arc::clone(&dir),
        );
        metrics::mark_phase(MemPhase::Build);
        let build_obs = self.run_breaker(
            "HHJ partition build",
            &build_spec,
            &build_sink,
            prof.as_deref_mut(),
        )?;
        let build_parts = build_sink.finalize()?;

        // Pipeline 2: partition (and spill) the probe side.
        let (probe_spec, pchild) = self.stream(probe, prof.as_deref_mut())?;
        let probe_sink = PartitionSpillSink::new(
            probe_keys.to_vec(),
            fanout_bits,
            MemPhase::PartitionPass1,
            "probe",
            Arc::clone(&self.ctx),
            Arc::clone(&dir),
        );
        metrics::mark_phase(MemPhase::PartitionPass1);
        self.run_breaker(
            "HHJ partition probe",
            &probe_spec,
            &probe_sink,
            prof.as_deref_mut(),
        )?;
        let probe_parts = probe_sink.finalize()?;

        joinlog::record(joinlog::JoinSizes {
            algo: "HHJ",
            build_rows: build_parts.rows() as usize,
            build_bytes: build_parts.total_bytes() as usize,
            probe_rows: probe_parts.rows() as usize,
            probe_bytes: probe_parts.total_bytes() as usize,
            stats: None,
        });

        let out_schema = kind.output_schema(&build_spec.schema, &probe_spec.schema);
        let spilled_parts = build_parts.spilled_partitions() + probe_parts.spilled_partitions();
        let spilled_bytes = build_parts.spilled_bytes() + probe_parts.spilled_bytes();
        let node = prof.map(|pc| {
            let label = format!(
                "Join HHJ {:?} on build[{}] = probe[{}]",
                kind,
                fmt_col_names(&build_spec.schema, build_keys),
                fmt_col_names(&probe_spec.schema, probe_keys),
            );
            let id = pc.node(label, bchild.into_iter().chain(pchild).collect());
            pc.bind(id, &build_obs, Slot::Sink);
            hw_details(pc, id, "hw_build_", &build_obs);
            pc.detail(
                id,
                "build_rows",
                DetailValue::Int(build_parts.rows() as i64),
            );
            pc.detail(
                id,
                "probe_rows",
                DetailValue::Int(probe_parts.rows() as i64),
            );
            pc.detail(id, "spill_fanout", DetailValue::Int(1i64 << fanout_bits));
            pc.detail(
                id,
                "spill_partitions",
                DetailValue::Int(spilled_parts as i64),
            );
            pc.detail(id, "spill_bytes", DetailValue::Int(spilled_bytes as i64));
            pc.pend(id, Slot::Source);
            id
        });

        metrics::mark_phase(MemPhase::Join);
        let source = Arc::new(HybridJoinSource::new(
            build_parts,
            probe_parts,
            build_types,
            build_keys.to_vec(),
            probe_keys.to_vec(),
            kind,
            self.bhj_prefetch,
            self.spill,
            fanout_bits,
            Arc::clone(&self.ctx),
            dir,
        ));
        Ok((StreamSpec::new(source, out_schema), node))
    }

    /// Compile a radix join, degrading to a BHJ when the memory budget
    /// cannot hold both partitioned sides (the paper's core observation in
    /// reverse: the BHJ only materializes the build side, so it is the
    /// natural fallback when partitioning the probe side is what breaks the
    /// budget). Degradations are counted in [`metrics::degradations`].
    ///
    /// When the radix join was picked *adaptively* (`adaptive` carries the
    /// plan-time [`cost::Decision`](crate::cost::Decision)), the same
    /// rollback machinery also serves as the regime-mismatch escape hatch:
    /// [`Engine::try_compile_radix`] re-asks the cost model after the build
    /// side's first partitioning pass with the *measured* histogram, and a
    /// contradiction ([`ExecError::RegimeMismatch`]) falls back to the BHJ
    /// here, counted in the `adaptive.fallbacks` registry counter.
    #[allow(clippy::too_many_arguments)]
    fn compile_radix(
        &self,
        kind: JoinType,
        build: &Plan,
        probe: &Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        with_bloom: bool,
        adaptive: Option<&crate::cost::Decision>,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
        // The trace arena is rolled back on degradation so the BHJ fallback
        // re-traces the whole join subtree (its pipelines re-run anyway).
        let mark = prof.as_deref_mut().map(|pc| pc.save());
        let tag = if with_bloom { "BRJ" } else { "RJ" };
        self.ctx.note_join_algo(if with_bloom {
            algo_bits::BRJ
        } else {
            algo_bits::RJ
        });
        let fall_back = |err: &ExecError| -> Option<(&'static str, String)> {
            match err {
                ExecError::BudgetExceeded { .. } => Some((
                    "degraded",
                    format!("degradation: {tag} -> BHJ (memory budget)"),
                )),
                ExecError::RegimeMismatch { detail } if adaptive.is_some() => Some((
                    "adaptive_fallback",
                    format!("adaptive fallback: {tag} -> BHJ ({detail})"),
                )),
                _ => None,
            }
        };
        match self.try_compile_radix(
            kind,
            build,
            probe,
            build_keys,
            probe_keys,
            with_bloom,
            adaptive,
            prof.as_deref_mut(),
        ) {
            Err(e) if fall_back(&e).is_some() => {
                let (detail_key, instant) = fall_back(&e).expect("checked by guard");
                if let (Some(pc), Some(mark)) = (prof.as_deref_mut(), mark) {
                    pc.restore(mark);
                }
                if matches!(e, ExecError::RegimeMismatch { .. }) {
                    registry::global().counter("adaptive.fallbacks").add(1);
                } else {
                    metrics::record_degradation();
                    self.ctx.note_degradation();
                }
                trace::instant(instant);
                let (spec, node) = self.compile_bhj_or_spill(
                    kind,
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    prof.as_deref_mut(),
                )?;
                if let (Some(pc), Some(id)) = (prof, node) {
                    let value = match &e {
                        ExecError::RegimeMismatch { detail } => {
                            format!("{tag} -> BHJ: {detail}")
                        }
                        _ => format!("{tag} -> BHJ"),
                    };
                    pc.detail(id, detail_key, DetailValue::Str(value));
                }
                Ok((spec, node))
            }
            other => other,
        }
    }

    /// The adaptive escape hatch's measurement check, run right after the
    /// build side's partitioning passes: re-ask the cost model with the
    /// *measured* build cardinality and tuple width, and inspect the
    /// partition histogram for skew. Returns [`ExecError::RegimeMismatch`]
    /// when the measurement contradicts the plan-time choice — i.e. the
    /// model would now answer "do not partition", or one partition blew
    /// past [`REGIME_SKEW_FACTOR`]× the configured target size (a skewed
    /// key whose partition-local table will not be cache-resident anyway).
    fn check_regime(
        &self,
        decision: &crate::cost::Decision,
        build_side: &PartitionedSide,
    ) -> ExecResult<()> {
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

    #[allow(clippy::too_many_arguments)]
    fn try_compile_radix(
        &self,
        kind: JoinType,
        build: &Plan,
        probe: &Plan,
        build_keys: &[usize],
        probe_keys: &[usize],
        with_bloom: bool,
        adaptive: Option<&crate::cost::Decision>,
        mut prof: Option<&mut ProfCtx>,
    ) -> ExecResult<(StreamSpec, Option<usize>)> {
        // The Bloom reducer may only *drop* probe tuples when unmatched
        // probe tuples leave the join anyway; for anti/mark/outer variants
        // it must stay out of the way (the optimizer would pick RJ there).
        let use_bloom = with_bloom && !kind.probe_tuples_survive_unmatched();

        // Pipeline 1: build side → radix partitions (full breaker).
        let (build_spec, bchild) = self.stream(build, prof.as_deref_mut())?;
        let build_types: Vec<_> = build_spec.schema.fields.iter().map(|f| f.dtype).collect();
        let build_layout = RowLayout::new(&build_types, false);
        let build_sink = PartitionSink::new(
            build_layout,
            build_keys.to_vec(),
            self.radix,
            PhaseSet::build(),
        )
        .with_context(Arc::clone(&self.ctx));
        let tag = if with_bloom { "BRJ" } else { "RJ" };
        metrics::mark_phase(MemPhase::Build);
        // The cost model's cardinality estimate rides along so
        // `jsys.query_progress` can report an est-vs-actual fraction.
        let build_label = PipelineLabel {
            name: &format!("{tag} partition (build)"),
            est_rows: adaptive.map_or(0, |d| d.estimate.build_rows as u64),
        };
        let build_obs =
            self.run_breaker(build_label, &build_spec, &build_sink, prof.as_deref_mut())?;
        let (build_side, bloom) = build_sink.finalize(self.threads, None, use_bloom)?;
        if let Some(decision) = adaptive {
            self.check_regime(decision, &build_side)?;
        }
        let bits2 = build_side.bits2();
        let build_side = Arc::new(build_side);

        // Pipeline 2: probe side (+ Bloom reducer) → radix partitions.
        let (mut probe_spec, pchild) = self.stream(probe, prof.as_deref_mut())?;
        let mut bloom_op: Option<(usize, Arc<BloomProbeOp>, usize)> = None;
        if let Some(bloom) = bloom {
            let bloom_bytes = bloom.byte_size();
            let schema = probe_spec.schema.clone();
            let op = Arc::new(BloomProbeOp::new(
                Arc::new(bloom),
                probe_keys.to_vec(),
                build_side.bits1(),
                bits2,
                self.adaptive_bloom,
            ));
            bloom_op = Some((probe_spec.ops.len(), Arc::clone(&op), bloom_bytes));
            probe_spec = probe_spec.push_op(op, schema);
        }
        let probe_types: Vec<_> = probe_spec.schema.fields.iter().map(|f| f.dtype).collect();
        let probe_layout = RowLayout::new(&probe_types, false);
        let probe_sink = PartitionSink::new(
            probe_layout,
            probe_keys.to_vec(),
            self.radix,
            PhaseSet::probe(),
        )
        .with_context(Arc::clone(&self.ctx));
        metrics::mark_phase(MemPhase::PartitionPass1);
        let probe_label = if bloom_op.is_some() {
            format!("{tag} partition (probe) + bloom probe")
        } else {
            format!("{tag} partition (probe)")
        };
        let probe_label = PipelineLabel {
            name: &probe_label,
            est_rows: adaptive.map_or(0, |d| d.estimate.probe_rows as u64),
        };
        let probe_obs =
            self.run_breaker(probe_label, &probe_spec, &probe_sink, prof.as_deref_mut())?;
        let (probe_side, _) = probe_sink.finalize(self.threads, Some(bits2), false)?;
        let stats = Arc::new(crate::join_common::JoinStats::default());
        joinlog::record(joinlog::JoinSizes {
            algo: if with_bloom { "BRJ" } else { "RJ" },
            build_rows: build_side.total_rows(),
            build_bytes: build_side.byte_size(),
            probe_rows: probe_side.total_rows(),
            probe_bytes: probe_side.byte_size(),
            stats: Some(Arc::clone(&stats)),
        });

        // Pipeline 3 starts here: the partition-wise join.
        metrics::mark_phase(MemPhase::Join);
        let out_schema = kind.output_schema(&build_spec.schema, &probe_spec.schema);
        let node = prof.map(|pc| {
            let label = format!(
                "Join {} {:?} on build[{}] = probe[{}]",
                if with_bloom { "BRJ" } else { "RJ" },
                kind,
                fmt_col_names(&build_spec.schema, build_keys),
                fmt_col_names(&probe_spec.schema, probe_keys),
            );
            let id = pc.node(label, bchild.into_iter().chain(pchild).collect());
            pc.bind(id, &build_obs, Slot::Sink);
            hw_details(pc, id, "hw_build_", &build_obs);
            pc.bind(id, &probe_obs, Slot::Sink);
            hw_details(pc, id, "hw_probe_", &probe_obs);
            pc.detail(id, "bits1", DetailValue::Int(build_side.bits1() as i64));
            pc.detail(id, "bits2", DetailValue::Int(bits2 as i64));
            partition_details(pc, id, "build", &build_side);
            partition_details(pc, id, "probe", &probe_side);
            if let Some((idx, op, bytes)) = &bloom_op {
                pc.detail(id, "bloom_bytes", DetailValue::Int(*bytes as i64));
                let probed = probe_obs.ops[*idx].rows_in();
                let passed = probe_obs.ops[*idx].rows_out();
                pc.detail(id, "bloom_probed", DetailValue::Int(probed as i64));
                pc.detail(id, "bloom_passed", DetailValue::Int(passed as i64));
                if probed > 0 {
                    pc.detail(
                        id,
                        "bloom_selectivity",
                        DetailValue::Float(passed as f64 / probed as f64),
                    );
                }
                if op.was_disabled() {
                    pc.detail(id, "bloom_disabled", DetailValue::Str("adaptive".into()));
                }
            }
            pc.pend(id, Slot::Source);
            id
        });
        let source = Arc::new(
            RadixJoinSource::new(
                build_side,
                Arc::new(probe_side),
                build_keys.to_vec(),
                probe_keys.to_vec(),
                kind,
            )
            .with_stats(stats),
        );
        Ok((StreamSpec::new(source, out_schema), node))
    }
}

/// Comma-joined field names of `cols` in `schema` (plan-node labels).
fn fmt_col_names(schema: &Schema, cols: &[usize]) -> String {
    cols.iter()
        .map(|&c| schema.fields[c].name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Attach the hardware counter deltas sampled by a pipeline's workers to a
/// trace node, one detail per counter kind (`<prefix><kind>`), plus an
/// LLC-misses-per-tuple figure when the tuple count is known. A no-op when
/// the PMU was unavailable or counters were off for this query (the slot's
/// snapshot is `None`), so EXPLAIN ANALYZE output is byte-identical then.
fn hw_details(pc: &mut ProfCtx, node: usize, prefix: &str, obs: &PipelineStats) {
    use joinstudy_exec::pmu::CounterKind;
    let Some(hw) = obs.hw.snapshot() else { return };
    for kind in CounterKind::ALL {
        if let Some(v) = hw.get(kind) {
            pc.detail(
                node,
                &format!("{prefix}{}", kind.slug()),
                DetailValue::Int(v as i64),
            );
        }
    }
    let tuples = obs.sink.rows_in().max(obs.source.rows_out());
    if tuples > 0 {
        if let Some(misses) = hw.get(CounterKind::LlcMisses) {
            pc.detail(
                node,
                &format!("{prefix}llc_miss_per_tuple"),
                DetailValue::Float(misses as f64 / tuples as f64),
            );
        }
    }
}

/// Attach one radix-partitioned side's size distribution to a trace node:
/// partition count, total rows, max/avg partition size, skew (max/avg), and
/// a min/p25/p50/p75/max quantile sketch of the per-partition histogram.
fn partition_details(pc: &mut ProfCtx, node: usize, prefix: &str, side: &PartitionedSide) {
    let n = side.num_partitions();
    let mut sizes: Vec<usize> = (0..n).map(|p| side.partition_row_range(p).len()).collect();
    sizes.sort_unstable();
    let total: usize = sizes.iter().sum();
    let max = sizes.last().copied().unwrap_or(0);
    let avg = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    pc.detail(
        node,
        &format!("{prefix}_partitions"),
        DetailValue::Int(n as i64),
    );
    pc.detail(
        node,
        &format!("{prefix}_rows"),
        DetailValue::Int(total as i64),
    );
    pc.detail(
        node,
        &format!("{prefix}_bytes"),
        DetailValue::Int(side.byte_size() as i64),
    );
    pc.detail(
        node,
        &format!("{prefix}_max_part"),
        DetailValue::Int(max as i64),
    );
    pc.detail(node, &format!("{prefix}_avg_part"), DetailValue::Float(avg));
    if avg > 0.0 {
        pc.detail(
            node,
            &format!("{prefix}_skew"),
            DetailValue::Float(max as f64 / avg),
        );
    }
    if !sizes.is_empty() {
        let q = |f: f64| sizes[((sizes.len() - 1) as f64 * f) as usize];
        pc.detail(
            node,
            &format!("{prefix}_part_sizes"),
            DetailValue::Str(format!(
                "{}/{}/{}/{}/{}",
                sizes[0],
                q(0.25),
                q(0.5),
                q(0.75),
                max
            )),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_exec::ops::AggFunc;
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::{DataType, Value};

    fn table_kv(rows: &[(i64, i64)]) -> Arc<Table> {
        let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for &(k, v) in rows {
            b.push_row(&[Value::Int64(k), Value::Int64(v)]);
        }
        Arc::new(b.finish())
    }

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
    fn join_algo_override_by_index() {
        let t = table_kv(&[(1, 1)]);
        let mk = || {
            Plan::scan(&t, &["k"], None).join(
                Plan::scan(&t, &["k"], None).join(
                    Plan::scan(&t, &["k"], None),
                    JoinAlgo::Bhj,
                    JoinType::Inner,
                    &[0],
                    &[0],
                ),
                JoinAlgo::Bhj,
                JoinType::Inner,
                &[0],
                &[0],
            )
        };
        let mut plan = mk();
        assert_eq!(plan.count_joins(), 2);
        // Post-order: inner join is index 0, outer join index 1.
        plan.override_join_algo(0, JoinAlgo::Brj);
        match &plan {
            Plan::Join { algo, probe, .. } => {
                assert_eq!(*algo, JoinAlgo::Bhj);
                match probe.as_ref() {
                    Plan::Join { algo, .. } => assert_eq!(*algo, JoinAlgo::Brj),
                    _ => panic!("expected join"),
                }
            }
            _ => panic!("expected join"),
        }
        let mut plan2 = mk();
        plan2.set_all_join_algos(JoinAlgo::Rj);
        match &plan2 {
            Plan::Join { algo, .. } => assert_eq!(*algo, JoinAlgo::Rj),
            _ => unreachable!(),
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
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use joinstudy_exec::ops::AggFunc;
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::{DataType, Value};

    fn table_kv(rows: &[(i64, i64)]) -> Arc<Table> {
        let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for &(k, v) in rows {
            b.push_row(&[Value::Int64(k), Value::Int64(v)]);
        }
        Arc::new(b.finish())
    }

    fn join_plan(algo: JoinAlgo) -> (Arc<Table>, Arc<Table>, Plan) {
        let build: Vec<(i64, i64)> = (0..2000).map(|i| (i, i)).collect();
        let probe: Vec<(i64, i64)> = (0..6000).map(|i| (i % 3000, i)).collect();
        let bt = table_kv(&build);
        let pt = table_kv(&probe);
        let plan = Plan::scan(&bt, &["k", "v"], None).join(
            Plan::scan(&pt, &["k", "v"], None),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        );
        (bt, pt, plan)
    }

    fn find<'a>(
        node: &'a joinstudy_exec::profile::ProfileNode,
        needle: &str,
    ) -> Option<&'a joinstudy_exec::profile::ProfileNode> {
        node.iter().into_iter().find(|n| n.label.contains(needle))
    }

    #[test]
    fn profiled_join_counts_match_result_all_algos() {
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
            for threads in [1, 4] {
                let (_, _, plan) = join_plan(algo);
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
        let (_, _, plan) = join_plan(JoinAlgo::Bhj);
        let (_, profile) = Engine::new(2).execute_profiled(&plan).unwrap();
        let join = find(&profile.root, "Join BHJ").unwrap();
        let keys: Vec<&str> = join.details.iter().map(|(k, _)| k.as_str()).collect();
        for expected in ["build_rows", "ht_buckets", "ht_load_factor", "ht_max_chain"] {
            assert!(keys.contains(&expected), "missing {expected}: {keys:?}");
        }
    }

    #[test]
    fn rj_profile_reports_partition_histograms() {
        let (_, _, plan) = join_plan(JoinAlgo::Rj);
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
        let (_, _, plan) = join_plan(JoinAlgo::Brj);
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
    fn profiling_flag_stashes_profile_on_engine() {
        let (_, _, plan) = join_plan(JoinAlgo::Bhj);
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
    fn degradation_rolls_back_trace_and_reports_fallback() {
        let (_, _, plan) = join_plan(JoinAlgo::Rj);
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
        let sort = find(&profile.root, "Sort").unwrap();
        assert_eq!(sort.rows_in, 3);
        assert_eq!(sort.rows_out, 2, "limit 2 rescan");
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::{DataType, Value};

    #[test]
    fn explain_numbers_joins_in_post_order() {
        let schema = Schema::of(&[("k", DataType::Int64)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(&[Value::Int64(1)]);
        let t = Arc::new(b.finish());
        // Two nested joins: inner one is #1, outer #2 (post-order).
        let plan = Plan::scan(&t, &["k"], None)
            .join(
                Plan::scan(&t, &["k"], None).join(
                    Plan::scan(&t, &["k"], None),
                    JoinAlgo::Rj,
                    JoinType::Inner,
                    &[0],
                    &[0],
                ),
                JoinAlgo::Bhj,
                JoinType::ProbeSemi,
                &[0],
                &[0],
            )
            .sort(vec![SortKey::asc(0)], Some(5));
        let text = plan.explain();
        assert!(text.contains("Join #1 RJ Inner"), "{text}");
        assert!(text.contains("Join #2 BHJ ProbeSemi"), "{text}");
        assert!(text.contains("Sort [k] limit 5"), "{text}");
        assert!(text.contains("(1 rows)"), "{text}");
        // #1 must appear textually after #2's header line is printed above
        // its children — i.e. the deeper join is printed below.
        let pos1 = text.find("Join #1").unwrap();
        let pos2 = text.find("Join #2").unwrap();
        assert!(pos2 < pos1, "outer join should print first:\n{text}");
    }
}
