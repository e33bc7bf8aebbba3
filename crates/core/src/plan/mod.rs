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
//!
//! The module is split along its seams: this file is the plan IR — the
//! [`Plan`] tree, its one child accessor ([`Plan::inputs`]), its one label
//! per node ([`Plan::label`], the text of both EXPLAIN and EXPLAIN ANALYZE)
//! and the walks built on them; `engine` holds [`Engine`] and the
//! compilation of every non-join node; `join` compiles a join node under
//! any algorithm, including the degradation ladder; `details` renders the
//! algorithm-specific statistics EXPLAIN ANALYZE attaches to a node.

mod details;
mod engine;
mod join;

pub use engine::Engine;

use crate::groupjoin::GroupAggSpec;
use crate::join_common::JoinType;
use joinstudy_exec::expr::Expr;
use joinstudy_exec::ops::{AggSink, AggSpec, LateLoadOp, ProjectOp, SortKey, TableScan};
use joinstudy_exec::pipeline::Source;
use joinstudy_storage::table::{Schema, Table};
use std::sync::Arc;

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
    /// Out-of-core dynamic hybrid hash join ([`crate::hybrid`]): the BHJ
    /// compiled with an eviction — keeps as many pass-1 partitions
    /// memory-resident as its share of the budget allows, links them into
    /// one BHJ table and streams the probe side through it, spills the rest
    /// ([`crate::spill`]), and reloads spilled pairs on the next hash-bit
    /// window. Without a budget it links one BHJ table built through
    /// 2^`bits_pass1` pre-partitions and never spills; under one it is
    /// correct down to its minimum working set. It is the last rung of the
    /// degradation ladder — the only one that evicts — and so the fallback
    /// of last resort for every other algorithm.
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
    ///
    /// `residual` is a predicate beyond key equality. Whatever the join
    /// type, its column `i` is column `i` of `build ++ probe` — the build
    /// side's schema, then the probe side's — so `Expr::col(b)` is build
    /// column `b` and `Expr::col(build.schema().len() + p)` probe column
    /// `p`. A key-equal pair counts only if it passes: an inner join emits
    /// only such pairs, semi/anti/mark joins ask whether one exists, and an
    /// outer join pads a probe row only when none does (SQL's `ON k = k'
    /// AND residual`).
    Join {
        algo: JoinAlgo,
        kind: JoinType,
        build: Box<Plan>,
        probe: Box<Plan>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        residual: Option<Expr>,
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
            residual: None,
        }
    }

    /// Give this join node a residual predicate over its `build ++ probe`
    /// columns (see [`Plan::Join`]). Panics on any other node.
    pub fn with_residual(mut self, pred: Expr) -> Plan {
        match &mut self {
            Plan::Join { residual, .. } => *residual = Some(pred),
            _ => panic!("a residual belongs to a join node"),
        }
        self
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

    /// The schema this plan produces: per node kind the one function its
    /// operator derives it with, so the two cannot disagree.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan {
                table, cols, tid, ..
            } => TableScan::schema_of(table, cols, *tid),
            Plan::Stream { schema, .. } => schema.clone(),
            Plan::Filter { input, .. } => input.schema(),
            Plan::Map {
                input,
                exprs,
                names,
            } => ProjectOp::schema_of(exprs, &input.schema(), names),
            Plan::Join {
                kind, build, probe, ..
            } => kind.output_schema(&build.schema(), &probe.schema()),
            Plan::GroupJoin { build, aggs, .. } => {
                crate::groupjoin::output_schema(&build.schema(), aggs)
            }
            Plan::Aggregate {
                input,
                group_cols,
                aggs,
            } => AggSink::schema_of(&input.schema(), group_cols, aggs),
            Plan::Sort { input, .. } => input.schema(),
            Plan::LateLoad {
                input, table, cols, ..
            } => LateLoadOp::schema_of(&input.schema(), table, cols),
        }
    }

    /// This node's children in plan order: the one input, or a join's build
    /// side before its probe side. Every walk over the tree goes through
    /// here (or [`Plan::inputs_mut`]), so a new node kind is one more arm.
    pub fn inputs(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Stream { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::LateLoad { input, .. } => vec![input],
            Plan::Join { build, probe, .. } | Plan::GroupJoin { build, probe, .. } => {
                vec![build, probe]
            }
        }
    }

    /// [`Plan::inputs`], mutably.
    pub fn inputs_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Scan { .. } | Plan::Stream { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::LateLoad { input, .. } => vec![input],
            Plan::Join { build, probe, .. } | Plan::GroupJoin { build, probe, .. } => {
                vec![build, probe]
            }
        }
    }

    /// The join this node is, if it is one of the swappable hash joins
    /// (the groupjoin has one fixed implementation and is not).
    pub(crate) fn as_join(&self) -> Option<(JoinAlgo, JoinNode<'_>)> {
        match self {
            Plan::Join {
                algo,
                kind,
                build,
                probe,
                build_keys,
                probe_keys,
                residual,
            } => Some((
                *algo,
                JoinNode {
                    kind: *kind,
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    residual: residual.as_ref(),
                },
            )),
            _ => None,
        }
    }

    /// One line describing this node: its line in [`Plan::explain`] (which
    /// adds the indentation and a join's number) and the label of its node
    /// in EXPLAIN ANALYZE (where a join carries the algorithm it actually
    /// ran with — see [`JoinNode::label`]).
    pub fn label(&self) -> String {
        match self {
            Plan::Scan {
                table,
                cols,
                filter,
                tid,
            } => format!(
                "Scan [{}]{}{} ({} rows)",
                fmt_col_names(table.schema(), cols),
                if filter.is_some() { " filtered" } else { "" },
                if *tid { " +tid" } else { "" },
                table.num_rows()
            ),
            Plan::Stream {
                label, est_rows, ..
            } => format!("Stream [{label}] (~{est_rows:.0} rows)"),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Map { names, .. } => format!("Project [{}]", names.join(", ")),
            Plan::Join { .. } => {
                let (algo, join) = self.as_join().expect("matched a join");
                join.label(algo.name())
            }
            Plan::GroupJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                aggs,
            } => format!(
                "GroupJoin {} aggs[{}]",
                fmt_join_keys(build, build_keys, probe, probe_keys),
                fmt_names(aggs.iter().map(|a| &a.name)),
            ),
            Plan::Aggregate {
                input,
                group_cols,
                aggs,
            } => format!(
                "Aggregate by[{}] aggs[{}]",
                fmt_col_names(&input.schema(), group_cols),
                fmt_names(aggs.iter().map(|a| &a.name)),
            ),
            Plan::Sort { input, keys, limit } => {
                let schema = input.schema();
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}{}",
                            schema.fields[k.col].name,
                            if k.ascending { "" } else { " desc" }
                        )
                    })
                    .collect();
                format!(
                    "Sort [{}]{}",
                    keys.join(", "),
                    limit.map(|l| format!(" limit {l}")).unwrap_or_default()
                )
            }
            Plan::LateLoad { table, cols, .. } => {
                format!("LateLoad [{}]", fmt_col_names(table.schema(), cols))
            }
        }
    }

    /// Number of join nodes (used by the Fig 12 permutation harness). The
    /// groupjoin has one fixed implementation (it is not part of the
    /// BHJ/RJ/BRJ swap), so it does not count as an overridable join.
    pub fn count_joins(&self) -> usize {
        let below: usize = self.inputs().into_iter().map(Plan::count_joins).sum();
        below + usize::from(matches!(self, Plan::Join { .. }))
    }

    /// The most joins of this plan that hold memory at the same time: a
    /// join is live from its build side's first row to its own last output
    /// row, so it overlaps the joins below it on either side, and they each
    /// other only through it. That is the longest chain of joins down the
    /// tree; breakers in between end a chain's memory but not its count,
    /// which keeps this an upper bound.
    pub fn live_joins(&self) -> usize {
        let below = self.inputs().into_iter().map(Plan::live_joins).max();
        below.unwrap_or(0) + usize::from(matches!(self, Plan::Join { .. }))
    }

    /// Override the algorithm of join number `idx` (post-order numbering,
    /// build side first — the paper's Figure 12/13 numbering). Returns the
    /// number of joins seen in this subtree.
    pub fn override_join_algo(&mut self, idx: usize, algo: JoinAlgo) -> usize {
        fn walk(plan: &mut Plan, idx: usize, algo: JoinAlgo, counter: &mut usize) {
            for input in plan.inputs_mut() {
                walk(input, idx, algo, counter);
            }
            if let Plan::Join { algo: a, .. } = plan {
                if *counter == idx {
                    *a = algo;
                }
                *counter += 1;
            }
        }
        let mut counter = 0;
        walk(self, idx, algo, &mut counter);
        counter
    }

    /// Set every join node's algorithm (the §5.3 methodology: "replacing
    /// all joins in the query tree with the join under testing").
    pub fn set_all_join_algos(&mut self, algo: JoinAlgo) {
        if let Plan::Join { algo: a, .. } = self {
            *a = algo;
        }
        for input in self.inputs_mut() {
            input.set_all_join_algos(algo);
        }
    }

    /// Render the plan as an indented operator tree (EXPLAIN): one
    /// [`Plan::label`] per line. Joins additionally carry their post-order
    /// join number (the numbering used by Figures 12/13 and the override
    /// API).
    pub fn explain(&self) -> String {
        fn walk(plan: &Plan, depth: usize, join_no: &mut usize, out: &mut String) {
            // Children first: the printed number matches the post-order
            // numbering of override_join_algo.
            let mut below = String::new();
            for input in plan.inputs() {
                walk(input, depth + 1, join_no, &mut below);
            }
            let label = match plan.as_join() {
                Some((algo, join)) => {
                    *join_no += 1;
                    join.label(&format!("#{join_no} {}", algo.name()))
                }
                None => plan.label(),
            };
            out.push_str(&"  ".repeat(depth));
            out.push_str(&label);
            out.push('\n');
            out.push_str(&below);
        }
        let mut out = String::new();
        walk(self, 0, &mut 0, &mut out);
        out
    }
}

/// A borrowed view of one [`Plan::Join`] without its algorithm: what every
/// join implementation is handed, so the code that compiles a join differs
/// per algorithm only in the join itself (§5.3).
pub(crate) struct JoinNode<'a> {
    pub kind: JoinType,
    pub build: &'a Plan,
    pub probe: &'a Plan,
    pub build_keys: &'a [usize],
    pub probe_keys: &'a [usize],
    pub residual: Option<&'a Expr>,
}

impl JoinNode<'_> {
    /// The join's label under `tag`: the planned algorithm (and join
    /// number) in EXPLAIN, the algorithm that actually ran in EXPLAIN
    /// ANALYZE. A residual adds the `build ++ probe` columns it reads.
    pub fn label(&self, tag: &str) -> String {
        let mut label = format!(
            "Join {tag} {:?} {}",
            self.kind,
            fmt_join_keys(self.build, self.build_keys, self.probe, self.probe_keys),
        );
        if let Some(residual) = self.residual {
            let (build, probe) = (self.build.schema(), self.probe.schema());
            let fields: Vec<_> = build.fields.iter().chain(&probe.fields).collect();
            let names = residual.columns().into_iter().map(|c| &fields[c].name);
            label.push_str(&format!(" residual [{}]", fmt_names(names)));
        }
        label
    }
}

/// Comma-joined field names of `cols` in `schema`.
fn fmt_col_names(schema: &Schema, cols: &[usize]) -> String {
    fmt_names(cols.iter().map(|&c| &schema.fields[c].name))
}

fn fmt_names<'a>(names: impl Iterator<Item = &'a String>) -> String {
    names.map(String::as_str).collect::<Vec<_>>().join(", ")
}

/// `on build[..] = probe[..]`: the key columns of a join or groupjoin.
fn fmt_join_keys(build: &Plan, build_keys: &[usize], probe: &Plan, probe_keys: &[usize]) -> String {
    format!(
        "on build[{}] = probe[{}]",
        fmt_col_names(&build.schema(), build_keys),
        fmt_col_names(&probe.schema(), probe_keys),
    )
}

/// A two-column `(k, v)` table, shared by this module's test suites.
#[cfg(test)]
pub(crate) fn table_kv(rows: &[(i64, i64)]) -> Arc<Table> {
    use joinstudy_storage::table::TableBuilder;
    use joinstudy_storage::types::{DataType, Value};
    let schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let mut b = TableBuilder::new(schema);
    for &(k, v) in rows {
        b.push_row(&[Value::Int64(k), Value::Int64(v)]);
    }
    Arc::new(b.finish())
}

/// A 2 000-row build side joined with a 6 000-row probe side, 4 000 of
/// whose rows find a partner.
#[cfg(test)]
pub(crate) fn join_plan(algo: JoinAlgo) -> Plan {
    let build: Vec<(i64, i64)> = (0..2000).map(|i| (i, i)).collect();
    let probe: Vec<(i64, i64)> = (0..6000).map(|i| (i % 3000, i)).collect();
    Plan::scan(&table_kv(&build), &["k", "v"], None).join(
        Plan::scan(&table_kv(&probe), &["k", "v"], None),
        algo,
        JoinType::Inner,
        &[0],
        &[0],
    )
}

/// The first node, pre-order, whose label contains `needle`.
#[cfg(test)]
pub(crate) fn find<'a>(
    node: &'a joinstudy_exec::profile::ProfileNode,
    needle: &str,
) -> Option<&'a joinstudy_exec::profile::ProfileNode> {
    node.iter().into_iter().find(|n| n.label.contains(needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_exec::ops::{AggFunc, TableScan};
    use joinstudy_exec::profile::DetailValue;

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
    fn explain_numbers_joins_in_post_order() {
        let t = table_kv(&[(1, 1)]);
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

    /// A plan with every node kind: Scan (plain and `+tid`), Stream,
    /// GroupJoin, Join, LateLoad, Filter, Map, Aggregate, Sort.
    fn all_node_kinds(algo: JoinAlgo) -> Plan {
        let t = table_kv(&(0..40).map(|i| (i % 10, i)).collect::<Vec<_>>());
        let streamed = TableScan::new(Arc::clone(&t), vec![0, 1], None);
        let stream = Plan::stream_source(Arc::new(streamed), t.schema().clone(), 40.0, "gen");
        let per_key = Plan::scan(&t, &["k", "v"], Some(Expr::col(1).lt(Expr::i64(10)))).group_join(
            stream,
            &[0],
            &[0],
            vec![GroupAggSpec::count("cnt")],
        );
        // [k, v, cnt] ++ [k, @tid], then v re-fetched by tid; the residual
        // `v <> @tid - 40` passes every pair.
        per_key
            .join(
                Plan::scan_tid(&t, &["k"], None),
                algo,
                JoinType::Inner,
                &[0],
                &[0],
            )
            .with_residual(Expr::col(1).ne(Expr::col(4).sub(Expr::i64(40))))
            .late_load(&t, 4, &["v"])
            .filter(Expr::col(5).ge(Expr::i64(5)))
            .map(vec![Expr::col(0), Expr::col(2)], &["k", "cnt"])
            .aggregate(&[0], vec![AggSpec::new(AggFunc::Sum, 1, "total")])
            .sort(vec![SortKey::desc(1), SortKey::asc(0)], Some(3))
    }

    #[test]
    fn explain_text_is_pinned() {
        assert_eq!(
            all_node_kinds(JoinAlgo::Brj).explain(),
            "\
Sort [total desc, k] limit 3
  Aggregate by[k] aggs[total]
    Project [k, cnt]
      Filter
        LateLoad [v]
          Join #1 BRJ Inner on build[k] = probe[k] residual [v, @tid]
            GroupJoin on build[k] = probe[k] aggs[cnt]
              Scan [k, v] filtered (40 rows)
              Stream [gen] (~40 rows)
            Scan [k] +tid (40 rows)
"
        );
    }

    /// EXPLAIN ANALYZE labels every node with the text EXPLAIN prints for
    /// it: same tree, same order, minus indentation and the join number.
    #[test]
    fn explain_analyze_labels_are_the_explain_lines() {
        for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj, JoinAlgo::Hybrid] {
            let plan = all_node_kinds(algo);
            let (table, profile) = Engine::new(2).execute_profiled(&plan).unwrap();
            assert_eq!(table.num_rows(), 3);
            let executed: Vec<&str> = profile.root.iter()[1..]
                .iter()
                .map(|n| n.label.as_str())
                .collect();
            let explained: Vec<String> = plan
                .explain()
                .lines()
                .map(|line| line.trim_start().replacen("Join #1 ", "Join ", 1))
                .collect();
            assert_eq!(executed, explained, "{}", algo.name());
            // Every key-equal pair was tested by the residual, and passed.
            let join = find(&profile.root, "Join ").expect("the join's node");
            let count = |key: &str| match join.details.iter().find(|(k, _)| k == key) {
                Some((_, DetailValue::Int(n))) => *n,
                other => panic!("{}: {key}: {other:?}", algo.name()),
            };
            assert_eq!(count("residual_candidates"), join.rows_out as i64);
            assert_eq!(count("residual_passed"), join.rows_out as i64);
        }
    }
}
