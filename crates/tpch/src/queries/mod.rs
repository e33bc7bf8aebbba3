//! Physical plans for every join-bearing TPC-H query (the paper's §5.3
//! evaluation set: 2, 3, 4, 5, 7–12, 14–22) plus Q13 as an extension.
//!
//! Queries 1, 6 contain no join; query 13 uses a groupjoin in the paper's
//! system and is excluded from its join comparison (footnote 6) — our Q13
//! implements that groupjoin and is skipped by harnesses that compare
//! swappable joins (`main_joins == 0`). Each query module
//! exposes `run(data, cfg, engine) -> Table`, which builds one plan and
//! runs it once. Subqueries are parts of that plan: a grouped one is a
//! join's build child (Q18, Q20), an uncorrelated scalar one a one-row
//! build side on a constant key with the comparison as the join's
//! residual ([`scalar_join`]: Q11, Q15, Q22), Q17's correlated average a
//! groupjoin, and Q21's `EXISTS` / `NOT EXISTS` semi and anti joins.
//!
//! [`QueryConfig`] selects the join implementation for *all* joins (the
//! §5.3.1 methodology), applies per-join overrides (the §5.3.2 permutation
//! study), and toggles late materialization for the queries where the
//! paper found it meaningful (Q8, Q14, Q20).

pub mod q02;
pub mod q03;
pub mod q04;
pub mod q05;
pub mod q07;
pub mod q08;
pub mod q09;
pub mod q10;
pub mod q11;
pub mod q12;
pub mod q13;
pub mod q14;
pub mod q15;
pub mod q16;
pub mod q17;
pub mod q18;
pub mod q19;
pub mod q20;
pub mod q21;
pub mod q22;

use crate::dbgen::TpchData;
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::expr::Expr;
use joinstudy_storage::table::{Schema, Table};

/// Join-implementation configuration for one query run.
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Algorithm for every join.
    pub algo: JoinAlgo,
    /// Late materialization (honored by the queries where it matters).
    pub lm: bool,
    /// Per-join overrides, post-order numbered (the Figure 12
    /// permutation study).
    pub overrides: Vec<(usize, JoinAlgo)>,
}

impl QueryConfig {
    pub fn new(algo: JoinAlgo) -> QueryConfig {
        QueryConfig {
            algo,
            lm: false,
            overrides: Vec::new(),
        }
    }

    pub fn with_lm(mut self) -> QueryConfig {
        self.lm = true;
        self
    }

    pub fn with_override(mut self, join_idx: usize, algo: JoinAlgo) -> QueryConfig {
        self.overrides.push((join_idx, algo));
        self
    }

    /// Apply algorithm selection + overrides to a query's plan.
    pub fn apply(&self, plan: &mut Plan) {
        plan.set_all_join_algos(self.algo);
        for &(idx, algo) in &self.overrides {
            plan.override_join_algo(idx, algo);
        }
    }
}

/// Column reference by name within a plan's schema.
pub(crate) fn cx(schema: &Schema, name: &str) -> Expr {
    Expr::col(schema.index_of(name))
}

/// Scan with a predicate built against the *projected* schema.
pub(crate) fn scan_where(
    table: &std::sync::Arc<Table>,
    cols: &[&str],
    pred: impl FnOnce(&Schema) -> Expr,
) -> Plan {
    let schema = Schema::new(
        cols.iter()
            .map(|n| table.schema().fields[table.schema().index_of(n)].clone())
            .collect(),
    );
    Plan::scan(table, cols, Some(pred(&schema)))
}

/// Filter with a predicate built against the input plan's schema.
pub(crate) fn filter_where(plan: Plan, pred: impl FnOnce(&Schema) -> Expr) -> Plan {
    let s = plan.schema();
    plan.filter(pred(&s))
}

/// Projection with expressions built against the input plan's schema.
pub(crate) fn map_where(plan: Plan, f: impl FnOnce(&Schema) -> Vec<(Expr, &'static str)>) -> Plan {
    let s = plan.schema();
    let (exprs, names): (Vec<Expr>, Vec<&str>) = f(&s).into_iter().unzip();
    plan.map(exprs, &names)
}

/// `build ⋈ probe` with keys given by column names resolved against each
/// side's schema. The algorithm placeholder is BHJ; `QueryConfig::apply`
/// rewrites it.
pub(crate) fn join_on(
    build: Plan,
    probe: Plan,
    kind: JoinType,
    build_keys: &[&str],
    probe_keys: &[&str],
) -> Plan {
    let bs = build.schema();
    let ps = probe.schema();
    let bk: Vec<usize> = build_keys.iter().map(|n| bs.index_of(n)).collect();
    let pk: Vec<usize> = probe_keys.iter().map(|n| ps.index_of(n)).collect();
    build.join(probe, JoinAlgo::Bhj, kind, &bk, &pk)
}

/// The rows of `probe` that pass `pred` against the one row of the
/// uncorrelated scalar subquery `scalar`. Both sides get the constant key
/// `Expr::i64(0)`; `scalar` is the build side of a probe-side semi join,
/// `pred` its residual, built against the `scalar ++ probe` schema; the
/// key is projected away again, so the result has `probe`'s schema.
pub(crate) fn scalar_join(scalar: Plan, probe: Plan, pred: impl FnOnce(&Schema) -> Expr) -> Plan {
    let keyed = |plan: Plan| {
        let s = plan.schema();
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        let exprs = (0..s.len()).map(Expr::col).chain([Expr::i64(0)]).collect();
        plan.map(exprs, &[&names[..], &["@key"]].concat())
    };
    let width = probe.schema().len();
    let (scalar, probe) = (keyed(scalar), keyed(probe));
    let (bs, ps) = (scalar.schema(), probe.schema());
    let residual = pred(&Schema::new(
        [bs.fields.clone(), ps.fields.clone()].concat(),
    ));
    let names: Vec<&str> = ps.fields[..width].iter().map(|f| f.name.as_str()).collect();
    let kind = JoinType::ProbeSemi;
    scalar
        .join(probe, JoinAlgo::Bhj, kind, &[bs.len() - 1], &[width])
        .with_residual(residual)
        .map((0..width).map(Expr::col).collect(), &names)
}

/// Late-materialization helper: re-fetch deferred lineitem columns by the
/// `@tid` carried from a `scan_tid` of lineitem (the §4.2 late-load
/// operator). No-op concerns are the caller's: only use after a
/// tid-carrying scan.
pub(crate) fn late_load_lineitem(plan: Plan, data: &TpchData, cols: &[&str]) -> Plan {
    let tid_col = plan
        .schema()
        .index_of(joinstudy_exec::ops::scan::TID_COLUMN);
    plan.late_load(&data.lineitem, tid_col, cols)
}

/// `revenue = l_extendedprice * (1 - l_discount)` over the given schema.
pub(crate) fn revenue_expr(schema: &Schema) -> Expr {
    cx(schema, "l_extendedprice").mul(
        Expr::dec(joinstudy_storage::types::Decimal::from_int(1)).sub(cx(schema, "l_discount")),
    )
}

/// One registered query.
pub struct TpchQuery {
    pub id: u32,
    /// Number of swappable joins in the query's one plan: what
    /// `Plan::count_joins` counts, the Join nodes of a profiled all-RJ
    /// run, and the bound of the Fig 12 override numbering.
    pub main_joins: usize,
    pub run: fn(&TpchData, &QueryConfig, &Engine) -> Table,
}

/// All join-bearing queries in the paper's evaluation set.
pub fn all_queries() -> Vec<TpchQuery> {
    let q = |id, main_joins, run| TpchQuery {
        id,
        main_joins,
        run,
    };
    vec![
        q(2, 8, q02::run),
        q(3, 2, q03::run),
        q(4, 1, q04::run),
        q(5, 5, q05::run),
        q(7, 5, q07::run),
        q(8, 7, q08::run),
        q(9, 5, q09::run),
        q(10, 3, q10::run),
        q(11, 5, q11::run),
        q(12, 1, q12::run),
        q(13, 0, q13::run),
        q(14, 1, q14::run),
        q(15, 2, q15::run),
        q(16, 2, q16::run),
        q(17, 1, q17::run),
        q(18, 3, q18::run),
        q(19, 1, q19::run),
        q(20, 4, q20::run),
        q(21, 5, q21::run),
        q(22, 2, q22::run),
    ]
}

/// Fetch one query by id.
pub fn query(id: u32) -> TpchQuery {
    all_queries()
        .into_iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("no such TPC-H query: {id}"))
}
