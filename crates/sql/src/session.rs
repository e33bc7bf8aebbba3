//! The SQL session: a catalog of registered tables plus an engine.
//!
//! # Telemetry
//!
//! Every statement a session executes — queries, DDL, even statements that
//! fail to parse — is recorded into the session's [`StatLog`]
//! (fingerprinted aggregates + recent-query ring). The log also backs the
//! `jsys.*` virtual system tables: a SELECT whose FROM names a
//! `jsys.`-prefixed table gets that table materialized from live telemetry
//! at plan time, so plain SQL (`SELECT * FROM jsys.statements`) works
//! against serving state.

use crate::ast::{Literal, Select, Statement};
use crate::parser::parse;
use crate::planner::plan_select;
use crate::stats::{AshRing, StatLog, StatRecord};
use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_exec::admission::AdmissionController;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecError;
use joinstudy_exec::profile::QueryProfile;
use joinstudy_exec::trace::QueryTrace;
use joinstudy_exec::{progress, registry};
use joinstudy_storage::table::{Field, Schema, Table, TableBuilder};
use joinstudy_storage::types::DataType::{Bool, Float64, Int64, Str};
use joinstudy_storage::types::{DataType, Decimal, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Anything that can go wrong between SQL text and a result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// The statement did not lex or parse.
    Parse(String),
    /// The statement parsed but could not be planned or applied to the
    /// catalog (unknown tables or columns, arity mismatches, ...).
    Plan(String),
    /// The engine failed mid-execution (worker panic, operator failure).
    Exec(ExecError),
    /// The query was cancelled via the session's [`QueryContext`].
    Cancelled,
    /// The session's statement timeout elapsed.
    Timeout {
        /// The configured time budget, in milliseconds.
        budget_ms: u64,
    },
    /// The session's memory budget could not hold a materialization and no
    /// degraded execution strategy applied.
    BudgetExceeded {
        requested: usize,
        in_use: usize,
        budget: usize,
        /// Execution phase that issued the failed reservation.
        phase: &'static str,
    },
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) | SqlError::Plan(m) => write!(f, "SQL error: {m}"),
            SqlError::Exec(e) => write!(f, "SQL error: {e}"),
            SqlError::Cancelled => write!(f, "SQL error: {}", ExecError::Cancelled),
            SqlError::Timeout { budget_ms } => {
                write!(
                    f,
                    "SQL error: {}",
                    ExecError::Timeout {
                        budget_ms: *budget_ms
                    }
                )
            }
            SqlError::BudgetExceeded {
                requested,
                in_use,
                budget,
                phase,
            } => write!(
                f,
                "SQL error: {}",
                ExecError::BudgetExceeded {
                    requested: *requested,
                    in_use: *in_use,
                    budget: *budget,
                    phase,
                }
            ),
        }
    }
}

impl std::error::Error for SqlError {}

/// Parser and planner report plain strings; both surface as planning-stage
/// failures unless mapped explicitly (parse errors are tagged in
/// [`Session::execute`]).
impl From<String> for SqlError {
    fn from(s: String) -> SqlError {
        SqlError::Plan(s)
    }
}

/// Resource-limit failures keep their own variants so callers can react
/// (retry with a bigger budget, report a timeout) without string matching.
impl From<ExecError> for SqlError {
    fn from(e: ExecError) -> SqlError {
        match e {
            ExecError::Cancelled => SqlError::Cancelled,
            ExecError::Timeout { budget_ms } => SqlError::Timeout { budget_ms },
            ExecError::BudgetExceeded {
                requested,
                in_use,
                budget,
                phase,
            } => SqlError::BudgetExceeded {
                requested,
                in_use,
                budget,
                phase,
            },
            other => SqlError::Exec(other),
        }
    }
}

/// A SQL session over the join-study engine.
pub struct Session {
    catalog: HashMap<String, Arc<Table>>,
    engine: Engine,
    algo: JoinAlgo,
    /// Statement statistics; a server shares one log across all
    /// connections, an embedded session gets its own.
    statlog: Arc<StatLog>,
    /// Connection id stamped on telemetry rows (0 for embedded sessions).
    conn_id: u64,
    /// The server's admission controller, for `jsys.pool` gauges.
    admission: Option<Arc<AdmissionController>>,
    /// The server's active-session-history ring, for `jsys.ash` (`None`
    /// for embedded sessions, which have no sampler — the table is then
    /// empty rather than an error).
    ash: Option<Arc<AshRing>>,
}

impl Session {
    pub fn new(threads: usize) -> Session {
        Session {
            catalog: HashMap::new(),
            engine: Engine::new(threads),
            // The engine answers the join question itself by default; the
            // static algorithms stay one `SET join_algo = ...` away (the
            // paper's drop-in replacement switch).
            algo: JoinAlgo::Adaptive,
            statlog: Arc::new(StatLog::new()),
            conn_id: 0,
            admission: None,
            ash: None,
        }
    }

    /// Select the join implementation every planned join uses (the paper's
    /// drop-in replacement switch). [`JoinAlgo::Adaptive`] — the default —
    /// lets the calibrated cost model pick per join node.
    pub fn set_join_algo(&mut self, algo: JoinAlgo) {
        self.algo = algo;
    }

    /// The session's current join-algorithm setting.
    pub fn join_algo(&self) -> JoinAlgo {
        self.algo
    }

    /// Replace the engine (thread count, radix configuration, ...). The new
    /// engine brings its own [`QueryContext`]; any timeout or budget set on
    /// the old one no longer applies.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The session's query context: share it with another thread to cancel
    /// a running statement.
    pub fn context(&self) -> Arc<QueryContext> {
        Arc::clone(&self.engine.ctx)
    }

    /// Route this session's pipelines through a shared worker pool
    /// (`None` restores a private per-query worker team). Used by the
    /// server so all connections share one process-wide team; the
    /// session's thread count follows the pool's.
    pub fn set_worker_pool(&mut self, pool: Option<Arc<joinstudy_exec::pool::WorkerPool>>) {
        self.engine.set_worker_pool(pool);
    }

    /// Per-statement wall-clock timeout (`None` disables).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.engine.ctx.set_timeout(timeout);
    }

    /// Per-statement memory budget in bytes (`None` disables). Joins that
    /// cannot partition within the budget degrade to the non-partitioned
    /// hash join before this surfaces as [`SqlError::BudgetExceeded`].
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.engine.ctx.set_memory_budget(bytes);
    }

    /// Enable or disable per-operator profiling for subsequent statements.
    /// While enabled, every executed SELECT records a [`QueryProfile`]
    /// retrievable with [`Session::take_profile`].
    pub fn set_profiling(&mut self, on: bool) {
        self.engine.ctx.set_profiling(on);
    }

    /// The profile of the most recent profiled statement, if any. Draining:
    /// a second call returns `None` until another profiled statement runs.
    /// After a failed profiled statement this yields the *partial* profile
    /// of the pipelines that completed before the error.
    pub fn take_profile(&self) -> Option<QueryProfile> {
        self.engine.take_profile()
    }

    /// Enable or disable worker-timeline tracing for subsequent statements.
    /// While enabled, every executed SELECT records a [`QueryTrace`]
    /// retrievable with [`Session::take_trace`] and exportable as
    /// Chrome/Perfetto `trace_event` JSON.
    pub fn set_tracing(&mut self, on: bool) {
        self.engine.ctx.set_tracing(on);
    }

    /// The worker-timeline trace of the most recent traced statement, if
    /// any. Draining, like [`Session::take_profile`].
    pub fn take_trace(&self) -> Option<QueryTrace> {
        self.engine.take_trace()
    }

    /// Enable or disable hardware PMU counter sampling for subsequent
    /// statements. While enabled (and where `perf_event_open` is permitted),
    /// worker threads sample cycle/cache/TLB counters per pipeline, EXPLAIN
    /// ANALYZE shows per-operator counter deltas, and traces carry counter
    /// tracks. Where the PMU is unavailable this is a harmless no-op:
    /// results and output are identical to counters-off.
    pub fn set_counters(&mut self, on: bool) {
        self.engine.ctx.set_counters(on);
        joinstudy_exec::pmu::set_enabled(on);
    }

    /// Share a statement-statistics log (the server passes one log to
    /// every connection's session, making `jsys.statements` server-wide).
    pub fn set_statlog(&mut self, log: Arc<StatLog>) {
        self.statlog = log;
    }

    /// This session's statement-statistics log.
    pub fn statlog(&self) -> Arc<StatLog> {
        Arc::clone(&self.statlog)
    }

    /// Stamp telemetry rows from this session with a connection id. Also
    /// stamped on the engine's [`QueryContext`] so ASH samples taken from
    /// executor state carry the same id.
    pub fn set_conn_id(&mut self, conn: u64) {
        self.conn_id = conn;
        self.engine.ctx.set_conn_id(conn);
    }

    /// The connection id stamped on this session's telemetry rows.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Give the session a view of the server's admission controller so
    /// `jsys.pool` can report pool-wide memory gauges.
    pub fn set_admission(&mut self, admission: Option<Arc<AdmissionController>>) {
        self.admission = admission;
    }

    /// Share the server's active-session-history ring so `jsys.ash`
    /// answers on this session.
    pub fn set_ash(&mut self, ash: Option<Arc<AshRing>>) {
        self.ash = ash;
    }

    /// Register an existing table (e.g. a generated TPC-H relation).
    pub fn register(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.catalog.insert(name.into().to_ascii_lowercase(), table);
    }

    /// A registered table, if present.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.catalog.get(&name.to_ascii_lowercase())
    }

    /// Parse and execute one statement. DDL/DML return an empty table.
    ///
    /// Every call — including parse failures — lands in the session's
    /// [`StatLog`].
    pub fn execute(&mut self, sql: &str) -> Result<Table, SqlError> {
        let started = Instant::now();
        self.statlog.active_upsert(
            self.conn_id,
            sql,
            "running",
            self.engine.ctx.admission_granted(),
            Some(&self.engine.ctx),
        );
        let (result, is_query) = match parse(sql).map_err(SqlError::Parse) {
            Ok(stmt) => {
                // Only queries arm the engine context; SET/DDL would read
                // stale spill/degradation counters from the previous query.
                let is_query = matches!(
                    stmt,
                    Statement::Select(_) | Statement::Explain { analyze: true, .. }
                );
                (self.execute_stmt(stmt), is_query)
            }
            Err(e) => (Err(e), false),
        };
        self.finish_statement(sql, started, is_query, &result);
        result
    }

    fn execute_stmt(&mut self, stmt: Statement) -> Result<Table, SqlError> {
        match stmt {
            Statement::Select(select) => {
                let jsys = self.catalog_for(&select)?;
                let catalog = jsys.as_ref().unwrap_or(&self.catalog);
                let plan = plan_select(&select, catalog, self.algo)?;
                Ok(self.engine.execute(&plan)?)
            }
            Statement::Explain { analyze, select } => {
                let jsys = self.catalog_for(&select)?;
                let catalog = jsys.as_ref().unwrap_or(&self.catalog);
                let plan = plan_select(&select, catalog, self.algo)?;
                let text = if analyze {
                    let (_, profile) = self.engine.execute_profiled(&plan)?;
                    profile.render()
                } else {
                    plan.explain()
                };
                Ok(text_table(&text))
            }
            Statement::CreateTable { name, columns } => {
                if self.catalog.contains_key(&name) {
                    return Err(SqlError::Plan(format!("table {name:?} already exists")));
                }
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| Field::new(c.name.clone(), c.dtype))
                        .collect(),
                );
                self.catalog
                    .insert(name, Arc::new(Table::empty(schema.clone())));
                Ok(Table::empty(schema))
            }
            Statement::Insert { table, rows } => {
                let existing = self
                    .catalog
                    .get(&table)
                    .ok_or_else(|| SqlError::Plan(format!("unknown table {table:?}")))?;
                let schema = existing.schema().clone();
                let mut b =
                    TableBuilder::with_capacity(schema.clone(), existing.num_rows() + rows.len());
                for r in 0..existing.num_rows() {
                    b.push_row(&existing.row(r));
                }
                for row in &rows {
                    if row.len() != schema.len() {
                        return Err(SqlError::Plan(format!(
                            "INSERT arity {} does not match table {} ({} columns)",
                            row.len(),
                            table,
                            schema.len()
                        )));
                    }
                    let values: Vec<Value> = row
                        .iter()
                        .zip(&schema.fields)
                        .map(|(lit, f)| coerce_insert(lit, f.dtype))
                        .collect::<Result<_, String>>()?;
                    b.push_row(&values);
                }
                self.catalog.insert(table, Arc::new(b.finish()));
                Ok(Table::empty(schema))
            }
            Statement::Set { name, value } => {
                match name.as_str() {
                    "join_algo" => {
                        let algo = match value.to_ascii_lowercase().as_str() {
                            "bhj" => JoinAlgo::Bhj,
                            "rj" => JoinAlgo::Rj,
                            "brj" => JoinAlgo::Brj,
                            "adaptive" => JoinAlgo::Adaptive,
                            "hybrid" | "hhj" => JoinAlgo::Hybrid,
                            other => {
                                return Err(SqlError::Plan(format!(
                                    "unknown join_algo {other:?} (expected bhj, rj, brj, \
                                     adaptive, or hybrid)"
                                )))
                            }
                        };
                        self.set_join_algo(algo);
                    }
                    "spill_dir" => {
                        // `default` (or an empty string) reverts to the
                        // engine's temp-directory fallback.
                        let dir = match value.as_str() {
                            "" | "default" => None,
                            path => Some(std::path::PathBuf::from(path)),
                        };
                        self.engine.ctx.set_spill_dir(dir);
                    }
                    other => {
                        return Err(SqlError::Plan(format!(
                            "unknown session variable {other:?} (expected join_algo \
                             or spill_dir)"
                        )))
                    }
                }
                Ok(text_table(&format!("SET {name} = {value}")))
            }
        }
    }

    /// Record a statement turned away before it ran — cancelled or timed
    /// out while it queued for admission — as a failed call, closed out
    /// like every statement [`Session::execute`] runs. `started` is when
    /// it began to queue.
    pub fn reject(&self, sql: &str, started: Instant, err: &SqlError) {
        self.finish_statement(sql, started, false, &Err(err.clone()));
    }

    /// Close out one statement: drop it from the active registry and fold
    /// it into the statement statistics. Engine-context readings (spill, admission,
    /// degradations, join shapes) are taken only from statements that armed
    /// the context — SET/DDL never execute through the engine, and a query
    /// that failed at parse/plan time never reached `arm()`, so in both
    /// cases the counters still describe the previous query.
    fn finish_statement(
        &self,
        sql: &str,
        started: Instant,
        is_query: bool,
        result: &Result<Table, SqlError>,
    ) {
        self.statlog.active_end(self.conn_id);
        let latency_ns = started.elapsed().as_nanos() as u64;
        let ctx = &self.engine.ctx;
        let armed = is_query && !matches!(result, Err(SqlError::Parse(_)) | Err(SqlError::Plan(_)));
        let (spill_bytes, admission_wait_ns, granted_bytes, degradations, algo_mask) = if armed {
            (
                ctx.spill_write_bytes(),
                ctx.admission_wait_ns(),
                ctx.admission_granted(),
                ctx.degradations(),
                ctx.join_algos(),
            )
        } else {
            (0, 0, 0, 0, 0)
        };
        let rows_out = match result {
            Ok(t) => t.num_rows() as u64,
            Err(_) => 0,
        };
        self.statlog.record(&StatRecord {
            conn: self.conn_id,
            sql,
            ok: result.is_ok(),
            latency_ns,
            rows_out,
            spill_bytes,
            admission_wait_ns,
            granted_bytes,
            degradations,
            algo_mask,
        });
    }

    /// The catalog a SELECT should plan against: `None` (plan against the
    /// session catalog) unless the FROM clause names `jsys.*` system tables,
    /// in which case a copy of the catalog (cheap: `Arc` clones) is extended
    /// with those tables materialized from live telemetry. Materializing
    /// *before* planning means a `jsys.statements` query observes the state
    /// prior to its own recording — counts stay exact.
    fn catalog_for(
        &self,
        select: &Select,
    ) -> Result<Option<HashMap<String, Arc<Table>>>, SqlError> {
        if !select.from.iter().any(|t| t.table.starts_with("jsys.")) {
            return Ok(None);
        }
        let mut catalog = self.catalog.clone();
        for t in &select.from {
            if t.table.starts_with("jsys.") {
                catalog.insert(t.table.clone(), Arc::new(self.system_table(&t.table)?));
            }
        }
        Ok(Some(catalog))
    }

    /// Materialize one `jsys.*` virtual table from current telemetry: per
    /// table, the snapshot its rows come from and its one column list.
    fn system_table(&self, name: &str) -> Result<Table, SqlError> {
        Ok(match name {
            "jsys.statements" => jsys_table(
                &self.statlog.statements_snapshot(),
                &[
                    ("fingerprint", Str, |s| text(&s.fingerprint)),
                    ("calls", Int64, |s| int(s.calls)),
                    ("errors", Int64, |s| int(s.errors)),
                    ("total_ns", Int64, |s| int(s.total_ns)),
                    ("min_ns", Int64, |s| int(s.min_ns)),
                    ("max_ns", Int64, |s| int(s.max_ns)),
                    ("p50_ns", Int64, |s| int(s.p50_ns)),
                    ("p95_ns", Int64, |s| int(s.p95_ns)),
                    ("p99_ns", Int64, |s| int(s.p99_ns)),
                    ("rows_out", Int64, |s| int(s.rows_out)),
                    ("spill_bytes", Int64, |s| int(s.spill_bytes)),
                    ("admission_wait_ns", Int64, |s| int(s.admission_wait_ns)),
                    ("granted_bytes", Int64, |s| int(s.granted_bytes)),
                    ("degradations", Int64, |s| int(s.degradations)),
                    ("algos", Str, |s| text(&s.algos)),
                ],
            ),
            "jsys.recent_queries" => jsys_table(
                &self.statlog.recent_snapshot(),
                &[
                    ("seq", Int64, |q| int(q.seq)),
                    ("ts_ms", Int64, |q| int(q.ts_ms)),
                    ("conn", Int64, |q| int(q.conn)),
                    ("sql", Str, |q| text(&q.sql)),
                    ("fingerprint", Str, |q| text(&q.fingerprint)),
                    ("ok", Bool, |q| Value::Bool(q.ok)),
                    ("latency_ns", Int64, |q| int(q.latency_ns)),
                    ("rows_out", Int64, |q| int(q.rows_out)),
                    ("spill_bytes", Int64, |q| int(q.spill_bytes)),
                    ("admission_wait_ns", Int64, |q| int(q.admission_wait_ns)),
                    ("granted_bytes", Int64, |q| int(q.granted_bytes)),
                ],
            ),
            "jsys.active_queries" => jsys_table(
                &self.statlog.active_snapshot(),
                &[
                    ("conn", Int64, |q| int(q.conn)),
                    ("state", Str, |q| text(q.state)),
                    ("sql", Str, |q| text(&q.sql)),
                    ("elapsed_ns", Int64, |q| int(q.elapsed_ns)),
                    ("granted_bytes", Int64, |q| int(q.granted_bytes)),
                ],
            ),
            "jsys.metrics" => jsys_table(
                &registry::global().snapshot(),
                &[
                    ("name", Str, |(name, _)| text(name)),
                    ("value", Float64, |(_, value)| float(*value)),
                ],
            ),
            "jsys.pool" => jsys_table(
                &self.pool_gauges(),
                &[
                    ("name", Str, |(name, _)| text(name)),
                    ("value", Int64, |(_, value)| int(*value as u64)),
                ],
            ),
            "jsys.ash" => jsys_table(
                &self.ash.as_ref().map(|a| a.snapshot()).unwrap_or_default(),
                &[
                    ("at_ms", Int64, |s| int(s.at_ms)),
                    ("conn", Int64, |s| int(s.conn)),
                    ("query_id", Int64, |s| int(s.query_id)),
                    ("fingerprint", Str, |s| text(&s.fingerprint)),
                    ("wait_state", Str, |s| text(s.wait_state)),
                    ("pipeline", Str, |s| text(&s.pipeline)),
                    ("rows", Int64, |s| int(s.rows)),
                    ("granted_bytes", Int64, |s| int(s.granted_bytes)),
                ],
            ),
            // One row per (pipeline, stage) of every in-flight pooled
            // pipeline, read off the counter blocks the process-global
            // registry holds — the very slots the morsel loop adds into —
            // so it works for embedded sessions and servers alike;
            // mid-flight the values trail the workers by at most a morsel.
            "jsys.query_progress" => jsys_table(
                &progress::global()
                    .live()
                    .iter()
                    .flat_map(|p| p.stages().map(move |(name, stage)| (&**p, name, stage)))
                    .collect::<Vec<_>>(),
                &[
                    ("query_id", Int64, |(p, _, _)| int(p.query_id)),
                    ("conn", Int64, |(p, _, _)| int(p.conn)),
                    ("pipeline", Str, |(p, _, _)| text(&p.label)),
                    ("stage", Str, |(_, name, _)| text(name)),
                    ("batches", Int64, |(_, _, st)| int(st.batches())),
                    ("rows_in", Int64, |(_, _, st)| int(st.rows_in())),
                    ("rows_out", Int64, |(_, _, st)| int(st.rows_out())),
                    ("morsels_done", Int64, |(p, _, _)| int(p.tasks_done())),
                    ("morsels_total", Int64, |(p, _, _)| int(p.tasks_total)),
                    ("est_rows", Int64, |(p, _, _)| int(p.est_rows)),
                    ("fraction", Float64, |(p, _, _)| float(p.fraction())),
                    ("spill_bytes", Int64, |(p, _, _)| int(p.spill_bytes())),
                ],
            ),
            other => {
                return Err(SqlError::Plan(format!(
                    "unknown system table {other:?} (expected jsys.statements, \
                     jsys.recent_queries, jsys.active_queries, jsys.metrics, jsys.pool, \
                     jsys.ash, or jsys.query_progress)"
                )))
            }
        })
    }

    /// Worker-pool and admission gauges, the rows of `jsys.pool`.
    fn pool_gauges(&self) -> Vec<(&'static str, usize)> {
        let mut rows = Vec::new();
        if let Some(pool) = self.engine.worker_pool() {
            rows.push(("pool.threads", pool.threads()));
            rows.push(("pool.active_pipelines", pool.active_pipelines()));
        } else {
            rows.push(("pool.active_pipelines", progress::global().len()));
        }
        if let Some(adm) = &self.admission {
            rows.push(("admission.total_bytes", adm.total()));
            rows.push(("admission.available_bytes", adm.available()));
            rows.push(("admission.queued", adm.queued()));
            rows.push(("admission.admitted", adm.admitted() as usize));
            rows.push(("admission.peak_granted_bytes", adm.peak_granted()));
        }
        rows
    }

    /// Plan a SELECT and render its operator tree (EXPLAIN). Accepts both a
    /// bare SELECT and an `EXPLAIN`-prefixed statement.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        match parse(sql).map_err(SqlError::Parse)? {
            Statement::Select(select)
            | Statement::Explain {
                analyze: false,
                select,
            } => {
                let jsys = self.catalog_for(&select)?;
                let catalog = jsys.as_ref().unwrap_or(&self.catalog);
                let plan = plan_select(&select, catalog, self.algo)?;
                Ok(plan.explain())
            }
            Statement::Explain { analyze: true, .. } => self.explain_analyze(sql),
            _ => Err(SqlError::Plan("EXPLAIN supports SELECT statements".into())),
        }
    }

    /// Execute a SELECT with per-operator profiling and render the annotated
    /// plan tree (EXPLAIN ANALYZE). Accepts both a bare SELECT and an
    /// `EXPLAIN [ANALYZE]`-prefixed statement.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, SqlError> {
        let select = match parse(sql).map_err(SqlError::Parse)? {
            Statement::Select(select) | Statement::Explain { select, .. } => select,
            _ => return Err(SqlError::Plan("EXPLAIN supports SELECT statements".into())),
        };
        let jsys = self.catalog_for(&select)?;
        let catalog = jsys.as_ref().unwrap_or(&self.catalog);
        let plan = plan_select(&select, catalog, self.algo)?;
        let (_, profile) = self.engine.execute_profiled(&plan)?;
        Ok(profile.render())
    }
}

/// One `jsys.*` column: name, type, and how to read it off a row `R` of the
/// table's telemetry snapshot.
type JsysColumn<R> = (&'static str, DataType, fn(&R) -> Value);

/// Materialize a system table from its one column list: the schema is the
/// names and types, each output row the readers applied in the same order.
fn jsys_table<R>(rows: &[R], columns: &[JsysColumn<R>]) -> Table {
    let fields = columns
        .iter()
        .map(|&(name, dtype, _)| Field::new(name, dtype));
    let mut b = TableBuilder::with_capacity(Schema::new(fields.collect()), rows.len());
    let mut values = Vec::with_capacity(columns.len());
    for row in rows {
        values.clear();
        values.extend(columns.iter().map(|(_, _, read)| read(row)));
        b.push_row(&values);
    }
    b.finish()
}

fn int(v: u64) -> Value {
    Value::Int64(v as i64)
}

fn float(v: f64) -> Value {
    Value::Float64(v)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Wrap rendered text into a one-column table (EXPLAIN result shape).
fn text_table(text: &str) -> Table {
    let schema = Schema::new(vec![Field::new("plan", DataType::Str)]);
    let mut b = TableBuilder::new(schema);
    for line in text.lines() {
        b.push_row(&[Value::Str(line.to_string())]);
    }
    b.finish()
}

fn coerce_insert(lit: &Literal, dtype: DataType) -> Result<Value, String> {
    Ok(match (lit, dtype) {
        (Literal::Null, _) => Value::Null,
        (Literal::Int(v), DataType::Int64) => Value::Int64(*v),
        (Literal::Int(v), DataType::Int32) => {
            Value::Int32(i32::try_from(*v).map_err(|_| format!("{v} out of INT range"))?)
        }
        (Literal::Int(v), DataType::Decimal) => Value::Decimal(Decimal::from_int(*v)),
        (Literal::Int(v), DataType::Float64) => Value::Float64(*v as f64),
        (Literal::Decimal(d), DataType::Decimal) => Value::Decimal(*d),
        (Literal::Decimal(d), DataType::Float64) => Value::Float64(d.to_f64()),
        (Literal::Str(s), DataType::Str) => Value::Str(s.clone()),
        (Literal::Date(d), DataType::Date) => Value::Date(*d),
        (Literal::Str(s), DataType::Date) => Value::Date(crate::parser::parse_date(s)?),
        (Literal::Bool(b), DataType::Bool) => Value::Bool(*b),
        (l, t) => return Err(format!("cannot insert {l:?} into {t} column")),
    })
}
