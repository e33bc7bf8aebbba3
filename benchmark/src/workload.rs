//! The six workloads.
//!
//! Every workload has a *query list* and runs it in **passes**: one pass
//! executes the whole list once with every join forced to one algorithm
//! (`adaptive`: the engine decides; `hybrid`: the out-of-core join under
//! the workload's spill budget). A round is one pass per algorithm. The
//! product crates are driven only through their public functions, with the
//! defaults a user gets (`Engine::new`, `ServerConfig::default()`).

use crate::fold::LayerAcc;
use crate::inputs::{micro_tables, tpch_catalog, Micro, MicroSpec, ProbeKeys, MIX, TPCH_TABLES};
use crate::json::Json;
use crate::span::Tracer;
use joinstudy_core::{Engine, JoinAlgo, JoinType, Plan};
use joinstudy_exec::ops::{AggFunc, AggSpec};
use joinstudy_sql::ast::Statement;
use joinstudy_sql::server::{encode_table, Client, ServerHandle};
use joinstudy_sql::{ServerConfig, SqlServer};
use joinstudy_storage::table::Table;
use joinstudy_tpch::{QueryConfig, StreamGen, StreamScan, TpchData, TpchQuery, TpchTable};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Pass order within a round.
pub const ALGOS: [JoinAlgo; 5] = [
    JoinAlgo::Bhj,
    JoinAlgo::Rj,
    JoinAlgo::Brj,
    JoinAlgo::Adaptive,
    JoinAlgo::Hybrid,
];

/// The metric-name stem of an algorithm (`bhj_s`, `core.bhj.join_busy_s`)
/// and its spelling in `SET join_algo = ...`.
pub fn algo_key(algo: JoinAlgo) -> &'static str {
    match algo {
        JoinAlgo::Bhj => "bhj",
        JoinAlgo::Rj => "rj",
        JoinAlgo::Brj => "brj",
        JoinAlgo::Adaptive => "adaptive",
        JoinAlgo::Hybrid => "hybrid",
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// What a user sees. Used for every end-to-end number.
    EndToEnd,
    /// The pass the per-layer run compares with and without tracing. For
    /// the plan-driven workloads the untraced form is exactly `EndToEnd`;
    /// `serve_mix` replays its statements in-process layer by layer.
    Layers { traced: bool },
}

impl Mode {
    fn traced(self) -> bool {
        self == Mode::Layers { traced: true }
    }
}

/// What one pass (or latency phase) observed.
pub struct PassObs<'a> {
    pub tracer: &'a mut Tracer,
    /// Latency of every operation (query or statement), in milliseconds.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// Per-layer totals; filled by traced passes only.
    pub layers: LayerAcc,
}

impl<'a> PassObs<'a> {
    pub fn new(tracer: &'a mut Tracer) -> PassObs<'a> {
        PassObs {
            tracer,
            lat_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            layers: LayerAcc::default(),
        }
    }
}

pub trait Workload {
    /// Run the query list once with every join forced to `algo`; returns
    /// the pass's wall time in seconds.
    fn pass(&mut self, algo: JoinAlgo, mode: Mode, obs: &mut PassObs) -> f64;

    /// Extra operations under the default algorithm whose latencies feed
    /// `qps`/`p50_ms`/`p99_ms` beside the adaptive pass; returns their wall
    /// time. Only `serve_mix` has one: a percentile needs more samples
    /// than a pass that is also run four more times can afford.
    fn latency_phase(&mut self, _obs: &mut PassObs) -> f64 {
        0.0
    }

    /// TPC-H tables the kernel loops may borrow instead of generating.
    fn tpch(&self) -> Option<&TpchData> {
        None
    }

    /// Workload-specific facts for the result header (sizes, regime flags).
    fn notes(&self) -> Vec<(&'static str, Json)>;

    /// Values `expected.json` pins for the default seed.
    fn pinned(&mut self) -> Json;
}

/// Rounds a standard run (`run_seconds` of `BENCHMARK.json`) measures, set
/// on the reference host so that they take about that long. A round of
/// `micro_lowsel_wide` is half as long as the others' (see its probe size).
pub fn standard_rounds(name: &str) -> usize {
    match name {
        "micro_lowsel_wide" => 8,
        _ => 5,
    }
}

/// Generate the inputs and bring the workload to the point just before its
/// first timed operation. `scale` shrinks every input for smoke tests;
/// benchmark runs use 1.0.
pub fn setup(
    name: &str,
    seed: u64,
    scale: f64,
    threads: usize,
) -> Result<Box<dyn Workload>, String> {
    let rows = |n: usize| ((n as f64 * scale) as usize).max(64);
    let micro = |probe_rows, payload_cols, keys| -> Box<dyn Workload> {
        Box::new(MicroJoin::setup(
            MicroSpec {
                build_rows: rows(4 << 20),
                probe_rows: rows(probe_rows),
                payload_cols,
                keys,
            },
            seed,
            threads,
            budget(32 << 20, scale),
        ))
    };
    Ok(match name {
        "tpch" => Box::new(Tpch::setup(
            sf(0.05, scale),
            seed,
            threads,
            budget(4 << 20, scale),
        )),
        "micro_fk" => micro(6 << 20, 0, ProbeKeys::UniformFk),
        // Fewer, wider probe rows: the radix join moves 40 B per tuple
        // here, takes five times as long per row as on `micro_fk`, and
        // between 5 Mi and 6 Mi rows its time per row doubles again.
        "micro_lowsel_wide" => micro(4 << 20, 4, ProbeKeys::Selectivity(0.05)),
        "micro_zipf" => micro(6 << 20, 0, ProbeKeys::Zipf(1.0)),
        "spill_stream" => Box::new(SpillStream::setup(
            sf(0.5, scale),
            seed,
            threads,
            budget(16 << 20, scale),
        )),
        "serve_mix" => Box::new(ServeMix::setup(sf(0.02, scale), seed, threads, scale)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {:?})",
                crate::manifest::manifest().workloads
            ))
        }
    })
}

fn sf(base: f64, scale: f64) -> f64 {
    (base * scale).max(0.002)
}

fn budget(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1 << 20)
}

/// Canonical form of a result: the sorted multiset of row renderings (row
/// order under ties is not defined across algorithms and thread counts).
pub fn canonical(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            t.row(r)
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// FNV-1a over the canonical rows: the digest `expected.json` pins.
pub fn digest(rows: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for b in row.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Budget and profiling for the coming pass.
fn arm_engine(engine: &Engine, algo: JoinAlgo, spill_budget: usize, traced: bool) {
    engine
        .ctx
        .set_memory_budget((algo == JoinAlgo::Hybrid).then_some(spill_budget));
    engine.ctx.set_profiling(traced);
}

/// Execute one plan as one operation: span, latency, failure accounting,
/// and (traced) the profile fold. `build` constructs the plan inside the
/// operation so plan construction is on the clock, as it is for a user.
fn run_plan(
    engine: &Engine,
    span: &str,
    traced: bool,
    obs: &mut PassObs,
    build: impl FnOnce() -> Plan,
) -> (f64, Option<Table>) {
    let op = obs.tracer.next_op();
    let t0 = Instant::now();
    let mut engine_ns = 0;
    let layers = &mut obs.layers;
    let result = obs.tracer.scope(span, op, |tracer| {
        let plan = tracer.scope("core.plan.build", op, |_| build());
        tracer.scope("core.engine.execute", op, |_| {
            if traced {
                engine.execute_profiled(&plan).map(|(table, profile)| {
                    layers.fold(&profile, &engine.ctx);
                    engine_ns = profile.wall_ns;
                    table
                })
            } else {
                engine.execute(&plan)
            }
        })
    });
    let wall = t0.elapsed();
    if traced {
        obs.layers.plan_build_ns += (wall.as_nanos() as u64).saturating_sub(engine_ns);
    }
    obs.lat_ms.push(wall.as_secs_f64() * 1e3);
    obs.attempted += 1;
    match result {
        Ok(table) => (wall.as_secs_f64(), Some(table)),
        Err(e) => {
            eprintln!("{span}: {e}");
            obs.failed += 1;
            (wall.as_secs_f64(), None)
        }
    }
}

// ---------------------------------------------------------------------------
// tpch
// ---------------------------------------------------------------------------

/// Queries that execute exactly one plan; the others evaluate scalar
/// subqueries as separate plans first, whose profiles the engine does not
/// keep (it stashes the most recent one only).
const SINGLE_PLAN_QUERIES: [u32; 13] = [2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 16, 19];

pub struct Tpch {
    data: TpchData,
    engine: Engine,
    queries: Vec<TpchQuery>,
    spill_budget: usize,
    /// Canonical BHJ result per query: what every other pass must return.
    reference: Vec<Option<Vec<String>>>,
}

impl Tpch {
    fn setup(sf: f64, seed: u64, threads: usize, spill_budget: usize) -> Tpch {
        let queries = joinstudy_tpch::all_queries();
        Tpch {
            data: joinstudy_tpch::generate(sf, seed),
            engine: Engine::new(threads),
            reference: vec![None; queries.len()],
            queries,
            spill_budget,
        }
    }
}

impl Workload for Tpch {
    fn pass(&mut self, algo: JoinAlgo, mode: Mode, obs: &mut PassObs) -> f64 {
        let traced = mode.traced();
        arm_engine(&self.engine, algo, self.spill_budget, traced);
        let cfg = QueryConfig::new(algo);
        let mut wall = 0.0;
        for (i, q) in self.queries.iter().enumerate() {
            let op = obs.tracer.next_op();
            let t0 = Instant::now();
            // The hand-built plan is constructed and executed behind this
            // one public call; it panics on an engine error, which ends the
            // run without a result, as a failed benchmark should.
            let table = obs
                .tracer
                .scope(&format!("tpch.queries.q{:02}", q.id), op, |_| {
                    (q.run)(&self.data, &cfg, &self.engine)
                });
            let took = t0.elapsed();
            wall += took.as_secs_f64();
            obs.lat_ms.push(took.as_secs_f64() * 1e3);
            obs.attempted += 1;
            if traced {
                if let Some(profile) = self.engine.take_profile() {
                    obs.layers.fold(&profile, &self.engine.ctx);
                    if SINGLE_PLAN_QUERIES.contains(&q.id) {
                        obs.layers.plan_build_ns +=
                            (took.as_nanos() as u64).saturating_sub(profile.wall_ns);
                    }
                }
            }
            let rows = canonical(&table);
            match &self.reference[i] {
                None => self.reference[i] = Some(rows),
                Some(reference) if *reference != rows => {
                    eprintln!("tpch: Q{} under {} differs from BHJ", q.id, algo.name());
                    obs.failed += 1;
                }
                Some(_) => {}
            }
        }
        wall
    }

    fn tpch(&self) -> Option<&TpchData> {
        Some(&self.data)
    }

    fn notes(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("sf", Json::Num(self.data.sf)),
            ("queries", Json::Num(self.queries.len() as f64)),
            (
                "lineitem_rows",
                Json::Num(self.data.lineitem.num_rows() as f64),
            ),
            ("hybrid_budget_bytes", Json::Num(self.spill_budget as f64)),
        ]
    }

    fn pinned(&mut self) -> Json {
        if self.reference.iter().any(Option::is_none) {
            self.pass(
                JoinAlgo::Bhj,
                Mode::EndToEnd,
                &mut PassObs::new(&mut Tracer::new()),
            );
        }
        let mut fields = vec![(
            "lineitem_rows".to_string(),
            Json::Num(self.data.lineitem.num_rows() as f64),
        )];
        for (q, rows) in self.queries.iter().zip(&self.reference) {
            let rows = rows.as_ref().expect("filled by the BHJ pass above");
            fields.push((
                format!("q{:02}", q.id),
                Json::Str(format!("{}:{}", rows.len(), digest(rows))),
            ));
        }
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------------
// micro_fk / micro_lowsel_wide / micro_zipf
// ---------------------------------------------------------------------------

/// Share of the probe rows the hybrid pass joins. The out-of-core join
/// costs about half a microsecond per probe row here, four to five times a
/// radix join; over the full probe side one hybrid pass would take longer
/// than the four other passes together and leave too few rounds for a
/// steady median.
const HYBRID_PROBE_DIVISOR: usize = 8;

pub struct MicroJoin {
    full: Micro,
    hybrid: Micro,
    engine: Engine,
    spill_budget: usize,
    /// Peak bytes the BHJ reserved (row arena + bucket array), as the
    /// query context accounted them in the most recent BHJ pass.
    bhj_table_bytes: usize,
}

impl MicroJoin {
    fn setup(spec: MicroSpec, seed: u64, threads: usize, spill_budget: usize) -> MicroJoin {
        let full = micro_tables(spec, seed);
        let hybrid = full.probe_prefix(spec.probe_rows / HYBRID_PROBE_DIVISOR);
        MicroJoin {
            full,
            hybrid,
            engine: Engine::new(threads),
            spill_budget,
            bhj_table_bytes: 0,
        }
    }
}

impl Workload for MicroJoin {
    fn pass(&mut self, algo: JoinAlgo, mode: Mode, obs: &mut PassObs) -> f64 {
        arm_engine(&self.engine, algo, self.spill_budget, mode.traced());
        let input = if algo == JoinAlgo::Hybrid {
            &self.hybrid
        } else {
            &self.full
        };
        let (wall, result) = run_plan(&self.engine, "micro.join", mode.traced(), obs, || {
            input.plan(algo)
        });
        if result.is_some_and(|t| !input.check(&t)) {
            eprintln!("micro: wrong answer under {}", algo.name());
            obs.failed += 1;
        }
        if algo == JoinAlgo::Bhj {
            self.bhj_table_bytes = self.engine.ctx.high_water();
        }
        wall
    }

    fn notes(&self) -> Vec<(&'static str, Json)> {
        let llc = joinstudy_core::cost::detect_llc_bytes();
        let ratio = self.bhj_table_bytes as f64 / llc as f64;
        vec![
            ("build_rows", Json::Num(self.full.spec.build_rows as f64)),
            ("probe_rows", Json::Num(self.full.spec.probe_rows as f64)),
            (
                "hybrid_probe_rows",
                Json::Num(self.hybrid.spec.probe_rows as f64),
            ),
            ("hybrid_budget_bytes", Json::Num(self.spill_budget as f64)),
            ("bhj_table_bytes", Json::Num(self.bhj_table_bytes as f64)),
            ("bhj_table_llc_ratio", Json::Num(ratio)),
            // Below 2 the build side does not clearly exceed the cache the
            // host reports, and the workload may be outside the regime it
            // was chosen for (partitioning pays only for builds >> LLC).
            ("regime_holds", Json::Bool(ratio >= 2.0)),
        ]
    }

    fn pinned(&mut self) -> Json {
        // One multiply-xor step per key: order-sensitive, so a reshuffled
        // or redistributed key column changes it.
        let fold = |t: &Table| {
            t.column(0)
                .as_i64()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &k| {
                    (h ^ k as u64).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        Json::obj(vec![
            ("matches", Json::Num(self.full.matches as f64)),
            // Past 2^53: a string keeps every digit.
            ("p1_sum", Json::Str(self.full.p1_sum.to_string())),
            ("hybrid_matches", Json::Num(self.hybrid.matches as f64)),
            (
                "build_keys",
                Json::Str(format!("{:016x}", fold(&self.full.build))),
            ),
            (
                "probe_keys",
                Json::Str(format!("{:016x}", fold(&self.full.probe))),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// spill_stream
// ---------------------------------------------------------------------------

pub struct SpillStream {
    gen: Arc<StreamGen>,
    engine: Engine,
    spill_budget: usize,
    /// Rows the lineitem stream produces; every one has its order, so this
    /// is the join's `count(*)`.
    lineitem_rows: i64,
    /// `(count, sum)` of the first pass; every later pass must repeat it.
    reference: Option<Vec<String>>,
}

impl SpillStream {
    fn setup(sf: f64, seed: u64, threads: usize, spill_budget: usize) -> SpillStream {
        let gen = Arc::new(StreamGen::new(sf, seed));
        let lineitem_rows = (0..gen.chunk_count(TpchTable::Lineitem))
            .map(|i| gen.chunk(TpchTable::Lineitem, i).num_rows() as i64)
            .sum();
        SpillStream {
            gen,
            engine: Engine::new(threads),
            spill_budget,
            lineitem_rows,
            reference: None,
        }
    }

    /// `orders JOIN lineitem -> count(*), sum(l_extendedprice)` over
    /// streaming leaves: neither table is ever materialized.
    fn plan(&self, algo: JoinAlgo) -> Plan {
        let leaf = |table, cols: &[&str]| {
            let scan = StreamScan::by_names(Arc::clone(&self.gen), table, cols);
            let (schema, est, label) = (scan.output_schema(), scan.est_rows(), scan.label());
            Plan::stream_source(Arc::new(scan), schema, est, label)
        };
        let joined = leaf(TpchTable::Orders, &["o_orderkey"]).join(
            leaf(TpchTable::Lineitem, &["l_orderkey", "l_extendedprice"]),
            algo,
            JoinType::Inner,
            &[0],
            &[0],
        );
        let price = joined.schema().index_of("l_extendedprice");
        joined.aggregate(
            &[],
            vec![
                AggSpec::new(AggFunc::CountStar, 0, "cnt"),
                AggSpec::new(AggFunc::Sum, price, "revenue"),
            ],
        )
    }
}

impl Workload for SpillStream {
    fn pass(&mut self, algo: JoinAlgo, mode: Mode, obs: &mut PassObs) -> f64 {
        arm_engine(&self.engine, algo, self.spill_budget, mode.traced());
        let (wall, result) = run_plan(&self.engine, "stream.join", mode.traced(), obs, || {
            self.plan(algo)
        });
        if let Some(table) = result {
            let rows = canonical(&table);
            let count_ok = table.column(0).as_i64()[0] == self.lineitem_rows;
            let repeats = *self.reference.get_or_insert_with(|| rows.clone()) == rows;
            if !(count_ok && repeats) {
                eprintln!("spill_stream: wrong answer under {}: {rows:?}", algo.name());
                obs.failed += 1;
            }
        }
        wall
    }

    fn notes(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("sf", Json::Num(self.gen.sf())),
            ("lineitem_rows", Json::Num(self.lineitem_rows as f64)),
            ("hybrid_budget_bytes", Json::Num(self.spill_budget as f64)),
        ]
    }

    fn pinned(&mut self) -> Json {
        if self.reference.is_none() {
            self.pass(
                JoinAlgo::Bhj,
                Mode::EndToEnd,
                &mut PassObs::new(&mut Tracer::new()),
            );
        }
        Json::obj(vec![
            ("lineitem_rows", Json::Num(self.lineitem_rows as f64)),
            (
                "count_and_sum",
                Json::Str(self.reference.clone().unwrap_or_default().join(";")),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Closed-loop clients: each sends its next statement only when the
/// previous response has arrived, as callers that wait for a result do.
const CLIENTS: usize = 2;
/// Statements per client in one pass (ten rotations of the mix).
const PASS_STATEMENTS: usize = 60;
/// Statements per client in the latency phase of a round.
const LATENCY_STATEMENTS: usize = 600;

pub struct ServeMix {
    data: TpchData,
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
    /// First response to each statement of the mix, byte for byte.
    reference: Vec<String>,
    pass_statements: usize,
    latency_statements: usize,
    /// In-process replay (the per-layer run): own catalog, own engine.
    catalog: HashMap<String, Arc<Table>>,
    engine: Engine,
}

impl ServeMix {
    fn setup(sf: f64, seed: u64, threads: usize, scale: f64) -> Result<ServeMix, String> {
        let data = joinstudy_tpch::generate(sf, seed);
        let mut server = SqlServer::new(ServerConfig {
            threads,
            ..ServerConfig::default()
        });
        for name in TPCH_TABLES {
            server.register(name, Arc::clone(data.table(name)));
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let handle = Arc::new(server)
            .spawn(listener)
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(handle.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        // One warm round trip per statement: the reference responses.
        let mut reference = Vec::new();
        for stmt in MIX {
            let response = clients[0].query(stmt).map_err(|e| format!("query: {e}"))?;
            if !response.starts_with("OK") {
                return Err(format!("reference statement failed: {response}"));
            }
            reference.push(response);
        }
        let shrink = |n: usize| ((n as f64 * scale.min(1.0)) as usize).max(MIX.len());
        Ok(ServeMix {
            catalog: tpch_catalog(&data),
            data,
            handle: Some(handle),
            clients,
            reference,
            pass_statements: shrink(PASS_STATEMENTS),
            latency_statements: shrink(LATENCY_STATEMENTS),
            engine: Engine::new(threads),
        })
    }

    /// Both clients run `statements` statements each over TCP, closed loop,
    /// rotating through the mix from their own index.
    fn drive(&mut self, algo: JoinAlgo, statements: usize, obs: &mut PassObs) -> f64 {
        let start = Barrier::new(CLIENTS + 1);
        let reference = &self.reference;
        let (wall, per_client) = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let start = &start;
                    scope.spawn(move || {
                        let set = format!("SET join_algo = {}", algo_key(algo));
                        let set_ok = client.query(&set).is_ok_and(|r| r.starts_with("OK"));
                        start.wait();
                        let mut lat_ms = Vec::with_capacity(statements);
                        let mut failed = u64::from(!set_ok);
                        for q in 0..statements {
                            let i = (c + q) % MIX.len();
                            let sent = Instant::now();
                            let response = client.query(MIX[i]);
                            lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                            if !response.is_ok_and(|r| r == reference[i]) {
                                failed += 1;
                            }
                        }
                        (lat_ms, failed)
                    })
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            let results: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect();
            (t0.elapsed().as_secs_f64(), results)
        });
        for (lat_ms, failed) in per_client {
            obs.attempted += lat_ms.len() as u64;
            obs.lat_ms.extend(lat_ms);
            obs.failed += failed;
        }
        wall
    }

    /// The same statements, in-process and one layer at a time:
    /// parse -> plan_select -> Engine::execute -> encode_table.
    fn replay(&mut self, algo: JoinAlgo, traced: bool, obs: &mut PassObs) -> f64 {
        // Spill budget of the replayed hybrid pass. Over TCP the budget is
        // the admission grant (64 MiB, nothing spills at this size); here
        // it is tight enough that the mix's large joins do.
        arm_engine(&self.engine, algo, 1 << 20, traced);
        let t0 = Instant::now();
        for q in 0..CLIENTS * self.pass_statements {
            let i = q % MIX.len();
            let op = obs.tracer.next_op();
            let sent = Instant::now();
            let layers = &mut obs.layers;
            let response = obs.tracer.scope("sql.statement", op, |tracer| {
                let parsed = tracer.scope("sql.parser.parse", op, |_| {
                    joinstudy_sql::parser::parse(MIX[i])
                });
                let Ok(Statement::Select(select)) = parsed else {
                    return Err("the mix holds SELECT statements only".to_string());
                };
                let planning = Instant::now();
                let plan = tracer.scope("sql.planner.plan_select", op, |_| {
                    joinstudy_sql::planner::plan_select(&select, &self.catalog, algo)
                })?;
                layers.plan_build_ns += planning.elapsed().as_nanos() as u64;
                let table = tracer
                    .scope("core.engine.execute", op, |_| {
                        if traced {
                            self.engine.execute_profiled(&plan).map(|(table, profile)| {
                                layers.fold(&profile, &self.engine.ctx);
                                table
                            })
                        } else {
                            self.engine.execute(&plan)
                        }
                    })
                    .map_err(|e| e.to_string())?;
                Ok(tracer.scope("sql.server.encode_table", op, |_| encode_table(&table)))
            });
            obs.lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            obs.attempted += 1;
            if response.as_ref() != Ok(&self.reference[i]) {
                eprintln!(
                    "serve_mix replay: statement {i} under {}: wrong",
                    algo.name()
                );
                obs.failed += 1;
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

impl Workload for ServeMix {
    fn pass(&mut self, algo: JoinAlgo, mode: Mode, obs: &mut PassObs) -> f64 {
        match mode {
            Mode::EndToEnd => self.drive(algo, self.pass_statements, obs),
            Mode::Layers { traced } => self.replay(algo, traced, obs),
        }
    }

    fn latency_phase(&mut self, obs: &mut PassObs) -> f64 {
        self.drive(JoinAlgo::Adaptive, self.latency_statements, obs)
    }

    fn tpch(&self) -> Option<&TpchData> {
        Some(&self.data)
    }

    fn notes(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("sf", Json::Num(self.data.sf)),
            ("clients", Json::Num(CLIENTS as f64)),
            ("loop", Json::Str("closed".into())),
            (
                "statements_per_pass",
                Json::Num((CLIENTS * self.pass_statements) as f64),
            ),
            (
                "statements_per_latency_phase",
                Json::Num((CLIENTS * self.latency_statements) as f64),
            ),
        ]
    }

    fn pinned(&mut self) -> Json {
        Json::Obj(
            self.reference
                .iter()
                .enumerate()
                .map(|(i, response)| {
                    let lines: Vec<String> = response.lines().map(str::to_string).collect();
                    (format!("statement_{i}"), Json::Str(digest(&lines)))
                })
                .collect(),
        )
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        for client in &mut self.clients {
            client.query(".quit").ok();
        }
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}
