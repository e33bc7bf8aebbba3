//! Direct timed loops over single layers' public functions (source **K**
//! in the README's metric table), on inputs shaped like the workload that
//! leans on the layer. Every figure is a median over a few repetitions and
//! every loop runs inside a span named after its layer.
//!
//! The loops are single-threaded unless the layer *is* the scheduler, so a
//! figure is a cost per unit of work, not a throughput of this host.

use crate::inputs::{tpch_catalog, SplitMix64, MIX, TPCH_TABLES};
use crate::span::Tracer;
use crate::stats::median;
use joinstudy_core::bloom::BlockedBloom;
use joinstudy_core::hash::{hash_columns, hash_u64};
use joinstudy_core::ht_chain::{ChainTable, RowArena};
use joinstudy_core::ht_rh::RobinHoodTable;
use joinstudy_core::radix::{partition_of, PartitionSink, PhaseSet, RadixConfig};
use joinstudy_core::row::{write_u64, RowLayout};
use joinstudy_core::spill::{SpillDir, SpillReader, SpillWriter};
use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_exec::admission::AdmissionController;
use joinstudy_exec::batch::{Batch, BatchBuilder, BATCH_ROWS};
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::expr::Expr;
use joinstudy_exec::ops::aggregate::{AggFunc, AggSink, AggSpec};
use joinstudy_exec::ops::filter::{FilterOp, ProjectOp};
use joinstudy_exec::ops::scan::TableScan;
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Sink, Source};
use joinstudy_exec::pool::WorkerPool;
use joinstudy_exec::Executor;
use joinstudy_sql::ast::Statement;
use joinstudy_sql::server::{encode_table, Client};
use joinstudy_sql::stats::{StatLog, StatRecord};
use joinstudy_sql::{ServerConfig, Session, SqlServer};
use joinstudy_storage::column::ColumnData;
use joinstudy_storage::table::Table;
use joinstudy_storage::types::{DataType, Date, Decimal};
use joinstudy_tpch::{StreamGen, TpchData, TpchTable};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 3;

/// Median nanoseconds per unit over `REPS` runs of `f`, which returns the
/// time it measured and the units of work it did.
fn ns_per_unit(mut f: impl FnMut() -> (f64, usize)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (secs, units) = f();
            secs * 1e9 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

pub struct KernelInputs<'a> {
    pub seed: u64,
    /// 1.0 for benchmark runs; smoke tests shrink every loop.
    pub scale: f64,
    pub threads: usize,
    /// TPC-H tables of the running workload, if it has them.
    pub tpch: Option<&'a TpchData>,
}

impl KernelInputs<'_> {
    fn rows(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(2 * BATCH_ROWS)
    }
}

/// Run every kernel loop; returns `(metric name, value)` pairs.
pub fn run_all(
    inp: &KernelInputs,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let op = tracer.next_op();
    let mut out = Vec::new();
    let generated;
    let tpch = match inp.tpch {
        Some(data) => data,
        None => {
            generated = joinstudy_tpch::generate((0.02 * inp.scale).max(0.002), inp.seed);
            &generated
        }
    };
    tracer.scope("kernels", op, |t| -> Result<(), String> {
        t.scope("tpch.stream", op, |_| out.push(stream_gen(inp)));
        t.scope("exec.expr", op, |_| out.extend(expr(&tpch.lineitem)));
        t.scope("exec.aggregate", op, |_| {
            out.push(group_agg(&tpch.lineitem))
        });
        t.scope("exec.sched", op, |_| out.extend(scheduler(inp)));
        t.scope("exec.admission", op, |_| out.push(admission()));
        t.scope("core.hash", op, |_| out.push(hash(inp)));
        t.scope("core.radix", op, |_| out.extend(radix(inp)));
        t.scope("core.bloom", op, |_| out.extend(bloom(inp)));
        t.scope("core.ht_chain", op, |_| out.extend(chain(inp)));
        t.scope("core.ht_rh", op, |_| out.extend(robin_hood(inp)));
        out.extend(
            t.scope("core.spill", op, |_| spill(inp))
                .map_err(|e| format!("spill kernel: {e}"))?,
        );
        out.extend(t.scope("sql.frontend", op, |_| sql_frontend(tpch))?);
        out.extend(t.scope("sql.server", op, |_| serve_probe(tpch, inp.threads))?);
        Ok(())
    })?;
    Ok(out)
}

// --- tpch ------------------------------------------------------------------

/// `StreamGen::chunk` for orders and lineitem, the two tables the
/// streamed join pulls: nanoseconds per generated row.
fn stream_gen(inp: &KernelInputs) -> (&'static str, f64) {
    let gen = StreamGen::new((0.05 * inp.scale).max(0.002), inp.seed);
    let chunks = gen.chunk_count(TpchTable::Orders).min(4);
    let ns = ns_per_unit(|| {
        let (secs, rows) = timed(|| {
            (0..chunks)
                .map(|i| {
                    gen.chunk(TpchTable::Orders, i).num_rows()
                        + gen.chunk(TpchTable::Lineitem, i).num_rows()
                })
                .sum()
        });
        (secs, black_box(rows))
    });
    ("tpch.stream.gen_ns_per_row", ns)
}

// --- exec ------------------------------------------------------------------

/// Drive `op` with every batch of a scan over `cols` of `table`, timing
/// only the `process` calls; returns (seconds, input rows).
fn drive_operator(table: &Arc<Table>, cols: &[&str], op: &dyn Operator) -> (f64, usize) {
    let scan = TableScan::by_names(Arc::clone(table), cols, None);
    let mut local = op.create_local();
    let (mut secs, mut rows, mut emitted) = (0.0, 0, 0);
    for task in 0..scan.task_count() {
        scan.poll_task(task, &mut |batch| {
            rows += batch.num_rows();
            let t = Instant::now();
            op.process(&mut local, batch, &mut |b| emitted += b.num_rows())
                .expect("operator kernels cannot fail");
            secs += t.elapsed().as_secs_f64();
        })
        .expect("table scans cannot fail");
    }
    black_box(emitted);
    (secs, rows)
}

/// `FilterOp` (date and decimal comparisons, Q3/Q6-like) and `ProjectOp`
/// (`l_extendedprice * (1 - l_discount)`, the revenue expression nine
/// queries share) over lineitem.
fn expr(lineitem: &Arc<Table>) -> Vec<(&'static str, f64)> {
    let filter = FilterOp::new(Expr::and(vec![
        Expr::col(0).gt(Expr::date(Date::from_ymd(1995, 3, 15))),
        Expr::col(1).ge(Expr::dec(Decimal::from_parts(0, 5))),
    ]));
    let arith = ProjectOp::new(vec![
        Expr::col(0).mul(Expr::dec(Decimal::from_int(1)).sub(Expr::col(1)))
    ]);
    vec![
        (
            "exec.expr.filter_ns_per_row",
            ns_per_unit(|| drive_operator(lineitem, &["l_shipdate", "l_discount"], &filter)),
        ),
        (
            "exec.expr.arith_ns_per_row",
            ns_per_unit(|| drive_operator(lineitem, &["l_extendedprice", "l_discount"], &arith)),
        ),
    ]
}

/// `AggSink` grouping lineitem by `l_orderkey` (Q18's and Q3's shape:
/// about four rows per group, as many groups as orders).
fn group_agg(lineitem: &Arc<Table>) -> (&'static str, f64) {
    let scan = TableScan::by_names(Arc::clone(lineitem), &["l_orderkey", "l_quantity"], None);
    let ns = ns_per_unit(|| {
        let sink = AggSink::new(
            scan.output_schema(),
            vec![0],
            vec![AggSpec::new(AggFunc::Sum, 1, "q")],
        );
        let mut local = sink.create_local();
        let (mut secs, mut rows) = (0.0, 0);
        for task in 0..scan.task_count() {
            scan.poll_task(task, &mut |batch| {
                rows += batch.num_rows();
                let t = Instant::now();
                sink.consume(&mut local, batch).expect("no budget is set");
                secs += t.elapsed().as_secs_f64();
            })
            .expect("table scans cannot fail");
        }
        let (merge, _) = timed(|| sink.finish_local(local).expect("no budget is set"));
        (secs + merge, rows)
    });
    ("exec.aggregate.group_ns_per_row", ns)
}

/// A source of `tasks` morsels that each produce nothing.
struct EmptySource(usize);

impl Source for EmptySource {
    fn task_count(&self) -> usize {
        self.0
    }

    fn poll_task(&self, _task: usize, _out: Emit) -> ExecResult {
        Ok(())
    }
}

struct NullSink;

impl Sink for NullSink {
    fn consume(&self, _local: &mut LocalState, _input: Batch) -> ExecResult {
        Ok(())
    }
}

/// Per-morsel and per-pipeline cost of both executor back-ends, measured
/// on pipelines that do no work: a scoped team per query (`sched`) and the
/// shared pool the server uses (`pool`).
fn scheduler(inp: &KernelInputs) -> Vec<(&'static str, f64)> {
    let ctx = QueryContext::unbounded();
    let morsels = inp.rows(100_000);
    let launches = (200.0 * inp.scale.min(1.0)).max(20.0) as usize;
    let measure = |exec: &Executor| {
        let run = |tasks: usize| {
            timed(|| {
                exec.run_pipeline(&ctx, &EmptySource(tasks), &[], &NullSink)
                    .expect("an empty pipeline cannot fail")
            })
            .0
        };
        // One morsel per worker: a single-task pipeline runs inline on the
        // caller and would not show what starting a team costs.
        let launch_s = median(&(0..launches).map(|_| run(inp.threads)).collect::<Vec<_>>());
        let many_s = median(&(0..REPS).map(|_| run(morsels)).collect::<Vec<_>>());
        (
            (many_s - launch_s).max(0.0) * 1e9 / morsels as f64,
            launch_s * 1e6,
        )
    };
    let (sched_morsel, sched_launch) = measure(&Executor::new(inp.threads));
    let (pool_morsel, pool_launch) = measure(&Executor::pooled(WorkerPool::new(inp.threads)));
    vec![
        ("exec.sched.morsel_overhead_ns", sched_morsel),
        ("exec.pool.morsel_overhead_ns", pool_morsel),
        ("exec.sched.pipeline_launch_us", sched_launch),
        ("exec.pool.pipeline_launch_us", pool_launch),
    ]
}

/// Uncontended `admit` + grant drop, with the server's default sizes.
fn admission() -> (&'static str, f64) {
    let config = ServerConfig::default();
    let ctrl = AdmissionController::new(config.pool_bytes, config.min_grant_bytes);
    let ctx = QueryContext::default();
    let n = 20_000;
    let ns = ns_per_unit(|| {
        let (secs, ()) = timed(|| {
            for _ in 0..n {
                drop(black_box(
                    ctrl.admit(config.query_bytes, &ctx)
                        .expect("an idle pool admits at once"),
                ));
            }
        });
        (secs, n)
    });
    ("exec.admission.admit_ns", ns)
}

// --- core ------------------------------------------------------------------

fn random_keys(rng: &mut SplitMix64, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.next_u64() as i64).collect()
}

/// `hash_columns` over one i64 key column (every join's first step).
fn hash(inp: &KernelInputs) -> (&'static str, f64) {
    let n = inp.rows(4 << 20);
    let col = ColumnData::Int64(random_keys(&mut SplitMix64::new(inp.seed), n));
    let mut out = Vec::with_capacity(n);
    let ns = ns_per_unit(|| {
        let (secs, ()) = timed(|| hash_columns(&[&col], n, &mut out));
        black_box(&out);
        (secs, n)
    });
    ("core.hash.ns_per_key", ns)
}

/// Batches of `width` i64 columns with random keys in column 0.
fn key_batches(rng: &mut SplitMix64, rows: usize, width: usize) -> Vec<Batch> {
    let mut batches = Vec::new();
    let mut done = 0;
    while done < rows {
        let n = BATCH_ROWS.min(rows - done);
        let mut b = BatchBuilder::new(vec![DataType::Int64; width]);
        *b.column_mut(0) = ColumnData::Int64(random_keys(rng, n));
        for c in 1..width {
            *b.column_mut(c) = ColumnData::Int64(vec![c as i64; n]);
        }
        b.advance(n);
        batches.extend(b.flush());
        done += n;
    }
    batches
}

/// `PartitionSink` consume + finalize: both radix passes, SWWCBs and all,
/// on 16 B rows (`micro_fk`'s tuples) and on 48 B rows (`micro_lowsel_wide`
/// carries four payload columns), which write-combine less well.
fn radix(inp: &KernelInputs) -> Vec<(&'static str, f64)> {
    let partition = |rows: usize, width: usize| {
        let mut rng = SplitMix64::new(inp.seed ^ width as u64);
        ns_per_unit(|| {
            let batches = key_batches(&mut rng, rows, width);
            let layout = RowLayout::new(&vec![DataType::Int64; width], false);
            let sink =
                PartitionSink::new(layout, vec![0], RadixConfig::default(), PhaseSet::probe());
            let (secs, total) = timed(|| {
                let mut local = sink.create_local();
                for b in batches {
                    sink.consume(&mut local, b).expect("no budget is set");
                }
                sink.finish_local(local).expect("no budget is set");
                let (side, _) = sink.finalize(1, None, false).expect("no budget is set");
                side.total_rows()
            });
            (secs, total)
        })
    };
    vec![
        (
            "core.radix.partition_ns_per_tuple",
            partition(inp.rows(2 << 20), 2),
        ),
        (
            "core.radix.partition_wide_ns_per_tuple",
            partition(inp.rows(1 << 20), 6),
        ),
    ]
}

/// `BlockedBloom` insert and batched `probe_sel`, at the 5 % hit rate of
/// `micro_lowsel_wide` (most probes are rejected, as the reducer intends).
fn bloom(inp: &KernelInputs) -> Vec<(&'static str, f64)> {
    let (bits1, bits2) = (6, 4);
    let keys = inp.rows(1 << 20);
    let probes = inp.rows(4 << 20);
    let mut rng = SplitMix64::new(inp.seed);
    let build: Vec<u64> = (0..keys as u64).map(hash_u64).collect();
    let probe: Vec<u64> = (0..probes)
        .map(|_| {
            let k = rng.below(keys as u64);
            hash_u64(if rng.unit() < 0.05 {
                k
            } else {
                k + keys as u64
            })
        })
        .collect();
    let filled = |hashes: &[u64]| {
        let bloom = BlockedBloom::new(1 << (bits1 + bits2), keys);
        for &h in hashes {
            bloom.insert(partition_of(h, bits1, bits2), h);
        }
        bloom
    };
    let build_ns = ns_per_unit(|| {
        let (secs, bloom) = timed(|| filled(&build));
        black_box(bloom.byte_size());
        (secs, keys)
    });
    let bloom = filled(&build);
    let mut sel = Vec::with_capacity(BATCH_ROWS);
    let probe_ns = ns_per_unit(|| {
        let (secs, passed) = timed(|| {
            let mut passed = 0;
            for batch in probe.chunks(BATCH_ROWS) {
                bloom.probe_sel(bits1, bits2, batch, &mut sel);
                passed += sel.len();
            }
            passed
        });
        black_box(passed);
        (secs, probes)
    });
    vec![
        ("core.bloom.build_ns_per_key", build_ns),
        ("core.bloom.probe_ns_per_key", probe_ns),
    ]
}

/// The BHJ's global chaining table, sized well past the LLC like
/// `micro_fk`'s: build, probes that all hit, probes that all miss (which
/// the pointer tags mostly reject without touching a row).
fn chain(inp: &KernelInputs) -> Vec<(&'static str, f64)> {
    /// 8 B chain header, 8 B hash, 8 B key.
    const STRIDE: usize = 24;
    let n = inp.rows(2 << 20);
    let build = |arena: &mut RowArena| {
        let table = ChainTable::new(n);
        for k in 0..n as u64 {
            let h = hash_u64(k);
            let row = arena.alloc_row();
            write_u64(row, 8, h);
            write_u64(row, 16, k);
            // SAFETY: `row` is a fresh 24-byte arena slot whose first 8
            // bytes are the chain header; nothing else references it, and
            // the arena outlives the table in every caller below.
            unsafe { table.insert(row.as_mut_ptr(), h) };
        }
        table
    };
    let probe = |table: &ChainTable, offset: u64| {
        let mut hits = 0usize;
        for k in 0..n as u64 {
            let key = k + offset;
            let h = hash_u64(key);
            let head = table.head(h);
            if !ChainTable::tag_may_contain(head, h) {
                continue;
            }
            let mut row = ChainTable::first_row(head);
            while !row.is_null() {
                // SAFETY: every non-null pointer in a chain is a row
                // inserted by `build`, 24 bytes long and 8-aligned, in an
                // arena that is still alive.
                unsafe {
                    if std::ptr::read(row.add(8).cast::<u64>()) == h
                        && std::ptr::read(row.add(16).cast::<u64>()) == key
                    {
                        hits += 1;
                    }
                    row = ChainTable::next_row(row);
                }
            }
        }
        hits
    };
    let build_ns = ns_per_unit(|| {
        let mut arena = RowArena::new(STRIDE);
        let (secs, table) = timed(|| build(&mut arena));
        black_box(table.num_buckets());
        (secs, n)
    });
    let mut arena = RowArena::new(STRIDE);
    let table = build(&mut arena);
    let probe_ns = |offset: u64, expect: usize| {
        ns_per_unit(|| {
            let (secs, hits) = timed(|| probe(&table, offset));
            assert_eq!(hits, expect, "chain table lost or invented rows");
            (secs, n)
        })
    };
    vec![
        ("core.ht_chain.build_ns_per_row", build_ns),
        ("core.ht_chain.probe_hit_ns_per_row", probe_ns(0, n)),
        ("core.ht_chain.probe_miss_ns_per_row", probe_ns(n as u64, 0)),
    ]
}

/// The RJ's per-partition Robin-Hood table at partition size (8 Ki rows,
/// cache-resident), reset and refilled partition after partition as the
/// join phase does.
fn robin_hood(inp: &KernelInputs) -> Vec<(&'static str, f64)> {
    const PARTITION_ROWS: usize = 8 << 10;
    let partitions = (inp.rows(2 << 20) / PARTITION_ROWS).max(1);
    let total = partitions * PARTITION_ROWS;
    let mut table = RobinHoodTable::new();
    let (mut build_s, mut probe_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut build, mut probe, mut hits) = (0.0, 0.0, 0usize);
        for p in 0..partitions as u64 {
            let base = p * PARTITION_ROWS as u64;
            build += timed(|| {
                table.reset(PARTITION_ROWS);
                for k in 0..PARTITION_ROWS as u64 {
                    table.insert(hash_u64(base + k), k as u32);
                }
            })
            .0;
            probe += timed(|| {
                for k in 0..PARTITION_ROWS as u64 {
                    table.for_each_match(hash_u64(base + k), |_| hits += 1);
                }
            })
            .0;
        }
        assert!(hits >= total, "robin-hood table lost rows");
        build_s.push(build * 1e9 / total as f64);
        probe_s.push(probe * 1e9 / total as f64);
    }
    vec![
        ("core.ht_rh.build_ns_per_row", median(&build_s)),
        ("core.ht_rh.probe_ns_per_row", median(&probe_s)),
    ]
}

/// `SpillWriter::write_batch` / `SpillReader::read_batch` over 64 MiB of
/// 16 B rows. The files live in the run's spill directory and are served
/// from the page cache: the sandbox's speed, not a device's.
fn spill(inp: &KernelInputs) -> ExecResult<Vec<(&'static str, f64)>> {
    let rows = inp.rows(4 << 20);
    let batches = key_batches(&mut SplitMix64::new(inp.seed), rows, 2);
    let ctx = QueryContext::unbounded();
    let (mut write, mut read) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let dir = SpillDir::create(None)?;
        let mut writer = SpillWriter::create(&dir, &format!("kernel-{rep}"), &ctx)?;
        let (write_s, file) = timed(|| -> ExecResult<_> {
            for b in &batches {
                writer.write_batch(b)?;
            }
            writer.finish()
        });
        let file = file?;
        let mib = file.bytes() as f64 / (1 << 20) as f64;
        let mut reader = SpillReader::open(&file, &ctx)?;
        let (read_s, seen) = timed(|| -> ExecResult<usize> {
            let mut seen = 0;
            while let Some(b) = reader.read_batch()? {
                seen += b.num_rows();
            }
            Ok(seen)
        });
        assert_eq!(seen?, rows, "spill file lost rows");
        file.remove();
        write.push(mib / write_s);
        read.push(mib / read_s);
    }
    Ok(vec![
        ("core.spill.write_mib_per_s", median(&write)),
        ("core.spill.read_mib_per_s", median(&read)),
    ])
}

// --- sql -------------------------------------------------------------------

/// Median seconds of `f` per statement of the mix, averaged over the mix.
fn per_statement(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let per: Vec<f64> = (0..MIX.len())
        .map(|i| median(&(0..reps).map(|_| timed(|| f(i)).0).collect::<Vec<_>>()))
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// The statement-independent front-end costs over the six-statement mix:
/// parse, plan, fingerprint + statistics record, and result encoding.
fn sql_frontend(data: &TpchData) -> Result<Vec<(&'static str, f64)>, String> {
    let catalog = tpch_catalog(data);
    let engine = Engine::new(1);
    let mut selects = Vec::new();
    let mut results = Vec::new();
    for stmt in MIX {
        let Statement::Select(select) = joinstudy_sql::parser::parse(stmt)? else {
            return Err("the mix holds SELECT statements only".into());
        };
        let plan = joinstudy_sql::planner::plan_select(&select, &catalog, JoinAlgo::Adaptive)?;
        results.push(engine.execute(&plan).map_err(|e| e.to_string())?);
        selects.push(select);
    }
    let parse_s = per_statement(50, |i| {
        black_box(joinstudy_sql::parser::parse(MIX[i]).is_ok());
    });
    let plan_s = per_statement(50, |i| {
        black_box(
            joinstudy_sql::planner::plan_select(&selects[i], &catalog, JoinAlgo::Adaptive).is_ok(),
        );
    });
    let log = StatLog::new();
    let record_s = per_statement(50, |i| {
        black_box(log.record(&StatRecord {
            conn: 1,
            sql: MIX[i],
            ok: true,
            latency_ns: 1_000_000,
            rows_out: 5,
            spill_bytes: 0,
            admission_wait_ns: 0,
            granted_bytes: 0,
            degradations: 0,
            algo_mask: 0,
        }));
    });
    let rows: usize = results.iter().map(Table::num_rows).sum();
    let encode_s = median(
        &(0..50)
            .map(|_| {
                timed(|| {
                    for t in &results {
                        black_box(encode_table(t));
                    }
                })
                .0
            })
            .collect::<Vec<_>>(),
    );
    Ok(vec![
        ("sql.parser.parse_us", parse_s * 1e6),
        ("sql.planner.plan_us", plan_s * 1e6),
        ("sql.stats.fingerprint_record_us", record_s * 1e6),
        (
            "sql.server.encode_ns_per_row",
            encode_s * 1e9 / rows.max(1) as f64,
        ),
    ])
}

/// A short run against a real `SqlServer` on loopback: what a statement
/// pays for the session and the wire beyond parse + plan + execute, and
/// where two closed-loop clients' statements wait (admission, ASH).
fn serve_probe(data: &TpchData, threads: usize) -> Result<Vec<(&'static str, f64)>, String> {
    const REPS_PER_STATEMENT: usize = 25;
    const BURST_STATEMENTS: usize = 150;
    let io = |e: std::io::Error| format!("serve probe: {e}");

    let catalog = tpch_catalog(data);
    let engine = Engine::new(threads);
    let mut session = Session::new(threads);
    let mut server = SqlServer::new(ServerConfig {
        threads,
        ..ServerConfig::default()
    });
    for name in TPCH_TABLES {
        session.register(name, Arc::clone(data.table(name)));
        server.register(name, Arc::clone(data.table(name)));
    }
    let (statlog, ash) = (server.statlog(), server.ash());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let handle = Arc::new(server).spawn(listener).map_err(io)?;
    let mut client = Client::connect(handle.addr()).map_err(io)?;

    // Each statement three ways, back to back, so the differences are
    // paired: in-process layer by layer, through an embedded session, and
    // through the server with one client (nothing queues).
    let (mut session_over, mut wire_over) = (0.0, 0.0);
    for stmt in MIX {
        let (mut session_d, mut wire_d) = (Vec::new(), Vec::new());
        for _ in 0..REPS_PER_STATEMENT {
            let (layers_s, ()) = timed(|| {
                let Ok(Statement::Select(select)) = joinstudy_sql::parser::parse(stmt) else {
                    return;
                };
                let plan =
                    joinstudy_sql::planner::plan_select(&select, &catalog, JoinAlgo::Adaptive);
                if let Ok(plan) = plan {
                    black_box(engine.execute(&plan).is_ok());
                }
            });
            let (session_s, _) = timed(|| black_box(session.execute(stmt).is_ok()));
            let (wire_s, _) = timed(|| black_box(client.query(stmt).is_ok()));
            session_d.push(session_s - layers_s);
            wire_d.push(wire_s - session_s);
        }
        session_over += median(&session_d) / MIX.len() as f64;
        wire_over += median(&wire_d) / MIX.len() as f64;
    }
    client.query(".quit").ok();

    // Two closed-loop clients, as in `serve_mix`, for the wait states.
    let samples_before = ash.snapshot().len();
    std::thread::scope(|scope| {
        for c in 0..2 {
            let addr = handle.addr();
            scope.spawn(move || {
                if let Ok(mut client) = Client::connect(addr) {
                    for q in 0..BURST_STATEMENTS {
                        client.query(MIX[(c + q) % MIX.len()]).ok();
                    }
                    client.query(".quit").ok();
                }
            });
        }
    });
    let stats = statlog.statements_snapshot();
    let total_ns: u64 = stats.iter().map(|s| s.total_ns).sum();
    let wait_ns: u64 = stats.iter().map(|s| s.admission_wait_ns).sum();
    let samples = ash.snapshot();
    let burst = &samples[samples_before.min(samples.len())..];
    let share = |pred: &dyn Fn(&str) -> bool| {
        burst.iter().filter(|s| pred(s.wait_state)).count() as f64 / burst.len().max(1) as f64
    };
    handle.stop();

    Ok(vec![
        ("sql.session.overhead_us", session_over * 1e6),
        ("sql.server.wire_overhead_us", wire_over * 1e6),
        (
            "exec.admission.wait_frac",
            wait_ns as f64 / total_ns.max(1) as f64,
        ),
        ("sql.ash.cpu_frac", share(&|s| s.starts_with("cpu_"))),
        ("sql.ash.pool_wait_frac", share(&|s| s == "pool_wait")),
        ("sql.ash.spill_io_frac", share(&|s| s == "spill_io")),
    ])
}
