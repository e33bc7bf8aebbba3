//! TPC-H Q3 smoke test for the worker-timeline tracer: every join
//! implementation must return identical results with tracing on or off,
//! every recorded trace must satisfy the structural invariants (spans
//! nest, fit in the wall clock, busy + idle <= wall per worker), and the
//! traces must tell the paper's story — the RJ/BRJ timelines contain the
//! radix partition phases and partition-barrier idle spans that the
//! non-partitioned BHJ timeline does not have. A trace belongs to its
//! session's query, so the tests run side by side and two sessions on one
//! pool trace at the same time.

use joinstudy_core::{Engine, JoinAlgo};
use joinstudy_exec::trace::{QueryTrace, SpanKind, CONTROL_TRACK};
use joinstudy_exec::WorkerPool;
use joinstudy_storage::table::Table;
use joinstudy_tpch::queries::{all_queries, QueryConfig, TpchQuery};
use joinstudy_tpch::{generate, TpchData};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| generate(0.01, 20260706))
}

fn q3() -> TpchQuery {
    all_queries()
        .into_iter()
        .find(|q| q.id == 3)
        .expect("Q3 is registered")
}

/// Canonical form: the multiset of row renderings, sorted.
fn canonical(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|r| {
            t.row(r)
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

fn run_traced(engine: &Engine, algo: JoinAlgo) -> (Vec<String>, QueryTrace) {
    engine.ctx.set_tracing(true);
    let result = (q3().run)(data(), &QueryConfig::new(algo), engine);
    engine.ctx.set_tracing(false);
    let trace = engine
        .take_trace()
        .unwrap_or_else(|| panic!("no trace recorded under {algo:?}"));
    (canonical(&result), trace)
}

#[test]
fn q3_results_identical_with_tracing_on_and_off() {
    let engine = Engine::new(4);
    let mut reference: Option<Vec<String>> = None;
    for algo in [JoinAlgo::Bhj, JoinAlgo::Rj, JoinAlgo::Brj] {
        let untraced = canonical(&(q3().run)(data(), &QueryConfig::new(algo), &engine));
        assert!(
            engine.take_trace().is_none(),
            "{algo:?} recorded a trace with tracing off"
        );
        let (traced, trace) = run_traced(&engine, algo);
        assert_eq!(traced, untraced, "{algo:?} result changed under tracing");
        match &reference {
            None => reference = Some(untraced),
            Some(r) => assert_eq!(&traced, r, "{algo:?} result differs from BHJ"),
        }
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{algo:?} trace invalid: {e}"));
        assert!(
            trace.spans.iter().any(|s| s.kind == SpanKind::Morsel),
            "{algo:?} trace has no morsel spans"
        );
        assert!(
            !trace.pipelines.is_empty(),
            "{algo:?} trace has no pipelines"
        );
    }
}

#[test]
fn rj_trace_shows_partition_work_absent_from_bhj() {
    let engine = Engine::new(4);
    let (_, bhj) = run_traced(&engine, JoinAlgo::Bhj);
    let (_, rj) = run_traced(&engine, JoinAlgo::Rj);
    let (_, brj) = run_traced(&engine, JoinAlgo::Brj);

    let has = |t: &QueryTrace, needle: &str| t.spans.iter().any(|s| s.name.contains(needle));
    let ran = |t: &QueryTrace, needle: &str| t.pipelines.iter().any(|p| p.label.contains(needle));

    // The partitioned joins do radix work the non-partitioned join never
    // does: histogram scans, scatter passes (each a pipeline of its own),
    // and workers parked at the partition barrier (idle spans of the
    // partition pipelines).
    for (tag, t) in [("RJ", &rj), ("BRJ", &brj)] {
        assert!(
            ran(t, "radix histogram scan"),
            "{tag} trace lacks histogram-scan pipelines"
        );
        assert!(
            ran(t, "radix partition pass 2"),
            "{tag} trace lacks scatter pipelines"
        );
        assert!(
            t.spans
                .iter()
                .any(|s| s.kind == SpanKind::Idle && s.name.contains("partition")),
            "{tag} trace lacks partition-pipeline idle spans"
        );
    }
    assert!(
        ran(&brj, "bloom build"),
        "BRJ trace lacks bloom-build pipeline"
    );
    for needle in ["radix", "partition", "bloom"] {
        let spans = bhj.spans.iter().map(|s| &*s.name);
        let pipelines = bhj.pipelines.iter().map(|p| p.label.as_str());
        assert!(
            !spans
                .chain(pipelines)
                .any(|name| name.to_ascii_lowercase().contains(needle)),
            "BHJ trace unexpectedly mentions {needle:?}"
        );
    }
    assert!(has(&bhj, "BHJ build finalize"), "BHJ finalize span missing");

    // The Chrome export carries per-worker tracks for each trace.
    for t in [&bhj, &rj, &brj] {
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
    }
}

/// Per pipeline of a trace, in run order: its label and morsel-span count.
fn shape(t: &QueryTrace) -> Vec<(String, usize)> {
    t.pipelines
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let morsels = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Morsel && s.pipeline == i as u32);
            (p.label.clone(), morsels.count())
        })
        .collect()
}

#[test]
fn q3_traced_on_a_shared_pool_beside_an_untraced_session() {
    let pool = WorkerPool::new(2);
    let session = || {
        let mut engine = Engine::new(1);
        engine.set_worker_pool(Some(Arc::clone(&pool)));
        engine
    };
    let (engine, other) = (session(), session());
    let untraced = canonical(&(q3().run)(
        data(),
        &QueryConfig::new(JoinAlgo::Rj),
        &engine,
    ));
    // The same query traced alone on the pool: what the contended trace
    // must look like.
    let (_, alone) = run_traced(&engine, JoinAlgo::Rj);

    let (started, stop, other_runs) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicUsize::new(0),
    );
    let (traced, trace) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                started.store(true, Ordering::Relaxed);
                (q3().run)(data(), &QueryConfig::new(JoinAlgo::Brj), &other);
                other_runs.fetch_add(1, Ordering::Relaxed);
            }
        });
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let traced = run_traced(&engine, JoinAlgo::Rj);
        stop.store(true, Ordering::Relaxed);
        traced
    });
    assert!(
        other_runs.into_inner() > 0,
        "the untraced session ran no query"
    );
    assert!(
        other.take_trace().is_none(),
        "the untraced session recorded a trace"
    );

    assert_eq!(
        traced, untraced,
        "result changed under tracing on a shared pool"
    );
    trace
        .validate()
        .unwrap_or_else(|e| panic!("shared-pool trace invalid: {e}"));
    let ran = |needle: &str| trace.pipelines.iter().any(|p| p.label.contains(needle));
    assert!(ran("radix histogram scan"), "no histogram-scan pipeline");
    assert!(ran("radix partition pass 2"), "no scatter pipeline");
    // No span of the other session: every worker span belongs to one of
    // this query's pipelines, which ran the morsels they ran alone.
    for s in trace.spans.iter().filter(|s| s.track != CONTROL_TRACK) {
        assert!(
            (s.pipeline as usize) < trace.pipelines.len() && s.track < 2,
            "foreign span {s:?}"
        );
    }
    assert_eq!(shape(&trace), shape(&alone));
}

/// An instant or phase raised on a pool worker — here the hybrid join
/// closing a partition out to disk, and reloading a closed pair, inside a
/// morsel — lands on that worker's track, and recording it changes no row.
#[test]
fn hybrid_evictions_on_pool_workers_reach_the_trace() {
    let mut engine = Engine::new(1);
    engine.set_worker_pool(Some(WorkerPool::new(2)));
    // Q3's hybrid joins cannot keep their build sides under 256 KiB.
    engine.ctx.set_memory_budget(Some(256 << 10));
    let untraced = canonical(&(q3().run)(
        data(),
        &QueryConfig::new(JoinAlgo::Hybrid),
        &engine,
    ));
    let (traced, trace) = run_traced(&engine, JoinAlgo::Hybrid);
    assert_eq!(traced, untraced, "result changed under tracing");
    trace
        .validate()
        .unwrap_or_else(|e| panic!("spilling trace invalid: {e}"));
    let evictions: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Instant && s.name.starts_with("HHJ evict"))
        .collect();
    assert!(
        evictions
            .iter()
            .any(|s| s.track < 2 && (s.pipeline as usize) < trace.pipelines.len()),
        "no HHJ eviction on a worker track: {evictions:?}"
    );
    let reloads: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Phase && s.name.starts_with("HHJ reload p"))
        .collect();
    assert!(
        reloads
            .iter()
            .any(|s| s.track < 2 && (s.pipeline as usize) < trace.pipelines.len()),
        "no HHJ reload phase on a worker track: {reloads:?}"
    );
}

/// Pipeline labels of a trace as a multiset (sorted).
fn labels(t: &QueryTrace) -> Vec<String> {
    let mut labels: Vec<String> = t.pipelines.iter().map(|p| p.label.clone()).collect();
    labels.sort();
    labels
}

/// Two sessions on one pool trace Q3 at the same time, started together
/// round after round: each trace validates and holds exactly the
/// pipelines its own query runs alone, and tracing changes no row.
#[test]
fn two_traced_sessions_on_one_pool() {
    let pool = WorkerPool::new(2);
    let sessions = [JoinAlgo::Rj, JoinAlgo::Brj].map(|algo| {
        let mut engine = Engine::new(1);
        engine.set_worker_pool(Some(Arc::clone(&pool)));
        let untraced = canonical(&(q3().run)(data(), &QueryConfig::new(algo), &engine));
        let (_, alone) = run_traced(&engine, algo);
        (engine, algo, untraced, labels(&alone))
    });
    // The rounds only record; the checks follow the scope, so a session
    // that fails cannot leave the other waiting at the barrier.
    let barrier = Barrier::new(sessions.len());
    let runs = std::thread::scope(|scope| {
        let handles = sessions.each_ref().map(|(engine, algo, _, _)| {
            let barrier = &barrier;
            scope.spawn(move || {
                (0..4)
                    .map(|_| {
                        barrier.wait();
                        engine.ctx.set_tracing(true);
                        let rows = (q3().run)(data(), &QueryConfig::new(*algo), engine);
                        (canonical(&rows), engine.take_trace())
                    })
                    .collect::<Vec<_>>()
            })
        });
        handles.map(|h| h.join().expect("session thread"))
    });
    for ((_, algo, untraced, alone), rounds) in sessions.iter().zip(runs) {
        for (round, (rows, trace)) in rounds.into_iter().enumerate() {
            assert_eq!(&rows, untraced, "{algo:?} round {round}: rows changed");
            let trace = trace.unwrap_or_else(|| panic!("{algo:?} round {round}: no trace"));
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{algo:?} round {round}: {e}"));
            assert_eq!(&labels(&trace), alone, "{algo:?} round {round}");
        }
    }
}
