//! Property tests for the worker-timeline tracer: arbitrary pipelines run
//! with tracing enabled must produce traces whose spans nest, carry no
//! negative durations (spans fit inside the query wall clock), and whose
//! per-worker busy + idle time never exceeds the wall time — and tracing
//! must never change pipeline results.
//!
//! A trace belongs to the query context it was begun on, so the tests of
//! this binary run side by side, each on contexts of its own.

use joinstudy_exec::batch::Batch;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Sink, Source};
use joinstudy_exec::profile::PipelineStats;
use joinstudy_exec::sched::Executor;
use joinstudy_exec::trace::{self, QueryTrace, SpanKind};
use joinstudy_storage::column::ColumnData;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Source emitting `tasks` tasks of one two-value i64 batch each.
struct NumberSource {
    tasks: usize,
}

impl Source for NumberSource {
    fn task_count(&self) -> usize {
        self.tasks
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        let base = task as i64 * 10;
        out(Batch::new(vec![ColumnData::Int64(vec![base, base + 1])]));
        Ok(())
    }
}

/// Operator duplicating every batch (amplifies downstream row counts).
struct DupOp;

impl Operator for DupOp {
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        out(input.clone());
        out(input);
        Ok(())
    }
}

/// Sink summing all i64 values through worker-local accumulators.
#[derive(Default)]
struct SumSink {
    total: Mutex<i64>,
}

impl Sink for SumSink {
    fn create_local(&self) -> LocalState {
        Box::new(0i64)
    }

    fn consume(&self, local: &mut LocalState, input: Batch) -> ExecResult {
        let acc = local.downcast_mut::<i64>().unwrap();
        *acc += input.column(0).as_i64().iter().sum::<i64>();
        Ok(())
    }

    fn finish_local(&self, local: LocalState) -> ExecResult {
        *self.total.lock().unwrap() += *local.downcast::<i64>().unwrap();
        Ok(())
    }

    fn finish(&self) {}
}

fn expected_sum(tasks: usize, dup_ops: usize) -> i64 {
    (0..tasks as i64).map(|t| 20 * t + 1).sum::<i64>() * (1 << dup_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traced_pipelines_validate_and_preserve_results(
        threads in 1usize..6,
        pipelines in prop::collection::vec((0usize..24, 0usize..3), 1..4),
        with_phase in any::<bool>(),
    ) {
        let exec = Executor::new(threads);
        let ctx = QueryContext::unbounded();
        trace::begin(&ctx, "prop query");
        let mut sums = Vec::new();
        for (i, &(tasks, dup_ops)) in pipelines.iter().enumerate() {
            if with_phase {
                let _span = trace::phase_scope(&ctx, "prop phase");
                trace::instant(&ctx, "prop instant");
            }
            let sink = SumSink::default();
            let ops: Vec<Arc<dyn Operator>> =
                (0..dup_ops).map(|_| Arc::new(DupOp) as Arc<dyn Operator>).collect();
            let label = format!("pipeline {i}");
            let stats =
                Arc::new(PipelineStats::new(&ctx, label.as_str().into(), dup_ops, tasks as u64, false));
            exec.run_pipeline_obs(&ctx, &NumberSource { tasks }, &ops, &sink, &stats)
                .unwrap();
            sums.push(*sink.total.lock().unwrap());
        }

        let t = trace::end(&ctx).expect("active trace");

        // Tracing must not change results.
        for (i, &(tasks, dup_ops)) in pipelines.iter().enumerate() {
            prop_assert_eq!(sums[i], expected_sum(tasks, dup_ops), "pipeline {}", i);
        }

        // Structural invariants: spans fit in [0, wall] (no negative or
        // overlong durations), spans nest per track, and per-worker
        // busy + idle never exceeds the wall clock.
        t.validate().map_err(TestCaseError::fail)?;

        // One morsel span per source task, with the emitted rows recorded.
        let morsels: Vec<_> = t.spans.iter().filter(|s| s.kind == SpanKind::Morsel).collect();
        let total_tasks: usize = pipelines.iter().map(|&(tasks, _)| tasks).sum();
        prop_assert_eq!(morsels.len(), total_tasks);
        prop_assert_eq!(
            morsels.iter().map(|s| s.arg).sum::<u64>(),
            pipelines.iter().map(|&(tasks, _)| 2 * tasks as u64).sum::<u64>(),
            "morsel spans record source-emitted rows"
        );

        // Every pipeline got its label and a begin <= end window.
        prop_assert_eq!(t.pipelines.len(), pipelines.len());
        for (i, p) in t.pipelines.iter().enumerate() {
            prop_assert_eq!(&p.label, &format!("pipeline {i}"));
            prop_assert!(p.start_ns <= p.end_ns);
        }

        // The Chrome export is well-formed enough to load: top-level
        // traceEvents array, one complete event per span.
        let json = t.to_chrome_json();
        prop_assert!(json.contains("\"traceEvents\""));
        prop_assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            t.spans.iter().filter(|s| s.kind != SpanKind::Instant).count()
        );
    }
}

/// Tracing off is the default; a run without `begin` records nothing and
/// `end` has nothing to return.
#[test]
fn no_trace_without_begin() {
    let ctx = QueryContext::unbounded();
    let sink = SumSink::default();
    Executor::new(3)
        .run_pipeline(&ctx, &NumberSource { tasks: 8 }, &[], &sink)
        .unwrap();
    assert_eq!(*sink.total.lock().unwrap(), expected_sum(8, 0));
    assert!(trace::end(&ctx).is_none());
}

/// Two collectors record independently: queries traced at the same time
/// on one executor each get exactly their own pipelines, and ending one
/// trace leaves the other recording.
#[test]
fn two_collectors_record_independently() {
    let exec = Executor::new(3);
    let (outer, inner) = (QueryContext::unbounded(), QueryContext::unbounded());
    trace::begin(&outer, "outer");
    trace::begin(&inner, "inner");
    let run = |ctx: &Arc<QueryContext>, label: &str, tasks: usize| {
        let stats = Arc::new(PipelineStats::new(
            ctx,
            label.into(),
            0,
            tasks as u64,
            false,
        ));
        let sink = SumSink::default();
        exec.run_pipeline_obs(ctx, &NumberSource { tasks }, &[], &sink, &stats)
            .unwrap();
        trace::instant(ctx, format!("{label} done"));
    };
    std::thread::scope(|s| {
        s.spawn(|| run(&outer, "outer pipeline", 12));
        s.spawn(|| run(&inner, "inner pipeline", 5));
    });
    let t = trace::end(&inner).expect("inner trace active");
    run(&outer, "outer pipeline", 3);
    let u = trace::end(&outer).expect("outer trace still active");
    assert!(trace::end(&outer).is_none() && trace::end(&inner).is_none());

    assert_eq!(t.label, "inner");
    assert_eq!(u.label, "outer");
    let labels =
        |t: &QueryTrace| -> Vec<String> { t.pipelines.iter().map(|p| p.label.clone()).collect() };
    assert_eq!(labels(&t), ["inner pipeline"]);
    assert_eq!(labels(&u), ["outer pipeline", "outer pipeline"]);
    let morsels = |t: &QueryTrace| {
        t.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Morsel)
            .count()
    };
    assert_eq!(morsels(&t), 5);
    assert_eq!(morsels(&u), 15);
    let instants = |t: &QueryTrace| -> Vec<String> {
        let instants = t.spans.iter().filter(|s| s.kind == SpanKind::Instant);
        instants.map(|s| s.name.to_string()).collect()
    };
    assert_eq!(instants(&t), ["inner pipeline done"]);
    assert_eq!(instants(&u), ["outer pipeline done", "outer pipeline done"]);
    t.validate().unwrap();
    u.validate().unwrap();
}
