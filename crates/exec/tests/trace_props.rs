//! Property tests for the worker-timeline tracer: arbitrary pipelines run
//! with tracing enabled must produce traces whose spans nest, carry no
//! negative durations (spans fit inside the query wall clock), and whose
//! per-worker busy + idle time never exceeds the wall time — and tracing
//! must never change pipeline results.
//!
//! The tracer is process-global (one trace at a time), so every test case
//! holds a file-local lock around the begin/run/end window; proptest cases
//! within one `#[test]` already run sequentially.

use joinstudy_exec::batch::Batch;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecResult;
use joinstudy_exec::pipeline::{Emit, LocalState, Operator, Sink, Source};
use joinstudy_exec::profile::PipelineStats;
use joinstudy_exec::sched::Executor;
use joinstudy_exec::trace::{self, SpanKind};
use joinstudy_storage::column::ColumnData;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Serializes trace sessions across the tests in this binary.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

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
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        prop_assert!(trace::begin("prop query", false));

        let exec = Executor::new(threads);
        let ctx = QueryContext::unbounded();
        let mut sums = Vec::new();
        for (i, &(tasks, dup_ops)) in pipelines.iter().enumerate() {
            if with_phase {
                let _span = trace::phase_scope("prop phase");
                trace::instant("prop instant");
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

        let t = trace::end().expect("active trace");

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
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sink = SumSink::default();
    Executor::new(3)
        .run_pipeline(
            &QueryContext::unbounded(),
            &NumberSource { tasks: 8 },
            &[],
            &sink,
        )
        .unwrap();
    assert_eq!(*sink.total.lock().unwrap(), expected_sum(8, 0));
    assert!(trace::end().is_none());
}

/// Only one trace can be active: a nested `begin` is refused and the outer
/// trace keeps collecting.
#[test]
fn concurrent_begin_refused() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(trace::begin("outer", false));
    assert!(!trace::begin("inner", false));
    let t = trace::end().expect("outer trace still active");
    assert_eq!(t.label, "outer");
    assert!(trace::end().is_none());
}
