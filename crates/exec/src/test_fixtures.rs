//! Pipeline parts shared by the scheduler unit tests (`morsel`, `pool`).

use crate::batch::Batch;
use crate::context::QueryContext;
use crate::error::{ExecError, ExecResult};
use crate::pipeline::{Emit, LocalState, Operator, Sink, Source};
use crate::profile::PipelineStats;
use joinstudy_storage::column::ColumnData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Source emitting `tasks` tasks of one i64 batch each: task t => [t*10, t*10+1].
pub(crate) struct NumberSource {
    pub tasks: usize,
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

/// Sum of every value a [`NumberSource`] of `tasks` tasks emits.
pub(crate) fn expected_sum(tasks: usize) -> i64 {
    (0..tasks as i64).map(|t| t * 10 + t * 10 + 1).sum()
}

/// `(rows_in, rows_out)` of every stage, source first, sink last.
pub(crate) fn stage_rows(stats: &PipelineStats) -> Vec<(u64, u64)> {
    stats
        .stages()
        .map(|(_, st)| (st.rows_in(), st.rows_out()))
        .collect()
}

/// What a [`WatchingSource`] saw of its own pipeline from inside it.
pub(crate) struct Seen {
    /// The block the query's record handed out.
    pub block: Arc<PipelineStats>,
    /// Its readings at that moment.
    pub tasks_done: u64,
    pub rows: Vec<(u64, u64)>,
}

/// A [`NumberSource`] that, from inside its last task, looks its own
/// pipeline up in its query's record — a mid-flight reader.
pub(crate) struct WatchingSource {
    pub inner: NumberSource,
    pub ctx: Arc<QueryContext>,
    pub seen: Mutex<Vec<Seen>>,
}

impl Source for WatchingSource {
    fn task_count(&self) -> usize {
        self.inner.tasks
    }

    fn poll_task(&self, task: usize, out: Emit) -> ExecResult {
        if task + 1 == self.inner.tasks {
            let mine = self.ctx.running_pipeline();
            self.seen.lock().unwrap().extend(mine.map(|block| Seen {
                tasks_done: block.tasks_done(),
                rows: stage_rows(&block),
                block,
            }));
        }
        self.inner.poll_task(task, out)
    }
}

/// Operator duplicating every batch (tests multi-emission).
pub(crate) struct DupOp;

impl Operator for DupOp {
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        out(input.clone());
        out(input);
        Ok(())
    }
}

/// Operator buffering everything until flush (tests flush traversal); counts
/// its flush calls.
#[derive(Default)]
pub(crate) struct BufferAllOp {
    pub flushes: AtomicUsize,
}

impl Operator for BufferAllOp {
    fn create_local(&self) -> LocalState {
        Box::new(Vec::<Batch>::new())
    }

    fn process(&self, local: &mut LocalState, input: Batch, _out: Emit) -> ExecResult {
        local.downcast_mut::<Vec<Batch>>().unwrap().push(input);
        Ok(())
    }

    fn flush(&self, local: &mut LocalState, out: Emit) -> ExecResult {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        for b in local.downcast_mut::<Vec<Batch>>().unwrap().drain(..) {
            out(b);
        }
        Ok(())
    }
}

/// Operator that fails once a batch containing `trigger` passes through.
pub(crate) struct FailOnValueOp {
    pub trigger: i64,
}

impl Operator for FailOnValueOp {
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        if input.column(0).as_i64().contains(&self.trigger) {
            return Err(ExecError::operator("fail-on-value", "injected failure"));
        }
        out(input);
        Ok(())
    }
}

/// Operator that panics on a specific value (tests catch_unwind).
pub(crate) struct PanicOnValueOp {
    pub trigger: i64,
}

impl Operator for PanicOnValueOp {
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        assert!(
            !input.column(0).as_i64().contains(&self.trigger),
            "injected panic"
        );
        out(input);
        Ok(())
    }
}

/// Sink summing all i64 values, with proper local/global merge; counts its
/// `finish_local` calls and remembers whether `finish` ran.
#[derive(Default)]
pub(crate) struct SumSink {
    total: AtomicI64,
    pub finish_locals: AtomicUsize,
    finished: AtomicBool,
}

impl SumSink {
    pub fn total(&self) -> i64 {
        self.total.load(Ordering::Relaxed)
    }

    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }
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
        self.finish_locals.fetch_add(1, Ordering::Relaxed);
        self.total
            .fetch_add(*local.downcast::<i64>().unwrap(), Ordering::Relaxed);
        Ok(())
    }

    fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }
}
