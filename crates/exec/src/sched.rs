//! Morsel-driven parallel pipeline executor.
//!
//! Workers claim tasks from a shared atomic cursor — the simplest form of
//! work stealing: no worker ever idles while tasks remain, which is what
//! gives the engine its skew tolerance (a worker stuck on a heavy partition
//! doesn't block the others; they drain the remaining tasks). This mirrors
//! the morsel-driven scheduler of Leis et al. that the paper's host system
//! uses for all pipelines, including both radix-partitioning passes.
//!
//! An [`Executor`] runs a pipeline either inline (one worker: the caller)
//! or on a [`WorkerPool`] — the server's shared one, or a private one the
//! executor spawns for its first pipeline. [`crate::pool`] is the one place
//! threads are owned. Either way every worker runs the one morsel loop of
//! [`crate::morsel`] — `step` until exhausted, then `drain` — and this
//! module wraps each run in the same bookkeeping: a top-level pipeline is a
//! segment of its query's record ([`crate::progress`]) from submit to
//! retire, which also closes the stretch the submitting thread spent
//! since the previous one; the query's wait state is stamped; and a
//! top-level pipeline whose context carries a trace is traced into it,
//! whichever back-end runs it.
//!
//! # Failure handling
//!
//! Every worker checks the shared [`QueryContext`] (cancellation flag and
//! deadline) before claiming each morsel, and every `poll_task` / `process` /
//! `consume` call returns [`ExecResult`]. The first error is stored in a
//! shared slot; the remaining workers observe the raised failure flag, stop
//! claiming tasks, and drain. A panicking worker is additionally isolated
//! with `catch_unwind` and converted into
//! [`ExecError::WorkerPanic`](crate::error::ExecError::WorkerPanic), so a
//! bug in one operator cannot abort the whole process. On failure the
//! sink's `finish` is skipped and [`Executor::run_pipeline`] returns the
//! error; every worker still publishes its partial counts and spans.

use crate::context::QueryContext;
use crate::error::ExecResult;
use crate::morsel::{Failure, Pipeline, PipelineLabel, Worker};
use crate::pipeline::{DiscardSink, Emit, Operator, Sink, Source};
use crate::pool::WorkerPool;
use crate::profile::PipelineStats;
use crate::progress::{WaitState, RUNNING};
use crate::trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A pipeline executor with a fixed worker count.
///
/// `Executor::new(1)` runs inline on the calling thread (deterministic
/// order, easier profiling); `Executor::new(n > 1)` submits to a private
/// [`WorkerPool`] of `n` workers, spawned by the first pipeline and shared
/// by every clone of the executor. [`Executor::pooled`] submits to a pool
/// the caller shares — the server's, whose workers interleave morsels from
/// every active query.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    /// `None` runs inline; otherwise the pool, set on first use when
    /// private.
    pool: Option<Arc<OnceLock<Arc<WorkerPool>>>>,
}

impl Executor {
    pub fn new(threads: usize) -> Executor {
        assert!(threads > 0, "executor needs at least one thread");
        Executor {
            threads,
            pool: (threads > 1).then(Default::default),
        }
    }

    /// An executor that submits every pipeline to `pool` instead of a
    /// private one. `threads()` reports the pool's worker count so
    /// plan-time parallelism decisions stay meaningful.
    pub fn pooled(pool: Arc<WorkerPool>) -> Executor {
        Executor {
            threads: pool.threads(),
            pool: Some(Arc::new(OnceLock::from(pool))),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool this executor's pipelines run on, once there is one: a
    /// private pool exists only after its first pipeline.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_deref()?.get()
    }

    /// Run one unlabeled, untimed pipeline to completion: drain every
    /// source task through the operator chain into the sink, then merge
    /// worker-local sink state and finalize the sink.
    ///
    /// Returns the first error any worker hit (cancellation, timeout, budget
    /// breach, operator failure, or a caught panic). On error the sink is
    /// left un-finalized but every worker has drained.
    pub fn run_pipeline(
        &self,
        ctx: &Arc<QueryContext>,
        source: &dyn Source,
        ops: &[Arc<dyn Operator>],
        sink: &dyn Sink,
    ) -> ExecResult {
        let tasks = source.task_count() as u64;
        let stats = PipelineStats::new(ctx, PipelineLabel::UNLABELED, ops.len(), tasks, false);
        self.run_pipeline_obs(ctx, source, ops, sink, &Arc::new(stats))
    }

    /// [`Executor::run_pipeline`] into a counter block the caller built
    /// (for `source`'s task count and `ops.len()` operators) and keeps.
    ///
    /// `stats.label` is what the pipeline is called in a trace and in
    /// `jsys.query_progress`, which reads the block off the query's record
    /// while the pipeline runs; a nested pipeline (submitted inside a morsel
    /// of its query) is neither a segment nor a trace lane. Each worker's
    /// private counts are added into `stats` after every morsel and at
    /// drain, along with the pipeline's wall time and worker count; with
    /// `stats.timed` the workers also time every batch.
    pub fn run_pipeline_obs(
        &self,
        ctx: &Arc<QueryContext>,
        source: &dyn Source,
        ops: &[Arc<dyn Operator>],
        sink: &dyn Sink,
        stats: &Arc<PipelineStats>,
    ) -> ExecResult {
        let started = Instant::now();
        RUNNING.fetch_add(1, Ordering::Relaxed);
        let (at, trace) = ctx.record().pipeline_begin(stats);
        // Submitted but no morsel claimed yet; each morsel stamps the CPU
        // flavor on entry and PoolWait on exit.
        ctx.stamp_wait(WaitState::PoolWait);
        let pipeline = Pipeline {
            ctx,
            source,
            ops,
            sink,
            cursor: AtomicUsize::new(0),
            task_count: source.task_count(),
            failure: Failure::new(),
            stats,
            trace,
        };
        let workers = match &self.pool {
            None => {
                run_worker(&pipeline, 0);
                1
            }
            Some(pool) => pool
                .get_or_init(|| WorkerPool::new(self.threads))
                .run(&pipeline),
        };
        let end = trace::now_ns();
        if let Some((col, id)) = &pipeline.trace {
            // Synthesizes the idle intervals up to the pipeline's end.
            col.pipeline_end(*id, &stats.label, end);
        }
        stats.record_run(started.elapsed().as_nanos() as u64, workers);
        ctx.record().pipeline_end(at, end);
        RUNNING.fetch_sub(1, Ordering::Relaxed);
        ctx.stamp_wait(WaitState::Other);
        pipeline.failure.conclude(sink)
    }

    /// Run `body(task)` for each task of `0..tasks` as one pipeline under
    /// `label` that emits nothing (a radix histogram scan or scatter, a hash
    /// table's link): the morsel loop claims each task once, checks `ctx`
    /// before each, and turns the first error or panic into the result.
    pub fn run_tasks(
        &self,
        ctx: &Arc<QueryContext>,
        label: PipelineLabel<'_>,
        tasks: usize,
        body: impl Fn(usize) -> ExecResult + Send + Sync,
    ) -> ExecResult {
        let stats = Arc::new(PipelineStats::new(ctx, label, 0, tasks as u64, false));
        self.run_pipeline_obs(ctx, &TaskSource(tasks, body), &[], &DiscardSink, &stats)
    }
}

/// The source of a [`Executor::run_tasks`] pipeline: task count and body.
struct TaskSource<F>(usize, F);

impl<F: Fn(usize) -> ExecResult + Send + Sync> Source for TaskSource<F> {
    fn task_count(&self) -> usize {
        self.0
    }

    fn poll_task(&self, task: usize, _out: Emit) -> ExecResult {
        (self.1)(task)
    }
}

/// The inline worker: step until nothing is left to claim (or a failure
/// is raised), then drain. The drain also runs after this worker's own
/// error or panic — it then skips the operator flush and sink merge and
/// only publishes the counts, PMU sample and spans gathered so far.
fn run_worker(p: &Pipeline<'_>, track: u32) {
    let mut worker = None;
    p.failure.guard(|| {
        let w = worker.insert(Worker::new(p, track));
        while w.step(p)? {}
        Ok(())
    });
    if let Some(mut w) = worker {
        p.failure.guard(|| w.drain(p));
    }
}
