//! Morsel-driven parallel pipeline executor: the scoped worker team.
//!
//! Workers claim tasks from a shared atomic cursor — the simplest form of
//! work stealing: no worker ever idles while tasks remain, which is what
//! gives the engine its skew tolerance (a worker stuck on a heavy partition
//! doesn't block the others; they drain the remaining tasks). This mirrors
//! the morsel-driven scheduler of Leis et al. that the paper's host system
//! uses for all pipelines, including both radix-partitioning passes.
//!
//! This module and [`crate::pool`] own every thread: an [`Executor`] spawns
//! one scoped team per pipeline (or hands the pipeline to the shared
//! [`WorkerPool`](crate::pool::WorkerPool)), and every worker runs the one
//! morsel loop of [`crate::morsel`] — `while worker.step()? {}`, then
//! `worker.drain()`. Profiling, live progress and tracing are data that
//! loop carries, not separate bodies.
//!
//! # Failure handling
//!
//! Every worker checks the shared [`QueryContext`] (cancellation flag and
//! deadline) before claiming each morsel, and every `poll_task` / `process` /
//! `consume` call returns [`ExecResult`]. The first error is stored in a
//! shared slot; the remaining workers observe the raised failure flag, stop
//! claiming tasks, and join cleanly. A panicking worker is additionally
//! isolated with `catch_unwind` and converted into
//! [`ExecError::WorkerPanic`](crate::error::ExecError::WorkerPanic), so a
//! bug in one operator cannot abort the whole process. On failure the
//! sink's `finish` is skipped and [`Executor::run_pipeline`] returns the
//! error; every worker still publishes its partial counts and spans.

use crate::context::QueryContext;
use crate::error::ExecResult;
use crate::morsel::{Failure, Pipeline, PipelineLabel, Worker};
use crate::pipeline::{DiscardSink, Emit, Operator, Sink, Source};
use crate::profile::PipelineStats;
use crate::trace;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// A pipeline executor with a fixed worker count.
///
/// `threads == 1` runs inline on the calling thread (deterministic order,
/// easier profiling); `threads > 1` spawns scoped workers. An executor
/// built with [`Executor::pooled`] instead submits its pipelines to a
/// shared process-wide [`WorkerPool`](crate::pool::WorkerPool), whose
/// workers interleave morsels from every active query.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    pool: Option<Arc<crate::pool::WorkerPool>>,
}

impl Executor {
    pub fn new(threads: usize) -> Executor {
        assert!(threads > 0, "executor needs at least one thread");
        Executor {
            threads,
            pool: None,
        }
    }

    /// An executor that submits every pipeline to `pool` instead of
    /// spawning a private worker team. `threads()` reports the pool's
    /// worker count so plan-time parallelism decisions stay meaningful.
    pub fn pooled(pool: Arc<crate::pool::WorkerPool>) -> Executor {
        Executor {
            threads: pool.threads(),
            pool: Some(pool),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run one unlabeled, untimed pipeline to completion: drain every
    /// source task through the operator chain into the sink, then merge
    /// worker-local sink state and finalize the sink.
    ///
    /// Returns the first error any worker hit (cancellation, timeout, budget
    /// breach, operator failure, or a caught panic). On error the sink is
    /// left un-finalized but every worker thread has joined.
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
    /// `stats.label` is what the pipeline is called in a trace and (on the
    /// pool, which registers the block for its run) in
    /// `jsys.query_progress`. Each worker's private counts are added into
    /// `stats` when it drains — on the pool after every morsel — along with
    /// the pipeline's wall time and worker count; with `stats.timed` the
    /// workers also time every batch.
    pub fn run_pipeline_obs(
        &self,
        ctx: &Arc<QueryContext>,
        source: &dyn Source,
        ops: &[Arc<dyn Operator>],
        sink: &dyn Sink,
        stats: &Arc<PipelineStats>,
    ) -> ExecResult {
        // The check is per-thread ownership, not the bare enabled flag, so a
        // trace begun by one session never captures a concurrent session's
        // pipelines. A traced pipeline always runs on a private scoped team
        // (never the shared pool): its timeline then contains exactly this
        // query's workers, and the per-worker track indices stay stable.
        let traced = trace::thread_active();
        match &self.pool {
            Some(pool) if !traced => return pool.run_pipeline_obs(ctx, source, ops, sink, stats),
            _ => {}
        }
        let started = Instant::now();
        let task_count = source.task_count();
        let (cursor, failure) = (AtomicUsize::new(0), Failure::new());
        let pipeline = Pipeline {
            ctx,
            source,
            ops,
            sink,
            cursor: &cursor,
            task_count,
            failure: &failure,
            stats,
            live: false,
            trace: traced.then(|| trace::pipeline_begin(&stats.label)),
        };

        let workers = if task_count <= 1 { 1 } else { self.threads };
        if workers == 1 {
            run_worker(&pipeline, 0);
        } else {
            std::thread::scope(|scope| {
                for track in 0..workers as u32 {
                    let pipeline = &pipeline;
                    scope.spawn(move || run_worker(pipeline, track));
                }
            });
        }

        if let Some(pipe) = pipeline.trace {
            // Closes the pipeline span and synthesizes the idle intervals.
            trace::pipeline_end(pipe, trace::now_ns(), workers as u32);
        }
        stats.record_run(started.elapsed().as_nanos() as u64, workers as u64);
        failure.conclude(sink)
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

/// One scoped worker: step until nothing is left to claim (or a failure is
/// raised), then drain. The drain also runs after this worker's own error
/// or panic — it then skips the operator flush and sink merge and only
/// publishes the counts, PMU sample and spans gathered so far.
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
