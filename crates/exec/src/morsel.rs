//! The one morsel loop: claim → poll → feed → drain.
//!
//! Every pipeline of every query — BHJ build and probe, both radix passes,
//! scans, aggregates — crosses exactly the code in this module, on either
//! kind of [`crate::Executor`]. Inline, the caller runs
//! `while worker.step()? {}` then `worker.drain()`; a
//! [`WorkerPool`](crate::pool::WorkerPool) runs one `step()` per fairness
//! quantum and `drain()` once the pipeline is exhausted. The two differ only
//! in who owns the threads; what a tuple crosses is shared by construction.
//!
//! Observation is data, not a second code path. A [`Worker`] keeps its
//! row/batch/morsel counts in a private [`WorkerProf`] (plain integer adds)
//! and publishes them into the pipeline's one [`PipelineStats`] block after
//! every morsel, so the block is readable mid-flight through
//! [`crate::progress::global`]; each morsel reads the clock twice and
//! stamps the query's wait state around itself. A `timed` block adds clock
//! reads per batch, and a traced pipeline gives each worker a track.

use crate::batch::Batch;
use crate::context::QueryContext;
use crate::error::{ExecError, ExecResult};
use crate::pipeline::{LocalState, Operator, Sink, Source};
use crate::profile::{PipelineStats, WorkerProf};
use crate::progress::WaitState;
use crate::registry::Histogram;
use crate::trace::{self, SpanKind, TraceSpan};
use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a pipeline is called, which CPU wait state its work is sampled as,
/// and how many source rows the planner expects (0 = no estimate). Goes
/// into the pipeline's [`PipelineStats`]; shows up as the pipeline's name in
/// traces, as label + `est_rows` in `jsys.query_progress`, and as the
/// `cpu_*` state of its ASH samples.
#[derive(Debug, Clone, Copy)]
pub struct PipelineLabel<'a> {
    pub name: &'a str,
    /// Set by whoever compiles the pipeline — the only one who knows
    /// whether it builds, partitions or probes. Anything else scans.
    pub cpu: WaitState,
    pub est_rows: u64,
}

impl<'a> PipelineLabel<'a> {
    /// What a pipeline submitted through [`crate::Executor::run_pipeline`]
    /// is reported as.
    pub const UNLABELED: PipelineLabel<'static> =
        PipelineLabel::new("pipeline", WaitState::CpuScan);

    /// A label without a planner estimate.
    pub const fn new(name: &'a str, cpu: WaitState) -> PipelineLabel<'a> {
        PipelineLabel {
            name,
            cpu,
            est_rows: 0,
        }
    }
}

impl<'a> From<&'a str> for PipelineLabel<'a> {
    fn from(name: &'a str) -> PipelineLabel<'a> {
        PipelineLabel::new(name, WaitState::CpuScan)
    }
}

/// First-error-wins failure slot shared by all workers of one pipeline.
pub(crate) struct Failure {
    raised: AtomicBool,
    first: Mutex<Option<ExecError>>,
}

impl Failure {
    pub(crate) fn new() -> Failure {
        Failure {
            raised: AtomicBool::new(false),
            first: Mutex::new(None),
        }
    }

    /// Whether any worker has failed; checked per morsel by the others.
    #[inline]
    pub(crate) fn raised(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }

    fn set(&self, err: ExecError) {
        let mut slot = self.first.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(err);
        }
        self.raised.store(true, Ordering::Release);
    }

    /// Run one stretch of worker code. An `Err` or a panic lands in the
    /// slot (a panic as [`ExecError::WorkerPanic`]), so a bug in one
    /// operator cannot abort the process or, on the pool, another query.
    pub(crate) fn guard(&self, f: impl FnOnce() -> ExecResult) {
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(())) => {}
            Ok(Err(err)) => self.set(err),
            Err(payload) => self.set(ExecError::WorkerPanic {
                message: panic_message(payload.as_ref()),
            }),
        }
    }

    /// End of the pipeline, after every worker drained: the first error if
    /// there was one (the sink stays un-finalized), else `sink.finish()`.
    pub(crate) fn conclude(&self, sink: &dyn Sink) -> ExecResult {
        match self.first.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(err) => Err(err),
            None => {
                sink.finish();
                Ok(())
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Everything the workers of one pipeline share: the borrowed parts, the
/// claim cursor and failure slot, and the run's counter block.
pub(crate) struct Pipeline<'a> {
    pub ctx: &'a QueryContext,
    pub source: &'a dyn Source,
    pub ops: &'a [Arc<dyn Operator>],
    pub sink: &'a dyn Sink,
    /// Next unclaimed task — the simplest form of work stealing: no worker
    /// idles while tasks remain.
    pub cursor: AtomicUsize,
    pub task_count: usize,
    pub failure: Failure,
    /// Where every worker's counts end up; `stats.timed` turns the
    /// per-batch clock reads on.
    pub stats: &'a PipelineStats,
    /// Tracer pipeline id (traced pipelines).
    pub trace: Option<u32>,
}

impl Pipeline<'_> {
    /// No more morsels will ever be claimed: tasks drained or a failure
    /// raised.
    #[inline]
    pub(crate) fn exhausted(&self) -> bool {
        self.failure.raised() || self.cursor.load(Ordering::Relaxed) >= self.task_count
    }
}

/// Scheduler histograms, recorded on traced pipelines only: morsel
/// latency, queue depth at claim time, and source batch fill.
struct SchedHists {
    morsel_ns: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    batch_rows: Arc<Histogram>,
}

fn sched_hists() -> &'static SchedHists {
    static SCHED_HISTS: OnceLock<SchedHists> = OnceLock::new();
    SCHED_HISTS.get_or_init(|| {
        let reg = crate::registry::global();
        SchedHists {
            morsel_ns: reg.histogram("sched.morsel_ns"),
            queue_depth: reg.histogram("sched.queue_depth"),
            batch_rows: reg.histogram("sched.batch_rows"),
        }
    })
}

/// A traced worker's timeline: spans are buffered here without locks and
/// moved into the collector once, at drain.
struct TraceTrack {
    pipe: u32,
    track: u32,
    spans: Vec<TraceSpan>,
    hists: &'static SchedHists,
}

/// One worker's state for one pipeline: operator and sink locals plus its
/// private observation record.
pub(crate) struct Worker {
    op_locals: Vec<LocalState>,
    /// `None` once handed to `finish_local`.
    sink_local: Option<LocalState>,
    counts: WorkerProf,
    hw: Option<crate::pmu::WorkerSampler>,
    trace: Option<TraceTrack>,
}

impl Worker {
    /// `track` is this worker's index in the trace timeline: its pool
    /// worker index, 0 inline (ignored on untraced pipelines).
    pub(crate) fn new(p: &Pipeline<'_>, track: u32) -> Worker {
        Worker {
            op_locals: p.ops.iter().map(|o| o.create_local()).collect(),
            sink_local: Some(p.sink.create_local()),
            counts: WorkerProf::new(p.ops.len()),
            // One PMU sample per worker per pipeline, folded in at drain;
            // one relaxed load when counters are off.
            hw: crate::pmu::worker_sampler(p.ctx.counters()),
            trace: p.trace.map(|pipe| TraceTrack {
                pipe,
                track,
                spans: trace::take_worker_buffer(),
                hists: sched_hists(),
            }),
        }
    }

    /// Claim and run at most one morsel. `Ok(false)` means nothing is left
    /// to claim (tasks drained, or a sibling failed) and the caller should
    /// [`Worker::drain`].
    pub(crate) fn step(&mut self, p: &Pipeline<'_>) -> ExecResult<bool> {
        // Stop claiming as soon as any sibling failed; the per-morsel
        // cancellation/deadline check bounds reaction latency to one morsel.
        if p.failure.raised() {
            return Ok(false);
        }
        p.ctx.check()?;
        let task = p.cursor.fetch_add(1, Ordering::Relaxed);
        if task >= p.task_count {
            return Ok(false);
        }
        // This query is on-CPU in this pipeline's phase for the morsel.
        p.ctx.stamp_wait(p.stats.cpu_state);
        let _on_track = self
            .trace
            .as_ref()
            .map(|t| trace::worker_scope(t.pipe, t.track));
        let hists = self.trace.as_ref().map(|t| t.hists);
        if let Some(h) = hists {
            h.queue_depth
                .record(p.task_count.saturating_sub(task + 1) as u64);
        }
        let timed = p.stats.timed;
        let t0 = trace::now_ns();
        let rows_before = self.counts.source.rows_out;

        // Emit callbacks are infallible, so a downstream error is parked in
        // `chain_err` and later batches of the task are dropped.
        let mut chain_err: Option<ExecError> = None;
        let (counts, op_locals) = (&mut self.counts, &mut self.op_locals);
        let sink_local = self.sink_local.as_mut().expect("step after drain");
        let polled = p.source.poll_task(task, &mut |batch| {
            if chain_err.is_none() {
                let n = batch.num_rows() as u64;
                counts.source.batches += 1;
                counts.source.rows_out += n;
                if let Some(h) = hists {
                    h.batch_rows.record(n);
                }
                if let Err(e) = feed_chain(p, op_locals, sink_local, batch, 0, counts, timed) {
                    chain_err = Some(e);
                }
            }
        });
        self.counts.source.morsels += 1;

        // Source busy time is *inclusive* of the downstream work done in the
        // emit callback (pipeline time).
        let dur = trace::now_ns().saturating_sub(t0);
        self.counts.source.busy_ns += dur;
        if let Some(t) = &mut self.trace {
            t.hists.morsel_ns.record(dur);
            t.spans.push(TraceSpan {
                name: Cow::Borrowed("morsel"),
                kind: SpanKind::Morsel,
                track: t.track,
                pipeline: t.pipe,
                start_ns: t0,
                dur_ns: dur,
                arg: self.counts.source.rows_out - rows_before,
                hw: None,
            });
        }
        // Until the next claim this query waits for a worker.
        p.ctx.stamp_wait(WaitState::PoolWait);
        // Somebody may be watching mid-flight.
        self.publish(p);
        if let Some(e) = chain_err {
            return Err(e);
        }
        polled.map(|()| true)
    }

    /// End of this worker's part in the pipeline: flush operators
    /// front-to-back and merge the sink local (both skipped once a failure
    /// is raised), then publish the observation record — on success *and*
    /// on error, so a failed query still shows partial counts and a partial
    /// timeline.
    pub(crate) fn drain(&mut self, p: &Pipeline<'_>) -> ExecResult {
        p.ctx.stamp_wait(WaitState::Finalizing);
        let on_track = self
            .trace
            .as_ref()
            .map(|t| trace::worker_scope(t.pipe, t.track));
        let result = self.flush_and_merge(p);
        drop(on_track);
        self.publish(p);
        crate::pmu::finish_worker(self.hw.take(), &p.stats.hw);
        if let Some(t) = self.trace.take() {
            trace::flush_worker(t.pipe, t.track, t.spans, trace::now_ns());
        }
        result
    }

    fn flush_and_merge(&mut self, p: &Pipeline<'_>) -> ExecResult {
        let timed = p.stats.timed;
        let sink_local = self.sink_local.as_mut().expect("drain runs once");
        // ROF staging buffers flush front-to-back so that a flush from
        // operator i still traverses operators i+1.. and the sink.
        for i in 0..p.ops.len() {
            if p.failure.raised() {
                return Ok(());
            }
            let mut pending: Vec<Batch> = Vec::new();
            let t0 = timed.then(Instant::now);
            p.ops[i].flush(&mut self.op_locals[i], &mut |b| pending.push(b))?;
            if let Some(t0) = t0 {
                self.counts.ops[i].busy_ns += t0.elapsed().as_nanos() as u64;
            }
            for b in pending {
                self.counts.ops[i].batches += 1;
                self.counts.ops[i].rows_out += b.num_rows() as u64;
                let (locals, counts) = (&mut self.op_locals, &mut self.counts);
                feed_chain(p, locals, sink_local, b, i + 1, counts, timed)?;
            }
        }
        if p.failure.raised() {
            return Ok(());
        }
        let sink_local = self.sink_local.take().expect("drain runs once");
        let t0 = timed.then(Instant::now);
        let merged = p.sink.finish_local(sink_local);
        if let Some(t0) = t0 {
            self.counts.sink.busy_ns += t0.elapsed().as_nanos() as u64;
        }
        merged
    }

    /// Add the private counts to the pipeline's block and zero them.
    /// Purely additive, so per-morsel and drain-time publication give the
    /// same totals.
    fn publish(&mut self, p: &Pipeline<'_>) {
        p.stats.add(&self.counts);
        self.counts.reset();
    }
}

/// Push a batch through operators `from..` and finally into the sink,
/// counting rows and batches in and out of every stage (and, when `timed`,
/// the exclusive time of each `process`/`consume` call: produced batches
/// are staged on the explicit stack and processed after `process` returns).
/// Iterative because operators may emit many batches and recursion through
/// `dyn FnMut` closures cannot borrow-check.
fn feed_chain(
    p: &Pipeline<'_>,
    op_locals: &mut [LocalState],
    sink_local: &mut LocalState,
    batch: Batch,
    from: usize,
    counts: &mut WorkerProf,
    timed: bool,
) -> ExecResult {
    let mut stack: Vec<(usize, Batch)> = vec![(from, batch)];
    while let Some((i, b)) = stack.pop() {
        let n = b.num_rows() as u64;
        if n == 0 {
            continue;
        }
        let t0 = timed.then(Instant::now);
        if i == p.ops.len() {
            counts.sink.batches += 1;
            counts.sink.rows_in += n;
            p.sink.consume(sink_local, b)?;
            if let Some(t0) = t0 {
                counts.sink.busy_ns += t0.elapsed().as_nanos() as u64;
            }
            continue;
        }
        let slot = &mut counts.ops[i];
        slot.batches += 1;
        slot.rows_in += n;
        let mut rows_out = 0u64;
        p.ops[i].process(&mut op_locals[i], b, &mut |nb| {
            rows_out += nb.num_rows() as u64;
            stack.push((i + 1, nb));
        })?;
        slot.rows_out += rows_out;
        if let Some(t0) = t0 {
            slot.busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! One table over {inline, private pool×4, shared pool×1, shared
    //! pool×4} × {plain, profiled, traced, traced+profiled}: whatever owns
    //! the threads and whatever is observing, a pipeline gives the same sink
    //! total, the same per-stage counts and the same failure behaviour.

    use super::*;
    use crate::pool::WorkerPool;
    use crate::profile::ProfileNode;
    use crate::sched::Executor;
    use crate::test_fixtures::*;
    use crate::trace::QueryTrace;

    #[derive(Debug, Clone, Copy)]
    enum Backend {
        /// `Executor::new(1)`: the caller is the one worker.
        Inline,
        /// `Executor::new(n)`: a pool of its own, spawned on first use.
        Private(usize),
        /// `Executor::pooled`: a pool the caller hands in.
        Shared(usize),
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Plain,
        Profiled,
        Traced,
        /// Traced *and* profiled, so the two are shown to compose.
        TracedProfiled,
    }

    impl Mode {
        fn timed(self) -> bool {
            matches!(self, Mode::Profiled | Mode::TracedProfiled)
        }

        fn traced(self) -> bool {
            matches!(self, Mode::Traced | Mode::TracedProfiled)
        }
    }

    impl Backend {
        fn executor(self) -> Executor {
            match self {
                Backend::Inline => Executor::new(1),
                Backend::Private(n) => Executor::new(n),
                Backend::Shared(n) => Executor::pooled(WorkerPool::new(n)),
            }
        }

        fn threads(self) -> usize {
            match self {
                Backend::Inline => 1,
                Backend::Private(n) | Backend::Shared(n) => n,
            }
        }
    }

    /// What one pipeline run left behind. The counts are kept in every
    /// mode; only the busy times need `Mode::Profiled`.
    struct Outcome {
        result: ExecResult,
        sink: SumSink,
        stats: Arc<PipelineStats>,
        trace: Option<QueryTrace>,
    }

    fn run_source(
        exec: &Executor,
        mode: Mode,
        ctx: &Arc<QueryContext>,
        source: &dyn Source,
        ops: &[Arc<dyn Operator>],
    ) -> Outcome {
        let sink = SumSink::default();
        let (label, tasks) = ("test pipeline".into(), source.task_count() as u64);
        let stats = Arc::new(PipelineStats::new(
            ctx,
            label,
            ops.len(),
            tasks,
            mode.timed(),
        ));
        let traced = mode.traced();
        if traced {
            assert!(trace::begin("morsel-test"), "no other trace may be active");
        }
        let result = exec.run_pipeline_obs(ctx, source, ops, &sink, &stats);
        let trace = traced.then(|| trace::end().expect("trace recorded"));
        Outcome {
            result,
            sink,
            stats,
            trace,
        }
    }

    fn run(
        exec: &Executor,
        mode: Mode,
        ctx: &Arc<QueryContext>,
        tasks: usize,
        ops: &[Arc<dyn Operator>],
    ) -> Outcome {
        run_source(exec, mode, ctx, &NumberSource { tasks }, ops)
    }

    fn morsel_spans(t: &QueryTrace) -> Vec<&TraceSpan> {
        t.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Morsel)
            .collect()
    }

    #[test]
    fn every_backend_and_observation_mode_runs_the_same_pipeline() {
        // The tracer is process-global: serialize with its lifecycle test.
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let backends = [
            Backend::Inline,
            Backend::Private(4),
            Backend::Shared(1),
            Backend::Shared(4),
        ];
        for backend in backends {
            // One executor per backend for all rows: it must stay usable
            // after the failing and panicking ones.
            let exec = backend.executor();
            assert_eq!(exec.threads(), backend.threads());
            // A private pool is spawned by the first pipeline, not before.
            let pooled = !matches!(backend, Backend::Inline);
            assert_eq!(
                exec.worker_pool().is_some(),
                matches!(backend, Backend::Shared(_))
            );
            let modes = [
                Mode::Plain,
                Mode::Profiled,
                Mode::Traced,
                Mode::TracedProfiled,
            ];
            for mode in modes {
                let case = format!("{backend:?} {mode:?}");
                let ctx = QueryContext::unbounded();

                // No operators: every value reaches the sink once.
                let o = run(&exec, mode, &ctx, 40, &[]);
                o.result.unwrap();
                assert_eq!(o.sink.total(), expected_sum(40), "{case}");
                assert!(o.sink.finished(), "{case}");
                assert_eq!(exec.worker_pool().is_some(), pooled, "{case}");

                // Multi-emission through a chain, and the counts it leaves.
                let ops: Vec<Arc<dyn Operator>> = vec![Arc::new(DupOp), Arc::new(DupOp)];
                let o = run(&exec, mode, &ctx, 20, &ops);
                o.result.unwrap();
                assert_eq!(o.sink.total(), 4 * expected_sum(20), "{case}");
                assert!(o.sink.finished(), "{case}");
                assert_eq!(o.stats.source.morsels(), 20, "{case}");
                assert_eq!(
                    stage_rows(&o.stats),
                    [(0, 40), (40, 80), (80, 160), (160, 0)],
                    "{case}"
                );
                assert!(o.stats.wall_ns() > 0, "{case}");
                if !pooled {
                    assert_eq!(o.stats.workers(), backend.threads() as u64, "{case}");
                } else {
                    assert!((1..=backend.threads() as u64).contains(&o.stats.workers()));
                }
                // Clock reads per batch are what `timed` buys.
                let op_busy = o.stats.ops[0].busy_ns() + o.stats.ops[1].busy_ns();
                assert_eq!(op_busy > 0, mode.timed(), "{case}");
                if let Some(t) = &o.trace {
                    // One morsel span per task, rows attributed, pipeline
                    // labeled.
                    let morsels = morsel_spans(t);
                    assert_eq!(morsels.len(), 20, "{case}");
                    assert_eq!(morsels.iter().map(|s| s.arg).sum::<u64>(), 40, "{case}");
                    assert_eq!(t.pipelines.len(), 1, "{case}");
                    assert_eq!(t.pipelines[0].label, "test pipeline", "{case}");
                    assert_eq!(t.pipelines[0].workers as usize, backend.threads());
                    t.validate().expect("trace invariants");
                }

                // A flush traverses the operators downstream of it, and its
                // rows are attributed to the buffering operator.
                let buffer = Arc::new(BufferAllOp::default());
                let ops: Vec<Arc<dyn Operator>> = vec![buffer.clone(), Arc::new(DupOp)];
                let o = run(&exec, mode, &ctx, 7, &ops);
                o.result.unwrap();
                assert_eq!(o.sink.total(), 2 * expected_sum(7), "{case}");
                assert_eq!(
                    stage_rows(&o.stats),
                    [(0, 14), (14, 14), (14, 28), (28, 0)],
                    "{case}"
                );

                // A zero-task pipeline still gets exactly one flush, one
                // `finish_local` and `finish`.
                let buffer = Arc::new(BufferAllOp::default());
                let ops: Vec<Arc<dyn Operator>> = vec![buffer.clone()];
                let o = run(&exec, mode, &ctx, 0, &ops);
                o.result.unwrap();
                assert_eq!(o.sink.total(), 0, "{case}");
                assert!(o.sink.finished(), "{case}");
                assert_eq!(buffer.flushes.load(Ordering::Relaxed), 1, "{case}");
                assert_eq!(o.sink.finish_locals.load(Ordering::Relaxed), 1, "{case}");
                assert_eq!(o.stats.source.morsels(), 0, "{case}");

                // An operator error comes back, `finish` is skipped, and
                // the partial counts and spans are still published.
                let ops: Vec<Arc<dyn Operator>> = vec![Arc::new(FailOnValueOp { trigger: 200 })];
                let o = run(&exec, mode, &ctx, 40, &ops);
                let err = o.result.unwrap_err();
                assert!(
                    matches!(
                        err,
                        ExecError::Operator {
                            op: "fail-on-value",
                            ..
                        }
                    ),
                    "{case}: {err}"
                );
                assert!(!o.sink.finished(), "{case}: finish must be skipped");
                // Task 20 failed, but its source emission was counted.
                assert!(o.stats.source.rows_out() >= 2, "{case}");
                if let Some(t) = &o.trace {
                    assert!(!morsel_spans(t).is_empty(), "{case}: partial timeline");
                    t.validate().expect("trace invariants after failure");
                }

                // A panic is isolated and typed.
                let ops: Vec<Arc<dyn Operator>> = vec![Arc::new(PanicOnValueOp { trigger: 130 })];
                let o = run(&exec, mode, &ctx, 30, &ops);
                match o.result.unwrap_err() {
                    ExecError::WorkerPanic { message } => {
                        assert!(message.contains("injected panic"), "{case}: {message}")
                    }
                    other => panic!("{case}: expected WorkerPanic, got {other}"),
                }
                assert!(!o.sink.finished(), "{case}");
                if let Some(t) = &o.trace {
                    t.validate().expect("trace invariants after panic");
                }

                // A pre-cancelled context stops before any work.
                let cancelled = QueryContext::unbounded();
                cancelled.cancel();
                let o = run(&exec, mode, &cancelled, 40, &[]);
                assert_eq!(o.result.unwrap_err(), ExecError::Cancelled, "{case}");
                assert_eq!(o.sink.total(), 0, "{case}");

                // And the executor serves the next query.
                let o = run(&exec, mode, &ctx, 10, &[]);
                o.result.unwrap();
                assert_eq!(o.sink.total(), expected_sum(10), "{case}");

                // Profiled: the live reader and the profiler read one
                // block. What the registry hands out mid-flight is the
                // submitter's own `Arc`, and its final slots are what the
                // profile tree sums (`ProfCtx::build` is `add_stats`).
                if mode == Mode::Profiled {
                    ctx.arm();
                    let source = WatchingSource {
                        inner: NumberSource { tasks: 12 },
                        query_id: ctx.query_id(),
                        seen: Mutex::new(Vec::new()),
                    };
                    let ops: Vec<Arc<dyn Operator>> = vec![Arc::new(DupOp)];
                    let o = run_source(&exec, mode, &ctx, &source, &ops);
                    o.result.unwrap();
                    let seen = source.seen.into_inner().unwrap();
                    assert_eq!(seen.len(), 1, "{case}: one live pipeline of the query");
                    assert!(Arc::ptr_eq(&seen[0].block, &o.stats), "{case}");
                    assert!(seen[0].tasks_done < 12, "{case}: read mid-flight");
                    let summed: Vec<_> = o
                        .stats
                        .stages()
                        .map(|(_, st)| {
                            let mut node = ProfileNode::new("stage");
                            node.add_stats(st);
                            (node.rows_in, node.rows_out, node.batches)
                        })
                        .collect();
                    assert_eq!(summed, [(0, 24, 12), (24, 48, 12), (48, 0, 24)], "{case}");
                }
            }
        }
    }

    #[test]
    fn first_error_wins_and_finish_is_skipped() {
        let failure = Failure::new();
        assert!(!failure.raised());
        failure.guard(|| Err(ExecError::Cancelled));
        failure.guard(|| Err(ExecError::operator("late", "second error")));
        failure.guard(|| panic!("third"));
        assert!(failure.raised());
        let sink = SumSink::default();
        assert_eq!(failure.conclude(&sink).unwrap_err(), ExecError::Cancelled);
        assert!(!sink.finished());
    }
}
