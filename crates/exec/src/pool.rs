//! The worker pool: the one owner of the engine's threads.
//!
//! A [`WorkerPool`] is a fixed team of workers that serves *all* active
//! pipelines submitted to it, interleaving morsels from different queries
//! at morsel granularity. The server shares one pool among its sessions,
//! so the engine — not the OS scheduler — arbitrates the machine; an
//! [`Executor::new(n > 1)`](crate::sched::Executor::new) and the engines
//! built on it own a private pool of `n` workers, spawned for the first
//! pipeline and kept for the rest.
//!
//! # Design
//!
//! This module owns the threads, the fairness rule and retirement; what
//! runs on the threads is the one morsel loop of [`crate::morsel`], the
//! same `step` / `drain` an inline run makes. A submitted [`Pipeline`]
//! (with its shared atomic task cursor and first-error failure slot)
//! becomes an [`ActivePipeline`], tagged with a pipeline id. Workers loop
//! over a small state machine:
//!
//! 1. If this worker holds a [`Worker`] for a pipeline that is *exhausted*
//!    (cursor drained or failure raised), `drain` it — exactly like an
//!    inline run that ran out of tasks. Draining before anything else is
//!    what makes the pool deadlock-free: a worker never parks while it
//!    still owes a pipeline its merge step.
//! 2. Otherwise run one `step` — at most one morsel — of the next claimable
//!    pipeline in round-robin order (the fairness rule: a heavy query
//!    cannot starve a light one — between two morsels of query A every
//!    other active query gets offered a morsel first). A worker joins a
//!    pipeline only while it has fewer workers than tasks, so no pipeline
//!    builds more sets of operator and sink locals (and their memory) than
//!    it has tasks. A pipeline with zero tasks is still *adopted* by
//!    exactly one worker so it gets the one flush + `finish_local` an
//!    inline run gives it.
//! 3. If nothing is claimable, park on a condvar until a submit, an
//!    exhaustion, or shutdown wakes the pool.
//!
//! Panics are caught per step and land in the pipeline's failure slot as
//! `ExecError::WorkerPanic` — a bug in one query cannot take down the pool
//! or any other query.
//!
//! A traced pipeline runs here like any other. Worker `w` records its
//! spans on trace track `w`, so the morsels it runs for other queries in
//! between show as gaps in this query's timeline, not as its spans.
//!
//! # Borrow safety
//!
//! [`WorkerPool::run`] hands long-lived pool threads a [`Pipeline`] that
//! borrows its source/ops/sink from the submitter's stack, so the pipeline
//! record stores a raw pointer to it. This is sound because the submitting
//! thread **blocks until the pipeline retires**: retirement requires that
//! no worker is engaged on the pipeline and that every held [`Worker`] has
//! been drained and dropped, and a retired pipeline is removed from the
//! active list so no worker can select it again. The pointer therefore
//! never outlives the borrow it was created from.

use crate::morsel::{Pipeline, Worker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The submitter's [`Pipeline`], lifetime-erased so long-lived pool workers
/// can reach it. See the module docs for why this is sound (the submitter
/// outlives every access).
struct PipelinePtr(*const Pipeline<'static>);

// SAFETY: sending the pointer moves no ownership; the submitting thread
// keeps the pipeline alive until it retires.
unsafe impl Send for PipelinePtr {}
// SAFETY: the pointee is `Sync`: its borrowed context, counter block,
// source, ops and sink are (`QueryContext` and `PipelineStats` are, the
// traits require it), its cursor is an atomic and its failure slot an
// atomic flag plus a mutex.
unsafe impl Sync for PipelinePtr {}

/// One pipeline currently being served by the pool. The counters are only
/// mutated under the pool's state lock; the claim cursor and failure flag
/// the hot path touches live in the [`Pipeline`].
struct ActivePipeline {
    id: u64,
    pipeline: PipelinePtr,
    /// Workers currently inside a step or drain for this pipeline.
    /// Retirement requires zero.
    engaged: AtomicUsize,
    /// Workers holding an un-drained [`Worker`]. Retirement requires zero.
    holders: AtomicUsize,
    /// Whether any worker ever created locals — guarantees zero-task
    /// pipelines still get one ops-flush + `finish_local` pass.
    adopted: AtomicBool,
    /// Distinct workers that participated; reported to the profiler.
    participants: AtomicUsize,
    /// Set at retirement, under the state lock; the submitter waits on it.
    done: AtomicBool,
}

impl ActivePipeline {
    /// The submitted pipeline.
    ///
    /// # Safety
    ///
    /// The caller keeps the pipeline from retiring while it uses the
    /// reference: it is engaged on it, or holds the state lock with the
    /// pipeline not `done`. Until retirement the submitter is blocked in
    /// [`WorkerPool::run`], so the pipeline lives.
    unsafe fn pipeline(&self) -> &Pipeline<'_> {
        &*self.pipeline.0
    }

    /// No more morsels will ever be claimed: tasks drained, a failure
    /// raised, or retired. Held workers must now be drained. `_locked` is
    /// the state the caller holds the lock of.
    fn exhausted(&self, _locked: &PoolState) -> bool {
        // SAFETY: under the state lock a pipeline that is not `done` cannot
        // retire, so its submitter is still blocked.
        self.done.load(Ordering::Relaxed) || unsafe { self.pipeline() }.exhausted()
    }

    /// Whether a worker scanning the active list should pick this
    /// pipeline: nobody adopted it yet, or a morsel is claimable and the
    /// worker already `holds` it or the pipeline has fewer workers than
    /// tasks — so a one-task pipeline makes one set of locals, as inline.
    fn selectable(&self, locked: &PoolState, holds: bool) -> bool {
        if self.exhausted(locked) {
            return !self.adopted.load(Ordering::Relaxed);
        }
        // SAFETY: as in `exhausted`; this one is not `done`.
        let tasks = unsafe { self.pipeline() }.task_count;
        holds || self.participants.load(Ordering::Relaxed) < tasks
    }
}

/// What a worker decided to do after scanning the shared state.
enum Action {
    /// Claim (at most) one morsel from this pipeline.
    Work(Arc<ActivePipeline>),
    /// Drain this worker's state for an exhausted pipeline.
    Flush(u64),
}

struct PoolState {
    active: Vec<Arc<ActivePipeline>>,
    /// Round-robin start index for the next selection scan.
    rr: usize,
}

struct PoolInner {
    threads: usize,
    state: Mutex<PoolState>,
    /// Signalled on submit, exhaustion, and shutdown.
    work_cv: Condvar,
    /// Signalled on retirement; submitters wait here.
    done_cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
}

/// A fixed team of OS worker threads serving morsels from every active
/// pipeline. Create once per process (or per server), share via `Arc`,
/// and hand to [`crate::sched::Executor::pooled`].
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.inner.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        assert!(threads > 0, "worker pool needs at least one thread");
        let inner = Arc::new(PoolInner {
            threads,
            state: Mutex::new(PoolState {
                active: Vec::new(),
                rr: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        });
        let handles = (0..threads)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("joinstudy-pool-{w}"))
                    .spawn(move || worker_loop(inner, w as u32))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            inner,
            handles: Mutex::new(handles),
        })
    }

    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Number of pipelines currently active on this pool.
    pub fn active_pipelines(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .active
            .len()
    }

    /// Submit `p` and block until it retires; returns how many workers
    /// took part. On return every held worker state has been drained and
    /// dropped, so no worker still references `p`.
    pub(crate) fn run(&self, p: &Pipeline<'_>) -> u64 {
        let pipe = Arc::new(ActivePipeline {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            // Erases only the lifetime: `p` is borrowed until this function
            // returns, which is after the pipeline retired.
            pipeline: PipelinePtr(std::ptr::from_ref(p).cast()),
            engaged: AtomicUsize::new(0),
            holders: AtomicUsize::new(0),
            adopted: AtomicBool::new(false),
            participants: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        });
        {
            let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            state.active.push(Arc::clone(&pipe));
        }
        self.inner.work_cv.notify_all();

        // Block until retirement. After this loop no worker holds any
        // reference into this pipeline (see module docs), so the pointer
        // is dead and the borrow may end.
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        while !pipe.done.load(Ordering::Relaxed) {
            state = self
                .inner
                .done_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        pipe.participants.load(Ordering::Relaxed).max(1) as u64
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Raised under the state lock: a worker checks `shutdown` and parks
        // in one critical section, so a store between its check and its
        // wait would be a lost wake-up and a join that never returns.
        {
            let _state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.work_cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>, track: u32) {
    // Per-(worker, pipeline) state — exactly what an inline run keeps on
    // its stack for the duration of a pipeline.
    let mut held: HashMap<u64, (Arc<ActivePipeline>, Worker)> = HashMap::new();
    loop {
        // Selection under the state lock: drain duties first, then a fair
        // round-robin scan, then park.
        let (action, fresh) = {
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some((id, (pipe, _))) = held.iter().find(|(_, (p, _))| p.exhausted(&state)) {
                    pipe.engaged.fetch_add(1, Ordering::Relaxed);
                    break (Action::Flush(*id), false);
                }
                let n = state.active.len();
                let mut picked = None;
                for k in 0..n {
                    let i = (state.rr + k) % n;
                    let p = &state.active[i];
                    if p.selectable(&state, held.contains_key(&p.id)) {
                        state.rr = (i + 1) % n;
                        picked = Some(Arc::clone(&state.active[i]));
                        break;
                    }
                }
                if let Some(p) = picked {
                    p.engaged.fetch_add(1, Ordering::Relaxed);
                    let fresh = !held.contains_key(&p.id);
                    if fresh {
                        p.holders.fetch_add(1, Ordering::Relaxed);
                        p.adopted.store(true, Ordering::Relaxed);
                        p.participants.fetch_add(1, Ordering::Relaxed);
                    }
                    break (Action::Work(p), fresh);
                }
                if inner.shutdown.load(Ordering::Acquire) && state.active.is_empty() {
                    debug_assert!(held.is_empty(), "shutdown with undrained workers");
                    return;
                }
                state = inner.work_cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };

        match action {
            // One-morsel steps are the fairness quantum: after every morsel
            // the worker rescans the active list, so other queries get
            // served in between.
            Action::Work(pipe) => {
                {
                    // SAFETY: `engaged` was raised under the lock, so the
                    // pipeline cannot retire before it is lowered below.
                    let p = unsafe { pipe.pipeline() };
                    p.failure.guard(|| {
                        let (_, worker) = held
                            .entry(pipe.id)
                            .or_insert_with(|| (Arc::clone(&pipe), Worker::new(p, track)));
                        worker.step(p).map(drop)
                    });
                }
                let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                // If creating locals panicked, no worker state exists and
                // the holder slot reserved above must be handed back.
                if fresh && !held.contains_key(&pipe.id) {
                    pipe.holders.fetch_sub(1, Ordering::Relaxed);
                }
                pipe.engaged.fetch_sub(1, Ordering::Relaxed);
                if !maybe_retire(&mut state, &inner, &pipe) && pipe.exhausted(&state) {
                    // Wake holders on other workers so they drain.
                    inner.work_cv.notify_all();
                }
            }
            Action::Flush(id) => {
                let (pipe, mut worker) = held.remove(&id).expect("drain of un-held pipeline");
                {
                    // SAFETY: as above — engaged until lowered below.
                    let p = unsafe { pipe.pipeline() };
                    p.failure.guard(|| worker.drain(p));
                }
                drop(worker);
                let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                pipe.holders.fetch_sub(1, Ordering::Relaxed);
                pipe.engaged.fetch_sub(1, Ordering::Relaxed);
                maybe_retire(&mut state, &inner, &pipe);
            }
        }
    }
}

/// Retire a pipeline once it is adopted, exhausted, and nobody holds or
/// runs state for it; returns whether it retired. Called under the pool
/// state lock.
fn maybe_retire(state: &mut PoolState, inner: &PoolInner, pipe: &Arc<ActivePipeline>) -> bool {
    let retire = !pipe.done.load(Ordering::Relaxed)
        && pipe.adopted.load(Ordering::Relaxed)
        && pipe.engaged.load(Ordering::Relaxed) == 0
        && pipe.holders.load(Ordering::Relaxed) == 0
        && pipe.exhausted(state);
    if retire {
        state.active.retain(|q| q.id != pipe.id);
        pipe.done.store(true, Ordering::Relaxed);
        inner.done_cv.notify_all();
    }
    retire
}

#[cfg(test)]
mod tests {
    //! What only the pool does: interleaving concurrent pipelines, with the
    //! counter block readable mid-flight. That a pooled pipeline computes
    //! what an inline one does is a row of the table in [`crate::morsel`].

    use super::*;
    use crate::context::QueryContext;
    use crate::metrics::MemPhase;
    use crate::morsel::PipelineLabel;
    use crate::pipeline::Operator;
    use crate::profile::PipelineStats;
    use crate::progress::WaitState;
    use crate::sched::Executor;
    use crate::test_fixtures::*;

    #[test]
    fn pool_interleaves_concurrent_pipelines() {
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            std::thread::scope(|scope| {
                for client in 0..8usize {
                    let exec = Executor::pooled(Arc::clone(&pool));
                    scope.spawn(move || {
                        let tasks = 5 + client * 3;
                        let ops: Vec<Arc<dyn Operator>> = if client % 2 == 0 {
                            vec![Arc::new(BufferAllOp::default())]
                        } else {
                            vec![]
                        };
                        let sink = SumSink::default();
                        let ctx = QueryContext::unbounded();
                        exec.run_pipeline(&ctx, &NumberSource { tasks }, &ops, &sink)
                            .unwrap();
                        assert!(sink.finished());
                        assert_eq!(
                            sink.total(),
                            expected_sum(tasks),
                            "client {client} threads {threads}"
                        );
                    });
                }
            });
            assert_eq!(pool.active_pipelines(), 0);
        }
    }

    /// Run six tasks through one [`DupOp`] and return what the last task
    /// saw of its own pipeline in the live registry.
    fn watch(exec: &Executor, label: Option<PipelineLabel<'_>>) -> Seen {
        let ctx = QueryContext::unbounded();
        ctx.arm();
        let source = WatchingSource {
            inner: NumberSource { tasks: 6 },
            ctx: Arc::clone(&ctx),
            seen: Mutex::new(Vec::new()),
        };
        let ops: Vec<Arc<dyn Operator>> = vec![Arc::new(DupOp)];
        let sink = SumSink::default();
        match label {
            Some(label) => {
                let stats = Arc::new(PipelineStats::new(&ctx, label, 1, 6, false));
                exec.run_pipeline_obs(&ctx, &source, &ops, &sink, &stats)
            }
            None => exec.run_pipeline(&ctx, &source, &ops, &sink),
        }
        .unwrap();
        let mut seen = source.seen.into_inner().unwrap();
        assert_eq!(seen.len(), 1, "exactly one live pipeline for the query");
        seen.remove(0)
    }

    #[test]
    fn live_progress_carries_the_submitted_label_and_per_morsel_counts() {
        // One worker, so the five morsels before the watching one are done
        // and published when it looks.
        let exec = Executor::pooled(WorkerPool::new(1));
        let label = PipelineLabel {
            name: "RJ partition (build)",
            cpu: WaitState::CpuPartition,
            phase: MemPhase::Build,
            est_rows: 12,
        };
        let s = watch(&exec, Some(label));
        assert_eq!(
            (s.block.label.as_str(), s.block.est_rows),
            ("RJ partition (build)", 12)
        );
        assert_eq!((s.tasks_done, s.block.tasks_total), (5, 6));
        assert_eq!(s.rows, [(0, 10), (10, 20), (20, 0)]);
        // Exact once retired: the reader's block now holds the final counts.
        assert_eq!(s.block.tasks_done(), 6);
        assert_eq!(stage_rows(&s.block), [(0, 12), (12, 24), (24, 0)]);
    }

    #[test]
    fn unlabeled_pooled_pipeline_does_not_inherit_an_earlier_label() {
        // A labelled inline run …
        let label = PipelineLabel {
            name: "BHJ build",
            cpu: WaitState::CpuBuild,
            phase: MemPhase::Build,
            est_rows: 7,
        };
        let ctx = QueryContext::unbounded();
        let stats = Arc::new(PipelineStats::new(&ctx, label, 0, 3, false));
        let sink = SumSink::default();
        Executor::new(1)
            .run_pipeline_obs(&ctx, &NumberSource { tasks: 3 }, &[], &sink, &stats)
            .unwrap();
        // … must not name an unlabelled pooled pipeline this thread submits
        // next.
        let s = watch(&Executor::pooled(WorkerPool::new(2)), None);
        assert_eq!((s.block.label.as_str(), s.block.est_rows), ("pipeline", 0));
        assert_eq!(s.block.phase, MemPhase::Other);
    }
}
