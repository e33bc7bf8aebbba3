//! Shared per-query execution context: cooperative cancellation, wall-clock
//! deadline, and an atomic memory budget.
//!
//! One [`QueryContext`] is shared (via `Arc`) between the session that issued
//! a query, the executor's workers, and every materializing primitive:
//!
//! * Workers call [`QueryContext::check`] once per claimed morsel, so a
//!   cancellation or deadline breach stops the pipeline within one morsel of
//!   work per worker.
//! * Materializing primitives (radix partition pages, hash-table build,
//!   SWWCB buffers) call [`QueryContext::try_reserve`] before allocating and
//!   [`QueryContext::release`] when the memory is dropped, so a query-wide
//!   budget can be enforced no matter which operator allocates.
//!
//! The context is deliberately reusable: a session arms the same context for
//! each query with [`QueryContext::arm`], which clears the cancel flag and
//! usage counter while keeping the configured budget and timeout.

use crate::error::{ExecError, ExecResult};
use crate::profile::PipelineStats;
use crate::progress::{QueryRecord, Recorder, WaitState};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sentinel for "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

/// Process-wide query serial; each [`QueryContext::arm`] takes the next
/// value so ASH samples and progress rows can be joined per execution.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Shared cancellation token, deadline, and memory budget for one query.
///
/// All operations are lock-free; `check` is two relaxed loads on the fast
/// path and is cheap enough to call per morsel.
#[derive(Debug)]
pub struct QueryContext {
    cancelled: AtomicBool,
    /// Deadline in nanoseconds since `epoch`; `NO_DEADLINE` when unarmed.
    deadline_ns: AtomicU64,
    /// Configured time budget (for error reporting), in milliseconds.
    budget_ms: AtomicU64,
    epoch: Instant,
    /// Memory budget in bytes; `usize::MAX` means unlimited.
    budget: AtomicUsize,
    /// Bytes currently reserved against the budget.
    used: AtomicUsize,
    /// High-water mark of `used` since the last [`QueryContext::arm`].
    high_water: AtomicUsize,
    /// Whether the executor should collect per-operator profiles.
    profiling: AtomicBool,
    /// Whether the engine should record a worker-timeline trace.
    tracing: AtomicBool,
    /// The record of the current query ([`crate::progress`]), and the trace
    /// it records into ([`crate::trace::begin`] to [`crate::trace::end`]).
    record: Mutex<Recorder>,
    /// Whether workers should sample hardware PMU counters.
    counters: AtomicBool,
    /// Base directory for spill files; `None` means `$JOINSTUDY_SPILL_DIR`
    /// or the system temp dir. Persists across [`QueryContext::arm`].
    spill_dir: Mutex<Option<PathBuf>>,
    /// Bytes written to spill files since the last [`QueryContext::arm`].
    spill_write_bytes: AtomicU64,
    /// Bytes read back from spill files since the last [`QueryContext::arm`].
    spill_read_bytes: AtomicU64,
    /// Partitions evicted to disk since the last [`QueryContext::arm`].
    spill_partitions: AtomicU64,
    /// Deepest recursive-repartitioning level reached since the last
    /// [`QueryContext::arm`] (0 = no recursion).
    spill_max_depth: AtomicU64,
    /// Join levels that closed partitions again on reload since the last
    /// [`QueryContext::arm`].
    spill_recursions: AtomicU64,
    /// Closed pairs joined by the block nested loop since the last
    /// [`QueryContext::arm`].
    spill_bnl_fallbacks: AtomicU64,
    /// Nanoseconds this query waited in the admission queue. Set by the
    /// admission controller *before* the session arms the context for
    /// execution, so it persists across [`QueryContext::arm`].
    admission_wait_ns: AtomicU64,
    /// Bytes granted by the admission controller (0 = no admission in
    /// effect). Persists across [`QueryContext::arm`] like the wait.
    admission_granted: AtomicU64,
    /// Plan-degradation events (RJ→BHJ→HHJ downgrades) observed since the
    /// last [`QueryContext::arm`]: the one degradation count, read by the
    /// profile, `jsys.statements` and `bench_check`.
    degradations: AtomicU64,
    /// Bitmask of join algorithms compiled for this query since the last
    /// [`QueryContext::arm`]; see [`QueryContext::note_join_algo`].
    join_algos: AtomicU64,
    /// Current [`WaitState`] stamp (see [`crate::progress`]): one relaxed
    /// store at existing phase boundaries, read by the ASH sampler.
    wait_state: AtomicU64,
    /// Process-wide serial of the execution this context is armed for.
    query_id: AtomicU64,
    /// Nanoseconds spent inside spill-file reads/writes since the last
    /// [`QueryContext::arm`].
    spill_io_ns: AtomicU64,
}

/// Bit flags for [`QueryContext::note_join_algo`]: which join operator
/// shapes this query's plan actually compiled to.
pub mod algo_bits {
    pub const BHJ: u64 = 1;
    pub const RJ: u64 = 2;
    pub const BRJ: u64 = 4;
    pub const HHJ: u64 = 8;

    /// Render a bitmask as a stable `+`-joined label, e.g. `"bhj+rj"`.
    /// Empty mask renders as `"-"`.
    pub fn label(mask: u64) -> String {
        let mut parts = Vec::new();
        for (bit, name) in [(BHJ, "bhj"), (RJ, "rj"), (BRJ, "brj"), (HHJ, "hhj")] {
            if mask & bit != 0 {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl Default for QueryContext {
    fn default() -> Self {
        QueryContext {
            cancelled: AtomicBool::new(false),
            deadline_ns: AtomicU64::new(NO_DEADLINE),
            budget_ms: AtomicU64::new(0),
            epoch: Instant::now(),
            budget: AtomicUsize::new(usize::MAX),
            used: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            profiling: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            record: Mutex::default(),
            counters: AtomicBool::new(false),
            spill_dir: Mutex::new(None),
            spill_write_bytes: AtomicU64::new(0),
            spill_read_bytes: AtomicU64::new(0),
            spill_partitions: AtomicU64::new(0),
            spill_max_depth: AtomicU64::new(0),
            spill_recursions: AtomicU64::new(0),
            spill_bnl_fallbacks: AtomicU64::new(0),
            admission_wait_ns: AtomicU64::new(0),
            admission_granted: AtomicU64::new(0),
            degradations: AtomicU64::new(0),
            join_algos: AtomicU64::new(0),
            wait_state: AtomicU64::new(WaitState::Other.as_u64()),
            query_id: AtomicU64::new(0),
            spill_io_ns: AtomicU64::new(0),
        }
    }
}

impl QueryContext {
    /// A context with no cancellation armed, no deadline, and no budget.
    pub fn unbounded() -> Arc<QueryContext> {
        Arc::new(QueryContext::default())
    }

    /// Request cooperative cancellation. Safe to call from any thread; the
    /// running query observes it at its next per-morsel check and returns
    /// [`ExecError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Arm (or clear, with `None`) a wall-clock deadline `timeout` from now.
    pub fn set_timeout(&self, timeout: Option<Duration>) {
        match timeout {
            Some(t) => {
                let now = self.epoch.elapsed();
                let deadline = now
                    .saturating_add(t)
                    .as_nanos()
                    .min(NO_DEADLINE as u128 - 1);
                self.budget_ms
                    .store(t.as_millis() as u64, Ordering::Relaxed);
                self.deadline_ns.store(deadline as u64, Ordering::Relaxed);
            }
            None => self.deadline_ns.store(NO_DEADLINE, Ordering::Relaxed),
        }
    }

    /// Set (or clear, with `None`) the memory budget in bytes.
    pub fn set_memory_budget(&self, bytes: Option<usize>) {
        self.budget
            .store(bytes.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// The configured memory budget, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        match self.budget.load(Ordering::Relaxed) {
            usize::MAX => None,
            b => Some(b),
        }
    }

    /// Enable or disable per-operator profiling for queries run under this
    /// context. Off by default; persists across [`QueryContext::arm`] like
    /// the budget and timeout settings.
    pub fn set_profiling(&self, on: bool) {
        self.profiling.store(on, Ordering::Relaxed);
    }

    /// Whether per-operator profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    /// Enable or disable worker-timeline tracing ([`crate::trace`]) for
    /// queries run under this context. Off by default; persists across
    /// [`QueryContext::arm`] like the profiling flag.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether worker-timeline tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Enable or disable hardware-counter sampling ([`crate::pmu`]) for
    /// queries run under this context. Off by default; persists across
    /// [`QueryContext::arm`] like the profiling and tracing flags. A no-op
    /// where `perf_event_open` is unavailable (the degraded path reports
    /// no counters but changes no results).
    pub fn set_counters(&self, on: bool) {
        self.counters.store(on, Ordering::Relaxed);
    }

    /// Whether hardware-counter sampling is enabled.
    pub fn counters(&self) -> bool {
        self.counters.load(Ordering::Relaxed)
    }

    /// Set (or clear, with `None`) the base directory for spill files.
    /// `None` falls back to `$JOINSTUDY_SPILL_DIR`, then the system temp
    /// directory. Persists across [`QueryContext::arm`] like the budget.
    pub fn set_spill_dir(&self, dir: Option<PathBuf>) {
        *self.spill_dir.lock().unwrap() = dir;
    }

    /// The configured spill base directory, if any.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        self.spill_dir.lock().unwrap().clone()
    }

    /// Account `bytes` written to spill files.
    pub fn add_spill_write(&self, bytes: u64) {
        self.spill_write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account `bytes` read back from spill files.
    pub fn add_spill_read(&self, bytes: u64) {
        self.spill_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one partition evicted to disk.
    pub fn add_spill_partition(&self) {
        self.spill_partitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one join level at `depth` that closed partitions again on
    /// reload, and raise the recorded maximum depth to it.
    pub fn note_spill_recursion(&self, depth: u64) {
        self.spill_recursions.fetch_add(1, Ordering::Relaxed);
        self.spill_max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Count one closed pair joined by the block nested loop.
    pub fn note_bnl_fallback(&self) {
        self.spill_bnl_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes written to spill files since the last [`QueryContext::arm`].
    pub fn spill_write_bytes(&self) -> u64 {
        self.spill_write_bytes.load(Ordering::Relaxed)
    }

    /// Bytes read from spill files since the last [`QueryContext::arm`].
    pub fn spill_read_bytes(&self) -> u64 {
        self.spill_read_bytes.load(Ordering::Relaxed)
    }

    /// Spill I/O since the last [`QueryContext::arm`], written plus read
    /// bytes: the one `spill_bytes` every surface reports (EXPLAIN
    /// ANALYZE's `spill=`, `jsys.query_progress`, `jsys.statements`).
    pub fn spill_bytes(&self) -> u64 {
        self.spill_write_bytes() + self.spill_read_bytes()
    }

    /// Partitions evicted to disk since the last [`QueryContext::arm`].
    pub fn spill_partitions(&self) -> u64 {
        self.spill_partitions.load(Ordering::Relaxed)
    }

    /// Deepest recursion level reached since the last [`QueryContext::arm`].
    pub fn spill_max_depth(&self) -> u64 {
        self.spill_max_depth.load(Ordering::Relaxed)
    }

    /// Reload levels that closed partitions again since the last
    /// [`QueryContext::arm`].
    pub fn spill_recursions(&self) -> u64 {
        self.spill_recursions.load(Ordering::Relaxed)
    }

    /// Block nested-loop fallbacks since the last [`QueryContext::arm`].
    pub fn spill_bnl_fallbacks(&self) -> u64 {
        self.spill_bnl_fallbacks.load(Ordering::Relaxed)
    }

    /// Record the admission-queue outcome for the upcoming query: how long
    /// it waited and how many bytes the controller granted. Called by
    /// [`crate::admission::AdmissionController::admit`] before the session
    /// arms the context, so both values survive [`QueryContext::arm`].
    pub fn set_admission_outcome(&self, wait_ns: u64, granted_bytes: u64) {
        self.admission_wait_ns.store(wait_ns, Ordering::Relaxed);
        self.admission_granted
            .store(granted_bytes, Ordering::Relaxed);
    }

    /// Nanoseconds the current query waited for admission (0 when the query
    /// never went through admission control).
    pub fn admission_wait_ns(&self) -> u64 {
        self.admission_wait_ns.load(Ordering::Relaxed)
    }

    /// Bytes the admission controller granted the current query (0 when the
    /// query never went through admission control).
    pub fn admission_granted(&self) -> u64 {
        self.admission_granted.load(Ordering::Relaxed)
    }

    /// Count one plan-degradation event against this query.
    pub fn note_degradation(&self) {
        self.degradations.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan-degradation events since the last [`QueryContext::arm`].
    pub fn degradations(&self) -> u64 {
        self.degradations.load(Ordering::Relaxed)
    }

    /// Record that the plan compiled a join of the given shape (a bit from
    /// [`algo_bits`]). Queries with several joins accumulate a mask.
    pub fn note_join_algo(&self, bit: u64) {
        self.join_algos.fetch_or(bit, Ordering::Relaxed);
    }

    /// Bitmask of join shapes compiled since the last [`QueryContext::arm`].
    pub fn join_algos(&self) -> u64 {
        self.join_algos.load(Ordering::Relaxed)
    }

    /// Stamp the current [`WaitState`]. One relaxed store; called at
    /// boundaries that already exist (admission queue, pipeline submit,
    /// morsel claim, worker drain, spill I/O) — never in a
    /// per-tuple loop. Advisory: the ASH sampler reads it every ~10 ms.
    #[inline]
    pub fn stamp_wait(&self, state: WaitState) {
        self.wait_state.store(state.as_u64(), Ordering::Relaxed);
    }

    /// The most recently stamped [`WaitState`].
    pub fn wait_state(&self) -> WaitState {
        WaitState::from_u64(self.wait_state.load(Ordering::Relaxed))
    }

    /// Process-wide serial of the current execution (0 before the first
    /// [`QueryContext::arm`]).
    pub fn query_id(&self) -> u64 {
        self.query_id.load(Ordering::Relaxed)
    }

    /// Account `ns` spent inside spill-file I/O against this query.
    #[inline]
    pub fn add_spill_io_ns(&self, ns: u64) {
        self.spill_io_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Nanoseconds spent in spill reads/writes since the last
    /// [`QueryContext::arm`].
    pub fn spill_io_ns(&self) -> u64 {
        self.spill_io_ns.load(Ordering::Relaxed)
    }

    /// The query's record. Each update leaves it whole, so a poisoned lock
    /// is taken as is.
    pub(crate) fn record(&self) -> MutexGuard<'_, Recorder> {
        self.record.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A session is about to parse the statement the next `arm` runs: its
    /// record then starts with the admission wait and parse/plan.
    pub fn open_statement(&self) {
        self.record().statement_ns = Some(crate::trace::now_ns());
    }

    /// The block of the pipeline this query runs now, if any.
    pub fn running_pipeline(&self) -> Option<Arc<PipelineStats>> {
        self.record().running()
    }

    /// End the current query's record and return it, without profile or
    /// trace (the engine calls it after the query's last pipeline).
    pub fn close_record(&self) -> QueryRecord {
        self.record().close()
    }

    /// Re-arm the context for a fresh query: clears the cancel flag, the
    /// usage counter, the high-water mark, the spill counters, the record
    /// and the per-query degradation/join-shape telemetry; re-starts the timeout
    /// clock if a timeout is configured. Budget, timeout, spill-directory,
    /// and admission-outcome settings persist (admission runs *before* the
    /// engine arms the context).
    pub fn arm(&self) {
        self.cancelled.store(false, Ordering::Release);
        self.used.store(0, Ordering::Relaxed);
        self.high_water.store(0, Ordering::Relaxed);
        self.spill_write_bytes.store(0, Ordering::Relaxed);
        self.spill_read_bytes.store(0, Ordering::Relaxed);
        self.spill_partitions.store(0, Ordering::Relaxed);
        self.spill_max_depth.store(0, Ordering::Relaxed);
        self.spill_recursions.store(0, Ordering::Relaxed);
        self.spill_bnl_fallbacks.store(0, Ordering::Relaxed);
        self.degradations.store(0, Ordering::Relaxed);
        self.join_algos.store(0, Ordering::Relaxed);
        self.spill_io_ns.store(0, Ordering::Relaxed);
        self.stamp_wait(WaitState::Other);
        let counters = self.counters() || crate::pmu::enabled();
        self.record().arm(self.admission_wait_ns(), counters);
        self.query_id.store(
            NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        if self.deadline_ns.load(Ordering::Relaxed) != NO_DEADLINE {
            let ms = self.budget_ms.load(Ordering::Relaxed);
            self.set_timeout(Some(Duration::from_millis(ms)));
        }
    }

    /// Cancellation + deadline check; called by workers once per morsel.
    #[inline]
    pub fn check(&self) -> ExecResult {
        if self.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline != NO_DEADLINE && self.epoch.elapsed().as_nanos() as u64 > deadline {
            return Err(ExecError::Timeout {
                budget_ms: self.budget_ms.load(Ordering::Relaxed),
            });
        }
        Ok(())
    }

    /// Reserve `bytes` against the memory budget. On success the caller owns
    /// the reservation and must `release` it (or transfer that obligation to
    /// the structure holding the memory). Fails with
    /// [`ExecError::BudgetExceeded`], naming this query's wait state as the
    /// phase, without changing the accounted usage.
    pub fn try_reserve(&self, bytes: usize) -> ExecResult {
        if bytes == 0 {
            return Ok(());
        }
        let budget = self.budget.load(Ordering::Relaxed);
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > budget {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(ExecError::BudgetExceeded {
                requested: bytes,
                in_use: prev,
                budget,
                phase: self.wait_state().name(),
            });
        }
        self.high_water.fetch_max(prev + bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Return `bytes` previously obtained via [`QueryContext::try_reserve`].
    pub fn release(&self, bytes: usize) {
        if bytes > 0 {
            let prev = self.used.fetch_sub(bytes, Ordering::Relaxed);
            debug_assert!(prev >= bytes, "released more budget than reserved");
        }
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Peak reservation since the last [`QueryContext::arm`].
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// RAII lease over a budget reservation: releases on drop unless the
/// reservation is [`BudgetLease::transfer`]red to a longer-lived owner.
#[derive(Debug)]
pub struct BudgetLease {
    ctx: Arc<QueryContext>,
    bytes: usize,
}

impl BudgetLease {
    /// Reserve `bytes` from `ctx`, returning a lease that auto-releases.
    pub fn reserve(ctx: &Arc<QueryContext>, bytes: usize) -> ExecResult<BudgetLease> {
        ctx.try_reserve(bytes)?;
        Ok(BudgetLease {
            ctx: Arc::clone(ctx),
            bytes,
        })
    }

    /// An empty lease on `ctx` that can grow via [`BudgetLease::grow`].
    pub fn empty(ctx: &Arc<QueryContext>) -> BudgetLease {
        BudgetLease {
            ctx: Arc::clone(ctx),
            bytes: 0,
        }
    }

    /// Extend this lease by `bytes`.
    pub fn grow(&mut self, bytes: usize) -> ExecResult {
        self.ctx.try_reserve(bytes)?;
        self.bytes += bytes;
        Ok(())
    }

    /// Release `bytes` of this lease back to the budget early (saturating
    /// at zero). Used when a structure the lease pays for shrinks before the
    /// lease itself is dropped, e.g. a memory-resident spill partition being
    /// evicted to disk.
    pub fn shrink(&mut self, bytes: usize) {
        let freed = bytes.min(self.bytes);
        self.bytes -= freed;
        self.ctx.release(freed);
    }

    /// Bytes held by this lease.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Give up ownership without releasing: the reservation now belongs to
    /// whoever tracks the returned byte count (typically the materialized
    /// structure the memory was charged for).
    pub fn transfer(mut self) -> usize {
        std::mem::replace(&mut self.bytes, 0)
    }

    /// Merge another lease (on the same context) into this one.
    pub fn absorb(&mut self, other: BudgetLease) {
        debug_assert!(Arc::ptr_eq(&self.ctx, &other.ctx));
        self.bytes += other.transfer();
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.ctx.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_and_rearm() {
        let ctx = QueryContext::unbounded();
        assert!(ctx.check().is_ok());
        ctx.cancel();
        assert_eq!(ctx.check(), Err(ExecError::Cancelled));
        ctx.arm();
        assert!(ctx.check().is_ok());
    }

    #[test]
    fn deadline_expires() {
        let ctx = QueryContext::unbounded();
        ctx.set_timeout(Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(ctx.check(), Err(ExecError::Timeout { .. })));
        ctx.set_timeout(None);
        assert!(ctx.check().is_ok());
    }

    #[test]
    fn budget_reserve_release() {
        let ctx = QueryContext::unbounded();
        ctx.set_memory_budget(Some(100));
        assert!(ctx.try_reserve(60).is_ok());
        let err = ctx.try_reserve(50).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { in_use: 60, .. }));
        // Failed reservation must not leak usage.
        assert_eq!(ctx.used(), 60);
        ctx.release(60);
        assert_eq!(ctx.used(), 0);
        assert_eq!(ctx.high_water(), 60);
    }

    /// A budget breach reports the phase its own query was in, and a failed
    /// `grow` leaks neither lease bytes nor context usage.
    #[test]
    fn breach_reports_phase_and_failed_grow_leaks_nothing() {
        let ctx = QueryContext::unbounded();
        ctx.set_memory_budget(Some(100));
        let mut lease = BudgetLease::reserve(&ctx, 40).unwrap();

        ctx.stamp_wait(WaitState::CpuPartition);
        let err = lease.grow(500).unwrap_err();
        // Neither the lease nor the context may retain the failed grow.
        assert_eq!(lease.bytes(), 40);
        assert_eq!(ctx.used(), 40);
        let ExecError::BudgetExceeded { phase, .. } = err else {
            panic!("expected budget breach, got {err}");
        };
        assert_eq!(phase, "cpu_partition");
        let msg = lease.grow(500).unwrap_err().to_string();
        assert!(msg.contains("cpu_partition phase"), "{msg}");

        lease.shrink(15);
        assert_eq!(lease.bytes(), 25);
        assert_eq!(ctx.used(), 25);
        lease.shrink(usize::MAX);
        assert_eq!(lease.bytes(), 0);
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn telemetry_fields_clear_or_persist_across_arm() {
        let ctx = QueryContext::unbounded();
        ctx.set_admission_outcome(1234, 1 << 20);
        ctx.note_degradation();
        ctx.note_join_algo(algo_bits::RJ);
        ctx.note_join_algo(algo_bits::BHJ);
        ctx.note_spill_recursion(2);
        ctx.note_spill_recursion(1);
        ctx.note_bnl_fallback();
        assert_eq!(ctx.degradations(), 1);
        assert_eq!(algo_bits::label(ctx.join_algos()), "bhj+rj");
        assert_eq!(
            (ctx.spill_recursions(), ctx.spill_max_depth()),
            (2, 2),
            "two recursions, the deeper at 2"
        );
        assert_eq!(ctx.spill_bnl_fallbacks(), 1);
        ctx.arm();
        // Per-query counters clear; admission outcome (set pre-arm) persists.
        assert_eq!(ctx.degradations(), 0);
        assert_eq!(ctx.spill_recursions(), 0);
        assert_eq!(ctx.spill_max_depth(), 0);
        assert_eq!(ctx.spill_bnl_fallbacks(), 0);
        assert_eq!(ctx.join_algos(), 0);
        assert_eq!(algo_bits::label(ctx.join_algos()), "-");
        assert_eq!(ctx.admission_wait_ns(), 1234);
        assert_eq!(ctx.admission_granted(), 1 << 20);
    }

    #[test]
    fn wait_stamp_and_time_breakdown_clear_on_arm() {
        let ctx = QueryContext::unbounded();
        assert_eq!(ctx.wait_state(), WaitState::Other);
        ctx.stamp_wait(WaitState::SpillIo);
        ctx.add_spill_io_ns(200);
        assert_eq!(ctx.wait_state(), WaitState::SpillIo);
        assert_eq!(ctx.spill_io_ns(), 200);
        let before = ctx.query_id();
        ctx.arm();
        // Per-query readings clear, and each arm takes a fresh
        // process-wide query id.
        assert_eq!(ctx.wait_state(), WaitState::Other);
        assert_eq!(ctx.spill_io_ns(), 0);
        assert!(ctx.query_id() > before);
    }

    #[test]
    fn lease_releases_on_drop_but_not_after_transfer() {
        let ctx = QueryContext::unbounded();
        ctx.set_memory_budget(Some(100));
        {
            let lease = BudgetLease::reserve(&ctx, 80).unwrap();
            assert_eq!(lease.bytes(), 80);
        }
        assert_eq!(ctx.used(), 0);

        let lease = BudgetLease::reserve(&ctx, 80).unwrap();
        let owned = lease.transfer();
        assert_eq!(owned, 80);
        assert_eq!(ctx.used(), 80, "transferred lease must not auto-release");
        ctx.release(owned);

        let mut a = BudgetLease::empty(&ctx);
        a.grow(30).unwrap();
        let b = BudgetLease::reserve(&ctx, 20).unwrap();
        a.absorb(b);
        assert_eq!(a.bytes(), 50);
        drop(a);
        assert_eq!(ctx.used(), 0);
    }
}
