//! Admission control: a global memory pool in front of the worker pool.
//!
//! Concurrent queries share one machine-wide memory budget. Before a query
//! executes, the server asks the [`AdmissionController`] for a grant; the
//! controller hands back an [`AdmissionGrant`] — an RAII lease carving
//! `bytes` out of the global pool — which the session installs as the
//! query's [`QueryContext`] memory budget. Dropping the grant (query done,
//! failed, or client gone) returns the bytes and wakes the queue.
//!
//! # Queueing and fairness
//!
//! Admission is strict FIFO over a ticket queue: a query asks for its
//! *desired* budget, and only the queue head may be admitted — later
//! arrivals can never overtake an earlier one no matter how small their
//! ask is, which is what rules out starvation (every queued query is
//! eventually at the head, and the head is admitted as soon as *any*
//! memory frees up, see below).
//!
//! # Preemption by grant-shrinking
//!
//! Under pressure the controller does not block the head until its full
//! desired budget is free. Once at least `min_grant` bytes are available
//! the head is admitted with `min(desired, available)` — a *reduced*
//! grant. A reduced budget is exactly the signal the planner already
//! reacts to: a radix-partitioned build that no longer fits degrades down
//! the RJ → BHJ → spilling-HHJ chain (PR 5/6), so shrinking the grant *is*
//! the preemption of queued radix builds the serving layer needs — the
//! query still runs, just with a plan shape that respects the contended
//! pool. `NOCAP` (PAPERS.md) makes the same observation from the other
//! side: the partition/no-partition verdict shifts when memory is shared.
//!
//! # Invariants (property-tested in `tests/admission_props.rs`)
//!
//! * The sum of live grants never exceeds the pool size.
//! * Every admitted request is eventually granted or cancelled (no
//!   starvation), because admission is FIFO and every release notifies.

use crate::context::QueryContext;
use crate::error::ExecResult;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often a queued query re-checks its [`QueryContext`] for
/// cancellation/deadline while waiting for memory.
const WAIT_TICK: Duration = Duration::from_millis(5);

struct AdmState {
    /// Bytes not currently leased out.
    available: usize,
    /// FIFO of waiting tickets; only the front may be admitted.
    queue: VecDeque<u64>,
    next_ticket: u64,
    /// High-water mark of leased bytes, for invariant checks.
    peak_granted: usize,
    /// Total admissions, ever.
    admitted: u64,
}

/// A global memory pool with FIFO admission. Cheap to share (`Arc`); one
/// per server process.
pub struct AdmissionController {
    total: usize,
    min_grant: usize,
    state: Mutex<AdmState>,
    cv: Condvar,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("total", &self.total)
            .field("min_grant", &self.min_grant)
            .finish_non_exhaustive()
    }
}

/// RAII lease of `bytes` out of the controller's pool. Dropping it returns
/// the bytes and wakes the admission queue.
pub struct AdmissionGrant {
    ctrl: Arc<AdmissionController>,
    bytes: usize,
}

impl std::fmt::Debug for AdmissionGrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionGrant")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl AdmissionGrant {
    /// Bytes this query may use; install as its context memory budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether the grant was shrunk below what the query asked for — the
    /// signal that plans should prefer the degraded (BHJ/HHJ) shapes.
    pub fn reduced(&self, desired: usize) -> bool {
        self.bytes < desired
    }
}

impl Drop for AdmissionGrant {
    fn drop(&mut self) {
        let mut state = self.ctrl.state.lock().unwrap_or_else(|e| e.into_inner());
        state.available += self.bytes;
        debug_assert!(
            state.available <= self.ctrl.total,
            "admission pool over-released"
        );
        drop(state);
        self.ctrl.cv.notify_all();
    }
}

impl AdmissionController {
    /// A pool of `total` bytes. `min_grant` is the smallest budget worth
    /// admitting a query with (clamped to `total`); queries queue until at
    /// least that much is free.
    pub fn new(total: usize, min_grant: usize) -> Arc<AdmissionController> {
        assert!(total > 0, "admission pool must be non-empty");
        Arc::new(AdmissionController {
            total,
            min_grant: min_grant.clamp(1, total),
            state: Mutex::new(AdmState {
                available: total,
                queue: VecDeque::new(),
                next_ticket: 1,
                peak_granted: 0,
                admitted: 0,
            }),
            cv: Condvar::new(),
        })
    }

    pub fn total(&self) -> usize {
        self.total
    }

    /// Bytes currently not leased out.
    pub fn available(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .available
    }

    /// Queries currently waiting for admission.
    pub fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// High-water mark of simultaneously leased bytes.
    pub fn peak_granted(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .peak_granted
    }

    /// Total queries ever admitted.
    pub fn admitted(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admitted
    }

    /// Block until this query is admitted with up to `desired` bytes
    /// (FIFO; see module docs for the reduced-grant rule). Honors the
    /// query's cancellation flag and deadline while queued: a cancelled or
    /// timed-out query leaves the queue with
    /// [`Cancelled`](crate::error::ExecError::Cancelled) /
    /// [`Timeout`](crate::error::ExecError::Timeout) and never holds pool
    /// bytes.
    pub fn admit(
        self: &Arc<AdmissionController>,
        desired: usize,
        ctx: &QueryContext,
    ) -> ExecResult<AdmissionGrant> {
        let desired = desired.clamp(1, self.total);
        let floor = self.min_grant.min(desired);
        let enqueued = std::time::Instant::now();
        // Stamp before taking the lock so a sampler that fires while we
        // contend on the state mutex already sees the queue wait.
        ctx.stamp_wait(crate::progress::WaitState::AdmissionQueued);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(ticket);
        loop {
            if let Err(e) = ctx.check() {
                state.queue.retain(|&t| t != ticket);
                drop(state);
                // The head may have changed; let the next ticket re-check.
                self.cv.notify_all();
                ctx.stamp_wait(crate::progress::WaitState::Other);
                return Err(e);
            }
            if state.queue.front() == Some(&ticket) && state.available >= floor {
                let bytes = desired.min(state.available);
                state.available -= bytes;
                state.queue.pop_front();
                state.peak_granted = state.peak_granted.max(self.total - state.available);
                state.admitted += 1;
                drop(state);
                // The new head may also fit in what remains.
                self.cv.notify_all();
                let wait_ns = enqueued.elapsed().as_nanos() as u64;
                ctx.set_admission_outcome(wait_ns, bytes as u64);
                ctx.stamp_wait(crate::progress::WaitState::Other);
                return Ok(AdmissionGrant {
                    ctrl: Arc::clone(self),
                    bytes,
                });
            }
            let (s, _timeout) = self
                .cv
                .wait_timeout(state, WAIT_TICK)
                .unwrap_or_else(|e| e.into_inner());
            state = s;
        }
    }
}
