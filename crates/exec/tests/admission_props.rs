//! Admission-controller invariants, deterministic and property-based.
//!
//! The load-bearing guarantees:
//!
//! * **Conservation** — the sum of outstanding grants never exceeds the
//!   pool; once every grant is dropped, `available == total` exactly
//!   (no leaked or conjured bytes).
//! * **No starvation** — admission is FIFO: only the queue head is
//!   offered memory, so a large request cannot be overtaken forever by
//!   small ones. Every admitted thread eventually completes.
//! * **Preemption by reduction** — under pressure the head is admitted
//!   with a reduced grant (down to the floor) instead of waiting for its
//!   full ask, which is what lets the engine degrade RJ → BHJ → spilling
//!   HHJ rather than queue indefinitely.
//! * **Cancellation** — a cancelled waiter leaves the queue holding
//!   nothing, and cannot wedge the waiters behind it.

use joinstudy_exec::admission::AdmissionController;
use joinstudy_exec::context::QueryContext;
use joinstudy_exec::error::ExecError;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[test]
fn grant_is_full_ask_when_pool_is_idle() {
    let ctrl = AdmissionController::new(100, 10);
    let ctx = QueryContext::unbounded();
    let grant = ctrl.admit(60, &ctx).unwrap();
    assert_eq!(grant.bytes(), 60);
    assert!(!grant.reduced(60));
    assert_eq!(ctrl.available(), 40);
    drop(grant);
    assert_eq!(ctrl.available(), 100);
    assert_eq!(ctrl.admitted(), 1);
}

#[test]
fn second_query_gets_reduced_grant_under_pressure() {
    let ctrl = AdmissionController::new(100, 10);
    let ctx = QueryContext::unbounded();
    let first = ctrl.admit(60, &ctx).unwrap();
    // 40 bytes left >= floor(10): admit immediately, but reduced.
    let second = ctrl.admit(60, &ctx).unwrap();
    assert_eq!(second.bytes(), 40);
    assert!(second.reduced(60));
    assert_eq!(ctrl.available(), 0);
    drop(first);
    drop(second);
    assert_eq!(ctrl.available(), 100);
}

#[test]
fn exhausted_pool_queues_until_a_grant_returns() {
    let ctrl = AdmissionController::new(100, 10);
    let ctx = QueryContext::unbounded();
    // 95 held: 5 < floor, so the next query must wait.
    let big = ctrl.admit(95, &ctx).unwrap();
    let ctrl2 = Arc::clone(&ctrl);
    let waiter = std::thread::spawn(move || {
        let ctx = QueryContext::unbounded();
        let grant = ctrl2.admit(50, &ctx).unwrap();
        grant.bytes()
    });
    // The waiter is parked in the queue, not admitted.
    while ctrl.queued() == 0 {
        std::thread::yield_now();
    }
    assert_eq!(ctrl.available(), 5);
    drop(big);
    assert_eq!(waiter.join().unwrap(), 50);
    assert_eq!(ctrl.available(), 100);
}

#[test]
fn admission_order_is_fifo() {
    let ctrl = AdmissionController::new(100, 100);
    let ctx = QueryContext::unbounded();
    let hold = ctrl.admit(100, &ctx).unwrap();
    let order = Arc::new(Mutex::new(Vec::new()));
    let queued = Arc::new(AtomicUsize::new(0));

    let mut waiters = Vec::new();
    for i in 0..3 {
        let ctrl = Arc::clone(&ctrl);
        let order = Arc::clone(&order);
        let queued = Arc::clone(&queued);
        waiters.push(std::thread::spawn(move || {
            // Serialise queue entry so arrival order is deterministic.
            while queued.load(Ordering::Acquire) != i {
                std::thread::yield_now();
            }
            let ctx = QueryContext::unbounded();
            // admit() takes its ticket before it can block, so releasing
            // the next waiter only after our queue depth grew guarantees
            // ticket order matches this serialised entry order.
            let depth = ctrl.queued();
            let handoff = {
                let ctrl = Arc::clone(&ctrl);
                let queued = Arc::clone(&queued);
                std::thread::spawn(move || {
                    while ctrl.queued() <= depth {
                        std::thread::yield_now();
                    }
                    queued.store(i + 1, Ordering::Release);
                })
            };
            let grant = ctrl.admit(100, &ctx).unwrap();
            handoff.join().unwrap();
            order.lock().unwrap().push(i);
            drop(grant);
        }));
    }
    // Wait on the hand-off counter, not on `ctrl.queued() == 3`: the last
    // hand-off thread stores 3 only after *it* saw its waiter queued. If
    // `hold` were dropped on the controller's depth alone, the queue could
    // drain before that thread ever looked, and it would spin forever.
    while queued.load(Ordering::Acquire) < 3 {
        std::thread::yield_now();
    }
    drop(hold);
    for w in waiters {
        w.join().unwrap();
    }
    assert_eq!(
        *order.lock().unwrap(),
        vec![0, 1, 2],
        "FIFO admission order"
    );
    assert_eq!(ctrl.available(), 100);
}

#[test]
fn cancelled_waiter_leaves_cleanly_and_unblocks_successors() {
    let ctrl = AdmissionController::new(100, 100);
    let ctx = QueryContext::unbounded();
    let hold = ctrl.admit(100, &ctx).unwrap();

    // A waiter whose query gets cancelled while queued.
    let doomed_ctx = QueryContext::unbounded();
    let doomed_handle = {
        let ctrl = Arc::clone(&ctrl);
        let ctx = Arc::clone(&doomed_ctx);
        std::thread::spawn(move || ctrl.admit(50, &ctx))
    };
    while ctrl.queued() == 0 {
        std::thread::yield_now();
    }
    // A second waiter queued behind the doomed one.
    let survivor = {
        let ctrl = Arc::clone(&ctrl);
        std::thread::spawn(move || {
            let ctx = QueryContext::unbounded();
            ctrl.admit(30, &ctx).map(|g| g.bytes())
        })
    };
    while ctrl.queued() < 2 {
        std::thread::yield_now();
    }

    doomed_ctx.cancel();
    let err = doomed_handle.join().unwrap().unwrap_err();
    assert!(
        matches!(err, ExecError::Cancelled),
        "cancelled waiter must get Cancelled, got {err:?}"
    );

    // The survivor admits as soon as the holder leaves — the dead ticket
    // ahead of it is gone.
    drop(hold);
    assert_eq!(survivor.join().unwrap().unwrap(), 30);
    assert_eq!(ctrl.available(), 100);
    assert_eq!(ctrl.queued(), 0);
}

#[test]
fn pre_cancelled_context_is_rejected_without_holding_memory() {
    let ctrl = AdmissionController::new(100, 10);
    let ctx = QueryContext::unbounded();
    ctx.cancel();
    let err = ctrl.admit(50, &ctx).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled));
    assert_eq!(ctrl.available(), 100);
    assert_eq!(ctrl.queued(), 0);
    assert_eq!(ctrl.admitted(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation + no starvation under arbitrary concurrent load:
    /// every non-cancelled request is eventually admitted with a grant
    /// in [1, total]; outstanding grants never exceed the pool (checked
    /// via `peak_granted`); and after all grants drop, the pool is
    /// byte-for-byte whole.
    #[test]
    fn concurrent_admission_conserves_the_pool(
        total in 1usize..4096,
        min_grant in 1usize..512,
        requests in prop::collection::vec((1usize..8192, any::<bool>()), 1..24),
    ) {
        let ctrl = AdmissionController::new(total, min_grant);
        let completed = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            for &(desired, cancelled) in &requests {
                let ctrl = Arc::clone(&ctrl);
                let completed = Arc::clone(&completed);
                scope.spawn(move || {
                    let ctx = QueryContext::unbounded();
                    if cancelled {
                        ctx.cancel();
                    }
                    match ctrl.admit(desired, &ctx) {
                        Ok(grant) => {
                            assert!(grant.bytes() >= 1);
                            assert!(grant.bytes() <= ctrl.total());
                            assert!(grant.bytes() <= desired.clamp(1, ctrl.total()));
                            // Hold the grant briefly so requests overlap.
                            std::thread::yield_now();
                            drop(grant);
                        }
                        Err(e) => {
                            assert!(cancelled, "only cancelled requests may fail, got {e:?}");
                            assert!(matches!(e, ExecError::Cancelled));
                        }
                    }
                    completed.fetch_add(1, Ordering::Release);
                });
            }
        });

        // No starvation: the scope only exits because every thread —
        // including every non-cancelled waiter — ran to completion.
        prop_assert_eq!(completed.load(Ordering::Acquire), requests.len());
        // Conservation: nothing leaked, nothing conjured.
        prop_assert_eq!(ctrl.available(), ctrl.total());
        prop_assert_eq!(ctrl.queued(), 0);
        prop_assert!(ctrl.peak_granted() <= ctrl.total());
        let live = requests.iter().filter(|&&(_, c)| !c).count();
        prop_assert_eq!(ctrl.admitted() as usize, live);
    }
}
